import io
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import Row, column_tensor, rows_of, table_of, tensor_of
from vibrancy.errors import (
    EmptyInputError,
    TooFewLocationsError,
    UnknownServiceError,
)
from vibrancy.grid import CellId, CityRegion, GridSpec
from vibrancy.synth import SynthSpec, generate_for_day_types, write_city
from vibrancy.ingest import ServiceTaxonomy, read_traffic
from vibrancy.signatures import (
    N_BINS,
    bin_of,
    build_signatures,
    concat_tensors,
    day_type_of,
    drop_silent_cells,
    export_tensor_csv,
    minmax_scale,
    read_tensor,
    relative_risk,
    write_tensor,
)

TAX = ServiceTaxonomy({"msg": "Messaging", "vid": "Video"}, ("Messaging", "Video"))
GRID = GridSpec(0, 0, 4, 4, 100.0, "toytown")
REGION = CityRegion(GRID, frozenset(CellId(c, r) for c in range(4) for r in range(4)))


def rec(col, row, ts, service="msg", direction="downlink", volume=1.0):
    return Row(CellId(col, row), ts, service, direction, volume)


class TestDayType:
    def test_monday_is_weekday(self):
        assert day_type_of(datetime(2019, 3, 18, 10, 0)) == "weekday"

    def test_friday_counts_as_weekend(self):
        assert day_type_of(datetime(2019, 3, 22, 10, 0)) == "weekend"

    def test_sunday_is_weekend(self):
        assert day_type_of(datetime(2019, 3, 17, 10, 0)) == "weekend"

    def test_thursday_is_weekday(self):
        assert day_type_of(datetime(2019, 3, 21, 23, 45)) == "weekday"


class TestBinOf:
    @pytest.mark.parametrize(
        "hour,minute,expected",
        [(0, 30, 0), (13, 45, 6), (23, 59, 11), (2, 0, 1), (21, 59, 10)],
    )
    def test_two_hour_bins(self, hour, minute, expected):
        assert bin_of(datetime(2019, 4, 1, hour, minute)) == expected


class TestBuildSignatures:
    def test_sums_both_directions(self):
        ts = datetime(2019, 3, 18, 8, 0)
        tensor = build_signatures(
            table_of([rec(1, 1, ts, volume=1.0),
                      rec(1, 1, ts, direction="uplink", volume=2.0)]),
            TAX, REGION, "weekday",
        )
        i = tensor.cells.index(CellId(1, 1))
        assert tensor.values[i, 4, 0] == 3.0
        assert tensor.values.sum() == 3.0

    def test_friday_excluded_from_weekday_tensor(self):
        friday = datetime(2019, 3, 22, 8, 0)
        tensor = build_signatures(table_of([rec(0, 0, friday)]), TAX, REGION, "weekday")
        assert tensor.values.sum() == 0.0

    def test_matches_bruteforce_reaggregation(self, rng):
        records = []
        for _ in range(500):
            col, row = int(rng.integers(3)), 0
            hour = int(rng.integers(24))
            service = ["msg", "vid"][int(rng.integers(2))]
            direction = ["downlink", "uplink"][int(rng.integers(2))]
            day = [18, 19, 22][int(rng.integers(3))]  # two weekdays, one Friday
            records.append(
                rec(col, row, datetime(2019, 3, day, hour, 15), service, direction,
                    float(rng.uniform(0, 5)))
            )
        tensor = build_signatures(table_of(records), TAX, REGION, "weekday")
        # independent oracle: dict accumulation straight from the definitions
        expected = {}
        for r in records:
            if r.timestamp.weekday() <= 3:
                key = (r.cell, r.timestamp.hour // 2, {"msg": 0, "vid": 1}[r.service])
                expected[key] = expected.get(key, 0.0) + r.volume
        for (cell, b, d), total in expected.items():
            i = tensor.cells.index(cell)
            assert_allclose(tensor.values[i, b, d], total, rtol=1e-9)
        assert_allclose(tensor.values.sum(), sum(expected.values()), rtol=1e-9)

    def test_totals_match_contributing_volumes(self, rng):
        records = [
            rec(int(rng.integers(4)), int(rng.integers(4)),
                datetime(2019, 3, 18 + int(rng.integers(4)), int(rng.integers(24)), 0),
                volume=float(rng.uniform(0, 10)))
            for _ in range(300)
        ]
        tensor = build_signatures(table_of(records), TAX, REGION, "weekday")
        contributing = sum(
            r.volume for r in records if day_type_of(r.timestamp) == "weekday"
        )
        assert_allclose(tensor.values.sum(), contributing, rtol=1e-9)

    def test_record_order_never_changes_tensor(self, rng):
        records = [
            rec(int(rng.integers(2)), int(rng.integers(2)),
                datetime(2019, 3, 18, int(rng.integers(24)), 30),
                volume=float(rng.uniform(0, 1)))
            for _ in range(200)
        ]
        base = build_signatures(table_of(records), TAX, REGION, "weekday")
        for _ in range(5):
            shuffled = list(records)
            rng.shuffle(shuffled)
            again = build_signatures(table_of(shuffled), TAX, REGION, "weekday")
            assert np.array_equal(base.values, again.values)

    def test_unknown_service_is_hard_error(self):
        with pytest.raises(UnknownServiceError):
            build_signatures(
                table_of([rec(0, 0, datetime(2019, 3, 18, 0, 0), service="mystery")]),
                TAX, REGION, "weekday",
            )

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build_signatures(table_of([]), TAX, REGION, "weekday")

    def test_out_of_region_records_do_not_contribute(self):
        small = CityRegion(GRID, frozenset({CellId(0, 0)}))
        tensor = build_signatures(
            table_of([rec(0, 0, datetime(2019, 3, 18, 0, 0), volume=1.0),
                      rec(2, 2, datetime(2019, 3, 18, 0, 0), volume=5.0)]),
            TAX, small, "weekday",
        )
        assert tensor.n == 1
        assert tensor.values.sum() == 1.0

    def test_off_grid_records_do_not_wrap_into_other_cells(self):
        ts = datetime(2019, 3, 18, 0, 0)
        tensor = build_signatures(
            table_of([rec(4, 0, ts, volume=1.0), rec(-1, 1, ts, volume=2.0),
                      rec(0, -1, ts, volume=4.0), rec(0, 4, ts, volume=8.0)]),
            TAX, REGION, "weekday",
        )
        assert tensor.values.sum() == 0.0

    def test_mean_per_day_averages_observed_days(self):
        ts_mon = datetime(2019, 3, 18, 6, 0)
        ts_tue = datetime(2019, 3, 19, 6, 0)
        tensor = build_signatures(
            table_of([rec(0, 0, ts_mon, volume=4.0), rec(0, 0, ts_tue, volume=2.0)]),
            TAX, REGION, "weekday", mean_per_day=True,
        )
        assert tensor.values[0, 3, 0] == 3.0


def reference_signatures(rows, taxonomy, region, day_type, mean_per_day=False):
    """The row-at-a-time aggregation the columnar path must reproduce bit for
    bit: same flat index, same canonical lexsort + add.at order."""
    cells = region.cells_in_scan_order()
    index = {cell: i for i, cell in enumerate(cells)}
    depth = taxonomy.n_categories
    flat_idx, volumes, dates = [], [], set()
    for r in rows:
        d = taxonomy.category_index(r.service)
        if day_type_of(r.timestamp) != day_type:
            continue
        dates.add(r.timestamp.date())
        i = index.get(r.cell)
        if i is not None:
            flat_idx.append((i * N_BINS + bin_of(r.timestamp)) * depth + d)
            volumes.append(r.volume)
    flat = np.zeros(len(cells) * N_BINS * depth)
    idx, vol = np.asarray(flat_idx, dtype=np.int64), np.asarray(volumes, dtype=np.float64)
    order = np.lexsort((vol, idx))
    np.add.at(flat, idx[order], vol[order])
    values = flat.reshape(len(cells), N_BINS, depth)
    return values / len(dates) if mean_per_day and dates else values


class TestColumnarIngest:
    @pytest.fixture(scope="class", params=[(3, 30), (8, 41)], ids=["seed3", "seed8"])
    def city(self, request, tmp_path_factory):
        seed, n_cells = request.param
        spec = SynthSpec(seed=seed, n_cells=n_cells, k_true=3, noise_sigma=1.0, n_days=2,
                         region_name="synth")
        truth = generate_for_day_types(spec, ["weekday", "weekend"])
        paths = write_city(truth, tmp_path_factory.mktemp(f"city{seed}"))
        return truth, paths["traffic"]

    @pytest.mark.parametrize("mean_per_day", [False, True])
    @pytest.mark.parametrize("day_type", ["weekday", "weekend"])
    def test_table_and_records_match_the_reference(self, city, day_type, mean_per_day):
        truth, traffic_csv = city
        table, report = read_traffic(traffic_csv, truth.region.grid)
        assert report.rejected == 0 and rows_of(table) == rows_of(truth.traffic)
        expected = reference_signatures(rows_of(truth.traffic), truth.service_taxonomy,
                                        truth.region, day_type, mean_per_day)
        assert expected.sum() > 0
        for traffic in (table, truth.traffic):
            tensor = build_signatures(traffic, truth.service_taxonomy, truth.region,
                                      day_type, mean_per_day=mean_per_day)
            assert np.array_equal(tensor.values, expected)

    def test_shuffled_csv_lines_give_bitwise_equal_tensors(self, city, rng):
        truth, traffic_csv = city
        header, *lines = traffic_csv.read_text().splitlines(keepends=True)
        rng.shuffle(lines)
        shuffled, _ = read_traffic(io.StringIO(header + "".join(lines)), truth.region.grid)
        table, _ = read_traffic(traffic_csv, truth.region.grid)
        for day_type in ("weekday", "weekend"):
            a, b = (build_signatures(t, truth.service_taxonomy, truth.region, day_type,
                                     mean_per_day=True) for t in (table, shuffled))
            assert np.array_equal(a.values, b.values)

    def test_unknown_service_on_another_day_type_is_still_an_error(self):
        table, _ = read_traffic(io.StringIO(
            "col,row,timestamp,service,direction,volume\n"
            "0,0,2019-03-18T08:00,msg,uplink,1.0\n"  # Monday
            "0,0,2019-03-23T08:00,mystery,uplink,1.0\n"  # Saturday
        ), GRID)
        with pytest.raises(UnknownServiceError, match="mystery"):
            build_signatures(table, TAX, REGION, "weekday")


class TestRelativeRisk:
    def test_reference_column(self):
        rr = relative_risk(column_tensor([2.0, 1.0, 1.0]))
        assert_allclose(rr.values[:, 0, 0], [2.0, 2 / 3, 2 / 3], rtol=1e-12)

    def test_identical_values_give_ratio_one(self):
        rr = relative_risk(column_tensor([7.5] * 5))
        assert np.all(rr.values == 1.0)

    def test_zero_denominator_rule(self):
        rr = relative_risk(column_tensor([5.0, 0.0, 0.0]), cap=1e6)
        assert_allclose(rr.values[:, 3, 0], [1e6, 0.0, 0.0])
        assert (3, 0) in rr.capped_columns
        assert len(rr.capped_columns) == 12

    def test_all_zero_column_is_neutral(self):
        values = np.zeros((3, 12, 2))
        values[:, 0, 0] = [1.0, 2.0, 3.0]  # one live column, others silent
        rr = relative_risk(tensor_of(values))
        assert np.all(rr.values[:, 1:, :] == 1.0)
        assert np.all(rr.values[:, 0, 1] == 1.0)
        assert rr.capped_columns == []

    def test_scale_invariance(self, rng):
        base = tensor_of(rng.uniform(0.1, 9.0, size=(6, 12, 3)))
        reference = relative_risk(base).values
        for c in (1e-6, 1.0, 1e6):
            scaled = relative_risk(tensor_of(base.values * c))
            assert_allclose(scaled.values, reference, rtol=1e-12)

    def test_reconstruction_identity(self, rng):
        values = rng.uniform(0.5, 4.0, size=(5, 12, 2))
        tensor = tensor_of(values)
        rr = relative_risk(tensor)
        others = values.sum(axis=0)[None] - values
        assert_allclose(rr.values * others / 4, values, rtol=1e-12)

    def test_too_few_locations(self):
        with pytest.raises(TooFewLocationsError):
            relative_risk(tensor_of(np.ones((1, 12, 1))))

    @staticmethod
    def _formula(values, cap):
        """The ratio as first written, with full-size temporaries."""
        n = values.shape[0]
        others = values.sum(axis=0)[None, :, :] - values
        zero_den = others <= 0.0
        out = values / np.where(zero_den, 1.0, others / (n - 1))
        out[zero_den & (values == 0.0)] = 1.0
        capped = zero_den & (values > 0.0)
        out[capped] = cap
        return out, sorted({(int(b), int(d)) for _, b, d in np.argwhere(capped)})

    def test_bitwise_equal_to_the_formula(self, rng):
        for trial in range(50):
            n, depth = int(rng.integers(2, 30)), int(rng.integers(1, 5))
            values = rng.exponential(size=(n, 12, depth)) * (rng.random((n, 12, depth)) < 0.6)
            values[:, rng.integers(12), rng.integers(depth)] = 0.0  # an all-zero column
            values[rng.integers(n), rng.integers(12), :] *= -1.0  # negative entries
            column = rng.integers(12)
            values[:, column, 0] = 0.0
            values[rng.integers(n), column, 0] = 2.0  # a capped column
            rr = relative_risk(tensor_of(values), cap=1e6)
            want, capped = self._formula(values, 1e6)
            assert rr.values.tobytes() == want.tobytes(), trial
            assert rr.capped_columns == capped, trial

    def test_peak_memory_is_bounded_by_the_tensor(self, rng):
        tensor = tensor_of(rng.exponential(size=(2000, 12, 30)))
        tracemalloc.start()
        try:
            relative_risk(tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, and one or two boolean masks at a time
        assert peak < 1.5 * tensor.values.nbytes


class TestMinmaxScale:
    def test_simple(self):
        assert_allclose(minmax_scale([1, 2, 3]), [0, 0.5, 1])

    def test_constant_series(self):
        assert_allclose(minmax_scale([4, 4, 4]), [0, 0, 0])

    def test_negative_values(self):
        assert_allclose(minmax_scale([-1, 0, 3]), [0, 0.25, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minmax_scale([])


class TestTensorTools:
    def test_drop_silent_cells(self):
        values = np.zeros((3, 12, 1))
        values[0, 0, 0] = 1.0
        values[2, 5, 0] = 2.0
        tensor = tensor_of(values)
        slim = drop_silent_cells(tensor)
        assert slim.n == 2
        assert slim.cells == [tensor.cells[0], tensor.cells[2]]
        assert_allclose(slim.values[:, :, 0].sum(axis=1), [1.0, 2.0])

    def test_concat_and_segments(self, rng):
        a = tensor_of(rng.uniform(size=(3, 12, 2)))
        b = tensor_of(rng.uniform(size=(2, 12, 2)))
        a.segments = [_segment("alpha", 0, 3)]
        b.segments = [_segment("beta", 0, 2)]
        both = concat_tensors([a, b])
        assert both.n == 5
        assert list(both.segment_rows("beta")) == [3, 4]
        assert_allclose(both.values[:3], a.values)

    def test_concat_rejects_mismatched_day_types(self, rng):
        a = tensor_of(rng.uniform(size=(2, 12, 1)), day_type="weekday")
        b = tensor_of(rng.uniform(size=(2, 12, 1)), day_type="weekend")
        a.segments = [_segment("alpha", 0, 2)]
        b.segments = [_segment("beta", 0, 2)]
        with pytest.raises(Exception):
            concat_tensors([a, b])

    def test_file_round_trip(self, tmp_path, rng):
        tensor = tensor_of(rng.uniform(size=(4, 12, 3)))
        tensor.segments = [_segment("toytown", 0, 4)]
        raw_path = tmp_path / "raw.sig"
        write_tensor(tensor, raw_path)
        loaded = read_tensor(raw_path)
        assert np.array_equal(loaded.values, tensor.values)
        assert loaded.cells == tensor.cells
        assert loaded.categories == tensor.categories
        assert loaded.segments[0].name == "toytown"

        rr = relative_risk(tensor)
        rr_path = tmp_path / "rr.sig"
        write_tensor(rr, rr_path)
        loaded_rr = read_tensor(rr_path)
        assert np.array_equal(loaded_rr.values, rr.values)
        assert loaded_rr.capped_columns == rr.capped_columns

    def test_csv_export(self, tmp_path, rng):
        tensor = tensor_of(rng.uniform(size=(2, 12, 2)))
        tensor.segments = [_segment("toytown", 0, 2)]
        path = tmp_path / "tensor.csv"
        export_tensor_csv(tensor, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "segment,col,row,bin,category,value"
        assert len(lines) == 1 + 2 * 12 * 2
        values = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
        assert values.tobytes() == tensor.values.tobytes()
        assert lines[1] == f"toytown,0,0,0,c0,{float(tensor.values[0, 0, 0])!r}"


def _segment(name, start, stop):
    from vibrancy.signatures import TensorSegment

    return TensorSegment(name, GRID, start, stop)
