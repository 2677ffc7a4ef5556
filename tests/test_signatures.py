import io
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import Row, column_tensor, rows_of, table_of, tensor_of
from test_ingest import (
    TRAFFIC,
    _good_traffic,
    assert_same_report,
    fuzz_csv,
    reference_read_traffic,
)
import vibrancy.ingest
from vibrancy.errors import (
    DataError,
    EmptyInputError,
    TooFewLocationsError,
    UnknownServiceError,
)
from vibrancy.grid import CellId, CityRegion, GridSpec
from vibrancy.synth import SynthSpec, generate_for_day_types, write_city
from vibrancy.ingest import (
    REJECT_MALFORMED,
    TRAFFIC_HEADER,
    Taxonomy,
    line_spans,
    read_traffic,
    stream_traffic,
)
from vibrancy.signatures import (
    DAY_TYPES,
    N_BINS,
    DayTypeTensors,
    bin_of,
    build_signatures,
    concat_tensors,
    day_type_of,
    drop_silent_cells,
    minmax_scale,
    read_tensor,
    relative_risk,
    write_tensor,
)

TAX = Taxonomy({"msg": "Messaging", "vid": "Video"}, ("Messaging", "Video"))
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


# A 10 x 10 grid, the fuzzed traffic files' own, with a third of its cells
# outside the region
FUZZ_GRID = GridSpec(0, 0, 10, 10, 100.0, "fuzztown")
FUZZ_REGION = CityRegion(FUZZ_GRID, frozenset(
    CellId(c, r) for c in range(10) for r in range(10) if (c + 2 * r) % 3))


def _taxonomy_of(services):
    """Every service of a table, alternating between two categories."""
    return Taxonomy({s: "AB"[i % 2] for i, s in enumerate(services)}, ("A", "B"))


def _streamed(path, taxonomy, region, **kwargs):
    tensors = DayTypeTensors(taxonomy, region, DAY_TYPES, mean_per_day=kwargs.pop(
        "mean_per_day", False))
    report = stream_traffic(path, region.grid, tensors.add)
    return tensors.finish(**kwargs), tensors.dropped, report


class TestDayTypeTensors:
    """The streamed accumulator against the row-at-a-time reader and the
    ``np.add.at`` aggregation it replaced, bit for bit."""

    @pytest.mark.parametrize("chunk", [64, vibrancy.ingest.CHUNK_BYTES])
    @pytest.mark.parametrize("plain", [True, False], ids=["plain", "mixed"])
    def test_fuzzed_files_give_the_reference_tensors_and_counts(self, tmp_path, monkeypatch,
                                                                 chunk, plain):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(30 + plain)
        path = tmp_path / "traffic.csv"
        n = FUZZ_REGION.n_cells
        checked = 0
        for _ in range(25):
            path.write_bytes(fuzz_csv(rng, plain, TRAFFIC).encode("utf-8"))
            try:
                table, report = reference_read_traffic(path, FUZZ_GRID)
            except DataError:  # a cut header
                continue
            if not report.accepted:
                continue
            rows, taxonomy = rows_of(table), _taxonomy_of(table.services)
            for mean_per_day in (False, True):
                for drop_silent in (False, True):
                    got, dropped, got_report = _streamed(
                        path, taxonomy, FUZZ_REGION, mean_per_day=mean_per_day,
                        drop_silent=drop_silent, segment_name="seg")
                    assert_same_report(got_report, report)
                    for day_type in DAY_TYPES:
                        want = reference_signatures(rows, taxonomy, FUZZ_REGION, day_type,
                                                    mean_per_day)
                        keep = want.reshape(n, -1).any(axis=1) if drop_silent else np.ones(n, bool)
                        tensor = got[day_type]
                        assert tensor.values.tobytes() == want[keep].tobytes()
                        assert tensor.cells == [c for c, k in zip(
                            FUZZ_REGION.cells_in_scan_order(), keep) if k]
                        assert [(s.name, s.start, s.stop) for s in tensor.segments] == [
                            ("seg", 0, int(keep.sum()))]
                        on_day = [r for r in rows if day_type_of(r.timestamp) == day_type]
                        assert dropped[day_type] == {
                            "other_day_type": len(rows) - len(on_day),
                            "outside_region": sum(r.cell not in FUZZ_REGION.active_cells
                                                  for r in on_day),
                            "silent_cells": n - int(keep.sum())}
                        whole = build_signatures(table, taxonomy, FUZZ_REGION, day_type,
                                                 mean_per_day=mean_per_day)
                        assert whole.values.tobytes() == want.tobytes()
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("mean_per_day", [False, True])
    def test_ranges_merged_in_file_order_give_the_whole_file_bits(self, tmp_path, monkeypatch,
                                                                  mean_per_day):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", 64)
        rng = np.random.default_rng(50 + mean_per_day)
        path = tmp_path / "traffic.csv"
        checked = 0
        for _ in range(30):
            path.write_bytes(fuzz_csv(rng, True, TRAFFIC).encode("utf-8"))
            try:
                table, _ = reference_read_traffic(path, FUZZ_GRID)
            except DataError:  # a cut header
                continue
            if not table.services or vibrancy.ingest._plain(path.read_bytes()) is None:
                continue  # no row kept, or a lone "\r" at the cut end: not for spans
            taxonomy = _taxonomy_of(table.services)
            want, dropped, report = _streamed(path, taxonomy, FUZZ_REGION,
                                              mean_per_day=mean_per_day)
            spans = line_spans(path, int(rng.integers(2, 6)))
            first, *parts = [DayTypeTensors(taxonomy, FUZZ_REGION, DAY_TYPES,
                                            mean_per_day=mean_per_day) for _ in spans]
            stream_traffic(path, FUZZ_GRID, first.add, span=spans[0])
            for part, span in zip(parts, spans[1:]):
                stream_traffic(path, FUZZ_GRID, part.add, span=span)
                first.merge(*part.kept())
            for day_type, tensor in first.finish().items():
                assert tensor.values.tobytes() == want[day_type].values.tobytes()
            assert first.dropped == dropped
            checked += len(spans) > 1
        assert checked >= 15

    def test_a_merged_service_missing_from_the_taxonomy_is_named_in_file_order(self, tmp_path):
        path = tmp_path / "traffic.csv"
        head = ",".join(TRAFFIC_HEADER)
        path.write_text(f"{head}\n1,1,2019-03-18T08:00,msg,uplink,1\n"
                        "1,1,2019-03-18T08:00,zeta,uplink,1\n"
                        "1,1,2019-03-18T08:00,alpha,uplink,1\n"
                        "1,1,2019-03-18T08:00,zeta,uplink,1\n")
        spans = line_spans(path, 2)
        first, second = (DayTypeTensors(TAX, REGION, DAY_TYPES) for _ in spans)
        for tensors, span in zip((first, second), spans):
            stream_traffic(path, GRID, tensors.add, span=span)
        assert second.kept()[0]["services"] == ("alpha", "zeta")
        first.merge(*second.kept())
        with pytest.raises(UnknownServiceError, match="zeta"):
            first.finish()

    def test_a_merged_read_peaks_no_higher_than_one_instance(self, tmp_path, rng):
        # each part's pairs are joined once, in finish, and freed as they are:
        # no copy of a day type's pairs grows twice
        n_rows = 40_000
        lines = [f"{c},{r},2019-03-{d}T{h:02d}:15,msg,uplink,{v:.6g}" for c, r, d, h, v in zip(
            *(rng.integers(0, 4, n_rows).tolist() for _ in range(2)),
            rng.integers(16, 24, n_rows).tolist(), rng.integers(0, 24, n_rows).tolist(),
            (rng.random(n_rows) * 100).tolist())]
        path = tmp_path / "traffic.csv"
        path.write_text("\n".join([",".join(TRAFFIC_HEADER)] + lines) + "\n")
        peaks = []
        for n_parts in (1, 3):
            spans = line_spans(path, n_parts)
            tracemalloc.start()
            try:
                first, *parts = (DayTypeTensors(TAX, REGION, DAY_TYPES) for _ in spans)
                stream_traffic(path, GRID, first.add, span=spans[0])
                for part, span in zip(parts, spans[1:]):
                    stream_traffic(path, GRID, part.add, span=span)
                    first.merge(*part.kept())
                parts = part = None  # as a worker's arrays, held by the merged instance only
                tensors = first.finish()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        held = sum(t.values.nbytes for t in tensors.values())
        assert (peaks[1] - held) < 1.05 * (peaks[0] - held)

    def test_permuted_lines_give_bitwise_equal_tensors(self, tmp_path, monkeypatch, rng):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", 256)
        lines = [_good_traffic(rng) for _ in range(2000)]
        lines += [f"{rng.integers(0, 10)},{rng.integers(0, 10)},2019-03-18T09:00,App,uplink,"
                  f"{rng.choice(['nan', 'inf', '-1', '1e3'])}" for _ in range(50)]
        taxonomy = _taxonomy_of(sorted({line.split(",")[3] for line in lines}))
        path = tmp_path / "traffic.csv"
        runs = []
        for _ in range(3):
            rng.shuffle(lines)
            path.write_text("\n".join([",".join(TRAFFIC_HEADER)] + lines) + "\n")
            runs.append(_streamed(path, taxonomy, FUZZ_REGION, mean_per_day=True))
        (first, dropped, report), *others = runs
        assert report.rejects[REJECT_MALFORMED] > 0
        assert all(d["outside_region"] > 0 and d["other_day_type"] > 0 for d in dropped.values())
        for tensors, again_dropped, _ in others:
            assert again_dropped == dropped
            for day_type in DAY_TYPES:
                assert tensors[day_type].values.tobytes() == first[day_type].values.tobytes()

    def test_the_sum_order_is_np_add_at_over_sorted_pairs(self, rng):
        # volumes over many magnitudes, so that another order would round otherwise
        ts = datetime(2019, 3, 18, 8, 0)
        records = [rec(int(rng.integers(2)), 0, ts, volume=float(10.0 ** rng.uniform(-8, 8)))
                   for _ in range(3000)]
        tensor = build_signatures(table_of(records), TAX, REGION, "weekday")
        want = reference_signatures(records, TAX, REGION, "weekday")
        assert tensor.values.tobytes() == want.tobytes()
        in_file_order = sum(r.volume for r in records if r.cell == CellId(0, 0))
        assert in_file_order != tensor.values[0, 4, 0]  # the order shows in the bits

    def test_a_streamed_read_peaks_below_a_traffic_table(self, tmp_path, rng):
        # rows over weekday and weekend dates, a third of them outside the
        # region: the pairs are 16 B a kept row, and sorting one day type's
        # pairs adds 16 B a row of it
        n_rows = 60_000
        col, row = rng.integers(0, 10, n_rows), rng.integers(0, 10, n_rows)
        day, hour = rng.integers(16, 24, n_rows), rng.integers(0, 24, n_rows)
        service = rng.integers(0, 4, n_rows)
        path = tmp_path / "traffic.csv"
        path.write_text("\n".join([",".join(TRAFFIC_HEADER)] + [
            f"{c},{r},2019-03-{d}T{h:02d}:15,svc{s},uplink,{v:.6g}" for c, r, d, h, s, v in zip(
                col.tolist(), row.tolist(), day.tolist(), hour.tolist(), service.tolist(),
                (rng.random(n_rows) * 100).tolist())]) + "\n")
        taxonomy = _taxonomy_of([f"svc{i}" for i in range(4)])
        tracemalloc.start()
        try:
            tensors, _, report = _streamed(path, taxonomy, FUZZ_REGION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.accepted == n_rows
        held = sum(t.values.nbytes for t in tensors.values())
        # 18.7 B a row when written; read_traffic's table alone is 33 B a row
        assert (peak - held) / n_rows < 24


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


def _segment(name, start, stop):
    from vibrancy.signatures import TensorSegment

    return TensorSegment(name, GRID, start, stop)
