from datetime import date, datetime
from math import ceil, sqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rows_of
from vibrancy.clustering import kmeans
from vibrancy.errors import InvalidSpecError, LengthMismatchError
from vibrancy.features import THIRD_PLACE_CATEGORIES
from vibrancy.grid import CellId
from vibrancy.ingest import read_traffic
from vibrancy.signatures import build_signatures, day_type_of, relative_risk
from vibrancy.synth import (
    SynthSpec,
    adjusted_rand_index,
    generate,
    generate_for_day_types,
    planted_stack,
    window_dates,
    write_city,
)


def small_spec(**overrides):
    base = dict(seed=17, n_cells=10, k_true=2, noise_sigma=0.0)
    base.update(overrides)
    return SynthSpec(**base)


class TestSpecValidation:
    def test_defaults_fill_in(self):
        spec = small_spec()
        assert spec.categories == ("cat00", "cat01", "cat02", "cat03")
        assert spec.archetypes.shape == (2, 12, 4)
        assert spec.poi_intensity.shape == (2, 5)
        assert spec.separation() > 0

    @pytest.mark.parametrize("bad", [
        dict(k_true=1),
        dict(noise_sigma=-0.5),
        dict(noise_sigma=float("nan")),
        dict(noise_sigma=float("inf")),
        dict(n_cells=1),
        dict(slots_per_bin=3),
        dict(n_days=0),
        dict(day_type="someday"),
        dict(categories=()),
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(InvalidSpecError):
            small_spec(**bad)

    def test_archetype_shape_checked(self):
        with pytest.raises(InvalidSpecError):
            small_spec(archetypes=np.ones((2, 12, 7)))

    def test_separation_ratio(self):
        spec = small_spec(noise_sigma=2.0)
        assert spec.separation_ratio() == pytest.approx(spec.separation() / 2.0)
        assert small_spec(noise_sigma=0.0).separation_ratio() == np.inf


class TestWindowDates:
    def test_first_weekdays(self):
        assert window_dates("weekday", 3) == [
            date(2019, 3, 18), date(2019, 3, 19), date(2019, 3, 20)
        ]

    def test_first_weekend_days_include_friday(self):
        assert window_dates("weekend", 3) == [
            date(2019, 3, 16), date(2019, 3, 17), date(2019, 3, 22)
        ]

    def test_window_exhaustion(self):
        with pytest.raises(InvalidSpecError):
            window_dates("weekday", 60)


class TestGenerate:
    def test_noiseless_plant_reproduces_archetypes(self):
        spec = small_spec()
        truth = generate(spec)
        tensor = build_signatures(
            truth.traffic, truth.service_taxonomy, truth.region, spec.day_type,
            mean_per_day=True,
        )
        assert tensor.cells == truth.cells
        for i, archetype in enumerate(truth.archetype_of):
            assert_allclose(
                tensor.values[i], spec.archetypes[archetype - 1], rtol=1e-9, atol=1e-9
            )

    def test_records_are_well_formed(self):
        spec = small_spec(noise_sigma=1.0, n_days=2)
        truth = generate(spec)
        dates = set(window_dates(spec.day_type, 2))
        rows = rows_of(truth.traffic)
        assert rows
        for row in rows:
            assert row.timestamp.minute % 15 == 0
            assert day_type_of(row.timestamp) == spec.day_type
            assert row.timestamp.date() in dates
            assert row.volume > 0

    def test_round_robin_assignment_is_balanced(self):
        truth = generate(small_spec(n_cells=10, k_true=2))
        counts = np.bincount(truth.archetype_of)[1:]
        assert list(counts) == [5, 5]

    def test_deterministic_regeneration(self):
        a = generate(small_spec(noise_sigma=0.7))
        b = generate(small_spec(noise_sigma=0.7))
        assert rows_of(a.traffic) == rows_of(b.traffic)
        assert a.pois == b.pois
        assert np.array_equal(a.archetype_of, b.archetype_of)

    def test_written_files_are_byte_identical(self, tmp_path):
        spec = small_spec(noise_sigma=1.3)
        paths_a = write_city(generate(spec), tmp_path / "a")
        paths_b = write_city(generate(spec), tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_emitted_csv_parses_cleanly(self, tmp_path):
        truth = generate(small_spec(noise_sigma=0.9))
        paths = write_city(truth, tmp_path)
        _, report = read_traffic(paths["traffic"], truth.region.grid)
        assert report.rejected == 0
        assert report.accepted == len(truth.traffic)

    def test_planted_stack_matches_generate(self):
        spec = small_spec(noise_sigma=0.8)
        values, labels = planted_stack(spec)
        truth = generate(spec)
        assert np.array_equal(labels, truth.archetype_of)
        assert_allclose(values, truth.targets)

    def test_multi_day_type_shares_the_plant(self):
        spec = small_spec(noise_sigma=0.5)
        truth = generate_for_day_types(spec, ["weekday", "weekend"])
        day_types = {day_type_of(r.timestamp) for r in rows_of(truth.traffic)}
        assert day_types == {"weekday", "weekend"}
        single = generate(spec)
        assert np.array_equal(truth.archetype_of, single.archetype_of)
        assert truth.pois == single.pois
        weekday = [r for r in rows_of(truth.traffic) if day_type_of(r.timestamp) == "weekday"]
        assert weekday == rows_of(single.traffic)

    def test_repeated_day_type_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate_for_day_types(small_spec(), ["weekday", "weekend", "weekday"])

    def test_poi_counts_match_intensity(self):
        intensity = np.array([[1.0, 0.5, 2.0, 0.0, 4.0], [5.0, 1.5, 0.2, 3.0, 0.7]])
        spec = SynthSpec(seed=3, n_cells=400, k_true=2, noise_sigma=0.0,
                         poi_intensity=intensity)
        truth = generate(spec)
        counts = {(a, c): 0 for a in (1, 2) for c in THIRD_PLACE_CATEGORIES}
        cell_arch = dict(zip(truth.cells, truth.archetype_of))
        label_cat = truth.place_taxonomy.mapping
        cell_of = {}
        for p in truth.pois:
            col = int(p.x // 100)
            row = int(p.y // 100)
            arch = cell_arch[[c for c in truth.cells if c.col == col and c.row == row][0]]
            counts[(int(arch), label_cat[p.label])] += 1
        n_per_arch = 200
        for a in (1, 2):
            for ci, cat in enumerate(THIRD_PLACE_CATEGORIES):
                lam = intensity[a - 1, ci]
                mean = counts[(a, cat)] / n_per_arch
                assert abs(mean - lam) <= 3 * np.sqrt(max(lam, 1e-9) / n_per_arch) + 1e-9


def reference_traffic_csv(spec, day_types) -> bytes:
    """traffic.csv as the former generator wrote it: one row object and one
    strftime per row, looping over day type, cell, date, bin, category, slot
    and direction."""
    targets, _ = planted_stack(spec)
    n_cols = ceil(sqrt(spec.n_cells))
    cells = [CellId(i % n_cols, i // n_cols) for i in range(spec.n_cells)]
    services = [(f"svc-{c}-a", f"svc-{c}-b") for c in spec.categories]
    offsets = [s * (120 // spec.slots_per_bin) for s in range(spec.slots_per_bin)]
    share_div = spec.slots_per_bin * 2
    rows = []
    for day_type in day_types:
        for i, cell in enumerate(cells):
            for day in window_dates(day_type, spec.n_days):
                for b in range(12):
                    for d in range(len(spec.categories)):
                        v = float(targets[i, b, d])
                        if v == 0.0:
                            continue
                        share = v / share_div
                        for s, off in enumerate(offsets):
                            ts = datetime(day.year, day.month, day.day, 2 * b + off // 60,
                                          off % 60)
                            for direction in ("downlink", "uplink"):
                                rows.append((cell, ts, services[d][s % 2], direction, share))
    lines = ["col,row,timestamp,service,direction,volume\n"]
    for cell, ts, service, direction, volume in rows:
        ts = ts.strftime("%Y-%m-%dT%H:%M")
        lines.append(f"{cell.col},{cell.row},{ts},{service},{direction},{volume!r}\n")
    return "".join(lines).encode("utf-8")


class TestTrafficBytes:
    @pytest.mark.parametrize("day_types", [("weekday",), ("weekend", "weekday")],
                             ids=["one_day_type", "two_day_types"])
    @pytest.mark.parametrize("n_days", [1, 3])
    @pytest.mark.parametrize("slots_per_bin", [1, 2, 4, 8])
    def test_traffic_csv_matches_the_row_at_a_time_writer(self, tmp_path, slots_per_bin,
                                                          n_days, day_types):
        spec = small_spec(n_cells=7, k_true=3, n_days=n_days, slots_per_bin=slots_per_bin)
        paths = write_city(generate_for_day_types(spec, day_types), tmp_path)
        assert paths["traffic"].read_bytes() == reference_traffic_csv(spec, day_types)

    def test_clipped_targets_are_skipped_alike(self, tmp_path):
        spec = small_spec(n_cells=12, k_true=3, noise_sigma=6.0, n_days=2)
        day_types = ("weekday", "weekend")
        truth = generate_for_day_types(spec, day_types)
        assert (truth.targets == 0).any() and (truth.targets > 0).any()
        paths = write_city(truth, tmp_path)
        assert paths["traffic"].read_bytes() == reference_traffic_csv(spec, day_types)


class TestEndToEndRecovery:
    def test_pipeline_recovers_plant(self):
        spec = SynthSpec(seed=23, n_cells=60, k_true=3, noise_sigma=0.5)
        truth = generate(spec)
        tensor = build_signatures(
            truth.traffic, truth.service_taxonomy, truth.region, spec.day_type
        )
        rr = relative_risk(tensor)
        model = kmeans(rr, 3, seed=41)
        assert adjusted_rand_index(model.labels, truth.archetype_of) == 1.0


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        assert adjusted_rand_index([1, 2, 2, 3], [1, 2, 2, 3]) == 1.0

    def test_degenerate_expected_index(self):
        assert adjusted_rand_index([1, 1, 1, 1], [1, 1, 2, 2]) == 0.0

    def test_label_permutation_invariance(self):
        assert adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_symmetry(self, rng):
        a = rng.integers(1, 4, size=30).tolist()
        b = rng.integers(1, 4, size=30).tolist()
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(b, a), rel=1e-12
        )

    def test_both_trivial_partitions(self):
        assert adjusted_rand_index([1, 1, 1], [2, 2, 2]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            adjusted_rand_index([1, 2], [1])

    def test_at_most_one(self, rng):
        for _ in range(20):
            a = rng.integers(1, 5, size=25).tolist()
            b = rng.integers(1, 5, size=25).tolist()
            assert adjusted_rand_index(a, b) <= 1.0
