import gc
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import date, datetime
from math import ceil, sqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vibrancy.synth
from conftest import rows_of
from vibrancy.clustering import kmeans
from vibrancy.errors import InvalidSpecError, LengthMismatchError
from vibrancy.features import THIRD_PLACE_CATEGORIES, load_third_place_taxonomy
from vibrancy.grid import CellId
from vibrancy.ingest import _WRITE_BATCH, DIRECTIONS, PoiRecord, TrafficTable, load_taxonomy
from vibrancy.ingest import read_traffic
from vibrancy.signatures import build_signatures, day_type_of, relative_risk
from vibrancy.synth import (
    SYNTH_POI_LABELS,
    SYNTH_POI_SOURCES,
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
        dict(categories=("a", "b", "a")),
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(InvalidSpecError):
            small_spec(**bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e30])
    def test_poi_intensity_numpy_cannot_draw_is_rejected(self, value):
        intensity = np.ones((2, 5))
        intensity[1, 3] = value
        with pytest.raises(InvalidSpecError, match="poi_intensity"):
            small_spec(poi_intensity=intensity)

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

    @pytest.mark.parametrize("enabled", [True, False])
    def test_poi_draw_leaves_the_collector_as_it_found_it(self, monkeypatch, enabled):
        """The collector is paused while the POI records are built, and then
        left on or off as before, also when building them fails."""
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            spec = small_spec()
            assert generate(spec).pois == generate(spec).pois
            assert gc.isenabled() == enabled
            monkeypatch.setattr(vibrancy.synth, "SYNTH_POI_SOURCES", {})
            with pytest.raises(KeyError):
                generate(spec)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

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

    def test_written_taxonomies_read_back_as_the_truth(self, tmp_path):
        truth = generate(small_spec(categories=("video", "chat", "maps")))
        paths = write_city(truth, tmp_path)
        for loaded, planted in [(load_taxonomy(paths["service_taxonomy"]), truth.service_taxonomy),
                                (load_third_place_taxonomy(paths["third_places"]),
                                 truth.place_taxonomy)]:
            assert loaded == planted
            assert list(loaded.mapping.items()) == list(planted.mapping.items())

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


def reference_pois(spec) -> list[PoiRecord]:
    """The POIs of ``spec``'s city, from one ``poisson`` call over the
    (cell, label) intensities and one ``random((total, 2))`` call on the
    POI stream, placed with one float expression per POI."""
    _, archetype_of = planted_stack(spec)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(3)[2])
    labels = [(ci, len(SYNTH_POI_LABELS[cat]), label)
              for ci, cat in enumerate(THIRD_PLACE_CATEGORIES) for label in SYNTH_POI_LABELS[cat]]
    lam = np.array([[spec.poi_intensity[a - 1, ci] / n_labels for ci, n_labels, _ in labels]
                    for a in archetype_of])
    counts = rng.poisson(lam)
    offsets = iter(rng.random((int(counts.sum()), 2)))
    n_cols = ceil(sqrt(spec.n_cells))
    size = spec.cell_size
    out = []
    for i in range(spec.n_cells):
        col, row = i % n_cols, i // n_cols
        for j, (_, _, label) in enumerate(labels):
            for _ in range(counts[i, j]):
                u, w = next(offsets)
                out.append(PoiRecord(float(0.0 + (col + u) * size), float(0.0 + (row + w) * size),
                                     label, SYNTH_POI_SOURCES[label]))
    assert next(offsets, None) is None
    return out


class TestPoiDraw:
    SPECS = [
        dict(seed=5, n_cells=37, k_true=3),
        dict(seed=11, n_cells=50, k_true=2, cell_size=37.5, noise_sigma=2.0,
             poi_intensity=[[0.0, 3.0, 0.4, 9.0, 0.0], [2.5, 0.0, 0.0, 1.0, 6.0]]),
        dict(seed=2, n_cells=4, k_true=4, poi_intensity=np.zeros((4, 5))),
    ]

    @pytest.mark.parametrize("kw", SPECS)
    def test_pois_equal_a_two_call_reference_draw(self, kw):
        spec = SynthSpec(**kw)
        pois = generate(spec).pois
        assert isinstance(pois, list)
        assert pois == reference_pois(spec)
        for p in pois:
            assert type(p) is PoiRecord and type(p.x) is float and type(p.y) is float

    @pytest.mark.parametrize("kw", SPECS)
    def test_each_poi_lies_in_its_own_half_open_cell(self, kw):
        truth = generate(SynthSpec(**kw))
        size, order = truth.spec.cell_size, {label: j for j, label in enumerate(
            label for cat in THIRD_PLACE_CATEGORIES for label in SYNTH_POI_LABELS[cat])}
        n_cols, cells = truth.region.grid.n_cols, set(truth.cells)
        keys = []
        for p in truth.pois:
            cell = CellId(int(p.x // size), int(p.y // size))
            assert cell in cells
            assert cell.col * size <= p.x < (cell.col + 1) * size
            assert cell.row * size <= p.y < (cell.row + 1) * size
            keys.append((cell.row * n_cols + cell.col, order[p.label]))
        assert keys == sorted(keys)  # by cell in scan order, then label

    def test_zero_intensity_category_gets_no_poi(self):
        intensity = np.full((3, 5), 6.0)
        intensity[:, 2] = 0.0  # eating_and_drinking nowhere
        intensity[1, 4] = 0.0  # organised_activities not in archetype 2
        truth = generate(SynthSpec(seed=4, n_cells=90, k_true=3, poi_intensity=intensity))
        category = truth.place_taxonomy.mapping
        arch = {cell: int(a) for cell, a in zip(truth.cells, truth.archetype_of)}
        size = truth.spec.cell_size
        seen = Counter()
        for p in truth.pois:
            a = arch[CellId(int(p.x // size), int(p.y // size))]
            seen[a, category[p.label]] += 1
        assert not any(cat == "eating_and_drinking" for _, cat in seen)
        assert seen[2, "organised_activities"] == 0
        assert seen[1, "organised_activities"] > 0 and seen[3, "organised_activities"] > 0


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


def row_at_a_time_traffic_csv(table: TrafficTable) -> bytes:
    """traffic.csv as the former writer wrote it: one f-string per row."""
    stamps = [ts.strftime("%Y-%m-%dT%H:%M") for ts in table.stamps]
    lines = ["col,row,timestamp,service,direction,volume\n"]
    for col, row, stamp, service, d, volume in zip(*(c.tolist() for c in table.columns)):
        lines.append(f"{col},{row},{stamps[stamp]},{table.services[service]},"
                     f"{table.directions[d]},{volume!r}\n")
    return "".join(lines).encode("utf-8")


class TestTrafficWriter:
    def test_hand_built_rows_keep_the_row_at_a_time_text(self, tmp_path, rng):
        n = 2 * _WRITE_BATCH + 3
        volume = rng.choice(rng.lognormal(size=n // 4), size=n)  # most repeat
        special = [0.0, -0.0, 5e-324, 1e16, -1e16, 0.1 + 0.2]
        volume[:len(special)] = special
        volume[_WRITE_BATCH - 2:_WRITE_BATCH + 2] = -0.0  # across a batch edge
        volume[-3:] = volume[2]  # one bit pattern, far from its first use
        stamps = tuple(datetime(2019, 3, 18 + d, h, m) for d in range(3) for h in (0, 13, 23)
                       for m in (0, 45))
        services = ("svc-a", "svc-b", "svc-c")
        table = TrafficTable(
            col=rng.integers(-5, 40, n), row=rng.integers(-(2**40), 2**40, n),
            stamp=rng.integers(0, len(stamps), n).astype(np.int32),
            service=rng.integers(0, len(services), n).astype(np.int32),
            direction=rng.integers(0, 2, n).astype(np.int8), volume=volume,
            stamps=stamps, services=services, directions=DIRECTIONS)
        truth = replace(generate(small_spec()), traffic=table)
        paths = write_city(truth, tmp_path)
        assert paths["traffic"].read_bytes() == row_at_a_time_traffic_csv(table)
        text = paths["traffic"].read_text()
        assert ",0.0\n" in text and ",-0.0\n" in text and ",5e-324\n" in text

    def test_traced_memory_stays_at_one_batch(self, tmp_path):
        spec = SynthSpec(seed=5, n_cells=100, k_true=3,
                         categories=tuple(f"cat{i:02d}" for i in range(8)), n_days=4)
        truth = generate_for_day_types(spec, ["weekday", "weekend"])
        assert len(truth.traffic) == 305_728
        tracemalloc.start()
        try:
            write_city(truth, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one f-string per row over six full-length column lists peaked at
        # 21.04 MiB here (48.22 MiB at twice the rows); one batch of rows at
        # a time, 5.27 MiB (the same at twice the rows)
        assert peak < 8 * 2**20


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
