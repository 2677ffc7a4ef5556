import io
import math
import tracemalloc
from collections import Counter
from importlib.resources import files

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vibrancy import features
from vibrancy.errors import DataError, OutOfBoundsError, TooFewRowsError
from vibrancy.features import (
    FEATURE_COLUMNS,
    THIRD_PLACE_CATEGORIES,
    FeatureTable,
    build_features,
    export_features_csv,
    filter_rare_labels,
    load_features_csv,
    load_third_place_taxonomy,
    rare_labels,
    shannon_diversity,
    standardize,
)
from vibrancy.grid import CellId, CityRegion, GridSpec, point_to_cell
from vibrancy.ingest import PoiRecord, Taxonomy, parse_pois
from vibrancy.synth import SynthSpec, generate, write_city

TAX = Taxonomy({
    "restaurant": "eating_and_drinking",
    "bar": "eating_and_drinking",
    "cafe": "eating_and_drinking",
    "park": "outdoor",
    "bank": "commercial_services",
}, THIRD_PLACE_CATEGORIES)
GRID = GridSpec(0, 0, 3, 3, 100.0, "toytown")
REGION = CityRegion(GRID, frozenset(CellId(c, r) for c in range(3) for r in range(3)))


def poi(label, x=50.0, y=50.0, source="amenity"):
    return PoiRecord(x, y, label, source)


class TestFilterRareLabels:
    def test_below_threshold_removed(self):
        pois = [poi("bar")] * 9 + [poi("park")] * 12
        kept = filter_rare_labels(pois, min_count=10)
        assert {p.label for p in kept} == {"park"}
        assert len(kept) == 12

    def test_threshold_is_inclusive(self):
        pois = [poi("bar")] * 10
        assert len(filter_rare_labels(pois, min_count=10)) == 10

    def test_empty_input(self):
        assert filter_rare_labels([], min_count=10) == []

    def test_idempotent(self, rng):
        pois = [poi(f"label{int(rng.integers(6))}") for _ in range(300)]
        once = filter_rare_labels(pois, min_count=40)
        assert filter_rare_labels(once, min_count=40) == once


class TestRareLabels:
    def test_counts_of_the_labels_below_threshold_sorted_by_label(self):
        pois = [poi("park")] * 12 + [poi("bar")] * 9 + [poi("atm")] + [poi("cafe")] * 10
        rare = rare_labels(pois, min_count=10)
        assert rare == {"atm": 1, "bar": 9}
        assert list(rare) == ["atm", "bar"]

    def test_filter_removes_exactly_the_rare_labels(self, rng):
        pois = [poi(f"label{int(rng.integers(8))}") for _ in range(60)]
        rare = rare_labels(pois, min_count=8)
        counts = Counter(p.label for p in pois)
        assert rare == {label: n for label, n in sorted(counts.items()) if n < 8}
        assert filter_rare_labels(pois, 8) == [p for p in pois if p.label not in rare]


class TestShannonDiversity:
    def test_single_label_is_zero(self):
        assert shannon_diversity({"restaurant": 5}) == 0.0

    def test_uniform_pair_is_one_bit(self):
        assert shannon_diversity({"a": 1, "b": 1}) == 1.0

    def test_reference_value(self):
        assert shannon_diversity({"a": 2, "b": 1, "c": 1}) == pytest.approx(1.5, rel=1e-12)

    def test_empty_counts(self):
        assert shannon_diversity({}) == 0.0
        assert shannon_diversity({"a": 0, "b": 0}) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            shannon_diversity({"a": -1})

    def test_upper_bound_and_uniform_maximality(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 9))
            counts = rng.integers(1, 40, size=m).tolist()
            h = shannon_diversity(counts)
            assert 0.0 <= h <= math.log2(m) + 1e-12
            assert shannon_diversity([7] * m) == pytest.approx(math.log2(m), abs=1e-12)

    def test_label_permutation_and_replication_invariance(self, rng):
        counts = {"a": 3, "b": 5, "c": 1}
        permuted = {"c": 1, "a": 3, "b": 5}
        scaled = {k: 4 * v for k, v in counts.items()}
        assert shannon_diversity(counts) == shannon_diversity(permuted)
        assert shannon_diversity(counts) == pytest.approx(
            shannon_diversity(scaled), rel=1e-12
        )


class TestBuildFeatures:
    def test_reference_cell(self):
        pois = [
            poi("restaurant"), poi("restaurant"), poi("bar"), poi("park"),
        ]
        table = build_features(pois, TAX, REGION)
        i = table.cells.index(CellId(0, 0))
        row = dict(zip(table.columns, table.values[i]))
        assert row["total_count"] == 4
        assert row["total_diversity"] == pytest.approx(1.5, rel=1e-12)
        assert row["eating_and_drinking_count"] == 3
        h21 = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
        assert row["eating_and_drinking_diversity"] == pytest.approx(h21, rel=1e-12)
        assert row["eating_and_drinking_diversity"] == pytest.approx(0.9183, abs=1e-4)
        assert row["outdoor_count"] == 1
        assert row["outdoor_diversity"] == 0.0

    def test_empty_cell_is_all_zero(self):
        table = build_features([poi("restaurant")], TAX, REGION)
        j = table.cells.index(CellId(2, 2))
        assert np.all(table.values[j] == 0.0)

    def test_non_third_place_labels_ignored(self):
        table = build_features([poi("tower"), poi("bridge")], TAX, REGION)
        assert np.all(table.values == 0.0)

    def test_out_of_region_pois_ignored(self):
        table = build_features([poi("restaurant", x=-5.0)], TAX, REGION)
        assert np.all(table.values == 0.0)

    def test_a_taxonomy_over_other_categories_is_refused(self):
        reordered = Taxonomy(TAX.mapping, THIRD_PLACE_CATEGORIES[::-1])
        with pytest.raises(DataError, match="third-place taxonomy categories"):
            build_features([poi("restaurant")], reordered, REGION)

    def test_total_equals_category_sum(self, rng):
        labels = list(TAX.mapping)
        pois = [
            poi(labels[int(rng.integers(len(labels)))],
                x=float(rng.uniform(0, 300)), y=float(rng.uniform(0, 300)))
            for _ in range(400)
        ]
        table = build_features(pois, TAX, REGION)
        count_cols = [f"{c}_count" for c in THIRD_PLACE_CATEGORIES]
        total = sum(table.column(c) for c in count_cols)
        assert_allclose(table.column("total_count"), total)
        assert table.column("total_count").sum() == 400

    def test_rows_follow_given_cells(self):
        cells = [CellId(1, 1), CellId(0, 0)]
        table = build_features([poi("bank", x=150.0, y=150.0)], TAX, REGION, cells=cells)
        assert table.cells == cells
        assert table.values[0, 0] == 1
        assert table.values[1, 0] == 0


def reference_build_features(pois, taxonomy, region, cells=None) -> FeatureTable:
    """The per-cell ``Counter`` implementation that ``build_features``
    replaced, frozen as its bitwise reference."""
    row_cells = list(cells) if cells is not None else region.cells_in_scan_order()
    index = {cell: i for i, cell in enumerate(row_cells)}
    label_counts = [Counter() for _ in row_cells]
    by_category = [{c: Counter() for c in THIRD_PLACE_CATEGORIES} for _ in row_cells]
    for p in pois:
        category = taxonomy.mapping.get(p.label)
        if category is None:
            continue
        try:
            cell = point_to_cell(p.x, p.y, region.grid)
        except OutOfBoundsError:
            continue
        i = index.get(cell)
        if i is None:
            continue
        label_counts[i][p.label] += 1
        by_category[i][category][p.label] += 1
    values = np.zeros((len(row_cells), len(FEATURE_COLUMNS)))
    for i in range(len(row_cells)):
        values[i, 0] = sum(label_counts[i].values())
        values[i, 1] = shannon_diversity(label_counts[i])
        for j, cat in enumerate(THIRD_PLACE_CATEGORIES):
            values[i, 2 + j] = sum(by_category[i][cat].values())
            values[i, 7 + j] = shannon_diversity(by_category[i][cat])
    return FeatureTable(row_cells, FEATURE_COLUMNS, values)


def assert_matches_reference(pois, taxonomy, region, cells=None):
    table = build_features(pois, taxonomy, region, cells=cells)
    reference = reference_build_features(pois, taxonomy, region, cells=cells)
    assert table.cells == reference.cells
    assert table.values.tobytes() == reference.values.tobytes()


SCAN_ORDER = REGION.cells_in_scan_order()
# the four middle cells of a 4 x 4 grid are outside the study area
HOLED = CityRegion(GridSpec(0, 0, 4, 4, 100.0), frozenset(
    CellId(c, r) for c in range(4) for r in range(4) if not (c in (1, 2) and r in (1, 2))))
MIXED = ["restaurant", "bar", "cafe", "park", "bank", "tower"]

# case id -> (POIs, region, cells)
EDGE_CASES = {
    "points on cell edges and the far edge": (
        [poi(MIXED[(i + j) % 6], x=100.0 * i, y=100.0 * j) for i in range(4) for j in range(4)]
        + [poi("bar", x=300.0 - 1e-13, y=299.99999999999994)], REGION, None),
    "negative and off-grid points": (
        [poi("bar", x=x, y=y) for x, y in ((-1e-300, 50.0), (50.0, -0.0), (-0.0, -0.0),
                                           (-50.0, 50.0), (50.0, 350.0), (1e300, 1e300),
                                           (-1e300, 50.0), (300.0, 300.0), (0.0, 0.0))],
        REGION, None),
    "POIs in inactive cells": (
        [poi(MIXED[i % 6], x=25.0 * i + 5.0, y=25.0 * j + 5.0)
         for i in range(16) for j in range(16)], HOLED, None),
    "only non-third-place labels": (
        [poi(label, x=50.0 * i, y=50.0 * i) for i, label in enumerate(["tower", "bridge"] * 3)],
        REGION, None),
    "no POIs": ([], REGION, None),
    "cells a reversed subset of the region": (
        [poi(MIXED[i % 5], x=37.0 * i % 300, y=53.0 * i % 300) for i in range(200)],
        REGION, SCAN_ORDER[::-2]),
    "cells listed twice or outside the grid": (
        [poi(MIXED[i % 5], x=37.0 * i % 300, y=53.0 * i % 300) for i in range(200)],
        REGION, [CellId(0, 0), CellId(3, 0), CellId(-1, 2)] + SCAN_ORDER + [CellId(1, 1)]),
    "one cell holding one label many times": (
        [poi("cafe", x=150.0, y=250.0)] * 5000 + [poi("bank", x=150.0, y=250.0)], REGION, None),
}


class TestBuildFeaturesMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_poi_sets(self, seed):
        rng = np.random.default_rng(seed)
        labels = [f"label{i}" for i in range(int(rng.integers(1, 30)))]
        taxonomy = Taxonomy({label: THIRD_PLACE_CATEGORIES[int(rng.integers(5))]
                             for label in labels if rng.random() < 0.8}, THIRD_PLACE_CATEGORIES)
        n_cols, n_rows = (int(v) for v in rng.integers(1, 15, size=2))
        size = float(rng.choice([0.3, 7.0, 100.0]))
        grid = GridSpec(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)),
                        n_cols, n_rows, size)
        region = CityRegion(grid, frozenset(
            CellId(c, r) for c in range(n_cols) for r in range(n_rows) if rng.random() < 0.7)
            | {CellId(0, 0)})
        m = int(rng.integers(0, 3000))
        if seed % 2:  # whole multiples of the cell size land exactly on edges
            xs = grid.origin_x + rng.integers(-1, n_cols + 2, m) * size
            ys = grid.origin_y + rng.integers(-1, n_rows + 2, m) * size
        else:
            xs = grid.origin_x + rng.uniform(-0.1, 1.1, m) * n_cols * size
            ys = grid.origin_y + rng.uniform(-0.1, 1.1, m) * n_rows * size
        which = np.minimum((rng.pareto(1.0, m) * 3).astype(int), len(labels) - 1)
        pois = [PoiRecord(float(x), float(y), labels[k], "amenity")
                for x, y, k in zip(xs, ys, which)]
        cells = [None, sorted(region.active_cells, key=lambda c: (-c.row, c.col))][seed % 4 > 1]
        assert_matches_reference(pois, taxonomy, region, cells)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, case):
        pois, region, cells = EDGE_CASES[case]
        assert_matches_reference(pois, TAX, region, cells)

    @pytest.mark.parametrize("x, y", [(math.nan, 50.0), (50.0, math.nan), (math.inf, math.nan),
                                      (50.0, -math.inf), (1e308, 50.0)])
    def test_non_finite_coordinate_raises_as_before(self, x, y):
        # 1e308 / cell size overflows to infinity
        region = CityRegion(GridSpec(0.0, 0.0, 3, 3, 1e-300), frozenset([CellId(0, 0)]))
        pois = [poi("bar", x=0.0, y=0.0), poi("tower", x=math.nan), poi("bar", x=x, y=y)]
        with pytest.raises((ValueError, OverflowError)) as expected:
            reference_build_features(pois, TAX, region)
        with pytest.raises(expected.type, match=f"^{expected.value}$"):
            build_features(pois, TAX, region)

    def test_log2_is_math_log2(self):
        # np.log2 differs from math.log2 in the last bit on some of these
        # ratios, and shannon_diversity uses math.log2
        ratios = np.array([a / b for b in range(1, 400) for a in range(1, b + 1)])
        logs = features._log2(ratios)
        assert logs.tobytes() == np.array([math.log2(v) for v in ratios.tolist()]).tobytes()

    def test_non_finite_coordinate_of_another_label_is_ignored(self):
        pois = [poi("tower", x=math.nan), poi("bridge", y=math.inf), poi("bar")]
        assert_matches_reference(pois, TAX, REGION)

    def test_shuffled_poi_lines_give_bitwise_equal_features(self, tmp_path, rng):
        truth = generate(SynthSpec(seed=3, n_cells=150, k_true=3, region_name="synth"))
        pois_csv = write_city(truth, tmp_path)["pois"]
        header, *lines = pois_csv.read_text().splitlines(keepends=True)
        rng.shuffle(lines)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(lines))
        written = []
        for path in (pois_csv, shuffled):
            pois, _ = parse_pois(path)
            table = build_features(filter_rare_labels(pois, 10), truth.place_taxonomy,
                                   truth.region)
            export_features_csv(table, tmp_path / "features.csv")
            written.append((tmp_path / "features.csv").read_bytes())
        assert written[0] == written[1]
        assert table.column("total_count").sum() > 1000

    def test_memory_is_linear_in_pois_and_cells(self):
        # 200 labels: a dense cells x labels array of counts alone would be
        # 32 MB, three times the bound
        rng = np.random.default_rng(3)
        n, m = 20_000, 50_000
        region = CityRegion(GridSpec(0.0, 0.0, 200, 100, 100.0),
                            frozenset(CellId(c, r) for r in range(100) for c in range(200)))
        labels = [f"label{i}" for i in range(200)]
        taxonomy = Taxonomy({label: THIRD_PLACE_CATEGORIES[i % 5]
                             for i, label in enumerate(labels)}, THIRD_PLACE_CATEGORIES)
        pois = [PoiRecord(float(x), float(y), labels[k], "amenity") for x, y, k in zip(
            rng.uniform(0, 20_000, m), rng.uniform(0, 10_000, m), rng.integers(0, 200, m))]
        cells = region.cells_in_scan_order()
        tracemalloc.start()
        try:
            table = build_features(pois, taxonomy, region, cells=cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.column("total_count").sum() == m
        # measured at 3.9 x 8 bytes per (POI + 12 values per cell)
        assert peak < 6 * 8 * (m + 12 * n)


class TestStandardize:
    def test_two_values(self):
        table = FeatureTable([CellId(0, 0), CellId(1, 0)], ("a",), [[0.0], [2.0]])
        z = standardize(table)
        assert_allclose(z.values[:, 0], [-1.0, 1.0])

    def test_constant_column_becomes_zero(self):
        table = FeatureTable(
            [CellId(i, 0) for i in range(3)], ("a",), [[3.0], [3.0], [3.0]]
        )
        assert_allclose(standardize(table).values[:, 0], [0, 0, 0])

    def test_population_sigma(self):
        table = FeatureTable(
            [CellId(i, 0) for i in range(4)], ("a",), [[1.0], [2.0], [3.0], [4.0]]
        )
        z = standardize(table).values[:, 0]
        assert_allclose(z, [-1.3416407865, -0.4472135955, 0.4472135955, 1.3416407865],
                        atol=1e-9)
        assert_allclose(z, (np.arange(1.0, 5.0) - 2.5) / np.sqrt(1.25), rtol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRowsError):
            standardize(FeatureTable([CellId(0, 0)], ("a",), [[1.0]]))

    def test_records_moments(self, rng):
        values = rng.uniform(size=(10, 3))
        table = FeatureTable([CellId(i, 0) for i in range(10)], ("a", "b", "c"), values)
        z = standardize(table)
        assert z.standardized
        assert_allclose(z.means, values.mean(axis=0))
        assert_allclose(z.values.mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(z.values.std(axis=0), 1.0, rtol=1e-12)


class TestTaxonomyFile:
    def test_load(self):
        tax = load_third_place_taxonomy(io.StringIO(
            "label,category\nrestaurant,eating_and_drinking\npark,outdoor\n"
        ))
        assert tax.mapping.get("restaurant") == "eating_and_drinking"
        assert tax.mapping.get("unknown") is None

    def test_categories_are_the_third_place_ones_in_order(self):
        tax = load_third_place_taxonomy(io.StringIO("label,category\npark,outdoor\n"))
        assert tax.categories == THIRD_PLACE_CATEGORIES
        assert tax.category_index("park") == THIRD_PLACE_CATEGORIES.index("outdoor")

    def test_unknown_category_rejected(self):
        with pytest.raises(DataError):
            load_third_place_taxonomy(io.StringIO("label,category\npark,green_stuff\n"))

    def test_duplicate_label_rejected(self):
        with pytest.raises(DataError):
            load_third_place_taxonomy(io.StringIO(
                "label,category\npark,outdoor\npark,outdoor\n"
            ))

    def test_shipped_example_covers_all_categories(self):
        path = files("vibrancy").joinpath("data/third_places_example.csv")
        tax = load_third_place_taxonomy(io.StringIO(path.read_text(encoding="utf-8")))
        assert set(tax.mapping.values()) == set(THIRD_PLACE_CATEGORIES)
        assert len(tax.mapping) >= 40


class TestFeatureCsv:
    def test_round_trip(self, tmp_path, rng):
        values = rng.uniform(size=(4, len(FEATURE_COLUMNS)))
        table = FeatureTable(
            [CellId(i, 0) for i in range(4)], FEATURE_COLUMNS, values
        )
        path = tmp_path / "features.csv"
        export_features_csv(table, path)
        loaded = load_features_csv(path)
        assert loaded.columns == table.columns
        assert loaded.cells == table.cells
        assert np.array_equal(loaded.values, table.values)
