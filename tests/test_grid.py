import json
import math
import re

import pytest

from vibrancy import grid as grid_module
from vibrancy.errors import DataError, OutOfBoundsError
from vibrancy.grid import (
    CellId,
    CityRegion,
    GridSpec,
    cell_polygon,
    check_region_consistency,
    load_region,
    point_to_cell,
    save_region,
)


def grid(n_cols=10, n_rows=12, cell_size=100.0, origin=(0.0, 0.0)):
    return GridSpec(origin[0], origin[1], n_cols, n_rows, cell_size)


class TestGridSpec:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, 0, 5)
        with pytest.raises(ValueError):
            GridSpec(0, 0, 5, 5, cell_size=0)

    def test_rejects_an_extent_that_overflows_a_float(self):
        for args in [(0.0, 0.0, 8, 5, 1e308), (0.0, 1e308, 1, 2, 1e308),
                     (-1e308, 0.0, 3, 1, 1e308), (0.0, 0.0, 10**400, 1, 1.0)]:
            with pytest.raises(ValueError, match="extent overflows a float"):
                GridSpec(*args)
        # origin_x + n_cols * cell_size overflows here, but every corner that
        # cell_polygon computes fits in a float, so the grid is kept
        g = GridSpec(-1e308, 0.0, 2, 1, 1.3e308)
        for col in range(2):
            assert all(math.isfinite(v) for xy in cell_polygon(CellId(col, 0), g) for v in xy)

    def test_envelope(self):
        g = grid(3, 4, 50.0)
        assert g.width == 150.0
        assert g.height == 200.0


class TestPointToCell:
    def test_origin_point(self):
        assert point_to_cell(0, 0, grid()) == CellId(0, 0)

    def test_boundary_belongs_to_next_cell(self):
        # half-open intervals: the shared edge is owned by the higher index
        assert point_to_cell(100, 0, grid()) == CellId(1, 0)

    def test_interior_point(self):
        assert point_to_cell(250, 1050, grid()) == CellId(2, 10)

    def test_out_of_bounds(self):
        g = grid(10, 10)
        for x, y in [(-0.001, 5), (5, -3), (1000.0, 5), (5, 1000.0)]:
            with pytest.raises(OutOfBoundsError):
                point_to_cell(x, y, g)

    def test_matches_floor_arithmetic(self, rng):
        g = grid(40, 30, 25.0, origin=(-200.0, 300.0))
        for _ in range(200):
            x = rng.uniform(-200.0, -200.0 + 40 * 25.0 - 1e-9)
            y = rng.uniform(300.0, 300.0 + 30 * 25.0 - 1e-9)
            cell = point_to_cell(x, y, g)
            assert cell.col == math.floor((x + 200.0) / 25.0)
            assert cell.row == math.floor((y - 300.0) / 25.0)


class TestCellPolygon:
    def test_unit_cell(self):
        ring = cell_polygon(CellId(0, 0), grid())
        assert ring == [(0, 0), (100, 0), (100, 100), (0, 100), (0, 0)]

    def test_offset_cell(self):
        ring = cell_polygon(CellId(1, 2), grid())
        assert ring[0] == (100.0, 200.0)
        assert ring[-1] == ring[0]
        assert len(ring) == 5

    def test_scaled_cell(self):
        ring = cell_polygon(CellId(0, 0), grid(cell_size=50.0))
        assert ring == [(0, 0), (50, 0), (50, 50), (0, 50), (0, 0)]

    def test_counter_clockwise(self):
        ring = cell_polygon(CellId(3, 4), grid())
        shoelace = sum(
            x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:])
        )
        assert shoelace > 0

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBoundsError):
            cell_polygon(CellId(10, 0), grid(10, 10))

    def test_centroid_round_trips(self):
        g = grid(7, 5, 30.0, origin=(-50.0, 20.0))
        for col in range(7):
            for row in range(5):
                ring = cell_polygon(CellId(col, row), g)
                cx = sum(x for x, _ in ring[:-1]) / 4
                cy = sum(y for _, y in ring[:-1]) / 4
                assert point_to_cell(cx, cy, g) == CellId(col, row)

    def test_adjacent_cells_share_edges(self):
        g = grid(4, 4)
        left = cell_polygon(CellId(1, 1), g)
        right = cell_polygon(CellId(2, 1), g)
        # right edge of (1,1) equals left edge of (2,1)
        assert {left[1], left[2]} == {right[0], right[3]}


def region_with(n_cells, n_cols, declared=None):
    cells = frozenset(
        CellId(i % n_cols, i // n_cols) for i in range(n_cells)
    )
    g = GridSpec(0, 0, n_cols, (n_cells + n_cols - 1) // n_cols, 100.0, "test")
    return CityRegion(g, cells, declared)


class TestRegionConsistency:
    def test_paris_row(self):
        report = check_region_consistency(region_with(81731, 300, declared=816.26))
        assert report.passed
        assert report.relative_error == pytest.approx(0.0012864, abs=2e-4)

    def test_nancy_row(self):
        report = check_region_consistency(region_with(14353, 150, declared=143.34))
        assert report.passed
        assert report.relative_error == pytest.approx(0.0013254, abs=2e-4)

    def test_constructed_mismatch(self):
        report = check_region_consistency(region_with(100, 10, declared=2.0))
        assert not report.passed
        assert report.relative_error == pytest.approx(0.5)

    def test_no_declared_area(self):
        report = check_region_consistency(region_with(10, 5))
        assert report.passed
        assert report.relative_error == 0.0

    @pytest.mark.parametrize("declared", [0.0, -5.0, math.nan, math.inf])
    def test_declared_area_must_be_finite_and_positive(self, tmp_path, declared):
        with pytest.raises(DataError, match="declared_area_km2"):
            region_with(4, 2, declared=declared)
        path = tmp_path / "region.json"
        save_region(region_with(4, 2, declared=1.0), path)
        doc = json.loads(path.read_text())
        doc["declared_area_km2"] = declared
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"^region file {path}: declared_area_km2"):
            load_region(path)


class TestCityRegion:
    def test_rejects_out_of_bounds_cells(self):
        g = grid(3, 3)
        with pytest.raises(OutOfBoundsError):
            CityRegion(g, frozenset({CellId(3, 0)}))

    def test_scan_order_is_row_major(self):
        g = grid(3, 3)
        cells = frozenset({CellId(2, 1), CellId(0, 0), CellId(1, 0), CellId(0, 2)})
        ordered = CityRegion(g, cells).cells_in_scan_order()
        assert ordered == [CellId(0, 0), CellId(1, 0), CellId(2, 1), CellId(0, 2)]


class TestRegionFiles:
    def test_round_trip(self, tmp_path):
        region = region_with(137, 12, declared=1.37)
        path = tmp_path / "region.json"
        save_region(region, path)
        loaded = load_region(path)
        assert loaded.grid == region.grid
        assert loaded.active_cells == region.active_cells
        assert loaded.declared_area_km2 == region.declared_area_km2

    def test_run_length_encoding_is_compact(self, tmp_path):
        region = region_with(400, 20)
        path = tmp_path / "region.json"
        save_region(region, path)
        doc = json.loads(path.read_text())
        assert len(doc["active_runs"]) == 20  # one run per full row

    def test_accepts_explicit_cell_list(self, tmp_path):
        path = tmp_path / "region.json"
        path.write_text(json.dumps({
            "grid": {"region_name": "x", "origin_x": 0, "origin_y": 0,
                     "cell_size": 100, "n_cols": 5, "n_rows": 5},
            "active_cells": [[0, 0], [1, 2]],
            "active_runs": [[4, 1, 3]],
        }))
        region = load_region(path)
        assert region.active_cells == frozenset(
            {CellId(0, 0), CellId(1, 2), CellId(1, 4), CellId(2, 4), CellId(3, 4)}
        )

    @pytest.mark.parametrize("entry", [[0, 0, 2_000_000], [0, 9, 2], [0, -1, 1], [10, 0, 1],
                                       [-1, 0, 1]])
    def test_a_run_off_the_grid_is_refused_before_it_is_expanded(self, tmp_path, monkeypatch,
                                                                  entry):
        path = tmp_path / "region.json"
        path.write_text(json.dumps({
            "grid": {"region_name": "x", "origin_x": 0, "origin_y": 0,
                     "cell_size": 100, "n_cols": 10, "n_rows": 10},
            "active_runs": [[0, 0, 10], entry],
        }))
        built = []

        def counted(col, row):
            built.append((col, row))
            return CellId(col, row)

        monkeypatch.setattr(grid_module, "CellId", counted)
        with pytest.raises(OutOfBoundsError,
                           match=f"^region file {re.escape(str(path))}: active_runs entry "
                                 f"{re.escape(str(entry))} "):
            load_region(path)
        assert len(built) == 10  # the first run's cells only

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_region(tmp_path / "nope.json")

    def test_empty_region_rejected(self, tmp_path):
        path = tmp_path / "region.json"
        path.write_text(json.dumps({
            "grid": {"region_name": "x", "origin_x": 0, "origin_y": 0,
                     "cell_size": 100, "n_cols": 5, "n_rows": 5},
        }))
        with pytest.raises(DataError):
            load_region(path)
