"""Square-cell spatial tiling in planar metric coordinates.

The grid is projection-free: coordinates are meters in some planar frame,
and any lon/lat conversion happens upstream. Cells are half-open squares,
so every in-bounds point belongs to exactly one cell and shared edges are
never double-counted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

from .errors import DataError, OutOfBoundsError, json_field, json_rows, read_json, write_json


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned square tiling; ``(origin_x, origin_y)`` is the lower-left
    corner of cell (0, 0)."""

    origin_x: float
    origin_y: float
    n_cols: int
    n_rows: int
    cell_size: float = 100.0
    region_name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise ValueError("origin must be finite")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError("cell_size must be positive and finite")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError("grid needs at least one column and one row")

    @property
    def width(self) -> float:
        return self.n_cols * self.cell_size

    @property
    def height(self) -> float:
        return self.n_rows * self.cell_size

    def contains_cell(self, cell: "CellId") -> bool:
        return 0 <= cell.col < self.n_cols and 0 <= cell.row < self.n_rows


@dataclass(frozen=True)
class CellId:
    col: int
    row: int


def scan_order(cell: CellId) -> tuple[int, int]:
    """Row-major sort key; the canonical cell ordering everywhere."""
    return (cell.row, cell.col)


def point_to_cell(x: float, y: float, grid: GridSpec) -> CellId:
    """Map a planar point to the cell containing it.

    Cells are half-open: a point exactly on a shared edge belongs to the
    cell with the larger index. Raises OutOfBoundsError when the point lies
    outside the grid envelope.
    """
    col = math.floor((x - grid.origin_x) / grid.cell_size)
    row = math.floor((y - grid.origin_y) / grid.cell_size)
    if not (0 <= col < grid.n_cols and 0 <= row < grid.n_rows):
        raise OutOfBoundsError(
            f"point ({x}, {y}) outside grid envelope of {grid.n_cols}x{grid.n_rows} cells"
        )
    return CellId(col, row)


def cell_polygon(cell: CellId, grid: GridSpec) -> list[tuple[float, float]]:
    """Closed counter-clockwise ring of the cell square (5 points, first repeated)."""
    if not grid.contains_cell(cell):
        raise OutOfBoundsError(f"cell ({cell.col}, {cell.row}) outside grid bounds")
    s = grid.cell_size
    x0 = grid.origin_x + cell.col * s
    y0 = grid.origin_y + cell.row * s
    return [(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s), (x0, y0)]


@dataclass(frozen=True)
class CityRegion:
    """A grid, its cells in the study area, and the declared area if known (> 0)."""

    grid: GridSpec
    active_cells: frozenset[CellId]
    declared_area_km2: Optional[float] = None

    def __post_init__(self):
        # frozenset so regions are hashable and never mutated after load
        object.__setattr__(self, "active_cells", frozenset(self.active_cells))
        declared = self.declared_area_km2
        if declared is not None and not (math.isfinite(declared) and declared > 0):
            raise DataError(f"declared_area_km2 {declared!r} is not a finite positive number")
        for cell in self.active_cells:
            if not self.grid.contains_cell(cell):
                raise OutOfBoundsError(
                    f"active cell ({cell.col}, {cell.row}) outside grid bounds"
                )

    @property
    def n_cells(self) -> int:
        return len(self.active_cells)

    def area_km2(self) -> float:
        return self.n_cells * (self.grid.cell_size**2) / 1e6

    def cells_in_scan_order(self) -> list[CellId]:
        return sorted(self.active_cells, key=scan_order)


@dataclass(frozen=True)
class RegionCheck:
    """Outcome of the declared-area consistency check."""

    passed: bool
    relative_error: float
    computed_area_km2: float
    declared_area_km2: Optional[float]


def check_region_consistency(region: CityRegion, tolerance: float = 0.01) -> RegionCheck:
    """Compare the tiled area against the declared one.

    Passes iff |computed - declared| / declared <= tolerance (default 1%).
    A region without a declared area passes trivially with zero error.
    """
    computed = region.area_km2()
    declared = region.declared_area_km2
    if declared is None:
        return RegionCheck(True, 0.0, computed, None)
    rel = abs(computed - declared) / declared
    return RegionCheck(rel <= tolerance, rel, computed, declared)


# ---------------------------------------------------------------------------
# Region file format: JSON with the grid spec, the active-cell set (explicit
# pairs and/or run-length encoded rows), and an optional declared area.
#
#   {
#     "grid": {"region_name": "nancy", "origin_x": 0.0, "origin_y": 0.0,
#              "cell_size": 100.0, "n_cols": 120, "n_rows": 120},
#     "active_runs": [[row, col_start, length], ...],
#     "active_cells": [[col, row], ...],
#     "declared_area_km2": 143.34
#   }
# ---------------------------------------------------------------------------


def _runs_from_cells(cells: Iterable[CellId]) -> list[list[int]]:
    runs = []
    ordered = sorted(cells, key=scan_order)
    i = 0
    while i < len(ordered):
        start = ordered[i]
        length = 1
        while (
            i + length < len(ordered)
            and ordered[i + length].row == start.row
            and ordered[i + length].col == start.col + length
        ):
            length += 1
        runs.append([start.row, start.col, length])
        i += length
    return runs


def grid_to_dict(grid: GridSpec) -> dict:
    """The grid spec as stored in region files and tensor headers."""
    return asdict(grid)


def grid_from_dict(doc: dict) -> GridSpec:
    return GridSpec(
        origin_x=json_field(doc, "origin_x", float),
        origin_y=json_field(doc, "origin_y", float),
        n_cols=json_field(doc, "n_cols", int),
        n_rows=json_field(doc, "n_rows", int),
        cell_size=json_field(doc, "cell_size", float) if "cell_size" in doc else 100.0,
        region_name=json_field(doc, "region_name", str) if "region_name" in doc else "",
    )


def save_region(region: CityRegion, path) -> None:
    doc = {
        "grid": grid_to_dict(region.grid),
        "active_runs": _runs_from_cells(region.active_cells),
    }
    if region.declared_area_km2 is not None:
        doc["declared_area_km2"] = region.declared_area_km2
    write_json(path, doc)


def load_region(path) -> CityRegion:
    doc = read_json(path, "region file")
    try:
        grid = grid_from_dict(doc["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"region file {path} has a bad grid spec: {exc}") from exc
    try:
        cells = {CellId(col, row) for col, row in json_rows(doc, "active_cells", ("col", "row"))}
        runs = json_rows(doc, "active_runs", ("row", "col", "length"))
        declared = doc.get("declared_area_km2")
        if declared is not None:
            declared = json_field(doc, "declared_area_km2", float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"region file {path}: {exc}") from exc
    for entry in runs:
        row, col_start, length = entry
        if length < 0:
            raise DataError(f"region file {path}: active_runs entry {entry} has a negative length")
        # checked before the run is expanded, which takes time and memory per cell
        if not (0 <= row < grid.n_rows and col_start >= 0 and col_start + length <= grid.n_cols):
            raise OutOfBoundsError(f"region file {path}: active_runs entry {entry} runs outside "
                                   f"the {grid.n_cols} x {grid.n_rows} grid")
        for col in range(col_start, col_start + length):
            cells.add(CellId(col, row))
    if not cells:
        raise DataError(f"region file {path} lists no active cells")
    try:
        return CityRegion(grid, frozenset(cells), declared)
    except DataError as exc:
        raise type(exc)(f"region file {path}: {exc}") from exc
