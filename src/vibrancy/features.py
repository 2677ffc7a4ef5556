"""Third-place covariates: counts and label diversity per grid cell.

POI labels (restaurant, park, bank, ...) map onto five third-place
categories through an ``ingest.Taxonomy`` whose categories are
``THIRD_PLACE_CATEGORIES``; anything unmapped is not a third place and is
ignored. Each cell gets 12 covariates: total count, total diversity, then a
count and a diversity for every category. Diversity is Shannon entropy in
bits over the distinct labels present, so a cell with one restaurant and
one bar is more diverse than a cell with two restaurants.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from math import floor, log2
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DataError, TooFewRowsError
from .grid import CellId, CityRegion, GridSpec
from .ingest import PoiRecord, Taxonomy, read_category_pairs, read_cell_rows, write_csv

THIRD_PLACE_CATEGORIES = (
    "commercial_services",
    "commercial_venues",
    "eating_and_drinking",
    "outdoor",
    "organised_activities",
)

FEATURE_COLUMNS = (
    ("total_count", "total_diversity")
    + tuple(f"{c}_count" for c in THIRD_PLACE_CATEGORIES)
    + tuple(f"{c}_diversity" for c in THIRD_PLACE_CATEGORIES)
)

THIRD_PLACE_HEADER = ["label", "category"]


def load_third_place_taxonomy(source) -> Taxonomy:
    """Load a ``label,category`` CSV over ``THIRD_PLACE_CATEGORIES``.
    Duplicate labels are an error."""
    return Taxonomy(read_category_pairs(
        source, THIRD_PLACE_HEADER, "third-place taxonomy", allowed=THIRD_PLACE_CATEGORIES),
        THIRD_PLACE_CATEGORIES)


def rare_labels(pois: Sequence[PoiRecord], min_count: int = 10) -> dict[str, int]:
    """The labels that occur fewer than ``min_count`` times in the given
    corpus, each with its count, sorted by label."""
    counts = Counter(p.label for p in pois)
    return {label: n for label, n in sorted(counts.items()) if n < min_count}


def filter_rare_labels(pois: Sequence[PoiRecord], min_count: int = 10) -> list[PoiRecord]:
    """Keep only records whose label occurs at least ``min_count`` times in the
    given corpus. Idempotent."""
    rare = rare_labels(pois, min_count)
    return [p for p in pois if p.label not in rare]


def shannon_diversity(counts: Union[Mapping[str, float], Iterable[float]]) -> float:
    """Shannon entropy in bits of the count distribution.

    Zero total or a single present label gives 0. Counts must be nonnegative.
    """
    values = list(counts.values()) if isinstance(counts, Mapping) else list(counts)
    if any(v < 0 for v in values):
        raise ValueError("counts must be nonnegative")
    total = sum(sorted(values))
    if total == 0:
        return 0.0
    h = 0.0
    # canonical summation order makes the result independent of label order
    for v in sorted(values):
        if v > 0:
            p = v / total
            h -= p * log2(p)
    return h + 0.0  # normalize -0.0


@dataclass
class FeatureTable:
    """Per-cell covariate matrix with named columns."""

    cells: list[CellId]
    columns: tuple[str, ...]
    values: np.ndarray  # (n, len(columns))
    standardized: bool = False
    means: Optional[np.ndarray] = None
    sds: Optional[np.ndarray] = None

    def __post_init__(self):
        self.columns = tuple(self.columns)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.cells), len(self.columns)):
            raise DataError("feature table shape does not match cells/columns")

    @property
    def n(self) -> int:
        return len(self.cells)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def build_features(
    pois: Sequence[PoiRecord],
    taxonomy: Taxonomy,
    region: CityRegion,
    cells: Optional[Sequence[CellId]] = None,
) -> FeatureTable:
    """Aggregate POIs into the 12 third-place covariates per cell.

    Rows default to the region's active cells in row-major order; pass
    ``cells`` to align with an existing tensor instead (a cell listed twice
    gets its POIs on its last row). Non-third-place labels and POIs outside
    the region contribute nothing; cells without POIs are all zero. Input
    should already be rare-label filtered.

    The POIs are counted as arrays, in O(POIs + n) memory: one sort counts
    each distinct (row, label) pair, and every diversity equals
    ``shannon_diversity`` of its row's (or row and category's) label counts,
    bit for bit. A taxonomy over other categories than
    ``THIRD_PLACE_CATEGORIES``, in that order, is a DataError.
    """
    if taxonomy.categories != THIRD_PLACE_CATEGORIES:
        raise DataError(f"third-place taxonomy categories {taxonomy.categories} are not "
                        f"{THIRD_PLACE_CATEGORIES}")
    row_cells = list(cells) if cells is not None else region.cells_in_scan_order()
    n, n_cat = len(row_cells), len(THIRD_PLACE_CATEGORIES)
    rows, categories, counts = _label_counts(pois, taxonomy, region.grid, row_cells)
    in_category = rows * n_cat + categories
    values = np.zeros((n, len(FEATURE_COLUMNS)))
    values[:, 0] = np.bincount(rows, weights=counts, minlength=n)
    values[:, 1] = _diversities(rows, counts, values[:, 0])
    category_counts = np.bincount(in_category, weights=counts, minlength=n * n_cat)
    values[:, 2:2 + n_cat] = category_counts.reshape(n, n_cat)
    values[:, 2 + n_cat:] = _diversities(in_category, counts, category_counts).reshape(n, n_cat)
    return FeatureTable(row_cells, FEATURE_COLUMNS, values)


def _label_counts(pois, taxonomy, grid: GridSpec, row_cells):
    """Each distinct (row, third-place label) pair of the POIs in a cell of
    ``row_cells``, ordered by row: its row, the label's category index and
    the pair's count.

    A point maps to its cell by ``floor`` as in ``point_to_cell``, which
    raises on a non-finite coordinate; here the first third-place POI with
    one raises the same error.
    """
    labels = [poi.label for poi in pois]
    codes = {label: i for i, label in enumerate(
        sorted(label for label in set(labels) if label in taxonomy.mapping))}
    code_category = np.array(list(map(taxonomy.category_index, codes)), dtype=np.intp)
    code = np.fromiter(map(codes.get, labels, repeat(-1)), np.intp, len(labels))
    third = np.flatnonzero(code >= 0)
    xs = np.fromiter((poi.x for poi in pois), np.float64, len(labels))
    ys = np.fromiter((poi.y for poi in pois), np.float64, len(labels))
    with np.errstate(over="ignore"):  # an overflow is a non-finite coordinate below
        col = (xs[third] - grid.origin_x) / grid.cell_size
        row = (ys[third] - grid.origin_y) / grid.cell_size
    finite = np.isfinite(col) & np.isfinite(row)
    if not finite.all():
        i = int(np.argmin(finite))
        floor(float(col[i]))
        floor(float(row[i]))
    col, row = np.floor(col), np.floor(row)
    on_grid = np.flatnonzero((col >= 0) & (col < grid.n_cols) & (row >= 0) & (row < grid.n_rows))
    key = row[on_grid].astype(np.int64) * grid.n_cols + col[on_grid].astype(np.int64)
    cell_key, cell_row = _cell_keys(row_cells, grid)
    at = np.searchsorted(cell_key, key)
    at[at == cell_key.size] = 0
    hit = np.flatnonzero(cell_key[at] == key) if cell_key.size else at[:0]
    n_codes = max(len(codes), 1)
    pairs = cell_row[at[hit]] * n_codes + code[third[on_grid[hit]]]
    pairs.sort(kind="stable")
    starts = np.flatnonzero(_firsts(pairs))
    rows, pair_codes = np.divmod(pairs[starts], n_codes)
    return rows, code_category[pair_codes], np.diff(np.r_[starts, pairs.size])


def _cell_keys(row_cells, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The row-major grid index of each in-grid cell of ``row_cells``,
    sorted, and the row of each; a cell listed twice keeps its last row."""
    n = len(row_cells)
    col = np.fromiter((c.col for c in row_cells), np.int64, n)
    row = np.fromiter((c.row for c in row_cells), np.int64, n)
    key = np.where((col >= 0) & (col < grid.n_cols) & (row >= 0) & (row < grid.n_rows),
                   row * grid.n_cols + col, -1)
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = _firsts(key[::-1])[::-1] & (key >= 0)
    return key[last], order[last]


def _diversities(group: np.ndarray, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``shannon_diversity`` of each group's label counts, bit for bit:
    ``counts[j]`` is one label's count in group ``group[j]``, and ``totals``
    holds every group's sum (the number of groups is its size)."""
    order = np.lexsort((counts, group))  # by group, each group's counts ascending
    group = group[order]
    p = counts[order] / totals[group]
    # shannon_diversity subtracts a group's terms p·log2(p) from 0.0 one at a
    # time in ascending count order. bincount adds them one at a time in that
    # order, and rounding is symmetric, so 0.0 minus the sum has the same bits
    # (and is 0.0, never -0.0, for a group with no terms or only zero ones).
    return 0.0 - np.bincount(group, weights=p * _log2(p), minlength=totals.size)


def _log2(values: np.ndarray) -> np.ndarray:
    """``math.log2`` of each value, called once per distinct value (``np.log2``
    may differ from it in the last bit)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = _firsts(ordered)
    logs = np.empty_like(values)
    logs[order] = np.array([log2(v) for v in ordered[first].tolist()])[np.cumsum(first) - 1]
    return logs


def _firsts(a: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in ``a``."""
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return first


def standardize(table: FeatureTable) -> FeatureTable:
    """Z-score each covariate with the population standard deviation.

    A constant covariate becomes all zeros. The means and deviations are kept
    on the returned table so models can be applied to new data later.
    """
    if table.n < 2:
        raise TooFewRowsError("standardization needs at least 2 rows")
    means = table.values.mean(axis=0)
    sds = table.values.std(axis=0)  # population, ddof=0
    safe = np.where(sds == 0, 1.0, sds)
    z = (table.values - means) / safe
    z[:, sds == 0] = 0.0
    return FeatureTable(
        list(table.cells), table.columns, z, standardized=True, means=means, sds=sds
    )


def export_features_csv(table: FeatureTable, path) -> None:
    write_csv(path, ["col", "row", *table.columns],
              (f"{cell.col},{cell.row}," + ",".join(map(repr, row))
               for cell, row in zip(table.cells, table.values.tolist())))


def load_features_csv(path) -> FeatureTable:
    """Read a ``features.csv`` with the header ``col,row`` + ``FEATURE_COLUMNS``."""
    cells, values = read_cell_rows(path, "features", ["col", "row", *FEATURE_COLUMNS], np.float64)
    return FeatureTable(cells, FEATURE_COLUMNS, values)
