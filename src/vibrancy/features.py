"""Third-place covariates: counts and label diversity per grid cell.

POI labels (restaurant, park, bank, ...) map onto five third-place
categories; anything unmapped is not a third place and is ignored. Each
cell gets 12 covariates: total count, total diversity, then a count and a
diversity for every category. Diversity is Shannon entropy in bits over
the distinct labels present, so a cell with one restaurant and one bar is
more diverse than a cell with two restaurants.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import log2
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DataError, OutOfBoundsError, TooFewRowsError
from .grid import CellId, CityRegion, point_to_cell
from .ingest import PoiRecord, read_category_pairs, read_cell_rows

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


@dataclass(frozen=True)
class ThirdPlaceTaxonomy:
    """Mapping from POI labels to the five third-place categories."""

    mapping: dict[str, str]

    def __post_init__(self):
        for label, category in self.mapping.items():
            if category not in THIRD_PLACE_CATEGORIES:
                raise DataError(
                    f"label {label!r} maps to unknown category {category!r}; "
                    f"expected one of {THIRD_PLACE_CATEGORIES}"
                )

    def category_of(self, label: str) -> Optional[str]:
        return self.mapping.get(label)


def load_third_place_taxonomy(source) -> ThirdPlaceTaxonomy:
    """Load a ``label,category`` CSV. Duplicate labels are an error."""
    return ThirdPlaceTaxonomy(read_category_pairs(
        source, ["label", "category"], "third-place taxonomy", allowed=THIRD_PLACE_CATEGORIES))


def filter_rare_labels(pois: Sequence[PoiRecord], min_count: int = 10) -> list[PoiRecord]:
    """Keep only records whose label occurs at least ``min_count`` times in the
    given corpus. Idempotent."""
    counts = Counter(p.label for p in pois)
    return [p for p in pois if counts[p.label] >= min_count]


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
    taxonomy: ThirdPlaceTaxonomy,
    region: CityRegion,
    cells: Optional[Sequence[CellId]] = None,
) -> FeatureTable:
    """Aggregate POIs into the 12 third-place covariates per cell.

    Rows default to the region's active cells in row-major order; pass
    ``cells`` to align with an existing tensor instead. Non-third-place
    labels and POIs outside the region contribute nothing; cells without
    POIs are all zero. Input should already be rare-label filtered.
    """
    row_cells = list(cells) if cells is not None else region.cells_in_scan_order()
    index = {cell: i for i, cell in enumerate(row_cells)}
    label_counts: list[Counter] = [Counter() for _ in row_cells]
    by_category: list[dict[str, Counter]] = [
        {c: Counter() for c in THIRD_PLACE_CATEGORIES} for _ in row_cells
    ]
    for poi in pois:
        category = taxonomy.category_of(poi.label)
        if category is None:
            continue
        try:
            cell = point_to_cell(poi.x, poi.y, region.grid)
        except OutOfBoundsError:
            continue
        i = index.get(cell)
        if i is None:
            continue
        label_counts[i][poi.label] += 1
        by_category[i][category][poi.label] += 1

    values = np.zeros((len(row_cells), len(FEATURE_COLUMNS)))
    for i in range(len(row_cells)):
        values[i, 0] = sum(label_counts[i].values())
        values[i, 1] = shannon_diversity(label_counts[i])
        for j, cat in enumerate(THIRD_PLACE_CATEGORIES):
            values[i, 2 + j] = sum(by_category[i][cat].values())
            values[i, 7 + j] = shannon_diversity(by_category[i][cat])
    return FeatureTable(row_cells, FEATURE_COLUMNS, values)


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("col,row," + ",".join(table.columns) + "\n")
        for cell, row in zip(table.cells, table.values):
            fh.write(f"{cell.col},{cell.row}," + ",".join(repr(float(v)) for v in row) + "\n")


def load_features_csv(path) -> FeatureTable:
    header, cells, rows = read_cell_rows(path, "feature", None, float)
    return FeatureTable(cells, header[2:], np.asarray(rows, dtype=np.float64))
