"""Parsers for the CSV interchange formats and the service taxonomy.

Formats (header line mandatory):

* traffic:  ``col,row,timestamp,service,direction,volume``
* POIs:     ``x,y,label,source_category``
* services: ``service,category``

Traffic parsing rejects bad rows instead of aborting: each rejected line is
counted under a reason so that accepted + rejected always equals the number
of data lines.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Optional, TextIO, Union

from .errors import (
    DataError,
    DuplicateServiceError,
    EmptyCategoryListError,
    UnknownServiceError,
)
from .grid import CellId, GridSpec

DOWNLINK = "downlink"
UPLINK = "uplink"
DIRECTIONS = (DOWNLINK, UPLINK)

#: OSM keys accepted as POI sources
POI_SOURCE_KEYS = ("amenity", "leisure", "shop", "sport")

TRAFFIC_HEADER = ["col", "row", "timestamp", "service", "direction", "volume"]
POI_HEADER = ["x", "y", "label", "source_category"]
TAXONOMY_HEADER = ["service", "category"]

REJECT_MALFORMED = "malformed"
REJECT_UNKNOWN_DIRECTION = "unknown_direction"
REJECT_OUT_OF_BOUNDS = "out_of_bounds"
REJECT_UNKNOWN_SOURCE = "unknown_source_category"


@dataclass(frozen=True)
class TrafficRecord:
    cell: CellId
    timestamp: datetime
    service: str
    direction: str
    volume: float


@dataclass(frozen=True)
class PoiRecord:
    x: float
    y: float
    label: str
    source_category: str


@dataclass
class ParseReport:
    """Per-reason rejection counts for one parsed file."""

    total_lines: int = 0
    accepted: int = 0
    rejects: dict = field(default_factory=dict)
    rejected_lines: list = field(default_factory=list)  # (line_no, reason)

    @property
    def rejected(self) -> int:
        return sum(self.rejects.values())

    def _reject(self, line_no: int, reason: str) -> None:
        self.rejects[reason] = self.rejects.get(reason, 0) + 1
        self.rejected_lines.append((line_no, reason))


@dataclass(frozen=True)
class ServiceTaxonomy:
    """Total mapping from service names to app categories.

    ``categories`` keeps the file order of first appearance, which fixes the
    category axis of every signature tensor built from it.
    """

    mapping: dict[str, str]
    categories: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        index = {c: i for i, c in enumerate(self.categories)}
        object.__setattr__(self, "_index", index)
        for service, category in self.mapping.items():
            if category not in index:
                raise DataError(
                    f"service {service!r} maps to unlisted category {category!r}"
                )

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def category_index(self, service: str) -> int:
        try:
            return self._index[self.mapping[service]]
        except KeyError:
            raise UnknownServiceError(f"service {service!r} not in taxonomy") from None


def _open_lines(source: Union[str, Path, TextIO]) -> Iterable[str]:
    if hasattr(source, "read"):
        return source
    try:
        return io.StringIO(Path(source).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc}") from exc


def _check_header(row: list[str] | None, expected: list[str], what: str) -> None:
    if row is None or [c.strip() for c in row] != expected:
        raise DataError(f"{what} file must start with header {','.join(expected)!r}")


def read_cell_rows(path, what: str, columns: Optional[list[str]], convert):
    """Read a ``col,row,...`` CSV: its header (exactly ``columns`` if given),
    its cells in file order, and each row's other fields through ``convert``.
    A malformed row or a repeated cell is a DataError naming ``file:line``."""
    reader = csv.reader(_open_lines(path))
    header = [c.strip() for c in next(reader, [])]
    if (header != columns) if columns else (header[:2] != ["col", "row"]):
        expected = ",".join(columns) if columns else "col,row,..."
        raise DataError(f"{what} file {path} must have header {expected}")
    cells: list[CellId] = []
    rows: list[list] = []
    seen: set[CellId] = set()
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
        try:
            cell = CellId(int(row[0]), int(row[1]))
            rows.append([convert(v) for v in row[2:]])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
        if cell in seen:
            raise DataError(f"{path}:{line_no}: cell ({cell.col}, {cell.row}) is listed twice")
        seen.add(cell)
        cells.append(cell)
    return header, cells, rows


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is not None:
        raise ValueError("timezone-aware timestamps not supported")
    if ts.minute % 15 != 0 or ts.second != 0 or ts.microsecond != 0:
        raise ValueError("timestamp not aligned to a 15-minute boundary")
    return ts


def parse_traffic(source, grid: GridSpec) -> tuple[list[TrafficRecord], ParseReport]:
    """Parse a traffic CSV, validating every row against the grid.

    Returns the accepted records in file order plus a ParseReport counting
    rejections (malformed row, unknown direction, out-of-bounds cell).
    """
    reader = csv.reader(_open_lines(source))
    _check_header(next(reader, None), TRAFFIC_HEADER, "traffic")
    records: list[TrafficRecord] = []
    report = ParseReport()
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        report.total_lines += 1
        if len(row) != 6:
            report._reject(line_no, REJECT_MALFORMED)
            continue
        col_s, row_s, ts_s, service, direction, volume_s = (c.strip() for c in row)
        try:
            col, row_i = int(col_s), int(row_s)
            ts = _parse_timestamp(ts_s)
            volume = float(volume_s)
        except ValueError:
            report._reject(line_no, REJECT_MALFORMED)
            continue
        if not service or not math.isfinite(volume) or volume < 0:
            report._reject(line_no, REJECT_MALFORMED)
            continue
        if direction not in DIRECTIONS:
            report._reject(line_no, REJECT_UNKNOWN_DIRECTION)
            continue
        cell = CellId(col, row_i)
        if not grid.contains_cell(cell):
            report._reject(line_no, REJECT_OUT_OF_BOUNDS)
            continue
        records.append(TrafficRecord(cell, ts, service, direction, volume))
        report.accepted += 1
    return records, report


def parse_pois(source) -> tuple[list[PoiRecord], ParseReport]:
    """Parse a POI CSV; rows with a source key outside amenity/leisure/shop/sport
    are rejected."""
    reader = csv.reader(_open_lines(source))
    _check_header(next(reader, None), POI_HEADER, "POI")
    records: list[PoiRecord] = []
    report = ParseReport()
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        report.total_lines += 1
        if len(row) != 4:
            report._reject(line_no, REJECT_MALFORMED)
            continue
        x_s, y_s, label, source_cat = (c.strip() for c in row)
        try:
            x, y = float(x_s), float(y_s)
        except ValueError:
            report._reject(line_no, REJECT_MALFORMED)
            continue
        if not (math.isfinite(x) and math.isfinite(y)) or not label:
            report._reject(line_no, REJECT_MALFORMED)
            continue
        if source_cat not in POI_SOURCE_KEYS:
            report._reject(line_no, REJECT_UNKNOWN_SOURCE)
            continue
        records.append(PoiRecord(x, y, label, source_cat))
        report.accepted += 1
    return records, report


def read_category_pairs(source, header: list[str], what: str, duplicate=DataError) -> dict:
    """Read a two-column ``<key>,category`` CSV into a key -> category map in
    file order. An empty field or a repeated key (raised as ``duplicate``) is
    an error naming the line."""
    reader = csv.reader(_open_lines(source))
    _check_header(next(reader, None), header, what)
    mapping: dict[str, str] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"{what} line {line_no}: expected 2 fields, got {len(row)}")
        key, category = (c.strip() for c in row)
        if not key or not category:
            raise DataError(f"{what} line {line_no}: empty {header[0]} or category")
        if key in mapping:
            raise duplicate(f"{what} line {line_no}: duplicate {header[0]} {key!r}")
        mapping[key] = category
    return mapping


def load_taxonomy(source) -> ServiceTaxonomy:
    """Load a ``service,category`` CSV; category order is file order of first
    appearance."""
    mapping = read_category_pairs(source, TAXONOMY_HEADER, "taxonomy", DuplicateServiceError)
    categories = tuple(dict.fromkeys(mapping.values()))
    if not categories:
        raise EmptyCategoryListError("taxonomy file defines no categories")
    return ServiceTaxonomy(mapping, categories)
