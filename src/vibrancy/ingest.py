"""Parsers for the CSV interchange formats and the service taxonomy.

Formats (header line mandatory):

* traffic:  ``col,row,timestamp,service,direction,volume``
* POIs:     ``x,y,label,source_category``
* services: ``service,category``

Traffic parsing rejects bad rows instead of aborting: each rejected line is
counted under a reason so that accepted + rejected always equals the number
of data lines. Accepted traffic rows are kept as typed columns
(``TrafficTable``), read once per file, not as one object per row.
"""

from __future__ import annotations

import csv
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO, Union

import numpy as np

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

#: rejected rows kept as (line, reason) examples in a ParseReport; counts stay exact
MAX_REJECT_EXAMPLES = 20


@dataclass(frozen=True)
class PoiRecord:
    x: float
    y: float
    label: str
    source_category: str


@dataclass
class ParseReport:
    """Per-reason rejection counts for one parsed file, plus the first
    ``MAX_REJECT_EXAMPLES`` rejected lines as ``(line_no, reason)``."""

    total_lines: int = 0
    accepted: int = 0
    rejects: dict = field(default_factory=dict)
    rejected_lines: list = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return sum(self.rejects.values())

    def counts(self) -> dict:
        """Accepted rows and rejected rows by reason (the examples left out)."""
        return {"accepted": self.accepted, "rejected": dict(self.rejects)}

    def _reject(self, line_no: int, reason: str) -> None:
        self.rejects[reason] = self.rejects.get(reason, 0) + 1
        if len(self.rejected_lines) < MAX_REJECT_EXAMPLES:
            self.rejected_lines.append((line_no, reason))


@dataclass(frozen=True, eq=False)
class TrafficTable:
    """Traffic rows as typed columns, in input order.

    Row j is cell ``(col[j], row[j])`` at ``stamps[stamp[j]]``, service
    ``services[service[j]]``, direction ``directions[direction[j]]``, with
    ``volume[j]``. Each distinct timestamp and name is stored once, so a row
    costs 33 bytes (two int64, two int32, one int8, one float64).
    """

    col: np.ndarray
    row: np.ndarray
    stamp: np.ndarray
    service: np.ndarray
    direction: np.ndarray
    volume: np.ndarray
    stamps: tuple[datetime, ...]
    services: tuple[str, ...]
    directions: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.volume)


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


@contextmanager
def _open_lines(source: Union[str, Path, TextIO]) -> Iterator[Iterable[str]]:
    """The lines of an open text stream, or of a UTF-8 file streamed from
    disk; a file that cannot be opened or decoded is a DataError naming it."""
    if hasattr(source, "read"):
        yield source
        return
    try:
        fh = open(source, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc}") from exc
    with fh:
        try:
            yield fh
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {source}: {exc}") from exc


def _check_header(row: list[str] | None, expected: list[str], what: str) -> None:
    if row is None or [c.strip() for c in row] != expected:
        raise DataError(f"{what} file must start with header {','.join(expected)!r}")


def read_cell_rows(path, what: str, columns: Optional[list[str]], convert):
    """Read a ``col,row,...`` CSV: its header (exactly ``columns`` if given),
    its cells in file order, and each row's other fields through ``convert``.
    A malformed row or a repeated cell is a DataError naming ``file:line``."""
    cells: list[CellId] = []
    rows: list[list] = []
    seen: set[CellId] = set()
    with _open_lines(path) as lines:
        reader = csv.reader(lines)
        header = [c.strip() for c in next(reader, [])]
        if (header != columns) if columns else (header[:2] != ["col", "row"]):
            expected = ",".join(columns) if columns else "col,row,..."
            raise DataError(f"{what} file {path} must have header {expected}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
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


def read_traffic(source, grid: GridSpec) -> tuple[TrafficTable, ParseReport]:
    """Read a traffic CSV once, validating every row against the grid.

    Returns the accepted rows as a TrafficTable in file order plus a
    ParseReport counting rejections (malformed row, unknown direction,
    out-of-bounds cell). Each distinct timestamp text is validated once.
    """
    columns = [array(code) for code in "qqiibd"]  # col, row, stamp, service, direction, volume
    add_col, add_row, add_stamp, add_service, add_direction, add_volume = (
        c.append for c in columns
    )
    stamps: list[datetime] = []
    stamp_of: dict[str, Optional[int]] = {}  # stripped text -> index, None if malformed
    service_of: dict[str, int] = {}
    direction_of = {d: i for i, d in enumerate(DIRECTIONS)}
    n_cols, n_rows = grid.n_cols, grid.n_rows
    report = ParseReport()
    reject = report._reject
    total = 0
    with _open_lines(source) as lines:
        reader = csv.reader(lines)
        _check_header(next(reader, None), TRAFFIC_HEADER, "traffic")
        for line_no, fields in enumerate(reader, start=2):
            if not fields:
                continue
            total += 1
            if len(fields) != 6:
                reject(line_no, REJECT_MALFORMED)
                continue
            col_s, row_s, ts_s, service, direction, volume_s = map(str.strip, fields)
            try:
                stamp = stamp_of[ts_s]
            except KeyError:
                try:
                    stamps.append(_parse_timestamp(ts_s))
                    stamp = len(stamps) - 1
                except ValueError:
                    stamp = None
                stamp_of[ts_s] = stamp
            try:
                col, row = int(col_s), int(row_s)
                volume = float(volume_s)
            except ValueError:
                reject(line_no, REJECT_MALFORMED)
                continue
            if stamp is None or not service or not math.isfinite(volume) or volume < 0:
                reject(line_no, REJECT_MALFORMED)
                continue
            direction_id = direction_of.get(direction)
            if direction_id is None:
                reject(line_no, REJECT_UNKNOWN_DIRECTION)
                continue
            if not (0 <= col < n_cols and 0 <= row < n_rows):  # as GridSpec.contains_cell
                reject(line_no, REJECT_OUT_OF_BOUNDS)
                continue
            add_col(col)
            add_row(row)
            add_stamp(stamp)
            add_service(service_of.setdefault(service, len(service_of)))
            add_direction(direction_id)
            add_volume(volume)
    report.total_lines = total
    report.accepted = len(columns[-1])
    table = TrafficTable(
        *(np.frombuffer(c, dtype=c.typecode) for c in columns),
        tuple(stamps),
        tuple(service_of),
        DIRECTIONS,
    )
    return table, report


# The benchmark's replay (perfbench/replay.py) still imports this name; it
# goes when the replay calls read_traffic.
parse_traffic = read_traffic


def parse_pois(source) -> tuple[list[PoiRecord], ParseReport]:
    """Parse a POI CSV; rows with a source key outside amenity/leisure/shop/sport
    are rejected."""
    records: list[PoiRecord] = []
    report = ParseReport()
    with _open_lines(source) as lines:
        reader = csv.reader(lines)
        _check_header(next(reader, None), POI_HEADER, "POI")
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
    mapping: dict[str, str] = {}
    with _open_lines(source) as lines:
        reader = csv.reader(lines)
        _check_header(next(reader, None), header, what)
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
