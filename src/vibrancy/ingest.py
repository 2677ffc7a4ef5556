"""Parsers for the CSV interchange formats and the service taxonomy.

Formats (header line mandatory):

* traffic:  ``col,row,timestamp,service,direction,volume``
* POIs:     ``x,y,label,source_category``
* services: ``service,category``

Traffic parsing rejects bad rows instead of aborting: each rejected line is
counted under a reason so that accepted + rejected always equals the number
of data lines. Accepted traffic rows are kept as typed columns
(``TrafficTable``), read once per file, not as one object per row; plain
chunks of the file are parsed with numpy (see ``read_traffic``). A wrong
header, or a line error in a taxonomy, is a DataError naming the file.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain, count, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO, Union

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


class PoiRecord(NamedTuple):
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

    def require_accepted(self, source, what: str) -> None:
        """Raise a DataError naming ``source`` and its rejects by reason if
        no row was accepted."""
        if not self.accepted:
            rejected = ", ".join(f"{n} {reason}" for reason, n in self.rejects.items())
            raise DataError(f"{_source_name(source)}: no {what} row accepted of "
                            f"{self.total_lines} data lines (rejected: {rejected or 'none'})")

    def _reject(self, line_no: int, reason: str) -> None:
        self.rejects[reason] = self.rejects.get(reason, 0) + 1
        if len(self.rejected_lines) < MAX_REJECT_EXAMPLES:
            self.rejected_lines.append((line_no, reason))

    def _reject_lines(self, line_nos: list[int], reasons: list[str]) -> None:
        """``_reject`` for each line and its reason, in line order."""
        for reason in dict.fromkeys(reasons):
            self.rejects[reason] = self.rejects.get(reason, 0) + reasons.count(reason)
        room = max(MAX_REJECT_EXAMPLES - len(self.rejected_lines), 0)
        self.rejected_lines.extend(zip(line_nos[:room], reasons[:room]))


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


def _source_name(source) -> str:
    """The path of a file source; a text stream's name if it has one."""
    return getattr(source, "name", "<stream>") if hasattr(source, "read") else str(source)


@contextmanager
def _open_source(source: Union[str, Path, TextIO], binary: bool = False) -> Iterator:
    """An open text stream as it is, or a file streamed from disk (as UTF-8
    text, or as bytes if ``binary``); a file that cannot be opened or decoded
    is a DataError naming it."""
    if hasattr(source, "read"):
        yield source
        return
    try:
        fh = open(source, "rb") if binary else open(source, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc}") from exc
    with fh:
        try:
            yield fh
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {source}: {exc}") from exc


def _check_header(row: list[str] | None, expected: list[str], what: str, source) -> None:
    if row is None or [c.strip() for c in row] != expected:
        raise DataError(f"{_source_name(source)}: {what} file must start with header "
                        f"{','.join(expected)!r}")


def read_cell_rows(path, what: str, columns: Optional[list[str]], convert):
    """Read a ``col,row,...`` CSV: its header (exactly ``columns`` if given),
    its cells in file order, and each row's other fields through ``convert``.
    A malformed row or a repeated cell is a DataError naming ``file:line``."""
    cells: list[CellId] = []
    rows: list[list] = []
    seen: set[CellId] = set()
    with _open_source(path) as lines:
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


#: bytes ``read_traffic`` reads per step; each step then runs on to its line's end
CHUNK_BYTES = 1 << 15

# A chunk of these bytes only, each "\r" just before a "\n", holds no quote
# and no whitespace, so each of its lines is one csv row.
_FIELD_BYTES = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz.:_+-"
_PLAIN_BYTES = _FIELD_BYTES + b",\n\r"
_DIRECTION_OF = {d.encode(): i for i, d in enumerate(DIRECTIONS)}
_REASONS = (None, REJECT_MALFORMED, REJECT_UNKNOWN_DIRECTION, REJECT_OUT_OF_BOUNDS)
_NOT_INT = -(2**63)  # int64's least value


def _int_or_flag(text) -> int:
    """``int(text)``; ``_NOT_INT`` if that fails, and -1, outside every grid,
    if the value does not fit in int64."""
    try:
        value = int(text)
    except ValueError:
        return _NOT_INT
    return value if _NOT_INT < value < 2**63 else -1


def _float_or_nan(text) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _codes(fields: list) -> tuple[np.ndarray, list]:
    """Each field's index among the distinct fields, and the distinct fields
    in order of first appearance."""
    first = {}  # field -> position of its first appearance
    at = np.fromiter(map(first.setdefault, fields, count()), np.intp, len(fields))
    index = np.zeros(len(fields), np.intp)
    index[list(first.values())] = np.arange(len(first))
    return index[at], list(first)


def _parse_all(fields: list, parse, parse_or_flag, dtype) -> np.ndarray:
    """Every field through ``parse``, or through ``parse_or_flag`` if one fails."""
    try:
        return np.fromiter(map(parse, fields), dtype, len(fields))
    except (ValueError, OverflowError):
        return np.fromiter(map(parse_or_flag, fields), dtype, len(fields))


class _TrafficReader:
    """Accepted traffic rows of one source as growing typed columns, with the
    timestamp and service indexes and the ParseReport of every line so far."""

    def __init__(self, grid: GridSpec, source):
        # col, row, stamp, service, direction, volume
        self.columns = [array(code) for code in "qqiibd"]
        self.stamps: list[datetime] = []
        self.stamp_of: dict[str, Optional[int]] = {}  # stripped text -> index, None if malformed
        self.service_of: dict[str, int] = {}
        self.n_cols, self.n_rows = grid.n_cols, grid.n_rows
        self.source = source
        self.report = ParseReport()
        self.line_no = 1  # of the next line to read; the header is line 1

    def stamp_index(self, text: str) -> Optional[int]:
        try:
            return self.stamp_of[text]
        except KeyError:
            try:
                self.stamps.append(_parse_timestamp(text))
                stamp = len(self.stamps) - 1
            except ValueError:
                stamp = None
            self.stamp_of[text] = stamp
            return stamp

    def read_plain(self, data: bytes) -> bool:
        """Read the whole lines in ``data`` with numpy if the chunk is plain;
        False, with nothing read, if it is not."""
        if data.translate(None, _PLAIN_BYTES):
            return False
        if b"\r" in data:
            if data.count(b"\r") != data.count(b"\r\n"):
                return False
            data = data.replace(b"\r\n", b"\n")
        if self.line_no == 1:
            header, _, data = data.partition(b"\n")
            _check_header(header.decode().split(","), TRAFFIC_HEADER, "traffic", self.source)
            self.line_no = 2
        if data:
            # the chunk's temporaries are gone before the columns grow
            for column, values in zip(self.columns, self._parse_plain(data)):
                column.frombytes(memoryview(values.astype(column.typecode, copy=False)).cast("B"))
        return True

    def _parse_plain(self, data: bytes) -> tuple[np.ndarray, ...]:
        """Count every line of a plain chunk in the report; return the
        accepted rows' values, one array per column."""
        separators = data.translate(None, _FIELD_BYTES) + (b"" if data.endswith(b"\n") else b"\n")
        n_lines = separators.count(b"\n")
        if separators == b",,,,,\n" * n_lines:  # every line has 6 fields
            n_fields = np.full(n_lines, 6)
            blank = np.zeros(n_lines, bool)
        else:
            lines = data.split(b"\n")[:n_lines]
            n_fields = np.fromiter(map(bytes.count, lines, repeat(b",")), np.intp, n_lines) + 1
            blank = ~np.fromiter(map(bool, lines), bool, n_lines)
            del lines
        six = np.flatnonzero(n_fields == 6)
        fields = data.replace(b"\n", b",").split(b",")
        if len(six) < len(n_fields):  # keep the fields of 6-field lines only
            first = (np.cumsum(n_fields) - n_fields)[six].tolist()
            fields = [fields[j] for i in first for j in range(i, i + 6)]
        col_s, row_s, ts_s, service_s, direction_s, volume_s = (
            fields[i : 6 * len(six) : 6] for i in range(6)
        )
        del fields

        stamp_code, stamp_texts = _codes(ts_s)  # first appearance among 6-field rows
        stamp_ids = [self.stamp_index(text.decode()) for text in stamp_texts]
        stamp = np.array([-1 if i is None else i for i in stamp_ids], np.intp)[stamp_code]
        direction_code, direction_texts = _codes(direction_s)
        direction = np.array([_DIRECTION_OF.get(text, -1) for text in direction_texts],
                             np.intp)[direction_code]
        service_code, service_texts = _codes(service_s)
        col = _parse_all(col_s, int, _int_or_flag, np.int64)
        row = _parse_all(row_s, int, _int_or_flag, np.int64)
        volume = _parse_all(volume_s, float, _float_or_nan, np.float64)
        reason = np.zeros(len(six), np.intp)  # an index in _REASONS; the last mask set wins
        reason[~((0 <= col) & (col < self.n_cols) & (0 <= row) & (row < self.n_rows))] = 3
        reason[direction < 0] = 2
        reason[(col == _NOT_INT) | (row == _NOT_INT) | (stamp < 0)
               | ~(np.isfinite(volume) & (volume >= 0))] = 1
        if b"" in service_texts:
            reason[service_code == service_texts.index(b"")] = 1

        line_reason = (~blank).astype(np.intp)  # not blank, not 6 fields: malformed
        line_reason[six] = reason
        rejected = np.flatnonzero(line_reason)
        self.report.total_lines += len(blank) - int(np.count_nonzero(blank))
        self.report._reject_lines((rejected + self.line_no).tolist(),
                                  [_REASONS[r] for r in line_reason[rejected].tolist()])
        self.line_no += len(blank)

        ok = reason == 0
        service_code = service_code[ok]
        codes, first = np.unique(service_code, return_index=True)
        service_id = np.zeros(len(service_texts), np.int32)
        for code in codes[np.argsort(first)].tolist():  # first appearance among accepted rows
            service_id[code] = self.service_of.setdefault(service_texts[code].decode(),
                                                          len(self.service_of))
        return col[ok], row[ok], stamp[ok], service_id[service_code], direction[ok], volume[ok]

    def read_rows(self, lines: Iterable[str]) -> None:
        """Read the csv rows of ``lines`` one at a time, from the current line
        on: the path for quoting, whitespace, lone carriage returns and
        non-ASCII text."""
        add_col, add_row, add_stamp, add_service, add_direction, add_volume = (
            c.append for c in self.columns
        )
        stamp_index = self.stamp_index
        service_of = self.service_of
        direction_of = {d: i for i, d in enumerate(DIRECTIONS)}
        n_cols, n_rows = self.n_cols, self.n_rows
        reject = self.report._reject
        total = 0
        reader = csv.reader(lines)
        if self.line_no == 1:
            _check_header(next(reader, None), TRAFFIC_HEADER, "traffic", self.source)
            self.line_no = 2
        for line_no, fields in enumerate(reader, start=self.line_no):
            if not fields:
                continue
            total += 1
            if len(fields) != 6:
                reject(line_no, REJECT_MALFORMED)
                continue
            col_s, row_s, ts_s, service, direction, volume_s = map(str.strip, fields)
            stamp = stamp_index(ts_s)
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
        self.report.total_lines += total

    def table(self) -> TrafficTable:
        if self.line_no == 1:  # no line at all, so no header
            _check_header(None, TRAFFIC_HEADER, "traffic", self.source)
        self.report.accepted = len(self.columns[-1])
        return TrafficTable(
            *(np.frombuffer(c, dtype=c.typecode) for c in self.columns),
            tuple(self.stamps),
            tuple(self.service_of),
            DIRECTIONS,
        )


def read_traffic(source, grid: GridSpec) -> tuple[TrafficTable, ParseReport]:
    """Read a traffic CSV once, validating every row against the grid.

    Returns the accepted rows as a TrafficTable in file order plus a
    ParseReport counting rejections (malformed row, unknown direction,
    out-of-bounds cell). Each distinct timestamp text is validated once.

    The source is read in chunks of ``CHUNK_BYTES``, each run on to the end
    of its line. A plain chunk (ASCII letters, digits, ``,.:_+-`` and line
    ends only, each carriage return just before a line feed) has one csv row
    per line and is parsed a chunk at a time with numpy. The first chunk that is not plain
    hands itself and the rest of the source to the per-row ``csv.reader``
    loop in text mode, which continues the same line numbers, columns and
    report. Both give what the per-row loop gives for the whole source; the
    columns grow in place.
    """
    reader = _TrafficReader(grid, source)
    with _open_source(source, binary=True) as fh:
        while chunk := fh.read(CHUNK_BYTES):
            chunk += fh.readline()
            text = isinstance(chunk, str)
            if not reader.read_plain(chunk.encode("utf-8", "surrogatepass") if text else chunk):
                if text:
                    reader.read_rows(chain(io.StringIO(chunk), fh))
                else:  # UTF-8 text with universal newlines, as open() reads a file
                    with io.TextIOWrapper(fh, encoding="utf-8") as rest:
                        head = io.TextIOWrapper(io.BytesIO(chunk), encoding="utf-8")
                        reader.read_rows(chain(head, rest))
                break
        table = reader.table()
    return table, reader.report


# The benchmark's replay (perfbench/replay.py) still imports this name; it
# goes when the replay calls read_traffic.
parse_traffic = read_traffic


#: each accepted source key to the one ``str`` object every POI record shares
_SOURCE_KEY_OF = {key: key for key in POI_SOURCE_KEYS}


def parse_pois(source) -> tuple[list[PoiRecord], ParseReport]:
    """Parse a POI CSV; rows with a source key outside amenity/leisure/shop/sport
    are rejected. The records share one ``str`` object per distinct label and
    per distinct source key."""
    records: list[PoiRecord] = []
    report = ParseReport()
    label_of: dict[str, str] = {}
    with _open_source(source) as lines:
        reader = csv.reader(lines)
        _check_header(next(reader, None), POI_HEADER, "POI", source)
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
            source_cat = _SOURCE_KEY_OF.get(source_cat)
            if source_cat is None:
                report._reject(line_no, REJECT_UNKNOWN_SOURCE)
                continue
            records.append(PoiRecord(x, y, label_of.setdefault(label, label), source_cat))
            report.accepted += 1
    return records, report


def read_category_pairs(source, header: list[str], what: str, duplicate=DataError,
                        allowed: Optional[Sequence[str]] = None) -> dict:
    """Read a two-column ``<key>,category`` CSV into a key -> category map in
    file order. An empty field, a repeated key (raised as ``duplicate``) or,
    when ``allowed`` is given, a category outside it is an error naming the
    file and line."""
    mapping: dict[str, str] = {}
    name = _source_name(source)
    with _open_source(source) as lines:
        reader = csv.reader(lines)
        _check_header(next(reader, None), header, what, source)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{name}:{line_no}: expected 2 fields, got {len(row)}")
            key, category = (c.strip() for c in row)
            if not key or not category:
                raise DataError(f"{name}:{line_no}: empty {header[0]} or category")
            if key in mapping:
                raise duplicate(f"{name}:{line_no}: duplicate {header[0]} {key!r}")
            if allowed is not None and category not in allowed:
                raise DataError(f"{name}:{line_no}: {header[0]} {key!r} maps to unknown "
                                f"category {category!r}; expected one of {tuple(allowed)}")
            mapping[key] = category
    return mapping


def load_taxonomy(source) -> ServiceTaxonomy:
    """Load a ``service,category`` CSV; category order is file order of first
    appearance."""
    mapping = read_category_pairs(source, TAXONOMY_HEADER, "taxonomy", DuplicateServiceError)
    categories = tuple(dict.fromkeys(mapping.values()))
    if not categories:
        raise EmptyCategoryListError(
            f"{_source_name(source)}: taxonomy file defines no categories")
    return ServiceTaxonomy(mapping, categories)
