"""Parsers for the CSV interchange formats and the service taxonomy.

Formats (header line mandatory):

* traffic:  ``col,row,timestamp,service,direction,volume``
* POIs:     ``x,y,label,source_category``
* services: ``service,category``

Traffic and POI files share one chunked reader (``_read_csv``). It rejects
bad rows instead of aborting: each rejected line is counted under a reason
so that accepted + rejected always equals the number of data lines. Each
format only turns a batch of fields into reject reasons and keeps the rows
it accepts, with numpy, not row by row. Accepted traffic rows are kept as
typed columns (``TrafficTable``), not as one object per row. A wrong
header, or a line error in a taxonomy, is a DataError naming the file.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain, count, islice, repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence, TextIO, Union

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

    def _reject_lines(self, line_nos: list[int], reasons: list[str]) -> None:
        """Count each line's reject reason, and keep the first lines as
        examples; the lines come in order."""
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
    text without a leading byte order mark, or as bytes if ``binary``); a
    file that cannot be opened or decoded is a DataError naming it."""
    if hasattr(source, "read"):
        yield source
        return
    try:
        fh = open(source, "rb") if binary else open(source, encoding="utf-8-sig")
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


#: bytes ``_read_csv`` reads per step; each step then runs on to its line's end
CHUNK_BYTES = 1 << 15
#: csv rows ``_read_csv`` takes at a time once a chunk is not plain
_ROW_BATCH = 4096

# A chunk of these bytes only, each "\r" just before a "\n", holds no quote
# and no whitespace, so each of its lines is one csv row.
_FIELD_BYTES = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz.:_+-"
_PLAIN_BYTES = _FIELD_BYTES + b",\n\r"
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


def _codes(fields: list) -> tuple[np.ndarray, list[str]]:
    """Each field's index among the distinct fields, and the distinct fields
    as ``str`` in order of first appearance."""
    first = {}  # field -> position of its first appearance
    at = np.fromiter(map(first.setdefault, fields, count()), np.intp, len(fields))
    index = np.zeros(len(fields), np.intp)
    index[list(first.values())] = np.arange(len(first))
    return index[at], [f.decode() if isinstance(f, bytes) else f for f in first]


def _parse_all(fields: list, parse, parse_or_flag, dtype) -> np.ndarray:
    """Every field through ``parse``, or through ``parse_or_flag`` if one fails."""
    try:
        return np.fromiter(map(parse, fields), dtype, len(fields))
    except (ValueError, OverflowError):
        return np.fromiter(map(parse_or_flag, fields), dtype, len(fields))


def _plain(data: bytes) -> Optional[bytes]:
    """``data`` with ``\\r\\n`` line ends as ``\\n`` if the chunk is plain;
    None if it is not."""
    if data.translate(None, _PLAIN_BYTES):
        return None
    if b"\r" in data:  # so the two counts and the replace skip "\n"-only chunks
        if data.count(b"\r") != data.count(b"\r\n"):
            return None
        data = data.replace(b"\r\n", b"\n")
    return data


def _split_plain(data: bytes, width: int) -> tuple[np.ndarray, list[list[bytes]]]:
    """Each line's field count (0 if blank) in a plain chunk, and the fields
    of its lines with ``width`` fields, one list per column."""
    separators = data.translate(None, _FIELD_BYTES) + (b"" if data.endswith(b"\n") else b"\n")
    n_lines = separators.count(b"\n")
    if separators == (b"," * (width - 1) + b"\n") * n_lines:  # the usual chunk
        n_fields = np.full(n_lines, width)
        blank = np.zeros(n_lines, bool)
    else:
        lines = data.split(b"\n")[:n_lines]
        n_fields = np.fromiter(map(bytes.count, lines, repeat(b",")), np.intp, n_lines) + 1
        blank = ~np.fromiter(map(bool, lines), bool, n_lines)
        del lines
    full = np.flatnonzero(n_fields == width)
    fields = data.replace(b"\n", b",").split(b",")
    if len(full) < n_lines:  # keep the fields of full lines only
        first = (np.cumsum(n_fields) - n_fields)[full].tolist()
        fields = [fields[j] for i in first for j in range(i, i + width)]
    n_fields[blank] = 0
    return n_fields, [fields[i : width * len(full) : width] for i in range(width)]


def _split_rows(rows: Iterator[list[str]], width: int) -> Iterator[tuple[np.ndarray, list]]:
    """``_split_plain`` for csv rows, ``_ROW_BATCH`` rows at a time, every
    field stripped."""
    while batch := list(islice(rows, _ROW_BATCH)):
        n_fields = np.fromiter(map(len, batch), np.intp, len(batch))
        columns = zip(*(row for row in batch if len(row) == width))
        yield n_fields, [list(map(str.strip, c)) for c in columns] or [[] for _ in range(width)]


def _batches(fh, header: list[str], what: str, source) -> Iterator[tuple[np.ndarray, list]]:
    """The split lines after the header of an open binary file or text
    stream: plain chunks with ``_split_plain``; from the first chunk that is
    not plain on, ``csv.reader`` rows with ``_split_rows``."""
    checked = False  # the header
    while chunk := fh.read(CHUNK_BYTES):
        chunk += fh.readline()
        text = isinstance(chunk, str)
        if not checked:  # a byte order mark, as spreadsheet exports write
            chunk = chunk.removeprefix("\ufeff" if text else codecs.BOM_UTF8)
        data = _plain(chunk.encode("utf-8", "surrogatepass") if text else chunk)
        if data is None:
            # a file as UTF-8 text with universal newlines, as open() reads it
            with nullcontext(fh) if text else io.TextIOWrapper(fh, encoding="utf-8") as rest:
                head = io.StringIO(chunk) if text else io.TextIOWrapper(io.BytesIO(chunk),
                                                                        encoding="utf-8")
                rows = csv.reader(chain(head, rest))
                if not checked:
                    _check_header(next(rows, None), header, what, source)
                yield from _split_rows(rows, len(header))
            return
        if not checked:
            head, _, data = data.partition(b"\n")
            _check_header(head.decode().split(","), header, what, source)
            checked = True
        if data:
            yield _split_plain(data, len(header))
    if not checked:  # no line at all
        _check_header(None, header, what, source)


def _read_csv(source, header: list[str], what: str, take, reasons: tuple) -> ParseReport:
    """Read a ``what`` CSV that must start with ``header``, in chunks of
    ``CHUNK_BYTES`` run on to the end of their line, and count every data
    line in a ParseReport. A leading UTF-8 byte order mark is dropped.

    A plain chunk (ASCII letters, digits, ``,.:_+-`` and line ends only,
    each carriage return just before a line feed) has one csv row per line
    and is split with ``bytes`` operations. The first chunk that is not plain
    hands itself and the rest of the source to ``csv.reader``, over UTF-8
    text with universal newlines as ``open`` reads a file. Blank lines are
    skipped; a line with another number of fields than ``header`` is
    ``reasons[1]``, malformed. ``take`` gets the fields of each batch of
    full lines, one list per column (ASCII ``bytes`` from a plain chunk, else
    ``str``), keeps the rows it accepts, and returns an index in ``reasons``
    for each (0 to accept).
    """
    report = ParseReport()
    line_no = 2  # of the next line; the header is line 1
    with _open_source(source, binary=True) as fh:
        for n_fields, fields in _batches(fh, header, what, source):
            line_reason = (n_fields != 0).astype(np.intp)  # not blank, not full: malformed
            line_reason[n_fields == len(header)] = take(fields)
            rejected = np.flatnonzero(line_reason)
            report.total_lines += int(np.count_nonzero(n_fields))
            report._reject_lines((rejected + line_no).tolist(),
                                 [reasons[r] for r in line_reason[rejected].tolist()])
            line_no += len(n_fields)
    report.accepted = report.total_lines - report.rejected
    return report


_DIRECTION_OF = {d: i for i, d in enumerate(DIRECTIONS)}
_TRAFFIC_REASONS = (None, REJECT_MALFORMED, REJECT_UNKNOWN_DIRECTION, REJECT_OUT_OF_BOUNDS)


def read_traffic(source, grid: GridSpec) -> tuple[TrafficTable, ParseReport]:
    """Read a traffic CSV once, validating every row against the grid.

    Returns the accepted rows as a TrafficTable in file order plus a
    ParseReport counting rejections (malformed row, unknown direction,
    out-of-bounds cell). Each distinct timestamp text is validated once.
    The source is read by ``_read_csv``; the columns grow in place, a batch
    at a time.
    """
    columns = [array(code) for code in "qqiibd"]  # col, row, stamp, service, direction, volume
    stamps: list[datetime] = []
    stamp_of: dict[str, int] = {}  # stripped text -> index in stamps, -1 if malformed
    service_of: dict[str, int] = {}

    def stamp_index(text: str) -> int:
        if text not in stamp_of:
            try:
                stamps.append(_parse_timestamp(text))
                stamp_of[text] = len(stamps) - 1
            except ValueError:
                stamp_of[text] = -1
        return stamp_of[text]

    def take(fields: list[list]) -> np.ndarray:
        col_s, row_s, ts_s, service_s, direction_s, volume_s = fields
        stamp_code, stamp_texts = _codes(ts_s)  # first appearance among full rows
        stamp = np.array([stamp_index(text) for text in stamp_texts], np.intp)[stamp_code]
        direction_code, direction_texts = _codes(direction_s)
        direction = np.array([_DIRECTION_OF.get(text, -1) for text in direction_texts],
                             np.intp)[direction_code]
        service_code, service_texts = _codes(service_s)
        col = _parse_all(col_s, int, _int_or_flag, np.int64)
        row = _parse_all(row_s, int, _int_or_flag, np.int64)
        volume = _parse_all(volume_s, float, _float_or_nan, np.float64)
        reason = np.zeros(len(col), np.intp)  # an index in _TRAFFIC_REASONS; the last mask set wins
        reason[~((0 <= col) & (col < grid.n_cols) & (0 <= row) & (row < grid.n_rows))] = 3
        reason[direction < 0] = 2
        reason[(col == _NOT_INT) | (row == _NOT_INT) | (stamp < 0)
               | ~(np.isfinite(volume) & (volume >= 0))] = 1
        if "" in service_texts:
            reason[service_code == service_texts.index("")] = 1

        ok = reason == 0
        service_code = service_code[ok]
        codes, first = np.unique(service_code, return_index=True)
        service_id = np.zeros(len(service_texts), np.int32)
        for code in codes[np.argsort(first)].tolist():  # first appearance among accepted rows
            service_id[code] = service_of.setdefault(service_texts[code], len(service_of))
        for column, values in zip(columns, (col[ok], row[ok], stamp[ok], service_id[service_code],
                                            direction[ok], volume[ok])):
            column.frombytes(memoryview(values.astype(column.typecode, copy=False)).cast("B"))
        return reason

    report = _read_csv(source, TRAFFIC_HEADER, "traffic", take, _TRAFFIC_REASONS)
    return TrafficTable(
        *(np.frombuffer(c, dtype=c.typecode) for c in columns),
        tuple(stamps),
        tuple(service_of),
        DIRECTIONS,
    ), report


# The benchmark's replay (perfbench/replay.py) still imports this name; it
# goes when the replay calls read_traffic.
parse_traffic = read_traffic


#: each accepted source key to the one ``str`` object every POI record shares
_SOURCE_KEY_OF = {key: key for key in POI_SOURCE_KEYS}
_POI_REASONS = (None, REJECT_MALFORMED, REJECT_UNKNOWN_SOURCE)


def parse_pois(source) -> tuple[list[PoiRecord], ParseReport]:
    """Parse a POI CSV with ``_read_csv``; rows with a non-finite coordinate
    or an empty label are malformed, and rows with a source key outside
    amenity/leisure/shop/sport are rejected. The records share one ``str``
    object per distinct label and per distinct source key."""
    records: list[PoiRecord] = []
    label_of: dict[str, str] = {}

    def take(fields: list[list]) -> np.ndarray:
        x_s, y_s, label_s, key_s = fields
        x = _parse_all(x_s, float, _float_or_nan, np.float64)
        y = _parse_all(y_s, float, _float_or_nan, np.float64)
        label_code, labels = _codes(label_s)
        key_code, keys = _codes(key_s)
        reason = np.zeros(len(x), np.intp)  # an index in _POI_REASONS; the last mask set wins
        reason[~np.array([key in _SOURCE_KEY_OF for key in keys], bool)[key_code]] = 2
        reason[~(np.isfinite(x) & np.isfinite(y))] = 1
        if "" in labels:
            reason[label_code == labels.index("")] = 1
        ok = reason == 0
        labels = [label_of.setdefault(label, label) for label in labels]
        keys = list(map(_SOURCE_KEY_OF.get, keys))
        records.extend(map(PoiRecord, x[ok].tolist(), y[ok].tolist(),
                           map(labels.__getitem__, label_code[ok].tolist()),
                           map(keys.__getitem__, key_code[ok].tolist())))
        return reason

    return records, _read_csv(source, POI_HEADER, "POI", take, _POI_REASONS)


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
