"""Per-cell usage signature tensors and relative-risk normalization.

A signature tensor holds, for one temporal category (weekday or weekend),
the total traffic volume per cell, per 2-hour bin, per app category:
``values[i, b, d]``. Weekdays are Monday through Thursday; Friday counts as
weekend. Normalization divides each cell's value by the mean of all other
cells for the same (bin, category) column, turning volumes into ratios that
are invariant to per-column rescaling.
"""

from __future__ import annotations

import json
import struct
from array import array
from dataclasses import dataclass, field, replace
from datetime import date, datetime
from itertools import compress
from math import prod
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DataError,
    EmptyInputError,
    NonFiniteError,
    NumericError,
    ShapeMismatchError,
    TooFewLocationsError,
)
from .errors import is_json, json_field, json_items, json_rows
from .grid import CellId, CityRegion, GridSpec, grid_from_dict, grid_to_dict
from .ingest import Taxonomy, TrafficTable

N_BINS = 12
WEEKDAY = "weekday"
WEEKEND = "weekend"
DAY_TYPES = (WEEKDAY, WEEKEND)
RAW = "raw"
RELATIVE_RISK = "relative_risk"
TENSOR_KINDS = (RAW, RELATIVE_RISK)

#: default ratio assigned when a cell has traffic but all other cells are silent
DEFAULT_RR_CAP = 1e6


def day_type_of(ts: Union[datetime, date]) -> str:
    """Monday through Thursday are weekdays; Friday, Saturday, Sunday are weekend."""
    return WEEKDAY if ts.weekday() <= 3 else WEEKEND


def bin_of(ts: datetime) -> int:
    """Index of the 2-hour bin containing the timestamp (00:00-01:59 is bin 0)."""
    return ts.hour // 2


@dataclass(frozen=True)
class TensorSegment:
    """Contiguous block of tensor rows belonging to one city."""

    name: str
    grid: GridSpec
    start: int
    stop: int


@dataclass
class SignatureTensor:
    """Per-cell values ``values[i, b, d]`` for cell i, bin b, category d.

    ``kind`` is ``"raw"`` for usage totals and ``"relative_risk"`` for the
    normalized ratios. ``capped_columns`` lists the (bin, category) columns
    where some cell had traffic while every other cell was silent, so the
    ratio was capped; it is empty for raw tensors.
    """

    day_type: str
    cells: list[CellId]
    categories: tuple[str, ...]
    values: np.ndarray
    segments: list[TensorSegment] = field(default_factory=list)
    kind: str = RAW
    capped_columns: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if self.day_type not in DAY_TYPES:
            raise ValueError(f"day_type must be one of {DAY_TYPES}")
        if self.kind not in TENSOR_KINDS:
            raise ValueError(f"kind must be one of {TENSOR_KINDS}")
        self.categories = tuple(self.categories)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3 or values.shape[1] != N_BINS:
            raise ShapeMismatchError(f"tensor must be (n, {N_BINS}, D), got {values.shape}")
        if values.shape[0] != len(self.cells):
            raise ShapeMismatchError("cell list does not match tensor rows")
        if values.shape[2] != len(self.categories):
            raise ShapeMismatchError("category list does not match tensor depth")
        if not np.isfinite(values).all():
            raise NonFiniteError("tensor contains non-finite values")
        self.values = values

    @property
    def n(self) -> int:
        return len(self.cells)

    def segment_rows(self, name: str) -> range:
        for seg in self.segments:
            if seg.name == name:
                return range(seg.start, seg.stop)
        raise KeyError(f"no segment named {name!r}")


class DayTypeTensors:
    """Raw signature tensors of several day types, built from traffic rows a
    batch at a time.

    ``add`` takes the columns and names of a batch of rows, as
    ``ingest.stream_traffic`` hands them on (``build_signatures`` adds a
    TrafficTable in slices), and keeps, for each day type, one (flat tensor
    index, volume) pair per row of that day type in an active cell of the
    region: 16 bytes a row. Both link directions are summed. ``finish`` adds up each
    tensor in a canonical order, sorted by index and then by volume, so
    permuting the rows never changes a bit of the result. Rows of no
    configured day type and rows in cells outside the region's active set
    are counted in ``dropped``, not kept.

    A service missing from the taxonomy is a hard error from ``finish``, on
    a row of any day type, so taxonomy gaps surface instead of silently
    dropping volume; it names the first such service in the order the rows
    met them.

    Parts of one file can be added to separate instances, one per line-aligned
    byte range, and the later ones ``merge``d into the first in file order:
    ``finish`` then gives the bits one instance given every row would.
    """

    def __init__(self, taxonomy: Taxonomy, region: CityRegion,
                 day_types: Sequence[str], *, mean_per_day: bool = False):
        for day_type in day_types:
            if day_type not in DAY_TYPES:
                raise ValueError(f"day_type must be one of {DAY_TYPES}")
        self.taxonomy, self.region, self.mean_per_day = taxonomy, region, mean_per_day
        self.day_types = tuple(day_types)
        # A cell's key is its row-major position in the grid, so the active
        # cells' keys, in scan order, are sorted and a key's rank is its tensor row.
        self.cells = region.cells_in_scan_order()
        self._keys = np.array([c.row * region.grid.n_cols + c.col for c in self.cells], np.int64)
        self._stamps: tuple = ()
        self._stamp_bin = np.zeros(0, np.int64)
        self._stamp_day = np.zeros(0, np.intp)  # index in day_types, -1 for none of them
        self._stamp_seen = np.zeros(0, bool)  # on an added row
        self._services: tuple = ()
        self._category = np.zeros(0, np.int64)  # -1 for a service missing from the taxonomy
        # per day type, (index, volume) arrays: this instance's, then each merged one's
        self._pairs = [[(array("q"), array("d"))] for _ in self.day_types]
        self._rows = 0
        self._on_day = np.zeros(len(self.day_types), np.int64)  # rows of each day type
        #: day type -> rows of another day type, rows of the day type in cells
        #: outside the region's active set, and (from ``finish``) silent cells dropped
        self.dropped: dict[str, dict[str, int]] = {}

    def add(self, columns: tuple, stamps: tuple, services: tuple) -> None:
        """Keep the (index, volume) pairs of a batch's rows, given as the
        TrafficTable columns with the stamps and services their codes index."""
        col, row, stamp, service, _, volume = columns
        self._learn(stamps, services)
        self._rows += len(volume)
        if not len(volume):
            return
        self._stamp_seen[stamp] = True
        day = self._stamp_day[stamp]
        self._on_day += np.bincount(day + 1, minlength=len(self.day_types) + 1)[1:]
        key = row * self.region.grid.n_cols + col
        pos = np.searchsorted(self._keys, key)
        use = (day >= 0) & (col >= 0) & (col < self.region.grid.n_cols) & (pos < len(self._keys))
        use[use] = self._keys[pos[use]] == key[use]
        category = self._category[service]
        use &= category >= 0
        day, stamp = day[use], stamp[use]
        flat = (pos[use] * N_BINS + self._stamp_bin[stamp]) * self.taxonomy.n_categories
        flat += category[use]
        volume = volume[use]
        for t, n_day in enumerate(np.bincount(day, minlength=len(self.day_types)).tolist()):
            if n_day:  # a batch often holds one day type only
                mine = slice(None) if n_day == len(day) else day == t
                index, volumes = self._pairs[t][0]
                index.frombytes(memoryview(flat[mine]).cast("B"))
                volumes.frombytes(memoryview(volume[mine].astype(np.float64, copy=False)).cast("B"))

    def kept(self) -> tuple[dict, list]:
        """What ``merge`` takes of an instance that merged nothing: the row
        counts, stamps and services it learnt, small and picklable, and each
        day type's index and volume arrays, in that order."""
        facts = {"rows": self._rows, "on_day": self._on_day.tolist(), "stamps": self._stamps,
                 "seen": list(compress(self._stamps, self._stamp_seen.tolist())),
                 "services": self._services}
        return facts, [column for parts in self._pairs for column in parts[0]]

    def merge(self, facts: dict, arrays: Sequence) -> None:
        """Take in what another instance for the same taxonomy, region and
        day types ``kept`` of later rows of the same file, after the last
        ``add``: its arrays join each day type's, for ``finish`` to join once,
        its row counts add up, and its stamps and services join these in order
        of first appearance."""
        self._learn(_union(self._stamps, facts["stamps"]), _union(self._services,
                                                                   facts["services"]))
        position = {ts: i for i, ts in enumerate(self._stamps)}
        self._stamp_seen[[position[ts] for ts in facts["seen"]]] = True
        self._rows += facts["rows"]
        self._on_day += facts["on_day"]
        for parts, pair in zip(self._pairs, zip(arrays[::2], arrays[1::2])):
            parts.append(pair)

    def _learn(self, stamps: tuple, services: tuple) -> None:
        """Bin and day type of each new timestamp, category of each new service."""
        if len(stamps) > len(self._stamps):
            new = stamps[len(self._stamps):]
            self._stamp_bin = np.append(self._stamp_bin, [bin_of(ts) for ts in new])
            day_index = {day_type: t for t, day_type in enumerate(self.day_types)}
            self._stamp_day = np.append(self._stamp_day,
                                        [day_index.get(day_type_of(ts), -1) for ts in new])
            self._stamp_seen = np.append(self._stamp_seen, np.zeros(len(new), bool))
        if len(services) > len(self._services):
            new = services[len(self._services):]
            self._category = np.append(self._category, [
                self.taxonomy.category_index(s) if s in self.taxonomy.mapping else -1
                for s in new])
        self._stamps, self._services = stamps, services

    def finish(self, *, drop_silent: bool = False,
               segment_name: Optional[str] = None) -> dict[str, SignatureTensor]:
        """The tensor of each day type, with ``drop_silent_cells`` applied if
        asked and the segment renamed if a name is given; called once, after
        the last ``add``. The pairs are freed as each tensor is built.

        With ``mean_per_day`` the totals are divided by the number of distinct
        dates of the day type among the added rows, giving a per-day average
        instead of a window total.
        """
        if not self._rows:
            raise EmptyInputError("no traffic rows to aggregate")
        for service in self._services:
            self.taxonomy.category_index(service)  # the first one missing raises
        n, depth = len(self.cells), self.taxonomy.n_categories
        seen = np.flatnonzero(self._stamp_seen).tolist()
        if segment_name is None:
            segment_name = self.region.grid.region_name or "city"
        segment = TensorSegment(segment_name, self.region.grid, 0, n)
        tensors = {}
        for t, day_type in enumerate(self.day_types):
            parts, self._pairs[t] = self._pairs[t], None  # each copy below frees what it replaces
            index = _joined([index for index, _ in parts])
            volumes = _joined([volumes for _, volumes in parts])
            del parts
            kept = len(index)
            order = np.lexsort((volumes, index))
            index = index[order]
            volumes = volumes[order]
            del order
            # bincount adds in input order, as np.add.at does: each sum runs
            # over its volumes in ascending order
            flat = np.bincount(index, weights=volumes, minlength=n * N_BINS * depth)
            del index, volumes
            values = flat.reshape(n, N_BINS, depth)
            n_dates = len({self._stamps[i].date() for i in seen if self._stamp_day[i] == t})
            if self.mean_per_day and n_dates:
                values = values / n_dates
            tensor = SignatureTensor(day_type, list(self.cells), self.taxonomy.categories,
                                     values, [segment])
            if drop_silent:
                tensor = drop_silent_cells(tensor)
            tensors[day_type] = tensor
            on_day = int(self._on_day[t])
            self.dropped[day_type] = {"other_day_type": self._rows - on_day,
                                      "outside_region": on_day - kept,
                                      "silent_cells": n - tensor.n}
        return tensors


def _union(names: tuple, more) -> tuple:
    """``names`` followed by those of ``more`` not among them, in order."""
    known = set(names)
    return names + tuple(name for name in dict.fromkeys(more) if name not in known)


def _joined(arrays: list) -> np.ndarray:
    """The arrays end to end, as one numpy array; one array without a copy."""
    return np.asarray(arrays[0]) if len(arrays) == 1 else np.concatenate(arrays)


#: rows of a TrafficTable that ``build_signatures`` adds at a time
_TABLE_BATCH = 1 << 16


def build_signatures(
    traffic: TrafficTable,
    taxonomy: Taxonomy,
    region: CityRegion,
    day_type: str,
    *,
    mean_per_day: bool = False,
) -> SignatureTensor:
    """Aggregate a table of traffic rows into a signature tensor with
    ``DayTypeTensors``.

    Rows are the region's active cells in row-major order; cells without
    traffic stay all-zero. Rows whose day type differs are excluded, and
    rows in cells outside the region's active set do not contribute. A
    service missing from the taxonomy is a hard error, on a row of any day
    type. With ``mean_per_day`` the totals are divided by the number of
    distinct matching dates present in the input. Permuting the input rows
    never changes the result, not even in the last float bit.
    """
    tensors = DayTypeTensors(taxonomy, region, [day_type], mean_per_day=mean_per_day)
    for start in range(0, len(traffic), _TABLE_BATCH):  # so the row temporaries stay small
        tensors.add(tuple(c[start : start + _TABLE_BATCH] for c in traffic.columns),
                    traffic.stamps, traffic.services)
    return tensors.finish()[day_type]


def relative_risk(tensor: SignatureTensor, cap: float = DEFAULT_RR_CAP) -> SignatureTensor:
    """Normalize each (bin, category) column by the mean over all other cells.

    For cell i the ratio is ``x_i / (sum_{k != i} x_k / (n - 1))``. When the
    other cells sum to zero the ratio is undefined; a zero cell then gets the
    neutral value 1.0, and a positive cell gets ``cap`` with the column
    recorded in ``capped_columns``. The ratios are computed in the output
    array, beside boolean masks only: the peak is 1.25 times the tensor's bytes.
    """
    values = tensor.values
    n = values.shape[0]
    if n < 2:
        raise TooFewLocationsError("relative risk needs at least 2 locations")
    out = values.sum(axis=0) - values  # the other cells' sum
    zero_den = out <= 0.0
    out /= n - 1
    np.divide(values, out, out=out, where=~zero_den)
    np.copyto(out, values, where=zero_den)  # x / 1.0
    mask = values == 0.0
    mask &= zero_den
    out[mask] = 1.0
    mask = np.greater(values, 0.0, out=mask)
    mask &= zero_den
    out[mask] = cap
    capped_cols = [(int(b), int(d)) for b, d in np.argwhere(mask.any(axis=0))]
    del zero_den, mask  # before the result's finiteness check adds its own mask
    return replace(tensor, cells=list(tensor.cells), values=out,
                   segments=list(tensor.segments), kind=RELATIVE_RISK, capped_columns=capped_cols)


def minmax_scale(series: Sequence[float]) -> np.ndarray:
    """Scale to [0, 1]; a constant series becomes all zeros. Visualization aid only."""
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot scale an empty series")
    span = x.max() - x.min()
    if span == 0:
        return np.zeros_like(x)
    return (x - x.min()) / span


def drop_silent_cells(tensor: SignatureTensor) -> SignatureTensor:
    """Remove rows whose signature is identically zero (cells with no traffic)."""
    keep = tensor.values.reshape(tensor.n, -1).any(axis=1)
    new_segments = []
    offset = 0
    for seg in tensor.segments:
        kept = int(keep[seg.start : seg.stop].sum())
        new_segments.append(TensorSegment(seg.name, seg.grid, offset, offset + kept))
        offset += kept
    cells = [c for c, k in zip(tensor.cells, keep) if k]
    return SignatureTensor(
        tensor.day_type, cells, tensor.categories, tensor.values[keep], new_segments
    )


def concat_tensors(tensors: Sequence[SignatureTensor]) -> SignatureTensor:
    """Stack several cities' raw tensors into one (the country-wide analysis input).

    Day types and category axes must match; segment names must be unique so
    per-city rows can be sliced back out after clustering.
    """
    if not tensors:
        raise EmptyInputError("nothing to concatenate")
    first = tensors[0]
    segments: list[TensorSegment] = []
    offset = 0
    for t in tensors:
        if t.day_type != first.day_type:
            raise DataError("cannot concatenate tensors with different day types")
        if t.categories != first.categories:
            raise DataError("cannot concatenate tensors with different category axes")
        for seg in t.segments:
            if any(s.name == seg.name for s in segments):
                raise DataError(f"duplicate segment name {seg.name!r}")
            segments.append(
                TensorSegment(seg.name, seg.grid, seg.start + offset, seg.stop + offset)
            )
        offset += t.n
    cells = [c for t in tensors for c in t.cells]
    values = np.concatenate([t.values for t in tensors], axis=0)
    return SignatureTensor(first.day_type, cells, first.categories, values, segments)


# ---------------------------------------------------------------------------
# Framed files, the one layout behind tensor and cluster-model files: 4-byte
# magic, little-endian uint32 header length, JSON header (sorted keys, compact
# separators) carrying ``version``, then the row-major float64 payload whose
# shape the header determines. Reading checks every part, so a corrupt or
# truncated file is a DataError naming the file.
# ---------------------------------------------------------------------------

_FRAME_VERSION = 1


def write_framed(path, magic: bytes, header: dict, payload: np.ndarray) -> None:
    """Write ``header`` (``version`` is added) and the float64 ``payload``."""
    header = {"version": _FRAME_VERSION, **header}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(payload, dtype=np.float64))


def read_framed(
    path,
    magic: bytes,
    what: str,
    shape_of: Callable[[dict], tuple],
    build: Callable[[dict, np.ndarray], object],
):
    """Read a framed file and return ``build(header, payload)``, the payload
    shaped by ``shape_of(header)``. A header field that is missing, of the
    wrong type, or rejected by ``build`` is a DataError naming the file."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if raw[:4] != magic:
        raise DataError(f"{path} is not a {what} file")
    if len(raw) < 8:
        raise DataError(f"{path}: {what} header is cut short")
    (blob_len,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + blob_len:
        raise DataError(f"{path}: {what} header is cut short")
    try:
        header = json.loads(raw[8 : 8 + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: {what} header is not JSON ({exc})") from exc
    if not is_json(header, dict):
        raise DataError(f"{path}: {what} header is not a JSON object")
    if header.get("version") != _FRAME_VERSION:
        raise DataError(f"{path}: unsupported {what} version {header.get('version')!r}")
    payload = memoryview(raw)[8 + blob_len :]
    try:
        shape = tuple(shape_of(header))
        if not all(is_json(s, int) for s in shape):
            raise TypeError(f"shape {list(shape)} is not integers")
        expected = 8 * prod(shape)
        if len(payload) != expected:
            raise DataError(
                f"{path}: {what} payload is {len(payload)} bytes, header implies {expected}"
            )
        return build(header, np.frombuffer(payload, dtype=np.float64).reshape(shape).copy())
    except (KeyError, IndexError, TypeError, ValueError, NumericError) as exc:
        raise DataError(f"{path}: malformed {what} header ({exc})") from exc


# Tensor files hold the kind, day type, categories, cells, segments with their
# grids and, for relative-risk tensors, the capped columns in their header.

_MAGIC = b"VSIG"


def write_tensor(tensor: SignatureTensor, path) -> None:
    header = {
        "kind": tensor.kind,
        "day_type": tensor.day_type,
        "n": tensor.n,
        "n_bins": N_BINS,
        "categories": list(tensor.categories),
        "cells": [[c.col, c.row] for c in tensor.cells],
        "segments": [
            {"name": s.name, "start": s.start, "stop": s.stop, "grid": grid_to_dict(s.grid)}
            for s in tensor.segments
        ],
    }
    if tensor.kind == RELATIVE_RISK:
        header["capped_columns"] = [[b, d] for b, d in tensor.capped_columns]
    write_framed(path, _MAGIC, header, tensor.values)


def _tensor_from(header: dict, values: np.ndarray) -> SignatureTensor:
    return SignatureTensor(
        header["day_type"],
        [CellId(c, r) for c, r in json_rows(header, "cells", ("col", "row"))],
        json_items(header, "categories", str),
        values,
        [
            TensorSegment(json_field(s, "name", str), grid_from_dict(s["grid"]),
                          json_field(s, "start", int), json_field(s, "stop", int))
            for s in header["segments"]
        ],
        header["kind"],
        [(b, d) for b, d in json_rows(header, "capped_columns", ("bin", "category"))],
    )


def read_tensor(path) -> SignatureTensor:
    return read_framed(
        path,
        _MAGIC,
        "signature tensor",
        lambda h: (h["n"], N_BINS, len(h["categories"])),
        _tensor_from,
    )
