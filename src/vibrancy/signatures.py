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
from dataclasses import dataclass, field, replace
from datetime import date, datetime
from math import prod
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    DataError,
    EmptyInputError,
    NonFiniteError,
    NumericError,
    ShapeMismatchError,
    TooFewLocationsError,
)
from .grid import CellId, CityRegion, GridSpec, grid_from_dict, grid_to_dict
from .ingest import ServiceTaxonomy, TrafficTable

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


def build_signatures(
    traffic: TrafficTable,
    taxonomy: ServiceTaxonomy,
    region: CityRegion,
    day_type: str,
    *,
    mean_per_day: bool = False,
) -> SignatureTensor:
    """Aggregate a table of traffic rows into a signature tensor.

    Both link directions are summed. Rows are the region's active cells in
    row-major order; cells without traffic stay all-zero. Rows whose day
    type differs are excluded, and rows in cells outside the region's
    active set do not contribute. A service missing from the taxonomy is a
    hard error, on a row of any day type, so taxonomy gaps surface instead
    of silently dropping volume.

    With ``mean_per_day`` the totals are divided by the number of distinct
    matching dates present in the input, giving a per-day average instead of
    a window total. Accumulation is performed in a canonical sort order, so
    permuting the input rows never changes the result, not even in the
    last float bit.
    """
    if day_type not in DAY_TYPES:
        raise ValueError(f"day_type must be one of {DAY_TYPES}")
    if not len(traffic):
        raise EmptyInputError("no traffic rows to aggregate")
    category = np.array([taxonomy.category_index(s) for s in traffic.services], dtype=np.int64)
    stamp_bin = np.array([bin_of(ts) for ts in traffic.stamps], dtype=np.int64)
    stamp_on_day = np.array([day_type_of(ts) == day_type for ts in traffic.stamps], dtype=bool)

    on_day = stamp_on_day[traffic.stamp]
    n_dates = len({traffic.stamps[t].date() for t in np.unique(traffic.stamp[on_day]).tolist()})

    # A cell's key is its row-major position in the grid, so the active
    # cells' keys, in scan order, are sorted and a key's rank is its tensor row.
    grid = region.grid
    cells = region.cells_in_scan_order()
    n, depth = len(cells), taxonomy.n_categories
    keys = np.array([c.row * grid.n_cols + c.col for c in cells], dtype=np.int64)
    key = traffic.row * grid.n_cols + traffic.col
    pos = np.searchsorted(keys, key)
    use = on_day & (traffic.col >= 0) & (traffic.col < grid.n_cols) & (pos < n)
    use[use] = keys[pos[use]] == key[use]

    flat_idx = (pos[use] * N_BINS + stamp_bin[traffic.stamp[use]]) * depth
    flat_idx += category[traffic.service[use]]
    volumes = traffic.volume[use]
    flat = np.zeros(n * N_BINS * depth, dtype=np.float64)
    if flat_idx.size:
        order = np.lexsort((volumes, flat_idx))
        np.add.at(flat, flat_idx[order], volumes[order])
    values = flat.reshape(n, N_BINS, depth)
    if mean_per_day and n_dates:
        values = values / n_dates

    segment = TensorSegment(region.grid.region_name or "city", region.grid, 0, n)
    return SignatureTensor(day_type, cells, taxonomy.categories, values, [segment])


def relative_risk(tensor: SignatureTensor, cap: float = DEFAULT_RR_CAP) -> SignatureTensor:
    """Normalize each (bin, category) column by the mean over all other cells.

    For cell i the ratio is ``x_i / (sum_{k != i} x_k / (n - 1))``. When the
    other cells sum to zero the ratio is undefined; a zero cell then gets the
    neutral value 1.0, and a positive cell gets ``cap`` with the column
    recorded in ``capped_columns``.
    """
    values = tensor.values
    n = values.shape[0]
    if n < 2:
        raise TooFewLocationsError("relative risk needs at least 2 locations")
    totals = values.sum(axis=0)
    others = totals[None, :, :] - values
    zero_den = others <= 0.0
    denom = np.where(zero_den, 1.0, others / (n - 1))
    out = values / denom
    out[zero_den & (values == 0.0)] = 1.0
    capped = zero_den & (values > 0.0)
    out[capped] = cap
    capped_cols = sorted({(int(b), int(d)) for _, b, d in np.argwhere(capped)})
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
        fh.write(np.ascontiguousarray(payload, dtype=np.float64).tobytes())


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
    if not isinstance(header, dict):
        raise DataError(f"{path}: {what} header is not a JSON object")
    if header.get("version") != _FRAME_VERSION:
        raise DataError(f"{path}: unsupported {what} version {header.get('version')!r}")
    payload = raw[8 + blob_len :]
    try:
        shape = tuple(int(s) for s in shape_of(header))
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
        [CellId(int(c), int(r)) for c, r in header["cells"]],
        tuple(header["categories"]),
        values,
        [
            TensorSegment(s["name"], grid_from_dict(s["grid"]), int(s["start"]), int(s["stop"]))
            for s in header["segments"]
        ],
        header["kind"],
        [(int(b), int(d)) for b, d in header.get("capped_columns", [])],
    )


def read_tensor(path) -> SignatureTensor:
    return read_framed(
        path,
        _MAGIC,
        "signature tensor",
        lambda h: (h["n"], N_BINS, len(h["categories"])),
        _tensor_from,
    )


def export_tensor_csv(tensor: SignatureTensor, path) -> None:
    """Long-format dump for inspection: segment,col,row,bin,category,value."""
    seg_of_row = {}
    for seg in tensor.segments:
        for i in range(seg.start, seg.stop):
            seg_of_row[i] = seg.name
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("segment,col,row,bin,category,value\n")
        for i, cell in enumerate(tensor.cells):
            seg = seg_of_row.get(i, "")
            for b in range(N_BINS):
                for d, cat in enumerate(tensor.categories):
                    fh.write(
                        f"{seg},{cell.col},{cell.row},{b},{cat},{tensor.values[i, b, d]!r}\n"
                    )
