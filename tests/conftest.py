import math
from datetime import datetime
from typing import NamedTuple

import numpy as np
import pytest

from vibrancy.grid import CellId
from vibrancy.ingest import DIRECTIONS, TrafficTable
from vibrancy.signatures import SignatureTensor


class Row(NamedTuple):
    """One traffic row, as the tests spell it out; the package holds rows
    only as TrafficTable columns."""

    cell: CellId
    timestamp: datetime
    service: str
    direction: str
    volume: float


def table_of(rows):
    """The TrafficTable of ``rows``, in their order."""
    rows = list(rows)
    stamps: dict = {}
    services: dict = {}
    return TrafficTable(
        np.array([r.cell.col for r in rows], dtype=np.int64),
        np.array([r.cell.row for r in rows], dtype=np.int64),
        np.array([stamps.setdefault(r.timestamp, len(stamps)) for r in rows], dtype=np.int32),
        np.array([services.setdefault(r.service, len(services)) for r in rows], dtype=np.int32),
        np.array([DIRECTIONS.index(r.direction) for r in rows], dtype=np.int8),
        np.array([r.volume for r in rows], dtype=np.float64),
        tuple(stamps),
        tuple(services),
        DIRECTIONS,
    )


def rows_of(table):
    """The rows of a TrafficTable, read through its columns, in table order."""
    return [
        Row(CellId(c, r), table.stamps[t], table.services[s], table.directions[d], v)
        for c, r, t, s, d, v in zip(
            table.col.tolist(), table.row.tolist(), table.stamp.tolist(),
            table.service.tolist(), table.direction.tolist(), table.volume.tolist(),
        )
    ]


def silhouette_oracle(flat, labels):
    """Definition-level silhouette: explicit loops over points and clusters.

    Deliberately independent of the library implementation; used to verify it.
    """
    n = len(labels)
    rows = [list(map(float, row)) for row in flat]
    dist = [[math.dist(rows[i], rows[j]) for j in range(n)] for i in range(n)]
    clusters = sorted(set(int(v) for v in labels))
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(dist[i][j] for j in own) / len(own)
        b = min(
            sum(dist[i][j] for j in range(n) if labels[j] == c)
            / sum(1 for j in range(n) if labels[j] == c)
            for c in clusters
            if c != labels[i]
        )
        scores.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return sum(scores) / n


def cells_for(n):
    """n distinct cells along row 0 (grids are irrelevant for pure-math tests)."""
    return [CellId(i, 0) for i in range(n)]


def tensor_of(values, day_type="weekday"):
    """Wrap an (n, 12, D) array as a SignatureTensor with synthetic metadata."""
    values = np.asarray(values, dtype=np.float64)
    n, _, depth = values.shape
    categories = tuple(f"c{i}" for i in range(depth))
    return SignatureTensor(day_type, cells_for(n), categories, values)


def column_tensor(column, depth=1):
    """Tensor whose every (bin, category) column equals the given vector."""
    column = np.asarray(column, dtype=np.float64)
    values = np.tile(column[:, None, None], (1, 12, depth))
    return tensor_of(values)


@pytest.fixture
def rng():
    return np.random.default_rng(20190316)
