"""Multidimensional k-means over per-cell signature matrices.

Each point is a whole (bins x categories) matrix; the metric is the
Euclidean norm of the elementwise difference, so clustering happens in the
flattened joint space. k is selected by the silhouette criterion over a
candidate range, and final labels follow the size-ordering convention:
the largest cluster is cluster 1.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from random import Random
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    KTooLargeError,
    LengthMismatchError,
    NonFiniteError,
    ShapeMismatchError,
    SingleClusterError,
)
from .errors import json_field, json_items
from .grid import CellId, GridSpec, cell_polygon
from .ingest import read_cell_rows, write_csv
from .signatures import SignatureTensor, read_framed, write_framed

TensorLike = Union[SignatureTensor, np.ndarray]


@dataclass
class ClusterModel:
    """Fitted k-means model; labels are 1-based and size-ordered."""

    k: int
    centroids: np.ndarray  # (k, *feature_shape)
    labels: np.ndarray  # (n,), values in 1..k
    inertia: float
    seed: int
    n_iter: int
    converged: bool = True
    categories: tuple[str, ...] = ()
    inertia_trace: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.categories = tuple(self.categories)

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.centroids.shape[1:]

    def sizes(self) -> dict[int, int]:
        return {lab: int((self.labels == lab).sum()) for lab in range(1, self.k + 1)}


@dataclass
class KSelectionReport:
    """Silhouette scores per candidate k and the selected value."""

    scores: dict[int, float]
    inertias: dict[int, float]
    chosen_k: int
    tie_break_note: str = ""
    # the best restart's pass count and convergence, per k
    n_iter: dict[int, int] = field(default_factory=dict)
    converged: dict[int, bool] = field(default_factory=dict)
    # restarts, over all k, that used up ``_MAX_PASSES`` without a repeat
    unconverged_restarts: int = 0


def _values(data: TensorLike) -> np.ndarray:
    if isinstance(data, SignatureTensor):
        return data.values
    return np.asarray(data, dtype=np.float64)


def _as_points(data: TensorLike) -> np.ndarray:
    """Rows-as-points view: (n, r, c) stacks flatten to (n, r*c)."""
    values = _values(data)
    if values.ndim == 3:
        return values.reshape(values.shape[0], -1)
    if values.ndim == 2:
        return values
    raise ShapeMismatchError(f"expected a 2-D or 3-D point stack, got ndim={values.ndim}")


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean norm of the elementwise difference between two equal-shape matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape {a.shape} vs {b.shape}")
    return float(np.sqrt(_sq_dist(a.reshape(1, -1), b.reshape(1, -1))[0, 0]))


# Memory budget of the distance code. Each temporary of ``_sq_dist`` and each
# row block of the k-means Gram screen takes at most a sixteenth of it, since
# a Lloyd pass keeps several alive at once; ``select_k`` runs all k in one loop
# while a (restarts, n) array fits in it.
_BLOCK_BYTES = 2 * 2**20


def _sq_dist(X: np.ndarray, C: np.ndarray, cols=None, rows=None) -> np.ndarray:
    """Exact squared Euclidean distances from points to rows of C, shaped
    like ``cols``: entry [..., i] is the distance from point i to
    ``C[cols[..., i]]``. Point i is ``X[rows[i]]``, or ``X[i]`` without
    ``rows``.

    Without ``cols`` every point is measured against every row of C, in a
    (len(C), points) array (the outer form). With them, listed pairs are
    measured (the gathered form); an (A, n) ``cols`` gives each point's
    distance to its own centroid in each of A restarts. Every distance is the
    einsum of one difference row, so its bits depend neither on the form nor
    on the blocks, and every difference block stays within
    ``_BLOCK_BYTES // 16``.
    """
    n = len(X) if rows is None else len(rows)
    if cols is not None:
        lead = cols.reshape(math.prod(cols.shape[:-1]), n)
    out = np.empty((len(C) if cols is None else len(lead), n), dtype=np.float64)
    budget = max(1, _BLOCK_BYTES // 16 // (8 * max(X.shape[1], 1)))  # difference rows
    height = max(1, min(len(out), budget))  # rows of out, then points, per block
    width = max(1, budget // height)
    for s in range(0, n, width):
        x = X[s:s + width] if rows is None else X[rows[s:s + width]]
        for a in range(0, len(out), height):
            if cols is None:
                diff = x - C[a:a + height, None]
            else:
                diff = C[lead[a:a + height, s:s + width]]
                np.subtract(x, diff, out=diff)
            out[a:a + height, s:s + width] = np.einsum("aip,aip->ai", diff, diff)
            del diff  # so that the next difference block does not meet this one
    return out if cols is None else out.reshape(cols.shape)


# Slack of the Gram screen, as a fraction of ‖x‖² + ‖c‖². The Gram form
# ‖x‖² + ‖c‖² − 2·x·c and the exact form Σ(x − c)² each round within about
# 4·p·2⁻⁵³ of that sum, far below this fraction for any p under 10⁵. The
# absolute floor covers rounding in the subnormal range.
_SLACK = 1e-10
_SLACK_FLOOR = np.finfo(np.float64).tiny
# Above this max ‖a‖² + max ‖b‖², a Gram entry may overflow, so ``_gram``
# gives no screen and every pair is scored by ``_sq_dist``.
_GRAM_LIMIT = np.finfo(np.float64).max / 4


def _gram(A: np.ndarray, aa: np.ndarray, B: np.ndarray, bb: np.ndarray):
    """``(gram, scale)``, both (len(A), len(B)): the Gram form ‖a‖² + ‖b‖² −
    2·A·Bᵀ of the rows' squared distances (``aa``, ``bb``: their squared
    norms) and its scale ‖a‖² + ‖b‖²; None past ``_GRAM_LIMIT``."""
    if aa.max() + bb.max() > _GRAM_LIMIT:
        return None
    gram = A @ B.T
    gram *= -2.0
    scale = aa[:, None] + bb
    gram += scale
    return gram, scale


def _sq_to(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(len(idx), n) ``_sq_dist`` from each ``X[i]``, i in ``idx``, to every
    point; restarts often draw the same i, so each is computed once."""
    points, inverse = np.unique(idx, return_inverse=True)
    return _sq_dist(X, X[points])[inverse]


def _kmeans_pp(X: np.ndarray, ks: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k-means++ seeding of restart r, with ``ks[r]`` centres drawn at the
    uniforms ``u[r, :ks[r]]``: (sum(ks), p), restart r's centres from row
    sum(ks[:r]) on.

    A restart's j-th centre takes ``u[r, j]``: the first is point
    ``int(u[r, 0] * n)``; each next one is drawn with probability
    proportional to the squared distance to the nearest centre so far (see
    ``_draw``). Restart r stops drawing at its own k.
    """
    n = X.shape[0]
    first = np.cumsum(ks) - ks
    centers = np.empty((ks.sum(), X.shape[1]), dtype=np.float64)
    live = np.arange(len(ks))
    idx = (u[:, 0] * n).astype(np.int64)
    centers[first] = X[idx]
    d2 = _sq_to(X, idx)
    for j in range(1, ks.max()):
        if ks[live].min() <= j:
            keep = ks[live] > j
            live, d2 = live[keep], d2[keep]
        idx = _draw(d2, u[live, j])
        centers[first[live] + j] = X[idx]
        if j + 1 < ks.max():
            np.minimum(d2, _sq_to(X, idx), out=d2)
    return centers


def _draw(d2: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(R,) index of one point per row of d2 (R, n), drawn with probability
    ``d2[r] / d2[r].sum()`` at the uniform ``u[r]`` in [0, 1), or
    ``int(u[r] * n)`` where the row is all 0.

    The index is ``searchsorted(cdf, u[r], "right")`` in the row's
    cumulative sum of d2 / sum, rescaled to end at 1. All rows are inverted
    at once.
    """
    totals = d2.sum(axis=1)
    mass = totals > 0
    cdf = np.cumsum(d2[mass] / totals[mass, None], axis=1)
    cdf /= cdf[:, -1:]
    idx = np.empty(len(u), dtype=np.int64)
    # cdf is non-decreasing, so this count is ``searchsorted(cdf, u, "right")``
    idx[mass] = (cdf <= u[mass, None]).sum(axis=1)
    # all remaining mass is zero (duplicate points); any point will do
    idx[~mass] = (u[~mass] * d2.shape[1]).astype(np.int64)
    return idx


def _assign(X: np.ndarray, xx: np.ndarray, C: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """(A, n) index of the nearest of each restart's centroids to every
    point, the first on a tie of the exact distances; C (sum(ks), p) holds
    restart a's ``ks[a]`` centroids from row sum(ks[:a]) on, and ``xx`` the
    points' squared norms.

    A Gram screen picks each point's candidates by BLAS: centroid j is one
    when G_j - s_j <= min(G + s), with G = ‖x‖² + ‖c‖² − 2·x·c and slack
    s = ``_SLACK``·(‖x‖² + ‖c‖²) + ``_SLACK_FLOOR``. The slack bounds how far
    G and the exact distance can be apart, so every exact minimum is a
    candidate. A point with one candidate takes it; the others, and every
    point of a block ``_gram`` gives no screen for, are rescored with the
    exact distances of ``_sq_dist``. The labels therefore equal the argmin of
    the exact distances, whatever the BLAS rounding.

    The screen is laid out (slot, restart, point), so that its minimum,
    candidate count and candidate index reduce over the leading axis along
    runs of A·rows entries; slots past a restart's k hold +inf.
    """
    A, K = len(ks), ks.max()
    n = X.shape[0]
    first = np.cumsum(ks) - ks
    owner = np.repeat(np.arange(A), ks)
    slot = (np.arange(len(C)) - first[owner]) * A + owner
    cc = np.einsum("ij,ij->i", C, C)
    # a point's candidate count, and the sum of their indices: the one
    # candidate's index where there is one (the others are rescored)
    small = np.int16 if K <= np.iinfo(np.int16).max else np.int64
    index = np.arange(K, dtype=small)[:, None, None]
    labels = np.empty((A, n), dtype=np.int64)
    rescore = np.ones((A, n), dtype=bool)
    rows = min(n, max(1, _BLOCK_BYTES // 16 // (8 * K * A)))
    screen = np.full((K * A, rows), np.inf)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        screened = _gram(C, cc, X[start:stop], xx[start:stop])
        if screened is None:
            continue
        gram, slack = screened
        block = screen[:, :stop - start]
        slack *= _SLACK
        slack += _SLACK_FLOOR
        block[slot] = gram + slack
        bound = block.reshape(K, A, -1).min(axis=0)
        block[slot] = np.subtract(gram, slack, out=slack)
        near = block.reshape(K, A, -1) <= bound
        labels[:, start:stop] = np.multiply(near, index, dtype=small).sum(axis=0, dtype=small)
        rescore[:, start:stop] = near.sum(axis=0, dtype=small) != 1
    for a in np.flatnonzero(rescore.any(axis=1)):
        points = np.flatnonzero(rescore[a])
        for start in range(0, len(points), rows):
            chunk = points[start:start + rows]
            labels[a, chunk] = _sq_dist(X, C[first[a]:first[a] + ks[a]], rows=chunk).argmin(axis=0)
    return labels


def _relocate_empty(X, centers, labels, k):
    """Give each empty cluster the point farthest from its current centroid.

    The point is moved into the empty cluster immediately, which guarantees
    progress even when all points coincide. Deterministic: ties pick the
    lowest point index.
    """
    empties = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    labels = labels.copy()
    dist = _sq_dist(X, centers, cols=labels)
    moved = np.zeros(X.shape[0], dtype=bool)
    for e in empties:
        counts = np.bincount(labels, minlength=k)
        eligible = (~moved) & (counts[labels] > 1)
        if not eligible.any():
            eligible = ~moved
        candidates = np.flatnonzero(eligible)
        far = int(candidates[np.argmax(dist[candidates])])
        labels[far] = e
        moved[far] = True
        dist[far] = 0.0
    return labels


def _member_means(X: np.ndarray, labels: np.ndarray, first: np.ndarray, counts: np.ndarray,
                  out: np.ndarray, dest: np.ndarray) -> None:
    """Write the mean of the members of each cluster c to ``out[dest[c]]``,
    where restart a's clusters are numbered from ``first[a]`` on, ``labels``
    (A, n) holds each restart's 0-based labels and ``counts`` the clusters'
    positive member counts.

    Each cluster's rows are added in index order and divided by their count,
    which is bitwise ``X[labels == j].mean(axis=0)`` (for p = 1 numpy sums
    that single column pairwise, so there each cluster is reduced whole).
    Rows are added either one cluster per call or one rank per call: each
    cluster's first member is copied, then the r-th member of every cluster
    that has one is added, for r = 1, 2, .... Clusters of up to ``ranks``
    members go by rank and larger ones by cluster, with ``ranks`` chosen to
    make the fewest calls.
    """
    n, p = X.shape
    order = np.argsort(labels + first[:, None], axis=None, kind="stable") % n
    by_size = np.argsort(-counts, kind="stable")
    sizes = counts[by_size]
    starts = (np.cumsum(counts) - counts)[by_size]
    # larger[t]: how many clusters have more than t members
    larger = np.searchsorted(-sizes, -np.arange(sizes[0] + 1), side="left")
    ranks = 0 if p == 1 else int(np.argmin(np.arange(sizes[0] + 1) + larger))
    means = X[order[starts]]
    for c in range(larger[ranks]):
        np.add.reduce(X[order[starts[c]:starts[c] + sizes[c]]], axis=0, out=means[c])
    for r in range(1, ranks):
        means[larger[ranks]:larger[r]] += X[order[starts[larger[ranks]:larger[r]] + r]]
    means /= sizes[:, None]
    out[dest[by_size]] = means


# Pass budget of one k-means restart; reaching it leaves ``converged`` False.
_MAX_PASSES = 300


@dataclass
class _Restarts:
    """The outcome of each of R k-means restarts, labels 0-based."""

    ks: np.ndarray  # (R,) each restart's k
    labels: np.ndarray  # (R, n)
    centers: np.ndarray  # (sum(ks), p), restart r's from row sum(ks[:r]) on
    traces: list[list[float]]  # each restart's per-pass sums
    n_iter: np.ndarray  # (R,)
    converged: np.ndarray  # (R,) bool

    def model(self, r: int, data: TensorLike, seed: int) -> ClusterModel:
        """Restart r as a size-ordered ``ClusterModel``."""
        k = int(self.ks[r])
        first = int(self.ks[:r].sum())
        return relabel_by_size(ClusterModel(
            k=k,
            centroids=self.centers[first:first + k].reshape((k,) + _values(data).shape[1:]),
            labels=self.labels[r] + 1,
            inertia=self.traces[r][-1],
            seed=seed,
            n_iter=int(self.n_iter[r]),
            converged=bool(self.converged[r]),
            categories=getattr(data, "categories", ()),
            inertia_trace=self.traces[r],
        ))


@functools.lru_cache(maxsize=4096)
def _uniforms(seed: int, count: int) -> tuple[float, ...]:
    """The first ``count`` ``random()`` of ``Random(seed)``: the k-means++
    uniforms of a restart seeded ``seed``. Every scope of a run seeds the
    same restarts, so they are kept (a ``Random`` itself holds 2.5 KB)."""
    if seed < 0:  # Random(-s) seeds as Random(s) does
        raise ValueError(f"a k-means seed must be non-negative, got {seed}")
    rng = Random(seed)
    return tuple(rng.random() for _ in range(count))


def _lloyd(X: np.ndarray, ks, seeds: Sequence[int]) -> _Restarts:
    """Run one k-means restart per seed, all in one Lloyd loop; ``ks`` is
    one k for every seed, or one per seed.

    Each pass assigns the points of every restart still running (see
    ``_assign``; an empty cluster takes the point farthest from its
    centroid) and appends that assignment's sum of squared distances to the
    restart's trace. A restart stops when its assignment repeats its
    previous pass's; the others move every centroid to the mean of its
    members and go on. Each restart's arithmetic is that of a loop run on
    its own, so its outcome does not depend on the other seeds or their k.
    """
    n = X.shape[0]
    ks = np.broadcast_to(np.asarray(ks, dtype=np.int64), (len(seeds),))
    if not np.isfinite(X).all():
        raise NonFiniteError("clustering input contains non-finite values")
    if ks.max() > n:
        raise KTooLargeError(f"k={ks.max()} exceeds the number of points n={n}")
    if ks.min() < 2:
        raise ValueError("k must be at least 2")

    R = len(seeds)
    K = int(ks.max())
    u = np.array([_uniforms(operator.index(s), K) for s in seeds])
    out = _Restarts(ks, np.zeros((R, n), dtype=np.int64), _kmeans_pp(X, ks, u),
                    [[] for _ in seeds], np.full(R, _MAX_PASSES), np.zeros(R, dtype=bool))
    xx = np.einsum("ij,ij->i", X, X)
    active = np.arange(R)
    # rows of out.centers that belong to the active restarts, in order
    rows = np.arange(len(out.centers))
    for n_iter in range(1, _MAX_PASSES + 1):
        C = out.centers if len(rows) == len(out.centers) else out.centers[rows]
        ka = ks[active]
        first = np.cumsum(ka) - ka
        labels = _assign(X, xx, C, ka)
        counts = np.bincount((labels + first[:, None]).ravel(), minlength=len(C))
        for a in np.flatnonzero(np.minimum.reduceat(counts, first) == 0):
            labels[a] = _relocate_empty(X, C[first[a]:first[a] + ka[a]], labels[a], ka[a])
            counts[first[a]:first[a] + ka[a]] = np.bincount(labels[a], minlength=ka[a])
        labels += first[:, None]  # each point's own centroid, as a row of C
        for r, total in zip(active.tolist(), _sq_dist(X, C, cols=labels).sum(axis=1).tolist()):
            out.traces[r].append(total)
        labels -= first[:, None]
        if n_iter > 1:
            repeat = (labels == out.labels[active]).all(axis=1)
            out.n_iter[active[repeat]] = n_iter
            out.converged[active[repeat]] = True
            if repeat.any():
                going = np.repeat(~repeat, ka)
                active, labels, ka = active[~repeat], labels[~repeat], ka[~repeat]
                rows, counts = rows[going], counts[going]
                first = np.cumsum(ka) - ka
            if not active.size:
                break
        out.labels[active] = labels
        _member_means(X, labels, first, counts, out.centers, rows)
    return out


def kmeans(data: TensorLike, k: int, seed: int = 0) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding, deterministic given the seed.

    Each pass assigns every point to its nearest centroid (an empty cluster
    takes the point farthest from its centroid). The loop stops when a pass
    repeats the previous pass's assignment; otherwise every centroid moves to
    the mean of its members. On that stop ``converged`` is True, each
    centroid is the mean of its members, the labels are a fixed point of the
    centroids (one more pass would give them again), and the inertia is the
    repeating pass's sum of squared distances. ``converged`` is False only
    if ``_MAX_PASSES`` passes end without a repeat; the model then holds the
    last pass's labels, their member means and that pass's sum.
    ``inertia_trace`` holds each pass's sum. Output labels are size-ordered.
    This is the one-restart case of the loop ``select_k`` runs.
    """
    return _lloyd(_as_points(data), k, [seed]).model(0, data, seed)


def relabel_by_size(model: ClusterModel) -> ClusterModel:
    """Renumber clusters so sizes are non-increasing; the largest becomes 1.

    Equal sizes keep their old relative order. Centroids are permuted in
    step, so centroid i always belongs to cluster i. Idempotent.
    """
    sizes = np.bincount(model.labels - 1, minlength=model.k)
    order = np.argsort(-sizes, kind="stable")  # old 0-based labels, new order
    new_of_old = np.empty(model.k, dtype=np.int64)
    new_of_old[order] = np.arange(1, model.k + 1)
    return replace(model, centroids=model.centroids[order],
                   labels=new_of_old[model.labels - 1],
                   inertia_trace=list(model.inertia_trace))


# Rows of a silhouette distance tile. BLAS picks its kernel, and so the bits
# of an entry, from the shape of the whole call, so every call has a fixed shape.
_TILE = 128
# A labelling's one-hot tiles are its cluster count rounded up to a multiple
# of this many columns wide.
_ONE_HOT = 16
# A Gram entry d² ≤ this fraction of ‖x‖² + ‖y‖² may have lost most of its
# bits to cancellation, so it is rescored exactly. Above it, the Gram form's
# rounding of about 4·p·2⁻⁵³·(‖x‖² + ‖y‖²) is a small part of d².
_RESCORE = 1e-9


def _one_hot(lab_idx: np.ndarray, start: int, T: int, width: int) -> np.ndarray:
    """(T, width): row t is the indicator of point ``start + t``'s 0-based
    label, or all 0 past the last point."""
    hot = np.zeros((T, width), dtype=np.float64)
    labels = lab_idx[start:start + T]
    hot[np.arange(len(labels)), labels] = 1.0
    return hot


def _dist_tile(A: np.ndarray, aa: np.ndarray, ra: int, B: np.ndarray, bb: np.ndarray,
               rb: int) -> np.ndarray:
    """(T, T) Euclidean distances between the rows of the tiles A and B,
    with squared norms ``aa`` and ``bb``. Only the first ``ra`` rows of A and
    ``rb`` of B are points; the other entries are finite and not negative.

    Entries come from ``_gram``, and each of two points at most
    ``_RESCORE``·(‖a‖² + ‖b‖²) from ``_sq_dist``; where ``_gram`` gives no
    screen, all come from ``_sq_dist``.
    """
    screened = _gram(A, aa, B, bb)
    if screened is None:
        d2 = np.zeros((len(A), len(B)), dtype=np.float64)
        d2[:ra, :rb] = _sq_dist(B[:rb], A[:ra])
        return np.sqrt(d2, out=d2)
    d2, bound = screened
    bound *= _RESCORE
    rows, cols = np.nonzero(d2[:ra, :rb] <= bound[:ra, :rb])
    d2[rows, cols] = _sq_dist(A, B, cols=cols, rows=rows)
    # no clamp at 0: every other point pair is over its bound, and an entry
    # of a padding row is ‖a‖² or ‖b‖² exactly
    return np.sqrt(d2, out=d2)


def _silhouettes(X: np.ndarray, labellings: Sequence[Sequence[int]]) -> list[float]:
    """Mean silhouette score of each labelling of the points X, from one pass
    over the pairwise distances.

    The points are cut into tiles of T = min(``_TILE``, n) rows; only the
    last may be partial, and a zero-padded copy of it stands in for it. Each
    pair of tiles (i ≤ j) gets one (T, T) distance tile (see ``_dist_tile``),
    whose transpose serves the pair (j, i). Each labelling multiplies the
    distance tile by a one-hot tile of its labels for those columns, of its
    own fixed width, and adds the product into its (n, clusters) sums; a row
    tile's sums are added in column-tile order. Every call therefore has a
    shape fixed by T, p and the labelling's width, and every sum an order
    fixed by the tiles: no bit depends on ``_BLOCK_BYTES``, the BLAS thread
    count or the other labellings, and ``silhouette`` of one labelling is
    bitwise its score here. Memory is O(T·p + T² + n·(sum of cluster
    counts)).
    """
    n, p = X.shape
    # the extremes show any nan or inf without an (n, p) temporary
    if not (np.isfinite(X.min()) and np.isfinite(X.max())):
        raise NonFiniteError("silhouette input contains non-finite values")
    plans = []
    for labels in labellings:
        labels = np.asarray(labels)
        if labels.shape[0] != n:
            raise ShapeMismatchError("labels length does not match number of points")
        uniq, lab_idx = np.unique(labels, return_inverse=True)
        if uniq.size < 2:
            raise SingleClusterError("silhouette needs at least two distinct clusters")
        width = -(-uniq.size // _ONE_HOT) * _ONE_HOT
        plans.append((lab_idx, np.bincount(lab_idx), np.zeros((n, uniq.size)), width))
    T = min(_TILE, n)
    xx = np.einsum("ij,ij->i", X, X)
    tiles = [(start, T, X[start:start + T], xx[start:start + T])
             for start in range(0, n - T + 1, T)]
    if n % T:
        start, rows = n - n % T, n % T
        part, part_xx = np.zeros((T, p)), np.zeros(T)
        part[:rows], part_xx[:rows] = X[start:], xx[start:]
        tiles.append((start, rows, part, part_xx))
    for i, (a0, ra, A, aa) in enumerate(tiles):
        own = [_one_hot(lab_idx, a0, T, width) for lab_idx, _, _, width in plans]
        for b0, rb, B, bb in tiles[i:]:
            dist = _dist_tile(A, aa, ra, B, bb, rb)
            for (lab_idx, _, sums, width), hot in zip(plans, own):
                k = sums.shape[1]
                cols = hot if b0 == a0 else _one_hot(lab_idx, b0, T, width)
                sums[a0:a0 + ra] += (dist @ cols)[:ra, :k]
                if b0 != a0:
                    sums[b0:b0 + rb] += (dist.T @ hot)[:rb, :k]
    return [_mean_silhouette(lab_idx, counts, sums) for lab_idx, counts, sums, _ in plans]


def _mean_silhouette(lab_idx: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> float:
    n = lab_idx.shape[0]
    own_count = counts[lab_idx]
    own_sum = sums[np.arange(n), lab_idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = own_sum / (own_count - 1)
    other = sums / counts[None, :]
    other[np.arange(n), lab_idx] = np.inf
    b = other.min(axis=1)

    scores = np.zeros(n, dtype=np.float64)
    regular = own_count > 1
    denom = np.maximum(a, b)
    valid = regular & (denom > 0)
    scores[valid] = (b[valid] - a[valid]) / denom[valid]
    return float(scores.mean())


def silhouette(data: TensorLike, labels: Sequence[int]) -> float:
    """Mean silhouette score of a labeling under the Euclidean matrix metric.

    Per point: a is the mean distance to its own cluster (self excluded),
    b the smallest mean distance to any other cluster, and the score is
    (b - a) / max(a, b). Singleton points and points with a = b = 0 score 0.
    Distances come from fixed-shape Gram tiles, with near and coincident
    pairs rescored exactly (coincident points are exactly 0 apart); see
    ``_silhouettes``. ``select_k`` scores its candidates with the same
    routine, so its scores equal this one's bitwise. Non-finite data raises
    ``NonFiniteError``.
    """
    return _silhouettes(_as_points(data), [labels])[0]



def adjusted_rand_index(labels_a: Sequence[int], labels_b: Sequence[int]) -> float:
    """Chance-corrected agreement between two partitions (pair counting).

    1.0 means identical partitions up to label permutation; 0.0 is the
    expected value for independent labelings. Two trivial partitions that
    coincide (for example both all-one-cluster) score 1.0 by convention.
    """
    a = [int(v) for v in labels_a]
    b = [int(v) for v in labels_b]
    if len(a) != len(b):
        raise LengthMismatchError("label vectors differ in length")
    n = len(a)

    def comb2(x: int) -> int:
        return x * (x - 1) // 2

    pair_counts = Counter(zip(a, b))
    sum_ij = sum(comb2(v) for v in pair_counts.values())
    sum_a = sum(comb2(v) for v in Counter(a).values())
    sum_b = sum(comb2(v) for v in Counter(b).values())
    total = comb2(n)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


@functools.lru_cache(maxsize=4096)
def restart_seed(seed: int, k: int, restart: int) -> int:
    """Deterministic per-(k, restart) child seed used by select_k: the
    first ``random()`` of ``Random("<seed> <k> <restart>")``, scaled to 32
    bits. Every scope of a run asks for the same ones, so they are kept."""
    return int(Random(f"{seed} {k} {restart}").random() * 2**32)


def select_k(
    data: TensorLike,
    k_min: int = 3,
    k_max: int = 10,
    seed: int = 0,
    restarts: int = 10,
) -> tuple[ClusterModel, KSelectionReport]:
    """Try each k in [k_min, k_max] with ``restarts`` k-means restarts
    (seeded by ``restart_seed``), keep the restart with the lowest inertia
    (the first on a tie), and pick the k with the highest silhouette score
    (ties go to the smallest k). The restarts of every k run together in one
    Lloyd loop (one loop per k when n is large), and each equals the
    ``kmeans`` call with its seed. All the best models are scored from one
    pass over the pairwise distances."""
    X = _as_points(data)
    n = X.shape[0]
    if k_min < 2 or k_min > k_max:
        raise ValueError("need 2 <= k_min <= k_max")
    if k_max > n:
        raise KTooLargeError(f"k_max={k_max} exceeds the number of points n={n}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    k_range = range(k_min, k_max + 1)
    # A Lloyd loop holds a few (restarts, n) arrays per pass: every k shares
    # one loop while those fit in a block, and each k has its own otherwise.
    group = len(k_range) if 8 * len(k_range) * restarts * n <= _BLOCK_BYTES else 1
    best_models: dict[int, ClusterModel] = {}
    unconverged = 0
    for g in range(0, len(k_range), group):
        ks = np.repeat(k_range[g:g + group], restarts)
        seeds = [restart_seed(seed, int(k), r % restarts) for r, k in enumerate(ks)]
        runs = _lloyd(X, ks, seeds)
        for r in range(0, len(ks), restarts):
            best = min(range(r, r + restarts), key=lambda i: runs.traces[i][-1])
            best_models[int(ks[r])] = runs.model(best, data, seeds[best])
        unconverged += int((~runs.converged).sum())
    del runs  # the silhouette pass below needs only the best models
    scores = dict(zip(best_models, _silhouettes(
        X, [model.labels for model in best_models.values()])))
    top = max(scores.values())
    tied = [k for k in sorted(scores) if scores[k] == top]
    chosen = tied[0]
    note = ""
    if len(tied) > 1:
        note = f"silhouette tie between k={tied}; smallest k chosen"
    report = KSelectionReport(
        scores=scores, inertias={k: m.inertia for k, m in best_models.items()},
        chosen_k=chosen, tie_break_note=note,
        n_iter={k: m.n_iter for k, m in best_models.items()},
        converged={k: m.converged for k, m in best_models.items()},
        unconverged_restarts=unconverged,
    )
    return best_models[chosen], report


def assign(model: ClusterModel, matrix: np.ndarray) -> int:
    """Label of the nearest centroid; ties go to the smallest label."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != model.feature_shape:
        raise ShapeMismatchError(
            f"matrix shape {matrix.shape} does not match centroids {model.feature_shape}"
        )
    d2 = _sq_dist(matrix.reshape(1, -1), model.centroids.reshape(model.k, -1))
    return int(d2.argmin()) + 1


# ---------------------------------------------------------------------------
# Model files are framed files (see ``signatures``) whose JSON header holds k,
# the seed, the iteration record, the labels, the category order and the
# centroid shape; the payload is the centroids.
# ---------------------------------------------------------------------------

_MODEL_MAGIC = b"VCLM"


def write_model(model: ClusterModel, path) -> None:
    header = {
        "k": model.k,
        "seed": model.seed,
        "n_iter": model.n_iter,
        "inertia": float(model.inertia),
        "converged": model.converged,
        "categories": list(model.categories),
        "centroid_shape": list(model.centroids.shape),
        "labels": [int(x) for x in model.labels],
    }
    write_framed(path, _MODEL_MAGIC, header, model.centroids)


def _model_from(header: dict, centroids: np.ndarray) -> ClusterModel:
    return ClusterModel(
        k=json_field(header, "k", int),
        centroids=centroids,
        labels=np.asarray(header["labels"], dtype=np.int64),
        inertia=json_field(header, "inertia", float),
        seed=json_field(header, "seed", int),
        n_iter=json_field(header, "n_iter", int),
        converged=json_field(header, "converged", bool),
        categories=json_items(header, "categories", str),
    )


def read_model(path) -> ClusterModel:
    return read_framed(path, _MODEL_MAGIC, "cluster model", lambda h: h["centroid_shape"],
                       _model_from)


def export_labels_csv(
    cells: Sequence[CellId], labels: Sequence[int], path, value_column: str = "cluster"
) -> None:
    if len(cells) != len(labels):
        raise ShapeMismatchError("cells and labels differ in length")
    write_csv(path, ["col", "row", value_column],
              (f"{cell.col},{cell.row},{int(lab)}" for cell, lab in zip(cells, labels)))


def read_labels_csv(path, value_column: str = "cluster",
                    grid: Optional[GridSpec] = None) -> dict[CellId, int]:
    """Read a ``col,row,<value_column>`` CSV into a cell -> label map in file
    order; this reads cluster labels and planted truth (``archetype``). With
    a ``grid``, a cell outside it is an error naming ``file:line``."""
    cells, values = read_cell_rows(path, "labels", ["col", "row", value_column], np.int64,
                                   grid)
    return dict(zip(cells, values[:, 0].tolist()))


def export_labels_geojson(
    cells: Sequence[CellId], labels: Sequence[int], grid: GridSpec, path
) -> None:
    """Write each cell's square ring with its ``cluster``, ``col`` and ``row``
    as a GeoJSON FeatureCollection, one feature at a time, so that memory
    does not grow with the cell count. The bytes are those of
    ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` and a newline.
    ``GridSpec`` refuses an extent that overflows a float, so every
    coordinate is finite and is written as ``json`` writes it:
    ``float.__repr__``, or ``int.__repr__`` on a grid of whole numbers."""
    if len(cells) != len(labels):
        raise ShapeMismatchError("cells and labels differ in length")
    # an x has the type of origin_x + cell_size, a y that of origin_y + cell_size
    fx = float.__repr__ if isinstance(grid.origin_x + grid.cell_size, float) else int.__repr__
    fy = float.__repr__ if isinstance(grid.origin_y + grid.cell_size, float) else int.__repr__
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"features":[')
        sep = ""
        for cell, lab in zip(cells, labels):
            (x0, y0), (x1, _), (_, y1) = cell_polygon(cell, grid)[:3]
            x0, y0, x1, y1 = fx(x0), fy(y0), fx(x1), fy(y1)
            fh.write(f'{sep}{{"geometry":{{"coordinates":[[[{x0},{y0}],[{x1},{y0}],'
                     f'[{x1},{y1}],[{x0},{y1}],[{x0},{y0}]]],"type":"Polygon"}},'
                     f'"properties":{{"cluster":{int(lab)},"col":{cell.col},"row":{cell.row}}},'
                     f'"type":"Feature"}}')
            sep = ","
        fh.write('],"type":"FeatureCollection"}\n')
