"""Multidimensional k-means over per-cell signature matrices.

Each point is a whole (bins x categories) matrix; the metric is the
Euclidean norm of the elementwise difference, so clustering happens in the
flattened joint space. k is selected by the silhouette criterion over a
candidate range, and final labels follow the size-ordering convention:
the largest cluster is cluster 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import (
    KTooLargeError,
    NonFiniteError,
    ShapeMismatchError,
    SingleClusterError,
)
from .grid import CellId, GridSpec, cell_polygon
from .ingest import read_cell_rows
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
    return float(np.sqrt(((a - b) ** 2).sum()))


# Cap on the bytes of one distance block and of one difference block. Every
# exact distance is the einsum of one (row, column) difference, so its bits do
# not depend on how the rows and columns are split into blocks.
_BLOCK_BYTES = 2 * 2**20


def _sq_dist_blocks(X: np.ndarray, C: np.ndarray):
    """Yield ``(start, stop, block)``: exact squared Euclidean distances from
    rows ``start:stop`` of X to every row of C, in (rows, len(C)) blocks.

    Both the output block and the (rows, cols, p) difference block it is
    filled from stay within ``_BLOCK_BYTES`` (at least one row and one column).
    """
    n, p = X.shape
    m = C.shape[0]
    rows = max(1, min(n, _BLOCK_BYTES // (8 * m), _BLOCK_BYTES // (8 * p)))
    cols = max(1, min(m, _BLOCK_BYTES // (8 * rows * p)))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = np.empty((stop - start, m), dtype=np.float64)
        for c0 in range(0, m, cols):
            c1 = min(c0 + cols, m)
            diff = X[start:stop, None, :] - C[None, c0:c1, :]
            block[:, c0:c1] = np.einsum("ijk,ijk->ij", diff, diff)
        yield start, stop, block


def _pairwise_sq(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances between rows of X and rows of C."""
    return np.concatenate([block for _, _, block in _sq_dist_blocks(X, C)])


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining mass is zero (duplicate points); any point will do
            idx = int(rng.integers(n))
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _relocate_empty(X, centers, labels, k):
    """Give each empty cluster the point farthest from its current centroid.

    The point is moved into the empty cluster immediately, which guarantees
    progress even when all points coincide. Deterministic: ties pick the
    lowest point index.
    """
    counts = np.bincount(labels, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return labels, centers
    labels = labels.copy()
    centers = centers.copy()
    dist = ((X - centers[labels]) ** 2).sum(axis=1)
    moved = np.zeros(X.shape[0], dtype=bool)
    for e in empties:
        counts = np.bincount(labels, minlength=k)
        eligible = (~moved) & (counts[labels] > 1)
        if not eligible.any():
            eligible = ~moved
        candidates = np.flatnonzero(eligible)
        far = int(candidates[np.argmax(dist[candidates])])
        labels[far] = e
        centers[e] = X[far]
        moved[far] = True
        dist[far] = 0.0
    return labels, centers


def _means(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    out = np.empty((k, X.shape[1]), dtype=np.float64)
    for j in range(k):
        members = X[labels == j]
        out[j] = members.mean(axis=0)
    return out


def kmeans(
    data: TensorLike,
    k: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding, deterministic given the seed.

    Iteration stops when assignments repeat exactly or the maximum centroid
    shift drops below ``tol``; a final settling pass then guarantees that the
    returned labels are a fixed point of the returned centroids and that each
    centroid is the mean of its members. Output labels are size-ordered.
    """
    X = _as_points(data)
    n = X.shape[0]
    if not np.isfinite(X).all():
        raise NonFiniteError("clustering input contains non-finite values")
    if k > n:
        raise KTooLargeError(f"k={k} exceeds the number of points n={n}")
    if k < 2:
        raise ValueError("k must be at least 2")

    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(X, k, rng)
    prev_labels = None
    labels = None
    converged = False
    n_iter = 0
    trace: list[float] = []
    for n_iter in range(1, max_iter + 1):
        d2 = _pairwise_sq(X, centers)
        labels = d2.argmin(axis=1)
        labels, centers = _relocate_empty(X, centers, labels, k)
        trace.append(float(((X - centers[labels]) ** 2).sum()))
        new_centers = _means(X, labels, k)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        stable = prev_labels is not None and np.array_equal(labels, prev_labels)
        prev_labels = labels
        if stable or shift < tol:
            converged = True
            break

    # settle: lock the assignment fixed point against the final centroids
    for _ in range(max_iter):
        d2 = _pairwise_sq(X, centers)
        new_labels = d2.argmin(axis=1)
        new_labels, centers = _relocate_empty(X, centers, new_labels, k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = _means(X, labels, k)
        n_iter += 1

    d2 = _pairwise_sq(X, centers)
    inertia = float(d2[np.arange(n), labels].sum())
    trace.append(inertia)
    model = ClusterModel(
        k=k,
        centroids=centers.reshape((k,) + _values(data).shape[1:]),
        labels=labels + 1,
        inertia=inertia,
        seed=seed,
        n_iter=n_iter,
        converged=converged,
        categories=getattr(data, "categories", ()),
        inertia_trace=trace,
    )
    return relabel_by_size(model)


def relabel_by_size(model: ClusterModel) -> ClusterModel:
    """Renumber clusters so sizes are non-increasing; the largest becomes 1.

    Equal sizes keep their old relative order. Centroids are permuted in
    step, so centroid i always belongs to cluster i. Idempotent.
    """
    sizes = model.sizes()
    order = sorted(range(1, model.k + 1), key=lambda lab: (-sizes[lab], lab))
    mapping = {old: new for new, old in enumerate(order, start=1)}
    new_labels = np.array([mapping[int(lab)] for lab in model.labels], dtype=np.int64)
    new_centroids = model.centroids[[old - 1 for old in order]]
    return replace(model, centroids=new_centroids, labels=new_labels,
                   inertia_trace=list(model.inertia_trace))


def _silhouettes(X: np.ndarray, labellings: Sequence[Sequence[int]]) -> list[float]:
    """Mean silhouette score of each labelling of the points X, from one pass
    over the exact pairwise distances.

    Distances are streamed in row blocks (see ``_sq_dist_blocks``); from each
    block every labelling adds its per-cluster distance sums into its own
    (n, n_clusters) array. The sums are taken over the columns sorted by
    label with ``np.add.reduceat``, so a point's sums do not depend on the
    block split or on the other labellings. Memory is O(_BLOCK_BYTES + n * sum
    of cluster counts).
    """
    n = X.shape[0]
    plans = []
    for labels in labellings:
        labels = np.asarray(labels)
        if labels.shape[0] != n:
            raise ShapeMismatchError("labels length does not match number of points")
        uniq, lab_idx = np.unique(labels, return_inverse=True)
        if uniq.size < 2:
            raise SingleClusterError("silhouette needs at least two distinct clusters")
        counts = np.bincount(lab_idx)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        order = np.argsort(lab_idx, kind="stable")
        sums = np.empty((n, uniq.size), dtype=np.float64)
        plans.append((lab_idx, counts, starts, order, sums))
    for start, stop, block in _sq_dist_blocks(X, X):
        dist = np.sqrt(np.maximum(block, 0.0, out=block), out=block)
        for _, _, starts, order, sums in plans:
            sums[start:stop] = np.add.reduceat(dist[:, order], starts, axis=1)
    return [_mean_silhouette(lab_idx, counts, sums)
            for lab_idx, counts, _, _, sums in plans]


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
    Exact distances, streamed in blocks of bounded size; ``select_k`` scores
    its candidates with the same routine, so its scores equal this one's.
    """
    return _silhouettes(_as_points(data), [labels])[0]


def restart_seed(seed: int, k: int, restart: int) -> int:
    """Deterministic per-(k, restart) child seed used by select_k."""
    return int(np.random.SeedSequence((seed, k, restart)).generate_state(1)[0])


def select_k(
    data: TensorLike,
    k_min: int = 3,
    k_max: int = 10,
    seed: int = 0,
    restarts: int = 10,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> tuple[ClusterModel, KSelectionReport]:
    """Try each k in [k_min, k_max], keep the best restart by inertia, and pick
    the k with the highest silhouette score (ties go to the smallest k). All
    the best models are scored from one pass over the pairwise distances."""
    n = _as_points(data).shape[0]
    if k_min < 2 or k_min > k_max:
        raise ValueError("need 2 <= k_min <= k_max")
    if k_max > n:
        raise KTooLargeError(f"k_max={k_max} exceeds the number of points n={n}")
    inertias: dict[int, float] = {}
    best_models: dict[int, ClusterModel] = {}
    for k in range(k_min, k_max + 1):
        best = None
        for r in range(restarts):
            model = kmeans(data, k, restart_seed(seed, k, r), max_iter=max_iter, tol=tol)
            if best is None or model.inertia < best.inertia:
                best = model
        best_models[k] = best
        inertias[k] = best.inertia
    scores = dict(zip(best_models, _silhouettes(
        _as_points(data), [model.labels for model in best_models.values()])))
    top = max(scores.values())
    tied = [k for k in sorted(scores) if scores[k] == top]
    chosen = tied[0]
    note = ""
    if len(tied) > 1:
        note = f"silhouette tie between k={tied}; smallest k chosen"
    report = KSelectionReport(scores=scores, inertias=inertias, chosen_k=chosen, tie_break_note=note)
    return best_models[chosen], report


def assign(model: ClusterModel, matrix: np.ndarray) -> int:
    """Label of the nearest centroid; ties go to the smallest label."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != model.feature_shape:
        raise ShapeMismatchError(
            f"matrix shape {matrix.shape} does not match centroids {model.feature_shape}"
        )
    flat = model.centroids.reshape(model.k, -1)
    d2 = ((flat - matrix.reshape(-1)[None, :]) ** 2).sum(axis=1)
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
        k=int(header["k"]),
        centroids=centroids,
        labels=np.asarray(header["labels"], dtype=np.int64),
        inertia=float(header["inertia"]),
        seed=int(header["seed"]),
        n_iter=int(header["n_iter"]),
        converged=bool(header["converged"]),
        categories=tuple(header["categories"]),
    )


def read_model(path) -> ClusterModel:
    return read_framed(path, _MODEL_MAGIC, "cluster model", lambda h: h["centroid_shape"],
                       _model_from)


def export_labels_csv(
    cells: Sequence[CellId], labels: Sequence[int], path, value_column: str = "cluster"
) -> None:
    if len(cells) != len(labels):
        raise ShapeMismatchError("cells and labels differ in length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"col,row,{value_column}\n")
        for cell, lab in zip(cells, labels):
            fh.write(f"{cell.col},{cell.row},{int(lab)}\n")


def read_labels_csv(path, value_column: str = "cluster") -> dict[CellId, int]:
    """Read a ``col,row,<value_column>`` CSV into a cell -> label map in file
    order; this reads cluster labels and planted truth (``archetype``)."""
    _, cells, rows = read_cell_rows(path, "labels", ["col", "row", value_column], int)
    return {cell: row[0] for cell, row in zip(cells, rows)}


def export_labels_geojson(
    cells: Sequence[CellId], labels: Sequence[int], grid: GridSpec, path
) -> None:
    if len(cells) != len(labels):
        raise ShapeMismatchError("cells and labels differ in length")
    features = []
    for cell, lab in zip(cells, labels):
        ring = [[x, y] for x, y in cell_polygon(cell, grid)]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {"col": cell.col, "row": cell.row, "cluster": int(lab)},
            }
        )
    doc = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                          encoding="utf-8")
