import json
import math
import tracemalloc
from random import Random

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vibrancy.clustering
from conftest import cells_for, silhouette_oracle, tensor_of
from vibrancy.clustering import (
    ClusterModel,
    assign,
    distance,
    export_labels_csv,
    export_labels_geojson,
    kmeans,
    read_model,
    relabel_by_size,
    restart_seed,
    select_k,
    silhouette,
    write_model,
)
from vibrancy.errors import (
    KTooLargeError,
    NonFiniteError,
    ShapeMismatchError,
    SingleClusterError,
)
from vibrancy.grid import GridSpec, cell_polygon
from vibrancy.synth import SynthSpec, adjusted_rand_index, planted_stack


class TestDistance:
    def test_identity(self):
        a = np.arange(24.0).reshape(12, 2)
        assert distance(a, a) == 0.0

    def test_single_entry(self):
        a = np.zeros((12, 2))
        b = a.copy()
        b[3, 1] = 3.0
        assert distance(a, b) == 3.0

    def test_all_ones(self):
        a = np.zeros((12, 2))
        b = np.ones((12, 2))
        assert distance(a, b) == pytest.approx(math.sqrt(24), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            distance(np.zeros((12, 2)), np.zeros((12, 3)))


def stack(rows, rng=None, depth=2):
    """Points as an (n, 12, depth) array."""
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), 12, depth)


class TestKmeans:
    def test_duplicated_points_split_exactly(self, rng):
        # integer-valued matrices keep the centroid means exact
        a = rng.integers(0, 10, size=(12, 2)).astype(float)
        b = a + 5.0
        data = np.stack([a, a, a, b, b, b])
        model = kmeans(data, 2, seed=0)
        assert model.inertia == 0.0
        assert len(set(model.labels[:3])) == 1
        assert len(set(model.labels[3:])) == 1
        assert model.labels[0] != model.labels[3]

    def test_k_equals_n(self, rng):
        data = rng.uniform(size=(5, 12, 2))
        model = kmeans(data, 5, seed=3)
        assert sorted(model.labels) == [1, 2, 3, 4, 5]
        assert model.inertia == pytest.approx(0.0, abs=1e-18)

    def test_k_too_large(self, rng):
        with pytest.raises(KTooLargeError):
            kmeans(rng.uniform(size=(4, 12, 1)), 5, seed=0)

    def test_non_finite_rejected(self):
        data = np.ones((4, 12, 1))
        data[1, 3, 0] = np.nan
        with pytest.raises(NonFiniteError):
            kmeans(data, 2, seed=0)

    def test_k_below_two_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.uniform(size=(4, 12, 1)), 1, seed=0)

    def test_planted_recovery(self):
        spec = SynthSpec(seed=5, n_cells=60, k_true=3, noise_sigma=0.5)
        values, planted = planted_stack(spec)
        model = kmeans(values, 3, seed=11)
        assert adjusted_rand_index(model.labels, planted) == 1.0

    def test_invariants_hold_on_random_data(self, rng):
        for trial in range(6):
            data = rng.uniform(size=(40, 12, 2))
            k = int(rng.integers(2, 7))
            model = kmeans(data, k, seed=trial)
            flat = data.reshape(40, -1)
            centroids = model.centroids.reshape(k, -1)
            # every cluster non-empty, labels in 1..k
            sizes = model.sizes()
            assert set(model.labels) == set(range(1, k + 1))
            # size ordering
            ordered = [sizes[lab] for lab in range(1, k + 1)]
            assert ordered == sorted(ordered, reverse=True)
            # fixed point: reassignment changes nothing
            d2 = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            assert np.array_equal(d2.argmin(axis=1) + 1, model.labels)
            # centroids are member means
            for lab in range(1, k + 1):
                assert_allclose(
                    centroids[lab - 1], flat[model.labels == lab].mean(axis=0),
                    rtol=1e-9, atol=1e-12,
                )
            # reported inertia matches a direct recomputation
            direct = sum(
                ((flat[i] - centroids[model.labels[i] - 1]) ** 2).sum()
                for i in range(40)
            )
            assert_allclose(model.inertia, direct, rtol=1e-9)
            # inertia never increased over the iteration trace
            trace = np.asarray(model.inertia_trace)
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0))

    def test_deterministic_given_seed(self, rng):
        data = rng.uniform(size=(30, 12, 2))
        a = kmeans(data, 4, seed=99)
        b = kmeans(data, 4, seed=99)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_identical_points_fill_all_clusters(self):
        data = np.ones((8, 12, 1))
        model = kmeans(data, 3, seed=0)
        assert set(model.labels) == {1, 2, 3}
        assert model.inertia == 0.0


# Frozen copies of the k-means helpers that batched restarts replaced, so
# the references below keep the arithmetic the batched loop must reproduce.
def _reference_pairwise_sq(X, C):
    """Exact squared distances, one einsum of each row-column difference (the
    blocked form gives the same entries for any block split)."""
    diff = X[:, None, :] - C[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _reference_draw(d2, rng):
    """One k-means++ index from ``rng``: the scalar inverse CDF of d2 at one
    ``random()``, or ``int(u * n)`` where d2 is all 0."""
    u, total = rng.random(), d2.sum()
    if total > 0:
        cdf = np.cumsum(d2 / total)
        cdf /= cdf[-1]
        return int(np.searchsorted(cdf, u, side="right"))
    return int(u * len(d2))


def _reference_pp_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[int(rng.random() * n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        idx = _reference_draw(d2, rng)
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _reference_means(X, labels, k):
    out = np.empty((k, X.shape[1]), dtype=np.float64)
    for j in range(k):
        out[j] = X[labels == j].mean(axis=0)
    return out


def _reference_relocate(X, centers, labels, k):
    """The relocation the reference loop ran: it also moves each empty
    cluster's centroid onto the point it takes."""
    labels = labels.copy()
    centers = centers.copy()
    counts = np.bincount(labels, minlength=k)
    dist = ((X - centers[labels]) ** 2).sum(axis=1)
    moved = np.zeros(X.shape[0], dtype=bool)
    for e in np.flatnonzero(counts == 0):
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


def reference_kmeans(data, k, seed=0, max_iter=300, tol=1e-6):
    """The two-loop k-means that the single Lloyd loop replaced.

    A main loop stops on a repeated assignment or on a centroid shift below
    ``tol``; a settling loop then reassigns until the labels repeat, and a
    last distance pass gives the inertia. Returns the model and how the main
    loop stopped: "repeat", "shift" or "budget".
    """
    X = np.asarray(data, dtype=np.float64).reshape(len(data), -1)
    n = X.shape[0]
    centers = _reference_pp_init(X, k, Random(seed))
    prev_labels = labels = None
    stop = "budget"
    for n_iter in range(1, max_iter + 1):
        d2 = _reference_pairwise_sq(X, centers)
        labels, centers = _reference_relocate(X, centers, d2.argmin(axis=1), k)
        new_centers = _reference_means(X, labels, k)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        stable = prev_labels is not None and np.array_equal(labels, prev_labels)
        prev_labels = labels
        if stable or shift < tol:
            stop = "repeat" if stable else "shift"
            break
    for _ in range(max_iter):
        d2 = _reference_pairwise_sq(X, centers)
        new_labels, centers = _reference_relocate(X, centers, d2.argmin(axis=1), k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = _reference_means(X, labels, k)
        n_iter += 1
    d2 = _reference_pairwise_sq(X, centers)
    model = ClusterModel(
        k, centers.reshape((k,) + np.shape(data)[1:]), labels + 1,
        float(d2[np.arange(n), labels].sum()), seed, n_iter, converged=stop != "budget",
    )
    return relabel_by_size(model), stop


def _duplicated_stack(rng, distinct, copies):
    base = rng.integers(0, 4, size=(distinct, 12, 1)).astype(float)
    return np.repeat(base, copies, axis=0)[rng.permutation(distinct * copies)]


class TestSingleLoopMatchesReference:
    """The single Lloyd loop against the two-loop reference: the same labels,
    centroid bytes, inertia and ``converged``; ``n_iter`` is one higher only
    where the reference stopped on a small centroid shift without a repeat."""

    def check(self, data, k, seed):
        """Compare one call; return the reference model and how it stopped."""
        model = kmeans(data, k, seed)
        ref, stop = reference_kmeans(data, k, seed)
        assert np.array_equal(model.labels, ref.labels)
        assert model.centroids.tobytes() == ref.centroids.tobytes()
        assert model.inertia == ref.inertia
        assert model.converged == ref.converged
        assert model.n_iter == ref.n_iter + (stop == "shift")
        assert model.inertia_trace[-1] == model.inertia
        return ref, stop

    def test_planted_stacks_through_select_k(self):
        for spec_seed, k_true, sigma in [(2, 3, 0.5), (9, 5, 0.3), (3, 3, 1.0)]:
            values, _ = planted_stack(SynthSpec(seed=spec_seed, n_cells=60, k_true=k_true,
                                                noise_sigma=sigma))
            chosen, report = select_k(values, k_min=3, k_max=6, seed=spec_seed, restarts=3)
            for k in range(3, 7):
                refs = [self.check(values, k, restart_seed(spec_seed, k, r))[0]
                        for r in range(3)]
                best = min(refs, key=lambda ref: ref.inertia)
                assert report.inertias[k] == best.inertia
                if k == report.chosen_k:
                    assert np.array_equal(chosen.labels, best.labels)
                    assert chosen.n_iter == best.n_iter

    def test_uniform_random_stacks(self, rng):
        for trial in range(20):
            n = int(rng.integers(8, 50))
            self.check(rng.uniform(size=(n, 12, 2)), int(rng.integers(2, 8)), trial)

    def test_small_integer_stacks_with_ties(self, rng):
        for trial in range(20):
            n = int(rng.integers(8, 40))
            data = rng.integers(0, 3, size=(n, 3, 1)).astype(float)
            self.check(data, int(rng.integers(2, 6)), trial)

    def test_duplicated_point_stacks(self, rng):
        stops = set()
        for trial in range(20):
            distinct = int(rng.integers(2, 7))
            data = _duplicated_stack(rng, distinct, int(rng.integers(2, 5)))
            stops.add(self.check(data, int(rng.integers(2, distinct + 1)), trial)[1])
        assert "shift" in stops

    def test_k_equals_n(self, rng):
        for trial in range(5):
            n = int(rng.integers(2, 8))
            assert self.check(rng.uniform(size=(n, 12, 2)), n, trial)[1] == "shift"

    def test_empty_cluster_relocation(self, monkeypatch):
        # every centroid of a stack of equal points is that point, so every
        # pass assigns all points to cluster 0 and must relocate
        had_empty = []
        relocate = vibrancy.clustering._relocate_empty

        def watched(X, centers, labels, k):
            had_empty.append(np.bincount(labels, minlength=k).min() == 0)
            return relocate(X, centers, labels, k)

        monkeypatch.setattr(vibrancy.clustering, "_relocate_empty", watched)
        for k in (2, 3, 5):
            had_empty.clear()
            self.check(np.ones((8, 12, 1)), k, seed=k)
            assert had_empty and all(had_empty)


def reference_lloyd(data, k, seed=0):
    """The one-restart Lloyd loop that batched restarts replaced, on the
    frozen helpers above: the model ``kmeans(data, k, seed)`` must equal."""
    X = np.asarray(data, dtype=np.float64).reshape(len(data), -1)
    n = X.shape[0]
    centers = _reference_pp_init(X, k, Random(seed))
    labels = None
    converged = False
    trace = []
    for n_iter in range(1, vibrancy.clustering._MAX_PASSES + 1):
        d2 = _reference_pairwise_sq(X, centers)
        new_labels = _reference_relocate(X, centers, d2.argmin(axis=1), k)[0]
        trace.append(float(d2[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        centers = _reference_means(X, labels, k)
    model = ClusterModel(k, centers.reshape((k,) + np.shape(data)[1:]), labels + 1, trace[-1],
                         seed, n_iter, converged, inertia_trace=trace)
    return relabel_by_size(model)


def assert_same_model(model, ref):
    assert np.array_equal(model.labels, ref.labels)
    assert model.centroids.tobytes() == ref.centroids.tobytes()
    assert (model.inertia, model.n_iter, model.converged, model.seed) == (
        ref.inertia, ref.n_iter, ref.converged, ref.seed)
    assert model.inertia_trace == ref.inertia_trace


@pytest.fixture
def rescored(monkeypatch):
    """Record how many points each exact rescoring of the Gram screen takes:
    the outer-form ``_sq_dist`` calls on listed points (the seeding and the
    silhouette pass list none, so they are not counted)."""
    counts = []
    sq_dist = vibrancy.clustering._sq_dist

    def watched(X, C, cols=None, rows=None):
        if cols is None and rows is not None:
            counts.append(len(rows))
        return sq_dist(X, C, cols, rows)

    monkeypatch.setattr(vibrancy.clustering, "_sq_dist", watched)
    return counts


class TestBatchedRestartsMatchReference:
    """All restarts of one k run in one Lloyd loop, assigned by a Gram screen
    with exact rescoring: every restart, and so ``select_k``, must give
    bitwise what the one-restart reference gives for its seed."""

    def check(self, data, k_min, k_max, seed=0, restarts=4):
        chosen, report = select_k(data, k_min=k_min, k_max=k_max, seed=seed,
                                  restarts=restarts)
        X = np.asarray(data, dtype=np.float64).reshape(len(data), -1)
        unconverged = 0
        for k in range(k_min, k_max + 1):
            seeds = [restart_seed(seed, k, r) for r in range(restarts)]
            refs = [reference_lloyd(data, k, s) for s in seeds]
            runs = vibrancy.clustering._lloyd(X, k, seeds)
            for r, ref in enumerate(refs):
                assert_same_model(runs.model(r, data, seeds[r]), ref)
            best = min(refs, key=lambda ref: ref.inertia)
            assert report.inertias[k] == best.inertia
            assert (report.n_iter[k], report.converged[k]) == (best.n_iter, best.converged)
            assert report.scores[k] == silhouette(data, best.labels)
            if k == report.chosen_k:
                assert_same_model(chosen, best)
            unconverged += sum(not ref.converged for ref in refs)
        assert report.unconverged_restarts == unconverged
        return report

    def test_planted_stacks(self):
        for spec_seed, k_true, sigma in [(2, 3, 0.5), (9, 5, 0.3), (3, 3, 1.0)]:
            values, _ = planted_stack(SynthSpec(seed=spec_seed, n_cells=60, k_true=k_true,
                                                noise_sigma=sigma))
            assert self.check(values, 3, 6, seed=spec_seed).chosen_k == k_true

    def test_uniform_stacks(self, rng):
        for trial, shape in enumerate([(30, 12, 2), (25, 1, 1), (40, 3, 1), (12, 12, 30)]):
            self.check(rng.uniform(size=shape), 2, 5, seed=trial)

    def test_small_integer_stacks_are_rescored(self, rng, rescored):
        for trial in range(6):
            n = int(rng.integers(10, 40))
            self.check(rng.integers(0, 3, size=(n, 3, 1)).astype(float), 2, 5, seed=trial)
        assert sum(rescored) > 0

    def test_duplicated_point_stacks_are_rescored(self, rng, rescored):
        for trial in range(6):
            data = _duplicated_stack(rng, int(rng.integers(5, 8)), int(rng.integers(2, 5)))
            self.check(data, 2, 5, seed=trial)
        assert sum(rescored) > 0

    def test_k_equals_n(self, rng):
        for n in (2, 3, 5):
            self.check(rng.uniform(size=(n, 12, 2)), 2, n, seed=n)

    def test_points_far_from_the_origin_are_rescored(self, rng, rescored):
        # ‖x‖² near 2e15 cancels in the Gram form to about ±1, the size of
        # the distances themselves; only the exact rescoring orders them
        self.check(1e7 + rng.uniform(size=(30, 12, 2)), 2, 4, seed=1, restarts=3)
        assert sum(rescored) > 0

    def test_subnormal_distances(self, rng):
        # squares of about 1e-322 round to a few subnormal steps, where only
        # the slack's absolute floor keeps every exact minimum a candidate
        for trial in range(3):
            self.check(rng.uniform(size=(30, 12, 1)) * 1e-161, 2, 4, seed=trial, restarts=3)

    def test_overflowing_norms_are_rescored_in_full(self, rng, rescored):
        # ‖x‖² overflows to inf, while every difference, and so every exact
        # distance, stays finite: each pass must rescore all 30 points
        data = 1e160 + rng.normal(size=(30, 12, 1)) * 1e150
        assert np.isinf(np.einsum("ij,ij->i", data[:, :, 0], data[:, :, 0])).all()
        self.check(data, 2, 4, seed=5, restarts=3)
        assert rescored and set(rescored) == {30}

    def test_pass_budget(self, monkeypatch, rng):
        monkeypatch.setattr(vibrancy.clustering, "_MAX_PASSES", 2)
        report = self.check(rng.uniform(size=(40, 12, 2)), 2, 5, seed=4)
        assert 0 < report.unconverged_restarts < 16

    def test_restarts_do_not_depend_on_each_other(self, rng):
        X = rng.uniform(size=(40, 6))
        seeds = [3, 17, 29, 101]
        runs = vibrancy.clustering._lloyd(X, 4, seeds)
        for r, s in enumerate(seeds):
            assert_same_model(runs.model(r, X, s), kmeans(X, 4, s))


def watch_relocations(monkeypatch):
    """Record the k of every restart whose assignment left a cluster empty."""
    seen = []
    relocate = vibrancy.clustering._relocate_empty

    def watched(X, centers, labels, k):
        if np.bincount(labels, minlength=k).min() == 0:
            seen.append(k)
        return relocate(X, centers, labels, k)

    monkeypatch.setattr(vibrancy.clustering, "_relocate_empty", watched)
    return seen


class TestMixedKBatchesMatchReference:
    """Restarts of different k share one seeding pass and one Lloyd loop, each
    with its own k: every restart must give bitwise what the one-restart
    reference gives for its seed."""

    def check(self, data, ks, seeds=None):
        X = np.asarray(data, dtype=np.float64).reshape(len(data), -1)
        seeds = [restart_seed(1, int(k), r) for r, k in enumerate(ks)] if seeds is None else seeds
        runs = vibrancy.clustering._lloyd(X, np.asarray(ks), seeds)
        for r, (k, s) in enumerate(zip(ks, seeds)):
            assert_same_model(runs.model(r, data, s), reference_lloyd(data, k, s))
        return runs

    def test_restarts_stop_at_different_passes(self, rng):
        ks = np.repeat(np.arange(2, 9), 4)
        runs = self.check(rng.uniform(size=(80, 2, 1)), rng.permutation(ks))
        assert runs.n_iter.min() <= 4 and runs.n_iter.max() >= 10

    def test_k_equals_n_in_a_batch(self, rng):
        for n in (2, 3, 5):
            self.check(rng.uniform(size=(n, 12, 2)), rng.permutation(np.arange(2, n + 1)))

    def test_one_column(self, rng):
        # for p = 1 numpy reduces a cluster's single column pairwise
        self.check(rng.normal(size=(70, 1, 1)), [3, 9, 2, 6, 9, 4])
        self.check(rng.integers(0, 5, size=(50, 1, 1)).astype(float), [2, 5, 3, 5])

    def test_duplicated_points_relocate_empty_clusters(self, monkeypatch, rng):
        relocated = watch_relocations(monkeypatch)
        for trial in range(6):
            distinct = int(rng.integers(3, 7))
            data = _duplicated_stack(rng, distinct, int(rng.integers(2, 5)))
            self.check(data, rng.integers(2, distinct + 1, size=6))
        self.check(np.ones((8, 12, 1)), [2, 5, 3, 8])
        assert len(set(relocated)) > 2

    def test_rescored_stacks(self, rng, rescored):
        self.check(rng.integers(0, 3, size=(30, 3, 1)).astype(float), [5, 2, 4, 3, 2])
        self.check(1e7 + rng.uniform(size=(30, 12, 2)), [2, 4, 3])
        assert sum(rescored) > 0
        rescored.clear()
        # norms overflow, so every pass rescores every point of every restart
        data = 1e160 + rng.normal(size=(30, 12, 1)) * 1e150
        self.check(data, [4, 2, 3])
        assert rescored and set(rescored) == {30}

    def test_subnormal_distances(self, rng):
        self.check(rng.uniform(size=(30, 12, 1)) * 1e-161, [3, 2, 4, 2])

    def test_select_k_of_one_k_and_one_restart(self, rng):
        data = rng.uniform(size=(25, 12, 2))
        chosen, report = select_k(data, k_min=4, k_max=4, seed=3, restarts=1)
        assert_same_model(chosen, reference_lloyd(data, 4, restart_seed(3, 4, 0)))
        assert list(report.scores) == [4] and report.chosen_k == 4

    def test_batch_memory_is_bounded(self, monkeypatch, rng):
        # n = 20,000 points of p = 48 for k = 3..10 with 10 restarts; two passes
        # show every temporary a pass makes, and the silhouette pass is left out
        monkeypatch.setattr(vibrancy.clustering, "_MAX_PASSES", 2)
        monkeypatch.setattr(vibrancy.clustering, "_silhouettes",
                            lambda X, labellings: [0.0] * len(labellings))
        X = rng.normal(size=(20_000, 48))
        tracemalloc.start()
        try:
            select_k(X, k_min=3, k_max=10, seed=1, restarts=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * vibrancy.clustering._BLOCK_BYTES


class TestBatchedParts:
    def test_draw_matches_generator_choice(self, rng):
        # the vectorised inverse CDF against the scalar one, row by row
        for trial in range(300):
            rows, n = int(rng.integers(1, 6)), int(rng.integers(1, 60))
            d2 = rng.exponential(size=(rows, n)) * (rng.random((rows, n)) < rng.random())
            d2[rng.random(rows) < 0.2] = 0.0
            if trial % 3 == 0:
                d2 = rng.integers(0, 3, size=(rows, n)).astype(float)
            seeds = rng.integers(2**63, size=rows).tolist()
            u = np.array([Random(s).random() for s in seeds])
            drawn = vibrancy.clustering._draw(d2, u)
            for r, s in enumerate(seeds):
                assert drawn[r] == _reference_draw(d2[r], Random(s))

    def test_seeding_matches_reference(self, rng):
        # restarts of different k share one seeding pass; each stops at its k
        for trial in range(20):
            n = int(rng.integers(5, 40))
            ks = rng.integers(2, 6, size=int(rng.integers(1, 5)))
            X = rng.integers(0, 3, size=(n, int(rng.integers(1, 6)))).astype(float)
            seeds = rng.integers(2**63, size=len(ks)).tolist()
            u = np.array([[r.random() for _ in range(ks.max())] for r in map(Random, seeds)])
            got = vibrancy.clustering._kmeans_pp(X, ks, u)
            assert got.shape == (ks.sum(), X.shape[1])
            for r, s in enumerate(seeds):
                expected = _reference_pp_init(X, ks[r], Random(s))
                first = ks[:r].sum()
                assert got[first:first + ks[r]].tobytes() == expected.tobytes()

    def test_means_match_reference(self, rng):
        # geometric cluster sizes: the few large clusters are reduced whole
        # and the many small ones summed rank by rank
        for p in [1, 2, 3, 7, 48]:
            for trial in range(5):
                n, ks = int(rng.integers(20, 200)), rng.integers(2, 9, size=3)
                X = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
                labels = np.stack([np.minimum(rng.geometric(0.3, size=n) - 1, k - 1) for k in ks])
                for a, k in enumerate(ks):
                    labels[a, :k] = np.arange(k)
                first = np.cumsum(ks) - ks
                counts = np.bincount((labels + first[:, None]).ravel(), minlength=ks.sum())
                means = np.empty((ks.sum(), p))
                vibrancy.clustering._member_means(X, labels, first, counts, means,
                                                  np.arange(ks.sum()))
                for a, k in enumerate(ks):
                    expected = _reference_means(X, labels[a], k)
                    assert means[first[a]:first[a] + k].tobytes() == expected.tobytes()

    def test_norms_near_overflow_are_rescored(self):
        # ‖c₀‖² overflows, yet x is nearer to c₀ (1e308) than to c₁ (1.69e308)
        X = np.array([[1.3e154, 0.0]])
        C = np.array([[[1.3e154, 1e154], [0.0, 0.0]]])
        xx = np.einsum("ij,ij->i", X, X)
        assert np.isfinite(xx).all()
        ks = np.array([2])
        assert vibrancy.clustering._assign(X, xx, C[0], ks).tolist() == [[0]]
        assert vibrancy.clustering._assign(X, xx, C[0, ::-1].copy(), ks).tolist() == [[1]]

    @pytest.mark.parametrize("budget", [600, None], ids=["tiny blocks", "default blocks"])
    def test_own_distance_is_the_exact_block_entry(self, monkeypatch, rng, budget):
        if budget is not None:
            monkeypatch.setattr(vibrancy.clustering, "_BLOCK_BYTES", budget)
        for p in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 127, 128, 255,
                  256, 360, 400]:
            n, k, restarts = int(rng.integers(1, 30)), int(rng.integers(1, 6)), 3
            X = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4)
            C = rng.normal(size=(restarts, k, p))
            labels = rng.integers(0, k, size=(restarts, n))
            own = vibrancy.clustering._sq_dist(X, C.reshape(-1, p),
                                               cols=labels + k * np.arange(restarts)[:, None])
            for a in range(restarts):
                exact = vibrancy.clustering._sq_dist(X, C[a])
                assert own[a].tobytes() == exact[labels[a], np.arange(n)].tobytes()

    def test_assignment_memory_is_bounded(self, rng):
        def peak_mib(n):
            X = rng.normal(size=(n, 40))
            C = rng.normal(size=(100, 40))
            ks = np.full(10, 10)
            xx = np.einsum("ij,ij->i", X, X)
            tracemalloc.start()
            try:
                labels = vibrancy.clustering._assign(X, xx, C, ks)
                labels += 10 * np.arange(10)[:, None]
                vibrancy.clustering._sq_dist(X, C, cols=labels)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        small, large = peak_mib(20_000), peak_mib(40_000)
        # unblocked, one (restarts, n, p) difference would take 61 MiB at n = 20,000
        assert small < 16.0
        assert large <= small + 6.0


class TestSeedStream:
    def test_restart_seeds_are_pinned(self):
        # Python keeps the ``random()`` sequence of a seed across releases;
        # these literals fail on one that does not
        assert ([restart_seed(1, 7, 3), restart_seed(0, 3, 0), restart_seed(4, 10, 9),
                 restart_seed(2**32 - 1, 2, 0)]
                == [1432339902, 813456612, 3219875594, 3901556309])

    def test_a_restarts_draws_are_pinned(self):
        rng = Random(restart_seed(1, 7, 3))
        assert ([rng.random() for _ in range(3)]
                == [0.46438868324195925, 0.509578237395304, 0.1693648944771443])

    def test_numpy_integer_seeds_draw_as_python_ints(self, rng):
        data = rng.uniform(size=(30, 4, 2))
        for seed in [np.int64(5), np.uint32(5)]:
            assert_same_model(kmeans(data, 3, seed), kmeans(data, 3, 5))
        with pytest.raises(TypeError):
            kmeans(data, 3, 5.0)

    def test_a_negative_seed_is_refused(self, rng):
        # ``Random(-1)`` would draw what ``Random(1)`` draws
        with pytest.raises(ValueError, match="non-negative"):
            kmeans(rng.uniform(size=(30, 2)), 3, -1)


def pairs_as_points():
    """Two tight pairs far apart, each point a 1x1 matrix."""
    return np.array([0.0, 0.1, 10.0, 10.1]).reshape(4, 1, 1)


class TestSilhouette:
    def test_tight_far_pairs(self):
        score = silhouette(pairs_as_points(), [1, 1, 2, 2])
        # by hand: (0.990049751 + 0.989949749) * 2 / 4
        assert score >= 0.98
        assert score == pytest.approx(0.98999975, abs=1e-6)

    def test_swapped_pairs_negative(self):
        score = silhouette(pairs_as_points(), [1, 2, 1, 2])
        assert score < 0

    def test_identical_points_score_zero(self):
        data = np.ones((6, 1, 1))
        assert silhouette(data, [1, 1, 1, 2, 2, 2]) == 0.0

    def test_single_cluster_rejected(self):
        with pytest.raises(SingleClusterError):
            silhouette(pairs_as_points(), [1, 1, 1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        data = np.arange(40.0).reshape(10, 4)
        data[3, 2] = bad
        with pytest.raises(NonFiniteError):
            silhouette(data, [1, 2] * 5)

    def test_matches_bruteforce(self, rng):
        for _ in range(10):
            data = rng.uniform(size=(40, 12, 2))
            labels = rng.integers(1, 4, size=40)
            labels[:3] = [1, 2, 3]
            assert silhouette(data, labels) == pytest.approx(
                silhouette_oracle(data.reshape(40, -1), labels), abs=1e-9
            )

    def test_singletons_score_zero(self, rng):
        data = rng.uniform(size=(5, 12, 1))
        labels = [1, 1, 1, 1, 2]
        impl = silhouette(data, labels)
        assert impl == pytest.approx(
            silhouette_oracle(data.reshape(5, -1), np.asarray(labels)), abs=1e-12
        )


class TestSelectK:
    def test_planted_three(self):
        spec = SynthSpec(seed=2, n_cells=60, k_true=3, noise_sigma=0.5)
        values, planted = planted_stack(spec)
        model, report = select_k(values, k_min=3, k_max=6, seed=1, restarts=4)
        assert report.chosen_k == 3
        assert adjusted_rand_index(model.labels, planted) == 1.0
        assert set(report.scores) == {3, 4, 5, 6}
        assert all(-1.0 <= s <= 1.0 for s in report.scores.values())

    def test_planted_five(self):
        spec = SynthSpec(
            seed=9, n_cells=100, k_true=5,
            categories=tuple(f"c{i}" for i in range(3)), noise_sigma=0.3,
        )
        values, planted = planted_stack(spec)
        model, report = select_k(values, k_min=3, k_max=7, seed=4, restarts=4)
        assert report.chosen_k == 5
        assert adjusted_rand_index(model.labels, planted) == 1.0

    def test_degenerate_ties_pick_smallest_k(self):
        data = np.ones((12, 12, 1))
        model, report = select_k(data, k_min=3, k_max=5, seed=0, restarts=2)
        assert report.chosen_k == 3
        assert all(score == 0.0 for score in report.scores.values())
        assert "tie" in report.tie_break_note
        assert model.k == 3

    def test_k_max_capped_by_n(self, rng):
        with pytest.raises(KTooLargeError):
            select_k(rng.uniform(size=(5, 12, 1)), k_min=3, k_max=10)

    @pytest.mark.parametrize("bad", [dict(k_min=1), dict(k_min=5, k_max=4), dict(restarts=0),
                                     dict(restarts=-2)])
    def test_bad_ranges_rejected(self, rng, bad):
        with pytest.raises(ValueError):
            select_k(rng.uniform(size=(12, 12, 1)), **{"k_min": 3, "k_max": 5, **bad})


@pytest.fixture
def tiny_blocks(monkeypatch):
    """A block budget of a few hundred bytes: many row and column blocks."""
    monkeypatch.setattr(vibrancy.clustering, "_BLOCK_BYTES", 600)


@pytest.fixture
def small_tiles(monkeypatch):
    """Silhouette tiles of 8 rows: 9, 17 or 25 points end in a padded tile."""
    monkeypatch.setattr(vibrancy.clustering, "_TILE", 8)


# (n, bins, categories): with a 600-byte budget, 37 points of 3 values come in
# row blocks of 2 and column blocks of 12, each ending in a partial block; 40
# points of 24 values in row blocks of 1 and column blocks of 3, the last partial.
BLOCK_SHAPES = [(37, 3, 1), (40, 12, 2)]


class TestBlockedDistances:
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_silhouette_matches_definition(self, monkeypatch, tiny_blocks, rng, shape):
        n = shape[0]
        points = np.zeros((n, shape[1] * shape[2]))
        blocks = []
        einsum = np.einsum
        with monkeypatch.context() as m:
            m.setattr(np, "einsum", lambda *args: blocks.append(args) or einsum(*args))
            vibrancy.clustering._sq_dist(points, points)
        assert len(blocks) > 1
        for _ in range(5):
            data = rng.uniform(size=shape)
            labels = rng.integers(1, 5, size=n)
            labels[:4] = [1, 2, 3, 4]
            assert silhouette(data, labels) == pytest.approx(
                silhouette_oracle(data.reshape(n, -1), labels), abs=1e-12
            )

    @pytest.mark.parametrize("n", [7, 8, 9, 17, 25])
    def test_tiles_match_definition(self, small_tiles, rng, n):
        for _ in range(3):
            data = rng.uniform(size=(n, 3, 2))
            labels = rng.integers(1, 4, size=n)
            labels[:3] = [1, 2, 3]
            assert silhouette(data, labels) == pytest.approx(
                silhouette_oracle(data.reshape(n, -1), labels), abs=1e-12
            )

    @pytest.mark.parametrize("tiles", [8, 128], ids=["small tiles", "default tiles"])
    def test_overflowing_norms_match_definition(self, monkeypatch, rng, tiles):
        # ‖x‖² overflows, so every tile takes the exact distances
        monkeypatch.setattr(vibrancy.clustering, "_TILE", tiles)
        data = 1e160 + rng.normal(size=(30, 12, 1)) * 1e150
        labels = rng.integers(1, 4, size=30)
        labels[:3] = [1, 2, 3]
        assert silhouette(data, labels) == pytest.approx(
            silhouette_oracle(data.reshape(30, -1), labels), abs=1e-12
        )

    # 150 points make one full tile and one padded tile of 22 points
    @pytest.mark.parametrize("shape", BLOCK_SHAPES + [(150, 4, 2)])
    def test_scores_and_models_do_not_depend_on_the_block_size(self, monkeypatch, rng,
                                                                 shape):
        data = rng.uniform(size=shape)
        labels = rng.integers(1, 4, size=shape[0])

        def run():
            # select_k runs its restarts batched, in blocks across restarts;
            # by default all k share one loop, and with 600 bytes each has its own
            return (silhouette(data, labels), kmeans(data, 3, seed=5),
                    select_k(data, k_min=2, k_max=5, seed=5, restarts=4))

        wide = run()
        monkeypatch.setattr(vibrancy.clustering, "_BLOCK_BYTES", 600)
        narrow = run()
        assert wide[0] == narrow[0]
        for a, b in [(wide[1], narrow[1]), (wide[2][0], narrow[2][0])]:
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.centroids, b.centroids)
            assert (a.inertia, a.n_iter, a.inertia_trace) == (b.inertia, b.n_iter,
                                                              b.inertia_trace)
        assert wide[2][1] == narrow[2][1]

    def test_duplicated_points_score_exactly(self, tiny_blocks, rng):
        a = rng.integers(0, 10, size=(12, 2)).astype(float)
        data = np.stack([a, a, a, a + 5.0, a + 5.0, a + 5.0])
        model = kmeans(data, 2, seed=0)
        assert model.inertia == 0.0
        assert len(set(model.labels[:3])) == 1 and model.labels[0] != model.labels[3]
        assert silhouette(data, model.labels) == 1.0
        assert silhouette(np.ones((6, 1, 1)), [1, 1, 1, 2, 2, 2]) == 0.0

    @pytest.mark.parametrize("offset", [0.0, 1e7])
    def test_coincident_points_in_other_tiles_score_exactly(self, small_tiles, rng, offset):
        # copies of two points spread over four tiles: every own-cluster
        # distance is rescored to exactly 0, far from the origin too, where
        # the Gram form alone leaves about ±1
        a = offset + rng.uniform(size=(12, 2))
        order = rng.permutation(30)
        data = np.stack([a] * 15 + [a + 5.0] * 15)[order]
        labels = np.repeat([1, 2], 15)[order]
        assert silhouette(data, labels) == 1.0
        assert silhouette(np.full((30, 12, 2), offset), np.tile([1, 2, 3], 10)) == 0.0

    def test_labellings_score_alike_alone_and_in_a_batch(self, rng):
        # 300 points: two full tiles and a padded one; k = 17 has one-hot
        # tiles 32 columns wide, the others 16
        X = rng.normal(size=(300, 24))
        labellings = [rng.integers(0, k, size=300) for k in (2, 3, 5, 8, 10, 16, 17, 4)]
        batch = vibrancy.clustering._silhouettes(X, labellings)
        assert batch[::-1] == vibrancy.clustering._silhouettes(X, labellings[::-1])
        for labels, score in zip(labellings, batch):
            assert silhouette(X, labels) == score

    @pytest.mark.parametrize("budget", [600, None], ids=["tiny blocks", "default blocks"])
    def test_select_k_scores_equal_silhouette_bitwise(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(vibrancy.clustering, "_BLOCK_BYTES", budget)
        values, _ = planted_stack(SynthSpec(seed=3, n_cells=45, k_true=3, noise_sigma=1.0))
        _, report = select_k(values, k_min=2, k_max=6, seed=7, restarts=3)
        for k in range(2, 7):
            best = min((kmeans(values, k, restart_seed(7, k, r)) for r in range(3)),
                       key=lambda model: model.inertia)
            assert report.inertias[k] == best.inertia
            assert report.scores[k] == silhouette(values, best.labels)

    def test_silhouette_memory_is_bounded(self):
        def peak_mib(n):
            rng = np.random.default_rng(n)
            data = rng.normal(size=(n, 12, 30))
            labels = rng.integers(1, 6, size=n)
            tracemalloc.start()
            try:
                silhouette(data, labels)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        small, large = peak_mib(800), peak_mib(1600)
        # an (n, n, p) difference block alone would take 1,758 MiB at n = 800
        assert small < 32.0
        assert large <= 1.5 * small

    def test_select_k_silhouette_memory_is_linear_in_the_sums(self, rng):
        # the 8 labellings of a default select_k: their (n, k) sums take
        # 8·n·52 bytes (1.6 MiB), and the tiles only O(T·p + T²) more
        n, ks = 4_000, range(3, 11)
        X = rng.normal(size=(n, 360))
        labellings = [rng.integers(1, k + 1, size=n) for k in ks]
        tracemalloc.start()
        try:
            vibrancy.clustering._silhouettes(X, labellings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n * sum(ks)


class TestRelabelBySize:
    def build(self, sizes):
        labels = np.concatenate([[lab] * count for lab, count in sizes.items()])
        k = len(sizes)
        centroids = np.arange(k * 4, dtype=float).reshape(k, 2, 2)
        return ClusterModel(k, centroids, labels, 0.0, seed=0, n_iter=1)

    def test_reference_mapping(self):
        model = self.build({1: 10, 2: 40, 3: 25})
        out = relabel_by_size(model)
        assert np.all(out.labels[model.labels == 2] == 1)
        assert np.all(out.labels[model.labels == 3] == 2)
        assert np.all(out.labels[model.labels == 1] == 3)
        # centroid follows its cluster
        assert_allclose(out.centroids[0], model.centroids[1])
        assert_allclose(out.centroids[2], model.centroids[0])

    def test_already_ordered_is_identity(self):
        model = self.build({1: 5, 2: 3, 3: 2})
        out = relabel_by_size(model)
        assert np.array_equal(out.labels, model.labels)

    def test_equal_sizes_tie_break(self):
        model = self.build({1: 5, 2: 5})
        out = relabel_by_size(model)
        assert np.array_equal(out.labels, model.labels)

    def test_idempotent_and_partition_preserving(self, rng):
        labels = rng.integers(1, 5, size=30)
        labels[:4] = [1, 2, 3, 4]
        model = ClusterModel(4, rng.uniform(size=(4, 2, 2)), labels, 0.0, 0, 1)
        once = relabel_by_size(model)
        twice = relabel_by_size(once)
        assert np.array_equal(once.labels, twice.labels)
        same_before = labels[:, None] == labels[None, :]
        same_after = once.labels[:, None] == once.labels[None, :]
        assert np.array_equal(same_before, same_after)


class TestAssign:
    def model(self):
        centroids = np.zeros((3, 2, 2))
        centroids[0] += 0.0
        centroids[1] += 1.0
        centroids[2] += 2.0
        return ClusterModel(3, centroids, np.array([1, 2, 3]), 0.0, 0, 1)

    def test_exact_centroid(self):
        assert assign(self.model(), np.full((2, 2), 1.0)) == 2

    def test_equidistant_tie_goes_to_smallest(self):
        model = self.model()
        model.centroids[1] += 10.0  # remove centroid 2 from contention
        # all-ones matrix sits exactly midway between centroids 1 and 3
        assert assign(model, np.full((2, 2), 1.0)) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            assign(self.model(), np.zeros((3, 2)))

    @pytest.mark.parametrize("stack", ["small integers", "duplicated points", "far from origin"])
    def test_agrees_with_a_fitted_model(self, rng, stack):
        # each point goes to the smallest label at its exact minimum distance;
        # where that minimum is unique, that is the label the model gave it
        unique = 0
        for trial in range(6):
            if stack == "small integers":
                data = rng.integers(0, 3, size=(int(rng.integers(10, 40)), 3, 1)).astype(float)
            elif stack == "duplicated points":
                data = _duplicated_stack(rng, int(rng.integers(5, 8)), int(rng.integers(2, 5)))
            else:
                data = 1e7 + rng.uniform(size=(30, 12, 2))
            model = kmeans(data, int(rng.integers(2, 5)), seed=trial)
            assert model.converged
            d2 = _reference_pairwise_sq(data.reshape(len(data), -1),
                                        model.centroids.reshape(model.k, -1))
            for i, row in enumerate(d2):
                nearest = np.flatnonzero(row == row.min()) + 1
                assert assign(model, data[i]) == nearest[0]
                if len(nearest) == 1:
                    unique += 1
                    assert model.labels[i] == nearest[0]
        assert unique > 0


class TestModelIO:
    def test_round_trip(self, tmp_path, rng):
        data = rng.uniform(size=(20, 12, 2))
        model = kmeans(tensor_of(data), 3, seed=7)
        path = tmp_path / "clusters.bin"
        write_model(model, path)
        loaded = read_model(path)
        assert loaded.k == model.k
        assert loaded.seed == model.seed
        assert loaded.n_iter == model.n_iter
        assert loaded.inertia == model.inertia
        assert loaded.categories == model.categories
        assert np.array_equal(loaded.labels, model.labels)
        assert np.array_equal(loaded.centroids, model.centroids)


class TestExports:
    def test_labels_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        export_labels_csv(cells_for(3), [1, 2, 1], path)
        assert path.read_text().splitlines() == [
            "col,row,cluster", "0,0,1", "1,0,2", "2,0,1",
        ]

    def test_labels_geojson(self, tmp_path):
        grid = GridSpec(0, 0, 5, 5, 100.0)
        path = tmp_path / "labels.geojson"
        export_labels_geojson(cells_for(2), [2, 1], grid, path)
        doc = json.loads(path.read_text())
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == 2
        feature = doc["features"][0]
        assert feature["properties"] == {"col": 0, "row": 0, "cluster": 2}
        expected_ring = [[x, y] for x, y in cell_polygon(cells_for(1)[0], grid)]
        assert feature["geometry"]["coordinates"][0] == expected_ring
