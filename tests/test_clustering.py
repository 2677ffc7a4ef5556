import json
import math
import tracemalloc

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
    centers = vibrancy.clustering._kmeans_pp_init(X, k, np.random.default_rng(seed))
    prev_labels = labels = None
    stop = "budget"
    for n_iter in range(1, max_iter + 1):
        d2 = vibrancy.clustering._pairwise_sq(X, centers)
        labels, centers = _reference_relocate(X, centers, d2.argmin(axis=1), k)
        new_centers = vibrancy.clustering._means(X, labels, k)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        stable = prev_labels is not None and np.array_equal(labels, prev_labels)
        prev_labels = labels
        if stable or shift < tol:
            stop = "repeat" if stable else "shift"
            break
    for _ in range(max_iter):
        d2 = vibrancy.clustering._pairwise_sq(X, centers)
        new_labels, centers = _reference_relocate(X, centers, d2.argmin(axis=1), k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = vibrancy.clustering._means(X, labels, k)
        n_iter += 1
    d2 = vibrancy.clustering._pairwise_sq(X, centers)
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


@pytest.fixture
def tiny_blocks(monkeypatch):
    """A block budget of a few hundred bytes: many row and column blocks."""
    monkeypatch.setattr(vibrancy.clustering, "_BLOCK_BYTES", 600)


# (n, bins, categories): with a 600-byte budget, 37 points of 3 values come in
# row blocks of 2 and column blocks of 12, each ending in a partial block; 40
# points of 24 values in row blocks of 1 and column blocks of 3, the last partial.
BLOCK_SHAPES = [(37, 3, 1), (40, 12, 2)]


class TestBlockedDistances:
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_silhouette_matches_definition(self, tiny_blocks, rng, shape):
        n = shape[0]
        points = np.zeros((n, shape[1] * shape[2]))
        assert len(list(vibrancy.clustering._sq_dist_blocks(points, points))) > 1
        for _ in range(5):
            data = rng.uniform(size=shape)
            labels = rng.integers(1, 5, size=n)
            labels[:4] = [1, 2, 3, 4]
            assert silhouette(data, labels) == pytest.approx(
                silhouette_oracle(data.reshape(n, -1), labels), abs=1e-12
            )

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_scores_and_models_do_not_depend_on_the_block_size(self, monkeypatch, rng,
                                                                 shape):
        data = rng.uniform(size=shape)
        labels = rng.integers(1, 4, size=shape[0])
        wide = (silhouette(data, labels), kmeans(data, 3, seed=5))
        monkeypatch.setattr(vibrancy.clustering, "_BLOCK_BYTES", 600)
        narrow = (silhouette(data, labels), kmeans(data, 3, seed=5))
        assert wide[0] == narrow[0]
        a, b = wide[1], narrow[1]
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)
        assert (a.inertia, a.n_iter, a.inertia_trace) == (b.inertia, b.n_iter, b.inertia_trace)

    def test_duplicated_points_score_exactly(self, tiny_blocks, rng):
        a = rng.integers(0, 10, size=(12, 2)).astype(float)
        data = np.stack([a, a, a, a + 5.0, a + 5.0, a + 5.0])
        model = kmeans(data, 2, seed=0)
        assert model.inertia == 0.0
        assert len(set(model.labels[:3])) == 1 and model.labels[0] != model.labels[3]
        assert silhouette(data, model.labels) == 1.0
        assert silhouette(np.ones((6, 1, 1)), [1, 1, 1, 2, 2, 2]) == 0.0

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
