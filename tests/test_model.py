import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vibrancy.pipeline
from vibrancy.clustering import restart_seed, select_k
from vibrancy.errors import (
    DimensionMismatchError,
    EmptyInputError,
    LengthMismatchError,
    NotFittedError,
    SingleClassError,
)
from vibrancy.features import FeatureTable, standardize
from vibrancy.grid import CellId
from vibrancy.logit import (
    ARMIJO_C,
    MIN_STEP,
    MultinomialLogit,
    _loss_and_grads,
    _penalized_loss,
    coefficient_table,
    evaluate,
    fit,
    gradient_check,
    load_logit,
    predict,
    predict_proba,
    save_logit,
)
from vibrancy.pipeline import fit_membership_model


def zero_model(n_classes=3, n_cov=2, lam=1.0):
    return MultinomialLogit(
        classes=tuple(range(1, n_classes + 1)),
        weights=np.zeros((n_classes, n_cov)),
        intercepts=np.zeros(n_classes),
        lam=lam,
        covariates=tuple(f"x{j}" for j in range(n_cov)),
    )


def random_instance(rng, n=50, p=12, c=3):
    X = rng.standard_normal((n, p))
    y = np.concatenate([np.arange(1, c + 1), rng.integers(1, c + 1, size=n - c)])
    return X, y


class TestFit:
    def test_separable_toy(self):
        X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        y = [1, 1, 2, 2]
        model = fit(X, y, lam=0.1)
        assert model.converged
        assert list(predict(model, X)) == y
        assert model.weights[1, 0] > 0  # class 2 sits on the positive side
        assert predict(model, np.array([-1.0])) == 1

    def test_uninformative_covariates_give_uniform_probs(self):
        X = np.zeros((8, 2))
        y = [1, 2] * 4
        model = fit(X, y, lam=1.0)
        assert_allclose(model.weights, 0.0, atol=1e-6)
        assert_allclose(predict_proba(model, np.zeros(2)), [0.5, 0.5], atol=1e-6)

    def test_huge_penalty_recovers_priors(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        y = [1] * 30 + [2] * 10
        model = fit(X, y, lam=1e6)
        assert_allclose(model.weights, 0.0, atol=1e-4)
        probs = predict_proba(model, rng.standard_normal(3))
        assert_allclose(probs, [0.75, 0.25], atol=1e-3)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            fit(np.zeros((4, 2)), [1, 1, 1, 1])

    def test_loss_trace_non_increasing(self, rng):
        X, y = random_instance(rng, n=30, p=4)
        model = fit(X, y, lam=0.5)
        trace = np.asarray(model.loss_trace)
        assert np.all(np.diff(trace) <= 1e-15)

    def test_sum_to_zero_constraint(self, rng):
        X, y = random_instance(rng, n=40, p=5)
        model = fit(X, y, lam=1.0)
        assert_allclose(model.weights.sum(axis=0), 0.0, atol=1e-10)
        assert model.intercepts.sum() == pytest.approx(0.0, abs=1e-10)

    def test_two_class_columns_negate(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        y = rng.integers(1, 3, size=30)
        y[:2] = [1, 2]
        model = fit(X, y, lam=1.0)
        assert_allclose(model.weights[0], -model.weights[1], atol=1e-10)

    def test_init_independence_convexity(self, rng):
        X, y = random_instance(rng, n=50, p=6)
        base = fit(X, y, lam=1.0)
        w0 = rng.standard_normal((3, 6))
        b0 = rng.standard_normal(3)
        other = fit(X, y, lam=1.0, init=(w0, b0))
        assert base.converged and other.converged
        assert abs(base.final_loss - other.final_loss) <= 1e-6
        assert np.array_equal(predict(base, X), predict(other, X))

    def test_row_order_invariance_of_optimum(self, rng):
        X, y = random_instance(rng, n=30, p=4)
        model = fit(X, y, lam=1.0)
        perm = rng.permutation(30)
        permuted = fit(X[perm], y[perm], lam=1.0)
        assert abs(model.final_loss - permuted.final_loss) <= 1e-8

    def test_accepts_feature_table_like(self, rng):
        class TableLike:
            values = rng.standard_normal((20, 3))

        y = rng.integers(1, 3, size=20)
        y[:2] = [1, 2]
        model = fit(TableLike(), y, lam=1.0)
        assert model.weights.shape == (2, 3)


def gradient_descent_reference(X, y, lam, tol=1e-8, max_iter=5000):
    """The solver ``fit`` used before Newton's method, kept as a reference:
    full-batch gradient descent with a backtracking line search from twice the
    last accepted step. Returns (weights, intercepts, loss, grad_norm) with
    the same sum-to-zero identification as ``fit``."""
    classes = sorted(set(int(v) for v in y))
    y_idx = np.array([classes.index(int(v)) for v in y])
    W = np.zeros((len(classes), X.shape[1]))
    b = np.log(np.bincount(y_idx) / len(y_idx))
    loss, grad_w, grad_b = _loss_and_grads(W, b, X, y_idx, lam)
    step = 1.0
    for _ in range(max_iter):
        if max(np.abs(grad_w).max(), np.abs(grad_b).max()) < tol:
            break
        g_sq = float((grad_w**2).sum() + (grad_b**2).sum())
        t = min(step * 2.0, 1e6)
        while True:
            cand_w, cand_b = W - t * grad_w, b - t * grad_b
            cand_loss = _penalized_loss(cand_w, cand_b, X, y_idx, lam)
            if cand_loss <= loss - ARMIJO_C * t * g_sq:
                break
            t *= 0.5
            if t < MIN_STEP:
                break
        if t < MIN_STEP:
            break
        W, b, step = cand_w, cand_b, t
        loss, grad_w, grad_b = _loss_and_grads(W, b, X, y_idx, lam)
    grad_norm = float(max(np.abs(grad_w).max(), np.abs(grad_b).max()))
    return W - W.mean(axis=0), b - b.mean(), loss, grad_norm


class TestNewtonSolver:
    @pytest.mark.parametrize("n,c,lam", list(itertools.product(
        (16, 30, 360), (2, 3, 5), (0.1, 1.0, 10.0))))
    def test_matches_gradient_descent(self, n, c, lam):
        rng = np.random.default_rng(1000 * n + 10 * c + int(10 * lam))
        X, y = random_instance(rng, n=n, p=12, c=c)
        ref_w, ref_b, ref_loss, ref_grad = gradient_descent_reference(X, y, lam)
        assert ref_grad < 1e-8
        model = fit(X, y, lam=lam)
        assert model.converged and model.final_grad_norm < 1e-8
        assert model.final_loss <= ref_loss + 1e-12
        assert model.n_iter <= 25
        assert_allclose(model.weights, ref_w, rtol=0, atol=1e-5)
        assert_allclose(model.intercepts, ref_b, rtol=0, atol=1e-5)
        reference = zero_model(n_classes=c, n_cov=12, lam=lam)
        reference.weights, reference.intercepts = ref_w, ref_b
        assert np.array_equal(predict(model, X), predict(reference, X))

    @pytest.mark.parametrize("case", ["zero column, lambda 0", "all-zero covariates",
                                      "two classes, lambda 0"])
    def test_singular_hessian(self, case):
        rng = np.random.default_rng(8)
        if case == "all-zero covariates":
            X, y, lam = np.zeros((8, 2)), [1, 2] * 4, 1.0
        elif case == "zero column, lambda 0":
            X, y = random_instance(rng, n=200, p=3, c=3)
            X[:, 1] = 0.0
            lam = 0.0
        else:
            X, y = random_instance(rng, n=200, p=3, c=2)
            lam = 0.0
        model = fit(X, y, lam=lam)
        assert model.converged
        assert np.isfinite(model.weights).all() and np.isfinite(model.intercepts).all()
        assert np.all(np.diff(model.loss_trace) <= 0.0)
        if case == "zero column, lambda 0":
            assert_allclose(model.weights[:, 1], 0.0, atol=1e-12)

    @pytest.mark.parametrize("c", [2, 3])
    def test_separable_data_without_penalty(self, c):
        X = np.repeat(np.arange(c, dtype=np.float64), 3)[:, None]
        X = np.hstack([X, X**2])
        y = np.repeat(np.arange(1, c + 1), 3)
        model = fit(X, y, lam=0.0, max_iter=50)
        for value in (model.weights, model.intercepts, model.final_loss,
                      model.final_grad_norm):
            assert np.isfinite(value).all()
        assert model.converged == (model.final_grad_norm < 1e-8)
        assert np.all(np.diff(model.loss_trace) <= 0.0)
        assert list(predict(model, X)) == list(y)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("case", ["random", "separable", "nonzero init"])
    def test_all_zero_column_weights_are_exactly_zero(self, case, lam):
        rng = np.random.default_rng(30)
        X, y = random_instance(rng, n=30, p=12, c=3)
        X[:, [4, 9]] = 0.0
        init = None
        if case == "separable":
            X[:, 0] = 4.0 * y
        elif case == "nonzero init":
            init = (rng.standard_normal((3, 12)), rng.standard_normal(3))
        model = fit(X, y, lam=lam, max_iter=50, init=init)
        assert np.isfinite(model.weights).all()
        assert (model.weights[:, [4, 9]] == 0.0).all()
        if case == "separable":
            assert list(predict(model, X)) == list(y)

    @pytest.mark.parametrize("lam", [1e-12, 1e-15, 1e-300])
    def test_tiny_lambda_on_collinear_covariates_reaches_the_unpenalized_fit(self, lam):
        # as the pipeline's total_count is the sum of the category counts;
        # Cholesky can fail here, and the step falls back to least squares
        rng = np.random.default_rng(32)
        X, y = random_instance(rng, n=300, p=6, c=3)
        X[:, 0] += y
        X = np.hstack([X, X[:, 1:4].sum(axis=1, keepdims=True)])
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        model, unpenalized = fit(X, y, lam=lam), fit(X, y, lam=0.0)
        assert model.converged
        assert model.final_loss <= unpenalized.final_loss + 1e-12
        assert np.array_equal(predict(model, X), predict(unpenalized, X))

    @pytest.mark.parametrize("case", ["random", "zero column", "separable", "five classes"])
    def test_positive_lambda_never_calls_least_squares(self, monkeypatch, case):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        rng = np.random.default_rng(31)
        X, y = random_instance(rng, n=60, p=5, c=5 if case == "five classes" else 3)
        if case == "zero column":
            X[:, 2] = 0.0
        elif case == "separable":
            X[:, 0] = 4.0 * y
        expected = fit(X, y, lam=0.0, max_iter=50)  # the fallback runs at lambda 0
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for lam in (1e-6, 1.0, 10.0):
            assert fit(X, y, lam=lam).converged
        with pytest.raises(AssertionError, match="lstsq called"):
            fit(X, y, lam=0.0, max_iter=50)
        assert expected.n_iter > 0

    def test_memory_stays_bounded(self):
        rng = np.random.default_rng(4)
        X, y = random_instance(rng, n=20_000, p=12, c=10)
        tracemalloc.start()
        try:
            fit(X, y, lam=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestPredictProba:
    def test_zero_parameters_uniform(self):
        model = zero_model(n_classes=4)
        assert_allclose(predict_proba(model, np.zeros(2)), [0.25] * 4)

    def test_saturated_logit(self):
        model = zero_model(n_classes=2, n_cov=1)
        model.intercepts = np.array([0.0, 50.0])
        probs = predict_proba(model, np.zeros(1))
        assert probs[1] == pytest.approx(1.0, abs=1e-9)
        assert probs[0] == pytest.approx(0.0, abs=1e-9)

    def test_logistic_identity(self):
        model = zero_model(n_classes=2, n_cov=1)
        model.weights = np.array([[0.0], [0.5]])
        probs = predict_proba(model, np.array([1.0]))
        assert probs[1] == pytest.approx(1 / (1 + math.exp(-0.5)), rel=1e-12)
        assert probs[1] == pytest.approx(0.62246, abs=1e-5)

    def test_sums_to_one(self, rng):
        model = zero_model()
        model.weights = rng.standard_normal((3, 2))
        model.intercepts = rng.standard_normal(3)
        x = rng.standard_normal((10, 2))
        probs = predict_proba(model, x)
        assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            predict_proba(zero_model(n_cov=2), np.zeros(3))

    def test_logit_shift_invariance(self, rng):
        model = zero_model()
        model.weights = rng.standard_normal((3, 2))
        model.intercepts = rng.standard_normal(3)
        shifted = zero_model()
        shifted.weights = model.weights + rng.standard_normal(2)[None, :]
        shifted.intercepts = model.intercepts + 1.7
        x = rng.standard_normal(2)
        assert_allclose(predict_proba(model, x), predict_proba(shifted, x), atol=1e-12)


class TestPredict:
    def test_argmax(self):
        model = zero_model()
        model.intercepts = np.array([0.2, 0.5, 0.3])
        assert predict(model, np.zeros(2)) == 2

    def test_exact_tie_goes_to_smallest_class(self):
        model = zero_model(n_classes=2)
        assert predict(model, np.zeros(2)) == 1


def _metrics_oracle(y_true, y_pred, classes):
    """Confusion-matrix-first implementation, independent of evaluate(); each
    sum of per-class terms is correctly rounded (math.fsum)."""
    index = {c: i for i, c in enumerate(classes)}
    c = len(classes)
    m = [[0] * c for _ in range(c)]
    for t, p in zip(y_true, y_pred):
        m[index[t]][index[p]] += 1
    n = len(y_true)
    acc = sum(m[i][i] for i in range(c)) / n
    f1s, weighted = [], []
    for i in range(c):
        tp = m[i][i]
        fp = sum(m[r][i] for r in range(c)) - tp
        fn = sum(m[i]) - tp
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        f1s.append(f1)
        weighted.append((tp + fn) * f1)
    return acc, math.fsum(f1s) / c, math.fsum(weighted) / n


class TestEvaluate:
    def test_perfect_prediction(self):
        report = evaluate([1, 2, 3], [1, 2, 3])
        assert (report.accuracy, report.macro_f1, report.weighted_f1) == (1.0, 1.0, 1.0)

    def test_reference_case(self):
        report = evaluate([1, 1, 2], [1, 2, 2])
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.per_class[1].f1 == pytest.approx(2 / 3)
        assert report.per_class[2].f1 == pytest.approx(2 / 3)
        assert report.macro_f1 == pytest.approx(2 / 3)
        assert report.weighted_f1 == pytest.approx(2 / 3)

    def test_total_miss(self):
        report = evaluate([1, 1], [2, 2], class_set={1, 2})
        assert report.accuracy == 0.0
        assert report.macro_f1 == 0.0

    def test_support_bookkeeping(self):
        report = evaluate([1, 1, 2, 3], [1, 2, 2, 2])
        assert sum(m.support for m in report.per_class.values()) == 4
        assert report.per_class[3].recall == 0.0
        assert report.per_class[1] .tp == 1

    def test_class_absent_from_predictions_still_reported(self):
        report = evaluate([1, 2], [1, 1], class_set={1, 2, 3})
        assert set(report.per_class) == {1, 2, 3}
        assert report.per_class[2].recall == 0.0
        assert report.per_class[3].support == 0

    def test_matches_oracle_exhaustively_small(self):
        classes = [1, 2, 3]
        for n in (1, 2, 3):
            for y in itertools.product(classes, repeat=n):
                for p in itertools.product(classes, repeat=n):
                    report = evaluate(list(y), list(p), class_set=classes)
                    acc, macro, weighted = _metrics_oracle(y, p, classes)
                    assert report.accuracy == acc
                    assert report.macro_f1 == macro
                    assert report.weighted_f1 == weighted

    def test_weighted_equals_macro_for_equal_supports(self, rng):
        for _ in range(50):
            y = [1, 1, 2, 2, 3, 3]
            p = [int(v) for v in rng.integers(1, 4, size=6)]
            report = evaluate(y, p, class_set=[1, 2, 3])
            assert abs(report.weighted_f1 - report.macro_f1) <= 1e-12

    def test_renumbering_the_classes_keeps_every_bit(self):
        """macro_f1 and weighted_f1 do not depend on which number each class
        has, although summing these F1 terms in class order would."""
        y = [2, 3, 0, 0, 1, 2, 1, 2, 1, 2]
        p = [1, 3, 0, 0, 2, 2, 1, 3, 1, 0]
        want = evaluate(y, p, class_set=range(4))
        in_class_order = set()
        for perm in itertools.permutations(range(4)):
            got = evaluate([perm[v] for v in y], [perm[v] for v in p], class_set=range(4))
            assert (got.macro_f1, got.weighted_f1) == (want.macro_f1, want.weighted_f1)
            in_class_order.add(sum(got.per_class[c].f1 for c in range(4)))
        assert len(in_class_order) > 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            evaluate([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            evaluate([], [])


class TestGradientCheck:
    def test_random_instances(self, rng):
        for lam in (0.0, 1.0):
            X, y = random_instance(rng, n=30, p=5)
            model = zero_model(n_classes=3, n_cov=5, lam=lam)
            model.weights = rng.standard_normal((3, 5)) * 0.5
            model.intercepts = rng.standard_normal(3) * 0.5
            assert gradient_check(model, X, y) < 1e-5

    def test_zero_parameter_point(self, rng):
        X, y = random_instance(rng, n=30, p=5)
        model = zero_model(n_classes=3, n_cov=5, lam=0.5)
        assert gradient_check(model, X, y) < 1e-6


class TestCoefficientTable:
    def test_shape_and_header(self, rng):
        X = rng.standard_normal((30, 12))
        y = rng.integers(1, 4, size=30)
        y[:3] = [1, 2, 3]
        names = tuple(f"cov_{j}" for j in range(12))
        model = fit(X, y, lam=1.0, covariates=names)
        header, rows = coefficient_table(model)
        assert header == ["covariate", "cluster_1", "cluster_2", "cluster_3"]
        assert len(rows) == 12
        assert sum(len(r) - 1 for r in rows) == 36
        assert [r[0] for r in rows] == list(names)

    def test_toy_sign(self):
        X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        model = fit(X, [1, 1, 2, 2], lam=0.1, covariates=("sep",))
        _, rows = coefficient_table(model)
        assert rows[0][2] > 0  # class-2 column on the separating covariate
        assert rows[0][1] == pytest.approx(-rows[0][2], abs=1e-10)

    def test_not_fitted(self):
        model = MultinomialLogit((1, 2), None, None, 1.0, ("a",))
        with pytest.raises(NotFittedError):
            coefficient_table(model)


class TestModelPersistence:
    def test_round_trip(self, tmp_path, rng):
        X, y = random_instance(rng, n=40, p=4)
        model = fit(X, y, lam=0.7)
        model.standardization = {"columns": ["a"], "means": [0.0], "sds": [1.0]}
        path = tmp_path / "model.json"
        save_logit(model, path)
        loaded = load_logit(path)
        assert loaded.classes == model.classes
        assert loaded.lam == model.lam
        assert loaded.covariates == model.covariates
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.intercepts, model.intercepts)
        assert loaded.standardization == model.standardization
        assert np.array_equal(predict(loaded, X), predict(model, X))


def _reference_split_order(seed, n):
    """The rows in the stable order of one ``random()`` each of
    ``Random("<seed> 7919")``; the holdout takes them from the front."""
    rng = random.Random(f"{seed} 7919")
    draws = [rng.random() for _ in range(n)]
    return sorted(range(n), key=draws.__getitem__)


class TestHoldoutSplit:
    @pytest.mark.parametrize("n,seed", [(4, 0), (17, 9), (48, 3), (203, 2**32 - 1),
                                        (1000, 12345)])
    def test_split_is_numpys_seeded_permutation(self, monkeypatch, n, seed):
        rng = np.random.default_rng(n)
        table = FeatureTable([CellId(i, 0) for i in range(n)], ("a", "b", "c"),
                             rng.standard_normal((n, 3)))
        y = np.arange(n) % 3 + 1
        seen = {}

        def fit_spy(X, y, **kwargs):
            seen["train"] = X
            return fit(X, y, **kwargs)

        def predict_spy(model, X):
            seen["eval"] = X
            return predict(model, X)

        monkeypatch.setattr(vibrancy.pipeline, "fit", fit_spy)
        monkeypatch.setattr(vibrancy.pipeline, "predict", predict_spy)
        _, report, extra = fit_membership_model([table], [y], holdout=0.25, seed=seed)
        perm = np.array(_reference_split_order(seed, n), dtype=np.int64)
        n_eval = int(round(0.25 * n))
        X = standardize(table).values
        assert np.array_equal(seen["train"], X[np.sort(perm[n_eval:])])
        assert np.array_equal(seen["eval"], X[np.sort(perm[:n_eval])])
        assert (extra["n_train"], extra["n_eval"], report.n) == (n - n_eval, n_eval, n_eval)

    @pytest.mark.parametrize("seed,order", [(0, [2, 6, 3, 1, 0, 7, 4, 5, 8, 9]),
                                            (4, [4, 2, 8, 6, 9, 3, 1, 0, 7, 5])])
    def test_split_order_is_pinned(self, seed, order):
        # Python keeps the ``random()`` sequence of a seed across releases;
        # these literals fail on one that does not
        assert _reference_split_order(seed, 10) == order


def test_draws_use_only_the_seeder_and_random(monkeypatch, rng):
    # Python promises a seed's ``random()`` sequence, not these methods'
    def refused(*args, **kwargs):
        raise AssertionError("a draw other than random()")

    for name in ["randrange", "randint", "shuffle", "getrandbits", "choice", "sample"]:
        monkeypatch.setattr(random.Random, name, refused)
    restart_seed.cache_clear()  # so that select_k draws its seeds afresh
    X = np.concatenate([rng.normal(loc, 0.1, size=(20, 3)) for loc in (0.0, 5.0, 10.0)])
    model, _ = select_k(X, k_min=2, k_max=5, seed=3, restarts=4)
    table = FeatureTable([CellId(i, 0) for i in range(len(X))], ("a", "b", "c"), X)
    _, report, extra = fit_membership_model([table], [model.labels], holdout=0.25, seed=3)
    assert extra["n_eval"] == report.n == 15
