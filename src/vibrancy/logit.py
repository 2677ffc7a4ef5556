"""L2-regularized multinomial logistic regression and evaluation metrics.

The model maps the per-cell covariates to cluster-membership probabilities
through a softmax over per-class linear scores. Training minimizes the mean
cross-entropy plus ``lambda / (2N)`` times the squared weight norm
(intercepts are not penalized) by a damped Newton method in identified
coordinates: an all-zero covariate keeps weight 0, and every step moves the
weights and intercepts by vectors over classes that sum to zero, so the
shifts the loss cannot see are never taken. Each step is solved by Cholesky
when ``lambda > 0`` (least squares at ``lambda = 0``) and backtracked from
the full step, which keeps every run deterministic. After fitting, the
class-mean of the weights and intercepts is subtracted; this sum-to-zero
identification leaves predictions unchanged but makes the exported
coefficient tables well-defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DataError,
    DimensionMismatchError,
    EmptyInputError,
    LengthMismatchError,
    NonFiniteError,
    NotFittedError,
    SingleClassError,
    read_json,
    write_json,
)
from .errors import is_json, json_field, json_items
from .ingest import write_csv

ARMIJO_C = 1e-4
MIN_STEP = 1e-20


@dataclass
class MultinomialLogit:
    classes: tuple[int, ...]
    weights: Optional[np.ndarray]  # (C, P)
    intercepts: Optional[np.ndarray]  # (C,)
    lam: float
    covariates: tuple[str, ...]
    converged: bool = True
    n_iter: int = 0
    final_loss: float = float("nan")
    final_grad_norm: float = float("nan")
    loss_trace: list = field(default_factory=list, repr=False)
    standardization: Optional[dict] = None  # {"means": [...], "sds": [...]}

    def __post_init__(self):
        self.classes = tuple(self.classes)
        self.covariates = tuple(self.covariates)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.intercepts is not None:
            self.intercepts = np.asarray(self.intercepts, dtype=np.float64)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_covariates(self) -> int:
        return len(self.covariates)


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _penalized_loss(W, b, X, y_idx, lam) -> float:
    n = X.shape[0]
    log_probs = _log_softmax(X @ W.T + b)
    nll = -log_probs[np.arange(n), y_idx].sum() / n
    return float(nll + lam / (2 * n) * (W**2).sum())


def _loss_and_grads(W, b, X, y_idx, lam):
    n, n_classes = X.shape[0], W.shape[0]
    log_probs = _log_softmax(X @ W.T + b)
    nll = -log_probs[np.arange(n), y_idx].sum() / n
    loss = float(nll + lam / (2 * n) * (W**2).sum())
    probs = np.exp(log_probs)
    probs[np.arange(n), y_idx] -= 1.0
    probs /= n
    grad_w = probs.T @ X + (lam / n) * W
    grad_b = probs.sum(axis=0)
    return loss, grad_w, grad_b


def _inf_norm(grad_w, grad_b) -> float:
    return float(max(np.abs(grad_w).max(), np.abs(grad_b).max()))


def _sum_to_zero_basis(n_classes: int) -> np.ndarray:
    """(C, C-1) orthonormal basis of the vectors over C classes that sum to
    zero (the Helmert contrasts)."""
    B = np.zeros((n_classes, n_classes - 1))
    for a in range(n_classes - 1):
        scale = math.sqrt((a + 1) * (a + 2))
        B[:a + 1, a] = 1.0 / scale
        B[a + 1, a] = -(a + 1) / scale
    return B


def _hessian(probs, Xt, B, lam) -> np.ndarray:
    """Hessian of the penalized loss in the coordinates D (C-1, m), flattened
    row by row, of the step ``B @ D`` on ``[W | b]``, at class probabilities
    ``probs`` (N, C); ``Xt`` holds the free covariate columns and a column of
    ones, and B is ``_sum_to_zero_basis``.

    Block (a, e) is ``Xt.T @ diag(w) @ Xt`` with ``w = (probs @ (B_a * B_e)
    - (probs @ B_a) * (probs @ B_e)) / N``, built one block at a time so
    memory stays O(N * m + (C * m)^2). B is orthonormal, so the penalty adds
    ``lam / N`` to each weight's diagonal entry.
    """
    n, m = Xt.shape
    r = B.shape[1]
    Q = probs @ B
    H = np.empty((r * m, r * m))
    for a in range(r):
        for e in range(a, r):
            weight = (probs @ (B[:, a] * B[:, e]) - Q[:, a] * Q[:, e]) / n
            block = Xt.T @ (weight[:, None] * Xt)
            H[a * m:(a + 1) * m, e * m:(e + 1) * m] = block
            H[e * m:(e + 1) * m, a * m:(a + 1) * m] = block.T
    weight_entries = np.arange(r * m).reshape(r, m)[:, :-1].ravel()
    H[weight_entries, weight_entries] += lam / n
    return H


def _newton_step(H, grad, lam) -> np.ndarray:
    """The Newton step ``-H^-1 grad``. For ``lam > 0`` H is positive
    definite: it is factored by Cholesky and solved by two triangular
    substitutions. At ``lam = 0`` collinear covariates or separable classes
    can still make H singular, and at a ``lam`` too small to outweigh
    rounding Cholesky can fail; the step is then the minimum-norm
    least-squares one."""
    if lam > 0:
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            pass
        else:
            x = -grad
            for i in range(len(x)):
                x[i] = (x[i] - L[i, :i] @ x[:i]) / L[i, i]
            for i in reversed(range(len(x))):
                x[i] = (x[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
            return x
    return np.linalg.lstsq(H, -grad, rcond=None)[0]


def fit(
    X,
    y: Sequence[int],
    lam: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 5000,
    covariates: Optional[Sequence[str]] = None,
    init: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> MultinomialLogit:
    """Fit the multinomial model; deterministic and independent of row order.

    The loss is minimized by damped Newton steps in identified coordinates.
    A covariate that is 0 in every row keeps weight 0. The weights start
    from their sum-to-zero representative, which changes no probability and
    does not raise the loss, and every step is ``B @ D`` for the sum-to-zero
    basis B. So the intercept shift, which the loss cannot see, and the
    weight shift, along which only the penalty moves and is lowest at the
    start, are never taken. Each step solves the Hessian system in D (see
    ``_newton_step``), then halves the step from 1 until the Armijo
    condition holds. ``n_iter`` counts accepted steps. Converged means the
    gradient infinity-norm fell below ``tol``. If ``max_iter`` steps run out
    first, or no step length down to ``MIN_STEP`` lowers the loss, the model
    is still returned with ``converged=False``. ``init`` optionally sets the starting weights and
    intercepts (used to verify the optimum is init-independent); the default
    start is zero weights with intercepts at the log class frequencies, which
    is already optimal whenever the covariates carry no signal.
    """
    if covariates is None:
        covariates = getattr(X, "columns", None)
    X = np.asarray(getattr(X, "values", X), dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError("X must be a 2-D (rows x covariates) array")
    if not np.isfinite(X).all():
        raise NonFiniteError("covariate matrix contains non-finite values")
    y = np.asarray(y, dtype=np.int64)
    if y.shape[0] != X.shape[0]:
        raise LengthMismatchError("X and y differ in length")
    classes = tuple(sorted(int(c) for c in set(y.tolist())))
    if len(classes) < 2:
        raise SingleClassError("need at least two distinct labels to fit")
    class_index = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([class_index[int(v)] for v in y], dtype=np.int64)
    n_classes, n_cov = len(classes), X.shape[1]
    if covariates is None:
        covariates = tuple(f"x{j}" for j in range(n_cov))
    elif len(covariates) != n_cov:
        raise DimensionMismatchError("covariate names do not match X width")

    if init is None:
        W = np.zeros((n_classes, n_cov))
        priors = np.bincount(y_idx, minlength=n_classes) / y_idx.shape[0]
        b = np.log(priors)
    else:
        W = np.array(init[0], dtype=np.float64)
        b = np.array(init[1], dtype=np.float64)
        if W.shape != (n_classes, n_cov) or b.shape != (n_classes,):
            raise DimensionMismatchError("init shapes do not match the problem")

    nonzero = X.any(axis=0)
    W[:, ~nonzero] = 0.0  # all-zero columns stay 0
    free = np.flatnonzero(nonzero)
    W = W - W.mean(axis=0, keepdims=True)  # the sum-to-zero representative
    B = _sum_to_zero_basis(n_classes)
    Xt = np.hstack([X[:, free], np.ones((X.shape[0], 1))])
    step_w = np.zeros((n_classes, n_cov))
    loss, grad_w, grad_b = _loss_and_grads(W, b, X, y_idx, lam)
    trace = [loss]
    n_iter = 0
    while n_iter < max_iter and _inf_norm(grad_w, grad_b) >= tol:
        grad = (B.T @ np.hstack([grad_w[:, free], grad_b[:, None]])).ravel()
        probs = np.exp(_log_softmax(X @ W.T + b))
        step = _newton_step(_hessian(probs, Xt, B, lam), grad, lam)
        # a slope that rounding leaves just above 0 must not let the loss rise
        slope = min(float(grad @ step), 0.0)
        step = B @ step.reshape(n_classes - 1, len(free) + 1)
        step_w[:, free] = step[:, :-1]
        t = 1.0
        while t >= MIN_STEP:
            cand_w = W + t * step_w
            cand_b = b + t * step[:, -1]
            cand_loss = _penalized_loss(cand_w, cand_b, X, y_idx, lam)
            if cand_loss <= loss + ARMIJO_C * t * slope:
                break
            t *= 0.5
        if t < MIN_STEP:
            break  # no acceptable step; report as not converged
        W, b = cand_w, cand_b
        loss, grad_w, grad_b = _loss_and_grads(W, b, X, y_idx, lam)
        trace.append(loss)
        n_iter += 1

    grad_norm = _inf_norm(grad_w, grad_b)
    converged = grad_norm < tol
    # sum-to-zero identification; predictions are invariant to this shift
    W = W - W.mean(axis=0, keepdims=True)
    b = b - b.mean()
    return MultinomialLogit(
        classes=classes,
        weights=W,
        intercepts=b,
        lam=lam,
        covariates=tuple(covariates),
        converged=converged,
        n_iter=n_iter,
        final_loss=loss,
        final_grad_norm=grad_norm,
        loss_trace=trace,
    )


def predict_proba(model: MultinomialLogit, x) -> np.ndarray:
    """Class-membership probabilities for one covariate vector or a stack of them."""
    if model.weights is None or model.intercepts is None:
        raise NotFittedError("model has no parameters")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.weights.shape[1]:
        raise DimensionMismatchError(
            f"expected {model.weights.shape[1]} covariates, got shape {x.shape}"
        )
    probs = np.exp(_log_softmax(x @ model.weights.T + model.intercepts))
    return probs[0] if single else probs


def predict(model: MultinomialLogit, x) -> int:
    """Most probable class; exact ties go to the smallest class label."""
    probs = predict_proba(model, x)
    if probs.ndim == 1:
        return model.classes[int(np.argmax(probs))]
    return np.array([model.classes[int(i)] for i in np.argmax(probs, axis=1)])


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    tp: int
    fp: int
    fn: int


@dataclass
class MetricsReport:
    accuracy: float
    macro_f1: float
    weighted_f1: float
    per_class: dict[int, ClassMetrics]
    n: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "n": self.n,
            "per_class": {
                str(c): {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                    "tp": m.tp,
                    "fp": m.fp,
                    "fn": m.fn,
                }
                for c, m in self.per_class.items()
            },
        }


def evaluate(y_true, y_pred, class_set=None) -> MetricsReport:
    """Accuracy, macro F1, and support-weighted F1 with per-class detail.

    Zero-denominator convention: precision, recall, or F1 are 0 when their
    denominator is 0. Classes listed in ``class_set`` appear in the report
    even if never predicted (recall 0). Pure-Python arithmetic, so results
    are reproducible to the last bit.
    """
    y_true = [int(v) for v in y_true]
    y_pred = [int(v) for v in y_pred]
    if len(y_true) != len(y_pred):
        raise LengthMismatchError("y_true and y_pred differ in length")
    n = len(y_true)
    if n == 0:
        raise EmptyInputError("cannot evaluate an empty label vector")
    if class_set is None:
        classes = sorted(set(y_true) | set(y_pred))
    else:
        classes = sorted(int(c) for c in class_set)
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    per_class: dict[int, ClassMetrics] = {}
    for c in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[c] = ClassMetrics(precision, recall, f1, tp + fn, tp, fp, fn)
    # fsum rounds once, so neither sum depends on the order of the classes
    macro_f1 = math.fsum(m.f1 for m in per_class.values()) / len(classes)
    weighted_f1 = math.fsum(m.support * m.f1 for m in per_class.values()) / n
    return MetricsReport(correct / n, macro_f1, weighted_f1, per_class, n)


def gradient_check(model: MultinomialLogit, X, y, h: float = 1e-5) -> float:
    """Max relative discrepancy between the analytic gradient of the penalized
    loss and central finite differences, evaluated at the model's parameters.

    The per-coordinate error is |analytic - numeric| / max(1, |analytic|,
    |numeric|), which behaves like an absolute error for small gradients and
    a relative one for large gradients.
    """
    if model.weights is None or model.intercepts is None:
        raise NotFittedError("model has no parameters")
    X = np.asarray(getattr(X, "values", X), dtype=np.float64)
    class_index = {c: i for i, c in enumerate(model.classes)}
    try:
        y_idx = np.array([class_index[int(v)] for v in y], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"label {exc} not among the model's classes") from exc
    W, b, lam = model.weights, model.intercepts, model.lam
    _, grad_w, grad_b = _loss_and_grads(W, b, X, y_idx, lam)
    analytic = np.concatenate([grad_w.ravel(), grad_b])

    theta = np.concatenate([W.ravel(), b])
    n_w = W.size

    def loss_at(vec):
        return _penalized_loss(
            vec[:n_w].reshape(W.shape), vec[n_w:], X, y_idx, lam
        )

    numeric = np.empty_like(theta)
    for j in range(theta.size):
        plus = theta.copy()
        minus = theta.copy()
        plus[j] += h
        minus[j] -= h
        numeric[j] = (loss_at(plus) - loss_at(minus)) / (2 * h)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / scale).max())


def coefficient_table(model: MultinomialLogit) -> tuple[list[str], list[list]]:
    """Coefficients in export orientation: one row per covariate, one column
    per cluster. Returns (header, rows)."""
    if model.weights is None:
        raise NotFittedError("model has no parameters")
    header = ["covariate"] + [f"cluster_{c}" for c in model.classes]
    rows = []
    for j, name in enumerate(model.covariates):
        rows.append([name] + [float(model.weights[i, j]) for i in range(model.n_classes)])
    return header, rows


def export_coefficients_csv(model: MultinomialLogit, path) -> None:
    header, rows = coefficient_table(model)
    write_csv(path, header, (",".join([row[0], *map(repr, row[1:])]) for row in rows))


def save_logit(model: MultinomialLogit, path) -> None:
    if model.weights is None or model.intercepts is None:
        raise NotFittedError("model has no parameters")
    doc = {
        "classes": list(model.classes),
        "covariates": list(model.covariates),
        "lambda": model.lam,
        "weights": [[float(v) for v in row] for row in model.weights],
        "intercepts": [float(v) for v in model.intercepts],
        "converged": model.converged,
        "n_iter": model.n_iter,
        "final_loss": float(model.final_loss),
        "final_grad_norm": float(model.final_grad_norm),
        "standardization": model.standardization,
    }
    write_json(path, doc)


def load_logit(path) -> MultinomialLogit:
    """Read a model written by ``save_logit``; an unreadable file, a missing
    key or a bad value is a DataError naming the file."""
    doc = read_json(path, "model file")
    if not is_json(doc, dict):
        raise DataError(f"model file {path} is not a JSON object")
    try:
        model = MultinomialLogit(
            classes=json_items(doc, "classes", int),
            weights=np.asarray(doc["weights"], dtype=np.float64),
            intercepts=np.asarray(doc["intercepts"], dtype=np.float64),
            lam=json_field(doc, "lambda", float),
            covariates=json_items(doc, "covariates", str),
            converged=json_field(doc, "converged", bool),
            n_iter=json_field(doc, "n_iter", int),
            final_loss=json_field(doc, "final_loss", float),
            final_grad_norm=json_field(doc, "final_grad_norm", float),
            standardization=doc.get("standardization"),
        )
    except KeyError as exc:
        raise DataError(f"model file {path} has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"model file {path} has a bad value: {exc}") from None
    if model.weights.shape != (model.n_classes, model.n_covariates) or (
        model.intercepts.shape != (model.n_classes,)
    ):
        raise DataError(
            f"model file {path}: weights {model.weights.shape} and intercepts "
            f"{model.intercepts.shape} do not fit {model.n_classes} classes and "
            f"{model.n_covariates} covariates"
        )
    return model
