"""L2-regularized multinomial logistic regression and evaluation metrics.

The model maps the per-cell covariates to cluster-membership probabilities
through a softmax over per-class linear scores. Training minimizes the mean
cross-entropy plus ``lambda / (2N)`` times the squared weight norm
(intercepts are not penalized) by a damped Newton method: each step solves
the exact Hessian system for the minimum-norm Newton direction (the Hessian
is singular along the intercept shift) and backtracks along it from the
full step, which keeps every run deterministic. After fitting, the
class-mean of the weights and intercepts is subtracted; this sum-to-zero
identification leaves predictions unchanged but makes the exported
coefficient tables well-defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
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
)

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
        self.classes = tuple(int(c) for c in self.classes)
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


def _hessian(probs, Xt, lam) -> np.ndarray:
    """Hessian of the penalized loss in the parameters ``[W | b]`` flattened
    row by row, at class probabilities ``probs`` (N, C); ``Xt`` is the
    covariate matrix with a column of ones appended.

    Block (c, d) is ``Xt.T @ diag(pi_c * (delta_cd - pi_d) / N) @ Xt``, built
    one block at a time so memory stays O(N * P + (C * P)^2).
    """
    n, m = Xt.shape
    n_classes = probs.shape[1]
    H = np.empty((n_classes * m, n_classes * m))
    for c in range(n_classes):
        for d in range(c, n_classes):
            weight = probs[:, c] * (float(c == d) - probs[:, d]) / n
            block = Xt.T @ (weight[:, None] * Xt)
            H[c * m:(c + 1) * m, d * m:(d + 1) * m] = block
            H[d * m:(d + 1) * m, c * m:(c + 1) * m] = block.T
    weight_entries = np.arange(n_classes * m).reshape(n_classes, m)[:, :-1].ravel()
    H[weight_entries, weight_entries] += lam / n
    return H


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

    The loss is minimized by damped Newton steps: each solves the exact
    Hessian system by least squares (the minimum-norm step, since the
    Hessian is singular along the intercept shift, and along the weight
    shift and any all-zero column when ``lam`` is 0), then halves the step
    from 1 until the Armijo condition holds. ``n_iter`` counts accepted
    steps. Converged means the gradient infinity-norm fell below ``tol``.
    If ``max_iter`` steps run out first, or no step length down to
    ``MIN_STEP`` lowers the loss, the model is still returned with
    ``converged=False``. ``init`` optionally sets the starting weights and
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

    Xt = np.hstack([X, np.ones((X.shape[0], 1))])
    loss, grad_w, grad_b = _loss_and_grads(W, b, X, y_idx, lam)
    trace = [loss]
    n_iter = 0
    while n_iter < max_iter and _inf_norm(grad_w, grad_b) >= tol:
        grad = np.hstack([grad_w, grad_b[:, None]]).ravel()
        probs = np.exp(_log_softmax(X @ W.T + b))
        step = np.linalg.lstsq(_hessian(probs, Xt, lam), -grad, rcond=None)[0]
        # a slope that rounding leaves just above 0 must not let the loss rise
        slope = min(float(grad @ step), 0.0)
        step = step.reshape(n_classes, n_cov + 1)
        t = 1.0
        while t >= MIN_STEP:
            cand_w = W + t * step[:, :n_cov]
            cand_b = b + t * step[:, n_cov]
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
    macro_f1 = sum(m.f1 for m in per_class.values()) / len(classes)
    weighted_f1 = sum(m.support * m.f1 for m in per_class.values()) / n
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row[0] + "," + ",".join(repr(v) for v in row[1:]) + "\n")


def read_coefficients_csv(path) -> tuple[list[str], list[list]]:
    """Read a table written by ``export_coefficients_csv`` back as (header,
    rows) in the shape of ``coefficient_table``. An unreadable file, a row
    whose field count differs from the header's or a coefficient that is not
    a number is a DataError naming the file (and the line)."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read coefficients file {path}: {exc}") from exc
    if not lines:
        raise DataError(f"coefficients file {path} is empty")
    header = lines[0].split(",")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise DataError(
                f"{path}:{line_no}: expected {len(header)} fields, got {len(fields)}"
            )
        try:
            rows.append([fields[0]] + [float(v) for v in fields[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
    return header, rows


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
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def load_logit(path) -> MultinomialLogit:
    """Read a model written by ``save_logit``; an unreadable file, a missing
    key or a bad value is a DataError naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"model file {path} is not a JSON object")
    try:
        model = MultinomialLogit(
            classes=tuple(doc["classes"]),
            weights=np.asarray(doc["weights"], dtype=np.float64),
            intercepts=np.asarray(doc["intercepts"], dtype=np.float64),
            lam=float(doc["lambda"]),
            covariates=tuple(doc["covariates"]),
            converged=bool(doc["converged"]),
            n_iter=int(doc["n_iter"]),
            final_loss=float(doc["final_loss"]),
            final_grad_norm=float(doc["final_grad_norm"]),
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
