"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line including the elapsed time against the
criterion's runtime budget. Run with ``pytest tests/test_acceptance.py -s``
to watch the lines as they print.
"""

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import column_tensor, silhouette_oracle, tensor_of
from vibrancy.cli import main
from vibrancy.clustering import kmeans, select_k, silhouette
from vibrancy.features import (
    build_features,
    filter_rare_labels,
    shannon_diversity,
    standardize,
)
from vibrancy.grid import CellId, CityRegion, GridSpec, check_region_consistency
from vibrancy.logit import MultinomialLogit, evaluate, fit, gradient_check, predict
from vibrancy.signatures import build_signatures, relative_risk
from vibrancy.synth import (
    SynthSpec,
    adjusted_rand_index,
    generate,
    planted_stack,
    write_city,
)


@contextmanager
def criterion(num, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {num} {name}: FAIL [{elapsed:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    within = budget_s is None or elapsed < budget_s
    budget_txt = "" if budget_s is None else f" [{elapsed:.2f}s < {budget_s:g}s]"
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if within else 'FAIL'}{budget_txt}")
    assert within, f"{name}: runtime {elapsed:.2f}s exceeds the {budget_s}s budget"


def test_criterion_1_relative_risk():
    with criterion(1, "relative-risk normalization", budget_s=1.0):
        rr = relative_risk(column_tensor([2.0, 1.0, 1.0]))
        assert_allclose(rr.values[:, 0, 0], [2.0, 2 / 3, 2 / 3], rtol=1e-12)

        rng = np.random.default_rng(1)
        base = rng.uniform(0.1, 5.0, size=(7, 12, 3))
        reference = relative_risk(tensor_of(base)).values
        for c in (1e-6, 1.0, 1e6):
            scaled = relative_risk(tensor_of(base * c)).values
            assert_allclose(scaled, reference, rtol=1e-12)

        equal = relative_risk(column_tensor([3.25] * 6))
        assert np.all(equal.values == 1.0)


def test_criterion_2_shannon_diversity():
    with criterion(2, "Shannon diversity", budget_s=1.0):
        assert shannon_diversity({"a": 1, "b": 1}) == 1.0

        rng = np.random.default_rng(2)
        for _ in range(1000):
            m = int(rng.integers(1, 12))
            counts = rng.integers(0, 60, size=m)
            present = int((counts > 0).sum())
            h = shannon_diversity(counts.tolist())
            bound = math.log2(present) if present > 1 else 0.0
            assert 0.0 <= h <= bound + 1e-12

        for m in range(1, 10):
            uniform = shannon_diversity([9] * m)
            assert uniform == pytest.approx(math.log2(m) if m > 1 else 0.0, abs=1e-12)
            if m > 1:
                skewed = shannon_diversity([9] * (m - 1) + [90])
                assert skewed <= uniform + 1e-12


def test_criterion_3_silhouette_oracle_and_kmeans_invariants():
    with criterion(3, "clustering oracle", budget_s=30.0):
        rng = np.random.default_rng(3)
        n = 200
        checked = 0
        for ds in range(5):
            spec = SynthSpec(seed=300 + ds, n_cells=n, k_true=4, noise_sigma=2.0)
            values, _ = planted_stack(spec)
            flat = values.reshape(n, -1)
            for _ in range(10):
                k = int(rng.integers(2, 7))
                labels = rng.integers(1, k + 1, size=n)
                labels[:k] = np.arange(1, k + 1)
                impl = silhouette(values, labels)
                oracle = silhouette_oracle(flat, labels)
                assert abs(impl - oracle) <= 1e-9
                assert -1.0 <= impl <= 1.0
                checked += 1
            for k, seed in ((3, 0), (5, 1)):
                model = kmeans(values, k, seed=seed)
                centroids = model.centroids.reshape(k, -1)
                d2 = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
                assert np.array_equal(d2.argmin(axis=1) + 1, model.labels)
                for lab in range(1, k + 1):
                    members = flat[model.labels == lab]
                    assert_allclose(centroids[lab - 1], members.mean(axis=0),
                                    rtol=1e-9, atol=1e-12)
        assert checked == 50


def test_criterion_4_planted_recovery_selects_k3():
    with criterion(4, "planted-recovery k selection", budget_s=60.0):
        for seed in range(10):
            spec = SynthSpec(seed=1000 + seed, n_cells=300, k_true=3, noise_sigma=2.0)
            assert spec.separation_ratio() >= 10
            truth = generate(spec)
            tensor = build_signatures(
                truth.traffic, truth.service_taxonomy, truth.region, spec.day_type
            )
            rr = relative_risk(tensor)
            model, report = select_k(rr, k_min=3, k_max=10, seed=seed, restarts=10)
            assert report.chosen_k == 3, f"seed {seed}: chose k={report.chosen_k}"
            ari = adjusted_rand_index(model.labels, truth.archetype_of)
            assert ari == 1.0, f"seed {seed}: ARI {ari}"


def test_criterion_5_gradient_checks_and_convexity():
    with criterion(5, "regression gradient and convexity", budget_s=30.0):
        rng = np.random.default_rng(5)
        n, p, c = 50, 12, 3
        for _ in range(20):
            X = rng.standard_normal((n, p))
            y = np.concatenate([np.arange(1, c + 1), rng.integers(1, c + 1, size=n - c)])
            weights = rng.standard_normal((c, p)) * 0.6
            intercepts = rng.standard_normal(c) * 0.6
            for lam in (0.0, 0.1, 1.0, 10.0):
                model = MultinomialLogit(
                    classes=(1, 2, 3), weights=weights, intercepts=intercepts,
                    lam=lam, covariates=tuple(f"x{j}" for j in range(p)),
                )
                err = gradient_check(model, X, y)
                assert err < 1e-5, f"gradient check {err} at lambda={lam}"

        for trial in range(3):
            X = rng.standard_normal((n, p))
            y = np.concatenate([np.arange(1, c + 1), rng.integers(1, c + 1, size=n - c)])
            a = fit(X, y, lam=1.0)
            b = fit(X, y, lam=1.0,
                    init=(rng.standard_normal((c, p)), rng.standard_normal(c)))
            assert a.converged and b.converged
            assert abs(a.final_loss - b.final_loss) <= 1e-6
            assert np.array_equal(predict(a, X), predict(b, X))


def _metrics_oracle(y_true, y_pred, classes):
    """Confusion-matrix-first metrics, independent of evaluate(); each sum of
    per-class terms is correctly rounded (math.fsum), as evaluate() sums them."""
    index = {cls: i for i, cls in enumerate(classes)}
    c = len(classes)
    m = [[0] * c for _ in range(c)]
    for t, p in zip(y_true, y_pred):
        m[index[t]][index[p]] += 1
    n = len(y_true)
    acc = sum(m[i][i] for i in range(c)) / n
    f1s = []
    weighted = []
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


def test_criterion_6_metrics_match_enumeration_oracle():
    with criterion(6, "metrics oracle", budget_s=60.0):
        classes = [1, 2, 3]
        cases = 0
        for length in (1, 2, 3, 4):
            for y in itertools.product(classes, repeat=length):
                for p in itertools.product(classes, repeat=length):
                    report = evaluate(list(y), list(p), class_set=classes)
                    acc, macro, weighted = _metrics_oracle(y, p, classes)
                    assert report.accuracy == acc
                    assert report.macro_f1 == macro
                    assert report.weighted_f1 == weighted
                    cases += 1
        assert cases == 9 + 81 + 729 + 6561

        rng = np.random.default_rng(6)
        equal_support_checked = 0
        for _ in range(100_000):
            length = int(rng.integers(5, 7))
            y = rng.integers(1, 4, size=length).tolist()
            p = rng.integers(1, 4, size=length).tolist()
            report = evaluate(y, p, class_set=classes)
            acc, macro, weighted = _metrics_oracle(y, p, classes)
            assert report.accuracy == acc
            assert report.macro_f1 == macro
            assert report.weighted_f1 == weighted
            if sorted(y) == [1, 1, 2, 2, 3, 3]:
                assert abs(report.weighted_f1 - report.macro_f1) <= 1e-12
                equal_support_checked += 1
        assert equal_support_checked > 1000


def test_criterion_7_coefficient_sign_recovery():
    with criterion(7, "coefficient-sign recovery", budget_s=120.0):
        passes = 0
        for seed in range(10):
            intensity = np.array([
                [0.05] * 5,   # archetype 1: almost no third places
                [2.0] * 5,    # archetype 2: moderate
                [8.0] * 5,    # archetype 3: dense and diverse
            ])
            spec = SynthSpec(seed=2000 + seed, n_cells=240, k_true=3,
                             noise_sigma=2.0, poi_intensity=intensity)
            truth = generate(spec)
            tensor = build_signatures(
                truth.traffic, truth.service_taxonomy, truth.region, spec.day_type
            )
            rr = relative_risk(tensor)
            model = kmeans(rr, 3, seed=seed)
            if adjusted_rand_index(model.labels, truth.archetype_of) != 1.0:
                continue  # cannot map clusters onto the plant; count as a failure
            # archetype -> recovered cluster label (bijective at ARI 1)
            label_of = {}
            for arch, lab in zip(truth.archetype_of, model.labels):
                label_of[int(arch)] = int(lab)
            pois = filter_rare_labels(truth.pois, 10)
            table = build_features(pois, truth.place_taxonomy, truth.region,
                                   cells=rr.cells)
            z = standardize(table)
            logit = fit(z.values, model.labels, lam=1.0, covariates=z.columns)
            col = z.columns.index("total_diversity")
            coef_hi = logit.weights[logit.classes.index(label_of[3]), col]
            coef_lo = logit.weights[logit.classes.index(label_of[1]), col]
            if coef_hi > 0 and coef_lo < 0:
                passes += 1
        print(f"  sign test: {passes}/10 seeds")
        assert passes >= 9


def test_criterion_8_paris_geometry():
    with criterion(8, "declared-area geometry", budget_s=1.0):
        n_cells, n_cols = 81731, 300
        cells = frozenset(CellId(i % n_cols, i // n_cols) for i in range(n_cells))
        grid = GridSpec(0, 0, n_cols, (n_cells + n_cols - 1) // n_cols, 100.0, "paris")
        report = check_region_consistency(CityRegion(grid, cells, 816.26))
        assert report.passed
        assert report.relative_error <= 0.01
        expected = abs(81731 * 0.01 - 816.26) / 816.26  # about 0.13%
        assert report.relative_error == pytest.approx(expected, rel=1e-9)
        assert round(report.relative_error * 100, 2) == 0.13


def test_criterion_9_manifest_reproducibility(tmp_path):
    with criterion(9, "bitwise manifest reproducibility"):
        city = tmp_path / "city"
        spec = SynthSpec(seed=9, n_cells=48, k_true=2, noise_sigma=0.8,
                         region_name="repro")
        write_city(generate(spec), city)
        (city / "pipeline.cfg").write_text(
            "seed = 1\nlevel = local\nday_types = weekday\n"
            "k_min = 2\nk_max = 4\nrestarts = 3\n"
            "service_taxonomy = service_taxonomy.csv\n"
            "third_place_taxonomy = third_places.csv\n\n"
            "[city.repro]\nregion = region.json\ntraffic = traffic.csv\n"
            "pois = pois.csv\ntruth = truth_labels.csv\n"
        )
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["run", "--config", str(city / "pipeline.cfg"),
                     "--out", str(first)]) == 0
        assert main(["run", "--manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0

        def hashes(root: Path) -> dict:
            return {
                str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()
            }

        first_hashes, second_hashes = hashes(first), hashes(second)
        assert first_hashes == second_hashes
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["results"]["repro/weekday"]["ari_vs_truth"] == 1.0
