"""Run orchestration: ingestion through model fitting, with a manifest.

A run first reads every city, building each requested day type's raw
signature tensor from the city's traffic table and dropping the table. Then
it executes, per requested day type and at the configured spatial level,
the chain signatures -> relative risk -> k selection -> size-ordered labels
-> third-place features -> membership model -> metrics, exporting every
artifact into a run directory. The manifest records the resolved config,
input and artifact hashes, library versions, and headline results; feeding
it back through ``run_from_manifest`` reproduces all artifacts bit for bit
on the same platform.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from ._stream import Stream
from .config import CityConfig, PipelineConfig, config_from_dict, config_to_dict
from .clustering import (
    ClusterModel,
    KSelectionReport,
    export_labels_csv,
    export_labels_geojson,
    read_labels_csv,
    select_k,
    write_model,
)
from .errors import ConfigError, DataError, UnknownServiceError, VibrancyError, read_json
from .features import (
    FeatureTable,
    build_features,
    export_features_csv,
    load_third_place_taxonomy,
    rare_labels,
    standardize,
)
from .grid import CellId, CityRegion, load_region
from .ingest import TrafficTable, load_taxonomy, parse_pois, read_traffic
from .logit import (
    MultinomialLogit,
    evaluate,
    export_coefficients_csv,
    fit,
    predict,
    save_logit,
)
from .signatures import (
    SignatureTensor,
    build_signatures,
    concat_tensors,
    drop_silent_cells,
    relative_risk,
    write_tensor,
)
from .synth import adjusted_rand_index

MANIFEST_NAME = "manifest.json"


# Bytes read per step while hashing a file, so that no file is held whole.
_HASH_CHUNK = 64 * 1024


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    chunk = bytearray(_HASH_CHUNK)
    view = memoryview(chunk)
    with open(path, "rb") as fh:
        while size := fh.readinto(chunk):
            digest.update(view[:size])
    return digest.hexdigest()


@contextmanager
def _stage(name: str):
    """Re-raise stage failures with the stage named, keeping the error class
    (and therefore the CLI exit code) intact."""
    try:
        yield
    except VibrancyError as exc:
        raise type(exc)(f"stage {name!r}: {exc}") from exc


def load_truth_labels(path) -> dict[CellId, int]:
    """Read a planted-truth CSV (col,row,archetype)."""
    return read_labels_csv(path, "archetype")


# ---------------------------------------------------------------------------
# Stage helpers shared by the CLI subcommands (so cmd chaining == `run`)
# ---------------------------------------------------------------------------


def build_city_tensor(
    region: CityRegion,
    traffic: TrafficTable,
    service_taxonomy,
    day_type: str,
    *,
    traffic_path,
    taxonomy_path,
    mean_per_day: bool = False,
    drop_silent: bool = False,
    segment_name: Optional[str] = None,
) -> SignatureTensor:
    """The city's signature tensor; a traffic service missing from the
    taxonomy is an error naming both files."""
    try:
        tensor = build_signatures(traffic, service_taxonomy, region, day_type,
                                  mean_per_day=mean_per_day)
    except UnknownServiceError as exc:
        raise UnknownServiceError(f"{traffic_path}: {exc} {taxonomy_path}") from None
    if drop_silent:
        tensor = drop_silent_cells(tensor)
    if segment_name is not None:
        tensor.segments = [replace(s, name=segment_name) for s in tensor.segments]
    return tensor


def fit_membership_model(
    tables: Sequence[FeatureTable],
    label_vectors: Sequence[np.ndarray],
    *,
    lam: float = 1.0,
    holdout: float = 0.0,
    seed: int = 0,
    standardize_covariates: bool = True,
):
    """Stack (features, labels) pairs, optionally z-score, fit, and evaluate.

    With a holdout fraction the rows are split by a seeded permutation, that
    of ``numpy.random.default_rng(numpy.random.SeedSequence((seed, 7919)))``
    as ``Stream`` draws it; the model trains on the remainder and metrics
    are computed on the held-out rows. Standardization statistics come from
    the full table and are stored on the model.
    """
    if len(tables) != len(label_vectors) or not tables:
        raise DataError("need matching, nonempty feature/label inputs")
    columns = tables[0].columns
    for t in tables:
        if t.columns != columns:
            raise DataError("feature tables disagree on covariate columns")
    cells = [c for t in tables for c in t.cells]
    X_raw = np.concatenate([t.values for t in tables], axis=0)
    y = np.concatenate([np.asarray(v, dtype=np.int64) for v in label_vectors])
    if y.shape[0] != X_raw.shape[0]:
        raise DataError("features and labels differ in row count")

    table = FeatureTable(cells, columns, X_raw)
    standardization = None
    if standardize_covariates:
        table = standardize(table)
        standardization = {
            "columns": list(columns),
            "means": [float(v) for v in table.means],
            "sds": [float(v) for v in table.sds],
        }
    X = table.values

    n = X.shape[0]
    if holdout > 0.0:
        perm = np.array(Stream((seed, 7919)).permutation(n), dtype=np.int64)
        n_eval = int(round(holdout * n))
        eval_idx = np.sort(perm[:n_eval])
        train_idx = np.sort(perm[n_eval:])
        if n_eval == 0:
            eval_idx = train_idx
    else:
        train_idx = np.arange(n)
        eval_idx = train_idx

    model = fit(X[train_idx], y[train_idx], lam=lam, covariates=columns)
    model.standardization = standardization
    y_pred = predict(model, X[eval_idx])
    class_set = sorted(set(model.classes) | set(int(v) for v in y[eval_idx]))
    report = evaluate(y[eval_idx].tolist(), [int(v) for v in y_pred], class_set)
    extra = {
        "n_rows": int(n),
        "n_train": int(train_idx.shape[0]),
        "n_eval": int(eval_idx.shape[0]),
        "holdout": float(holdout),
        "standardized": bool(standardize_covariates),
    }
    return model, report, extra


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def metrics_document(logit_model: MultinomialLogit, metrics, extra: dict) -> dict:
    """Model-stage facts only, so re-running `fit` alone reproduces the file."""
    return {
        "model_converged": logit_model.converged,
        **extra,
        "metrics": metrics.to_dict(),
    }


def _kselection_doc(report: KSelectionReport) -> dict:
    return {
        "scores": {str(k): float(v) for k, v in report.scores.items()},
        "inertias": {str(k): float(v) for k, v in report.inertias.items()},
        "chosen_k": report.chosen_k,
        "tie_break_note": report.tie_break_note,
    }


def write_cluster_stage(emit, rr: SignatureTensor, model: ClusterModel,
                        report: KSelectionReport) -> None:
    """Emit the cluster-stage artifacts: the k selection, the model, and the
    labels of each segment as CSV and GeoJSON (suffixed by segment name when
    the tensor holds several cities)."""
    emit("kselection.json", lambda p: _write_json(_kselection_doc(report), p))
    emit("clusters.bin", lambda p: write_model(model, p))
    multi = len(rr.segments) > 1
    for seg in rr.segments:
        cells = rr.cells[seg.start : seg.stop]
        labels = model.labels[seg.start : seg.stop]
        base = f"labels_{seg.name}" if multi else "labels"
        emit(f"{base}.csv", lambda p, c=cells, v=labels: export_labels_csv(c, v, p))
        emit(f"{base}.geojson",
             lambda p, c=cells, v=labels, g=seg.grid: export_labels_geojson(c, v, g, p))


def write_model_stage(emit, logit_model: MultinomialLogit, metrics, extra: dict) -> None:
    """Emit the model-stage artifacts: the logit, its coefficients and metrics."""
    emit("model.json", lambda p: save_logit(logit_model, p))
    emit("coefficients.csv", lambda p: export_coefficients_csv(logit_model, p))
    doc = metrics_document(logit_model, metrics, extra)
    emit("metrics.json", lambda p: _write_json(doc, p))


# ---------------------------------------------------------------------------
# The full run
# ---------------------------------------------------------------------------


class _CityData:
    """One city after ingest: its region, the raw tensor of each configured
    day type, its POIs and its parse reports. The traffic table each tensor
    is built from is gone before the next city is read, so a run holds
    O(cells x 12 x D) per city and day type, not its traffic rows."""

    def __init__(self, cfg: CityConfig, config: PipelineConfig, service_tax):
        self.name = cfg.name
        self.region = load_region(cfg.region)
        traffic, self.traffic_report = read_traffic(cfg.traffic, self.region.grid)
        self.traffic_report.require_accepted(cfg.traffic, "traffic")
        # day type -> raw tensor; each serves one scope, which takes it out
        self.raw = {
            day_type: build_city_tensor(
                self.region,
                traffic,
                service_tax,
                day_type,
                traffic_path=cfg.traffic,
                taxonomy_path=config.service_taxonomy,
                mean_per_day=config.mean_per_day,
                drop_silent=config.drop_silent_cells,
                segment_name=cfg.name,
            )
            for day_type in config.day_types
        }
        del traffic  # before the POIs are read
        self.pois, self.poi_report = parse_pois(cfg.pois)
        self.poi_report.require_accepted(cfg.pois, "POI")
        self.truth = load_truth_labels(cfg.truth) if cfg.truth else None


def run_pipeline(config: PipelineConfig, out_dir) -> dict:
    """Execute the configured run and return the manifest (also written to disk)."""
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    inputs: dict[str, str] = {}
    with _stage("ingest"):
        for p in [config.service_taxonomy, config.third_place_taxonomy] + [
            q for c in config.cities for q in (c.region, c.traffic, c.pois, c.truth) if q
        ]:
            if not Path(p).is_file():
                raise DataError(f"input file {p} does not exist")
            inputs[str(p)] = file_sha256(p)
        service_tax = load_taxonomy(config.service_taxonomy)
        place_tax = load_third_place_taxonomy(config.third_place_taxonomy)
        cities = [_CityData(c, config, service_tax) for c in config.cities]

    artifacts: list[Path] = []
    quality: dict[str, dict] = {}
    results: dict[str, dict] = {}

    def emit(rel: str, writer) -> None:
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(path)
        artifacts.append(path)

    for day_type in config.day_types:
        if config.level == "local":
            groups = [(f"{city.name}/{day_type}", [city]) for city in cities]
        else:
            groups = [(f"global/{day_type}", cities)]
        for scope, members in groups:
            _run_scope(scope, day_type, config, place_tax, members, emit, quality, results)

    manifest = {
        "format": "vibrancy-run-manifest",
        "version": 1,
        "config": config_to_dict(config),
        "environment": {
            "package": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
        },
        "inputs": dict(sorted(inputs.items())),
        "artifacts": {
            str(p.relative_to(out)): file_sha256(p) for p in sorted(artifacts)
        },
        "quality": quality,
        "results": results,
    }
    _write_json(manifest, out / MANIFEST_NAME)
    return manifest


def _run_scope(scope, day_type, config, place_tax, members, emit, quality, results):
    """One (scope x day_type) pass; members has one city at local level, all at global."""
    multi = len(members) > 1

    def rows_of(city) -> range:
        return rr.segment_rows(city.name)

    def scoped(rel: str, writer) -> None:
        emit(f"{scope}/{rel}", writer)

    with _stage("signatures"):
        raws = []
        for city in members:
            raw = city.raw.pop(day_type)
            raws.append(raw)
            name = f"signatures_raw_{city.name}.sig" if multi else "signatures_raw.sig"
            emit(f"{scope}/{name}", lambda p, t=raw: write_tensor(t, p))
        combined = concat_tensors(raws) if multi else raws[0]
        rr = relative_risk(combined, cap=config.rr_cap)
        emit(f"{scope}/signatures_rr.sig", lambda p: write_tensor(rr, p))
        quality[scope] = {
            "capped_columns": len(rr.capped_columns),
            "cities": {city.name: {"traffic": city.traffic_report.counts(),
                                   "pois": city.poi_report.counts()} for city in members},
        }

    with _stage("clustering"):
        model, report = select_k(rr, k_min=config.k_min, k_max=config.k_max,
                                 seed=config.seed, restarts=config.restarts)
        write_cluster_stage(scoped, rr, model, report)
        quality[scope]["kmeans"] = {
            "n_iter": {str(k): v for k, v in report.n_iter.items()},
            "converged": {str(k): v for k, v in report.converged.items()},
            "unconverged_restarts": report.unconverged_restarts,
        }

    with _stage("features"):
        rare = rare_labels([poi for city in members for poi in city.pois],
                           config.min_label_count)
        quality[scope]["rare_labels"] = rare
        tables = []
        for city in members:
            seg_cells = [rr.cells[i] for i in rows_of(city)]
            city_kept = [p for p in city.pois if p.label not in rare]
            table = build_features(city_kept, place_tax, city.region, cells=seg_cells)
            tables.append(table)
            name = f"features_{city.name}.csv" if multi else "features.csv"
            emit(f"{scope}/{name}", lambda p, t=table: export_features_csv(t, p))

    with _stage("model"):
        label_vectors = [model.labels[list(rows_of(city))] for city in members]
        logit_model, metrics, extra = fit_membership_model(
            tables,
            label_vectors,
            lam=config.lam,
            holdout=config.holdout,
            seed=config.seed,
        )
        write_model_stage(scoped, logit_model, metrics, extra)
        quality[scope]["logit"] = {
            "converged": logit_model.converged,
            "n_iter": logit_model.n_iter,
            "final_grad_norm": float(logit_model.final_grad_norm),
        }

    summary = {
        "chosen_k": model.k,
        "silhouette": report.scores[report.chosen_k],
        "cluster_sizes": {str(k): v for k, v in model.sizes().items()},
        "accuracy": metrics.accuracy,
        "macro_f1": metrics.macro_f1,
        "weighted_f1": metrics.weighted_f1,
    }
    if all(city.truth is not None for city in members):
        pairs = [
            (city.truth.get(rr.cells[i]), int(model.labels[i]))
            for city in members
            for i in rows_of(city)
        ]
        if all(planted is not None for planted, _ in pairs):
            found = [f for _, f in pairs]
            summary["ari_vs_truth"] = adjusted_rand_index(found, [p for p, _ in pairs])
    results[scope] = summary


def read_manifest(path) -> dict:
    doc = read_json(path, "manifest")
    if not isinstance(doc, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    if doc.get("format") != "vibrancy-run-manifest":
        raise DataError(f"{path} is not a run manifest")
    if not isinstance(doc.get("config"), dict):
        raise DataError(f"manifest {path} has no config object")
    return doc


def run_from_manifest(manifest_path, out_dir, verify_inputs: bool = True) -> dict:
    """Re-execute a run from its manifest; inputs are hash-checked first."""
    doc = read_manifest(manifest_path)
    try:
        config = config_from_dict(doc["config"])
    except ConfigError as exc:
        raise ConfigError(f"manifest {manifest_path}: {exc}") from None
    if verify_inputs:
        for path, digest in doc.get("inputs", {}).items():
            if not Path(path).is_file():
                raise DataError(f"manifest input {path} is missing")
            if file_sha256(path) != digest:
                raise DataError(f"manifest input {path} changed since the recorded run")
    return run_pipeline(config, out_dir)
