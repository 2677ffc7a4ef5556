"""Traced replay of `vibrancy run`, built only from the package's public calls.

It makes the calls `pipeline.run_pipeline` makes, in the same order, and
records a span around each one, so the per-layer numbers come from outside
the program. The artifacts it writes must hash to the untraced run's
manifest, which shows the replay did the same work. After the replay,
`select_k` is repeated from its public parts (`kmeans` with `restart_seed`,
then `silhouette`) on each scope's tensor, to split k-means time from
silhouette time; those scores must match the recorded `kselection.json`.

Usage: python3 replay.py --config CFG --out DIR --spans OUT.json
(with the package's `src` directory on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from vibrancy.clustering import (
    export_labels_csv,
    export_labels_geojson,
    kmeans,
    relabel_by_size,
    restart_seed,
    select_k,
    silhouette,
    write_model,
)
from vibrancy.config import parse_config
from vibrancy.features import (
    build_features,
    export_features_csv,
    filter_rare_labels,
    load_third_place_taxonomy,
)
from vibrancy.grid import load_region
from vibrancy.ingest import load_taxonomy, parse_pois, parse_traffic
from vibrancy.logit import export_coefficients_csv, save_logit
from vibrancy.pipeline import (
    file_sha256,
    fit_membership_model,
    load_truth_labels,
    metrics_document,
)
from vibrancy.signatures import (
    TensorSegment,
    build_signatures,
    concat_tensors,
    drop_silent_cells,
    relative_risk,
    write_tensor,
)
from vibrancy.synth import adjusted_rand_index

from spans import Tracer


def _write_json(doc: dict, path: Path) -> None:
    # same layout as the pipeline's own JSON artifacts
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


class City:
    def __init__(self, cfg, tr: Tracer):
        self.name = cfg.name
        self.traffic_path = cfg.traffic
        with tr.span("ingest.load_region"):
            self.region = load_region(cfg.region)
        with tr.span("ingest.parse_pois"):
            self.pois, _ = parse_pois(cfg.pois)
        with tr.span("pipeline.load_truth_labels"):
            self.truth = load_truth_labels(cfg.truth) if cfg.truth else None


def replay(config_path: Path, out: Path, tr: Tracer):
    """Run the configured pipeline under spans; return the config, the
    artifact hashes and the relative-risk tensor of each scope."""
    artifacts: list[Path] = []
    tensors: dict = {}

    def emit(rel: str, writer) -> None:
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(path)
        artifacts.append(path)

    with tr.span("pipeline.run"):
        config = parse_config(config_path)
        config.validate()
        out.mkdir(parents=True, exist_ok=True)
        with tr.span("pipeline.hash"):
            for c in config.cities:
                for p in (c.region, c.traffic, c.pois, c.truth):
                    if p:
                        file_sha256(p)
            file_sha256(config.service_taxonomy)
            file_sha256(config.third_place_taxonomy)
        with tr.span("ingest.load_taxonomy"):
            service_tax = load_taxonomy(config.service_taxonomy)
        with tr.span("features.load_third_place_taxonomy"):
            place_tax = load_third_place_taxonomy(config.third_place_taxonomy)
        cities = [City(c, tr) for c in config.cities]
        for day_type in config.day_types:
            if config.level == "local":
                groups = [(f"{c.name}/{day_type}", [c]) for c in cities]
            else:
                groups = [(f"global/{day_type}", cities)]
            for scope, members in groups:
                with tr.span("pipeline.scope"):
                    tensors[scope] = _scope(scope, day_type, config, service_tax, place_tax,
                                            members, emit, tr)
                tr.add("pipeline.scopes", 1)
        with tr.span("pipeline.hash"):
            hashes = {str(p.relative_to(out)): file_sha256(p) for p in sorted(artifacts)}
    tr.add("pipeline.artifacts", len(artifacts))
    tr.add("pipeline.artifact_bytes", sum(p.stat().st_size for p in artifacts))
    return config, hashes, tensors


def _scope(scope, day_type, config, service_tax, place_tax, members, emit, tr: Tracer):
    multi = len(members) > 1
    raws = []
    for city in members:
        with tr.span("ingest.parse_traffic"):
            records, report = parse_traffic(city.traffic_path, city.region.grid)
        tr.add("ingest.passes", 1)
        tr.add("ingest.rows", report.total_lines)
        tr.add("ingest.rows_rejected", report.rejected)
        tr.peak("ingest.records_held", len(records))
        with tr.span("signatures.build_signatures"):
            raw = build_signatures(records, service_tax, city.region, day_type,
                                   mean_per_day=config.mean_per_day)
            if config.drop_silent_cells:
                raw = drop_silent_cells(raw)
            raw.segments = [TensorSegment(city.name, s.grid, s.start, s.stop)
                            for s in raw.segments]
        del records
        raws.append(raw)
        name = f"signatures_raw_{city.name}.sig" if multi else "signatures_raw.sig"
        with tr.span("signatures.write"):
            emit(f"{scope}/{name}", lambda p, t=raw: write_tensor(t, p))
    with tr.span("signatures.concat_tensors"):
        combined = concat_tensors(raws) if multi else raws[0]
    with tr.span("signatures.relative_risk"):
        rr = relative_risk(combined, cap=config.rr_cap)
    with tr.span("signatures.write"):
        emit(f"{scope}/signatures_rr.sig", lambda p: write_tensor(rr, p))

    with tr.span("clustering.select_k"):
        model, report = select_k(rr, k_min=config.k_min, k_max=config.k_max,
                                 seed=config.seed, restarts=config.restarts)
    with tr.span("clustering.relabel_by_size"):
        model = relabel_by_size(model)
    with tr.span("clustering.write"):
        emit(f"{scope}/kselection.json", lambda p: _write_json(_kselection_doc(
            report.scores, report.inertias, report.chosen_k, report.tie_break_note), p))
        emit(f"{scope}/clusters.bin", lambda p: write_model(model, p))
        for city in members:
            rows = list(rr.segment_rows(city.name))
            cells = [rr.cells[i] for i in rows]
            labels = model.labels[rows]
            base = f"labels_{city.name}" if multi else "labels"
            emit(f"{scope}/{base}.csv", lambda p: export_labels_csv(cells, labels, p))
            emit(f"{scope}/{base}.geojson",
                 lambda p: export_labels_geojson(cells, labels, city.region.grid, p))

    with tr.span("features.filter_rare_labels"):
        kept = filter_rare_labels([poi for c in members for poi in c.pois],
                                  config.min_label_count)
        kept_labels = {p.label for p in kept}
    tables = []
    for city in members:
        cells = [rr.cells[i] for i in rr.segment_rows(city.name)]
        city_kept = [p for p in city.pois if p.label in kept_labels]
        tr.add("features.pois", len(city_kept))
        with tr.span("features.build_features"):
            table = build_features(city_kept, place_tax, city.region, cells=cells)
        tables.append(table)
        name = f"features_{city.name}.csv" if multi else "features.csv"
        with tr.span("features.write"):
            emit(f"{scope}/{name}", lambda p, t=table: export_features_csv(t, p))

    with tr.span("logit.fit_membership_model"):
        label_vectors = [model.labels[list(rr.segment_rows(c.name))] for c in members]
        logit_model, metrics, extra = fit_membership_model(
            tables, label_vectors, lam=config.lam, holdout=config.holdout, seed=config.seed)
    tr.add("logit.n_iter", logit_model.n_iter)
    tr.peak("logit.final_grad_norm", logit_model.final_grad_norm)
    with tr.span("logit.write"):
        emit(f"{scope}/model.json", lambda p: save_logit(logit_model, p))
        emit(f"{scope}/coefficients.csv", lambda p: export_coefficients_csv(logit_model, p))
        doc = metrics_document(logit_model, metrics, extra)
        emit(f"{scope}/metrics.json", lambda p: _write_json(doc, p))

    with tr.span("pipeline.summary"):
        if all(c.truth is not None for c in members):
            found, planted = [], []
            for c in members:
                for i in rr.segment_rows(c.name):
                    if rr.cells[i] in c.truth:
                        found.append(int(model.labels[i]))
                        planted.append(c.truth[rr.cells[i]])
            adjusted_rand_index(found, planted)
    return rr


def _kselection_doc(scores, inertias, chosen_k, note="") -> dict:
    return {
        "scores": {str(k): float(v) for k, v in scores.items()},
        "inertias": {str(k): float(v) for k, v in inertias.items()},
        "chosen_k": chosen_k,
        "tie_break_note": note,
    }


def split_select_k(rr, config, tr: Tracer) -> dict:
    """`select_k` redone from its public parts, timing k-means and silhouette
    apart; returns the kselection document the pipeline would write."""
    n, p = rr.values.shape[0], rr.values[0].size
    scores, inertias = {}, {}
    for k in range(config.k_min, config.k_max + 1):
        best = None
        for r in range(config.restarts):
            with tr.span("clustering.kmeans"):
                model = kmeans(rr, k, restart_seed(config.seed, k, r))
            tr.add("clustering.kmeans_calls", 1)
            tr.add("clustering.kmeans_iters", model.n_iter)
            tr.add("clustering.kmeans_unconverged", int(not model.converged))
            if best is None or model.inertia < best.inertia:
                best = model
        with tr.span("clustering.silhouette"):
            scores[k] = silhouette(rr, best.labels)
        tr.add("clustering.silhouette_calls", 1)
        # the difference block silhouette materialises: min(n, 4096) x n x p float64
        tr.peak("clustering.silhouette_block_mb", 8 * min(n, 4096) * n * p / 2**20)
        inertias[k] = best.inertia
    top = max(scores.values())
    tied = [k for k in sorted(scores) if scores[k] == top]
    note = f"silhouette tie between k={tied}; smallest k chosen" if len(tied) > 1 else ""
    return _kselection_doc(scores, inertias, tied[0], note)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args()
    tr = Tracer()
    config, hashes, tensors = replay(args.config, args.out, tr)
    splits = {}
    with tr.span("trace.split"):
        for scope, rr in tensors.items():
            splits[scope] = split_select_k(rr, config, tr)
    tr.dump(args.spans, {"artifacts": hashes, "kselection": splits})


if __name__ == "__main__":
    main()
