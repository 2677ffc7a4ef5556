"""Command-line entry points.

Subcommands mirror the pipeline stages (`synth`, `signatures`, `cluster`,
`features`, `fit`, `report`) plus `run`, which chains them; chaining the
individual subcommands by hand produces byte-identical artifacts. Exit
codes: 0 success, 1 usage, 2 data problem, 3 numeric problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import bounds_error, city_name_error, parse_config
from .clustering import read_labels_csv, select_k
from .errors import ConfigError, DataError, MissingInputError, NumericError, VibrancyError
from .errors import is_json, json_field, read_json
from .features import build_features, load_third_place_taxonomy, rare_labels
from .features import export_features_csv, load_features_csv
from .grid import load_region
from .ingest import load_taxonomy, parse_pois
from .logit import coefficient_table, load_logit
from .pipeline import (
    MANIFEST_NAME,
    fit_membership_model,
    read_city_tensors,
    read_manifest,
    run_from_manifest,
    run_pipeline,
    write_cluster_stage,
    write_model_stage,
)
from .signatures import (
    DAY_TYPES,
    DEFAULT_RR_CAP,
    RAW,
    RELATIVE_RISK,
    concat_tensors,
    read_tensor,
    relative_risk,
    write_tensor,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


#: the option of each bounded setting (``config.bounds_error``) by field name
_OPTION_OF = {"seed": "--seed", "restarts": "--restarts", "lam": "--lambda", "rr_cap": "--cap",
              "holdout": "--holdout", "k_min": "--k-min", "k_max": "--k-max"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); our usage code is 1
        raise _UsageError(message)


def _cmd_synth(args) -> int:
    if message := city_name_error(args.name):
        raise _UsageError(f"--name: {message}")
    from .synth import SynthSpec, generate_for_day_types, write_city  # not loaded by `run`

    spec = SynthSpec(
        seed=args.seed,
        n_cells=args.cells,
        k_true=args.k_true,
        categories=tuple(f"cat{i:02d}" for i in range(args.categories)),
        noise_sigma=args.sigma,
        n_days=args.days,
        region_name=args.name,
    )
    truth = generate_for_day_types(spec, args.day_types)
    out = Path(args.out)
    paths = write_city(truth, out)
    day_types = ", ".join(args.day_types)
    config_text = (
        f"seed = {args.seed}\n"
        "level = local\n"
        f"day_types = {day_types}\n"
        "k_min = 3\nk_max = 10\nrestarts = 10\nlambda = 1.0\n"
        "service_taxonomy = service_taxonomy.csv\n"
        "third_place_taxonomy = third_places.csv\n\n"
        f"[city.{args.name}]\n"
        "region = region.json\ntraffic = traffic.csv\npois = pois.csv\n"
        "truth = truth_labels.csv\n"
    )
    cfg_path = out / "pipeline.cfg"
    cfg_path.write_text(config_text, encoding="utf-8")
    print(f"wrote synthetic city ({spec.n_cells} cells, k_true={spec.k_true}) to {out}")
    for key, path in paths.items():
        print(f"  {key}: {path}")
    print(f"  config: {cfg_path}")
    return EXIT_OK


def _cmd_signatures(args) -> int:
    region = load_region(args.region)
    taxonomy = load_taxonomy(args.service_taxonomy)
    raw, _, _ = read_city_tensors(
        region,
        args.traffic,
        taxonomy,
        [args.day_type],
        taxonomy_path=args.service_taxonomy,
        mean_per_day=args.mean_per_day,
        drop_silent=args.drop_silent_cells,
        segment_name=args.segment_name,
    )
    tensor = raw[args.day_type]
    write_tensor(tensor, args.out_raw)
    print(f"signature tensor: {tensor.n} cells x 12 bins x {len(tensor.categories)} categories")
    if args.out_rr:
        rr = relative_risk(tensor, cap=args.rr_cap)
        write_tensor(rr, args.out_rr)
        print(f"relative risk written ({len(rr.capped_columns)} capped columns)")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.rr:
        rr = read_tensor(args.rr)
        if rr.kind != RELATIVE_RISK:
            raise DataError(f"{args.rr} is a raw tensor; pass it with --raw instead")
    else:
        raws = [read_tensor(p) for p in args.raw]
        for path, raw in zip(args.raw, raws):
            if raw.kind != RAW:
                raise DataError(f"{path} is a relative-risk tensor; pass it with --rr instead")
        combined = concat_tensors(raws) if len(raws) > 1 else raws[0]
        rr = relative_risk(combined, cap=args.rr_cap)
        write_tensor(rr, out / "signatures_rr.sig")
    model, report = select_k(rr, k_min=args.k_min, k_max=args.k_max, seed=args.seed,
                             restarts=args.restarts)
    write_cluster_stage(lambda rel, writer: writer(out / rel), rr, model, report)
    print(f"chosen k = {model.k} (silhouette {report.scores[report.chosen_k]:.4f})")
    sizes = model.sizes()
    print("cluster sizes: " + ", ".join(f"{k}: {sizes[k]}" for k in sorted(sizes)))
    if report.tie_break_note:
        print(report.tie_break_note)
    return EXIT_OK


def _cmd_features(args) -> int:
    region = load_region(args.region)
    taxonomy = load_third_place_taxonomy(args.third_places)
    pois, report = parse_pois(args.pois)
    report.require_accepted(args.pois, "POI")
    corpus = list(pois)
    for extra in args.pool_pois or []:
        extra_pois, report = parse_pois(extra)
        report.require_accepted(extra, "POI")
        corpus.extend(extra_pois)
    rare = rare_labels(corpus, args.min_count)
    kept = [p for p in pois if p.label not in rare]
    cells = list(read_labels_csv(args.cells_from, grid=region.grid)) if args.cells_from else None
    table = build_features(kept, taxonomy, region, cells=cells)
    export_features_csv(table, args.out)
    nonzero = int((table.values[:, 0] > 0).sum())
    print(f"features for {table.n} cells written ({nonzero} cells hold third places)")
    return EXIT_OK


def _labels_for(cells, path) -> np.ndarray:
    """The labels file's clusters in the order of ``cells``."""
    by_cell = read_labels_csv(path)
    try:
        return np.array([by_cell[c] for c in cells], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"labels file {path} is missing cell {exc}") from exc


def _cmd_fit(args) -> int:
    if len(args.features) != len(args.labels):
        raise DataError("--features and --labels must be paired")
    tables = [load_features_csv(p) for p in args.features]
    label_vectors = [_labels_for(t.cells, p) for t, p in zip(tables, args.labels)]
    model, metrics, extra = fit_membership_model(
        tables,
        label_vectors,
        lam=args.lam,
        holdout=args.holdout,
        seed=args.seed,
        standardize_covariates=not args.no_standardize,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_model_stage(lambda rel, writer: writer(out / rel), model, metrics, extra)
    print(
        f"fit on {extra['n_train']} rows: accuracy {metrics.accuracy:.4f}, "
        f"macro F1 {metrics.macro_f1:.4f}, weighted F1 {metrics.weighted_f1:.4f}"
    )
    if not model.converged:
        print(f"warning: the model fit stopped after {model.n_iter} Newton steps with "
              f"gradient norm {model.final_grad_norm:.3g}, above the tolerance",
              file=sys.stderr)
    return EXIT_OK


def _cmd_run(args) -> int:
    out = args.out
    given = {name: getattr(args, name) for name in args.overrides
             if getattr(args, name) is not None}
    options = ", ".join(args.overrides[name] for name in given)
    if args.manifest:
        if given:
            raise _UsageError(f"--manifest reruns its recorded config; drop {options}")
        manifest = run_from_manifest(args.manifest, out)
    else:
        config = parse_config(args.config)  # validated, so a failure below is an option's
        for name, value in given.items():
            setattr(config, name, value)
        try:
            config.validate()
        except ConfigError as exc:
            raise _UsageError(f"{options}: {exc}") from None
        try:
            manifest = run_pipeline(config, out)
        except MissingInputError as exc:  # the config holds the path to mend
            raise MissingInputError(f"{exc} (named in config {args.config})") from None
    print(f"run complete: {len(manifest['artifacts'])} artifacts in {out}")
    for scope in sorted(manifest["results"]):
        r = manifest["results"][scope]
        ari = f", ARI vs truth {r['ari_vs_truth']:.3f}" if "ari_vs_truth" in r else ""
        print(
            f"  {scope}: k={r['chosen_k']} silhouette={r['silhouette']:.4f} "
            f"accuracy={r['accuracy']:.4f}{ari}"
        )
    return EXIT_OK


def _manifest_field(manifest: dict, path, keys: tuple, kind):
    """``_lookup(manifest, *keys)`` if it is a JSON ``kind``; a missing key or
    another type is a ``DataError`` naming the file and the keys."""
    value = _lookup(manifest, *keys)
    if not is_json(value, kind):
        raise DataError(f"manifest {path}: {'.'.join(keys)} is missing or not of type "
                        f"{kind.__name__}")
    return value


_REPORT_COLUMNS = {"chosen_k": int, "silhouette": float, "accuracy": float,
                   "macro_f1": float, "weighted_f1": float}


def _kselection_scores(path) -> list[tuple[int, float]]:
    """The silhouette score of each k in a ``kselection.json``, by k; an
    unreadable file or one without a ``scores`` object of numbers keyed by
    integer k is a ``DataError`` naming the file."""
    doc = read_json(path, "k-selection file")
    scores = _lookup(doc, "scores")
    if not is_json(scores, dict):
        raise DataError(f"{path} has no scores object")
    try:
        return sorted((int(k), json_field(scores, k, float)) for k in scores)
    except (TypeError, ValueError) as exc:  # a key that is not an integer k, a bad score
        raise DataError(f"{path}: scores has a bad entry ({exc})") from None


def _lookup(doc, *keys):
    """``doc[keys[0]][keys[1]]...``, or None where a key is missing or a level
    is not an object."""
    for key in keys:
        doc = doc.get(key) if is_json(doc, dict) else None
    return doc


def _quality_lines(scope: str, quality) -> list[str]:
    """The report lines of one scope's ``quality`` object. Each fact is
    printed if the manifest holds it in the form a run writes, and skipped
    otherwise, so an older or edited manifest still shows the rest."""
    lines = []
    cities = _lookup(quality, "cities")
    for city in sorted(cities) if is_json(cities, dict) else ():
        for kind, what in (("traffic", "traffic rows"), ("pois", "POI rows")):
            accepted = _lookup(cities, city, kind, "accepted")
            rejected = _lookup(cities, city, kind, "rejected")
            parts = [f"{accepted} accepted"] if is_json(accepted, int) else []
            if is_json(rejected, dict):
                reasons = sorted((r, n) for r, n in rejected.items() if is_json(n, int))
                by_reason = ", ".join(f"{n} {r}" for r, n in reasons)
                parts.append(f"{sum(n for _, n in reasons)} rejected"
                             + (f" ({by_reason})" if by_reason else ""))
            if parts:
                lines.append(f"  {city} {what}: {', '.join(parts)}")
        left_out = [f"{n} {what}" for key, what in (("other_day_type", "of another day type"),
                                                   ("outside_region", "outside the region"))
                    if is_json(n := _lookup(cities, city, "traffic", key), int)]
        if left_out:
            lines.append(f"  {city} traffic rows left out of the tensor: {', '.join(left_out)}")
        silent = _lookup(cities, city, "silent_cells_dropped")
        if is_json(silent, int):
            lines.append(f"  {city} silent cells dropped: {silent}")
    capped = _lookup(quality, "capped_columns")
    if is_json(capped, int):
        lines.append(f"  capped relative-risk columns: {capped}")
    unconverged = _lookup(quality, "kmeans", "unconverged_restarts")
    if is_json(unconverged, int):
        lines.append(f"  k-means unconverged restarts: {unconverged}")
    logit = []
    converged = _lookup(quality, "logit", "converged")
    if is_json(converged, bool):
        logit.append("converged" if converged else "not converged")
    n_iter = _lookup(quality, "logit", "n_iter")
    if is_json(n_iter, int):
        logit.append(f"{n_iter} iterations")
    if logit:
        lines.append(f"  logit: {', '.join(logit)}")
    without_truth = _lookup(quality, "cells_without_truth")
    if is_json(without_truth, int):
        lines.append(f"  cells without a planted label: {without_truth}"
                     + (" (no ARI vs truth)" if without_truth else ""))
    rare = _lookup(quality, "rare_labels")
    if is_json(rare, dict):
        counts = ", ".join(f"{label} {n}" for label, n in sorted(rare.items()) if is_json(n, int))
        lines.append(f"  rare POI labels removed: {counts or 'none'}")
    return [f"\nquality [{scope}]:"] + lines if lines else []


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    path = run_dir / MANIFEST_NAME
    manifest = read_manifest(path)
    package = _manifest_field(manifest, path, ("environment", "package"), str)
    seed = _manifest_field(manifest, path, ("config", "seed"), int)
    level = _manifest_field(manifest, path, ("config", "level"), str)
    scopes = sorted(_manifest_field(manifest, path, ("results",), dict))
    rows = [[_manifest_field(manifest, path, ("results", scope, column), kind)
             for column, kind in _REPORT_COLUMNS.items()] for scope in scopes]
    quality = manifest.get("quality")
    details = []  # every scope file is read before anything is printed
    for scope in scopes:
        details.extend(_quality_lines(scope, _lookup(quality, scope)))
        ksel_path = run_dir / scope / "kselection.json"
        if ksel_path.is_file():
            scores = ", ".join(f"k={k}: {v:.4f}" for k, v in _kselection_scores(ksel_path))
            details.append(f"\nsilhouette by k [{scope}]: {scores}")
        model_path = run_dir / scope / "model.json"
        if model_path.is_file():
            header, coef_rows = coefficient_table(load_logit(model_path))
            details.append(f"coefficients [{scope}]:")
            details.append("  " + header[0].ljust(34) + "".join(p.rjust(11) for p in header[1:]))
            details.extend("  " + name.ljust(34) + "".join(f"{v:>11.4f}" for v in values)
                           for name, *values in coef_rows)
    print(f"run of {package} (seed {seed}, level {level})")
    print(f"{'scope':<24}{'k':>3}{'silhouette':>12}{'accuracy':>10}{'macroF1':>9}{'wF1':>7}")
    for scope, (k, sil, accuracy, macro_f1, weighted_f1) in zip(scopes, rows):
        print(f"{scope:<24}{k:>3}{sil:>12.4f}{accuracy:>10.4f}{macro_f1:>9.4f}{weighted_f1:>7.4f}")
    for line in details:
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vibrancy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic city with planted archetypes")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cells", type=int, default=120)
    p.add_argument("--k-true", type=int, default=3)
    p.add_argument("--categories", type=int, default=4)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--name", default="synthcity")
    p.add_argument("--day-types", default=["weekday"], nargs="+", choices=DAY_TYPES)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("signatures", help="build a signature tensor from traffic CSV")
    p.add_argument("--region", required=True)
    p.add_argument("--traffic", required=True)
    p.add_argument("--service-taxonomy", required=True)
    p.add_argument("--day-type", required=True, choices=DAY_TYPES)
    p.add_argument("--segment-name", default=None)
    p.add_argument("--mean-per-day", action="store_true")
    p.add_argument("--drop-silent-cells", action="store_true")
    p.add_argument("--cap", dest="rr_cap", type=float, default=DEFAULT_RR_CAP)
    p.add_argument("--out-raw", required=True)
    p.add_argument("--out-rr")
    p.set_defaults(func=_cmd_signatures)

    p = sub.add_parser("cluster", help="silhouette-selected k-means over a tensor")
    p.add_argument("--rr", help="relative-risk tensor file")
    p.add_argument("--raw", action="append", default=[],
                   help="raw tensor file(s); concatenated then normalized")
    p.add_argument("--cap", dest="rr_cap", type=float, default=DEFAULT_RR_CAP)
    p.add_argument("--k-min", type=int, default=3)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("features", help="third-place covariates per cell from POIs")
    p.add_argument("--region", required=True)
    p.add_argument("--pois", required=True)
    p.add_argument("--third-places", required=True, help="label,category taxonomy CSV")
    p.add_argument("--pool-pois", action="append", default=[],
                   help="extra POI files included in the rare-label count only")
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--cells-from", help="labels CSV fixing the cell rows and order")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("fit", help="fit the cluster-membership model")
    p.add_argument("--features", action="append", required=True)
    p.add_argument("--labels", action="append", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--holdout", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("run", help="execute the full pipeline from a config or manifest")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config")
    src.add_argument("--manifest")
    p.add_argument("--out", required=True)
    # each override's dest is the config field it sets
    overrides = [
        p.add_argument("--seed", type=int),
        p.add_argument("--lambda", dest="lam", type=float),
        p.add_argument("--k-min", type=int),
        p.add_argument("--k-max", type=int),
        p.add_argument("--restarts", type=int),
        p.add_argument("--level", choices=("local", "global")),
        p.add_argument("--day-type", dest="day_types", action="append", choices=DAY_TYPES),
        p.add_argument("--holdout", type=float),
        p.add_argument("--drop-silent-cells", action="store_true", default=None),
        p.add_argument("--mean-per-day", action="store_true", default=None),
    ]
    p.set_defaults(func=_cmd_run, overrides={a.dest: a.option_strings[0] for a in overrides})

    p = sub.add_parser("report", help="re-emit result tables from a finished run")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "cluster" and bool(args.rr) == bool(args.raw):
            raise _UsageError("pass exactly one of --rr or --raw")
        # run checks its options with the config they change
        if args.command != "run" and (message := bounds_error(vars(args), _OPTION_OF.get)):
            raise _UsageError(message)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except VibrancyError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
