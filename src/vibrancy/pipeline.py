"""Run orchestration: ingestion through model fitting, with a manifest.

A run first reads every city. Its traffic file is streamed, one batch of
accepted rows at a time, into the raw signature tensor of each requested
day type (``signatures.DayTypeTensors``), so ingest holds 16 bytes per kept
row while the file is read and then only the tensors; no TrafficTable is
built. Then it executes, per requested day type and at the configured
spatial level, the chain signatures -> relative risk -> k selection ->
size-ordered labels -> third-place features -> membership model -> metrics,
exporting every artifact into a run directory. The manifest records the
resolved config, input and artifact hashes, library versions, and headline
results; feeding it back through ``run_from_manifest`` reproduces all
artifacts bit for bit on the same platform.

On Linux a run uses every CPU it may run on, through one fork helper
(``_fork_tasks``): task 0 runs in the calling process, each later task in a
forked worker that sends its result back down a pipe, and any failure
leaves the caller to do the work alone. It has two callers:

- A traffic file of at least twice ``_SPLIT_BYTES`` is read in line-aligned
  byte ranges, one per CPU, whose tensors are merged in file order, with the
  same bits, counts and errors as one process's read (``_read_split``).
- After ingest, the scopes are cut into contiguous groups, one per CPU. This
  process runs the first group; each worker runs one later group, writes
  its artifacts and returns its scopes' quality and results, which are
  merged in scope order. A failed worker's group is run again here, so an
  error is the one a run in one process reports. The run directory and the
  printed summary do not depend on the number of CPUs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import struct
import sys
import warnings
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from random import Random
from typing import Callable, NoReturn, Optional, Sequence

import numpy as np

from . import __version__
from .config import CityConfig, PipelineConfig, config_from_dict, config_to_dict
from .clustering import (
    ClusterModel,
    KSelectionReport,
    adjusted_rand_index,
    export_labels_csv,
    export_labels_geojson,
    read_labels_csv,
    select_k,
    write_model,
)
from .errors import ConfigError, DataError, MissingInputError, UnknownServiceError, VibrancyError
from .errors import is_json, read_json, write_json
from .features import (
    FeatureTable,
    build_features,
    export_features_csv,
    load_third_place_taxonomy,
    rare_labels,
    standardize,
)
from .grid import CellId, CityRegion, load_region
from .ingest import (
    NotPlainError,
    ParseReport,
    line_spans,
    load_taxonomy,
    parse_pois,
    stream_traffic,
)
from .logit import (
    MultinomialLogit,
    evaluate,
    export_coefficients_csv,
    fit,
    predict,
    save_logit,
)
from .signatures import (
    DayTypeTensors,
    SignatureTensor,
    concat_tensors,
    relative_risk,
    write_tensor,
)

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


def read_city_tensors(
    region: CityRegion,
    traffic_path,
    service_taxonomy,
    day_types,
    *,
    taxonomy_path,
    mean_per_day: bool = False,
    drop_silent: bool = False,
    segment_name: Optional[str] = None,
) -> tuple[dict[str, SignatureTensor], dict[str, dict], ParseReport]:
    """Stream a city's traffic file into the raw signature tensor of each day
    type (``DayTypeTensors``): the tensors and the rows and cells each left
    out, by day type, and the parse report. A file without an accepted row,
    and then a traffic service missing from the taxonomy, are errors naming
    the files. A large file is read by several processes (``_read_split``),
    with the same result."""
    new_tensors = partial(DayTypeTensors, service_taxonomy, region, day_types,
                          mean_per_day=mean_per_day)
    read = _read_split(traffic_path, region.grid, new_tensors)
    if read is None:
        tensors = new_tensors()
        report = stream_traffic(traffic_path, region.grid, tensors.add)
    else:
        tensors, report = read
    report.require_accepted(traffic_path, "traffic")
    try:
        raw = tensors.finish(drop_silent=drop_silent, segment_name=segment_name)
    except UnknownServiceError as exc:
        raise UnknownServiceError(f"{traffic_path}: {exc} {taxonomy_path}") from None
    return raw, tensors.dropped, report


def _usable_cpus() -> int:
    """The CPUs this process may run on: the processes a fork helper call
    (``_fork_tasks``) may use. 1 off Linux, where nothing is forked."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


#: bytes of a traffic file that each process reading a part of it gets at least
_SPLIT_BYTES = 3 << 19  # 1.5 MiB


def _read_split(path, grid, new_tensors) -> Optional[tuple[DayTypeTensors, ParseReport]]:
    """A traffic file read in line-aligned byte ranges, one per usable CPU
    (``_usable_cpus``), each at least ``_SPLIT_BYTES``: the first range
    here, each later one in a forked worker (``_range_worker``), each into a
    ``new_tensors()`` merged in file order. The tensors and the report, or
    None if the file is not split or a range is not plain or a worker fails;
    the caller then reads it whole, in one process, and any error comes from
    that read. Every worker is reaped before this returns."""
    if hasattr(path, "read"):  # a text stream is read whole
        return None
    try:
        ranges = min(_usable_cpus(), os.path.getsize(path) // _SPLIT_BYTES)
        spans = line_spans(path, ranges) if ranges > 1 else []
    except OSError:  # left to the read in one process to report
        return None
    if len(spans) < 2:
        return None
    try:
        parts = _fork_tasks([partial(_read_range, path, grid, new_tensors, spans[0])]
                            + [partial(_range_worker, path, grid, new_tensors, span)
                               for span in spans[1:]])
    except (NotPlainError, OSError):
        return None
    if parts is None:
        return None
    report, tensors = parts[0]
    for (part, facts), arrays in parts[1:]:
        report.merge(part)
        tensors.merge(facts, arrays)
    return tensors, report


def _read_range(path, grid, new_tensors, span) -> tuple[ParseReport, DayTypeTensors]:
    tensors = new_tensors()
    return stream_traffic(path, grid, tensors.add, span=span), tensors


def _range_worker(path, grid, new_tensors, span) -> tuple[tuple[ParseReport, dict], list]:
    """A forked worker's part of ``_read_split``: the report of ``span``
    and what its tensors kept, then the kept arrays."""
    report, tensors = _read_range(path, grid, new_tensors, span)
    facts, arrays = tensors.kept()
    return (report, facts), arrays


def _fork_tasks(tasks: Sequence[Callable[[], object]]) -> Optional[list]:
    """Run ``tasks[0]`` in this process and each later task in a worker
    forked first (``_work``), whose task returns a picklable head and a list
    of one-dimensional arrays. Task 0's return value, then each worker's
    head and arrays (``_receive``), in task order; or None if a pipe or a
    fork fails (then no task has run) or a worker fails (then task 0 has
    run). An exception of task 0 is raised here. Every worker that has not
    finished is killed, and every worker is reaped, before this returns or
    raises."""
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe), in task order
    received = []
    try:
        for task in tasks[1:]:
            try:
                read_end, write_end = os.pipe()
            except OSError:
                return None
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns of a fork in a process with (BLAS)
                    # threads; OpenBLAS stops its threads around a fork, and a
                    # worker ends in os._exit
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                return None
            if pid == 0:
                _work(task, write_end, [*(fd for _, fd in workers), read_end])
            os.close(write_end)
            workers.append((pid, read_end))
        own = tasks[0]()
        try:
            for _, read_end in workers:
                received.append(_receive(read_end))
        except (EOFError, OSError):
            return None
    finally:
        failed = False
        for i, (pid, read_end) in enumerate(workers):
            os.close(read_end)
            if i >= len(received):
                os.kill(pid, signal.SIGKILL)
            failed |= os.waitpid(pid, 0)[1] != 0
    return None if failed else [own, *received]


def _work(task, out: int, inherited: list[int]) -> NoReturn:
    """In a forked worker: close the pipe read ends it inherited, so that a
    write fails once the parent is gone instead of blocking for good; run
    ``task`` and write to the pipe end ``out`` the pickled head and the
    arrays' types and lengths behind the pickle's length, then the arrays'
    raw bytes. Exit 0 once all is written, 1 on any failure, without a
    word."""
    code = 1
    try:
        for read_end in inherited:
            os.close(read_end)
        head, arrays = task()
        frame = pickle.dumps((head, [(np.asarray(a).dtype.str, len(a)) for a in arrays]))
        with open(out, "wb") as pipe:
            pipe.write(struct.pack("<Q", len(frame)) + frame)
            for a in arrays:
                pipe.write(a)
        code = 0
    finally:
        os._exit(code)


def _receive(read_end: int) -> tuple[object, list[np.ndarray]]:
    """What ``_work`` wrote: the head and each array, read into place; an
    EOFError if the pipe ends short."""
    with open(read_end, "rb", closefd=False) as pipe:
        def read_into(buffer) -> None:
            if pipe.readinto(buffer) != len(buffer):
                raise EOFError("a worker's pipe ended early")

        size = bytearray(8)
        read_into(size)
        frame = bytearray(struct.unpack("<Q", size)[0])
        read_into(frame)
        head, shapes = pickle.loads(frame)
        arrays = [np.empty(n, dtype) for dtype, n in shapes]
        for a in arrays:
            read_into(memoryview(a).cast("B"))
    return head, arrays


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

    With a holdout fraction the rows are split by a seeded permutation: row
    i takes the i-th ``random()`` of ``Random("<seed> 7919")``, the rows
    are ordered by those draws (stably) and the first ``round(holdout * n)``
    are held out. The model trains on the remainder and metrics are
    computed on the held-out rows. Standardization statistics come from
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
        rng = Random(f"{seed} 7919")
        perm = np.argsort([rng.random() for _ in range(n)], kind="stable")
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
    emit("kselection.json", lambda p: write_json(p, _kselection_doc(report)))
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
    emit("metrics.json", lambda p: write_json(p, doc))


# ---------------------------------------------------------------------------
# The full run
# ---------------------------------------------------------------------------


class _CityData:
    """One city after ingest: its region, the raw tensor of each configured
    day type with the rows and cells each left out, its POIs and its parse
    reports. Traffic rows are streamed into the tensors a batch at a time,
    so a run holds O(cells x 12 x D) per city and day type and 16 bytes per
    kept row while the city is read, never a table of its traffic rows."""

    def __init__(self, cfg: CityConfig, config: PipelineConfig, service_tax):
        self.name = cfg.name
        self.region = load_region(cfg.region)
        self.read_traffic = partial(
            read_city_tensors,
            self.region,
            cfg.traffic,
            service_tax,
            config.day_types,
            taxonomy_path=config.service_taxonomy,
            mean_per_day=config.mean_per_day,
            drop_silent=config.drop_silent_cells,
            segment_name=cfg.name,
        )
        # day type -> raw tensor; each serves one scope, which takes it out
        self.raw, self.dropped, self.traffic_report = self.read_traffic()
        self.pois, self.poi_report = parse_pois(cfg.pois)
        self.poi_report.require_accepted(cfg.pois, "POI")
        self.truth = load_truth_labels(cfg.truth) if cfg.truth else None


def run_pipeline(config: PipelineConfig, out_dir) -> dict:
    """Execute the configured run and return the manifest (also written to disk)."""
    config.validate()
    out = Path(out_dir)

    inputs: dict[str, str] = {}
    with _stage("ingest"):
        for p in [config.service_taxonomy, config.third_place_taxonomy] + [
            q for c in config.cities for q in (c.region, c.traffic, c.pois, c.truth) if q
        ]:
            if not Path(p).is_file():
                raise MissingInputError(f"input file {p} does not exist")
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

    scopes = []  # (scope, day type, its cities), in run order
    for day_type in config.day_types:
        if config.level == "local":
            scopes += [(f"{city.name}/{day_type}", day_type, [city]) for city in cities]
        else:
            scopes.append((f"global/{day_type}", day_type, cities))

    def run_scopes(group) -> None:
        for scope, day_type, members in group:
            _run_scope(scope, day_type, config, place_tax, members, emit, quality, results)

    def hand_over(group):  # in a worker, which starts with no scope run
        run_scopes(group)
        return (quality, results, artifacts), []

    def run_first(group) -> None:
        for _, day_type, members in scopes[len(group):]:  # handed over
            for city in members:
                del city.raw[day_type]
        run_scopes(group)

    n = min(_usable_cpus(), len(scopes))
    groups = [scopes[i * len(scopes) // n:(i + 1) * len(scopes) // n] for i in range(n)]
    parts = None if n == 1 else _fork_tasks(
        [partial(run_first, groups[0])] + [partial(hand_over, group) for group in groups[1:]])
    if parts is None:  # one group, or a failed fork or worker: the rest here, in order
        pending = [s for s in scopes if s[0] not in results]
        _read_dropped(pending)
        run_scopes(pending)
    else:
        for (part_quality, part_results, part_artifacts), _ in parts[1:]:
            quality.update(part_quality)
            results.update(part_results)
            artifacts.extend(part_artifacts)

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
    write_json(out / MANIFEST_NAME, manifest)
    return manifest


def _read_dropped(scopes) -> None:
    """Read again each raw tensor that the scopes need and their cities no
    longer hold, once per city."""
    missing: dict[_CityData, list[str]] = {}
    for _, day_type, members in scopes:
        for city in members:
            if day_type not in city.raw:
                missing.setdefault(city, []).append(day_type)
    for city, day_types in missing.items():
        raw = city.read_traffic()[0]
        city.raw.update((day_type, raw[day_type]) for day_type in day_types)


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
        del raws, raw, combined  # written out; clustering needs only rr
        emit(f"{scope}/signatures_rr.sig", lambda p: write_tensor(rr, p))
        quality[scope] = {"capped_columns": len(rr.capped_columns), "cities": {}}
        for city in members:
            dropped = city.dropped[day_type]
            quality[scope]["cities"][city.name] = {
                "traffic": {**city.traffic_report.counts(),
                            "other_day_type": dropped["other_day_type"],
                            "outside_region": dropped["outside_region"]},
                "pois": city.poi_report.counts(),
                "silent_cells_dropped": dropped["silent_cells"],
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
        # the ARI needs a planted label for every cell of the scope
        missing = sum(planted is None for planted, _ in pairs)
        quality[scope]["cells_without_truth"] = missing
        if not missing:
            found = [f for _, f in pairs]
            summary["ari_vs_truth"] = adjusted_rand_index(found, [p for p, _ in pairs])
    results[scope] = summary


def read_manifest(path) -> dict:
    doc = read_json(path, "manifest")
    if not is_json(doc, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    if doc.get("format") != "vibrancy-run-manifest":
        raise DataError(f"{path} is not a run manifest")
    if not is_json(doc.get("config"), dict):
        raise DataError(f"manifest {path} has no config object")
    if not is_json(doc.get("inputs", {}), dict):
        raise DataError(f"manifest {path}: inputs is not an object")
    return doc


def run_from_manifest(manifest_path, out_dir) -> dict:
    """Re-execute a run from its manifest; inputs are hash-checked first."""
    doc = read_manifest(manifest_path)
    try:
        config = config_from_dict(doc["config"])
    except ConfigError as exc:
        raise ConfigError(f"manifest {manifest_path}: {exc}") from None
    for path, digest in doc.get("inputs", {}).items():
        missing = not Path(path).is_file()
        if missing or file_sha256(path) != digest:
            what = "is missing" if missing else "changed since the recorded run"
            raise DataError(f"manifest input {path} {what} "
                            f"(listed in manifest {manifest_path})")
    return run_pipeline(config, out_dir)
