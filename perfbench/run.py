"""Benchmark of `vibrancy run` on synthetic cities generated from a seed.

Run from the root of a vibrancy checkout (the directory holding `src/`):

    python3 perfbench/run.py --workload ingest_wide --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it times fresh `vibrancy run` child processes, one at a
time, for ``--seconds`` seconds and prints the end-to-end metrics; times are
scaled by the calibration in `calibrate.py` to cancel the machine's
neighbours, and the raw ones are printed alongside. With
``--trace 1`` it alternates an untraced run with the traced replay in
`replay.py` and prints the per-layer metrics. Every run passes the
correctness gate in `gate.py` or counts as failed. Generated inputs and run
directories live in a temporary directory under `.perfbench_work/` and are
removed at exit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibrate import REF_S, calibrate
from gate import artifacts_digest, check_kselection, check_run, sha256_file
from spans import Tracer, layer_metrics, per_layer_names, unit_of
from workloads import WORKLOADS, Inputs, Workload, build_inputs, sub_seed

HERE = Path(__file__).resolve().parent

# One BLAS/OpenMP thread in every child, on every commit: fewer threads than
# the 2 CPUs this was tuned on, and steadier than letting each library choose.
THREAD_PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Inputs per run, each from its own seed derived from --seed. Runs cycle
# through them, so one run's median spans several cities' worth of
# data-dependent work (k-means and logit iteration counts vary by seed).
DATASETS = 4
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "rows_per_s": "rows/s",
    "setup_s": "s",
}


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    problems: list
    scale: float = 1.0  # REF_S / calibration time around the child


def spawn(argv: list[str], env: dict, log_stem: Path) -> Child:
    """Run one child to completion through `launch.py`; its wall time, rusage
    CPU and peak RSS. A non-zero exit or a traceback on stderr is a problem.
    """
    out, err, report = (log_stem.with_suffix(s) for s in (".out", ".err", ".json"))
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(out), str(err), str(report)]
    pid = os.posix_spawn(sys.executable, launcher + argv, env, setsid=True)
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)  # the launcher and the child it started
        os.waitpid(pid, 0)
        raise
    if os.waitstatus_to_exitcode(status) != 0:
        return Child(0.0, 0.0, 0.0, [f"launcher exit code {os.waitstatus_to_exitcode(status)}"])
    doc = json.loads(report.read_text(encoding="utf-8"))
    problems = []
    if doc["code"] != 0:
        problems.append(f"exit code {doc['code']}")
    stderr = err.read_text(encoding="utf-8", errors="replace")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    return Child(doc["wall"], doc["cpu"], doc["maxrss_kb"] / 1024, problems)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest sample with at least TAIL_BEYOND samples above it (the
    largest sample when there are too few), and its percentile rank."""
    ordered = sorted(values)
    i = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def inputs_digest(directory: Path) -> str:
    lines = {str(p.relative_to(directory)): sha256_file(p)
             for p in sorted(directory.rglob("*")) if p.is_file()}
    return artifacts_digest(lines)


class Bench:
    """One benchmark run's datasets, counters and reference hashes."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path):
        self.workload, self.work = workload, work
        self.env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(root / "src")}
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.runs = 0
        # Each dataset is one set-up; its first correct run fixes its hashes.
        self.datasets: list[tuple[Inputs, Tracer]] = []
        self.setup_scales: list[float] = []
        for i in range(DATASETS):
            tr = Tracer()
            before = calibrate()
            inputs = build_inputs(workload, sub_seed(seed, i), work / f"inputs{i}", tr)
            self.setup_scales.append(REF_S / ((before + calibrate()) / 2))
            self.datasets.append((inputs, tr))
        self.inputs_digest = inputs_digest(work)
        self.references: dict[int, dict] = {}

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)

    def run_untraced(self, i: int) -> tuple[Child, Path]:
        self.runs += 1
        out = self.work / f"run{self.runs}"
        before = calibrate()
        child = spawn([sys.executable, "-m", "vibrancy.cli", "run", "--config",
                       str(self.datasets[i][0].config), "--out", str(out)],
                      self.env, self.work / f"run{self.runs}")
        child.scale = REF_S / ((before + calibrate()) / 2)
        if not child.problems:
            found, artifacts = check_run(out, self.workload.scopes(), self.references.get(i))
            child.problems += found
            if not found:
                self.references.setdefault(i, artifacts)
        self.record(f"run {self.runs} (dataset {i})", child.problems)
        return child, out

    def run_traced(self, i: int, untraced_out: Path) -> tuple[Child, dict]:
        out = self.work / f"replay{self.runs}"
        spans_path = self.work / f"spans{self.runs}.json"
        child = spawn([sys.executable, str(HERE / "replay.py"), "--config",
                       str(self.datasets[i][0].config), "--out", str(out),
                       "--spans", str(spans_path)], self.env, self.work / f"replay{self.runs}")
        doc = {}
        if not child.problems:
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            if doc["artifacts"] != self.references[i]:
                child.problems.append("replay artifacts differ from the untraced run's manifest")
            child.problems += check_kselection(untraced_out, doc["kselection"])
        self.record(f"replay {self.runs} (dataset {i})", child.problems)
        shutil.rmtree(out, ignore_errors=True)
        return child, doc

    def artifacts_digest(self) -> str:
        return artifacts_digest({f"{i}/{rel}": h for i, ref in self.references.items()
                                 for rel, h in ref.items()})


def measure(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run: set up, measure for ``seconds``, and return the
    result object plus an ``info`` entry with what the result rests on."""
    work_parent = root / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        bench = Bench(workload, seed, root, work)
        children, layers = [], []
        start = time.perf_counter()
        while not children or time.perf_counter() - start < seconds:
            i = len(children) % DATASETS
            child, out = bench.run_untraced(i)
            children.append(child)
            if trace and not child.problems:
                traced, doc = bench.run_traced(i, out)
                if doc:
                    m = layer_metrics(doc["spans"], doc["counts"])
                    m["trace.untraced_run_s"] = child.wall
                    m["trace.traced_run_s"] = traced.wall
                    layers.append(m)
            shutil.rmtree(out, ignore_errors=True)
        window = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    good = [i for i, c in enumerate(children) if not c.problems] or range(len(children))
    walls = [children[i].wall for i in good]
    run_tail, tail_pct = tail(walls)
    setups = [tr for _, tr in bench.datasets]
    setup_times = [tr.spans[0]["end"] - tr.spans[0]["start"] for tr in setups]
    if trace:
        metrics = trace_metrics(layers, setups)
    else:
        run_s = statistics.median(children[i].wall * children[i].scale for i in good)
        rows = statistics.mean(inputs.rows for inputs, _ in bench.datasets)
        values = {
            "run_s": run_s,
            "cpu_s": statistics.median(children[i].cpu * children[i].scale for i in good),
            "peak_rss_mb": statistics.median(children[i].rss_mb for i in good),
            "rows_per_s": rows / run_s if run_s else 0.0,
            "setup_s": statistics.median(t * k for t, k in zip(setup_times, bench.setup_scales)),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    info = {
        "workload": workload.name,
        "seed": seed,
        "window_s": round(window, 3),
        "samples": len(walls),
        "raw": {
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(children[i].cpu for i in good),
            "setup_s": statistics.median(setup_times),
            "walls_s": [round(w, 4) for w in walls],
            "scales": [round(children[i].scale, 4) for i in good],
            "setups_s": [round(t, 4) for t in setup_times],
        },
        "run_s_tail": run_tail,
        "run_s_tail_percentile": round(tail_pct, 1),
        "error_rate": bench.failed / bench.attempted,
        "artifacts_digest": bench.artifacts_digest(),
        "inputs_digest": bench.inputs_digest,
        "inputs": {
            "datasets": DATASETS, "cities": workload.n_cities,
            "cells_per_city": workload.n_cells, "categories": workload.n_categories,
            "dates": workload.n_days * len(workload.day_types),
            "rows": [inputs.rows for inputs, _ in bench.datasets],
            "csv_bytes": [inputs.csv_bytes for inputs, _ in bench.datasets],
        },
        "environment": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, **THREAD_PINS,
        },
        "failures": bench.failures,
    }
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "info": info,
    }


def trace_metrics(layers: list[dict], setups: list[Tracer]) -> dict:
    """Medians over the traced runs; synth.* over the datasets' set-ups."""
    setup = [layer_metrics(tr.spans, tr.counts) for tr in setups]
    values = {}
    for name in per_layer_names():
        if name == "trace.overhead_s":
            continue
        source = setup if name.startswith("synth.") else layers
        values[name] = statistics.median(m[name] for m in source) if source else 0.0
    values["trace.overhead_s"] = values["trace.traced_run_s"] - values["trace.untraced_run_s"]
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark `vibrancy run` on synthetic cities.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vibrancy" / "cli.py").is_file():
        print(f"perfbench: no src/vibrancy under {root}; run from a vibrancy checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    info = result.pop("info")
    for failure in info["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"{info['workload']} seed={info['seed']}: {info['samples']} runs in "
          f"{info['window_s']} s, correct={result['correct']}, "
          f"artifacts_digest={info['artifacts_digest']}")
    print(f"  {'error_rate':32s} {info['error_rate']:.6g} ratio")
    tail_name = f"run_s_tail (p{info['run_s_tail_percentile']:g} of {info['samples']})"
    print(f"  {tail_name:32s} {info['run_s_tail']:.6g} s")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
