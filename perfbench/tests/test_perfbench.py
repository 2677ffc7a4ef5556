"""Tests of the benchmark itself, on tiny versions of its workloads."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
for p in (str(REPO / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import gate  # noqa: E402
import run  # noqa: E402
from spans import Tracer, per_layer_names  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))

# Small enough for a test, large enough that k = 3 is still recovered exactly.
TINY = {
    "ingest_wide": dict(n_cells=18, n_days=1),
    "cluster_tall": dict(n_cells=24),
    "city_fleet": dict(n_cities=2, n_cells=12),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {n: tiny(n) for n in WORKLOADS})
    monkeypatch.chdir(REPO)


def test_benchmark_json_names_what_the_code_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in SPEC["per_layer"]] == per_layer_names()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_prints_every_metric_with_its_unit(tiny_workloads, capsys, name, trace):
    work = REPO / ".perfbench_work"
    left_before = set(work.iterdir()) if work.exists() else set()
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    info = json.loads(lines[-2].removeprefix("info "))
    assert info["error_rate"] == 0.0 and len(info["artifacts_digest"]) == 64
    assert (set(work.iterdir()) if work.exists() else set()) == left_before


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    w = tiny("city_fleet")
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        build_inputs(w, seed, tmp_path / str(i), Tracer())
        digests.append(run.inputs_digest(tmp_path / str(i)))
    assert digests[0] == digests[1] != digests[2]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A real `vibrancy run` directory for the tiny cluster_tall workload."""
    base = tmp_path_factory.mktemp("gate")
    w = tiny("cluster_tall")
    inputs = build_inputs(w, 7, base / "inputs", Tracer())
    out = base / "run"
    env = {**run.THREAD_PINS, "PYTHONPATH": str(REPO / "src")}
    child = run.spawn([sys.executable, "-m", "vibrancy.cli", "run", "--config",
                       str(inputs.config), "--out", str(out)], env, base / "log")
    assert child.problems == []
    return w, out


def test_gate_passes_a_correct_run_and_names_the_digest(finished_run):
    w, out = finished_run
    problems, artifacts = gate.check_run(out, w.scopes(), None)
    assert problems == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert artifacts == manifest["artifacts"]
    assert gate.check_run(out, w.scopes(), artifacts)[0] == []
    assert len(gate.artifacts_digest(artifacts)) == 64


def test_gate_reports_a_tampered_artifact(finished_run, tmp_path):
    w, out = finished_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    labels = copy / "city0" / "weekday" / "labels.csv"
    labels.write_bytes(labels.read_bytes().replace(b",1\n", b",2\n", 1))
    problems, _ = gate.check_run(copy, w.scopes(), None)
    assert problems == ["city0/weekday/labels.csv: bytes do not match the manifest hash"]


def test_gate_reports_a_wrong_chosen_k_and_changed_hashes(finished_run, tmp_path):
    w, out = finished_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    reference = dict(manifest["artifacts"])
    manifest["results"]["city0/weekday"]["chosen_k"] = 4
    first = sorted(manifest["artifacts"])[0]
    manifest["artifacts"][first] = "0" * 64
    (copy / "manifest.json").write_text(json.dumps(manifest))
    problems, _ = gate.check_run(copy, w.scopes(), reference)
    assert "city0/weekday: chosen_k 4, expected 3" in problems
    assert "artifact hashes differ from the first run's" in problems


def test_gate_reports_a_split_that_misses_kselection(finished_run):
    _, out = finished_run
    recorded = json.loads((out / "city0" / "weekday" / "kselection.json").read_text())
    assert gate.check_kselection(out, {"city0/weekday": recorded}) == []
    wrong = {**recorded, "chosen_k": recorded["chosen_k"] + 1}
    assert gate.check_kselection(out, {"city0/weekday": wrong}) != []


def test_every_gate_failure_counts_as_a_failed_run(monkeypatch):
    monkeypatch.setattr(gate, "K_TRUE", 4)
    result = run.measure(tiny("cluster_tall"), 3, 0, False, REPO)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert result["info"]["error_rate"] == 1.0


def test_tail_keeps_ten_samples_above_it():
    values = [float(v) for v in range(1, 31)]
    assert run.tail(values) == (20.0, 100.0 * 20 / 30)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0)


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "city_fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
