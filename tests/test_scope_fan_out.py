"""A run's scopes cut into contiguous groups, one per CPU, the first run in
this process and each later one in a worker forked through
``pipeline._fork_tasks``, against the same run in one process: the same run
directory, summary, errors and exit codes, and no worker left behind. Two
or three CPUs are reported by monkeypatching ``os.sched_getaffinity``."""

import gc
import json
import os
import signal
import subprocess
import sys
import time
import weakref
from array import array
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import vibrancy.pipeline
from vibrancy.cli import main
from vibrancy.config import parse_config
from vibrancy.errors import DataError
from vibrancy.pipeline import _fork_tasks, run_pipeline
from vibrancy.synth import SynthSpec, generate_for_day_types, write_city

from test_cli import tree_hashes
from test_split_read import assert_no_worker_left

SRC = str(Path(vibrancy.pipeline.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Three 16-cell cities and a 3-cell one, over both day types."""
    out = tmp_path_factory.mktemp("fleet")
    for seed, (name, cells) in enumerate([("alpha", 16), ("beta", 16), ("gamma", 16),
                                          ("tiny", 3)]):
        spec = SynthSpec(seed=seed, n_cells=cells, k_true=2, noise_sigma=0.8, region_name=name)
        write_city(generate_for_day_types(spec, ["weekday", "weekend"]), out / name)
    return out


def fleet_config(fleet, names, level="local", day_types="weekday, weekend") -> Path:
    """A config over the fleet's cities ``names``, in that order; k_max = 4
    is more than the tiny city's cells."""
    path = fleet / f"{level}-{'-'.join(names)}-{day_types.replace(', ', '-')}.cfg"
    path.write_text(
        f"seed = 9\nlevel = {level}\nday_types = {day_types}\n"
        "k_min = 2\nk_max = 4\nrestarts = 2\n"
        "service_taxonomy = alpha/service_taxonomy.csv\n"
        "third_place_taxonomy = alpha/third_places.csv\n\n" + "".join(
            f"[city.{name}]\nregion = {name}/region.json\ntraffic = {name}/traffic.csv\n"
            f"pois = {name}/pois.csv\ntruth = {name}/truth_labels.csv\n\n" for name in names),
        encoding="utf-8")
    return path


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes every run afterwards see ``n`` usable CPUs."""
    def report(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return report


@pytest.fixture
def scopes_run(monkeypatch, tmp_path):
    """``scopes_run()`` lists each ``_run_scope`` call made, in any process,
    as (pid, scope), in the order each process made them."""
    log = tmp_path / "scopes.log"
    run_scope = vibrancy.pipeline._run_scope

    def logged(scope, *args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), scope]) + "\n")
        return run_scope(scope, *args)

    monkeypatch.setattr(vibrancy.pipeline, "_run_scope", logged)

    def calls() -> list:
        lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return [tuple(json.loads(line)) for line in lines]
    return calls


def run_cli(cfg, out, capfd) -> tuple[int, str, str]:
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    got = capfd.readouterr()
    return code, got.out.replace(str(out), "OUT"), got.err


LOCAL = ["alpha", "beta", "gamma"]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("level", ["local", "global"])
def test_a_run_on_several_cpus_writes_the_run_directory_of_one(fleet, tmp_path, cpus, scopes_run,
                                                               capfd, level, n):
    cfg = fleet_config(fleet, LOCAL, level)
    cpus(1)
    want = run_cli(cfg, tmp_path / "one", capfd)
    assert want[0] == 0
    order = [scope for _, scope in scopes_run()]
    cpus(n)
    assert run_cli(cfg, tmp_path / "many", capfd) == want
    assert tree_hashes(tmp_path / "many") == tree_hashes(tmp_path / "one")
    count = min(n, len(order))
    cut = [i * len(order) // count for i in range(count + 1)]
    groups = [order[a:b] for a, b in zip(cut, cut[1:])]
    by_pid = {}
    for pid, scope in scopes_run():
        by_pid.setdefault(pid, []).append(scope)
    assert by_pid.pop(os.getpid()) == groups[0]
    assert sorted(by_pid.values()) == sorted(groups[1:])  # a worker each
    assert_no_worker_left()
    # and the same again from its manifest
    code = main(["run", "--manifest", str(tmp_path / "many" / "manifest.json"),
                 "--out", str(tmp_path / "again")])
    assert code == 0
    assert tree_hashes(tmp_path / "again") == tree_hashes(tmp_path / "one")
    assert_no_worker_left()


def test_this_process_drops_the_raw_tensors_it_hands_over(fleet, tmp_path, monkeypatch, cpus):
    """Before its first scope this process holds no raw tensor of a scope a
    worker runs: with 6 scopes on 2 CPUs, no weekend tensor."""
    cpus(2)
    parent, raws, seen = os.getpid(), [], []
    read, select_k = vibrancy.pipeline.read_city_tensors, vibrancy.pipeline.select_k

    def read_and_watch(*args, **kwargs):
        tensors, dropped, report = read(*args, **kwargs)
        raws.extend((day_type, weakref.ref(t.values)) for day_type, t in tensors.items())
        return tensors, dropped, report

    def select_k_and_look(rr, **kwargs):
        if os.getpid() == parent and not seen:
            gc.collect()
            seen.append(sorted((day_type, ref() is None) for day_type, ref in raws))
        return select_k(rr, **kwargs)

    monkeypatch.setattr(vibrancy.pipeline, "read_city_tensors", read_and_watch)
    monkeypatch.setattr(vibrancy.pipeline, "select_k", select_k_and_look)
    manifest = run_pipeline(parse_config(fleet_config(fleet, LOCAL)), tmp_path / "out")
    assert len(manifest["results"]) == 6
    # alpha's weekday tensor is freed by its own scope; beta's and gamma's wait
    assert seen == [[("weekday", False), ("weekday", False), ("weekday", True),
                     ("weekend", True), ("weekend", True), ("weekend", True)]]
    assert_no_worker_left()


def _fail_in(monkeypatch, *names):
    """Make the scopes of the cities ``names`` raise a data error, in any
    process."""
    run_scope = vibrancy.pipeline._run_scope

    def run_or_fail(scope, *args):
        if scope.split("/")[0] in names:
            raise DataError(f"stage 'features': no features in {scope}")
        return run_scope(scope, *args)

    monkeypatch.setattr(vibrancy.pipeline, "_run_scope", run_or_fail)


# case id -> (cities in config order, cities whose scopes raise a data error,
#             exit code, what stderr names); each run is weekday only, so on
#             2 CPUs this process runs the first city's scope and a worker the
#             others
FAILURES = {
    "k_max above the cells of a worker's city": (["alpha", "beta", "tiny"], [], 3, "n=3"),
    "k_max above the cells of this process's city": (["tiny", "alpha"], [], 3, "n=3"),
    "a data error in a worker's scope": (["alpha", "beta", "gamma"], ["gamma"], 2,
                                         "gamma/weekday"),
    "a data error in this process's scope": (["alpha", "beta"], ["alpha"], 2, "alpha/weekday"),
    "data errors in both groups": (["alpha", "beta", "gamma"], ["alpha", "gamma"], 2,
                                   "alpha/weekday"),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_a_failing_scope_is_reported_as_by_one_process(fleet, tmp_path, monkeypatch, cpus, capfd,
                                                       case):
    """The same exit code and the same one line on stderr, from the first
    failing scope in run order, as a run in one process; no traceback, and
    no worker left."""
    names, failing, code, named = FAILURES[case]
    cfg = fleet_config(fleet, names, day_types="weekday")
    _fail_in(monkeypatch, *failing)
    cpus(1)
    want = run_cli(cfg, tmp_path / "one", capfd)
    cpus(2)
    got = run_cli(cfg, tmp_path / "two", capfd)
    assert got == want
    assert got[0] == code and got[1] == ""
    assert got[2].count("\n") == 1 and "Traceback" not in got[2] and named in got[2]
    assert_no_worker_left()


def test_a_failing_first_group_kills_the_workers(fleet, tmp_path, monkeypatch, cpus):
    """A worker still at work when this process's group raises is killed and
    reaped before the error leaves ``run_pipeline``."""
    cpus(2)
    parent = os.getpid()

    def stall_or_fail(scope, *args):
        if os.getpid() != parent:
            time.sleep(120)
        raise DataError(f"no features in {scope}")

    monkeypatch.setattr(vibrancy.pipeline, "_run_scope", stall_or_fail)
    start = time.monotonic()
    with pytest.raises(DataError, match="alpha/weekday"):
        run_pipeline(parse_config(fleet_config(fleet, LOCAL)), tmp_path / "out")
    assert time.monotonic() - start < 60
    assert_no_worker_left()


def _die_after_one(run_scope, parent):
    def run_then_die(scope, *args):
        run_scope(scope, *args)
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
    return run_then_die


# case id -> how a worker fails its group
FAILED_WORKERS = {
    "killed after its first scope": lambda run_scope, parent: _die_after_one(run_scope, parent),
    "exits 1 at once": lambda run_scope, parent: (
        lambda scope, *args: os._exit(1) if os.getpid() != parent else run_scope(scope, *args)),
}


@pytest.mark.parametrize("level", ["local", "global"])
@pytest.mark.parametrize("case", list(FAILED_WORKERS))
def test_a_failed_worker_group_is_run_again_here(fleet, tmp_path, monkeypatch, cpus, scopes_run,
                                                 capfd, case, level):
    """This process reads the handed-over tensors again and runs the failed
    worker's scopes itself: the same run directory and summary."""
    cfg = fleet_config(fleet, LOCAL, level)
    cpus(1)
    want = run_cli(cfg, tmp_path / "one", capfd)
    order = [scope for _, scope in scopes_run()]
    logged = vibrancy.pipeline._run_scope
    monkeypatch.setattr(vibrancy.pipeline, "_run_scope",
                        FAILED_WORKERS[case](logged, os.getpid()))
    cpus(2)
    assert run_cli(cfg, tmp_path / "two", capfd) == want
    assert tree_hashes(tmp_path / "two") == tree_hashes(tmp_path / "one")
    assert [scope for pid, scope in scopes_run() if pid == os.getpid()] == order
    assert_no_worker_left()


def test_a_failed_fork_runs_every_scope_here(fleet, tmp_path, monkeypatch, cpus, scopes_run,
                                             capfd):
    cfg = fleet_config(fleet, LOCAL)
    cpus(1)
    want = run_cli(cfg, tmp_path / "one", capfd)
    order = [scope for _, scope in scopes_run()]

    def no_fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(2)
    assert run_cli(cfg, tmp_path / "two", capfd) == want
    assert tree_hashes(tmp_path / "two") == tree_hashes(tmp_path / "one")
    assert scopes_run() == [(os.getpid(), scope) for scope in order]


def _part(i: int):
    """Task i's head and arrays: 1.5 MiB of them from task 3 on, more than a
    pipe holds."""
    return {"task": i}, [np.arange(i), np.linspace(0.0, 1.0, 65_536 * i), array("q", range(i)),
                         np.array([], dtype=np.int8)]


def test_fork_tasks_returns_each_part_in_task_order():
    parts = _fork_tasks([lambda: "here"] + [partial(_part, i) for i in (1, 2, 3, 4)])
    assert parts[0] == "here"
    for i, (head, arrays) in enumerate(parts[1:], 1):
        want_head, want = _part(i)
        assert head == want_head
        assert [(a.dtype, a.tobytes()) for a in arrays] == [
            (np.asarray(w).dtype, bytes(memoryview(w))) for w in want]
    assert_no_worker_left()


def _exits_3_once_all_is_written():
    exit_now = os._exit  # in the worker only: it was forked
    os._exit = lambda code: exit_now(3)
    return _part(1)


# case id -> a worker's task that fails
FAILING_TASKS = {
    "raises": lambda: 1 / 0,
    "returns no part": lambda: None,
    "exits 3 once all is written": _exits_3_once_all_is_written,
    "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
}


@pytest.mark.parametrize("case", list(FAILING_TASKS))
def test_fork_tasks_gives_none_when_a_worker_fails(capfd, case):
    ran = []
    tasks = [lambda: ran.append(os.getpid()), partial(_part, 3), FAILING_TASKS[case],
             partial(_part, 4)]
    assert _fork_tasks(tasks) is None
    assert ran == [os.getpid()]
    assert_no_worker_left()
    assert capfd.readouterr() == ("", "")  # a worker fails without a word


def test_fork_tasks_raises_task_0s_error_once_every_worker_is_reaped():
    start = time.monotonic()
    with pytest.raises(ZeroDivisionError):
        _fork_tasks([lambda: 1 / 0, lambda: time.sleep(120), partial(_part, 3)])
    assert time.monotonic() - start < 60
    assert_no_worker_left()


# In a child Python: fork a split-read worker on argv[1]'s traffic file,
# print its pid, then never read its part; the test kills this process.
ORPHAN_PARENT = """
import os, sys, time
from pathlib import Path
import vibrancy.pipeline as pipeline
from vibrancy.grid import load_region
from vibrancy.ingest import load_taxonomy

fork, read_range, parent = os.fork, pipeline._read_range, os.getpid()

def reporting_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

def read_unless_parent(*args):
    if os.getpid() == parent:
        time.sleep(600)
    return read_range(*args)

os.fork, pipeline._read_range = reporting_fork, read_unless_parent
os.sched_getaffinity = lambda pid: {0, 1}
pipeline._SPLIT_BYTES = 1
city = Path(sys.argv[1])
taxonomy = city / "service_taxonomy.csv"
pipeline.read_city_tensors(load_region(city / "region.json"), city / "traffic.csv",
                           load_taxonomy(taxonomy), ("weekday", "weekend"),
                           taxonomy_path=taxonomy)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(sys.platform != "linux", reason="reads the worker's state in /proc")
def test_a_worker_exits_when_its_parent_dies_before_reading(tmp_path):
    """A split-read worker whose part is more than a pipe holds, and whose
    parent is killed before it reads, exits within a few seconds: it holds
    no read end of any pipe, so its write fails."""
    city = tmp_path / "city"
    spec = SynthSpec(seed=5, n_cells=64, k_true=2, noise_sigma=0.8, region_name="alpha")
    write_city(generate_for_day_types(spec, ["weekday", "weekend"]), city)
    # about 12,000 rows a range, 16 bytes each: far more than a 64 KiB pipe
    assert (city / "traffic.csv").read_text().count("\n") > 20_000
    env = {**os.environ, "PYTHONPATH": SRC}
    worker = None
    with subprocess.Popen([sys.executable, "-c", ORPHAN_PARENT, str(city)],
                          stdout=subprocess.PIPE, env=env) as parent:
        try:
            worker = int(parent.stdout.readline())
            time.sleep(1.0)  # the worker reads its range and fills the pipe
            assert _running(worker)
            parent.kill()
            parent.wait()
            deadline = time.monotonic() + 10
            while _running(worker):
                assert time.monotonic() < deadline, "the worker outlived its parent"
                time.sleep(0.05)
        finally:
            parent.kill()
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)
