"""A run's scopes cut into contiguous groups, one per CPU, the first run in
this process and each later one in a worker forked through
``pipeline._fork_tasks``, against the same run in one process: the same run
directory, summary, errors and exit codes, and no worker left behind. Two
or three CPUs are reported by monkeypatching ``os.sched_getaffinity``."""

import gc
import hashlib
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
from vibrancy.errors import DataError, KTooLargeError
from vibrancy.grid import load_region
from vibrancy.ingest import load_taxonomy, stream_traffic
from vibrancy.pipeline import _fork_tasks, run_pipeline
from vibrancy.signatures import DayTypeTensors
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


def assert_manifest_hashes_each_file(run: Path) -> None:
    """The manifest lists every other file of the run directory, each with
    the SHA-256 of its bytes."""
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    files = {str(p.relative_to(run)) for p in run.rglob("*") if p.is_file()}
    assert set(manifest["artifacts"]) == files - {"manifest.json"}
    for rel, digest in manifest["artifacts"].items():
        assert digest == hashlib.sha256((run / rel).read_bytes()).hexdigest(), rel


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
    assert_manifest_hashes_each_file(tmp_path / "many")
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


def test_each_artifact_is_hashed_once_by_the_process_that_writes_it(fleet, tmp_path, monkeypatch,
                                                                    cpus, scopes_run):
    """No artifact is read back to build the manifest: each is hashed once,
    by the process that ran its scope."""
    cpus(2)
    log, file_sha256 = tmp_path / "hashed.log", vibrancy.pipeline.file_sha256

    def logged(path):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), str(path)]) + "\n")
        return file_sha256(path)

    monkeypatch.setattr(vibrancy.pipeline, "file_sha256", logged)
    out = tmp_path / "out"
    manifest = run_pipeline(parse_config(fleet_config(fleet, LOCAL)), out)
    runs_scope = {scope: pid for pid, scope in scopes_run()}
    assert len(set(runs_scope.values())) == 2
    hashed = [(pid, Path(path).relative_to(out))
              for pid, path in map(json.loads, log.read_text(encoding="utf-8").splitlines())
              if Path(path).is_relative_to(out)]
    assert sorted(str(rel) for _, rel in hashed) == sorted(manifest["artifacts"])
    for pid, rel in hashed:
        assert pid == runs_scope["/".join(rel.parts[:2])], rel
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


# CPUs -> the raw tensors each worker holds at its first k selection, as
# (city, day type): its group's, less its first scope's, which that scope
# has freed
WORKER_HOLDS = {2: [[["beta", "weekend"], ["gamma", "weekend"]]],
                3: [[["alpha", "weekend"]], [["gamma", "weekend"]]]}


@pytest.mark.parametrize("n", list(WORKER_HOLDS))
def test_each_worker_holds_only_its_own_scopes_raw_tensors(fleet, tmp_path, monkeypatch, cpus, n):
    """Before its first scope a worker drops every raw tensor of a scope
    outside its group, so that no tensor's pages stay shared with a worker
    that never uses them."""
    cpus(n)
    parent, raws, looked, log = os.getpid(), [], set(), tmp_path / "held.log"
    read, select_k = vibrancy.pipeline.read_city_tensors, vibrancy.pipeline.select_k

    def read_and_watch(*args, **kwargs):
        tensors, dropped, report = read(*args, **kwargs)
        raws.extend((kwargs["segment_name"], day_type, weakref.ref(t.values))
                    for day_type, t in tensors.items())
        return tensors, dropped, report

    def select_k_and_look(rr, **kwargs):
        if os.getpid() != parent and os.getpid() not in looked:
            looked.add(os.getpid())
            gc.collect()
            held = sorted([city, day_type] for city, day_type, ref in raws if ref() is not None)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps([os.getpid(), held]) + "\n")
        return select_k(rr, **kwargs)

    monkeypatch.setattr(vibrancy.pipeline, "read_city_tensors", read_and_watch)
    monkeypatch.setattr(vibrancy.pipeline, "select_k", select_k_and_look)
    manifest = run_pipeline(parse_config(fleet_config(fleet, LOCAL)), tmp_path / "out")
    assert len(manifest["results"]) == 6
    lines = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert len({pid for pid, _ in lines}) == n - 1
    assert sorted(held for _, held in lines) == sorted(WORKER_HOLDS[n])
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
    failing scope in run order, as a run in one process; no traceback, no
    run directory and no worker left."""
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
    assert not (tmp_path / "one").exists() and not (tmp_path / "two").exists()
    assert_no_worker_left()


@pytest.mark.parametrize("n", [1, 2])
def test_a_failed_run_removes_only_the_directories_it_made(fleet, tmp_path, cpus, n):
    """A run that raises removes the topmost directory of its output path
    that it made, and leaves one that was there before as it is."""
    cpus(n)
    config = parse_config(fleet_config(fleet, ["alpha", "tiny"]))
    with pytest.raises(KTooLargeError, match="n=3"):
        run_pipeline(config, tmp_path / "made" / "out")
    assert not (tmp_path / "made").exists()
    there = tmp_path / "there"
    there.mkdir()
    (there / "notes.txt").write_text("mine", encoding="utf-8")
    with pytest.raises(KTooLargeError, match="n=3"):
        run_pipeline(config, there / "out")
    assert [p.name for p in there.iterdir()] == ["notes.txt"]
    with pytest.raises(KTooLargeError, match="n=3"):
        run_pipeline(config, there)
    assert (there / "notes.txt").read_text(encoding="utf-8") == "mine"
    assert (there / "alpha" / "weekday" / "signatures_raw.sig").is_file()
    assert not (there / "manifest.json").exists()
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
    assert_manifest_hashes_each_file(tmp_path / "two")
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


# In a child Python: run argv[1]'s config into argv[2] on argv[3] CPUs and
# print, as JSON lines, each scope run with its process and whether that
# process had loaded _hashlib (OpenSSL) once the scope was hashed, then the
# exit code and whether this process had loaded it at the end.
HASHLIB_WATCH = """
import json, os, sys
import vibrancy.pipeline as pipeline
from vibrancy.cli import main

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[3])))
run_scope = pipeline._run_scope

def run_and_look(scope, *args):
    run_scope(scope, *args)
    line = json.dumps([os.getpid(), scope, "_hashlib" in sys.modules]) + "\\n"
    os.write(1, line.encode())  # one write, so the processes' lines never mix

pipeline._run_scope = run_and_look
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, "_hashlib" in sys.modules]))
"""


@pytest.mark.parametrize("n", [1, 2])
def test_no_run_process_loads_openssl(fleet, tmp_path, n):
    """Every hash of a run, in this process and in each scope worker, comes
    from the interpreter's built-in SHA-256, so no process of the run loads
    ``_hashlib`` and the OpenSSL pages behind it."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", HASHLIB_WATCH,
                           str(fleet_config(fleet, LOCAL)), str(tmp_path / "out"), str(n)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *scopes, end = [json.loads(line) for line in done.stdout.splitlines()
                    if line.startswith("[")]
    assert end == [0, False]
    assert len(scopes) == 6 and not any(loaded for _, _, loaded in scopes)
    assert len({pid for pid, _, _ in scopes}) == n
    assert_manifest_hashes_each_file(tmp_path / "out")


def _value(i: int):
    """Task i's return value, of a type of its own; 1.5 MiB or more of
    arrays from task 3 on, more than a pipe holds."""
    return [None,
            ("here", 1, 2.5, array("q", range(2)), np.array([], dtype=np.int8)),
            np.linspace(0.0, 1.0, 65_536 * 3),
            {"task": i, "arrays": [np.arange(i), np.linspace(0.0, 1.0, 65_536 * i)]}][i - 1]


def _assert_same(got, want) -> None:
    """``got`` equals ``want`` and has its type, all the way down."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    else:
        assert got == want


def test_fork_tasks_returns_each_part_in_task_order():
    parts = _fork_tasks([lambda: "here"] + [partial(_value, i) for i in (1, 2, 3, 4)])
    _assert_same(parts, ["here"] + [_value(i) for i in (1, 2, 3, 4)])
    assert_no_worker_left()


def _exits_3_once_all_is_written():
    exit_now = os._exit  # in the worker only: it was forked
    os._exit = lambda code: exit_now(3)
    return _value(4)


class _KilledWhilePickled:
    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


# case id -> a worker's task that fails
FAILING_TASKS = {
    "raises": lambda: 1 / 0,
    "returns a value pickle refuses": lambda: (lambda: None),
    "exits 3 once all is written": _exits_3_once_all_is_written,
    "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
    "killed while its value is written": lambda: [_value(4), _KilledWhilePickled()],
}


@pytest.mark.parametrize("case", list(FAILING_TASKS))
def test_fork_tasks_gives_none_when_a_worker_fails(capfd, case):
    ran = []
    tasks = [lambda: ran.append(os.getpid()), partial(_value, 3), FAILING_TASKS[case],
             partial(_value, 4)]
    assert _fork_tasks(tasks) is None
    assert ran == [os.getpid()]
    assert_no_worker_left()
    assert capfd.readouterr() == ("", "")  # a worker fails without a word


def test_fork_tasks_raises_task_0s_error_once_every_worker_is_reaped():
    start = time.monotonic()
    with pytest.raises(ZeroDivisionError):
        _fork_tasks([lambda: 1 / 0, lambda: time.sleep(120), partial(_value, 3)])
    assert time.monotonic() - start < 60
    assert_no_worker_left()


# In a child Python: this process's peak RSS in KiB before and after it takes
# a forked worker's 64 MiB array through _fork_tasks, with the array's size
# and sum, as JSON.
BIG_VALUE = """
import json, resource
import numpy as np
from vibrancy.pipeline import _fork_tasks

def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

before = peak()
parts = _fork_tasks([lambda: None, lambda: np.ones(8 << 20)])
print(json.dumps([before, peak(), parts[1].nbytes, float(parts[1].sum())]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_a_workers_arrays_reach_the_caller_without_a_copy(fleet):
    """A worker's numpy array is read into one buffer in the caller, so the
    caller's peak RSS rises by about the array's size, not twice it (as an
    ``array.array``, which pickles through ``tobytes``, would); and what a
    split-read worker's tensors keep holds numpy arrays only."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", BIG_VALUE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    before, after, nbytes, total = json.loads(done.stdout)
    assert nbytes == 64 << 20 and total == 8 << 20
    assert (after - before) * 1024 < 1.5 * nbytes
    city = fleet / "alpha"
    tensors = DayTypeTensors(load_taxonomy(city / "service_taxonomy.csv"),
                             load_region(city / "region.json"), ["weekday", "weekend"])
    stream_traffic(city / "traffic.csv", tensors.region.grid, tensors.add)
    pairs = tensors.kept()["pairs"]
    assert len(pairs) == 2 and sum(len(index) for index, _ in pairs) > 0
    for index, volumes in pairs:
        assert type(index) is np.ndarray and index.dtype == np.int64
        assert type(volumes) is np.ndarray and volumes.dtype == np.float64


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
