"""A large traffic file read in line-aligned byte ranges, the later ranges in
forked workers (``pipeline._read_split``), against the same file read whole
in one process: the same tensors, counts, report, run directory, errors and
exit codes, and no worker left behind. The split is forced on small files
by lowering ``_SPLIT_BYTES`` and by reporting ``cpus`` CPUs."""

import io
import json
import os
import shutil
import signal

import pytest

import vibrancy.pipeline
from vibrancy.cli import main
from vibrancy.config import parse_config
from vibrancy.grid import load_region
from vibrancy.ingest import MAX_REJECT_EXAMPLES, line_spans, load_taxonomy
from vibrancy.pipeline import read_city_tensors, run_pipeline
from vibrancy.synth import SynthSpec, generate_for_day_types, write_city

from test_cli import tree_hashes


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    """A 16-cell synthetic city over both day types: 6,145 traffic lines."""
    out = tmp_path_factory.mktemp("city")
    spec = SynthSpec(seed=5, n_cells=16, k_true=2, noise_sigma=0.8, region_name="alpha")
    write_city(generate_for_day_types(spec, ["weekday", "weekend"]), out)
    (out / "pipeline.cfg").write_text(
        "seed = 9\nlevel = local\nday_types = weekday, weekend\n"
        "k_min = 2\nk_max = 4\nrestarts = 2\n"
        "service_taxonomy = service_taxonomy.csv\n"
        "third_place_taxonomy = third_places.csv\n\n"
        "[city.alpha]\nregion = region.json\ntraffic = traffic.csv\n"
        "pois = pois.csv\ntruth = truth_labels.csv\n")
    return out


@pytest.fixture
def split(monkeypatch):
    """``split(cpus)`` splits every traffic file read afterwards into
    ``cpus`` ranges, as on a box with that many CPUs."""
    def force(cpus: int = 2) -> None:
        monkeypatch.setattr(vibrancy.pipeline, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return force


@pytest.fixture
def reads(monkeypatch, tmp_path):
    """``reads()`` lists each ``stream_traffic`` call made, in any process,
    as (pid, span), the span None for a whole file."""
    log = tmp_path / "reads.log"
    stream_traffic = vibrancy.pipeline.stream_traffic

    def logged(source, grid, consume, span=None):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), span]) + "\n")
        return stream_traffic(source, grid, consume, span=span)

    monkeypatch.setattr(vibrancy.pipeline, "stream_traffic", logged)

    def calls() -> list:
        lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return [(pid, tuple(span) if span else None) for pid, span in map(json.loads, lines)]
    return calls


def assert_no_worker_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _read(city, traffic):
    taxonomy = city / "service_taxonomy.csv"
    return read_city_tensors(load_region(city / "region.json"), traffic, load_taxonomy(taxonomy),
                             ("weekday", "weekend"), taxonomy_path=taxonomy, mean_per_day=True)


def assert_same_read(got, want) -> None:
    """Bitwise equal tensors, equal counts, and equal reports with the same
    reject lines in the same order."""
    (tensors, dropped, report), (ref_tensors, ref_dropped, ref_report) = got, want
    assert tensors.keys() == ref_tensors.keys()
    for day_type, tensor in tensors.items():
        assert tensor.values.tobytes() == ref_tensors[day_type].values.tobytes()
        assert tensor.cells == ref_tensors[day_type].cells
    assert dropped == ref_dropped
    assert report == ref_report and report.lines == ref_report.lines
    assert list(report.rejects.items()) == list(ref_report.rejects.items())


def _spread(lines: list, extra: list) -> list:
    """``lines`` with the ``extra`` lines spread evenly among the data lines."""
    out, step = lines[:1], max((len(lines) - 1) // (len(extra) + 1), 1)
    for i, line in enumerate(lines[1:]):
        if extra and i % step == step - 1:
            out.append(extra.pop(0))
        out.append(line)
    return out + extra


# one line of each reject reason, and one outside the region's active cells
BAD_LINES = [
    "1,1,2019-03-18T08:00,svc-cat00-a,downlink",  # malformed: 5 fields
    "x,1,2019-03-18T08:00,svc-cat00-a,downlink,1",  # malformed: col
    "1,1,2019-03-18T08:05,svc-cat00-a,downlink,1",  # malformed: timestamp
    "1,1,2019-03-18T08:00,,downlink,1",  # malformed: no service
    "1,1,2019-03-18T08:00,svc-cat00-a,downlink,-1",  # malformed: volume
    "1,1,2019-03-18T08:00,svc-cat00-a,sideways,1",  # unknown direction
    "99,1,2019-03-18T08:00,svc-cat00-a,downlink,1",  # out of bounds
]

# case id -> edit of the traffic file's lines, then of its text
PLAIN_EDITS = {
    "as written": (None, None),
    "rejects near every boundary": (lambda lines: _spread(lines, BAD_LINES * 2), None),
    "more rejects than examples": (
        lambda lines: _spread(lines, BAD_LINES * (MAX_REJECT_EXAMPLES // 2)), None),
    "CRLF and blank lines": (lambda lines: _spread(lines, [""] * 40),
                             lambda text: text.replace("\n", "\r\n")),
    "byte order mark": (None, lambda text: "\ufeff" + text),
    "no final line end": (None, lambda text: text[:-1]),
    # a last line of 3/5 of the file: the midpoint of 2 ranges and the second
    # cut of 3 fall in it
    "midpoint inside the last line": (
        lambda lines: lines + ["1,1,2019-03-18T08:00,svc" + "x" * 550_000 + ",sideways,1"],
        None),
}

# case id -> a line that only a whole-file read takes: the split falls back
NOT_PLAIN = {
    "quoted field": '1,1,2019-03-18T08:00,"svc-cat00-a",downlink,1',
    "lone CR": "1,1,2019-03-18T08:00,svc-cat00-a,downlink,1\r2,2,2019-03-18T09:00,svc-cat00-a,"
               "uplink,1",
    "non-ASCII": "1,1,2019-03-18T08:00,svc-café,sideways,1",
    "padded field": "1, 1,2019-03-18T08:00,svc-cat00-a,downlink,1",
}


def _write(city, tmp_path, edit_lines=None, edit_text=None):
    lines = (city / "traffic.csv").read_text().splitlines()
    text = "\n".join(edit_lines(lines) if edit_lines else lines) + "\n"
    path = tmp_path / "traffic.csv"
    path.write_bytes((edit_text(text) if edit_text else text).encode("utf-8"))
    return path


def _first_lines(path, spans) -> list[int]:
    """The line number each span starts at."""
    data = path.read_bytes()
    return [data[:start].count(b"\n") + 1 for start, _ in spans]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("case", list(PLAIN_EDITS))
def test_ranges_read_as_the_whole_file(city, tmp_path, split, reads, capfd, case, cpus):
    path = _write(city, tmp_path, *PLAIN_EDITS[case])
    want = _read(city, path)
    assert reads() == [(os.getpid(), None)]
    split(cpus)
    spans = line_spans(path, cpus)
    assert_same_read(_read(city, path), want)
    calls = reads()
    if len(spans) < 2:  # one range: read whole, by no worker
        assert calls == [(os.getpid(), None)]
    else:
        assert sorted(span for _, span in calls) == spans  # each range once, none again
        pids = [pid for _, pid in sorted((span, pid) for pid, span in calls)]
        assert pids[0] == os.getpid() and len(set(pids)) == len(spans)  # a worker each
    if case == "midpoint inside the last line":
        assert len(spans) == cpus - 1
    if case == "rejects near every boundary":  # every range holds reject examples
        starts = _first_lines(path, spans) + [want[2].lines + 1]
        rejected = [line for line, _ in want[2].rejected_lines]
        assert len(rejected) == len(BAD_LINES) * 2
        assert all(any(a <= line < b for line in rejected) for a, b in zip(starts, starts[1:]))
    assert_no_worker_left()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("case", list(NOT_PLAIN))
def test_a_range_that_is_not_plain_falls_back_to_one_read(city, tmp_path, split, reads, capfd,
                                                          case, where):
    def insert(lines):
        at = 10 if where == "first" else len(lines) - 10
        return lines[:at] + [NOT_PLAIN[case]] + lines[at:]

    path = _write(city, tmp_path, insert)
    want = _read(city, path)
    reads()
    split(2)
    assert_same_read(_read(city, path), want)
    spans = line_spans(path, 2)
    calls = reads()
    assert (os.getpid(), spans[0]) in calls and calls[-1] == (os.getpid(), None)
    if where == "last":  # the worker met it
        assert [span for pid, span in calls if pid != os.getpid()] == [spans[1]]
    assert_no_worker_left()
    assert capfd.readouterr().err == ""


def _exit_after(code):
    """A ``_range_worker`` that does all its work, then exits with ``code``."""
    range_worker = vibrancy.pipeline._range_worker

    def worker(*args):
        exit_now = os._exit  # in the worker only: it was forked
        os._exit = lambda _: exit_now(code)
        range_worker(*args)
    return worker


def _killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)


# case id -> a worker that fails
FAILING_WORKERS = {
    "exits 1 at once": lambda *args: os._exit(1),
    "exits 3 once all is written": _exit_after(3),
    "killed": _killed,
}


@pytest.mark.parametrize("case", list(FAILING_WORKERS))
def test_a_failed_worker_falls_back_to_one_read(city, tmp_path, monkeypatch, split, reads, capfd,
                                                case):
    path = _write(city, tmp_path, PLAIN_EDITS["rejects near every boundary"][0])
    want = _read(city, path)
    reads()
    split(3)
    monkeypatch.setattr(vibrancy.pipeline, "_range_worker", FAILING_WORKERS[case])
    assert_same_read(_read(city, path), want)
    mine = [(pid, span) for pid, span in reads() if pid == os.getpid()]
    assert mine == [(os.getpid(), line_spans(path, 3)[0]), (os.getpid(), None)]
    assert_no_worker_left()
    assert capfd.readouterr().err == ""


# case id -> edit of the traffic file's lines that makes it a data error
DATA_ERRORS = {
    "no row accepted": lambda lines: lines[:1] + [line.replace("link", "wards")
                                                  for line in lines[1:]],
    "service missing from the taxonomy": lambda lines: lines + [
        "1,1,2019-03-18T08:00,svc-unknown,downlink,1"],
    "wrong header": lambda lines: ["col,row,when,service,direction,volume"] + lines[1:],
}


@pytest.mark.parametrize("case", list(DATA_ERRORS))
def test_a_data_error_is_reported_as_by_one_read(city, tmp_path, split, capfd, case):
    """The same exit code 2 and one line naming the file as a read in one
    process, and nothing written."""
    work = tmp_path / "city"
    shutil.copytree(city, work)
    _write(city, work, DATA_ERRORS[case])
    cfg = str(work / "pipeline.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) == 2
    want = capfd.readouterr()
    split(2)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "split")]) == 2
    got = capfd.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert got.err.startswith("data error:") and got.err.count("\n") == 1
    assert str(work / "traffic.csv") in got.err
    assert not (tmp_path / "whole").exists()
    assert not (tmp_path / "split").exists()
    assert_no_worker_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_run_writes_the_run_directory_of_one_read(city, tmp_path, split, reads, capfd,
                                                          cpus):
    cfg = str(city / "pipeline.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
    want = capfd.readouterr()
    split(cpus)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "split")]) == 0
    assert tree_hashes(tmp_path / "split") == tree_hashes(tmp_path / "whole")
    got = capfd.readouterr()
    assert (got.out.replace(str(tmp_path / "split"), str(tmp_path / "whole")),
            got.err) == (want.out, want.err)
    spans = line_spans(city / "traffic.csv", cpus)
    assert len(spans) == cpus
    assert sorted(span for _, span in reads() if span) == spans
    assert_no_worker_left()


def test_each_traffic_file_is_read_once_in_ranges(city, tmp_path, split, reads):
    """Each byte range of the file is read once, by one process, and the
    file is not read again whole."""
    split(3)
    manifest = run_pipeline(parse_config(city / "pipeline.cfg"), tmp_path / "o")
    assert len(manifest["results"]) == 2  # weekday and weekend scopes
    calls = reads()
    assert sorted(span for _, span in calls) == line_spans(city / "traffic.csv", 3)
    assert len({pid for pid, _ in calls}) == 3
    assert_no_worker_left()


def test_a_text_stream_is_read_whole(city, split, reads):
    split(2)
    text = (city / "traffic.csv").read_text()
    assert_same_read(_read(city, io.StringIO(text)), _read(city, city / "traffic.csv"))
    calls = reads()
    assert calls[0] == (os.getpid(), None) and len(calls) == 3  # the file was split
    assert_no_worker_left()
