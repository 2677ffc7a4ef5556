import codecs
import csv
import io
import math
import re
import sys
from array import array
from datetime import datetime
from importlib.resources import files
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import vibrancy.ingest
from conftest import Row, rows_of
from vibrancy.errors import (
    DataError,
    DuplicateServiceError,
    EmptyCategoryListError,
    UnknownServiceError,
)
from vibrancy.clustering import read_labels_csv
from vibrancy.features import FEATURE_COLUMNS, load_features_csv, load_third_place_taxonomy
from vibrancy.grid import CellId, GridSpec, load_region
from vibrancy.ingest import (
    DIRECTIONS,
    MAX_REJECT_EXAMPLES,
    POI_HEADER,
    POI_SOURCE_KEYS,
    REJECT_MALFORMED,
    REJECT_OUT_OF_BOUNDS,
    REJECT_UNKNOWN_DIRECTION,
    REJECT_UNKNOWN_SOURCE,
    TRAFFIC_HEADER,
    NotPlainError,
    ParseReport,
    PoiRecord,
    Taxonomy,
    TrafficTable,
    _WRITE_BATCH,
    _parse_timestamp,
    line_spans,
    load_taxonomy,
    parse_pois,
    read_traffic,
    stream_traffic,
    write_csv,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

GRID = GridSpec(0, 0, 10, 10)


def traffic_csv(*lines):
    return io.StringIO("col,row,timestamp,service,direction,volume\n" + "\n".join(lines) + "\n")


class TestParseTraffic:
    def test_format_example(self):
        table, report = read_traffic(
            traffic_csv("3,7,2019-03-16T00:00,WhatsApp,downlink,12.5"), GRID
        )
        assert report.accepted == 1 and report.rejected == 0 and len(table) == 1
        assert (table.col[0], table.row[0]) == (3, 7)
        assert table.stamps[table.stamp[0]] == datetime(2019, 3, 16, 0, 0)
        assert table.services[table.service[0]] == "WhatsApp"
        assert table.directions[table.direction[0]] == "downlink"
        assert table.volume[0] == 12.5

    def test_negative_volume_rejected(self):
        table, report = read_traffic(
            traffic_csv("3,7,2019-03-16T00:00,WhatsApp,downlink,-1"), GRID
        )
        assert len(table) == 0
        assert report.rejects == {"malformed": 1}

    def test_unaligned_timestamp_rejected(self):
        _, report = read_traffic(
            traffic_csv("3,7,2019-03-16T00:07,WhatsApp,downlink,1.0"), GRID
        )
        assert report.rejects == {"malformed": 1}

    def test_quarter_hours_accepted(self):
        stream = traffic_csv(
            "0,0,2019-03-16T10:15,A,uplink,1",
            "0,0,2019-03-16T10:30,A,uplink,1",
            "0,0,2019-03-16T10:45,A,downlink,1",
        )
        _, report = read_traffic(stream, GRID)
        assert report.accepted == 3

    def test_unknown_direction(self):
        _, report = read_traffic(traffic_csv("1,1,2019-03-16T00:00,A,sideways,1"), GRID)
        assert report.rejects == {"unknown_direction": 1}

    def test_out_of_bounds_cell(self):
        _, report = read_traffic(traffic_csv("42,1,2019-03-16T00:00,A,uplink,1"), GRID)
        assert report.rejects == {"out_of_bounds": 1}

    def test_missing_header(self):
        with pytest.raises(DataError):
            read_traffic(io.StringIO("1,1,2019-03-16T00:00,A,uplink,1\n"), GRID)

    def test_counts_balance(self, rng):
        good = "2,2,2019-03-18T08:00,App,uplink,3.5"
        lines = []
        n_bad = 0
        for i in range(200):
            if rng.random() < 0.3:
                n_bad += 1
                lines.append(
                    [
                        "2,2,not-a-time,App,uplink,1",
                        "2,2,2019-03-18T08:03,App,uplink,1",
                        "2,2,2019-03-18T08:00,App,up,1",
                        "99,2,2019-03-18T08:00,App,uplink,1",
                        "nope",
                    ][int(rng.integers(5))]
                )
            else:
                lines.append(good)
        table, report = read_traffic(traffic_csv(*lines), GRID)
        assert report.total_lines == 200
        assert report.accepted == len(table) == 200 - n_bad
        assert report.rejected == n_bad

    def test_reparse_is_identical(self):
        text = "col,row,timestamp,service,direction,volume\n" + (
            "1,2,2019-03-20T06:30,Maps,uplink,0.25\n" * 5
        )
        first, _ = read_traffic(io.StringIO(text), GRID)
        second, _ = read_traffic(io.StringIO(text), GRID)
        assert rows_of(first) == rows_of(second)

    def test_every_reject_reason_is_counted(self):
        lines = [
            "1,1,2019-03-18T08:00,App,uplink,1.5",  # 2: accepted
            "1,1,2019-03-18T08:00,App,uplink",  # 3: five fields
            "x,1,2019-03-18T08:00,App,uplink,1",  # 4: column not an integer
            "1,1,yesterday,App,uplink,1",  # 5: not a timestamp
            "1,1,2019-03-18T08:05,App,uplink,1",  # 6: not on a quarter hour
            "1,1,2019-03-18T08:00+01:00,App,uplink,1",  # 7: timezone-aware
            "1,1,2019-03-18T08:00,App,uplink,lots",  # 8: volume not a number
            "1,1,2019-03-18T08:00,App,uplink,-2",  # 9: negative volume
            "1,1,2019-03-18T08:00,App,uplink,nan",  # 10: non-finite volume
            "1,1,2019-03-18T08:00, ,uplink,1",  # 11: empty service
            "",  # blank lines are skipped, not counted
            "1,1,2019-03-18T08:00,App,both,1",  # 13: unknown direction
            "10,1,2019-03-18T08:00,App,uplink,1",  # 14: out of bounds
            " 2 , 3 , 2019-03-23T23:45 ,Other, downlink ,0",  # 15: accepted
            "1,1,yesterday,App,uplink,1",  # 16: malformed, cached timestamp
        ]
        expected = {"malformed": 10, "unknown_direction": 1, "out_of_bounds": 1}
        table, report = read_traffic(traffic_csv(*lines), GRID)
        assert report.total_lines == 14 and report.accepted == 2 and report.rejects == expected
        assert [n for n, _ in report.rejected_lines] == [3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16]
        assert rows_of(table) == [
            Row(CellId(1, 1), datetime(2019, 3, 18, 8, 0), "App", "uplink", 1.5),
            Row(CellId(2, 3), datetime(2019, 3, 23, 23, 45), "Other", "downlink", 0.0)]

    def test_rejected_line_examples_are_capped(self):
        lines = (["1,1,2019-03-18T08:00,App,up,1"] * 600
                 + ["99,1,2019-03-18T08:00,App,uplink,1"] * 400)
        _, report = read_traffic(traffic_csv(*lines), GRID)
        assert report.rejects == {"unknown_direction": 600, "out_of_bounds": 400}
        assert report.rejected == 1000 and report.accepted == 0
        assert len(report.rejected_lines) == MAX_REJECT_EXAMPLES == 20
        assert report.rejected_lines == [(n, "unknown_direction") for n in range(2, 22)]

    def test_non_utf8_file_is_a_data_error_naming_it(self, tmp_path):
        path = tmp_path / "traffic.csv"
        path.write_bytes(b"col,row,timestamp,service,direction,volume\n1,1,\xff\n")
        with pytest.raises(DataError, match="traffic.csv"):
            read_traffic(path, GRID)


def reference_read_traffic(source, grid):
    """The row-at-a-time reader that the chunked ``read_traffic`` replaced:
    one ``csv.reader`` pass over the text, every row through ``str.strip``,
    ``int`` and ``float``. Kept as the reference it must equal."""
    columns = [array(code) for code in "qqiibd"]
    stamps, stamp_of, service_of = [], {}, {}
    direction_of = {d: i for i, d in enumerate(DIRECTIONS)}
    report = ParseReport()
    total = 0
    lines = source if hasattr(source, "read") else open(source, encoding="utf-8")
    try:
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != TRAFFIC_HEADER:
            raise DataError("bad header")
        for line_no, fields in enumerate(reader, start=2):
            if not fields:
                continue
            total += 1
            if len(fields) != 6:
                report._reject_lines([line_no], [REJECT_MALFORMED])
                continue
            col_s, row_s, ts_s, service, direction, volume_s = map(str.strip, fields)
            if ts_s not in stamp_of:
                try:
                    stamps.append(_parse_timestamp(ts_s))
                    stamp_of[ts_s] = len(stamps) - 1
                except ValueError:
                    stamp_of[ts_s] = None
            stamp = stamp_of[ts_s]
            try:
                col, row = int(col_s), int(row_s)
                volume = float(volume_s)
            except ValueError:
                report._reject_lines([line_no], [REJECT_MALFORMED])
                continue
            if stamp is None or not service or not math.isfinite(volume) or volume < 0:
                report._reject_lines([line_no], [REJECT_MALFORMED])
                continue
            if direction not in direction_of:
                report._reject_lines([line_no], [REJECT_UNKNOWN_DIRECTION])
                continue
            if not (0 <= col < grid.n_cols and 0 <= row < grid.n_rows):
                report._reject_lines([line_no], [REJECT_OUT_OF_BOUNDS])
                continue
            for column, value in zip(columns, (col, row, stamp, service_of.setdefault(
                    service, len(service_of)), direction_of[direction], volume)):
                column.append(value)
    finally:
        if lines is not source:
            lines.close()
    report.total_lines = total
    report.accepted = len(columns[-1])
    return TrafficTable(*(np.frombuffer(c, dtype=c.typecode) for c in columns),
                        tuple(stamps), tuple(service_of), DIRECTIONS), report


def reference_parse_pois(source):
    """POI rows read one ``csv`` row at a time, each record with its own
    strings: the reader that the chunked ``parse_pois`` replaced."""
    records, report = [], ParseReport()
    lines = source if hasattr(source, "read") else open(source, encoding="utf-8")
    try:
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != POI_HEADER:
            raise DataError("bad header")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            report.total_lines += 1
            if len(row) != 4:
                report._reject_lines([line_no], [REJECT_MALFORMED])
                continue
            x_s, y_s, label, source_cat = (c.strip() for c in row)
            try:
                x, y = float(x_s), float(y_s)
            except ValueError:
                report._reject_lines([line_no], [REJECT_MALFORMED])
                continue
            if not (math.isfinite(x) and math.isfinite(y)) or not label:
                report._reject_lines([line_no], [REJECT_MALFORMED])
            elif source_cat not in POI_SOURCE_KEYS:
                report._reject_lines([line_no], [REJECT_UNKNOWN_SOURCE])
            else:
                records.append(PoiRecord(x, y, label, source_cat))
                report.accepted += 1
    finally:
        if lines is not source:
            lines.close()
    return records, report


def assert_same_report(report, ref_report):
    """Equal counts, and the same rejects in the same order."""
    assert (report.total_lines, report.accepted) == (ref_report.total_lines, ref_report.accepted)
    assert list(report.rejects.items()) == list(ref_report.rejects.items())
    assert report.rejected_lines == ref_report.rejected_lines


def assert_same_read(got, want):
    """Equal tables, bit for bit, and equal reports, rejects in the same order."""
    (table, report), (ref_table, ref_report) = got, want
    for name in ("col", "row", "stamp", "service", "direction", "volume"):
        mine, theirs = getattr(table, name), getattr(ref_table, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
    assert (table.stamps, table.services, table.directions) == (
        ref_table.stamps, ref_table.services, ref_table.directions)
    assert_same_report(report, ref_report)


def assert_same_pois(got, want):
    """Equal records, coordinates bit for bit, and equal reports."""
    (records, report), (ref_records, ref_report) = got, want
    assert [(p.x.hex(), p.y.hex(), p.label, p.source_category) for p in records] == [
        (p.x.hex(), p.y.hex(), p.label, p.source_category) for p in ref_records]
    assert_same_report(report, ref_report)


# Fields the fuzz draws from: plain text first, then what only the per-row
# path reads (padding, quotes, non-ASCII).
FUZZ_CELLS = ["0", "3", "9", "10", "12", "-0", "+5", "1_0", "-3", "x", "", "1e3",
              "99999999999999999999", "-99999999999999999999"]
FUZZ_STAMPS = ["2019-03-18T08:00", "2019-03-23T23:45", "2019-03-18T08:05",
               "2019-03-18T08:00+01:00", "2019-03-18", "2019-03-18T08:00:00", "yesterday", ""]
FUZZ_SERVICES = ["App", "Maps", "svc-cat00-a", "X_1", "Z.z:9", ""]
FUZZ_DIRECTIONS = ["downlink", "uplink", "uplink", "downlink", "sideways", "Uplink", ""]
FUZZ_VOLUMES = ["1.5", "0", "12", "0.25", "1e3", "-0", "+5", "1_0", "inf", "nan", "-2",
                "lots", "", "1e400", "-0.0"]
FUZZ_NOT_PLAIN = [
    '1,1,2019-03-18T08:00,"App, Inc",uplink,1',
    '2,2,2019-03-18T08:00,"Multi\nLine",downlink,2',
    " 2 , 3 , 2019-03-23T23:45 ,Other, downlink ,0",
    "1,1,2019-03-18T08:00,Café,uplink,1",
    "1,1,2019-03-18T08:00,App\tTab,uplink,1",
]
FUZZ_COORDS = ["1.5", "0", "-3", "40.25", "1e3", "-0", "+5", "1_0", "nan", "-nan", "inf",
               "-inf", "1e400", "-1e400", "lots", "", "0x10"]
FUZZ_LABELS = ["cafe", "bar", "post_office", "fast_food", "Pub-1", ""]
FUZZ_KEYS = ["amenity", "leisure", "shop", "sport", "building", "Amenity", ""]
FUZZ_POI_NOT_PLAIN = [
    '12.5,40.0,"cafe, bar",amenity',
    " 1.5 , 2.5 , cafe ,shop ",
    "3.0,4.0,café,leisure",
    '"5.0",6.0,"Multi\nLine",sport',
    "7.0,8.0,tab\tbar,amenity",
    "9.0, 1e400 ,café,amenity",
]


def _good_traffic(rng) -> str:
    return (f"{rng.integers(0, 10)},{rng.integers(0, 10)},"
            f"2019-03-{rng.integers(16, 24)}T{rng.integers(0, 24):02d}:"
            f"{15 * rng.integers(0, 4):02d},{rng.choice(FUZZ_SERVICES[:4])},"
            f"{rng.choice(DIRECTIONS)},{rng.random() * 100:.6g}")


def _good_poi(rng) -> str:
    return (f"{rng.random() * 500:.6g},{rng.random() * 500:.17g},"
            f"{rng.choice(FUZZ_LABELS[:4])},{rng.choice(POI_SOURCE_KEYS)}")


class Format(NamedTuple):
    """A row format as the fuzz tests see it: how to read it, the per-row
    reference it must equal, and what its fuzzed lines are made of."""

    name: str  # the file name
    header: list
    read: Callable
    reference: Callable
    assert_same: Callable
    reasons: set  # every reject reason
    good: Callable  # rng -> a likely good line
    pools: list  # per field, the values a random line draws from
    not_plain: list  # lines only the per-row path reads
    wrong_counts: list  # field counts of short and long lines


TRAFFIC = Format(
    "traffic.csv", TRAFFIC_HEADER, lambda source: read_traffic(source, GRID),
    lambda source: reference_read_traffic(source, GRID), assert_same_read,
    {REJECT_MALFORMED, REJECT_UNKNOWN_DIRECTION, REJECT_OUT_OF_BOUNDS}, _good_traffic,
    [FUZZ_CELLS, FUZZ_CELLS, FUZZ_STAMPS, FUZZ_SERVICES, FUZZ_DIRECTIONS, FUZZ_VOLUMES],
    FUZZ_NOT_PLAIN, [1, 2, 5, 7])
POIS = Format(
    "pois.csv", POI_HEADER, parse_pois, reference_parse_pois, assert_same_pois,
    {REJECT_MALFORMED, REJECT_UNKNOWN_SOURCE}, _good_poi,
    [FUZZ_COORDS, FUZZ_COORDS, FUZZ_LABELS, FUZZ_KEYS], FUZZ_POI_NOT_PLAIN, [1, 3, 5, 6])
# (format, plain) pairs; traffic's ids name only the mix
FORMATS_PLAIN = pytest.mark.parametrize(
    "fmt, plain", [(TRAFFIC, True), (TRAFFIC, False), (POIS, True), (POIS, False)],
    ids=["plain", "mixed", "POI-plain", "POI-mixed"])


def fuzz_csv(rng, plain: bool, fmt: Format) -> str:
    """A CSV of random good and bad lines, with \\n and \\r\\n line ends and
    blank lines; unless ``plain``, also lone \\r line ends and lines only the
    per-row path reads, from a random line on."""
    parts = [",".join(fmt.header)]
    n = int(rng.integers(0, 120))
    mixed_from = n if plain else int(rng.integers(0, n + 1))
    for i in range(n):
        kind = rng.random()
        if i >= mixed_from and kind < 0.15:
            line = fmt.not_plain[int(rng.integers(len(fmt.not_plain)))]
        elif kind < 0.2:
            line = ""
        elif kind < 0.27:
            k = int(rng.choice(fmt.wrong_counts))
            line = ",".join(str(int(rng.integers(0, 9))) for _ in range(k))
        elif kind < 0.6:  # a likely good row
            line = fmt.good(rng)
        else:
            line = ",".join(str(rng.choice(values)) for values in fmt.pools)
        parts.append(line)
    ends = ["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"]
    text = "".join(p + str(rng.choice(ends, p=[0.8, 0.2] if plain else [0.75, 0.2, 0.05]))
                   for p in parts)
    return text[: -int(rng.integers(1, 3))] if rng.random() < 0.3 else text


class TestChunkedRead:
    """``read_traffic`` and ``parse_pois`` against the per-row readers they
    replaced, with chunks of a few dozen bytes (every line a chunk boundary
    somewhere) and at the default size."""

    @pytest.mark.parametrize("chunk", [23, 64, vibrancy.ingest.CHUNK_BYTES])
    @FORMATS_PLAIN
    def test_fuzzed_files_read_as_the_reference_does(self, tmp_path, monkeypatch, chunk, fmt,
                                                     plain):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(8 + plain)
        path = tmp_path / fmt.name
        for _ in range(60):
            path.write_bytes(fuzz_csv(rng, plain, fmt).encode("utf-8"))
            try:
                want = fmt.reference(path)
            except DataError:  # a cut header
                with pytest.raises(DataError, match=fmt.name):
                    fmt.read(path)
                continue
            fmt.assert_same(fmt.read(path), want)

    @pytest.mark.parametrize("chunk", [23, 64, vibrancy.ingest.CHUNK_BYTES])
    @FORMATS_PLAIN
    def test_fuzzed_text_streams_read_as_the_reference_does(self, monkeypatch, chunk, fmt, plain):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(10 + plain)
        for _ in range(60):
            # a text stream splits lines at "\n" only, so no lone "\r" here
            text = re.sub("\r(?!\n)", "\n", fuzz_csv(rng, plain, fmt))
            if not text.startswith(",".join(fmt.header) + "\n"):
                continue
            fmt.assert_same(fmt.read(io.StringIO(text)), fmt.reference(io.StringIO(text)))

    @pytest.mark.parametrize("chunk", [23, vibrancy.ingest.CHUNK_BYTES])
    @FORMATS_PLAIN
    def test_a_byte_order_mark_is_dropped(self, tmp_path, monkeypatch, chunk, fmt, plain):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(12 + plain)
        path = tmp_path / fmt.name
        for _ in range(20):
            text = re.sub("\r(?!\n)", "\n", fuzz_csv(rng, plain, fmt))
            if not text.startswith(",".join(fmt.header) + "\n"):
                continue
            path.write_bytes(text.encode("utf-8"))
            want = fmt.read(path)
            path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            with monkeypatch.context() as patch:
                if plain:  # the mark keeps a plain file on the bytes path
                    patch.setattr(vibrancy.ingest, "_split_rows", None)
                fmt.assert_same(fmt.read(path), want)
            fmt.assert_same(fmt.read(io.StringIO("\ufeff" + text)), want)

    @pytest.mark.parametrize("chunk", [23, vibrancy.ingest.CHUNK_BYTES])
    @pytest.mark.parametrize("last", ["1,1", ",,,,", ",,,,,,", "1,1,2019-03-18T08:00,App,uplink",
                                      "1,1,2019-03-18T08:00,App,uplink,1.5", "1"])
    def test_last_line_without_a_line_end(self, tmp_path, monkeypatch, chunk, last):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", chunk)
        path = tmp_path / "traffic.csv"
        good = "2,3,2019-03-18T08:15,Maps,downlink,4\n"
        for body in (good * 3 + last, good * 3 + "\n" + last, last):
            path.write_text(",".join(TRAFFIC_HEADER) + "\n" + body)
            assert_same_read(read_traffic(path, GRID), reference_read_traffic(path, GRID))

    def test_fuzz_reaches_both_paths_and_every_reason(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", 64)
        calls = []
        for name in ("_split_plain", "_split_rows"):
            split = getattr(vibrancy.ingest, name)
            monkeypatch.setattr(vibrancy.ingest, name, lambda *args, name=name, split=split: (
                calls.append(name), split(*args))[1])
        for fmt in (TRAFFIC, POIS):
            rng = np.random.default_rng(9)
            calls.clear()
            reasons = set()
            path = tmp_path / fmt.name
            for _ in range(20):
                path.write_bytes(fuzz_csv(rng, False, fmt).encode("utf-8"))
                try:
                    reasons.update(fmt.read(path)[1].rejects)
                except DataError:  # a cut header
                    pass
            assert set(calls) == {"_split_plain", "_split_rows"}, fmt.name
            assert reasons == fmt.reasons

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_benchmark_workload_files_read_as_the_reference_does(self, tmp_path, name):
        config = build_inputs(WORKLOADS[name], 1, tmp_path, Tracer()).config
        cities = sorted(config.parent.glob("*/traffic.csv"))
        assert len(cities) == WORKLOADS[name].n_cities
        for path in cities:
            grid = load_region(path.parent / "region.json").grid
            got, want = read_traffic(path, grid), reference_read_traffic(path, grid)
            assert got[1].accepted > 0
            assert_same_read(got, want)
            got, want = parse_pois(path.parent / "pois.csv"), reference_parse_pois(
                path.parent / "pois.csv")
            assert got[1].accepted > 0
            assert_same_pois(got, want)

    @pytest.mark.parametrize("fmt, good, bad", [
        (TRAFFIC, b"1,1,2019-03-18T08:00,App,uplink,1.5\n", b"1,1,2019-03-18T08:00,\xff,uplink,1.5\n"),
        (POIS, b"1.5,2.5,cafe,amenity\n", b"1.5,2.5,caf\xff,amenity\n"),
    ], ids=["traffic", "POI"])
    def test_non_utf8_byte_in_the_last_chunk_is_a_data_error_naming_the_file(
            self, tmp_path, monkeypatch, fmt, good, bad):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", 64)
        path = tmp_path / fmt.name
        path.write_bytes(",".join(fmt.header).encode() + b"\n" + good * 80 + bad)
        assert path.stat().st_size > 20 * vibrancy.ingest.CHUNK_BYTES
        with pytest.raises(DataError, match=fmt.name):
            fmt.read(path)

    @pytest.mark.parametrize("fmt, text", [
        (TRAFFIC, ""), (TRAFFIC, "col,row,timestamp\n1,1,x\n"),
        (TRAFFIC, "\ncol,row,timestamp,service,direction,volume\n"),
        (POIS, ""), (POIS, "x,y\n1,1\n"), (POIS, "\nx,y,label,source_category\n"),
    ], ids=["empty", "short header", "blank first line",
            "POI empty", "POI short header", "POI blank first line"])
    def test_bad_header_is_a_data_error_naming_the_file(self, tmp_path, fmt, text):
        path = tmp_path / fmt.name
        path.write_text(text)
        what = "traffic" if fmt is TRAFFIC else "POI"
        with pytest.raises(DataError, match=f"^{path}: {what} file must start with header"):
            fmt.read(path)


def _rows_by_span(path, spans) -> tuple[list, ParseReport]:
    """The accepted rows of a traffic file read span by span with
    ``stream_traffic`` (the whole file for a None span), as (col, row,
    timestamp, service, direction, volume as hex), and the spans' reports
    merged in file order."""
    rows, report = [], None

    def keep(columns, stamps, services):
        col, row, stamp, service, direction, volume = (c.tolist() for c in columns)
        rows.extend(zip(col, row, map(stamps.__getitem__, stamp),
                        map(services.__getitem__, service), direction, map(float.hex, volume)))

    for span in spans:
        part = stream_traffic(path, GRID, keep, span=span)
        report = part if report is None else report
        if part is not report:
            report.merge(part)
    return rows, report


class TestRangedRead:
    """A traffic file read in ``line_spans`` with ``stream_traffic``, the
    reports merged, against the file read whole."""

    @pytest.mark.parametrize("chunk", [23, 64, vibrancy.ingest.CHUNK_BYTES])
    @pytest.mark.parametrize("plain", [True, False], ids=["plain", "mixed"])
    def test_fuzzed_files_read_in_spans_as_whole(self, tmp_path, monkeypatch, chunk, plain):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", chunk)
        rng = np.random.default_rng(40 + plain)
        path = tmp_path / "traffic.csv"
        compared = not_plain = 0
        for _ in range(40):
            data = fuzz_csv(rng, plain, TRAFFIC).encode("utf-8")
            path.write_bytes(data)
            spans = line_spans(path, int(rng.integers(2, 6)))
            assert [start for start, _ in spans] == sorted({start for start, _ in spans})
            assert spans[0][0] == 0 and spans[-1][1] == len(data)
            assert all(a[1] == b[0] and data[b[0] - 1] == ord("\n")
                       for a, b in zip(spans, spans[1:]))  # end to end, cut after a line end
            try:
                rows, report = _rows_by_span(path, [None])
            except DataError:  # a cut header
                with pytest.raises(DataError, match="traffic.csv"):
                    _rows_by_span(path, spans)
                continue
            if vibrancy.ingest._plain(data) is None:  # a line only a whole read takes
                with pytest.raises(NotPlainError):
                    _rows_by_span(path, spans)
                not_plain += 1
                continue
            got_rows, got_report = _rows_by_span(path, spans)
            assert got_rows == rows
            assert got_report == report and got_report.lines == report.lines
            assert list(got_report.rejects.items()) == list(report.rejects.items())
            compared += len(spans) > 1
        assert compared >= 30 if plain else not_plain >= 25

    def test_a_byte_order_mark_is_dropped_at_offset_0_only(self, tmp_path):
        path = tmp_path / "traffic.csv"
        line = "2,3,2019-03-18T08:15,Maps,downlink,4\n"
        path.write_bytes(codecs.BOM_UTF8 + (",".join(TRAFFIC_HEADER) + "\n" + line * 20).encode())
        spans = line_spans(path, 2)
        rows, report = _rows_by_span(path, spans)
        assert (len(rows), report.accepted, report.lines) == (20, 20, 21)

    def test_a_long_last_line_leaves_fewer_spans(self, tmp_path):
        path = tmp_path / "traffic.csv"
        path.write_text(",".join(TRAFFIC_HEADER) + "\n1,1,x,Maps," + "d" * 500 + ",4\n")
        assert line_spans(path, 2) == [(0, path.stat().st_size)]
        assert line_spans(tmp_path / "traffic.csv", 1) == [(0, path.stat().st_size)]


class TestParsePois:
    def test_format_example(self):
        records, report = parse_pois(
            io.StringIO("x,y,label,source_category\n512.0,884.0,restaurant,amenity\n")
        )
        assert report.accepted == 1
        assert records[0].x == 512.0 and records[0].y == 884.0
        assert records[0].label == "restaurant"
        assert records[0].source_category == "amenity"

    def test_unknown_source_key_rejected(self):
        _, report = parse_pois(
            io.StringIO("x,y,label,source_category\n1.0,2.0,tower,building\n")
        )
        assert report.rejects == {"unknown_source_category": 1}

    def test_empty_file(self):
        records, report = parse_pois(io.StringIO("x,y,label,source_category\n"))
        assert records == [] and report.total_lines == 0 and report.rejected == 0

    def test_all_four_source_keys(self):
        body = "\n".join(
            f"1.0,1.0,thing,{key}" for key in ("amenity", "leisure", "shop", "sport")
        )
        _, report = parse_pois(io.StringIO("x,y,label,source_category\n" + body + "\n"))
        assert report.accepted == 4


class TestServiceTaxonomy:
    def test_small_example(self):
        tax = load_taxonomy(io.StringIO(
            "service,category\nApple iMessage,Messaging\nWhatsApp,Messaging\nFacebook,Social\n"
        ))
        assert tax.n_categories == 2
        assert tax.categories == ("Messaging", "Social")  # file order
        assert tax.category_index("WhatsApp") == 0
        assert tax.category_index("Facebook") == 1

    def test_duplicate_service(self):
        with pytest.raises(DuplicateServiceError):
            load_taxonomy(io.StringIO("service,category\nA,X\nA,Y\n"))

    def test_empty_category_list(self):
        with pytest.raises(EmptyCategoryListError):
            load_taxonomy(io.StringIO("service,category\n"))

    def test_unknown_service_lookup(self):
        tax = Taxonomy({"A": "X"}, ("X",))
        with pytest.raises(UnknownServiceError):
            tax.category_index("B")

    def test_mapping_to_unlisted_category_rejected(self):
        with pytest.raises(DataError):
            Taxonomy({"A": "X"}, ("Y",))

    def test_shipped_example_has_68_services_30_categories(self):
        path = files("vibrancy").joinpath("data/service_categories_example.csv")
        tax = load_taxonomy(io.StringIO(path.read_text(encoding="utf-8")))
        assert len(tax.mapping) == 68
        assert tax.n_categories == 30
        messaging = {s for s, c in tax.mapping.items() if c == "Messaging"}
        assert messaging == {
            "Apple iMessage", "Facebook Messenger", "Skype", "Telegram", "WhatsApp"
        }


def _quoted(text: str) -> str:
    return "".join(",".join(f'"{f}"' for f in line.split(",")) + "\n"
                   for line in text.splitlines())


def _spaced(text: str) -> str:
    return "".join(",".join(f" {f} " for f in line.split(",")) + "\n"
                   for line in text.splitlines())


# the files that must have every line right, each as (text, reader)
EXACT_FILES = {
    "labels": ("col,row,cluster\n0,0,1\n3,0,2\n1,2,1\n",
               lambda path: read_labels_csv(path)),
    "features": ("col,row," + ",".join(FEATURE_COLUMNS) + "\n"
                 + "".join(f"{c},1," + ",".join(repr(0.25 * c + j) for j in range(12)) + "\n"
                           for c in range(3)),
                 lambda path: (lambda t: (t.cells, t.values.tolist()))(load_features_csv(path))),
    "service taxonomy": ("service,category\nA,X\nB b,Y\nC,X\n",
                         lambda path: load_taxonomy(path).mapping),
    "third-place taxonomy": ("label,category\npark,outdoor\nbar,eating_and_drinking\n",
                             lambda path: load_third_place_taxonomy(path).mapping),
}

ODD_BYTES = {
    "byte order mark": lambda data: b"\xef\xbb\xbf" + data,
    "CRLF line ends": lambda data: data.replace(b"\n", b"\r\n"),
    "lone CR line ends": lambda data: data.replace(b"\n", b"\r"),
    "blank lines": lambda data: data.replace(b"\n", b"\n\n"),
    "quoted fields": lambda data: _quoted(data.decode()).encode(),
    "spaces around fields": lambda data: _spaced(data.decode()).encode(),
}


class TestExactFiles:
    """Cell-row and taxonomy files go through the traffic and POI reader."""

    @pytest.mark.parametrize("chunk", [23, vibrancy.ingest.CHUNK_BYTES])
    @pytest.mark.parametrize("odd", sorted(ODD_BYTES))
    @pytest.mark.parametrize("kind", sorted(EXACT_FILES))
    def test_odd_bytes_read_alike(self, tmp_path, monkeypatch, kind, odd, chunk):
        monkeypatch.setattr(vibrancy.ingest, "CHUNK_BYTES", chunk)
        text, read = EXACT_FILES[kind]
        path = tmp_path / "file.csv"
        path.write_bytes(text.encode())
        want = read(path)
        path.write_bytes(ODD_BYTES[odd](text.encode()))
        assert read(path) == want

    @pytest.mark.parametrize("kind", sorted(EXACT_FILES))
    def test_first_bad_line_is_named(self, tmp_path, kind):
        text, read = EXACT_FILES[kind]
        lines = text.splitlines()
        path = tmp_path / "file.csv"
        # line 4 is short, line 5 repeats line 2
        path.write_text("\n".join(lines[:2] + ["", lines[1].split(",")[0], lines[1]]) + "\n")
        with pytest.raises(DataError, match=f"^{path}:4: expected {len(lines[0].split(','))} "
                                            "fields$"):
            read(path)
        path.write_text("\n".join(lines[:2] + ["", lines[1]]) + "\n")
        error = DuplicateServiceError if kind == "service taxonomy" else DataError
        with pytest.raises(error, match=f"^{path}:4: "):
            read(path)

    @pytest.mark.parametrize("line, message", [
        ("1,x,1", "col and row must be integers"),
        ("99999999999999999999,0,1", "col and row must be integers"),
        ("1,0,nan", "values must be integers"),
        ("1,0,1.5", "values must be integers"),
        ("1,0,", "values must be integers"),
    ])
    def test_bad_label_values(self, tmp_path, line, message):
        path = tmp_path / "labels.csv"
        path.write_text(f"col,row,cluster\n0,0,1\n{line}\n")
        with pytest.raises(DataError, match=f"^{path}:3: {message}$"):
            read_labels_csv(path)

    def test_features_header_is_fixed(self, tmp_path):
        text, read = EXACT_FILES["features"]
        path = tmp_path / "features.csv"
        path.write_text(text.replace("total_count", "count", 1))
        with pytest.raises(DataError, match=f"^{path}: features file must start with header "
                                            "'col,row,total_count,"):
            read(path)

    def test_header_only_reads_no_rows(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("col,row,cluster\n")
        assert read_labels_csv(path) == {}
        path.write_text(EXACT_FILES["features"][0].splitlines()[0] + "\n")
        assert load_features_csv(path).values.shape == (0, len(FEATURE_COLUMNS))


class TestWriteCsv:
    @pytest.mark.parametrize("n", [0, 1, _WRITE_BATCH, _WRITE_BATCH + 1, 2 * _WRITE_BATCH + 5])
    @pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
    def test_header_then_each_line_and_a_newline(self, tmp_path, n, as_generator):
        lines = [f"{i},é{i % 7},{i / 3!r}" for i in range(n)]
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b", "c"], (line for line in lines) if as_generator else lines)
        assert path.read_bytes() == "".join(f"{line}\n" for line in ["a,b,c", *lines]).encode()
