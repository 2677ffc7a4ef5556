import io
from datetime import datetime
from importlib.resources import files

import pytest

from vibrancy.errors import (
    DataError,
    DuplicateServiceError,
    EmptyCategoryListError,
    UnknownServiceError,
)
from vibrancy.grid import CellId, GridSpec
from vibrancy.ingest import (
    MAX_REJECT_EXAMPLES,
    ServiceTaxonomy,
    load_taxonomy,
    parse_pois,
    parse_traffic,
    read_traffic,
)

GRID = GridSpec(0, 0, 10, 10)


def traffic_csv(*lines):
    return io.StringIO("col,row,timestamp,service,direction,volume\n" + "\n".join(lines) + "\n")


class TestParseTraffic:
    def test_format_example(self):
        records, report = parse_traffic(
            traffic_csv("3,7,2019-03-16T00:00,WhatsApp,downlink,12.5"), GRID
        )
        assert report.accepted == 1 and report.rejected == 0
        rec = records[0]
        assert rec.cell == CellId(3, 7)
        assert rec.timestamp == datetime(2019, 3, 16, 0, 0)
        assert rec.service == "WhatsApp"
        assert rec.direction == "downlink"
        assert rec.volume == 12.5

    def test_negative_volume_rejected(self):
        records, report = parse_traffic(
            traffic_csv("3,7,2019-03-16T00:00,WhatsApp,downlink,-1"), GRID
        )
        assert records == []
        assert report.rejects == {"malformed": 1}

    def test_unaligned_timestamp_rejected(self):
        _, report = parse_traffic(
            traffic_csv("3,7,2019-03-16T00:07,WhatsApp,downlink,1.0"), GRID
        )
        assert report.rejects == {"malformed": 1}

    def test_quarter_hours_accepted(self):
        stream = traffic_csv(
            "0,0,2019-03-16T10:15,A,uplink,1",
            "0,0,2019-03-16T10:30,A,uplink,1",
            "0,0,2019-03-16T10:45,A,downlink,1",
        )
        _, report = parse_traffic(stream, GRID)
        assert report.accepted == 3

    def test_unknown_direction(self):
        _, report = parse_traffic(traffic_csv("1,1,2019-03-16T00:00,A,sideways,1"), GRID)
        assert report.rejects == {"unknown_direction": 1}

    def test_out_of_bounds_cell(self):
        _, report = parse_traffic(traffic_csv("42,1,2019-03-16T00:00,A,uplink,1"), GRID)
        assert report.rejects == {"out_of_bounds": 1}

    def test_missing_header(self):
        with pytest.raises(DataError):
            parse_traffic(io.StringIO("1,1,2019-03-16T00:00,A,uplink,1\n"), GRID)

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
        records, report = parse_traffic(traffic_csv(*lines), GRID)
        assert report.total_lines == 200
        assert report.accepted == len(records) == 200 - n_bad
        assert report.rejected == n_bad

    def test_reparse_is_identical(self):
        text = "col,row,timestamp,service,direction,volume\n" + (
            "1,2,2019-03-20T06:30,Maps,uplink,0.25\n" * 5
        )
        first, _ = parse_traffic(io.StringIO(text), GRID)
        second, _ = parse_traffic(io.StringIO(text), GRID)
        assert first == second

    def test_every_reject_reason_counted_alike_by_both_readers(self):
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
        records, report_again = parse_traffic(traffic_csv(*lines), GRID)
        for r in (report, report_again):
            assert r.total_lines == 14 and r.accepted == 2 and r.rejects == expected
            assert [n for n, _ in r.rejected_lines] == [3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16]
        assert records == table.records()
        assert [(r.cell, r.service, r.direction, r.volume) for r in records] == [
            (CellId(1, 1), "App", "uplink", 1.5), (CellId(2, 3), "Other", "downlink", 0.0)]

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
        tax = ServiceTaxonomy({"A": "X"}, ("X",))
        with pytest.raises(UnknownServiceError):
            tax.category_index("B")

    def test_mapping_to_unlisted_category_rejected(self):
        with pytest.raises(DataError):
            ServiceTaxonomy({"A": "X"}, ("Y",))

    def test_shipped_example_has_68_services_30_categories(self):
        path = files("vibrancy").joinpath("data/service_categories_example.csv")
        tax = load_taxonomy(io.StringIO(path.read_text(encoding="utf-8")))
        assert len(tax.mapping) == 68
        assert tax.n_categories == 30
        messaging = {s for s, c in tax.mapping.items() if c == "Messaging"}
        assert messaging == {
            "Apple iMessage", "Facebook Messenger", "Skype", "Telegram", "WhatsApp"
        }
