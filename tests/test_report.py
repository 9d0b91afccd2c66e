"""Report serialization, summaries, and CDF construction."""

import csv
import io
import json
from datetime import datetime, timezone

import pytest

from forkscan.report import (
    CdfSeries,
    DelayRecord,
    ResultRow,
    ScanReport,
    delay_iso,
    emit_cdf,
    emit_report,
    write_cdf_csv,
    write_rsweep_csv,
)

UTC = timezone.utc


def _sample_report() -> ScanReport:
    rows = [
        ResultRow(
            patch="beta123", target="dogeclone", status="Vulnerable", conf=0.6,
            path="src/init.cpp", span=(6, 6), ctx_sim_up=0.679245,
            ctx_sim_down=0.850481, s_del=1.0, s_add=0.472441,
        ),
        ResultRow(
            patch="alpha99", target="qtumlike", status="Fixed", conf=0.6,
            path="src/qt/bitcoin.cpp", span=(204, 208), s_del=0.47, s_add=1.0,
            delay=DelayRecord(
                true_fix="c" * 40,
                release=("v0.19.0", datetime(2020, 2, 22, tzinfo=UTC)),
                delay_days=196,
            ),
        ),
        ResultRow(
            patch="alpha99", target="dogeclone", status="ContextNotFound",
            conf=0.0, note="no candidates",
        ),
    ]
    return ScanReport(
        tool_version="0.1.0",
        params={"r": 0.95, "t": 0.4, "ks_threshold": 0.25,
                "context_lines": 5, "max_candidates": 10},
        patches=[{"sha": "alpha99", "note": ""}, {"sha": "beta123", "note": ""}],
        targets=[{"name": "dogeclone", "rev": "HEAD"},
                 {"name": "qtumlike", "rev": "HEAD"}],
        results=rows,
    )


def _fixed_row(doc: dict) -> dict:
    return next(r for r in doc["results"] if r["status"] == "Fixed")


class TestRoundTrip:
    """The emitted JSON, read back with json.loads, holds every report field."""

    def test_json_round_trip_preserves_rows(self):
        report = _sample_report()
        doc = json.loads(emit_report(report, "json"))
        assert doc["tool_version"] == report.tool_version
        assert doc["params"] == report.params
        assert doc["patches"] == report.patches
        assert doc["targets"] == report.targets
        assert doc["results"] == [
            {
                "patch": "alpha99", "target": "dogeclone",
                "status": "ContextNotFound", "conf": 0.0, "path": None,
                "span": None, "ctx_sim_up": None, "ctx_sim_down": None,
                "s_del": None, "s_add": None, "delay": None,
                "note": "no candidates",
            },
            {
                "patch": "alpha99", "target": "qtumlike", "status": "Fixed",
                "conf": 0.6, "path": "src/qt/bitcoin.cpp", "span": [204, 208],
                "ctx_sim_up": None, "ctx_sim_down": None, "s_del": 0.47,
                "s_add": 1.0,
                "delay": {
                    "true_fix": "c" * 40, "release_tag": "v0.19.0",
                    "release_date": "2020-02-22T00:00:00+00:00",
                    "delay_days": 196,
                },
                "note": "",
            },
            {
                "patch": "beta123", "target": "dogeclone",
                "status": "Vulnerable", "conf": 0.6, "path": "src/init.cpp",
                "span": [6, 6], "ctx_sim_up": 0.679245,
                "ctx_sim_down": 0.850481, "s_del": 1.0, "s_add": 0.472441,
                "delay": None, "note": "",
            },
        ]
        assert [list(r) for r in doc["results"]] == [
            ["patch", "target", "status", "conf", "path", "span", "ctx_sim_up",
             "ctx_sim_down", "s_del", "s_add", "delay", "note"]
        ] * 3

    def test_emission_is_deterministic(self):
        a = emit_report(_sample_report(), "json")
        b = emit_report(_sample_report(), "json")
        assert a == b
        report = _sample_report()
        shuffled = report._replace(results=list(reversed(report.results)))
        assert emit_report(shuffled, "json") == a

    def test_rows_sorted_by_patch_then_target(self):
        doc = json.loads(emit_report(_sample_report(), "json"))
        keys = [(r["patch"], r["target"]) for r in doc["results"]]
        assert keys == sorted(keys)

    def test_schema_version_checked(self):
        doc = json.loads(emit_report(_sample_report(), "json"))
        assert doc["schema_version"] == 1

    def test_delay_round_trip(self):
        doc = json.loads(emit_report(_sample_report(), "json"))
        delay = _fixed_row(doc)["delay"]
        assert list(delay.items()) == [
            ("true_fix", "c" * 40),
            ("release_tag", "v0.19.0"),
            ("release_date", "2020-02-22T00:00:00+00:00"),
            ("delay_days", 196),
        ]

    def test_unattributed_delay_is_four_nulls(self):
        report = _sample_report()
        i = next(i for i, r in enumerate(report.results) if r.status == "Fixed")
        report.results[i] = report.results[i]._replace(delay=DelayRecord(None, None, None))
        doc = json.loads(emit_report(report, "json"))
        assert _fixed_row(doc)["delay"] == {
            "true_fix": None, "release_tag": None,
            "release_date": None, "delay_days": None,
        }
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))
        fixed_csv = next(r for r in rows if r[2] == "Fixed")
        assert fixed_csv[11:15] == ["", "", "", ""]

    def test_no_timestamps_in_output(self):
        doc = json.loads(emit_report(_sample_report(), "json"))
        assert "generated_at" not in doc and "timestamp" not in doc


class TestSummary:
    def test_counts_per_target(self):
        assert _sample_report().summary() == {
            "dogeclone": {"Vulnerable": 1, "Fixed": 0, "ContextNotFound": 1},
            "qtumlike": {"Vulnerable": 0, "Fixed": 1, "ContextNotFound": 0},
        }

    def test_summary_embedded_in_json(self):
        doc = json.loads(emit_report(_sample_report(), "json"))
        assert doc["summary"] == _sample_report().summary()

    def test_empty_report(self):
        report = ScanReport(
            tool_version="0.1.0", params={}, patches=[], targets=[], results=[]
        )
        assert report.summary() == {}
        assert json.loads(emit_report(report, "json"))["results"] == []


class TestCsv:
    def test_columns_and_rows(self):
        text = emit_report(_sample_report(), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "patch", "target", "status", "conf", "path", "span_start",
            "span_end", "ctx_sim_up", "ctx_sim_down", "s_del", "s_add",
            "true_fix", "release_tag", "release_date", "delay_days", "note",
        ]
        assert len(rows) == 4  # header + three results
        by_key = {(r[0], r[1]): r for r in rows[1:]}
        fixed = by_key[("alpha99", "qtumlike")]
        assert fixed[2] == "Fixed"
        assert fixed[5:7] == ["204", "208"]
        assert fixed[11:15] == [
            "c" * 40, "v0.19.0", "2020-02-22T00:00:00+00:00", "196",
        ]
        missing = by_key[("alpha99", "dogeclone")]
        assert missing[4] == "" and missing[15] == "no candidates"

    def test_csv_row_order_matches_json(self):
        text = emit_report(_sample_report(), "csv")
        keys = [(r[0], r[1]) for r in list(csv.reader(io.StringIO(text)))[1:]]
        assert keys == sorted(keys)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(_sample_report(), "xml")


class TestCdf:
    def test_simple_series(self):
        series = emit_cdf([3.0, 1.0, 2.0, 4.0])
        assert series.values == [1.0, 2.0, 3.0, 4.0]
        assert series.fractions == [0.25, 0.5, 0.75, 1.0]

    def test_duplicates_collapse_keeping_last(self):
        series = emit_cdf([1.0, 2.0, 2.0, 4.0])
        assert series.values == [1.0, 2.0, 4.0]
        assert series.fractions == [0.25, 0.75, 1.0]

    def test_single_value(self):
        series = emit_cdf([7.0])
        assert series.values == [7.0] and series.fractions == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_cdf([])

    def test_fractions_strictly_increase_to_one(self):
        import random

        rng = random.Random(20240814)
        for _ in range(25):
            values = [rng.randrange(0, 50) * 1.0 for _ in range(rng.randrange(1, 60))]
            series = emit_cdf(values)
            assert series.values == sorted(set(series.values))
            assert all(b > a for a, b in zip(series.fractions, series.fractions[1:]))
            assert series.fractions[-1] == pytest.approx(1.0, abs=1e-12)
            # Each fraction equals the share of values at or below that point.
            n = len(values)
            for v, f in zip(series.values, series.fractions):
                assert f == pytest.approx(
                    sum(1 for x in values if x <= v) / n, abs=1e-12
                )

    def test_write_cdf_csv(self, tmp_path):
        out = tmp_path / "cdf.csv"
        write_cdf_csv(emit_cdf([1.0, 2.0]), str(out))
        rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert rows == [["value", "cum_fraction"], ["1.0", "0.5"], ["2.0", "1.0"]]

    def test_write_rsweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        series = [
            (0.5, CdfSeries([0.1, 0.9], [0.5, 1.0])),
            (0.95, CdfSeries([0.2], [1.0])),
        ]
        write_rsweep_csv(series, str(out))
        rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert rows == [
            ["r", "value", "cum_fraction"],
            ["0.5", "0.1", "0.5"],
            ["0.5", "0.9", "1.0"],
            ["0.95", "0.2", "1.0"],
        ]


class TestDelayIso:
    def test_formats_datetime(self):
        assert delay_iso(datetime(2020, 2, 22, tzinfo=UTC)) == "2020-02-22T00:00:00+00:00"

    def test_none_passthrough(self):
        assert delay_iso(None) is None
