"""Result serialization: verdict rows, per-target summaries, CDF point sets.

JSON is the canonical format (schema_version 1) and carries every
intermediate similarity so a verdict can be audited without rerunning the
scan; CSV is a flat projection of the same rows. Output is deterministic:
no timestamps, stable field order, stable row order.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime
from typing import NamedTuple

SCHEMA_VERSION = 1


class DelayRecord(NamedTuple):
    """Fix attribution of a Fixed row: the true fix commit, its first
    release as (tag, date), and the days from the source patch to that
    release. Any field is None when it could not be established."""

    true_fix: str | None
    release: tuple[str, datetime] | None
    delay_days: int | None

    def to_dict(self) -> dict:
        tag, date = self.release if self.release is not None else (None, None)
        return {
            "true_fix": self.true_fix,
            "release_tag": tag,
            "release_date": delay_iso(date),
            "delay_days": self.delay_days,
        }


class ResultRow(NamedTuple):
    """One (patch, target) verdict with its audit trail."""

    patch: str
    target: str
    status: str  # Vulnerable | Fixed | ContextNotFound
    conf: float
    path: str | None = None
    span: tuple[int, int] | None = None
    ctx_sim_up: float | None = None
    ctx_sim_down: float | None = None
    s_del: float | None = None
    s_add: float | None = None
    delay: DelayRecord | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return self._asdict() | {
            "span": list(self.span) if self.span is not None else None,
            "delay": self.delay.to_dict() if self.delay is not None else None,
        }


class ScanReport(NamedTuple):
    tool_version: str
    params: dict
    patches: list[dict]
    targets: list[dict]
    results: list[ResultRow]

    def summary(self) -> dict:
        """Per-target verdict counts, recomputed from the rows."""
        by_target: dict[str, dict[str, int]] = {}
        for row in self.results:
            counts = by_target.setdefault(
                row.target, {"Vulnerable": 0, "Fixed": 0, "ContextNotFound": 0}
            )
            counts[row.status] += 1
        return by_target

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "params": dict(self.params),
            "patches": list(self.patches),
            "targets": list(self.targets),
            "results": [r.to_dict() for r in sorted_rows(self.results)],
            "summary": self.summary(),
        }


def sorted_rows(rows: list[ResultRow]) -> list[ResultRow]:
    return sorted(rows, key=lambda r: (r.patch, r.target))


_CSV_COLUMNS = [
    "patch", "target", "status", "conf", "path", "span_start", "span_end",
    "ctx_sim_up", "ctx_sim_down", "s_del", "s_add",
    "true_fix", "release_tag", "release_date", "delay_days", "note",
]


def emit_report(report: ScanReport, format: str = "json") -> str:
    """Serialize the report; JSON is canonical, CSV a flat row projection."""
    if format == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in sorted_rows(report.results):
            d = row.to_dict()
            d["span_start"], d["span_end"] = d.pop("span") or (None, None)
            d.update(d.pop("delay") or DelayRecord(None, None, None).to_dict())
            writer.writerow([_blank(d[c]) for c in _CSV_COLUMNS])
        return buf.getvalue()
    raise ValueError(f"unknown report format: {format}")


def _blank(v) -> object:
    return "" if v is None else v


class CdfSeries(NamedTuple):
    """Empirical CDF: distinct ascending values with cumulative fractions."""

    values: list[float]
    fractions: list[float]


def emit_cdf(values: list[float]) -> CdfSeries:
    """Step-function CDF over the values; duplicates collapse to one point."""
    if not values:
        raise ValueError("cannot build a CDF from no values")
    ordered = sorted(values)
    n = len(ordered)
    points: list[tuple[float, float]] = []
    for i, v in enumerate(ordered, 1):
        if i < n and ordered[i] == v:
            continue  # keep only the last occurrence of each value
        points.append((v, i / n))
    return CdfSeries(
        values=[p[0] for p in points], fractions=[p[1] for p in points]
    )


def write_cdf_csv(series: CdfSeries, path: str) -> None:
    _write_csv(path, ["value", "cum_fraction"], zip(series.values, series.fractions))


def write_rsweep_csv(series_by_r: list[tuple[float, CdfSeries]], path: str) -> None:
    """CDF per reward factor, flattened to (r, value, cum_fraction) rows."""
    _write_csv(path, ["r", "value", "cum_fraction"], (
        (r, v, f) for r, s in series_by_r for v, f in zip(s.values, s.fractions)
    ))


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def delay_iso(dt: datetime | None) -> str | None:
    return dt.isoformat() if dt is not None else None
