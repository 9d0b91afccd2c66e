"""Per-layer metrics computed from the spans of one traced scan.

Layers are forkscan's modules. A module's self time is the time its spans
cover minus the part of that time their child spans cover; a stage's own
time is its wall time minus that of the stages nested in it, so the kernel
calls and git subprocesses a stage makes count towards that stage.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import GIT_SPAN

LAYERS = ("cli", "patchmodel", "preprocess", "gitio", "search", "simcore",
          "verdict", "delay", "report")

# Functions whose calls, wall_s and cpu_s are reported, plus extra stats.
TIMED = (
    "patchmodel.load_patch",
    "preprocess.extract_statements",
    "gitio.grep_repo", "gitio.read_file_at", "gitio.blame_lines",
    "gitio.commit_time", "gitio.releases_containing",
    "search.find_key_statements", "search.expand_boundary",
    "search.finalize_contexts", "search.collect_candidates",
    "simcore.strsim", "simcore.fragment_similarity",
    "verdict.judge_candidate",
    "delay.fix_delay",
    "report.emit_report",
)

# Pipeline stages for naming the dominant one.
STAGES = (
    "patchmodel.load_patch", "gitio.grep_repo", "gitio.read_file_at",
    "preprocess.extract_statements", "search.find_key_statements",
    "search.expand_boundary", "search.finalize_contexts",
    "verdict.judge_candidate", "delay.fix_delay", "report.emit_report",
)

# What each workload exists to stress: ("layer", name) is judged by module
# self time, ("stage", name) by stage own time.
EXPECTED_DOMINANT = {
    "corpus-cross": ("layer", "simcore"),
    "fork-sparse": ("stage", "gitio.grep_repo"),
    "fork-dense": ("stage", "search.expand_boundary"),
}

TASK_SPAN = "cli._scan_one_hunk"
RUN_SPAN = "gitio.RepoHandle._run"


def units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    table: dict[str, str] = {}
    for name in TIMED:
        table.update({f"{name}.calls": "count", f"{name}.wall_s": "s",
                      f"{name}.cpu_s": "s"})
    table.update({f"{layer}.self_s": "s" for layer in LAYERS})
    table.update({
        "cli.run_detect.wall_s": "s", "cli.task_cpu_s": "s",
        "cli.task_wait_s": "s", "cli.parallelism": "ratio",
        "patchmodel.hunks": "count", "patchmodel.keywords": "count",
        "preprocess.extract_statements.lines_in": "count",
        "preprocess.extract_statements.stmts_out": "count",
        "gitio.grep_repo.hits": "count", "gitio.read_file_at.lines": "count",
        "gitio.git_calls": "count", "gitio.git_s": "s", "gitio.lock_wait_s": "s",
        "search.grep_hits": "count", "search.key_statements": "count",
        "search.boundaries": "count", "search.contexts": "count",
        "search.candidates": "count", "search.ks_yield": "ratio",
        "search.boundary_yield": "ratio", "search.context_yield": "ratio",
        "simcore.strsim.distinct_frac": "ratio", "simcore.strsim.cells": "count",
        "verdict.decided_frac": "ratio", "delay.git_calls_per_fix": "ratio",
        "delay.attributed_frac": "ratio", "report.bytes": "bytes",
        # from the traced and untraced scan walls, not from the spans
        "trace.scan_s": "s", "trace.overhead_s": "s",
    })
    return table


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may run in parallel)."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def analyse(trace: dict, scan_s: float) -> tuple[dict[str, float], dict]:
    """(metrics by name, breakdown) for one traced scan of wall `scan_s`."""
    spans = trace["spans"]
    counts = defaultdict(int, trace["counts"])
    by_id = {s[0]: s for s in spans}
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        kids[s[4]].append(s)

    calls: dict[str, int] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for sid, name, w0, w1, _, _, c in spans:
        calls[name] += 1
        wall[name] += w1 - w0
        cpu[name] += c
        self_s[name.split(".")[0]] += (w1 - w0) - _covered(
            [(k[2], k[3]) for k in kids[sid]]
        )
        if name in STAGES:
            own[name] += (w1 - w0) - sum(
                k[3] - k[2] for k in _nested_stages(sid, kids)
            )

    lock_wait = wall[RUN_SPAN] - sum(
        k[3] - k[2] for s in spans if s[1] == RUN_SPAN
        for k in kids[s[0]] if k[1] == GIT_SPAN
    )
    fix_git_calls = sum(
        1 for s in spans if s[1] == GIT_SPAN and _has_ancestor(s, "delay.fix_delay", by_id)
    )

    m: dict[str, float] = {}
    for name in TIMED:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.wall_s"] = wall[name]
        m[f"{name}.cpu_s"] = cpu[name]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m.update({
        "cli.run_detect.wall_s": wall["cli.run_detect"],
        "cli.task_cpu_s": cpu[TASK_SPAN],
        "cli.task_wait_s": wall[TASK_SPAN] - cpu[TASK_SPAN],
        "cli.parallelism": _ratio(wall[TASK_SPAN], scan_s),
        "patchmodel.hunks": counts["patchmodel.hunks"],
        "patchmodel.keywords": counts["patchmodel.keywords"],
        "preprocess.extract_statements.lines_in":
            counts["preprocess.extract_statements.lines_in"],
        "preprocess.extract_statements.stmts_out":
            counts["preprocess.extract_statements.stmts_out"],
        "gitio.grep_repo.hits": counts["gitio.grep_repo.hits"],
        "gitio.read_file_at.lines": counts["gitio.read_file_at.lines"],
        "gitio.git_calls": calls[GIT_SPAN],
        "gitio.git_s": wall[GIT_SPAN],
        "gitio.lock_wait_s": lock_wait,
        # grep is issued only by the key-statement search
        "search.grep_hits": counts["gitio.grep_repo.hits"],
        "search.key_statements": counts["search.key_statements"],
        "search.boundaries": counts["search.boundaries"],
        "search.contexts": counts["search.contexts"],
        "search.candidates": counts["search.candidates"],
        "search.ks_yield": _ratio(
            counts["search.key_statements"], counts["gitio.grep_repo.hits"]
        ),
        "search.boundary_yield": _ratio(
            counts["search.boundaries"], calls["search.expand_boundary"]
        ),
        "search.context_yield": _ratio(
            counts["search.contexts"], counts["search.boundaries"]
        ),
        "simcore.strsim.distinct_frac": _ratio(
            counts["simcore.strsim.distinct"], calls["simcore.strsim"]
        ),
        "simcore.strsim.cells": counts["simcore.strsim.cells"],
        "verdict.decided_frac": _ratio(
            counts["verdict.decided"], calls["verdict.judge_candidate"]
        ),
        "delay.git_calls_per_fix": _ratio(fix_git_calls, calls["delay.fix_delay"]),
        "delay.attributed_frac": _ratio(
            counts["delay.attributed"], calls["delay.fix_delay"]
        ),
        "report.bytes": counts["report.bytes"],
    })
    breakdown = {
        "layers": {layer: self_s[layer] for layer in LAYERS},
        "stages": {stage: own[stage] for stage in STAGES},
    }
    return m, breakdown


def _nested_stages(sid: int, kids: dict[int, list]):
    """The stage spans nearest below span sid."""
    for k in kids[sid]:
        if k[1] in STAGES:
            yield k
        else:
            yield from _nested_stages(k[0], kids)


def _has_ancestor(span, name: str, by_id: dict) -> bool:
    parent = by_id.get(span[4])
    while parent is not None:
        if parent[1] == name:
            return True
        parent = by_id.get(parent[4])
    return False


def dominance(workload: str, breakdown: dict) -> str:
    """One line naming the dominant layer and stage against expectation."""
    layers, stages = breakdown["layers"], breakdown["stages"]
    top_layer = max(layers, key=layers.get)
    top_stage = max(stages, key=stages.get)
    kind, expected = EXPECTED_DOMINANT[workload]
    found = top_layer if kind == "layer" else top_stage
    share = {"layer": layers, "stage": stages}[kind]
    verdict = "agrees" if found == expected else "DISAGREES"
    return (
        f"dominant layer {top_layer} ({layers[top_layer]:.2f} s self), "
        f"dominant stage {top_stage} ({stages[top_stage]:.2f} s own); "
        f"expected {kind} {expected} ({share.get(expected, 0.0):.2f} s): {verdict}"
    )
