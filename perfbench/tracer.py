"""Spans around forkscan's functions, recorded from outside the program.

`install` replaces each traced function by a wrapper in every `forkscan.*`
namespace that holds it (`simcore.strsim` is also `search.strsim`), then
checks that no namespace still holds an unwrapped original, so a later
import cannot silently escape the count. A span records name, start, end,
parent span, thread id, wall time and thread CPU time; spans stay in memory
until `dump` writes them out when the scan ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import subprocess
import sys
import threading
import time
from collections import Counter
from types import FunctionType, ModuleType

# Functions timed in every traced scan: the pipeline functions of each
# module that another module calls, so that time is counted in the module
# that spends it. `RepoHandle._run` is a method; `gitio.git` is the
# subprocess.run that gitio issues.
TRACED = {
    "cli": ["run_detect", "_load_patches", "_open_targets", "_scan_one_hunk",
            "_row_for", "_write_outputs"],
    "patchmodel": ["load_patch", "parse_patch", "build_patch_context",
                   "parse_manifest"],
    "preprocess": ["extract_statements", "extract_keyword", "classify_file"],
    "gitio": ["grep_repo", "read_file_at", "blame_lines", "commit_time",
              "releases_containing", "RepoHandle._run"],
    "search": ["find_key_statements", "expand_boundary", "finalize_contexts",
               "collect_candidates", "fetch_candidate_code"],
    "simcore": ["strsim", "fragment_similarity"],
    "verdict": ["judge_candidate", "aggregate"],
    "delay": ["fix_delay", "find_fix_commit", "earliest_release"],
    "report": ["emit_report", "emit_cdf", "write_cdf_csv", "delay_iso"],
}
GIT_SPAN = "gitio.git"


class CoverageError(RuntimeError):
    """A forkscan namespace still holds an unwrapped traced function."""


class Tracer:
    """In-memory span and counter store shared by all scan threads.

    Create it on the thread that starts the scan. A span opened on another
    thread with nothing open below it belongs to a task the scan's thread
    pool runs; its parent is the innermost span open on the starting thread.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[tuple[list, Counter, set]] = []
        self._ids = itertools.count(1)
        self._main_stack = self._state().stack

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [0]
            local.spans, local.counts, local.pairs = [], Counter(), set()
            with self._lock:
                self._per_thread.append((local.spans, local.counts, local.pairs))
        return local

    def wrap(self, name: str, fn, count=None):
        """Wrapper of fn that records one span per call. `count(local,
        args, result)` may add counters for the call."""
        tracer = self
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            span_id = next(tracer._ids)
            parent = local.stack[-1] or tracer._main_stack[-1]
            local.stack.append(span_id)
            c0, w0 = cpu(), perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                w1, c1 = perf(), cpu()
                local.stack.pop()
                local.spans.append(
                    (span_id, name, w0, w1, parent, threading.get_ident(), c1 - c0)
                )
            if count is not None:
                count(local, args, result)
            return result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        spans: list = []
        counts: Counter = Counter()
        pairs: set = set()
        with self._lock:
            for s, c, p in self._per_thread:
                spans.extend(s)
                counts.update(c)
                pairs |= p
        counts["simcore.strsim.distinct"] = len(pairs)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(counts), **extra}, fh)


# ---------------------------------------------------------------------------
# Counters added at the same boundaries as the spans


def _count_strsim(local, args, result):
    a, b = args[0], args[1]
    local.counts["simcore.strsim.cells"] += len(a) * len(b)
    local.pairs.add((a, b))


def _adder(key: str, measure):
    def count(local, args, result):
        local.counts[key] += measure(args, result)
    return count


def _count_extract(local, args, result):
    local.counts["preprocess.extract_statements.lines_in"] += len(args[0])
    local.counts["preprocess.extract_statements.stmts_out"] += len(result)


def _count_patch(local, args, result):
    local.counts["patchmodel.hunks"] += len(result.hunks)
    local.counts["patchmodel.keywords"] += sum(
        len(h.up_ctx.keywords) + len(h.down_ctx.keywords) for h in result.hunks
    )


COUNTERS = {
    "simcore.strsim": _count_strsim,
    "preprocess.extract_statements": _count_extract,
    "patchmodel.load_patch": _count_patch,
    "gitio.grep_repo": _adder("gitio.grep_repo.hits", lambda a, r: len(r)),
    "gitio.read_file_at": _adder("gitio.read_file_at.lines", lambda a, r: len(r)),
    "search.find_key_statements": _adder("search.key_statements", lambda a, r: len(r)),
    "search.expand_boundary": _adder("search.boundaries", lambda a, r: r is not None),
    "search.finalize_contexts": _adder("search.contexts", lambda a, r: len(r)),
    "search.collect_candidates": _adder(
        "search.candidates", lambda a, r: len(r.candidates)
    ),
    "verdict.judge_candidate": _adder("verdict.decided", lambda a, r: r.decided),
    "delay.fix_delay": _adder(
        "delay.attributed", lambda a, r: r is not None and r.release is not None
    ),
    "report.emit_report": _adder("report.bytes", lambda a, r: len(r.encode())),
}


class _SubprocessProxy:
    """Stands in for the `subprocess` module inside gitio only."""

    def __init__(self, run) -> None:
        self.run = run

    def __getattr__(self, name: str):
        return getattr(subprocess, name)


def _forkscan_modules() -> list[ModuleType]:
    return [m for n, m in sorted(sys.modules.items())
            if n == "forkscan" or n.startswith("forkscan.")]


def install(tracer: Tracer) -> int:
    """Wrap every traced function wherever forkscan refers to it; returns
    the number of references replaced. Raises CoverageError if an
    unwrapped original is left in any forkscan namespace."""
    import forkscan.cli  # noqa: F401  (imports every pipeline module)

    modules = {m.__name__.split(".")[-1]: m for m in _forkscan_modules()}
    originals: dict[int, object] = {}
    wrappers: dict[int, object] = {}
    for mod_name, attrs in TRACED.items():
        for attr in attrs:
            owner = modules[mod_name]
            *cls, fn_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            fn = getattr(owner, fn_name)
            name = f"{mod_name}.{attr}"
            wrapped = tracer.wrap(name, fn, COUNTERS.get(name))
            originals[id(fn)] = fn
            wrappers[id(fn)] = wrapped
            if cls:
                setattr(owner, fn_name, wrapped)
    replaced = 0
    for module in modules.values():
        for key, value in list(vars(module).items()):
            if id(value) in wrappers and value is originals[id(value)]:
                setattr(module, key, wrappers[id(value)])
                replaced += 1
    gitio = modules["gitio"]
    gitio.subprocess = _SubprocessProxy(tracer.wrap(GIT_SPAN, subprocess.run))
    _check_coverage(modules.values(), originals)
    return replaced


def _check_coverage(modules, originals: dict[int, object]) -> None:
    def is_original(value) -> bool:
        return id(value) in originals and originals[id(value)] is value

    def holders(namespace: dict, where: str):
        for key, value in namespace.items():
            if is_original(value):
                yield f"{where}.{key}"
            if isinstance(value, FunctionType):
                if any(is_original(d) for d in value.__defaults__ or ()):
                    yield f"{where}.{key} (default argument)"
            if isinstance(value, type) and value.__module__ == namespace.get("__name__"):
                yield from holders(dict(vars(value)), f"{where}.{key}")

    leaks = [h for m in modules for h in holders(vars(m), m.__name__)]
    if leaks:
        raise CoverageError("unwrapped traced functions remain: " + ", ".join(leaks))
