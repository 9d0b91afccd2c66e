"""Security-patch parsing: unified diffs -> hunks of deleted/added statements
plus the surrounding UP/DOWN contexts that drive the candidate search.

Every patch is read as diff text: a commit (`load_patch`) as its diff with
whole-file context, read by `gitio.commit_diffs` in one batch with every
other commit of the scan, whose header line carries the commit's id and
committer time, and a `--patch-file` (`parse_patch`) as given. The
diff's own lines are the only statement source: each git hunk's old-side and
new-side lines are extracted as one fragment each, so a commit's fragments
are its whole files. Each git hunk splits into change runs (maximal
stretches of -/+ lines), and adjacent runs merge when fewer than
2 * CONTEXT_LINES lines lie between them, a line the diff shows counting
only if it is a statement. A hunk's deleted statements (dp) are the old
side's statements at its removed lines, its added statements (ap) the new
side's at its added lines, and its contexts are read from the side it
changes (the old side for dp-bearing hunks, the new side for pure
additions). A hunk keeps only its file class, dp, ap, type and the two
contexts, each its statements and their keywords; every statement carries
its own path and line number.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

from .preprocess import (
    ContextKeyword,
    NormalizedLine,
    classify_file,
    extract_keyword,
    extract_statements,
)

log = logging.getLogger(__name__)

# Statements per context side; change runs closer than twice this merge.
CONTEXT_LINES = 5


class PatchError(Exception):
    """Malformed patch input or an unusable hunk."""


class PatchType(Enum):
    DEL = "DEL"
    ADD = "ADD"
    CHA = "CHA"


@dataclass
class PatchContext:
    """The statements above or below a hunk, in order, and the keywords of
    those that have one."""

    statements: list[NormalizedLine]
    keywords: list[ContextKeyword]


@dataclass
class PatchHunk:
    """One unit of change: deleted statements, added statements, contexts.
    Every statement carries its file's path."""

    file_class: str
    dp: list[NormalizedLine]
    ap: list[NormalizedLine]
    ptype: PatchType
    up_ctx: PatchContext
    down_ctx: PatchContext

    @property
    def code_len(self) -> int:
        """Statement count a candidate clone of this hunk should have."""
        return max(len(self.dp), len(self.ap), 1)


@dataclass
class Patch:
    source_sha: str | None
    hunks: list[PatchHunk]
    committed_at: datetime | None
    label: str


# ---------------------------------------------------------------------------
# Unified diff parsing


@dataclass
class _Run:
    """A maximal stretch of -/+ lines in one git hunk, as inclusive spans of
    the lines it removes and adds. A span starts at the side's line counter
    where the run starts, so an empty side is (ln, ln - 1)."""

    old_span: tuple[int, int]
    new_span: tuple[int, int]
    hunk: int  # index of its git hunk in the file


@dataclass
class _GitHunk:
    """One @@ hunk: every line it shows on each side, as (line, text) in
    order, and its change runs."""

    old_lines: list[tuple[int, str]] = field(default_factory=list)
    new_lines: list[tuple[int, str]] = field(default_factory=list)
    runs: list[_Run] = field(default_factory=list)


@dataclass
class _FileDiff:
    path: str
    hunks: list[_GitHunk] = field(default_factory=list)


_HUNK_HEADER_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def _strip_diff_prefix(path: str) -> str:
    if path == "/dev/null":
        return path
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


def parse_unified_diff(text: str) -> list[_FileDiff]:
    """Parse unified diff text into per-file git hunks."""
    files: list[_FileDiff] = []
    current: _FileDiff | None = None
    hunk: _GitHunk | None = None
    old_ln = new_ln = old_rem = new_rem = 0
    run: _Run | None = None  # the run the next -/+ line extends
    old_header: str | None = None
    for no, line in enumerate(text.split("\n"), 1):
        if hunk is not None and (old_rem > 0 or new_rem > 0):
            # Inside a hunk the declared line counts win over any
            # header-looking content (e.g. a removed line "--- x").
            tag, body = line[:1], line[1:]
            if tag in ("-", "+"):
                if run is None:
                    run = _Run((old_ln, old_ln - 1), (new_ln, new_ln - 1),
                               len(current.hunks) - 1)
                    hunk.runs.append(run)
                if tag == "-":
                    hunk.old_lines.append((old_ln, body))
                    run.old_span = (run.old_span[0], old_ln)
                    old_ln += 1
                    old_rem -= 1
                else:
                    hunk.new_lines.append((new_ln, body))
                    run.new_span = (run.new_span[0], new_ln)
                    new_ln += 1
                    new_rem -= 1
            elif tag == " " or line == "":
                hunk.old_lines.append((old_ln, body))
                hunk.new_lines.append((new_ln, body))
                old_ln += 1
                new_ln += 1
                old_rem -= 1
                new_rem -= 1
                run = None
            elif tag == "\\":
                pass  # "\ No newline at end of file"
            else:
                raise PatchError(f"truncated hunk at diff line {no}: {line!r}")
            continue
        if line.startswith("Binary files") or line.startswith("GIT binary patch"):
            log.warning("skipping binary content at diff line %d", no)
            current = None
            hunk = None
            continue
        if line.startswith("diff --git"):
            current = None
            hunk = None
            old_header = None
            continue
        if line.startswith("--- "):
            old_header = _strip_diff_prefix(line[4:].split("\t")[0])
            hunk = None
            continue
        if line.startswith("+++ "):
            new_path = _strip_diff_prefix(line[4:].split("\t")[0])
            if new_path == "/dev/null":
                new_path = old_header or new_path
            current = _FileDiff(new_path)
            files.append(current)
            old_header = None
            continue
        m = _HUNK_HEADER_RE.match(line)
        if m:
            if current is None:
                raise PatchError(f"hunk header outside any file at diff line {no}")
            old_start, new_start = int(m.group(1)), int(m.group(3))
            old_rem = int(m.group(2)) if m.group(2) is not None else 1
            new_rem = int(m.group(4)) if m.group(4) is not None else 1
            hunk = _GitHunk()
            current.hunks.append(hunk)
            # A zero-count range names the line before the change.
            old_ln = old_start if old_rem > 0 else old_start + 1
            new_ln = new_start if new_rem > 0 else new_start + 1
            run = None
            continue
        # Commit message, index lines, mode changes, rename markers...
    return [f for f in files if f.hunks]


# ---------------------------------------------------------------------------
# Patch assembly


def _fragment_stmts(
    entries: list[tuple[int, str]], path: str, file_class: str
) -> list[NormalizedLine]:
    """Extract statements from a contiguous run of (line number, text) pairs."""
    if not entries:
        return []
    base = entries[0][0]
    stmts = extract_statements([text for _, text in entries], path, file_class)
    return [
        NormalizedLine(s.raw, s.norm, path, base + (s.line_no - 1), s.kind)
        for s in stmts
    ]


def _merge_runs(fd: _FileDiff, old_stmts: list[NormalizedLine]) -> list[list[_Run]]:
    """The file's change runs, grouped in order.

    A run joins the group before it when fewer than 2 * CONTEXT_LINES old
    lines lie strictly between them, not counting a line the diff shows
    that is not a statement: a whole-file diff so counts statements, and a
    line between git hunks that the diff omits counts one.
    """
    shown = {ln for gh in fd.hunks for ln, _ in gh.old_lines}
    non_stmt = shown - {s.line_no for s in old_stmts}
    groups: list[list[_Run]] = []
    for run in (run for gh in fd.hunks for run in gh.runs):
        if groups:
            prev_end = groups[-1][-1].old_span[1]
            gap = sum(1 for ln in range(prev_end + 1, run.old_span[0])
                      if ln not in non_stmt)
            if gap < 2 * CONTEXT_LINES:
                groups[-1].append(run)
                continue
        groups.append([run])
    return groups


def load_patch(diff_text: str, label: str) -> Patch:
    """The patch of one commit's whole-file diff from `gitio.commit_diffs`:
    its source_sha is the full commit id and committed_at the committer time
    in UTC, both from the diff's header line."""
    hunks = _build_hunks(diff_text)
    full_sha, _, stamp = diff_text.split("\n", 1)[0].partition(" ")
    committed_at = datetime.fromisoformat(stamp).astimezone(timezone.utc)
    return Patch(full_sha, hunks, committed_at, label)


def parse_patch(diff_text: str) -> Patch:
    """The patch of unified diff text."""
    return Patch(None, _build_hunks(diff_text), None, "diff")


def _build_hunks(diff_text: str) -> list[PatchHunk]:
    """The hunks of every file in diff_text, one per group of change runs.

    A side's statements are those of each git hunk's lines on that side,
    extracted as one fragment per git hunk. dp are the old side's statements
    at the removed lines, ap the new side's at the added lines; changed
    lines that normalize to nothing (comments, blanks, lone brackets) so
    drop out, and groups left empty are discarded with a warning. UP and
    DOWN are up to CONTEXT_LINES statements of the group's git hunks above
    and below the span on the side the hunk changes: the old side if it
    has dp.
    """
    files = parse_unified_diff(diff_text)
    if not files:
        raise PatchError("no file hunks found in patch input")

    hunks: list[PatchHunk] = []
    for fd in files:
        path = fd.path
        file_class = classify_file(path)
        old_frags = [_fragment_stmts(gh.old_lines, path, file_class) for gh in fd.hunks]
        new_frags = [_fragment_stmts(gh.new_lines, path, file_class) for gh in fd.hunks]
        for runs in _merge_runs(fd, [s for frag in old_frags for s in frag]):
            first, last = runs[0].hunk, runs[-1].hunk + 1
            old_stmts = [s for frag in old_frags[first:last] for s in frag]
            new_stmts = [s for frag in new_frags[first:last] for s in frag]
            removed = {ln for r in runs for ln in range(r.old_span[0], r.old_span[1] + 1)}
            added = {ln for r in runs for ln in range(r.new_span[0], r.new_span[1] + 1)}
            dp = [s for s in old_stmts if s.line_no in removed]
            ap = [s for s in new_stmts if s.line_no in added]
            old_span = (runs[0].old_span[0], runs[-1].old_span[1])
            new_span = (runs[0].new_span[0], runs[-1].new_span[1])
            if not dp and not ap:
                log.warning(
                    "%s: hunk at -%d/+%d empty after normalization; skipped",
                    path, old_span[0], new_span[0],
                )
                continue

            stmts, (lo, hi) = (old_stmts, old_span) if dp else (new_stmts, new_span)
            up_ctx, down_ctx = build_patch_context(
                [s for s in stmts if s.line_no < lo],
                [s for s in stmts if s.line_no > hi],
            )
            if not up_ctx.statements and not down_ctx.statements:
                log.warning("%s: no meaningful context around hunk at %s", path, (lo, hi))

            ptype = PatchType.CHA if dp and ap else PatchType.DEL if dp else PatchType.ADD
            hunks.append(PatchHunk(file_class, dp, ap, ptype, up_ctx, down_ctx))
    if not hunks:
        raise PatchError("patch contains no meaningful statements after filtering")
    return hunks


def build_patch_context(
    above: list[NormalizedLine], below: list[NormalizedLine]
) -> tuple[PatchContext, PatchContext]:
    """UP and DOWN contexts: the CONTEXT_LINES statements nearest the hunk on
    each side, truncated at file (or diff) boundaries."""
    def context(stmts: list[NormalizedLine]) -> PatchContext:
        keywords = [extract_keyword(s) for s in stmts]
        return PatchContext(stmts, [kw for kw in keywords if kw is not None])

    return context(above[-CONTEXT_LINES:]), context(below[:CONTEXT_LINES])


_MANIFEST_RE = re.compile(r"^([0-9A-Za-z_.\-/^~]+)(?::.*)?$")


def parse_manifest(text: str) -> list[str]:
    """The shas of a patch manifest: one `sha[:note]` per line, '#' comments;
    notes are for the reader."""
    shas: list[str] = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _MANIFEST_RE.match(line)
        if not m:
            raise PatchError(f"manifest line {no} is malformed: {raw!r}")
        shas.append(m.group(1))
    return shas
