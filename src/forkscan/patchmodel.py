"""Security-patch parsing: unified diffs -> hunks of deleted/added statements
plus the surrounding UP/DOWN contexts that drive the candidate search.

One body builds every hunk from the statements of its two sides. A hunk's
deleted statements (dp) are the old side's statements at its removed lines,
its added statements (ap) the new side's at its added lines, and its
contexts are read from the side it changes (the old side for dp-bearing
hunks, the new side for pure additions). The inputs differ only in where a
side's statements come from: for a commit (`load_patch`) the whole file at
the parent revision and at the commit; for diff text (`parse_patch`) the
diff's own lines, so a diff with whole-file context yields the commit's
hunks. Adjacent raw hunks merge when their gap is under 2 * CONTEXT_LINES,
counted in statements for a commit and in raw lines for diff text.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum

from . import gitio
from .gitio import RepoHandle
from .preprocess import (
    ContextKeyword,
    FileClass,
    NormalizedLine,
    classify_file,
    extract_keyword,
    extract_statements,
)

log = logging.getLogger(__name__)

# Statements per context side; raw hunks closer than twice this merge.
CONTEXT_LINES = 5


class PatchError(Exception):
    """Malformed patch input or an unusable hunk."""


class PatchType(Enum):
    DEL = "DEL"
    ADD = "ADD"
    CHA = "CHA"


class Side(Enum):
    UP = "up"
    DOWN = "down"


@dataclass
class PatchContext:
    """Ordered (keyword, statement) entries above or below a hunk."""

    entries: list[tuple[ContextKeyword | None, NormalizedLine]]
    side: Side

    @property
    def statements(self) -> list[NormalizedLine]:
        return [stmt for _, stmt in self.entries]

    @property
    def keywords(self) -> list[ContextKeyword]:
        return [kw for kw, _ in self.entries if kw is not None]

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


@dataclass
class PatchHunk:
    """One unit of change: deleted statements, added statements, contexts."""

    path: str
    file_class: FileClass
    dp: list[NormalizedLine]
    ap: list[NormalizedLine]
    ptype: PatchType
    up_ctx: PatchContext
    down_ctx: PatchContext
    old_path: str = ""
    # Inclusive raw-line spans of the changed region; an empty side is
    # encoded as (anchor + 1, anchor) so "above" and "below" stay correct.
    old_span: tuple[int, int] = (1, 0)
    new_span: tuple[int, int] = (1, 0)

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


def _ptype(dp: list, ap: list) -> PatchType:
    if dp and ap:
        return PatchType.CHA
    if dp:
        return PatchType.DEL
    if ap:
        return PatchType.ADD
    raise PatchError("hunk has neither deleted nor added statements")


# ---------------------------------------------------------------------------
# Unified diff parsing


@dataclass
class _RawHunk:
    old_start: int
    old_count: int
    new_start: int
    new_count: int
    removed: list[tuple[int, str]] = field(default_factory=list)  # (old line, text)
    added: list[tuple[int, str]] = field(default_factory=list)  # (new line, text)
    # Context lines as (old line, new line, text), in order of appearance.
    ctx_before: list[tuple[int, int, str]] = field(default_factory=list)
    ctx_after: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def old_span(self) -> tuple[int, int]:
        if self.removed:
            return (self.removed[0][0], self.removed[-1][0])
        return _empty_span(self.old_start, self.old_count, len(self.ctx_before))

    @property
    def new_span(self) -> tuple[int, int]:
        if self.added:
            return (self.added[0][0], self.added[-1][0])
        return _empty_span(self.new_start, self.new_count, len(self.ctx_before))

    def side_lines(self, old: bool) -> list[tuple[int, str]]:
        """One side's (line, text) run: leading context, changes, trailing context."""
        changed = self.removed if old else self.added
        ctx = [(o if old else n, t) for o, n, t in self.ctx_before + self.ctx_after]
        return sorted(ctx + changed)


def _empty_span(start: int, count: int, leading: int) -> tuple[int, int]:
    """(anchor + 1, anchor) for a side with no changed lines, anchor being
    the last line before the change. A zero-count range names that line
    itself; otherwise the range starts with the `leading` context lines.
    The same change so gets the same span at any context width."""
    anchor = (start if count == 0 else start - 1) + leading
    return (anchor + 1, anchor)


@dataclass
class _FileDiff:
    old_path: str
    new_path: str
    hunks: list[_RawHunk] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.new_path if self.new_path != "/dev/null" else self.old_path


_HUNK_HEADER_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def _strip_diff_prefix(path: str) -> str:
    if path == "/dev/null":
        return path
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


def parse_unified_diff(text: str) -> list[_FileDiff]:
    """Parse unified diff text into per-file raw hunks."""
    files: list[_FileDiff] = []
    current: _FileDiff | None = None
    hunk: _RawHunk | None = None
    old_ln = new_ln = old_rem = new_rem = 0
    pending_changes = False
    old_header: str | None = None
    for no, line in enumerate(text.split("\n"), 1):
        if hunk is not None and (old_rem > 0 or new_rem > 0):
            # Inside a hunk the declared line counts win over any
            # header-looking content (e.g. a removed line "--- x").
            if line.startswith("-"):
                hunk.removed.append((old_ln, line[1:]))
                old_ln += 1
                old_rem -= 1
                pending_changes = True
            elif line.startswith("+"):
                hunk.added.append((new_ln, line[1:]))
                new_ln += 1
                new_rem -= 1
                pending_changes = True
            elif line.startswith(" ") or line == "":
                dest = hunk.ctx_after if pending_changes else hunk.ctx_before
                dest.append((old_ln, new_ln, line[1:]))
                old_ln += 1
                new_ln += 1
                old_rem -= 1
                new_rem -= 1
            elif line.startswith("\\"):
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
            current = _FileDiff(old_path=old_header or new_path, new_path=new_path)
            files.append(current)
            old_header = None
            continue
        m = _HUNK_HEADER_RE.match(line)
        if m:
            if current is None:
                raise PatchError(f"hunk header outside any file at diff line {no}")
            old_start = int(m.group(1))
            old_count = int(m.group(2)) if m.group(2) is not None else 1
            new_start = int(m.group(3))
            new_count = int(m.group(4)) if m.group(4) is not None else 1
            hunk = _RawHunk(old_start, old_count, new_start, new_count)
            current.hunks.append(hunk)
            # Zero-count ranges anchor to the line before the change.
            old_ln = old_start if old_count > 0 else old_start + 1
            new_ln = new_start if new_count > 0 else new_start + 1
            old_rem, new_rem = old_count, new_count
            pending_changes = False
            continue
        # Commit message, index lines, mode changes, rename markers...
    return [f for f in files if f.hunks]


# ---------------------------------------------------------------------------
# Patch assembly

# Merged raw hunks with the old- and new-side statements they read from.
_Group = tuple[list[_RawHunk], list[NormalizedLine], list[NormalizedLine]]


def _diff_text_for_commit(repo: RepoHandle, sha: str) -> str:
    """The commit's -U0 diff; a merge commit is diffed against its first parent."""
    proc = repo._run(
        ["diff-tree", "--root", "-r", "-p", "-U0", "--no-color", "--format=",
         "--diff-merges=first-parent", sha]
    )
    if proc.returncode != 0:
        raise gitio.NotFoundError(
            f"cannot diff commit {sha} in {repo.root}: "
            f"{proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    return proc.stdout.decode("utf-8", errors="replace")


def _statements_at(
    repo: RepoHandle, rev: str, path: str, file_class: FileClass
) -> list[NormalizedLine]:
    try:
        lines = gitio.read_file_at(repo, rev, path)
    except gitio.NotFoundError:
        lines = []
    return extract_statements(lines, path, file_class)


def _fragment_stmts(
    entries: list[tuple[int, str]], path: str, file_class: FileClass
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


def _merge_hunks(
    hunks: list[_RawHunk], gap_size: Callable[[int, int], int]
) -> list[list[_RawHunk]]:
    """Group adjacent hunks whose unchanged gap (gap_size between the old
    spans) is under 2 * CONTEXT_LINES."""
    groups: list[list[_RawHunk]] = []
    for h in hunks:
        if groups:
            prev = groups[-1][-1]
            gap = gap_size(prev.old_span[1], h.old_span[0])
            if gap < 2 * CONTEXT_LINES:
                groups[-1].append(h)
                continue
        groups.append([h])
    return groups


def load_patch(repo: RepoHandle, sha: str) -> Patch:
    """The patch of commit sha in repo.

    A side's statements are those of the whole file at sha^ (old) or sha
    (new); the gap between raw hunks counts the old side's statements.
    """
    diff_text = _diff_text_for_commit(repo, sha)
    committed_at = gitio.commit_time(repo, sha)

    def groups(fd: _FileDiff, file_class: FileClass) -> list[_Group]:
        old: list[NormalizedLine] = []
        new: list[NormalizedLine] = []
        if fd.old_path != "/dev/null":
            old = _statements_at(repo, f"{sha}^", fd.old_path, file_class)
        if fd.new_path != "/dev/null":
            new = _statements_at(repo, sha, fd.new_path, file_class)

        def gap(prev_end: int, next_start: int) -> int:
            return sum(1 for s in old if prev_end < s.line_no < next_start)

        return [(g, old, new) for g in _merge_hunks(fd.hunks, gap)]

    return Patch(sha, _build_hunks(diff_text, groups), committed_at, sha)


def parse_patch(diff_text: str) -> Patch:
    """The patch of unified diff text.

    The diff's own lines stand in for the file: a group's statements on each
    side are those of its raw hunks (leading context, changed lines, trailing
    context), and the gap between raw hunks counts raw lines.
    """

    def groups(fd: _FileDiff, file_class: FileClass) -> list[_Group]:
        def gap(prev_end: int, next_start: int) -> int:
            return max(0, next_start - prev_end - 1)

        def side(group: list[_RawHunk], old: bool) -> list[NormalizedLine]:
            return [s for rh in group
                    for s in _fragment_stmts(rh.side_lines(old), fd.path, file_class)]

        return [(g, side(g, True), side(g, False))
                for g in _merge_hunks(fd.hunks, gap)]

    return Patch(None, _build_hunks(diff_text, groups), None, "diff")


def _build_hunks(
    diff_text: str, groups: Callable[[_FileDiff, FileClass], list[_Group]]
) -> list[PatchHunk]:
    """The hunks of every file in diff_text, one per group of raw hunks.

    dp are the old side's statements at the removed lines, ap the new side's
    at the added lines; changed lines that normalize to nothing (comments,
    blanks, lone brackets) so drop out, and groups left empty are discarded
    with a warning. UP and DOWN are up to CONTEXT_LINES statements above and
    below the span on the side the hunk changes: the old side if it has dp.
    """
    files = parse_unified_diff(diff_text)
    if not files:
        raise PatchError("no file hunks found in patch input")

    hunks: list[PatchHunk] = []
    for fd in files:
        path = fd.path
        file_class = classify_file(path)
        for group, old_stmts, new_stmts in groups(fd, file_class):
            removed = {ln for rh in group for ln, _ in rh.removed}
            added = {ln for rh in group for ln, _ in rh.added}
            dp = [s for s in old_stmts if s.line_no in removed]
            ap = [s for s in new_stmts if s.line_no in added]
            if not dp and not ap:
                log.warning(
                    "%s: hunk at -%d/+%d empty after normalization; skipped",
                    path, group[0].old_start, group[0].new_start,
                )
                continue

            old_span = (min(h.old_span[0] for h in group),
                        max(h.old_span[1] for h in group))
            new_span = (min(h.new_span[0] for h in group),
                        max(h.new_span[1] for h in group))
            stmts, (lo, hi) = (old_stmts, old_span) if dp else (new_stmts, new_span)
            up_ctx, down_ctx = build_patch_context(
                [s for s in stmts if s.line_no < lo],
                [s for s in stmts if s.line_no > hi],
            )
            if not up_ctx and not down_ctx:
                log.warning("%s: no meaningful context around hunk at %s", path, (lo, hi))

            hunks.append(
                PatchHunk(
                    path=path,
                    file_class=file_class,
                    dp=dp,
                    ap=ap,
                    ptype=_ptype(dp, ap),
                    up_ctx=up_ctx,
                    down_ctx=down_ctx,
                    old_path=fd.old_path if fd.old_path != "/dev/null" else path,
                    old_span=old_span,
                    new_span=new_span,
                )
            )
    if not hunks:
        raise PatchError("patch contains no meaningful statements after filtering")
    return hunks


def build_patch_context(
    above: list[NormalizedLine], below: list[NormalizedLine]
) -> tuple[PatchContext, PatchContext]:
    """UP and DOWN contexts: the CONTEXT_LINES statements nearest the hunk on
    each side, truncated at file (or diff) boundaries."""
    up = above[-CONTEXT_LINES:]
    down = below[:CONTEXT_LINES]
    return (
        PatchContext([(extract_keyword(s), s) for s in up], Side.UP),
        PatchContext([(extract_keyword(s), s) for s in down], Side.DOWN),
    )


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
