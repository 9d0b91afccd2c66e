"""Security-patch parsing: unified diffs -> hunks of deleted/added statements
plus the surrounding UP/DOWN contexts that drive the candidate search.

A hunk's deleted statements (dp) textually exist only at the patch's parent
revision, its added statements (ap) only at the patch revision; contexts are
read from whichever side the hunk actually changes (parent for dp-bearing
hunks, the patch revision for pure additions).
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
    committed_at: datetime | None = None
    label: str = ""


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


def _diff_text_for_commit(repo: RepoHandle, sha: str) -> str:
    proc = repo._run(
        ["diff-tree", "--root", "-r", "-p", "-U0", "--no-color", "--format=", sha],
        check=False,
    )
    if proc.returncode != 0:
        raise gitio.NotFoundError(
            f"cannot diff commit {sha} in {repo.root}: "
            f"{proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    text = proc.stdout.decode("utf-8", errors="replace")
    if text.strip():
        return text
    # Merge commits produce no diff-tree output; fall back to first parent.
    proc = repo._run(["diff", "-U0", "--no-color", f"{sha}^", sha], check=False)
    if proc.returncode not in (0, 1):
        raise gitio.GitError(
            f"git diff failed for {sha}: {proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    return proc.stdout.decode("utf-8", errors="replace")


def _stmts_by_line(stmts: list[NormalizedLine]) -> dict[int, NormalizedLine]:
    return {s.line_no: s for s in stmts}


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
    hunks: list[_RawHunk],
    gap_statements: Callable[[int, int], int],
    c_lines: int,
) -> list[list[_RawHunk]]:
    """Group adjacent hunks whose unchanged gap is under 2 * c_lines."""
    groups: list[list[_RawHunk]] = []
    for h in hunks:
        if groups:
            prev = groups[-1][-1]
            gap = gap_statements(prev.old_span[1], h.old_span[0])
            if gap < 2 * c_lines:
                groups[-1].append(h)
                continue
        groups.append([h])
    return groups


def parse_patch(
    source: RepoHandle | str,
    sha: str | None = None,
    c_lines: int = 5,
) -> Patch:
    """Build a Patch from a commit in a repository or from unified diff text.

    Changed lines that normalize to nothing (comments, blanks, lone brackets)
    are dropped; hunks left empty are discarded with a warning. Adjacent
    hunks separated by fewer than 2 * c_lines unchanged statements merge into
    one logical hunk. Each hunk carries its UP and DOWN contexts of up to
    c_lines statements.
    """
    if c_lines < 1:
        raise ValueError("c_lines must be >= 1")
    repo: RepoHandle | None = None
    if isinstance(source, RepoHandle):
        if not sha:
            raise PatchError("a commit sha is required with a source repository")
        repo = source
        diff_text = _diff_text_for_commit(repo, sha)
        committed_at = gitio.commit_time(repo, sha)
    else:
        diff_text = source
        committed_at = None

    files = parse_unified_diff(diff_text)
    if not files:
        raise PatchError("no file hunks found in patch input")

    hunks: list[PatchHunk] = []
    for fd in files:
        hunks.extend(_build_file_hunks(fd, repo, sha, c_lines))
    if not hunks:
        raise PatchError("patch contains no meaningful statements after filtering")
    return Patch(
        source_sha=sha,
        hunks=hunks,
        committed_at=committed_at,
        label=sha or "diff",
    )


def _statements_at(
    repo: RepoHandle, rev: str, path: str, file_class: FileClass
) -> list[NormalizedLine]:
    try:
        lines = gitio.read_file_at(repo, rev, path)
    except gitio.NotFoundError:
        lines = []
    return extract_statements(lines, path, file_class)


def _build_file_hunks(
    fd: _FileDiff, repo: RepoHandle | None, sha: str | None, c_lines: int
) -> list[PatchHunk]:
    path = fd.path
    file_class = classify_file(path)

    old_stmts: list[NormalizedLine] = []
    new_stmts: list[NormalizedLine] = []
    if repo is not None:
        if any(h.removed or h.old_count for h in fd.hunks) and fd.old_path != "/dev/null":
            old_stmts = _statements_at(repo, f"{sha}^", fd.old_path, file_class)
        if fd.new_path != "/dev/null":
            new_stmts = _statements_at(repo, sha, fd.new_path, file_class)
        old_stmt_map = _stmts_by_line(old_stmts)
        new_stmt_map = _stmts_by_line(new_stmts)

        def gap_statements(prev_end: int, next_start: int) -> int:
            return sum(1 for s in old_stmts if prev_end < s.line_no < next_start)

    else:

        def gap_statements(prev_end: int, next_start: int) -> int:
            # No file content available: fall back to the raw line distance.
            return max(0, next_start - prev_end - 1)

    result: list[PatchHunk] = []
    for group in _merge_hunks(fd.hunks, gap_statements, c_lines):
        dp: list[NormalizedLine] = []
        ap: list[NormalizedLine] = []
        for rh in group:
            if repo is not None:
                dp.extend(
                    old_stmt_map[ln] for ln, _ in rh.removed if ln in old_stmt_map
                )
                ap.extend(
                    new_stmt_map[ln] for ln, _ in rh.added if ln in new_stmt_map
                )
            else:
                removed_set = {ln for ln, _ in rh.removed}
                added_set = {ln for ln, _ in rh.added}
                old_run = sorted(
                    [(ln, t) for ln, _, t in rh.ctx_before]
                    + rh.removed
                    + [(ln, t) for ln, _, t in rh.ctx_after]
                )
                new_run = sorted(
                    [(ln, t) for _, ln, t in rh.ctx_before]
                    + rh.added
                    + [(ln, t) for _, ln, t in rh.ctx_after]
                )
                dp.extend(
                    s for s in _fragment_stmts(old_run, path, file_class)
                    if s.line_no in removed_set
                )
                ap.extend(
                    s for s in _fragment_stmts(new_run, path, file_class)
                    if s.line_no in added_set
                )
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

        use_old = bool(dp)
        lo, hi = old_span if use_old else new_span
        if repo is not None:
            stmts = old_stmts if use_old else new_stmts
            above = [s for s in stmts if s.line_no < lo]
            below = [s for s in stmts if s.line_no > hi]
        else:
            # Without a repository the diff's own context lines stand in.
            # ctx_after also holds the lines between two changes of one raw
            # hunk; only those past the span lie below it.
            def on_side(ctx: list[tuple[int, int, str]]) -> list[tuple[int, str]]:
                return [(o if use_old else n, t) for o, n, t in ctx]

            above = _fragment_stmts(on_side(group[0].ctx_before), path, file_class)
            below = _fragment_stmts(
                [(ln, t) for ln, t in on_side(group[-1].ctx_after) if ln > hi],
                path, file_class,
            )
        up_ctx, down_ctx = build_patch_context(above, below, c_lines)
        if not up_ctx and not down_ctx:
            log.warning("%s: no meaningful context around hunk at %s", path, (lo, hi))

        result.append(
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
    return result


def build_patch_context(
    above: list[NormalizedLine], below: list[NormalizedLine], c_lines: int
) -> tuple[PatchContext, PatchContext]:
    """UP and DOWN contexts: the c_lines statements nearest the hunk on each
    side, truncated at file (or diff) boundaries."""
    return (
        PatchContext([(extract_keyword(s), s) for s in above[-c_lines:]], Side.UP),
        PatchContext([(extract_keyword(s), s) for s in below[:c_lines]], Side.DOWN),
    )


def load_patch(
    source: RepoHandle | None,
    sha: str | None = None,
    diff_text: str | None = None,
    c_lines: int = 5,
) -> Patch:
    """The patch of commit sha in source, or of diff_text when given."""
    if diff_text is not None:
        return parse_patch(diff_text, c_lines=c_lines)
    if source is None or sha is None:
        raise PatchError("need a repository and sha, or diff text")
    return parse_patch(source, sha, c_lines=c_lines)


_MANIFEST_RE = re.compile(r"^([0-9A-Za-z_.\-/^~]+)(?::(.*))?$")


def parse_manifest(text: str) -> list[tuple[str, str]]:
    """Parse a patch manifest: one `sha[:note]` per line, '#' comments."""
    entries: list[tuple[str, str]] = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _MANIFEST_RE.match(line)
        if not m:
            raise PatchError(f"manifest line {no} is malformed: {raw!r}")
        entries.append((m.group(1), (m.group(2) or "").strip()))
    return entries
