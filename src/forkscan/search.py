"""Locate candidate clones of a patch region inside a target repository.

When a target is opened, one git grep finds every patch's context
keywords in it, one more git call reads the files holding hits, and each
of those files is extracted into statements; no git runs after that. Each
context then reads the hits of its own keywords. Hits that survive the
comment/test/file-class/statement-kind filters become key statements (the
file class compared is the hunk's). Each key statement expands to a
boundary-delimited candidate context, contexts are kept when their
fragment similarity to the patch context passes the decision threshold, UP
and DOWN contexts are paired, and the statements between (or adjacent to)
them become candidate code.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from . import gitio
from .gitio import RepoHandle
from .patchmodel import CONTEXT_LINES, PatchContext, PatchHunk
from .preprocess import NormalizedLine, StatementKind, classify_file, extract_statements
from .simcore import KS_THRESHOLD, R, T, fragment_similarity, strsim, strsim_many

# cli.main sets this from `--verbose` on every call: find_key_statements
# then reports on stderr each context it cannot search.
verbose = False

# Path segments marking test code, compared case-insensitively.
TEST_PATH_SEGMENTS = frozenset({"test", "tests", "testing", "testdata", "spec", "bench"})

# Candidate contexts kept per patch context side, best ctx_sim first.
MAX_CANDIDATES = 10


class StatementCache:
    """One target at one revision, opened completely: every file the
    search reads, extracted into statements.

    keywords are every keyword a context may ask for. The constructor greps
    them in one git call (none when there are none), drops the hits in test
    code and reads every file holding one of the rest in one more; either
    failing, or a directory that is no git repository, raises GitError.
    Each hit file is extracted once, and no git process starts after that.
    """

    def __init__(self, repo: RepoHandle, rev: str, keywords: frozenset[str]):
        self.repo = repo
        self.rev = rev
        self.keywords = keywords
        hits = gitio.grep_repo(repo, sorted(keywords), rev) if keywords else []
        self.hits = [h for h in hits if not is_test_path(h.path)]
        paths = list(dict.fromkeys(h.path for h in self.hits))
        texts = gitio.read_files_at(repo, rev, paths)
        self._files: dict[str, tuple[list[NormalizedLine], dict[int, int]]] = {}
        for path in paths:
            # A name grep printed that names no file (its bytes are not
            # UTF-8) has no statements.
            stmts = extract_statements(texts.get(path, []), path, classify_file(path))
            self._files[path] = (stmts, {s.line_no: i for i, s in enumerate(stmts)})

    def file(self, path: str) -> tuple[list[NormalizedLine], dict[int, int]]:
        """A hit file's statements and the index of each by its line."""
        return self._files[path]


class CandidateContext(NamedTuple):
    """A target-side region judged similar enough to one patch context."""

    path: str
    ss_line: int
    es_line: int
    ctx_sim: float


class CandidateCode(NamedTuple):
    """Target statements to be judged against the patch's dp/ap."""

    path: str
    stmts: list[NormalizedLine]
    span: tuple[int, int]
    paired_up: CandidateContext | None
    paired_down: CandidateContext | None

    @property
    def norms(self) -> list[str]:
        return [s.norm for s in self.stmts]


def is_test_path(path: str) -> bool:
    """A path under a test directory, or a Go test file (`*_test.go`)."""
    return path.endswith("_test.go") or any(
        seg.lower() in TEST_PATH_SEGMENTS for seg in path.split("/")
    )


def find_key_statements(
    cache: StatementCache, ctx: PatchContext, patch_file_class: str
) -> list[NormalizedLine]:
    """Find the context keywords among the target's hits and keep the
    plausible ones.

    The hits are the cache's lines outside test code, in (path, line)
    order, that hold any of the keywords. A hit's statement is
    kept when it is a meaningful statement (not a comment), in a file of
    the same class as the patched file, and reaches KS_THRESHOLD in
    strsim against the source statement of a keyword its line contains
    and whose kind agrees with its own (OTHER agrees with every kind).
    """
    keywords = ctx.keywords
    if not keywords:
        if verbose:
            print(f"INFO {__name__}: no keywords in context; nothing to search",
                  file=sys.stderr)
        return []
    unknown = {kw.keyword for kw in keywords} - cache.keywords
    if unknown:
        raise ValueError(f"keywords not given to the cache: {sorted(unknown)}")
    found: list[NormalizedLine] = []
    for hit in cache.hits:
        on_line = [kw for kw in keywords if kw.keyword in hit.raw_line]
        if not on_line or classify_file(hit.path) != patch_file_class:
            continue
        stmts, index = cache.file(hit.path)
        stmt_idx = index.get(hit.line_no)
        if stmt_idx is None:
            continue  # comment, bracket-only or blank line
        stmt = stmts[stmt_idx]
        kinds = (stmt.kind, StatementKind.OTHER)
        if any(
            strsim(kw.source_line.norm, stmt.norm) >= KS_THRESHOLD for kw in on_line
            if kw.source_line.kind in kinds or stmt.kind is StatementKind.OTHER
        ):
            found.append(stmt)
    return found


def expand_boundary(
    cache: StatementCache, ks: NormalizedLine, patch_ctx: PatchContext
) -> tuple[int, int] | None:
    """Grow a key statement into a (start line, end line) context boundary.

    Within the CONTEXT_LINES statements above the key statement (inclusive)
    the best strsim match against the patch context's first statement
    becomes the start; within the CONTEXT_LINES below (inclusive), the best
    match against the last statement becomes the end. Both maxima must pass
    KS_THRESHOLD.
    """
    ctx_stmts = patch_ctx.statements
    up_window, down_window = _windows(cache, ks)
    ss = _best_in_window(up_window, ctx_stmts[0].norm, ks.line_no)
    es = _best_in_window(down_window, ctx_stmts[-1].norm, ks.line_no)
    if ss[0] < KS_THRESHOLD or es[0] < KS_THRESHOLD:
        return None
    return (ss[1], es[1])


def _windows(
    cache: StatementCache, ks: NormalizedLine
) -> tuple[list[NormalizedLine], list[NormalizedLine]]:
    """The statements expand_boundary searches for a key statement's start
    (CONTEXT_LINES above it, inclusive) and end (CONTEXT_LINES below)."""
    stmts, index = cache.file(ks.path)
    idx = index[ks.line_no]
    return stmts[max(0, idx - CONTEXT_LINES): idx + 1], stmts[idx: idx + CONTEXT_LINES + 1]


def _best_in_window(
    window: list[NormalizedLine], patch_norm: str, ks_line: int
) -> tuple[float, int]:
    """(similarity, line_no) of the window statement most like patch_norm.

    Ties prefer the statement closest to the key statement, then the lower
    line number. The window always holds the key statement itself.
    """
    sim, _, neg_line = max(
        (strsim(patch_norm, s.norm), -abs(s.line_no - ks_line), -s.line_no)
        for s in window
    )
    return (sim, -neg_line)


def finalize_contexts(
    cache: StatementCache,
    boundaries: list[tuple[str, tuple[int, int]]],
    patch_ctx: PatchContext,
) -> list[CandidateContext]:
    """Score boundary regions against the patch context and keep the best.

    ctx_sim is the fragment similarity of the patch context against the
    candidate's statements, of which there is at least one: a boundary holds
    its key statement. Regions under the decision threshold T are dropped,
    overlapping regions in the same file keep only the higher-scoring one,
    and the survivors are capped at MAX_CANDIDATES by descending ctx_sim.
    Ties fall to (path, start, end), so the order of boundaries is moot.
    """
    patch_norms = [s.norm for s in patch_ctx.statements]
    scored: list[CandidateContext] = []
    seen_spans: set[tuple[str, int, int]] = set()
    for path, (ss_line, es_line) in boundaries:
        if (path, ss_line, es_line) in seen_spans:
            continue
        seen_spans.add((path, ss_line, es_line))
        stmts, idx = cache.file(path)
        region = stmts[idx[ss_line]:idx[es_line] + 1]
        sim = fragment_similarity(patch_norms, [s.norm for s in region], R)
        if sim < T:
            continue
        scored.append(CandidateContext(path, ss_line, es_line, sim))
    scored.sort(key=lambda c: (-c.ctx_sim, c.path, c.ss_line, c.es_line))
    kept: list[CandidateContext] = []
    for cand in scored:
        if any(
            k.path == cand.path
            and not (cand.es_line < k.ss_line or cand.ss_line > k.es_line)
            for k in kept
        ):
            continue
        kept.append(cand)
        if len(kept) >= MAX_CANDIDATES:
            break
    return kept


def fetch_candidate_code(
    cache: StatementCache,
    up: CandidateContext | None,
    down: CandidateContext | None,
    patch_code_len: int,
) -> CandidateCode:
    """Extract the candidate code adjacent to the located context(s).

    With both contexts (same file, DOWN below UP, as _pair_contexts pairs
    them) the candidate is everything strictly between them, possibly
    empty. With one context it is the patch_code_len statements directly
    below (UP) or above (DOWN). At least one context is given.
    """
    path = up.path if up is not None else down.path
    all_stmts, idx = cache.file(path)
    if up is not None:
        lo, empty_at = idx[up.es_line] + 1, up.es_line + 1
        hi = idx[down.ss_line] if down is not None else lo + patch_code_len
    else:
        hi, empty_at = idx[down.ss_line], down.ss_line
        lo = max(0, hi - patch_code_len)
    stmts = all_stmts[lo:hi]
    span = (stmts[0].line_no, stmts[-1].line_no) if stmts else (empty_at, empty_at - 1)
    return CandidateCode(path, stmts, span, paired_up=up, paired_down=down)


class SearchOutcome(NamedTuple):
    """Everything the searcher found for one hunk in one target."""

    candidates: list[CandidateCode]


def _pair_contexts(
    cache: StatementCache,
    ups: list[CandidateContext],
    downs: list[CandidateContext],
    max_gap: int,
) -> list[tuple[CandidateContext | None, CandidateContext | None]]:
    """The (UP, DOWN) contexts of every candidate, in candidate order.

    Pairs come first: per file, greedily by smallest gap (the statements
    strictly between UP and a DOWN below it, at most max_gap), ties broken
    by (path, UP end, DOWN start) and then input order. Each unpaired UP
    follows as (up, None) in input order, then each unpaired DOWN as
    (None, down).
    """
    compat: list[tuple[int, str, int, int, int, int]] = []
    for i, up in enumerate(ups):
        idx = cache.file(up.path)[1]
        for j, down in enumerate(downs):
            if down.path != up.path or down.ss_line <= up.es_line:
                continue
            gap = idx[down.ss_line] - idx[up.es_line] - 1
            if gap <= max_gap:
                compat.append((gap, up.path, up.es_line, down.ss_line, i, j))
    free_ups, free_downs = set(range(len(ups))), set(range(len(downs)))
    pairs: list[tuple[CandidateContext | None, CandidateContext | None]] = []
    for *_, i, j in sorted(compat):
        if i in free_ups and j in free_downs:
            pairs.append((ups[i], downs[j]))
            free_ups.remove(i)
            free_downs.remove(j)
    pairs += [(ups[i], None) for i in sorted(free_ups)]
    return pairs + [(None, downs[j]) for j in sorted(free_downs)]


def collect_candidates(cache: StatementCache, hunk: PatchHunk) -> SearchOutcome:
    """Run the full search pipeline for one hunk against one target."""

    def located(ctx: PatchContext) -> list[CandidateContext]:
        if not ctx.statements:
            return []
        seeds = find_key_statements(cache, ctx, hunk.file_class)
        # Score every seed's windows in one kernel pass per context end, so
        # expand_boundary reads its strsim values from the memo.
        ups: list[str] = []
        downs: list[str] = []
        for ks in seeds:
            up_window, down_window = _windows(cache, ks)
            ups += [s.norm for s in up_window]
            downs += [s.norm for s in down_window]
        strsim_many(ctx.statements[0].norm, ups)
        strsim_many(ctx.statements[-1].norm, downs)
        boundaries: list[tuple[str, tuple[int, int]]] = []
        for ks in seeds:
            span = expand_boundary(cache, ks, ctx)
            if span is not None:
                boundaries.append((ks.path, span))
        return finalize_contexts(cache, boundaries, ctx)

    max_gap = max(3 * hunk.code_len, 20)
    contexts = _pair_contexts(
        cache, located(hunk.up_ctx), located(hunk.down_ctx), max_gap
    )
    # Paired candidates come first, so the first at a span has the most contexts.
    unique: dict[tuple[str, int, int], CandidateCode] = {}
    for up, down in contexts:
        cand = fetch_candidate_code(cache, up, down, hunk.code_len)
        unique.setdefault((cand.path, *cand.span), cand)
    ordered = sorted(unique.values(), key=lambda c: (c.path, c.span))
    return SearchOutcome(candidates=ordered)
