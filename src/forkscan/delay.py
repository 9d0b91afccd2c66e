"""For targets judged Fixed: who fixed it, in which release, and how late.

git blame over the winning candidate region at the scanned revision names
the commits that shaped it, with their commit times; the earliest of them is
taken as the true fix commit (later commits are refactors of already-fixed
code). Its first containing release, compared to the source patch's commit
date, gives the fix delay in whole days. A scan looks up each distinct
region of a target once, after every pair is judged; each row counts the
delay from its own patch's date.
"""

from __future__ import annotations

from datetime import datetime

from . import gitio
from .gitio import RepoHandle
from .report import DelayRecord
from .search import CandidateCode


def find_fix_commit(
    target: RepoHandle, path: str, span: tuple[int, int], rev: str
) -> str:
    """Blame the region at rev and return the true fix: the sha of the
    earliest commit that shaped it.

    Ties on the committer timestamp go to the lexicographically smaller sha.
    """
    times = gitio.blame_lines(target, rev, path, *span)
    return min((when, sha) for sha, when in times.items())[1]


def earliest_release(target: RepoHandle, sha: str) -> tuple[str, datetime] | None:
    """First release containing the commit; None while still unreleased."""
    releases = gitio.releases_containing(target, sha)
    return releases[0] if releases else None


def patch_delay(source_commit_date: datetime, release_date: datetime) -> int:
    """Whole days from the source patch commit to the target release (floored)."""
    return (release_date - source_commit_date).days


def blame_span(cand: CandidateCode) -> tuple[int, int]:
    """Lines to blame for the fix: the candidate's own, if it has any.

    An empty candidate (a deletion that was applied) leaves nothing to blame
    directly; fall back to the located context boundaries around it. Every
    candidate has at least one context.
    """
    lo, hi = cand.span
    if lo <= hi:
        return (lo, hi)
    up, down = cand.paired_up, cand.paired_down
    if up is not None and down is not None:
        return (up.es_line, down.ss_line)
    if up is not None:
        return (up.ss_line, up.es_line)
    return (down.ss_line, down.es_line)


def fix_delay(repo: RepoHandle, rev: str, path: str, span: tuple[int, int]) -> DelayRecord:
    """One region's true fix at rev and its first release, by one git blame
    and one git tag --contains, or GitError; each row sets delay_days."""
    true_fix = find_fix_commit(repo, path, span, rev)
    return DelayRecord(true_fix, earliest_release(repo, true_fix), None)
