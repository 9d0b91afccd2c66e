"""Judge candidate code against a patch and aggregate into one verdict.

A candidate is compared to the deleted statements (dp) and/or the added
statements (ap) of the hunk; whichever similarity passes the threshold T
decides whether the patch was applied there. Per hunk the most confident
decided candidate wins, one still holding dp first, so a fixed copy cannot
hide an unfixed one; across hunks a single Vulnerable hunk makes the whole
patch verdict Vulnerable.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .patchmodel import PatchHunk, PatchType
from .search import CandidateCode
from .simcore import R, T, fragment_similarity


class Status(Enum):
    VULNERABLE = "Vulnerable"
    FIXED = "Fixed"
    CONTEXT_NOT_FOUND = "ContextNotFound"


class CandidateJudgment(NamedTuple):
    """One candidate's comparison result.

    fv = 1 means the patch was applied at this location, 0 means the
    pre-patch code is still there; None means the comparison was
    inconclusive (never outvotes a decided judgment).
    """

    candidate: CandidateCode
    s_del: float | None
    s_add: float | None
    fv: int | None
    conf: float

    @property
    def decided(self) -> bool:
        return self.fv is not None


class Verdict(NamedTuple):
    """The (patch, target) answer and the judgment it rests on, if any."""

    status: Status
    conf: float
    winning: CandidateJudgment | None


def decide(
    ptype: PatchType, s_del: float | None, s_add: float | None, t: float
) -> tuple[int | None, float]:
    """Map the measured similarities to (fv, confidence).

    DEL: similarity to dp at or above t means the deletion never happened.
    ADD: similarity to ap at or above t means the addition is present.
    CHA: when both sides pass, the larger similarity wins (ties favor the
    pre-patch side); when one passes, it decides alone; when neither does,
    the candidate is undecidable and conf goes negative.
    """
    if ptype is PatchType.DEL:
        assert s_del is not None
        return (0, s_del - t) if s_del >= t else (1, t - s_del)
    if ptype is PatchType.ADD:
        assert s_add is not None
        return (1, s_add - t) if s_add >= t else (0, t - s_add)
    assert s_del is not None and s_add is not None
    del_pass, add_pass = s_del >= t, s_add >= t
    if del_pass and add_pass:
        return (0, s_del - t) if s_del >= s_add else (1, s_add - t)
    if del_pass:
        return (0, s_del - t)
    if add_pass:
        return (1, s_add - t)
    return (None, max(s_del, s_add) - t)


def judge_candidate(candidate: CandidateCode, hunk: PatchHunk) -> CandidateJudgment:
    """Compare one candidate's statements against the hunk's dp/ap.

    An empty candidate counts as similarity 0 to everything: the deleted
    code is certainly absent (DEL -> applied) and so is the added code
    (ADD -> not applied); an empty candidate for a CHA hunk is undecidable.
    """
    norms = candidate.norms

    def sim_to(patch_stmts) -> float:
        if not norms:
            return 0.0
        return fragment_similarity(norms, [s.norm for s in patch_stmts], R)

    s_del = sim_to(hunk.dp) if hunk.dp else None
    s_add = sim_to(hunk.ap) if hunk.ap else None
    fv, conf = decide(hunk.ptype, s_del, s_add, T)
    return CandidateJudgment(
        candidate=candidate, s_del=s_del, s_add=s_add, fv=fv, conf=conf
    )


def _hunk_winner(judgments: list[CandidateJudgment]) -> CandidateJudgment | None:
    """The decided judgment with the highest confidence (ties: lower path,
    then lower line), one that still holds dp (fv 0 with s_del set, which
    `decide` gives only for s_del >= T) before any other; None when no
    judgment was decided."""
    return min(
        (j for j in judgments if j.decided),
        key=lambda j: (j.fv != 0 or j.s_del is None, -j.conf,
                       j.candidate.path, j.candidate.span[0]),
        default=None,
    )


def aggregate(hunk_judgments: list[list[CandidateJudgment]]) -> Verdict:
    """Combine per-candidate judgments into the per-(patch, target) verdict.

    Each hunk contributes its winning judgment. Any Vulnerable winner makes
    the patch Vulnerable; otherwise any Fixed winner makes it Fixed. The
    verdict carries the most confident winner of that status (ties: the
    earliest hunk) and its conf. With no decided judgment in any hunk the
    verdict is ContextNotFound with conf 0 and no winning judgment.
    """
    winners = [w for w in map(_hunk_winner, hunk_judgments) if w is not None]
    for wanted, fv in ((Status.VULNERABLE, 0), (Status.FIXED, 1)):
        hits = [w for w in winners if w.fv == fv]
        if hits:
            top = max(hits, key=lambda w: w.conf)
            return Verdict(wanted, top.conf, top)
    return Verdict(Status.CONTEXT_NOT_FOUND, 0.0, None)
