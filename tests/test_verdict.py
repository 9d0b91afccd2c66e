"""Decision rules and verdict aggregation."""

import pytest

from conftest import oracle_fragment_similarity, oracle_strsim
from forkscan.patchmodel import PatchHunk, PatchType, build_patch_context
from forkscan.search import CandidateCode
from forkscan.simcore import R, T
from forkscan.verdict import (
    CandidateJudgment,
    Status,
    aggregate,
    decide,
    judge_candidate,
)
from test_search import AP_LINE, DP_LINE, PATCH_FC, make_stmts


def make_hunk(dp_norms: list[str], ap_norms: list[str]) -> PatchHunk:
    dp = make_stmts(dp_norms)
    ap = make_stmts(ap_norms)
    if dp and ap:
        ptype = PatchType.CHA
    elif dp:
        ptype = PatchType.DEL
    else:
        ptype = PatchType.ADD
    up, down = build_patch_context([], [])
    return PatchHunk(
        file_class=PATCH_FC, dp=dp, ap=ap, ptype=ptype, up_ctx=up, down_ctx=down,
    )


def make_candidate(norms: list[str], path: str = "src/init.cpp",
                   span: tuple[int, int] = (6, 6)) -> CandidateCode:
    return CandidateCode(path=path, stmts=make_stmts(norms), span=span,
                         paired_up=None, paired_down=None)


class TestDecide:
    @pytest.mark.parametrize("ptype,s_del,s_add,fv,conf", [
        # DEL: deleted code still present means still vulnerable.
        (PatchType.DEL, 1.0, None, 0, 1.0 - T),
        (PatchType.DEL, T, None, 0, 0.0),
        (PatchType.DEL, 0.3, None, 1, T - 0.3),
        (PatchType.DEL, 0.0, None, 1, T),
        # ADD: added code present means the fix was applied.
        (PatchType.ADD, None, 1.0, 1, 1.0 - T),
        (PatchType.ADD, None, T, 1, 0.0),
        (PatchType.ADD, None, 0.1, 0, T - 0.1),
        (PatchType.ADD, None, 0.0, 0, T),
        # CHA: the stronger passing side wins; ties keep the pre-patch call.
        (PatchType.CHA, 0.9, 0.5, 0, 0.9 - T),
        (PatchType.CHA, 0.5, 0.9, 1, 0.9 - T),
        (PatchType.CHA, 0.6, 0.6, 0, 0.6 - T),
        (PatchType.CHA, 0.7, 0.2, 0, 0.7 - T),
        (PatchType.CHA, 0.2, 0.7, 1, 0.7 - T),
        (PatchType.CHA, 0.39, 0.1, None, 0.39 - T),
        (PatchType.CHA, 0.0, 0.0, None, -T),
    ])
    def test_truth_table(self, ptype, s_del, s_add, fv, conf):
        got_fv, got_conf = decide(ptype, s_del, s_add, T)
        assert got_fv == fv
        assert got_conf == pytest.approx(conf, abs=1e-12)

    def test_undecidable_confidence_is_negative(self):
        _, conf = decide(PatchType.CHA, 0.2, 0.3, T)
        assert conf < 0.0

    def test_threshold_sweep_cha(self):
        s_del, s_add = 0.7, 0.5
        for i in range(1, 100):
            t = i / 100
            fv, conf = decide(PatchType.CHA, s_del, s_add, t)
            if t <= s_del:
                assert fv == 0
                assert conf == pytest.approx(s_del - t, abs=1e-12)
            else:
                assert fv is None and conf < 0

    def test_threshold_sweep_del(self):
        s = 0.7
        for i in range(1, 100):
            t = i / 100
            fv, conf = decide(PatchType.DEL, s, None, t)
            assert fv == (0 if s >= t else 1)
            assert conf == pytest.approx(abs(s - t), abs=1e-12)


class TestJudgeCandidate:
    def test_vulnerable_cha(self):
        hunk = make_hunk([DP_LINE], [AP_LINE])
        j = judge_candidate(make_candidate([DP_LINE]), hunk)
        assert j.s_del == 1.0
        assert j.s_add == pytest.approx(oracle_strsim(DP_LINE, AP_LINE), abs=1e-12)
        assert j.s_add >= T  # both sides pass; the stronger one decides
        assert j.fv == 0 and j.decided
        assert j.conf == pytest.approx(1.0 - T, abs=1e-12)

    def test_fixed_cha(self):
        hunk = make_hunk([DP_LINE], [AP_LINE])
        j = judge_candidate(make_candidate([AP_LINE]), hunk)
        assert j.s_add == 1.0
        assert j.fv == 1
        assert j.conf == pytest.approx(1.0 - T, abs=1e-12)

    def test_del_hunk_has_no_add_similarity(self):
        hunk = make_hunk([DP_LINE], [])
        j = judge_candidate(make_candidate([DP_LINE]), hunk)
        assert j.s_add is None
        assert j.s_del == 1.0 and j.fv == 0

    def test_add_hunk_has_no_del_similarity(self):
        hunk = make_hunk([], [AP_LINE])
        j = judge_candidate(make_candidate([AP_LINE]), hunk)
        assert j.s_del is None
        assert j.s_add == 1.0 and j.fv == 1

    def test_empty_candidate_del_means_applied(self):
        hunk = make_hunk([DP_LINE], [])
        j = judge_candidate(make_candidate([]), hunk)
        assert j.s_del == 0.0
        assert j.fv == 1
        assert j.conf == pytest.approx(T, abs=1e-12)

    def test_empty_candidate_add_means_not_applied(self):
        hunk = make_hunk([], [AP_LINE])
        j = judge_candidate(make_candidate([]), hunk)
        assert j.s_add == 0.0
        assert j.fv == 0
        assert j.conf == pytest.approx(T, abs=1e-12)

    def test_empty_candidate_cha_is_undecidable(self):
        hunk = make_hunk([DP_LINE], [AP_LINE])
        j = judge_candidate(make_candidate([]), hunk)
        assert j.fv is None and not j.decided
        assert j.conf == pytest.approx(-T, abs=1e-12)

    def test_unrelated_candidate_cha_is_undecidable(self):
        hunk = make_hunk([DP_LINE], [AP_LINE])
        j = judge_candidate(make_candidate(["totally_unrelated_code(1, 2, 3);"]), hunk)
        assert j.fv is None and j.conf < 0

    def test_candidate_is_similarity_source(self):
        # Multi-line comparison must treat the candidate as the compared
        # fragment's source side; the direction changes the score.
        dp = ["alpha_call(a);", "beta_call(b);", "gamma_call(c);"]
        cand = ["alpha_call(a);", "gamma_call(c);"]
        hunk = make_hunk(dp, [])
        j = judge_candidate(make_candidate(cand), hunk)
        expected = oracle_fragment_similarity(cand, dp, R)
        reverse = oracle_fragment_similarity(dp, cand, R)
        assert j.s_del == pytest.approx(expected, abs=1e-12)
        assert expected != pytest.approx(reverse, abs=1e-12)


def _judgment(fv, conf, path="src/a.cpp", span=(10, 10)) -> CandidateJudgment:
    return CandidateJudgment(
        candidate=CandidateCode(path=path, stmts=[], span=span,
                                paired_up=None, paired_down=None),
        s_del=None, s_add=None, fv=fv, conf=conf,
    )


class TestAggregate:
    def test_single_vulnerable(self):
        v = aggregate([[_judgment(0, 0.6)]])
        assert v.status is Status.VULNERABLE
        assert v.conf == 0.6
        assert v.winning is not None and v.winning.fv == 0

    def test_single_fixed(self):
        v = aggregate([[_judgment(1, 0.25)]])
        assert v.status is Status.FIXED and v.conf == 0.25

    def test_highest_confidence_wins_within_hunk(self):
        strong_fixed = _judgment(1, 0.5)
        weak_vulnerable = _judgment(0, 0.1)
        v = aggregate([[weak_vulnerable, strong_fixed]])
        assert v.status is Status.FIXED and v.conf == 0.5

    def test_tie_breaks_on_path_then_line(self):
        a = _judgment(1, 0.5, path="src/b.cpp", span=(3, 3))
        b = _judgment(0, 0.5, path="src/a.cpp", span=(9, 9))
        c = _judgment(1, 0.5, path="src/a.cpp", span=(4, 4))
        v = aggregate([[a, b, c]])
        # Equal confidence: lowest path wins, then lowest start line.
        assert v.winning is c and v.status is Status.FIXED

    def test_undecided_never_outvotes_decided(self):
        v = aggregate([[_judgment(None, -0.01), _judgment(1, 0.005)]])
        assert v.status is Status.FIXED and v.conf == 0.005

    def test_all_undecided_is_context_not_found(self):
        v = aggregate([[_judgment(None, -0.1), _judgment(None, -0.2)]])
        assert v.status is Status.CONTEXT_NOT_FOUND
        assert v.conf == 0.0 and v.winning is None

    def test_no_candidates_is_context_not_found(self):
        v = aggregate([[]])
        assert v.status is Status.CONTEXT_NOT_FOUND
        assert v.conf == 0.0 and v.winning is None

    def test_no_hunks_is_context_not_found(self):
        v = aggregate([])
        assert v.status is Status.CONTEXT_NOT_FOUND
        assert v.conf == 0.0 and v.winning is None

    def test_any_vulnerable_hunk_wins(self):
        fixed_hunk = [_judgment(1, 0.9)]
        vulnerable_hunk = [_judgment(0, 0.05)]
        v = aggregate([fixed_hunk, vulnerable_hunk])
        assert v.status is Status.VULNERABLE
        assert v.conf == 0.05  # the vulnerable hunk's own confidence
        assert v.winning is vulnerable_hunk[0]

    def test_vulnerable_conf_is_max_within_class(self):
        v = aggregate([[_judgment(0, 0.05)], [_judgment(0, 0.3)], [_judgment(1, 0.9)]])
        assert v.status is Status.VULNERABLE and v.conf == 0.3

    def test_fixed_beats_context_not_found(self):
        fixed = _judgment(1, 0.2)
        v = aggregate([[], [fixed], [_judgment(None, -0.3)]])
        assert v.status is Status.FIXED and v.conf == 0.2
        assert v.winning is fixed

    def test_equal_conf_across_hunks_first_hunk_wins(self):
        first = _judgment(0, 0.3, path="src/z.cpp", span=(50, 50))
        second = _judgment(0, 0.3, path="src/a.cpp", span=(1, 1))
        v = aggregate([[_judgment(1, 0.9)], [first], [second]])
        assert v.status is Status.VULNERABLE and v.winning is first
