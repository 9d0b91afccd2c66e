"""Fix attribution, release lookup, and delay arithmetic."""

from datetime import datetime, timedelta, timezone

import pytest

from conftest import (
    TABLE_FILE,
    commit_all,
    init_repo,
    record_git,
    run_git,
    tag_annotated,
    write_files,
)
from forkscan.cli import _look_up_fixes, _row_for
from forkscan.delay import (
    earliest_release,
    find_fix_commit,
    fix_delay,
    patch_delay,
)
from forkscan.gitio import GitError, NotFoundError, RepoHandle, blame_lines
from forkscan.patchmodel import Patch
from forkscan.report import DelayRecord
from forkscan.search import CandidateCode, CandidateContext, StatementCache
from forkscan.verdict import CandidateJudgment, Status, Verdict

UTC = timezone.utc


def _target(root, rev: str) -> StatementCache:
    return StatementCache(RepoHandle(root), rev, frozenset())


def _judged(cand: CandidateCode, committed_at: datetime | None) -> tuple[Patch, Verdict]:
    """A patch and its verdict on a target, Fixed at cand."""
    patch = Patch(source_sha=None, hunks=[], committed_at=committed_at, label="p")
    winning = CandidateJudgment(cand, s_del=0.1, s_add=0.9, fv=1, conf=0.5)
    return (patch, Verdict(Status.FIXED, 0.5, winning))


def _row(pair: tuple[Patch, Verdict], fix):
    """The pair's row on target "fork", with no note from the scan."""
    patch, v = pair
    return _row_for(patch, "fork", v, [], fix)


def _fixes(cache: StatementCache, pairs: list[tuple[Patch, Verdict]]) -> list:
    return _look_up_fixes("fork", cache, [v for _, v in pairs])


def _owners(repo: RepoHandle, rev: str, path: str, span) -> set[str]:
    """Commits that blame names for the region."""
    return set(blame_lines(repo, rev, path, *span))


class TestFindFixCommit:
    def test_earliest_of_region_owners(self, table_repo):
        repo_path, c_rewrite, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert _owners(repo, "HEAD", TABLE_FILE, (204, 208)) == {c_rewrite, c_tweak}
        assert find_fix_commit(repo, TABLE_FILE, (204, 208), "HEAD") == c_rewrite

    def test_single_line_region(self, table_repo):
        repo_path, _, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert _owners(repo, "HEAD", TABLE_FILE, (205, 205)) == {c_tweak}
        assert find_fix_commit(repo, TABLE_FILE, (205, 205), "HEAD") == c_tweak

    def test_missing_path_raises(self, table_repo):
        with pytest.raises(NotFoundError):
            find_fix_commit(RepoHandle(table_repo[0]), "src/nope.cpp", (1, 2), "HEAD")

    def test_out_of_range_raises(self, table_repo):
        with pytest.raises(GitError, match="out of bounds"):
            find_fix_commit(
                RepoHandle(table_repo[0]), TABLE_FILE, (5000, 5001), "HEAD"
            )

    def test_date_tie_breaks_on_sha(self, tmp_path):
        # Two commits share a committer timestamp; each owns one line.
        root = init_repo(tmp_path / "tie")
        stamp = datetime(2022, 5, 5, tzinfo=UTC)
        write_files(root, {"t.c": "int a = 1;\nint b = 2;\n"})
        first = commit_all(root, "base", stamp)
        write_files(root, {"t.c": "int a = 1;\nint b = 99;\n"})
        second = commit_all(root, "bump b", stamp)
        repo = RepoHandle(root)
        assert _owners(repo, "HEAD", "t.c", (1, 2)) == {first, second}
        assert find_fix_commit(repo, "t.c", (1, 2), "HEAD") == min(first, second)

    def test_rev_pinning(self, table_repo):
        repo_path, c_rewrite, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert c_tweak not in _owners(repo, c_rewrite, TABLE_FILE, (204, 208))
        assert find_fix_commit(repo, TABLE_FILE, (204, 208), c_rewrite) == c_rewrite


class TestSha256Repository:
    """A repository made with `git init --object-format=sha256` names its
    commits with 64 hex digits."""

    def test_fix_commit_and_delay(self, tmp_path):
        root = tmp_path / "sha256"
        root.mkdir()
        run_git(root, "init", "-q", "--object-format=sha256", "-b", "main")
        write_files(root, {"f.c": "int a = 1;\nint fixed_code = 2;\n"})
        fix = commit_all(root, "fix", datetime(2020, 1, 1, tzinfo=UTC))
        tag_annotated(root, "v1.0", datetime(2020, 3, 1, tzinfo=UTC))
        assert len(fix) == 64

        assert find_fix_commit(RepoHandle(root), "f.c", (1, 2), "HEAD") == fix
        record = fix_delay(RepoHandle(root), "HEAD", "f.c", (1, 2))
        release = ("v1.0", datetime(2020, 3, 1, tzinfo=UTC))
        assert record == DelayRecord(true_fix=fix, release=release, delay_days=None)
        cand = CandidateCode(path="f.c", stmts=[], span=(1, 2),
                             paired_up=None, paired_down=None)
        pair = _judged(cand, datetime(2019, 12, 1, tzinfo=UTC))
        assert _row(pair, record).delay == DelayRecord(
            true_fix=fix, release=release, delay_days=91,
        )


class TestEarliestRelease:
    def test_first_containing_tag(self, table_repo):
        repo_path, c_rewrite, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert earliest_release(repo, c_rewrite) == (
            "mainnet-ignition-v0.19.0", datetime(2020, 2, 22, tzinfo=UTC)
        )
        assert earliest_release(repo, c_tweak) == (
            "mainnet-ignition-v0.20.0", datetime(2020, 8, 1, tzinfo=UTC)
        )

    def test_unreleased_commit(self, tmp_path):
        root = init_repo(tmp_path / "unreleased")
        write_files(root, {"a.c": "int a = 1;\n"})
        commit_all(root, "base", datetime(2022, 1, 1, tzinfo=UTC))
        sha = run_git(root, "rev-parse", "HEAD")
        assert earliest_release(RepoHandle(root), sha) is None


class TestPatchDelay:
    def test_reference_delay(self):
        # Patch committed 2019-08-10, first release 2020-02-22: 196 days.
        assert patch_delay(
            datetime(2019, 8, 10, tzinfo=UTC), datetime(2020, 2, 22, tzinfo=UTC)
        ) == 196

    def test_same_day(self):
        d = datetime(2020, 1, 1, 6, 0, tzinfo=UTC)
        assert patch_delay(d, d) == 0

    def test_floors_partial_days(self):
        a = datetime(2020, 1, 1, 23, 0, tzinfo=UTC)
        b = datetime(2020, 1, 2, 1, 0, tzinfo=UTC)
        assert patch_delay(a, b) == 0
        assert patch_delay(a, b + timedelta(hours=22)) == 1

    def test_negative_when_release_precedes_patch(self):
        a = datetime(2020, 6, 1, tzinfo=UTC)
        b = datetime(2020, 5, 1, tzinfo=UTC)
        assert patch_delay(a, b) == -31

    def test_antisymmetric_on_whole_days(self):
        a = datetime(2020, 1, 1, tzinfo=UTC)
        b = datetime(2020, 3, 11, tzinfo=UTC)
        assert patch_delay(a, b) == -patch_delay(b, a) == 70


class TestFixDelay:
    """fix_delay looks up one region; a scan calls it once per distinct
    region of a target (cli._look_up_fixes), and each row counts the delay
    from its own patch's date (cli._row_for)."""

    PATCH_DATE = datetime(2019, 8, 10, tzinfo=UTC)
    RELEASE = ("mainnet-ignition-v0.19.0", datetime(2020, 2, 22, tzinfo=UTC))

    def _candidate(self, span) -> CandidateCode:
        return CandidateCode(path=TABLE_FILE, stmts=[], span=span,
                             paired_up=None, paired_down=None)

    def test_full_attribution(self, table_repo):
        repo_path, c_rewrite, _ = table_repo
        record = fix_delay(RepoHandle(repo_path), "HEAD", TABLE_FILE, (204, 208))
        assert record == DelayRecord(
            true_fix=c_rewrite, release=self.RELEASE, delay_days=None
        )
        pair = _judged(self._candidate((204, 208)), self.PATCH_DATE)
        assert _row(pair, record).delay == record._replace(delay_days=196)

    def test_blames_at_given_rev(self, table_repo):
        # Line 205 is owned by the tweak at HEAD and by the rewrite before it.
        repo_path, c_rewrite, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert fix_delay(repo, "HEAD", TABLE_FILE, (205, 205)).true_fix == c_tweak
        assert fix_delay(repo, c_rewrite, TABLE_FILE, (205, 205)).true_fix == c_rewrite

    def test_empty_candidate_blames_context_gap(self, table_repo):
        repo_path, c_rewrite, _ = table_repo
        up = CandidateContext(path=TABLE_FILE, ss_line=201, es_line=204, ctx_sim=0.9)
        down = CandidateContext(path=TABLE_FILE, ss_line=207, es_line=211, ctx_sim=0.9)
        cand = CandidateCode(path=TABLE_FILE, stmts=[], span=(205, 204),
                             paired_up=up, paired_down=down)
        pair = _judged(cand, self.PATCH_DATE)
        (record,) = _fixes(_target(repo_path, "HEAD"), [pair])
        # Fallback region (204, 207) includes the rewrite-owned lines.
        assert record.true_fix == c_rewrite
        assert _row(pair, record).delay.delay_days == 196

    def test_empty_candidate_single_context_fallback(self, table_repo):
        repo_path, _, c_tweak = table_repo
        up = CandidateContext(path=TABLE_FILE, ss_line=205, es_line=205, ctx_sim=0.9)
        cand = CandidateCode(path=TABLE_FILE, stmts=[], span=(206, 205),
                             paired_up=up, paired_down=None)
        (record,) = _fixes(_target(repo_path, "HEAD"), [_judged(cand, None)])
        assert record.true_fix == c_tweak

    def test_blame_failure_raises_git_error(self, table_repo):
        # The scan notes the error in the row (test_cli TestScanFailureNotes).
        with pytest.raises(GitError, match="out of bounds"):
            fix_delay(RepoHandle(table_repo[0]), "HEAD", TABLE_FILE, (9000, 9001))

    def test_unreleased_fix_has_no_delay(self, tmp_path):
        root = init_repo(tmp_path / "nofix")
        write_files(root, {"f.c": "int fixed_code = 1;\n"})
        commit_all(root, "fix", datetime(2022, 1, 1, tzinfo=UTC))
        sha = run_git(root, "rev-parse", "HEAD")
        record = fix_delay(RepoHandle(root), "HEAD", "f.c", (1, 1))
        assert record == DelayRecord(true_fix=sha, release=None, delay_days=None)
        cand = CandidateCode(path="f.c", stmts=[], span=(1, 1),
                             paired_up=None, paired_down=None)
        pair = _judged(cand, self.PATCH_DATE)
        assert _row(pair, record).delay == record

    def test_unknown_patch_date_has_no_delay(self, table_repo):
        record = fix_delay(RepoHandle(table_repo[0]), "HEAD", TABLE_FILE, (204, 208))
        row = _row(_judged(self._candidate((204, 208)), None), record)
        assert row.delay.true_fix is not None
        assert row.delay.release is not None
        assert row.delay.delay_days is None

    def test_one_lookup_per_region(self, table_repo):
        # Fix commit and release are looked up once per blamed region of a
        # target; each row's delay comes from its own patch date.
        repo_path, c_rewrite, _ = table_repo
        target = _target(repo_path, "HEAD")
        calls = record_git(target.repo)
        pairs = [_judged(self._candidate((204, 208)), date)
                 for date in (datetime(2019, 8, 10, tzinfo=UTC),
                              datetime(2020, 1, 1, tzinfo=UTC), None)]
        fixes = _fixes(target, pairs)
        assert calls == ["blame", "tag"]
        record = DelayRecord(true_fix=c_rewrite, release=self.RELEASE, delay_days=None)
        assert fixes == [record] * 3
        rows = [_row(pair, fix) for pair, fix in zip(pairs, fixes)]
        assert [row.delay.delay_days for row in rows] == [196, 52, None]
        assert calls == ["blame", "tag"]

    def test_each_region_is_looked_up(self, table_repo):
        # A region is one per target: the same lines of a second target,
        # here the same repository at an older revision, are looked up too.
        repo_path, c_rewrite, c_tweak = table_repo
        head, old = _target(repo_path, "HEAD"), _target(repo_path, c_rewrite)
        head_calls, old_calls = record_git(head.repo), record_git(old.repo)
        date = self.PATCH_DATE
        fixes = _fixes(head, [_judged(self._candidate((204, 208)), date),
                              _judged(self._candidate((205, 205)), date)])
        fixes += _fixes(old, [_judged(self._candidate((205, 205)), date)])
        assert [f.true_fix for f in fixes] == [c_rewrite, c_tweak, c_rewrite]
        assert head_calls == ["blame", "tag"] * 2
        assert old_calls == ["blame", "tag"]

    def test_failed_lookup_raises_every_time(self, table_repo, capsys):
        # Every row of a failed region gets its GitError, from one lookup
        # and one warning; the rows keep their verdict and note the error.
        target = _target(table_repo[0], "HEAD")
        calls = record_git(target.repo)
        pairs = [_judged(self._candidate((9000, 9001)), date)
                 for date in (self.PATCH_DATE, None)]
        fixes = _fixes(target, pairs)
        assert calls == ["blame"]
        assert capsys.readouterr().err.count("\n") == 1
        (error,) = set(fixes)
        assert isinstance(error, GitError)
        for pair, fix in zip(pairs, fixes):
            row = _row(pair, fix)
            assert row.status == "Fixed"
            assert row.delay is None
            assert row.note == f"delay: {error}"
