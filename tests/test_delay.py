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
from forkscan.delay import (
    earliest_release,
    find_fix_commit,
    fix_delay,
    patch_delay,
)
from forkscan.gitio import GitError, NotFoundError, RepoHandle, blame_lines
from forkscan.report import DelayRecord
from forkscan.search import CandidateCode, CandidateContext, StatementCache

UTC = timezone.utc


def _cache(root, rev: str) -> StatementCache:
    return StatementCache(RepoHandle(root), rev, frozenset())


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
        cand = CandidateCode(path="f.c", stmts=[], span=(1, 2),
                             paired_up=None, paired_down=None)
        record = fix_delay(_cache(root, "HEAD"), datetime(2019, 12, 1, tzinfo=UTC), cand)
        assert record == DelayRecord(
            true_fix=fix, release=("v1.0", datetime(2020, 3, 1, tzinfo=UTC)),
            delay_days=91,
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
    PATCH_DATE = datetime(2019, 8, 10, tzinfo=UTC)

    def _candidate(self, span) -> CandidateCode:
        return CandidateCode(path=TABLE_FILE, stmts=[], span=span,
                             paired_up=None, paired_down=None)

    def test_full_attribution(self, table_repo):
        repo_path, c_rewrite, _ = table_repo
        record = fix_delay(
            _cache(repo_path, "HEAD"), self.PATCH_DATE, self._candidate((204, 208))
        )
        assert record == DelayRecord(
            true_fix=c_rewrite,
            release=("mainnet-ignition-v0.19.0", datetime(2020, 2, 22, tzinfo=UTC)),
            delay_days=196,
        )

    def test_blames_at_given_rev(self, table_repo):
        # Line 205 is owned by the tweak at HEAD and by the rewrite before it.
        repo_path, c_rewrite, c_tweak = table_repo
        cand = self._candidate((205, 205))
        head, old = _cache(repo_path, "HEAD"), _cache(repo_path, c_rewrite)
        assert fix_delay(head, self.PATCH_DATE, cand).true_fix == c_tweak
        assert fix_delay(old, self.PATCH_DATE, cand).true_fix == c_rewrite

    def test_empty_candidate_blames_context_gap(self, table_repo):
        repo_path, c_rewrite, _ = table_repo
        up = CandidateContext(path=TABLE_FILE, ss_line=201, es_line=204, ctx_sim=0.9)
        down = CandidateContext(path=TABLE_FILE, ss_line=207, es_line=211, ctx_sim=0.9)
        cand = CandidateCode(path=TABLE_FILE, stmts=[], span=(205, 204),
                             paired_up=up, paired_down=down)
        record = fix_delay(_cache(repo_path, "HEAD"), self.PATCH_DATE, cand)
        # Fallback region (204, 207) includes the rewrite-owned lines.
        assert record.true_fix == c_rewrite
        assert record.delay_days == 196

    def test_empty_candidate_single_context_fallback(self, table_repo):
        repo_path, _, c_tweak = table_repo
        up = CandidateContext(path=TABLE_FILE, ss_line=205, es_line=205, ctx_sim=0.9)
        cand = CandidateCode(path=TABLE_FILE, stmts=[], span=(206, 205),
                             paired_up=up, paired_down=None)
        record = fix_delay(_cache(repo_path, "HEAD"), self.PATCH_DATE, cand)
        assert record.true_fix == c_tweak

    def test_blame_failure_raises_git_error(self, table_repo):
        # The scan notes the error in the row (test_cli TestScanFailureNotes).
        with pytest.raises(GitError, match="out of bounds"):
            fix_delay(
                _cache(table_repo[0], "HEAD"), self.PATCH_DATE,
                self._candidate((9000, 9001)),
            )

    def test_unreleased_fix_has_no_delay(self, tmp_path):
        root = init_repo(tmp_path / "nofix")
        write_files(root, {"f.c": "int fixed_code = 1;\n"})
        commit_all(root, "fix", datetime(2022, 1, 1, tzinfo=UTC))
        sha = run_git(root, "rev-parse", "HEAD")
        record = fix_delay(
            _cache(root, "HEAD"), self.PATCH_DATE,
            CandidateCode(path="f.c", stmts=[], span=(1, 1),
                          paired_up=None, paired_down=None),
        )
        assert record.true_fix == sha
        assert record.release is None and record.delay_days is None

    def test_unknown_patch_date_has_no_delay(self, table_repo):
        record = fix_delay(
            _cache(table_repo[0], "HEAD"), None, self._candidate((204, 208))
        )
        assert record.true_fix is not None
        assert record.release is not None
        assert record.delay_days is None

    def test_one_lookup_per_region(self, table_repo):
        # Fix commit and release are looked up once per blamed region;
        # each row's delay comes from its own patch date.
        repo_path, c_rewrite, _ = table_repo
        cache = _cache(repo_path, "HEAD")
        calls = record_git(cache.repo)
        first = fix_delay(cache, datetime(2019, 8, 10, tzinfo=UTC),
                          self._candidate((204, 208)))
        second = fix_delay(cache, datetime(2020, 1, 1, tzinfo=UTC),
                           self._candidate((204, 208)))
        assert calls == ["blame", "tag"]
        release = ("mainnet-ignition-v0.19.0", datetime(2020, 2, 22, tzinfo=UTC))
        assert first == DelayRecord(true_fix=c_rewrite, release=release, delay_days=196)
        assert second == DelayRecord(true_fix=c_rewrite, release=release, delay_days=52)
        assert fix_delay(cache, None, self._candidate((204, 208))).delay_days is None
        assert calls == ["blame", "tag"]

    def test_each_region_is_looked_up(self, table_repo):
        repo_path, c_rewrite, c_tweak = table_repo
        cache = _cache(repo_path, "HEAD")
        calls = record_git(cache.repo)
        date = datetime(2019, 8, 10, tzinfo=UTC)
        assert fix_delay(cache, date, self._candidate((204, 208))).true_fix == c_rewrite
        assert fix_delay(cache, date, self._candidate((205, 205))).true_fix == c_tweak
        assert calls == ["blame", "tag"] * 2

    def test_failed_lookup_raises_every_time(self, table_repo):
        # Nothing is stored, so each affected row gets its own `delay:` note.
        cache = _cache(table_repo[0], "HEAD")
        calls = record_git(cache.repo)
        for _ in range(2):
            with pytest.raises(GitError, match="out of bounds"):
                fix_delay(cache, None, self._candidate((9000, 9001)))
        assert calls == ["blame", "blame"]
        assert cache.fixes == {}
