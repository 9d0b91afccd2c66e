"""Git plumbing: grep, file reads, blame, commit diffs, timestamps, releases."""

from datetime import datetime, timedelta, timezone

import pytest

from conftest import (
    TABLE_FILE,
    commit_all,
    init_repo,
    oracle_grep,
    run_git,
    write_files,
)
from forkscan.gitio import (
    GitError,
    NotFoundError,
    RepoHandle,
    blame_lines,
    commit_diff,
    commit_time,
    grep_repo,
    read_file_at,
    releases_containing,
)

UTC = timezone.utc


MIXED_FILES = {
    "src/init.cpp": (
        "int nCheckDepth = 0;\n"
        "LogPrintf(\"check started\");\n"
        "if (nCheckDepth > 0) nCheckDepth--;\n"
    ),
    "src/util/strencodings.cpp": (
        "std::string hex = EncodeHexStr(data);\n"
        "return hex;\n"
    ),
    "docs/notes.txt": "nCheckDepth appears here too\nand a.b literal\n",
    "axb.txt": "value axb should not match the dotted keyword\n",
}


class TestGrep:
    @pytest.fixture
    def repo(self, make_repo):
        return RepoHandle(make_repo(MIXED_FILES))

    @pytest.mark.parametrize(
        "keywords",
        [
            *(pytest.param([kw], id=kw)
              for kw in ["nCheckDepth", "hex", "a.b", "LogPrintf"]),
            pytest.param(["nCheckDepth", "a.b"], id="nCheckDepth+a.b"),
            pytest.param(["hex", "LogPrintf", "hex"], id="hex+LogPrintf+hex"),
            pytest.param(["hex", "EncodeHexStr"], id="hex+EncodeHexStr"),  # same line
        ],
    )
    def test_matches_oracle(self, repo, keywords):
        # One grep over several keywords hits the union of their lines, once each.
        got = [(h.path, h.line_no) for h in grep_repo(repo, keywords, "HEAD")]
        assert got == sorted({hit for kw in keywords for hit in oracle_grep(repo.root, kw)})

    def test_fixed_string_not_regex(self, repo):
        hits = grep_repo(repo, ["a.b"], "HEAD")
        assert [(h.path, h.line_no) for h in hits] == [("docs/notes.txt", 2)]

    def test_hit_carries_raw_line(self, repo):
        hits = grep_repo(repo, ["EncodeHexStr"], "HEAD")
        assert len(hits) == 1
        assert "EncodeHexStr(data)" in hits[0].raw_line

    def test_no_match_is_empty(self, repo):
        assert grep_repo(repo, ["NoSuchTokenAnywhere"], "HEAD") == []

    def test_empty_keyword_rejected(self, repo):
        # `-e ""` would match every line.
        for keywords in ([], [""], ["hex", ""]):
            with pytest.raises(ValueError):
                grep_repo(repo, keywords, "HEAD")

    def test_sorted_by_path_then_line(self, repo):
        hits = grep_repo(repo, ["nCheckDepth"], "HEAD")
        keys = [(h.path, h.line_no) for h in hits]
        assert keys == sorted(keys)

    def test_binary_files_skipped(self, make_repo):
        root = make_repo({"readme.txt": "needleToken here\n"})
        (root / "blob.bin").write_bytes(b"needleToken\x00binary payload")
        commit_all(root, "add binary", datetime(2020, 1, 2, tzinfo=UTC))
        repo = RepoHandle(root)
        hits = grep_repo(repo, ["needleToken"], "HEAD")
        assert [(h.path, h.line_no) for h in hits] == [("readme.txt", 1)]
        assert [(h.path, h.line_no) for h in hits] == oracle_grep(root, "needleToken")

    def test_table_layout_hits(self, table_repo):
        repo_path, c_rewrite, _ = table_repo
        repo = RepoHandle(repo_path)
        hits = grep_repo(repo, ["BitcoinApplication"], "HEAD")
        assert [h.line_no for h in hits] == [207]
        assert [h.line_no for h in grep_repo(repo, ["qt_argc"], "HEAD")] == [204, 208]
        assert [h.line_no for h in grep_repo(repo, ["qt_argv"], "HEAD")] == [205]
        for kw in ("BitcoinApplication", "qt_argc", "qt_argv"):
            got = [(h.path, h.line_no) for h in grep_repo(repo, [kw], "HEAD")]
            assert got == oracle_grep(repo_path, kw)
        # Same lines before the rebrand commit, different string content.
        at_rewrite = grep_repo(repo, ["qt_argv"], rev=c_rewrite)
        assert [h.line_no for h in at_rewrite] == [205]
        assert "bitcoin-qt" in at_rewrite[0].raw_line


class TestRepoHandle:
    def test_rejects_non_repo(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        with pytest.raises(GitError):
            RepoHandle(plain)

    def test_rejects_missing_dir(self, tmp_path):
        with pytest.raises(GitError):
            RepoHandle(tmp_path / "absent")

    def test_name_is_basename(self, make_repo):
        root = make_repo({"a.txt": "x\n"})
        assert RepoHandle(root).name == root.name


class TestReadFileAt:
    def test_round_trip(self, make_repo):
        repo = RepoHandle(make_repo(MIXED_FILES))
        lines = read_file_at(repo, "HEAD", "src/init.cpp")
        assert lines == MIXED_FILES["src/init.cpp"].rstrip("\n").split("\n")

    def test_missing_path(self, make_repo):
        repo = RepoHandle(make_repo(MIXED_FILES))
        with pytest.raises(NotFoundError):
            read_file_at(repo, "HEAD", "src/absent.cpp")

    def test_present_on_disk_but_not_committed(self, make_repo):
        root = make_repo({"a.txt": "x\n"})
        (root / "untracked.txt").write_text("y\n", encoding="utf-8")
        with pytest.raises(NotFoundError):
            read_file_at(RepoHandle(root), "HEAD", "untracked.txt")

    def test_old_rev_content(self, table_repo):
        repo_path, c_rewrite, _ = table_repo
        repo = RepoHandle(repo_path)
        old = read_file_at(repo, f"{c_rewrite}^", TABLE_FILE)
        assert old[203].startswith("BitcoinApplication::BitcoinApplication(int argc")
        new = read_file_at(repo, c_rewrite, TABLE_FILE)
        assert new[203] == "static int qt_argc = 1;"


class TestBlame:
    def test_region_owners(self, table_repo):
        repo_path, c_rewrite, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert set(blame_lines(repo, "HEAD", TABLE_FILE, 204, 208)) == {
            c_rewrite, c_tweak,
        }
        assert set(blame_lines(repo, "HEAD", TABLE_FILE, 204, 204)) == {c_rewrite}
        assert set(blame_lines(repo, "HEAD", TABLE_FILE, 206, 208)) == {c_rewrite}

    def test_single_line(self, table_repo):
        repo_path, _, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert blame_lines(repo, "HEAD", TABLE_FILE, 205, 205) == {
            c_tweak: datetime(2020, 6, 26, tzinfo=UTC),
        }

    def test_filler_owned_by_import(self, table_repo):
        repo_path, c_rewrite, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        times = blame_lines(repo, "HEAD", TABLE_FILE, 1, 3)
        assert set(times) & {c_rewrite, c_tweak} == set()

    def test_commit_times_match_commit_time_oracle(self, tmp_path):
        # Porcelain prints a commit's headers only at its first line: here
        # `base` owns lines 1 and 3 and `edit` owns line 2 between them.
        # Author dates differ from committer dates, and zones from UTC.
        root = init_repo(tmp_path / "times")

        def commit(content: str, committed: datetime) -> str:
            write_files(root, {"t.c": content})
            run_git(root, "add", "-A")
            authored = (committed - timedelta(days=40)).isoformat()
            run_git(root, "commit", "-q", "-m", "c", f"--date={authored}",
                    date=committed)
            return run_git(root, "rev-parse", "HEAD")

        west = timezone(timedelta(hours=-7))
        east = timezone(timedelta(hours=5, minutes=30))
        base = commit("int a = 1;\nint b = 2;\nint c = 3;\n",
                      datetime(2021, 3, 4, 23, 30, tzinfo=west))
        edit = commit("int a = 1;\nint b = 20;\nint c = 3;\n",
                      datetime(2022, 7, 1, 1, 15, tzinfo=east))
        repo = RepoHandle(root)
        times = blame_lines(repo, "HEAD", "t.c", 1, 3)
        assert set(times) == {base, edit}
        for sha, when in times.items():
            assert when == commit_time(repo, sha)
            assert when.tzinfo == UTC
        assert times[base] == datetime(2021, 3, 5, 6, 30, tzinfo=UTC)

    def test_invalid_range_rejected(self, table_repo):
        repo = RepoHandle(table_repo[0])
        with pytest.raises(ValueError):
            blame_lines(repo, "HEAD", TABLE_FILE, 0, 5)
        with pytest.raises(ValueError):
            blame_lines(repo, "HEAD", TABLE_FILE, 9, 4)

    def test_out_of_bounds_range(self, table_repo):
        repo = RepoHandle(table_repo[0])
        with pytest.raises(GitError, match="out of bounds"):
            blame_lines(repo, "HEAD", TABLE_FILE, 5000, 5004)

    def test_missing_path(self, table_repo):
        repo = RepoHandle(table_repo[0])
        with pytest.raises(NotFoundError):
            blame_lines(repo, "HEAD", "src/qt/absent.cpp", 1, 2)


class TestCommitDiff:
    def test_shows_both_whole_files(self, table_repo):
        repo_path, c_rewrite, _ = table_repo
        repo = RepoHandle(repo_path)
        old = read_file_at(repo, f"{c_rewrite}^", TABLE_FILE)
        new = read_file_at(repo, c_rewrite, TABLE_FILE)
        lines = commit_diff(repo, c_rewrite).split("\n")
        assert lines[:2] == [f"{c_rewrite} 2019-08-10T00:00:00+00:00", ""]
        header = f"@@ -1,{len(old)} +1,{len(new)} @@"
        assert [line for line in lines if line.startswith("@@")] == [header]
        body = lines[lines.index(header) + 1:]
        assert [line[1:] for line in body if line[:1] in (" ", "-")] == old
        assert [line[1:] for line in body if line[:1] in (" ", "+")] == new


class TestCommitTime:
    def test_pinned_dates(self, table_repo):
        repo_path, c_rewrite, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert commit_time(repo, c_rewrite) == datetime(2019, 8, 10, tzinfo=UTC)
        assert commit_time(repo, c_tweak) == datetime(2020, 6, 26, tzinfo=UTC)

    def test_result_is_utc(self, table_repo):
        repo_path, c_rewrite, _ = table_repo
        assert commit_time(RepoHandle(repo_path), c_rewrite).tzinfo == UTC

    def test_tag_name_resolves_to_commit(self, table_repo):
        repo_path, _, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert commit_time(repo, "mainnet-ignition-v0.20.0") == commit_time(
            repo, c_tweak
        )

    def test_unknown_sha(self, table_repo):
        with pytest.raises(NotFoundError):
            commit_time(RepoHandle(table_repo[0]), "f" * 40)


class TestReleases:
    def test_ordering_and_dates(self, table_repo):
        repo_path, c_rewrite, c_tweak = table_repo
        repo = RepoHandle(repo_path)
        assert releases_containing(repo, c_rewrite) == [
            ("mainnet-ignition-v0.19.0", datetime(2020, 2, 22, tzinfo=UTC)),
            ("mainnet-ignition-v0.20.0", datetime(2020, 8, 1, tzinfo=UTC)),
        ]
        assert releases_containing(repo, c_tweak) == [
            ("mainnet-ignition-v0.20.0", datetime(2020, 8, 1, tzinfo=UTC)),
        ]

    def test_untagged_commit(self, make_repo):
        root = make_repo({"a.txt": "x\n"})
        repo = RepoHandle(root)
        sha = run_git(root, "rev-parse", "HEAD")
        assert releases_containing(repo, sha) == []

    def test_lightweight_tag_uses_commit_date(self, make_repo):
        root = make_repo({"a.txt": "x\n"}, date=datetime(2021, 3, 4, tzinfo=UTC))
        sha = run_git(root, "rev-parse", "HEAD")
        run_git(root, "tag", "lw-v1.0")
        repo = RepoHandle(root)
        assert releases_containing(repo, sha) == [
            ("lw-v1.0", datetime(2021, 3, 4, tzinfo=UTC))
        ]

    def test_unknown_sha(self, table_repo):
        with pytest.raises(NotFoundError):
            releases_containing(RepoHandle(table_repo[0]), "f" * 40)

