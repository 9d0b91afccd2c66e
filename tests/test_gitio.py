"""Git plumbing: grep, file reads, blame, commit diffs, timestamps, releases."""

import os
import re
import subprocess
import sys
from datetime import datetime, timedelta, timezone

import pytest

from conftest import (
    TABLE_FILE,
    commit_all,
    init_repo,
    oracle_grep,
    record_git,
    run_git,
    tag_annotated,
    write_files,
)
from forkscan.gitio import (
    GitError,
    NotFoundError,
    RepoHandle,
    SameCommitError,
    blame_lines,
    commit_diffs,
    commit_time,
    grep_repo,
    read_file_at,
    read_files_at,
    releases_containing,
)
import forkscan
from forkscan.patchmodel import PatchError, load_patch

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

    @pytest.mark.parametrize("path", ["src/v:12:w.cpp", "src/a\nb.cpp"],
                             ids=["colon-number-colon", "newline"])
    def test_path_is_read_verbatim(self, make_repo, path):
        # Neither ":12:" nor a newline inside a path may split the hit.
        root = make_repo({
            path: 'int x = 0;\nLogPrintf("v");\n',
            "src/z.cpp": 'LogPrintf("z");\n',
        })
        hits = grep_repo(RepoHandle(root), ["LogPrintf"], "HEAD")
        assert [(h.path, h.line_no, h.raw_line) for h in hits] == [
            (path, 2, 'LogPrintf("v");'), ("src/z.cpp", 1, 'LogPrintf("z");'),
        ]
        assert read_file_at(RepoHandle(root), "HEAD", path)[1] == 'LogPrintf("v");'

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
    def test_rejects_non_repo(self, tmp_path, monkeypatch):
        # Opening the handle runs no git; each query reports the directory.
        plain = tmp_path / "plain"
        plain.mkdir()
        runs, real = [], subprocess.run
        monkeypatch.setattr(
            subprocess, "run", lambda *args, **kw: runs.append(args) or real(*args, **kw)
        )
        repo = RepoHandle(plain)
        assert runs == []
        message = f"^not a git repository: {re.escape(str(plain))}$"
        for query in (lambda: grep_repo(repo, ["x"], "HEAD"),
                      lambda: read_files_at(repo, "HEAD", ["a.c"]),
                      lambda: commit_diffs(repo, ["HEAD"]),
                      lambda: blame_lines(repo, "HEAD", "a.c", 1, 1)):
            with pytest.raises(GitError, match=message):
                query()
        assert len(runs) == 4

    def test_rejects_missing_dir(self, tmp_path):
        with pytest.raises(GitError):
            RepoHandle(tmp_path / "absent")


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


# Files read alone and in one batch; the last two are not UTF-8.
BATCH_FILES = {
    "src/with space.cpp": "int a = 1;\nint b = 2;\n",
    "src/with:colon.cpp": "int c = 3;\n",
    "src/crlf.cpp": "int d = 4;\r\nint e = 5;\r\n",
    "src/no_newline.cpp": "int f = 6;",
    "src/empty.cpp": "",
    "x.cpp": "int g = 7;\n",
}
BATCH_BYTES = {
    "src/latin1.cpp": b"const char* s = \"caf\xe9\";\n\xff\xfe\nint h;\n",
    "src/mixed.cpp": b"int i = 8; /* \xff */\r\n\r\nint j = 9;",
}


@pytest.fixture(scope="module")
def batch_repo(tmp_path_factory):
    root = init_repo(tmp_path_factory.mktemp("batch") / "repo")
    write_files(root, BATCH_FILES)
    for name, data in BATCH_BYTES.items():
        (root / name).write_bytes(data)
    old = commit_all(root, "v1", datetime(2020, 1, 1, tzinfo=UTC))
    # Names a batch line cannot hold: git would read "x.cpp" for the second.
    write_files(root, {"src/new\nline.cpp": "int k;\n", "x.cpp\r": "int l;\n",
                       "src/with space.cpp": "int m = 10;\n"})
    commit_all(root, "v2", datetime(2020, 1, 2, tzinfo=UTC))
    return RepoHandle(root), old


class TestReadFilesAt:
    """One `cat-file --batch` reads many files, each as read_file_at reads
    it; what a batch line cannot name, or what is no file, is left out."""

    def test_same_lines_as_read_file_at_in_one_call(self, batch_repo):
        repo, _ = batch_repo
        paths = [*BATCH_FILES, *BATCH_BYTES]
        calls = record_git(repo)
        got = read_files_at(repo, "HEAD", paths)
        assert calls == ["cat-file"]
        assert got == {p: read_file_at(repo, "HEAD", p) for p in paths}
        assert got["src/crlf.cpp"] == ["int d = 4;\r", "int e = 5;\r"]
        assert got["src/empty.cpp"] == []
        assert got["src/latin1.cpp"][1] == "\ufffd\ufffd"

    def test_reads_at_the_given_revision(self, batch_repo):
        repo, old = batch_repo
        assert read_files_at(repo, old, ["src/with space.cpp"]) == {
            "src/with space.cpp": ["int a = 1;", "int b = 2;"]
        }
        assert read_files_at(repo, "HEAD", ["src/with space.cpp"]) == {
            "src/with space.cpp": ["int m = 10;"]
        }

    def test_unnamable_absent_and_non_file_paths_are_left_out(self, batch_repo):
        repo, old = batch_repo
        paths = ["src/new\nline.cpp", "x.cpp\r", "src/absent.cpp", "src",
                 "src/with:colon.cpp", "x.cpp"]
        got = read_files_at(repo, "HEAD", paths)
        assert got == {"src/with:colon.cpp": ["int c = 3;"], "x.cpp": ["int g = 7;"]}
        assert read_file_at(repo, "HEAD", "src/new\nline.cpp") == ["int k;"]
        assert read_file_at(repo, "HEAD", "x.cpp\r") == ["int l;"]
        assert read_files_at(repo, old, ["x.cpp\r", "src/absent.cpp"]) == {}

    def test_nothing_to_read_makes_no_call(self, batch_repo):
        repo, _ = batch_repo
        calls = record_git(repo)
        assert read_files_at(repo, "HEAD", []) == {}
        assert read_files_at(repo, "HEAD", ["a\nb.cpp"]) == {}
        assert read_files_at(repo, "HEAD\n", ["x.cpp"]) == {}
        assert calls == []

    def test_unknown_revision_reads_nothing(self, batch_repo):
        repo, _ = batch_repo
        assert read_files_at(repo, "no-such-rev", ["x.cpp"]) == {}


class TestGitLocale:
    def test_missing_path_is_not_found_in_any_locale(self, make_repo):
        """git runs in the C locale: under a German one its messages, which
        tell a missing path from a failure, would be translated."""
        root = make_repo({"a.txt": "x\n"})
        code = (
            "import sys\n"
            "from forkscan.gitio import NotFoundError, RepoHandle, blame_lines, "
            "read_file_at\n"
            "repo = RepoHandle(sys.argv[1])\n"
            "for read in (lambda: read_file_at(repo, 'HEAD', 'nope'),\n"
            "             lambda: blame_lines(repo, 'HEAD', 'nope', 1, 1)):\n"
            "    try:\n"
            "        read()\n"
            "    except NotFoundError:\n"
            "        continue\n"
            "    sys.exit('no NotFoundError')\n"
        )
        src = os.path.dirname(os.path.dirname(forkscan.__file__))
        env = dict(os.environ, LANGUAGE="de", LC_ALL="C.UTF-8", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(root)], env=env, capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


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


DIFF_TREE = ["diff-tree", "--root", "-r", "-p", "-U2147483647", "--no-color",
             "--format=%H %cI", "--diff-merges=first-parent"]


def _single_diff(root, sha: str) -> str:
    """One commit's diff from its own diff-tree call, bytes as printed."""
    proc = subprocess.run(["git", "-C", str(root), *DIFF_TREE, sha],
                          capture_output=True, check=True)
    return proc.stdout.decode("utf-8", errors="replace")


@pytest.fixture(scope="module")
def history_repo(tmp_path_factory):
    """A root commit, an edit tagged v1 (annotated), an empty commit, and a
    merge of a side branch; returns (path, {name: full id})."""
    root = init_repo(tmp_path_factory.mktemp("history") / "repo")
    shas = {}
    write_files(root, {"a.c": "int a = 1;\nint b = 2;\n"})
    shas["root"] = commit_all(root, "root", datetime(2021, 1, 1, tzinfo=UTC))
    write_files(root, {"a.c": "int a = 1;\nint b = 3;\n"})
    shas["edit"] = commit_all(root, "edit", datetime(2021, 1, 2, tzinfo=UTC))
    tag_annotated(root, "v1", datetime(2021, 1, 3, tzinfo=UTC))
    run_git(root, "commit", "-q", "--allow-empty", "-m", "empty",
            date=datetime(2021, 1, 4, tzinfo=UTC))
    shas["empty"] = run_git(root, "rev-parse", "HEAD")
    run_git(root, "checkout", "-q", "-b", "side")
    write_files(root, {"s.c": "int side = 1;\n"})
    commit_all(root, "side", datetime(2021, 1, 5, tzinfo=UTC))
    run_git(root, "checkout", "-q", "main")
    write_files(root, {"a.c": "int a = 2;\nint b = 3;\n"})
    commit_all(root, "main edit", datetime(2021, 1, 6, tzinfo=UTC))
    run_git(root, "merge", "-q", "--no-ff", "-m", "merge side", "side",
            date=datetime(2021, 1, 7, tzinfo=UTC))
    shas["merge"] = run_git(root, "rev-parse", "HEAD")
    return root, shas


class TestCommitDiffs:
    def test_shows_both_whole_files(self, table_repo):
        repo_path, c_rewrite, _ = table_repo
        repo = RepoHandle(repo_path)
        old = read_file_at(repo, f"{c_rewrite}^", TABLE_FILE)
        new = read_file_at(repo, c_rewrite, TABLE_FILE)
        (diff,) = commit_diffs(repo, [c_rewrite])
        lines = diff.split("\n")
        assert lines[:2] == [f"{c_rewrite} 2019-08-10T00:00:00+00:00", ""]
        header = f"@@ -1,{len(old)} +1,{len(new)} @@"
        assert [line for line in lines if line.startswith("@@")] == [header]
        body = lines[lines.index(header) + 1:]
        assert [line[1:] for line in body if line[:1] in (" ", "-")] == old
        assert [line[1:] for line in body if line[:1] in (" ", "+")] == new

    def test_batch_equals_single_diffs(self, history_repo):
        # A short id, an annotated tag, a root commit and a merge commit.
        root, shas = history_repo
        repo = RepoHandle(root)
        calls = record_git(repo)
        diffs = commit_diffs(repo, [shas["merge"][:10], "v1", shas["root"]])
        want = [shas["merge"], shas["edit"], shas["root"]]
        assert diffs == [_single_diff(root, sha) for sha in want]
        assert calls == ["cat-file", "diff-tree"]

    def test_empty_commit_is_its_header_and_no_patch(self, history_repo):
        root, shas = history_repo
        assert _single_diff(root, shas["empty"]) == ""
        diffs = commit_diffs(RepoHandle(root), [shas["empty"], shas["root"]])
        assert diffs == [f"{shas['empty']} 2021-01-04T00:00:00+00:00\n",
                         _single_diff(root, shas["root"])]
        with pytest.raises(PatchError, match="no file hunks found"):
            load_patch(diffs[0], shas["empty"])

    def test_unknown_sha_is_named(self, history_repo):
        root, shas = history_repo
        repo = RepoHandle(root)
        calls = record_git(repo)
        with pytest.raises(NotFoundError, match="unknown commit f{40} "):
            commit_diffs(repo, [shas["root"], "f" * 40])
        with pytest.raises(NotFoundError, match="unknown commit v1:a.c "):
            commit_diffs(repo, ["v1:a.c"])  # a blob is no commit
        with pytest.raises(NotFoundError):
            commit_diffs(repo, [f"{shas['root']}\n{shas['edit']}"])
        assert calls == ["cat-file", "cat-file"]

    def test_same_commit_twice_is_refused_before_any_diff(self, history_repo):
        root, shas = history_repo
        repo = RepoHandle(root)
        calls = record_git(repo)
        with pytest.raises(SameCommitError) as exc:
            commit_diffs(repo, [shas["edit"][:7], "v1"])
        assert exc.value.commit == shas["edit"]
        assert calls == ["cat-file"]

    def test_file_line_holding_another_id_does_not_split(self, tmp_path):
        root = init_repo(tmp_path / "ids")
        write_files(root, {"a.c": "int a = 1;\n"})
        first = commit_all(root, "first", datetime(2021, 1, 1, tzinfo=UTC))
        # A whole line that reads like the first commit's header.
        write_files(root, {"ids.txt": f"{first} 2021-01-01T00:00:00+00:00\n"})
        second = commit_all(root, "second", datetime(2021, 1, 2, tzinfo=UTC))
        repo = RepoHandle(root)
        for order in ([second, first], [first, second]):
            assert commit_diffs(repo, order) == [_single_diff(root, s) for s in order]

    def test_no_shas_runs_no_git(self, history_repo):
        repo = RepoHandle(history_repo[0])
        calls = record_git(repo)
        assert commit_diffs(repo, []) == []
        assert calls == []


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

