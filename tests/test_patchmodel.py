"""Patch parsing: unified diffs, hunk assembly, contexts, manifests."""

from datetime import datetime, timedelta, timezone

import pytest

from conftest import commit_all, init_repo, run_git, write_files
from forkscan.gitio import NotFoundError, RepoHandle, commit_diffs, commit_time
from forkscan.patchmodel import (
    Patch,
    PatchError,
    PatchHunk,
    PatchType,
    build_patch_context,
    load_patch,
    parse_manifest,
    parse_patch,
    parse_unified_diff,
)
from forkscan.preprocess import classify_file, extract_statements

UTC = timezone.utc

GUARD = "src/guard.cpp"

GUARD_V0 = "\n".join([
    '#include "guard.h"',
    "",
    "// setup section",
    'int nDepth = GetArg("-depth", DEFAULT_DEPTH);',
    "if (nDepth <= 0)",
    "    nDepth = DEFAULT_DEPTH;",
    "CCoinsStats stats;",
    'LogPrintf("guard: starting scan\\n");',
    'if (fHavePruned) return error("pruned");',
    "unsigned int nChecked = 0;",
    "for (CBlockIndex* p = tip; p; p = p->pprev) {",
    "    nChecked += Count(p);",
    "}",
    'LogPrintf("guard: scan done\\n");',
    "return nChecked > 0;",
]) + "\n"

CHA_NEW_LINE = 'if (fHavePruned || fBadState) return AbortNode(state, "pruned");'
GUARD_V1 = GUARD_V0.replace('if (fHavePruned) return error("pruned");', CHA_NEW_LINE)

# v2 drops the depth clamp (raw lines 5-6 of v1).
GUARD_V2 = "\n".join(
    line for line in GUARD_V1.rstrip("\n").split("\n")
    if line not in ("if (nDepth <= 0)", "    nDepth = DEFAULT_DEPTH;")
) + "\n"

ADD_LINE = "unsigned int nOrphans = 0;"
GUARD_V3 = GUARD_V2.replace(
    "unsigned int nChecked = 0;",
    "unsigned int nChecked = 0;\n" + ADD_LINE,
)


@pytest.fixture(scope="module")
def guard_repo(tmp_path_factory):
    """guard.cpp history: import, then one CHA, one DEL, one ADD commit."""
    root = init_repo(tmp_path_factory.mktemp("guard") / "source")
    shas = {}
    write_files(root, {GUARD: GUARD_V0})
    shas["import"] = commit_all(root, "import", datetime(2020, 1, 1, tzinfo=UTC))
    write_files(root, {GUARD: GUARD_V1})
    shas["cha"] = commit_all(root, "harden prune check",
                             datetime(2020, 2, 1, tzinfo=UTC))
    write_files(root, {GUARD: GUARD_V2})
    shas["del"] = commit_all(root, "drop depth clamp",
                             datetime(2020, 3, 1, tzinfo=UTC))
    write_files(root, {GUARD: GUARD_V3})
    shas["add"] = commit_all(root, "count orphans",
                             datetime(2020, 4, 1, tzinfo=UTC))
    return RepoHandle(root), shas


def _commit_patch(repo: RepoHandle, sha: str) -> Patch:
    """The patch of one commit, read as a scan reads it."""
    (diff_text,) = commit_diffs(repo, [sha])
    return load_patch(diff_text, sha)


def _norms(stmts) -> list[str]:
    return [s.norm for s in stmts]


def _expected_context(content: str, span: tuple[int, int]):
    """Independent context slice: the five meaningful statements on each side
    of a raw span."""
    stmts = extract_statements(
        content.rstrip("\n").split("\n"), GUARD, classify_file(GUARD)
    )
    above = [s.norm for s in stmts if s.line_no < span[0]]
    below = [s.norm for s in stmts if s.line_no > span[1]]
    return above[-5:], below[:5]


def _lines(stmts) -> list[int]:
    return [s.line_no for s in stmts]


def _runs(gh) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    return [(r.old_span, r.new_span) for r in gh.runs]


class TestParseUnifiedDiff:
    def test_basic_change_with_context(self):
        text = (
            "diff --git a/src/x.cpp b/src/x.cpp\n"
            "--- a/src/x.cpp\n"
            "+++ b/src/x.cpp\n"
            "@@ -2,4 +2,4 @@\n"
            " int before = 1;\n"
            "-old_call(a);\n"
            "+new_call(a);\n"
            " int after = 2;\n"
            " int tail = 3;\n"
        )
        files = parse_unified_diff(text)
        assert len(files) == 1
        fd = files[0]
        assert fd.path == "src/x.cpp"
        (h,) = fd.hunks
        assert h.old_lines == [
            (2, "int before = 1;"), (3, "old_call(a);"),
            (4, "int after = 2;"), (5, "int tail = 3;"),
        ]
        assert h.new_lines == [
            (2, "int before = 1;"), (3, "new_call(a);"),
            (4, "int after = 2;"), (5, "int tail = 3;"),
        ]
        assert _runs(h) == [((3, 3), (3, 3))]

    def test_hunk_splits_into_change_runs(self):
        text = (
            "--- a/f.c\n"
            "+++ b/f.c\n"
            "@@ -1,7 +1,6 @@\n"
            " int a = 1;\n"
            "-int b = 2;\n"
            "-int c = 3;\n"
            "+int bc = 23;\n"
            " int d = 4;\n"
            "+int e = 5;\n"
            " int f = 6;\n"
            "-int g = 7;\n"
            " int h = 8;\n"
        )
        (h,) = parse_unified_diff(text)[0].hunks
        assert _runs(h) == [((2, 3), (2, 2)), ((5, 4), (4, 4)), ((6, 6), (6, 5))]
        assert [ln for ln, _ in h.old_lines] == list(range(1, 8))
        assert [ln for ln, _ in h.new_lines] == list(range(1, 7))

    def test_empty_side_anchors_after_leading_context(self):
        text = (
            "--- a/f.c\n"
            "+++ b/f.c\n"
            "@@ -1,2 +1,1 @@\n"
            "-dropped();\n"
            " int g = 2;\n"
            "@@ -10,6 +9,7 @@\n"
            " int a = 10;\n"
            " int b = 11;\n"
            " int c = 12;\n"
            "+inserted();\n"
            " int d = 13;\n"
            " int e = 14;\n"
            " int f = 15;\n"
        )
        rem, add = parse_unified_diff(text)[0].hunks
        assert _runs(rem) == [((1, 1), (1, 0))]
        # -U0 would say "@@ -12,0 +12 @@": the same (13, 12) old span.
        assert _runs(add) == [((13, 12), (12, 12))]

    def test_zero_count_spans_anchor_above(self):
        text = (
            "--- a/f.c\n"
            "+++ b/f.c\n"
            "@@ -8,0 +9 @@\n"
            "+inserted();\n"
            "@@ -5,2 +4,0 @@\n"
            "-dropped_one();\n"
            "-dropped_two();\n"
        )
        add, rem = parse_unified_diff(text)[0].hunks
        assert _runs(add) == [((9, 8), (9, 9))] and add.old_lines == []
        assert _runs(rem) == [((5, 6), (5, 4))] and rem.new_lines == []

    def test_omitted_count_defaults_to_one(self):
        text = "--- a/f.c\n+++ b/f.c\n@@ -3 +3 @@\n-x();\n+y();\n int z;\n"
        (h,) = parse_unified_diff(text)[0].hunks
        # Each side holds one line, so the context line after is not read.
        assert h.old_lines == [(3, "x();")] and h.new_lines == [(3, "y();")]
        assert _runs(h) == [((3, 3), (3, 3))]

    def test_counts_win_over_header_looking_content(self):
        text = (
            "diff --git a/a.c b/a.c\n"
            "--- a/a.c\n"
            "+++ b/a.c\n"
            "@@ -1,3 +1,1 @@\n"
            "-int x = 1;\n"
            "--- content line that looks like a header\n"
            "-+++ another trap\n"
            "+int y = 2;\n"
        )
        (fd,) = parse_unified_diff(text)
        (h,) = fd.hunks
        assert fd.path == "a.c"
        assert [t for _, t in h.old_lines] == [
            "int x = 1;",
            "-- content line that looks like a header",
            "+++ another trap",
        ]
        assert [t for _, t in h.new_lines] == ["int y = 2;"]
        assert _runs(h) == [((1, 3), (1, 1))]

    def test_no_newline_marker_ignored(self):
        text = (
            "--- a/a.c\n+++ b/a.c\n@@ -1 +1 @@\n"
            "-old();\n\\ No newline at end of file\n"
            "+new();\n\\ No newline at end of file\n"
        )
        (h,) = parse_unified_diff(text)[0].hunks
        assert h.old_lines == [(1, "old();")] and h.new_lines == [(1, "new();")]
        assert _runs(h) == [((1, 1), (1, 1))]

    def test_new_and_deleted_files(self):
        text = (
            "diff --git a/born.c b/born.c\n"
            "--- /dev/null\n"
            "+++ b/born.c\n"
            "@@ -0,0 +1,2 @@\n"
            "+int a = 1;\n"
            "+int b = 2;\n"
            "diff --git a/gone.c b/gone.c\n"
            "--- a/gone.c\n"
            "+++ /dev/null\n"
            "@@ -1,2 +0,0 @@\n"
            "-int c = 3;\n"
            "-int d = 4;\n"
        )
        born, gone = parse_unified_diff(text)
        assert born.path == "born.c" and born.hunks[0].old_lines == []
        assert born.hunks[0].new_lines == [(1, "int a = 1;"), (2, "int b = 2;")]
        assert _runs(born.hunks[0]) == [((1, 0), (1, 2))]
        assert gone.path == "gone.c" and gone.hunks[0].new_lines == []
        assert _runs(gone.hunks[0]) == [((1, 2), (1, 0))]

    @pytest.mark.parametrize("quoted, path", [
        ('src/we\\"ird.cpp', 'src/we"ird.cpp'),
        ("src/caf\\303\\251.cpp", "src/café.cpp"),
        ("tab\\there\\\\x.c", "tab\there\\x.c"),
        ("bad\\377.c", "bad\ufffd.c"),
        ("hand\\x.c", "hand?.c"),
    ])
    def test_quoted_header_path(self, quoted, path):
        # git C-quotes a path holding '"', '\\', a control character or,
        # under the default core.quotepath, a non-ASCII byte (as \ooo).
        text = f'--- "a/{quoted}"\n+++ "b/{quoted}"\n@@ -1 +1 @@\n-x();\n+y();\n'
        assert [f.path for f in parse_unified_diff(text)] == [path]

    def test_binary_sections_skipped(self):
        text = (
            "diff --git a/bin.dat b/bin.dat\n"
            "Binary files a/bin.dat and b/bin.dat differ\n"
            "diff --git a/ok.c b/ok.c\n"
            "--- a/ok.c\n"
            "+++ b/ok.c\n"
            "@@ -1 +1 @@\n"
            "-x();\n"
            "+y();\n"
        )
        files = parse_unified_diff(text)
        assert [f.path for f in files] == ["ok.c"]

    def test_truncated_hunk_rejected(self):
        text = "--- a/a.c\n+++ b/a.c\n@@ -1,2 +1,2 @@\n-x();\nnot diff content\n"
        with pytest.raises(PatchError, match="truncated"):
            parse_unified_diff(text)

    def test_hunk_outside_file_rejected(self):
        with pytest.raises(PatchError, match="outside"):
            parse_unified_diff("@@ -1 +1 @@\n-x\n+y\n")

    def test_files_without_hunks_dropped(self):
        text = (
            "diff --git a/mode.c b/mode.c\n"
            "old mode 100644\n"
            "new mode 100755\n"
        )
        assert parse_unified_diff(text) == []


def _merge_commit(tmp_path) -> tuple:
    """A repo whose HEAD merges branch `feat` (which rewrites m.c) into a
    main that changed other.c; the merge is committed on 2021-01-04."""
    root = init_repo(tmp_path / "merged")
    write_files(root, {
        "m.c": "int alpha = 1;\nlegacy_call(b);\nint gamma = 3;\n",
        "other.c": "int keep = 0;\n",
    })
    commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
    run_git(root, "checkout", "-q", "-b", "feat")
    write_files(root, {"m.c": "int alpha = 1;\nmodern_call(b);\nint gamma = 3;\n"})
    commit_all(root, "modernize call", datetime(2021, 1, 2, tzinfo=UTC))
    run_git(root, "checkout", "-q", "main")
    write_files(root, {"other.c": "int keep = 1;\n"})
    commit_all(root, "tweak other", datetime(2021, 1, 3, tzinfo=UTC))
    run_git(root, "merge", "-q", "--no-ff", "-m", "merge feat", "feat",
            date=datetime(2021, 1, 4, tzinfo=UTC))
    sha = run_git(root, "rev-parse", "HEAD")
    assert run_git(root, "rev-list", "--parents", "-n1", sha).count(" ") == 2
    return root, sha


class TestParsePatchFromRepo:
    def test_short_sha_resolves_to_full_id(self, guard_repo):
        repo, shas = guard_repo
        patch = _commit_patch(repo, shas["cha"][:10])
        assert patch.source_sha == shas["cha"]
        assert patch.label == shas["cha"][:10]
        assert [h.ptype for h in patch.hunks] == [PatchType.CHA]

    def test_cha_commit(self, guard_repo):
        repo, shas = guard_repo
        patch = _commit_patch(repo, shas["cha"])
        assert patch.source_sha == shas["cha"]
        assert patch.committed_at == datetime(2020, 2, 1, tzinfo=UTC)
        assert patch.label == shas["cha"]
        (h,) = patch.hunks
        assert h.ptype == PatchType.CHA
        assert _norms(h.dp) == ['if (fHavePruned) return error("pruned");']
        assert _norms(h.ap) == [CHA_NEW_LINE]
        assert _lines(h.dp) == [9] and _lines(h.ap) == [9]
        assert {s.path for s in h.dp + h.ap} == {GUARD}
        assert h.file_class == classify_file(GUARD)
        assert h.code_len == 1

    def test_del_commit(self, guard_repo):
        repo, shas = guard_repo
        (h,) = _commit_patch(repo, shas["del"]).hunks
        assert h.ptype == PatchType.DEL
        assert _norms(h.dp) == ["if (nDepth <= 0)", "nDepth = DEFAULT_DEPTH;"]
        assert h.ap == []
        assert _lines(h.dp) == [5, 6]
        # Contexts come from the old side, around the cut lines.
        assert h.up_ctx.statements[-1].line_no == 4
        assert h.down_ctx.statements[0].line_no == 7
        assert h.code_len == 2

    def test_add_commit(self, guard_repo):
        repo, shas = guard_repo
        (h,) = _commit_patch(repo, shas["add"]).hunks
        assert h.ptype == PatchType.ADD
        assert h.dp == [] and _norms(h.ap) == [ADD_LINE]
        assert _lines(h.ap) == [9]
        # Contexts come from the new side, around the added line.
        assert h.up_ctx.statements[-1].line_no == 8
        assert h.down_ctx.statements[0].line_no == 10
        assert h.code_len == 1

    def test_root_commit_is_pure_addition(self, guard_repo):
        repo, shas = guard_repo
        patch = _commit_patch(repo, shas["import"])
        (h,) = patch.hunks
        assert h.ptype == PatchType.ADD and h.dp == []
        assert _norms(h.ap) == _norms(
            extract_statements(
                GUARD_V0.rstrip("\n").split("\n"), GUARD, classify_file(GUARD)
            )
        )

    def test_dp_ap_line_numbers_are_file_positions(self, guard_repo):
        repo, shas = guard_repo
        (h,) = _commit_patch(repo, shas["del"]).hunks
        assert [s.line_no for s in h.dp] == [5, 6]

    def test_unknown_sha(self, guard_repo):
        with pytest.raises(NotFoundError):
            _commit_patch(guard_repo[0], "f" * 40)

    def test_merge_commit_uses_first_parent(self, tmp_path):
        root, sha = _merge_commit(tmp_path)
        patch = _commit_patch(RepoHandle(root), sha)
        (h,) = patch.hunks
        assert {s.path for s in h.dp + h.ap} == {"m.c"}
        assert _norms(h.dp) == ["legacy_call(b);"]
        assert _norms(h.ap) == ["modern_call(b);"]

    def test_comment_only_commit_rejected(self, tmp_path):
        root = init_repo(tmp_path / "commenty")
        write_files(root, {"c.c": "int a = 1;\n// old note\nint b = 2;\n"})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        write_files(root, {"c.c": "int a = 1;\n// new note\nint b = 2;\n"})
        sha = commit_all(root, "reword", datetime(2021, 1, 2, tzinfo=UTC))
        with pytest.raises(PatchError, match="no meaningful"):
            _commit_patch(RepoHandle(root), sha)

    @pytest.mark.parametrize("old,new", [
        ("int a = 1;\n// n1\nint b = 2;\n// n2\nint c = 3;\n",
         "int a = 1;\n// note one\nint b = 2;\n// note two\nint c = 3;\n"),
        ("int a = 1;\nint b = 2;\nint c = 3;\n",
         "int a = 1;\n    int  b = 2;\nint c = 3;\n"),
    ], ids=["comments-around-statement", "reindented-statement"])
    def test_group_alike_after_normalization_rejected(self, tmp_path, old, new):
        # Two reworded comments merge into one group whose span holds
        # `int b = 2;` on both sides; a re-indented line normalizes to
        # itself. Either group has dp == ap and so cannot be judged.
        root = init_repo(tmp_path / "alike")
        write_files(root, {"c.c": old})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        write_files(root, {"c.c": new})
        sha = commit_all(root, "reword", datetime(2021, 1, 2, tzinfo=UTC))
        with pytest.raises(PatchError, match="no meaningful"):
            _commit_patch(RepoHandle(root), sha)

    def test_comment_hunk_skipped_but_real_hunk_kept(self, tmp_path):
        root = init_repo(tmp_path / "mixed")
        write_files(root, {
            "doc.c": "// first note\nint a = 1;\n",
            "code.c": "int old_value = 1;\n",
        })
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        write_files(root, {
            "doc.c": "// renewed note\nint a = 1;\n",
            "code.c": "int new_value = 2;\n",
        })
        sha = commit_all(root, "update", datetime(2021, 1, 2, tzinfo=UTC))
        (h,) = _commit_patch(RepoHandle(root), sha).hunks
        assert {s.path for s in h.dp + h.ap} == {"code.c"}

    def test_new_file_commit(self, tmp_path):
        root = init_repo(tmp_path / "newfile")
        write_files(root, {"a.c": "int a = 1;\n"})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        write_files(root, {"fresh.c": "int shiny = 1;\nint thing = 2;\n"})
        sha = commit_all(root, "add fresh", datetime(2021, 1, 2, tzinfo=UTC))
        (h,) = _commit_patch(RepoHandle(root), sha).hunks
        assert h.ptype == PatchType.ADD
        assert {s.path for s in h.ap} == {"fresh.c"}
        assert _norms(h.ap) == ["int shiny = 1;", "int thing = 2;"]

    def test_deleted_file_commit(self, tmp_path):
        root = init_repo(tmp_path / "delfile")
        write_files(root, {"a.c": "int a = 1;\n", "doomed.c": "int gone = 9;\n"})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        (root / "doomed.c").unlink()
        sha = commit_all(root, "remove doomed", datetime(2021, 1, 2, tzinfo=UTC))
        (h,) = _commit_patch(RepoHandle(root), sha).hunks
        assert h.ptype == PatchType.DEL and {s.path for s in h.dp} == {"doomed.c"}
        assert _norms(h.dp) == ["int gone = 9;"]


class TestPatchTime:
    """committed_at is read from the diff's header line and must agree with
    a separate committer-time lookup."""

    def test_root_commit(self, guard_repo):
        repo, shas = guard_repo
        patch = _commit_patch(repo, shas["import"])
        assert patch.committed_at == commit_time(repo, shas["import"])
        assert patch.committed_at == datetime(2020, 1, 1, tzinfo=UTC)

    def test_merge_commit(self, tmp_path):
        root, sha = _merge_commit(tmp_path)
        repo = RepoHandle(root)
        patch = _commit_patch(repo, sha)
        assert patch.committed_at == commit_time(repo, sha)
        assert patch.committed_at == datetime(2021, 1, 4, tzinfo=UTC)

    def test_committer_offset_is_normalized_to_utc(self, tmp_path):
        root = init_repo(tmp_path / "offset")
        write_files(root, {"t.c": "int a = 1;\nint b = 2;\nint c = 3;\n"})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        write_files(root, {"t.c": "int a = 1;\nint b = 20;\nint c = 3;\n"})
        east = timezone(timedelta(hours=5, minutes=30))
        committed = datetime(2022, 7, 1, 1, 15, tzinfo=east)
        run_git(root, "add", "-A")
        run_git(root, "commit", "-q", "-m", "edit",
                f"--date={(committed - timedelta(days=40)).isoformat()}",
                date=committed)
        sha = run_git(root, "rev-parse", "HEAD")
        repo = RepoHandle(root)
        header = commit_diffs(repo, [sha])[0].split("\n", 1)[0]
        assert header == f"{sha} 2022-07-01T01:15:00+05:30"
        patch = _commit_patch(repo, sha)
        assert patch.committed_at == commit_time(repo, sha)
        assert patch.committed_at == datetime(2022, 6, 30, 19, 45, tzinfo=UTC)
        assert patch.committed_at.tzinfo == UTC


def _numbered(prefix: str, n: int) -> list[str]:
    return [f"int {prefix}{k} = {k};" for k in range(n)]


def _gap_commit(tmp_path, gap: int):
    """Two changed lines separated by `gap` meaningful statements."""
    lines = (["head_call(a);"] + _numbered("mid", gap) + ["tail_call(b);"])
    root = init_repo(tmp_path / "far")
    write_files(root, {"far.c": "\n".join(lines) + "\n"})
    commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
    lines[0] = "head_call(a, extra);"
    lines[-1] = "tail_call(b, extra);"
    write_files(root, {"far.c": "\n".join(lines) + "\n"})
    sha = commit_all(root, "extend calls", datetime(2021, 1, 2, tzinfo=UTC))
    return RepoHandle(root), sha


def _insertions_commit(tmp_path):
    """Two single-line insertions 45 statements apart in a 60-line file."""
    lines = _numbered("v", 60)
    root = init_repo(tmp_path / "inserts")
    write_files(root, {"ins.c": "\n".join(lines) + "\n"})
    commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
    lines.insert(50, "int late = 1;")  # after raw line 50
    lines.insert(5, "int early = 1;")  # after raw line 5
    write_files(root, {"ins.c": "\n".join(lines) + "\n"})
    sha = commit_all(root, "insert two lines", datetime(2021, 1, 2, tzinfo=UTC))
    return RepoHandle(root), sha


def _width_commit(tmp_path):
    """An insertion after line 5, a change at line 15, a deletion at line 30."""
    lines = _numbered("v", 40)
    root = init_repo(tmp_path / "width")
    write_files(root, {"w.c": "\n".join(lines) + "\n"})
    commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
    lines[14] = "int v14 = 99;"  # raw line 15 changes
    del lines[29]  # raw line 30 goes
    lines.insert(5, "int inserted = 1;")  # a line after raw line 5
    write_files(root, {"w.c": "\n".join(lines) + "\n"})
    sha = commit_all(root, "edit", datetime(2021, 1, 2, tzinfo=UTC))
    return RepoHandle(root), sha


class TestHunkMerging:
    def test_gap_at_least_twice_context_stays_split(self, tmp_path):
        patch = _commit_patch(*_gap_commit(tmp_path, 10))  # 10 >= 2 * 5
        assert len(patch.hunks) == 2
        assert [_lines(h.dp) for h in patch.hunks] == [[1], [12]]

    def test_gap_under_twice_context_merges(self, tmp_path):
        (h,) = _commit_patch(*_gap_commit(tmp_path, 9)).hunks  # 9 < 2 * 5
        # dp and ap span the group: the unchanged statements between the
        # two runs are on both sides.
        mid = _numbered("mid", 9)
        assert _norms(h.dp) == ["head_call(a);", *mid, "tail_call(b);"]
        assert _norms(h.ap) == ["head_call(a, extra);", *mid, "tail_call(b, extra);"]
        assert _lines(h.dp) == list(range(1, 12)) and h.ptype == PatchType.CHA

    def test_comment_lines_do_not_count_toward_gap(self, tmp_path):
        comments = [f"// filler {k}" for k in range(20)]
        lines = (["first_call(a);"] + _numbered("mid", 3) + comments
                 + ["second_call(b);"])
        root = init_repo(tmp_path / "gapc")
        write_files(root, {"gapc.c": "\n".join(lines) + "\n"})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        lines[0] = "first_call(a, x);"
        lines[-1] = "second_call(b, x);"
        write_files(root, {"gapc.c": "\n".join(lines) + "\n"})
        sha = commit_all(root, "extend", datetime(2021, 1, 2, tzinfo=UTC))
        repo = RepoHandle(root)

        # Statement gap is 3 (< 10): one merged hunk.
        assert len(_commit_patch(repo, sha).hunks) == 1
        # The same change as a -U0 diff, which omits the 23 lines between
        # the changes, so each counts (>= 10).
        diff = run_git(root, "diff", "-U0", f"{sha}^", sha)
        assert len(parse_patch(diff, "fix.diff").hunks) == 2

    def test_shown_comment_lines_do_not_count_between_git_hunks(self, tmp_path):
        # Changes at lines 1 and 14; lines 2-13 hold 10 comments, then
        # 2 statements. A -U0 diff counts all 12 lines (>= 10); a -U5 diff
        # shows lines 2-6 and 9-13, of which only the 2 statements count,
        # plus the 2 omitted lines 7-8: 4 (< 10).
        lines = (["first_call(a);"] + [f"// note {k}" for k in range(10)]
                 + _numbered("mid", 2) + ["second_call(b);"])
        root = init_repo(tmp_path / "shown")
        write_files(root, {"s.c": "\n".join(lines) + "\n"})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        lines[0] = "first_call(a, x);"
        lines[-1] = "second_call(b, x);"
        write_files(root, {"s.c": "\n".join(lines) + "\n"})
        sha = commit_all(root, "extend", datetime(2021, 1, 2, tzinfo=UTC))
        zero_context = run_git(root, "diff", "-U0", f"{sha}^", sha)
        assert len(parse_patch(zero_context, "fix.diff").hunks) == 2
        diff = run_git(root, "diff", "-U5", f"{sha}^", sha)
        assert diff.count("@@ -") == 2
        (h,) = parse_patch(diff, "fix.diff").hunks
        # The group's span holds the two statements the diff shows between
        # the changes; its comments and omitted lines have none.
        assert _lines(h.dp) == [1, 12, 13, 14]
        assert len(_commit_patch(RepoHandle(root), sha).hunks) == 1

    def test_add_only_file_splits_distant_insertions(self, tmp_path):
        repo, sha = _insertions_commit(tmp_path)
        # 45 old statements separate the insertions (>= 10): two ADD hunks,
        # from the commit as from its -U0 diff.
        diff = run_git(repo.root, "diff", "-U0", f"{sha}^", sha)
        for patch in (_commit_patch(repo, sha), parse_patch(diff, "fix.diff")):
            assert [(h.ptype, _lines(h.ap), _norms(h.ap)) for h in patch.hunks] == [
                (PatchType.ADD, [6], ["int early = 1;"]),
                (PatchType.ADD, [52], ["int late = 1;"]),
            ]

    def test_context_width_does_not_change_hunks(self, tmp_path):
        repo, sha = _width_commit(tmp_path)

        def shape(width: str):
            diff = run_git(repo.root, "diff", width, f"{sha}^", sha)
            return [
                (h.ptype, [(s.line_no, s.norm) for s in h.dp],
                 [(s.line_no, s.norm) for s in h.ap])
                for h in parse_patch(diff, "fix.diff").hunks
            ]

        def lines(width: str):
            return [(t, [ln for ln, _ in d], [ln for ln, _ in a]) for t, d, a in shape(width)]

        # Empty sides anchor after the last line before the change, so the
        # insertion stays 9 raw lines from the change and merges with it at
        # either width. dp and ap are the statements the diff shows inside
        # the group's span, so -U3 adds the unchanged ones it shows there.
        assert lines("-U0") == [
            (PatchType.CHA, [15], [6, 16]),
            (PatchType.DEL, [30], []),
        ]
        assert lines("-U3") == [
            (PatchType.CHA, [6, 7, 8, 12, 13, 14, 15], [6, 7, 8, 9, 13, 14, 15, 16]),
            (PatchType.DEL, [30], []),
        ]


class TestBuildPatchContext:
    def test_cha_contexts_from_parent(self, guard_repo):
        repo, shas = guard_repo
        patch = _commit_patch(repo, shas["cha"])
        (h,) = patch.hunks
        up, down = _expected_context(GUARD_V0, (9, 9))
        assert _norms(h.up_ctx.statements) == up
        assert _norms(h.down_ctx.statements) == down
        assert len(h.up_ctx.statements) == 5 and len(h.down_ctx.statements) == 5

    def test_del_contexts_truncate_at_file_start(self, guard_repo):
        repo, shas = guard_repo
        (h,) = _commit_patch(repo, shas["del"]).hunks
        up, down = _expected_context(GUARD_V1, (5, 6))
        assert _norms(h.up_ctx.statements) == up
        assert len(h.up_ctx.statements) == 2  # only two meaningful statements above
        assert _norms(h.down_ctx.statements) == down

    def test_add_contexts_from_patch_revision(self, guard_repo):
        repo, shas = guard_repo
        (h,) = _commit_patch(repo, shas["add"]).hunks
        up, down = _expected_context(GUARD_V3, (9, 9))
        assert _norms(h.up_ctx.statements) == up
        assert _norms(h.down_ctx.statements) == down
        assert len(h.down_ctx.statements) == 4  # file ends before a full window

    def test_keywords_follow_statement_extraction(self, guard_repo):
        repo, shas = guard_repo
        (h,) = _commit_patch(repo, shas["cha"]).hunks
        for kw in h.up_ctx.keywords + h.down_ctx.keywords:
            assert kw.source_line in (h.up_ctx.statements + h.down_ctx.statements)
            assert kw.keyword in kw.source_line.norm

    def test_whole_file_deletion_has_no_context(self, tmp_path, capsys):
        root = init_repo(tmp_path / "nuke")
        write_files(root, {"a.c": "int a = 1;\n", "b.c": "int b = 2;\n"})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        (root / "b.c").unlink()
        sha = commit_all(root, "drop b", datetime(2021, 1, 2, tzinfo=UTC))
        (h,) = _commit_patch(RepoHandle(root), sha).hunks
        assert h.up_ctx.statements == [] and h.down_ctx.statements == []
        assert capsys.readouterr().err == (
            "WARNING forkscan.patchmodel: b.c: no meaningful context around hunk "
            "at (1, 1)\n"
        )


class TestDiffTextContexts:
    def test_contexts_come_from_diff_lines(self, guard_repo):
        repo, shas = guard_repo
        diff = run_git(repo.root, "diff", "-U5", f"{shas['cha']}^", shas["cha"])
        patch = parse_patch(diff, "fix.diff")
        assert patch.source_sha is None and patch.label == "fix.diff"
        (h,) = patch.hunks
        assert _norms(h.dp) == ['if (fHavePruned) return error("pruned");']
        up, down = _expected_context(GUARD_V0, (9, 9))
        # Five raw context lines above are all meaningful; below, the lone
        # bracket line drops out.
        assert _norms(h.up_ctx.statements) == up
        assert _norms(h.down_ctx.statements) == down[:4]

    def test_plain_diff_paths_match_git_diff(self, guard_repo):
        # `diff -u` names the files as given, with no a/ or b/ prefix.
        repo, shas = guard_repo
        diff = run_git(repo.root, "diff", "-U5", f"{shas['cha']}^", shas["cha"])
        stamp = "\t2021-06-01 00:00:00.000000000 +0000\n"
        plain = "".join(
            line[:4] + line[6:-1] + stamp if line.startswith(("--- a/", "+++ b/")) else line
            for line in diff.splitlines(keepends=True)
            if not line.startswith(("diff --git", "index "))
        )
        assert f"--- {GUARD}{stamp}+++ {GUARD}{stamp}" in plain
        git_hunks = parse_patch(diff, "fix.diff").hunks
        assert parse_patch(plain, "fix.diff").hunks == git_hunks
        assert {s.path for h in git_hunks for s in h.dp} == {GUARD}

    def test_zero_context_diff_gives_empty_contexts(self, guard_repo):
        repo, shas = guard_repo
        diff = run_git(repo.root, "diff", "-U0", f"{shas['cha']}^", shas["cha"])
        (h,) = parse_patch(diff, "fix.diff").hunks
        assert h.up_ctx.statements == [] and h.down_ctx.statements == []

    def test_add_hunk_contexts_use_new_numbering(self, guard_repo):
        repo, shas = guard_repo
        diff = run_git(repo.root, "diff", "-U3", f"{shas['add']}^", shas["add"])
        (h,) = parse_patch(diff, "fix.diff").hunks
        assert h.ptype == PatchType.ADD
        assert _norms(h.ap) == [ADD_LINE]
        up, down = _expected_context(GUARD_V3, (9, 9))
        assert _norms(h.up_ctx.statements) == up[-3:]
        assert [s.line_no for s in h.up_ctx.statements] == [6, 7, 8]

    def test_down_context_starts_after_last_change(self, tmp_path):
        # One -U3 hunk changes lines 10 and 13; lines 11-12 between the two
        # changes are inside the hunk, not below it.
        lines = [f"int v{k} = {k};" for k in range(1, 21)]
        root = init_repo(tmp_path / "down")
        write_files(root, {"d.c": "\n".join(lines) + "\n"})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        lines[9] = "int v10 = 100;"
        lines[12] = "int v13 = 130;"
        write_files(root, {"d.c": "\n".join(lines) + "\n"})
        sha = commit_all(root, "edit", datetime(2021, 1, 2, tzinfo=UTC))
        diff = run_git(root, "diff", "-U3", f"{sha}^", sha)
        assert diff.count("@@ -") == 1
        (h,) = parse_patch(diff, "fix.diff").hunks
        assert _lines(h.dp) == [10, 11, 12, 13]
        assert [(s.line_no, s.norm) for s in h.down_ctx.statements] == [
            (14, "int v14 = 14;"), (15, "int v15 = 15;"), (16, "int v16 = 16;"),
        ]
        assert [s.line_no for s in h.up_ctx.statements] == [7, 8, 9]

    def test_merged_group_contexts_come_from_outer_raw_hunks(self, tmp_path):
        # Changes at lines 10 and 18 give two -U3 git hunks; the 7 lines
        # between them are statements or omitted, so the gap (7) is under
        # 2 * 5 and they merge. dp holds every statement the diff shows in
        # 10-18: all but the omitted line 14.
        lines = [f"int v{k} = {k};" for k in range(1, 31)]
        root = init_repo(tmp_path / "merged")
        write_files(root, {"m.c": "\n".join(lines) + "\n"})
        commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
        lines[9] = "int v10 = 100;"
        lines[17] = "int v18 = 180;"
        write_files(root, {"m.c": "\n".join(lines) + "\n"})
        sha = commit_all(root, "edit", datetime(2021, 1, 2, tzinfo=UTC))
        diff = run_git(root, "diff", "-U3", f"{sha}^", sha)
        assert diff.count("@@ -") == 2
        (h,) = parse_patch(diff, "fix.diff").hunks
        assert h.ptype == PatchType.CHA
        assert [(s.line_no, s.norm) for s in h.dp] == [
            (10, "int v10 = 10;"), (11, "int v11 = 11;"), (12, "int v12 = 12;"),
            (13, "int v13 = 13;"), (15, "int v15 = 15;"), (16, "int v16 = 16;"),
            (17, "int v17 = 17;"), (18, "int v18 = 18;"),
        ]
        assert [s.line_no for s in h.up_ctx.statements] == [7, 8, 9]
        assert [s.line_no for s in h.down_ctx.statements] == [19, 20, 21]

    def test_rejects_non_diff_text(self):
        with pytest.raises(PatchError, match="no file hunks"):
            parse_patch("just some prose\nwith lines\n", "prose.txt")


@pytest.fixture(scope="module")
def comment_repo(tmp_path_factory):
    """A changed line opens a block comment that closes two lines below."""
    lines = [
        "int a1 = 1;",
        "int a2 = 2;",
        "int a3 = 3;",
        "int old = 0; /* begin note",
        "still_comment(x);",
        "end note */",
        "int b1 = 1;",
    ]
    root = init_repo(tmp_path_factory.mktemp("comment") / "source")
    write_files(root, {"n.c": "\n".join(lines) + "\n"})
    commit_all(root, "base", datetime(2021, 1, 1, tzinfo=UTC))
    lines[3] = "int fresh = 0; /* begin note"
    write_files(root, {"n.c": "\n".join(lines) + "\n"})
    return RepoHandle(root), commit_all(root, "rename", datetime(2021, 1, 2, tzinfo=UTC))


class TestCommitAndDiffTextAgree:
    """A diff with whole-file context gives the commit's hunks."""

    @staticmethod
    def _shape(patch):
        def stmts(seq):
            return [(s.line_no, s.norm) for s in seq]

        return [
            (h.ptype, stmts(h.dp), stmts(h.ap),
             stmts(h.up_ctx.statements), stmts(h.down_ctx.statements))
            for h in patch.hunks
        ]

    @pytest.mark.parametrize("case", [
        "cha", "del", "add", "block_comment", "gap_9", "gap_10", "insertions",
        "width",
    ])
    def test_whole_file_diff_matches_commit(
        self, case, guard_repo, comment_repo, tmp_path
    ):
        repo, sha = {
            "block_comment": lambda: comment_repo,
            "gap_9": lambda: _gap_commit(tmp_path, 9),
            "gap_10": lambda: _gap_commit(tmp_path, 10),
            "insertions": lambda: _insertions_commit(tmp_path),
            "width": lambda: _width_commit(tmp_path),
        }.get(case, lambda: (guard_repo[0], guard_repo[1][case]))()
        diff = run_git(repo.root, "diff", "-U100000", f"{sha}^", sha)
        want = self._shape(_commit_patch(repo, sha))
        assert self._shape(parse_patch(diff, "fix.diff")) == want
        if case == "block_comment":
            # Comment text below the change is not code on either path.
            assert want[0][-1] == [(7, "int b1 = 1;")]
        if case in ("gap_10", "insertions", "width"):
            assert len(want) == 2


class TestClassifyAndModel:
    def test_code_len_floor_is_one(self):
        up, down = build_patch_context([], [])
        hunk = PatchHunk(
            file_class=classify_file("x.c"), dp=[], ap=[],
            ptype=PatchType.DEL, up_ctx=up, down_ctx=down,
        )
        assert hunk.code_len == 1


class TestParseManifest:
    def test_basic(self):
        text = (
            "# patches to scan\n"
            "\n"
            "0123abc: CVE-2021-3401 clamp fix\n"
            "deadbeef\n"
            "v0.21.0~2: note with: extra colon\n"
        )
        assert parse_manifest(text) == ["0123abc", "deadbeef", "v0.21.0~2"]

    def test_malformed_line_reports_number(self):
        with pytest.raises(PatchError, match="line 2"):
            parse_manifest("good123\n!!bad line\n")

    def test_empty_manifest(self):
        assert parse_manifest("# nothing\n\n") == []
