"""Statement extraction, keyword picking, and classification."""

import random

import pytest

from forkscan.preprocess import (
    NormalizedLine,
    StatementKind,
    _is_bracket_only,
    _strip_comments,
    classify_file,
    classify_norm,
    extract_keyword,
    extract_statements,
)


def oracle_strip_file(text: str, hash_comments: bool) -> list[tuple[int, str]]:
    """Whole-file comment stripper: single pass over the joined text.

    Structured differently from the implementation (one scan, explicit
    newline handling) to serve as an independent cross-check.
    """
    out: list[tuple[int, str]] = []
    buf: list[str] = []
    line_no = 1
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string
    quote = ""
    while i < n:
        ch = text[i]
        if ch == "\n":
            code = "".join(buf)
            norm = " ".join(code.split())
            stripped = norm.replace(" ", "")
            if norm and not (stripped and all(c in "{}()[];," for c in stripped)):
                out.append((line_no, norm))
            buf = []
            line_no += 1
            if state in ("line_comment", "string"):
                state = "code"  # strings and // comments do not span lines
                quote = ""
            i += 1
            continue
        if state == "line_comment":
            i += 1
            continue
        if state == "block_comment":
            if text.startswith("*/", i):
                state = "code"
                i += 2
            else:
                i += 1
            continue
        if state == "string":
            buf.append(ch)
            if ch == "\\" and i + 1 < n and text[i + 1] != "\n":
                buf.append(text[i + 1])
                i += 2
                continue
            if ch == quote:
                state = "code"
            i += 1
            continue
        if ch in ("\"", "'"):
            state = "string"
            quote = ch
            buf.append(ch)
            i += 1
            continue
        if text.startswith("//", i):
            state = "line_comment"
            i += 2
            continue
        if text.startswith("/*", i):
            state = "block_comment"
            i += 2
            continue
        if ch == "#" and hash_comments:
            state = "line_comment"
            i += 1
            continue
        buf.append(ch)
        i += 1
    if buf:
        code = "".join(buf)
        norm = " ".join(code.split())
        stripped = norm.replace(" ", "")
        if norm and not (stripped and all(c in "{}()[];," for c in stripped)):
            out.append((line_no, norm))
    return out


SAMPLE_C = """\
#include "validation.h"

// whole-line comment
int nValue = 7;  // trailing comment
/* block
   spanning lines */
const char* url = "http://example.com";  /* inline */ int after = 1;
char quoted = '"';
printf("escaped \\" quote // not a comment");
{
});
if (nValue > 0) {
    nValue--;
}
"""


# Random lines for the comment-scan property: mostly plain code characters,
# with comment, string and escape characters mixed in.
PLAIN_CHARS = "ab x=();{},."
COMMENT_CHARS = "/*\"'\\#"


class TestExtractStatements:
    def test_matches_whole_file_oracle_on_c(self):
        got = extract_statements(
            SAMPLE_C.split("\n"), "sample.c", classify_file("sample.c")
        )
        expect = oracle_strip_file(SAMPLE_C, hash_comments=False)
        assert [(s.line_no, s.norm) for s in got] == expect

    def test_matches_oracle_on_hash_language(self):
        text = 'x = 1  # tail\n# full line\ns = "a#b"  # after string\nfoo(s)\n'
        got = extract_statements(
            text.split("\n"), "script.py", classify_file("script.py")
        )
        expect = oracle_strip_file(text, hash_comments=True)
        assert [(s.line_no, s.norm) for s in got] == expect
        assert [s.norm for s in got] == ["x = 1", 's = "a#b"', "foo(s)"]

    def test_line_numbers_are_original(self):
        lines = ["", "// gone", "int a = 1;", "", "int b = 2;"]
        got = extract_statements(lines, "f.c", classify_file("f.c"))
        assert [(s.line_no, s.norm) for s in got] == [
            (3, "int a = 1;"),
            (5, "int b = 2;"),
        ]

    def test_block_comment_spans_lines(self):
        lines = ["start();", "/* a", "   b", "*/ end();", "tail();"]
        got = extract_statements(lines, "f.c", classify_file("f.c"))
        assert [(s.line_no, s.norm) for s in got] == [
            (1, "start();"),
            (4, "end();"),
            (5, "tail();"),
        ]

    def test_comment_markers_inside_strings_survive(self):
        got = extract_statements(
            ['s = "//not/*a*/comment";'], "f.c", classify_file("f.c")
        )
        assert got[0].norm == 's = "//not/*a*/comment";'

    def test_escaped_quote_in_string(self):
        got = extract_statements(['s = "a\\"b"; // tail'], "f.c", classify_file("f.c"))
        assert got[0].norm == 's = "a\\"b";'

    def test_hash_kept_in_c_and_go(self):
        assert extract_statements(
            ["#include <x>"], "f.c", classify_file("f.c")
        )[0].norm == "#include <x>"
        got = extract_statements(["x := 1 # kept"], "f.go", classify_file("f.go"))
        assert got[0].norm == "x := 1 # kept"

    def test_bracket_only_lines_dropped(self):
        lines = ["{", "});", "  ,  ", "[ ] ;", "real();"]
        got = extract_statements(lines, "f.c", classify_file("f.c"))
        assert [s.norm for s in got] == ["real();"]

    def test_unterminated_block_comment_warns(self, capsys):
        got = extract_statements(
            ["ok();", "/* open", "never closed"], "f.c", classify_file("f.c")
        )
        assert [s.norm for s in got] == ["ok();"]
        assert capsys.readouterr().err == (
            "WARNING forkscan.preprocess: f.c: unterminated block comment; "
            "trailing lines dropped\n"
        )

    def test_raw_preserved(self):
        got = extract_statements(["   int  a = 1;   // c"], "f.c", classify_file("f.c"))
        assert got[0].norm == "int a = 1;"

    @pytest.mark.parametrize("path", ["f.c", "f.h", "f.go", "f.py"])
    def test_lines_without_comment_chars_match_full_scan(self, path):
        # A line holding no / (nor # where it starts a comment) outside a
        # block comment skips the comment scan; every result must equal
        # scanning each line with _strip_comments.
        rng = random.Random(2001)
        hash_comments = path == "f.py"
        for _ in range(300):
            lines = [
                "".join(
                    rng.choice(COMMENT_CHARS if rng.random() < 0.1 else PLAIN_CHARS)
                    for _ in range(rng.randint(0, 20))
                )
                for _ in range(rng.randint(1, 12))
            ]
            expect, in_block = [], False
            for line_no, raw in enumerate(lines, 1):
                code, in_block = _strip_comments(raw, in_block, hash_comments)
                norm = " ".join(code.split())
                if norm and not _is_bracket_only(norm):
                    expect.append((line_no, norm))
            got = extract_statements(lines, path, classify_file(path))
            assert [(s.line_no, s.norm) for s in got] == expect, lines
            assert expect == oracle_strip_file("\n".join(lines), hash_comments)


def _stmt(norm: str) -> NormalizedLine:
    return NormalizedLine(norm=norm, path="f.c", line_no=1, kind=classify_norm(norm))


class TestExtractKeyword:
    def test_longest_mixed_case_token(self):
        kw = extract_keyword(_stmt('int nCheckDepth = gArgs.GetIntArg("-d", MAX);'))
        assert kw is not None and kw.keyword == "gArgs.GetIntArg"

    def test_tie_prefers_leftmost(self):
        # "LogPrintf" and "Verifying" are both 9 characters.
        kw = extract_keyword(_stmt('LogPrintf("Verifying block");'))
        assert kw is not None and kw.keyword == "LogPrintf"

    def test_qualified_names_count_as_one_token(self):
        kw = extract_keyword(_stmt("BitcoinApplication::BitcoinApplication(x);"))
        assert kw is not None and kw.keyword.startswith("BitcoinApplication::")

    def test_all_lowercase_or_uppercase_has_no_keyword(self):
        assert extract_keyword(_stmt("static const int DEFAULT_DEPTH = 5;")) is None
        assert extract_keyword(_stmt("return x + y;")) is None

    def test_source_line_attached(self):
        stmt = _stmt("fCheckedBlocks = (nCheckDepth > 0);")
        kw = extract_keyword(stmt)
        assert kw is not None and kw.source_line is stmt
        assert kw.keyword == "fCheckedBlocks"


class TestClassify:
    @pytest.mark.parametrize("norm,kind", [
        ("if (a > b) return;", StatementKind.CONTROL_FLOW),
        ("else {", StatementKind.CONTROL_FLOW),
        ("for (int i = 0; i < n; i++) {", StatementKind.CONTROL_FLOW),
        ("while (true) {", StatementKind.CONTROL_FLOW),
        ("switch (mode) {", StatementKind.CONTROL_FLOW),
        ("case 5:", StatementKind.CONTROL_FLOW),
        ("return state.IsValid();", StatementKind.RETURN),
        ("#include <vector>", StatementKind.PREPROCESSOR_OR_IMPORT),
        ("#define MAX 10", StatementKind.PREPROCESSOR_OR_IMPORT),
        ('import "fmt"', StatementKind.PREPROCESSOR_OR_IMPORT),
        ("package main", StatementKind.PREPROCESSOR_OR_IMPORT),
        ("using namespace std;", StatementKind.PREPROCESSOR_OR_IMPORT),
        ("x = compute(y);", StatementKind.ASSIGNMENT),
        ("nScanned += params.Count(p);", StatementKind.ASSIGNMENT),
        ("i := 0", StatementKind.ASSIGNMENT),
        ("int nValue = 7;", StatementKind.ASSIGNMENT),
        ("CValidationState state;", StatementKind.DECLARATION),
        ("unsigned int counter;", StatementKind.DECLARATION),
        ("CBlockIndex* pindexFailure;", StatementKind.DECLARATION),
        ("static void Shutdown();", StatementKind.DECLARATION),
        ("LogPrintf(\"done\");", StatementKind.CALL_OR_EXPR),
        ("x == y;", StatementKind.CALL_OR_EXPR),
        ("a->b(c).d();", StatementKind.CALL_OR_EXPR),
        ("???", StatementKind.OTHER),
        ("+-*/", StatementKind.OTHER),
    ])
    def test_kinds(self, norm, kind):
        assert classify_norm(norm) == kind

    def test_control_beats_assignment(self):
        assert classify_norm("if (a = next()) {") == StatementKind.CONTROL_FLOW

    def test_comparisons_are_not_assignments(self):
        for norm in ("a == b;", "a != b;", "a <= b;", "a >= b;", "f(x => x);"):
            assert classify_norm(norm) != StatementKind.ASSIGNMENT

    def test_assignment_inside_call_args_does_not_count(self):
        assert classify_norm("call(a = 1);") == StatementKind.CALL_OR_EXPR


FILE_CLASSES = [
    ("src/main.c", "c-source"),
    ("src/main.cc", "c-source"),
    ("src/main.cpp", "c-source"),
    ("src/main.cxx", "c-source"),
    ("include/api.h", "c-header"),
    ("include/api.hpp", "c-header"),
    ("include/api.hh", "c-header"),
    ("pkg/util.go", "go"),
    # The extension is read from the file name, not from a dotted directory.
    ("contrib.d/Makefile", ""),
    ("v0.9/configure", ""),
    ("v0.9/src/main.c", "c-source"),
    ("debian.d/rules.mk", ".mk"),
]


class TestClassifyFile:
    # Each case is named by its path and its position in the table.
    @pytest.mark.parametrize(
        "path,expected", FILE_CLASSES,
        ids=[f"{path}-expected{i}" for i, (path, _) in enumerate(FILE_CLASSES)],
    )
    def test_known_extensions(self, path, expected):
        assert classify_file(path) == expected

    def test_case_insensitive(self):
        assert classify_file("A/B.CPP") == "c-source"

    def test_other_keeps_extension(self):
        assert classify_file("script.py") == ".py"
        assert classify_file("script.py") == classify_file("other.py")
        assert classify_file("script.py") != classify_file("script.rs")

    def test_no_extension(self):
        assert classify_file("Makefile") == ""

    def test_source_vs_header_differ(self):
        assert classify_file("a.cpp") != classify_file("a.h")
        assert classify_file("a.c") == classify_file("b.cpp")
