"""Raw source lines -> normalized, classified, keyword-bearing statements.

Empty lines, comments, and bracket-only lines carry no signal for clone
matching and are dropped; what survives is a "meaningful statement" with its
original line number preserved.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from typing import NamedTuple

from . import warn

# Characters that may appear in an identifier-ish token. '.' and ':' are
# included so qualified names (pkg.Func, Class::method) survive as one token.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_.:]+")
_MIXED_CASE_RE = re.compile(r"(?=.*[a-z])(?=.*[A-Z])")
# A normalized line consisting solely of these characters is "bracket-only".
_BRACKET_ONLY = set("{}()[];,")

# A string or character literal with backslash escapes: it ends at its
# closing quote or, when the line has none, at the line's end. Every scan
# that must skip literals uses this one pattern.
_LITERAL = r""""(?:\\.|[^"\\])*"?|'(?:\\.|[^'\\])*'?"""
# The lexemes of one line, keyed by whether '#' starts a comment: a literal
# or a run of other code (kept), a block comment closed on the line
# (dropped), a block comment left open, or a comment to the line's end.
_LEXEME_RE = {
    hash_comments: re.compile(
        rf"""(?P<code>{_LITERAL}|[^"'/{marker}]+|/(?![/*]))"""
        r"|/\*.*?\*/|(?P<open>/\*)|(?P<end>//|#)",
        re.S,
    )
    for hash_comments, marker in ((False, ""), (True, "#"))
}

_C_SOURCE_EXTS = {".c", ".cc", ".cpp", ".cxx"}
_C_HEADER_EXTS = {".h", ".hpp", ".hh"}


class StatementKind(Enum):
    ASSIGNMENT = "assignment"
    DECLARATION = "declaration"
    CONTROL_FLOW = "control_flow"
    RETURN = "return"
    CALL_OR_EXPR = "call_or_expr"
    PREPROCESSOR_OR_IMPORT = "preprocessor_or_import"
    OTHER = "other"


class NormalizedLine(NamedTuple):
    """One meaningful source statement."""

    norm: str
    path: str
    line_no: int  # 1-based
    kind: StatementKind


class ContextKeyword(NamedTuple):
    """The most discriminative token of a statement, used as a search probe."""

    keyword: str
    source_line: NormalizedLine


def classify_file(path: str) -> str:
    """Coarse file type: "c-source", "c-header", "go", or else the file
    name's lower-cased extension ("" for none)."""
    name = path.rsplit("/", 1)[-1]
    dot = name.rfind(".")
    ext = name[dot:].lower() if dot >= 0 else ""
    if ext in _C_SOURCE_EXTS:
        return "c-source"
    if ext in _C_HEADER_EXTS:
        return "c-header"
    if ext == ".go":
        return "go"
    return ext


def _strip_comments(line: str, in_block: bool, hash_comments: bool) -> tuple[str, bool]:
    """Remove comment text from one line, honoring string literals.

    Returns the surviving code text and whether a /* block is still open.
    String state does not carry across lines (C strings cannot span lines);
    block-comment state does.
    """
    if in_block:
        line = "/*" + line  # the open block comment lexes as if it began here
    out: list[str] = []
    for m in _LEXEME_RE[hash_comments].finditer(line):
        kind = m.lastgroup
        if kind == "code":
            out.append(m.group())
        elif kind == "open":
            return "".join(out), True
        elif kind == "end":
            break
    return "".join(out), False


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _is_bracket_only(norm: str) -> bool:
    stripped = norm.replace(" ", "")
    return bool(stripped) and all(ch in _BRACKET_ONLY for ch in stripped)


def extract_statements(
    lines: list[str], path: str, file_class: str
) -> list[NormalizedLine]:
    """Filter raw lines down to meaningful statements.

    Drops empty lines, full-line and block comments, and bracket-only lines;
    strips trailing comments; collapses whitespace. Line numbers of the
    survivors refer to the original file; file_class (see classify_file)
    decides whether '#' starts a comment.
    """
    # '#' introduces comments only outside the C family (where it starts
    # preprocessor directives) and Go (no hash comments at all).
    hash_comments = file_class not in ("c-source", "c-header", "go")
    result: list[NormalizedLine] = []
    in_block = False
    for line_no, raw in enumerate(lines, 1):
        # Outside a block comment, a line that holds no character able to
        # start a comment is its own code text (string literals only guard
        # comment markers, and no string spans lines).
        if in_block or "/" in raw or (hash_comments and "#" in raw):
            code, in_block = _strip_comments(raw, in_block, hash_comments)
        else:
            code = raw
        norm = _normalize_ws(code)
        if not norm or _is_bracket_only(norm):
            continue
        result.append(
            NormalizedLine(
                norm=norm,
                path=path,
                line_no=line_no,
                kind=classify_norm(norm),
            )
        )
    if in_block:
        warn(__name__, f"{path}: unterminated block comment; trailing lines dropped")
    return result


def extract_keyword(stmt: NormalizedLine) -> ContextKeyword | None:
    """Pick the statement's longest mixed-case token, if any.

    Tokens are maximal runs of [A-Za-z0-9_.:]; only those containing both a
    lowercase and an uppercase ASCII letter qualify. Leftmost wins ties.
    """
    best = ""
    for token in _TOKEN_RE.findall(stmt.norm):
        if len(token) > len(best) and _MIXED_CASE_RE.match(token):
            best = token
    if not best:
        return None
    return ContextKeyword(keyword=best, source_line=stmt)


_CONTROL_WORDS = ("if", "else", "for", "while", "switch", "case")
_PREPROC_WORDS = ("import", "package", "using")
_TYPE_WORDS = {
    "void", "int", "long", "short", "char", "float", "double", "bool", "auto",
    "unsigned", "signed", "const", "static", "extern", "volatile", "inline",
    "register", "struct", "enum", "union", "class", "template", "typedef",
    "namespace", "var", "func", "type", "let", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t",
    "size_t", "ssize_t",
}
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DECL_RE = re.compile(
    r"^[A-Za-z_][A-Za-z0-9_:<>,\s*&\[\]]*[\s*&]\s*[*&]*[A-Za-z_][A-Za-z0-9_]*"
    r"\s*(\[[^\]]*\])?\s*[;,]?$"
)
# What decides whether a statement assigns: literals (skipped), brackets,
# and an '=' that is not part of ==, =>, !=, <= or >=.
_ASSIGN_SCAN_RE = re.compile(
    rf"{_LITERAL}|(?P<open>[([{{])|(?P<close>[)\]}}])|(?P<assign>(?<![=!<>])=(?![=>]))",
    re.S,
)


def _first_word(norm: str) -> str:
    m = _IDENT_RE.match(norm)
    return m.group(0) if m else ""


def _has_top_level_assign(norm: str) -> bool:
    """True if an assignment '=' occurs outside brackets and string literals.

    Compound assignments (+=, :=, ...) count; comparison/arrow forms
    (==, !=, <=, >=, =>) do not.
    """
    if "=" not in norm:
        return False
    depth = 0
    for m in _ASSIGN_SCAN_RE.finditer(norm):
        kind = m.lastgroup
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
        elif kind == "assign" and depth == 0:
            return True
    return False


@functools.cache
def classify_norm(norm: str) -> StatementKind:
    """Coarse, language-blind classification of a normalized statement,
    kept per text for the run: near-clone files repeat most lines."""
    word = _first_word(norm)
    if word in _CONTROL_WORDS:
        return StatementKind.CONTROL_FLOW
    if word == "return":
        return StatementKind.RETURN
    if norm.startswith("#") or word in _PREPROC_WORDS:
        return StatementKind.PREPROCESSOR_OR_IMPORT
    if _has_top_level_assign(norm):
        return StatementKind.ASSIGNMENT
    if word and (word in _TYPE_WORDS or _DECL_RE.match(norm)):
        return StatementKind.DECLARATION
    if word or _IDENT_RE.search(norm):
        return StatementKind.CALL_OR_EXPR
    return StatementKind.OTHER
