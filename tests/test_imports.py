"""Every module of the package, and every test file, uses each name it
imports and compiles without a warning; no module of the package reads
another one's private names."""

import ast
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "forkscan"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
SOURCE_FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by an import statement of source that no expression
    of it reads; `__future__` imports are not names."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def private_reads(source: str, modules: set[str]) -> list[str]:
    """The underscore names of the package modules named in modules that
    source reads, as `from .mod import _x` or as `mod._x` after
    `from . import mod`; dunder names are not private."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}
    found: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            mod = node.module or ""
        elif (node.module or "").split(".")[0] == "forkscan":
            mod = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            if not mod and alias.name in modules:
                aliases[alias.asname or alias.name] = alias.name
            elif mod in modules and _private(alias.name):
                found.append(f"{mod}.{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append(f"{aliases[node.value.id]}.{node.attr} (line {node.lineno})")
    return found


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(module):
    others = {p.stem for p in MODULES} - {module.stem}
    assert private_reads(module.read_text(encoding="utf-8"), others) == []


@pytest.mark.parametrize("test_file", TEST_FILES, ids=lambda p: p.name)
def test_test_file_uses_every_import(test_file):
    assert unused_imports(test_file.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source", SOURCE_FILES, ids=lambda p: p.relative_to(ROOT).as_posix()
)
def test_compiles_without_warnings(source):
    # An invalid escape in a non-raw string is only a warning (a
    # SyntaxWarning from Python 3.12), which an import run never fails on.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source.read_bytes(), str(source), "exec")


class TestUnusedImports:
    def test_finds_a_name_imported_and_never_read(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from dataclasses import dataclass, field as fld\n"
            "x: fld = os.path.join('a')\n"
        )
        assert unused_imports(source) == ["dataclass (line 3)"]

    def test_an_annotation_is_a_use(self):
        source = (
            "from __future__ import annotations\n"
            "from pathlib import Path\n"
            "def f(p: Path) -> None: ...\n"
        )
        assert unused_imports(source) == []

    def test_package_has_modules(self):
        assert {p.name for p in MODULES} >= {"cli.py", "search.py", "simcore.py"}
        assert {p.name for p in TEST_FILES} >= {"conftest.py", "test_imports.py"}


class TestPrivateReads:
    MODULES = {"delay", "gitio", "search"}

    def test_finds_attribute_and_import_reads(self):
        source = (
            "from . import delay, warn\n"
            "from . import gitio as g\n"
            "from .search import _MEMO, StatementCache\n"
            "from forkscan.gitio import _run\n"
            "span = delay._blame_span(cand)\n"
            "g._run(['status'])\n"
        )
        assert private_reads(source, self.MODULES) == [
            "search._MEMO (line 3)",
            "gitio._run (line 4)",
            "delay._blame_span (line 5)",
            "gitio._run (line 6)",
        ]

    def test_public_dunder_and_foreign_names_pass(self):
        source = (
            "import os\n"
            "from . import __version__, delay\n"
            "from .report import _CSV_COLUMNS\n"
            "delay.fix_delay(repo, rev, path, span)\n"
            "name = delay.__name__\n"
            "row._replace(note='')\n"
            "os._exit(0)\n"
        )
        assert private_reads(source, self.MODULES) == []
