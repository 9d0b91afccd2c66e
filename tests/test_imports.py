"""Every module of the package, and every test file, uses each name it
imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "forkscan"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("test_file", TEST_FILES, ids=lambda p: p.name)
def test_test_file_uses_every_import(test_file):
    assert unused_imports(test_file.read_text(encoding="utf-8")) == []


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
