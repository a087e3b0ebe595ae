"""No module imports a name it never uses (a stdlib stand-in for a linter)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "phenocloud").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source):
    """Names that source imports but never reads, except __future__ and __all__ names."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport tempfile\nfrom json import dumps, loads as parse\n"
        "__all__ = ['dumps']\nos.getcwd()\n"
    )
    assert unused_imports(source) == [(3, "tempfile"), (4, "parse")]
