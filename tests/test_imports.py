import ast
from pathlib import Path

import pytest

import cutslab

MODULES = sorted(p for p in Path(cutslab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom numpy import array, zeros\nzeros(1)\n") == [
        "line 1: os",
        "line 2: array",
    ]
    assert _unused_imports("from __future__ import annotations\nimport numpy as np\nnp.pi\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []
