"""Static checks on the package source: no unused module-level imports.

Every ``src/sforge/*.py`` is parsed with ``ast``.  A name bound by a
module-level ``import`` or ``from ... import`` must be used somewhere in
the module, or be exported through ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sforge"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    src = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Iterable, Sequence\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Sequence[int]):\n"
        "    return os.sep\n"
    )
    assert unused_imports(src) == ["line 2: system", "line 3: Iterable"]
