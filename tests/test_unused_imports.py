"""Every name a library module imports is used there.

A stdlib-``ast`` stand-in for pyflakes' unused-import check.  ``__future__``
imports, the re-exports of ``__init__.py`` and names listed in ``__all__``
are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "errlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for every module-level or nested import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        # a quoted annotation such as "VerificationReport" names what it quotes
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    keep = _used(tree) | _exported(tree)
    return [f"{path.name}:{line}: {name}" for name, line in _imported(tree)
            if name not in keep]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_catches_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\nimport os, sys\n"
                   "from math import floor as fl, ceil\n"
                   "__all__ = ['ceil']\n\ndef f(x: 'Path') -> int:\n    return fl(x)\n")
    assert unused_imports(mod) == ["m.py:2: os", "m.py:2: sys"]
