"""Every name a library module or a demo imports is used there, every
private module-level name is used somewhere in the library, and only
``sequences.py`` imports numpy.

A stdlib-``ast`` stand-in for pyflakes' unused-import check.  ``__future__``
imports, the re-exports of ``__init__.py`` and names listed in ``__all__``
are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "errlab"
DEMOS = SRC.parents[1] / "demos"
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


@pytest.mark.parametrize("path", MODULES + sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_catches_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\nimport os, sys\n"
                   "from math import floor as fl, ceil\n"
                   "__all__ = ['ceil']\n\ndef f(x: 'Path') -> int:\n    return fl(x)\n")
    assert unused_imports(mod) == ["m.py:2: os", "m.py:2: sys"]


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def numpy_importers(paths):
    """The names of the modules in ``paths`` that import numpy or a submodule."""
    return [path.name for path in paths
            if any(module.split(".")[0] == "numpy" for module in
                   _imported_modules(ast.parse(path.read_text(), filename=str(path))))]


def test_numpy_only_in_sequences():
    # the sieves are the one numpy user left
    assert numpy_importers(sorted(SRC.glob("*.py"))) == ["sequences.py"]


def test_check_catches_a_numpy_import(tmp_path):
    for name, text in [("a.py", "import numpy as np\n"), ("b.py", "from numpy import int8\n"),
                       ("c.py", "def f():\n    import numpy.linalg\n"),
                       ("d.py", "import numbers\nfrom . import numpy_like\n")]:
        (tmp_path / name).write_text(text)
    assert numpy_importers(sorted(tmp_path.glob("*.py"))) == ["a.py", "b.py", "c.py"]


def _private_definitions(tree):
    """(name, line) for each module-level _name function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in found if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def orphaned_private_names(paths):
    """``file:line: name`` for each private module-level name that no module
    in ``paths`` reads."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    read = {name for tree in trees.values() for name in _references(tree)}
    return [f"{path.name}:{line}: {name}" for path, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in read]


def test_no_orphaned_private_names():
    assert orphaned_private_names(sorted(SRC.glob("*.py"))) == []


def test_check_catches_an_orphaned_private_name(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import math\n_LIMIT = 3\n_SPARE: int = 4\n__all__ = ['f']\n\n"
                   "class _Unused:\n    pass\n\ndef _helper(x):\n    return x\n\n"
                   "def _orphan(x):\n    return x\n\n"
                   "def f(x):\n    return _helper(x) + _LIMIT\n")
    other = tmp_path / "n.py"
    other.write_text("from m import _Unused\n\nSPARE = _Unused()\n")
    assert orphaned_private_names([mod]) == ["m.py:3: _SPARE", "m.py:6: _Unused",
                                             "m.py:12: _orphan"]
    assert orphaned_private_names([mod, other]) == ["m.py:3: _SPARE", "m.py:12: _orphan"]
