"""Source hygiene: every name a posreal module imports is used in that module,
and every module-level private name (``_x``) is referenced somewhere in the package.

``__init__.py`` is skipped by the import check because it imports names only
to re-export them.  Only the standard library is used, so the checks run
wherever the tests do.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "posreal"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _private_definitions(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _referenced(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names no other top-level statement of any module reads.

    A definition's own body does not count, so a dead recursive helper is
    still reported.
    """
    statements = [(mod, stmt) for mod, src in sources.items() for stmt in ast.parse(src).body]
    refs = [_referenced(stmt) for _, stmt in statements]
    dead = []
    for i, (mod, stmt) in enumerate(statements):
        for name in _private_definitions(stmt):
            if not any(name in r for j, r in enumerate(refs) if j != i):
                dead.append(f"{mod}:{name}")
    return sorted(dead)


def test_modules_found():
    assert "realizer.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_private_name_checker_flags_dead_helpers():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_DEAD = 4\n"
            "def _used(x):\n    return x < _LIMIT\n"
            "def _recursive(n):\n    return 0 if n == 0 else _recursive(n - 1)\n"
            "class _Dead:\n    pass\n"
            "def public(x):\n    return _used(x)\n"
        ),
        "b.py": "from .a import _imported\n",
        "c.py": "def _imported():\n    pass\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:_DEAD", "a.py:_Dead", "a.py:_recursive"]


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
        "def f(x: np.ndarray) -> float:\n    return pi\n"
    )
    assert unused_imports(source) == ["os (line 2)", "tau (line 4)"]
