"""Source hygiene: every name a posreal module imports is used in that module,
every module-level private name (``_x``) is referenced somewhere in the package,
every method and property of a posreal class is read somewhere in the repository,
no module memoizes with ``functools`` (a cache would carry results from one
request to the next, so a timed request would not redo its work), only
``TransferFunction.__post_init__`` solves for the poles (``companion_roots``),
so each transfer function pays for one eigen-solve, only
``pair_share_floor`` reads ``PAIR_BUDGET_COEFF``, so the pair floor has one
formula, only ``shift_once`` builds objects past their constructors'
checks (``tf._unvalidated``), from values of a partial fraction that passed
them, only ``blocks._fan_weights`` reads ``atan2``, so no caller puts a
pair in polar form, the sum rule's stop and the shift cap read one
``CONSERVATIVE_LIMIT``, and one zero band (``tf._zero_band``) decides an
impulse value's sign: no 1e-9 or 1e-10 tolerance is multiplied out in
``realizer`` or ``bounds``.

``__init__.py`` is skipped by the import check because it imports names only
to re-export them.  Only the standard library is used, so the checks run
wherever the tests do.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "posreal"
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


def _attributes_read(node) -> Counter:
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def unread_members(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Non-dunder methods and properties of ``package``'s classes that no file of ``readers`` reads.

    A read is an attribute load (``obj.name``); the member's own body does
    not count, so a method that only calls itself is still reported.
    """
    reads = sum((_attributes_read(ast.parse(src)) for src in readers.values()), Counter())
    unread = []
    for mod, src in package.items():
        for cls in (n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                if reads[fn.name] - _attributes_read(fn)[fn.name] <= 0:
                    unread.append(f"{mod}:{cls.name}.{fn.name}")
    return sorted(unread)


CACHES = {"cache", "lru_cache", "cached_property"}


def functools_caches(source: str) -> list[str]:
    """Uses of a ``functools`` cache in ``source``, imported by name or read as an attribute."""
    tree = ast.parse(source)
    modules = {"functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "functools" and a.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in CACHES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append(f"{node.attr} (line {node.lineno})")
    return sorted(found)


def name_reads(source: str, target: str) -> list[tuple[str, int]]:
    """Where ``source`` reads the name ``target`` (a call, an alias or an
    attribute), as (enclosing class/function path, line)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name == target and isinstance(getattr(child, "ctx", None), ast.Load):
                found.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def package_imports(source: str) -> set[str]:
    """The posreal modules ``source`` imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("posreal")):
            base = (node.module or "").removeprefix("posreal").lstrip(".")
            found |= {base.split(".")[0]} if base else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("posreal.")}
    return found


def reachable_modules(start: str) -> set[str]:
    """Every posreal module that importing ``start`` loads through posreal imports."""
    seen, todo = set(), [start]
    while todo:
        mod = todo.pop()
        if mod not in seen:
            seen.add(mod)
            todo += package_imports((SRC / f"{mod}.py").read_text(encoding="utf-8"))
    return seen - {start}


CONSTRUCTION = {"blocks", "realizer", "geometry", "bounds"}


def test_modules_found():
    assert "realizer.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_functools_caches(module):
    assert functools_caches((SRC / module).read_text(encoding="utf-8")) == []


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_every_method_and_property_is_read():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = {
        p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
        for d in ("src", "tests", "bench", "scripts")
        for p in sorted((ROOT / d).rglob("*.py"))
    }
    assert "tests/test_hygiene.py" in readers and "bench/run.py" in readers
    assert unread_members(package, readers) == []


def test_verifier_imports_nothing_from_the_construction():
    # check.py compares against the recurrence alone (its docstring says so);
    # through tf and errors it must not reach the modules that build realizations
    reached = reachable_modules("check")
    assert "tf" in reached
    assert reached & CONSTRUCTION == set()


def test_only_the_constructor_solves_for_the_poles():
    # from_coefficients' coprimality test and expand read TransferFunction.roots
    reads = {
        m: [scope for scope, _ in name_reads((SRC / m).read_text(encoding="utf-8"), "companion_roots")]
        for m in MODULES + ["__init__.py"]
    }
    assert {m: r for m, r in reads.items() if r} == {"tf.py": ["TransferFunction.__post_init__"]}


def test_only_the_floor_reads_the_pair_coefficient():
    # the shift loop and budget read the floors through term_floors, whose pair
    # units come from pair_share_floor, as does the pair builder's floor
    reads = {
        m: [scope for scope, _ in name_reads((SRC / m).read_text(encoding="utf-8"), "PAIR_BUDGET_COEFF")]
        for m in MODULES + ["__init__.py"]
    }
    assert {m: r for m, r in reads.items() if r} == {"blocks.py": ["pair_share_floor"]}


def reader_scopes(sources: dict[str, str], target: str) -> dict[str, list[str]]:
    """Per module of ``sources`` that reads ``target``, the distinct scopes that read it."""
    reads = {m: sorted({scope for scope, _ in name_reads(src, target)}) for m, src in sources.items()}
    return {m: r for m, r in reads.items() if r}


def test_only_the_shift_skips_the_constructors():
    # shift_once's tail reuses the validated pole and coefficients of its input;
    # any other caller of _unvalidated would bypass the checks on fresh values
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "_unvalidated") == {"tf.py": ["shift_once"]}


def test_only_the_fan_solve_reads_an_angle():
    # the pair builder takes the pole and coefficient as complex numbers, so no
    # caller converts a pair to polar form; only the fan picks its triangle by angle
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "atan2") == {"blocks.py": ["_fan_weights"]}


def test_one_sum_rule_constant():
    # the shift cap follows the limit the sum rule stops at
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "CONSERVATIVE_LIMIT") == {
        "blocks.py": ["_stop_rule"],
        "tf.py": ["iteration_estimate"],
    }


def tolerance_literals(source: str) -> list[int]:
    """Lines of ``source`` that multiply by the literal 1e-9 or 1e-10."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if any(isinstance(x, ast.Constant) and x.value in (1e-9, 1e-10) for x in sides):
                found.append(node.lineno)
    return sorted(found)


def test_one_zero_band():
    # the shift loop, the normalized scan (bounds' and the base lift's) and the zero count
    # read one band; neither realizer nor bounds keeps a tolerance of its own
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "_zero_band") == {
        "bounds.py": ["zero_pattern"],
        "realizer.py": ["_shift_and_build"],
        "tf.py": ["_normalized_impulse"],
    }
    assert reader_scopes(sources, "_normalized_impulse") == {
        "bounds.py": ["_certified_scan"],
        "realizer.py": ["_base_check"],
    }
    assert {m: tolerance_literals(sources[m]) for m in ("realizer.py", "bounds.py")} == {
        "realizer.py": [],
        "bounds.py": [],
    }


def test_checker_flags_tolerance_literals():
    source = "tol = 1e-9 * (1.0 + x)\nneg = (1 + y) * 1e-10\nok = 1e-8 * x\nalso = 1e-9 + x\n"
    assert tolerance_literals(source) == [1, 2]


def test_import_checker_finds_package_imports():
    source = (
        "from .blocks import x\nfrom . import geometry\nfrom posreal.bounds import y\n"
        "import posreal.realizer as r\nfrom numpy import linalg\nimport math\n"
    )
    assert package_imports(source) == CONSTRUCTION


def test_member_checker_flags_unread_members():
    package = {
        "a.py": (
            "class C:\n"
            "    def __init__(self):\n        self.stored = 1\n"
            "    @property\n    def used(self):\n        return 1\n"
            "    @property\n    def unread(self):\n        return 2\n"
            "    def recursive(self, n):\n        return n and self.recursive(n - 1)\n"
            "    def overwritten(self):\n        pass\n"
            "    def helper(self):\n        return self.used\n"
            "    def caller(self):\n        return self.helper()\n"
        ),
    }
    readers = dict(package, **{"b.py": "from a import C\nC().caller()\nC().overwritten = None\n"})
    assert unread_members(package, readers) == ["a.py:C.overwritten", "a.py:C.recursive", "a.py:C.unread"]


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


def test_checker_flags_functools_caches():
    source = (
        "import functools\nimport functools as ft\nfrom functools import lru_cache, reduce\n"
        "@functools.cache\ndef f(x):\n    return x\n"
        "class C:\n    @ft.cached_property\n    def p(self):\n        return reduce(max, [1])\n"
        "g = lru_cache(maxsize=8)(f)\nh = functools.partial(f, 1)\n"
    )
    assert functools_caches(source) == [
        "cache (line 4)",
        "cached_property (line 8)",
        "lru_cache (line 3)",
    ]


def test_checker_flags_companion_roots_reads():
    source = (
        "from .tf import companion_roots\nimport posreal.tf as tfm\n"
        "def companion_roots(c):\n    return c\n"
        "class T:\n    def __post_init__(self):\n        self.r = companion_roots(1)\n"
        "    def again(self):\n        return tfm.companion_roots(2)\n"
        "solve = companion_roots\n"
    )
    assert name_reads(source, "companion_roots") == [("T.__post_init__", 7), ("T.again", 9), ("<module>", 10)]


def test_checker_flags_pair_budget_coeff_reads():
    source = (
        "import posreal.blocks as b\nPAIR_BUDGET_COEFF = 2.0**1.5\n"
        "def pair_share_floor(eta, m):\n    return eta * PAIR_BUDGET_COEFF\n"
        "def total(etas):\n    return PAIR_BUDGET_COEFF * sum(etas)\n"
        "unit = b.PAIR_BUDGET_COEFF\n"
    )
    assert name_reads(source, "PAIR_BUDGET_COEFF") == [("pair_share_floor", 4), ("total", 6), ("<module>", 7)]


def test_checker_flags_unvalidated_reads():
    sources = {
        "tf.py": (
            "def _unvalidated(cls, **values):\n    return cls\n"
            "def shift_once(pf):\n    a = _unvalidated(int)\n    return _unvalidated(float)\n"
            "class P:\n    def copy(self):\n        def inner():\n            return _unvalidated(P)\n        return inner\n"
        ),
        "blocks.py": "import posreal.tf as t\nmake = t._unvalidated\n",
        "geometry.py": "def _unvalidated():\n    pass\n",
    }
    assert reader_scopes(sources, "_unvalidated") == {
        "tf.py": ["P.copy.inner", "shift_once"],
        "blocks.py": ["<module>"],
    }
