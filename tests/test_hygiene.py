"""Source hygiene: every name a posreal module imports is used in that module,
every module-level private name (``_x``) is referenced somewhere in the package,
every method and property of a posreal class is read somewhere in the repository,
no module memoizes with ``functools`` (a cache would carry results from one
request to the next, so a timed request would not redo its work), only
``TransferFunction.__post_init__`` solves for the poles (``companion_roots``),
so each transfer function pays for one eigen-solve, only
``pair_share_floor`` reads ``PAIR_BUDGET_COEFF``, so the pair floor has one
formula, no module builds objects past their constructors' checks (no
``_unvalidated`` helper, no ``__new__``), only ``blocks._fan_weights``
reads ``atan2``, so no caller puts a pair in polar form, the sum rule's
stop and ``iteration_estimate``'s bound on it read one ``CONSERVATIVE_LIMIT``, the three
constants of the pair floor and the sum rule do not move apart (the
cone's half-width fixes the floor's coefficient, and the limit must keep a
sum-rule stop a per-pole stop), and
one walk along the normalized impulse values (``tf._walk``) decides an
impulse value's sign: it and ``bounds_report`` are the only readers of the
zero band (``tf._zero_band``), it alone raises a witness and shifts for the
shift loop, the certified scan and the base lift, and no 1e-9
or 1e-10 tolerance is multiplied out in ``realizer`` or ``bounds``, only
``bounds_report`` and ``realizer._synthesize`` call ``expand``, so each
request expands its input once, only
``blocks._stop_rule`` reads a mode, every function the benchmark's
tracer wraps (``bench/tracer.py``'s ``WRAPPED``, read with ``ast``) exists,
posreal's top level holds exactly the names README's *Library use* section
shows in code, every error class among them, and every ``pr.<name>`` the
benchmark's requests and ``scripts/run_examples.py`` read is at the top level.

``__init__.py`` is skipped by the import check because it imports names only
to re-export them.  The source checks use only the standard library; the
constant and tracer checks import posreal.
"""

import ast
import importlib
import inspect
import math
import re
import types
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


def test_the_ab_script_imports_nothing_from_posreal():
    # scripts/bench_ab.py times two checkouts through bench/run.py; a posreal import of its own would load one of them
    tree = ast.parse((ROOT / "scripts" / "bench_ab.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported and not any(name.split(".")[0] == "posreal" for name in imported)


def test_verifier_imports_nothing_from_the_construction():
    # check.py compares against tf's reference from the input alone (its docstring says so);
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


def test_no_module_skips_the_constructors():
    # every PoleTerm and PartialFraction, shift_once's tail included, goes through its
    # validating constructor: no bypass helper, and no allocation past __init__
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "_unvalidated") == {}
    assert reader_scopes(sources, "__new__") == {}
    # the checker sees such an allocation
    bypass = {"tf.py": "def make(cls):\n    return object.__new__(cls)\n"}
    assert reader_scopes(bypass, "__new__") == {"tf.py": ["make"]}


def test_one_expansion_per_request():
    # bounds_report hands its expansion to the certified scan and cone_order_bound, and
    # _synthesize to the stage and its scale to markov_check; zero_pattern goes through
    # bounds_report; markov_check expands only a caller's input that comes without a scale
    # (verify); tests/test_bounds.py::test_each_request_expands_once counts the calls
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "expand") == {
        "bounds.py": ["bounds_report"],
        "check.py": ["markov_check"],
        "realizer.py": ["_synthesize"],
    }



def test_only_the_fan_solve_reads_an_angle():
    # the pair builder takes the pole and coefficient as complex numbers, so no
    # caller converts a pair to polar form; only the fan picks its triangle by angle
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "atan2") == {"blocks.py": ["_fan_weights"]}


def test_one_sum_rule_constant():
    # iteration_estimate's bound follows the limit the sum rule stops at
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "CONSERVATIVE_LIMIT") == {
        "blocks.py": ["_stop_rule"],
        "tf.py": ["iteration_estimate"],
    }


def test_only_main_writes_a_commands_document():
    # each _cmd_* returns its document; main hands it to _emit, the one place that picks the
    # format, the destination and null for a number JSON cannot hold, and only _emit writes;
    # verify's unsupported line and main's error lines are the only prints
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "_emit") == {"cli.py": ["main"]}
    assert reader_scopes(sources, "_write_output") == {"cli.py": ["_emit"]}
    assert reader_scopes(sources, "stdout") == {"cli.py": ["_write_output"]}
    assert reader_scopes(sources, "print") == {"cli.py": ["_cmd_verify", "main"]}


def test_only_the_stopping_rule_reads_a_mode():
    # the mode decides only when the shift loop stops; the allocation is the same in both
    source = (SRC / "blocks.py").read_text(encoding="utf-8")
    assert reader_scopes({"blocks.py": source}, "mode") == {"blocks.py": ["_stop_rule"]}


def traced_names(source: str) -> list[tuple[str, str]]:
    """The (module, function) pairs of the ``WRAPPED`` tuple assigned in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]:
            return [tuple(ast.literal_eval(elt)) for elt in node.value.elts]
    raise AssertionError("no WRAPPED tuple")


def test_every_traced_name_is_a_posreal_function():
    # the benchmark times these spans by name; a deleted or renamed one drops out of its metrics
    wrapped = traced_names((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    assert ("blocks", "budget") in wrapped
    missing = [f"{mod}.{name}" for mod, name in wrapped
               if not callable(getattr(importlib.import_module(f"posreal.{mod}"), name, None))]
    assert missing == []


def library_use_names(readme: str) -> set[str]:
    """The names README's *Library use* section shows in code: its code blocks and inline spans.

    ``pr.`` is dropped, and a name after a dot (``check.markov``, ``Block.dim``) is an
    attribute, not a top-level name.
    """
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\w*\n(.*?)```", section, re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section, flags=re.S))
    code = re.sub(r"\bpr\.", "", " ".join(blocks + spans))
    return set(re.findall(r"(?<![\w.])[A-Za-z_]\w*", code))


def test_the_top_level_is_what_readme_documents():
    # both ways: an exported name is documented, and a documented posreal function or class
    # (every error class among them) is exported
    import posreal

    documented = library_use_names((ROOT / "README.md").read_text(encoding="utf-8"))
    defined = {
        name
        for module in MODULES
        for name, value in vars(importlib.import_module(f"posreal.{module[:-3]}")).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__.startswith("posreal.")
    }
    top = {n for n, v in vars(posreal).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    errors = {n for n, v in vars(posreal.errors).items() if inspect.isclass(v)}
    assert {"realize", "Outcome", "cone_order_bound", "PosrealError"} <= top and len(errors) > 20
    assert sorted(errors - top) == []
    assert sorted(top - documented) == []
    assert sorted(documented & defined - top) == []


def top_level_reads(source: str) -> set[str]:
    """The attributes ``source`` reads off the name ``pr`` (``import posreal as pr``)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "pr"
    }


@pytest.mark.parametrize("path", ["bench/workloads.py", "bench/test_bench.py", "scripts/run_examples.py"])
def test_the_benchmark_reads_only_top_level_names(path):
    # the benchmark's requests run on ``import posreal as pr``; a name trimmed from the top level breaks them
    import posreal

    reads = top_level_reads((ROOT / path).read_text(encoding="utf-8"))
    assert "realize" in reads
    assert sorted(n for n in reads if not hasattr(posreal, n)) == []


def test_checker_finds_library_use_names():
    readme = (
        "## Before\n`shift_once`\n\n## Library use\n\n```python\nout = pr.realize(tf)\n```\n"
        "`check.markov(A, b,\nc, K)` and `Block.dim`; `budget(cls)` returns a plan, unlike in_polygon.\n"
        "\n## After\n`zero_pattern`\n"
    )
    assert library_use_names(readme) == {"out", "realize", "tf", "check", "A", "b", "c", "K", "Block", "budget", "cls"}
    assert top_level_reads("import posreal as pr\npr.realize(pr.tf.expand(x), y.pr)\n") == {"realize", "tf"}


def test_the_pair_coefficient_follows_the_cone():
    # |(g_x, g_y)| = sqrt(2) |c| must fit in the disc of radius alpha R cos(pi/m)
    from posreal.blocks import PAIR_ALPHA, PAIR_BUDGET_COEFF

    assert PAIR_BUDGET_COEFF == pytest.approx(math.sqrt(2.0) / PAIR_ALPHA, rel=1e-15)


def test_a_sum_rule_stop_is_a_per_pole_stop():
    # a real floor is |c| per unit of the sum and a pair's pair_share_floor(|c|, m) <=
    # pair_share_floor(|c|, 3) per 2|c|, so the floors total at most the limit times the larger
    from posreal.blocks import pair_share_floor
    from posreal.tf import CONSERVATIVE_LIMIT

    assert CONSERVATIVE_LIMIT * max(1.0, pair_share_floor(1.0, 3) / 2.0) <= 1.0


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
    # one walk along t~ decides every sign: the shift loop, the certified scan and the base
    # lift read t~ from tf._walk, the only place that raises a witness; the walk and the zero
    # count read one band; neither realizer nor bounds keeps a tolerance or a shift of its own,
    # and bounds_report is the one function that counts zeros (zero_pattern returns its count)
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES + ["__init__.py"]}
    assert reader_scopes(sources, "_zero_band") == {
        "bounds.py": ["bounds_report"],
        "tf.py": ["_walk"],
    }
    assert reader_scopes(sources, "_walk") == {
        "bounds.py": ["_certified_scan"],
        "realizer.py": ["_base_check", "_shift_and_build"],
    }
    # only the walk raises a witness; realize and the CLI catch it
    assert reader_scopes(sources, "NegativeImpulse") == {
        "cli.py": ["_cmd_bounds"],
        "realizer.py": ["_synthesize"],
        "tf.py": ["_walk"],
    }
    assert reader_scopes(sources, "_first_impulse") == {"tf.py": ["_walk", "leading_impulse"]}
    assert reader_scopes(sources, "_shifted") == {"tf.py": ["_walk", "shift_once"]}
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
