"""Structural golden outputs of the CLI on every problems/*.json.

Pins what must not drift (exit code, status, dimension, shift count,
verification verdict, k0/theo2/mn2, the key sets of the realize trace) and
ignores the last digits of floats.
"""

import json

import pytest

from posreal.cli import main

# (problem, extra arguments) -> (exit code, status, dimension, shifts, verified)
REALIZE = {
    ("base_h4", "per-pole"): (3, None, None, None, None),
    ("base_h4", "sum"): (3, None, None, None, None),
    ("example1", "per-pole"): (0, "realized", 5, 0, True),
    ("example1", "sum"): (0, "realized", 5, 0, True),
    ("h10", "per-pole"): (0, "realized", 13, 10, True),
    ("h10", "sum"): (0, "realized", 14, 11, True),
    ("h4", "per-pole"): (0, "realized", 7, 4, True),
    ("h4", "sum"): (0, "realized", 8, 5, True),
    ("no_positive", "per-pole"): (1, "no_positive_realization", None, None, None),
    ("no_positive", "sum"): (1, "no_positive_realization", None, None, None),
    ("h10", "base"): (0, "realized", 10, 6, True),
}

# problem -> (exit code, status, k0, theo2, mn2)
BOUNDS = {
    "base_h4": (3, None, None, None, None),
    "example1": (0, None, 0, None, None),
    "h10": (0, None, 10, 5, 3),
    "h4": (0, None, 4, 2, 2),
    "no_positive": (1, "negative_impulse", None, None, None),
}


# The realize trace's wire format: its keys, each block's keys, and trace.mode
TRACE_KEYS = {
    "mode", "shifts_performed", "prefix", "pre_lift_dimension", "final_dimension",
    "budget_totals", "blocks", "scale_gamma", "pole_scale",
}
BUDGET_KEYS = {"mode", "total", "leftover", "allocations"}
BLOCK_KEYS = {"kind", "dim", "share", "share_floor"}
TRACE_MODE = {"per-pole": "per_pole", "sum": "conservative_sum", "base": "base"}


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else {})


def test_every_problem_file_is_pinned(problems_dir):
    names = {p.stem for p in problems_dir.glob("*.json")}
    assert names == set(BOUNDS) == {name for name, _ in REALIZE}


@pytest.mark.parametrize("name,how", sorted(REALIZE))
def test_realize_structure(problems_dir, capsys, name, how):
    argv = ["realize", str(problems_dir / f"{name}.json")]
    argv += ["--base", "base_h4.json", "--base-shift", "7"] if how == "base" else ["--mode", how]
    code, doc = _run(argv, capsys)
    got = (
        code,
        doc.get("status"),
        doc.get("dimension"),
        doc.get("trace", {}).get("shifts_performed"),
        doc.get("verification", {}).get("passed"),
    )
    assert got == REALIZE[(name, how)]


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bounds_structure(problems_dir, capsys, name):
    code, doc = _run(["bounds", str(problems_dir / f"{name}.json")], capsys)
    got = (code, doc.get("status"), doc.get("k0"), doc.get("theo2"), doc.get("mn2"))
    assert got == BOUNDS[name]


@pytest.mark.parametrize("name,how", sorted(k for k, v in REALIZE.items() if v[1] == "realized"))
def test_trace_wire_format(problems_dir, capsys, name, how):
    argv = ["realize", str(problems_dir / f"{name}.json")]
    argv += ["--base", "base_h4.json", "--base-shift", "7"] if how == "base" else ["--mode", how]
    code, doc = _run(argv, capsys)
    trace = doc["trace"]
    assert code == 0
    assert trace["mode"] == TRACE_MODE[how]
    if how == "base":
        assert set(trace) == TRACE_KEYS
    else:
        assert set(trace) == TRACE_KEYS | {"budget"}
        assert set(trace["budget"]) == BUDGET_KEYS
    assert trace["blocks"]
    for block in trace["blocks"]:
        assert set(block) == BLOCK_KEYS
