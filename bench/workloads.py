"""The four workloads: corpora built from a seed, the timed call, and its check.

A request is a zero-argument ``call`` (the timed work) plus a ``check`` that
turns the call's result into a Verdict:

- ``ok``: the expected outcome, and the output passes the oracle;
- ``refused``: the program raised or gave up (``Unsupported``,
  ``IterationCapExceeded``, a CLI error exit) on an input that has an
  answer; this is how the known defects show;
- ``wrong``: the program returned an answer the oracle rejects.

Every call goes through the ``posreal`` module attributes at call time, so a
tracer that rebinds them sees the request.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import gen
import oracle
import posreal as pr

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# Inputs per corpus pass.  Each generator cycles through its strata
# (degrees, moduli, N) so that every corpus covers them evenly.
SIZES = {"synth_wide": 104, "synth_deep": 52, "bounds_zeros": 104}


@dataclass(frozen=True)
class Verdict:
    kind: str  # ok | refused | wrong
    detail: str = ""
    states: int | None = None


@dataclass(frozen=True)
class Raised:
    exc: Exception


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    traced_call: Callable[[str], object] | None = None  # cli only: run with span file


def invoke(call):
    try:
        return call()
    except Exception as exc:  # the request's outcome, checked by the verdict
        return Raised(exc)


def fingerprint(out):
    """A value that is equal for identical outputs (arrays compared by bytes)."""
    if isinstance(out, Raised):
        return ("raised", type(out.exc).__name__, str(out.exc))
    if isinstance(out, tuple):  # cli: (returncode, stdout)
        return out
    name = type(out).__name__
    if name == "Realized":
        r = out.realization
        return (name, r.A.shape, r.A.tobytes(), r.b.tobytes(), r.c.tobytes(), out.trace.shifts_performed)
    if name == "BoundsReport":
        return (name, out.k0, out.zero_indices, out.theo2, out.mn2, out.horizon_used)
    return (name, repr(out))


# ---------------------------------------------------------------------------
# verdicts


def realize_verdict(ref, expect: str, witness: int | None, out) -> Verdict:
    if isinstance(out, Raised):
        return Verdict("refused", type(out.exc).__name__)
    name = type(out).__name__
    if name == "Realized":
        if expect != "realized":
            return Verdict("wrong", "realized an input with a negative impulse value")
        r = out.realization
        err = oracle.realization_error(ref, r.A, r.b, r.c)
        if err:
            return Verdict("wrong", err)
        return Verdict("ok", states=r.dim)
    if name == "NoPositiveRealization":
        if expect != "no_positive_realization":
            return Verdict("wrong", "claims no nonnegative realization exists")
        err = oracle.witness_error(ref, out.witness_index, out.witness_value, witness)
        return Verdict("wrong", err) if err else Verdict("ok")
    return Verdict("refused", name)


def bounds_verdict(family, out, with_states: bool) -> Verdict:
    if isinstance(out, Raised):
        if isinstance(out.exc, pr.NegativeImpulse):
            return Verdict("wrong", f"claims a negative impulse value: {out.exc}")
        return Verdict("refused", type(out.exc).__name__)
    err = oracle.bounds_error(family, out.k0, out.zero_indices, out.theo2, out.mn2, out.horizon_used)
    if err:
        return Verdict("wrong", err)
    return Verdict("ok", states=out.mn2 if with_states else None)


# ---------------------------------------------------------------------------
# in-process workloads


def partial_fraction(s: gen.System) -> pr.PartialFraction:
    return pr.PartialFraction(
        s.lam0, s.gamma, tuple(pr.PoleTerm(mu * s.lam0, (c * s.gamma,)) for mu, c in s.terms)
    )


def _wide_request(i, s):
    num, den = s.coefficients()
    return Request(
        f"wide{i}:deg{s.degree}",
        lambda: pr.realize(pr.from_coefficients(num, den)),
        lambda out: realize_verdict(s, s.expect, s.witness, out),
    )


def _deep_request(i, s, mode):
    pf = partial_fraction(s)
    return Request(
        f"deep{i}:{mode}",
        lambda: pr.realize(pr.recombine(pf), mode),
        lambda out: realize_verdict(s, s.expect, s.witness, out),
    )


def _zeros_request(i, f):
    pf = partial_fraction(f.system)
    return Request(
        f"zeros{i}:N{f.N}",
        lambda: pr.bounds_report(pr.recombine(pf)),
        lambda out: bounds_verdict(f, out, True),
    )


def synth_wide(seed: int, size: int | None = None) -> list[Request]:
    return [_wide_request(i, s) for i, s in enumerate(gen.synth_wide(seed, size or SIZES["synth_wide"]))]


def synth_deep(seed: int, size: int | None = None) -> list[Request]:
    out = []
    for i, s in enumerate(gen.synth_deep(seed, size or SIZES["synth_deep"])):
        out.append(_deep_request(i, s, "per_pole"))
        out.append(_deep_request(i, s, "conservative_sum"))
    return out


def bounds_zeros(seed: int, size: int | None = None) -> list[Request]:
    return [_zeros_request(i, f) for i, f in enumerate(gen.bounds_zeros(seed, size or SIZES["bounds_zeros"]))]


# ---------------------------------------------------------------------------
# cli_files: one `python -m posreal.cli` process per request


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(argv, trace_file: str | None = None):
    """Run one CLI process from the checkout root; return (exit code, stdout bytes)."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "posreal.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "probe.py"), "cli", trace_file, *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout


# Exit codes by which a subcommand gives up rather than answers: 2 unsupported,
# 3 input error, 4 internal verification failure.  For `verify`, 4 is an answer.
REFUSALS = {"realize": (2, 3, 4), "bounds": (2, 3, 4), "verify": (2, 3)}


def _cli_verdict(argv, expect_rc: int, body: Callable[[dict], Verdict], out) -> Verdict:
    if isinstance(out, Raised):
        return Verdict("wrong", f"benchmark could not run the CLI: {out.exc}")
    rc, stdout = out
    if rc != expect_rc and rc in REFUSALS[argv[0]]:
        return Verdict("refused", f"exit {rc}")
    if rc != expect_rc:
        return Verdict("wrong", f"exit {rc}, expected {expect_rc}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return Verdict("wrong", "stdout is not JSON")
    return body(doc)


def _realized_doc(ref, doc, count_states: bool = True) -> Verdict:
    if doc.get("status") != "realized":
        return Verdict("wrong", f"status {doc.get('status')!r}")
    if doc.get("dimension") != len(doc["A"]):
        return Verdict("wrong", "dimension does not match A")
    err = oracle.realization_error(ref, doc["A"], doc["b"], doc["c"])
    if err:
        return Verdict("wrong", err)
    return Verdict("ok", states=doc["dimension"] if count_states else None)


def _no_positive_doc(ref, witness, doc) -> Verdict:
    if doc.get("status") != "no_positive_realization":
        return Verdict("wrong", f"status {doc.get('status')!r}")
    err = oracle.witness_error(ref, doc["witness_index"], doc["witness_value"], witness)
    return Verdict("wrong", err) if err else Verdict("ok")


def _bounds_doc(family, doc) -> Verdict:
    keys = ("k0", "zero_indices", "theo2", "mn2", "horizon")
    if any(k not in doc for k in keys):
        return Verdict("wrong", f"bounds document lacks {keys}")
    err = oracle.bounds_error(family, doc["k0"], doc["zero_indices"], doc["theo2"], doc["mn2"], doc["horizon"])
    return Verdict("wrong", err) if err else Verdict("ok")


def _verify_doc(passed: bool, doc) -> Verdict:
    if doc.get("passed") is not passed:
        return Verdict("wrong", f"verify passed={doc.get('passed')!r}, expected {passed}")
    return Verdict("ok")


def _cli_request(label, argv, expect_rc, body) -> Request:
    return Request(
        label,
        lambda: run_cli(argv),
        lambda out: _cli_verdict(argv, expect_rc, body, out),
        lambda trace_file: run_cli(argv, trace_file),
    )


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _problem_family(name: str, N: int) -> gen.ZeroFamily:
    """H^N, after checking that problems/<name> holds exactly that function."""
    fam = gen.zero_family(N, gen.HN_P, gen.HN_Q)
    doc = json.loads((ROOT / "problems" / name).read_text())
    terms = [
        (complex(t["pole"]["re"], t["pole"]["im"]), complex(t["coeffs"][0]["re"], t["coeffs"][0]["im"]))
        for t in doc["partial_fractions"]["terms"]
    ]
    want = sorted(fam.system.terms, key=lambda t: t[0].real)
    got = sorted(terms, key=lambda t: t[0].real)
    if len(got) != len(want) or any(
        abs(g - w) > 1e-12 * abs(w) for gt, wt in zip(got, want) for g, w in zip(gt, wt)
    ):
        raise ValueError(f"problems/{name} is not H^{N}")
    return fam


def cli_files(seed: int, workdir: Path) -> list[Request]:
    """problems/*.json plus seeded files from each in-process workload, in both file forms.

    Writes its input files under ``workdir``; the two ``verify`` inputs are
    realizations produced by one CLI run each, made here during set-up.
    """
    problems = ROOT / "problems"
    example1 = json.loads((problems / "example1.json").read_text())["transfer"]
    ex_ref = oracle.Recurrence(example1["num"], example1["den"])
    nopos = json.loads((problems / "no_positive.json").read_text())["transfer"]
    nopos_ref = oracle.Recurrence(nopos["num"], nopos["den"])
    h4, h10 = _problem_family("h4.json", 4), _problem_family("h10.json", 10)

    p = lambda name: str(problems / name)  # noqa: E731
    reqs = [
        _cli_request("realize example1", ["realize", p("example1.json")], 0,
                     lambda d: _realized_doc(ex_ref, d)),
        _cli_request("realize example1 sum", ["realize", p("example1.json"), "--mode", "sum"], 0,
                     lambda d: _realized_doc(ex_ref, d)),
        _cli_request("realize h4", ["realize", p("h4.json")], 0,
                     lambda d: _realized_doc(h4.system, d)),
        _cli_request("realize h10", ["realize", p("h10.json")], 0,
                     lambda d: _realized_doc(h10.system, d)),
        _cli_request("realize h10 base", ["realize", p("h10.json"), "--base", "base_h4.json", "--base-shift", "7"], 0,
                     lambda d: _realized_doc(h10.system, d)),
        _cli_request("realize no_positive", ["realize", p("no_positive.json")], 1,
                     lambda d: _no_positive_doc(nopos_ref, nopos_ref.first_negative(), d)),
        _cli_request("bounds h4", ["bounds", p("h4.json")], 0, lambda d: _bounds_doc(h4, d)),
        _cli_request("bounds h10", ["bounds", p("h10.json")], 0, lambda d: _bounds_doc(h10, d)),
    ]

    # verify inputs: the CLI's own h10-with-base realization, and example1's
    # realization with c scaled by 1.5, which verify must reject
    rc, out = run_cli(["realize", p("h10.json"), "--base", "base_h4.json", "--base-shift", "7"])
    good = _write(workdir / "h10_realization.json", json.loads(out)) if rc == 0 else None
    rc, out = run_cli(["realize", p("example1.json")])
    if good is None or rc != 0:
        raise RuntimeError("set-up realize runs failed")
    bad_doc = json.loads(out)
    bad_doc["c"] = [1.5 * v for v in bad_doc["c"]]
    bad = _write(workdir / "example1_c15.json", bad_doc)
    reqs += [
        _cli_request("verify h10", ["verify", p("h10.json"), "--realization", good], 0,
                     lambda d: _verify_doc(True, d)),
        _cli_request("verify example1 c*1.5", ["verify", p("example1.json"), "--realization", bad], 4,
                     lambda d: _verify_doc(False, d)),
    ]

    # seeded files: two of each in-process workload, in both file forms.  Their
    # dimensions vary with the seed, so states_mean here covers problems/ only.
    def forms(tag, s: gen.System):
        num, den = s.coefficients()
        return (
            _write(workdir / f"{tag}_transfer.json", {"transfer": {"num": num, "den": den}}),
            _write(workdir / f"{tag}_pf.json", {"partial_fractions": s.partial_fraction_doc()}),
        )

    seeded = []
    for i, s in enumerate(gen.synth_wide(seed, 5)[3:5]):  # one positive, one negative
        if s.expect == "realized":
            seeded.append((f"wide{i}", s, "realize", 0, partial(_realized_doc, s, count_states=False)))
        else:
            seeded.append((f"wide{i}", s, "realize", 1, partial(_no_positive_doc, s, s.witness)))
    for i, s in enumerate(gen.synth_deep(seed, 2)):
        seeded.append((f"deep{i}", s, "realize", 0, partial(_realized_doc, s, count_states=False)))
    # H^14, where recombine breaks down (NotCoprime), in every corpus, and one
    # random member below N = 11, where no breakdown has been seen
    rng = random.Random(f"cli_files:{seed}")
    for i, f in enumerate((gen.zero_family(14, gen.HN_P, gen.HN_Q),
                           gen.random_zero_family(rng, rng.randint(4, 10), rng.random(), rng.random()))):
        seeded.append((f"zeros{i}", f.system, "bounds", 0, partial(_bounds_doc, f)))
    for tag, s, command, rc_want, body in seeded:
        for path in forms(tag, s):
            reqs.append(_cli_request(f"{command} {Path(path).name}", [command, path], rc_want, body))
    return reqs
