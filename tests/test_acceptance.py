"""Acceptance checks: each test prints one PASS/FAIL line for its criterion."""

import cmath
import json
import math
import time

import numpy as np
import pytest

import posreal as pr
from posreal.bounds import zero_pattern
from posreal.check import markov_check
from posreal.cli import main as cli_main
from posreal.geometry import in_polygon

from conftest import cone_model, cone_residual, hn_pf, hn_tf, random_stable_pf, scaled_pf


def report(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_1_showcase_filter_dimensions(example1_tf):
    t0 = time.perf_counter()
    conservative = pr.realize(example1_tf, "conservative_sum")
    per_pole = pr.realize(example1_tf, "per_pole")
    elapsed = time.perf_counter() - t0
    ok = isinstance(conservative, pr.Realized) and isinstance(per_pole, pr.Realized)
    if ok:
        m1 = markov_check(conservative.realization, example1_tf, 200, 1e-6)
        m2 = markov_check(per_pole.realization, example1_tf, 200, 1e-6)
        ok = (
            conservative.trace.final_dimension <= 9
            and per_pole.trace.final_dimension <= 7
            and m1.passed
            and m2.passed
            and elapsed < 1.0
        )
    report(
        1,
        "degree-3 filter: dim <= 9 (sum mode), <= 7 (per-pole), 200-term match at 1e-6, < 1 s",
        ok,
    )


def test_criterion_2_family_dimensions(base_4dim):
    ok = True
    for N in range(4, 13):
        tf = hn_tf(N)
        t0 = time.perf_counter()
        plain = pr.realize(tf, "per_pole")
        lifted = pr.realize_with_base(tf, base_4dim, N - 3)
        elapsed = time.perf_counter() - t0
        ok = (
            ok
            and isinstance(plain, pr.Realized)
            and isinstance(lifted, pr.Realized)
            and plain.trace.final_dimension == N + 3
            and lifted.trace.final_dimension == N
            and markov_check(plain.realization, tf, 200, 1e-6).passed
            and markov_check(lifted.realization, tf, 200, 1e-6).passed
            and elapsed < 1.0
        )
    report(2, "two-pole family N=4..12: plain dim N+3, base-lifted dim N, 1e-6 over 200", ok)


def test_criterion_3_supplied_base_fixture(h4_tf, base_4dim):
    rep = markov_check(base_4dim, h4_tf, 100, 1e-9)
    report(3, "four-state fixture matches its target at 1e-9 over 100 terms", rep.passed)


def test_criterion_4_zero_pattern():
    ok = True
    for N in range(4, 13):
        k0, zeros, _ = zero_pattern(hn_tf(N))
        ok = ok and zeros == (N - 1, N) and k0 == N
    report(4, "zero pattern on the family: zeros exactly {N-1, N}, k0 = N", ok)


def test_criterion_5_lower_bounds():
    ok = pr.quadratic_order_bound(10) == 3 and pr.quadratic_order_bound(600) == 20
    for N in range(4, 13):
        theo2 = pr.cone_order_bound(hn_pf(N), N)
        ok = ok and theo2 == math.ceil(N / 2) and pr.quadratic_order_bound(N) <= theo2
    report(5, "linear bound ceil(N/2) on the family; quadratic bound 10->3, 600->20", ok)


def test_criterion_6_randomized_nonnegativity():
    rng = np.random.default_rng(20260808)
    ok = True
    for trial in range(1000):
        pf = random_stable_pf(rng, ensure_positive_impulse=True)
        gamma = 1.0 if trial % 3 else float(rng.uniform(0.2, 3.0))
        lam0 = 1.0 if trial % 4 else float(rng.uniform(0.5, 2.0))
        raw = scaled_pf(pf, gamma, lam0)
        tf = pr.recombine(raw)
        out = pr.realize(tf, "per_pole")
        if not isinstance(out, pr.Realized):
            ok = False
            break
        real = out.realization
        if real.A.min() < 0 or real.b.min() < 0 or real.c.min() < 0:
            ok = False
            break
        if not markov_check(real, tf, max(100, 3 * real.dim), 1e-6).passed:
            ok = False
            break
    report(6, "1000 randomized syntheses: entrywise nonnegative, verified at 1e-6", ok)


def test_criterion_7_cone_certificates():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(500):
        m = int(rng.integers(3, 9))
        while True:
            pole = cmath.rect(rng.uniform(0.02, 0.97), rng.uniform(0.02, math.pi - 0.02))
            if in_polygon(pole, m):
                break
        eta = rng.uniform(1e-4, 0.5)
        coeff = cmath.rect(eta, rng.uniform(-math.pi, math.pi))
        share = pr.pair_share_floor(eta, m) * rng.uniform(1.0, 2.5)
        blk = pr.complex_pair_block(pole, coeff, m, share)
        if not cone_residual(*cone_model(blk), blk.realization) < 1e-10:
            ok = False
            break
    report(7, "500 random pair blocks satisfy the cone relations below 1e-10", ok)


def test_criterion_8_lift_exactness():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(500):
        dim = int(rng.integers(1, 6))
        A = rng.uniform(0.0, 1.0, (dim, dim)) * (0.8 / dim)
        b = rng.uniform(0.0, 2.0, dim)
        c = rng.uniform(0.0, 2.0, dim)
        base = pr.Realization(A, b, c)
        plen = int(rng.integers(0, 7))
        prefix = rng.uniform(0.0, 3.0, plen)
        if plen:
            prefix[rng.integers(0, plen)] = 0.0
        lifted = pr.prefix_lift(base, prefix)
        got = lifted.markov(plen + 40)
        want = np.concatenate([prefix, base.markov(40)])
        if np.max(np.abs(got - want) / (1.0 + np.abs(want))) > 1e-12:
            ok = False
            break
    report(8, "500 random lifts reproduce prefix ++ base Markov within 1e-12", ok)


def test_criterion_10_negative_path(problems_dir, capsys):
    tf = pr.from_coefficients([1.5, -1.0], [0.5, -1.5, 1.0])
    out = pr.realize(tf)
    code = cli_main(["realize", str(problems_dir / "no_positive.json")])
    doc = json.loads(capsys.readouterr().out)
    ok = (
        isinstance(out, pr.NoPositiveRealization)
        and out.witness_index == 1
        and out.witness_value == pytest.approx(-1.0)
        and code == 1
        and doc["witness_index"] == 1
    )
    with capsys.disabled():
        report(10, "impulse value -1 at index 1 rejected with exit code 1", ok)
