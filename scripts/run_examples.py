#!/usr/bin/env python3
"""Run the showcase problems end to end and print a summary table.

Covers the degree-3 low-pass filter (both stopping rules), the two-pole
family H^N with and without the supplied four-state base, the lower bounds
on that family, and two rejected inputs (a negative impulse value and a
negative dominant residue) at unit gain and at gain 1e-12, where realize
and bounds must name the same witness.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import posreal as pr  # noqa: E402


def family_pf(N: int) -> pr.PartialFraction:
    return pr.PartialFraction(
        1.0,
        1.0,
        (
            pr.PoleTerm(0.4 + 0j, (complex(-4.0 * 2.5 ** (N - 2)),)),
            pr.PoleTerm(0.2 + 0j, (complex(3.0 * 5.0 ** (N - 2)),)),
        ),
    )


def four_state_base() -> pr.Realization:
    s = math.sqrt(26.0)
    A = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [1.0, (63.0 + 4.0 * s) / 85.0, 0.0, 0.0],
            [0.0, (22.0 - 4.0 * s) / 85.0, (63.0 - 4.0 * s) / 85.0, 0.0],
            [0.0, 0.0, (22.0 + 4.0 * s) / 85.0, 0.0],
        ]
    )
    return pr.Realization(A, np.array([0.0, 0.0, 0.0, 1.0]), np.array([6.0, 0.0, 0.0, 51.0]))


def filter_problem() -> pr.TransferFunction:
    P = np.polynomial.polynomial
    num_t = [0.1253986950, 0.1984152016, 0.3331328522]
    den_t = [-0.38920832, 0.80189061, -0.69055619, 1.0]
    num = P.polyadd(den_t, P.polymul([-1.0, 1.0], num_t))
    den = P.polymul([-1.0, 1.0], den_t)
    return pr.from_coefficients(num, den)


def main() -> int:
    tf = filter_problem()
    print("== degree-3 low-pass filter ==")
    for mode in ("per_pole", "conservative_sum"):
        t0 = time.perf_counter()
        out = pr.realize(tf, mode)
        dt = 1e3 * (time.perf_counter() - t0)
        tr = out.trace
        print(
            f"  mode={mode:16s} dim={tr.final_dimension} shifts={tr.shifts_performed} "
            f"blocks={[(b.kind, b.dim) for b in tr.blocks]} "
            f"markov_err={tr.verification.max_relative_error:.2e} ({dt:.1f} ms)"
        )

    print("\n== two-pole family ==")
    base = four_state_base()
    print(f"  {'N':>3} {'plain dim':>9} {'base dim':>8} {'k0':>4} {'theo2':>5} {'mn2':>4}")
    for N in range(4, 13):
        tfn = pr.recombine(family_pf(N))
        plain = pr.realize(tfn, "per_pole")
        lifted = pr.realize_with_base(tfn, base, N - 3)
        rep = pr.bounds_report(tfn)
        print(
            f"  {N:>3} {plain.trace.final_dimension:>9} {lifted.trace.final_dimension:>8} "
            f"{rep.k0:>4} {rep.theo2:>5} {rep.mn2:>4}"
        )

    print("\n== rejected input: realize and bounds name the same witness ==")
    P = np.polynomial.polynomial
    den = P.polymul([-1.0, 1.0], [-0.5, 1.0])
    rejected = {
        "1/(z-1) - 2/(z-0.5)": [1.5, -1.0],
        "-1/(z-1) + 3/(z-0.5)": [-2.5, 2.0],
    }
    for name, num in rejected.items():
        for gain in (1.0, 1e-12):
            bad = pr.from_coefficients([gain * v for v in num], den)
            out = pr.realize(bad)
            try:
                bounds = f"bounds k0={pr.bounds_report(bad).k0}"
            except pr.NegativeImpulse as exc:
                bounds = f"bounds negative_impulse ({exc.index}, {exc.value:.6g})"
            print(f"  {name} x {gain:g}: realize {type(out).__name__} "
                  f"({out.witness_index}, {out.witness_value:.6g}), {bounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
