"""Output checks that do not use posreal.

A realization (A, b, c) is compared with the input's own impulse response in
normalized coordinates, t_k / (gamma * lam0**(k-1)), so the comparison does
not depend on the gain or the pole scale.  Agreement of the first
dim + degree + 8 Markov parameters pins the rational function down (the
difference of the two has order at most dim + degree).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

TOL = 1e-6


class Recurrence:
    """Reference for a coefficient-form input: the long-division recurrence in exact arithmetic.

    The dominant pole and residue (needed only to normalize) come from numpy's
    polynomial roots.
    """

    def __init__(self, num, den):
        num = [float(v) for v in num]
        den = [float(v) for v in den]
        lead = den[-1]
        self.n = len(den) - 1
        self.p = [Fraction(v) / Fraction(lead) for v in num] + [Fraction(0)] * (self.n - len(num))
        self.q = [Fraction(v) / Fraction(lead) for v in den]
        roots = np.roots(den[::-1])
        lam0 = roots[np.argmax(np.abs(roots))]
        self.lam0 = float(lam0.real)
        dden = np.polyder(np.asarray(den[::-1]))
        self.gamma = float((np.polyval(num[::-1], lam0) / np.polyval(dden, lam0)).real)
        self.degree = self.n

    def exact(self, K: int) -> list[Fraction]:
        """t_1 .. t_K with t_k = p_k - sum_i q_(n-i) t_(k-i) (monic den, ascending coefficients)."""
        n, t = self.n, []
        for k in range(1, K + 1):
            acc = self.p[n - k] if k <= n else Fraction(0)
            for i in range(1, min(k - 1, n) + 1):
                acc -= self.q[n - i] * t[k - 1 - i]
            t.append(acc)
        return t

    def normalized_response(self, K: int) -> list[float]:
        scale = Fraction(self.gamma)
        lam = Fraction(self.lam0)
        out = []
        for v in self.exact(K):
            out.append(float(v / scale))
            scale *= lam
        return out

    def first_negative(self, K: int = 400) -> int | None:
        for k, v in enumerate(self.exact(K), start=1):
            if v < 0:
                return k
        return None


def realization_error(ref, A, b, c, tol: float = TOL) -> str | None:
    """None if (A, b, c) is a nonnegative realization of ``ref``, else the reason."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    dim = A.shape[0] if A.ndim == 2 else -1
    if A.shape != (dim, dim) or b.shape != (dim,) or c.shape != (dim,):
        return "inconsistent shapes"
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        return "non-finite entry"
    if A.min(initial=0.0) < 0 or b.min(initial=0.0) < 0 or c.min(initial=0.0) < 0:
        return "negative entry"
    K = dim + ref.degree + 8
    want = np.asarray(ref.normalized_response(K))
    An = A / ref.lam0
    x = b / ref.gamma
    got = np.empty(K)
    for k in range(K):
        got[k] = c @ x
        x = An @ x
    if not np.isfinite(got).all():
        return "non-finite Markov parameter"
    err = np.abs(got - want) / (1.0 + np.abs(want))
    worst = int(np.argmax(err))
    if err[worst] > tol:
        return f"Markov parameter {worst + 1} off by {err[worst]:.3g} (normalized)"
    return None


def witness_error(ref, index: int, value: float, expected_index: int) -> str | None:
    """Check a no-positive-realization witness against the reference."""
    if index != expected_index:
        return f"witness index {index}, expected {expected_index}"
    want = ref.normalized_response(index)[-1]
    got = value / (ref.gamma * ref.lam0 ** (index - 1))
    if not (got < 0 and abs(got - want) <= TOL * (1.0 + abs(want))):
        return f"witness value {got:.6g} (normalized), expected {want:.6g}"
    return None


def bounds_error(family, k0, zero_indices, theo2, mn2, horizon) -> str | None:
    """Compare a bounds report with the values fixed by the zero-family construction."""
    got = (k0, tuple(zero_indices), theo2, mn2)
    want = (family.k0, family.zero_indices, family.theo2, family.mn2)
    if got != want:
        return f"bounds {got}, expected {want}"
    if horizon <= family.k0:
        return f"certified horizon {horizon} does not pass k0 = {family.k0}"
    return None
