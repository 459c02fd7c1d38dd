"""Independent verification: Markov-parameter comparison in the normalized frame.

This module knows nothing about how realizations were built and imports no module that
builds them (tests/test_hygiene.py checks); the reference is the long-division recurrence.
Both sequences are divided by gamma lam0^(k-1), the dominant residue and pole of the input's
expansion, so the measure does not depend on the gain or the pole scale and no value
overflows on a realization of the input.  The cone relations a block comes from are checked
in the tests, which rebuild each block's cone model from its pole terms and share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .tf import TransferFunction, _scaled_recurrence, expand, normalize


@dataclass(frozen=True)
class VerificationReport:
    horizon: int
    max_relative_error: float
    worst_index: int
    nonnegative: bool
    tol: float
    terms: np.ndarray = field(repr=False, compare=False)  # the compared c (A/lam0)^(k-1) b/gamma

    @property
    def passed(self) -> bool:
        return self.nonnegative and self.max_relative_error < self.tol


def _triple(realization):
    if hasattr(realization, "A"):
        return realization.A, realization.b, realization.c
    A, b, c = realization
    return np.atleast_2d(np.asarray(A, float)), np.asarray(b, float), np.asarray(c, float)


def markov(A, b, c, K: int) -> np.ndarray:
    """First K Markov parameters c A^(k-1) b.

    A matrix ``c`` gives one column per row, shape (K, rows); with the rows of ``c`` on disjoint
    states of a block-diagonal ``A`` this reads off every block's own sequence in one pass.  Past
    16 terms the Krylov rows double, X[f:2f] = X[:f] (A^f)^T with A^f squared each round, and one
    product with c gives every term: nothing cancels for nonnegative A, b, c (a signed triple
    rounds otherwise), so this is as accurate as the one matvec per term used up to 16 terms, and
    wherever the doubled terms are not all finite, since an A^f can overflow where no term does.
    """
    x = np.asarray(b, dtype=float)
    if K > 16:
        X = np.empty((K, x.size))
        X[0] = x
        P, f = np.asarray(A, dtype=float).T, 1  # P = (A^f)^T, float like A @ x
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term is recomputed below
            while True:
                X[f : 2 * f] = X[: min(f, K - f)] @ P
                if (f := 2 * f) >= K:
                    break
                P = P @ P
            out = X @ np.transpose(c)
        if np.isfinite(out).all():
            return out
    out = np.empty((K,) + np.shape(c)[:-1])
    for k in range(K):
        out[k] = c @ x
        x = A @ x
    return out


def markov_check(
    realization, tf: TransferFunction, K: int | None = None, tol: float = 1e-6, *, scale: tuple | None = None
) -> VerificationReport:
    """Compare c (A/lam0)^(k-1) b/gamma against t_k / (gamma lam0^(k-1)) from the recurrence.

    ``scale`` is (gamma, lam0), the dominant residue and pole of ``tf``'s expansion; when it
    is omitted ``tf`` is expanded here, which raises ``NotPrimitive`` or
    ``NonpositiveDominantResidue`` for an input without a positive dominant term.  Errors are
    relative to 1 + |reference|, so ``tol`` bounds the error on the scale of the dominant term.
    The default horizon max(100, 3*dim) comfortably exceeds twice the degree of anything at
    this scale, where agreement already pins down the rational function.  The worst index is
    the first non-finite error (a sequence overflowed; numpy does not warn), else the first
    maximal one.  The report keeps the compared Markov terms, read-only.
    """
    A, b, c = _triple(realization)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],) or c.shape != (A.shape[0],):
        raise DimensionMismatch("realization matrices have inconsistent shapes")
    if K is None:
        K = max(100, 3 * A.shape[0])
    if scale is None:
        pf = normalize(expand(tf))
        scale = pf.scale_gamma, pf.pole_scale
    gamma, lam0 = scale
    ref = np.array(_scaled_recurrence(tf, K, gamma, lam0))
    with np.errstate(over="ignore", invalid="ignore"):
        got = markov(A / lam0, b / gamma, c, K)
        err = np.abs(got - ref) / (1.0 + np.abs(ref))
    err[~np.isfinite(err)] = math.inf  # so argmax finds the first non-finite error, if any
    worst_k = int(np.argmax(err))
    nonneg = bool(A.min(initial=0.0) >= 0) and bool(b.min(initial=0.0) >= 0) and bool(c.min(initial=0.0) >= 0)
    got.setflags(write=False)
    return VerificationReport(int(K), float(err[worst_k]), worst_k + 1, nonneg, float(tol), got)
