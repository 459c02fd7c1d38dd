"""Independent verification: Markov-parameter comparison and cone certificates.

This module deliberately knows nothing about how realizations were built;
the reference sequence comes from the long-division recurrence alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .tf import TransferFunction, impulse_response


@dataclass(frozen=True)
class VerificationReport:
    horizon: int
    max_relative_error: float
    worst_index: int
    nonnegative: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.nonnegative and self.max_relative_error < self.tol


@dataclass(frozen=True)
class ConeCertificate:
    residual_dynamics: float  # ||F P - P A||_max
    residual_input: float  # ||P b - g||_max
    residual_output: float  # ||c - P^T h||_max
    tol: float

    @property
    def passed(self) -> bool:
        return (
            max(self.residual_dynamics, self.residual_input, self.residual_output)
            < self.tol
        )


def _triple(realization):
    if hasattr(realization, "A"):
        return realization.A, realization.b, realization.c
    A, b, c = realization
    return np.atleast_2d(np.asarray(A, float)), np.asarray(b, float), np.asarray(c, float)


def markov(A, b, c, K: int) -> np.ndarray:
    """First K Markov parameters c A^(k-1) b.

    A matrix ``c`` gives one column per row, shape (K, rows); with the rows
    of ``c`` on disjoint states of a block-diagonal ``A`` this reads off every
    block's own sequence in one pass.
    """
    x = np.asarray(b, dtype=float)
    out = np.empty((K,) + np.shape(c)[:-1])
    for k in range(K):
        out[k] = c @ x
        x = A @ x
    return out


def markov_check(
    realization, tf: TransferFunction, K: int | None = None, tol: float = 1e-6
) -> VerificationReport:
    """Compare c A^(k-1) b against the recurrence-based impulse response.

    Errors are relative to 1 + |t_k|.  The default horizon max(100, 3*dim)
    comfortably exceeds twice the degree of anything at this scale, where
    agreement already pins down the rational function.  The worst index is
    the first non-finite error (a sequence overflowed), else the first
    maximal one.
    """
    A, b, c = _triple(realization)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],) or c.shape != (A.shape[0],):
        raise DimensionMismatch("realization matrices have inconsistent shapes")
    if K is None:
        K = max(100, 3 * A.shape[0])
    ref = impulse_response(tf, K)
    got = markov(A, b, c, K)
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs(got - ref) / (1.0 + np.abs(ref))
    bad = np.flatnonzero(~np.isfinite(err))
    worst_k = int(bad[0]) if bad.size else int(np.argmax(err))
    worst = math.inf if bad.size else float(err[worst_k])
    nonneg = bool(A.min(initial=0.0) >= 0) and bool(b.min(initial=0.0) >= 0) and bool(c.min(initial=0.0) >= 0)
    return VerificationReport(int(K), worst, worst_k + 1, nonneg, float(tol))


def cone_check(F, P, g, h, realization, tol: float = 1e-10) -> ConeCertificate:
    """Residuals of F P = P A, P b = g, c^T = h^T P for the given triple."""
    F = np.atleast_2d(np.asarray(F, float))
    P = np.atleast_2d(np.asarray(P, float))
    g = np.asarray(g, float)
    h = np.asarray(h, float)
    A, b, c = _triple(realization)
    n = F.shape[0]
    M = A.shape[0]
    if F.shape != (n, n) or P.shape != (n, M) or g.shape != (n,) or h.shape != (n,):
        raise DimensionMismatch("cone certificate shapes are inconsistent")
    rd = float(np.max(np.abs(F @ P - P @ A))) if M else 0.0
    ri = float(np.max(np.abs(P @ b - g)))
    ro = float(np.max(np.abs(c - P.T @ h)))
    return ConeCertificate(rd, ri, ro, tol)
