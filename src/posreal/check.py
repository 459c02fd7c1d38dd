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


def markov_check(
    realization, tf: TransferFunction, K: int | None = None, tol: float = 1e-6
) -> VerificationReport:
    """Compare c A^(k-1) b against the recurrence-based impulse response.

    Errors are relative to 1 + |t_k|.  The default horizon max(100, 3*dim)
    comfortably exceeds twice the degree of anything at this scale, where
    agreement already pins down the rational function.  A non-finite error
    (a sequence overflowed) fails the check at its first index.
    """
    A, b, c = _triple(realization)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],) or c.shape != (A.shape[0],):
        raise DimensionMismatch("realization matrices have inconsistent shapes")
    if K is None:
        K = max(100, 3 * A.shape[0])
    ref = impulse_response(tf, K).values
    x = b.astype(float)
    worst, worst_k = 0.0, 1
    for k in range(K):
        got = float(c @ x)
        err = float(abs(got - ref[k]) / (1.0 + abs(ref[k])))
        if not err <= worst:  # a larger error, or NaN
            worst, worst_k = err, k + 1
            if not math.isfinite(err):
                worst = math.inf
                break
        x = A @ x
    nonneg = bool(A.min(initial=0.0) >= 0) and bool(b.min(initial=0.0) >= 0) and bool(c.min(initial=0.0) >= 0)
    return VerificationReport(int(K), worst, worst_k, nonneg, float(tol))


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
