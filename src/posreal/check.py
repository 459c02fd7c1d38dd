"""Independent verification: Markov-parameter comparison and cone certificates.

This module knows nothing about how realizations were built and imports no module that
builds them (tests/test_hygiene.py checks); the reference is the long-division recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .tf import TransferFunction, impulse_response

_STRIDE = 16  # past 2 * _STRIDE terms, Krylov vectors come _STRIDE at a time


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
    block's own sequence in one pass.  Past K = 2 * _STRIDE, each later group
    of _STRIDE vectors A^k b is one product with A^_STRIDE: nothing cancels for
    nonnegative A, b, c, so this is as accurate as a matvec per term.  A signed
    triple rounds otherwise, and an overflowing A^_STRIDE makes terms non-finite.
    """
    x = np.asarray(b, dtype=float)
    if K <= 2 * _STRIDE:
        out = np.empty((K,) + np.shape(c)[:-1])
        for k in range(K):
            out[k] = c @ x
            x = A @ x
        return out
    X = np.empty((K, x.size))
    X[0] = x
    for k in range(1, _STRIDE):
        X[k] = A @ X[k - 1]
    P = np.linalg.matrix_power(np.asarray(A, dtype=float), _STRIDE).T  # float, like A @ x
    for j in range(_STRIDE, K, _STRIDE):
        X[j : j + _STRIDE] = X[j - _STRIDE : min(j, K - _STRIDE)] @ P
    return X @ np.transpose(c)


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
    err[~np.isfinite(err)] = math.inf  # so argmax finds the first non-finite error, if any
    worst_k = int(np.argmax(err))
    nonneg = bool(A.min(initial=0.0) >= 0) and bool(b.min(initial=0.0) >= 0) and bool(c.min(initial=0.0) >= 0)
    return VerificationReport(int(K), float(err[worst_k]), worst_k + 1, nonneg, float(tol))


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
