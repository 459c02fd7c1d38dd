"""Elementary nonnegative blocks, budget allocation, assembly, and the lift.

Each block realizes its pole terms plus a share R of the dominant residue
1/(z - 1).  The cone model (F, P, g, h) it was generated from is kept for
``check.cone_check``.  The caller places the unspent residue before building;
``assemble`` stacks the blocks and self-checks them all in one pass: each
block's first 20 Markov parameters must match its target terms to relative
1e-9.  A block built alone is unchecked until it is assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .check import markov
from .errors import (
    BadPoleBlock,
    BudgetTooSmall,
    DegenerateBarycentric,
    InsufficientBudget,
    InternalCheckError,
    LeftoverNegative,
    NegativeEntry,
    NegativePrefix,
    NotInPolygon,
)
from .geometry import PoleClassification, in_polygon

CLAMP_WINDOW = 1e-12

# Half-width alpha of a pair block's generating cone.  At this alpha the pair
# share floor 2^{3/2} * eta / (alpha * cos(pi/m)) is PAIR_BUDGET_COEFF * eta / cos(pi/m).
PAIR_ALPHA = 0.5
PAIR_BUDGET_COEFF = 2.0**2.5
CONSERVATIVE_LIMIT = 2.0**-2.5


def _clamped(arr: np.ndarray, what: str) -> np.ndarray:
    out = np.array(arr, dtype=float)
    if not out.min(initial=0.0) >= 0:  # NaN takes this path too
        if np.any(out < -CLAMP_WINDOW):
            raise NegativeEntry(f"{what} has entry {out.min():.6g} below the clamp window")
        out[(out < 0)] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class Realization:
    """Nonnegative triple (A, b, c); arithmetic noise in [-1e-12, 0) is clamped."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = _clamped(np.atleast_2d(self.A), "A")
        b = _clamped(np.atleast_1d(self.b), "b")
        c = _clamped(np.atleast_1d(self.c), "c")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if b.shape != (A.shape[0],) or c.shape != (A.shape[0],):
            raise ValueError("b and c must match the dimension of A")
        for name, arr in (("A", A), ("b", b), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def markov(self, K: int) -> np.ndarray:
        """First K Markov parameters c A^(k-1) b."""
        return markov(self.A, self.b, self.c, K)


@dataclass(frozen=True, eq=False)
class Block:
    """One assembled unit: its realization, target terms, and dominant share."""

    realization: Realization
    kind: str  # positive_pole | real_pole | complex_pair | dominant_remainder
    dominant_share: float
    pole_terms: tuple[tuple[complex, complex], ...]
    cone_model: tuple  # (F, P, g, h) it was generated from

    @property
    def dim(self) -> int:
        return self.realization.dim


def positive_pole_block(lam: float, c: float) -> Block:
    """One state for c/(z - lam) with lam in [0, 1) and c > 0; uses no share."""
    if not (0.0 <= lam < 1.0):
        raise BadPoleBlock(f"pole {lam:.6g} outside [0, 1)")
    if not c > 0:
        raise BadPoleBlock(f"residue {c:.6g} must be positive")
    real = Realization(np.array([[lam]]), np.array([c]), np.array([1.0]))
    model = (np.array([[lam]]), np.array([[1.0]]), np.array([c]), np.array([1.0]))
    return Block(real, "positive_pole", 0.0, ((complex(lam), complex(c)),), model)


def real_pole_block(lam: float, c: float, R: float) -> Block:
    """Two states for R/(z - 1) + c/(z - lam), feasible once R >= |c|.

    A = [[(1+lam)/2, (1-lam)/2], [(1-lam)/2, (1+lam)/2]] has eigenpairs
    1 with (1, 1) and lam with (1, -1), so b = (R + c, R - c) splits the
    target exactly and stays nonnegative under the share condition.
    """
    if not (-1.0 < lam < 1.0):
        raise BadPoleBlock(f"pole {lam:.6g} outside (-1, 1)")
    if R < abs(c):
        raise BudgetTooSmall(f"share {R:.6g} below |c| = {abs(c):.6g}")
    hi = (1.0 + lam) / 2.0
    lo = (1.0 - lam) / 2.0
    real = Realization(
        np.array([[hi, lo], [lo, hi]]),
        np.array([R + c, R - c]),
        np.array([1.0, 0.0]),
    )
    model = (
        np.diag([1.0, lam]),
        np.array([[0.5, 0.5], [0.5, -0.5]]),
        np.array([R, c]),
        np.array([1.0, 1.0]),
    )
    return Block(real, "real_pole", float(R), ((complex(lam), complex(c)),), model)


def _fan_weights(w: complex, verts: np.ndarray) -> np.ndarray:
    """Nonnegative weights on the polygon vertices summing to one at w.

    Deterministic triangle fan anchored at vertex 0; interior points always
    land in some fan triangle with nonnegative barycentric coordinates.
    """
    m = len(verts)
    weights = np.zeros(m)
    for k in range(1, m - 1):
        v0, vj, vk = verts[0], verts[k], verts[k + 1]
        u, v = vj - v0, vk - v0
        det = u.real * v.imag - u.imag * v.real
        if det == 0:
            continue
        d = w - v0
        wb = (d.real * v.imag - d.imag * v.real) / det
        wc = (u.real * d.imag - u.imag * d.real) / det
        wa = 1.0 - wb - wc
        if min(wa, wb, wc) >= -CLAMP_WINDOW:
            weights[0] += max(wa, 0.0)
            weights[k] += max(wb, 0.0)
            weights[k + 1] += max(wc, 0.0)
            return weights
    raise DegenerateBarycentric(f"point {w:.12g} is not inside the polygon fan")


def complex_pair_block(
    rho: float,
    theta: float,
    eta: float,
    vartheta: float,
    m: int,
    R: float,
) -> Block:
    """m states for R/(z-1) + eta e^{i vt}/(z - rho e^{i th}) + conjugate.

    The generating cone has edges (alpha*cos(2 pi k/m), alpha*sin(2 pi k/m), 1)
    with alpha = PAIR_ALPHA: a rotation-scaling by rho e^{i theta} maps each
    edge back inside the polygon, so expressing the image in fan-barycentric
    coordinates gives the nonnegative column of A.  The model input
    (eta(cos vt - sin vt), eta(cos vt + sin vt), R) lands inside the cone
    once R reaches ``pair_share_floor(eta, m)``.
    """
    if m < 3:
        raise BadPoleBlock("polygon index must be at least 3")
    if eta < 0:
        raise BadPoleBlock("eta must be nonnegative")
    if R <= 0:
        raise BudgetTooSmall("dominant share must be positive")
    z = rho * complex(math.cos(theta), math.sin(theta))
    if not in_polygon(z, m):
        raise NotInPolygon(f"{z:.12g} is not inside the polygon with {m} edges")
    floor = pair_share_floor(eta, m)
    if floor > R * (1.0 + 1e-12):
        raise BudgetTooSmall(f"share {R:.6g} below the pair threshold {floor:.6g}")

    phis = 2.0 * np.pi * np.arange(m) / m
    verts = np.exp(1j * phis)
    A = np.empty((m, m))
    for k in range(m):
        A[:, k] = _fan_weights(z * verts[k], verts)

    gx = eta * (math.cos(vartheta) - math.sin(vartheta))
    gy = eta * (math.cos(vartheta) + math.sin(vartheta))
    b = R * _fan_weights(complex(gx, gy) / (R * PAIR_ALPHA), verts)
    c = PAIR_ALPHA * np.cos(phis) + PAIR_ALPHA * np.sin(phis) + 1.0

    F = np.array(
        [
            [rho * math.cos(theta), -rho * math.sin(theta), 0.0],
            [rho * math.sin(theta), rho * math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    P = np.vstack([PAIR_ALPHA * np.cos(phis), PAIR_ALPHA * np.sin(phis), np.ones(m)])
    g = np.array([gx, gy, R])
    h = np.ones(3)

    pole = complex(z)
    coeff = eta * complex(math.cos(vartheta), math.sin(vartheta))
    return Block(
        Realization(A, b, c),
        "complex_pair",
        float(R),
        ((pole, coeff), (pole.conjugate(), coeff.conjugate())),
        (F, P, g, h),
    )


def dominant_remainder_block(R: float) -> Block:
    """One state carrying an unconsumed dominant share R/(z - 1)."""
    if R < 0:
        raise LeftoverNegative(f"remainder share {R:.6g} is negative")
    real = Realization(np.array([[1.0]]), np.array([R]), np.array([1.0]))
    model = (np.array([[1.0]]), np.array([[1.0]]), np.array([R]), np.array([1.0]))
    return Block(real, "dominant_remainder", float(R), (), model)


@dataclass(frozen=True)
class BudgetPlan:
    """Dominant-residue shares allocated to the classified pole buckets."""

    mode: str
    classification: PoleClassification
    n2_shares: tuple[float, ...]
    pair_shares: tuple[float, ...]
    total: float
    leftover: float

    def allocations(self) -> tuple[tuple[complex, float], ...]:
        out = [(complex(p), 0.0) for p, _ in self.classification.n1_poles]
        out += [
            (complex(p), s)
            for (p, _), s in zip(self.classification.n2_poles, self.n2_shares)
        ]
        out += [
            (pair.pole, s)
            for pair, s in zip(self.classification.pair_assignments, self.pair_shares)
        ]
        return tuple(out)


def pair_share_floor(eta: float, m: int) -> float:
    return PAIR_BUDGET_COEFF * eta / math.cos(math.pi / m)


def share_floors(cls: PoleClassification) -> tuple[list[float], list[float]]:
    """Feasibility floors of the dominant shares: |c| per two-state real pole, one per pair."""
    n2 = [abs(c) for _, c in cls.n2_poles]
    pairs = [pair_share_floor(abs(p.coeff), p.polygon_index) for p in cls.pair_assignments]
    return n2, pairs


def per_pole_total(cls: PoleClassification) -> float:
    """Sum of the per-pole share floors (the tight stopping quantity)."""
    n2, pairs = share_floors(cls)
    return sum(n2) + sum(pairs)


def _stop_rule(cls: PoleClassification, mode: str, total: float) -> tuple[float, float]:
    """What ``mode``'s stopping rule bounds, and its bound; ``total`` is ``per_pole_total(cls)``."""
    if mode == "per_pole":
        return total, 1.0 + 1e-12
    if mode == "conservative_sum":
        pairs = sum(abs(p.coeff) for p in cls.pair_assignments)
        return sum(abs(c) for _, c in cls.n2_poles) + 2.0 * pairs, CONSERVATIVE_LIMIT
    raise ValueError(f"unknown budget mode {mode!r}")


def budget(cls: PoleClassification, mode: str = "per_pole") -> BudgetPlan:
    """Allocate the unit dominant residue, or raise ``InsufficientBudget``.

    per_pole: each bucket gets its feasibility floor; succeeds when the
    floors total at most 1.  conservative_sum: succeeds when the plain sum
    of non-gain coefficients (pairs counted twice) is at most 2^{-5/2}, in
    which case the floors provably fit and are scaled up to spend the unit.
    """
    n2_shares, pair_shares = share_floors(cls)
    total = float(sum(n2_shares) + sum(pair_shares))
    needed, limit = _stop_rule(cls, mode, total)
    if needed > limit:
        raise InsufficientBudget(needed, limit)
    if mode == "conservative_sum" and total > 0:
        scale = 1.0 / total
        n2_shares = [max(s * scale, s) for s in n2_shares]
        pair_shares = [max(s * scale, s) for s in pair_shares]
        total = float(sum(n2_shares) + sum(pair_shares))
    return BudgetPlan(mode, cls, tuple(n2_shares), tuple(pair_shares), total, max(0.0, 1.0 - total))


def assemble(blocks) -> Realization:
    """Block-diagonal sum of the blocks, stacked in the order given and self-checked.

    Row j of ``C`` holds block j's c on its own states, so one Markov pass
    over the stack gives every block's first 20 parameters c A^k b.  Each
    must match its share plus sum coeff * pole^k to relative 1e-9 (a
    non-finite error fails); the first failing block in stack order is named.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("nothing to assemble")
    total = sum(blk.dim for blk in blocks)
    A = np.zeros((total, total))
    b = np.zeros(total)
    c = np.zeros(total)
    C = np.zeros((len(blocks), total))
    at = 0
    for j, blk in enumerate(blocks):
        d = blk.dim
        A[at : at + d, at : at + d] = blk.realization.A
        b[at : at + d] = blk.realization.b
        c[at : at + d] = C[j, at : at + d] = blk.realization.c
        at += d

    K = 20
    got = markov(A, b, C, K)
    want = np.tile([blk.dominant_share for blk in blocks], (K, 1))
    terms = [(j, pole, coeff) for j, blk in enumerate(blocks) for pole, coeff in blk.pole_terms]
    if terms:
        owner, poles, coeffs = zip(*terms)
        powers = np.array(poles, dtype=complex) ** np.arange(K)[:, None]
        np.add.at(want, (slice(None), list(owner)), (np.array(coeffs) * powers).real)
    err = np.abs(got - want) / (1.0 + np.abs(want))
    failed = np.flatnonzero(~(err <= 1e-9).all(axis=0))
    if failed.size:
        # a non-finite entry of a block's A or b reaches every block through
        # the stack's zeros (0 * nan), so that block is the one named
        nonfinite = lambda blk: not np.isfinite(np.append(blk.realization.A, blk.realization.b)).all()
        j = next((j for j in failed if nonfinite(blocks[j])), failed[0])
        raise InternalCheckError(
            f"{blocks[j].kind} block self-check failed (relative error {np.max(err[:, j]):.3g})"
        )
    return Realization(A, b, c)


def prefix_lift(base: Realization, prefix) -> Realization:
    """Prepend impulse values t_1 ... t_{m-1} with a delay chain.

    States 1 .. m-1 shift the input along; the last chain state feeds the
    base input vector, and the chain outputs are the prefix values, so the
    lifted Markov sequence is exactly prefix ++ base sequence.
    """
    pre = np.asarray(prefix, dtype=float).reshape(-1)
    if pre.size == 0:
        return base
    if pre.min() < 0:
        raise NegativePrefix(f"prefix entry {pre.min():.6g} is negative")
    chain = pre.size
    total = base.dim + chain
    A = np.zeros((total, total))
    for i in range(chain - 1):
        A[i + 1, i] = 1.0
    A[chain:, chain - 1] = base.b
    A[chain:, chain:] = base.A
    b = np.zeros(total)
    b[0] = 1.0
    c = np.concatenate([pre, base.c])
    return Realization(A, b, c)
