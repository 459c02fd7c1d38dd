"""Elementary nonnegative blocks, budget allocation, assembly, and the lift.

Each block realizes its pole terms plus a share R of the dominant residue
1/(z - 1); its pole terms and share determine the cone model (F, P, g, h) it
comes from, which the tests rebuild to check F P = P A, P b = g and
c = P^T h.  The caller places the unspent residue before building;
``assemble`` stacks the blocks and self-checks them all in one pass: each
block's first 20 Markov parameters must match its target terms to relative
1e-9.  A block built alone is unchecked until it is assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
from .tf import CONSERVATIVE_LIMIT

CLAMP_WINDOW = 1e-12

# Half-width alpha of a pair block's generating cone.  The input g = (g_x, g_y, R)
# is in the cone iff (g_x, g_y)/(R alpha) is in the m-gon, which holds the disc of
# radius cos(pi/m); as |(g_x, g_y)| = sqrt(2) |c|, R >= 2^{3/2} |c| / cos(pi/m) is
# enough at alpha = 1/2, and tight: along an edge normal the disc touches the edge.
PAIR_ALPHA = 0.5
PAIR_BUDGET_COEFF = 2.0**1.5


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
    """One assembled unit: its realization, target terms, dominant share, and share floor."""

    realization: Realization
    kind: str  # positive_pole | real_pole | complex_pair | dominant_remainder
    dominant_share: float
    pole_terms: tuple[tuple[complex, complex], ...]
    share_floor: float | None = None  # least share the builder accepts: |c| real, pair_share_floor(|c|, m) pair

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
    return Block(real, "positive_pole", 0.0, ((complex(lam), complex(c)),))


def real_pole_block(lam: float, c: float, R: float) -> Block:
    """Two states for R/(z - 1) + c/(z - lam), feasible once R >= |c|.

    A = [[(1+lam)/2, (1-lam)/2], [(1-lam)/2, (1+lam)/2]] has eigenpairs
    1 with (1, 1) and lam with (1, -1), so b = (R + c, R - c) splits the
    target exactly and stays nonnegative under the share condition.
    """
    if not (-1.0 < lam < 1.0):
        raise BadPoleBlock(f"pole {lam:.6g} outside (-1, 1)")
    floor = float(abs(c))
    if R < floor:
        raise BudgetTooSmall(f"share {R:.6g} below |c| = {floor:.6g}")
    hi = (1.0 + lam) / 2.0
    lo = (1.0 - lam) / 2.0
    real = Realization(
        np.array([[hi, lo], [lo, hi]]),
        np.array([R + c, R - c]),
        np.array([1.0, 0.0]),
    )
    return Block(real, "real_pole", float(R), ((complex(lam), complex(c)),), floor)


def _fan_weights(w: complex, verts: np.ndarray) -> np.ndarray:
    """Nonnegative weights on the polygon vertices summing to one at w.

    Triangle fan anchored at vertex 0: the chord to vertex k leaves it at
    angle pi/2 + pi*k/m (inscribed angle), so d = w - v0 lies in the triangle
    (0, k, k+1) with k = floor(atan2(-Re d, Im d) * m/pi) clipped to [1, m-2].
    """
    m = len(verts)
    d = w - verts[0]
    k = min(max(math.floor(math.atan2(-d.real, d.imag) * m / math.pi), 1), m - 2)
    u, v = verts[k] - verts[0], verts[k + 1] - verts[0]
    det = u.real * v.imag - u.imag * v.real
    wb = (d.real * v.imag - d.imag * v.real) / det
    wc = (u.real * d.imag - u.imag * d.real) / det
    wa = 1.0 - wb - wc
    if not min(wa, wb, wc) >= -CLAMP_WINDOW:
        raise DegenerateBarycentric(f"point {w:.12g} is not inside the polygon fan")
    weights = np.zeros(m)
    weights[[0, k, k + 1]] = max(0.0, wa), max(0.0, wb), max(0.0, wc)  # -0.0 becomes 0.0
    return weights


def complex_pair_block(pole: complex, coeff: complex, m: int, R: float) -> Block:
    """m states for R/(z-1) + c/(z - p) + conjugate, with p = ``pole`` and c = ``coeff``.

    The generating cone has edges (alpha*cos(2 pi k/m), alpha*sin(2 pi k/m), 1)
    with alpha = PAIR_ALPHA: a rotation-scaling by p maps each edge back
    inside the polygon, and the image's fan-barycentric coordinates are the
    nonnegative column of A.  The polygon is invariant under rotation by
    2 pi/m, so if p = sum_j w_j v_j then p v_k = sum_j w_j v_{j+k}: A is
    circulant, A[j, k] = w[(j - k) mod m], from one fan solve.  The model
    input (Re c - Im c, Re c + Im c, R) lands inside the cone once R reaches
    ``pair_share_floor(|c|, m)``.
    """
    if m < 3:
        raise BadPoleBlock("polygon index must be at least 3")
    if R <= 0:
        raise BudgetTooSmall("dominant share must be positive")
    if not in_polygon(pole, m):
        raise NotInPolygon(f"{pole:.12g} is not inside the polygon with {m} edges")
    floor = pair_share_floor(abs(coeff), m)
    if floor > R * (1.0 + 1e-12):
        raise BudgetTooSmall(f"share {R:.6g} below the pair threshold {floor:.6g}")

    idx = np.arange(m)
    phis = 2.0 * np.pi * idx / m
    verts = np.exp(1j * phis)
    A = _fan_weights(pole, verts)[(idx[:, None] - idx) % m]

    g = complex(coeff.real - coeff.imag, coeff.real + coeff.imag)
    b = R * _fan_weights(g / (R * PAIR_ALPHA), verts)
    c = PAIR_ALPHA * np.cos(phis) + PAIR_ALPHA * np.sin(phis) + 1.0
    pole_terms = ((pole, coeff), (pole.conjugate(), coeff.conjugate()))
    return Block(Realization(A, b, c), "complex_pair", float(R), pole_terms, floor)


def dominant_remainder_block(R: float) -> Block:
    """One state carrying an unconsumed dominant share R/(z - 1)."""
    if R < 0:
        raise LeftoverNegative(f"remainder share {R:.6g} is negative")
    real = Realization(np.array([[1.0]]), np.array([R]), np.array([1.0]))
    return Block(real, "dominant_remainder", float(R), ())


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
    """Least share fitting |c| = eta in every direction; eta * pair_share_floor(1.0, m), bit for bit."""
    return eta * (PAIR_BUDGET_COEFF / math.cos(math.pi / m))


def floor_units(cls: PoleClassification) -> dict[complex, float]:
    """Each floored pole's share floor per unit |c|: 1 per two-state real pole, the pair's floor at |c| = 1."""
    units = {complex(lam): 1.0 for lam, _ in cls.n2_poles}
    units.update((p.pole, pair_share_floor(1.0, p.polygon_index)) for p in cls.pair_assignments)
    return units


def term_floors(terms, units: dict[complex, float], n2=None, pairs=None) -> tuple[float, float, float]:
    """The sums of the floored terms' real floors, pair |c| and pair floors, added left to right in one pass.

    ``terms`` are shaped like ``PoleTerm``s and read at their first
    coefficient c.  A floor is |c| times the pole's unit from ``floor_units``
    (|Re c| for a real pole); poles without a unit carry no floor and are
    skipped.  Each real or pair floor is also appended to ``n2`` or ``pairs``
    when one is given.
    """
    n2_sum = eta_sum = pair_sum = 0
    for term in terms:
        unit = units.get(term.pole)
        if unit is None:
            continue
        c = term.coeffs[0]
        if term.pole.imag:
            eta = abs(c)
            floor = eta * unit
            eta_sum += eta
            pair_sum += floor
            if pairs is not None:
                pairs.append(floor)
        else:
            floor = abs(c.real) * unit
            n2_sum += floor
            if n2 is not None:
                n2.append(floor)
    return n2_sum, eta_sum, pair_sum


class _BucketTerm(NamedTuple):
    """A bucket's pole and coefficient, in the shape ``term_floors`` reads."""

    pole: complex
    coeffs: tuple[complex]


def share_floors(cls: PoleClassification) -> tuple[list[float], list[float], tuple[float, float, float]]:
    """Feasibility floors of the dominant shares, |c| per two-state real pole and one per pair, and their sums."""
    terms = [_BucketTerm(complex(lam), (c,)) for lam, c in cls.n2_poles]
    terms += [_BucketTerm(p.pole, (p.coeff,)) for p in cls.pair_assignments]
    n2, pairs = [], []
    sums = term_floors(terms, floor_units(cls), n2, pairs)
    return n2, pairs, sums


def per_pole_total(cls: PoleClassification) -> float:
    """Sum of the per-pole share floors (the tight stopping quantity)."""
    n2_sum, _, pair_sum = share_floors(cls)[2]
    return n2_sum + pair_sum


def _stop_rule(mode: str, n2_sum: float, eta_sum: float, pair_sum: float) -> tuple[float, float]:
    """``mode``'s stopping quantity and its bound, from the sums of the real floors, the pair |c| and the pair floors."""
    if mode == "per_pole":
        return n2_sum + pair_sum, 1.0 + 1e-12
    if mode == "conservative_sum":
        return n2_sum + 2.0 * eta_sum, CONSERVATIVE_LIMIT
    raise ValueError(f"unknown budget mode {mode!r}")


def budget(cls: PoleClassification, mode: str = "per_pole") -> BudgetPlan:
    """Allocate the unit dominant residue, or raise ``InsufficientBudget``.

    per_pole: each bucket gets its feasibility floor; succeeds when the
    floors total at most 1.  conservative_sum: succeeds when the plain sum
    of non-gain coefficients (pairs counted twice) is at most 2^{-5/2}, in
    which case the floors provably fit and are scaled up to spend the unit.
    """
    n2_shares, pair_shares, sums = share_floors(cls)
    total = float(sums[0] + sums[2])
    needed, limit = _stop_rule(mode, *sums)
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
