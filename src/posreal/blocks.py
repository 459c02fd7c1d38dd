"""Elementary nonnegative blocks, budget allocation, and the one stacking step.

Each block realizes its pole terms plus a share R of the dominant residue
1/(z - 1); its pole terms and share determine the cone model (F, P, g, h) it
comes from, which the tests rebuild to check F P = P A, P b = g and
c = P^T h.  A block holds the plain arrays its builder filled, unchecked.
``assemble`` writes the blocks behind the prefix's delay chain, rescaled, and
validates that output alone (``prefix_lift`` is its one-base case).  A realize
request checks the construction once, on its final Markov pass
(``check_construction``): the output's terms must match the prefix and then
the blocks' declared terms, over their first 20, to relative 1e-10; only on a
mismatch is each block compared on its own, to name it.
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
from .tf import CONSERVATIVE_LIMIT

CLAMP_WINDOW = 1e-12

# Half-width alpha of a pair block's generating cone: the widest that keeps its output
# row c_k = 1 + sqrt(2) alpha sin(phi_k + pi/4) nonnegative for every m.  The input
# (g_x, g_y, R) is in the cone iff (g_x, g_y)/(R alpha) is in the m-gon, which holds the
# disc of radius cos(pi/m); as |(g_x, g_y)| = sqrt(2) |c|, R >= 2 |c| / cos(pi/m) is
# enough, and tight: along an edge normal the disc touches the edge.
PAIR_ALPHA = 2.0**-0.5
PAIR_BUDGET_COEFF = 2.0


def _clamp(out: np.ndarray, what: str) -> None:
    """Set noise in [-1e-12, 0) of the float array ``out`` to 0, in place; NaN or +inf is refused."""
    low = out.min(initial=0.0)
    if math.isnan(low) or out.max(initial=0.0) == math.inf:
        raise ValueError(f"{what} has a non-finite entry")
    if low < 0:
        if low < -CLAMP_WINDOW:
            raise NegativeEntry(f"{what} has entry {low:.6g} below the clamp window")
        out[(out < 0)] = 0.0


@dataclass(frozen=True, eq=False)
class Realization:
    """Nonnegative triple (A, b, c); arithmetic noise in [-1e-12, 0) is clamped."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name, ndmin in (("A", 2), ("b", 1), ("c", 1)):  # each a read-only float copy, clamped
            arr = np.array(getattr(self, name), dtype=float, ndmin=ndmin)
            _clamp(arr, name)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if self.b.shape != (self.dim,) or self.c.shape != (self.dim,):
            raise ValueError("b and c must match the dimension of A")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def markov(self, K: int) -> np.ndarray:
        """First K Markov parameters c A^(k-1) b."""
        return markov(self.A, self.b, self.c, K)


@dataclass(frozen=True, eq=False)
class Block:
    """One assembled unit: read-only A, b and c (checked once assembled), target terms, dominant share, share floor."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    kind: str  # positive_pole | real_pole | complex_pair | dominant_remainder
    dominant_share: float
    pole_terms: tuple[tuple[complex, complex], ...]
    share_floor: float | None = None  # least share the builder accepts: |c| real, pair_share_floor(|c|, m) pair

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @property
    def realization(self) -> Realization:
        return Realization(self.A, self.b, self.c)


def _frozen(*arrays) -> list[np.ndarray]:
    """``arrays`` as read-only float arrays; a builder's own float array is frozen in place, not copied."""
    out = [np.asarray(x, dtype=float) for x in arrays]
    for arr in out:
        arr.setflags(write=False)
    return out


def positive_pole_block(lam: float, c: float) -> Block:
    """One state for c/(z - lam) with lam in [0, 1) and c > 0; uses no share."""
    if not (0.0 <= lam < 1.0):
        raise BadPoleBlock(f"pole {lam:.6g} outside [0, 1)")
    if not c > 0:
        raise BadPoleBlock(f"residue {c:.6g} must be positive")
    return Block(*_frozen([[lam]], [c], [1.0]), "positive_pole", 0.0, ((complex(lam), complex(c)),))


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
    hi, lo = (1.0 + lam) / 2.0, (1.0 - lam) / 2.0
    terms = ((complex(lam), complex(c)),)
    return Block(*_frozen([[hi, lo], [lo, hi]], [R + c, R - c], [1.0, 0.0]), "real_pole", float(R), terms, floor)


def _fan_weights(w: complex, verts: list[complex]) -> np.ndarray:
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
    weights = [0.0] * m
    weights[0], weights[k], weights[k + 1] = max(0.0, wa), max(0.0, wb), max(0.0, wc)  # -0.0 becomes 0.0
    return np.array(weights)


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

    cos_sin = [(math.cos(phi), math.sin(phi)) for phi in (2.0 * math.pi * k / m for k in range(m))]
    verts = [complex(x, y) for x, y in cos_sin]  # e^(i phi), as cmath.exp gives it, bit for bit
    idx = np.arange(m)
    A = _fan_weights(pole, verts)[idx[:, None] - idx]  # a negative index wraps: (j - k) mod m

    g = complex(coeff.real - coeff.imag, coeff.real + coeff.imag)
    b = R * _fan_weights(g / (R * PAIR_ALPHA), verts)
    c = [PAIR_ALPHA * x + PAIR_ALPHA * y + 1.0 for x, y in cos_sin]
    pole_terms = ((pole, coeff), (pole.conjugate(), coeff.conjugate()))
    return Block(*_frozen(A, b, c), "complex_pair", float(R), pole_terms, floor)


def dominant_remainder_block(R: float) -> Block:
    """One state carrying an unconsumed dominant share R/(z - 1)."""
    if R < 0:
        raise LeftoverNegative(f"remainder share {R:.6g} is negative")
    return Block(*_frozen([[1.0]], [R], [1.0]), "dominant_remainder", float(R), ())


@dataclass(frozen=True)
class BudgetPlan:
    """Dominant-residue shares allocated to the classified pole buckets."""

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


def term_floors(poles, coeffs, units: dict[complex, float], n2=None, pairs=None) -> tuple[float, float, float]:
    """The sums of the floored terms' real floors, pair |c| and pair floors, added left to right in one pass.

    A floor is |c| times the pole's unit from ``floor_units`` (|Re c| for a
    real pole), with c the pole's order-1 coefficient in ``coeffs``.  Poles
    without a unit, and coefficients that reached zero, carry no floor and are
    skipped.  Each real or pair floor is also appended to ``n2`` or ``pairs`` when given.
    """
    n2_sum = eta_sum = pair_sum = 0
    for pole, c in zip(poles, coeffs):
        unit = units.get(pole)
        if unit is None or c == 0:
            continue
        if pole.imag:
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


def share_floors(cls: PoleClassification) -> tuple[list[float], list[float], tuple[float, float, float]]:
    """Feasibility floors of the dominant shares, |c| per two-state real pole and one per pair, and their sums."""
    poles = [lam for lam, _ in cls.n2_poles] + [p.pole for p in cls.pair_assignments]
    coeffs = [c for _, c in cls.n2_poles] + [p.coeff for p in cls.pair_assignments]
    n2, pairs = [], []
    sums = term_floors(poles, coeffs, floor_units(cls), n2, pairs)
    return n2, pairs, sums


def per_pole_total(cls: PoleClassification) -> float:
    """Sum of the per-pole share floors (the tight stopping quantity)."""
    return _stop_rule("per_pole", *share_floors(cls)[2])[0]


def _stop_rule(mode: str, n2_sum: float, eta_sum: float, pair_sum: float) -> tuple[float, float]:
    """``mode``'s stopping quantity and its bound, from the sums of the real floors, the pair |c| and the pair floors."""
    if mode == "per_pole":
        return n2_sum + pair_sum, 1.0 + 1e-12
    if mode == "conservative_sum":
        return n2_sum + 2.0 * eta_sum, CONSERVATIVE_LIMIT
    raise ValueError(f"unknown stopping rule {mode!r}")


def budget(cls: PoleClassification) -> BudgetPlan:
    """Give each two-state real pole and pair its share floor; ``InsufficientBudget`` if they exceed the unit.

    A stop by either rule passes, since a sum-rule stop is a per-pole stop.
    """
    n2_shares, pair_shares, sums = share_floors(cls)
    needed, limit = _stop_rule("per_pole", *sums)
    if needed > limit:
        raise InsufficientBudget(needed, limit)
    return BudgetPlan(cls, tuple(n2_shares), tuple(pair_shares), float(needed), max(0.0, 1.0 - needed))


def assemble(blocks, prefix=(), gamma: float = 1.0, lam0: float = 1.0) -> Realization:
    """The blocks stacked block-diagonally in the order given, behind a delay chain for ``prefix``.

    The chain outputs ``prefix`` = t_1 ... t_{m-1} and feeds the stack's input vector; then A is
    scaled by ``lam0`` and b by ``gamma``, so the Markov sequence is exactly gamma lam0^(k-1) times
    prefix ++ stack sequence.  The stack is clamped before scaling and only the output is validated
    (an overflow is refused with ``ValueError``); a request checks it on its final pass (``check_construction``).
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("nothing to assemble")
    pre = np.asarray(prefix, dtype=float).reshape(-1)
    chain = pre.size
    n = chain + sum(blk.dim for blk in blocks)
    flat = np.zeros(n * n + 2 * n)  # A, b and c in one buffer, so two reductions read every entry
    A, b, c = flat[: n * n].reshape(n, n), flat[n * n : -n], flat[-n:]
    at = chain
    for blk in blocks:
        d = blk.dim
        A[at : at + d, at : at + d] = blk.A
        b[at : at + d] = blk.b
        c[at : at + d] = blk.c
        at += d
    if not (flat.min() >= 0 and flat.max() < math.inf):  # clamp or refuse the stack as one triple
        for name, arr in (("A", A[chain:, chain:]), ("b", b[chain:]), ("c", c[chain:])):
            _clamp(arr, name)
    if pre.min(initial=0.0) < 0:
        raise NegativePrefix(f"prefix entry {pre.min():.6g} is negative")
    c[:chain] = pre
    if chain:
        np.fill_diagonal(A[1:chain], 1.0)
        A[chain:, chain - 1] = b[chain:]
        b = np.eye(1, n)[0]
    with np.errstate(over="ignore"):  # an overflow is refused below
        A *= lam0
        b *= gamma
    try:
        return Realization(A, b, c)
    except ValueError:  # a non-finite entry: the prefix's, or the rescale's overflow
        if np.isfinite(A).all() and np.isfinite(b).all():
            raise
        raise ValueError("base overflows when rescaled to the input's scale") from None


# A realize request's output must match what it built to this error relative to 1 + |target|,
# over the prefix and each block's first CONSTRUCTION_TERMS Markov parameters.
CONSTRUCTION_TERMS, CONSTRUCTION_RTOL = 20, 1e-10


def _declared_terms(blocks, K: int) -> np.ndarray:
    """The first K Markov parameters the blocks are built to sum to: their shares plus sum coeff * pole^k."""
    terms = [term for blk in blocks for term in blk.pole_terms] or [(0j, 0j)]  # a zero term when none
    poles, coeffs = np.array(terms).T
    return sum(blk.dominant_share for blk in blocks) + (poles ** np.arange(K)[:, None] @ coeffs).real


def check_construction(blocks, prefix, terms) -> None:
    """Compare a request's normalized output ``terms`` with ``prefix`` and then the stack's declared terms.

    The final pass's terms must match to relative ``CONSTRUCTION_RTOL``.  On a mismatch, or
    when ``terms`` stops short (a short verification horizon, or none), each block's own
    terms are compared the same way, and ``InternalCheckError`` names the first failing
    block in stack order; a mismatch no block shows is reported at its term.
    """
    want = np.concatenate([prefix, _declared_terms(blocks, CONSTRUCTION_TERMS)])
    got = np.asarray(terms, dtype=float)[: want.size]
    if got.size == want.size and (np.abs(got - want) <= CONSTRUCTION_RTOL * (1.0 + np.abs(want))).all():
        return  # the declared terms are finite, so a non-finite term fails here without a warning
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite error fails below
        for blk in blocks:
            own = _declared_terms([blk], CONSTRUCTION_TERMS)
            worst = np.max(np.abs(markov(blk.A, blk.b, blk.c, CONSTRUCTION_TERMS) - own) / (1.0 + np.abs(own)))
            if not worst <= CONSTRUCTION_RTOL:
                raise InternalCheckError(
                    f"{blk.kind} block failed the construction check (relative error {worst:.3g})"
                )
        err = np.abs(got - want[: got.size]) / (1.0 + np.abs(want[: got.size]))
    if not (err <= CONSTRUCTION_RTOL).all():
        k = int(np.argmin(err <= CONSTRUCTION_RTOL))
        raise InternalCheckError(
            f"realization differs from its construction at Markov term {k + 1} (relative error {err[k]:.3g})"
        )


def prefix_lift(base: Realization, prefix, gamma: float = 1.0, lam0: float = 1.0) -> Realization:
    """``assemble`` with ``base`` as its one block; no prefix and gamma = lam0 = 1 give ``base`` itself."""
    if not np.size(prefix) and gamma == lam0 == 1.0:
        return base
    return assemble([base], prefix, gamma, lam0)
