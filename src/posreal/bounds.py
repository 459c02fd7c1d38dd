"""Lower bounds on the order of positive realizations, from impulse zeros.

Both bounds need the largest index k0 with t_{k0} = 0 followed by strictly
positive values.  ``bounds_report`` certifies the scan horizon: beyond the
point where the non-dominant terms are enveloped below the unit dominant
contribution, every impulse value has the sign of the dominant residue.  The
same scan finds the realizer's witness when that residue is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

from .errors import NonpositiveDominantResidue, NotApplicable, PosrealError
from .tf import PartialFraction, TransferFunction, _require_normalized, _walk, _zero_band, expand, normalize

_HORIZON_GUARD = 1_000_000


@dataclass(frozen=True)
class BoundsReport:
    k0: int
    zero_indices: tuple[int, ...]
    theo2: int | None  # linear bound, cone-generated realizations, positive real poles
    mn2: int | None  # quadratic bound, needs two consecutive zeros
    horizon_used: int


def _envelope_terms(pf: PartialFraction) -> list[tuple[float, float, tuple[float, ...]]]:
    """Each term's |lam|, |c^(1)| and |c^(2)|, |c^(3)|, ...: what the envelope reads at every k."""
    return [(abs(t.pole), abs(t.coeffs[0]), tuple(map(abs, t.coeffs[1:]))) for t in pf.terms]


def _envelope(terms, k: int) -> float:
    total = 0.0
    for mod, first, higher in terms:
        total += first * mod ** (k - 1)  # binom(k-1, 0) = 1
        if higher:  # an order-1 term has no binomial terms
            for i, c in enumerate(higher[: k - 1], start=2):
                total += c * math.comb(k - 1, i - 1) * mod ** (k - i)
    return total


def _envelope_decreasing(terms, k: int) -> bool:
    for mod, _, higher in terms:
        for i in range(1, len(higher) + 2):  # i = 1 .. order
            if k < i or mod * k / (k + 1 - i) > 1.0:
                return False
    return True


def positivity_horizon(pf: PartialFraction) -> int:
    """Smallest k past which t_k > 0 is certified for a normalized function.

    t_k is at least 1 minus the envelope sum |c| * binom(k-1, i-1) *
    |lam|^(k-i); once that drops below one and keeps shrinking, the tail is
    positive.
    """
    _require_normalized(pf)
    terms = _envelope_terms(pf)
    for k in range(1, _HORIZON_GUARD + 1):
        if _envelope(terms, k) < 1.0 and _envelope_decreasing(terms, k):
            return k
    raise PosrealError("positivity horizon search exhausted")


def _certified_scan(pf: PartialFraction):
    """Normalized impulse values t~ up to the certified horizon, and the horizon.

    ``pf`` is an expansion with dominant term g/(z - l0); t~_k = t_k / (s l0^(k-1))
    come from ``_walk`` below the positivity horizon of the s-scaled terms, s = g
    for g > 0.  For g < 0, s = |g|/2 makes the dominant part -2, so t~_k <= -2 +
    envelope(k) < -1 at the horizon: a witness (``NegativeImpulse``) is found unless
    rounding hides it, and then ``NonpositiveDominantResidue`` says so.
    """
    gamma = pf.dominant_residue
    npf = normalize(pf if gamma > 0 else replace(pf, dominant_residue=-gamma / 2))
    horizon = positivity_horizon(npf)
    walk = _walk(npf if gamma > 0 else replace(npf, dominant_residue=-2.0))
    tnorm = [t for t, _, _ in islice(walk, horizon)]
    if gamma < 0:
        raise NonpositiveDominantResidue(
            f"dominant residue {gamma:.6g} is not positive; no impulse value up to "
            f"the certified horizon {horizon} is below the rounding tolerance"
        )
    return tnorm, horizon


def zero_pattern(tf: TransferFunction):
    """The impulse zeros (k0, zero_indices, horizon_used) of ``bounds_report``, which expands ``tf`` once."""
    report = bounds_report(tf)
    return report.k0, report.zero_indices, report.horizon_used


def cone_order_bound(pf: PartialFraction, k0: int) -> int:
    """Lower bound ceil(k0 / (n-1)) on cone-generated realization order.

    Valid when every non-dominant pole is strictly positive real (any
    orders); each factor row can vanish at most n-1 times, while the first
    k0 Hankel columns each force a zero.
    """
    if not pf.terms:
        raise NotApplicable("no non-dominant poles")
    for term in pf.terms:
        if term.pole.imag != 0 or term.pole.real <= 0:
            raise NotApplicable("all non-dominant poles must be positive real")
    if k0 <= 0:
        return 1
    n = pf.mcmillan_degree
    return max(1, math.ceil(k0 / (n - 1)))


def quadratic_order_bound(N: int) -> int:
    """Smallest M with M(M+1)/2 - 1 + M^2 >= N (about sqrt(2N/3))."""
    if N < 1:
        raise ValueError("N must be positive")
    M = 1
    while M * (M + 1) // 2 - 1 + M * M < N:
        M += 1
    return M


def bounds_report(tf: TransferFunction) -> BoundsReport:
    """Zero pattern plus whichever lower bounds apply, from one expansion of ``tf``.

    The certified scan and ``cone_order_bound`` both read it.  The zeros are the
    t~_k within the zero band; a negative t~_k raises as ``_certified_scan`` says.
    """
    pf = expand(tf)
    tnorm, horizon = _certified_scan(pf)
    band = _zero_band(tnorm[0])
    zeros = tuple(k for k, t in enumerate(tnorm, start=1) if abs(t) <= band)
    k0 = max(zeros) if zeros else 0
    try:
        theo2 = cone_order_bound(pf, k0)
    except NotApplicable:
        theo2 = None
    mn2 = quadratic_order_bound(k0) if (k0 >= 2 and (k0 - 1) in zeros) else None
    return BoundsReport(k0, zeros, theo2, mn2, horizon)
