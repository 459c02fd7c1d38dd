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

import numpy as np

from .errors import NonpositiveDominantResidue, NotApplicable, PosrealError
from .tf import PartialFraction, TransferFunction, _normalized_impulse, _zero_band, expand, normalize

_HORIZON_GUARD = 1_000_000


@dataclass(frozen=True)
class BoundsReport:
    k0: int
    zero_indices: tuple[int, ...]
    theo2: int | None  # linear bound, cone-generated realizations, positive real poles
    mn2: int | None  # quadratic bound, needs two consecutive zeros
    horizon_used: int


def _envelope(pf: PartialFraction, k: int) -> float:
    total = 0.0
    for term in pf.terms:
        mod = abs(term.pole)
        total += abs(term.coeffs[0]) * mod ** (k - 1)  # binom(k-1, 0) = 1
        for i, c in enumerate(term.coeffs[1:k], start=2):
            total += abs(c) * math.comb(k - 1, i - 1) * mod ** (k - i)
    return total


def _envelope_decreasing(pf: PartialFraction, k: int) -> bool:
    for term in pf.terms:
        mod = abs(term.pole)
        for i in range(1, term.order + 1):
            if k < i:
                return False
            if mod * k / (k + 1 - i) > 1.0:
                return False
    return True


def positivity_horizon(pf: PartialFraction) -> int:
    """Smallest k past which t_k > 0 is certified for a normalized function.

    t_k is at least 1 minus the envelope sum |c| * binom(k-1, i-1) *
    |lam|^(k-i); once that drops below one and keeps shrinking, the tail is
    positive.
    """
    if not pf.is_normalized:
        raise ValueError("positivity horizon requires a normalized partial fraction")
    k = 1
    while True:
        if _envelope(pf, k) < 1.0 and _envelope_decreasing(pf, k):
            return k
        k += 1
        if k > _HORIZON_GUARD:
            raise PosrealError("positivity horizon search exhausted")


def _certified_scan(tf: TransferFunction, pf: PartialFraction):
    """Normalized impulse values t~ up to the certified horizon, and the horizon.

    ``pf`` is the expansion of ``tf``, with dominant term g/(z - l0); t~_k =
    t_k / (s l0^(k-1)) below the positivity horizon of the s-scaled terms,
    s = g for g > 0.  For g < 0, s = |g|/2 gives t~_k <= -2 + envelope(k) <
    -1 at the horizon, so a witness (``NegativeImpulse``) is found unless
    rounding hides it, and then ``NonpositiveDominantResidue`` says so.
    """
    gamma = pf.dominant_residue
    npf = normalize(pf if gamma > 0 else replace(pf, dominant_residue=-gamma / 2))
    horizon = positivity_horizon(npf)
    tnorm = _normalized_impulse(tf, npf, horizon)
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
    tnorm, horizon = _certified_scan(tf, pf)
    zeros = tuple(int(i) + 1 for i in np.nonzero(np.abs(tnorm) <= _zero_band(tnorm[0]))[0])
    k0 = max(zeros) if zeros else 0
    try:
        theo2 = cone_order_bound(pf, k0)
    except NotApplicable:
        theo2 = None
    mn2 = quadratic_order_bound(k0) if (k0 >= 2 and (k0 - 1) in zeros) else None
    return BoundsReport(k0, zeros, theo2, mn2, horizon)
