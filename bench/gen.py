"""Seeded input generators that carry their own ground truth.

Every input is built from its modal form

    t_k = gamma * lam0**(k-1) * (1 + sum_j c~_j * mu_j**(k-1)),

(normalized poles mu_j = lam_j / lam0, normalized residues c~_j = c_j / gamma),
so the expected outcome of a request follows from that closed form alone.
This module uses only the standard library: no numpy and no posreal, so it
never asks the program under test which inputs to keep.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

# Normalized impulse values closer to zero than this are never produced as
# "positive" inputs; the expected status is then unambiguous.
POSITIVE_MARGIN = 0.02


@dataclass(frozen=True)
class System:
    """A primitive transfer function in modal form, with its expected outcome."""

    gamma: float
    lam0: float
    terms: tuple[tuple[complex, complex], ...]  # (mu, c~), conjugate pairs both listed
    expect: str  # "realized" or "no_positive_realization"
    witness: int | None  # first k with a negative impulse value

    @property
    def degree(self) -> int:
        return 1 + len(self.terms)

    def normalized_response(self, K: int) -> list[float]:
        """t~_1 .. t~_K from the modal closed form."""
        out = []
        powers = [1.0 + 0j] * len(self.terms)
        for _ in range(K):
            acc = 1.0 + 0j
            for i, (mu, c) in enumerate(self.terms):
                acc += c * powers[i]
                powers[i] *= mu
            out.append(acc.real)
        return out

    def poles(self) -> list[complex]:
        return [complex(self.lam0)] + [mu * self.lam0 for mu, _ in self.terms]

    def residues(self) -> list[complex]:
        return [complex(self.gamma)] + [c * self.gamma for _, c in self.terms]

    def coefficients(self) -> tuple[list[float], list[float]]:
        """Ascending (num, den) of sum_j r_j / (z - p_j), den monic."""
        poles = self.poles()
        res = self.residues()
        den = _poly_from_roots(poles)
        num = [0j] * (len(poles))
        for j, r in enumerate(res):
            rest = _poly_from_roots(poles[:j] + poles[j + 1 :])
            for i, v in enumerate(rest):
                num[i] += r * v
        return [v.real for v in num], [v.real for v in den]

    def partial_fraction_doc(self) -> dict:
        """The ``partial_fractions`` block of a problem file."""
        return {
            "dominant": {"pole": self.lam0, "residue": self.gamma},
            "terms": [
                {"pole": _cdoc(mu * self.lam0), "order": 1, "coeffs": [_cdoc(c * self.gamma)]}
                for mu, c in self.terms
            ],
        }


@dataclass(frozen=True)
class ZeroFamily:
    """t~_k = 1 - a p^(k-1) + b q^(k-1) with t~_(N-1) = t~_N = 0."""

    N: int
    p: float
    q: float
    system: System

    @property
    def k0(self) -> int:
        return self.N

    @property
    def zero_indices(self) -> tuple[int, ...]:
        return (self.N - 1, self.N)

    @property
    def theo2(self) -> int:
        # ceil(k0 / (n - 1)) with McMillan degree n = 3, both poles positive real
        return -(-self.N // 2)

    @property
    def mn2(self) -> int:
        M = 1
        while M * (M + 1) // 2 - 1 + M * M < self.N:
            M += 1
        return M


def _cdoc(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _poly_from_roots(roots) -> list[complex]:
    out = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i] -= r * v
            nxt[i + 1] += v
        out = nxt
    return out


def _tail_min(terms, tiny: float = 1e-12) -> float:
    """min over k of e_k = sum c mu^(k-1).

    The scan stops once sum |c| |mu|^(k-1) is below ``tiny`` (or far below
    the minimum so far), past which e_k cannot go meaningfully lower.
    """
    powers = [1.0 + 0j] * len(terms)
    lo = math.inf
    while True:
        e = 0.0
        env = 0.0
        for i, (mu, c) in enumerate(terms):
            e += (c * powers[i]).real
            env += abs(c) * abs(powers[i])
            powers[i] *= mu
        lo = min(lo, e)
        if env < tiny or env < -lo * 1e-9:
            return lo


def _first_negative(terms, scale: float) -> int:
    powers = [1.0 + 0j] * len(terms)
    k = 1
    while True:
        e = 0.0
        for i, (mu, c) in enumerate(terms):
            e += (c * powers[i]).real
            powers[i] *= mu
        if 1.0 + scale * e < 0:
            return k
        k += 1


def _scaled_system(rng, terms, target_sum: float, negative: bool) -> System:
    """Scale raw residues so the impulse response is positive (or is not).

    Positive inputs take the smaller of ``target_sum`` (the sum of |c~|) and
    the largest scale that keeps every normalized impulse value at least
    POSITIVE_MARGIN.  Negative inputs are scaled until the lowest value is
    -delta with delta in [0.05, 0.3].
    """
    lo = _tail_min(terms)
    raw = sum(abs(c) for _, c in terms)
    if negative and lo >= 0:  # the response never dips: flip every residue
        terms = [(mu, -c) for mu, c in terms]
        lo = _tail_min(terms)
    if negative:
        delta = rng.uniform(0.05, 0.3)
        scale = (1.0 + delta) / -lo
    else:
        scale = target_sum / raw
        if lo < 0:
            scale = min(scale, (1.0 - POSITIVE_MARGIN) / -lo)
    scaled = tuple((mu, c * scale) for mu, c in terms)
    gamma = rng.uniform(0.5, 2.0)
    lam0 = rng.uniform(0.5, 2.0)
    if negative:
        return System(gamma, lam0, scaled, "no_positive_realization", _first_negative(terms, scale))
    return System(gamma, lam0, scaled, "realized", None)


def _separated(z: complex, taken: list[complex], gap: float) -> bool:
    return all(abs(z - w) >= gap and abs(z - w.conjugate()) >= gap for w in taken)


def _draw(rng, taken, gap, sampler) -> complex:
    while True:
        z = sampler()
        if _separated(z, taken, gap) and (z.imag == 0 or abs(z.imag) >= gap / 2):
            taken.append(z)
            return z


def _polar(rho: float, theta: float) -> complex:
    return cmath.rect(rho, theta)


def _pair_terms(mu: complex, c: complex):
    return ((mu, c), (mu.conjugate(), c.conjugate()))


# ---------------------------------------------------------------------------
# workloads


def synth_wide(seed: int, size: int) -> list[System]:
    """McMillan degree 12..24, simple well-separated mixed poles, |mu| <= 0.9.

    Degrees cycle through 12..24 so every corpus covers the range evenly;
    every fifth input is built with a negative impulse value.
    """
    rng = random.Random(f"synth_wide:{seed}")
    out = []
    for i in range(size):
        degree = 12 + i % 13
        negative = i % 5 == 4
        n = degree - 1
        # at most 8 poles on each real half-axis, so the gaps always fit
        pairs = rng.randint(max(1, (n - 15) // 2), (n - 2) // 2)
        reals = n - 2 * pairs
        n_pos = rng.randint(max(1, reals - 8), min(8, reals - 1))
        taken: list[complex] = []
        terms: list[tuple[complex, complex]] = []
        for _ in range(n_pos):
            mu = _draw(rng, taken, 0.05, lambda: complex(rng.uniform(0.05, 0.9), 0.0))
            terms.append((mu, complex(rng.uniform(-1.0, 1.0))))
        for _ in range(reals - n_pos):
            mu = _draw(rng, taken, 0.05, lambda: complex(rng.uniform(-0.9, -0.05), 0.0))
            terms.append((mu, complex(rng.uniform(-1.0, 1.0))))
        for _ in range(pairs):
            mu = _draw(
                rng, taken, 0.08,
                lambda: _polar(rng.uniform(0.2, 0.9), rng.uniform(0.2, math.pi - 0.2)),
            )
            c = _polar(rng.uniform(0.2, 1.0), rng.uniform(-math.pi, math.pi))
            terms.extend(_pair_terms(mu, c))
        out.append(_scaled_system(rng, terms, rng.uniform(0.3, 1.0), negative))
    return out


def _strata(rng, size: int, dims: int) -> list[list[float]]:
    """Latin hypercube: per dimension, one uniform draw from each of ``size`` equal slices."""
    cols = []
    for _ in range(dims):
        perm = list(range(size))
        rng.shuffle(perm)
        cols.append([(perm[i] + rng.random()) / size for i in range(size)])
    return [[col[i] for col in cols] for i in range(size)]


def synth_deep(seed: int, size: int) -> list[System]:
    """A conjugate pair and a negative real pole at modulus 0.9..0.985.

    The non-dominant part has degree 3, 4 or 5 (cycling); the extra poles
    are real.  Pole moduli, the pair's angle and residue phase, and the
    residue sizes are drawn by Latin hypercube, so every corpus spans the
    same ranges evenly.
    Residues are O(1): the largest scale that keeps every normalized impulse
    value at least POSITIVE_MARGIN, so the shift loop runs long and the
    polygons are large.
    """
    rng = random.Random(f"synth_deep:{seed}")
    out = []
    for i, (u_rho, u_theta, u_nu, u_c, u_phase, u_d) in enumerate(_strata(rng, size, 6)):
        taken = [
            _polar(0.9 + 0.085 * u_rho, 0.05 + 0.55 * u_theta),
            complex(-(0.9 + 0.085 * u_nu), 0.0),
        ]
        terms = list(_pair_terms(taken[0], _polar(0.5 + u_c, math.pi * (2 * u_phase - 1))))
        terms.append((taken[1], complex(2 * u_d - 1 + math.copysign(0.5, u_d - 0.5))))
        for _ in range(i % 3):
            x = _draw(rng, taken, 0.05, lambda: complex(rng.uniform(-0.8, 0.8), 0.0))
            terms.append((x, complex(rng.uniform(-1.0, 1.0))))
        out.append(_scaled_system(rng, terms, math.inf, False))
    return out


HN_P, HN_Q = 0.4, 0.2
ZERO_N = tuple(range(4, 17))


def zero_family(N: int, p: float, q: float, gamma: float = 1.0, lam0: float = 1.0) -> ZeroFamily:
    """Solve a p^(N-2) - b q^(N-2) = 1 = a p^(N-1) - b q^(N-1)."""
    a = (1.0 - q) / ((p - q) * p ** (N - 2))
    b = (1.0 - p) / ((p - q) * q ** (N - 2))
    terms = ((complex(p), complex(-a)), (complex(q), complex(b)))
    return ZeroFamily(N, p, q, System(gamma, lam0, terms, "realized", None))


def bounds_zeros(seed: int, size: int) -> list[ZeroFamily]:
    """The zero-pattern family for N = 4..16, alternating H^N and random (p, q).

    Even positions are H^N itself (p = 0.4, q = 0.2, unit gain and pole);
    odd positions draw p and q by Latin hypercube within each N, and a
    random gain and dominant pole.
    """
    rng = random.Random(f"bounds_zeros:{seed}")
    reps = -(-size // (2 * len(ZERO_N)))
    strata = {N: _strata(rng, reps, 2) for N in ZERO_N}  # (p, q) per N, Latin hypercube
    out = []
    for i in range(size):
        N = ZERO_N[(i // 2) % len(ZERO_N)]
        if i % 2 == 0:
            out.append(zero_family(N, HN_P, HN_Q))
        else:
            out.append(random_zero_family(rng, N, *strata[N][i // (2 * len(ZERO_N))]))
    return out


def random_zero_family(rng, N: int, u_p: float, u_q: float) -> ZeroFamily:
    """p in [0.3, 0.7], q in [0.1, p - 0.1], random gain and dominant pole."""
    p = 0.3 + 0.4 * u_p
    q = 0.1 + (p - 0.2) * u_q
    return zero_family(N, p, q, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
