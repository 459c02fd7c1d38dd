"""Transfer-function algebra for strictly proper SISO systems.

Everything downstream works on the partial-fraction form

    H(z) = g/(z - l0) + sum_j sum_i c_j^(i) / (z - lam_j)^i,

with a unique dominant pole l0 of maximal modulus. ``normalize`` rescales
the variable and the gain so that the dominant term becomes exactly
1/(z - 1); ``shift_once`` removes the leading impulse value, mapping the
tail t_2, t_3, ... back onto the same form with contracted coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass, field, replace
from itertools import count

import numpy as np

from .errors import (
    ExpansionFailed,
    MultiplePoleUnsupported,
    NegativeImpulse,
    NonpositiveDominantResidue,
    NotCoprime,
    NotPrimitive,
    NotStrictlyProper,
    ZeroDenominator,
)

# Conjugate pairing and dominance ties are resolved at relative 1e-9; the
# expansion must reproduce the input at relative 1e-8 on a test circle.
PAIR_RTOL = 1e-9
DOMINANCE_RTOL = 1e-9
RECONSTRUCT_RTOL = 1e-8
_CIRCLE = np.exp(2j * np.pi * np.arange(32) / 32)  # the test circle's 32 directions
_CIRCLE_POWERS = _CIRCLE[np.outer(np.arange(32), np.arange(32)) % 32]  # [j, k]: direction j to the power k

# The sum rule stops once the plain sum of the non-gain |c| (pairs twice) is at most
# this: a pair's floor is at most 4 |c| (m = 3), so the floors total at most twice it.
CONSERVATIVE_LIMIT = 0.5

# Root clusters are formed at increasing radii until the reconstruction
# check passes; the first rung keeps well-separated simple poles intact,
# the later rungs absorb the eigenvalue splitting of multiple roots.
_CLUSTER_LADDER = (1e-9, 1e-7, 1e-5, 1e-3)

# Newton stops once a step is this small relative to the iterate (rounding level).
_STEP_RTOL = 4 * np.finfo(float).eps


class _RetryExpansion(Exception):
    """Internal: current cluster radius produced an inconsistent expansion."""


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with coefficients in ascending powers."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            raise ValueError("empty coefficient list (the zero polynomial is [0])")
        if not all(math.isfinite(c) for c in cs):
            raise ValueError("non-finite polynomial coefficient")
        if len(cs) > 1 and cs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        acc = z * 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


@dataclass(frozen=True)
class TransferFunction:
    """Strictly proper rational function with a monic denominator.

    ``roots`` (read-only) holds the poles, found once here; the coprimality test and ``expand`` read
    them: the companion eigenvalues of ``den``, or, for the partial fraction ``recombine`` passes as
    ``_given`` (kept as ``_expansion``), its poles by increasing modulus (real when all are), with no solve.
    """

    num: Polynomial
    den: Polynomial
    _given: InitVar[PartialFraction | None] = field(default=None, kw_only=True)
    roots: np.ndarray = field(init=False, repr=False, compare=False)
    _expansion: PartialFraction | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, _given):
        if self.den.degree < 1:
            raise NotStrictlyProper("denominator must have degree at least 1")
        if self.den.coeffs[-1] != 1.0:
            raise ValueError("denominator must be monic")
        if self.num.degree >= self.den.degree:
            raise NotStrictlyProper("numerator degree must be below denominator degree")
        if _given is None:
            roots = companion_roots(self.den.coeffs)
        else:
            poles = sorted([complex(_given.dominant_pole), *(t.pole for t in _given.terms)], key=abs)
            roots = np.array(poles if any(z.imag for z in poles) else [z.real for z in poles])
            object.__setattr__(self, "_expansion", _given)
        roots.setflags(write=False)
        object.__setattr__(self, "roots", roots)

    @property
    def mcmillan_degree(self) -> int:
        return self.den.degree

    def __call__(self, z):
        return self.num(z) / self.den(z)


@dataclass(frozen=True)
class PoleTerm:
    """One pole with its chain of coefficients c^(1) ... c^(order)."""

    pole: complex
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = tuple(map(complex, self.coeffs))
        if not cs:
            raise ValueError("pole term needs at least one coefficient")
        if cs[-1] == 0:
            raise ValueError("top coefficient of a pole term must be nonzero")
        object.__setattr__(self, "pole", complex(self.pole))
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class PartialFraction:
    """Dominant term plus the list of contracted pole terms.

    ``scale_gamma`` and ``pole_scale`` record the gain and variable scalings
    applied by ``normalize`` so the original function can be recovered.
    """

    dominant_pole: float
    dominant_residue: float
    terms: tuple[PoleTerm, ...]
    scale_gamma: float = 1.0
    pole_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def mcmillan_degree(self) -> int:
        return 1 + sum(t.order for t in self.terms)

    @property
    def is_normalized(self) -> bool:
        return (
            abs(self.dominant_pole - 1.0) <= 1e-12
            and abs(self.dominant_residue - 1.0) <= 1e-12
        )

    def evaluate(self, z):
        """Value at z (a scalar or an array): every c / (z - pole)^i in one broadcast, added left to right."""
        rows = ((t.pole, c, i) for t in self.terms for i, c in enumerate(t.coeffs, start=1))
        poles, coeffs, powers = map(np.array, zip((self.dominant_pole, self.dominant_residue, 1), *rows))
        return np.cumsum(coeffs / (np.asarray(z)[..., None] - poles) ** powers, axis=-1)[..., -1]


def _trimmed(values) -> tuple:
    cs = list(values)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def companion_roots(monic_coeffs) -> np.ndarray:
    """Eigenvalues of the companion matrix of a monic ascending polynomial."""
    coeffs = np.asarray(monic_coeffs, dtype=float)
    n = len(coeffs) - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    comp = np.eye(n, k=-1)
    comp[:, -1] = -coeffs[:-1]
    return np.linalg.eigvals(comp)


def from_coefficients(num, den, *, _given: PartialFraction | None = None) -> TransferFunction:
    """Build a validated transfer function from ascending coefficient lists.

    The denominator is rescaled to monic form (the numerator is divided by
    the same factor, so the function is unchanged) and near-common factors
    are rejected at its ``roots``, once per conjugate pair (only ``recombine`` passes ``_given``).
    """
    den_c = _trimmed(map(float, den))
    if not den_c:
        raise ZeroDenominator("denominator is identically zero")
    num_c = _trimmed(map(float, num)) or (0.0,)
    if len(num_c) >= len(den_c):
        raise NotStrictlyProper(
            f"numerator degree {len(num_c) - 1} not below denominator degree {len(den_c) - 1}"
        )
    if num_c == (0.0,):
        raise NotCoprime("zero numerator has no poles in common position")
    lead = den_c[-1]
    num_c = tuple(c / lead for c in num_c)
    den_c = tuple(c / lead for c in den_c[:-1]) + (1.0,)
    tf = TransferFunction(Polynomial(num_c), Polynomial(den_c), _given=_given)
    _reject_common_roots(tf)
    return tf


def _reject_common_roots(tf: TransferFunction) -> None:
    # Resultant-style test (the resultant is the product of num over den's roots): |num(r)| / sum |num_i| |r|^i
    # by Horner on plain floats, a ratio that keeps abs() in range (a scale past it flags r).  A pair is tested at
    # its upper member, first in ``roots``: the lower one's Horner value is the conjugate, bit for bit.
    cs = tf.num.coeffs[::-1]
    for r in (r for r in tf.roots.tolist() if r.imag >= 0):
        value, scale, size = 0.0, 0.0, abs(r)
        for c in cs:
            value, scale = value * r + c, scale * size + abs(c)
        if abs(value / (scale + 1e-300)) <= 1e-9:
            raise NotCoprime(f"numerator vanishes at denominator root {r:.12g}")


# ---------------------------------------------------------------------------
# partial-fraction expansion


def _cluster_indices(roots: np.ndarray, radius: float) -> list[list[int]]:
    """Index groups of the roots linked by chains of steps within ``radius``, each in index order."""
    reach = np.abs(roots[:, None] - roots[None, :]) <= radius
    if np.count_nonzero(reach) > len(roots):  # some pair is close: close the relation by squaring
        for _ in range(len(roots).bit_length()):
            reach = (reach.astype(float) @ reach) > 0
    groups: dict[int, list[int]] = {}  # keyed by each component's first index
    for i, first in enumerate(reach.argmax(axis=1).tolist()):
        groups.setdefault(first, []).append(i)
    return list(groups.values())


def _polyder(coeffs: np.ndarray) -> np.ndarray:
    return coeffs[1:] * np.arange(1, len(coeffs))


def _horner(poly: list, z):
    """Value at z of a polynomial given by its coefficients in descending powers."""
    acc = 0.0
    for c in poly:
        acc = acc * z + c
    return acc


def _newton_polys(coeffs, mult: int) -> tuple[list, list]:
    """Descending coefficients of the (mult-1)-th derivative, where a root of
    multiplicity mult is simple, and of the derivative after it."""
    d = np.asarray(coeffs, dtype=float)
    for _ in range(mult - 1):
        d = _polyder(d)
    dp = _polyder(d)
    return d[::-1].tolist(), dp[::-1].tolist()


def _refine_root(polys: tuple[list, list], z0: complex) -> complex:
    """Newton on the polynomial pair (d, d') from ``_newton_polys``.

    Scalar Horner (floats for a real start); each step reuses the previous
    value.  Stops at the first of: |step| <= 4 eps |z|; a |step| no smaller
    than the one before (past the rounding floor of d the steps are noise,
    while a linearly converging step still shrinks); 12 steps.  Returns the
    iterate with the smallest residual.
    """
    d, dp = polys
    z = z0.real if z0.imag == 0 else complex(z0)
    f = _horner(d, z)
    best, best_val = z, abs(f)
    last_step = math.inf
    for _ in range(12):
        fp = _horner(dp, z)
        if fp == 0:
            break
        step = f / fp
        z = z - step
        f = _horner(d, z)
        if abs(f) < best_val:
            best, best_val = z, abs(f)
        if abs(step) <= _STEP_RTOL * abs(z) or abs(step) >= last_step:
            break
        last_step = abs(step)
    return complex(best)


def _taylor_at(coeffs, z0: complex, k: int) -> np.ndarray:
    """First k Taylor coefficients of a polynomial at z0 (synthetic division)."""
    work, out = [complex(c) for c in reversed(coeffs)], []
    for _ in range(k):
        acc, quot = 0j, []
        for c in work:
            acc = acc * z0 + c
            quot.append(acc)
        out.append(acc)
        work = quot[:-1]
    return np.array(out)


def _series_div(num_t: np.ndarray, den_t: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros(k, dtype=complex)
    for s in range(k):
        out[s] = (num_t[s] - sum(den_t[t] * out[s - t] for t in range(1, s + 1))) / den_t[0]
    return out


def _coeffs_at_cluster(tf, clusters, idx: int) -> np.ndarray:
    """Coefficients c^(1)..c^(m) at cluster idx, via truncated Taylor division."""
    lam, mult = clusters[idx]
    den_rest = np.zeros(mult, dtype=complex)
    den_rest[0] = 1.0
    for mu, mj in clusters[:idx] + clusters[idx + 1 :]:
        for _ in range(mj):  # times (lam - mu + w), truncated
            den_rest = np.convolve(den_rest, [lam - mu, 1.0])[:mult]
    if den_rest[0] == 0:
        raise _RetryExpansion("two refined cluster centres coincide")
    series = _series_div(_taylor_at(tf.num.coeffs, lam, mult), den_rest, mult)
    # series[s] is the coefficient of (z - lam)^(s - mult); c^(i) = series[mult - i]
    return series[::-1]


def _simple_residues(tf, clusters) -> np.ndarray:
    """Residues num(lam) / prod_{mu != lam} (lam - mu) at all-simple clusters at once."""
    lams = np.array([lam for lam, _ in clusters])
    diff = lams[:, None] - lams + np.eye(len(lams))  # unit diagonal
    denom = diff.prod(axis=1)
    if not denom.all():
        raise _RetryExpansion("two refined roots coincide")
    return tf.num(lams) / denom


def _separated(pole: complex, lam0: float) -> bool:
    """Whether ``pole`` is farther than 1e-6 lam0 from the dominant pole lam0 > 0: a closer one is
    numerically indistinguishable from a multiple dominant root, which the construction cannot handle."""
    return abs(pole - lam0) > 1e-6 * lam0


def _term_sort_key(term: PoleTerm):
    return (term.pole.real, abs(term.pole.imag), term.pole.imag < 0)


def _expand_at_radius(tf: TransferFunction, roots: np.ndarray, radius: float) -> PartialFraction:
    groups = _cluster_indices(roots, radius)
    if len(groups) == len(roots):  # no two roots within the radius
        raw = [(z + 0j, 1) for z in roots.tolist()]  # + 0j: a -0.0 part becomes 0.0, as in a mean
    else:
        raw = [(roots[g].sum() / len(g), len(g)) for g in groups]

    # the roots come in exact conjugate pairs, so the clusters are mirrored
    newton = {mult: _newton_polys(tf.den.coeffs, mult) for mult in {m for _, m in raw}}
    reals: list[tuple[complex, int]] = []
    pairs: list[tuple[complex, int]] = []
    for center, mult in raw:
        if abs(center.imag) <= radius:
            reals.append((_refine_root(newton[mult], complex(center.real, 0.0)), mult))
        elif center.imag > 0:
            lam = _refine_root(newton[mult], complex(center))
            pairs += [(lam, mult), (lam.conjugate(), mult)]
    clusters = reals + pairs

    if sum(m for _, m in clusters) != tf.mcmillan_degree:
        raise _RetryExpansion("cluster multiplicities inconsistent")

    mods = [abs(lam) for lam, _ in clusters]
    maxmod = max(mods)
    dominant = [i for i, m in enumerate(mods) if m >= maxmod * (1.0 - DOMINANCE_RTOL)]
    if len(dominant) != 1:
        raise NotPrimitive("dominant pole (maximal modulus) is not unique")
    d = dominant[0]
    lam0, mult0 = clusters[d]
    if lam0.imag != 0:
        raise NotPrimitive("dominant pole is not real")
    if lam0.real <= 0:
        raise NotPrimitive("dominant pole is not positive")
    if mult0 != 1:
        raise NotPrimitive("dominant pole is not simple")

    if any(i != d and not _separated(mu, lam0.real) for i, (mu, _) in enumerate(clusters)):
        raise NotPrimitive("dominant pole is not separated (possibly multiple)")

    if all(m == 1 for _, m in clusters):
        residues = _simple_residues(tf, clusters).tolist()
        coeffs_at = lambda i: residues[i : i + 1]
    else:
        coeffs_at = lambda i: _coeffs_at_cluster(tf, clusters, i).tolist()

    gamma_c = coeffs_at(d)[0]
    if abs(gamma_c.imag) > 1e-8 * (1.0 + abs(gamma_c)):
        raise _RetryExpansion("dominant residue has a nontrivial imaginary part")
    gamma = float(gamma_c.real)

    terms: list[PoleTerm] = []
    for i, (lam, mult) in enumerate(clusters):
        if i == d or lam.imag < 0:
            continue
        coeffs = coeffs_at(i)
        if lam.imag == 0:
            if any(abs(c.imag) > 1e-7 * (1.0 + abs(c)) for c in coeffs):
                raise _RetryExpansion("real pole with non-real coefficients")
            terms.append(PoleTerm(lam, tuple(c.real for c in coeffs)))
        else:
            terms.append(PoleTerm(lam, tuple(coeffs)))
            terms.append(PoleTerm(lam.conjugate(), tuple(c.conjugate() for c in coeffs)))

    pf = PartialFraction(
        dominant_pole=float(lam0.real),
        dominant_residue=gamma,
        terms=tuple(sorted(terms, key=_term_sort_key)),
    )

    resid = _reconstruction_residual(tf, pf, 2.0 * max(1.0, maxmod))
    if not resid <= RECONSTRUCT_RTOL:  # a NaN residual fails too
        raise _RetryExpansion(f"reconstruction residual {resid:.3g}")
    return pf


def _reconstruction_residual(tf: TransferFunction, pf: PartialFraction, r: float) -> float:
    """max |pf(z) - tf(z)| / (1 + |tf(z)|) on the test circle |z| = r, NaN once a value overflows.  tf's num and den
    are two products against the directions' powers, in z/r with coefficients a_k r^(k-n): no power of r overflows."""
    n, m = tf.den.degree, len(tf.num.coeffs)
    scaled = r ** np.arange(-n, 1.0)  # r^(k-n), k = 0 .. n
    powers = np.take(_CIRCLE_POWERS, np.arange(n + 1), axis=1, mode="wrap")  # w^k = w^(k mod 32)
    with np.errstate(all="ignore"):
        href = (powers[:, :m] @ (tf.num.coeffs * scaled[:m])) / (powers @ (tf.den.coeffs * scaled))
        return float(np.max(np.abs(pf.evaluate(r * _CIRCLE) - href) / (1.0 + np.abs(href))))


def expand(tf: TransferFunction) -> PartialFraction:
    """Partial-fraction expansion with a unique dominant pole.

    A recombined partial fraction is its own expansion (see ``recombine``), found by no eigen-solve.
    Otherwise poles come from the companion-matrix eigenvalues ``tf.roots``, each
    polished by Newton until its step reaches rounding level or stops
    shrinking (``_refine_root``); the real companion matrix gives exact
    conjugate pairs, so each upper-half cluster is refined once and
    mirrored.  Multiple roots are recovered by clustering at increasing radii
    until the expansion reproduces the input on a test circle.  When every
    cluster is simple the residues come in closed form, num(lam) /
    prod_{mu != lam} (lam - mu); multiple clusters use truncated Taylor
    division.  The dominant residue may be negative (``normalize`` refuses it).
    """
    if tf._expansion is not None:
        return tf._expansion
    roots = tf.roots
    scale = 1.0 + float(np.max(np.abs(roots)))
    failure: Exception | None = None
    for rung in _CLUSTER_LADDER:
        try:
            return _expand_at_radius(tf, roots, rung * scale)
        except _RetryExpansion as exc:
            failure = exc
    raise ExpansionFailed(f"no consistent pole clustering found: {failure}")


# ---------------------------------------------------------------------------
# normalization and the shift recurrence


def normalize(pf: PartialFraction) -> PartialFraction:
    """Rescale so the dominant term is exactly 1/(z - 1).

    The variable substitution z -> l0*z divides every pole by l0; dividing
    the whole function by g/l0 makes the dominant residue 1, which sends an
    order-i coefficient c to c / (g * l0**(i-1)).  The impulse response
    transforms as t_k = g * l0**(k-1) * t~_k.
    """
    gamma = pf.dominant_residue
    lam0 = pf.dominant_pole
    if lam0 <= 0:
        raise NotPrimitive("dominant pole must be positive to normalize")
    if gamma <= 0:
        raise NonpositiveDominantResidue("dominant residue must be positive to normalize")
    terms = tuple(
        PoleTerm(
            t.pole / lam0,
            tuple(c / (gamma * lam0 ** (i - 1)) for i, c in enumerate(t.coeffs, start=1)),
        )
        for t in pf.terms
    )
    return PartialFraction(
        dominant_pole=1.0,
        dominant_residue=1.0,
        terms=terms,
        scale_gamma=pf.scale_gamma * gamma,
        pole_scale=pf.pole_scale * lam0,
    )


def impulse_response(tf: TransferFunction, K: int) -> np.ndarray:
    """First K impulse-response values t_1 .. t_K (read-only) from the long-division recurrence.

    With H = (p_1 z^(n-1)+...+p_n)/(z^n+q_1 z^(n-1)+...+q_n), the values obey
    t_k = p_k - sum_{i=1..min(k-1,n)} q_i t_{k-i}, with p_k = 0 for k > n, one step per
    value on plain floats (powers of the signed companion matrix would cancel).
    """
    t = np.array(_scaled_recurrence(tf, K, 1.0, 1.0))
    t.setflags(write=False)
    return t


def _scaled_recurrence(tf: TransferFunction, K: int, gamma: float, lam0: float) -> list[float]:
    """t_k / (gamma lam0^(k-1)) for k = 1 .. K: ``impulse_response``'s recurrence, bit for bit at gamma = lam0 = 1.

    The values obey it with p_k / (gamma lam0^(k-1)) and q_i / lam0^i, so no power past the
    degree n is formed, and they stay the size of the normalized response whatever lam0^(K-1) is.
    """
    if K < 1:
        raise ValueError("K must be positive")
    n = tf.mcmillan_degree
    p = [0.0] * (n - tf.num.degree) + list(tf.num.coeffs[::-1])  # p_k: coefficient of z^(n-k)
    q = list(tf.den.coeffs[-2::-1])  # q_i: coefficient of z^(n-i)
    w, v = 1.0 / gamma, 1.0  # 1 / (gamma lam0^i) for p_(i+1) and lam0^-i for q_i, a division per step
    for i in range(n):
        v /= lam0
        p[i + 1] *= w
        q[i] *= v
        w /= lam0
    t = []  # t[k - 1] holds t_k
    for k in range(1, K + 1):
        acc = p[k] if k <= n else 0.0
        i = k - 1
        for qi in q[: k - 1] if k <= n else q:  # q_i t_(k-i), i = 1 .. min(k-1, n), by index
            i -= 1
            acc -= qi * t[i]
        t.append(acc)
    return t


def _zero_band(t1: float) -> float:
    """Half-width of the band in which a normalized impulse value is zero (below it, a witness), for
    t~_1 = ``t1``: rounding leaves a true zero below 4e-15 (1 + |t~_1|), four decades inside."""
    return 1e-10 * (1.0 + abs(t1))


def _require_normalized(pf: PartialFraction) -> None:
    if not pf.is_normalized:
        raise ValueError("operation requires a normalized partial fraction")


def _first_impulse(dominant: float, coeffs) -> float:
    """t~_1 of a function with dominant term ``dominant``/(z - 1) and order-1 coefficients ``coeffs``: their sum."""
    total = dominant + 0j
    for c in coeffs:
        total += c
    if abs(total.imag) >= 1e-10:
        raise ExpansionFailed("impulse value has a nontrivial imaginary part")
    return float(total.real)


def leading_impulse(pf: PartialFraction) -> float:
    """t_1 of a normalized partial fraction: one plus the order-1 coefficients (``_first_impulse``)."""
    _require_normalized(pf)
    return _first_impulse(1.0, (t.coeffs[0] for t in pf.terms))


def _shifted(pole: complex, coeffs) -> tuple:
    """A coefficient chain after one shift, c'_i = pole c_i + c_{i+1}, with its trailing zeros dropped."""
    return _trimmed([pole * a + b for a, b in zip(coeffs, coeffs[1:])] + [pole * coeffs[-1]])


def shift_once(pf: PartialFraction) -> tuple[float, PartialFraction]:
    """Remove the leading impulse value and return (t_1, tail function).

    Termwise, z/(z - lam)^i = 1/(z - lam)^(i-1) + lam/(z - lam)^i, so the new
    coefficients are c'_i = lam*c_i + c_{i+1} (``_shifted``); simple poles contract by lam.
    The dominant residue stays exactly 1.  Trailing zero coefficients are
    dropped, and a term left with none (order 1 at lam = 0, or a coefficient
    that underflowed) drops out.  The tail goes through the validating
    constructors.
    """
    tail = [PoleTerm(term.pole, cs) for term in pf.terms if (cs := _shifted(term.pole, term.coeffs))]
    return leading_impulse(pf), replace(pf, terms=tail)


def _walk(pf: PartialFraction):
    """Yield (t~_k, coeffs, higher), k = 1, 2, ..., for ``pf`` with dominant pole 1: ``coeffs`` holds the order-1
    coefficients after k - 1 shifts as ``shift_once`` makes them (zero once a term drops out), ``higher`` each longer
    term's c^(2), c^(3), ... by term index, and t~_k = dominant residue + sum(coeffs).  The first t~_k below the zero
    band of t~_1 raises ``NegativeImpulse(k, t_k)``, t_k = s l0^(k-1) t~_k at ``pf``'s scaling s, l0.  The shift
    loop, the certified scan and the base check read t~ only here."""
    poles = [t.pole for t in pf.terms]
    coeffs = [t.coeffs[0] for t in pf.terms]
    higher = {j: t.coeffs[1:] for j, t in enumerate(pf.terms) if t.order > 1}
    t = _first_impulse(pf.dominant_residue, coeffs)
    band = _zero_band(t)
    for k in count(1):
        if t < -band:
            raise NegativeImpulse(k, pf.scale_gamma * pf.pole_scale ** (k - 1) * t)
        yield t, coeffs, higher
        coeffs = [lam * c for lam, c in zip(poles, coeffs)]
        if higher:  # c'_1 = lam c_1 + c_2, and the rest of a longer chain shifts on its own
            for j, cs in higher.items():
                coeffs[j] += cs[0]
            higher = {j: shifted for j, cs in higher.items() if (shifted := _shifted(poles[j], cs))}
        t = _first_impulse(pf.dominant_residue, coeffs)


def iteration_estimate(pf: PartialFraction) -> int:
    """An upper bound on either rule's stopping shift; only the tests and the tracer read it.

    Only poles that are not nonnegative real with nonnegative residue count.  Their coefficients
    contract by max|lam| per shift, so ceil(|log(n max|c| / CONSERVATIVE_LIMIT) / log max|lam||)
    shifts stop the sum rule, and so the per-pole rule, up to one more for rounding.
    """
    _require_normalized(pf)
    if any(t.order > 1 for t in pf.terms):
        raise MultiplePoleUnsupported("iteration estimate requires simple poles")
    counted = [
        t
        for t in pf.terms
        if not (t.pole.imag == 0 and t.pole.real >= 0 and t.coeffs[0].real >= 0)
    ]
    maxc = max((abs(t.coeffs[0]) for t in counted), default=0.0)
    maxl = max((abs(t.pole) for t in counted), default=0.0)
    arg = len(counted) * maxc / CONSERVATIVE_LIMIT
    if arg <= 1.0 or maxl == 0.0:
        return 1
    if maxl >= 1.0:
        raise ValueError("iteration estimate requires contracted (normalized) poles")
    return max(1, math.ceil(abs(math.log(arg) / math.log(maxl))))


# ---------------------------------------------------------------------------
# reconstruction and loading helpers


def recombine(pf: PartialFraction) -> TransferFunction:
    """Collect a partial fraction over the common denominator.

    ``build_partial_fraction``'s canonical terms, where it accepts ``pf``, are collected by
    increasing modulus (whatever their given order; by real part rounds worse), else ``pf``'s
    terms as given, through ``from_coefficients``' checks.  Canonical terms that root-finding
    would find (simple, separated from l0) stay on the result as the expansion ``expand`` returns,
    and their poles as its ``roots``: the common-root test runs there, and no eigen-solve does.
    The ``np.convolve`` products are load-bearing to the last bit: the multiple-pole ``expand``
    tests cluster the roots of these coefficients, and one ulp elsewhere splits a double pair.
    """
    try:
        given = build_partial_fraction(pf.dominant_pole, pf.dominant_residue, pf.terms)
    except (ValueError, NotPrimitive):
        given = None
    terms = pf.terms if given is None else sorted(given.terms, key=lambda t: abs(t.pole))
    factors: list[tuple[complex, int]] = [(complex(pf.dominant_pole), 1)]
    factors += [(t.pole, t.order) for t in terms]

    # powers[j][k] = (z - root_j)^k; prefix[j] = product of the full powers before factor j.  No product by
    # [1] runs: it returns the other operand bit for bit, as no operand holds a -0.0 (0j - root has none)
    times = lambda a, b: b if len(a) == 1 else a if len(b) == 1 else np.convolve(a, b)  # [1] has length 1
    powers = []
    for root, mult in factors:
        ps = [np.array([1.0 + 0j]), np.array([0j - root, 1.0 + 0j])]
        for _ in range(mult - 1):
            ps.append(np.convolve(ps[-1], np.array([-root, 1.0 + 0j])))
        powers.append(ps)
    prefix = [np.array([1.0 + 0j])]
    for ps in powers:
        prefix.append(times(prefix[-1], ps[-1]))

    den = prefix[-1]
    num = np.zeros(len(den) - 1, dtype=complex)

    def rest_product(skip: int, reduce_by: int) -> np.ndarray:
        out = times(prefix[skip], powers[skip][-1 - reduce_by])
        for ps in powers[skip + 1 :]:
            out = times(out, ps[-1])
        return out

    contrib = pf.dominant_residue * rest_product(0, 1)
    num[: len(contrib)] += contrib
    for j, term in enumerate(terms, start=1):
        for i, c in enumerate(term.coeffs, start=1):
            contrib = c * rest_product(j, i)
            num[: len(contrib)] += contrib

    num, den = num.tolist(), den.tolist()
    # num and den each against its own scale; no check once a value is not finite, or too large (scale inf)
    for vs in (num, den) if all(map(cmath.isfinite, num + den)) else ():
        try:
            scale = 1.0 + max(map(abs, vs))
        except OverflowError:  # abs() raises where a magnitude passes the float range
            scale = math.inf
        if max(abs(v.imag) for v in vs) > 1e-9 * scale:
            raise ExpansionFailed("recombination produced non-real coefficients")
    if given is not None and not all(t.order == 1 and _separated(t.pole, given.dominant_pole) for t in terms):
        given = None
    return from_coefficients([v.real for v in num], [v.real for v in den], _given=given)


def build_partial_fraction(dominant_pole, dominant_residue, raw_terms) -> PartialFraction:
    """Validate and canonicalize externally supplied pole terms.

    A non-finite pole, residue or coefficient is refused first, then terms
    whose |re| + |im| pass the float range, so no sum or abs() below
    overflows.  Near-real poles are made exactly real, conjugate pairs are
    matched at relative tolerance 1e-9 and symmetrized exactly, and terms are
    put in a deterministic order.
    """
    lam0 = float(dominant_pole)
    gamma = float(dominant_residue)
    for name, value in (("dominant pole", lam0), ("dominant residue", gamma)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name}: {value!r}")
    raw_terms = tuple(raw_terms)
    # a value is not finite or too large, or the values add up past the float range
    if not math.isfinite(sum(abs(z.real) + abs(z.imag) for t in raw_terms for z in (t.pole, *t.coeffs))):
        for i, term in enumerate(raw_terms):
            for what, value in (("pole", term.pole), *(("coefficient", c) for c in term.coeffs)):
                if not cmath.isfinite(value):
                    raise ValueError(f"non-finite {what} of term {i}: {value!r}")
                if not math.isfinite(abs(value.real) + abs(value.imag)):
                    raise ValueError(f"{what} of term {i} is too large (|re| + |im| passes the float range): {value!r}")
        raise ValueError("pole terms too large: their |re| + |im| add up past the float range")
    if lam0 <= 0 or gamma == 0:
        raise NotPrimitive("dominant pole must be positive with a nonzero residue")

    reals: list[PoleTerm] = []
    upper: list[tuple[complex, tuple[complex, ...]]] = []  # (pole, coeffs) of the non-real terms
    lower: list[tuple[complex, tuple[complex, ...]]] = []
    for term in raw_terms:
        pole = complex(term.pole)
        coeffs = tuple(complex(c) for c in term.coeffs)
        if abs(pole.imag) <= PAIR_RTOL * (1.0 + abs(pole)):
            rcs = []
            for c in coeffs:
                if abs(c.imag) > PAIR_RTOL * (1.0 + abs(c)):
                    raise ValueError("real pole carries a non-real coefficient")
                rcs.append(complex(c.real, 0.0))
            reals.append(PoleTerm(complex(pole.real, 0.0), tuple(rcs)))
        else:
            (upper if pole.imag > 0 else lower).append((pole, coeffs))

    # each upper term takes the first lower term, in input order, that is its conjugate
    close = lambda a, b: abs(a.conjugate() - b) <= PAIR_RTOL * (1.0 + abs(b))
    paired: list[PoleTerm] = []
    for up_pole, up_coeffs in upper:
        partners = (
            j
            for j, (low_pole, low_coeffs) in enumerate(lower)
            if len(low_coeffs) == len(up_coeffs)
            and close(low_pole, up_pole)
            and all(map(close, low_coeffs, up_coeffs))
        )
        partner = next(partners, None)
        if partner is None:
            raise ValueError(f"complex pole {up_pole:.12g} has no conjugate partner")
        low_pole, low_coeffs = lower.pop(partner)
        pole = 0.5 * (up_pole + low_pole.conjugate())
        coeffs = tuple(0.5 * (tc + oc.conjugate()) for tc, oc in zip(up_coeffs, low_coeffs))
        paired.append(PoleTerm(pole, coeffs))
        paired.append(PoleTerm(pole.conjugate(), tuple(c.conjugate() for c in coeffs)))
    if lower:
        raise ValueError("complex pole terms do not form conjugate pairs")

    terms = tuple(sorted(reals + paired, key=_term_sort_key))
    poles = [t.pole for t in terms]
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if abs(poles[i] - poles[j]) <= 1e-12 * (1.0 + abs(poles[i])):
                raise ValueError("pole terms must have pairwise distinct poles")
        if abs(poles[i]) >= lam0 * (1.0 - DOMINANCE_RTOL):
            raise NotPrimitive("a listed pole reaches the dominant modulus")
    return PartialFraction(lam0, gamma, terms)
