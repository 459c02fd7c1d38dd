"""Hypothesis strategies shared by the property tests."""

import cmath
import math

from hypothesis import assume, strategies as st

import posreal as pr


@st.composite
def simple_stable_pfs(st_draw, max_real=2, max_pairs=1, coeff_bound=1.5):
    """Normalized partial fraction with simple stable poles, separation 0.05."""
    n_real = st_draw(st.integers(0, max_real))
    n_pairs = st_draw(st.integers(0, max_pairs))
    assume(n_real + n_pairs > 0)
    poles = []
    terms = []
    for _ in range(n_real):
        lam = st_draw(st.floats(-0.9, 0.9))
        assume(all(abs(lam - p) > 0.05 for p in poles))
        poles.append(complex(lam))
        c = st_draw(st.floats(-coeff_bound, coeff_bound))
        assume(abs(c) > 1e-3)
        terms.append(pr.PoleTerm(complex(lam), (complex(c),)))
    for _ in range(n_pairs):
        rho = st_draw(st.floats(0.1, 0.9))
        th = st_draw(st.floats(0.15, math.pi - 0.15))
        lam = rho * complex(math.cos(th), math.sin(th))
        assume(all(abs(lam - p) > 0.05 and abs(lam - p.conjugate()) > 0.05 for p in poles))
        poles.append(lam)
        mag = st_draw(st.floats(1e-3, coeff_bound))
        ph = st_draw(st.floats(-math.pi, math.pi))
        c = mag * complex(math.cos(ph), math.sin(ph))
        terms.append(pr.PoleTerm(lam, (c,)))
        terms.append(pr.PoleTerm(lam.conjugate(), (c.conjugate(),)))
    return pr.PartialFraction(1.0, 1.0, tuple(terms))


disk_points = st.complex_numbers(max_magnitude=0.999, allow_nan=False, allow_infinity=False).filter(
    lambda z: abs(z) < 0.999 and not (z.imag == 0 and z.real >= 0)
)


@st.composite
def supplied_pole_terms(st_draw, max_real=2, max_pairs=2, max_order=3):
    """(l0, g, terms) as a caller supplies them to ``build_partial_fraction``.

    Distinct real poles and conjugate pairs in the disk of radius 0.9 l0, separation 0.05 l0,
    each term of order 1..max_order.  A real term may carry imaginary parts of 1e-12 in its pole
    and coefficients, and a pair's lower term sits up to 1e-12 (relative) off the upper term's
    conjugate, so the result is cleaned and symmetrized, not copied.  Terms come real first,
    then each pair upper first.
    """
    lam0 = st_draw(st.floats(1.0, 4.0))
    gamma = st_draw(st.floats(-3.0, 3.0).filter(lambda g: abs(g) > 1e-3))
    tiny = st.floats(-1e-12, 1e-12)

    def coeffs(values):
        return tuple(st_draw(st.lists(values.filter(lambda c: abs(c) > 1e-3), min_size=1, max_size=max_order)))

    poles, terms = [], []
    for _ in range(st_draw(st.integers(0, max_real))):
        lam = lam0 * st_draw(st.floats(-0.9, 0.9))
        assume(all(abs(lam - p) > 0.05 * lam0 for p in poles))
        poles.append(complex(lam))
        cs = tuple(complex(c, st_draw(tiny)) for c in coeffs(st.floats(-1.5, 1.5)))
        terms.append(pr.PoleTerm(complex(lam, lam0 * st_draw(tiny)), cs))
    for _ in range(st_draw(st.integers(0, max_pairs))):
        lam = lam0 * cmath.rect(st_draw(st.floats(0.1, 0.9)), st_draw(st.floats(0.15, math.pi - 0.15)))
        assume(all(abs(lam - p) > 0.05 * lam0 and abs(lam - p.conjugate()) > 0.05 * lam0 for p in poles))
        poles.append(lam)
        cs = coeffs(st.complex_numbers(max_magnitude=1.5, allow_nan=False))
        terms.append(pr.PoleTerm(lam, cs))
        off = lambda z: z.conjugate() * (1.0 + st_draw(tiny))
        terms.append(pr.PoleTerm(off(lam), tuple(map(off, cs))))
    return lam0, gamma, terms
