"""Exact-arithmetic references (``fractions.Fraction``).

Every float is a dyadic rational, so a partial fraction given in floats has exact normalized
Markov terms t_k / (g l0^(k-1)) = 1 + sum_j (c_j / g) (lam_j / l0)^(k-1).  The verifier's
reference for a form ``recombine`` keeps (``tf.markov_reference``'s closed form) is pinned
against them, on H^N and on a family of kept forms.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings

import posreal as pr
import posreal.tf as tfmod
from posreal.errors import NotCoprime

from conftest import hn_tf
from strategies import supplied_pole_terms

K = 100
TOL = 1e-13  # relative to 1 + |t~_k|


def exact_normalized_markov(pf: pr.PartialFraction, K: int) -> list[Fraction]:
    """t_k / (g l0^(k-1)) for k = 1 .. K, exactly, for simple terms; complex values as (re, im) pairs."""
    g, l0 = Fraction(pf.dominant_residue), Fraction(pf.dominant_pole)
    values = [Fraction(1)] * K  # the dominant term: (g / g) (l0 / l0)^(k-1)
    for t in pf.terms:
        (c,) = t.coeffs
        re, im = Fraction(c.real) / g, Fraction(c.imag) / g
        lr, li = Fraction(t.pole.real) / l0, Fraction(t.pole.imag) / l0
        for k in range(K):
            values[k] += re
            re, im = re * lr - im * li, re * li + im * lr
    return values


def assert_within(ref, exact):
    errors = [abs(r - float(e)) / (1.0 + abs(float(e))) for r, e in zip(ref.tolist(), exact)]
    assert len(errors) == len(exact) and max(errors) <= TOL


@pytest.mark.parametrize("N", range(4, 14))
def test_the_closed_form_reference_of_hn_is_exact_to_rounding(N):
    tf = hn_tf(N)
    pf = pr.expand(tf)
    assert tf._expansion is pf  # a kept form
    assert_within(tfmod.markov_reference(tf, K, pf.dominant_residue, pf.dominant_pole), exact_normalized_markov(pf, K))


@settings(max_examples=10)
@given(supplied_pole_terms(max_order=1))
@example((1.0, 1.0, [pr.PoleTerm(0.9 * 1j, (1.5,)), pr.PoleTerm(-0.9 * 1j, (1.5,))]))
def test_the_closed_form_reference_is_exact_to_rounding(supplied):
    # gains 1 to 4, so every |c / g| is at most 1.5: the reference's rounding stays below TOL
    lam0, gamma, terms = supplied
    gamma = 1.0 + abs(gamma)
    try:
        tf = pr.recombine(pr.PartialFraction(lam0, gamma, tuple(terms)))
    except NotCoprime:
        assume(False)
    pf = pr.expand(tf)
    assert tf._expansion is pf
    assert_within(tfmod.markov_reference(tf, K, gamma, lam0), exact_normalized_markov(pf, K))
