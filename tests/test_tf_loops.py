"""The request loops of ``posreal.tf`` against their earlier forms.

``impulse_response`` and ``recombine``'s products must stay bit for bit what the forms kept here
computed: the recurrence is the verifier's reference, and ``recombine``'s coefficients are
load-bearing to the last bit (the multiple-pole expansion tests cluster their roots).  The
reconstruction check is a gate: its verdicts must stay the per-term form's, though the last
digits of its residual may move.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posreal as pr
import posreal.tf as tfmod
from posreal.errors import ExpansionFailed, NotPrimitive, PosrealError

from conftest import hn_pf
from strategies import supplied_pole_terms


def reference_impulse_response(tf, K):
    """The recurrence as it ran with a ``zip``/``reversed`` pair per value."""
    n = tf.mcmillan_degree
    p = [0.0] * (n - tf.num.degree) + list(tf.num.coeffs[::-1])
    q = tf.den.coeffs[-2::-1]
    t = []
    for k in range(1, K + 1):
        acc = p[k] if k <= n else 0.0
        for qi, ti in zip(q, reversed(t)):
            acc -= qi * ti
        t.append(acc)
    return np.array(t)


def reference_recombine_products(pf):
    """num and den as ``recombine`` hands them to ``from_coefficients``, from the products as
    they ran with every product by the constant polynomial 1."""
    try:
        given = pr.build_partial_fraction(pf.dominant_pole, pf.dominant_residue, pf.terms)
    except (ValueError, NotPrimitive):
        given = None
    terms = pf.terms if given is None else sorted(given.terms, key=lambda t: abs(t.pole))
    factors = [(complex(pf.dominant_pole), 1)]
    factors += [(t.pole, t.order) for t in terms]

    powers = []
    for root, mult in factors:
        ps = [np.array([1.0 + 0j])]
        for _ in range(mult):
            ps.append(np.convolve(ps[-1], np.array([-root, 1.0 + 0j])))
        powers.append(ps)
    prefix = [np.array([1.0 + 0j])]
    for ps in powers:
        prefix.append(np.convolve(prefix[-1], ps[-1]))

    den = prefix[-1]
    num = np.zeros(len(den) - 1, dtype=complex)

    def rest_product(skip, reduce_by):
        out = np.convolve(prefix[skip], powers[skip][-1 - reduce_by])
        for ps in powers[skip + 1 :]:
            out = np.convolve(out, ps[-1])
        return out

    contrib = pf.dominant_residue * rest_product(0, 1)
    num[: len(contrib)] += contrib
    for j, term in enumerate(terms, start=1):
        for i, c in enumerate(term.coeffs, start=1):
            contrib = c * rest_product(j, i)
            num[: len(contrib)] += contrib
    return [v.real for v in num.tolist()], [v.real for v in den.tolist()]


def recombine_products(pf):
    """num and den as ``recombine`` hands them to ``from_coefficients`` (whose checks may refuse them)."""
    seen = []

    def record(num, den, **kwargs):
        seen.append((num, den))
        return from_coefficients(num, den, **kwargs)

    from_coefficients = tfmod.from_coefficients
    with mock.patch.object(tfmod, "from_coefficients", record):
        try:
            pr.recombine(pf)
        except PosrealError:
            pass
    (products,) = seen
    return products


def reference_residual(tf, pf, r):
    """The reconstruction residual as it ran: Horner on the sample points, the terms one by one."""
    sample = r * tfmod._CIRCLE
    with np.errstate(all="ignore"):
        href = tf(sample)
        acc = pf.dominant_residue / (sample - pf.dominant_pole)
        for t in pf.terms:
            base = sample - t.pole
            for i, c in enumerate(t.coeffs, start=1):
                acc = acc + c / base**i
        return float(np.max(np.abs(acc - href) / (1.0 + np.abs(href))))


# --- the recurrence --------------------------------------------------------


@st.composite
def coefficient_tfs(draw):
    """A transfer function of degree 1..30 with a numerator of degree 0..n-1, built unchecked."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(0, n - 1))
    value = st.floats(-2.0, 2.0)
    num = draw(st.lists(value, min_size=m, max_size=m)) + [draw(value.filter(bool))]
    den = draw(st.lists(value, min_size=n, max_size=n)) + [1.0]
    return pr.TransferFunction(pr.Polynomial(num), pr.Polynomial(den))


@settings(max_examples=200)
@given(coefficient_tfs(), st.integers(1, 150))
@example(pr.TransferFunction(pr.Polynomial([0.5] * 30), pr.Polynomial([-0.01] * 30 + [1.0])), 3)  # K < n
def test_impulse_response_is_the_earlier_recurrence_bit_for_bit(tf, K):
    assert pr.impulse_response(tf, K).tobytes() == reference_impulse_response(tf, K).tobytes()


# --- recombine's products --------------------------------------------------


@settings(max_examples=200)
@given(supplied_pole_terms())
@example((2.0, 3.0, []))  # 3/(z - 2): no terms
@example((1.0, 1.0, [pr.PoleTerm(0.5, (-0.7,))]))
@example((1.0, 2.0, [pr.PoleTerm(-0.5, (0.3, 0.2, -0.1))]))
@example((1.0, 1.0, [pr.PoleTerm(0.3 + 0.4j, (0.05 + 0.02j, 0.5 + 0.1j)), pr.PoleTerm(0.3 - 0.4j, (0.05 - 0.02j, 0.5 - 0.1j))]))
@example((1.0, 1.0, [pr.PoleTerm(-1.5, (0.3,))]))  # refused by build_partial_fraction: the terms as given
@example((1.0, 1.0, [pr.PoleTerm(0.0, (0.3,)), pr.PoleTerm(0.5, (0.2, 0.1))]))  # a pole at 0
def test_recombine_products_are_the_earlier_products_bit_for_bit(supplied):
    pf = pr.PartialFraction(supplied[0], supplied[1], tuple(supplied[2]))
    num, den = recombine_products(pf)
    want_num, want_den = reference_recombine_products(pf)
    assert (repr(num), repr(den)) == (repr(want_num), repr(want_den))


@pytest.fixture
def convolutions(monkeypatch):
    """Counts the ``np.convolve`` calls made while the test runs."""
    calls = []
    convolve = np.convolve

    def counting(a, v, *args, **kwargs):
        calls.append((len(a), len(v)))
        return convolve(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", counting)
    return calls


@pytest.mark.parametrize("F", range(1, 8))
def test_recombine_runs_no_product_by_one(convolutions, F):
    # F simple factors, the dominant one included: 2F - 3 + (F-1)(F-2)/2 products (with the products by 1,
    # 12 at F = 3 and 33 at F = 6)
    terms = tuple(pr.PoleTerm(0.9 * (-0.8) ** j, (0.1 + 0.05 * j,)) for j in range(F - 1))
    pr.recombine(pr.PartialFraction(1.0, 1.0, terms))
    assert len(convolutions) == (0 if F == 1 else 2 * F - 3 + (F - 1) * (F - 2) // 2)
    assert all(a > 1 and v > 1 for a, v in convolutions)


def test_recombine_products_with_an_order_two_term(convolutions):
    # the order-2 term farther out than the simple one: 6 products (14 with the products by 1)
    pr.recombine(pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.6, (0.3, 1.0)), pr.PoleTerm(0.2, (0.5,)))))
    assert len(convolutions) == 6


# --- the reconstruction check ----------------------------------------------


@pytest.fixture
def expansions(monkeypatch):
    """Counts the ``_expand_at_radius`` calls (one per rung tried) made while the test runs."""
    calls = []
    at_radius = tfmod._expand_at_radius
    monkeypatch.setattr(tfmod, "_expand_at_radius", lambda *args: calls.append(args[2]) or at_radius(*args))
    return calls


def test_a_recombined_simple_input_runs_no_check(expansions):
    assert isinstance(pr.realize(pr.recombine(hn_pf(4))), pr.Realized)
    assert pr.bounds_report(pr.recombine(hn_pf(6))).k0 == 6
    assert expansions == []


def test_the_coefficient_form_passes_the_first_rung(expansions, h4_tf):
    assert isinstance(pr.realize(pr.from_coefficients(h4_tf.num.coeffs, h4_tf.den.coeffs)), pr.Realized)
    assert len(expansions) == 1


@pytest.mark.parametrize("which", range(3))
def test_a_residue_off_by_one_part_in_a_million_fails(h4_tf, which):
    tf = pr.from_coefficients(h4_tf.num.coeffs, h4_tf.den.coeffs)
    pf = pr.expand(tf)
    assert tfmod._reconstruction_residual(tf, pf, 2.0) <= tfmod.RECONSTRUCT_RTOL
    if which == 0:
        off = dataclasses.replace(pf, dominant_residue=pf.dominant_residue * (1 + 1e-6))
    else:
        t = pf.terms[which - 1]
        terms = list(pf.terms)
        terms[which - 1] = pr.PoleTerm(t.pole, (t.coeffs[0] * (1 + 1e-6),))
        off = dataclasses.replace(pf, terms=tuple(terms))
    assert tfmod._reconstruction_residual(tf, off, 2.0) > tfmod.RECONSTRUCT_RTOL


def test_a_perturbed_residue_fails_every_rung(monkeypatch, h4_tf):
    residues = tfmod._simple_residues
    monkeypatch.setattr(tfmod, "_simple_residues", lambda tf, clusters: residues(tf, clusters) * (1 + 1e-6))
    with pytest.raises(ExpansionFailed, match="reconstruction residual"):
        pr.expand(pr.from_coefficients(h4_tf.num.coeffs, h4_tf.den.coeffs))


@pytest.mark.parametrize(
    "terms",
    [
        (pr.PoleTerm(0.5, (0.3, 1.0)),),
        (pr.PoleTerm(0.5, (0.2, -0.1, 1.0)),),
        (pr.PoleTerm(0.3 + 0.4j, (0.05 + 0.02j, 0.5 + 0.1j)), pr.PoleTerm(0.3 - 0.4j, (0.05 - 0.02j, 0.5 - 0.1j))),
    ],
)
def test_multiple_pole_expansions_pass(terms):
    tf = pr.recombine(pr.PartialFraction(1.0, 1.0, terms))
    pf = pr.expand(tf)
    assert sorted(t.order for t in pf.terms) == sorted(t.order for t in terms)
    r = 2.0 * max(1.0, *(abs(t.pole) for t in pf.terms))
    assert tfmod._reconstruction_residual(tf, pf, r) <= tfmod.RECONSTRUCT_RTOL
    assert reference_residual(tf, pf, r) <= tfmod.RECONSTRUCT_RTOL


def test_every_rung_keeps_the_per_term_verdict(monkeypatch):
    # random coefficients and random roots with repeated real roots and pairs, so rungs fail and pass
    verdicts = []
    residual = tfmod._reconstruction_residual

    def both(tf, pf, r):
        value = residual(tf, pf, r)
        verdicts.append((value <= tfmod.RECONSTRUCT_RTOL, reference_residual(tf, pf, r) <= tfmod.RECONSTRUCT_RTOL))
        return value

    monkeypatch.setattr(tfmod, "_reconstruction_residual", both)
    rng = np.random.default_rng(2026)
    P = np.polynomial.polynomial
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        if rng.random() < 0.3:
            den = np.append(rng.normal(size=n), 1.0)
        else:
            roots = [1.0 + rng.random()]
            while len(roots) < n:
                times = int(rng.integers(1, 4))
                if n - len(roots) >= 2 * times and rng.random() < 0.5:
                    z = rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(0.01, np.pi - 0.01))
                    roots += [z, z.conjugate()] * times
                else:
                    roots += [complex(rng.uniform(-0.95, 0.95))] * min(times, n - len(roots))
            den = P.polyfromroots(roots).real
        try:
            pr.expand(pr.from_coefficients(rng.normal(size=n), den))
        except PosrealError:
            pass
    assert len({v for v, _ in verdicts}) == 2  # both verdicts occur
    assert [v for v, _ in verdicts] == [w for _, w in verdicts]
