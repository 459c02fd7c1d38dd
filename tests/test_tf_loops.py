"""The request loops of ``posreal.tf`` against their earlier forms.

``impulse_response``, ``recombine``'s products, ``normalize`` and ``from_coefficients`` must stay
bit for bit what the forms kept here computed: the recurrence is the verifier's reference on
coefficient input, ``recombine``'s coefficients of a form it does not keep are load-bearing to the
last bit (the multiple-pole expansion tests cluster their roots), a kept form's are plain products
within a rounding bound of numpy's, and every request's normalized terms and monic coefficients
feed its outputs.  The reconstruction check is a gate: its verdicts must stay the per-term form's,
though the last digits of its residual may move.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


def plain_product(a, b):
    """The product of two coefficient lists on Python complex numbers, out[k] summed by increasing index into a."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reference_plain_products(pf):
    """num and den of a kept form (simple canonical terms) as ``recombine`` hands them to
    ``from_coefficients``: ``reference_recombine_products``' chain and accumulation, each product
    and each coefficient's multiple on Python complex numbers."""
    given = pr.build_partial_fraction(pf.dominant_pole, pf.dominant_residue, pf.terms)
    terms = sorted(given.terms, key=lambda t: abs(t.pole))
    linear = [[0j - root, 1.0 + 0j] for root in [complex(pf.dominant_pole)] + [t.pole for t in terms]]
    prefix = [[1.0 + 0j]]
    for factor in linear:
        prefix.append(plain_product(prefix[-1], factor))
    den = prefix[-1]
    num = [0j] * (len(den) - 1)
    for j, c in enumerate([pf.dominant_residue] + [t.coeffs[0] for t in terms]):
        rest = prefix[j]
        for factor in linear[j + 1 :]:
            rest = plain_product(rest, factor)
        for k, v in enumerate(rest):
            num[k] += c * v
    return [v.real for v in num], [v.real for v in den]


def recombine_products(pf):
    """num and den as ``recombine`` hands them to ``from_coefficients`` (whose checks may refuse them),
    and whether it keeps the form."""
    seen = []

    def record(num, den, **kwargs):
        seen.append((num, den, kwargs["_given"] is not None))
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


@settings(max_examples=100)
@given(supplied_pole_terms())
@example((1.0, 2.0, [pr.PoleTerm(-0.5, (0.3, 0.2, -0.1))]))
@example((1.0, 1.0, [pr.PoleTerm(0.3 + 0.4j, (0.05 + 0.02j, 0.5 + 0.1j)), pr.PoleTerm(0.3 - 0.4j, (0.05 - 0.02j, 0.5 - 0.1j))]))
@example((1.0, 1.0, [pr.PoleTerm(-1.5, (0.3,))]))  # refused by build_partial_fraction: the terms as given
@example((1.0, 1.0, [pr.PoleTerm(0.0, (0.3,)), pr.PoleTerm(0.5, (0.2, 0.1))]))  # a pole at 0
@example((1.0, 1.0, [pr.PoleTerm(1.0 - 1e-7, (0.3,))]))  # simple, but not separated from l0
def test_recombine_products_are_the_earlier_products_bit_for_bit(supplied):
    # a form recombine does not keep: np.convolve's products, numpy's multiply
    pf = pr.PartialFraction(supplied[0], supplied[1], tuple(supplied[2]))
    num, den, kept = recombine_products(pf)
    assume(not kept)
    want_num, want_den = reference_recombine_products(pf)
    assert (repr(num), repr(den)) == (repr(want_num), repr(want_den))
    assert all(type(v) is float for v in num + den)  # Python floats, as the comprehensions made them


@settings(max_examples=60)
@given(supplied_pole_terms(max_order=1))
@example((2.0, 3.0, []))  # 3/(z - 2): no terms
@example((1.0, 1.0, [pr.PoleTerm(0.5, (-0.7,))]))
@example((1.0, 1.0, [pr.PoleTerm(0.4, (-6103.515625,)), pr.PoleTerm(0.2, (1171875.0,))]))  # H^10
def test_recombine_products_of_a_kept_form_are_plain_products_bit_for_bit(supplied):
    pf = pr.PartialFraction(supplied[0], supplied[1], tuple(supplied[2]))
    num, den, kept = recombine_products(pf)
    assert kept
    want_num, want_den = reference_plain_products(pf)
    assert (repr(num), repr(den)) == (repr(want_num), repr(want_den))
    assert all(type(v) is float for v in num + den)


def absolute_products(pf):
    """num and den of a kept form with every root and coefficient by its modulus: the sizes a
    product's rounding is relative to (no cancellation, so numpy's rounding of them is immaterial)."""
    given = pr.build_partial_fraction(pf.dominant_pole, pf.dominant_residue, pf.terms)
    roots = [pf.dominant_pole] + [t.pole for t in given.terms]
    coeffs = [pf.dominant_residue] + [t.coeffs[0] for t in given.terms]
    rest = lambda j: np.polynomial.polynomial.polyfromroots([-abs(r) for i, r in enumerate(roots) if i != j])
    num = sum(abs(c) * rest(j) for j, c in enumerate(coeffs))
    return num, np.polynomial.polynomial.polyfromroots([-abs(r) for r in roots])


@settings(max_examples=60)
@given(supplied_pole_terms(max_order=1))
@example((1.0, 1.0, [pr.PoleTerm(0.4, (-6103.515625,)), pr.PoleTerm(0.2, (1171875.0,))]))  # H^10
def test_a_kept_forms_plain_products_are_within_rounding_of_numpys(supplied):
    # Each coefficient of either computation is at most F - 1 products by a linear factor, one
    # multiple of a coefficient and F - 1 sums (F factors, l0 included).  A complex product rounds
    # by at most sqrt(5) u |a||b| and a sum by at most u (|a| + |b|), u = eps / 2, so each is within
    # about (sqrt(5) + 1) F u = 1.7 F eps of the exact value, relative to the products of the
    # moduli, and the two within 3.4 F eps of each other: the bound below is 4 (F + 1) eps.
    pf = pr.PartialFraction(supplied[0], supplied[1], tuple(supplied[2]))
    num, den, _ = recombine_products(pf)
    want_num, want_den = reference_recombine_products(pf)
    abs_num, abs_den = absolute_products(pf)
    bound = 4 * len(den) * np.finfo(float).eps  # len(den) = F + 1
    assert len(num) == len(abs_num) and len(den) == len(abs_den)
    assert np.all(np.abs(np.subtract(num, want_num)) <= bound * abs_num)
    assert np.all(np.abs(np.subtract(den, want_den)) <= bound * abs_den)


@pytest.mark.parametrize(
    "pf",
    [
        pr.PartialFraction(1e200, 1.0, (pr.PoleTerm(4e199, (-25.0,)), pr.PoleTerm(2e199, (75.0,)))),  # den inf
        pr.PartialFraction(2e10, 1.0, (pr.PoleTerm(1e10, (1e300,)),)),  # c times its product overflows, den finite
        pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5, (float("inf"),)),)),  # kept as given: inf times 0j is nan
    ],
)
def test_recombine_past_the_float_range_refuses_without_a_warning(pf):
    # RuntimeWarnings are errors under this suite's settings, so a numpy warning fails here
    with pytest.raises(ValueError, match="^non-finite polynomial coefficient$"):
        pr.recombine(pf)


# --- normalize ---------------------------------------------------------------


def reference_normalize(pf):
    """``normalize``'s terms as they ran with one divisor g * l0**(i-1) formed per coefficient."""
    gamma, lam0 = pf.dominant_residue, pf.dominant_pole
    return tuple(
        pr.PoleTerm(t.pole / lam0, tuple(c / (gamma * lam0 ** (i - 1)) for i, c in enumerate(t.coeffs, start=1)))
        for t in pf.terms
    )


def outcome(call):
    """repr of the result, or the type and message of the exception it raised."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc).__name__, str(exc)


_coefficient = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False).filter(bool)
_pole_terms = st.lists(
    st.builds(pr.PoleTerm, _coefficient, st.lists(_coefficient, min_size=1, max_size=3)), max_size=4
)


@settings(max_examples=300)
@given(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0).map(lambda e: 10.0**e), _pole_terms)
@example(0.0, 1.0, [])
@example(150.0, 1e150, [pr.PoleTerm(0.5, (1.0, -0.0, 3.0))])
@example(-150.0, 1e-150, [pr.PoleTerm(-0.25 + 0.5j, (-0.0 + 1j, 2.0)), pr.PoleTerm(0.5, (1.0,))])
@example(-150.0, 1e-150, [pr.PoleTerm(0.5, (1.0,)), pr.PoleTerm(0.25, (1.0, 2.0, 3.0))])  # g * l0**2 underflows
def test_normalize_is_the_per_coefficient_form_bit_for_bit(log_lam0, gamma, terms):
    pf = pr.PartialFraction(10.0**log_lam0, gamma, tuple(terms))
    got = outcome(lambda: pr.normalize(pf))
    want = outcome(lambda: pr.PartialFraction(1.0, 1.0, reference_normalize(pf), gamma, pf.dominant_pole))
    if want[0] == "ZeroDivisionError":  # a divisor g * l0**(i-1) underflowed: refused as past the float range
        i = next(i for i in range(3) if gamma * pf.dominant_pole**i == 0.0)
        want = "OverflowError", f"g * l0**{i} underflows to 0: normalized order-{i + 1} coefficients pass the float range"
    assert got == want


@pytest.mark.parametrize("lam0", [1e155, 1e200, 1e300])
def test_normalize_keeps_raising_where_the_power_overflows(lam0):
    # an order-3 term at l0 past 1e154.2: l0**2 passes the float range in both forms
    pf = pr.PartialFraction(lam0, 1.0, (pr.PoleTerm(0.5 * lam0, (1.0, 2.0, 3.0)),))
    with pytest.raises(OverflowError):
        reference_normalize(pf)
    with pytest.raises(OverflowError):
        pr.normalize(pf)
    # order 2 at the same scales stays finite
    assert pr.normalize(dataclasses.replace(pf, terms=(pr.PoleTerm(0.5 * lam0, (1.0, 2.0)),))).terms


@pytest.mark.parametrize("gamma, lam0, order", [(1.0, 1e-200, 3), (1.0, 1e-170, 3), (1e-200, 1e-200, 2)])
def test_normalize_refuses_where_the_divisor_underflows(gamma, lam0, order):
    # the mirror of the overflow above: g * l0**(order-1) is 0, so c divided by it passes the float range
    pf = pr.build_partial_fraction(lam0, gamma, [pr.PoleTerm(0.5 * lam0, (0.1,) * order)])
    with pytest.raises(OverflowError, match=f"^g \\* l0\\*\\*{order - 1} underflows to 0: normalized order-{order} "):
        pr.normalize(pf)
    # a lower order at the same scale stays finite
    assert pr.normalize(dataclasses.replace(pf, terms=(pr.PoleTerm(0.5 * lam0, (0.1,) * (order - 1)),))).terms


# --- from_coefficients -------------------------------------------------------


def reference_from_coefficients(num, den):
    """``from_coefficients`` as it ran with every coefficient divided by the leading one, 1.0 included."""
    den_c = tfmod._trimmed(map(float, den))
    if not den_c:
        raise pr.ZeroDenominator("denominator is identically zero")
    num_c = tfmod._trimmed(map(float, num)) or (0.0,)
    if len(num_c) >= len(den_c):
        raise pr.NotStrictlyProper(
            f"numerator degree {len(num_c) - 1} not below denominator degree {len(den_c) - 1}"
        )
    if num_c == (0.0,):
        raise pr.NotCoprime("zero numerator has no poles in common position")
    lead = den_c[-1]
    num_c = tuple(c / lead for c in num_c)
    den_c = tuple(c / lead for c in den_c[:-1]) + (1.0,)
    tf = pr.TransferFunction(pr.Polynomial(num_c), pr.Polynomial(den_c))
    tfmod._reject_common_roots(tf)
    return tf


def built(make):
    tf = make()
    return repr(tf.num.coeffs), repr(tf.den.coeffs), tf.roots.tobytes()


_value = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3))
_lead = st.one_of(st.just(1.0), st.sampled_from([-1.0, 2.0, 0.5, 3.0, -0.1, 1e-300]), st.floats(-1e3, 1e3))


@settings(max_examples=300)
@given(st.lists(_value, max_size=6), st.lists(_value, max_size=6), _lead)
@example([-0.0, 2.0], [0.25, -0.0], 1.0)  # -0.0 kept at a lead of exactly 1.0
@example([-0.0, 2.0], [0.25, -0.0], 2.0)
@example([1.0, -0.0], [0.5, 1.0], 1.0)  # a trailing -0.0 is trimmed
@example([], [], 1.0)
def test_from_coefficients_is_the_rescaling_form_bit_for_bit(num, den, lead):
    den = den + [lead]
    assert outcome(lambda: built(lambda: pr.from_coefficients(num, den))) == outcome(
        lambda: built(lambda: reference_from_coefficients(num, den))
    )


def test_a_monic_input_keeps_its_signed_zeros():
    tf = pr.from_coefficients([-0.0, 2.0], [0.25, -0.0, 1.0])
    assert [math.copysign(1.0, c) for c in tf.num.coeffs + tf.den.coeffs] == [-1.0, 1.0, 1.0, -1.0, 1.0]


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
    # F simple factors, the dominant one included: a kept form, whose products run on Python complex numbers
    terms = [pr.PoleTerm(0.9 * (-0.8) ** j, (0.1 + 0.05 * j,)) for j in range(F - 1)]
    pr.recombine(pr.PartialFraction(1.0, 1.0, tuple(terms)))
    assert convolutions == []
    if F > 1:  # the outermost term of order 2: not kept, 2F - 1 + (F-1)(F-2)/2 np.convolve products
        terms[0] = pr.PoleTerm(terms[0].pole, (0.1, 0.3))
        pr.recombine(pr.PartialFraction(1.0, 1.0, tuple(terms)))
        assert len(convolutions) == 2 * F - 1 + (F - 1) * (F - 2) // 2
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
