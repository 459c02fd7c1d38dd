import cmath
import dataclasses
import json
import math
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import posreal as pr
import posreal.tf as tfmod
from posreal.cli import load_problem
from posreal.bounds import _certified_scan
from posreal.errors import ExpansionFailed, NegativeImpulse, NotCoprime, NotPrimitive, NotStrictlyProper, ZeroDenominator
from posreal.tf import companion_roots, iteration_estimate, leading_impulse, shift_once

from conftest import hn_pf, hn_tf, hn_impulse, scaled_pf
from strategies import simple_stable_pfs, supplied_pole_terms


class TestFromCoefficients:
    def test_identity_case(self):
        tf = pr.from_coefficients([1.0], [-1.0, 1.0])
        assert tf.mcmillan_degree == 1
        assert tf.den.coeffs == (-1.0, 1.0)

    def test_example1_degree(self, example1_tf):
        assert example1_tf.mcmillan_degree == 4
        assert example1_tf.den.coeffs[-1] == 1.0

    def test_common_factor_rejected(self):
        with pytest.raises(NotCoprime):
            pr.from_coefficients([1.0, 1.0], [1.0, 2.0, 1.0])

    def test_monic_rescale_preserves_function(self):
        tf = pr.from_coefficients([2.0], [-2.0, 4.0])
        assert tf.den.coeffs == (-0.5, 1.0)
        assert tf.num.coeffs == (0.5,)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            pr.from_coefficients([1.0], [0.0, 0.0])

    def test_not_strictly_proper(self):
        with pytest.raises(NotStrictlyProper):
            pr.from_coefficients([1.0, 1.0], [-1.0, 1.0])

    def test_zero_numerator(self):
        with pytest.raises(NotCoprime):
            pr.from_coefficients([0.0], [-1.0, 1.0])


def reference_reject_common_roots(tf: pr.TransferFunction) -> None:
    """``_reject_common_roots``' reference: the same test at every root, both members of each pair."""
    cs = tf.num.coeffs[::-1]
    for r in tf.roots.tolist():
        value, scale, size = 0.0, 0.0, abs(r)
        for c in cs:
            value, scale = value * r + c, scale * size + abs(c)
        if abs(value / (scale + 1e-300)) <= 1e-9:
            raise NotCoprime(f"numerator vanishes at denominator root {r:.12g}")


def common_root_verdict(check, tf):
    """``check(tf)``'s refusal message, or None when it passes."""
    try:
        check(tf)
    except NotCoprime as exc:
        return str(exc)
    return None


@st.composite
def pair_common_root_inputs(draw):
    """A pair p, conj(p) beside the dominant pole 1 and up to three real poles; the numerator shares
    the pair exactly, has a root within a relative 1e-12 .. 1e-3 of p, or neither; roots are the
    companion eigenvalues or the poles as given."""
    p = cmath.rect(draw(st.floats(0.05, 0.99)), draw(st.floats(0.05, math.pi - 0.05)))
    reals = draw(st.lists(st.floats(-0.95, 0.95), max_size=3, unique=True))
    near = draw(st.sampled_from(["exact", "near", "none"]))
    q = p * (1.0 + 10.0 ** draw(st.floats(-12.0, -3.0))) if near == "near" else p
    extra = draw(st.lists(st.floats(-2.0, 2.0), max_size=len(reals)))
    num_roots = ([q, q.conjugate()] if near != "none" else []) + extra
    poly = lambda roots: np.polynomial.polynomial.polyfromroots(roots).real.tolist() if roots else [1.0]
    gain = draw(st.floats(0.1, 10.0))
    num = [gain * v for v in poly(num_roots)]
    den = poly([1.0, p, p.conjugate(), *reals])
    given = None
    if draw(st.booleans()):
        terms = [pr.PoleTerm(p, (1.0,)), pr.PoleTerm(p.conjugate(), (1.0,))] + [pr.PoleTerm(r, (1.0,)) for r in reals]
        given = pr.PartialFraction(1.0, 1.0, tuple(terms))
    return near, pr.TransferFunction(pr.Polynomial(tuple(num)), pr.Polynomial(tuple(den)), _given=given)


class TestCommonRootsOncePerPair:
    """``_reject_common_roots`` tests a conjugate pair at its upper member only, with the verdict
    and message of a test at both members: the upper one comes first in ``roots``, and the lower
    one's Horner value is its conjugate, bit for bit."""

    @settings(max_examples=300)
    @given(pair_common_root_inputs())
    def test_same_verdict_and_message_as_both_members(self, case):
        near, tf = case
        roots = tf.roots.tolist()
        for i, r in enumerate(roots):  # exact pairs, the upper member first
            if getattr(r, "imag", 0.0) < 0:
                assert roots[i - 1] == r.conjugate()
        want = common_root_verdict(reference_reject_common_roots, tf)
        assert common_root_verdict(tfmod._reject_common_roots, tf) == want
        if near == "exact":
            assert want is not None

    @pytest.mark.parametrize("form", ["coefficients", "given"])
    def test_a_common_pair_is_named_at_its_upper_member(self, form):
        p = 0.3 + 0.6j
        num = np.polynomial.polynomial.polyfromroots([p, p.conjugate()]).real
        den = np.polynomial.polynomial.polyfromroots([1.0, p, p.conjugate(), -0.5]).real
        terms = (pr.PoleTerm(p, (1.0,)), pr.PoleTerm(p.conjugate(), (1.0,)), pr.PoleTerm(-0.5, (1.0,)))
        given = pr.PartialFraction(1.0, 1.0, terms) if form == "given" else None
        tf = pr.TransferFunction(pr.Polynomial(tuple(num)), pr.Polynomial(tuple(den)), _given=given)
        upper = next(r for r in tf.roots.tolist() if getattr(r, "imag", 0.0) > 0)
        message = f"numerator vanishes at denominator root {upper:.12g}"
        assert common_root_verdict(reference_reject_common_roots, tf) == message
        with pytest.raises(NotCoprime, match=f"^{re.escape(message)}$"):
            tfmod._reject_common_roots(tf)


class TestSeparatedRelativeToTheDominantPole:
    """A pole is separated from the dominant pole lam0 once it is farther than 1e-6 lam0 from it."""

    @pytest.mark.parametrize("lam0", [1e-8, 1.0, 1e4])
    def test_rule(self, lam0):
        for gap, separated in ((0.9e-6, False), (1.5e-6, True), (2.5e-6, True)):
            assert tfmod._separated(lam0 * (1.0 - gap), lam0) is separated
            assert tfmod._separated(complex(lam0, gap * lam0), lam0) is separated

    @pytest.mark.parametrize("form", ["partial_fractions", "coefficients"])
    def test_a_pole_between_the_old_and_new_gaps_realizes(self, form):
        # 1.5e-6 from lam0 = 1 is inside the absolute gap 1e-6 (1 + lam0) that refused it before
        build = lambda gap: pr.recombine(pr.PartialFraction(
            1.0, 1.0, (pr.PoleTerm(1.0 - gap + 0j, (0.1 + 0j,)), pr.PoleTerm(-0.5 + 0j, (0.3 + 0j,))),
        ))
        twin = (lambda tf: tf) if form == "partial_fractions" else coefficient_twin
        out = pr.realize(twin(build(1.5e-6)))
        assert isinstance(out, pr.Realized) and out.trace.verification.passed
        assert out.trace.final_dimension == 3
        assert pr.realize(twin(build(0.9e-6))) == pr.Unsupported("dominant pole is not separated (possibly multiple)")


class TestRootsOnce:
    """A transfer function finds its poles once; every later step reads ``roots``."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """Counts the companion eigen-solves made while the test runs."""
        calls = []
        solve = tfmod.companion_roots

        def counting(coeffs):
            calls.append(coeffs)
            return solve(coeffs)

        monkeypatch.setattr(tfmod, "companion_roots", counting)
        return calls

    def test_realize_from_coefficients_solves_once(self, solves):
        num = np.polynomial.polynomial.polyfromroots([0.3, -0.4 + 0.2j, -0.4 - 0.2j]).real
        den = np.polynomial.polynomial.polyfromroots([1.0, 0.5, 0.2 + 0.6j, 0.2 - 0.6j]).real
        assert isinstance(pr.realize(pr.from_coefficients(num, den)), pr.Realized)
        assert len(solves) == 1

    def test_realize_recombined_input_solves_none(self, solves):
        assert isinstance(pr.realize(pr.recombine(hn_pf(4))), pr.Realized)
        assert len(solves) == 0

    def test_bounds_report_solves_none(self, solves):
        # the recombined input is its own expansion, and its coprimality test runs at the given poles
        assert pr.bounds_report(pr.recombine(hn_pf(6))).k0 == 6
        assert len(solves) == 0

    def test_recombined_order_two_term_solves_once(self, solves):
        tf = pr.recombine(pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5, (0.3, 1.0)),)))
        assert [t.order for t in pr.expand(tf).terms] == [2]
        assert len(solves) == 1

    def test_recombined_roots_are_the_given_poles_and_read_only(self):
        pair = pr.PoleTerm(0.1 + 0.3j, (0.02 + 0.01j,))
        pf = pr.PartialFraction(2.0, 1.0, (pr.PoleTerm(-0.5, (0.4,)), pair, pr.PoleTerm(0.1 - 0.3j, (0.02 - 0.01j,))))
        tf = pr.recombine(pf)
        given = pr.expand(tf)
        # by increasing modulus, the order of the eigenvalues of a real two-pole family: a refusal names the same root
        assert tf.roots.tolist() == sorted([2.0, *(t.pole for t in given.terms)], key=abs)
        with pytest.raises(ValueError):
            tf.roots[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            tf.roots = np.zeros(4)

    def test_real_given_poles_keep_a_real_dtype(self):
        # so a refusal names "root 1", as at the companion eigenvalues, not "(1+0j)"
        assert pr.recombine(hn_pf(4)).roots.dtype == np.float64
        with pytest.raises(NotCoprime, match="numerator vanishes at denominator root 1$"):
            pr.recombine(hn_pf(14))

    def test_roots_are_the_companion_eigenvalues_and_read_only(self):
        tf = pr.TransferFunction(pr.Polynomial((0.3, 1.0)), pr.Polynomial((0.1, -0.2, -0.5, 1.0)))
        assert tf.roots.tobytes() == companion_roots(tf.den.coeffs).tobytes()
        with pytest.raises(ValueError):
            tf.roots[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            tf.roots = np.zeros(3)

    def test_roots_do_not_enter_equality_or_hash(self):
        a = pr.from_coefficients([0.3, 1.0], [0.1, -0.2, -0.5, 1.0])
        b = pr.TransferFunction(pr.Polynomial((0.3, 1.0)), pr.Polynomial((0.1, -0.2, -0.5, 1.0)))
        assert a == b and hash(a) == hash(b)
        assert "roots" not in repr(a)


def coefficient_twin(tf: pr.TransferFunction) -> pr.TransferFunction:
    """The same function built from its coefficients: it carries no given expansion."""
    return pr.from_coefficients(tf.num.coeffs, tf.den.coeffs)


class TestExpand:
    def test_single_dominant_pole(self):
        pf = pr.expand(pr.from_coefficients([1.0], [-1.0, 1.0]))
        assert pf.terms == ()
        assert pf.dominant_pole == pytest.approx(1.0)
        assert pf.dominant_residue == pytest.approx(1.0)

    def test_example1_values(self, example1_tf):
        pf = pr.expand(example1_tf)
        assert pf.dominant_residue == pytest.approx(1.0, abs=1e-9)
        real_terms = [t for t in pf.terms if t.pole.imag == 0]
        assert len(real_terms) == 1
        assert real_terms[0].pole.real == pytest.approx(0.5400962165, abs=1e-8)
        assert real_terms[0].coeffs[0].real == pytest.approx(0.3541501460, abs=1e-8)
        lower = [t for t in pf.terms if t.pole.imag < 0]
        assert len(lower) == 1
        assert lower[0].pole == pytest.approx(0.07522998673 - 0.8455579204j, abs=1e-8)
        assert lower[0].coeffs[0] == pytest.approx(-0.01050864690 + 0.1411896961j, abs=1e-8)

    def test_two_pole_family(self, h4_tf):
        self.check_two_pole_family(pr.expand(h4_tf))

    def test_two_pole_family_by_root_finding(self, h4_tf):
        self.check_two_pole_family(pr.expand(coefficient_twin(h4_tf)))

    @staticmethod
    def check_two_pole_family(pf):
        by_pole = {round(t.pole.real, 6): t.coeffs[0].real for t in pf.terms}
        assert by_pole[0.4] == pytest.approx(-25.0, rel=1e-9)
        assert by_pole[0.2] == pytest.approx(75.0, rel=1e-9)
        assert pf.dominant_residue == pytest.approx(1.0, rel=1e-9)

    def test_conjugate_pairing_exact(self, example1_tf):
        pf = pr.expand(example1_tf)
        pairs = [t for t in pf.terms if t.pole.imag != 0]
        up = next(t for t in pairs if t.pole.imag > 0)
        dn = next(t for t in pairs if t.pole.imag < 0)
        assert up.pole == dn.pole.conjugate()
        assert up.coeffs[0] == dn.coeffs[0].conjugate()

    def test_multiple_pole_expansion(self):
        pf_in = pr.PartialFraction(
            1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.3 + 0j, 1.0 + 0j)),)
        )
        pf = pr.expand(pr.recombine(pf_in))
        assert len(pf.terms) == 1
        assert pf.terms[0].order == 2
        assert pf.terms[0].pole.real == pytest.approx(0.5, abs=1e-9)
        assert pf.terms[0].coeffs[0].real == pytest.approx(0.3, abs=1e-7)
        assert pf.terms[0].coeffs[1].real == pytest.approx(1.0, abs=1e-7)

    def test_triple_pole_expansion(self):
        pf_in = pr.PartialFraction(
            1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.2 + 0j, -0.1 + 0j, 1.0 + 0j)),)
        )
        pf = pr.expand(pr.recombine(pf_in))
        assert [t.order for t in pf.terms] == [3]
        assert pf.terms[0].coeffs[0].real == pytest.approx(0.2, abs=1e-6)
        assert pf.terms[0].coeffs[1].real == pytest.approx(-0.1, abs=1e-6)
        assert pf.terms[0].coeffs[2].real == pytest.approx(1.0, abs=1e-6)

    def test_double_complex_pair_expansion(self):
        pf_in = pr.PartialFraction(
            1.0,
            1.0,
            (
                pr.PoleTerm(0.3 + 0.4j, (0.05 + 0.02j, 0.5 + 0.1j)),
                pr.PoleTerm(0.3 - 0.4j, (0.05 - 0.02j, 0.5 - 0.1j)),
            ),
        )
        pf = pr.expand(pr.recombine(pf_in))
        assert sorted(t.order for t in pf.terms) == [2, 2]
        up = next(t for t in pf.terms if t.pole.imag > 0)
        assert up.pole == pytest.approx(0.3 + 0.4j, abs=1e-7)
        assert up.coeffs[1] == pytest.approx(0.5 + 0.1j, abs=1e-6)

    @pytest.mark.parametrize("coeffs", [(0.2, 0.5), (0.5, 1.0), (-0.3, 0.4), (0.1, -0.2)])
    def test_near_double_real_root_is_one_order_two_term(self, coeffs):
        # eigvals splits the exact double root at -0.4 into two real roots
        # about 1.5e-8 apart; the expansion must merge them into one term.
        pf_in = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(-0.4 + 0j, tuple(map(complex, coeffs))),))
        tf = pr.recombine(pf_in)
        split = companion_roots(tf.den.coeffs)
        split = np.sort(split[np.abs(split + 0.4) < 1e-6].real)
        assert len(split) == 2 and 1e-9 < split[1] - split[0] < 1e-7
        pf = pr.expand(tf)
        assert [(t.order, t.pole.imag) for t in pf.terms] == [(2, 0.0)]
        assert pf.terms[0].pole.real == pytest.approx(-0.4, abs=1e-9)
        assert [c.real for c in pf.terms[0].coeffs] == pytest.approx(coeffs, abs=1e-6)

    def test_coinciding_refined_roots_retry_without_warnings(self):
        # eigvals gives 0.1774 +- 1.9e-9i for this exact double pole; both
        # refine to one value, so the first rung must retry, not divide by zero
        lam, c1, c2 = 0.17744616706917446, 0.37729614953234475, 0.23517732197892147
        pf_in = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(complex(lam), (complex(c1), complex(c2))),))
        tf = pr.recombine(pf_in)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pf = pr.expand(tf)
        assert [(t.order, t.pole.imag) for t in pf.terms] == [(2, 0.0)]
        assert pf.terms[0].pole.real == pytest.approx(lam, abs=1e-12)
        assert [c.real for c in pf.terms[0].coeffs] == pytest.approx([c1, c2], abs=1e-12)
        assert pf.dominant_residue == pytest.approx(1.0, abs=1e-12)

    def test_coinciding_cluster_centres_fail_cleanly(self):
        # two refined centres of this degree-15 input coincide at -0.0884: the
        # Taylor path must retry there, not divide by zero and accept a NaN residual
        P = np.polynomial.polynomial
        roots = [1.0, -0.1256, -0.1256, 0.7241]
        for z in (-0.0884 + 0.0015j, 0.2257 + 0.2667j, -0.0457 + 0.0559j):
            roots += [z, z.conjugate()] * 2
        tf = pr.from_coefficients(np.random.default_rng(0).normal(size=15), P.polyfromroots(roots).real)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                pf = pr.expand(tf)
            except ExpansionFailed:
                return
        assert all(np.isfinite(c) for t in pf.terms for c in t.coeffs)

    def test_taylor_division_refuses_coinciding_centres(self):
        tf = pr.recombine(hn_pf(4))
        with pytest.raises(tfmod._RetryExpansion, match="coincide"):
            tfmod._coeffs_at_cluster(tf, [(1.0 + 0j, 1), (0.4 + 0j, 2), (0.4 + 0j, 1)], 1)

    def test_nan_reconstruction_residual_is_refused(self, monkeypatch, h4_tf):
        monkeypatch.setattr(tfmod, "_simple_residues", lambda tf, clusters: np.full(len(clusters), complex("nan")))
        with pytest.raises(ExpansionFailed, match="residual nan"):
            pr.expand(coefficient_twin(h4_tf))

    def test_simple_residues_refuse_coinciding_roots(self):
        tf = pr.recombine(hn_pf(4))
        with pytest.raises(tfmod._RetryExpansion, match="coincide"):
            tfmod._simple_residues(tf, [(1.0 + 0j, 1), (0.4 + 0j, 1), (0.4 + 0j, 1)])

    def test_dominance_tie_not_primitive(self):
        den = np.polynomial.polynomial.polymul([-0.9, 1.0], [0.9, 1.0])
        with pytest.raises(NotPrimitive):
            pr.expand(pr.from_coefficients([1.0], den))

    def test_complex_dominant_not_primitive(self):
        den = np.polynomial.polynomial.polymul([0.81, 0.0, 1.0], [-0.5, 1.0])
        with pytest.raises(NotPrimitive):
            pr.expand(pr.from_coefficients([1.0], den))

    def test_double_dominant_root_not_primitive(self):
        P = np.polynomial.polynomial
        den = P.polymul(P.polymul([-1.0, 1.0], [-1.0, 1.0]), [-0.5, 1.0])
        with pytest.raises(NotPrimitive):
            pr.expand(pr.from_coefficients([0.1, 0.2, 0.3], den))

    def test_recombine_inverts_expand(self, example1_tf):
        back = pr.recombine(pr.expand(example1_tf))
        sample = 2.0 * np.exp(2j * np.pi * np.arange(32) / 32)
        href = example1_tf(sample)
        resid = np.abs(back(sample) - href) / (1.0 + np.abs(href))
        assert np.max(resid) < 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the products overflow
    @pytest.mark.parametrize(
        "terms",
        [
            # some products are NaN, others finite with large imaginary parts
            (pr.PoleTerm(0.5j, (-1e308 - 1e308j,)), pr.PoleTerm(0.5 + 0.5j, (1e308 + 1.5e308j,))),
            # a product's magnitude passes the float range, where abs() raises OverflowError
            (pr.PoleTerm(0.25, (0.25 + 0.5j,)), pr.PoleTerm(0.0, (1e308 + 1.5e308j,))),
        ],
    )
    def test_recombine_skips_the_non_real_check_past_the_float_range(self, terms):
        # no ExpansionFailed and no OverflowError: from_coefficients gets the real parts
        with pytest.raises(NotCoprime, match="numerator vanishes at denominator root 1$"):
            pr.recombine(pr.PartialFraction(1.0, 1.0, terms))

    @pytest.mark.parametrize("c", [1e6, 1e10, 1e300])
    def test_recombine_checks_num_and_den_each_for_non_real_values(self, c):
        # an unpaired complex pole: a large numerator must not hide the denominator's imaginary parts
        with pytest.raises(ExpansionFailed, match="non-real coefficients"):
            pr.recombine(pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0.5j, (c,)),)))


def _deep_pf(rng) -> pr.PartialFraction:
    """A partial fraction in the ranges of the deep synthesis corpus: a pair and a
    negative real pole at modulus 0.9 .. 0.985, up to two more real poles, residues
    scaled to keep every normalized impulse value at least 0.05, random gain and pole."""
    pair = 0.9 + 0.085 * rng.random()
    pair = pair * np.exp(1j * (0.05 + 0.55 * rng.random()))
    poles = [pair, pair.conjugate(), -(0.9 + 0.085 * rng.random())]
    coeffs = [(0.5 + rng.random()) * np.exp(1j * np.pi * rng.uniform(-1.0, 1.0))]
    coeffs += [coeffs[0].conjugate(), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)]
    while len(poles) < 3 + rng.integers(0, 3):
        x = rng.uniform(-0.8, 0.8)
        if all(abs(x - p) >= 0.05 for p in poles):
            poles.append(x)
            coeffs.append(rng.uniform(-1.0, 1.0))
    k = np.arange(2000)[:, None]
    lowest = min(0.0, float(np.min((np.array(coeffs) * np.array(poles) ** k).sum(axis=1).real)))
    scale = min(1.0 / sum(map(abs, coeffs)), 0.95 / -lowest if lowest else math.inf)
    pf = pr.PartialFraction(1.0, 1.0, tuple(pr.PoleTerm(p, (c * scale,)) for p, c in zip(poles, coeffs)))
    return scaled_pf(pf, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))


def _refuses(build, *args) -> bool:
    """Whether ``build(*args)`` refuses its input as ``NotCoprime``."""
    try:
        build(*args)
    except NotCoprime:
        return True
    return False


class TestGivenExpansion:
    """A recombined partial fraction is its own expansion, where root-finding would find it."""

    @pytest.mark.parametrize("pf", [hn_pf(4), scaled_pf(hn_pf(6), 3.0, 0.5), pr.PartialFraction(1.0, 2.0, (), 4.0, 0.5)])
    def test_expansion_is_the_canonical_form(self, pf):
        assert pr.expand(pr.recombine(pf)) == pr.build_partial_fraction(
            pf.dominant_pole, pf.dominant_residue, pf.terms
        )

    @given(simple_stable_pfs(), st.floats(0.5, 2.0), st.floats(0.5, 2.0))
    def test_canonical_form_on_random_input(self, pf, gamma, lam0):
        pf = scaled_pf(pf, gamma, lam0)
        assert pr.expand(pr.recombine(pf)) == pr.build_partial_fraction(
            pf.dominant_pole, pf.dominant_residue, pf.terms
        )

    def test_deep_corpus_matches_root_finding(self):
        rng = np.random.default_rng(21)
        for _ in range(24):
            tf = pr.recombine(_deep_pf(rng))
            twin = coefficient_twin(tf)
            given, found = pr.expand(tf), pr.expand(twin)
            assert found is not given and twin._expansion is None
            assert len(given.terms) == len(found.terms)
            for name in ("dominant_pole", "dominant_residue", "scale_gamma", "pole_scale"):
                assert getattr(given, name) == pytest.approx(getattr(found, name), rel=1e-9)
            for g, f in zip(given.terms, found.terms):
                assert abs(g.pole - f.pole) <= 1e-9 * abs(g.pole)
                assert abs(g.coeffs[0] - f.coeffs[0]) <= 1e-9 * abs(g.coeffs[0])
            for mode in ("per_pole", "conservative_sum"):
                a, b = pr.realize(tf, mode), pr.realize(twin, mode)
                assert type(a) is type(b) is pr.Realized
                assert a.realization.dim == b.realization.dim
                assert a.trace.shifts_performed == b.trace.shifts_performed

    @given(simple_stable_pfs(max_real=3, max_pairs=2), st.data())
    def test_term_order_does_not_change_the_coefficients(self, pf, data):
        # the canonical terms are collected, in an order of their own, so any order gives the same function
        terms = data.draw(st.permutations(pf.terms))
        assert pr.recombine(dataclasses.replace(pf, terms=terms)) == pr.recombine(pf)

    def test_reversed_h10_is_the_problem_file(self, problems_dir):
        # hn_pf lists the poles 0.4, 0.2 and the problem file 0.2, 0.4: one function, one verification
        tf = pr.recombine(hn_pf(10))
        from_file, _ = load_problem(str(problems_dir / "h10.json"))
        assert tf == from_file
        got, want = pr.realize(tf), pr.realize(from_file)
        assert got.trace.verification == want.trace.verification

    def test_order_two_term_takes_root_finding(self):
        tf = pr.recombine(pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5, (0.3, 1.0)),)))
        assert tf._expansion is None
        assert [t.order for t in pr.expand(tf).terms] == [2]

    def test_pole_near_the_dominant_one_takes_root_finding(self):
        # 1e-7 from l0 = 1: build_partial_fraction accepts it, expand's separation rule does not
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(1.0 - 1e-7, (0.1,)),))
        assert pr.build_partial_fraction(1.0, 1.0, pf.terms).terms == pf.terms
        tf = pr.recombine(pf)
        assert tf._expansion is None
        with pytest.raises(NotPrimitive):
            pr.expand(tf)

    def test_refused_terms_take_root_finding(self):
        # a pair 5e-9 off conjugate: build_partial_fraction finds no partner, while
        # the recombined coefficients are real to recombine's 1e-9 test
        terms = (pr.PoleTerm(0.1 + 0.3j, (0.02 + 0.01j,)), pr.PoleTerm(0.1 + 5e-9 - 0.3j, (0.02 - 0.01j,)))
        with pytest.raises(ValueError, match="no conjugate partner"):
            pr.build_partial_fraction(1.0, 1.0, terms)
        tf = pr.recombine(pr.PartialFraction(1.0, 1.0, terms))
        assert tf._expansion is None
        up = next(t for t in pr.expand(tf).terms if t.pole.imag > 0)
        assert up.pole == pytest.approx(0.1 + 2.5e-9 + 0.3j, abs=1e-12)

    def test_replace_carries_no_expansion(self, h4_tf):
        assert h4_tf._expansion is not None
        assert dataclasses.replace(h4_tf, num=pr.Polynomial((1.0, 2.0)))._expansion is None
        same = dataclasses.replace(h4_tf, num=h4_tf.num)
        assert same._expansion is None
        assert same == h4_tf and hash(same) == hash(h4_tf)
        assert "_expansion" not in repr(h4_tf)

    def test_given_poles_refuse_as_the_eigenvalues_do(self, monkeypatch):
        # seeded draws, not a search: the two tests may differ in principle at the 1e-9 edge, and a
        # search would find such edge cases where real inputs never go; the reference applies
        # the common-root test at the companion eigenvalues of the same coefficients, with numpy,
        # and from_coefficients, which solves for them, must agree with it too
        rnd, rng, draws = random.Random(27), np.random.default_rng(27), []
        for _ in range(2000):  # two-pole zero families, as bounds_zeros draws them
            N, p = rnd.randint(4, 16), 0.3 + 0.4 * rnd.random()
            q = 0.1 + (p - 0.2) * rnd.random()
            a, b = (1.0 - q) / ((p - q) * p ** (N - 2)), (1.0 - p) / ((p - q) * q ** (N - 2))
            pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(p, (-a,)), pr.PoleTerm(q, (b,))))
            draws.append(scaled_pf(pf, rnd.uniform(0.5, 2.0), rnd.uniform(0.5, 2.0)))
        draws += [_deep_pf(rng) for _ in range(100)]
        refused = 0
        for pf in draws:
            with monkeypatch.context() as m:
                m.setattr(tfmod, "_reject_common_roots", lambda tf: None)
                tf = pr.recombine(pf)
            assert tf._expansion is not None
            roots = companion_roots(tf.den.coeffs)
            nc = np.abs(tf.num.coeffs)
            scale = np.sum(nc * np.abs(roots)[:, None] ** np.arange(len(nc)), axis=1)
            want = bool(np.any(np.abs(tf.num(roots)) <= 1e-9 * (scale + 1e-300)))
            got = (_refuses(pr.recombine, pf), _refuses(pr.from_coefficients, tf.num.coeffs, tf.den.coeffs))
            assert got == (want, want), pf
            refused += want
        assert 0 < refused < len(draws) // 2

    def test_coprimality_is_still_tested(self):
        # H^14's coefficients fail from_coefficients' common-root test as before
        with pytest.raises(NotCoprime):
            pr.recombine(hn_pf(14))


class TestNormalize:
    def test_already_normalized_unchanged(self, h4_tf):
        pf = pr.expand(h4_tf)
        pfn = pr.normalize(pf)
        assert pfn.scale_gamma == pytest.approx(1.0, rel=1e-9)
        assert pfn.pole_scale == pytest.approx(1.0, rel=1e-9)
        for a, b in zip(pf.terms, pfn.terms):
            assert a.pole == pytest.approx(b.pole, rel=1e-12)
            assert a.coeffs[0] == pytest.approx(b.coeffs[0], rel=1e-9)

    def test_scaled_dominant(self):
        # H = 3/(z-2) + 0.8/(z-1); the series t_k / (3 * 2^(k-1)) pins the
        # normalized coefficient at 0.8/3 with the pole moved to 0.5.
        raw = pr.PartialFraction(2.0, 3.0, (pr.PoleTerm(1.0 + 0j, (0.8 + 0j,)),))
        tf = pr.recombine(raw)
        pfn = pr.normalize(pr.expand(tf))
        assert pfn.dominant_pole == 1.0 and pfn.dominant_residue == 1.0
        assert pfn.scale_gamma == pytest.approx(3.0, rel=1e-9)
        assert pfn.pole_scale == pytest.approx(2.0, rel=1e-9)
        assert pfn.terms[0].pole == pytest.approx(0.5 + 0j, rel=1e-9)
        assert pfn.terms[0].coeffs[0].real == pytest.approx(0.8 / 3.0, rel=1e-9)
        t = pr.impulse_response(tf, 12)
        tnorm = t / (pfn.scale_gamma * pfn.pole_scale ** np.arange(12))
        model = 1.0 + (0.8 / 3.0) * 0.5 ** np.arange(12)
        assert np.max(np.abs(tnorm - model)) < 1e-12

    def test_example1_unchanged(self, example1_tf):
        pfn = pr.normalize(pr.expand(example1_tf))
        assert pfn.scale_gamma == pytest.approx(1.0, abs=1e-9)
        assert pfn.pole_scale == pytest.approx(1.0, abs=1e-9)


class TestImpulseResponse:
    def test_geometric(self):
        t = pr.impulse_response(pr.from_coefficients([1.0], [-1.0, 1.0]), 10)
        assert np.allclose(t, 1.0)

    def test_h4_prefix(self, h4_tf):
        t = pr.impulse_response(h4_tf, 5)
        assert t == pytest.approx([51.0, 6.0, 0.0, 0.0, 0.48], abs=1e-10)

    def test_example1_first_value(self, example1_tf):
        t = pr.impulse_response(example1_tf, 1)
        assert t[0] == pytest.approx(1.3331328522, abs=1e-10)
        # t_1 is one plus the leading coefficient of the strictly proper part
        from conftest import LOWPASS3_NUM

        assert t[0] == pytest.approx(1.0 + LOWPASS3_NUM[-1], rel=1e-12)

    def test_values_are_a_float_array(self, h4_tf):
        t = pr.impulse_response(h4_tf, 5)
        assert type(t) is np.ndarray and t.dtype == np.float64 and t.shape == (5,)

    def test_values_are_readonly(self, h4_tf):
        t = pr.impulse_response(h4_tf, 5)
        with pytest.raises(ValueError):
            t[0] = 0.0


def assert_each_step_is_the_recurrence(tf, t):
    """Each computed t_k against p_k - sum q_i t_(k-i), evaluated exactly on the computed t.

    Whatever the summation order, one step rounds each product and each
    partial sum once, so it errs by at most (n + 1) eps (|p_k| + sum |q_i t_(k-i)|).
    """
    n = tf.mcmillan_degree
    p = [Fraction(0)] * (n - tf.num.degree) + [Fraction(v) for v in tf.num.coeffs[::-1]]
    q = [Fraction(v) for v in tf.den.coeffs[-2::-1]]
    eps = Fraction(np.finfo(float).eps)
    for k in range(1, len(t) + 1):
        pk = p[k] if k <= n else Fraction(0)
        terms = [qi * Fraction(ti) for qi, ti in zip(q, t[k - 2 :: -1] if k > 1 else [])]
        exact = pk - sum(terms)
        assert abs(Fraction(t[k - 1]) - exact) <= (n + 1) * eps * (abs(pk) + sum(map(abs, terms))), k


PROBLEM_FILES = sorted(
    p.name for p in (Path(__file__).resolve().parents[1] / "problems").glob("*.json")
    if {"transfer", "partial_fractions"} & json.loads(p.read_text()).keys()
)


class TestImpulseExactOracle:
    @pytest.mark.parametrize("name", PROBLEM_FILES)
    def test_problem_files(self, problems_dir, name):
        tf, _ = load_problem(str(problems_dir / name))
        assert_each_step_is_the_recurrence(tf, pr.impulse_response(tf, 150))

    @settings(max_examples=60, deadline=None)
    @given(simple_stable_pfs(max_real=4, max_pairs=3), st.integers(1, 120))
    def test_simple_stable_pfs(self, pf, K):
        tf = pr.recombine(pf)
        assert_each_step_is_the_recurrence(tf, pr.impulse_response(tf, K))


class TestShiftOnce:
    def test_single_term(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.5 + 0j,)),))
        t, nxt = shift_once(pf)
        assert t == pytest.approx(1.5)
        assert nxt.terms[0].coeffs[0].real == pytest.approx(0.25)

    def test_family_shift_matches_lower_member(self):
        t, nxt = shift_once(hn_pf(6))
        ref = hn_pf(5)
        for a, b in zip(nxt.terms, ref.terms):
            assert a.pole == b.pole
            assert a.coeffs[0].real == pytest.approx(b.coeffs[0].real, rel=1e-12)
        assert t == pytest.approx(hn_impulse(6, 1)[0], rel=1e-12)

    def test_no_terms(self):
        pf = pr.PartialFraction(1.0, 1.0, ())
        t, nxt = shift_once(pf)
        assert t == 1.0
        assert nxt.terms == ()

    def test_pole_at_zero_drops_out(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.0 + 0j, (1.0 + 0j,)),))
        t, nxt = shift_once(pf)
        assert t == pytest.approx(2.0)
        assert nxt.terms == ()


UPPER = pr.PoleTerm(0.1 + 0.3j, (0.02 + 0.01j,))
LOWER = pr.PoleTerm(0.1 - 0.3j, (0.02 - 0.01j,))


class TestBuildPartialFraction:
    """Every way ``build_partial_fraction`` refuses supplied terms, and its symmetrized pairs."""

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([UPPER], "complex pole 0.1\\+0.3j has no conjugate partner"),
            ([LOWER], "complex pole terms do not form conjugate pairs"),
            ([UPPER, LOWER, LOWER], "complex pole terms do not form conjugate pairs"),
            # a lower term of another order, or off by more than 1e-9 relative, is not a partner
            ([UPPER, pr.PoleTerm(0.1 - 0.3j, (0.02 - 0.01j, 0.1))], "has no conjugate partner"),
            ([UPPER, pr.PoleTerm(0.1 + 2e-9 - 0.3j, (0.02 - 0.01j,))], "has no conjugate partner"),
            ([UPPER, pr.PoleTerm(0.1 - 0.3j, (0.02 - 0.01j + 2e-9,))], "has no conjugate partner"),
            ([pr.PoleTerm(0.5, (0.2 + 1e-6j,))], "real pole carries a non-real coefficient"),
            ([pr.PoleTerm(0.5, (0.2,)), pr.PoleTerm(0.5, (0.3,))], "pairwise distinct poles"),
            ([UPPER, LOWER, UPPER, LOWER], "pairwise distinct poles"),
        ],
    )
    def test_malformed_terms_raise_value_error(self, terms, message):
        with pytest.raises(ValueError, match=message) as exc:
            pr.build_partial_fraction(1.0, 1.0, terms)
        assert not isinstance(exc.value, NotPrimitive)

    @pytest.mark.parametrize(
        "lam0, gamma, terms, message",
        [
            (1.0, 1.0, [pr.PoleTerm(-1.0, (0.2,))], "reaches the dominant modulus"),
            (1.0, 1.0, [pr.PoleTerm(1j, (0.2,)), pr.PoleTerm(-1j, (0.2,))], "reaches the dominant modulus"),
            (0.0, 1.0, [], "dominant pole must be positive with a nonzero residue"),
            (-1.0, 1.0, [], "dominant pole must be positive with a nonzero residue"),
            (1.0, 0.0, [], "dominant pole must be positive with a nonzero residue"),
        ],
    )
    def test_non_primitive_input_raises(self, lam0, gamma, terms, message):
        with pytest.raises(NotPrimitive, match=message):
            pr.build_partial_fraction(lam0, gamma, terms)

    @pytest.mark.parametrize(
        "lam0, gamma, terms, message",
        [
            (math.nan, 1.0, [], "non-finite dominant pole: nan"),
            (math.inf, 1.0, [], "non-finite dominant pole: inf"),
            (1.0, math.nan, [], "non-finite dominant residue: nan"),
            (1.0, -math.inf, [], "non-finite dominant residue: -inf"),
            (1.0, 1.0, [pr.PoleTerm(complex(math.nan, 0.0), (0.2,))], "non-finite pole of term 0: \\(nan\\+0j\\)"),
            (1.0, 1.0, [UPPER, LOWER, pr.PoleTerm(0.5, (0.2, math.inf))], "non-finite coefficient of term 2: \\(inf\\+0j\\)"),
            # refused for the value, ahead of the pole test and the pairing
            (-1.0, 1.0, [pr.PoleTerm(0.5, (math.nan,))], "non-finite coefficient of term 0"),
            (1.0, 1.0, [UPPER, pr.PoleTerm(complex(0.1, -math.inf), (0.2,))], "non-finite pole of term 1"),
        ],
    )
    def test_non_finite_values_raise_value_error(self, lam0, gamma, terms, message):
        with pytest.raises(ValueError, match=message):
            pr.build_partial_fraction(lam0, gamma, terms)

    @pytest.mark.parametrize(
        "terms, message",
        [
            # abs() of this finite value overflows
            ([pr.PoleTerm(0.5, (1.5e308 + 1.5e308j,))], "coefficient of term 0 is too large"),
            ([UPPER, LOWER, pr.PoleTerm(complex(1e308, 1e308), (0.2,))], "pole of term 2 is too large"),
            # no one value is too large, but their sum would overflow
            ([pr.PoleTerm(0.5, (1e308,)), pr.PoleTerm(0.2, (1e308,))], "pole terms too large"),
        ],
    )
    def test_values_past_the_float_range_raise_value_error(self, terms, message):
        with pytest.raises(ValueError, match=message):
            pr.build_partial_fraction(1.0, 1.0, terms)

    def test_near_conjugates_come_back_exactly_symmetric(self):
        # the lower term is listed first and sits 1e-12 off the conjugate
        lower = pr.PoleTerm(0.1 + 1e-12 - 0.3j, (0.02 + 1e-12 - 0.01j, 0.05 - 1e-12 + 0.04j))
        upper = pr.PoleTerm(0.1 + 0.3j, (0.02 + 0.01j, 0.05 - 0.04j))
        pf = pr.build_partial_fraction(1.0, 1.0, [lower, pr.PoleTerm(0.5 + 1e-12j, (0.2,)), upper])
        up, down, real = pf.terms
        assert (real.pole, real.coeffs) == (0.5, (0.2,))
        assert up.pole.imag > 0 and up.pole == pytest.approx(0.1 + 0.5e-12 + 0.3j, abs=1e-15)
        assert down.pole == up.pole.conjugate()
        assert down.coeffs == tuple(c.conjugate() for c in up.coeffs)


class TestDistinctAtThePoleScale:
    """Two listed poles are distinct once farther apart than 1e-12 (l0 + |p|): the rule at l0 = 1, at any scale."""

    @staticmethod
    def h4(lam0):
        return [pr.PoleTerm(0.4 * lam0, (-25.0,)), pr.PoleTerm(0.2 * lam0, (75.0,))]

    @pytest.mark.parametrize("lam0", [1e-100, 1e-12, 1.0, 1e4])
    def test_rule(self, lam0):
        for gap, distinct in ((1e-12, False), (2e-12, True)):  # at p = 0.5 l0 the bound is 1.5e-12 l0
            terms = [pr.PoleTerm(0.5 * lam0, (0.2,)), pr.PoleTerm(0.5 * lam0 + gap * lam0, (0.3,))]
            if distinct:
                assert len(pr.build_partial_fraction(lam0, 1.0, terms).terms) == 2
            else:
                with pytest.raises(ValueError, match="pairwise distinct poles"):
                    pr.build_partial_fraction(lam0, 1.0, terms)
        assert len(pr.build_partial_fraction(lam0, 1.0, self.h4(lam0)).terms) == 2

    @pytest.mark.parametrize("lam0", [1e-12, 1e-100])
    def test_h4_at_a_tiny_scale_realizes(self, lam0):
        # the absolute test merged 0.4 l0 and 0.2 l0, and realize refused "dominant pole is not simple"
        tf = pr.recombine(pr.PartialFraction(lam0, 1.0, tuple(self.h4(lam0))))
        out = pr.realize(tf)
        assert isinstance(out, pr.Realized) and out.trace.verification.passed
        assert out.realization.dim == out.trace.final_dimension == 7
        report = pr.bounds_report(tf)
        assert (report.k0, report.zero_indices, report.theo2, report.mn2) == (4, (3, 4), 2, 2)


@given(supplied_pole_terms())
def test_build_partial_fraction_is_idempotent(supplied):
    """Its own output's terms, cleaned and symmetrized already, come back as the same result."""
    pf = pr.build_partial_fraction(*supplied)
    again = pr.build_partial_fraction(pf.dominant_pole, pf.dominant_residue, pf.terms)
    assert repr(again) == repr(pf)  # repr: every float bit for bit, -0.0 apart from 0.0


@given(supplied_pole_terms(), st.data())
def test_build_partial_fraction_ignores_the_term_order(supplied, data):
    """Any order of the same terms, each pair's lower term listed first or last, gives the same result."""
    lam0, gamma, terms = supplied
    shuffled = data.draw(st.permutations(terms))
    assert repr(pr.build_partial_fraction(lam0, gamma, shuffled)) == repr(pr.build_partial_fraction(*supplied))


class TestIterationEstimate:
    def test_all_positive_terms(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.5 + 0j,)),))
        assert iteration_estimate(pf) == 1

    def test_formula_on_counted_pole(self):
        # same arithmetic as the positive-residue case, on a pole that counts
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (-1.5 + 0j,)),))
        want = math.ceil(abs(math.log(1 * 1.5 / pr.tf.CONSERVATIVE_LIMIT) / math.log(0.5)))
        assert want == 2
        assert iteration_estimate(pf) == 2

    def test_example1_finite(self, example1_tf):
        est = iteration_estimate(pr.normalize(pr.expand(example1_tf)))
        assert est >= 1


class TestRefineRoot:
    ROOTS = (1.0, 0.55, -0.7, 0.3 + 0.5j, 0.3 - 0.5j, -0.2 + 0.6j, -0.2 - 0.6j, 0.1)

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Records every polynomial evaluation made by the expansion."""
        seen = []
        horner = tfmod._horner

        def counting(poly, z):
            seen.append(z)
            return horner(poly, z)

        monkeypatch.setattr(tfmod, "_horner", counting)
        return seen

    def test_separated_roots_stop_within_three_steps(self, evaluations):
        den = tuple(np.polynomial.polynomial.polyfromroots(self.ROOTS).real)
        for z0 in companion_roots(den):
            evaluations.clear()
            z = tfmod._refine_root(tfmod._newton_polys(den, 1), complex(z0))
            # one value at the start, then a derivative and a value per step
            assert len(evaluations) <= 1 + 2 * 3
            assert min(abs(z - r) for r in self.ROOTS) < 1e-14

    def test_expand_evaluates_each_root_a_few_times(self, evaluations):
        den = np.polynomial.polynomial.polyfromroots(self.ROOTS).real
        pf = pr.expand(pr.from_coefficients([0.3, -0.2, 0.5, 0.1], den))
        assert pf.mcmillan_degree == len(self.ROOTS)
        # a conjugate pair is refined once, on its upper root
        assert len(evaluations) <= (1 + 2 * 3) * (len(self.ROOTS) - 2)

    @pytest.mark.parametrize("n", [12, 18, 24])
    def test_newton_stops_at_the_rounding_floor(self, evaluations, n):
        # at these degrees 4 eps |z| lies below the Horner rounding floor, so
        # only the stall stop keeps a refinement from running to the cap
        rng = np.random.default_rng(n)
        counts = []
        for _ in range(100):
            den = np.polynomial.polynomial.polyfromroots(_separated_poles(rng, n)).real
            polys = tfmod._newton_polys(den, 1)
            for z0 in companion_roots(den):
                if z0.imag < 0:  # expand refines the upper root of a pair
                    continue
                evaluations.clear()
                z = tfmod._refine_root(polys, complex(z0))
                counts.append(len(evaluations))
                start = z0.real if z0.imag == 0 else complex(z0)
                assert abs(tfmod._horner(polys[0], z)) <= abs(tfmod._horner(polys[0], start))
        # one value at the start, then a derivative and a value per step
        assert max(counts) < 1 + 2 * 12
        assert np.mean(counts) <= 7


def _separated_poles(rng, n: int, gap: float = 0.05) -> list[complex]:
    poles: list[complex] = []
    while len(poles) < n:
        if n - len(poles) >= 2 and rng.random() < 0.5:
            z = 0.95 * np.sqrt(rng.random()) * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
            new = [z, z.conjugate()]
        else:
            new = [complex(rng.uniform(-0.95, 0.95))]
        cand = poles + new
        if all(abs(a - b) > gap for i, a in enumerate(cand) for b in cand[:i]):
            poles = cand
    return poles


@given(st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_closed_form_residues_match_taylor_division(n, seed):
    rng = np.random.default_rng(seed)
    poles = _separated_poles(rng, n)
    den = np.polynomial.polynomial.polyfromroots(poles).real
    num = rng.uniform(-1.0, 1.0, rng.integers(1, n + 1))
    num[-1] = num[-1] or 1.0
    tf = pr.TransferFunction(pr.Polynomial(num), pr.Polynomial(den / den[-1]))
    clusters = [(complex(p), 1) for p in poles]
    closed = tfmod._simple_residues(tf, clusters)
    taylor = [tfmod._coeffs_at_cluster(tf, clusters, i)[0] for i in range(n)]
    np.testing.assert_allclose(closed, taylor, rtol=1e-12, atol=0.0)


@given(st.integers(12, 24), st.integers(0, 2**32 - 1))
def test_round_trip_at_wide_degrees(n, seed):
    rng = np.random.default_rng(seed)
    terms = []
    for p in _separated_poles(rng, n - 1):
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi)) if p.imag else rng.choice([-1, 1])
        c = rng.uniform(0.05, 1.0) * phase
        if p.imag >= 0:
            terms.append(pr.PoleTerm(p, (c,)))
        if p.imag > 0:
            terms.append(pr.PoleTerm(p.conjugate(), (np.conj(c),)))
    pf = pr.PartialFraction(1.0, 1.0, tuple(terms))
    try:
        tf = pr.recombine(pf)
    except NotCoprime:
        # from_coefficients' common-root test is relative to the numerator's
        # terms and reads some degree-20+ numerators as vanishing at a pole
        # (about 1 draw in 600); that refusal is not expand's
        reject()
    back = pr.expand(coefficient_twin(tf))  # root-finding, not the given terms
    # a pole moves by about eps * cond when recombine rounds the coefficients
    P, eps = np.polynomial.polynomial, np.finfo(float).eps
    den = np.array(tf.den.coeffs)
    for t in pf.terms:
        cond = P.polyval(abs(t.pole), np.abs(den)) / abs(P.polyval(t.pole, P.polyder(den)))
        assert min(abs(u.pole - t.pole) for u in back.terms) <= 1e-9 + 16 * eps * cond
    sample = 1.7 * np.exp(2j * np.pi * (np.arange(41) + 0.37) / 41)  # off the check's own circle
    href = tf(sample)
    assert np.max(np.abs(back.evaluate(sample) - href) / (1.0 + np.abs(href))) < 1e-8


def _random_monic(rng, n: int) -> np.ndarray:
    """Ascending monic coefficients of degree n: random coefficients, or random
    roots with repeated real roots and repeated conjugate pairs."""
    if rng.random() < 0.3:
        return np.append(rng.normal(size=n), 1.0)
    roots: list[complex] = []
    while len(roots) < n:
        times = int(rng.integers(1, 4))
        if n - len(roots) >= 2 * times and rng.random() < 0.5:
            z = rng.uniform(0.05, 1.2) * np.exp(1j * rng.uniform(0.01, np.pi - 0.01))
            roots += [z, z.conjugate()] * times
        else:
            roots += [complex(rng.uniform(-1.2, 1.2))] * min(times, n - len(roots))
    return np.polynomial.polynomial.polyfromroots(roots).real


def test_companion_roots_come_in_exact_conjugate_pairs():
    # expand mirrors the upper clusters; that needs the lower-half roots to be
    # the exact conjugates of the upper-half ones
    rng = np.random.default_rng(12)
    for _ in range(2000):
        coeffs = _random_monic(rng, int(rng.integers(2, 25)))
        roots = companion_roots(coeffs)
        upper = np.sort_complex(roots[roots.imag > 0])
        lower = np.sort_complex(roots[roots.imag < 0].conjugate())
        assert upper.tobytes() == lower.tobytes(), coeffs


# --- properties ------------------------------------------------------------


@given(simple_stable_pfs())
def test_expand_recombine_round_trip(pf):
    tf = pr.recombine(pf)
    sample = 2.0 * np.exp(2j * np.pi * np.arange(32) / 32)
    href = tf(sample)
    for back in (pr.expand(tf), pr.expand(coefficient_twin(tf))):  # given, then root-finding
        resid = np.abs(back.evaluate(sample) - href) / (1.0 + np.abs(href))
        assert np.max(resid) < 1e-8


@given(simple_stable_pfs(), st.integers(5, 40))
def test_impulse_matches_direct_evaluation(pf, K):
    tf = pr.recombine(pf)
    t = pr.impulse_response(tf, K)
    k = np.arange(K)
    direct = np.ones(K)
    for term in pf.terms:
        direct = direct + (term.coeffs[0] * term.pole**k).real
    assert np.max(np.abs(t - direct) / (1.0 + np.abs(direct))) < 1e-9


def test_impulse_matches_direct_evaluation_multiple_pole():
    # c1/(z-l) + c2/(z-l)^2 contributes c1 l^(k-1) + c2 (k-1) l^(k-2)
    pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.7 + 0j, 0.3 + 0j)),))
    t = pr.impulse_response(pr.recombine(pf), 12)
    k = np.arange(1, 13)
    want = 1.0 + 0.7 * 0.5 ** (k - 1)
    want += 0.3 * np.where(k >= 2, (k - 1) * 0.5 ** np.maximum(k - 2, 0), 0.0)
    assert np.max(np.abs(t - want) / (1.0 + np.abs(want))) < 1e-9


def _shift_through_constructors(pf):
    """``shift_once``'s tail rebuilt through the public, validating constructors."""
    terms = []
    for term in pf.terms:
        cs = term.coeffs
        shifted = [term.pole * a + b for a, b in zip(cs, cs[1:])] + [term.pole * cs[-1]]
        while shifted and shifted[-1] == 0:
            shifted.pop()
        if shifted:
            terms.append(pr.PoleTerm(term.pole, tuple(shifted)))
    return pr.PartialFraction(pf.dominant_pole, pf.dominant_residue, terms, pf.scale_gamma, pf.pole_scale)


def _bits(x):
    """A value's exact bits, with its type: -0.0 and 0.0 differ."""
    if isinstance(x, complex):
        return type(x), x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return type(x), x.hex()
    if isinstance(x, tuple):
        return type(x), tuple(_bits(v) for v in x)
    if isinstance(x, pr.PoleTerm):
        return type(x), _bits(x.pole), _bits(x.coeffs)
    return type(x), x


@st.composite
def shiftable_pfs(draw):
    """Normalized partial fractions with terms of order 1-3, real (possibly zero) or in conjugate pairs."""
    coeff = st.floats(-2.0, 2.0, allow_subnormal=False)
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        order = draw(st.integers(1, 3))
        if draw(st.booleans()):
            lam = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.95, 0.95)))
            cs = [complex(draw(coeff)) for _ in range(order)]
            assume(cs[-1] != 0)
            terms.append(pr.PoleTerm(complex(lam), cs))
        else:
            lam = complex(draw(st.floats(-0.9, 0.9)), draw(st.floats(0.05, 0.9)))
            cs = [complex(draw(coeff), draw(coeff)) for _ in range(order)]
            assume(cs[-1] != 0)
            terms.append(pr.PoleTerm(lam, cs))
            terms.append(pr.PoleTerm(lam.conjugate(), [c.conjugate() for c in cs]))
    scale = st.floats(1e-3, 1e3)
    return pr.PartialFraction(1.0, 1.0, terms, draw(scale), draw(scale))


MULTIPLE_POLE = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.7 + 0j, 0.3 + 0j)),), 2.0, 0.5)
DROPS_OUT = pr.PartialFraction(
    1.0, 1.0, (pr.PoleTerm(0j, (0.4 + 0j,)), pr.PoleTerm(0j - 0.6, (0.2 + 0j,)), pr.PoleTerm(0j, (0.1 + 0j, 0.3 + 0j)))
)


@given(shiftable_pfs(), st.integers(1, 4))
@example(MULTIPLE_POLE, 3)
@example(DROPS_OUT, 2)
def test_shift_once_equals_the_validated_tail(pf, shifts):
    """Bit for bit: shift_once's tail is the one the public constructors build from its arithmetic, shift after shift."""
    cur = pf
    for _ in range(shifts):
        t, got = shift_once(cur)
        want = _shift_through_constructors(cur)
        assert t == leading_impulse(cur)
        assert got == want and hash(got) == hash(want)
        assert [f.name for f in dataclasses.fields(got)] == list(vars(got)) == list(vars(want))
        assert [_bits(getattr(got, f)) for f in vars(got)] == [_bits(getattr(want, f)) for f in vars(want)]
        cur = got
    if pf is DROPS_OUT:
        assert [(t.pole, t.order) for t in cur.terms] == [(-0.6 + 0j, 1)]


def _walk_terms(pf, coeffs, higher):
    """The walk's chains as (pole, coefficients) of the terms that have not dropped out, as shift_once keeps them."""
    chains = ((j, t.pole, c) for j, (t, c) in enumerate(zip(pf.terms, coeffs)))
    return tuple((pole, (c, *higher.get(j, ()))) for j, pole, c in chains if c != 0 or j in higher)


@given(st.one_of(shiftable_pfs(), simple_stable_pfs()), st.integers(1, 12))
@example(MULTIPLE_POLE, 6)
@example(DROPS_OUT, 4)
@example(pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.95j, (0.6,)), pr.PoleTerm(-0.95j, (0.6,)))), 4)  # t~_3 < 0
def test_walk_follows_shift_once_bit_for_bit(pf, shifts):
    """t~_k and every chain of tf._walk are iterated shift_once's, bit for bit, up to the walk's witness."""
    walk, cur = tfmod._walk(pf), pf
    band = tfmod._zero_band(leading_impulse(pf))
    for k in range(1, shifts + 1):
        t = leading_impulse(cur)
        if t < -band:
            with pytest.raises(NegativeImpulse) as exc:
                next(walk)
            assert (exc.value.index, _bits(exc.value.value)) == (k, _bits(pf.scale_gamma * pf.pole_scale ** (k - 1) * t))
            return
        got, coeffs, higher = next(walk)
        assert _bits(got) == _bits(t)
        assert _bits(_walk_terms(pf, coeffs, higher)) == _bits(tuple((term.pole, term.coeffs) for term in cur.terms))
        _, cur = shift_once(cur)


class TestWitnessPastTheFloatRange:
    """The walk's witness value s l0^(k-1) t~_k is today's product wherever l0^(k-1) is finite; past the float range
    it is the product from logs where that is finite, else -inf, and never an OverflowError."""

    @staticmethod
    def pair(lam0, gamma=1.0):
        # l0 with residue gamma, and the pair 0.995 l0 e^(+-0.05i) with coefficient 0.8 gamma: t~_52 < 0
        p = 0.995 * lam0 * cmath.exp(0.05j)
        c = 0.8 * gamma + 0j
        return pr.recombine(pr.PartialFraction(lam0, gamma, (pr.PoleTerm(p, (c,)), pr.PoleTerm(p.conjugate(), (c,)))))

    @pytest.mark.parametrize(
        "lam0, value",
        [(1.0, -0.02849741450436527), (1e5, -2.8497414504370154e253), (1e7, -math.inf)],  # 1e7^51 overflows
    )
    def test_witness(self, lam0, value):
        tf = self.pair(lam0)
        assert pr.realize(tf) == pr.NoPositiveRealization(52, value)
        with pytest.raises(NegativeImpulse) as exc:
            pr.bounds_report(tf)
        assert (exc.value.index, exc.value.value) == (52, value)

    def test_a_finite_product_past_an_overflowing_power(self):
        # 1e7^51 overflows, but 1e-200 1e7^51 t~_52 does not
        out = pr.realize(self.pair(1e7, 1e-200))
        assert out.witness_index == 52
        assert out.witness_value == pytest.approx(-0.02849741450436527 * 1e57 * 1e100, rel=1e-9)


@given(simple_stable_pfs(), st.floats(0.5, 2.0))
def test_walk_witness_is_the_recurrences_first_negative_value(pfn, lam0):
    """A negative dominant residue: the certified scan's witness is the first t_k < 0 of impulse_response."""
    raw = scaled_pf(pr.PartialFraction(1.0, -1.0, pfn.terms), 1.0, lam0)
    try:
        tf = pr.recombine(raw)
    except NotCoprime:
        reject()
    with pytest.raises(NegativeImpulse) as exc:
        _certified_scan(pr.expand(tf))
    t = pr.impulse_response(tf, exc.value.index)
    k = np.arange(len(t))
    # rounding decides no sign: every value up to the witness is clear of zero
    assume(np.all(np.abs(t) > 1e-8 * lam0**k * (1.0 + sum(abs(c.coeffs[0]) for c in pfn.terms))))
    assert t[-1] < 0 and np.all(t[:-1] > 0)
    assert exc.value.value == pytest.approx(t[-1], rel=1e-9, abs=1e-12)


@given(simple_stable_pfs(), st.integers(1, 8))
def test_shift_closed_form(pf, shifts):
    cur = pf
    for _ in range(shifts):
        _, cur = shift_once(cur)
    survived = {t.pole: t.coeffs[0] for t in cur.terms}
    for term in pf.terms:
        want = term.coeffs[0] * term.pole**shifts
        got = survived.get(term.pole, 0j)  # a pole at zero drops out
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@given(simple_stable_pfs(), st.integers(1, 8))
def test_shift_t_equals_impulse(pf, shifts):
    tf = pr.recombine(pf)
    ref = pr.impulse_response(tf, shifts)
    cur = pf
    for m in range(shifts):
        t, cur = shift_once(cur)
        assert t == pytest.approx(ref[m], rel=1e-9, abs=1e-9)


@given(simple_stable_pfs(), st.floats(0.2, 3.0), st.floats(0.4, 2.0))
def test_normalize_round_trip(pf, gamma, lam0):
    raw = scaled_pf(pf, gamma, lam0)
    assert raw.dominant_pole == pytest.approx(lam0)
    norm = pr.normalize(raw)
    back = scaled_pf(norm, norm.scale_gamma, norm.pole_scale)
    assert back.dominant_residue == pytest.approx(raw.dominant_residue, rel=1e-12)
    assert back.dominant_pole == pytest.approx(raw.dominant_pole, rel=1e-12)
    for a, b in zip(back.terms, raw.terms):
        assert a.pole == pytest.approx(b.pole, rel=1e-12)
        assert a.coeffs[0] == pytest.approx(b.coeffs[0], rel=1e-12)


def _components(roots, radius):
    """Reference for tf._cluster_indices: depth-first search over the pairs within ``radius``."""
    groups, seen = [], set()
    for start in range(len(roots)):
        if start in seen:
            continue
        seen.add(start)
        group, todo = [], [start]
        while todo:
            i = todo.pop()
            group.append(i)
            near = [j for j in range(len(roots)) if j not in seen and abs(roots[i] - roots[j]) <= radius]
            seen.update(near)
            todo += near
        groups.append(sorted(group))
    return groups


@given(
    st.lists(
        st.tuples(st.complex_numbers(max_magnitude=2.0), st.lists(st.floats(0.3, 1.5), max_size=6)),
        min_size=1,
        max_size=4,
    ),
    st.floats(-10.0, -1.0),
    st.randoms(use_true_random=False),
)
def test_root_clusters_are_the_chained_components(walks, log_radius, rnd):
    # walks in steps near the radius, so single links chain past it; shuffled, so group order shows
    radius = 10.0**log_radius
    roots = []
    for start, steps in walks:
        roots.append(start)
        for step in steps:
            roots.append(roots[-1] + step * radius)
    rnd.shuffle(roots)
    roots = np.array(roots, dtype=complex)
    assert tfmod._cluster_indices(roots, radius) == _components(roots, radius)
