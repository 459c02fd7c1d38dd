import dataclasses
import json
import math
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
from posreal.errors import ExpansionFailed, NotCoprime, NotPrimitive, NotStrictlyProper, ZeroDenominator

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

    def test_realize_recombined_input_solves_once(self, solves):
        assert isinstance(pr.realize(pr.recombine(hn_pf(4))), pr.Realized)
        assert len(solves) == 1

    def test_bounds_report_solves_once(self, solves):
        # the one solve is from_coefficients' coprimality test; the recombined input is its own expansion
        assert pr.bounds_report(pr.recombine(hn_pf(6))).k0 == 6
        assert len(solves) == 1

    def test_roots_are_the_companion_eigenvalues_and_read_only(self):
        tf = pr.TransferFunction(pr.Polynomial((0.3, 1.0)), pr.Polynomial((0.1, -0.2, -0.5, 1.0)))
        assert tf.roots.tobytes() == pr.companion_roots(tf.den.coeffs).tobytes()
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
        split = pr.companion_roots(tf.den.coeffs)
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
        spec = load_problem(str(problems_dir / "h10.json"))
        assert tf == spec.tf
        got, want = pr.realize(tf), pr.realize(spec.tf)
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
        tf = load_problem(str(problems_dir / name)).tf
        assert_each_step_is_the_recurrence(tf, pr.impulse_response(tf, 150))

    @settings(max_examples=60, deadline=None)
    @given(simple_stable_pfs(max_real=4, max_pairs=3), st.integers(1, 120))
    def test_simple_stable_pfs(self, pf, K):
        tf = pr.recombine(pf)
        assert_each_step_is_the_recurrence(tf, pr.impulse_response(tf, K))


class TestShiftOnce:
    def test_single_term(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.5 + 0j,)),))
        t, nxt = pr.shift_once(pf)
        assert t == pytest.approx(1.5)
        assert nxt.terms[0].coeffs[0].real == pytest.approx(0.25)

    def test_family_shift_matches_lower_member(self):
        t, nxt = pr.shift_once(hn_pf(6))
        ref = hn_pf(5)
        for a, b in zip(nxt.terms, ref.terms):
            assert a.pole == b.pole
            assert a.coeffs[0].real == pytest.approx(b.coeffs[0].real, rel=1e-12)
        assert t == pytest.approx(hn_impulse(6, 1)[0], rel=1e-12)

    def test_no_terms(self):
        pf = pr.PartialFraction(1.0, 1.0, ())
        t, nxt = pr.shift_once(pf)
        assert t == 1.0
        assert nxt.terms == ()

    def test_pole_at_zero_drops_out(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.0 + 0j, (1.0 + 0j,)),))
        t, nxt = pr.shift_once(pf)
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
        assert pr.iteration_estimate(pf) == 1

    def test_formula_on_counted_pole(self):
        # same arithmetic as the positive-residue case, on a pole that counts
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (-1.5 + 0j,)),))
        want = math.ceil(abs(math.log(1 * 1.5 / pr.tf.CONSERVATIVE_LIMIT) / math.log(0.5)))
        assert want == 2
        assert pr.iteration_estimate(pf) == 2

    def test_example1_finite(self, example1_tf):
        est = pr.iteration_estimate(pr.normalize(pr.expand(example1_tf)))
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
        for z0 in pr.companion_roots(den):
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
            for z0 in pr.companion_roots(den):
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
        roots = pr.companion_roots(coeffs)
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
        t, got = pr.shift_once(cur)
        want = _shift_through_constructors(cur)
        assert t == pr.leading_impulse(cur)
        assert got == want and hash(got) == hash(want)
        assert [f.name for f in dataclasses.fields(got)] == list(vars(got)) == list(vars(want))
        assert [_bits(getattr(got, f)) for f in vars(got)] == [_bits(getattr(want, f)) for f in vars(want)]
        cur = got
    if pf is DROPS_OUT:
        assert [(t.pole, t.order) for t in cur.terms] == [(-0.6 + 0j, 1)]


@given(simple_stable_pfs(), st.integers(1, 8))
def test_shift_closed_form(pf, shifts):
    cur = pf
    for _ in range(shifts):
        _, cur = pr.shift_once(cur)
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
        t, cur = pr.shift_once(cur)
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
