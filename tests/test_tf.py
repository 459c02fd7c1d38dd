import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posreal as pr
import posreal.tf as tfmod
from posreal.cli import load_problem
from posreal.errors import NotCoprime, NotPrimitive, NotStrictlyProper, ZeroDenominator

from conftest import hn_pf, hn_tf, hn_impulse, scaled_pf
from strategies import simple_stable_pfs


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
        pf = pr.expand(h4_tf)
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


class TestIterationEstimate:
    def test_all_positive_terms(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.5 + 0j,)),))
        assert pr.iteration_estimate(pf) == 1

    def test_formula_on_counted_pole(self):
        # same arithmetic as the positive-residue case, on a pole that counts
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (-0.5 + 0j,)),))
        want = math.ceil(abs(math.log(2**2.5 * 1 * 0.5) / math.log(0.5)))
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
            z = tfmod._refine_root(den, complex(z0), 1)
            # one value at the start, then a derivative and a value per step
            assert len(evaluations) <= 1 + 2 * 3
            assert min(abs(z - r) for r in self.ROOTS) < 1e-14

    def test_expand_evaluates_each_root_a_few_times(self, evaluations):
        den = np.polynomial.polynomial.polyfromroots(self.ROOTS).real
        pf = pr.expand(pr.from_coefficients([0.3, -0.2, 0.5, 0.1], den))
        assert pf.mcmillan_degree == len(self.ROOTS)
        # a conjugate pair is refined once, on its upper root
        assert len(evaluations) <= (1 + 2 * 3) * (len(self.ROOTS) - 2)


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
    back = pr.expand(tf)
    sample = 2.0 * np.exp(2j * np.pi * np.arange(32) / 32)
    href = tf(sample)
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
