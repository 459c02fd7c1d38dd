import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import posreal as pr
from posreal.errors import BaseMismatch, NegativeEntry, NegativeImpulse

from conftest import hn_pf, hn_tf, random_stable_pf
from strategies import simple_stable_pfs

ONE_STATE = pr.Realization(np.array([[0.5]]), np.array([1.0]), np.array([1.0]))


class TestRealize:
    def test_pure_dominant(self):
        out = pr.realize(pr.from_coefficients([1.0], [-1.0, 1.0]))
        assert isinstance(out, pr.Realized)
        assert out.realization.dim == 1
        assert out.realization.A.tolist() == [[1.0]]
        assert out.realization.b.tolist() == [1.0]
        assert out.realization.c.tolist() == [1.0]
        assert out.trace.shifts_performed == 0

    def test_example1_per_pole(self, example1_tf):
        out = pr.realize(example1_tf, "per_pole")
        assert isinstance(out, pr.Realized)
        assert out.trace.final_dimension == 6
        assert out.trace.shifts_performed == 1
        kinds = sorted((b.kind, b.dim) for b in out.trace.blocks)
        assert kinds == [("complex_pair", 4), ("positive_pole", 1)]
        assert out.trace.verification.passed

    def test_example1_conservative(self, example1_tf):
        out = pr.realize(example1_tf, "conservative_sum")
        assert isinstance(out, pr.Realized)
        assert out.trace.final_dimension <= 9
        assert out.trace.pre_lift_dimension == 5
        assert out.trace.verification.passed

    def test_no_positive_realization(self):
        tf = pr.from_coefficients([1.5, -1.0], [0.5, -1.5, 1.0])
        out = pr.realize(tf)
        assert isinstance(out, pr.NoPositiveRealization)
        assert out.witness_index == 1
        assert out.witness_value == pytest.approx(-1.0)

    def test_unsupported_multiple_poles(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.3 + 0j, 1.0 + 0j)),))
        out = pr.realize(pr.recombine(pf))
        assert isinstance(out, pr.Unsupported)

    def test_unsupported_not_primitive(self):
        den = np.polynomial.polynomial.polymul([-0.9, 1.0], [0.9, 1.0])
        out = pr.realize(pr.from_coefficients([1.0], den))
        assert isinstance(out, pr.Unsupported)

    def test_negative_dominant_residue_yields_witness(self):
        P = np.polynomial.polynomial
        den = P.polymul([-1.0, 1.0], [-0.5, 1.0])
        num = P.polyadd(P.polymul([-1.0], [-0.5, 1.0]), P.polymul([0.5], [-1.0, 1.0]))
        out = pr.realize(pr.from_coefficients(num, den))
        assert isinstance(out, pr.NoPositiveRealization)
        assert out.witness_value < 0

    def test_iteration_cap(self, example1_tf):
        out = pr.realize(example1_tf, "conservative_sum", cap_override=1)
        assert isinstance(out, pr.IterationCapExceeded)
        assert out.cap == 1

    def test_denormalization(self):
        # dominant pole at 2 with gain 3; the output must match the original
        raw = pr.PartialFraction(2.0, 3.0, (pr.PoleTerm(1.0 + 0j, (0.8 + 0j,)),))
        tf = pr.recombine(raw)
        out = pr.realize(tf)
        assert isinstance(out, pr.Realized)
        report = pr.markov_check(out.realization, tf, 60, 1e-9)
        assert report.passed

    def test_trace_dimension_accounting(self, example1_tf):
        out = pr.realize(example1_tf, "per_pole")
        tr = out.trace
        assert tr.final_dimension == tr.pre_lift_dimension + tr.shifts_performed
        assert len(tr.prefix) == tr.shifts_performed
        assert all(v >= 0 for v in tr.prefix)

    def test_budget_totals_monotone(self, example1_tf):
        out = pr.realize(example1_tf, "conservative_sum")
        totals = out.trace.budget_totals
        assert all(b <= a * (1 + 1e-12) for a, b in zip(totals, totals[1:]))

    def test_gain_only_poles_take_one_extra_state(self):
        # no block consumes the dominant residue, so it gets its own state
        tf = pr.recombine(
            pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.3 + 0j,)),))
        )
        out = pr.realize(tf)
        assert out.trace.final_dimension == 2
        kinds = [b.kind for b in out.trace.blocks]
        assert kinds == ["positive_pole", "dominant_remainder"]


class TestFamilyDimensions:
    @pytest.mark.parametrize("N", range(4, 13))
    def test_plain_dimension(self, N):
        out = pr.realize(hn_tf(N), "per_pole")
        assert isinstance(out, pr.Realized)
        assert out.trace.final_dimension == N + 3
        assert out.trace.pre_lift_dimension == 3
        assert out.trace.shifts_performed == N

    @pytest.mark.parametrize("N", range(4, 13))
    def test_base_dimension(self, N, base_4dim):
        out = pr.realize_with_base(hn_tf(N), base_4dim, N - 3)
        assert isinstance(out, pr.Realized)
        assert out.trace.final_dimension == N


class TestRealizeWithBase:
    def test_m_equal_one_returns_base(self, h4_tf, base_4dim):
        out = pr.realize_with_base(h4_tf, base_4dim, 1)
        assert isinstance(out, pr.Realized)
        assert out.trace.final_dimension == 4
        assert np.array_equal(out.realization.c, base_4dim.c)

    def test_negative_entry_rejected(self, base_4dim):
        A = base_4dim.A.copy()
        A[0, 1] = -0.1
        with pytest.raises(NegativeEntry):
            pr.Realization(A, base_4dim.b, base_4dim.c)

    def test_mismatched_base(self, h4_tf, base_4dim):
        bad = pr.Realization(base_4dim.A, base_4dim.b, np.array([6.0, 0.0, 0.0, 50.0]))
        with pytest.raises(BaseMismatch):
            pr.realize_with_base(h4_tf, bad, 1)

    def test_wrong_shift_rejected(self, h4_tf, base_4dim):
        with pytest.raises(BaseMismatch):
            pr.realize_with_base(h4_tf, base_4dim, 2)

    def test_nonpositive_dominant_residue_gives_witness(self):
        # -1/(z-1) + 3/(z-0.5): t_3 = -0.25 is the first negative impulse value
        tf = pr.recombine(pr.PartialFraction(1.0, -1.0, (pr.PoleTerm(0.5 + 0j, (3.0 + 0j,)),)))
        one_state = pr.Realization(np.array([[0.5]]), np.array([1.0]), np.array([1.0]))
        expected = pr.NoPositiveRealization(3, pytest.approx(-0.25, abs=1e-12))
        assert pr.realize(tf) == expected
        assert pr.realize_with_base(tf, one_state, 1) == expected


def test_random_realize_soundness_small():
    rng = np.random.default_rng(17)
    for _ in range(60):
        pf = random_stable_pf(rng, ensure_positive_impulse=True)
        gamma = float(rng.choice([1.0, rng.uniform(0.2, 3.0)]))
        lam0 = float(rng.choice([1.0, rng.uniform(0.5, 2.0)]))
        raw = pr.denormalize(
            pr.PartialFraction(1.0, 1.0, pf.terms, scale_gamma=gamma, pole_scale=lam0)
        )
        tf = pr.recombine(raw)
        out = pr.realize(tf, "per_pole")
        assert isinstance(out, pr.Realized), out
        real = out.realization
        assert real.A.min() >= 0 and real.b.min() >= 0 and real.c.min() >= 0
        report = pr.markov_check(real, tf, max(100, 3 * real.dim), 1e-6)
        assert report.passed


def _bounds_witness(tf):
    with pytest.raises(NegativeImpulse) as exc:
        pr.bounds_report(tf)
    return exc.value.index, exc.value.value


class TestNegativeDominantResidue:
    """A negative dominant residue: realize, the base lift and bounds name one witness."""

    @given(simple_stable_pfs(), st.floats(-12.0, 12.0), st.floats(0.5, 2.0))
    def test_witness_agrees_with_bounds_and_closed_form(self, pfn, u, lam0):
        gamma = -(10.0**u)
        raw = pr.denormalize(
            pr.PartialFraction(1.0, -1.0, pfn.terms, scale_gamma=10.0**u, pole_scale=lam0)
        )
        tf = pr.recombine(raw)
        index, value = _bounds_witness(tf)
        assert pr.realize(tf) == pr.NoPositiveRealization(index, value)
        assert pr.realize_with_base(tf, ONE_STATE, 1) == pr.NoPositiveRealization(index, value)

        k = np.arange(index)
        modal = gamma * lam0**k + sum(t.coeffs[0] * t.pole**k for t in raw.terms)
        scale = abs(gamma) * lam0**k + sum(abs(t.coeffs[0]) * abs(t.pole) ** k for t in raw.terms)
        assert value < 0 and modal[-1].real < 0
        assert abs(value - modal[-1].real) <= 1e-9 * scale[-1]
        # no earlier value is negative beyond the scan tolerance
        assert np.all(modal[:-1].real / (abs(gamma) * lam0 ** k[:-1]) > -1e-8)

    @pytest.mark.parametrize("g", [1.0, 1e-6, 1e-12, 1e6])
    def test_witness_at_any_gain_is_fast(self, g):
        # -g/(z-1) + 3g/(z-0.5): t_3 = -g + 3g/4 = -0.25 g
        tf = pr.recombine(pr.PartialFraction(1.0, -g, (pr.PoleTerm(0.5 + 0j, (3.0 * g + 0j,)),)))
        calls = {
            "realize": lambda: pr.realize(tf),
            "realize_with_base": lambda: pr.realize_with_base(tf, ONE_STATE, 1),
            "bounds_report": lambda: pr.NoPositiveRealization(*_bounds_witness(tf)),
        }
        for name, call in calls.items():
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                out = call()
                best = min(best, time.perf_counter() - t0)
            assert out.witness_index == 3, name
            assert out.witness_value == pytest.approx(-0.25 * g, rel=1e-12), name
            assert best < 0.05, name

    def test_rounding_level_residue_is_unsupported(self):
        # g/(z-1) + 1/(z-0.5) with g = -1e-12: no t~_k falls below minus the scan tolerance
        g = -1e-12
        tf = pr.TransferFunction(pr.Polynomial((-0.5 * g - 1.0, g + 1.0)), pr.Polynomial((0.5, -1.5, 1.0)))
        out = pr.realize(tf)
        assert isinstance(out, pr.Unsupported)
        assert "not positive" in out.reason
        with pytest.raises(pr.NonpositiveDominantResidue):
            pr.bounds_report(tf)

    def test_witness_past_a_marginal_horizon(self):
        # -1/(z-1) + 4(1-1e-12)/(z-0.5): t_3 = -1e-12 is rounding level, t_4 = -0.5 is not
        c = 4.0 * (1.0 - 1e-12)
        tf = pr.recombine(pr.PartialFraction(1.0, -1.0, (pr.PoleTerm(0.5 + 0j, (c + 0j,)),)))
        out = pr.realize(tf)
        assert (out.witness_index, out.witness_value) == (4, pytest.approx(-0.5, rel=1e-9))
        assert _bounds_witness(tf) == (4, out.witness_value)
