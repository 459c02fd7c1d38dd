import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import posreal as pr
import posreal.realizer as realizermod
from posreal.errors import NegativeImpulse, NotApplicable

from conftest import hn_pf, hn_tf, scaled_pf


class TestZeroPattern:
    def test_family_ten(self):
        k0, zeros, horizon = pr.zero_pattern(hn_tf(10))
        assert zeros == (9, 10)
        assert k0 == 10
        assert horizon > 10

    def test_family_four(self):
        k0, zeros, _ = pr.zero_pattern(hn_tf(4))
        assert zeros == (3, 4)
        assert k0 == 4

    def test_no_zeros(self):
        k0, zeros, _ = pr.zero_pattern(pr.from_coefficients([1.0], [-1.0, 1.0]))
        assert k0 == 0
        assert zeros == ()

    def test_negative_impulse_detected(self):
        tf = pr.from_coefficients([1.5, -1.0], [0.5, -1.5, 1.0])
        with pytest.raises(NegativeImpulse) as exc:
            pr.zero_pattern(tf)
        assert exc.value.index == 1

    def test_multiple_pole_scan(self):
        pf = pr.PartialFraction(
            1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.7 + 0j, 0.3 + 0j)),)
        )
        k0, zeros, horizon = pr.zero_pattern(pr.recombine(pf))
        assert k0 == 0 and zeros == ()
        assert horizon >= 1


class TestConeOrderBound:
    @pytest.mark.parametrize("N", range(4, 13))
    def test_family(self, N):
        pf = hn_pf(N)
        assert pr.cone_order_bound(pf, N) == math.ceil(N / 2)

    def test_vacuous_when_no_zero(self):
        assert pr.cone_order_bound(hn_pf(4), 0) == 1

    def test_degree_two(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.3 + 0j,)),))
        assert pr.cone_order_bound(pf, 7) == 7

    def test_complex_poles_not_applicable(self, example1_tf):
        pf = pr.normalize(pr.expand(example1_tf))
        with pytest.raises(NotApplicable):
            pr.cone_order_bound(pf, 3)

    def test_negative_pole_not_applicable(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(-0.5 + 0j, (0.3 + 0j,)),))
        with pytest.raises(NotApplicable):
            pr.cone_order_bound(pf, 3)

    def test_multiple_positive_poles_allowed(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.3 + 0j, 1.0 + 0j)),))
        # n = 3, so ceil(7 / 2) = 4
        assert pr.cone_order_bound(pf, 7) == 4


class TestQuadraticOrderBound:
    def test_small(self):
        assert pr.quadratic_order_bound(1) == 1

    def test_ten(self):
        assert pr.quadratic_order_bound(10) == 3

    def test_six_hundred(self):
        assert pr.quadratic_order_bound(600) == 20

    def test_scan_is_tight(self):
        for N in range(1, 200):
            M = pr.quadratic_order_bound(N)
            assert M * (M + 1) // 2 - 1 + M * M >= N
            if M > 1:
                K = M - 1
                assert K * (K + 1) // 2 - 1 + K * K < N


class TestBoundsReport:
    def test_family_ten(self):
        rep = pr.bounds_report(hn_tf(10))
        assert rep.k0 == 10
        assert rep.theo2 == 5
        assert rep.mn2 == 3

    def test_pure_dominant(self):
        rep = pr.bounds_report(pr.from_coefficients([1.0], [-1.0, 1.0]))
        assert rep.k0 == 0
        assert rep.theo2 is None
        assert rep.mn2 is None

    def test_complex_poles_have_no_linear_bound(self, example1_tf):
        rep = pr.bounds_report(example1_tf)
        assert rep.theo2 is None


def test_family_consistency():
    # the linear bound should not exceed the true minimum N and should beat
    # the quadratic bound on this family
    for N in range(4, 13):
        theo2 = pr.cone_order_bound(hn_pf(N), N)
        mn2 = pr.quadratic_order_bound(N)
        assert theo2 <= N
        assert mn2 <= theo2


def test_horizon_soundness_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n_terms = int(rng.integers(1, 4))
        poles, terms = [], []
        while len(terms) < n_terms:
            lam = rng.uniform(-0.9, 0.9)
            if any(abs(lam - p) < 0.05 for p in poles):
                continue
            poles.append(lam)
            c = rng.uniform(-2.0, 2.0)
            if abs(c) < 1e-3:
                c = 0.5
            terms.append(pr.PoleTerm(complex(lam), (complex(c),)))
        pf = pr.PartialFraction(1.0, 1.0, tuple(terms))
        horizon = pr.positivity_horizon(pf)
        tf = pr.recombine(pf)
        t = pr.impulse_response(tf, horizon + 100)
        assert np.all(t[horizon:] > 0)


def _just_below_zero(eps: float, gain: float = 1.0, lam0: float = 1.0) -> pr.TransferFunction:
    """H^4 with its last residue shrunk by eps, so t~_3 = -3 eps lies just below zero,
    at gain ``gain`` and dominant pole ``lam0``."""
    pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.4, (-25.0,)), pr.PoleTerm(0.2, (75.0 * (1.0 - eps),))))
    return pr.recombine(scaled_pf(pf, gain, lam0))


# Both read the zero band of tf._zero_band: realize's witness is bounds' witness,
# and a value inside the band is a zero for both.
@pytest.mark.parametrize("eps", [1e-9, 5e-9, 1e-8, 2e-8])
def test_realize_and_bounds_agree_just_below_zero(eps):
    tf = _just_below_zero(eps)
    out = pr.realize(tf)
    try:
        pr.bounds_report(tf)
    except NegativeImpulse as exc:
        assert isinstance(out, pr.NoPositiveRealization)
        assert out.witness_index == exc.index
        assert out.witness_value == pytest.approx(exc.value, rel=1e-6)
    else:
        assert isinstance(out, pr.Realized)


@given(st.floats(-11.0, -6.0), st.floats(-8.0, 8.0), st.floats(0.5, 2.0))
def test_realize_and_bounds_name_one_witness_at_any_scale(log_eps, log_gain, lam0):
    # t~_3 = -3 eps crosses the zero band at eps ~ 1.7e-9; on either side both agree.
    # realize's shift loop decides the sign, so its outcome is read before verification:
    # markov_check compares unnormalized values, and at large gain it refuses an in-band
    # value clipped to 0.
    tf = _just_below_zero(10.0**log_eps, 10.0**log_gain, lam0)
    out = realizermod._shift_and_build(pr.normalize(pr.expand(tf)), "per_pole", None)
    try:
        pr.bounds_report(tf)
        witness = None
    except NegativeImpulse as exc:
        witness = exc.index
    assert getattr(out, "witness_index", None) == witness
