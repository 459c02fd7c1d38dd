import json
import math
import sys
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, reject
from hypothesis import strategies as st

import posreal as pr
import posreal.cli
import posreal.tf as tfmod
from posreal.bounds import _certified_scan, _envelope, _envelope_decreasing, _envelope_terms, positivity_horizon, zero_pattern
from posreal.errors import NegativeImpulse, NotApplicable, PosrealError
from posreal.tf import _zero_band

from conftest import hn_pf, hn_tf, scaled_pf
from strategies import simple_stable_pfs, supplied_pole_terms, two_pole_zero_families, zero_family_pf

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


class TestZeroPattern:
    def test_family_ten(self):
        k0, zeros, horizon = zero_pattern(hn_tf(10))
        assert zeros == (9, 10)
        assert k0 == 10
        assert horizon > 10

    def test_family_four(self):
        k0, zeros, _ = zero_pattern(hn_tf(4))
        assert zeros == (3, 4)
        assert k0 == 4

    def test_no_zeros(self):
        k0, zeros, _ = zero_pattern(pr.from_coefficients([1.0], [-1.0, 1.0]))
        assert k0 == 0
        assert zeros == ()

    def test_negative_impulse_detected(self):
        tf = pr.from_coefficients([1.5, -1.0], [0.5, -1.5, 1.0])
        with pytest.raises(NegativeImpulse) as exc:
            zero_pattern(tf)
        assert exc.value.index == 1

    def test_multiple_pole_scan(self):
        pf = pr.PartialFraction(
            1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.7 + 0j, 0.3 + 0j)),)
        )
        k0, zeros, horizon = zero_pattern(pr.recombine(pf))
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
        horizon = positivity_horizon(pf)
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


# log10 of the eps at which t~_3 = -3 eps meets the band's edge -1e-10 (1 + |t~_1|), t~_1 = 51 - 75 eps
BAND_EDGE = math.log10(1e-10 * 52.0 / 3.0)
NEAR_EDGE = 1e-4 / math.log(10.0)  # 1e-4 relative in eps, in log10


@given(
    st.one_of(st.floats(-11.0, -6.0), st.floats(BAND_EDGE - NEAR_EDGE, BAND_EDGE + NEAR_EDGE)),
    st.floats(-8.0, 8.0),
    st.floats(0.5, 2.0),
)
# near-edge draws that a modal shift loop and a recurrence scan read differently, one on each side
@example(-8.761119017182109, 0.9824788098308304, 1.6332271508880238)
@example(-8.761117221369965, 6.925341187630508, 0.6635867688966555)
# gain 100 at lam0 = 2: t~_3 = -3e-9 lies in the band, and the lift's clipped 0 verifies
@example(-9.0, 2.0, 2.0)
def test_realize_and_bounds_name_one_witness_at_any_scale(log_eps, log_gain, lam0):
    # t~_3 = -3 eps crosses the zero band at eps ~ 1.7e-9; on either side both agree.
    # An in-band value the lift clipped to 0 verifies at any gain, since the verifier
    # compares normalized values: realize's own outcome is read.
    tf = _just_below_zero(10.0**log_eps, 10.0**log_gain, lam0)
    out = pr.realize(tf)
    if isinstance(out, pr.NoPositiveRealization):
        loop_witness = out.witness_index
    else:
        assert isinstance(out, pr.Realized) and out.trace.verification.passed
        loop_witness = None
    try:
        pr.bounds_report(tf)
        witness = None
    except NegativeImpulse as exc:
        witness = exc.index
    assert loop_witness == witness


def _dimension_meets_the_bounds(tf, mode):
    """Whether ``realize`` gives ``tf`` a realization, which then has at least the dimension that
    McMillan degree, ``theo2`` and ``mn2`` of ``bounds_report`` call for: the two modules are independent."""
    report = pr.bounds_report(tf)
    out = pr.realize(tf, mode)
    if isinstance(out, pr.Realized):
        bound = max(tf.mcmillan_degree, report.theo2 or 0, report.mn2 or 0)
        assert out.trace.final_dimension >= bound, (out.trace.final_dimension, report)
    return isinstance(out, pr.Realized)


# (N, p, q, gain, lam0) of the benchmark's zero families (bounds_zeros seeds 1-5) that the
# unnormalized verifier refused with errors 1.2e-6 to 6.4e-5 although their construction was right
UNNORMALIZED_REFUSALS = [
    (13, 0.45445144008082655, 0.23495092689484878, 1.4548115524214404, 1.9108710590246445),
    (13, 0.33651787294969576, 0.2043023016532989, 1.4615415623287176, 1.892729566890791),
    (16, 0.6459628174393615, 0.411206000669182, 0.9137956420657944, 1.8018907487294125),
    (11, 0.3349604196966232, 0.1692846561916006, 1.251852920430613, 1.5591163261749927),
    (10, 0.32199642048330124, 0.13180593553072797, 0.8730620699435987, 1.7993473307161998),
    (12, 0.454479343491165, 0.19154051111213155, 1.173362406956029, 1.9607672259284872),
    (15, 0.4785190308460032, 0.295280308569598, 1.32051677283787, 1.3132818595538231),
    (10, 0.4079615165117739, 0.1100738404954637, 1.7836895726463633, 1.8896555416353702),
    (11, 0.40537183712661945, 0.1741467395110301, 1.7707934235698035, 1.8788907875355285),
    (16, 0.6689374057572193, 0.4681032838512862, 0.978575920786727, 1.911718478251212),
]


@pytest.mark.parametrize("N, p, q, gain, lam0", UNNORMALIZED_REFUSALS)
def test_zero_families_refused_by_the_unnormalized_measure_realize(N, p, q, gain, lam0):
    tf = pr.recombine(zero_family_pf(N, p, q, gain, lam0))
    assert _dimension_meets_the_bounds(tf, "per_pole")
    assert pr.realize(tf).trace.verification.max_relative_error < 1e-7


@pytest.mark.parametrize("mode", ["per_pole", "conservative_sum"])
@pytest.mark.parametrize("N", range(4, 14))
def test_hn_realization_meets_the_lower_bounds(N, mode):
    assert _dimension_meets_the_bounds(hn_tf(N), mode)


@given(two_pole_zero_families(), st.sampled_from(["per_pole", "conservative_sum"]))
def test_every_realization_meets_the_lower_bounds(family, mode):
    # recombine refuses some large-residue families as NotCoprime (all at N >= 11)
    _, pf = family
    try:
        tf = pr.recombine(pf)
    except pr.NotCoprime:
        reject()
    _dimension_meets_the_bounds(tf, mode)


# Problem files that hold a transfer function (base_h4.json is a realization).
PROBLEM_NAMES = sorted(
    p.stem for p in PROBLEMS.glob("*.json") if {"transfer", "partial_fractions"} & set(json.loads(p.read_text()))
)


@pytest.fixture
def expand_calls(monkeypatch):
    """The inputs ``tf.expand`` is called with, once rebound under every name
    that refers to it in every loaded posreal module (as bench/tracer.py wraps it)."""
    orig, calls = tfmod.expand, []

    def counted(tf):
        calls.append(tf)
        return orig(tf)

    bound = []
    for name, mod in list(sys.modules.items()):
        if name == "posreal" or name.startswith("posreal."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
                    bound.append(name)
    assert {"posreal.bounds", "posreal.realizer", "posreal.tf"} <= set(bound)
    return calls


def _base_h4() -> pr.Realization:
    A, b, c = posreal.cli.load_realization("base_h4.json", PROBLEMS)
    return pr.Realization(A, b, c)


REQUESTS = {
    "bounds_report": pr.bounds_report,
    "zero_pattern": zero_pattern,
    "realize_per_pole": lambda tf: pr.realize(tf, "per_pole"),
    "realize_sum": lambda tf: pr.realize(tf, "conservative_sum"),
    "realize_with_base": lambda tf: pr.realize_with_base(tf, _base_h4(), 7),
}


def test_every_transfer_problem_is_counted():
    assert set(PROBLEM_NAMES) >= {"example1", "h4", "h10", "no_positive"}


@pytest.mark.parametrize("request_name", sorted(REQUESTS))
@pytest.mark.parametrize("problem", PROBLEM_NAMES)
def test_each_request_expands_once(expand_calls, problem, request_name):
    # the outcome does not matter (a witness or a base mismatch ends a request too),
    # only that the request pays for one expansion of its own input
    tf, _ = posreal.cli.load_problem(str(PROBLEMS / f"{problem}.json"))
    try:
        REQUESTS[request_name](tf)
    except PosrealError:
        pass
    assert len(expand_calls) == 1 and expand_calls[0] is tf


def two_expansion_report(tf: pr.TransferFunction) -> pr.BoundsReport:
    """``bounds_report`` composed as it was with two expansions: the zero-pattern
    scan on one, then ``cone_order_bound`` on a second and the ``mn2`` rule."""
    tnorm, horizon = _certified_scan(pr.expand(tf))
    zeros = tuple(int(i) + 1 for i in np.nonzero(np.abs(tnorm) <= _zero_band(tnorm[0]))[0])
    k0 = max(zeros) if zeros else 0
    try:
        theo2 = pr.cone_order_bound(pr.expand(tf), k0)
    except NotApplicable:
        theo2 = None
    mn2 = pr.quadratic_order_bound(k0) if (k0 >= 2 and (k0 - 1) in zeros) else None
    return pr.BoundsReport(k0, zeros, theo2, mn2, horizon)


def _outcome(fn, tf):
    try:
        return fn(tf)
    except PosrealError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None), getattr(exc, "value", None)


def _assert_one_expansion_matches_two(tf):
    want = _outcome(two_expansion_report, tf)
    assert _outcome(pr.bounds_report, tf) == want
    got = _outcome(zero_pattern, tf)
    assert got == (want if isinstance(want, tuple) else (want.k0, want.zero_indices, want.horizon_used))
    return want


@pytest.mark.parametrize("problem", ["h4", "h10", "example1", "no_positive"])
def test_one_expansion_report_matches_two_on_problems(problem):
    want = _assert_one_expansion_matches_two(posreal.cli.load_problem(str(PROBLEMS / f"{problem}.json"))[0])
    assert isinstance(want, pr.BoundsReport) == (problem != "no_positive")


@pytest.mark.parametrize("N", range(4, 14))
def test_one_expansion_report_matches_two_on_hn(N):
    want = _assert_one_expansion_matches_two(hn_tf(N))
    assert (want.k0, want.theo2) == (N, math.ceil(N / 2))


def test_one_expansion_report_matches_two_at_a_rounding_level_residue():
    # g/(z-1) + 1/(z-0.5) with g = -1e-12: no scanned value falls below the band
    g = -1e-12
    tf = pr.TransferFunction(pr.Polynomial((-0.5 * g - 1.0, g + 1.0)), pr.Polynomial((0.5, -1.5, 1.0)))
    assert _assert_one_expansion_matches_two(tf)[0] == "NonpositiveDominantResidue"


@given(
    st.integers(4, 13),
    st.floats(0.3, 0.7),
    st.floats(0.0, 1.0),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.sampled_from([1.0, -1.0]),
)
def test_one_expansion_report_matches_two_on_random_two_pole_families(N, p, u_q, gamma, lam0, sign):
    # a p^(N-2) - b q^(N-2) = 1 = a p^(N-1) - b q^(N-1) puts zeros at N-1 and N;
    # sign -1 makes the dominant residue negative, which must raise the same error.
    # recombine refuses some large-residue families as NotCoprime (about 7 % here,
    # all at N >= 11); those never reach bounds_report.
    q = 0.1 + (p - 0.2) * u_q
    a = (1.0 - q) / ((p - q) * p ** (N - 2))
    b = (1.0 - p) / ((p - q) * q ** (N - 2))
    pf = pr.PartialFraction(1.0, sign, (pr.PoleTerm(complex(p), (complex(-a),)), pr.PoleTerm(complex(q), (complex(b),))))
    try:
        tf = pr.recombine(scaled_pf(pf, gamma, lam0))
    except pr.NotCoprime:
        assume(False)
    want = _assert_one_expansion_matches_two(tf)
    if sign < 0:
        assert isinstance(want, tuple) and want[0] in ("NegativeImpulse", "NonpositiveDominantResidue")
    else:
        assert want.k0 == N and want.zero_indices[-2:] == (N - 1, N)


def reference_envelope(pf: pr.PartialFraction, k: int) -> float:
    """sum |c| binom(k-1, i-1) |lam|^(k-i) over every coefficient with i <= k, each term by the general formula."""
    total = 0.0
    for term in pf.terms:
        mod = abs(term.pole)
        for i, c in enumerate(term.coeffs, start=1):
            if k >= i:
                total += abs(c) * math.comb(k - 1, i - 1) * mod ** (k - i)
    return total


def reference_envelope_decreasing(pf: pr.PartialFraction, k: int) -> bool:
    """Whether every binom(k-1, i-1) |lam|^(k-i) shrinks from k to k + 1, as the search ran on the terms."""
    for term in pf.terms:
        mod = abs(term.pole)
        for i in range(1, term.order + 1):
            if k < i or mod * k / (k + 1 - i) > 1.0:
                return False
    return True


def _normalized_mixed_orders(supplied):
    lam0, gamma, terms = supplied
    return pr.normalize(pr.build_partial_fraction(lam0, abs(gamma), terms))


@given(st.one_of(simple_stable_pfs(), supplied_pole_terms().map(_normalized_mixed_orders)))
@example(hn_pf(10))
def test_envelope_and_horizon_match_the_general_formula(pf):
    """``_envelope`` and ``_envelope_decreasing`` on the moduli read once, at every k up to the horizon, and the
    horizon, equal the general formula's bit for bit, with each term's |lam| and |c| read at every k."""
    horizon = positivity_horizon(pf)
    terms = _envelope_terms(pf)
    for k in range(1, horizon + 1):
        assert _envelope(terms, k).hex() == reference_envelope(pf, k).hex(), k
        assert _envelope_decreasing(terms, k) == reference_envelope_decreasing(pf, k), k
    reference = next(k for k in count(1) if reference_envelope(pf, k) < 1.0 and reference_envelope_decreasing(pf, k))
    assert horizon == reference
