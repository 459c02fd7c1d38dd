import cmath
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import posreal as pr
import posreal.blocks as blocksmod
import posreal.check as checkmod
import posreal.geometry as geometrymod
import posreal.realizer as realizermod
import posreal.tf as tfmod
from posreal.errors import BaseMismatch, InsufficientBudget, NegativeEntry, NegativeImpulse

from conftest import hn_pf, hn_tf, random_stable_pf, scaled_pf
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
        assert out.trace.final_dimension == 5
        assert out.trace.shifts_performed == 0
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

    def test_witness_in_the_tail_gives_witness(self):
        # 1/(z-1) + 1.2/(z+0.9): the prefix for m = 2 is t_1 = 2.2, and the tail opens with t_2 = -0.08
        tf = pr.recombine(pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(-0.9 + 0j, (1.2 + 0j,)),)))
        expected = pr.NoPositiveRealization(2, pytest.approx(-0.08, abs=1e-12))
        assert pr.realize(tf) == expected
        assert pr.realize_with_base(tf, ONE_STATE, 2) == expected


def test_random_realize_soundness_small():
    rng = np.random.default_rng(17)
    for _ in range(60):
        pf = random_stable_pf(rng, ensure_positive_impulse=True)
        gamma = float(rng.choice([1.0, rng.uniform(0.2, 3.0)]))
        lam0 = float(rng.choice([1.0, rng.uniform(0.5, 2.0)]))
        raw = scaled_pf(pf, gamma, lam0)
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
        raw = scaled_pf(pr.PartialFraction(1.0, -1.0, pfn.terms), 10.0**u, lam0)
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


def _pf(*terms):
    """Normalized partial fraction from (pole, residue) pairs; a complex pole brings its conjugate."""
    out = []
    for lam, c in terms:
        lam, c = complex(lam), complex(c)
        out.append(pr.PoleTerm(lam, (c,)))
        if lam.imag:
            out.append(pr.PoleTerm(lam.conjugate(), (c.conjugate(),)))
    return pr.PartialFraction(1.0, 1.0, tuple(out))


def _reference_stage(pf, mode, cap_override):
    """The shift loop classifying and allocating on every shift; the leftover is placed with the public builders."""
    neg_tol = 1e-10 * (1.0 + abs(pr.leading_impulse(pf)))
    cap = cap_override if cap_override is not None else 2 * pr.iteration_estimate(pf)
    prefix, totals = [], []
    while True:
        t_m = pr.leading_impulse(pf)
        if t_m < -neg_tol:
            m = len(prefix) + 1
            return pr.NoPositiveRealization(m, pf.scale_gamma * pf.pole_scale ** (m - 1) * t_m)
        cls = pr.classify(pf)
        totals.append(pr.per_pole_total(cls))
        try:
            plan = pr.budget(cls, mode)
        except InsufficientBudget:
            if len(prefix) >= cap:
                return pr.IterationCapExceeded(cap)
            t, pf = pr.shift_once(pf)
            prefix.append(t if t > 0 else 0.0)
            continue
        break
    floors = [abs(c) for _, c in cls.n2_poles]
    floors += [pr.pair_share_floor(abs(p.coeff), p.polygon_index) for p in cls.pair_assignments]
    shares = list(plan.n2_shares + plan.pair_shares)
    carriers = [i for i, s in enumerate(shares) if s > 0]
    if carriers:
        i = max(carriers, key=lambda i: shares[i])
        shares[i] += plan.leftover
    blocks = [pr.positive_pole_block(lam, c) for lam, c in cls.n1_poles]
    blocks += [pr.real_pole_block(lam, c, s) for (lam, c), s in zip(cls.n2_poles, shares)]
    for pair, s in zip(cls.pair_assignments, shares[cls.n2 :]):
        blocks.append(pr.complex_pair_block(pair.pole, pair.coeff, pair.polygon_index, s))
    summaries = [pr.BlockSummary(blk.kind, blk.dim, 0.0) for blk in blocks[: cls.n1]]
    summaries += [
        pr.BlockSummary(blk.kind, blk.dim, s, f)
        for blk, s, f in zip(blocks[cls.n1 :], shares, floors)
    ]
    if not carriers and plan.leftover > 0:
        blocks.append(pr.dominant_remainder_block(plan.leftover))
        summaries.append(pr.BlockSummary("dominant_remainder", 1, plan.leftover))
    return pr.assemble(blocks), prefix, plan, totals, summaries


@st.composite
def shift_loop_inputs(draw):
    """Simple stable poles, real ones possibly at zero, pairs up to modulus 0.97."""
    n_real = draw(st.integers(0, 3))
    n_pairs = draw(st.integers(0, 2))
    assume(n_real + n_pairs > 0)
    poles, terms = [], []
    for _ in range(n_real):
        lam = draw(st.one_of(st.just(0.0), st.floats(-0.97, 0.97)))
        assume(all(abs(lam - p) > 0.05 for p in poles))
        c = draw(st.floats(-1.0, 1.0))
        assume(abs(c) > 1e-3)
        poles.append(complex(lam))
        terms.append((lam, c))
    for _ in range(n_pairs):
        lam = cmath.rect(draw(st.floats(0.1, 0.97)), draw(st.floats(0.1, math.pi - 0.1)))
        assume(all(abs(lam - p) > 0.05 and abs(lam - p.conjugate()) > 0.05 for p in poles))
        poles.append(lam)
        terms.append((lam, cmath.rect(draw(st.floats(1e-3, 1.0)), draw(st.floats(-math.pi, math.pi)))))
    return _pf(*terms)


# One input for each way the loop ends or prunes a term.
LAMBDA_ZERO = _pf((0.0, -0.3), (-0.8, 0.9), (0.5, -0.2))  # the lam = 0 term vanishes after shift 1
LAMBDA_ZERO_POSITIVE = _pf((0.0, 0.4), (-0.8, 0.9), (0.6, -0.3))
NEGATIVE_MID_LOOP = _pf((0.95j, 0.6))  # t~_3 = 1 - 1.2 * 0.9025 < 0
DEEP = _pf((cmath.rect(0.97, 0.1), cmath.rect(0.6, 1.0)), (-0.93, 0.5), (0.4, -0.3))  # 23 shifts per pole, 64 by sum
ONE_STATE_POLES = _pf((0.5, 0.3))  # nothing carries a share: a one-state remainder is appended


class TestShiftLoopMatchesReference:
    @given(shift_loop_inputs(), st.sampled_from(["per_pole", "conservative_sum"]), st.one_of(st.none(), st.integers(0, 6)))
    @example(LAMBDA_ZERO, "per_pole", None)
    @example(LAMBDA_ZERO_POSITIVE, "conservative_sum", None)
    @example(NEGATIVE_MID_LOOP, "per_pole", None)
    @example(DEEP, "conservative_sum", 1)
    @example(DEEP, "per_pole", None)
    @example(ONE_STATE_POLES, "per_pole", None)
    def test_same_outcome_bit_for_bit(self, pf, mode, cap):
        got = realizermod._shift_and_build(pf, mode, cap)
        want = _reference_stage(pf, mode, cap)
        assert type(got) is type(want)
        if not isinstance(want, tuple):
            assert repr(got) == repr(want)
            return
        core, prefix, plan, totals, summaries = got
        want_core, *want_rest = want
        assert repr((prefix, plan, totals, summaries)) == repr(tuple(want_rest))
        for name in "Abc":
            assert getattr(core, name).tobytes() == getattr(want_core, name).tobytes()

    @pytest.mark.parametrize(
        "pf, mode, cap, outcome",
        [
            (LAMBDA_ZERO, "per_pole", None, tuple),
            (LAMBDA_ZERO_POSITIVE, "conservative_sum", None, tuple),
            (NEGATIVE_MID_LOOP, "per_pole", None, pr.NoPositiveRealization),
            (DEEP, "conservative_sum", 1, pr.IterationCapExceeded),
            (ONE_STATE_POLES, "per_pole", None, tuple),
        ],
    )
    def test_examples_reach_their_exit(self, pf, mode, cap, outcome):
        out = realizermod._shift_and_build(pf, mode, cap)
        assert isinstance(out, outcome)
        if outcome is tuple:
            core, prefix, plan, _, summaries = out
            cls = plan.classification
            if any(t.pole == 0 for t in pf.terms):
                # the lam = 0 term was shifted away, so no block realizes it
                assert len(prefix) >= 1
                assert all(lam != 0.0 for lam, _ in cls.n1_poles + cls.n2_poles)
            if not cls.n2_poles and not cls.pair_assignments:
                # the whole unit residue gets its own state, stacked last
                assert summaries[-1] == pr.BlockSummary("dominant_remainder", 1, 1.0)
                assert core.dim == cls.n1 + 1
        if outcome is pr.NoPositiveRealization:
            assert out.witness_index == 3


def test_each_pole_is_paid_for_once(monkeypatch):
    """One realize call: one polygon search per pair, one budget, one build per block, one t~_m per shift.

    The buckets and the floors cost the same whatever the number of shifts:
    both modes run DEEP with different shift counts and the same calls.
    """
    calls = Counter()

    def count(name, *modules):
        fn = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)

    count("minimal_polygon_index", geometrymod)
    count("classify", realizermod)
    count("_reread", realizermod)
    count("floor_units", blocksmod, realizermod)
    count("pair_share_floor", blocksmod)
    count("share_floors", blocksmod)
    count("term_floors", blocksmod, realizermod)
    count("budget", realizermod)
    count("leading_impulse", tfmod, realizermod)
    builders = ("positive_pole_block", "real_pole_block", "complex_pair_block")
    for name in builders:
        count(name, blocksmod, realizermod)
    count("dominant_remainder_block", blocksmod)
    count("markov", checkmod, blocksmod)

    shifts = {}
    for mode in ("per_pole", "conservative_sum"):
        calls.clear()
        out = pr.realize(pr.recombine(DEEP), mode)
        assert isinstance(out, pr.Realized)
        shifts[mode] = out.trace.shifts_performed
        assert shifts[mode] > 20
        assert calls["minimal_polygon_index"] == 1
        assert calls["budget"] == 1
        # one floor pass per loop pass (the stopping one included), one in budget
        assert calls["term_floors"] == shifts[mode] + 2
        # once for the sign tolerance, then inside each shift_once
        assert calls["leading_impulse"] == shifts[mode] + 1
        built = Counter(f"{b.kind}_block" for b in out.trace.blocks)
        assert built == {"real_pole_block": 2, "complex_pair_block": 1}
        assert {name: calls[name] for name in built} == built
        assert calls["positive_pole_block"] == calls["dominant_remainder_block"] == 0
        # one pass self-checks the whole stack, one verifies the lifted result
        assert calls["markov"] == 2
        # classified once, re-read once at the stopping shift; the floor units are
        # fixed for the loop and in budget's share_floors, and the builder reads the pair's floor
        names = ("classify", "_reread", "floor_units", "pair_share_floor", "share_floors")
        fixed = {name: calls[name] for name in names}
        assert fixed == {"classify": 1, "_reread": 1, "floor_units": 2, "pair_share_floor": 3, "share_floors": 1}
    assert shifts["per_pole"] < shifts["conservative_sum"]
