import dataclasses
import math

import numpy as np
import pytest

import posreal as pr
from posreal.check import cone_check
from posreal.errors import (
    BadPoleBlock,
    BudgetTooSmall,
    InsufficientBudget,
    InternalCheckError,
    LeftoverNegative,
    NegativeEntry,
    NegativePrefix,
    NotInPolygon,
)

from conftest import hn_pf, hn_impulse, random_stable_pf


def pair_impulse(share, eta, vt, rho, th, K):
    k = np.arange(K)
    c = eta * complex(math.cos(vt), math.sin(vt))
    lam = rho * complex(math.cos(th), math.sin(th))
    return share + 2.0 * (c * lam**k).real


class TestRealization:
    def test_clamps_arithmetic_noise(self):
        real = pr.Realization(np.array([[-1e-13]]), np.array([0.5]), np.array([1.0]))
        assert real.A[0, 0] == 0.0

    def test_rejects_genuine_negative(self):
        with pytest.raises(NegativeEntry):
            pr.Realization(np.array([[-1e-6]]), np.array([0.5]), np.array([1.0]))

    def test_arrays_readonly(self):
        real = pr.Realization(np.eye(2), np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            real.A[0, 0] = 2.0


class TestPositivePoleBlock:
    def test_plain(self):
        blk = pr.positive_pole_block(0.2, 0.12)
        assert blk.realization.A.tolist() == [[0.2]]
        assert blk.realization.b.tolist() == [0.12]
        assert blk.realization.c.tolist() == [1.0]
        assert blk.dominant_share == 0.0

    def test_pole_at_zero(self):
        blk = pr.positive_pole_block(0.0, 1.0)
        assert blk.realization.markov(4).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_example1_real_term(self):
        blk = pr.positive_pole_block(0.5400962165, 0.3541501460)
        assert blk.dim == 1

    def test_invalid(self):
        with pytest.raises(BadPoleBlock):
            pr.positive_pole_block(1.0, 0.5)
        with pytest.raises(BadPoleBlock):
            pr.positive_pole_block(0.5, -0.5)


class TestRealPoleBlock:
    def test_family_negative_coefficient(self):
        blk = pr.real_pole_block(0.4, -0.64, 0.64)
        assert blk.realization.b == pytest.approx([0.0, 1.28])
        want = 0.64 - 0.64 * 0.4 ** np.arange(3)
        assert blk.realization.markov(3) == pytest.approx(want)
        assert want == pytest.approx([0.0, 0.384, 0.5376])

    def test_forced_matrices_at_zero_pole(self):
        blk = pr.real_pole_block(0.0, -1.0, 1.0)
        assert blk.realization.A.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert blk.realization.b.tolist() == [0.0, 2.0]
        assert blk.realization.markov(4) == pytest.approx([0.0, 1.0, 1.0, 1.0])

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmall):
            pr.real_pole_block(0.5, 0.1, 0.05)


class TestComplexPairBlock:
    def test_small_pair_markov(self):
        blk = pr.complex_pair_block(0.5, math.pi / 2, 0.01, 0.0, 3, 0.12)
        want = pair_impulse(0.12, 0.01, 0.0, 0.5, math.pi / 2, 6)
        assert blk.realization.markov(6) == pytest.approx(want, rel=1e-12)
        assert want[:3] == pytest.approx([0.14, 0.12, 0.115])

    def test_eta_zero_reduces_to_constant(self):
        blk = pr.complex_pair_block(0.3, 1.0, 0.0, 0.0, 4, 0.25)
        assert blk.realization.markov(5) == pytest.approx(np.full(5, 0.25))

    def test_example1_pair_after_one_shift(self, example1_tf):
        pf = pr.normalize(pr.expand(example1_tf))
        _, pf = pr.shift_once(pf)
        pair = next(t for t in pf.terms if t.pole.imag > 0)
        eta = abs(pair.coeffs[0])
        vt = math.atan2(pair.coeffs[0].imag, pair.coeffs[0].real)
        rho = abs(pair.pole)
        th = math.atan2(pair.pole.imag, pair.pole.real)
        share = pr.pair_share_floor(eta, 4)
        assert share == pytest.approx(8.0 * eta)
        blk = pr.complex_pair_block(rho, th, eta, vt, 4, share)
        assert blk.dim == 4
        want = pair_impulse(share, eta, vt, rho, th, 20)
        assert blk.realization.markov(20) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_not_in_polygon(self):
        with pytest.raises(NotInPolygon):
            pr.complex_pair_block(0.9, math.pi / 4, 0.01, 0.0, 3, 1.0)

    def test_budget_threshold(self):
        with pytest.raises(BudgetTooSmall):
            pr.complex_pair_block(0.5, math.pi / 2, 0.1, 0.0, 3, 0.9 * pr.pair_share_floor(0.1, 3))
        pr.complex_pair_block(0.5, math.pi / 2, 0.1, 0.0, 3, pr.pair_share_floor(0.1, 3))


class TestBudget:
    def test_family_tail_allocation(self):
        plan = pr.budget(pr.classify(hn_pf(0)), "per_pole")
        alloc = dict(plan.allocations())
        assert alloc[0.4 + 0j] == pytest.approx(0.64)
        assert alloc[0.2 + 0j] == 0.0
        assert plan.total == pytest.approx(0.64)
        assert plan.leftover == pytest.approx(0.36)

    def test_family_one_step_earlier_fails(self):
        with pytest.raises(InsufficientBudget) as exc:
            pr.budget(pr.classify(hn_pf(1)), "per_pole")
        assert exc.value.total == pytest.approx(1.6)

    def test_empty_classification(self):
        plan = pr.budget(pr.classify(pr.PartialFraction(1.0, 1.0, ())), "per_pole")
        assert plan.total == 0.0
        assert plan.leftover == 1.0

    def test_conservative_counts_pairs_twice(self):
        c = 0.1 * 2**-2.5
        pf = pr.PartialFraction(
            1.0,
            1.0,
            (
                pr.PoleTerm(0.5j, (complex(c),)),
                pr.PoleTerm(-0.5j, (complex(c),)),
            ),
        )
        plan = pr.budget(pr.classify(pf), "conservative_sum")
        assert plan.total == pytest.approx(1.0)
        # doubling the coefficient past half the limit must fail
        big = 0.51 * 2**-2.5
        pf2 = pr.PartialFraction(
            1.0,
            1.0,
            (pr.PoleTerm(0.5j, (complex(big),)), pr.PoleTerm(-0.5j, (complex(big),))),
        )
        with pytest.raises(InsufficientBudget):
            pr.budget(pr.classify(pf2), "conservative_sum")

    def test_conservative_spends_full_unit(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.4 + 0j, (-0.1 + 0j,)),))
        plan = pr.budget(pr.classify(pf), "conservative_sum")
        assert plan.total == pytest.approx(1.0)
        assert plan.leftover == pytest.approx(0.0)
        assert plan.n2_shares[0] >= 0.1


class TestAssemble:
    def test_family_fold_leftover(self):
        # the leftover 0.36 joins the carrier's share 0.64 before it is built
        blocks = [pr.positive_pole_block(0.2, 0.12), pr.real_pole_block(0.4, -0.64, 0.64 + 0.36)]
        asm = pr.assemble(blocks)
        assert asm.dim == 3
        assert asm.markov(12) == pytest.approx(hn_impulse(0, 12), abs=1e-12)

    def test_no_blocks_dominant_only(self):
        asm = pr.assemble([pr.dominant_remainder_block(1.0)])
        assert asm.dim == 1
        assert asm.A.tolist() == [[1.0]]
        assert asm.b.tolist() == [1.0]
        assert asm.c.tolist() == [1.0]
        with pytest.raises(ValueError, match="nothing to assemble"):
            pr.assemble([])

    def test_negative_leftover(self):
        with pytest.raises(LeftoverNegative):
            pr.dominant_remainder_block(-0.5)

    def test_n1_only_appends_remainder(self):
        asm = pr.assemble([pr.positive_pole_block(0.3, 0.2), pr.dominant_remainder_block(1.0)])
        assert asm.dim == 2
        assert asm.markov(6) == pytest.approx(1.0 + 0.2 * 0.3 ** np.arange(6))

    def test_additive_markov(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            blocks = []
            if rng.random() < 0.7:
                blocks.append(pr.positive_pole_block(rng.uniform(0, 0.9), rng.uniform(0.01, 1)))
            if rng.random() < 0.7:
                lam = rng.uniform(-0.9, 0.9)
                c = rng.uniform(-1, 1)
                blocks.append(pr.real_pole_block(lam, c, abs(c) * rng.uniform(1, 2)))
            if rng.random() < 0.7:
                m = int(rng.integers(3, 7))
                while True:
                    rho, th = rng.uniform(0.05, 0.9), rng.uniform(0.1, math.pi - 0.1)
                    if pr.in_polygon(rho * np.exp(1j * th), m):
                        break
                eta = rng.uniform(0.001, 0.3)
                blocks.append(
                    pr.complex_pair_block(
                        rho, th, eta, rng.uniform(-math.pi, math.pi), m,
                        pr.pair_share_floor(eta, m) * rng.uniform(1, 2),
                    )
                )
            if not blocks:
                continue
            asm = pr.assemble(blocks)
            total = sum(blk.realization.markov(30) for blk in blocks)
            rel = np.abs(asm.markov(30) - total) / (1.0 + np.abs(total))
            assert np.max(rel) < 1e-12


def one_block_of_each_kind():
    return [
        pr.positive_pole_block(0.3, 0.2),
        pr.real_pole_block(0.4, -0.64, 1.0),
        pr.complex_pair_block(0.5, math.pi / 2, 0.01, 0.3, 3, 0.12),
        pr.dominant_remainder_block(0.36),
    ]


def corrupted(blk, b_scale=1.0, c_scale=1.0):
    real = blk.realization
    return dataclasses.replace(blk, realization=pr.Realization(real.A, real.b * b_scale, real.c * c_scale))


class TestAssembleSelfCheck:
    @pytest.mark.parametrize("kind", ["positive_pole", "real_pole", "complex_pair", "dominant_remainder"])
    @pytest.mark.parametrize("scales", [(1.0 + 1e-8, 1.0), (1.0, 1.5), (0.0, 1.0)])
    def test_corrupted_block_between_healthy_ones_is_named(self, kind, scales):
        blk = next(b for b in one_block_of_each_kind() if b.kind == kind)
        left, right = pr.positive_pole_block(0.5, 0.1), pr.real_pole_block(-0.6, 0.2, 0.3)
        assert pr.assemble([left, blk, right]).dim == left.dim + blk.dim + right.dim
        with pytest.raises(InternalCheckError, match=f"^{kind} block self-check failed"):
            pr.assemble([left, corrupted(blk, *scales), right])

    def test_first_failing_block_in_stack_order_is_named(self):
        blocks = [corrupted(b, c_scale=1.5) for b in one_block_of_each_kind()]
        for first in range(len(blocks)):
            stack = one_block_of_each_kind()[:first] + blocks[first:]
            with pytest.raises(InternalCheckError, match=f"^{blocks[first].kind} block"):
                pr.assemble(stack)

    def test_non_finite_error_fails(self):
        blk = pr.real_pole_block(0.4, -0.64, 1.0)
        A = np.array(blk.realization.A)
        A[1, 0] = math.nan
        bad = dataclasses.replace(blk, realization=pr.Realization(A, blk.realization.b, blk.realization.c))
        with pytest.raises(InternalCheckError, match="real_pole block self-check failed"):
            pr.assemble([pr.positive_pole_block(0.3, 0.2), bad])

    def test_builders_alone_do_not_check(self):
        blk = corrupted(pr.positive_pole_block(0.3, 0.2), c_scale=1.5)
        assert blk.realization.markov(2) == pytest.approx([0.3, 0.09])


class TestPrefixLift:
    def test_empty_prefix_returns_base(self, base_4dim):
        assert pr.prefix_lift(base_4dim, []) is base_4dim

    def test_base_4dim_lift(self, base_4dim):
        prefix = hn_impulse(8, 4)
        lifted = pr.prefix_lift(base_4dim, prefix)
        assert lifted.dim == 8
        got = lifted.markov(12)
        assert got[:4] == pytest.approx(prefix)
        assert got[4:] == pytest.approx(base_4dim.markov(8))

    def test_two_state_example(self):
        base = pr.Realization([[1.0]], [1.0], [1.0])
        lifted = pr.prefix_lift(base, [2.0])
        assert lifted.dim == 2
        assert lifted.markov(5) == pytest.approx([2.0, 1.0, 1.0, 1.0, 1.0])

    def test_negative_prefix(self):
        base = pr.Realization([[1.0]], [1.0], [1.0])
        with pytest.raises(NegativePrefix):
            pr.prefix_lift(base, [-0.1])


def test_trivial_block_cone_models():
    for blk in (
        pr.positive_pole_block(0.3, 0.2),
        pr.real_pole_block(0.4, -0.3, 0.5),
        pr.dominant_remainder_block(0.7),
    ):
        cert = cone_check(*blk.cone_model, blk.realization)
        assert cert.passed


def test_block_cone_certificates_on_random_blocks():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(3, 9))
        while True:
            rho, th = rng.uniform(0.05, 0.95), rng.uniform(0.05, math.pi - 0.05)
            if pr.in_polygon(rho * np.exp(1j * th), m):
                break
        eta = rng.uniform(1e-4, 0.4)
        blk = pr.complex_pair_block(
            rho, th, eta, rng.uniform(-math.pi, math.pi), m,
            pr.pair_share_floor(eta, m) * rng.uniform(1.0, 2.0),
        )
        cert = cone_check(*blk.cone_model, blk.realization)
        assert cert.passed


def test_dimension_accounting_matches_prediction():
    rng = np.random.default_rng(9)
    built = 0
    while built < 50:
        pf = random_stable_pf(rng, ensure_positive_impulse=True)
        cls = pr.classify(pf)
        try:
            plan = pr.budget(cls, "per_pole")
        except InsufficientBudget:
            continue
        built += 1
        # the leftover joins the largest share (the first on ties), or gets its own state
        shares = list(plan.n2_shares + plan.pair_shares)
        carriers = bool(shares) and max(shares) > 0
        if carriers:
            shares[shares.index(max(shares))] += plan.leftover
        blocks = [pr.positive_pole_block(l, c) for l, c in cls.n1_poles]
        blocks += [pr.real_pole_block(l, c, s) for (l, c), s in zip(cls.n2_poles, shares)]
        for pair, s in zip(cls.pair_assignments, shares[cls.n2 :]):
            blocks.append(
                pr.complex_pair_block(
                    abs(pair.pole),
                    math.atan2(pair.pole.imag, pair.pole.real),
                    abs(pair.coeff),
                    math.atan2(pair.coeff.imag, pair.coeff.real),
                    pair.polygon_index,
                    s,
                )
            )
        if not carriers:
            blocks.append(pr.dominant_remainder_block(plan.leftover))
        asm = pr.assemble(blocks)
        assert asm.dim == cls.predicted_dimension + (0 if carriers else 1)
