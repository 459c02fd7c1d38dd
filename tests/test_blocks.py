import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import posreal as pr
import posreal.blocks as blocksmod
import posreal.realizer as realizermod
from posreal.blocks import CLAMP_WINDOW, PAIR_ALPHA, _fan_weights, _stop_rule, check_construction, share_floors
from posreal.errors import (
    BadPoleBlock,
    BudgetTooSmall,
    DegenerateBarycentric,
    InsufficientBudget,
    InternalCheckError,
    LeftoverNegative,
    NegativeEntry,
    NegativePrefix,
    NotInPolygon,
)
from posreal.geometry import in_polygon
from posreal.tf import CONSERVATIVE_LIMIT, shift_once

from conftest import cone_model, cone_residual, hn_pf, hn_impulse, random_stable_pf, scaled_pf


def pair_impulse(share, coeff, pole, K):
    return share + 2.0 * (coeff * pole ** np.arange(K)).real


@st.composite
def floored_classifications(draw):
    """Two-state real poles and pairs with m = 3..40, scaled so the sum rule's quantity lies in [1/2, 1] x its limit."""
    reals = draw(st.lists(st.tuples(st.floats(-0.99, 0.99), st.floats(-1.0, 1.0)), max_size=4))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(3, 40),
                st.floats(0.01, 0.999),
                st.floats(0.01, math.pi - 0.01),
                st.floats(0.0, 1.0),
                st.floats(-math.pi, math.pi),
            ),
            max_size=4,
        )
    )
    raw = sum(abs(c) for _, c in reals) + sum(2.0 * eta for *_, eta, _ in pairs)
    assume(raw > 0)
    scale = draw(st.floats(0.5, 1.0)) * CONSERVATIVE_LIMIT / raw
    n2 = tuple((lam, c * scale) for lam, c in reals)
    buckets = tuple(
        pr.PairBucket(cmath.rect(r * math.cos(math.pi / m), th), cmath.rect(eta * scale, vt), m)
        for m, r, th, eta, vt in pairs
    )
    assume(len({b.pole for b in buckets}) == len(buckets))  # each pair is its own bucket
    return pr.PoleClassification((), n2, buckets)


class TestRealization:
    def test_clamps_arithmetic_noise(self):
        real = pr.Realization(np.array([[-1e-13]]), np.array([0.5]), np.array([1.0]))
        assert real.A[0, 0] == 0.0

    def test_rejects_genuine_negative(self):
        with pytest.raises(NegativeEntry):
            pr.Realization(np.array([[-1e-6]]), np.array([0.5]), np.array([1.0]))

    def test_arrays_readonly(self):
        real = pr.Realization(np.eye(2), np.ones(2), np.ones(2))
        for arr in (real.A, real.b, real.c):
            with pytest.raises(ValueError):
                arr[0] = 2.0

    @pytest.mark.parametrize(
        "A, b, c",
        [(2.0, 3.0, 1.0), ([0.5], [1.0], [1.0]), ([[0.5, 0.0], [0.25, 1.0]], [1.0, 2.0], [0.0, 3.0])],
    )
    def test_shapes_of_scalar_and_list_input(self, A, b, c):
        real = pr.Realization(A, b, c)
        assert (real.A.shape, real.b.shape, real.c.shape) == (
            np.atleast_2d(A).shape, np.atleast_1d(b).shape, np.atleast_1d(c).shape
        )

    def test_int_input_becomes_float64(self):
        real = pr.Realization(np.eye(2, dtype=int), np.array([1, 2]), [3, 4])
        assert [arr.dtype for arr in (real.A, real.b, real.c)] == [np.float64] * 3
        assert real.A.tolist() == [[1.0, 0.0], [0.0, 1.0]] and real.c.tolist() == [3.0, 4.0]

    def test_sources_are_copied_and_stay_writable(self):
        A, b, c = np.eye(2), np.ones(2), np.ones(2)
        real = pr.Realization(A, b, c)
        A[0, 0] = b[0] = c[0] = 7.0
        assert (real.A[0, 0], real.b[0], real.c[0]) == (1.0, 1.0, 1.0)
        assert all(arr.flags.writeable for arr in (A, b, c))
        again = pr.Realization(real.A, real.b, real.c)  # read-only sources copy too
        assert again.A is not real.A and again.A.flags.writeable is False

    @pytest.mark.parametrize("at", ["A", "b", "c"])
    def test_clamp_window_edge(self, at):
        def with_entry(x):
            parts = {"A": np.array([[0.5]]), "b": np.array([1.0]), "c": np.array([1.0])}
            parts[at] = np.full_like(parts[at], x)
            return pr.Realization(**parts)

        assert getattr(with_entry(-1e-12), at).tolist() in ([0.0], [[0.0]])
        with pytest.raises(NegativeEntry):
            with_entry(-1.0000001e-12)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("at", ["A", "b", "c"])
    def test_non_finite_entry_is_refused(self, at, x):
        parts = {"A": np.array([[0.5, 0.0], [0.25, 1.0]]), "b": np.array([1.0, 2.0]), "c": np.array([0.0, 3.0])}
        parts[at].flat[-1] = x
        with pytest.raises(ValueError, match=f"^{at} has a non-finite entry$"):
            pr.Realization(**parts)

    def test_minus_infinity_is_a_negative_entry(self):
        with pytest.raises(NegativeEntry, match="^b has entry -inf below the clamp window$"):
            pr.Realization([[0.5]], [-math.inf], [1.0])


def assert_only_c_is_clamped(blk):
    """``blk``'s A and b are finite and exactly nonnegative and its c within the clamp window,
    so its realization is its arrays with only c clamped: validating the stack, not each block, moves no byte."""
    for arr in (blk.A, blk.b):
        assert np.isfinite(arr).all() and arr.min() >= 0.0
    assert blk.c.min() >= -CLAMP_WINDOW
    real = blk.realization
    assert (real.A.shape, real.b.shape, real.c.shape) == (blk.A.shape, blk.b.shape, blk.c.shape)
    assert real.A.tobytes() == blk.A.tobytes()
    assert real.b.tobytes() == blk.b.tobytes()
    assert real.c.tobytes() == np.where(blk.c < 0, 0.0, blk.c).tobytes()


class TestBlockArrays:
    """A block holds plain read-only float arrays; only its c can need the clamp."""

    def test_builders_fill_read_only_float_arrays(self):
        for blk in one_block_of_each_kind():
            for arr in (blk.A, blk.b, blk.c):
                assert arr.dtype == np.float64 and not arr.flags.writeable
            assert blk.dim == blk.A.shape[0] == blk.b.shape[0] == blk.c.shape[0]

    @given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1e300, exclude_min=True))
    def test_positive_pole_block(self, lam, c):
        assert_only_c_is_clamped(pr.positive_pole_block(lam, c))

    @given(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), st.floats(-1e6, 1e6), st.floats(1.0, 1e3))
    def test_real_pole_block(self, lam, c, ratio):
        assert_only_c_is_clamped(pr.real_pole_block(lam, c, abs(c) * ratio))  # R >= |c|

    @given(
        st.integers(3, 40), st.floats(0.0, 0.999), st.floats(-math.pi, math.pi),
        st.floats(1e-6, 10.0), st.floats(-math.pi, math.pi), st.floats(1.0, 4.0),
    )
    def test_complex_pair_block(self, m, r, theta, eta, phi, ratio):
        pole, coeff = cmath.rect(r, theta), cmath.rect(eta, phi)
        assume(in_polygon(pole, m))
        R = pr.pair_share_floor(abs(coeff), m) * ratio  # at or above the builder's floor
        assert_only_c_is_clamped(pr.complex_pair_block(pole, coeff, m, R))

    @given(st.floats(0.0, 1e300))
    def test_dominant_remainder_block(self, R):
        assert_only_c_is_clamped(pr.dominant_remainder_block(R))


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
        blk = pr.complex_pair_block(0.5j, 0.01 + 0j, 3, 0.12)
        want = pair_impulse(0.12, 0.01, 0.5j, 6)
        assert blk.realization.markov(6) == pytest.approx(want, rel=1e-12)
        assert want[:3] == pytest.approx([0.14, 0.12, 0.115])

    def test_eta_zero_reduces_to_constant(self):
        blk = pr.complex_pair_block(cmath.rect(0.3, 1.0), 0j, 4, 0.25)
        assert blk.realization.markov(5) == pytest.approx(np.full(5, 0.25))

    def test_example1_pair_after_one_shift(self, example1_tf):
        pf = pr.normalize(pr.expand(example1_tf))
        _, pf = shift_once(pf)
        pair = next(t for t in pf.terms if t.pole.imag > 0)
        coeff = pair.coeffs[0]
        share = pr.pair_share_floor(abs(coeff), 4)
        assert share == pytest.approx(2.0**1.5 * abs(coeff), rel=1e-15)  # 2 / cos(pi/4)
        blk = pr.complex_pair_block(pair.pole, coeff, 4, share)
        assert blk.dim == 4
        want = pair_impulse(share, coeff, pair.pole, 20)
        assert blk.realization.markov(20) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_not_in_polygon(self):
        with pytest.raises(NotInPolygon):
            pr.complex_pair_block(cmath.rect(0.9, math.pi / 4), 0.01 + 0j, 3, 1.0)

    def test_budget_threshold(self):
        with pytest.raises(BudgetTooSmall):
            pr.complex_pair_block(0.5j, 0.1 + 0j, 3, 0.9 * pr.pair_share_floor(0.1, 3))
        pr.complex_pair_block(0.5j, 0.1 + 0j, 3, pr.pair_share_floor(0.1, 3))

    @given(
        st.integers(3, 40),
        st.floats(1e-12, 1e12),
        st.floats(-math.pi, math.pi),
        st.floats(0.0, 0.999),
        st.floats(0.0, math.pi),
    )
    def test_block_at_the_floor_is_nonnegative(self, m, eta, vt, r, th):
        # at R = floor, g/(R alpha) lies on the disc of radius cos(pi/m) that the m-gon contains
        pole, coeff = cmath.rect(r * math.cos(math.pi / m), th), cmath.rect(eta, vt)
        blk = pr.complex_pair_block(pole, coeff, m, pr.pair_share_floor(abs(coeff), m))
        assert blk.realization.b.min() >= 0.0
        check_construction([blk], (), ())  # its first 20 Markov parameters match to relative 1e-10

    @given(st.integers(3, 40), st.floats(1e-12, 1e12))
    def test_floor_is_tight_along_each_edge_normal(self, m, eta):
        # vt = (2k+1) pi/m - pi/4 points (g_x, g_y) along edge k's normal, where the
        # disc of radius cos(pi/m) touches the edge: 0.99 x the floor leaves the m-gon
        verts = polygon(m)
        for k in range(m):
            vt = (2 * k + 1) * math.pi / m - math.pi / 4
            g = eta * complex(math.cos(vt) - math.sin(vt), math.cos(vt) + math.sin(vt))
            R = pr.pair_share_floor(eta, m)
            assert _fan_weights(g / (R * PAIR_ALPHA), verts).min() >= 0.0
            with pytest.raises(DegenerateBarycentric):
                _fan_weights(g / (0.99 * R * PAIR_ALPHA), verts)

    @pytest.mark.parametrize("m", range(3, 41))
    def test_output_row_is_nonnegative_with_one_zero_iff_8_divides_m(self, m):
        # c_k = 1 + sqrt(2) alpha sin(phi_k + pi/4) at alpha = 1/sqrt(2) vanishes only at
        # phi_k = 5 pi/4, a vertex angle iff 8 | m (k = 5m/8); elsewhere it stays clear of 0
        c = pr.complex_pair_block(0.1j, 0.01 + 0j, m, 1.0).realization.c
        assert c.min() >= 0.0
        assert np.flatnonzero(c == 0.0).tolist() == ([5 * m // 8] if m % 8 == 0 else [])

    @given(st.integers(3, 40), st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
    def test_circulant_columns_are_the_rotated_pole(self, m, rho, th):
        # column k holds the fan weights of z v_k; rotating the polygon by
        # 2 pi/m makes them column 0 shifted down by k
        z = cmath.rect(rho, th)
        assume(in_polygon(z, m))
        A = pr.complex_pair_block(z, cmath.rect(0.1, 0.3), m, pr.pair_share_floor(0.1, m)).realization.A
        verts = polygon(m)
        assert A.min() >= 0.0
        assert np.abs(A.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(verts @ A - z * verts).max() <= 1e-12
        assert all((np.roll(A[:, 0], k) == A[:, k]).all() for k in range(m))

    def test_pole_terms_are_the_given_pair(self):
        pole, coeff = 0.3 + 0.4j, 0.01 - 0.02j
        blk = pr.complex_pair_block(pole, coeff, 5, 0.5)
        assert blk.pole_terms == ((pole, coeff), (pole.conjugate(), coeff.conjugate()))


class TestShareFloor:
    """``Block.share_floor`` is the least share its builder accepts, or None for a share-free kind."""

    @given(st.floats(0.0, 0.999), st.floats(1e-12, 1e12), st.floats(0.0, 1e12))
    def test_share_free_kinds_have_none(self, lam, c, R):
        assert pr.positive_pole_block(lam, c).share_floor is None
        assert pr.dominant_remainder_block(R).share_floor is None

    @given(st.floats(-0.999, 0.999), st.floats(-1e12, 1e12).filter(bool))
    def test_real_pole_floor_is_tight(self, lam, c):
        floor = pr.real_pole_block(lam, c, 2.0 * abs(c)).share_floor
        assert floor == abs(c)
        assert pr.real_pole_block(lam, c, floor).share_floor == floor
        with pytest.raises(BudgetTooSmall):
            pr.real_pole_block(lam, c, math.nextafter(abs(c), 0.0))

    @given(
        st.integers(3, 40),
        st.floats(0.0, 0.999),
        st.floats(0.0, math.pi),
        st.floats(1e-12, 1e12),
        st.floats(-math.pi, math.pi),
    )
    def test_pair_floor_is_tight(self, m, r, th, eta, vt):
        pole, coeff = cmath.rect(r * math.cos(math.pi / m), th), cmath.rect(eta, vt)
        floor = pr.complex_pair_block(pole, coeff, m, 8.0 * eta).share_floor
        assert floor == pr.pair_share_floor(abs(coeff), m)
        assert pr.complex_pair_block(pole, coeff, m, floor).share_floor == floor
        with pytest.raises(BudgetTooSmall):
            pr.complex_pair_block(pole, coeff, m, floor * (1.0 - 2e-12))


class TestBudget:
    def test_family_tail_allocation(self):
        plan = pr.budget(pr.classify(hn_pf(0)))
        alloc = dict(plan.allocations())
        assert alloc[0.4 + 0j] == pytest.approx(0.64)
        assert alloc[0.2 + 0j] == 0.0
        assert plan.total == pytest.approx(0.64)
        assert plan.leftover == pytest.approx(0.36)

    def test_family_one_step_earlier_fails(self):
        with pytest.raises(InsufficientBudget) as exc:
            pr.budget(pr.classify(hn_pf(1)))
        assert exc.value.total == pytest.approx(1.6)

    def test_empty_classification(self):
        plan = pr.budget(pr.classify(pr.PartialFraction(1.0, 1.0, ())))
        assert plan.total == 0.0
        assert plan.leftover == 1.0

    def test_conservative_counts_pairs_twice(self):
        # a pair in the triangle at |c| = 1/4 sums to the limit 1/2 exactly and stops the
        # sum rule; one ulp more is past it.  Its floor 4|c| is the whole unit either way.
        def pair(c):
            terms = (pr.PoleTerm(0.5j, (complex(c),)), pr.PoleTerm(-0.5j, (complex(c),)))
            return pr.classify(pr.PartialFraction(1.0, 1.0, terms))

        cls = pair(0.25)
        assert cls.pair_assignments[0].polygon_index == 3
        assert _stop_rule("conservative_sum", *share_floors(cls)[2]) == (0.5, 0.5)
        assert pr.budget(cls).total == pytest.approx(1.0)
        needed, limit = _stop_rule("conservative_sum", *share_floors(pair(math.nextafter(0.25, 1.0)))[2])
        assert needed > limit == 0.5

    @given(floored_classifications())
    @example(pr.PoleClassification((), (), (pr.PairBucket(0.5j, complex(CONSERVATIVE_LIMIT / 2), 3),)))
    def test_sum_rule_stop_is_a_per_pole_stop(self, cls):
        # a real floor is |c| and a pair's at most 4 |c| (m = 3), twice its part of the
        # sum, so a sum at most 1/2 puts the floors at most at the unit
        sums = share_floors(cls)[2]
        needed, limit = _stop_rule("conservative_sum", *sums)
        assume(needed <= limit)
        per_pole, bound = _stop_rule("per_pole", *sums)
        assert per_pole <= bound
        assert pr.budget(cls).total <= 1.0 + 1e-12

    def test_conservative_spends_full_unit(self):
        # the budget gives the floor; the carrier's share takes the leftover in either mode
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.4 + 0j, (-0.1 + 0j,)),))
        plan = pr.budget(pr.classify(pf))
        assert plan.n2_shares == (0.1,)
        assert (plan.total, plan.leftover) == (0.1, 0.9)
        for mode in ("per_pole", "conservative_sum"):
            (block,) = pr.realize(pr.recombine(pf), mode).trace.blocks
            assert (block.share, block.share_floor) == pytest.approx((1.0, 0.1), rel=1e-12)


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
                    z = cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(0.1, math.pi - 0.1))
                    if in_polygon(z, m):
                        break
                eta = rng.uniform(0.001, 0.3)
                blocks.append(
                    pr.complex_pair_block(
                        z, cmath.rect(eta, rng.uniform(-math.pi, math.pi)), m,
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
        pr.complex_pair_block(0.5j, cmath.rect(0.01, 0.3), 3, 0.12),
        pr.dominant_remainder_block(0.36),
    ]


def corrupted(blk, b_scale=1.0, c_scale=1.0):
    return dataclasses.replace(blk, b=blk.b * b_scale, c=blk.c * c_scale)


# Inputs at gain 1e3 and dominant pole 5 whose blocks need no shift, so every block's own
# terms are a sizable part of the stack's: positive_pole, real_pole and complex_pair blocks,
# and a positive_pole block followed by the dominant_remainder block.
MIXED = scaled_pf(
    pr.PartialFraction(1.0, 1.0, (
        pr.PoleTerm(0.5, (0.3,)), pr.PoleTerm(-0.6, (0.2,)),
        pr.PoleTerm(0.5j, (cmath.rect(0.1, 0.3),)), pr.PoleTerm(-0.5j, (cmath.rect(0.1, -0.3),)),
    )),
    1e3, 5.0,
)
REMAINDER = scaled_pf(pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5, (0.3,)),)), 1e3, 5.0)
STACK_ORDER = ("positive_pole", "real_pole", "complex_pair")
BLOCK_FUNCTIONS = {kind: f"{kind}_block" for kind in STACK_ORDER + ("dominant_remainder",)}


def realize_with_sabotage(monkeypatch, kinds, sabotage, **options):
    """``realize`` on the input holding ``kinds``, with each block of those kinds passed through ``sabotage``."""
    for kind in kinds:
        build = getattr(realizermod, BLOCK_FUNCTIONS[kind])
        monkeypatch.setattr(realizermod, BLOCK_FUNCTIONS[kind], lambda *a, build=build: sabotage(build(*a)))
    return pr.realize(pr.recombine(REMAINDER if "dominant_remainder" in kinds else MIXED), **options)


class TestConstructionCheck:
    """A block defect is refused through the final Markov pass of a realize request, naming the block."""

    def test_the_inputs_build_every_kind_with_no_shift(self):
        for pf, kinds in ((MIXED, STACK_ORDER), (REMAINDER, ("positive_pole", "dominant_remainder"))):
            out = pr.realize(pr.recombine(pf))
            assert [s.kind for s in out.trace.blocks] == list(kinds)
            assert out.trace.shifts_performed == 0

    @pytest.mark.parametrize("kind", ["positive_pole", "real_pole", "complex_pair", "dominant_remainder"])
    @pytest.mark.parametrize("scales", [(1.0 + 1e-8, 1.0), (1.0, 1.5), (0.0, 1.0)])
    def test_corrupted_block_is_named(self, monkeypatch, kind, scales):
        with pytest.raises(InternalCheckError, match=f"^{kind} block failed the construction check"):
            realize_with_sabotage(monkeypatch, [kind], lambda blk: corrupted(blk, *scales))

    @pytest.mark.parametrize("first", range(len(STACK_ORDER)))
    def test_first_failing_block_in_stack_order_is_named(self, monkeypatch, first):
        sabotage = lambda blk: corrupted(blk, c_scale=1.5)
        with pytest.raises(InternalCheckError, match=f"^{STACK_ORDER[first]} block"):
            realize_with_sabotage(monkeypatch, STACK_ORDER[first:], sabotage)

    def test_short_verification_horizon_still_checks_each_block(self, monkeypatch):
        # a horizon of 5 ends before the stack's 20 terms, so each block is compared on its own
        assert isinstance(pr.realize(pr.recombine(MIXED), verify_horizon=5), pr.Realized)
        sabotage = lambda blk: corrupted(blk, b_scale=1.0 + 1e-8)
        with pytest.raises(InternalCheckError, match="^complex_pair block failed the construction check"):
            realize_with_sabotage(monkeypatch, ["complex_pair"], sabotage, verify_horizon=5)

    def test_non_finite_entry_is_named(self, monkeypatch):
        def nan_in_a(blk):
            A = np.array(blk.A)
            A[1, 0] = math.nan
            return dataclasses.replace(blk, A=A)

        with pytest.raises(InternalCheckError, match="^real_pole block failed the construction check"):
            realize_with_sabotage(monkeypatch, ["real_pole"], nan_in_a)

    def test_builders_and_assemble_do_not_check(self, monkeypatch):
        calls = []
        monkeypatch.setattr(blocksmod, "markov", lambda *a: calls.append(a))
        blk = corrupted(pr.positive_pole_block(0.3, 0.2), c_scale=1.5)
        assert pr.assemble([blk, pr.dominant_remainder_block(0.5)]).dim == 2
        assert calls == []
        monkeypatch.undo()
        assert blk.realization.markov(2) == pytest.approx([0.3, 0.09])


def numpy_complex_pair_block(pole, coeff, m, R):
    """``complex_pair_block``'s arrays from numpy's vertices and output row: its reference."""
    idx = np.arange(m)
    phis = 2.0 * np.pi * idx / m
    verts = np.exp(1j * phis).tolist()
    A = _fan_weights(pole, verts)[(idx[:, None] - idx) % m]
    g = complex(coeff.real - coeff.imag, coeff.real + coeff.imag)
    b = R * _fan_weights(g / (R * PAIR_ALPHA), verts)
    c = PAIR_ALPHA * np.cos(phis) + PAIR_ALPHA * np.sin(phis) + 1.0
    return A, b, c


def assert_pair_block_matches_numpy(pole, coeff, m, R):
    blk = pr.complex_pair_block(pole, coeff, m, R)
    for got, want in zip((blk.A, blk.b, blk.c), numpy_complex_pair_block(pole, coeff, m, R)):
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestPairBlockFromScalars:
    """The pair block's vertices and output row come from Python scalars, with numpy's bits."""

    @pytest.mark.parametrize("m", range(3, 65))
    def test_every_polygon_index(self, m):
        rng = np.random.default_rng(m)
        for _ in range(3):
            pole = cmath.rect(rng.uniform(0.0, math.cos(math.pi / m)), rng.uniform(-math.pi, math.pi))
            coeff = cmath.rect(rng.uniform(1e-6, 1.0), rng.uniform(-math.pi, math.pi))
            assert_pair_block_matches_numpy(pole, coeff, m, pr.pair_share_floor(abs(coeff), m) * rng.uniform(1.0, 4.0))

    @given(
        st.integers(3, 64), st.floats(0.0, 0.999), st.floats(-math.pi, math.pi),
        st.floats(1e-6, 10.0), st.floats(-math.pi, math.pi), st.floats(1.0, 4.0),
    )
    def test_drawn_poles_and_coefficients(self, m, r, theta, eta, phi, ratio):
        pole, coeff = cmath.rect(r, theta), cmath.rect(eta, phi)
        assume(in_polygon(pole, m))
        assert_pair_block_matches_numpy(pole, coeff, m, pr.pair_share_floor(eta, m) * ratio)


def polygon(m: int) -> np.ndarray:
    return np.exp(1j * 2.0 * np.pi * np.arange(m) / m)


def numpy_fan_weights(w: complex, verts: np.ndarray) -> np.ndarray:
    """``_fan_weights``'s formula on numpy complex scalars and a numpy weight vector, its reference."""
    m = len(verts)
    d = w - verts[0]
    k = min(max(math.floor(math.atan2(-d.real, d.imag) * m / math.pi), 1), m - 2)
    u, v = verts[k] - verts[0], verts[k + 1] - verts[0]
    det = u.real * v.imag - u.imag * v.real
    wb = (d.real * v.imag - d.imag * v.real) / det
    wc = (u.real * d.imag - u.imag * d.real) / det
    wa = 1.0 - wb - wc
    if not min(wa, wb, wc) >= -CLAMP_WINDOW:
        raise DegenerateBarycentric(f"point {w:.12g} is not inside the polygon fan")
    weights = np.zeros(m)
    weights[[0, k, k + 1]] = max(0.0, wa), max(0.0, wb), max(0.0, wc)
    return weights


def assert_fan_weights_valid(w: complex, verts: np.ndarray) -> None:
    wts = _fan_weights(w, verts)
    assert wts.min() >= 0.0
    assert np.count_nonzero(wts) <= 3
    assert abs(wts.sum() - 1.0) <= 1e-12
    assert abs(wts @ verts - w) <= 1e-12


class TestFanWeights:
    """The fan triangle is read off the angle of w - v0, not searched for."""

    def test_random_interior_points(self):
        rng = np.random.default_rng(5)
        for _ in range(3000):
            m = int(rng.integers(3, 41))
            verts = polygon(m)
            alpha = 0.05 if rng.random() < 0.5 else 1.0  # sparse weights reach edges and diagonals
            assert_fan_weights_valid(complex(rng.dirichlet(np.full(m, alpha)) @ verts), verts)

    def test_points_on_fan_diagonals(self):
        rng = np.random.default_rng(6)
        for m in range(4, 41):
            verts = polygon(m)
            for k in range(2, m - 1):
                for t in (1e-9, rng.random(), 0.5, 1.0):
                    assert_fan_weights_valid(complex((1 - t) * verts[0] + t * verts[k]), verts)

    def test_points_near_vertex_zero(self):
        rng = np.random.default_rng(7)
        for m in range(3, 41):
            verts = polygon(m)
            assert_fan_weights_valid(complex(verts[0]), verts)
            for scale in (1e-15, 1e-9, 1e-4):
                w = verts[0] + scale * (rng.dirichlet(np.ones(m)) @ (verts - verts[0]))
                assert_fan_weights_valid(complex(w), verts)

    @settings(max_examples=300)
    @given(st.integers(3, 40), st.data())
    def test_python_floats_match_numpy_scalars_bit_for_bit(self, m, data):
        # complex_pair_block's vertices; s times a point of edge j covers the polygon for s <= 1,
        # and s within 1e-9 of 1 lands on both sides of the clamp window
        verts = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
        j, t = data.draw(st.integers(0, m - 1)), data.draw(st.floats(0.0, 1.0))
        s = data.draw(st.floats(0.0, 1.0) | st.floats(1.0 - 1e-9, 1.0 + 1e-9))
        w = complex(s * ((1.0 - t) * verts[j] + t * verts[(j + 1) % m]))
        try:
            want = numpy_fan_weights(w, verts)
        except DegenerateBarycentric:
            with pytest.raises(DegenerateBarycentric):
                _fan_weights(w, verts.tolist())
            return
        assert _fan_weights(w, verts.tolist()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [3, 4, 7, 12, 40])
    def test_point_just_outside_an_edge_is_refused(self, m):
        verts = polygon(m)
        for k in range(m):
            mid = 0.5 * (verts[k] + verts[(k + 1) % m])
            with pytest.raises(DegenerateBarycentric):
                _fan_weights(complex(mid * (1.0 + 1e-6 / abs(mid))), verts)


def reference_stack(blocks) -> pr.Realization:
    """The blocks stacked and validated as their own triple: the first half of the two-copy reference."""
    total = sum(blk.dim for blk in blocks)
    A, b, c = np.zeros((total, total)), np.zeros(total), np.zeros(total)
    at = 0
    for blk in blocks:
        d = blk.dim
        A[at : at + d, at : at + d] = blk.A
        b[at : at + d] = blk.b
        c[at : at + d] = blk.c
        at += d
    return pr.Realization(A, b, c)


def reference_lift(base, prefix, gamma=1.0, lam0=1.0) -> pr.Realization:
    """A second copy of ``base`` behind the delay chain, rescaled and validated again: the second half."""
    pre = np.asarray(prefix, dtype=float).reshape(-1)
    chain = pre.size
    if pre.min(initial=0.0) < 0:
        raise NegativePrefix(f"prefix entry {pre.min():.6g} is negative")
    if not chain and gamma == lam0 == 1.0:
        return base
    A = np.zeros((base.dim + chain,) * 2)
    with np.errstate(over="ignore"):
        A[chain:, chain:] = base.A * lam0
        if chain:
            np.fill_diagonal(A[1:chain], lam0)
            A[chain:, chain - 1] = base.b * lam0
        b = (np.eye(1, len(A))[0] if chain else base.b) * gamma
    try:
        return pr.Realization(A, b, np.concatenate([pre, base.c]))
    except ValueError:
        if np.isfinite(A).all() and np.isfinite(b).all():
            raise
        raise ValueError("base overflows when rescaled to the input's scale") from None


def outcome(build, *args):
    """The triple's shape and bytes, or the refusal's type and message."""
    try:
        out = build(*args)
    except (ValueError, NegativeEntry, NegativePrefix) as exc:
        return type(exc), str(exc)
    return out.A.shape, out.A.tobytes(), out.b.tobytes(), out.c.tobytes()


# Block entries: plain values, the clamp window and its edges, the largest finite values, and
# (rarely) entries that the stack refuses: below the window, NaN and both infinities.
BLOCK_ENTRIES = st.one_of(
    st.floats(0.0, 10.0),
    st.floats(-CLAMP_WINDOW, 0.0),
    st.sampled_from([0.0, -0.0, -CLAMP_WINDOW, 5e-324, 1e300, 1.7e308]),
)
BAD_ENTRIES = st.sampled_from([-1.0000001e-12, -1.0, math.nan, math.inf, -math.inf])


@st.composite
def drawn_blocks(draw):
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 4))
        entries = lambda n: np.array(draw(st.lists(BLOCK_ENTRIES, min_size=n, max_size=n)))
        A, b, c = entries(d * d).reshape(d, d), entries(d), entries(d)
        if draw(st.integers(0, 9)) == 0:  # one entry the stack refuses
            arr = draw(st.sampled_from([A, b, c]))
            arr.flat[draw(st.integers(0, arr.size - 1))] = draw(BAD_ENTRIES)
        blocks.append(pr.Block(A, b, c, "drawn", 0.0, ()))
    return blocks


SCALES = st.one_of(st.just(1.0), st.floats(1e-300, 1e300), st.sampled_from([1e-12, 2.0, 1e10, 1e300]))
PREFIXES = st.lists(st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, -0.0, 1e308, -1e-3, math.nan])), max_size=5)


class TestOnePassAssemble:
    """``assemble(blocks, prefix, gamma, lam0)`` stacks, lifts and rescales in one copy and validates
    only its output, bit for bit what stacking, validating, lifting and validating again gave."""

    @settings(max_examples=400)
    @given(drawn_blocks(), PREFIXES, SCALES, SCALES)
    @example([pr.Block(np.array([[1e300]]), np.array([1.0]), np.array([1.0]), "drawn", 0.0, ())], [], 1.0, 1e10)
    @example([pr.Block(np.array([[0.5]]), np.array([1e300]), np.array([1.0]), "drawn", 0.0, ())], [1.0], 1.0, 1e10)
    @example([pr.Block(np.array([[0.5]]), np.array([1e300]), np.array([1.0]), "drawn", 0.0, ())], [], 1e10, 1.0)
    # a non-finite entry among nonnegative ones is the stack's refusal, not an overflow
    @example([pr.Block(np.array([[math.inf]]), np.array([1.0]), np.array([1.0]), "drawn", 0.0, ())], [1.0], 2.0, 3.0)
    @example([pr.Block(np.array([[0.5]]), np.array([math.inf]), np.array([1.0]), "drawn", 0.0, ())], [], 2.0, 3.0)
    @example([pr.Block(np.array([[0.5]]), np.array([1.0]), np.array([math.nan]), "drawn", 0.0, ())], [], 1.0, 1.0)
    def test_matches_the_two_copy_reference(self, blocks, prefix, gamma, lam0):
        want = outcome(lambda: reference_lift(reference_stack(blocks), prefix, gamma, lam0))
        assert outcome(pr.assemble, blocks, prefix, gamma, lam0) == want
        if not prefix and gamma == lam0 == 1.0:
            assert outcome(pr.assemble, blocks) == want

    @pytest.mark.parametrize("lam0", [1.0, 1e6, 1e12])
    def test_clamp_window_entries_read_zero_at_any_scale(self, lam0):
        blk = pr.Block(np.array([[0.5, -CLAMP_WINDOW], [-5e-13, 0.25]]), np.array([-1e-13, 1.0]),
                       np.array([1.0, -CLAMP_WINDOW]), "drawn", 0.0, ())
        for prefix in ([], [2.0, 3.0]):
            out = pr.assemble([blk], prefix, 1e8, lam0)
            m = len(prefix)
            assert out.A[m:, m:].tolist() == [[0.5 * lam0, 0.0], [0.0, 0.25 * lam0]]
            assert out.c[m:].tolist() == [1.0, 0.0]
            assert (out.A[m:, m - 1] if m else out.b).tolist()[0] == 0.0

    def test_overflowing_rescale_is_refused(self):
        blk = pr.positive_pole_block(0.5, 1e300)
        with pytest.raises(ValueError, match="^base overflows when rescaled to the input's scale$"):
            pr.assemble([blk], [1.0], 1.0, 1e10)

    def test_prefix_lift_is_the_one_base_case(self, base_4dim):
        assert pr.prefix_lift(base_4dim, []) is base_4dim
        prefix = hn_impulse(8, 4)
        for args in ((prefix,), (prefix, 2.5, 0.3), ([], 2.0, 1.0)):
            got, want = pr.prefix_lift(base_4dim, *args), pr.assemble([base_4dim], *args)
            assert outcome(lambda: got) == outcome(lambda: want) == outcome(reference_lift, base_4dim, *args)


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

    def test_nan_prefix_is_refused(self):
        base = pr.Realization([[1.0]], [1.0], [1.0])
        with pytest.raises(ValueError, match="^c has a non-finite entry$"):
            pr.prefix_lift(base, [math.nan])

    @pytest.mark.parametrize(
        "A, b, prefix, gamma, lam0",
        [([[1e308]], [1.0], [], 1.0, 2.0), ([[0.5]], [1e308], [1.0], 1.0, 2.0), ([[0.5]], [1e308], [], 2.0, 1.0)],
        ids=["A", "chain-input", "gain"],
    )
    def test_overflowing_rescale_is_refused(self, A, b, prefix, gamma, lam0):
        base = pr.Realization(A, b, [1.0])
        with pytest.raises(ValueError, match="^base overflows when rescaled to the input's scale$"):
            pr.prefix_lift(base, prefix, gamma, lam0)

    @staticmethod
    def chain_lift(base, prefix):
        """The unscaled delay-chain lift, entry by entry: its input enters state 1, or the base with no prefix."""
        m, n = len(prefix), base.dim
        A, b = np.zeros((m + n, m + n)), np.zeros(m + n)
        for i in range(1, m):
            A[i, i - 1] = 1.0
        A[m:, m:] = base.A
        if m:
            A[m:, m - 1] = base.b
            b[0] = 1.0
        else:
            b[:] = base.b
        return A, b, np.concatenate([prefix, base.c])

    @pytest.mark.parametrize("gamma, lam0", [(2.5, 1.0), (1.0, 0.3), (1e-6, 1e3), (7.0, 1.7)])
    @pytest.mark.parametrize("n_prefix", [0, 1, 4])
    def test_gain_and_pole_scale(self, base_4dim, gamma, lam0, n_prefix):
        prefix = hn_impulse(8, 4)[:n_prefix]
        plain = pr.prefix_lift(base_4dim, prefix)
        scaled = pr.prefix_lift(base_4dim, prefix, gamma, lam0)
        K = 16
        want = gamma * lam0 ** np.arange(K) * plain.markov(K)
        assert scaled.markov(K) == pytest.approx(want, rel=1e-12, abs=0.0)
        # the same products as lifting, then scaling A by lam0 and the input by gamma
        A, b, c = self.chain_lift(base_4dim, prefix)
        for got, ref in zip((plain.A, plain.b, plain.c), (A, b, c)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        for got, ref in zip((scaled.A, scaled.b, scaled.c), (A * lam0, b * gamma, c)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_scale_without_prefix_is_a_new_triple(self, base_4dim):
        scaled = pr.prefix_lift(base_4dim, [], 2.0, 1.0)
        assert scaled is not base_4dim and scaled.b.tolist() == (2.0 * base_4dim.b).tolist()
        assert scaled.A.tobytes() == base_4dim.A.tobytes()


def test_trivial_block_cone_models():
    for blk in (
        pr.positive_pole_block(0.3, 0.2),
        pr.real_pole_block(0.4, -0.3, 0.5),
        pr.dominant_remainder_block(0.7),
    ):
        assert cone_residual(*cone_model(blk), blk.realization) < 1e-10


def test_block_cone_certificates_on_random_blocks():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(3, 9))
        while True:
            z = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0.05, math.pi - 0.05))
            if in_polygon(z, m):
                break
        eta = rng.uniform(1e-4, 0.4)
        blk = pr.complex_pair_block(
            z, cmath.rect(eta, rng.uniform(-math.pi, math.pi)), m,
            pr.pair_share_floor(eta, m) * rng.uniform(1.0, 2.0),
        )
        assert cone_residual(*cone_model(blk), blk.realization) < 1e-10


def test_dimension_accounting_matches_prediction():
    rng = np.random.default_rng(9)
    built = 0
    while built < 50:
        pf = random_stable_pf(rng, ensure_positive_impulse=True)
        cls = pr.classify(pf)
        try:
            plan = pr.budget(cls)
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
            blocks.append(pr.complex_pair_block(pair.pole, pair.coeff, pair.polygon_index, s))
        if not carriers:
            blocks.append(pr.dominant_remainder_block(plan.leftover))
        asm = pr.assemble(blocks)
        assert asm.dim == cls.predicted_dimension + (0 if carriers else 1)
