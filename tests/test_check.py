import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import posreal as pr
import posreal.tf as tfmod
from posreal.check import markov, markov_check
from posreal.errors import DimensionMismatch, InternalCheckError
from posreal.geometry import in_polygon

from conftest import cone_model, cone_residual, hn_pf, scaled_pf
from strategies import simple_stable_pfs


class TestMarkovCheck:
    def test_base_realization_against_family(self, h4_tf, base_4dim):
        report = markov_check(base_4dim, h4_tf, 100, 1e-9)
        assert report.passed
        assert report.max_relative_error < 1e-9

    def test_trivial_pass(self):
        tf = pr.from_coefficients([1.0], [-1.0, 1.0])
        report = markov_check((np.array([[1.0]]), np.array([1.0]), np.array([1.0])), tf)
        assert report.passed
        assert report.max_relative_error == 0.0

    def test_wrong_input_vector_fails_at_first_term(self, h4_tf, base_4dim):
        report = markov_check((base_4dim.A, np.array([1.0, 0, 0, 0]), base_4dim.c), h4_tf, 50, 1e-6)
        assert not report.passed
        assert report.worst_index == 1

    def test_negative_entries_reported(self, h4_tf, base_4dim):
        c = np.array([6.0, -0.5, 0.0, 51.0])
        report = markov_check((base_4dim.A, base_4dim.b, c), h4_tf, 20, 1e-6)
        assert not report.nonnegative
        assert not report.passed

    def test_overflow_fails_at_first_non_finite_index(self):
        # 1/(z - 2) has gamma = 1 and lam0 = 2: its normalized terms are all 1, and those of
        # A = 4 are 2^(k-1), which overflow at k = 1025, where the error goes non-finite.
        tf = pr.from_coefficients([1.0], [-2.0, 1.0])
        report = markov_check((np.array([[4.0]]), np.array([1.0]), np.array([1.0])), tf, 1100)
        assert not report.passed
        assert report.worst_index == 1025
        assert report.max_relative_error == np.inf

    def test_sequences_overflowing_together_fail_at_their_first_non_finite_index(self):
        # In the frame the caller gives, gamma = lam0 = 1, both sequences are 2^(k-1); they
        # overflow together at k = 1025, where the error inf - inf is NaN.
        tf = pr.from_coefficients([1.0], [-2.0, 1.0])
        triple = (np.array([[2.0]]), np.array([1.0]), np.array([1.0]))
        assert markov_check(triple, tf, 1024, scale=(1.0, 1.0)).passed
        report = markov_check(triple, tf, 1100, scale=(1.0, 1.0))
        assert not report.passed
        assert report.worst_index == 1025
        assert report.max_relative_error == np.inf

    @pytest.mark.parametrize(
        "lam0, gain",
        [(1e4, 1.0)] + [(1.0, g) for g in (1e-8, 1e-4, 1.0, 1e4, 1e8, 2e8, 1e9, 1e10)],
    )
    def test_large_dominant_pole_or_gain_is_verified(self, lam0, gain):
        # The H4 shape at dominant pole 1e4 (whose unnormalized terms overflow before the
        # default horizon of 100) and at gains from 1e-8 to 1e10 (the unnormalized measure
        # refused 2e8 and 1e10): in the normalized frame each verifies to rounding level.
        pf = pr.PartialFraction(
            lam0, gain,
            (pr.PoleTerm(0.4 * lam0 + 0j, (-25.0 * gain + 0j,)), pr.PoleTerm(0.2 * lam0 + 0j, (75.0 * gain + 0j,))),
        )
        tf = pr.recombine(pf)
        out = pr.realize(tf)
        assert isinstance(out, pr.Realized)
        assert out.trace.verification.passed
        assert out.trace.verification.max_relative_error < 1e-12
        assert markov_check(out.realization, tf).max_relative_error < 1e-12

    @pytest.mark.parametrize("lam0", [1e-8, 1e-4])
    def test_small_dominant_pole_is_verified(self, lam0):
        # the H4 shape scaled down: its poles are separated relative to lam0, so it realizes
        # with the dimension it has at lam0 = 1 and verifies to rounding level
        shape = lambda lam0: pr.recombine(pr.PartialFraction(
            lam0, 1.0, (pr.PoleTerm(0.4 * lam0 + 0j, (-25.0 + 0j,)), pr.PoleTerm(0.2 * lam0 + 0j, (75.0 + 0j,))),
        ))
        tf = shape(lam0)
        out = pr.realize(tf)
        assert isinstance(out, pr.Realized) and out.trace.verification.passed
        assert out.trace.final_dimension == pr.realize(shape(1.0)).trace.final_dimension == 7
        assert out.trace.verification.max_relative_error < 1e-12
        assert markov_check(out.realization, tf).max_relative_error < 1e-12

    def test_dimension_mismatch(self, h4_tf):
        with pytest.raises(DimensionMismatch):
            markov_check((np.eye(2), np.ones(3), np.ones(2)), h4_tf)


class TestScaleFreeVerdicts:
    """The verdict does not depend on the gain or the pole scale (Benvenuti & Farina, IEEE TAC 2004)."""

    @settings(max_examples=150, deadline=None)
    @given(simple_stable_pfs(coeff_bound=0.5), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    def test_valid_output_passes_and_sabotage_fails(self, pf, log_gamma, log_lam0):
        out = pr.realize(pr.recombine(pf))
        assume(isinstance(out, pr.Realized))
        gamma, lam0 = 10.0**log_gamma, 10.0**log_lam0
        # the realization rescaled to the input's gain and pole scale, as realize lifts it
        real = pr.prefix_lift(out.realization, (), gamma, lam0)
        tf = pr.recombine(scaled_pf(pf, gamma, lam0))
        scale = (gamma, lam0)
        report = markov_check(real, tf, scale=scale)
        assert report.passed and report.max_relative_error < 1e-9
        assert not markov_check((real.A, 0.0 * real.b, real.c), tf, scale=scale).passed
        assert not markov_check((real.A, real.b, 1.5 * real.c), tf, scale=scale).passed

    @pytest.mark.parametrize("gain", [1e-8, 1.0, 1e8])
    def test_sabotage_fails_at_small_and_large_gain(self, h4_tf, base_4dim, gain):
        # the scale comes from the input's own expansion when the caller gives none
        tf = pr.recombine(scaled_pf(pr.expand(h4_tf), gain, 1.0))
        real = pr.prefix_lift(base_4dim, (), gain, 1.0)
        assert markov_check(real, tf, 100, 1e-9).passed
        assert not markov_check((real.A, 0.0 * real.b, real.c), tf).passed
        assert not markov_check((real.A, real.b, 1.5 * real.c), tf).passed

    def test_non_finite_entry_fails(self, h4_tf, base_4dim):
        A = np.array(base_4dim.A)
        A[2, 2] = math.nan
        report = markov_check((A, base_4dim.b, base_4dim.c), h4_tf)
        assert not report.passed and report.max_relative_error == math.inf


def scalar_markov_check(triple, tf, K, tol):
    """The step-by-step comparison loop ``markov_check`` replaced, kept as its reference.

    It normalizes as ``markov_check`` does, by the dominant residue gamma and pole lam0 of
    ``tf``'s expansion: c (A/lam0)^(k-1) b/gamma against t_k / (gamma lam0^(k-1)).
    """
    A, b, c = triple
    pf = pr.normalize(pr.expand(tf))
    ref = tfmod._scaled_recurrence(tf, K, pf.scale_gamma, pf.pole_scale)
    A = A / pf.pole_scale
    x = b / pf.scale_gamma
    worst, worst_k = 0.0, 1
    for k in range(K):
        got = float(c @ x)
        err = float(abs(got - ref[k]) / (1.0 + abs(ref[k])))
        if not err <= worst:  # a larger error, or NaN
            worst, worst_k = err, k + 1
            if not math.isfinite(err):
                worst = math.inf
                break
        x = A @ x
    nonneg = A.min() >= 0 and b.min() >= 0 and c.min() >= 0
    return worst, worst_k, bool(nonneg and worst < tol)


REFERENCE_TFS = (
    pr.from_coefficients([1.0], [-1.0, 1.0]),  # 1/(z - 1): t_k = 1
    pr.from_coefficients([1.0, 1.0], [-0.5, -0.5, 1.0]),  # (z + 1)/((z - 1)(z + 0.5))
    pr.from_coefficients([2.0], [-2.0, 1.0]),  # 2/(z - 2): t_k = 2^k, normalized 1
)
# Small values make ties likely; 1e200 overflows within a few steps and NaN
# poisons every later term.
ENTRIES = st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, 1e200, math.nan])


@st.composite
def small_triples(draw):
    n = draw(st.integers(1, 3))
    A = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = np.array(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    c = np.array(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    return A, b, c


class TestVectorizedMarkovCheck:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300)
    @given(small_triples(), st.sampled_from(REFERENCE_TFS), st.integers(1, 12), st.sampled_from([1e-6, 10.0]))
    def test_matches_scalar_loop(self, triple, tf, K, tol):
        report = markov_check(triple, tf, K, tol)
        worst, worst_k, passed = scalar_markov_check(triple, tf, K, tol)
        assert report.max_relative_error == worst
        assert report.worst_index == worst_k
        assert report.passed == passed

    def test_tie_reports_first_index(self):
        # c A^(k-1) b = 2 against t_k = 1: every error is 1/2
        tf = pr.from_coefficients([1.0], [-1.0, 1.0])
        report = markov_check((np.array([[1.0]]), np.array([2.0]), np.array([1.0])), tf, 5)
        assert (report.max_relative_error, report.worst_index) == (0.5, 1)

    def test_all_zero_errors_report_index_one(self):
        tf = pr.from_coefficients([1.0], [-1.0, 1.0])
        report = markov_check((np.array([[1.0]]), np.array([1.0]), np.array([1.0])), tf, 5)
        assert (report.max_relative_error, report.worst_index) == (0.0, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_error_wins_over_a_larger_finite_one(self):
        # errors 0, 1e200/2 (finite), then inf once (1e200)^2 overflows
        tf = pr.from_coefficients([1.0], [-1.0, 1.0])
        triple = (np.array([[1e200]]), np.array([1.0]), np.array([1.0]))
        report = markov_check(triple, tf, 5)
        assert (report.max_relative_error, report.worst_index) == (math.inf, 3)
        assert report.max_relative_error == scalar_markov_check(triple, tf, 5, 1e-6)[0]

    def test_nan_after_a_larger_finite_error(self):
        tf = pr.from_coefficients([1.0], [-1.0, 1.0])
        triple = (np.array([[math.nan]]), np.array([3.0]), np.array([1.0]))
        report = markov_check(triple, tf, 5)
        assert (report.max_relative_error, report.worst_index) == (math.inf, 2)


def scalar_markov(A, b, c, K):
    """c A^(k-1) b one matvec per term, the reference for the doubling kernel."""
    x, out = b.astype(float), []
    for _ in range(K):
        out.append(c @ x)
        x = A @ x
    return np.array(out)


class TestMarkovPastTheStride:
    """Past 16 terms ``markov`` fills its Krylov rows by doubling, X[f:2f] = X[:f] (A^f)^T with
    A^f squared each round; these reach several rounds in and end both on and just past a round."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 120), st.integers(1, 4), st.floats(0.05, 2.0),
           st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
    def test_nonnegative_triples_match_the_loop(self, n, K, rows, scale, density, seed):
        rng = np.random.default_rng(seed)
        entries = lambda shape: rng.uniform(0.125, 1.0, shape) * (rng.random(shape) < density)
        A, b, C = scale * entries((n, n)), entries(n), entries((rows, n))
        for c in (C[0], C):
            np.testing.assert_allclose(markov(A, b, c, K), scalar_markov(A, b, c, K), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("K", [16, 17, 20, 32, 33, 64, 65, 100, 128, 129])
    def test_each_doubling_boundary_matches_the_loop(self, K):
        # 16 is the loop's last K; K = 2^j fills its last round whole, 2^j + 1 adds a round of one row
        rng = np.random.default_rng(K)
        for n, rows in ((1, 1), (6, 3), (30, 4)):
            A, b, C = rng.uniform(0, 2.0 / n, (n, n)), rng.uniform(0, 1, n), rng.uniform(0, 1, (rows, n))
            for c in (C[0], C):
                np.testing.assert_allclose(markov(A, b, c, K), scalar_markov(A, b, c, K), rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=500)
    @given(small_triples(), st.sampled_from(REFERENCE_TFS), st.integers(1, 70), st.sampled_from([1e-6, 10.0]))
    def test_never_passes_what_the_loop_fails(self, triple, tf, K, tol):
        if not scalar_markov_check(triple, tf, K, tol)[2]:
            assert not markov_check(triple, tf, K, tol).passed

    @pytest.mark.parametrize("at", [(0, 0), (3, 7), (7, 2)])
    def test_nan_in_a_reports_the_loops_first_non_finite_index(self, at):
        rng = np.random.default_rng(8)
        A, b, c = rng.uniform(0, 0.2, (8, 8)), rng.uniform(0, 1, 8), rng.uniform(0, 1, 8)
        A[at] = math.nan
        tf = pr.from_coefficients([1.0], [-1.0, 1.0])
        report = markov_check((A, b, c), tf, 50)
        worst, worst_k, _ = scalar_markov_check((A, b, c), tf, 50, 1e-6)
        assert (report.max_relative_error, report.worst_index) == (worst, worst_k) == (math.inf, 2)

    @settings(max_examples=200)
    @given(st.data(), st.integers(1, 8), st.integers(1, 45))
    def test_dyadic_triples_are_exact(self, data, n, K):
        # A has at most two entries 1/2 per row, so A^k (k < 45) has entries in
        # 2^-k Z within [0, 1], and A^k b, c A^k b and every partial sum fit in
        # 53 bits: no operation of either evaluation rounds.
        A = np.zeros((n, n))
        for row in A:
            row[data.draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))] = 0.5
        halves = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n)
        b, c = np.array(data.draw(halves)), np.array(data.draw(halves))
        got = markov(A, b, c, K)
        x = [Fraction(v) for v in b]
        for k in range(K):
            assert Fraction(got[k]) == sum(Fraction(ci) * xi for ci, xi in zip(c, x)), k
            x = [sum(Fraction(a) * xj for a, xj in zip(row, x)) for row in A]


class TestOverflowingPowerOfAnUnreachedState:
    """A = diag(1, 1e200), b = c = e1: the doubling's A^f overflows in a state no term reaches."""

    A, e1 = np.diag([1.0, 1e200]), np.array([1.0, 0.0])

    @pytest.mark.parametrize("K", [16, 20, 100])
    def test_terms_are_all_ones(self, K):
        assert markov(self.A, self.e1, self.e1, K).tolist() == [1.0] * K
        assert markov(self.A, self.e1, np.eye(2), K).tolist() == [[1.0, 0.0]] * K

    @pytest.mark.parametrize("K", [20, None])
    def test_check_against_the_integrator_passes(self, K):
        report = markov_check((self.A, self.e1, self.e1), pr.from_coefficients([1.0], [-1.0, 1.0]), K)
        assert report.passed and report.max_relative_error == 0.0
        assert report.horizon == (K or 100)

    @pytest.mark.parametrize("big, loop_matvecs", [(0.5, 0), (1e200, 100)])
    def test_only_non_finite_doubled_terms_pay_for_the_loop(self, big, loop_matvecs):
        class CountingMatrix(np.ndarray):
            """Counts the products ``A @ x`` of the matvec loop; the doubling reads a plain copy."""

            matvecs = 0

            def __matmul__(self, other):
                CountingMatrix.matvecs += 1
                return np.asarray(self) @ other

        A = np.diag([1.0, big]).view(CountingMatrix)
        assert markov(A, self.e1, self.e1, 100).tolist() == [1.0] * 100
        assert CountingMatrix.matvecs == loop_matvecs


def test_matrix_c_gives_one_column_per_row():
    rng = np.random.default_rng(4)
    A, b, C = rng.uniform(0, 0.5, (5, 5)), rng.uniform(0, 1, 5), rng.uniform(0, 1, (3, 5))
    got = markov(A, b, C, 12)
    assert got.shape == (12, 3)
    for j in range(3):
        assert got[:, j] == pytest.approx(markov(A, b, C[j], 12), rel=1e-13)


class TestConeCheck:
    def test_identity_cone(self):
        tf_real = pr.assemble(
            [pr.positive_pole_block(0.2, 0.12), pr.real_pole_block(0.4, -0.64, 0.64 + 0.36)]
        )
        assert cone_residual(tf_real.A, np.eye(3), tf_real.b, tf_real.c, tf_real) == 0.0

    def test_pair_block_internals(self):
        blk = pr.complex_pair_block(0.5j, cmath.rect(0.01, 0.2), 4, 0.5)
        assert cone_residual(*cone_model(blk), blk.realization) < 1e-10

    def test_perturbed_p_fails(self):
        blk = pr.complex_pair_block(0.5j, cmath.rect(0.01, 0.2), 4, 0.5)
        F, P, g, h = cone_model(blk)
        P = P.copy()
        P[0, 0] += 0.1
        assert not cone_residual(F, P, g, h, blk.realization) < 1e-10


def test_cone_pass_implies_markov_pass_for_blocks():
    # joint invariant: a certified cone plus nonnegativity gives a correct block
    rng = np.random.default_rng(31)
    for _ in range(30):
        m = int(rng.integers(3, 7))
        while True:
            lam = cmath.rect(rng.uniform(0.1, 0.9), rng.uniform(0.1, np.pi - 0.1))
            if in_polygon(lam, m):
                break
        eta = rng.uniform(1e-3, 0.3)
        c = cmath.rect(eta, rng.uniform(-np.pi, np.pi))
        share = pr.pair_share_floor(eta, m) * rng.uniform(1.0, 1.5)
        blk = pr.complex_pair_block(lam, c, m, share)
        assert cone_residual(*cone_model(blk), blk.realization) < 1e-10
        k = np.arange(25)
        want = share + 2.0 * (c * lam**k).real
        got = blk.realization.markov(25)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-10
