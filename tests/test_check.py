import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import posreal as pr
from posreal.check import cone_check, markov, markov_check
from posreal.errors import DimensionMismatch, InternalCheckError

from conftest import hn_pf


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflow_fails_at_first_non_finite_index(self):
        # Both sequences are 2^(k-1); they overflow together at k = 1025,
        # where the error inf - inf is NaN.
        tf = pr.from_coefficients([1.0], [-2.0, 1.0])
        triple = (np.array([[2.0]]), np.array([1.0]), np.array([1.0]))
        assert markov_check(triple, tf, 1024).passed
        report = markov_check(triple, tf, 1100)
        assert not report.passed
        assert report.worst_index == 1025
        assert report.max_relative_error == np.inf

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_large_dominant_pole_is_not_verified(self):
        # The H4 shape at dominant pole 1e4 overflows before the default
        # horizon of 100, so the synthesized realization cannot be verified.
        pf = pr.PartialFraction(
            1e4, 1.0, (pr.PoleTerm(4e3 + 0j, (-25.0 + 0j,)), pr.PoleTerm(2e3 + 0j, (75.0 + 0j,)))
        )
        with pytest.raises(InternalCheckError, match="failed verification"):
            pr.realize(pr.recombine(pf))

    def test_dimension_mismatch(self, h4_tf):
        with pytest.raises(DimensionMismatch):
            markov_check((np.eye(2), np.ones(3), np.ones(2)), h4_tf)


def scalar_markov_check(triple, tf, K, tol):
    """The step-by-step comparison loop ``markov_check`` replaced, kept as its reference."""
    A, b, c = triple
    ref = pr.impulse_response(tf, K)
    x = b.astype(float)
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
    pr.from_coefficients([2.0], [-2.0, 1.0]),  # 2/(z - 2): t_k = 2^k
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
    """c A^(k-1) b one matvec per term, the reference for the strided kernel."""
    x, out = b.astype(float), []
    for _ in range(K):
        out.append(c @ x)
        x = A @ x
    return np.array(out)


class TestMarkovPastTheStride:
    """Past 32 terms ``markov`` strides by a power of A; these reach past the stride."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 120), st.integers(1, 4), st.floats(0.05, 2.0),
           st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
    def test_nonnegative_triples_match_the_loop(self, n, K, rows, scale, density, seed):
        rng = np.random.default_rng(seed)
        entries = lambda shape: rng.uniform(0.125, 1.0, shape) * (rng.random(shape) < density)
        A, b, C = scale * entries((n, n)), entries(n), entries((rows, n))
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
        cert = cone_check(tf_real.A, np.eye(3), tf_real.b, tf_real.c, tf_real)
        assert cert.passed
        assert cert.residual_dynamics == 0.0

    def test_pair_block_internals(self):
        blk = pr.complex_pair_block(0.5, np.pi / 2, 0.01, 0.2, 4, 0.5)
        cert = cone_check(*blk.cone_model, blk.realization)
        assert cert.passed
        assert max(cert.residual_dynamics, cert.residual_input, cert.residual_output) < 1e-10

    def test_perturbed_p_fails(self):
        blk = pr.complex_pair_block(0.5, np.pi / 2, 0.01, 0.2, 4, 0.5)
        F, P, g, h = blk.cone_model
        P = P.copy()
        P[0, 0] += 0.1
        cert = cone_check(F, P, g, h, blk.realization)
        assert not cert.passed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cone_check(np.eye(3), np.eye(2), np.ones(3), np.ones(3), (np.eye(2), np.ones(2), np.ones(2)))


def test_cone_pass_implies_markov_pass_for_blocks():
    # joint invariant: a certified cone plus nonnegativity gives a correct block
    rng = np.random.default_rng(31)
    for _ in range(30):
        m = int(rng.integers(3, 7))
        while True:
            rho, th = rng.uniform(0.1, 0.9), rng.uniform(0.1, np.pi - 0.1)
            if pr.in_polygon(rho * np.exp(1j * th), m):
                break
        eta = rng.uniform(1e-3, 0.3)
        vt = rng.uniform(-np.pi, np.pi)
        share = pr.pair_share_floor(eta, m) * rng.uniform(1.0, 1.5)
        blk = pr.complex_pair_block(rho, th, eta, vt, m, share)
        cert = cone_check(*blk.cone_model, blk.realization)
        assert cert.passed
        k = np.arange(25)
        lam = rho * np.exp(1j * th)
        c = eta * np.exp(1j * vt)
        want = share + 2.0 * (c * lam**k).real
        got = blk.realization.markov(25)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-10
