import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import posreal as pr
from posreal.bounds import positivity_horizon

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


# Printed filter coefficients of the degree-3 low-pass fixture; the full
# problem is 1/(z - 1) plus this strictly proper part.
LOWPASS3_NUM = (0.1253986950, 0.1984152016, 0.3331328522)
LOWPASS3_DEN = (-0.38920832, 0.80189061, -0.69055619, 1.0)


def _polymul(a, b):
    return np.polynomial.polynomial.polymul(np.asarray(a, float), np.asarray(b, float))


def _polyadd(a, b):
    return np.polynomial.polynomial.polyadd(np.asarray(a, float), np.asarray(b, float))


@pytest.fixture(scope="session")
def example1_tf() -> pr.TransferFunction:
    num = _polyadd(LOWPASS3_DEN, _polymul([-1.0, 1.0], LOWPASS3_NUM))
    den = _polymul([-1.0, 1.0], LOWPASS3_DEN)
    return pr.from_coefficients(num, den)


def hn_pf(N: int) -> pr.PartialFraction:
    """Two-real-pole family with impulse zeros at N-1 and N."""
    return pr.PartialFraction(
        1.0,
        1.0,
        (
            pr.PoleTerm(0.4 + 0j, (complex(-4.0 * 2.5 ** (N - 2)),)),
            pr.PoleTerm(0.2 + 0j, (complex(3.0 * 5.0 ** (N - 2)),)),
        ),
    )


def hn_tf(N: int) -> pr.TransferFunction:
    return pr.recombine(hn_pf(N))


def hn_impulse(N: int, K: int) -> np.ndarray:
    k = np.arange(1, K + 1)
    return 1.0 - 4.0 * 2.5 ** (N - 2) * 0.4 ** (k - 1) + 3.0 * 5.0 ** (N - 2) * 0.2 ** (k - 1)


@pytest.fixture(scope="session")
def h4_tf() -> pr.TransferFunction:
    return hn_tf(4)


@pytest.fixture(scope="session")
def base_4dim() -> pr.Realization:
    s = math.sqrt(26.0)
    A = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [1.0, (63.0 + 4.0 * s) / 85.0, 0.0, 0.0],
            [0.0, (22.0 - 4.0 * s) / 85.0, (63.0 - 4.0 * s) / 85.0, 0.0],
            [0.0, 0.0, (22.0 + 4.0 * s) / 85.0, 0.0],
        ]
    )
    return pr.Realization(A, np.array([0.0, 0.0, 0.0, 1.0]), np.array([6.0, 0.0, 0.0, 51.0]))


def cone_model(blk: pr.Block) -> tuple:
    """The cone model (F, P, g, h) a block comes from, rebuilt from its pole terms and share.

    P's columns are the cone's generators, one per state; F acts on the cone as
    A acts on the states, g is the model input and h the model output, so
    h^T (zI - F)^(-1) g is the block's target R/(z - 1) + its pole terms.
    """
    R = blk.dominant_share
    if blk.kind == "dominant_remainder":
        return np.eye(1), np.eye(1), np.array([R]), np.ones(1)
    lam, c = blk.pole_terms[0]
    if blk.kind == "positive_pole":
        return np.array([[lam.real]]), np.eye(1), np.array([c.real]), np.ones(1)
    if blk.kind == "real_pole":
        P = np.array([[0.5, 0.5], [0.5, -0.5]])
        return np.diag([1.0, lam.real]), P, np.array([R, c.real]), np.ones(2)
    assert blk.kind == "complex_pair"
    phis = 2.0 * np.pi * np.arange(blk.dim) / blk.dim
    alpha = pr.blocks.PAIR_ALPHA
    F = np.array([[lam.real, -lam.imag, 0.0], [lam.imag, lam.real, 0.0], [0.0, 0.0, 1.0]])
    P = np.vstack([alpha * np.cos(phis), alpha * np.sin(phis), np.ones(blk.dim)])
    g = np.array([c.real - c.imag, c.real + c.imag, R])
    return F, P, g, np.ones(3)


def cone_residual(F, P, g, h, realization) -> float:
    """Largest residual of F P = P A, P b = g and c = P^T h.

    Together they give c A^k b = h^T F^k g for every k, so a residual at
    rounding level certifies the whole Markov sequence.
    """
    A, b, c = realization.A, realization.b, realization.c
    return max(
        float(np.max(np.abs(F @ P - P @ A))),
        float(np.max(np.abs(P @ b - g))),
        float(np.max(np.abs(c - P.T @ h))),
    )


@pytest.fixture(scope="session")
def problems_dir() -> Path:
    return Path(__file__).resolve().parents[1] / "problems"


def scaled_pf(pf: pr.PartialFraction, gamma: float, lam0: float) -> pr.PartialFraction:
    """``pf`` with gain times ``gamma`` and poles times ``lam0``; ``normalize`` undoes it.

    An order-i coefficient c becomes c * gamma * lam0**(i-1), so the impulse
    values become t_k = gamma * lam0**(k-1) * t~_k.
    """
    terms = tuple(
        pr.PoleTerm(
            t.pole * lam0,
            tuple(c * gamma * lam0 ** (i - 1) for i, c in enumerate(t.coeffs, start=1)),
        )
        for t in pf.terms
    )
    return pr.PartialFraction(pf.dominant_pole * lam0, pf.dominant_residue * gamma, terms)


def random_stable_pf(rng: np.random.Generator, *, ensure_positive_impulse: bool = False):
    """Normalized partial fraction with simple, well-separated stable poles."""
    while True:
        n_pos = int(rng.integers(0, 3))
        n_neg = int(rng.integers(0, 3))
        n_pair = int(rng.integers(0, 3))
        if n_pos + n_neg + n_pair > 0:
            break
    poles: list[complex] = []

    def separated(z: complex) -> bool:
        return all(abs(z - p) > 0.04 and abs(z - p.conjugate()) > 0.04 for p in poles)

    terms = []
    for _ in range(n_pos):
        while True:
            lam = complex(rng.uniform(0.05, 0.9), 0.0)
            if separated(lam):
                break
        poles.append(lam)
        terms.append(pr.PoleTerm(lam, (complex(rng.uniform(0.05, 1.0)),)))
    for _ in range(n_neg):
        while True:
            lam = complex(rng.uniform(-0.9, -0.05), 0.0)
            if separated(lam):
                break
        poles.append(lam)
        c = rng.uniform(0.05, 1.0) * rng.choice([-1.0, 1.0])
        terms.append(pr.PoleTerm(lam, (complex(c),)))
    for _ in range(n_pair):
        while True:
            rho = rng.uniform(0.1, 0.92)
            th = rng.uniform(0.15, math.pi - 0.15)
            lam = rho * complex(math.cos(th), math.sin(th))
            if separated(lam):
                break
        poles.append(lam)
        mag = rng.uniform(0.02, 0.8)
        ph = rng.uniform(-math.pi, math.pi)
        c = mag * complex(math.cos(ph), math.sin(ph))
        terms.append(pr.PoleTerm(lam, (c,)))
        terms.append(pr.PoleTerm(lam.conjugate(), (c.conjugate(),)))

    pf = pr.PartialFraction(1.0, 1.0, tuple(terms))
    if ensure_positive_impulse:
        horizon = positivity_horizon(pf)
        k = np.arange(horizon)
        tail = np.zeros(horizon)
        for t in pf.terms:
            tail = tail + (t.coeffs[0] * t.pole**k).real
        floor = float(np.min(tail))
        if 1.0 + floor < 0.05:
            scale = 0.95 / abs(floor)
            pf = pr.PartialFraction(
                1.0,
                1.0,
                tuple(pr.PoleTerm(t.pole, (t.coeffs[0] * scale,)) for t in pf.terms),
            )
    return pf
