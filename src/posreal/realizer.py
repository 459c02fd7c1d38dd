"""The synthesis pipeline: expand, shift, construct, lift, verify.

Each pass checks the current leading impulse value (a negative value rules
out any nonnegative realization), tries to allocate the unit dominant
residue across the classified poles, and otherwise strips one impulse value
and contracts the tail.  On success the assembled blocks are lifted by the
collected prefix, rescaled back to the original gain and pole location, and
verified against the input by an independent Markov comparison.  A supplied
base realization of the shifted tail replaces the shift loop and the blocks;
expansion, lift and verification are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    BudgetPlan,
    Realization,
    assemble,
    budget,
    complex_pair_block,
    per_pole_total,
    positive_pole_block,
    prefix_lift,
    real_pole_block,
    share_floors,
)
from .check import VerificationReport, markov_check
from .errors import (
    BaseMismatch,
    InsufficientBudget,
    InternalCheckError,
    NonpositiveDominantResidue,
    NotPrimitive,
)
from .geometry import classify
from .tf import (
    PartialFraction,
    TransferFunction,
    expand,
    impulse_response,
    iteration_estimate,
    leading_impulse,
    normalize,
    shift_once,
)


@dataclass(frozen=True)
class BlockSummary:
    kind: str
    dim: int
    share: float
    share_floor: float | None = None  # enforced floor: |c| real, 2^{5/2} eta / cos(pi/m) pair


@dataclass(frozen=True)
class AlgorithmTrace:
    mode: str
    shifts_performed: int
    prefix: tuple[float, ...]
    budget: BudgetPlan | None
    budget_totals: tuple[float, ...]
    blocks: tuple[BlockSummary, ...]
    pre_lift_dimension: int
    final_dimension: int
    verification: VerificationReport
    scale_gamma: float
    pole_scale: float


@dataclass(frozen=True)
class Realized:
    realization: Realization
    trace: AlgorithmTrace


@dataclass(frozen=True)
class NoPositiveRealization:
    witness_index: int
    witness_value: float


@dataclass(frozen=True)
class Unsupported:
    reason: str


@dataclass(frozen=True)
class IterationCapExceeded:
    cap: int


Outcome = Realized | NoPositiveRealization | Unsupported | IterationCapExceeded


# Normalized Markov terms of a supplied base compared against the shifted tail.
_BASE_HORIZON = 50
# Longest impulse prefix searched for a negative witness.
_WITNESS_SEARCH_LIMIT = 1 << 20


def _first_negative_impulse(tf: TransferFunction):
    K = 64
    while K <= _WITNESS_SEARCH_LIMIT:
        t = impulse_response(tf, K).values
        tol = 1e-10 * (1.0 + np.maximum.accumulate(np.abs(t)))
        hits = np.nonzero(t < -tol)[0]
        if hits.size:
            return int(hits[0]) + 1, float(t[hits[0]])
        K *= 2
    return None


def _denormalized(real: Realization, gamma: float, lam0: float) -> Realization:
    # c (lam0 A)^(k-1) (gamma b) = gamma lam0^(k-1) t~_k recovers the input scale
    return Realization(real.A * lam0, real.b * gamma, real.c)


def _synthesize(tf: TransferFunction, mode: str, stage, verify_tol, verify_horizon) -> Outcome:
    """Expand and normalize ``tf``, run ``stage``, then lift, rescale and verify.

    ``stage(pf)`` returns an early outcome or ``(core, prefix, budget,
    budget_totals, blocks)``: a realization of the normalized tail, the
    nonnegative normalized prefix shifted off before it, and trace fields.
    """
    try:
        pf = normalize(expand(tf))
    except NotPrimitive as exc:
        return Unsupported(str(exc))
    except NonpositiveDominantResidue:
        hit = _first_negative_impulse(tf)
        if hit is None:
            return Unsupported("dominant residue is not positive")
        return NoPositiveRealization(*hit)
    staged = stage(pf)
    if not isinstance(staged, tuple):
        return staged
    core, prefix, plan, totals, summaries = staged

    final = _denormalized(prefix_lift(core, prefix), pf.scale_gamma, pf.pole_scale)
    report = markov_check(final, tf, verify_horizon, verify_tol)
    if not report.passed:
        raise InternalCheckError(
            f"synthesized realization failed verification (error {report.max_relative_error:.3g})"
        )
    trace = AlgorithmTrace(
        mode=mode,
        shifts_performed=len(prefix),
        prefix=tuple(float(v) for v in prefix),
        budget=plan,
        budget_totals=tuple(totals),
        blocks=tuple(summaries),
        pre_lift_dimension=core.dim,
        final_dimension=final.dim,
        verification=report,
        scale_gamma=pf.scale_gamma,
        pole_scale=pf.pole_scale,
    )
    assert trace.final_dimension == trace.pre_lift_dimension + trace.shifts_performed
    return Realized(final, trace)


def _shift_and_build(pf: PartialFraction, mode: str, cap_override: int | None):
    """``realize``'s stage: shift until the budget fits, then build and assemble the blocks."""
    if any(t.order > 1 for t in pf.terms):
        return Unsupported("multiple non-dominant poles are not constructed here")
    neg_tol = 1e-10 * (1.0 + abs(leading_impulse(pf)))
    cap = cap_override if cap_override is not None else 2 * iteration_estimate(pf)

    prefix: list[float] = []
    totals: list[float] = []
    while True:
        t_m = leading_impulse(pf)
        if t_m < -neg_tol:
            m = len(prefix) + 1
            return NoPositiveRealization(m, pf.scale_gamma * pf.pole_scale ** (m - 1) * t_m)
        cls = classify(pf)
        total = per_pole_total(cls)
        if totals and total > totals[-1] * (1.0 + 1e-12) + 1e-15:
            raise InternalCheckError("per-pole budget total increased along a shift")
        totals.append(total)
        try:
            plan = budget(cls, mode)
        except InsufficientBudget:
            if len(prefix) >= cap:
                return IterationCapExceeded(cap)
            t, pf = shift_once(pf)
            prefix.append(t if t > 0 else 0.0)
            continue
        break

    blocks = []
    summaries = []
    n2_floors, pair_floors = share_floors(cls)
    for lam, c in cls.n1_poles:
        blk = positive_pole_block(lam, c)
        blocks.append(blk)
        summaries.append(BlockSummary(blk.kind, blk.dim, 0.0))
    for (lam, c), share, floor in zip(cls.n2_poles, plan.n2_shares, n2_floors):
        blk = real_pole_block(lam, c, share)
        blocks.append(blk)
        summaries.append(BlockSummary(blk.kind, blk.dim, share, floor))
    for pair, share, floor in zip(cls.pair_assignments, plan.pair_shares, pair_floors):
        blk = complex_pair_block(
            abs(pair.pole),
            math.atan2(pair.pole.imag, pair.pole.real),
            abs(pair.coeff),
            math.atan2(pair.coeff.imag, pair.coeff.real),
            pair.polygon_index,
            share,
        )
        blocks.append(blk)
        summaries.append(BlockSummary(blk.kind, blk.dim, share, floor))
    core = assemble(blocks, plan.leftover)
    if plan.leftover > 0 and not any(blk.dominant_share > 0 for blk in blocks):
        summaries.append(BlockSummary("dominant_remainder", 1, plan.leftover))
    return core, prefix, plan, totals, summaries


def realize(
    tf: TransferFunction,
    mode: str = "per_pole",
    *,
    verify_tol: float = 1e-6,
    verify_horizon: int | None = None,
    cap_override: int | None = None,
) -> Outcome:
    """Synthesize a verified nonnegative realization of ``tf``.

    ``mode`` selects the stopping rule: "per_pole" compares the exact share
    floors against the unit residue (tighter, smaller dimensions), while
    "conservative_sum" stops once the plain coefficient sum drops below
    2^{-5/2}.  The number of shifts is capped at twice the closed-form
    estimate unless ``cap_override`` is given.
    """
    stage = lambda pf: _shift_and_build(pf, mode, cap_override)
    return _synthesize(tf, mode, stage, verify_tol, verify_horizon)


def _base_check(tf: TransferFunction, pf: PartialFraction, base: Realization, m: int):
    """``realize_with_base``'s stage: the prefix t~_1 .. t~_{m-1} and a check of the base."""
    need = m - 1 + _BASE_HORIZON
    t = impulse_response(tf, need).values
    tnorm = t / (pf.scale_gamma * pf.pole_scale ** np.arange(need))
    neg_tol = 1e-10 * (1.0 + abs(tnorm[0]))
    prefix = tnorm[: m - 1].copy()
    bad = np.nonzero(prefix < -neg_tol)[0]
    if bad.size:
        return NoPositiveRealization(int(bad[0]) + 1, float(t[bad[0]]))
    prefix[prefix < 0] = 0.0

    got = base.markov(_BASE_HORIZON)
    want = tnorm[m - 1 :]
    # The recurrence reference carries absolute noise on the order of
    # eps * steps * peak; allow that floor so exact zeros after large
    # intermediate values do not spuriously reject a correct base.
    peak = max(1.0, float(np.max(np.abs(tnorm))))
    floor = 16.0 * np.finfo(float).eps * need * peak
    err = np.max((np.abs(got - want) - floor).clip(min=0.0) / (1.0 + np.abs(want)))
    if err > 1e-8:
        raise BaseMismatch(
            f"base Markov sequence deviates from the shifted tail (error {err:.3g})"
        )
    return base, prefix, None, (), [BlockSummary("base", base.dim, 0.0)]


def realize_with_base(
    tf: TransferFunction,
    base: Realization,
    m: int,
    *,
    verify_tol: float = 1e-6,
    verify_horizon: int | None = None,
) -> Outcome:
    """Lift a supplied nonnegative realization of the m-shifted tail.

    ``base`` takes the place of ``realize``'s shift loop and blocks.  It
    must reproduce the normalized impulse values t_m, t_{m+1}, ... (checked
    over 50 terms at relative 1e-8); the prefix t_1 .. t_{m-1} must be
    nonnegative.
    """
    if m < 1:
        raise ValueError("shift index m must be at least 1")
    stage = lambda pf: _base_check(tf, pf, base, m)
    return _synthesize(tf, "base", stage, verify_tol, verify_horizon)
