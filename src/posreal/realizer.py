"""The synthesis pipeline: expand, shift, construct, lift, verify.

The poles are bucketed once, since no shift changes a bucket: a real pole at
lam > 0 keeps its residue's sign, one at lam < 0 is two-state either way, a
pair keeps its polygon, and a term at lam = 0 drops out.  Each pass reads an
impulse value and the shifted coefficients off ``tf._walk``, which raises at a
negative value (no nonnegative realization exists), then tests the stopping
rule or strips the value.  Each block then gets its share floor of the unit
dominant residue, whichever rule stopped; the leftover joins the carrier's
share, or, if no block carries a share, gets a one-state remainder block.
Each block is built once, as plain arrays, and one ``assemble`` call writes
them behind the prefix's delay chain, rescaled to the input's gain and pole
location: the output is the one triple validated.  One Markov pass of it,
divided back by the gain and the dominant pole, is compared twice: with the
input's own recurrence (the independent verification) and with the prefix
and the blocks' declared terms (the construction check, which names a
failing block).  A supplied base realization of the shifted tail replaces
the loop and blocks as the one part stacked; its own check stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .blocks import (
    BudgetPlan,
    Realization,
    _stop_rule,
    assemble,
    budget,
    check_construction,
    complex_pair_block,
    dominant_remainder_block,
    floor_units,
    positive_pole_block,
    real_pole_block,
    term_floors,
)
from .bounds import _certified_scan
from .check import VerificationReport, markov_check
from .errors import (
    BaseMismatch,
    InternalCheckError,
    NegativeImpulse,
    NonpositiveDominantResidue,
    NotPrimitive,
)
from .geometry import PairBucket, PoleClassification, classify
from .tf import PartialFraction, TransferFunction, _walk, expand, normalize


@dataclass(frozen=True)
class BlockSummary:
    kind: str
    dim: int
    share: float  # as built: the carrier's includes the leftover
    share_floor: float | None = None  # the block's Block.share_floor, the least share its builder accepts


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


def _synthesize(tf: TransferFunction, mode: str, stage, verify_tol, verify_horizon) -> Outcome:
    """Expand and normalize ``tf``, run ``stage``, then lift, rescale and verify.

    ``stage(pf)`` returns an early outcome or ``(parts, prefix, budget,
    budget_totals, summaries, blocks)``: the parts one ``assemble`` call stacks
    into a realization of the normalized tail (the blocks, or a supplied base),
    the nonnegative normalized prefix shifted off before it, trace fields, and
    the blocks the final pass's terms are checked against (none for a base).
    """
    try:
        pf = expand(tf)
        if pf.dominant_residue < 0:
            _certified_scan(pf)  # always raises: NegativeImpulse, or the residue at rounding level
        pf = normalize(pf)
        staged = stage(pf)
    except (NotPrimitive, NonpositiveDominantResidue) as exc:
        return Unsupported(str(exc))
    except NegativeImpulse as exc:
        return NoPositiveRealization(exc.index, exc.value)
    if not isinstance(staged, tuple):
        return staged
    parts, prefix, plan, totals, summaries, blocks = staged

    scale = pf.scale_gamma, pf.pole_scale
    try:
        final = assemble(parts, prefix, *scale)  # stacked, lifted and rescaled in one copy
    except ValueError:  # a non-finite entry or an overflow: name the block, if one is at fault
        check_construction(blocks, prefix, ())
        raise
    report = markov_check(final, tf, verify_horizon, verify_tol, scale=scale)
    if blocks:
        check_construction(blocks, prefix, report.terms)
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
        pre_lift_dimension=sum(part.dim for part in parts),
        final_dimension=final.dim,
        verification=report,
        scale_gamma=pf.scale_gamma,
        pole_scale=pf.pole_scale,
    )
    assert trace.final_dimension == trace.pre_lift_dimension + trace.shifts_performed
    return Realized(final, trace)


def _reread(cls: PoleClassification, poles, coeffs) -> PoleClassification:
    """``cls`` with the shifted order-1 coefficients ``coeffs`` of ``poles``; a zero one drops out, as in ``shift_once``."""
    c = {lam: c for lam, c in zip(poles, coeffs) if c != 0}
    reals = lambda bucket: tuple((lam, c[lam].real) for lam, _ in bucket if lam in c)
    pairs = (PairBucket(p.pole, c[p.pole], p.polygon_index) for p in cls.pair_assignments if p.pole in c)
    return PoleClassification(reals(cls.n1_poles), reals(cls.n2_poles), tuple(pairs))


def _shift_and_build(pf: PartialFraction, mode: str, cap_override: int | None):
    """``realize``'s stage: shift until the budget fits, then build and assemble the blocks."""
    if any(t.order > 1 for t in pf.terms):
        return Unsupported("multiple non-dominant poles are not constructed here")
    poles = [t.pole for t in pf.terms]  # fixed; each shift maps a coefficient c to lam c (_walk)
    cls = classify(pf)
    units = floor_units(cls)  # fixed for the request, as no shift changes a bucket
    prefix: list[float] = []
    totals: list[float] = []
    for t, coeffs, _ in _walk(pf):  # a witness raises NegativeImpulse, and wins over the cap
        n2_sum, eta_sum, pair_sum = term_floors(poles, coeffs, units)
        total = n2_sum + pair_sum
        if totals and total > totals[-1] * (1.0 + 1e-12) + 1e-15:
            raise InternalCheckError("per-pole budget total increased along a shift")
        totals.append(total)
        needed, limit = _stop_rule(mode, n2_sum, eta_sum, pair_sum)
        # The walk's sign check never fires at a stop: the floors |c| and 2 eta / cos(pi/m) >= 2 eta
        # >= |2 Re c| bound each term's part of t~_m, and the sum rule's at most 1/2: t~_m >= 1 - needed.
        if needed <= limit:
            break
        if cap_override is not None and len(prefix) >= cap_override:
            return IterationCapExceeded(cap_override)
        prefix.append(t if t > 0 else 0.0)

    cls = _reread(cls, poles, coeffs)
    plan = budget(cls)
    # the leftover joins the carrier's share (the largest, the first on ties)
    # up front, so each block is built once; with no carrier it gets its own state
    shares = list(plan.n2_shares + plan.pair_shares)
    carrier = max((i for i, s in enumerate(shares) if s > 0), key=shares.__getitem__, default=None)
    if carrier is not None:
        shares[carrier] += plan.leftover
    blocks = [positive_pole_block(lam, c) for lam, c in cls.n1_poles]
    blocks += [real_pole_block(lam, c, share) for (lam, c), share in zip(cls.n2_poles, shares)]
    blocks += [
        complex_pair_block(pair.pole, pair.coeff, pair.polygon_index, share)
        for pair, share in zip(cls.pair_assignments, shares[cls.n2 :])
    ]
    if carrier is None:  # no share was allocated, so the leftover is the whole unit
        blocks.append(dominant_remainder_block(plan.leftover))
    summaries = [BlockSummary(b.kind, b.dim, b.dominant_share, b.share_floor) for b in blocks]
    return blocks, prefix, plan, totals, summaries, blocks


def realize(
    tf: TransferFunction,
    mode: str = "per_pole",
    *,
    verify_tol: float = 1e-6,
    verify_horizon: int | None = None,
    cap_override: int | None = None,
) -> Outcome:
    """Synthesize a verified nonnegative realization of ``tf``.

    ``mode`` decides only when the shift loop stops: "per_pole" once the
    share floors fit in the unit residue (smaller dimensions), and
    "conservative_sum" once the plain coefficient sum is at most 1/2; an
    unknown mode raises ``ValueError``.  There is no default cap: either rule
    stops within ``iteration_estimate + 1`` shifts.  ``cap_override`` caps them.
    """
    _stop_rule(mode, 0.0, 0.0, 0.0)  # raises on an unknown mode
    stage = lambda pf: _shift_and_build(pf, mode, cap_override)
    return _synthesize(tf, mode, stage, verify_tol, verify_horizon)


def _base_check(pf: PartialFraction, base: Realization, m: int):
    """``realize_with_base``'s stage: the prefix t~_1 .. t~_{m-1} and a check of the base, or a witness."""
    need = m - 1 + _BASE_HORIZON
    tnorm = np.array([t for t, _, _ in islice(_walk(pf), need)])
    prefix = tnorm[: m - 1].clip(min=0.0)

    want = tnorm[m - 1 :]
    # The walk's values and the base's Markov terms carry absolute noise
    # growing with eps * steps * peak; allow that floor so exact zeros after
    # large intermediate values do not spuriously reject a correct base.
    peak = max(1.0, float(np.max(np.abs(tnorm))))
    floor = 16.0 * np.finfo(float).eps * need * peak
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite error fails below
        got = base.markov(_BASE_HORIZON)
        err = np.max((np.abs(got - want) - floor).clip(min=0.0) / (1.0 + np.abs(want)))
    if not err <= 1e-8:
        raise BaseMismatch(
            f"base Markov sequence deviates from the shifted tail (error {err:.3g})"
        )
    return [base], prefix, None, (), [BlockSummary("base", base.dim, 0.0)], ()


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
    over 50 terms at relative 1e-8); a negative value among t_1 .. t_{m+49}
    is a witness, as in ``realize``.
    """
    if m < 1:
        raise ValueError("shift index m must be at least 1")
    stage = lambda pf: _base_check(pf, base, m)
    return _synthesize(tf, "base", stage, verify_tol, verify_horizon)
