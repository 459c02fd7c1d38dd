"""Batch front end: realize / bounds / verify / impulse over JSON problem files."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .blocks import Realization
from .bounds import bounds_report
from .check import markov_check
from .errors import (
    BaseMismatch,
    InternalCheckError,
    NegativeImpulse,
    NonpositiveDominantResidue,
    NotPrimitive,
    PosrealError,
)
from .realizer import (
    IterationCapExceeded,
    NoPositiveRealization,
    Realized,
    realize,
    realize_with_base,
)
from .tf import (
    PoleTerm, TransferFunction, build_partial_fraction, from_coefficients, impulse_response, recombine,
)

EXIT_OK = 0
EXIT_NO_REALIZATION = 1
EXIT_UNSUPPORTED = 2
EXIT_INPUT = 3
EXIT_VERIFY = 4


class SchemaError(PosrealError):
    """Problem or realization document does not match the expected schema."""


def _reject_constant(token):
    raise SchemaError(f"non-finite number {token!r} in input")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _finite(v, what: str) -> float:
    """A JSON number as a float; one past the float range (json reads 1e400 as inf) is refused."""
    if not abs(v) <= sys.float_info.max:
        raise SchemaError(f"non-finite number in {what}")
    return float(v)


def _as_real_list(obj, what: str) -> list[float]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{what} must be a nonempty list of numbers")
    out = []
    for v in obj:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{what} must contain numbers only")
        out.append(_finite(v, what))
    return out


def _as_complex(obj, what: str) -> complex:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(_finite(obj, what), 0.0)
    if isinstance(obj, dict):
        extra = set(obj) - {"re", "im"}
        if extra:
            raise SchemaError(f"{what}: unexpected keys {sorted(extra)}")
        re = obj.get("re", 0.0)
        im = obj.get("im", 0.0)
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (re, im)):
            raise SchemaError(f"{what}: re/im must be numbers")
        return complex(_finite(re, what), _finite(im, what))
    raise SchemaError(f"{what} must be a number or an object with re/im")


_INT = (int, "an integer")
_OPTION_TYPES = {"mode": (str, "a string"), "tol": ((int, float), "a number"), "max_shifts": _INT,
                 "horizon": _INT, "base": ((str, dict), "a file name or an object"), "base_shift": _INT}
# every command takes these from low to the largest float (nan and a bigger integer fail)
_OPTION_LOW = {"tol": 0, "horizon": 1, "max_shifts": 0, "base_shift": 1}


def load_problem(path: str) -> tuple[TransferFunction, dict]:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("problem document must be a JSON object")
    forms = [k for k in ("transfer", "partial_fractions") if k in doc]
    if len(forms) != 1:
        raise SchemaError("exactly one of 'transfer' or 'partial_fractions' is required")
    extra = set(doc) - {"transfer", "partial_fractions", "options"}
    if extra:
        raise SchemaError(f"unexpected top-level keys {sorted(extra)}")

    if forms[0] == "transfer":
        block = doc["transfer"]
        if not isinstance(block, dict) or set(block) - {"num", "den"}:
            raise SchemaError("'transfer' must hold exactly 'num' and 'den'")
        tf = from_coefficients(
            _as_real_list(block.get("num"), "transfer.num"),
            _as_real_list(block.get("den"), "transfer.den"),
        )
    else:
        block = doc["partial_fractions"]
        if not isinstance(block, dict) or set(block) - {"dominant", "terms"}:
            raise SchemaError("'partial_fractions' must hold 'dominant' and 'terms'")
        dom = block.get("dominant")
        if not isinstance(dom, dict) or set(dom) - {"pole", "residue"}:
            raise SchemaError("'dominant' must hold 'pole' and 'residue'")
        raw_terms = block.get("terms", [])
        if not isinstance(raw_terms, list):
            raise SchemaError("'terms' must be a list")
        terms = []
        for i, item in enumerate(raw_terms):
            if not isinstance(item, dict) or set(item) - {"pole", "order", "coeffs"}:
                raise SchemaError(f"terms[{i}] must hold 'pole', 'order', 'coeffs'")
            pole = _as_complex(item.get("pole"), f"terms[{i}].pole")
            coeffs = item.get("coeffs")
            if not isinstance(coeffs, list) or not coeffs:
                raise SchemaError(f"terms[{i}].coeffs must be a nonempty list")
            cs = tuple(_as_complex(c, f"terms[{i}].coeffs") for c in coeffs)
            order = item.get("order", len(cs))
            if isinstance(order, bool) or not isinstance(order, int):  # as _as_real_list
                raise SchemaError(f"terms[{i}].order must be an integer")
            if order != len(cs):
                raise SchemaError(f"terms[{i}]: order must equal the coefficient count")
            terms.append(PoleTerm(pole, cs))
        dom_pole = _as_complex(dom.get("pole"), "dominant.pole")
        dom_res = _as_complex(dom.get("residue"), "dominant.residue")
        if dom_pole.imag != 0 or dom_res.imag != 0:
            raise SchemaError("dominant pole and residue must be real")
        pf = build_partial_fraction(dom_pole.real, dom_res.real, terms)
        tf = recombine(pf)

    options = doc.get("options", {})
    if not isinstance(options, dict) or set(options) - _OPTION_TYPES.keys():
        raise SchemaError(f"options keys must be within {sorted(_OPTION_TYPES)}")
    return tf, options


def load_realization(obj, base_dir: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(obj, str):
        obj = _load_json(str((base_dir / obj) if not os.path.isabs(obj) else obj))
    if not isinstance(obj, dict):
        raise SchemaError("realization document must be a JSON object")
    for key in ("A", "b", "c"):
        if key not in obj:
            raise SchemaError(f"realization document is missing '{key}'")
    A = obj["A"]
    if not isinstance(A, list) or not all(isinstance(r, list) for r in A):
        raise SchemaError("'A' must be a list of rows")
    rows = [_as_real_list(r, "A row") for r in A]
    b = _as_real_list(obj["b"], "b")
    c = _as_real_list(obj["c"], "c")
    dim = obj.get("dimension", len(rows))
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise SchemaError("'dimension' must be an integer")
    if dim != len(rows) or any(len(r) != dim for r in rows) or len(b) != dim or len(c) != dim:
        raise SchemaError("realization dimensions are inconsistent")
    return np.array(rows), np.array(b), np.array(c)


def _realization_doc(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> dict:
    return {"dimension": len(A), "A": A.tolist(), "b": b.tolist(), "c": c.tolist()}


def _verification_doc(report) -> dict:
    err = report.max_relative_error  # infinite when a sequence overflowed
    return {
        "horizon": int(report.horizon),
        "max_relative_error": float(err) if np.isfinite(err) else None,  # JSON has no inf
        "worst_index": int(report.worst_index),
        "nonnegative": bool(report.nonnegative),
        "passed": bool(report.passed),
    }


def _trace_doc(trace) -> dict:
    doc = {
        "mode": trace.mode,
        "shifts_performed": trace.shifts_performed,
        "prefix": [float(v) for v in trace.prefix],
        "pre_lift_dimension": trace.pre_lift_dimension,
        "final_dimension": trace.final_dimension,
        "budget_totals": [float(v) for v in trace.budget_totals],
        "blocks": [
            {
                "kind": s.kind,
                "dim": s.dim,
                "share": float(s.share),
                "share_floor": None if s.share_floor is None else float(s.share_floor),
            }
            for s in trace.blocks
        ],
        "scale_gamma": float(trace.scale_gamma),
        "pole_scale": float(trace.pole_scale),
    }
    if trace.budget is not None:
        doc["budget"] = {
            "mode": trace.mode,
            "total": float(trace.budget.total),
            "leftover": float(trace.budget.leftover),
            "allocations": [
                {"pole": {"re": p.real, "im": p.imag}, "share": float(s)}
                for p, s in trace.budget.allocations()
            ],
        }
    return doc


def _render_csv(doc: dict) -> str:
    lines: list[str] = []

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(prefix)
            for row in value:
                lines.append(",".join(repr(float(v)) for v in row))
        elif isinstance(value, list):
            lines.append(prefix)
            lines.append(",".join(_scalar(v) for v in value))
        else:
            lines.append(f"{prefix},{_scalar(value)}")

    def _scalar(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        if v is None:
            return ""
        return str(v)

    emit("", {k: v for k, v in doc.items() if k != "trace"})
    return "\n".join(lines) + "\n"


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    target = Path(output)
    umask = os.umask(0)  # read and restored: mkstemp's file is 0600, not what open(target, "w") leaves
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=target.name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, target.stat().st_mode & 0o7777 if target.exists() else 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(doc: dict, args) -> None:
    if args.format == "csv":
        text = _render_csv(doc)
    else:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    _write_output(text, args.output)


def _resolve(flag, options: dict, key: str, default):
    """The flag if given, else the problem file's option (null counts as absent), else the default."""
    value = options.get(key) if flag is None else flag
    types, what = _OPTION_TYPES[key]
    if value is not None and (isinstance(value, bool) or not isinstance(value, types)):  # as _as_real_list
        raise SchemaError(f"option {key} must be {what}")
    if key in _OPTION_LOW and value is not None and not _OPTION_LOW[key] <= value <= sys.float_info.max:
        raise SchemaError(f"option {key} must be finite and >= {_OPTION_LOW[key]}")
    return default if value is None else value


_MODES = {"per-pole": "per_pole", "per_pole": "per_pole", "sum": "conservative_sum",
          "conservative_sum": "conservative_sum"}


def _cmd_realize(args) -> int:
    tf, opts = load_problem(args.problem)
    mode = _MODES.get(_resolve(args.mode, opts, "mode", "per-pole"))
    if mode is None:
        raise SchemaError("mode must be 'per-pole' or 'sum'")
    tol = _resolve(args.tol, opts, "tol", 1e-6)
    cap = _resolve(args.max_shifts, opts, "max_shifts", None)
    horizon = _resolve(args.horizon, opts, "horizon", None)
    base_ref = _resolve(args.base, opts, "base", None)
    base_shift = _resolve(args.base_shift, opts, "base_shift", None)
    if tol == 0:  # verify reports against tol 0 (nothing passes); realize would always fail
        raise SchemaError("option tol must be > 0 to realize")

    if base_ref is None and base_shift is not None:
        raise SchemaError("option base_shift (--base-shift) needs a base realization (--base)")
    if base_ref is not None:
        if base_shift is None:
            raise SchemaError("a base realization needs its shift index (--base-shift)")
        A, b, c = load_realization(base_ref, Path(args.problem).parent)
        base = Realization(A, b, c)
        outcome = realize_with_base(tf, base, base_shift, verify_tol=tol, verify_horizon=horizon)
    else:
        outcome = realize(tf, mode, verify_tol=tol, verify_horizon=horizon, cap_override=cap)

    if isinstance(outcome, Realized):
        doc = {"status": "realized"}
        doc.update(_realization_doc(outcome.realization.A, outcome.realization.b, outcome.realization.c))
        doc["verification"] = _verification_doc(outcome.trace.verification)
        doc["trace"] = _trace_doc(outcome.trace)
        _emit(doc, args)
        return EXIT_OK
    if isinstance(outcome, NoPositiveRealization):
        _emit(
            {
                "status": "no_positive_realization",
                "witness_index": outcome.witness_index,
                "witness_value": float(outcome.witness_value),
            },
            args,
        )
        return EXIT_NO_REALIZATION
    if isinstance(outcome, IterationCapExceeded):
        _emit({"status": "iteration_cap_exceeded", "cap": outcome.cap}, args)
        return EXIT_UNSUPPORTED
    _emit({"status": "unsupported", "reason": outcome.reason}, args)
    return EXIT_UNSUPPORTED


def _cmd_bounds(args) -> int:
    tf, _ = load_problem(args.problem)
    try:
        report = bounds_report(tf)
    except NegativeImpulse as exc:  # its value as `impulse` prints it, from the recurrence
        value = impulse_response(tf, exc.index)[-1]
        _emit({"status": "negative_impulse", "index": exc.index, "value": float(value)}, args)
        return EXIT_NO_REALIZATION
    except (NotPrimitive, NonpositiveDominantResidue) as exc:
        _emit({"status": "unsupported", "reason": str(exc)}, args)
        return EXIT_UNSUPPORTED
    _emit(
        {
            "k0": report.k0,
            "theo2": report.theo2,
            "mn2": report.mn2,
            "horizon": report.horizon_used,
            "zero_indices": list(report.zero_indices),
        },
        args,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    tf, opts = load_problem(args.problem)
    A, b, c = load_realization(args.realization, Path(args.problem).parent)
    tol = _resolve(args.tol, opts, "tol", 1e-6)
    K = _resolve(args.horizon, opts, "horizon", None)
    try:
        report = markov_check((A, b, c), tf, K, tol)
    except (NotPrimitive, NonpositiveDominantResidue) as exc:  # no frame to normalize in
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    _emit(_verification_doc(report), args)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_impulse(args) -> int:
    tf, opts = load_problem(args.problem)
    K = _resolve(args.horizon, opts, "horizon", 20)
    _emit({"count": K, "values": impulse_response(tf, K).tolist()}, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posreal",
        description="Nonnegative state-space realizations of rational transfer functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=False, horizon=None):
        """The problem and output flags, plus --tol and --horizon (help text) where read."""
        p.add_argument("problem", help="problem file (JSON)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None, help="write the result here (atomic)")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="verification tolerance")
        if horizon:
            p.add_argument("--horizon", type=int, default=None, help=horizon)

    p = sub.add_parser("realize", help="synthesize and verify a realization")
    common(p, tol=True, horizon="verification horizon")
    p.add_argument("--mode", choices=["per-pole", "sum"], default=None, help="stopping rule, default per-pole")
    p.add_argument("--max-shifts", type=int, default=None, dest="max_shifts", help="cap on the number of shifts, none by default")
    p.add_argument("--base", default=None, help="realization file for the shifted tail")
    p.add_argument("--base-shift", type=int, default=None, dest="base_shift", help="shift index m of the base, at least 1")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("bounds", help="impulse zero pattern and order lower bounds")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="check a supplied realization against the problem")
    common(p, tol=True, horizon="verification horizon")
    p.add_argument("--realization", required=True, help="realization file (JSON)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("impulse", help="print leading impulse-response values")
    common(p, horizon="number of values")
    p.set_defaults(func=_cmd_impulse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, BaseMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (PosrealError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
