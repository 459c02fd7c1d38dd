"""Spans around calls into posreal's public functions, recorded from outside.

``Tracer.install`` wraps each listed function and rebinds the wrapper under
every name that refers to the original in every loaded ``posreal.*``
namespace (``from .tf import expand`` in another module included), so calls
between modules and calls within a module are both caught.  ``enable`` and
``disable`` swap the bindings, so one process can alternate traced and
untraced requests.  A listed name that no longer exists is reported in
``missing``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function): the layer boundaries the benchmark times.
WRAPPED = (
    ("tf", "from_coefficients"),
    ("tf", "recombine"),
    ("tf", "expand"),
    ("tf", "companion_roots"),
    ("tf", "normalize"),
    ("tf", "leading_impulse"),
    ("tf", "shift_once"),
    ("tf", "iteration_estimate"),
    ("tf", "impulse_response"),
    ("geometry", "classify"),
    ("blocks", "per_pole_total"),
    ("blocks", "budget"),
    ("blocks", "positive_pole_block"),
    ("blocks", "real_pole_block"),
    ("blocks", "complex_pair_block"),
    ("blocks", "dominant_remainder_block"),
    ("blocks", "assemble"),
    ("blocks", "prefix_lift"),
    ("check", "markov_check"),
    ("realizer", "realize"),
    ("realizer", "realize_with_base"),
    ("bounds", "bounds_report"),
    ("bounds", "zero_pattern"),
    ("bounds", "positivity_horizon"),
    ("bounds", "cone_order_bound"),
    ("bounds", "quadratic_order_bound"),
    ("cli", "load_problem"),
    ("cli", "load_realization"),
    ("cli", "main"),
)

BLOCK_BUILDERS = frozenset(
    f"blocks.{n}"
    for n in ("positive_pole_block", "real_pole_block", "complex_pair_block", "dominant_remainder_block")
)


def _count(name: str, result):
    """The exact count a span carries: steps, values, states or horizon."""
    if name == "check.markov_check":
        return result.horizon
    if name == "tf.impulse_response":
        return len(result)
    if name == "bounds.positivity_horizon":
        return result
    if name in BLOCK_BUILDERS:
        return result.dim
    return 1


class Tracer:
    """Span recorder.  A span is (name, start, end, parent index, request id, ok, count)."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._bindings: list = []  # (namespace, attribute, original, wrapper)

    def install(self) -> None:
        loaded = {}
        for mod_name in dict.fromkeys(m for m, _ in WRAPPED):
            try:
                loaded[mod_name] = importlib.import_module(f"posreal.{mod_name}")
            except ModuleNotFoundError:
                pass
        modules = [m for n, m in sys.modules.items() if n == "posreal" or n.startswith("posreal.")]
        for mod_name, fn_name in WRAPPED:
            orig = getattr(loaded.get(mod_name), fn_name, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._bindings.append((m, attr, orig, wrapper))

    def enable(self) -> None:
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def disable(self) -> None:
        for m, attr, orig, _ in self._bindings:
            setattr(m, attr, orig)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                count = _count(name, result) if ok else 1
                spans[idx] = (name, start, end, parent, self.request, ok, count)

        return wrapper

    def take(self) -> list:
        """Remove and return the finished spans."""
        out = list(self.spans)
        self.spans.clear()
        return out


def dump_spans(spans, path) -> None:
    """Write spans as JSON lines, times in seconds relative to the first span."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, req, ok, count) in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": i, "name": name, "start": start - t0, "end": end - t0,
                     "parent": parent, "request": req, "ok": ok, "count": count}
                )
                + "\n"
            )


def load_spans(path) -> list:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            out.append((d["name"], d["start"], d["end"], d["parent"], d["request"], d["ok"], d["count"]))
    return out


class LayerTotals:
    """Per-layer sums over traced requests: inclusive and self time, calls, counts."""

    def __init__(self):
        self.total = defaultdict(float)  # inclusive seconds by span name
        self.root_total = defaultdict(float)  # the same, root spans only
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.ok_calls = defaultdict(int)
        self.build_total = 0.0  # block constructors called outside assemble
        self.build_states = 0
        self.requests = 0
        self.covered = 0.0  # summed root-span durations
        self.request_time = 0.0  # summed traced request wall time

    def add_request(self, spans, wall: float) -> None:
        """Fold in the spans of one request (indices local to ``spans``)."""
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _, ok, count) in enumerate(spans):
            dur = end - start
            self.total[name] += dur
            self.self_time[name] += dur - child[i]
            self.calls[name] += 1
            self.count[name] += count
            self.ok_calls[name] += ok
            if parent < 0:
                self.covered += dur
                self.root_total[name] += dur
            if name in BLOCK_BUILDERS and (parent < 0 or spans[parent][0] != "blocks.assemble"):
                self.build_total += dur
                self.build_states += count
        self.requests += 1
        self.request_time += wall

    def metrics(self, startup_ms: float, overhead_frac: float) -> dict[str, float]:
        n = max(self.requests, 1)

        def ms(d, name):
            return 1e3 * d[name] / n

        def per(d, name):
            return d[name] / n

        attempts = self.calls["blocks.budget"]
        return {
            "tf.expand.ms": ms(self.total, "tf.expand"),
            "tf.expand.calls": per(self.calls, "tf.expand"),
            "tf.companion_roots.ms": ms(self.total, "tf.companion_roots"),
            "tf.from_coefficients.ms": ms(self.total, "tf.from_coefficients"),
            "tf.recombine.ms": ms(self.total, "tf.recombine"),
            "tf.shift_once.ms": ms(self.total, "tf.shift_once"),
            "tf.shift_once.calls": per(self.calls, "tf.shift_once"),
            "geometry.classify.ms": ms(self.total, "geometry.classify"),
            "geometry.classify.calls": per(self.calls, "geometry.classify"),
            "blocks.budget.ms": ms(self.total, "blocks.budget"),
            "blocks.budget.attempts": per(self.calls, "blocks.budget"),
            "blocks.budget.accept_ratio": self.ok_calls["blocks.budget"] / attempts if attempts else 0.0,
            "check.markov_check.self_ms": ms(self.self_time, "check.markov_check"),
            "check.markov_check.steps": per(self.count, "check.markov_check"),
            "tf.impulse_response.ms": ms(self.total, "tf.impulse_response"),
            "tf.impulse_response.values": per(self.count, "tf.impulse_response"),
            "blocks.build.ms": 1e3 * self.build_total / n,
            "blocks.build.states": self.build_states / n,
            "blocks.assemble.ms": ms(self.total, "blocks.assemble"),
            "blocks.prefix_lift.ms": ms(self.total, "blocks.prefix_lift"),
            "realizer.realize.self_ms": ms(self.self_time, "realizer.realize"),
            "realizer.realize_with_base.ms": ms(self.total, "realizer.realize_with_base"),
            "bounds.bounds_report.self_ms": ms(self.self_time, "bounds.bounds_report"),
            "bounds.zero_pattern.self_ms": ms(self.self_time, "bounds.zero_pattern"),
            "bounds.positivity_horizon.ms": ms(self.total, "bounds.positivity_horizon"),
            "bounds.horizon": per(self.count, "bounds.positivity_horizon"),
            "cli.startup_ms": startup_ms,
            "cli.load_problem.ms": ms(self.total, "cli.load_problem"),
            "cli.main.self_ms": ms(self.self_time, "cli.main"),
            "trace.overhead_frac": overhead_frac,
        }

    def shares(self) -> dict[str, float]:
        """Self-time share of the traced request time, by layer name."""
        if self.request_time <= 0:
            return {}
        return {k: v / self.request_time for k, v in sorted(self.self_time.items(), key=lambda kv: -kv[1])}
