#!/usr/bin/env python3
"""posreal benchmark: one workload, closed loop, one client, no threads.

    python3 bench/run.py --workload synth_wide --seed 1 --seconds 20 --trace 0

Builds the workload's corpus from the seed, measures set-up in fresh
processes, then sends requests back to back for ``--seconds`` (at least one
full corpus pass), checking every output with the benchmark's own oracle.
``--trace 0`` reports the end-to-end metrics, with every timing scaled to
nominal host speed by a gauge timed beside it (``gauge.py``); ``--trace 1``
alternates each request untraced and traced and reports the per-layer
metrics.  Every metric is printed as "name value unit"; the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "posreal" / "__init__.py").is_file():
    sys.exit(f"no posreal sources under {ROOT / 'src'}: run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gauge  # noqa: E402
import posreal  # noqa: E402,F401
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("synth_wide", "synth_deep", "bounds_zeros", "cli_files")
SETUP_PROBES = 7
STARTUP_PROBES = 3

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# Request stages for the printed share table: inclusive time of the named
# spans (root spans only for the input stage; self time for bounds).
STAGES = {
    "input": ("tf.from_coefficients", "tf.recombine"),
    "expand": ("tf.expand",),
    "shift_loop": ("tf.shift_once", "geometry.classify", "blocks.budget", "blocks.per_pole_total"),
    "blocks": ("blocks.build", "blocks.assemble", "blocks.prefix_lift"),
    "verify": ("check.markov_check",),
    "bounds": ("bounds.bounds_report", "bounds.zero_pattern", "bounds.positivity_horizon",
               "bounds.cone_order_bound", "bounds.quadratic_order_bound"),
}


def build(workload: str, seed: int, workdir: Path):
    if workload == "cli_files":
        return wl.cli_files(seed, workdir)
    return getattr(wl, workload)(seed)


def probe(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), *map(str, args)],
        cwd=ROOT, env=wl.cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return json.loads(proc.stdout)


class Tally:
    """One verdict per request of the corpus: checked on its first run, and
    turned to ``wrong`` if a later run of it gives different output.

    A request is one operation however often the loop repeats it, so
    ``attempted`` and ``failed`` are functions of the seed, not of how many
    passes the host's speed allowed.
    """

    def __init__(self, requests):
        self.requests = requests
        self.first: list = [None] * len(requests)  # (fingerprint, verdict)
        self.verdicts: list = [None] * len(requests)

    def record(self, i: int, out) -> wl.Verdict:
        fp = wl.fingerprint(out)
        if self.first[i] is None:
            self.first[i] = (fp, self.requests[i].check(out))
            self.verdicts[i] = self.first[i][1]
        elif fp != self.first[i][0]:
            self.verdicts[i] = wl.Verdict("wrong", "output differs from an earlier run of the same request")
        return self.verdicts[i]

    @property
    def kinds(self) -> Counter:
        return Counter(v.kind for v in filter(None, self.verdicts))

    @property
    def details(self) -> Counter:
        return Counter(
            (v.kind, req.label, v.detail) for req, v in zip(self.requests, self.verdicts) if v and v.kind != "ok"
        )

    @property
    def attempted(self) -> int:
        return sum(self.kinds.values())

    def states_mean(self) -> float:
        states = [v.states for _, v in filter(None, self.first) if v.kind == "ok" and v.states is not None]
        return statistics.fmean(states) if states else 0.0


def percentile(sorted_values, q: int) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def loop(requests, seconds: float, step) -> None:
    """Call step(i, pass) over the corpus until ``seconds`` pass (at least one full pass)."""
    start = time.perf_counter()
    n = 0
    while True:
        for i in range(len(requests)):
            step(i, n)
            if n and time.perf_counter() - start >= seconds:
                return
        n += 1
        if time.perf_counter() - start >= seconds:
            return


def timed(call):
    t0 = time.perf_counter()
    out = wl.invoke(call)
    return time.perf_counter() - t0, out


def measure_end_to_end(workload, seed, requests, seconds):
    cli = workload == "cli_files"
    if not cli:  # let lazy imports and caches settle
        for req in requests[:3]:
            wl.invoke(req.call)
    tally = Tally(requests)
    lat: list[float] = []  # measured request times
    order: list[int] = []  # which request each time belongs to
    gauges: list[float] = []  # cli: gauge process times, one before each request and one after the last
    best = [float("inf")] * len(requests)
    spin_best = [float("inf")] * len(requests)
    setups: list[tuple[float, float]] = []  # (measured, at nominal speed)
    start = time.perf_counter()

    def gauge_process() -> float:
        return gauge.process(ROOT, wl.cli_env())

    def setup_probe():
        before = gauge_process()
        s = probe("setup", workload, seed)["setup_s"]
        setups.append((s, s * 2 * gauge.PROCESS_S / (before + gauge_process())))

    def step(i, _):
        # set-up probes are spread over the run, between requests, so their
        # median sees the run's mix of fast and slow host phases
        if len(setups) < SETUP_PROBES and time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES:
            setup_probe()
        if cli:
            gauges.append(gauge_process())
        else:
            spin_best[i] = min(spin_best[i], gauge.spin())
        dt, out = timed(requests[i].call)
        lat.append(dt)
        order.append(i)
        best[i] = min(best[i], dt)
        tally.record(i, out)

    loop(requests, seconds, step)
    while len(setups) < SETUP_PROBES:
        setup_probe()
    passes = len(lat) / len(requests)
    # One time per request of the corpus, so that every request weighs the
    # same however many passes the run made.  In process, each request's
    # best time over the passes is its noise floor, scaled by the floor of
    # the spin gauge run beside it.  A CLI process is timed a few times only:
    # each time is scaled by the mean of the gauge processes just before and
    # just after it, and the request's time is the median of those.
    if cli:
        gauges.append(gauge_process())
        factors = [2 * gauge.PROCESS_S / (a + b) for a, b in zip(gauges, gauges[1:])]
        per_request: list[list[float]] = [[] for _ in requests]
        for i, dt, f in zip(order, lat, factors):
            per_request[i].append(dt * f)
        sample = sorted(statistics.median(v) for v in per_request)
        speed = statistics.median(factors)
    else:
        speed = gauge.SPIN_S / statistics.median(spin_best)
        sample = sorted(b * speed for b in best)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    metrics = {
        "latency_ms.p50": 1e3 * statistics.median(sample),
        "latency_ms.p90": 1e3 * percentile(sample, 90),
        "throughput_rps": len(sample) / sum(sample),
        "ok_frac": tally.kinds["ok"] / tally.attempted,
        "states_mean": tally.states_mean(),
        "setup_s": statistics.median(s for _, s in setups),
        "rss_peak_mb": usage.ru_maxrss / 1024.0,
    }
    lat.sort()
    floor = sorted(best)
    info = [
        f"{passes:.1f} passes; latency metrics over "
        f"{'the median' if cli else 'the best'} time of each request, at nominal host speed",
        f"host speed / nominal (median gauge factor): {speed:.4f}",
        f"measured, all {len(lat)} samples: p50 {1e3 * statistics.median(lat):.4f} ms, "
        f"p90 {1e3 * percentile(lat, 90):.4f} ms",
        f"measured, best time of each of {len(floor)} requests: p50 {1e3 * statistics.median(floor):.4f} ms, "
        f"p90 {1e3 * percentile(floor, 90):.4f} ms",
        f"setup_s probes measured {', '.join(f'{m:.4f}' for m, _ in setups)}; "
        f"at nominal speed {', '.join(f'{s:.4f}' for _, s in setups)}",
    ]
    return tally, metrics, END_TO_END, info, True


def measure_layers(workload, requests, seconds, spans_path: Path):
    startups = [probe("startup")["import_s"] for _ in range(STARTUP_PROBES)]
    tr = tracer.Tracer()
    tr.install()
    totals = tracer.LayerTotals()
    tally = Tally(requests)
    ratios: list[float] = []
    kept: list = []
    identical = True
    span_file = spans_path.with_suffix(".tmp")
    cli = workload == "cli_files"

    def traced(i):
        if cli:
            dt, out = timed(lambda: requests[i].traced_call(str(span_file)))
            return dt, out, tracer.load_spans(span_file)
        tr.request = i
        tr.enable()
        try:
            dt, out = timed(requests[i].call)
        finally:
            tr.disable()
        return dt, out, tr.take()

    def step(i, n):
        nonlocal identical
        if (i + n) % 2:
            dt_t, out_t, spans = traced(i)
            dt_u, out_u = timed(requests[i].call)
        else:
            dt_u, out_u = timed(requests[i].call)
            dt_t, out_t, spans = traced(i)
        identical &= wl.fingerprint(out_u) == wl.fingerprint(out_t)
        tally.record(i, out_u)
        if tally.record(i, out_t).kind == "ok":  # layers are reported per answered request
            totals.add_request(spans, dt_t)
        ratios.append(dt_t / dt_u)
        if n == 0:
            base = len(kept)
            kept.extend((nm, s, e, p + base if p >= 0 else -1, i, ok, c) for nm, s, e, p, _, ok, c in spans)

    if not cli:
        for req in requests[:3]:
            wl.invoke(req.call)
    loop(requests, seconds, step)
    span_file.unlink(missing_ok=True)
    tracer.dump_spans(kept, spans_path)
    overhead = statistics.median(ratios) - 1.0
    metrics = totals.metrics(1e3 * statistics.median(startups), overhead)
    info = [f"traced requests {totals.requests}; spans of the first pass in {spans_path}"]
    if tr.missing:
        info.append(f"missing (reported as 0): {', '.join(tr.missing)}")
    if not identical:
        info.append("traced and untraced outputs differ")
    cover = totals.covered / totals.request_time if totals.request_time else 0.0
    info.append(f"spans cover {cover:.3f} of traced request time")
    stage = stage_shares(totals)
    info.append("stage shares of traced request time: " + ", ".join(f"{k} {v:.3f}" for k, v in stage.items()))
    top = list(totals.shares().items())[:8]
    info.append("largest self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in top))
    return tally, metrics, PER_LAYER, info, identical


def stage_shares(totals) -> dict[str, float]:
    if totals.request_time <= 0:
        return {}
    out = {}
    for stage, names in STAGES.items():
        t = 0.0
        for name in names:
            if name == "blocks.build":
                t += totals.build_total
            elif stage == "input":
                t += totals.root_total[name]
            elif stage == "bounds":
                t += totals.self_time[name]
            else:
                t += totals.total[name]
        out[stage] = t / totals.request_time
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = BENCH / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        requests = build(args.workload, args.seed, workdir)
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            tally, metrics, names, info, consistent = measure_layers(args.workload, requests, args.seconds, spans_path)
        else:
            tally, metrics, names, info, consistent = measure_end_to_end(args.workload, args.seed, requests, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(requests)} requests per pass")
    for line in info:
        print(line)
    print(f"verdicts {dict(tally.kinds)}")
    for (kind, label, detail), n in sorted(tally.details.items()):
        print(f"  {kind:8s} x{n:<4d} {label}: {detail}")
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json")
    for name in names:
        print(f"{name} {metrics[name]:.6g} {UNITS[name]}")
    result = {
        "correct": tally.kinds["wrong"] == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.attempted - tally.kinds["ok"],
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
