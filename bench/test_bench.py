"""Self-test of the benchmark: generators, oracle, tracer and the bare-checkout exit.

    PYTHONPATH=src python -m pytest -q bench
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import oracle  # noqa: E402
import posreal as pr  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

GENERATORS = {
    "synth_wide": lambda seed: gen.synth_wide(seed, 13),
    "synth_deep": lambda seed: gen.synth_deep(seed, 6),
    "bounds_zeros": lambda seed: gen.bounds_zeros(seed, 26),
}
BUILDERS = {
    "synth_wide": lambda: wl.synth_wide(3, 13),
    "synth_deep": lambda: wl.synth_deep(3, 6),
    "bounds_zeros": lambda: wl.bounds_zeros(3, 26),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_a_function_of_the_seed(name):
    make = GENERATORS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_generated_ground_truth_is_self_consistent():
    for s in gen.synth_wide(5, 13) + gen.synth_deep(5, 6):
        t = s.normalized_response(400)
        if s.expect == "realized":
            assert min(t) >= gen.POSITIVE_MARGIN * 0.99
        else:
            assert t[s.witness - 1] < 0 <= min(t[: s.witness - 1], default=0)
    for f in gen.bounds_zeros(5, 26):
        t = f.system.normalized_response(f.N + 5)
        assert abs(t[f.N - 2]) < 1e-6 * (1 + max(map(abs, t)))
        assert abs(t[f.N - 1]) < 1e-6 * (1 + max(map(abs, t)))
        assert all(v > 0 for k, v in enumerate(t, start=1) if k not in f.zero_indices)


def test_coefficient_form_matches_modal_form():
    s = gen.synth_wide(2, 13)[12]
    ref = oracle.Recurrence(*s.coefficients())
    assert np.allclose(ref.normalized_response(60), s.normalized_response(60), rtol=1e-9, atol=1e-9)
    assert abs(ref.lam0 - s.lam0) < 1e-9 * s.lam0
    assert abs(ref.gamma - s.gamma) < 1e-7 * s.gamma


def _h4(gain: float) -> gen.System:
    return gen.System(gain, 1.0, gen.zero_family(4, gen.HN_P, gen.HN_Q).system.terms, "realized", None)


@pytest.mark.parametrize("gain", [1.0, 1e-8])
def test_oracle_rejects_sabotaged_h4(gain):
    s = _h4(gain)
    out = pr.realize(pr.recombine(wl.partial_fraction(s)))
    r = out.realization
    assert oracle.realization_error(s, r.A, r.b, r.c) is None
    assert oracle.realization_error(s, r.A, np.zeros_like(r.b), r.c) is not None
    assert oracle.realization_error(s, r.A, r.b, 1.5 * r.c) is not None


def test_oracle_rejects_sabotaged_wide_output():
    s = next(s for s in gen.synth_wide(4, 13) if s.expect == "realized")
    out = pr.realize(pr.from_coefficients(*s.coefficients()))
    r = out.realization
    assert oracle.realization_error(s, r.A, r.b, r.c) is None
    assert oracle.realization_error(s, r.A, 0 * r.b, r.c) is not None
    assert oracle.realization_error(s, r.A, r.b, 1.5 * r.c) is not None
    A = r.A.copy()
    A[0, 0] = np.nan
    assert oracle.realization_error(s, A, r.b, r.c) == "non-finite entry"
    c = r.c.copy()
    c[0] = -1e-3
    assert oracle.realization_error(s, r.A, r.b, c) == "negative entry"


def test_oracle_checks_bounds_against_construction():
    f = gen.zero_family(10, gen.HN_P, gen.HN_Q)
    assert (f.k0, f.theo2, f.mn2) == (10, 5, 3)
    assert oracle.bounds_error(f, 10, (9, 10), 5, 3, 20) is None
    assert oracle.bounds_error(f, 10, (9, 10), 4, 3, 20) is not None
    assert oracle.bounds_error(f, 9, (9,), 5, None, 20) is not None


def _traced_pass(requests):
    tr = tracer.Tracer()
    tr.install()
    totals = tracer.LayerTotals()
    outputs, per_request = [], []
    for i, req in enumerate(requests):
        tr.request = i
        tr.enable()
        try:
            out = wl.invoke(req.call)
        finally:
            tr.disable()
        spans = tr.take()
        outputs.append(out)
        per_request.append(spans)
        totals.add_request(spans, sum(e - s for _, s, e, p, *_ in spans if p < 0))
    return outputs, per_request, totals


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_traced_and_untraced_outputs_are_identical(name):
    requests = BUILDERS[name]()
    untraced = [wl.fingerprint(wl.invoke(r.call)) for r in requests]
    outputs, _, _ = _traced_pass(requests)
    assert [wl.fingerprint(o) for o in outputs] == untraced
    # rebinding is undone: the package functions are the originals again
    assert not hasattr(pr.realize, "__wrapped__") and not hasattr(pr.tf.expand, "__wrapped__")


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_self_times_add_up_to_request_time(name):
    requests = BUILDERS[name]()
    traced, untraced = 0.0, 0.0
    tr = tracer.Tracer()
    tr.install()
    totals = tracer.LayerTotals()
    for _ in range(3):
        for i, req in enumerate(requests):
            t0 = time.perf_counter()
            wl.invoke(req.call)
            untraced += time.perf_counter() - t0
            tr.enable()
            t0 = time.perf_counter()
            wl.invoke(req.call)
            dt = time.perf_counter() - t0
            tr.disable()
            traced += dt
            totals.add_request(tr.take(), dt)
    self_sum = sum(totals.self_time.values())
    assert self_sum == pytest.approx(totals.covered, rel=1e-9)
    overhead = traced / untraced - 1.0
    # the benchmark's own glue between the spans stays far below the tracing overhead bound
    gap = 1.0 - self_sum / totals.request_time
    assert 0.0 <= gap <= max(overhead, 0.0) + 0.02
    assert overhead < 0.25


def test_counts_match_the_programs_own_trace():
    requests = BUILDERS["synth_deep"]()
    outputs, per_request, _ = _traced_pass(requests)
    for out, spans in zip(outputs, per_request):
        assert type(out).__name__ == "Realized"
        shifts = sum(1 for s in spans if s[0] == "tf.shift_once")
        assert shifts == out.trace.shifts_performed
        built = sum(
            s[6] for s in spans
            if s[0] in tracer.BLOCK_BUILDERS and (s[3] < 0 or spans[s[3]][0] != "blocks.assemble")
        )
        assert built + shifts <= out.trace.final_dimension <= built + shifts + 1


def test_bounds_requests_expand_twice():
    requests = BUILDERS["bounds_zeros"]()
    outputs, _, totals = _traced_pass(requests[:20])  # N = 4..13: no breakdown
    assert all(type(o).__name__ == "BoundsReport" for o in outputs)
    assert totals.metrics(0.0, 0.0)["tf.expand.calls"] == 2.0


def test_verdicts_are_counted_once_per_request():
    import run

    requests = BUILDERS["bounds_zeros"]()
    outputs = [wl.invoke(r.call) for r in requests]
    tally = run.Tally(requests)
    for _ in range(3):
        for i, out in enumerate(outputs):
            tally.record(i, out)
    assert tally.attempted == len(requests)
    failed = tally.attempted - tally.kinds["ok"]
    assert failed == sum(r.check(o).kind != "ok" for r, o in zip(requests, outputs))
    # a repetition whose output differs makes its request wrong, once
    tally.record(0, wl.Raised(RuntimeError("changed")))
    assert tally.kinds["wrong"] == 1 and tally.attempted == len(requests)


def test_missing_function_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED + (("tf", "no_such_function"),))
    tr = tracer.Tracer()
    tr.install()
    assert tr.missing == ["tf.no_such_function"]


def test_bare_directory_fails_without_a_result():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "synth_wide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
            env={"PATH": "/usr/bin:/bin"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
