#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark: a base commit against the working tree.

    python3 scripts/bench_ab.py --base HEAD --workload bounds_zeros --seed 1 2 7 --pairs 10 --seconds 30

Each pair runs ``bench/run.py --workload W --seed S --seconds T`` once on an
extract of ``git archive <base>`` in a temporary directory and once on the
working tree, alternating which side goes first; pair i uses the i-th seed,
cycling.  It prints, for each end-to-end metric of ``BENCHMARK.json``, the
median and quartiles per side, the relative change of the medians, the
number of pairs the working tree won (ties win for neither side), and
whether that is a gain: at least nine tenths of the pairs won, and medians
further apart than the base's quartiles.  It exits 1 if any run exits
non-zero or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(base: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", base], cwd=ROOT, check=True, stdout=subprocess.PIPE)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced run in ``checkout``, with its ``correct`` flag forced off on a failure."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (both the value itself for a single run)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the commit the working tree is compared with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, nargs="+", default=[1], help="seeds, one per pair, cycling")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        base_root = Path(tmp) / "base"
        extract(args.base, base_root)
        checkouts = {"base": base_root, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed[i % len(args.seed)]
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run(checkouts[side], args.workload, seed, args.seconds)
                sides[side].append(result)
                p50 = result["metrics"].get("latency_ms.p50", {}).get("value", float("nan"))
                print(f"pair {i + 1} seed {seed} {side}: latency_ms.p50 {p50:.6g} correct {result['correct']}")

    ok = all(r["correct"] for rs in sides.values() for r in rs)
    print(f"{args.workload}, {args.pairs} pairs, base {args.base} against the working tree")
    print("metric: base median [q1, q3] | change median [q1, q3] | change of the medians | pairs won | gain")
    for name, direction in better.items():
        base = [r["metrics"].get(name, {}).get("value") for r in sides["base"]]
        change = [r["metrics"].get(name, {}).get("value") for r in sides["change"]]
        if None in base or None in change:
            continue
        won = sum((c < b) if direction == "lower" else (c > b) for b, c in zip(base, change))
        mb, mc = statistics.median(base), statistics.median(change)
        (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
        gain = 10 * won >= 9 * args.pairs and abs(mc - mb) > b3 - b1
        delta = f"{(mc - mb) / mb:+.1%}" if mb else "n/a"
        print(
            f"{name}: {mb:.6g} [{b1:.6g}, {b3:.6g}] | {mc:.6g} [{c1:.6g}, {c3:.6g}] | {delta} | "
            f"{won}/{args.pairs} | {'yes' if gain else 'no'}"
        )
    if not ok:
        print("a run failed or reported incorrect output")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
