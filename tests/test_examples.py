"""The showcase script runs end to end and prints what the paper predicts."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_examples.py"


def test_run_examples_script():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()

    # the degree-3 low-pass filter: its pair fits the unit at once under either rule
    start = lines.index("== degree-3 low-pass filter ==") + 1
    for line, mode in zip(lines[start : start + 2], ("per_pole", "conservative_sum"), strict=True):
        assert re.match(rf"\s*mode={mode}\s+dim=5 shifts=0 ", line), line

    # two-pole family H^N: N + 3 states plain, N with the four-state base
    start = lines.index("== two-pole family ==") + 2
    rows = [line.split() for line in lines[start : start + 9]]
    assert [int(r[0]) for r in rows] == list(range(4, 13))
    for N, plain, base, *_ in (map(int, r) for r in rows):
        assert (plain, base) == (N + 3, N)

    # each rejected input: realize and bounds name the same (index, value)
    rejected = [line for line in lines if " x " in line and ": realize " in line]
    assert len(rejected) == 4
    for line in rejected:
        m = re.search(r"realize NoPositiveRealization (\(.*?\)), bounds negative_impulse (\(.*?\))", line)
        assert m and m.group(1) == m.group(2), line
