"""Host-speed gauges: fixed reference work timed beside every request.

The benchmark host shares its cores with other machines, and its speed
changes by up to 2x in stretches of seconds to minutes.  A timing taken alone
mostly measures which stretch it fell into.  So every timed request is paired
with a reference that runs just before it and does not depend on posreal:

- ``spin()``: in-process work of the kind a posreal request does (a Python
  float loop and small ``numpy.roots`` calls), paired with each in-process
  request;
- ``process()``: a fresh ``python -c "import numpy"``, paired with each CLI
  process and each set-up probe, which are start-up bound in the same way.

End-to-end timings are reported at the host speed at which the reference
takes its nominal time: measured time x nominal / reference time.  A change
to posreal moves the measured time and not the reference, so its effect
shows in full; a slow stretch moves both and cancels.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Nominal reference times: the best ``spin()`` and the median ``process()``
# measured in quiet stretches on a 2-vCPU Intel Xeon VM (2.0 GHz, Python 3.11,
# numpy with OpenBLAS).
SPIN_S = 0.35e-3
PROCESS_S = 0.165

_POLY = np.array([1.0, -0.3, 0.21, -0.05, 0.017, -0.004, 0.0009, -0.0001, 2e-5, -3e-6, 4e-7])


def spin() -> float:
    """Run the in-process reference once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1500):
        acc += (k * 0.37) % 1.9
    for _ in range(3):
        np.roots(_POLY)
    return time.perf_counter() - t0


def process(cwd, env) -> float:
    """Start and wait for the reference process; return its wall time in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env, check=True, timeout=120)
    return time.perf_counter() - t0
