"""Machine-speed probe that puts timings taken minutes apart on one scale.

The benchmark runs on shared machines whose speed drifts by tens of percent
within minutes, which would swamp the differences it exists to show.  A
fixed small kernel -- an interpreter loop with 4x4 numpy linear algebra, the
mix warpquot itself runs -- is timed between the invocations of a sweep, and
the sweep's times are scaled by ``PROBE_REF`` over the mean probe time:
results read as seconds at the machine speed at which one probe takes
``PROBE_REF``.  The probe runs no warpquot code, so a change to warpquot does
not move it; the raw times are kept next to the scaled ones in the run's
result file.
"""

from __future__ import annotations

import math
import time

import numpy as np

PROBE_REF = 0.02   # seconds per probe at the reference speed
_PROBE_ITERS = 1500
_A = np.eye(4) + 0.01 * np.arange(16.0).reshape(4, 4)


def probe() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_PROBE_ITERS):
        b = np.linalg.inv(_A + i * 1e-9)
        acc += float(np.einsum("ij,ij->", b, _A)) + math.sin(i)
    return time.perf_counter() - t0


def scaled(seconds: list[float], probes: list[float]) -> list[float]:
    """Intervals measured among ``probes``, at the reference speed."""
    factor = PROBE_REF * len(probes) / sum(probes)
    return [t * factor for t in seconds]
