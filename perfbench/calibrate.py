"""Host-speed calibration for the end-to-end times.

The machine the benchmark was written on is a 2-vCPU virtual machine whose
speed drifts with its neighbours, by up to a factor of two within minutes.
Raw wall times of runs a few minutes apart then differ more than any useful
regression bound.  So a fixed CPU task that does not touch the program (a
pure-Python loop and NumPy transcendentals on a small array, like the
program's mix) is timed after every operation, set-up sample and grid chunk,
and all of a run's times are scaled by ``REFERENCE_S`` over the median of
its calibrations: they are seconds at the reference speed.

The factor is one per run.  A 35 ms calibration next to a 5 s operation says
little about the speed during that operation: scaling each Monte Carlo
operation by the calibrations around it made their variation larger (7 % raw,
9 % scaled).  The run-level median removes the drift between runs: over
eight 30-second grid runs the spread of the run medians was 29 % raw, 10 %
with a factor per 20-point chunk and 6 % with one factor per run."""

from __future__ import annotations

import statistics
import time

import numpy as np

# Duration of one calibration at the reference speed; about its median on the
# machine the bounds were set on.
REFERENCE_S = 0.04

_GRID = np.linspace(0.0, 1.0, 8_192)


def calibrate() -> float:
    """Seconds the fixed calibration task takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(320):
        np.log2(1.0 + np.exp(-_GRID))
    return time.perf_counter() - start


def reference_scale(calibrations: list[float]) -> float:
    """Factor from seconds measured during a run to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(calibrations)
