"""Time the numeric kernels at fixed shapes, one BLAS thread.

    PYTHONPATH=src python3 tools/kernel_timing.py

Prints one JSON object: for each kernel and shape the best, over REPEATS
repeats, of the mean milliseconds per call over CALLS calls. The inputs are
seeded and the same on every run, so two source trees can be compared on one
machine. The kernels are those under the norms and the Bloch-Landau search:
the sphere-maximum search at 1, 15 (one root batch), 33 (the coarse
mu-profile pass), 63 and 1024 (a whole mu-profile) radii, the circle maxima of
six complex rows, the sphere constants and series evaluation.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy can be imported, and the process to
# one CPU, as in perfbench/run.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import json
import time

import numpy as np

from quatregular._arrays import eval_rows, sphere_constants
from quatregular.norms import _circle_max, _sphere_max
from quatregular.series import slice_derivative
from quatregular.verification import random_series

DEGREE = 6
RADIUS = 0.9
SPHERE_RADII = (1, 15, 33, 63, 1024)
REPEATS = 7
CALLS = 50


def best_ms(call) -> float:
    """Best mean milliseconds per call of ``call()`` over REPEATS timed loops."""
    call()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(CALLS):
            call()
        best = min(best, (time.perf_counter() - start) / CALLS)
    return round(1e3 * best, 4)


def main() -> dict:
    rng = np.random.default_rng(2024)
    # a normalised series of degree DEGREE + 1, so its derivative has degree DEGREE
    derivative = slice_derivative(random_series(rng, DEGREE + 1, monic_shift=True))
    rows = rng.standard_normal((6, DEGREE + 1)) + 1j * rng.standard_normal((6, DEGREE + 1))
    angles = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    points = rng.standard_normal((64, 4)) * 0.2

    timings = {}
    for count in SPHERE_RADII:
        radii = np.linspace(RADIUS, 0.0, count, endpoint=False)
        timings[f"_sphere_max[{count} radii]"] = best_ms(
            lambda: _sphere_max(derivative, radii))
    timings["_circle_max[6 rows, 512 angles]"] = best_ms(
        lambda: _circle_max(rows, RADIUS, 512))
    timings["sphere_constants[1024 spheres]"] = best_ms(
        lambda: sphere_constants(derivative.rows, RADIUS * np.cos(angles),
                                 RADIUS * np.sin(angles)))
    timings["eval_rows[64 points]"] = best_ms(
        lambda: eval_rows(derivative.rows, points))
    return {"degree": DEGREE, "radius": RADIUS, "repeats": REPEATS,
            "calls": CALLS, "numpy": np.__version__, "ms_per_call": timings}


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
