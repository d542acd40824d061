"""Time the numeric kernels at fixed shapes, one BLAS thread.

    PYTHONPATH=src python3 tools/kernel_timing.py

Prints one JSON object: for each kernel and shape the best, over REPEATS
repeats, of the mean milliseconds per call over CALLS calls. The inputs are
seeded and the same on every run, so two source trees can be compared on one
machine. The kernels are those under the norms and the Bloch-Landau search:
the sphere-maximum search at 1, 15, 18 (one root batch: 15 evenly spaced
points and 3 interpolated ones), 33 (the coarse mu-profile pass when no cell
is dropped), 63 and 1024 (a whole mu-profile) radii, and at 33 radii on the
first two coefficient rows of the same series (degree 1: the closed-form
angle, no grid or polish); the slice norm at the unit i (two sphere-maximum
searches), the split_norm lattice scan (2048 units, 256 angles), the value,
gradient and Hessian of the split_norm ascent at its three starts
(_slice_terms, given the series table and the charts) and the whole ascent
from them (slice_norm_ascent); the whole split_norm on the same series, on
the real-coefficient series of its real parts (the boundary sphere maximum)
and on the degree-1 series of its first two rows (the closed form
|a_0| + R |a_1|); the sphere constants and series evaluation, and
inf_norm_ball at RADIUS on q times the derivative's first DEGREE
coefficients, a degree-DEGREE series with a zero at the origin whose root
sphere wins without a boundary search. Three rows time sup_norm_ball,
inf_norm_ball (both at RADIUS) and split_norm (on the ball of radius RADIUS)
on a series of degree DEGREE_CAP with |a_n| about 1/(n+1)^2, the largest
degree that every norm takes. One row times the series algebra that builds a
new series from coefficient rows: star, slice_derivative,
regular_translation and with_radius, one call each, on a degree-2 series.
One row times attain, the multistart Newton preimage search, on the builtin
mixed-units series for a fixed target in the unit ball, and three end-to-end
rows the whole bl_search at r = 0.99: on the same series, on the builtin
quadratic-j series (its derivative is linear, so every M and the norm of
phi' are closed forms), and on the seeded degree-4 series LONG_PASS_SEED
draws, where the monotone bound alone left 558 radii to the second pass of
the mu-profile (the three bounds of bloch._first_crossing leave 31).
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

from quatregular import norms
from quatregular._arrays import (
    _chart,
    _slice_table,
    _slice_terms,
    circle_table,
    eval_rows,
    slice_norm_ascent,
    sphere_constants,
)
from quatregular.bloch import attain, bl_search
from quatregular.norms import _lattice_scan, _sphere_max, inf_norm_ball, slice_norm, split_norm
from quatregular.norms import sup_norm_ball
from quatregular.quaternions import I, Quaternion
from quatregular.series import DEGREE_CAP, Series, _from_rows, slice_derivative, star
from quatregular.slices import regular_translation
from quatregular.verification import builtin_corpus, random_series

DEGREE = 6
RADIUS = 0.9
SPHERE_RADII = (1, 15, 18, 33, 63, 1024)
REPEATS = 7
CALLS = 50
# random_series(default_rng(LONG_PASS_SEED), 4, monic_shift=True): mu_radii [26, 31, 36]
LONG_PASS_SEED = 10


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
    at_radius = derivative.with_radius(RADIUS)
    real = Series(tuple(derivative.rows[:, 0].tolist()), RADIUS)
    angles = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    points = rng.standard_normal((64, 4)) * 0.2
    small = random_series(rng, 2)
    shift = Quaternion(*(rng.standard_normal(4) * 0.1))
    capped = _from_rows(rng.uniform(-1.0, 1.0, (DEGREE_CAP + 1, 4))
                        / np.arange(1.0, DEGREE_CAP + 2.0)[:, None] ** 2, 1.0)

    timings = {}
    for count in SPHERE_RADII:
        radii = np.linspace(RADIUS, 0.0, count, endpoint=False)
        timings[f"_sphere_max[{count} radii]"] = best_ms(
            lambda: _sphere_max(derivative.rows, radii))
    radii = np.linspace(RADIUS, 0.0, 33, endpoint=False)
    timings["_sphere_max[degree 1, 33 radii]"] = best_ms(
        lambda: _sphere_max(derivative.rows[:2], radii))
    timings[f"slice_norm[degree {DEGREE}]"] = best_ms(lambda: slice_norm(at_radius, I))
    table = circle_table(RADIUS, DEGREE + 1, 256)
    timings["_lattice_scan[2048 units, 256 angles]"] = best_ms(
        lambda: _lattice_scan(derivative.rows, table))
    # the scaled rows and radius, units and angles that split_norm starts its ascent from
    starts = []
    norms.slice_norm_ascent = lambda *args: starts.append(args) or slice_norm_ascent(*args)
    split_norm(at_radius)
    norms.slice_norm_ascent = slice_norm_ascent
    scaled, radius, units, start_angles = starts[0]
    terms_table, chart = _slice_table(scaled, radius), _chart(units)
    timings[f"_slice_terms[3 starts, degree {DEGREE}]"] = best_ms(
        lambda: _slice_terms(terms_table, chart, start_angles))
    timings["slice_norm_ascent[split_norm starts]"] = best_ms(
        lambda: slice_norm_ascent(*starts[0]))
    timings["split_norm"] = best_ms(lambda: split_norm(at_radius))
    timings[f"split_norm[real, degree {DEGREE}]"] = best_ms(lambda: split_norm(real))
    linear = _from_rows(derivative.rows[:2], RADIUS)
    timings["split_norm[degree 1]"] = best_ms(lambda: split_norm(linear))
    rooted = _from_rows(np.concatenate([np.zeros((1, 4)), derivative.rows[:-1]]), 1.0)
    timings[f"inf_norm_ball[degree {DEGREE}]"] = best_ms(lambda: inf_norm_ball(rooted, RADIUS))
    for name, norm in (("sup_norm_ball", lambda: sup_norm_ball(capped, RADIUS)),
                       ("inf_norm_ball", lambda: inf_norm_ball(capped, RADIUS)),
                       ("split_norm", lambda: split_norm(capped.with_radius(RADIUS)))):
        timings[f"{name}[degree {DEGREE_CAP}]"] = best_ms(norm)
    timings["sphere_constants[1024 spheres]"] = best_ms(
        lambda: sphere_constants(derivative.rows, RADIUS * np.cos(angles),
                                 RADIUS * np.sin(angles)))
    timings["eval_rows[64 points]"] = best_ms(
        lambda: eval_rows(derivative.rows, points))
    timings["series algebra[degree 2]"] = best_ms(
        lambda: (star(small, small), slice_derivative(small),
                 regular_translation(small, shift), small.with_radius(RADIUS)))
    mixed_units = dict(builtin_corpus())["mixed-units"]
    target = Quaternion(0.05, 0.01, -0.01, 0.0)
    timings["attain[mixed-units, ball radius 1]"] = best_ms(
        lambda: attain(mixed_units, target, 1.0))
    timings["bl_search[mixed-units, r=0.99]"] = best_ms(lambda: bl_search(mixed_units, 0.99))
    quadratic_j = dict(builtin_corpus())["quadratic-j"]
    timings["bl_search[quadratic-j, r=0.99]"] = best_ms(lambda: bl_search(quadratic_j, 0.99))
    long_pass = random_series(np.random.default_rng(LONG_PASS_SEED), 4, monic_shift=True)
    timings["bl_search[long second pass]"] = best_ms(lambda: bl_search(long_pass, 0.99))
    return {"degree": DEGREE, "radius": RADIUS, "repeats": REPEATS,
            "calls": CALLS, "numpy": np.__version__, "ms_per_call": timings}


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
