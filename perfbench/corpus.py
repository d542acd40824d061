"""Seeded input corpora, one per workload, built with numpy alone.

A corpus is an endless stream of plain task records (coefficient arrays,
points, radii) drawn from one seeded generator per workload; nothing here
calls quatregular. A run takes the first whole blocks of its stream, so no
input is replayed within a run, and the same seed gives the same stream.
Degrees and input classes follow a fixed repeating pattern and only
coefficient values, points and the order inside each block are drawn, so any
few blocks carry the same mix of work whatever the seed.
"""

from __future__ import annotations

import math

import numpy as np

# coefficient rows of the package's builtin_corpus(), copied here as data
BUILTIN = {
    "identity": [[0, 0, 0, 0], [1, 0, 0, 0]],
    "soft-quadratic": [[0, 0, 0, 0], [1, 0, 0, 0], [0.1, 0, 0, 0]],
    "cubic-half": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0]],
    "steep-cubic": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [5.0 / 3.0, 0, 0, 0]],
    "quadratic-j": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0.8, 0]],
    "mixed-units": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0.6, 0], [0.3, 0.2, 0, 0.1]],
}

SEARCH_RADII = (0.99, 0.6)
SPLIT_RADIUS = 0.9
BALL_RADII = (0.45, 0.9)
# degree 6 twice: the median task is then a degree-6 task, not the gap between
# the degree-3 and degree-6 tasks, where it jumped between seeds
ALGEBRA_DEGREES = (1, 2, 3, 6, 6, 12, 24)


def _builtin(name: str) -> np.ndarray:
    return np.array(BUILTIN[name], dtype=float)


def _poly(rng, degree: int, scale: float, normalised: bool) -> np.ndarray:
    """Uniform coefficients in [-scale, scale]; normalised pins a_0 = 0, a_1 = 1."""
    coeffs = rng.uniform(-scale, scale, size=(degree + 1, 4))
    if normalised:
        coeffs[0] = 0.0
        coeffs[1] = (1.0, 0.0, 0.0, 0.0)
    return coeffs


def _ball_point(rng, radius: float) -> np.ndarray:
    v = rng.standard_normal(4)
    return v * (radius * rng.random() ** 0.25 / np.linalg.norm(v))


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _cycle(rng, values):
    """Endless values that visit every value once per pass, in seeded order."""
    while True:
        yield from rng.permutation(np.array(values)).tolist()


def slice_norms(seed: int):
    """Blocks of sixteen series: three criterion-4 normalised polynomials of
    degree 1-6, twelve general polynomials of degree 2-8 at coefficient scale
    1.0 (the class where split_norm under-reports), and one real-coefficient
    series. Most tasks are general polynomials, so the median task is one of
    them rather than the gap below them, where it jumped between seeds."""
    rng = np.random.default_rng([seed, 1])
    norm_deg, gen_deg, real_deg = _cycle(rng, range(1, 7)), _cycle(rng, range(2, 9)), \
        _cycle(rng, range(2, 7))
    while True:
        block = [("normalised", _poly(rng, next(norm_deg), 0.5, True)) for _ in range(3)]
        block += [("general", _poly(rng, next(gen_deg), 1.0, False)) for _ in range(12)]
        real = _poly(rng, next(real_deg), 0.5, True)
        real[:, 1:] = 0.0
        block.append(("real", real))
        for k in rng.permutation(len(block)):
            yield {"kind": block[k][0], "coeffs": block[k][1], "radius": 1.0}


def bl_search(seed: int):
    """Blocks of 24 searches alternating between the builtin series and seeded
    normalised polynomials of degree 2-5. Each block runs every builtin at both
    working radii in one fixed order; the polynomials alternate between the radii."""
    rng = np.random.default_rng([seed, 2])
    degrees = _cycle(rng, range(2, 6))
    names = sorted(BUILTIN)
    builtin_order = [(names[k % 6], SEARCH_RADII[(k + k // 6) % 2]) for k in range(12)]
    while True:
        for k, (name, r) in enumerate(builtin_order):
            yield {"name": name, "coeffs": _builtin(name), "r": r, "radius": 1.0}
            yield {"name": "poly", "coeffs": _poly(rng, next(degrees), 0.5, True),
                   "r": SEARCH_RADII[(k // 2) % 2], "radius": 1.0}


def coverage_rho(coeffs: np.ndarray, radius: float) -> float:
    """R |a_1|^2 / (4 sqrt2 sum_n n |a_n| R^(n-1)): a lower bound of the paper's
    coverage radius R |f'(0)|^2 / (4 ||f'||), from the coefficients alone."""
    n = np.arange(len(coeffs))
    deriv_bound = float(np.sum(n * np.linalg.norm(coeffs, axis=1) * radius ** np.maximum(n - 1, 0)))
    return radius * float(coeffs[1] @ coeffs[1]) / (4.0 * math.sqrt(2.0) * deriv_bound)


def _pinched_point(rng, rho: float) -> np.ndarray:
    """Uniform sample of {|q|^3 < rho |Re q|^2} by rejection from the ball of
    radius rho, 64 candidates at a time."""
    while True:
        v = rng.standard_normal((64, 4))
        q = v * (rho * rng.random((64, 1)) ** 0.25 / np.linalg.norm(v, axis=1, keepdims=True))
        inside = np.linalg.norm(q, axis=1) ** 3 < rho * q[:, 0] ** 2
        if inside.any():
            return q[np.argmax(inside)]


def coverage(seed: int):
    """attain targets in blocks of eighteen series: the identity, the soft
    quadratic and sixteen fresh seeded normalised polynomials of degree 2-5,
    one target each. A fresh series per task keeps the Newton difficulty of a
    run from hanging on a few draws."""
    rng = np.random.default_rng([seed, 3])
    degrees = _cycle(rng, range(2, 6))
    while True:
        block = [_builtin("identity"), _builtin("soft-quadratic")]
        block += [_poly(rng, next(degrees), 0.5, True) for _ in range(16)]
        for k in rng.permutation(len(block)):
            rho = coverage_rho(block[k], 1.0)
            yield {"coeffs": block[k], "radius": 1.0, "rho": rho,
                   "target": _pinched_point(rng, rho)}


def series_algebra(seed: int):
    """Pairs (f, g) whose degree visits each entry of ALGEBRA_DEGREES once per
    block of seven, with a point q and shift w in the ball of radius 0.9, units I and J,
    and a sphere x + y S inside the unit ball."""
    rng = np.random.default_rng([seed, 4])
    for degree in _cycle(rng, ALGEBRA_DEGREES):
        radius_xy = 0.9 * rng.random() ** 0.5
        angle = math.pi * rng.random()
        yield {
            "f": _poly(rng, degree, 0.5, False),
            "g": _poly(rng, degree, 0.5, False),
            "radius": 1.0,
            "q": _ball_point(rng, 0.9),
            "w": _ball_point(rng, 0.9),
            "unit_i": _unit(rng),
            "unit_j": _unit(rng),
            "xy": (radius_xy * math.cos(angle), radius_xy * math.sin(angle)),
        }


# tasks per block of each stream: every whole block carries the same mix of
# degrees and input classes
BLOCK = {"slice-norms": 16, "bl-search": 24, "coverage": 18, "series-algebra": 7}

GENERATORS = {
    "slice-norms": slice_norms,
    "bl-search": bl_search,
    "coverage": coverage,
    "series-algebra": series_algebra,
}


def generate(workload: str, seed: int):
    """The endless record stream of one workload for one seed."""
    return GENERATORS[workload](seed)


# One fixed warm-up input per workload, for set-up time and the untimed warm-up
# task. None is a record any seed can draw: the slice-norms and series-algebra
# corpora hold no builtin series, r = 0.8 is no working radius of bl-search, and
# coverage draws its targets.
WARMUP = {
    "slice-norms": {"kind": "warmup", "coeffs": _builtin("mixed-units"), "radius": 1.0},
    "bl-search": {"name": "soft-quadratic", "coeffs": _builtin("soft-quadratic"), "r": 0.8,
                  "radius": 1.0},
    "coverage": {"coeffs": _builtin("soft-quadratic"), "radius": 1.0,
                 "rho": coverage_rho(_builtin("soft-quadratic"), 1.0),
                 "target": np.array([0.05, 0.01, -0.01, 0.0])},
    "series-algebra": {"f": _builtin("mixed-units"), "g": _builtin("cubic-half"),
                       "radius": 1.0, "q": np.array([0.3, -0.2, 0.1, 0.4]),
                       "w": np.array([0.1, 0.2, 0.0, -0.1]), "unit_i": np.array([0.0, 0.6, 0.8]),
                       "unit_j": np.array([1.0, 0.0, 0.0]), "xy": (0.3, 0.4)},
}
