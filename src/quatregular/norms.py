"""Uniform and slice norms for series on balls centred at the origin.

The slice norm of f at a unit I combines the boundary maxima of the two
holomorphic components of the restriction to that slice; the global norm is
the supremum of slice norms over the whole sphere of units. It is equivalent
to the uniform norm within a factor sqrt(2), and unlike the uniform norm it
is invariant under coefficient conjugation, which is what the mean value
bound needs.

All suprema are computed on deterministic grids with local refinement and a
reported convergence gap; nothing here is Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._arrays import (
    circle_max_rows,
    circle_table,
    coeff_rows,
    sphere_constants,
    sphere_extrema_rows,
)
from .errors import DomainError, PreconditionError
from .quaternions import Quaternion, UnitImaginary, _coerce, _sphere_rows
from .series import Series, slice_derivative
from .slices import split

DEFAULT_THETA_GRID = 512
DEFAULT_SPHERE_GRID = 2048

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# cyclic component orders for the cross product I x J
_NEXT = [1, 2, 0]
_LAST = [2, 0, 1]


@dataclass(frozen=True)
class NormReport:
    """A computed supremum together with how it was obtained.

    ``certified_tol`` is the refinement convergence gap: how much the value
    was still moving when the local search stopped, floored at rounding noise.
    """

    value: float
    method: str
    resolution: dict = field(default_factory=dict)
    certified_tol: float = 0.0

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "resolution": dict(self.resolution),
            "certified_tol": self.certified_tol,
        }


def _tol_floor(value: float, gap: float) -> float:
    return max(gap, 4e-15 * max(1.0, value))


# -- closed form on spheres --------------------------------------------------

def sphere_extrema(b: Quaternion, c: Quaternion) -> tuple[float, float]:
    """Exact (min, max) of |b + I c| over all imaginary units I.

    |b + I c|^2 = |b|^2 + |c|^2 + 2 <Im(b conj(c)), I> is affine in I, so the
    extrema are attained along +-Im(b conj(c)) and have a closed form. The
    minimum is clamped at zero against rounding.
    """
    b = _coerce(b)
    c = _coerce(c)
    base = b.modulus_sq() + c.modulus_sq()
    swing = 2.0 * (b * c.conjugate()).imag.modulus()
    low = math.sqrt(max(base - swing, 0.0))
    high = math.sqrt(base + swing)
    return low, high


def _sphere_range_at(coeff_list, s: float, theta: float) -> tuple[float, float]:
    """Scalar (min, max) of |f| on the sphere at angle theta of radius s."""
    wr = s * math.cos(theta)
    wi = s * math.sin(theta)
    b0 = b1 = b2 = b3 = c0 = c1 = c2 = c3 = 0.0
    pr, pi = 1.0, 0.0
    for n, (a0, a1, a2, a3) in enumerate(coeff_list):
        if n:
            pr, pi = pr * wr - pi * wi, pr * wi + pi * wr
        b0 += pr * a0
        b1 += pr * a1
        b2 += pr * a2
        b3 += pr * a3
        c0 += pi * a0
        c1 += pi * a1
        c2 += pi * a2
        c3 += pi * a3
    base = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3 + c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3
    v1 = -b0 * c1 + b1 * c0 - b2 * c3 + b3 * c2
    v2 = -b0 * c2 + b1 * c3 + b2 * c0 - b3 * c1
    v3 = -b0 * c3 - b1 * c2 + b2 * c1 + b3 * c0
    swing = 2.0 * math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    return math.sqrt(max(base - swing, 0.0)), math.sqrt(base + swing)


# -- one dimensional refinement ----------------------------------------------

def _golden_max(fn, lo: float, hi: float,
                xatol: float = 1e-9) -> tuple[float, float, float]:
    """Golden-section maximisation; returns (value, convergence gap, final midpoint)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best = max(fc, fd)
    history = [best]
    while b - a > xatol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
        best = max(best, fc, fd)
        history.append(best)
    gap = best - history[max(0, len(history) - 6)]
    return best, gap, 0.5 * (a + b)


def _refine_grid_maxima(values: np.ndarray, xs: np.ndarray, fn,
                        max_brackets: int = 6) -> tuple[float, float]:
    """Refine the local maxima of a sampled profile on an interval; returns (value, gap)."""
    n = len(values)
    if n < 3:
        return float(np.max(values)), 0.0
    padded = np.concatenate([[-np.inf], values, [-np.inf]])
    idxs = np.flatnonzero((values >= padded[:-2]) & (values >= padded[2:]))
    order = idxs[np.argsort(-values[idxs], kind="stable")][:max_brackets]
    step = xs[1] - xs[0]
    best = float(np.max(values))
    worst_gap = 0.0
    for i in order:
        lo = max(xs[i] - step, xs[0])
        hi = min(xs[i] + step, xs[-1])
        val, gap, _ = _golden_max(fn, lo, hi)
        best = max(best, val)
        worst_gap = max(worst_gap, gap)
    return best, worst_gap


# -- uniform norm on balls -----------------------------------------------------

def sup_norm_ball(f: Series, s: float,
                  theta_grid: int = DEFAULT_THETA_GRID) -> NormReport:
    """Maximum modulus on the closed ball of radius s.

    The maximum sits on the boundary, and the supremum over each boundary
    sphere x + y S has a closed form, so only the angle along a half circle is
    gridded and golden-section refined.
    """
    if not 0.0 <= s < f.radius:
        raise DomainError("outside ball of validity")
    if s == 0.0 or f.degree == 0:
        return NormReport(f.coeffs[0].modulus(), "closed-form")
    coeff_array = coeff_rows(f)
    theta = np.linspace(0.0, math.pi, theta_grid)
    b, c = sphere_constants(coeff_array, s * np.cos(theta), s * np.sin(theta))
    _, high = sphere_extrema_rows(b, c)
    coeff_list = [a.components for a in f.coeffs]

    def at(t: float) -> float:
        return _sphere_range_at(coeff_list, s, t)[1]

    value, gap = _refine_grid_maxima(high, theta, at)
    return NormReport(value, "grid+refine", {"theta": theta_grid},
                      _tol_floor(value, gap))


def inf_norm_ball(f: Series, s: float, theta_grid: int = 256,
                  radial_grid: int = 64) -> NormReport:
    """Minimum modulus on the closed ball of radius s.

    Unlike the maximum this can be attained anywhere inside, so a polar grid
    over the half disc of sphere parameters is scanned and the best cell is
    polished with a shrinking compass search.
    """
    if not 0.0 <= s < f.radius:
        raise DomainError("outside ball of validity")
    if s == 0.0 or f.degree == 0:
        return NormReport(f.coeffs[0].modulus(), "closed-form")
    coeff_array = coeff_rows(f)
    radii = np.linspace(0.0, s, radial_grid)
    theta = np.linspace(0.0, math.pi, theta_grid)
    rr, tt = np.meshgrid(radii, theta, indexing="ij")
    b, c = sphere_constants(coeff_array, (rr * np.cos(tt)).ravel(),
                            (rr * np.sin(tt)).ravel())
    low, _ = sphere_extrema_rows(b, c)
    low = low.reshape(radial_grid, theta_grid)
    coeff_list = [a.components for a in f.coeffs]
    i, j = np.unravel_index(int(np.argmin(low)), low.shape)
    t_best, th_best = float(radii[i]), float(theta[j])
    val = float(low[i, j])
    step_t, step_th = s / radial_grid, math.pi / theta_grid
    gap = 0.0
    budget = 20000
    while (step_t > 1e-10 * s or step_th > 1e-10) and budget > 0:
        budget -= 1
        moved = False
        for dt, dth in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            t2 = min(max(t_best + dt * step_t, 0.0), s)
            th2 = min(max(th_best + dth * step_th, 0.0), math.pi)
            v2 = _sphere_range_at(coeff_list, t2, th2)[0]
            if v2 < val:
                gap = val - v2
                t_best, th_best, val, moved = t2, th2, v2, True
                break
        if not moved:
            step_t *= 0.5
            step_th *= 0.5
    return NormReport(val, "grid+refine",
                      {"theta": theta_grid, "radial": radial_grid},
                      _tol_floor(val, gap))


# -- slice norm and its supremum over units ------------------------------------

def _completion_rows(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (J, K = I J) of the deterministic orthonormal completion of unit rows (m, 3).

    Same rule as ``quaternions.orthonormal_completion``: Gram-Schmidt the
    coordinate axis least aligned with I (first on ties) against I.
    """
    axis_rows = np.eye(3)[np.argmin(np.abs(units), axis=1)]
    j_rows = axis_rows - np.sum(axis_rows * units, axis=1, keepdims=True) * units
    j_rows /= np.linalg.norm(j_rows, axis=1, keepdims=True)
    k_rows = units[:, _NEXT] * j_rows[:, _LAST] - units[:, _LAST] * j_rows[:, _NEXT]
    return j_rows, k_rows


def _slice_rows(coeff_array: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split coefficients a_n = alpha_n + beta_n J for unit rows (m, 3); each (m, N+1)."""
    j_rows, k_rows = _completion_rows(units)
    imag = coeff_array[:, 1:].T
    alpha = coeff_array[:, 0] + 1j * (units @ imag)
    beta = j_rows @ imag + 1j * (k_rows @ imag)
    return alpha, beta


def _slice_norms(alpha: np.ndarray, beta: np.ndarray, radius: float,
                 table: np.ndarray) -> np.ndarray:
    """hypot of the refined boundary maxima of F and G, one circle-max batch for both."""
    maxima = circle_max_rows(np.concatenate([alpha, beta]), radius, table)
    return np.hypot(maxima[:len(alpha)], maxima[len(alpha):])


def slice_norm(f: Series, unit: UnitImaginary,
               j_unit: UnitImaginary | None = None,
               theta_grid: int = DEFAULT_THETA_GRID) -> float:
    """Slice norm at a unit: hypot of the boundary maxima of the two components.

    The value does not depend on which orthogonal completion ``j_unit`` is
    used; passing one explicitly exists for exactly that check.
    """
    pair = split(f, unit, j_unit=j_unit)
    table = circle_table(f.radius, f.degree + 1, theta_grid)
    return float(_slice_norms(np.array([pair.F.coeffs]), np.array([pair.G.coeffs]),
                              f.radius, table)[0])


_PATTERN = np.array([
    (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
    (0.707, 0.707), (0.707, -0.707), (-0.707, 0.707), (-0.707, -0.707),
])


def _compass(u: np.ndarray, step: float) -> np.ndarray:
    """The eight pattern neighbours of a unit row at the given step, back on the sphere."""
    t1, t2 = _completion_rows(u[None, :])
    cands = u + step * (_PATTERN[:, :1] * t1 + _PATTERN[:, 1:] * t2)
    return cands / np.linalg.norm(cands, axis=1, keepdims=True)


def split_norm(f: Series, samples: int = DEFAULT_SPHERE_GRID, seed: int = 0,
               theta_grid: int = DEFAULT_THETA_GRID,
               refine_candidates: int = 2) -> NormReport:
    """Supremum of the slice norm over the sphere of units.

    Real-coefficient series short-circuit: every slice then carries the same
    restriction. Otherwise a deterministic lattice of units is scanned with a
    vectorised surrogate (grid boundary maxima, no one dimensional polish),
    the best separated candidates are pushed uphill by a compass search on
    the sphere, and the winners are re-evaluated at full precision.
    """
    coeff_array = coeff_rows(f)
    if f.degree == 0:
        return NormReport(f.coeffs[0].modulus(), "closed-form")
    table = circle_table(f.radius, f.degree + 1, theta_grid)

    def refined(units: np.ndarray) -> np.ndarray:
        return _slice_norms(*_slice_rows(coeff_array, units), f.radius, table)

    if np.all(coeff_array[:, 1:] == 0.0):
        value = float(refined(np.array([[1.0, 0.0, 0.0]]))[0])
        return NormReport(value, "grid+refine", {"sphere": 1, "theta": theta_grid},
                          _tol_floor(value, 0.0))

    scan_table = circle_table(f.radius, f.degree + 1, max(theta_grid // 2, 64))

    def surrogate(units: np.ndarray) -> np.ndarray:
        """Grid-only slice norms for unit rows (m, 3)."""
        alpha, beta = _slice_rows(coeff_array, units)
        return np.hypot(np.abs(alpha @ scan_table).max(axis=1),
                        np.abs(beta @ scan_table).max(axis=1))

    lattice = _sphere_rows(samples, seed)
    scan = surrogate(lattice)

    order = np.argsort(-scan, kind="stable")
    candidates = []
    for idx in order:
        u = lattice[idx]
        if any(np.dot(u, v) > math.cos(0.2) for v in candidates):
            continue
        candidates.append(u)
        if len(candidates) >= refine_candidates:
            break

    def polish(u: np.ndarray) -> tuple[float, float]:
        val = float(surrogate(u[None, :])[0])
        step, budget = 0.1, 600
        while step > 1e-4 and budget > 0:
            budget -= 1
            cands = _compass(u, step)
            vals = surrogate(cands)
            best = int(np.argmax(vals))
            if vals[best] > val:
                u, val = cands[best], float(vals[best])
            else:
                step *= 0.5
        # finish at full precision: refined circle maxima, smaller steps, first
        # improvement in pattern order
        val = float(refined(u[None, :])[0])
        step, last_improvement, budget = 1e-4, 0.0, 200
        while step > 3e-6 and budget > 0:
            budget -= 1
            cands = _compass(u, step)
            vals = refined(cands)
            better = np.flatnonzero(vals > val)
            if better.size:
                best = int(better[0])
                last_improvement = float(vals[best]) - val
                u, val = cands[best], float(vals[best])
            else:
                step *= 0.45
        # residual compass truncation scales with the square of the last step
        return val, last_improvement + val * step * step

    best_value, best_gap = -math.inf, 0.0
    for u0 in candidates:
        val, gap = polish(u0)
        if val > best_value:
            best_value, best_gap = val, gap
    return NormReport(best_value, "grid+refine", {"sphere": samples, "theta": theta_grid},
                      _tol_floor(best_value, best_gap))


def mean_value_margin(f: Series, q, **norm_options) -> float:
    """Slack of the mean value bound at q: norm of the derivative minus |f(q)|/|q|.

    Nonnegative (up to the certified tolerance) whenever f vanishes at the
    origin, which is a stated precondition.
    """
    q = _coerce(q)
    if f.coeffs[0].modulus_sq() != 0.0:
        raise PreconditionError("requires f(0) = 0")
    norm_q = q.modulus()
    if norm_q == 0.0 or norm_q >= f.radius:
        raise DomainError("point must satisfy 0 < |q| < radius")
    derivative_norm = split_norm(slice_derivative(f), **norm_options).value
    from .series import evaluate

    return derivative_norm - evaluate(f, q).modulus() / norm_q
