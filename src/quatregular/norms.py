"""Uniform and slice norms for series on balls centred at the origin.

The slice norm of f at a unit I combines the boundary maxima of the two
holomorphic components of the restriction to that slice; the global norm is
the supremum of slice norms over the whole sphere of units. It is equivalent
to the uniform norm within a factor sqrt(2), and unlike the uniform norm it
is invariant under coefficient conjugation, which is what the mean value
bound needs.

The maximum and the boundary minimum on a ball search one angle along a half
circle, since each sphere of the ball has a closed form. The supremum of the
slice norm is the maximum of one smooth function of the unit and two circle
angles, which a lattice scan starts and Newton steps finish. The minimum
inside a ball comes from the roots of the symmetrization instead of a search.
Every search is deterministic, local refinement from a grid, with a reported
convergence gap; nothing here is Monte Carlo. Each runs on the coefficients
scaled by a power of two (``_scaled``), so that no square overflows or underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._arrays import (
    circle_max_rows,
    circle_table,
    power_table,
    slice_norm_ascent,
    sphere_constants,
    sphere_extrema_rows,
    sphere_max_rows,
    sphere_max_polish,
    sphere_min_rows,
    sphere_planes,
    top_grid_maxima,
)
from .errors import DomainError, PreconditionError
from .quaternions import I, Quaternion, UnitImaginary, _coerce, _sphere_rows
from .series import Series, _from_rows, evaluate, slice_derivative, symmetrization
from .slices import _frame, split_rows

DEFAULT_THETA_GRID = 512
DEFAULT_SPHERE_GRID = 2048

# the sphere-maximum search: local grid maxima polished per radius, and grid
# rows per batch
_SPHERE_BRACKETS = 6
_CHUNK_ROWS = 16384
# roots of f^s this close share a centroid candidate in inf_norm_ball
_ROOT_CLUSTER = 1e-2
# separated lattice units that start the split_norm ascent
_STARTS = 3


@dataclass(frozen=True)
class NormReport:
    """A computed supremum together with how it was obtained.

    ``certified_tol`` is the refinement convergence gap, floored at rounding
    noise: for ``sup_norm_ball`` and the boundary of ``inf_norm_ball`` how
    much the last Newton step on the sphere maximum (or minimum) still moved
    the value, for a root sphere of ``inf_norm_ball`` the value itself, and for
    ``split_norm`` how much the last Newton step of the winning start still
    raised the square root of H. A closed form reports 0.
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


def _scaled(f: Series) -> tuple[Series, int]:
    """f times 2^-e, with e the frexp exponent of its largest component, and e.

    Scaling by a power of two is exact, so a norm of the result times 2^e is
    the norm of f, while the squares the norms take neither overflow nor underflow.
    """
    e = math.frexp(float(np.abs(f.rows).max()))[1]
    if e == 0:
        return f, 0
    return _from_rows(np.ldexp(f.rows, -e), f.radius, f.exact), e


def _unscaled(x, e: int):
    """x times 2^e, undoing ``_scaled``; a norm beyond the largest float is a DomainError."""
    if e > 0 and np.max(x, initial=0.0) >= math.ldexp(1.0, 1024 - e):
        raise DomainError("the norm is beyond the largest float")
    return np.ldexp(x, e)


# -- closed form on spheres --------------------------------------------------

def sphere_extrema(b: Quaternion, c: Quaternion) -> tuple[float, float]:
    """Exact (min, max) of |b + I c| over all imaginary units I (``sphere_extrema_rows``)."""
    low, high = sphere_extrema_rows(np.array([_coerce(b).components]),
                                    np.array([_coerce(c).components]))
    return float(low[0]), float(high[0])


def _angle_count(f: Series, theta_grid: int) -> int:
    """Grid angles of the sphere-maximum search: ``theta_grid``, raised to 4N + 1.

    The squared sphere maximum is built from trigonometric polynomials of
    degree N, and the polish is local, so every local maximum needs a grid
    angle of its own near it; 4N + 1 angles put a grid step below pi / (4N).
    """
    return max(theta_grid, 4 * f.degree + 1)


def _sphere_max(f: Series, radii: np.ndarray, theta_grid: int = DEFAULT_THETA_GRID,
                lowest: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum of |f| on the sphere of each radius, as arrays (value, gap, angle).

    The maximum over each sphere x + y S has a closed form, g = A + |U| in
    its square (``sphere_planes``), so only the angle along the half circle
    is searched. A grid of ``_angle_count`` angles is two products of the
    coefficient planes of ``_CHUNK_ROWS`` grid rows at a time, against a cos
    and a sin table. The six best local grid maxima of every radius (ties to
    the lower angle; g is even about 0 and pi, so the ends take mirrored
    neighbours) are then polished together by ``sphere_max_polish``, from the
    vertex of the grid parabola. ``value`` is the closed form on the sphere
    at ``angle``; ``gap`` is how much the last Newton step still moved it.
    With ``lowest`` the cosine plane is negated, so the search climbs
    -A + |U|, the negated square of the sphere minimum, and ``value`` is the
    minimum of |f| on the sphere of each radius.
    """
    f, e = _scaled(f)
    value = np.full(radii.shape, f.coeffs[0].modulus())
    gap, angle = np.zeros(radii.shape), np.zeros(radii.shape)
    todo = np.flatnonzero(radii > 0.0)
    if f.degree == 0 or not todo.size:
        return _unscaled(value, e), gap, angle
    planes = sphere_planes(f.rows, radii[todo])
    if lowest:
        planes[:, 0] *= -1.0
    points = _angle_count(f, theta_grid)
    theta = np.linspace(0.0, math.pi, points)
    turns = power_table(np.exp(1j * theta), f.degree + 1)
    cos, sin = turns.real.copy(), turns.imag.copy()
    chunk = max(1, _CHUNK_ROWS // points)
    picks = []
    for first in range(0, todo.size, chunk):
        part = planes[first:first + chunk]
        # stacked products: each radius rounds the same in any batch
        u = part[:, 1:] @ sin
        grid = (part[:, :1] @ cos)[:, 0] + np.sqrt(np.einsum("rct,rct->rt", u, u))
        mirrored = np.concatenate([grid[:, 1:2], grid, grid[:, -2:-1]], axis=1)
        row, col = top_grid_maxima(grid, mirrored, _SPHERE_BRACKETS)
        picks.append((row + first, col, mirrored[row, col], mirrored[row, col + 1],
                      mirrored[row, col + 2]))
    row, col, left, top, right = map(np.concatenate, zip(*picks))
    # vertex of the parabola through the three grid values, as in circle_max_rows
    bend = np.minimum(left + right - 2.0 * top, -1e-300)
    offset = 0.5 * (left - right) / bend
    # g(pi - theta) has the planes times (-1)^d, so an angle of the upper half is
    # polished as its distance from pi: both ends then sit at 0, where sin(d theta) = 0
    upper = 2 * col > points - 1
    near = np.where(upper, points - 1 - col, col)
    flips = np.where(upper[:, None], (-1.0) ** np.arange(f.degree + 1), 1.0)
    step = math.pi / (points - 1)
    polished, before, found = sphere_max_polish(
        planes[row] * flips[:, None, :], step * (near + np.where(upper, -offset, offset)),
        step * (near - 1.0), step * (near + 1.0), step)
    found = np.where(upper, math.pi - found, found)
    better = polished > top
    best = np.where(better, polished, top)
    at = np.where(better, found, theta[col])
    # the first bracket of each radius after sorting by value: ties keep the grid rank
    order = np.lexsort((-best, row))
    pick = order[np.searchsorted(row[order], np.arange(todo.size))]
    angle[todo] = at[pick]
    # the closed form at the winning angle: the value is attained on that sphere
    kernel, sign = (sphere_min_rows, -1.0) if lowest else (sphere_max_rows, 1.0)
    value[todo] = kernel(*sphere_constants(f.rows, radii[todo] * np.cos(angle[todo]),
                                           radii[todo] * np.sin(angle[todo])))
    # how far the last Newton step moved the value: sqrt(g) up, or sqrt(-g) down
    moved = sign * (np.sqrt(np.maximum(sign * polished, 0.0))
                    - np.sqrt(np.maximum(sign * before, 0.0)))
    np.maximum.at(gap, todo[row], moved)
    return _unscaled(value, e), _unscaled(gap, e), angle


# -- uniform norm on balls -----------------------------------------------------

def sup_norm_ball(f: Series, s: float,
                  theta_grid: int = DEFAULT_THETA_GRID) -> NormReport:
    """Maximum modulus on the closed ball of radius s.

    The maximum sits on the boundary, and the supremum over each boundary
    sphere x + y S has a closed form, so only the angle along a half circle is
    searched, by ``_sphere_max`` (a grid, then Newton steps from its best
    local maxima). ``certified_tol`` is how much the last Newton step still
    raised the value, floored at rounding noise; ``resolution`` holds the
    number of grid angles used.
    """
    if not 0.0 <= s < f.radius:
        raise DomainError("outside ball of validity")
    value, gap, _ = _sphere_max(f, np.array([s]), theta_grid)
    value = float(value[0])
    if s == 0.0 or f.degree == 0:
        return NormReport(value, "closed-form")
    return NormReport(value, "grid+refine", {"theta": _angle_count(f, theta_grid)},
                      _tol_floor(value, float(gap[0])))


def inf_norm_ball(f: Series, s: float,
                  theta_grid: int = DEFAULT_THETA_GRID) -> NormReport:
    """Minimum modulus on the closed ball of radius s.

    Two facts leave no interior search. By the minimum modulus principle
    (Gentili-Stoppato, 2009) a non-constant |f| has no local minimum off the
    zeros of f. And f vanishes on the sphere x + y S exactly when its
    symmetrization f^s = f * f^c, which has real coefficients, vanishes at
    x + iy (Gentili-Stoppato-Struppa, 2013). So the minimum is the smaller of
    the closed-form sphere minima at the roots of f^s in the ball and the
    minimum over the boundary sphere, which ``_sphere_max`` finds by climbing
    -A + |U| = -min^2. A zero of f of multiplicity k is a 2k-fold root of f^s,
    which ``np.roots`` splits by about eps^(1/2k), so the centroid of each root
    with the roots near it is tried as well. ``certified_tol`` is the value
    itself when a root sphere wins, since f vanishes on that sphere, and
    otherwise how much the last Newton step still lowered the boundary value,
    floored at rounding noise. ``resolution`` holds the number of boundary
    grid angles and of root candidates in the ball.
    """
    if not 0.0 <= s < f.radius:
        raise DomainError("outside ball of validity")
    g, e = _scaled(f)
    (value,), (gap,), _ = _sphere_max(g, np.array([s]), theta_grid, lowest=True)
    if s == 0.0 or f.degree == 0:
        return NormReport(float(_unscaled(value, e)), "closed-form")
    roots = np.roots(symmetrization(g).rows[::-1, 0])
    near = np.abs(roots[:, None] - roots) < _ROOT_CLUSTER
    roots = np.concatenate([roots, near @ roots / near.sum(axis=1)])
    roots = roots[np.abs(roots) <= s]
    resolution = {"theta": _angle_count(f, theta_grid), "roots": int(roots.size)}
    low = sphere_min_rows(*sphere_constants(g.rows, roots.real, roots.imag)).min(initial=np.inf)
    if low < value:
        low = float(_unscaled(low, e))
        return NormReport(low, "root-sphere", resolution, _tol_floor(low, low))
    value = float(_unscaled(value, e))
    return NormReport(value, "grid+refine", resolution, _tol_floor(value, float(_unscaled(gap, e))))


# -- slice norm and its supremum over units ------------------------------------

def _slice_norms(alpha: np.ndarray, beta: np.ndarray, radius: float,
                 table: np.ndarray) -> np.ndarray:
    """hypot of the refined boundary maxima of F and G, one circle-max batch for both."""
    maxima = circle_max_rows(np.concatenate([alpha, beta]), radius, table)
    return np.hypot(maxima[:len(alpha)], maxima[len(alpha):])


def _grid_max(rows: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest |P| on the grid of ``table`` for each complex coefficient row P, and its column.

    Scanning one component per call frees each (m, T) grid before the next is built.
    """
    grid = np.abs(rows @ table)
    col = np.argmax(grid, axis=1)
    return grid[np.arange(len(grid)), col], col


def slice_norm(f: Series, unit: UnitImaginary,
               j_unit: UnitImaginary | None = None,
               theta_grid: int = DEFAULT_THETA_GRID) -> float:
    """Slice norm at a unit: hypot of the boundary maxima of the two components.

    The value does not depend on which orthogonal completion ``j_unit`` is
    used; passing one explicitly exists for exactly that check.
    """
    if theta_grid < 1:
        raise DomainError("theta_grid must be at least 1")
    g, e = _scaled(f)
    units, completion = _frame(unit, j_unit)
    alpha, beta = split_rows(g.rows, units, completion)
    table = circle_table(f.radius, f.degree + 1, theta_grid)
    return float(_unscaled(_slice_norms(alpha, beta, f.radius, table)[0], e))


def split_norm(f: Series, samples: int = DEFAULT_SPHERE_GRID, seed: int = 0,
               theta_grid: int = DEFAULT_THETA_GRID) -> NormReport:
    """Supremum of the slice norm over the sphere of units.

    Real-coefficient series short-circuit: every slice then carries the same
    restriction. Otherwise a deterministic lattice of ``samples`` units is
    scanned with grid maxima of |F_I| and |G_I| on each slice, no polish. The
    ``_STARTS`` best lattice units at least 0.2 rad apart, with the scan's best
    angle of each component, start a Newton ascent on S^2 x T^2
    (``slice_norm_ascent``): the squared norm is the maximum of
    H = |F_I(z_1)|^2 + |G_I(z_2)|^2 over the unit and two angles. The value is
    the best slice norm, from refined circle maxima, at the final units, so it
    is attained. ``certified_tol`` is how much the last Newton step of the
    winning start still raised sqrt(H), floored at rounding noise;
    ``resolution`` holds the lattice and circle grid sizes, the number of starts
    and the Newton steps of the winning start.
    """
    if theta_grid < 1:
        raise DomainError("theta_grid must be at least 1")
    g, e = _scaled(f)
    if f.degree == 0:
        return NormReport(float(_unscaled(g.coeffs[0].modulus(), e)), "closed-form")
    if np.all(g.rows[:, 1:] == 0.0):
        value = slice_norm(f, I, theta_grid=theta_grid)
        return NormReport(value, "grid+refine", {"sphere": 1, "theta": theta_grid},
                          _tol_floor(value, 0.0))
    table = circle_table(f.radius, f.degree + 1, theta_grid)

    scan_table = circle_table(f.radius, f.degree + 1, max(theta_grid // 2, 64))
    lattice = _sphere_rows(samples, seed)
    (f_top, f_col), (g_top, g_col) = (_grid_max(rows, scan_table)
                                      for rows in split_rows(g.rows, lattice))
    scan = np.hypot(f_top, g_top)

    picks = []
    for idx in np.argsort(-scan, kind="stable"):
        if any(np.dot(lattice[idx], lattice[k]) > math.cos(0.2) for k in picks):
            continue
        picks.append(idx)
        if len(picks) >= _STARTS:
            break

    angles = (2.0 * math.pi / scan_table.shape[1]) * np.stack([f_col, g_col], axis=1)[picks]
    h, before, units, _, steps = slice_norm_ascent(g.rows, f.radius, lattice[picks], angles)
    values = _slice_norms(*split_rows(g.rows, units), f.radius, table)
    best = int(np.argmax(values))
    value = float(_unscaled(values[best], e))
    resolution = {"sphere": samples, "theta": theta_grid, "starts": len(picks),
                  "steps": int(steps[best])}
    gap = float(_unscaled(math.sqrt(h[best]) - math.sqrt(before[best]), e))
    return NormReport(value, "lattice+newton", resolution, _tol_floor(value, gap))


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
    return derivative_norm - evaluate(f, q).modulus() / norm_q
