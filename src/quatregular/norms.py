"""Uniform and slice norms for series on balls centred at the origin.

The slice norm of f at a unit I combines the boundary maxima of the two
holomorphic components of the restriction to that slice; the global norm is
the supremum of slice norms over the whole sphere of units. It is equivalent
to the uniform norm within a factor sqrt(2), and unlike the uniform norm it
is invariant under coefficient conjugation, which is what the mean value
bound needs.

The maximum and the boundary minimum on a ball search one angle along a half
circle, since each sphere of the ball has a closed form. The boundary maximum
of a complex component of a slice comes from the same search, as the sphere
maximum of a series whose coefficients lie in one plane. The supremum of the
slice norm is the maximum of one smooth function of the unit and two circle
angles, which a lattice scan starts and Newton steps finish. The minimum
inside a ball comes from the roots of the symmetrization instead of a search.
Every search is deterministic, local refinement from a grid, with a reported
convergence gap; nothing here is Monte Carlo. Each runs on the coefficients
and radius scaled by powers of two (``_scaled``), so nothing overflows or underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._arrays import (
    circle_table,
    power_table,
    slice_norm_ascent,
    sphere_constants,
    sphere_extrema_rows,
    sphere_max_rows,
    sphere_max_polish,
    sphere_min_rows,
    sphere_planes,
)
from .errors import DomainError, PreconditionError
from .quaternions import I, Quaternion, UnitImaginary, _coerce, _sphere_rows
from .series import Series, _from_rows, evaluate, slice_derivative, symmetrization
from .slices import _frame, split_rows

# the fixed resolution: grid angles of every angle search (raised to 4N + 1),
# and lattice units of the split_norm scan
_THETA_GRID = 512
_SPHERE_GRID = 2048

# the angle search: local grid maxima polished per plane set, and grid rows per batch
_PEAKS = 6
_CHUNK_ROWS = 16384
# roots of f^s this close, with the ball radius folded into (1/2, 1], share a centroid
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


def _scaled(rows: np.ndarray, radius) -> tuple[np.ndarray, np.ndarray | float, int]:
    """The rows of f(2^p q) times 2^-e, the radius times 2^-p, and e.

    2^-p times the radius (the largest, for an array of radii) lies in (1/2, 1],
    and e, taken row by row, is the frexp exponent of the largest component of
    f(2^p q). Powers of two scale exactly, so a norm of the result times 2^e is
    that of f, while no radius power or square the norms take overflows or underflows.
    """
    mantissa, p = math.frexp(float(np.max(radius)))
    p -= mantissa == 0.5
    top = np.abs(rows).max(axis=1)
    shift = p * np.arange(len(rows))
    e = int((np.frexp(top)[1] + shift)[top > 0.0].max()) if top.any() else 0
    return np.ldexp(rows, (shift - e)[:, None]), np.ldexp(radius, -p), e


def _unscaled(x, e: int):
    """x times 2^e, undoing ``_scaled``; a norm beyond the largest float is a DomainError."""
    if e > 0 and np.max(x, initial=0.0) >= math.ldexp(1.0, 1024 - e):
        raise DomainError("the norm is beyond the largest float")
    return np.ldexp(x, e)


# -- closed form on spheres --------------------------------------------------

def sphere_extrema(b: Quaternion, c: Quaternion) -> tuple[float, float]:
    """Exact (min, max) of |b + I c| over all imaginary units I (``sphere_extrema_rows``)."""
    rows, _, e = _scaled(np.array([_coerce(b).components, _coerce(c).components]), 1.0)
    low, high = _unscaled(np.concatenate(sphere_extrema_rows(rows[:1], rows[1:])), e)
    return float(low), float(high)


def _angle_count(degree: int) -> int:
    """Grid angles of the angle search at degree N: ``_THETA_GRID``, raised to 4N + 1.

    The squared maximum is built from trigonometric polynomials of degree N,
    and the polish is local, so every local maximum needs a grid angle of its
    own near it; 4N + 1 angles put a grid step below pi / (4N). Above degree
    127 they are more than 512.
    """
    return max(_THETA_GRID, 4 * degree + 1)


def _angle_max(planes: np.ndarray, points: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The angle in [0, pi] where g = A + |U| is largest, for each plane set (m, 4, N+1).

    The planes are those of ``sphere_planes``. A grid of ``points`` angles is
    two products of ``_CHUNK_ROWS`` grid rows at a time, against a cos and a
    sin table. The ``_PEAKS`` best local grid maxima of every set (ties to the
    lower angle; g is even about 0 and pi, so the ends take mirrored
    neighbours) are then polished together by ``sphere_max_polish``, from the
    vertex of the grid parabola. Returns each set's winning angle, and for
    each polished bracket its set, and g before and after its last step.
    """
    theta = np.linspace(0.0, math.pi, points)
    turns = power_table(np.exp(1j * theta), planes.shape[2])
    cos, sin = turns.real.copy(), turns.imag.copy()
    chunk = max(1, _CHUNK_ROWS // points)
    picks = []
    for first in range(0, len(planes), chunk):
        part = planes[first:first + chunk]
        # stacked products: each set rounds the same in any batch
        u = part[:, 1:] @ sin
        grid = (part[:, :1] @ cos)[:, 0] + np.sqrt(np.einsum("rct,rct->rt", u, u))
        mirrored = np.concatenate([grid[:, 1:2], grid, grid[:, -2:-1]], axis=1)
        # the local maxima of each set, best first, ties to the lower angle
        row, col = np.divmod(np.flatnonzero((grid >= mirrored[:, :-2])
                                            & (grid >= mirrored[:, 2:])), points)
        order = np.lexsort((-grid[row, col], row))
        row, col = row[order], col[order]
        keep = np.arange(row.size) - np.searchsorted(row, row) < _PEAKS
        row, col = row[keep], col[keep]
        picks.append((row + first, col, mirrored[row, col], mirrored[row, col + 1],
                      mirrored[row, col + 2]))
    row, col, left, top, right = map(np.concatenate, zip(*picks))
    # vertex of the parabola through the three grid values; the bend is
    # negative at a local maximum unless all three are equal
    bend = np.minimum(left + right - 2.0 * top, -1e-300)
    offset = 0.5 * (left - right) / bend
    # g(pi - theta) has the planes times (-1)^d, so an angle of the upper half is
    # polished as its distance from pi: both ends then sit at 0, where sin(d theta) = 0
    upper = 2 * col > points - 1
    near = np.where(upper, points - 1 - col, col)
    flips = np.where(upper[:, None], (-1.0) ** np.arange(planes.shape[2]), 1.0)
    step = math.pi / (points - 1)
    polished, before, found = sphere_max_polish(
        planes[row] * flips[:, None, :], step * (near + np.where(upper, -offset, offset)),
        step * (near - 1.0), step * (near + 1.0), step)
    found = np.where(upper, math.pi - found, found)
    better = polished > top
    best = np.where(better, polished, top)
    at = np.where(better, found, theta[col])
    # the first bracket of each set after sorting by value: ties keep the grid rank
    order = np.lexsort((-best, row))
    pick = order[np.searchsorted(row[order], np.arange(len(planes)))]
    return at[pick], row, before, polished


def _sphere_max(f: Series, radii: np.ndarray,
                lowest: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum of |f| on the sphere of each radius, as arrays (value, gap, angle).

    The maximum over each sphere x + y S has a closed form, g = A + |U| in
    its square (``sphere_planes``), so only the angle along the half circle
    is searched, by ``_angle_max`` on a grid of ``_angle_count`` angles.
    ``value`` is the closed form on the sphere at ``angle``; ``gap`` is how
    much the last Newton step still moved it. With ``lowest`` the cosine
    plane is negated, so the search climbs -A + |U|, the negated square of
    the sphere minimum, and ``value`` is the minimum of |f| on the sphere of
    each radius.
    """
    points = _angle_count(f.degree)
    rows, radii, e = _scaled(f.rows, radii)
    value = np.full(radii.shape, Quaternion(*rows[0]).modulus())
    gap, angle = np.zeros(radii.shape), np.zeros(radii.shape)
    todo = np.flatnonzero(radii > 0.0)
    if f.degree == 0 or not todo.size:
        return _unscaled(value, e), gap, angle
    planes = sphere_planes(rows, radii[todo])
    if lowest:
        planes[:, 0] *= -1.0
    angle[todo], row, before, polished = _angle_max(planes, points)
    # the closed form at the winning angle: the value is attained on that sphere
    kernel, sign = (sphere_min_rows, -1.0) if lowest else (sphere_max_rows, 1.0)
    value[todo] = kernel(*sphere_constants(rows, radii[todo] * np.cos(angle[todo]),
                                           radii[todo] * np.sin(angle[todo])))
    # how far the last Newton step moved the value: sqrt(g) up, or sqrt(-g) down
    moved = sign * (np.sqrt(np.maximum(sign * polished, 0.0))
                    - np.sqrt(np.maximum(sign * before, 0.0)))
    np.maximum.at(gap, todo[row], moved)
    return _unscaled(value, e), _unscaled(gap, e), angle


def _circle_max(rows: np.ndarray, radius: float, points: int) -> np.ndarray:
    """Maximum of |P(radius e^{i theta})| for each complex coefficient row P (m, N+1).

    A circle maximum is a sphere maximum: with c_n = radius^n p_n and
    q_d = sum_j c_{j+d} conj(c_j), |P(z)|^2 and |P(conj z)|^2 at z = radius e^{i theta}
    are A -+ U with A = q_0 + sum_d 2 Re q_d cos(d theta) and
    U = sum_d 2 Im q_d sin(d theta). So g = A + |U| on one plane of U is the
    larger of the two on the half circle, and ``_angle_max`` finds its angle.
    The value is the larger |P| at that angle and its mirror, so it is attained.
    """
    n = np.arange(rows.shape[1])
    c = rows * radius ** n
    if n.size == 1:
        return np.abs(c[:, 0])
    q = np.stack([np.sum(c[:, d:] * c[:, :n.size - d].conj(), axis=1) for d in n], axis=1)
    planes = np.zeros((len(rows), 4, n.size))
    planes[:, 0] = np.where(n > 0, 2.0, 1.0) * q.real
    planes[:, 1] = 2.0 * q.imag
    turns = np.exp(1j * np.multiply.outer(_angle_max(planes, points)[0], n))
    return np.maximum(np.abs(np.sum(c * turns, axis=1)), np.abs(np.sum(c * turns.conj(), axis=1)))


# -- uniform norm on balls -----------------------------------------------------

def sup_norm_ball(f: Series, s: float) -> NormReport:
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
    value, gap, _ = _sphere_max(f, np.array([s]))
    value = float(value[0])
    if s == 0.0 or f.degree == 0:
        return NormReport(value, "closed-form")
    return NormReport(value, "grid+refine", {"theta": _angle_count(f.degree)},
                      _tol_floor(value, float(gap[0])))


def inf_norm_ball(f: Series, s: float) -> NormReport:
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
    with the roots near it (in the plane ``_scaled`` folds, so relative to
    the ball radius) is tried as well. ``certified_tol`` is the value
    itself when a root sphere wins, since f vanishes on that sphere, and
    otherwise how much the last Newton step still lowered the boundary value,
    floored at rounding noise. ``resolution`` holds the number of boundary
    grid angles and of root candidates in the ball.
    """
    if not 0.0 <= s < f.radius:
        raise DomainError("outside ball of validity")
    rows, t, e = _scaled(f.rows, s)
    if s == 0.0 or f.degree == 0:
        return NormReport(float(_unscaled(Quaternion(*rows[0]).modulus(), e)), "closed-form")
    # f(2^p q) 2^-e is valid up to 2^-p f.radius > t, which may overflow; the next float cannot
    g = _from_rows(rows, np.nextafter(t, np.inf), f.exact)
    (value,), (gap,), _ = _sphere_max(g, np.array([t]), lowest=True)
    roots = np.roots(symmetrization(g).rows[::-1, 0])
    near = np.abs(roots[:, None] - roots) < _ROOT_CLUSTER
    roots = np.concatenate([roots, near @ roots / near.sum(axis=1)])
    roots = roots[np.abs(roots) <= t]
    resolution = {"theta": _angle_count(f.degree), "roots": int(roots.size)}
    low = sphere_min_rows(*sphere_constants(rows, roots.real, roots.imag)).min(initial=np.inf)
    if low < value:
        low = float(_unscaled(low, e))
        return NormReport(low, "root-sphere", resolution, _tol_floor(low, low))
    value = float(_unscaled(value, e))
    return NormReport(value, "grid+refine", resolution, _tol_floor(value, float(_unscaled(gap, e))))


# -- slice norm and its supremum over units ------------------------------------

def _grid_max(rows: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest |P| on the grid of ``table`` for each complex coefficient row P, and its column.

    Scanning one component per call frees each (m, T) grid before the next is built.
    """
    grid = np.abs(rows @ table)
    col = np.argmax(grid, axis=1)
    return grid[np.arange(len(grid)), col], col


def slice_norm(f: Series, unit: UnitImaginary,
               j_unit: UnitImaginary | None = None) -> float:
    """Slice norm at a unit: hypot of the boundary maxima of the two components.

    The value does not depend on which orthogonal completion ``j_unit`` is
    used; passing one explicitly exists for exactly that check.
    """
    rows, radius, e = _scaled(f.rows, f.radius)
    alpha, beta = split_rows(rows, *_frame(unit, j_unit))
    maxima = _circle_max(np.concatenate([alpha, beta]), radius, _angle_count(f.degree))
    return float(_unscaled(np.hypot(*maxima), e))


def split_norm(f: Series) -> NormReport:
    """Supremum of the slice norm over the sphere of units.

    Real-coefficient series short-circuit: every slice then carries the same
    restriction. Otherwise a deterministic lattice of ``_SPHERE_GRID`` units is
    scanned with grid maxima of |F_I| and |G_I| on each slice, no polish. The
    ``_STARTS`` best lattice units at least 0.2 rad apart, with the scan's best
    angle of each component, start a Newton ascent on S^2 x T^2
    (``slice_norm_ascent``): the squared norm is the maximum of
    H = |F_I(z_1)|^2 + |G_I(z_2)|^2 over the unit and two angles. The value is
    sqrt(H) at the best final point, so it is attained, and it is the slice
    norm at that point's unit to rounding. The winning start is the first, in
    pick order, whose value is within rounding noise of the best.
    ``certified_tol`` is how much its last Newton step still raised sqrt(H),
    floored at rounding noise; ``resolution`` holds the lattice size, the scan's
    grid angles, the number of starts and the Newton steps of the winning start.
    """
    rows, radius, e = _scaled(f.rows, f.radius)
    if f.degree == 0:
        return NormReport(float(_unscaled(Quaternion(*rows[0]).modulus(), e)), "closed-form")
    if np.all(rows[:, 1:] == 0.0):
        value = slice_norm(f, I)
        return NormReport(value, "grid+refine",
                          {"sphere": 1, "theta": _angle_count(f.degree)}, _tol_floor(value, 0.0))
    scan_table = circle_table(radius, f.degree + 1, _THETA_GRID // 2)
    lattice = _sphere_rows(_SPHERE_GRID)
    (f_top, f_col), (g_top, g_col) = (_grid_max(part, scan_table)
                                      for part in split_rows(rows, lattice))
    scan = np.hypot(f_top, g_top)

    picks = []
    for idx in np.argsort(-scan, kind="stable"):
        if any(np.dot(lattice[idx], lattice[k]) > math.cos(0.2) for k in picks):
            continue
        picks.append(idx)
        if len(picks) >= _STARTS:
            break

    angles = (2.0 * math.pi / scan_table.shape[1]) * np.stack([f_col, g_col], axis=1)[picks]
    h, before, _, _, steps = slice_norm_ascent(rows, radius, lattice[picks], angles)
    values = np.sqrt(h)
    top = float(values.max())
    # starts often end on one slice (units I and -I) whose norms agree to rounding:
    # the first of those in pick order gives the steps and the gap, not the last bit
    best = int(np.flatnonzero(values >= top - _tol_floor(top, 0.0))[0])
    value = float(_unscaled(top, e))
    resolution = {"sphere": _SPHERE_GRID, "theta": scan_table.shape[1], "starts": len(picks),
                  "steps": int(steps[best])}
    gap = float(_unscaled(values[best] - math.sqrt(before[best]), e))
    return NormReport(value, "lattice+newton", resolution, _tol_floor(value, gap))


def mean_value_margin(f: Series, q) -> float:
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
    derivative_norm = split_norm(slice_derivative(f)).value
    return derivative_norm - evaluate(f, q).modulus() / norm_q
