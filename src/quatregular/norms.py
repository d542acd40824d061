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
maximum of that component placed in the slice of i. The supremum of the
slice norm is the maximum of one smooth function of the unit and two circle
angles, which a lattice scan starts and Newton steps finish; on each circle
angle both squared components are quadratic forms in the unit, so the scan is
a real matrix product per component, written block by block of lattice units
into one buffer that stays in cache. The starts need only the units that can
be picked: a pass on a sub-grid of the angles bounds every unit's grid maxima
(the Ehlich-Zeller bound on a trigonometric polynomial between grid nodes),
and the whole grid rows are computed for the units whose upper bound reaches
the best lower bound. Every norm takes degree ``DEGREE_CAP``
at most, so one angle grid serves every search, and its cos and sin tables
come from a cache, so repeated calls rebuild nothing. A series of effective
degree at most 1 needs no grid and no lattice: its sphere angle and its
supremum of slice norms are closed forms. So is the maximum on a sphere, and
the supremum of slice norms of a real series, wherever a point of the sphere
attains the coefficient bound sum |a_n| t^n. The minimum inside a ball comes
from the roots of the symmetrization instead of a search. Every search is
deterministic, local refinement from a grid, with a reported convergence
gap; nothing here is Monte Carlo. Each runs on the coefficients and radius
scaled by powers of two (``_scaled``), once per call, so nothing overflows
or underflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._arrays import (
    _ASCENT_STEPS,
    _CONJUGATE,
    _gamma,
    _read_only,
    circle_table,
    coefficient_bound,
    outward_bound,
    power_table,
    row_norms,
    slice_norm_ascent,
    sphere_constants,
    sphere_extrema_rows,
    sphere_max_rows,
    sphere_max_polish,
    sphere_min_rows,
    sphere_planes,
    sphere_product_rows,
    square_forms,
    star_rows,
)
from .errors import DomainError
from .quaternions import Quaternion, UnitImaginary, _require_quaternion, _sphere_rows, plain_data
from .series import Series, _require_degree_cap, _require_inside, _require_zero_at_origin, evaluate
from .series import slice_derivative
from .slices import _frame, split_rows

# degrees whose cos and sin tables of the angle grid stay cached
_TABLES = 16
# the fixed resolution: grid angles of every angle search (its local polish needs
# 4N + 1 at degree N, 241 at DEGREE_CAP), and lattice units of the split_norm scan
_THETA_GRID = 512
_SPHERE_GRID = 2048

# the angle search: local grid maxima polished per plane set, and grid rows per batch
_PEAKS = 6
_CHUNK_ROWS = 16384
# roots of f^s this close, with the ball radius folded into (1/2, 1], share a centroid
_ROOT_CLUSTER = 1e-2
# separated lattice units that start the split_norm ascent; scan block rows, dividing _SPHERE_GRID
_STARTS = 3
_SCAN_BLOCK = 256
# the sub-grid steps of the split_norm pick phase, largest first, and the least cos(N pi s / T)
# a step s may have on T scan angles at degree N
_SUB_STEPS = (8, 4, 2)
_SUB_COS = 0.9


@dataclass(frozen=True)
class NormReport:
    """A computed supremum together with how it was obtained.

    ``certified_tol`` is the refinement convergence gap, floored at rounding
    noise: for ``sup_norm_ball`` and the boundary of ``inf_norm_ball`` how
    much the last Newton step on the sphere maximum (or minimum) still moved
    the value, for a root sphere of ``inf_norm_ball`` the value itself, and for
    ``split_norm`` how much the last Newton step of the winning start still
    raised the square root of H (on a real-coefficient series, how much the last
    Newton step on the boundary sphere maximum still moved it). The floor
    scales with the series (``_tol_floor``). A "closed-form" report (radius 0,
    a series of effective degree at most 1, whose every row past the second
    is zero, or a maximum that equals the coefficient bound B = sum |a_n| t^n
    because a point of the sphere attains it, ``_attained_bound``) ran no
    grid, lattice or Newton step: it has no ``resolution`` and
    ``certified_tol`` 0.
    """

    value: float
    method: str
    resolution: dict = field(default_factory=dict)
    certified_tol: float = 0.0

    def to_dict(self) -> dict:
        return plain_data(self)


def _tol_floor(value: float, gap: float, e: int) -> float:
    """``gap`` floored at 4e-15 times the value or the 2^e ``_scaled`` folds out, if larger,
    and at +0.0: a gap of -0.0 whose floors underflow reads 0.0, not -0.0."""
    return max(0.0, gap, 4e-15 * value, math.ldexp(4e-15, e))


def _report(method: str, value, gap, e: int, resolution: dict | None = None) -> NormReport:
    """The report of a ``_scaled`` value and gap: both unfolded by 2^e, the gap floored
    (``_tol_floor``); a "closed-form" report has no resolution and ``certified_tol`` 0."""
    value = float(_unscaled(value, e))
    if method == "closed-form":
        return NormReport(value, method)
    return NormReport(value, method, resolution, _tol_floor(value, float(_unscaled(gap, e)), e))


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


def _linear(rows: np.ndarray) -> bool:
    """Effective degree at most 1: every coefficient row past the second is zero, so
    the norms have closed forms (trailing zero rows change no value)."""
    return not rows[2:].any()


def _attained_bound(rows: np.ndarray, t: float) -> float | None:
    """B(t) = sum |a_n| t^n (``coefficient_bound``) where a witness on the sphere of radius
    t attains it, so that B(t) is the maximum of |f| there to rounding; else None.

    The rows and t are those ``_scaled`` folded. At effective degree at most 1
    B(t) is attained at q = t a_0 conj(a_1) / (|a_0| |a_1|) (any q of modulus t
    where a factor is zero), with no evaluation. Real rows with one nonzero
    term, which is then past a_0 = 0, attain it at every point. On other real
    rows f(t e^{I theta}) = sum a_n t^n e^{I n theta} has modulus B(t) only
    where every term points the same way, so where the first two nonzero
    terms a_j z^j and a_k z^k do: (k - j) theta is a multiple of 2 pi where
    a_j / a_k > 0, and an odd multiple of pi where it is negative. Those are at
    most floor((k - j) / 2) + 1 angles in [0, pi], where one ``sphere_constants``
    call gives f, and B(t) counts as attained where the largest |f| is at
    least B(t) (1 - gamma_n) (``_gamma``). Computed B meets 2N roundings (the
    row norms of real rows are exact). At an aligned angle computed |f| meets
    at most 7N + 4 relative to B(t): 3 in each coordinate of z = t e^{i theta},
    so 3n in |z|^n, 3 more in each complex product of the power table, N + 1
    in the sums b and c, and 3 in the modulus; a phase error there lowers |f|
    only to second order. So n = 10 (N + 1) never misses an exact maximum.
    Quaternion rows of degree 2 or more rarely align, and are not tried.
    """
    if rows[:, 1:].any() and not _linear(rows):
        return None
    bound = float(coefficient_bound(rows, t))
    a = rows[:, 0]
    nonzero = np.flatnonzero(a)
    if _linear(rows) or nonzero.size < 2:
        return bound
    j, k = nonzero[:2].tolist()
    # where a_j / a_k < 0 the angles are the odd multiples of pi / (k - j)
    odd = int((a[j] > 0.0) != (a[k] > 0.0))
    angles = math.pi / (k - j) * np.arange(odd, k - j + 1, 2)
    # real rows give f(z) = b + i c with b and c real, the first column of the sphere constants
    b, c = sphere_constants(rows[:, :1], t * np.cos(angles), t * np.sin(angles))
    return bound if np.hypot(b, c).max() >= bound * (1.0 - _gamma(10 * len(rows))) else None


# -- closed form on spheres --------------------------------------------------

def sphere_extrema(b: Quaternion, c: Quaternion) -> tuple[float, float]:
    """Exact (min, max) of |b + I c| over all imaginary units I (``sphere_extrema_rows``)."""
    rows = np.array([_require_quaternion(b).components, _require_quaternion(c).components])
    if not np.isfinite(rows).all():
        raise DomainError("sphere constants must be finite")
    rows, _, e = _scaled(rows, 1.0)
    low, high = _unscaled(np.concatenate(sphere_extrema_rows(rows[:1], rows[1:])), e)
    return float(low), float(high)


@functools.lru_cache(maxsize=_TABLES)
def _angle_table(n_plus_one: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only grid angles of ``_angle_max``, cos(d theta), sin(d theta) and (-1)^d, d = 0..N."""
    theta = np.linspace(0.0, math.pi, _THETA_GRID)
    turns = power_table(np.exp(1j * theta), n_plus_one)
    return _read_only(theta, turns.real.copy(), turns.imag.copy(), (-1.0) ** np.arange(n_plus_one))


def _angle_max(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The angle in [0, pi] where g = A + |U| is largest, for each plane set (m, 4, N+1).

    Planes with no turn past the first (N = 1, a series of effective degree
    at most 1) have g = alpha_0 + alpha_1 cos(theta) + |u_1| sin(theta) on
    [0, pi], largest at theta* = atan2(|u_1|, alpha_1) with
    g* = alpha_0 + hypot(alpha_1, |u_1|): that angle is returned, with one
    bracket per set whose g before and after are both g*, and no grid or
    polish runs. Otherwise a grid of ``_THETA_GRID`` angles is
    two products of ``_CHUNK_ROWS`` grid rows at a time, against the cached cos
    and sin tables of ``_angle_table``, with |U| rooted and A added in place.
    The ``_PEAKS`` best local grid maxima of every set (ties to the lower angle;
    g is even about 0 and pi, so the ends take mirrored neighbours) are then
    polished together by ``sphere_max_polish``, from the vertex of the grid
    parabola. The constant cosine coefficient moves no maximiser, but on a
    sphere of radius t it is of order 1 while the rest of g is of order t, so
    the grid and the polish run on a copy without it, which still finds the
    angle where t is tiny. Returns each set's winning
    angle, and for each polished bracket its set, and g (with the constant)
    before and after its last step.
    """
    constant = planes[:, 0, 0]
    if planes.shape[2] == 2:
        alpha, swing = planes[:, 0, 1], row_norms(planes[:, 1:, 1])
        top = constant + np.hypot(alpha, swing)
        return np.arctan2(swing, alpha), np.arange(len(planes)), top, top
    planes = planes.copy()
    planes[:, 0, 0] = 0.0
    theta, cos, sin, parity = _angle_table(planes.shape[2])
    chunk = _CHUNK_ROWS // _THETA_GRID
    picks = []
    for first in range(0, len(planes), chunk):
        part = planes[first:first + chunk]
        # stacked products: each set rounds the same in any batch
        u = part[:, 1:] @ sin
        grid = np.einsum("rct,rct->rt", u, u)
        # U is the largest temporary; freed before the next chunk's, it keeps
        # the heap from growing past glibc's trim point and shrinking each call
        del u
        np.add(np.sqrt(grid, out=grid), (part[:, :1] @ cos)[:, 0], out=grid)
        mirrored = np.concatenate([grid[:, 1:2], grid, grid[:, -2:-1]], axis=1)
        # the local maxima of each set, best first, ties to the lower angle
        row, col = np.divmod(np.flatnonzero((grid >= mirrored[:, :-2])
                                            & (grid >= mirrored[:, 2:])), _THETA_GRID)
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
    upper = 2 * col > _THETA_GRID - 1
    near = np.where(upper, _THETA_GRID - 1 - col, col)
    flips = np.where(upper[:, None], parity, 1.0)
    step = math.pi / (_THETA_GRID - 1)
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
    return at[pick], row, before + constant[row], polished + constant[row]


def _folded_sphere_max(rows: np.ndarray, radii: np.ndarray,
                       lowest: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum of |f| on the sphere of each radius, as arrays (value, gap, angle).

    f is given by its coefficient rows (N+1, 4) as ``_scaled`` folds them, with
    the radii folded alike, and value and gap come out folded; no radius is
    checked against a ball. The maximum over each sphere x + y S has a closed
    form, g = A + |U| in its square (``sphere_planes``), so only the angle
    along the half circle is searched, by ``_angle_max`` on its grid of
    ``_THETA_GRID`` angles, at least 4N + 1 up to degree ``DEGREE_CAP``. At
    effective degree at most 1 (every row past the second zero) the rows are
    cut to two, so that ``_angle_max`` takes its closed form with no grid,
    and the maximum of |f| on the sphere of radius t is |a_0| + t |a_1|.
    ``value`` is the closed form on the sphere at ``angle``; ``gap`` is how
    much the last Newton step still moved it, and 0 with no grid. With
    ``lowest`` the cosine plane is negated, so the search climbs -A + |U|, the
    negated square of the sphere minimum, and ``value`` is the minimum of |f|
    on the sphere of each radius (at effective degree at most 1,
    ||a_0| - t |a_1||).
    """
    value = np.full(radii.shape, Quaternion(*rows[0]).modulus())
    gap, angle = np.zeros(radii.shape), np.zeros(radii.shape)
    todo = np.flatnonzero(radii > 0.0)
    if len(rows) == 1 or not todo.size:
        return value, gap, angle
    if _linear(rows):
        rows = rows[:2]
    planes = sphere_planes(rows, radii[todo])
    if lowest:
        planes[:, 0] *= -1.0
    angle[todo], row, before, polished = _angle_max(planes)
    # the closed form at the winning angle: the value is attained on that sphere
    kernel, sign = (sphere_min_rows, -1.0) if lowest else (sphere_max_rows, 1.0)
    value[todo] = kernel(*sphere_constants(rows, radii[todo] * np.cos(angle[todo]),
                                           radii[todo] * np.sin(angle[todo])))
    # how far the last Newton step moved the value: sqrt(g) up, or sqrt(-g) down
    moved = sign * (np.sqrt(np.maximum(sign * polished, 0.0))
                    - np.sqrt(np.maximum(sign * before, 0.0)))
    np.maximum.at(gap, todo[row], moved)
    return value, gap, angle


def _sphere_max(coeffs: np.ndarray, radii: np.ndarray,
                lowest: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_folded_sphere_max`` of the coefficient rows (N+1, 4) at the radii, folded
    here by ``_scaled`` and unfolded after, as arrays (value, gap, angle)."""
    rows, radii, e = _scaled(coeffs, radii)
    value, gap, angle = _folded_sphere_max(rows, radii, lowest)
    return _unscaled(value, e), _unscaled(gap, e), angle


def _sphere_report(rows: np.ndarray, t: float, e: int, lowest: bool = False,
                   **resolution) -> NormReport:
    """Maximum of |f| on the sphere of radius t (with ``lowest`` the minimum), as a NormReport.

    The rows and t are those ``_scaled`` folded by 2^e, so they are folded
    once. A maximum on a sphere where a witness attains the coefficient bound
    is that bound (``_attained_bound``); otherwise ``_folded_sphere_max`` runs
    on the rows as they are, and its value and gap are unfolded by
    ``_report``; the grid angles follow the given ``resolution`` entries. At
    t = 0, at effective degree at most 1, or where the bound is attained, no
    grid runs, and the report is a "closed-form" one.
    """
    if not lowest and t > 0.0 and (bound := _attained_bound(rows, t)) is not None:
        return _report("closed-form", bound, 0.0, e)
    (value,), (gap,), _ = _folded_sphere_max(rows, np.array([t]), lowest)
    method = "closed-form" if t == 0.0 or _linear(rows) else "grid+refine"
    return _report(method, value, gap, e, {**resolution, "theta": _THETA_GRID})


def _boundary_floor(rows: np.ndarray, t: float, sym: np.ndarray) -> float:
    """A lower bound of the minimum of |f| on the sphere of radius t > 0.

    The rows and t are those ``_scaled`` folded, and ``sym`` holds the
    coefficients c_n of the symmetrization f^s of those rows. On each sphere
    x + y S the minimum and the maximum of |f| multiply to
    P = |f^s(x + iy)| = hypot(|b|^2 - |c|^2, 2<b, c>) (``sphere_product_rows``),
    and the maximum is at most B(t) = sum |a_n| t^n (triangle inequality),
    taken from above (``outward_bound``). The spheres at x + iy = t e^{i theta},
    theta in [0, pi], make up the boundary, and every such angle is within half
    a grid step pi / (2 (_THETA_GRID - 1)) of an ``_angle_table`` angle, where
    ``sphere_constants`` gives b and c and so P. P moves at most
    D = sum n |c_n| t^n <= N B(t)^2 per radian, which bounds the angle
    derivative of f^s(t e^{i theta}). So the minimum is at least
    (min P - step D / 2 - gamma_n B^2) / B (``_gamma``), n = 24 (N + 1). In
    units of B^2, a computed P meets 12 roundings in its formula, and
    2 (6N + 2) from the rounding of b and c, since P is |sum (b_l + i c_l)^2|
    over the components: 3 in each complex product of the power table and
    N + 1 in the sums, times sqrt(2) for b and c together. The computed point
    x + iy lies within 3 u t of the circle and a grid angle within 7 u of its
    place, which move P by 10 N u; D's rounding costs at most N + 2 of the
    half step, and the last subtraction and the division 3. These sum to
    23N + 21.
    """
    _, cos, sin, _ = _angle_table(len(rows))
    product, _ = sphere_product_rows(*sphere_constants(rows, t * cos[1], t * sin[1]))
    n = np.arange(len(sym))
    swing = 0.5 * math.pi / (_THETA_GRID - 1) * float((n * np.abs(sym)) @ t ** n)
    bound = float(outward_bound(rows, t))
    return (float(product.min()) - swing - _gamma(24 * len(rows)) * bound * bound) / bound


# -- uniform norm on balls -----------------------------------------------------

def sup_norm_ball(f: Series, s: float) -> NormReport:
    """Maximum modulus on the closed ball of radius s.

    The maximum sits on the boundary, and the supremum over each boundary
    sphere x + y S has a closed form, so only the angle along a half circle is
    searched, by ``_folded_sphere_max`` on the rows ``_scaled`` folds (a grid,
    then Newton steps from its best local maxima). ``certified_tol`` is how
    much the last Newton step still raised the value, floored at rounding
    noise; ``resolution`` holds the number of grid angles used. Where a point
    of the sphere attains the coefficient bound B(s) = sum |a_n| s^n
    (``_attained_bound``: at effective degree at most 1, where B(s) =
    |a_0| + s |a_1|, and on real series whose terms all point one way at some
    angle) the value is B(s), in a "closed-form" report.
    """
    _require_degree_cap(f)
    _require_inside(s, f.radius)
    return _sphere_report(*_scaled(f.rows, s))


def _sphere_roots(rows: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The real coefficients of f^s = f * f^c, constant first, and its roots z = x + iy
    with |z| <= t, for the ``_scaled`` rows of f and their radius t.

    f vanishes on the sphere x + |y| S exactly when f^s vanishes at x + iy
    (Gentili-Stoppato-Struppa, 2013). A zero of f of multiplicity k is a
    2k-fold root of f^s, which the companion-matrix eigenvalues split by about
    eps^(1/2k), so the centroid of each root with the roots within
    ``_ROOT_CLUSTER`` of it (in the folded plane, so relative to the radius)
    is a root here as well. Where f^s vanishes identically there is no root.
    """
    # leading coefficients of f^s below 2^-500 of the largest move no root in the
    # folded ball beyond rounding, but their companion row would overflow
    sym = star_rows(rows, rows * _CONJUGATE)[:, 0]
    size = np.abs(sym)
    roots = np.roots(sym[np.flatnonzero(size >= math.ldexp(size.max(), -500))[-1]::-1])
    near = np.abs(roots[:, None] - roots) < _ROOT_CLUSTER
    roots = np.concatenate([roots, near @ roots / near.sum(axis=1)])
    return sym, roots[np.abs(roots) <= t]


def inf_norm_ball(f: Series, s: float) -> NormReport:
    """Minimum modulus on the closed ball of radius s.

    Two facts leave no interior search. By the minimum modulus principle
    (Gentili-Stoppato, 2009) a non-constant |f| has no local minimum off the
    zeros of f. And f vanishes on the sphere x + y S exactly when its
    symmetrization f^s = f * f^c, which has real coefficients, vanishes at
    x + iy (Gentili-Stoppato-Struppa, 2013). So the minimum is the smaller of
    the closed-form sphere minima at the roots of f^s in the ball and the
    minimum over the boundary sphere. The rows are folded once, by
    ``_scaled``, and ``_sphere_roots`` gives f^s, their ``star_rows`` product
    with their conjugate rows, and its roots in the ball, each cluster's
    centroid among them. The roots come first: when their smallest sphere
    minimum is below the proved lower bound L of the boundary minimum
    (``_boundary_floor``), the root sphere wins with no boundary search. On
    each boundary sphere the minimum and maximum of |f| multiply to |f^s| at
    its point of the circle |z| = s, and the maximum is at most
    B(s) = sum |a_n| s^n, so with D = sum n |c_n| s^n over the coefficients
    c_n of f^s and h = pi/511 the step of the 512 grid angles,
    L = (min over the grid of |f^s| - h D / 2) / B(s), with B(s) taken from
    above and Higham's gamma_n B(s)^2 taken off for rounding (n an operation
    count, ``_boundary_floor``). L is below the boundary minimum the search
    would find, so the root sphere is the one that search would also have
    lost to. Otherwise
    the boundary search (``_folded_sphere_max``, climbing -A + |U| = -min^2)
    runs, and the smaller value wins, compared folded: a DomainError means
    the minimum reported is beyond the largest float. ``certified_tol`` is
    the value itself when a root sphere wins, since f vanishes on that
    sphere, and otherwise how much the last Newton step still lowered the
    boundary value, floored at rounding noise. ``resolution`` holds the
    number of boundary grid angles and of root candidates in the ball. At
    effective degree at most 1 the boundary minimum ||a_0| - s |a_1|| comes
    from the closed-form angle, and where it wins the report is a
    "closed-form" one.
    """
    _require_degree_cap(f)
    _require_inside(s, f.radius)
    rows, t, e = _scaled(f.rows, s)
    if t == 0.0 or len(rows) == 1:
        return _sphere_report(rows, t, e, lowest=True)
    sym, roots = _sphere_roots(rows, t)
    resolution = {"theta": _THETA_GRID, "roots": int(roots.size)}
    low = sphere_min_rows(*sphere_constants(rows, roots.real, roots.imag)).min(initial=np.inf)
    gap, method = low, "root-sphere"
    # with no root in the ball no root sphere can win, and f^s may vanish identically
    if not (roots.size and low < _boundary_floor(rows, t, sym)):
        (value,), (moved,), _ = _folded_sphere_max(rows, np.array([t]), lowest=True)
        # compared folded: only the minimum reported is unfolded
        if not low < value:
            low, gap, method = value, moved, "closed-form" if _linear(rows) else "grid+refine"
    return _report(method, low, gap, e, resolution)


# -- slice norm and its supremum over units ------------------------------------

@functools.cache
def _lattice() -> tuple[np.ndarray, np.ndarray]:
    """The ``_SPHERE_GRID`` scan units and their monomials, as ``slice_square_forms`` reads them.

    Built once, on the first scan rather than at import; both are read-only.
    """
    units = _sphere_rows(_SPHERE_GRID)
    x, y, z = units.T
    monomials = np.stack([x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z, x, y, z], axis=1)
    return _read_only(units, monomials)


def _scan_forms(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The ``square_forms`` of |F_I|^2 and |G_I|^2 at each column's coefficient sum, (2, 9, T),
    each (9, T) form contiguous, so that every block product takes the fast path."""
    sums = (table.T @ rows).view(float)
    return np.ascontiguousarray(np.moveaxis(square_forms(sums, sums), 0, -1))


def _scan_rows(monomials: np.ndarray, forms: np.ndarray,
               grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid maxima of each form (2, 9, T) at each monomial row (m, 9), and their columns, (2, m).

    The (m, T) grid of a form is the product of the monomials with it, written
    into ``grid`` (``_SCAN_BLOCK`` rows of ``_THETA_GRID // 2`` cells) in blocks of
    nearly equal rows that fill at most all of it, so that a block stays in cache
    while its row maxima are taken (the first column of a tie) and a call
    allocates no grid of its own. A block of two rows or more rounds each row as
    any other block does; one row alone would take numpy's matrix-vector product,
    which rounds differently, so it runs as two.
    """
    count, points = len(monomials), forms.shape[2]
    if count == 1:
        monomials = np.repeat(monomials, 2, axis=0)
    rows = len(monomials)
    blocks = -(-rows * points // grid.size)
    edges = [rows * k // blocks for k in range(blocks + 1)]
    span = np.arange(-(-rows // blocks))
    tops, cols = np.empty((2, rows)), np.empty((2, rows), dtype=np.intp)
    for top, col, form in zip(tops, cols, forms):
        for first, last in zip(edges, edges[1:]):
            block = grid[:(last - first) * points].reshape(last - first, points)
            np.matmul(monomials[first:last], form, out=block)
            np.argmax(block, axis=1, out=col[first:last])
            top[first:last] = block[span[:last - first], col[first:last]]
    return tops[:, :count], cols[:, :count]


def _grid_tops(squares: np.ndarray) -> np.ndarray:
    """The maxima of |F_I| and |G_I| from their squares on the grid, a rounded negative as 0."""
    return np.sqrt(np.maximum(squares, 0.0))


def _lattice_scan(rows: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid maxima of |F_I| and |G_I| at each ``_lattice`` unit I, and their columns, each (2, m).

    The (m, T) grid of squares of each component is the product of the lattice
    monomials with its ``square_forms`` form at each column's coefficient sum
    (``_scan_forms``), written ``_SCAN_BLOCK`` rows at a time for T = 256 into one
    buffer (``_scan_rows``); only the row maxima take a square root.

    The package no longer calls it: ``_scan_picks`` computes just the rows it
    can pick. It stays as the whole scan that the tests and ``tools/ab.py``
    hold ``_scan_picks`` to.
    """
    _, monomials = _lattice()
    squares, cols = _scan_rows(monomials, _scan_forms(rows, table),
                               np.empty(_SCAN_BLOCK * (_THETA_GRID // 2)))
    return _grid_tops(squares), cols


def _scan_picks(rows: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``_STARTS`` greedy picks of the lattice scan and the columns of their grid maxima of
    |F_I| and |G_I|, (``_STARTS``,) and (2, ``_STARTS``), without the whole scan.

    The scan is ``_lattice_scan`` on the T = ``_THETA_GRID // 2`` angles of the
    circle of ``radius``, and a unit's value is the hypot of its two grid
    maxima. Each pick is the first unit of the largest value among the units
    left, and drops the units within 0.2 rad of it or of its antipode (I and -I
    span one slice). |F_I|^2 and |G_I|^2 are nonnegative trigonometric
    polynomials of degree at most N in the angle, so each one's maximum is at
    most its maximum on every s-th angle over c = cos(N pi s / T) (the
    Ehlich-Zeller (1964) / Riesz bound between grid nodes), and at least that.
    A pass on every s-th angle, s the largest of ``_SUB_STEPS`` with
    c >= ``_SUB_COS``, so gives each unit a floor and a ceiling of its value;
    past the degrees a sub-grid serves (N > 18), s = c = 1 and the pass is the
    whole scan. For rounding, gamma_n B^2 (``_gamma``), n = 64 (N + 4), comes
    off the floors and goes on the ceilings, B the coefficient bound, taken as
    gamma_n (N + 1) times the largest sum of a unit's two squares on the pass:
    that sum is at least the mean of |f|^2 over the spheres at those angles,
    sum |a_n|^2 R^(2n) >= B^2 / (N + 1) (Parseval, then Cauchy-Schwarz). A
    computed square is within gamma_{16N+92} B^2 of the exact one at its unit
    and grid point: a sum of the scan forms meets 6k roundings in the k-th
    power of the circle table and N + 1 in the sum, 8N + 2 relative to B, and
    a square twice that, as F_I and G_I are linear maps of norm at most 1 of
    the sums; the forms meet 64 more, their product with the monomials 18, and
    the monomials and the unit's norm 6. The grid angles lie within 13 u of
    their places, which moves a square by at most 26 N u B^2. A ceiling needs
    that error on the whole grid, and on the pass, over c >= 0.9, with the
    node error: 63N + 196 in all. A floor needs 36, for a grid cell that two
    products round each its own way. Each pick then computes the T-angle rows
    of the units left whose ceiling reaches the best floor among them, by the kernel of the whole
    scan (``_scan_rows``, so each value is the scan's to the bit), and a value
    replaces its unit's bounds. A unit left uncomputed is below the best floor,
    itself a computed value, so the pick is the scan's. The bounds pass through
    ``_grid_tops`` and the hypot as the values do, so they hold for the values
    as computed.
    """
    lattice, monomials = _lattice()
    table = circle_table(radius, len(rows), _THETA_GRID // 2)
    forms = _scan_forms(rows, table)
    degree, points = len(rows) - 1, table.shape[1]
    # the sub-grid step s and c, at most the ratio of its maxima to the grid's (1 at s = 1)
    step, cosine = next(((s, c) for s in _SUB_STEPS
                         if (c := math.cos(degree * math.pi * s / points)) >= _SUB_COS), (1, 1.0))
    grid = np.empty(_SCAN_BLOCK * points)
    squares, cols = _scan_rows(monomials, np.ascontiguousarray(forms[:, :, ::step]), grid)
    slack = _gamma(64 * (degree + 4)) * (degree + 1) * float(squares.sum(axis=0).max())
    # a unit's value once computed, else -inf; its floor, the value once computed; and its
    # ceiling, -inf once its value is computed, so that no value is computed twice
    values = np.full(len(lattice), -np.inf)
    floors = np.hypot(*_grid_tops(squares - slack))
    ceilings = np.hypot(*_grid_tops(squares / cosine + slack))
    left = np.ones(len(lattice), dtype=bool)
    picks = []
    for _ in range(_STARTS):
        todo = np.flatnonzero(left & (ceilings >= np.max(floors, where=left, initial=-np.inf)))
        if todo.size:
            fine, cols[:, todo] = _scan_rows(monomials[todo], forms, grid)
            values[todo] = floors[todo] = np.hypot(*_grid_tops(fine))
            ceilings[todo] = -np.inf
        # a unit left whose value is not computed is below the best floor, which is a value
        picks.append(int(np.argmax(np.where(left, values, -np.inf))))
        left &= np.abs(lattice @ lattice[picks[-1]]) <= math.cos(0.2)
    return np.array(picks), cols[:, picks]


def slice_norm(f: Series, unit: UnitImaginary,
               j_unit: UnitImaginary | None = None) -> float:
    """Slice norm at a unit: hypot of the boundary maxima of the two components.

    Each complex component, placed in the slice of i as the coefficient rows
    (Re, Im, 0, 0), has a sphere maximum at the boundary radius that is its
    circle maximum, so ``_folded_sphere_max`` finds it from those rows, split
    from the rows ``_scaled`` folded once. A component is not folded again:
    the larger circle maximum is at least 2^-N / (2 sqrt 2) of the folded
    scale (a Cauchy estimate), so a component small enough to underflow is
    below rounding in the hypot. The value does not depend on which
    orthogonal completion ``j_unit`` is used; passing one explicitly exists
    for exactly that check.
    """
    _require_degree_cap(f)
    rows, radius, e = _scaled(f.rows, f.radius)
    plane = np.zeros(rows.shape)
    maxima = []
    for part in split_rows(rows, *_frame(unit, j_unit)):
        plane[:, 0], plane[:, 1] = part[0].real, part[0].imag
        maxima.append(_folded_sphere_max(plane, np.array([radius]))[0][0])
    return float(_unscaled(np.hypot(*maxima), e))


def split_norm(f: Series) -> NormReport:
    """Supremum of the slice norm over the sphere of units.

    The norm lies between the maximum of |f| on the boundary sphere (the
    slice norm at the unit of a point there is at least |f| at that point)
    and B(R) = sum |a_k| R^k (``coefficient_bound``): on the slice of I write
    a_k = alpha_k + beta_k J, so |a_k|^2 = |alpha_k|^2 + |beta_k|^2; the
    circle maxima of the two components are at most sum |alpha_k| R^k and
    sum |beta_k| R^k, and Minkowski's inequality bounds their hypot by B(R).
    Two kinds of series take the sphere maximum (``_sphere_report``). At
    effective degree at most 1 (every row past the second zero) B(R) =
    |a_0| + R |a_1| is attained at q = R a_0 conj(a_1) / (|a_0| |a_1|), where
    q a_1 points along a_0 (at any q of modulus R where a_0 or a_1 is zero),
    so the value is B(R), a "closed-form" report with no resolution and
    ``certified_tol`` 0. A real-coefficient series restricts to every slice
    as one holomorphic function, so every slice norm is the sphere maximum:
    B(R) in a "closed-form" report where the terms all point one way at some
    angle (``_attained_bound``), and otherwise from the grid, with the gap of
    its last Newton step in ``certified_tol``.

    Otherwise the squared norm is the maximum of H = |F_I(z_1)|^2 + |G_I(z_2)|^2
    over the unit I and the angles of z_1, z_2 on the boundary circle; at each
    angle both squares are quadratic forms in I (``slice_square_forms``). The
    ``_SPHERE_GRID`` units of a lattice are scanned with grid maxima of |F_I|
    and |G_I| on 256 angles, no polish, each component's grid the product of
    the lattice monomials with nine coefficients per angle. The ``_STARTS``
    best lattice units on distinct slices, no two within 0.2 rad of each other
    or of each other's antipode (I and -I span one slice), with the scan's
    best angle of each component, start a Newton ascent of H
    (``slice_norm_ascent``). They come from ``_scan_picks``, which computes
    the 256-angle rows of just the units that can be picked: a pass on every
    s-th angle bounds each unit's grid maxima above and below (Ehlich-Zeller),
    so the picks and their angles are the whole scan's, from far fewer rows.
    The value is sqrt(H) at the best final point, so
    it is attained, and it is the slice norm at that point's unit to rounding.
    The winning start is the first, in pick order, whose value is within
    rounding noise of the best. ``certified_tol`` is how much its last Newton
    step still raised sqrt(H), floored at rounding noise. If that start spent all
    ``_ASCENT_STEPS`` steps it may have stopped short, so ``certified_tol`` is
    then at least B(R) - value, by the bound above, with B(R) taken from
    above (``outward_bound``, n = 10N + 21). ``resolution`` holds
    the lattice size, the scan's grid angles, the number of starts and the
    Newton steps of the winning start.
    """
    _require_degree_cap(f)
    rows, radius, e = _scaled(f.rows, f.radius)
    if _linear(rows) or not rows[:, 1:].any():
        return _sphere_report(rows, radius, e, sphere=1)
    lattice, _ = _lattice()
    picks, cols = _scan_picks(rows, radius)
    points = _THETA_GRID // 2
    h, before, _, _, steps = slice_norm_ascent(rows, radius, lattice[picks],
                                               (2.0 * math.pi / points) * cols.T)
    values = np.sqrt(h)
    top = float(values.max())
    # starts often end on one slice (at I or -I) whose norms agree to rounding:
    # the first of those in pick order gives the steps and the gap, not the last bit
    best = int(np.flatnonzero(values >= top - _tol_floor(top, 0.0, 0))[0])
    resolution = {"sphere": _SPHERE_GRID, "theta": points, "starts": len(picks),
                  "steps": int(steps[best])}
    gap = values[best] - math.sqrt(before[best])
    if steps[best] == _ASCENT_STEPS:
        # an ascent cut by its budget may stop short: its miss is at most B(R) - value
        gap = max(gap, outward_bound(rows, radius) - top)
    return _report("lattice+newton", top, gap, e, resolution)


def mean_value_margin(f: Series, q) -> float:
    """Slack of the mean value bound at q: norm of the derivative minus |f(q)|/|q|.

    Nonnegative (up to the certified tolerance) whenever f vanishes at the
    origin, which is a stated precondition: a PreconditionError is raised
    when any component of a_0 is nonzero, however small.
    """
    q = _require_quaternion(q)
    _require_degree_cap(f)
    _require_zero_at_origin(f)
    norm_q = q.modulus()
    if norm_q == 0.0 or not norm_q < f.radius:
        raise DomainError("point must satisfy 0 < |q| < radius")
    derivative_norm = split_norm(slice_derivative(f)).value
    return derivative_norm - evaluate(f, q).modulus() / norm_q
