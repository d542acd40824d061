"""Image coverage machinery: the pinched open set, its inscribed discs, the
coverage radius formula, fourth-root lifting, and the constructive search for
a Bloch-Landau type lower bound on the coverage radius of regular translations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._arrays import _CONJUGATE, _ROUNDOFF, _gamma, _sphere_squares, coefficient_bound
from ._arrays import eval_rows, qmul_rows, row_norms, sphere_constants, star_rows
from .errors import DomainError, NumericalSearchError, PreconditionError
from .norms import _scaled, _sphere_max, _sphere_roots, split_norm
from .norms import sup_norm_ball  # noqa: F401  (kept bound: callers read bloch.sup_norm_ball)
from .quaternions import ALGEBRA_TOL, I as CANONICAL_I
from .quaternions import Quaternion, UnitImaginary, _require_quaternion, _require_unit
from .quaternions import _slice_point, plain_data
from .series import Series, _from_rows, _require_degree_cap, _require_inside
from .series import _require_zero_at_origin, slice_derivative
from .slices import regular_translation

_MU_GRID = 1024
# the mu root: mu(s) counts as reaching r from r - _MU_TOL, and the root bracket
# closes at this width, or at _MU_REL times its upper end where that is smaller
_MU_TOL = 1e-12
_MU_REL = 1e-10
# every _MU_STRIDE-th radius of the mu-profile grid, and its last, make the coarse pass
_MU_STRIDE = 32
# a root batch interpolates through this many evaluated points nearest its bracket, and
# the first batch takes them from the grid points within this many of the first crossing
_ROOT_NODES = 10
# the relative shrink of the set coverage_report samples
_SHRINK = 1e-3
_NEWTON_STEP = 1e-6
_NEWTON_MAX_ITER = 200
_RESIDUAL_TOL = 1e-8
# attain's probes step +- _NEWTON_STEP along each axis; -0.0 elsewhere, as q + -0.0 is q
_PROBE_OFFSETS = np.full((8, 4), -0.0)
_PROBE_OFFSETS[np.arange(8), np.arange(8) // 2] = np.tile([_NEWTON_STEP, -_NEWTON_STEP], 4)
# points of the circles that inscribed_disc_margin sweeps and parseval_mean averages over
_CIRCLE_POINTS = 4096


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of certifying that sampled points of the pinched set are attained."""

    rho: float
    samples: int
    hits: int
    max_residual: float
    misses: list
    ball_radius: float
    seed: int

    def to_dict(self) -> dict:
        return plain_data(self)


@dataclass(frozen=True)
class SearchReport:
    """Result of the constructive coverage-radius search at a working radius r."""

    r: float
    R_r: float
    w: Quaternion
    rotation: Quaternion
    rho_r: float
    f_w: Quaternion
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return plain_data(self)


# -- the pinched set -----------------------------------------------------------

def _check_rho(rho: float) -> None:
    if not 0.0 < rho < math.inf:
        raise DomainError("rho must be positive and finite")


def _oset_rows(points: np.ndarray, rho: float) -> np.ndarray:
    """Strict membership |q|^3 < rho |Re q|^2 of each row (m, 4) of ``points``.

    The rows and rho are first scaled by 2^-e, e the frexp exponent of rho. The
    scaling is exact, so the decision depends on q/rho alone, and the cube and
    the squares stay in range while |q| is within a factor of about 1e100 of rho.
    A point that overflows is far outside the set and is correctly left out.
    """
    e = math.frexp(rho)[1]
    rho = math.ldexp(rho, -e)
    with np.errstate(over="ignore"):
        x = np.ldexp(points, -e)
        return np.sqrt(np.sum(x * x, axis=1)) ** 3 < rho * x[:, 0] * x[:, 0]


def in_oset(q, rho: float) -> bool:
    """Strict membership |q|^3 < rho |Re q|^2. Membership forces |q| < rho."""
    _check_rho(rho)
    return bool(_oset_rows(np.array([_require_quaternion(q).components]), rho)[0])


def _cos_sin_turn(k: int, n: int) -> tuple[float, float]:
    """cos and sin of the angle 2 pi k / n, exact at quarter turns."""
    k %= n
    if 4 * k % n == 0:
        quarter = 4 * k // n
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[quarter]
    angle = 2.0 * math.pi * k / n
    return math.cos(angle), math.sin(angle)


def oset_slice_curve(rho: float, n: int) -> list[tuple[float, float]]:
    """n points of the figure-eight boundary (x^2+y^2)^{3/2} = rho x^2 in a slice.

    In polar form the curve is radius = rho cos^2(angle); points are emitted
    in increasing polar angle, passing exactly through (rho, 0), the origin,
    and (-rho, 0) whenever the quarter turns land on the grid.
    """
    _check_rho(rho)
    if n < 16:
        raise DomainError("need at least 16 points to outline the curve")
    points = []
    for k in range(n):
        cos_a, sin_a = _cos_sin_turn(k, n)
        radius = rho * cos_a * cos_a
        points.append((radius * cos_a, radius * sin_a))
    return points


def inscribed_disc_margin(rho: float, unit: float = 1.0) -> float:
    """Worst slack of rho x^2 - (x^2+y^2)^{3/2} on the inscribed disc boundary.

    The disc has centre (rho/2, 0) and radius 37/256 rho^2; a positive margin
    at every swept boundary point certifies the disc sits strictly inside the
    right lobe of the pinched set's slice cross-section. Lengths are measured
    in units of ``unit``, and the slack in units of its cube.
    """
    _check_rho(rho)
    if not 0.0 < unit < math.inf:
        raise DomainError("unit must be positive and finite")
    lobe = rho / unit
    disc_radius = (37.0 / 256.0) * rho * lobe
    ts = np.linspace(0.0, 2.0 * math.pi, _CIRCLE_POINTS, endpoint=False)
    x = lobe / 2.0 + disc_radius * np.cos(ts)
    y = disc_radius * np.sin(ts)
    margins = lobe * x * x - (x * x + y * y) ** 1.5
    return float(margins.min())


def inscribed_disc_check(rho: float) -> bool:
    """Whether the disc of radius 37/256 rho^2 centred at (rho/2, 0) fits.

    Verified by sweeping the disc boundary in units of rho, where the margin,
    about rho^3/8 in absolute terms, cannot underflow. The symmetric disc at
    (-rho/2, 0) follows by the x -> -x symmetry of the cross-section.
    """
    if rho > 1.0:
        warnings.warn("claim verified only for rho <= 1 by this artifact",
                      stacklevel=2)
    return inscribed_disc_margin(rho, unit=rho) > 0.0


# -- coverage radius and fourth-root lifting ------------------------------------

def _lemma_radius(radius: float, a: float, norm: float) -> float:
    """The coverage lemma's radius R a^2 / (4 ||f'||), from the ball radius R, the real slice
    derivative a at the origin and the norm ||f'||.

    The product (R a) a and the quotient are taken on the frexp mantissas and
    scaled by the power of two they leave out: no step underflows or
    overflows, and a result in the normal range has the bits of
    (R a) a / (4 ||f'||) taken directly.
    """
    (radius, p), (a, e), (norm, g) = map(math.frexp, (radius, a, norm))
    with np.errstate(over="ignore"):
        return float(np.ldexp(radius * a * a / (4.0 * norm), p + 2 * e - g))


def rho_lemma(f: Series) -> float:
    """Coverage radius radius*|f'(0)|^2 / (4 ||f'||) for f with f(0) = 0.

    The formula is ``_lemma_radius``, which ``bl_search`` takes for its
    ``rho_r`` too. Raises PreconditionError when any component of f(0) is
    nonzero, however small, or when the derivative at the origin is not real;
    returns zero when that derivative vanishes, in which case there is nothing
    to certify.
    """
    _require_degree_cap(f)
    _require_zero_at_origin(f)
    a1 = f.rows[1].tolist() if f.degree >= 1 else [0.0] * 4
    if any(a1[1:]):
        raise PreconditionError("requires a real slice derivative at the origin")
    if a1[0] == 0.0:
        return 0.0
    return _lemma_radius(f.radius, a1[0], split_norm(slice_derivative(f)).value)


def _nonreal_rows(rows: np.ndarray) -> np.ndarray:
    """Indices of the rows whose imaginary part has a norm above 1e-12 of the largest row
    norm (at least 1), both ``row_norms``; 1e-12 scales the rows, so the bound stays finite."""
    threshold = max(1e-12, float(row_norms(1e-12 * rows).max()))
    return np.flatnonzero(row_norms(rows[:, 1:]) > threshold)


def g_series(f: Series, c) -> Series:
    """Symmetrization of 1 - f c^{-1}: a real-coefficient series with value 1 at 0.

    Its modulus squares to that of 1 - f c^{-1} on each sphere, which turns
    statements about the excluded value c into statements about a slice
    preserving function. Raises PreconditionError when any component of f(0)
    is nonzero, however small, and DomainError when c is zero.
    """
    c = _require_quaternion(c)
    if not any(c.components):
        raise DomainError("excluded value must be nonzero")
    _require_zero_at_origin(f)
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.concatenate([[(1.0, 0.0, 0.0, 0.0)],
                               -qmul_rows(f.rows[1:], np.array(c.inverse().components))])
        sym = star_rows(base, base * _CONJUGATE)
    sym = _from_rows(sym, f.radius).rows  # a Series checks every coefficient is finite
    nonreal = _nonreal_rows(sym)
    if nonreal.size:
        raise NumericalSearchError(
            f"symmetrization coefficient {nonreal[0]} has a nonreal part beyond tolerance")
    # the real parts, with the +0.0 imaginary parts of a real coefficient
    return _from_rows(np.pad(sym[:, :1], ((0, 0), (0, 3))), f.radius)


def fourth_root_series(g: Series) -> Series:
    """Truncated fourth root of a real series with constant term 1.

    Solves 4 g p' = g' p coefficientwise, the differential identity satisfied
    by p = g^{1/4}; the truncation matches g through its own degree, so the
    star fourth power reproduces g coefficientwise there.
    """
    nonreal = _nonreal_rows(g.rows)
    if nonreal.size:
        raise PreconditionError(f"requires real coefficients (coefficient {nonreal[0]} is not)")
    gs = g.rows[:, 0].tolist()
    if abs(gs[0] - 1.0) > ALGEBRA_TOL:
        raise PreconditionError("requires constant term 1")
    gs[0] = 1.0
    top = len(gs) - 1
    p = [1.0] + [0.0] * top
    for n in range(top):
        lhs = sum((k + 1) * gs[k + 1] * p[n - k] for k in range(n + 1) if k + 1 <= top)
        rhs = 4.0 * sum((n + 1 - k) * gs[k] * p[n + 1 - k] for k in range(1, n + 1))
        p[n + 1] = (lhs - rhs) / (4.0 * (n + 1))
    return _from_rows(np.pad(np.array(p)[:, None], ((0, 0), (0, 3))), g.radius)


def parseval_mean(psi: Series, r: float,
                  unit: UnitImaginary = CANONICAL_I) -> tuple[float, float]:
    """Circle mean of |psi|^2 against the coefficient sum it must equal.

    Returns (quadrature value, sum of r^{2m} |coefficient_m|^2). The periodic
    trapezoid rule is spectrally accurate here, and the identity holds for
    arbitrary quaternion coefficients because the circle average kills every
    cross term regardless of the constant factors on either side.
    """
    unit = _require_unit(unit)
    _require_inside(r, psi.radius)
    thetas = 2.0 * math.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS
    z = r * np.exp(1j * thetas)
    # psi(x + y I) = b + I c with the sphere constants of x + iy
    b, c = sphere_constants(psi.rows, z.real, z.imag)
    vals = b + qmul_rows(np.array(unit.components), c)
    integral = float(np.mean(np.sum(vals * vals, axis=1)))
    powers = r ** (2.0 * np.arange(psi.degree + 1))
    coeff_sum = float(np.sum(powers * np.sum(psi.rows * psi.rows, axis=1)))
    return integral, coeff_sum


# -- numerical attainment certificates ------------------------------------------

def _require_seed(seed: int) -> None:
    """A DomainError for a negative seed, which numpy's generators refuse."""
    if seed < 0:
        raise DomainError("the seed cannot be negative")


def attain(f: Series, target, ball_radius: float) -> Quaternion | None:
    """Try to exhibit a preimage of ``target`` inside the open ball.

    The zeros of f - target lie on the spheres x + |y| S where the real
    coefficient polynomial (f - target)^s vanishes at x + iy
    (Gentili-Stoppato-Struppa, 2013), and ``norms._sphere_roots`` finds those
    roots in the ball, on the rows ``_scaled`` folds. On each such sphere
    f - target = b + I c, with (b, c) its sphere constants, is smallest at the
    unit I along -Im(b conj(c)) (``_sphere_squares``), or at ``CANONICAL_I``
    where that vector is 0 (a spherical zero, where f - target vanishes on the
    whole sphere). Those points are the starts, tried in order of their
    residual |f(q) - target| (a stable sort); where f - target vanishes
    identically the origin is the one start. Damped Newton on the four real
    variables, with a central difference Jacobian and Armijo backtracking,
    polishes each start in turn. Success means residual below 1e-8 at a point
    strictly inside the ball; returning None proves nothing. A target beyond
    the reach of f on the ball has no root sphere there, so it gets None with
    no evaluation. A target with a non-finite component, or a series above
    ``DEGREE_CAP``, raises DomainError.
    """
    _require_degree_cap(f)
    target = _require_quaternion(target)
    if ball_radius > f.radius:
        raise DomainError("search ball cannot exceed the ball of validity")
    if not ball_radius > 0.0:
        raise DomainError("search ball radius must be positive")
    goal = np.array(target.components)
    if not np.isfinite(goal).all():
        raise DomainError("target must be finite")
    # halved, so a_0 - target cannot overflow; _scaled folds the rows by a power of two again
    rows, t, _ = _scaled(np.concatenate([0.5 * f.rows[:1] - 0.5 * goal, 0.5 * f.rows[1:]]),
                         ball_radius)
    _, roots = _sphere_roots(rows, t)
    x, y = roots.real, np.abs(roots.imag)
    axis = -np.stack(_sphere_squares(*sphere_constants(rows, x, y))[3:], axis=1)
    axis[row_norms(axis) == 0.0] = CANONICAL_I.components[1:]
    starts = np.column_stack([x, y[:, None] * axis / row_norms(axis)[:, None]]) * (ball_radius / t)
    if not rows.any():  # f is the target everywhere
        starts = np.zeros((1, 4))
    if not len(starts):
        return None

    def residual(points: np.ndarray) -> np.ndarray:
        return eval_rows(f.rows, points) - goal

    first = residual(starts)
    first_norms = row_norms(first)
    order = np.argsort(first_norms, kind="stable")
    for q, res, res_norm in zip(starts[order], first[order], first_norms[order].tolist()):
        for _ in range(_NEWTON_MAX_ITER):
            if res_norm < 1e-10:
                break
            vals = eval_rows(f.rows, q + _PROBE_OFFSETS)
            jac = (vals[0::2] - vals[1::2]).T / (2.0 * _NEWTON_STEP)
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            lam = 1.0
            while lam > 1e-8:
                trial = q + lam * step
                trial_res = residual(trial[None])[0]
                trial_norm = float(np.linalg.norm(trial_res))
                if trial_norm <= (1.0 - 1e-4 * lam) * res_norm:
                    q, res, res_norm = trial, trial_res, trial_norm
                    break
                lam *= 0.5
            else:  # no step length was accepted
                break
        if res_norm < _RESIDUAL_TOL and np.linalg.norm(q) < ball_radius:
            return Quaternion(*q.tolist())
    return None


def coverage_report(f: Series, rho: float, samples: int, seed: int = 0) -> CoverageReport:
    """Sample the strict interior of the pinched set and certify attainment.

    Points are rejection sampled from the set with radius rho*(1 - 1e-3),
    drawn from ``seed``, then handed to :func:`attain` on the whole ball of
    validity, which starts its Newton polish at the zeros of f - target.
    Misses are reported as data, never dropped; a miss is a failed
    certificate, not a disproof. A negative seed, or a series above
    ``DEGREE_CAP``, raises DomainError.
    """
    _require_degree_cap(f)
    if samples < 0:
        raise DomainError("the sample count cannot be negative")
    _require_seed(seed)
    _check_rho(rho)
    shrunk = rho * (1.0 - _SHRINK)
    rng = np.random.default_rng(seed)
    targets: list[np.ndarray] = []
    attempts = 0
    while len(targets) < samples:
        attempts += 1
        if attempts > 10000:
            raise NumericalSearchError("rejection sampling failed to fill the request",
                                       {"accepted": len(targets)})
        batch = rng.standard_normal((4096, 4))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        radii = shrunk * rng.random(4096) ** 0.25
        batch *= radii[:, None]
        targets.extend(batch[_oset_rows(batch, shrunk)])
    targets = targets[:samples]

    hits = 0
    max_residual = 0.0
    misses: list[Quaternion] = []
    for t in targets:
        point = Quaternion(*t.tolist())
        root = attain(f, point, f.radius)
        if root is None:
            misses.append(point)
            continue
        hits += 1
        residual = row_norms(eval_rows(f.rows, np.array([root.components])) - t)
        max_residual = max(max_residual, float(residual[0]))
    return CoverageReport(rho, samples, hits, max_residual, misses, f.radius, seed)


# -- the constructive search -----------------------------------------------------

def _coarse_points(size: int) -> np.ndarray:
    """Grid indices of the coarse pass: every ``_MU_STRIDE``-th of ``size`` and the last."""
    coarse = np.arange(0, size, _MU_STRIDE)
    return coarse if coarse[-1] == size - 1 else np.append(coarse, size - 1)


def _chord_sup(r: float, s_a: np.ndarray, s_b: np.ndarray,
               upper_a: np.ndarray, upper_b: np.ndarray) -> np.ndarray:
    """The supremum of mu(s) = s M(r - s) on each cell [s_a, s_b] that the chord of log M
    in log t gives, from bounds ``upper_a`` >= M(r - s_a) and ``upper_b`` >= M(r - s_b).

    log M is convex in log t, so with t_b = r - s_b and beta the slope of the
    chord through the two bounds, M(r - s) <= upper_b ((r - s) / t_b)^beta on
    the cell. s (r - s)^beta is concave in log for beta > 0, largest at
    s = r / (1 + beta), clipped to the cell, and increases in s for beta <= 0,
    so its supremum is at s_b there (the clip would pick s_a for beta < -1).
    A cell with t_b = 0 has no chord and gets inf; an inf bound can give nan.
    """
    t_a, t_b = r - s_a, r - s_b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta = np.log(upper_a / upper_b) / np.log(t_a / t_b)
        s = np.where(beta > 0.0, np.clip(r / (1.0 + beta), s_a, s_b), s_b)
        chord = s * upper_b * ((r - s) / t_b) ** beta
    return np.where(t_b > 0.0, chord, np.inf)


def _first_crossing(derivative: Series, r: float, grid: np.ndarray,
                    norms: list[float]) -> tuple[int, float, np.ndarray]:
    """The first grid point s with mu(s) = s M(r - s) >= r, the angle of the sphere of
    radius r - s where M(r - s) is attained, and mu; ``norms`` are the ``_term_norms`` of f'.

    M(t) is the maximum of |f'| on the ball of radius t. Two upper bounds
    of mu on a cell (s_a, s_b] of the grid, t_a = r - s_a and t_b = r - s_b,
    show which cells cannot hold the first crossing:

    - the coefficient bound s_b B(t_a), with B(t) = sum |b_k| t^k over the
      coefficients b_k of f' (triangle inequality, ``coefficient_bound``),
      times 1 + 1e-12 for rounding. It needs no evaluation;
    - the chord bound (``_chord_sup``): on each slice f'_I = F + G J with F
      and G holomorphic, so log|f'_I| is subharmonic and, by Hadamard's
      three-circles theorem (Ransford, Potential Theory in the Complex Plane,
      1995), the log of its circle maximum is convex in log t. M is the
      largest of these maxima over the slices, so log M is convex in log t,
      and below its chord on the cell. The last cell, where t_b = 0, has no
      chord.

    B is taken once, on every grid radius. Take the first grid point s_j whose
    own bound s_j B(r - s_j) (1 + 1e-12) reaches r - ``_MU_TOL``: mu is below
    that at every point before it. Where j > 0 and the lower bound of
    ``_mu_bounds`` at s_j reaches it too, the two bounds decide the first
    crossing, and the search is settled: its first crossing is s_j, at angle
    0, and nothing is evaluated. That holds at the last point, s = r, whenever
    every point before it falls short, and at an earlier one for a binomial
    f' = 1 + b_k q^k, whose bounds meet. A bound that is not a number (an inf B
    at s = 0) reaches r there, and so settles nothing.
    Otherwise the evaluated bounds use U = M + gap + 1e-12 M in place of M, the gap
    being what ``_sphere_max`` left. The chord bound covers the monotone bound
    s_b U_a (by the maximum modulus principle, Gentili-Stoppato, M does not
    decrease with t): where U_a >= U_b the chord's slope beta is at least 0,
    and on the cell s U_b ((r - s) / t_b)^beta <= s_b U_b (t_a / t_b)^beta =
    s_b U_a. U_a < U_b only where M is flat across the cell to within its gap,
    and leaving out a valid bound can only open a cell, never move the first
    crossing. The leading cells whose coefficient bound falls short of
    r - ``_MU_TOL`` are dropped, and a coarse pass evaluates every
    ``_MU_STRIDE``-th grid point and the last from the first cell left: the
    last cell is always left, as mu(r) = r. A second pass evaluates the points
    of the cells up to the first coarse crossing whose least bound reaches
    r - ``_MU_TOL``: as long as each M is found to within its gap, the first
    crossing is then that of the whole profile, from the same evaluations. A
    bound that is not a number (from an M or B past the floats) prunes
    nothing. The returned mu holds mu at the grid points evaluated and -inf
    elsewhere, so a settled search returns it all -inf. The whole profile is
    evaluated only for the
    ``NumericalSearchError`` raised when it never meets r or meets it at
    s = 0, whose ``mu_profile`` diagnostics hold the pairs (s, mu(s)).
    """
    # mu on the grid points evaluated so far, -inf elsewhere
    mu = np.full(grid.size, -np.inf)
    target = r - _MU_TOL
    # B(r - s) at every grid point; s (1 + 1e-12) < 1, so only an inf B makes a bound inf
    bound = coefficient_bound(derivative.rows, r - grid)
    with np.errstate(invalid="ignore"):  # 0 inf at s = 0 is nan, and reaches target there
        # the first grid point whose upper bound s B(r - s) (1 + 1e-12) reaches target
        first = int(np.argmin(grid * (1.0 + 1e-12) * bound < target))
    if first > 0 and _mu_bounds(norms, r, float(grid[first]))[0] >= target:
        return first, 0.0, mu
    angles = np.zeros(grid.size)

    def profile(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate mu at the grid points ``idx`` in one batch; returns M and its gaps."""
        maxima, gap, angles[idx] = _sphere_max(derivative.rows, r - grid[idx])
        mu[idx] = grid[idx] * maxima
        return maxima, gap

    # not np.union1d: numpy's set routines import numpy.ma, about 1 MB more RSS
    coarse = _coarse_points(grid.size)
    # s_b B(t_a) (1 + 1e-12) on each cell
    reach = grid[coarse[1:]] * (1.0 + 1e-12) * bound[coarse[:-1]]
    # the first cell the coefficient bound leaves; nan leaves it too
    start = int(np.argmin(reach < target))
    coarse = coarse[start:]
    maxima, gap = profile(coarse)
    upper = maxima + gap + 1e-12 * maxima
    lows, highs = coarse[:-1], coarse[1:]
    chord = _chord_sup(r, grid[lows], grid[highs], upper[:-1], upper[1:])
    # np.fmin skips a nan bound
    least = np.fmin(chord, reach[start:])
    crossed = np.flatnonzero(mu[highs] >= target)
    last = crossed[0] + 1 if crossed.size else highs.size
    cells = np.flatnonzero(least[:last] >= target)
    if cells.size:
        profile(np.concatenate([np.arange(lows[k] + 1, highs[k]) for k in cells]))
    crossing = np.flatnonzero(mu >= target)
    if crossing.size == 0 or crossing[0] == 0:
        message = ("no s with mu(s) = r on the grid" if crossing.size == 0
                   else "degenerate working radius: the profile meets r at s = 0")
        profile(np.arange(grid.size))
        raise NumericalSearchError(message, {"mu_profile": np.stack([grid, mu], axis=1).tolist()})
    first = int(crossing[0])
    return first, float(angles[first]), mu


def _neville(s: list[float], mu: list[float], target: float) -> list[float]:
    """x_1, x_2, ...: x_n is the s at mu = ``target`` of the polynomial in mu of degree
    below n through the first n pairs (mu_i, s_i), all from one Neville tableau; nan
    from the first n at which two of those mu agree."""
    column = list(s)
    estimates = column[:1]
    for order in range(1, len(column)):
        for i in range(len(column) - order):
            m_i, m_j = mu[i], mu[i + order]
            column[i] = (((target - m_j) * column[i] + (m_i - target) * column[i + 1])
                         / (m_i - m_j) if m_i != m_j else math.nan)
        estimates.append(column[0])
    return estimates


def _root_points(lo: float, hi: float, known_s: np.ndarray, known_mu: np.ndarray,
                 target: float, width: float) -> np.ndarray:
    """The sorted points inside (lo, hi) that one root batch evaluates.

    They are the 15 interior points of ``np.linspace(lo, hi, 17)``, which alone
    shrink the bracket 16 times, and up to three interpolated ones. The
    ``_ROOT_NODES`` evaluated points (``known_s``, ``known_mu``) nearest the
    bracket, nearest first, give by inverse interpolation the estimates x_n of
    s at mu = ``target`` (``_neville``): x_n through the n nearest. At the
    highest n at which x_n and x_{n-1} both fall inside (lo, hi), the batch
    adds x_n and x_n -+ delta, delta = max(2 |x_n - x_{n-1}|, ``width`` / 4),
    ``width`` being the one at which the bracket closes, so that the crossing
    is bracketed closely; where no order qualifies, the even points alone
    make the batch.
    """
    points = np.linspace(lo, hi, 17)[1:-1]
    near = np.argsort(np.maximum(lo - known_s, known_s - hi), kind="stable")[:_ROOT_NODES]
    estimates = _neville(known_s[near].tolist(), known_mu[near].tolist(), target)
    inside = [lo < x < hi for x in estimates]
    n = next((n for n in range(len(estimates) - 1, 0, -1) if inside[n] and inside[n - 1]), 0)
    if n:
        x = estimates[n]
        delta = max(2.0 * abs(x - estimates[n - 1]), width / 4)
        extra = np.array([x - delta, x, x + delta])
        points = np.sort(np.concatenate([points, extra[(extra > lo) & (extra < hi)]]))
        # not np.unique, which imports numpy.ma
        points = points[np.append(True, np.diff(points) > 0.0)]
    return points


def _term_norms(rows: np.ndarray) -> list[float]:
    """|b_0|, |b_1|, ... of the coefficient rows of f', with |b_1| = 0 for a constant f'."""
    return row_norms(rows).tolist() + [0.0]


def _leading(norms: list[float]) -> int:
    """The index k >= 1 of the leading term b_k of f', the first with |b_k| > 0 (1 if none)."""
    return next((k for k, norm in enumerate(norms[1:], 1) if norm > 0.0), 1)


def _mu_bounds(norms: list[float], r: float, s: float) -> tuple[float, float]:
    """A lower and an upper bound of mu(s) = s M(r - s) at s in [0, r], from the norms
    |b_i| of the coefficients of f', where b_0 = 1.

    With b_k the leading term (``_leading``) and t = r - s, the triangle
    inequality gives M(t) <= B(t) = sum |b_i| t^i, and at the witness
    q_t = t u, u^k b_k = |b_k|, where q_t^k b_k = t^k |b_k| is real,
    M(t) >= |f'(q_t)| >= 1 + |b_k| t^k - sum_{i>k} |b_i| t^i. Evaluated by
    Horner's rule after t^k, a term of either bound meets at most 2N + 5
    roundings, N the degree of f' (three of them in its norm), so each computed
    bound is within gamma_{2N+5} s B(t) of its value: gamma_{2N+10} s B(t)
    (``_gamma``) is taken off the lower and put on the upper, which also
    covers the roundings of that allowance and any term that underflows (a
    settled search has r > ``_MU_TOL``). For s in [r/2, r], t is exact; below
    r/2 the lower bound takes t one float down and the upper one float up,
    which covers the rounding of t, as M does not decrease in t.
    """
    k = _leading(norms)
    n = 2 * len(norms) + 8

    def bounds(t: float) -> tuple[float, float]:
        power = t
        for _ in range(k - 1):
            power *= t
        tail = 0.0
        for norm in reversed(norms[k + 1:]):
            tail = tail * t + norm
        tail *= power * t
        head = norms[0] + norms[k] * power
        slack = _gamma(n) * s * (head + tail)
        return s * (head - tail) - slack, s * (head + tail) + slack

    t = r - s
    if r <= 2.0 * s:
        return bounds(t)
    return bounds(math.nextafter(t, 0.0))[0], bounds(math.nextafter(t, math.inf))[1]


def _bound_bracket(norms: list[float], r: float, lo: float, hi: float,
                   target: float) -> tuple[float, float]:
    """The sub-bracket of (lo, hi], the grid cell of the first crossing
    (``_first_crossing``), that the bounds of ``_mu_bounds`` close around the mu-root,
    with no sphere search.

    Without its terms past the leading one b_k, mu(r - t) = (r - t)(1 + |b_k| t^k)
    is the model of mu. For k = 1 it meets ``target`` at one t > 0, where it
    rises in s at the slope sqrt(d^2 + 4 |b_1| c), d = r |b_1| - 1 and
    c = r - ``target``; for k >= 2, bisection in s on the cell finds where it
    meets ``target`` there (an end of the cell where it does not), and the
    slope is the model's derivative. The two points that stand off r - t by
    twice the spread of the bounds there over that slope, or by 0.45 of the
    root's width where that is less, become the ends where they lie strictly
    inside (lo, hi), the upper bound is below ``target`` at the lower one and
    the lower bound reaches it at the upper one. An end that fails stays as it
    is. The bounds differ by their rounding allowances and
    2 s sum_{i>k} |b_i| t^i, which is 0 for a binomial f'. In a settled search
    the model root lies in the cell and the bracket closes. In an unsettled one
    it can lie far outside (0.98999 for a cell at 0.304 in one benchmark search),
    and the bracket closes only where the tail is negligible, as in the last
    cell, where t is about 1e-11.
    """
    k = _leading(norms)
    b = norms[k]
    if k == 1:
        c = r - target  # mu(r) - target, exact
        d = r * b - 1.0
        slope = math.sqrt(d * d + 4.0 * b * c)
        # the positive root of c + d t - b t^2, with no cancellation
        t = (d + slope) / (2.0 * b) if d > 0.0 else 2.0 * c / (slope - d)
    else:
        below, above = lo, hi
        while below < (mid := 0.5 * (below + above)) < above:
            if mid * (1.0 + b * (r - mid) ** k) < target:
                below = mid
            else:
                above = mid
        t = r - above
        slope = 1.0 + b * t ** k - k * b * above * t ** (k - 1)
    lower, upper = _mu_bounds(norms, r, r - t)
    half = min(2.0 * (upper - lower) / slope, 0.45 * min(_MU_TOL, _MU_REL * (r - t)))
    low, high = r - t - half, r - t + half
    if lo < low < hi and _mu_bounds(norms, r, low)[1] < target:
        lo = low
    if lo < high < hi and _mu_bounds(norms, r, high)[0] >= target:
        hi = high
    return lo, hi


def _witness_locator(rows: np.ndarray, norms: list[float], tau: float) -> tuple[float, int]:
    """The angle of the sphere of radius tau where M(tau) is attained, for a search whose
    root s* = r - tau was not evaluated, from the witness of ``_mu_bounds`` where it is a
    maximiser to rounding, and the number of radii ``_sphere_max`` evaluated for it (0 or 1).

    The witness q_tau = tau u, u^k b_k = |b_k| for the leading term b_k, taken as the
    principal k-th root, lies at the angle atan2(|Im b_k|, Re b_k) / k of its
    slice: the lowest of the k angles where q^k b_k is real and positive, and
    the one the tie rule of ``_sphere_max`` keeps. |f'(q_tau)| is within
    2 sum_{i>k} |b_i| tau^i of B(tau) >= M(tau). Where that is below the
    rounding of |b_0| = 1, M is the sphere closed form at that angle, which
    ``bl_search`` reads there; elsewhere one ``_sphere_max`` call on the
    radius tau gives the angle.
    """
    k = _leading(norms)
    if 2.0 * sum(norm * tau ** i for i, norm in enumerate(norms[k + 1:], k + 1)) < _ROUNDOFF:
        b_k = rows[k] if len(rows) > k else np.zeros(4)
        return math.atan2(float(row_norms(b_k[1:])), float(b_k[0])) / k, 0
    _, _, (angle,) = _sphere_max(rows, np.array([tau]))
    return float(angle), 1


def bl_search(f: Series, r: float) -> SearchReport:
    """Constructive coverage search at working radius r in (0, 1).

    For f with f(0) = 0 and slice derivative 1 at the origin, the search
    finds the smallest s with s * M(r - s) = r, where M(t) is the maximum of
    |f'| on the ball of radius t. Half of it is the working ball radius; a
    maximiser w of |f'| on the sphere of radius r - 2R recentres f, a right
    unit factor makes the recentred derivative real at the origin, and the
    coverage radius of the result is reported together with its universal
    lower bound r / (32 sqrt(2)).

    The resolution is fixed: each M comes from ``_sphere_max`` on its 512
    grid angles, and ``dphi_norm`` from ``split_norm`` on its 2048-unit
    lattice; for a quadratic f both f' and phi' are linear, and then each M
    is the closed form |b_0| + t |b_1| and ``dphi_norm`` the closed form
    |b_0| + R |b_1|, with no grid or lattice. ``dphi_norm`` is the closed form
    B(R) = sum |b_k| R^k wherever some point of the boundary sphere attains it
    (``norms._attained_bound``), as for the real phi' of cubic-half and
    steep-cubic, whose terms all point one way at R. The root starts from the
    first grid point of ``_MU_GRID`` = 1024 in [0, r] where mu(s) = s M(r - s)
    reaches r - ``_MU_TOL``. B(t) = sum |b_k| t^k over the coefficients of f'
    is taken once, on every grid radius (``coefficient_bound``). At the first
    grid point s_j whose own bound s_j B(r - s_j) reaches r - ``_MU_TOL``, where
    j > 0, the lower bound of mu given below may reach it too: the two bounds then
    decide the first crossing, and the search is settled at s_j with no
    evaluation. That is s = r wherever every grid point before it falls
    short, and any s_j for a binomial f' = 1 + b_k q^k, where the two bounds
    meet. Otherwise
    it is found from a coarse pass over every
    32nd grid point and the points of just the cells whose least upper bound
    on mu reaches r (``_first_crossing``). The bounds are two: the
    coefficient bound s_b B(t_a) (triangle inequality), read from the same
    array of B, which drops leading cells
    before any evaluation, and the chord of log M, which is convex in log t
    because log|f'_I| is subharmonic on each slice (Hadamard's three-circles
    theorem) and M is the maximum over the slices. Where M rises across a
    cell the chord is at most the monotone bound s_b M(t_a) (M does not
    decrease, by the maximum modulus principle), so that bound prunes
    nothing more. As long as each M is found to within its gap, the first
    grid crossing is that of the whole profile.

    Every search first narrows the cell (s_{j-1}, s_j] of its first crossing
    with no sphere search, from two bounds of mu at t = r - s: s B(t) above,
    and below s (1 + |b_k| t^k - sum_{i>k} |b_i| t^i), b_k the first nonzero
    coefficient past b_0, which is at most s |f'| at the witness q_t = t u,
    u^k b_k = |b_k| (``_mu_bounds``). They differ by 2 s sum_{i>k} |b_i| t^i:
    0 for a binomial f', and about 1e-22 at t near 1e-11. With rounding
    allowances of Higham's gamma_n (n = 2N + 10) the bracket then closes at the
    root's width (``_bound_bracket``) in a settled search, and in an unsettled
    one whose first crossing lies in the last cell. Wherever the upper end of
    the bracket was not evaluated, the witness at t = r - s* locates w
    (``_witness_locator``). Where the bounds leave the bracket open, the root
    batches run from the bracket they give. Each root batch evaluates, in one
    call, 15 evenly spaced interior points of the bracket and up to three
    interpolated ones: from the ``_ROOT_NODES`` = 10 evaluated points nearest
    the bracket, the inverse interpolations x_n of s at mu = r - ``_MU_TOL``
    through the n nearest (one Neville tableau), at the highest order where x_n
    and x_{n-1} both fall inside the bracket, and a point on either side of it
    (``_root_points``). The first batch interpolates through the evaluated grid
    points within 10 of the crossing. The first point where mu
    reaches r - ``_MU_TOL`` (or the upper end) closes the next bracket, until
    it is at most ``_MU_TOL`` wide, or ``_MU_REL`` times its upper end where
    that is smaller (a crossing below 0.01, where mu rises by about r / s per
    unit of s), so ``2 R_r`` is the first crossing to within that width and
    ``mu_root_residual`` stays about 1e-10 r or below however steep f is.
    Each route to s* hands on only the angle of the sphere of radius r - s*
    where M is attained, the locator; the sphere is read there once, in
    closed form (``_sphere_squares``), for M(r - s*), which gives
    ``mu_root_residual`` = |s* M - r|, and for the unit of w, which is 0
    where r - s* is below ``_MU_TOL``. ``rho_r`` is the coverage lemma of
    phi on the ball of radius R_r, from the one formula ``rho_lemma`` also
    takes (``_lemma_radius``), so the two agree to the bit.
    ``diagnostics["mu_radii"]`` counts the radii the coarse pass, the
    second pass and the root evaluated: on average 5.1, 7.0 and 3.4 over the
    first 72 bl-search benchmark records of seeds 1, 3, 7 and 11, where 78 % of
    the searches are settled and evaluate none, and the others 23.4, 32.2 and
    15.4. The whole profile, pairs (s, mu(s)),
    is evaluated and reported only as the ``mu_profile`` of a
    ``NumericalSearchError``, when it never meets r or meets it at s = 0.
    Where |f'| has several maximisers on that sphere, one of them is used:
    ``locator_angle``, ``w``, ``f_w``, ``rotation`` and ``phi_coeffs`` come
    from it, and ``R_r`` does not depend on which one it is. A PreconditionError
    is raised when any component of f(0) is nonzero, however small, and a
    DomainError when the degree of f exceeds ``DEGREE_CAP``.
    """
    _require_degree_cap(f)
    _require_zero_at_origin(f)
    if f.degree < 1 or f.rows[1].tolist() != [1.0, 0.0, 0.0, 0.0]:
        raise PreconditionError("requires slice derivative 1 at the origin")
    if not 0.0 < r < 1.0:
        raise PreconditionError("requires a working radius in (0, 1)")
    if r >= f.radius:
        raise DomainError("working radius must sit inside the ball of validity")

    derivative = slice_derivative(f)
    grid = np.linspace(0.0, r, _MU_GRID)
    norms = _term_norms(derivative.rows)
    first, hi_angle, mu = _first_crossing(derivative, r, grid, norms)
    # hi_angle is the angle of the sphere of radius r - hi where M(r - hi) is attained
    target = r - _MU_TOL
    # the evaluated grid points around the crossing seed the interpolation
    near = np.arange(max(first - _ROOT_NODES, 0), min(first + _ROOT_NODES, grid.size))
    near = near[mu[near] > -np.inf]
    known_s, known_mu = grid[near], mu[near]
    lo, hi = _bound_bracket(norms, r, float(grid[first - 1]), float(grid[first]), target)
    # hi_angle locates hi only where hi was evaluated: a settled search evaluated no grid point
    located = hi == grid[first] and mu[first] > -np.inf
    root_radii = 0
    # an absolute width alone would leave a root near 0 unresolved, where mu' ~ r / s is steep
    while hi - lo > (width := min(_MU_TOL, _MU_REL * hi)):
        points = _root_points(lo, hi, known_s, known_mu, target, width)
        maxima, _, angles = _sphere_max(derivative.rows, r - points)
        values = points * maxima
        root_radii += points.size
        # the first point where mu reaches r closes the next bracket, or the upper end
        k = int(np.argmax(np.append(values >= target, True)))
        ends = np.concatenate([[lo], points, [hi]])
        lo, hi = float(ends[k]), float(ends[k + 1])
        if k < points.size:
            hi_angle, located = float(angles[k]), True
        known_s, known_mu = np.append(known_s, points), np.append(known_mu, values)
    s_star = hi
    if not located:
        hi_angle, radii = _witness_locator(derivative.rows, norms, r - s_star)
        root_radii += radii
    ball_radius = s_star / 2.0
    sphere_radius = r - s_star
    # the one read of the sphere at the locator: M(r - s*), squared, and the unit along
    # Im(b conj(c)), (b, c) its constants, where |f'| peaks on it
    x = sphere_radius * math.cos(hi_angle)
    y = sphere_radius * math.sin(hi_angle)
    bb, cc, top, *axis = (float(v[0]) for v in _sphere_squares(*sphere_constants(
        derivative.rows, np.array([x]), np.array([y]))))
    mu_residual = abs(s_star * math.sqrt(top) - r)

    if sphere_radius < _MU_TOL:
        w = Quaternion()
        locator_angle = 0.0
    else:
        locator_angle = hi_angle
        # that unit is good to 8 u |b| |c|, below which every unit is a maximiser to
        # rounding; the test is relative, as near the origin |c| is of order the radius
        unit = (UnitImaginary.from_vector(*axis) if Quaternion(0.0, *axis).modulus()
                > 8.0 * _ROUNDOFF * math.sqrt(bb) * math.sqrt(cc) else CANONICAL_I)
        w = _slice_point(x, y, unit)

    translated = regular_translation(f, w)
    f_at_w, deriv_at_w = (Quaternion(*row) for row in translated.rows[:2].tolist())
    deriv_scale = deriv_at_w.modulus()
    normalizer = deriv_at_w.conjugate() / deriv_scale
    rotation = deriv_at_w / deriv_scale

    phi_rows = np.concatenate([[(0.0, 0.0, 0.0, 0.0), (deriv_scale, 0.0, 0.0, 0.0)],
                               qmul_rows(translated.rows[2:], np.array(normalizer.components))])
    phi = _from_rows(phi_rows, s_star)
    phi_lemma = phi.with_radius(ball_radius)

    dphi_norm = split_norm(slice_derivative(phi_lemma))
    dphi_bound = 2.0 * math.sqrt(2.0) * r / ball_radius
    if dphi_norm.value > dphi_bound + 1e-6 * dphi_bound:
        raise NumericalSearchError(
            "derivative norm exceeds its guaranteed bound; numerics are inconsistent",
            {"dphi_norm": dphi_norm.to_dict(), "bound": dphi_bound})

    rho_r = _lemma_radius(ball_radius, deriv_scale, dphi_norm.value)
    rho_floor = r / (32.0 * math.sqrt(2.0))

    coarse = int(np.count_nonzero(mu[_coarse_points(grid.size)] > -np.inf))
    diagnostics = {
        "mu_root_residual": mu_residual,
        "mu_radii": [coarse, int(np.count_nonzero(mu > -np.inf)) - coarse, root_radii],
        "locator_angle": locator_angle,
        "dphi0": deriv_scale,
        "dphi0_target": r / s_star,
        "dphi_norm": dphi_norm.to_dict(),
        "dphi_norm_bound": dphi_bound,
        "normalizer": list(normalizer.components),
        "rho_lower_bound": rho_floor,
        "rho_bound_ok": rho_r >= rho_floor - 1e-6,
        "phi_coeffs": phi.rows.tolist(),
        "phi_radius": phi.radius,
        "phi_lemma_radius": ball_radius,
    }
    return SearchReport(r=r, R_r=ball_radius, w=w, rotation=rotation,
                        rho_r=rho_r, f_w=f_at_w, diagnostics=diagnostics)

