"""Image coverage machinery: the pinched open set, its inscribed discs, the
coverage radius formula, fourth-root lifting, and the constructive search for
a Bloch-Landau type lower bound on the coverage radius of regular translations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._arrays import eval_rows, qmul_rows, sphere_constants
from .errors import DomainError, NumericalSearchError, PreconditionError
from .norms import _sphere_max, split_norm
from .norms import sup_norm_ball  # noqa: F401  (kept bound: callers read bloch.sup_norm_ball)
from .quaternions import ALGEBRA_TOL, I as CANONICAL_I
from .quaternions import Quaternion, UnitImaginary, _coerce
from .series import Series, _from_rows, slice_derivative, symmetrization
from .slices import regular_translation, sphere_pair

SCHEMA = "quatregular/1"

_MU_GRID = 1024
# every _MU_STRIDE-th radius of the mu-profile grid, and its last, make the coarse pass
_MU_STRIDE = 32
# Newton starts of attain, and the relative shrink of the set coverage_report samples
_STARTS = 64
_SHRINK = 1e-3
_NEWTON_STEP = 1e-6
_NEWTON_MAX_ITER = 200
_RESIDUAL_TOL = 1e-8
# points of the circles that inscribed_disc_margin sweeps and parseval_mean averages over
_CIRCLE_POINTS = 4096


@dataclass(frozen=True)
class OSetParams:
    """Radius parameter of the pinched set {q : |q|^3 < rho |Re q|^2}."""

    rho: float

    def __post_init__(self):
        _check_rho(self.rho)


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
        return {
            "schema": SCHEMA,
            "rho": self.rho,
            "samples": self.samples,
            "hits": self.hits,
            "max_residual": self.max_residual,
            "misses": [list(m.components) for m in self.misses],
            "ball_radius": self.ball_radius,
            "seed": self.seed,
        }


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
        return {
            "schema": SCHEMA,
            "r": self.r,
            "R_r": self.R_r,
            "w": list(self.w.components),
            "rotation": list(self.rotation.components),
            "rho_r": self.rho_r,
            "f_w": list(self.f_w.components),
            "diagnostics": self.diagnostics,
        }


# -- the pinched set -----------------------------------------------------------

def _check_rho(rho: float) -> None:
    if not 0.0 < rho < math.inf:
        raise DomainError("rho must be positive and finite")


def in_oset(q, rho: float) -> bool:
    """Strict membership |q|^3 < rho |Re q|^2. Membership forces |q| < rho."""
    _check_rho(rho)
    q = _coerce(q)
    return q.modulus() ** 3 < rho * q.x0 * q.x0


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


def inscribed_disc_margin(rho: float) -> float:
    """Worst slack of rho x^2 - (x^2+y^2)^{3/2} on the inscribed disc boundary.

    The disc has centre (rho/2, 0) and radius 37/256 rho^2; a positive margin
    at every swept boundary point certifies the disc sits strictly inside the
    right lobe of the pinched set's slice cross-section.
    """
    _check_rho(rho)
    disc_radius = (37.0 / 256.0) * rho * rho
    ts = np.linspace(0.0, 2.0 * math.pi, _CIRCLE_POINTS, endpoint=False)
    x = rho / 2.0 + disc_radius * np.cos(ts)
    y = disc_radius * np.sin(ts)
    margins = rho * x * x - (x * x + y * y) ** 1.5
    return float(margins.min())


def inscribed_disc_check(rho: float) -> bool:
    """Whether the disc of radius 37/256 rho^2 centred at (rho/2, 0) fits.

    Verified by sweeping the disc boundary. The symmetric disc at (-rho/2, 0)
    follows by the x -> -x symmetry of the cross-section.
    """
    if rho > 1.0:
        warnings.warn("claim verified only for rho <= 1 by this artifact",
                      stacklevel=2)
    return inscribed_disc_margin(rho) > 0.0


# -- coverage radius and fourth-root lifting ------------------------------------

def rho_lemma(f: Series) -> float:
    """Coverage radius radius*|f'(0)|^2 / (4 ||f'||) for f with f(0) = 0.

    Requires the derivative at the origin to be real; returns zero when it
    vanishes, in which case there is nothing to certify.
    """
    a0, a1 = f.coeffs[0], f.coeffs[1] if f.degree >= 1 else Quaternion()
    if a0.modulus_sq() != 0.0:
        raise PreconditionError("requires f(0) = 0")
    if not a1.is_real():
        raise PreconditionError("requires a real slice derivative at the origin")
    if a1.modulus_sq() == 0.0:
        return 0.0
    derivative_norm = split_norm(slice_derivative(f)).value
    return f.radius * a1.modulus_sq() / (4.0 * derivative_norm)


def g_series(f: Series, c) -> Series:
    """Symmetrization of 1 - f c^{-1}: a real-coefficient series with value 1 at 0.

    Its modulus squares to that of 1 - f c^{-1} on each sphere, which turns
    statements about the excluded value c into statements about a slice
    preserving function.
    """
    c = _coerce(c)
    if c is None or c.modulus_sq() == 0.0:
        raise DomainError("excluded value must be nonzero")
    if f.coeffs[0].modulus_sq() != 0.0:
        raise PreconditionError("requires f(0) = 0")
    base = np.concatenate([[(1.0, 0.0, 0.0, 0.0)],
                           -qmul_rows(f.rows[1:], np.array(c.inverse().components))])
    sym = symmetrization(_from_rows(base, f.radius, f.exact)).rows
    scale = max(1.0, float(np.sqrt(np.sum(sym * sym, axis=1)).max()))
    nonreal = np.flatnonzero(np.sqrt(np.sum(sym[:, 1:] ** 2, axis=1)) > 1e-12 * scale)
    if nonreal.size:
        raise NumericalSearchError(
            f"symmetrization coefficient {nonreal[0]} has a nonreal part beyond tolerance")
    return Series(tuple(sym[:, 0].tolist()), f.radius, f.exact)


def fourth_root_series(g: Series) -> Series:
    """Truncated fourth root of a real series with constant term 1.

    Solves 4 g p' = g' p coefficientwise, the differential identity satisfied
    by p = g^{1/4}; the truncation matches g through its own degree, so the
    star fourth power reproduces g coefficientwise there.
    """
    scale = max(1.0, float(np.sqrt(np.sum(g.rows * g.rows, axis=1)).max()))
    nonreal = np.flatnonzero(np.abs(g.rows[:, 1:]).max(axis=1) > 1e-12 * scale)
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
    return Series(tuple(Quaternion(v) for v in p), g.radius, exact=False)


def parseval_mean(psi: Series, r: float,
                  unit: UnitImaginary = CANONICAL_I) -> tuple[float, float]:
    """Circle mean of |psi|^2 against the coefficient sum it must equal.

    Returns (quadrature value, sum of r^{2m} |coefficient_m|^2). The periodic
    trapezoid rule is spectrally accurate here, and the identity holds for
    arbitrary quaternion coefficients because the circle average kills every
    cross term regardless of the constant factors on either side.
    """
    if not 0.0 <= r < psi.radius:
        raise DomainError("outside ball of validity")
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

def _ball_lattice(ball_radius: float, count: int, seed: int,
                  hint: np.ndarray | None = None) -> np.ndarray:
    """Deterministic Newton starting points: origin, a hint, then seeded shells."""
    rng = np.random.default_rng(seed)
    points = [np.zeros(4)]
    if hint is not None:
        norm = np.linalg.norm(hint)
        if norm > 0:
            points.append(hint * min(1.0, 0.8 * ball_radius / norm))
    shells = (0.2, 0.45, 0.7, 0.9)
    while len(points) < count:
        for shell in shells:
            direction = rng.standard_normal(4)
            direction /= np.linalg.norm(direction)
            points.append(shell * ball_radius * direction)
            if len(points) >= count:
                break
    return np.array(points[:count])


def attain(f: Series, target, ball_radius: float, seed: int = 0) -> Quaternion | None:
    """Try to exhibit a preimage of ``target`` inside the open ball.

    Multistart damped Newton on the four real variables, with a central
    difference Jacobian and Armijo backtracking. Success means residual below
    1e-8 at a point strictly inside the ball; returning None proves nothing.
    """
    target = _coerce(target)
    if ball_radius > f.radius:
        raise DomainError("search ball cannot exceed the ball of validity")
    goal = np.array(target.components)

    def residual(points: np.ndarray) -> np.ndarray:
        return eval_rows(f.rows, points) - goal

    for q0 in _ball_lattice(ball_radius, _STARTS, seed, hint=goal):
        q = q0.copy()
        res = residual(q[None])[0]
        res_norm = float(np.linalg.norm(res))
        for _ in range(_NEWTON_MAX_ITER):
            if res_norm < 1e-10:
                break
            probes = np.repeat(q[None], 8, axis=0)
            for m in range(4):
                probes[2 * m, m] += _NEWTON_STEP
                probes[2 * m + 1, m] -= _NEWTON_STEP
            vals = eval_rows(f.rows, probes)
            jac = np.empty((4, 4))
            for m in range(4):
                jac[:, m] = (vals[2 * m] - vals[2 * m + 1]) / (2.0 * _NEWTON_STEP)
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            lam = 1.0
            accepted = False
            while lam > 1e-8:
                trial = q + lam * step
                trial_res = residual(trial[None])[0]
                trial_norm = float(np.linalg.norm(trial_res))
                if trial_norm <= (1.0 - 1e-4 * lam) * res_norm:
                    q, res, res_norm = trial, trial_res, trial_norm
                    accepted = True
                    break
                lam *= 0.5
            if not accepted:
                break
        if res_norm < _RESIDUAL_TOL and np.linalg.norm(q) < ball_radius:
            return Quaternion(*q)
    return None


def coverage_report(f: Series, rho: float, samples: int, seed: int = 0) -> CoverageReport:
    """Sample the strict interior of the pinched set and certify attainment.

    Points are rejection sampled from the set with radius rho*(1 - 1e-3),
    then handed to :func:`attain` on the whole ball of validity. Misses are
    reported as data, never dropped; a miss is a failed certificate, not a
    disproof.
    """
    if samples < 0:
        raise DomainError("the sample count cannot be negative")
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
        keep = np.linalg.norm(batch, axis=1) ** 3 < shrunk * batch[:, 0] ** 2
        targets.extend(batch[keep])
    targets = targets[:samples]

    hits = 0
    max_residual = 0.0
    misses: list[Quaternion] = []
    for t in targets:
        point = Quaternion(*t)
        root = attain(f, point, f.radius, seed=seed)
        if root is None:
            misses.append(point)
            continue
        res = eval_rows(f.rows, np.array([root.components]))[0] - t
        hits += 1
        max_residual = max(max_residual, float(np.linalg.norm(res)))
    return CoverageReport(rho, samples, hits, max_residual, misses, f.radius, seed)


# -- the constructive search -----------------------------------------------------

def _first_crossing(derivative: Series, r: float,
                    grid: np.ndarray) -> tuple[int, float, float]:
    """The first grid point s with mu(s) = s M(r - s) >= r, with M(r - s) and its angle.

    M, the maximum of |f'| on the ball of radius t, is the maximum on the
    sphere of radius t by the maximum modulus principle (Gentili-Stoppato), so
    it does not decrease with t, and on a cell (s_a, s_b] of the grid mu is at
    most s_b M(r - s_a). A coarse pass evaluates every ``_MU_STRIDE``-th grid
    point and the last. Only the cells up to its first crossing whose bound,
    with the gap of M(r - s_a) and 1e-12 of it added, reaches r can hold the
    first crossing, and a second pass evaluates their points: as long as each
    M is found to within its gap, the first crossing is then that of the whole
    profile, from the same evaluations. The whole profile is evaluated
    only for the ``NumericalSearchError`` raised when it never meets r or meets
    it at s = 0, whose ``mu_profile`` diagnostics hold the pairs (s, mu(s)).
    """
    maxima, angles = np.zeros(grid.size), np.zeros(grid.size)
    # mu on the grid points evaluated so far, -inf elsewhere
    mu = np.full(grid.size, -np.inf)

    def profile(idx: np.ndarray) -> np.ndarray:
        """Evaluate mu at the grid points ``idx`` in one batch; returns the gaps of M."""
        maxima[idx], gap, angles[idx] = _sphere_max(derivative, r - grid[idx])
        mu[idx] = grid[idx] * maxima[idx]
        return gap

    # not np.union1d: numpy's set routines import numpy.ma, about 1 MB more RSS
    coarse = np.arange(0, grid.size, _MU_STRIDE)
    if coarse[-1] != grid.size - 1:
        coarse = np.append(coarse, grid.size - 1)
    gap = profile(coarse)
    lows, highs = coarse[:-1], coarse[1:]
    bound = grid[highs] * (maxima[lows] + gap[:-1] + 1e-12 * maxima[lows])
    crossed = np.flatnonzero(mu[highs] >= r - 1e-12)
    last = crossed[0] + 1 if crossed.size else highs.size
    cells = np.flatnonzero(bound[:last] >= r - 1e-12)
    if cells.size:
        profile(np.concatenate([np.arange(lows[k] + 1, highs[k]) for k in cells]))
    crossing = np.flatnonzero(mu >= r - 1e-12)
    if crossing.size == 0 or crossing[0] == 0:
        message = ("no s with mu(s) = r on the grid" if crossing.size == 0
                   else "degenerate working radius: the profile meets r at s = 0")
        profile(np.arange(grid.size))
        raise NumericalSearchError(message, {"mu_profile": np.stack([grid, mu], axis=1).tolist()})
    first = int(crossing[0])
    return first, float(maxima[first]), float(angles[first])


def bl_search(f: Series, r: float) -> SearchReport:
    """Constructive coverage search at working radius r in (0, 1).

    For f with f(0) = 0 and slice derivative 1 at the origin, the search
    finds the smallest s with s * M(r - s) = r, where M(t) is the maximum of
    |f'| on the ball of radius t. Half of it is the working ball radius; a
    maximiser w of |f'| on the sphere of radius r - 2R recentres f, a right
    unit factor makes the recentred derivative real at the origin, and the
    coverage radius of the result is reported together with its universal
    lower bound r / (32 sqrt(2)).

    The resolution is fixed: each M comes from ``_sphere_max`` on at least
    512 grid angles (4N + 1 above degree 127), and ``dphi_norm`` from
    ``split_norm`` on its 2048-unit lattice. The root starts from the first
    grid point of ``_MU_GRID`` = 1024 in [0, r] where mu(s) = s M(r - s)
    reaches r. Each root batch then evaluates 15 evenly spaced interior points
    of the bracket, and their first crossing (or the upper end) closes the next
    bracket, until it is at most 1e-12 wide; the residual and the locator come
    from the final upper end. Since M does not decrease, the first grid
    crossing is found from a coarse pass over every 32nd grid point and the
    points of just the cells whose bound on mu reaches r (``_first_crossing``);
    as long as each M is found to within its gap, it is that of the whole
    profile. Of 1024 radii this evaluated 63 to 126 on the builtin series at
    r = 0.99, and over 504 searches of the bl-search benchmark a median of 94
    and at most 684. The whole profile, pairs (s, mu(s)), is evaluated and
    reported only as the ``mu_profile`` of a ``NumericalSearchError``, when it
    never meets r or meets it at s = 0. Where |f'| has several maximisers on
    that sphere, one of them is used: ``locator_angle``, ``w``, ``f_w``,
    ``rotation`` and ``phi_coeffs`` come from it, and ``R_r`` does not depend
    on which one it is.
    """
    if f.coeffs[0].modulus_sq() != 0.0:
        raise PreconditionError("requires f(0) = 0")
    if f.degree < 1 or f.coeffs[1] != Quaternion(1.0):
        raise PreconditionError("requires slice derivative 1 at the origin")
    if not 0.0 < r < 1.0:
        raise PreconditionError("requires a working radius in (0, 1)")
    if r >= f.radius:
        raise DomainError("working radius must sit inside the ball of validity")

    derivative = slice_derivative(f)
    grid = np.linspace(0.0, r, _MU_GRID)
    first, hi_max, hi_angle = _first_crossing(derivative, r, grid)
    # hi_max is M(r - hi) and hi_angle the angle of the sphere where it is attained,
    # which locates w
    lo, hi = float(grid[first - 1]), float(grid[first])
    while hi - lo > 1e-12:
        # the first of 15 evenly spaced interior points where mu reaches r, in one batch
        points = np.linspace(lo, hi, 17)
        maxima, _, angles = _sphere_max(derivative, r - points[1:-1])
        k = int(np.argmax(np.append(points[1:-1] * maxima >= r - 1e-12, True)))
        lo, hi = float(points[k]), float(points[k + 1])
        if k < 15:
            hi_max, hi_angle = float(maxima[k]), float(angles[k])
    s_star = hi
    ball_radius = s_star / 2.0
    sphere_radius = r - s_star
    mu_residual = abs(s_star * hi_max - r)

    if sphere_radius < 1e-12:
        w = Quaternion()
        locator_angle = 0.0
    else:
        locator_angle = hi_angle
        x = sphere_radius * math.cos(locator_angle)
        y = sphere_radius * math.sin(locator_angle)
        constants = sphere_pair(derivative, x, y)
        direction = (constants.b * constants.c.conjugate()).imag
        if direction.modulus() > 1e-14:
            unit = UnitImaginary(*(direction / direction.modulus()).components)
        else:
            unit = CANONICAL_I
        w = Quaternion(x, y * unit.x1, y * unit.x2, y * unit.x3)

    translated = regular_translation(f, w)
    f_at_w = translated.coeffs[0]
    deriv_at_w = translated.coeffs[1]
    deriv_scale = deriv_at_w.modulus()
    normalizer = deriv_at_w.conjugate() / deriv_scale
    rotation = deriv_at_w / deriv_scale

    phi_rows = np.concatenate([[(0.0, 0.0, 0.0, 0.0), (deriv_scale, 0.0, 0.0, 0.0)],
                               qmul_rows(translated.rows[2:], np.array(normalizer.components))])
    phi = _from_rows(phi_rows, s_star, f.exact)
    phi_lemma = phi.with_radius(ball_radius)

    dphi_norm = split_norm(slice_derivative(phi_lemma))
    dphi_bound = 2.0 * math.sqrt(2.0) * r / ball_radius
    if dphi_norm.value > dphi_bound + 1e-6 * dphi_bound:
        raise NumericalSearchError(
            "derivative norm exceeds its guaranteed bound; numerics are inconsistent",
            {"dphi_norm": dphi_norm.to_dict(), "bound": dphi_bound})

    rho_r = ball_radius * deriv_scale * deriv_scale / (4.0 * dphi_norm.value)
    rho_floor = r / (32.0 * math.sqrt(2.0))

    diagnostics = {
        "mu_root_residual": mu_residual,
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

