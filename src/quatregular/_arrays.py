"""Vectorised helpers shared by the norm grids and the coverage search.

Everything here is private plumbing: rows of shape (..., 4) hold quaternion
components, and complex arrays hold points of a fixed slice plane.
"""

from __future__ import annotations

import numpy as np

from .series import Series


def coeff_rows(f: Series) -> np.ndarray:
    """Coefficients as an (N+1, 4) float array."""
    return np.array([a.components for a in f.coeffs], dtype=float)


def qmul_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Componentwise quaternion product of broadcastable (..., 4) arrays."""
    p0, p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    q0, q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ],
        axis=-1,
    )


def eval_rows(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the series at quaternion rows by left power accumulation."""
    points = np.atleast_2d(points)
    acc = np.broadcast_to(coeffs[0], points.shape).copy()
    power = np.zeros_like(points)
    power[..., 0] = 1.0
    for a in coeffs[1:]:
        power = qmul_rows(power, points)
        acc = acc + qmul_rows(power, np.broadcast_to(a, points.shape))
    return acc


def power_table(z: np.ndarray, n_plus_one: int) -> np.ndarray:
    """Powers z^0..z^N of a complex vector, shape (N+1, T)."""
    out = np.empty((n_plus_one, z.shape[0]), dtype=complex)
    out[0] = 1.0
    for n in range(1, n_plus_one):
        out[n] = out[n - 1] * z
    return out


def circle_table(radius: float, n_plus_one: int, points: int) -> np.ndarray:
    """Powers z^0..z^N at ``points`` equally spaced z on |z| = radius, shape (N+1, T)."""
    return power_table(radius * np.exp(2j * np.pi * np.arange(points) / points), n_plus_one)


_BRACKETS = 4
_NEWTON_STEPS = 8


def top_grid_maxima(grid: np.ndarray, padded: np.ndarray,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the ``count`` largest local maxima in each row of ``grid`` (m, T),
    grouped by row, best first, ties to the lower column.

    ``padded`` is ``grid`` with a neighbour column on each side: the wrapped
    ends for a periodic profile, -inf for an interval.
    """
    row, col = np.divmod(np.flatnonzero((grid >= padded[:, :-2]) & (grid >= padded[:, 2:])),
                         grid.shape[1])
    order = np.lexsort((-grid[row, col], row))
    row, col = row[order], col[order]
    keep = np.arange(row.size) - np.searchsorted(row, row) < count
    return row[keep], col[keep]


def circle_max_rows(rows: np.ndarray, radius: float, table: np.ndarray) -> np.ndarray:
    """Maximum of |P(radius e^{i theta})| for each complex coefficient row P (m, N+1).

    ``table`` is ``circle_table(radius, N+1, T)``. The best four local
    maxima of each periodic grid profile (ties to the lower angle) are polished
    together by Newton steps on d/dtheta |P|^2 from the vertex of the grid
    parabola, until no angle moves by 1e-7. A step is at most one grid step,
    goes uphill where the profile is not concave and stays within one grid
    step of its grid point. Every value is taken at a point of the circle, so
    none exceeds the true maximum beyond rounding.
    """
    grid = rows @ table
    grid = grid.real ** 2 + grid.imag ** 2
    best = grid.max(axis=1)
    n_plus_one, points = table.shape
    if n_plus_one == 1 or points < 3:
        return np.sqrt(best)
    ring = np.concatenate([grid[:, -1:], grid, grid[:, :1]], axis=1)
    row, col = top_grid_maxima(grid, ring, _BRACKETS)
    left, mid, right = ring[row, col], ring[row, col + 1], ring[row, col + 2]
    step = 2.0 * np.pi / points
    lo = step * (col - 1)
    hi = lo + 2.0 * step
    # vertex of the parabola through the three grid values; the bend is
    # negative at a local maximum unless all three are equal
    bend = np.minimum(left + right - 2.0 * mid, -1e-300)
    theta = lo + step * (1.0 + 0.5 * (left - right) / bend)
    k = np.arange(n_plus_one)
    # rows of a_n, n a_n and n^2 a_n: sums against z^n give P, z P' and z P' + z^2 P''
    weighted = rows[row, None, :] * ((k ** np.arange(3)[:, None]) * radius ** k)
    ik = 1j * k
    for _ in range(_NEWTON_STEPS):
        phases = np.exp(np.multiply.outer(theta, ik))
        p, zdp, zdp_zzddp = (weighted @ phases[:, :, None])[:, :, 0].T
        cp = np.conj(p)
        # half the first and second theta-derivatives of |P|^2
        slope = -(cp * zdp).imag
        curve = (np.conj(zdp) * zdp).real - (cp * zdp_zzddp).real
        moved = np.clip(theta + slope / np.maximum(-curve, np.abs(slope) / step + 1e-300), lo, hi)
        done = np.abs(moved - theta).max() < 1e-7
        theta = moved
        if done:
            break
    p = np.sum(weighted[:, 0] * np.exp(np.multiply.outer(theta, ik)), axis=1)
    np.maximum.at(best, row, p.real ** 2 + p.imag ** 2)
    return np.sqrt(best)


def sphere_constants(coeffs: np.ndarray, x: np.ndarray,
                     y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sphere constants (b, c) for each sphere x_t + y_t S, shapes (T, 4).

    b collects Re(w^n) a_n and c the signed Im(w^n) a_n with w = x + iy.
    """
    powers = power_table(x + 1j * y, coeffs.shape[0])
    # one product over the interleaved (Re, Im) columns of the power table
    both = powers.view(float).T @ coeffs
    return both[0::2], both[1::2]


def sphere_planes(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the squared sphere maximum along the half circle, (m, 4, N+1).

    On the sphere x + y S with x + iy = t e^{i theta} the squared maximum of
    |f| is g = A + |U|, A = sum_d alpha_d cos(d theta), U = sum_d u_d sin(d theta),
    because Z Z* = |Z|^2 - 2i Im(b conj(c)) for Z = b + ic = sum_n t^n e^{in theta} a_n
    is sum_d e^{id theta} q_d + conj, q_d = sum_j t^{2j+d} a_{j+d} conj(a_j). Plane 0
    holds alpha (alpha_0 = q_0, alpha_d = 2 Re q_d) and planes 1-3 hold u = 2 Im q_d.
    """
    top = coeffs.shape[0] - 1
    # a_n conj(a_j) for every pair n >= j, doubled where n > j
    left = (coeffs @ _PRODUCTS).reshape(-1, 4, 4)
    n, j = np.nonzero(np.tri(top + 1, dtype=bool))
    pairs = np.einsum("nyl,ny->nl", left[n], coeffs[j] * _CONJUGATE)
    pairs[n > j] *= 2.0
    # row k of the table collects the pair terms carrying t^k
    table = np.zeros((2 * top + 1, 4, top + 1))
    table[n + j, :, n - j] = pairs
    powers = radii[:, None] ** np.arange(2 * top + 1)
    # einsum rather than a matrix product: each row then rounds the same in any batch
    planes = np.einsum("rk,kx->rx", powers, table.reshape(2 * top + 1, -1))
    return planes.reshape(-1, 4, top + 1)


_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
# structure constants: row x, column 4 y + l holds component l of e_x e_y
_PRODUCTS = qmul_rows(np.eye(4)[:, None], np.eye(4)[None]).reshape(4, 16)


def sphere_max_polish(planes: np.ndarray, theta: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton ascent of g = A + |U| (``sphere_planes``), one angle per plane set.

    Every step is at most ``step``, goes uphill where g is not concave and
    stays in [lo, hi]; a negative angle is folded back onto its mirror image,
    since g is even. At 0, where U = 0, the one-sided slope |U'| points into
    the half circle. An angle stops once it moves by at most 1e-9, and all
    stop after ``_NEWTON_STEPS`` steps. Returns g at the final angles, g before
    the last step of each angle, and the final angles.
    """
    turns = np.arange(planes.shape[2])
    alpha, u = planes[:, :1], planes[:, 1:]
    # against cos(d theta) these rows give A, A'' and U', against sin(d theta) A', U and U'';
    # every sum runs along the last axis, so it rounds the same in any batch
    with_cos = np.concatenate([alpha, -turns ** 2 * alpha, turns * u], axis=1)
    with_sin = np.concatenate([-turns * alpha, u, -turns ** 2 * u], axis=1)
    live = np.ones(theta.shape, dtype=bool)
    for count in range(_NEWTON_STEPS + 1):
        phase = np.multiply.outer(theta, turns)[:, None, :]
        at_cos = np.add.reduce(with_cos * np.cos(phase), axis=2)
        at_sin = np.add.reduce(with_sin * np.sin(phase), axis=2)
        # rows U, U', U'' and their dot products
        rows = np.concatenate([at_sin[:, 1:4], at_cos[:, 2:], at_sin[:, 4:]], axis=1)
        rows = rows.reshape(-1, 3, 3)
        gram = np.add.reduce(rows[:, :, None] * rows[:, None], axis=3)
        norm = np.sqrt(gram[:, 0, 0])
        g = at_cos[:, 0] + norm
        if count == 0:
            before = g
        if count == _NEWTON_STEPS or not live.any():
            break
        swing = np.sqrt(gram[:, 1, 1])
        inside = norm > 0.0
        safe = np.where(inside, norm, 1.0)
        lean = gram[:, 0, 1] / safe
        # the first two derivatives of g, one-sided where U = 0
        slope = at_sin[:, 0] + np.where(inside, lean, swing)
        curve = at_cos[:, 1] + np.where(
            inside, (gram[:, 1, 1] + gram[:, 0, 2] - lean * lean) / safe,
            gram[:, 1, 2] / np.where(swing > 0.0, swing, 1.0))
        # a Newton step where g is concave, else a whole step uphill (away from a
        # minimum at 0, where the slope is zero)
        move = np.where(curve < 0.0, slope / np.maximum(-curve, np.abs(slope) / step + 1e-300),
                        np.copysign(step, slope))
        moved = np.abs(np.minimum(np.maximum(theta + move, lo), hi))
        before = np.where(live, g, before)
        theta, live = np.where(live, moved, theta), live & (np.abs(moved - theta) > 1e-9)
    return g, before, theta


def _sphere_squares(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|b|^2, |c|^2 and the squared maximum of |b + I c| over the unit sphere, per row."""
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    c0, c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    bb = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
    cc = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3
    v1 = -b0 * c1 + b1 * c0 - b2 * c3 + b3 * c2
    v2 = -b0 * c2 + b1 * c3 + b2 * c0 - b3 * c1
    v3 = -b0 * c3 - b1 * c2 + b2 * c1 + b3 * c0
    return bb, cc, (bb + cc) + 2.0 * np.sqrt(v1 * v1 + v2 * v2 + v3 * v3)


def sphere_max_rows(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The maximum of ``sphere_extrema_rows``, per row."""
    return np.sqrt(_sphere_squares(b, c)[2])


def sphere_min_rows(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The minimum of ``sphere_extrema_rows``, per row."""
    bb, cc, top = _sphere_squares(b, c)
    dot = np.einsum("...i,...i->...", b, c)
    product = np.hypot(bb - cc, 2.0 * dot)
    # the maximum is zero only where b = c = 0, and then so is the minimum
    return np.sqrt(product * (product / np.where(top > 0.0, top, 1.0)))


def sphere_extrema_rows(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (min, max) of |b + I c| over the unit sphere, per row.

    |b + I c|^2 = |b|^2 + |c|^2 + 2 <Im(b conj(c)), I> is affine in I, so the
    extrema sit at +-Im(b conj(c)). The product of the two squares is
    (|b|^2 - |c|^2)^2 + 4 <b, c>^2, so the minimum comes from the maximum
    instead of from the difference |b|^2 + |c|^2 - 2 |Im(b conj(c))|, which
    cancels to rounding noise near a zero of b + I c.
    """
    return sphere_min_rows(b, c), sphere_max_rows(b, c)


def slice_values(coeffs: np.ndarray, unit_times_coeffs: np.ndarray,
                 z: np.ndarray) -> np.ndarray:
    """Values of the series on a slice at complex points z, shape (T, 4).

    Uses q^n a_n = Re(z^n) a_n + Im(z^n) (I a_n) for q = x + y I, z = x + iy,
    so a single pair of real matrix products evaluates the whole grid.
    """
    powers = power_table(z, coeffs.shape[0])
    return powers.real.T @ coeffs + powers.imag.T @ unit_times_coeffs
