"""Vectorised helpers shared by the norm grids and the coverage search.

Everything here is private plumbing: rows of shape (..., 4) hold quaternion
components, and complex arrays hold points of a fixed slice plane.
"""

from __future__ import annotations

import numpy as np

from .quaternions import _completion_rows

# term t of component l of p q, in the order of Quaternion.__mul__, is
# p_t q_(t xor l) with the sign _SIGNS[t, l]
_LEFT, _RIGHT = np.arange(4)[:, None], np.bitwise_xor.outer(np.arange(4), np.arange(4))
_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
                   [-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])


def qmul_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Componentwise quaternion product of broadcastable (..., 4) arrays.

    The terms of each component are summed in the order of the scalar formula,
    from -0.0 (-0.0 + x = x for every x), so each row rounds exactly as
    ``Quaternion.__mul__`` does.
    """
    return np.add.reduce(p[..., _LEFT] * (q[..., _RIGHT] * _SIGNS), axis=-2, initial=-0.0)


def eval_rows(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the series at quaternion rows by left power accumulation."""
    points = np.atleast_2d(points)
    acc = np.broadcast_to(coeffs[0], points.shape).copy()
    power = np.zeros_like(points)
    power[..., 0] = 1.0
    for a in coeffs[1:]:
        power = qmul_rows(power, points)
        acc = acc + qmul_rows(power, a)
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


_ASCENT_STEPS = 30
# the slice ascent's first trust radius and its cap, in radians of the chart; the
# Hessian shift and the smallest predicted rise worth a step, relative to H
_TRUST, _TRUST_CAP = 0.1, 1.0
_SHIFT, _RISE = 1e-6, 1e-15


def _slice_terms(coeffs: np.ndarray, radius: float, units: np.ndarray,
                 angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H = |F_I(z_1)|^2 + |G_I(z_2)|^2 with its gradient and Hessian, per unit row (m, 3).

    z_k = radius e^{i theta_k} for the angle rows (m, 2). The chart is
    (a, b, theta_1, theta_2): the unit turns along a great circle by a toward J
    and by b toward K of its completion (J, K), and the angles add. With
    P = sum z^n Re a_n and Q = sum z^n Im a_n, F_I = P + i<I, Q> and
    G_I = <J, Q> + i<K, Q>. Turning the frame (I, J, K) as a whole moves G_I by a
    phase only, so |G_I|^2 is smooth in I whichever completion the frame starts
    from. H is the sum of |Z|^2 over Z = F_I, G_I, so its derivatives are
    2 Re(conj(Z) Z_x) and 2 Re(conj(Z_x) Z_y + conj(Z) Z_xy). Returns H (m,), the
    gradient (m, 4) and the Hessian (m, 4, 4).
    """
    n = np.arange(coeffs.shape[0])
    # rows of (i n)^k radius^n a_n: sums against e^{i n theta} give the k-th theta-derivative
    weighted = (np.array([np.ones(n.size), 1j * n, -n * n]) * radius ** n)[:, :, None] * coeffs
    sums = np.exp(1j * angles[:, :, None] * n) @ weighted.transpose(1, 0, 2).reshape(n.size, 12)
    sums = sums.reshape(-1, 2, 3, 4)
    j_rows, k_rows = _completion_rows(units)
    frame = np.stack([j_rows, k_rows, units], axis=2)
    # (J, K, I) coordinates of Q and its theta-derivatives, at theta_1 (q) and theta_2 (g)
    q, g = np.moveaxis(sums[..., 1:] @ frame[:, None], 1, 0)
    f_side = sums[:, 0, :, 0] + 1j * q[:, :, 2]
    g_side = g[:, :, 0] + 1j * g[:, :, 1]
    z = np.stack([f_side[:, 0], g_side[:, 0]], axis=1)
    zx = np.zeros((len(units), 2, 4), dtype=complex)
    zxy = np.zeros((len(units), 2, 4, 4), dtype=complex)
    # F_I: the turns move <I, Q> by <J, Q> and <K, Q> to first order, by -<I, Q> to second
    zx[:, 0, :2] = 1j * q[:, 0, :2]
    zx[:, 0, 2] = f_side[:, 1]
    zxy[:, 0, 0, 0] = zxy[:, 0, 1, 1] = -1j * q[:, 0, 2]
    zxy[:, 0, :2, 2] = 1j * q[:, 1, :2]
    zxy[:, 0, 2, 2] = f_side[:, 2]
    # G_I: with w = a + ib the turns move J + iK to J + iK - w I - w (aJ + bK) / 2,
    # to second order
    turn = np.array([1.0, 1j])
    zx[:, 1, :2] = -g[:, 0, 2:] * turn
    zx[:, 1, 3] = g_side[:, 1]
    zxy[:, 1, 0, 0] = -g[:, 0, 0]
    zxy[:, 1, 1, 1] = -1j * g[:, 0, 1]
    zxy[:, 1, 0, 1] = -0.5 * (g[:, 0, 1] + 1j * g[:, 0, 0])
    zxy[:, 1, :2, 3] = -g[:, 1, 2:] * turn
    zxy[:, 1, 3, 3] = g_side[:, 2]
    zxy += np.swapaxes(np.triu(zxy, 1), 2, 3)
    h = np.sum(z.real ** 2 + z.imag ** 2, axis=1)
    grad = 2.0 * np.sum((z.conj()[:, :, None] * zx).real, axis=1)
    hess = 2.0 * np.sum((zx.conj()[:, :, :, None] * zx[:, :, None, :]
                         + z.conj()[:, :, None, None] * zxy).real, axis=1)
    return h, grad, hess


def slice_norm_ascent(coeffs: np.ndarray, radius: float, units: np.ndarray, angles: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton ascent of H (``_slice_terms``) from each start, all in lockstep.

    The squared slice norm at a unit I is the maximum of H over the two angles,
    so the squared supremum over units is the maximum of H on S^2 x T^2. A step
    solves with the Hessian, shifted where needed until it is negative
    definite by ``_SHIFT`` times H, and is cut to a trust radius. It is kept
    only if H rises. The radius shrinks to a quarter of a step that rose by
    less than a quarter of its predicted rise, and doubles after a full step
    that rose by more than three quarters of it. A step predicted to rise by at
    most ``_RISE`` times H is its start's last, and all stop after
    ``_ASCENT_STEPS`` steps. Returns H at the final points, H before the last
    step (equal to H when that step was not kept), the final units (m, 3) and
    angles (m, 2), and the steps each start took.
    """
    units, angles = units.copy(), angles.copy()
    h, grad, hess = _slice_terms(coeffs, radius, units, angles)
    before = h.copy()
    trust = np.full(h.shape, _TRUST)
    steps = np.zeros(h.shape, dtype=int)
    live = np.ones(h.shape, dtype=bool)
    for _ in range(_ASCENT_STEPS):
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        lam, vec = np.linalg.eigh(hess[rows])
        shift = np.maximum(lam[:, -1] + _SHIFT * h[rows], 0.0)
        along = np.einsum("mij,mi->mj", vec, grad[rows]) / np.maximum(shift[:, None] - lam, 1e-300)
        move = np.einsum("mij,mj->mi", vec, along)
        length = np.sqrt(np.sum(move * move, axis=1))
        cut = np.minimum(1.0, trust[rows] / np.maximum(length, 1e-300))
        move *= cut[:, None]
        length *= cut
        rise = np.sum(move * grad[rows], axis=1) + 0.5 * np.einsum(
            "mi,mij,mj->m", move, hess[rows], move)
        live[rows[rise <= _RISE * h[rows]]] = False
        j_rows, k_rows = _completion_rows(units[rows])
        turned = units[rows] + move[:, :1] * j_rows + move[:, 1:2] * k_rows
        turned /= np.sqrt(np.sum(turned * turned, axis=1, keepdims=True))
        shifted = angles[rows] + move[:, 2:]
        new_h, new_grad, new_hess = _slice_terms(coeffs, radius, turned, shifted)
        steps[rows] += 1
        ratio = (new_h - h[rows]) / np.maximum(rise, 1e-300)
        up = new_h > h[rows]
        keep = rows[up]
        before[rows] = h[rows]
        h[keep], grad[keep], hess[keep] = new_h[up], new_grad[up], new_hess[up]
        units[keep], angles[keep] = turned[up], shifted[up]
        trust[rows] = np.where(ratio < 0.25, 0.25 * length,
                               np.where((ratio > 0.75) & (length > 0.99 * trust[rows]),
                                        np.minimum(2.0 * trust[rows], _TRUST_CAP), trust[rows]))
    return h, before, units, angles, steps


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

