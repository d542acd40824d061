"""Vectorised helpers shared by the norm grids and the coverage search.

Everything here is private plumbing: rows of shape (..., 4) hold quaternion
components, and complex arrays hold points of a fixed slice plane.
"""

from __future__ import annotations

import numpy as np

from .quaternions import _completion_rows

# the largest degree of the norms, the coverage radius, the search and recentring
DEGREE_CAP = 60
# the unit roundoff u of a double
_ROUNDOFF = 2.0 ** -53


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): n roundings move a sum of positive terms by at most this,
    relative (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Lemma 3.1)."""
    return n * _ROUNDOFF / (1.0 - n * _ROUNDOFF)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only, as every call shares them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


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


def star_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The star product of coefficient rows (M+1, 4) and (N+1, 4): the Cauchy convolution,
    each coefficient summed from row k of the table a_k b_m in order of k, (M+N+1, 4)."""
    out = np.zeros((len(a) + len(b) - 1, 4))
    for k, row in enumerate(qmul_rows(a[:, None], b[None])):
        out[k:k + len(b)] += row
    return out


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


def slice_square_forms(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re(F_I(s) conj F_I(t)) and Re(G_I(s) conj G_I(t)) as forms in the unit I, each (9, ...).

    For coefficient sums s = (p, X + iY) and t = (q, U + iV) (4, ...), such as
    sum z^n a_n, F_I = p + i<I, X + iY> and G_I = <J, X + iY> + i<K, X + iY>. With
    R = (X U^T + Y V^T + U X^T + V Y^T) / 2 and |I| = 1 this bilinear map B is
    I^T (Re(p conj q) Id + R) I + <I, Im p U + Im q X - Re p V - Re q Y> for F and
    I^T (tr(R) Id - R) I + <I, Y x U + V x X> for G, as coefficients of x^2, y^2,
    z^2, 2xy, 2xz, 2yz, x, y, z for I = (x, y, z). B(s, s) gives |F_I(s)|^2 and
    |G_I(s)|^2; G's diagonal is summed from R rather than taken from the trace, so
    no coefficient cancels.
    """
    p, x, y = s[0], s[1:].real, s[1:].imag
    q, u, v = t[0], t[1:].real, t[1:].imag
    r = 0.5 * ((x[:, None] * u + y[:, None] * v) + (u[:, None] * x + v[:, None] * y))
    diag, upper = r[[0, 1, 2], [0, 1, 2]], r[[0, 0, 1], [1, 2, 2]]
    f_form = np.concatenate([diag + (p.real * q.real + p.imag * q.imag), upper,
                             (p.imag * u + q.imag * x) - (p.real * v + q.real * y)])
    g_form = np.concatenate([diag[[1, 0, 0]] + diag[[2, 2, 1]], -upper,
                             np.cross(y, u, axis=0) + np.cross(v, x, axis=0)])
    return f_form, g_form


# slice_square_forms on the (Re, Im) pairs of the components of a sum, a complex (..., 4)
# array viewed as float: row a, column 8 k + b is coefficient k (F's, then G's) of B(e_a, e_b)
_BASIS = np.eye(8).view(complex).T
_SQUARE_FORMS = np.concatenate(slice_square_forms(_BASIS[:, :, None], _BASIS[:, None])
                               ).transpose(1, 0, 2).reshape(8, 144)


def square_forms(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``slice_square_forms`` of sums given as (Re, Im) rows (..., 8): F's and G's, (..., 2, 9)."""
    return ((s @ _SQUARE_FORMS).reshape(*s.shape[:-1], 18, 8) @ t[..., None]).reshape(
        *s.shape[:-1], 2, 9)


def sphere_constants(coeffs: np.ndarray, x: np.ndarray,
                     y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sphere constants (b, c) for each sphere x_t + y_t S, shapes (T, 4).

    b collects Re(w^n) a_n and c the signed Im(w^n) a_n with w = x + iy.
    """
    powers = power_table(x + 1j * y, coeffs.shape[0])
    # one product over the interleaved (Re, Im) columns of the power table
    both = powers.view(float).T @ coeffs
    return both[0::2], both[1::2]


# the pairs n >= j of ``sphere_planes`` at degree DEGREE_CAP, in order of n, so that degree N
# reads the first (N+1)(N+2)/2: n, j, n + j, n - j and the weight (2 where n > j, else 1)
_n, _j = np.nonzero(np.tri(DEGREE_CAP + 1, dtype=bool))
_PAIR_TABLE = _read_only(_n, _j, _n + _j, _n - _j, np.where(_n > _j, 2.0, 1.0)[:, None])
del _n, _j


def sphere_planes(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the squared sphere maximum along the half circle, (m, 4, N+1).

    On the sphere x + y S with x + iy = t e^{i theta} the squared maximum of
    |f| is g = A + |U|, A = sum_d alpha_d cos(d theta), U = sum_d u_d sin(d theta),
    because Z Z* = |Z|^2 - 2i Im(b conj(c)) for Z = b + ic = sum_n t^n e^{in theta} a_n
    is sum_d e^{id theta} q_d + conj, q_d = sum_j t^{2j+d} a_{j+d} conj(a_j). Plane 0
    holds alpha (alpha_0 = q_0, alpha_d = 2 Re q_d) and planes 1-3 hold u = 2 Im q_d.
    The pair indices are the leading rows of ``_PAIR_TABLE``, so N is at most
    ``DEGREE_CAP``.
    """
    top = coeffs.shape[0] - 1
    n, j, power, turn, weight = (array[:(top + 1) * (top + 2) // 2] for array in _PAIR_TABLE)
    # a_n conj(a_j) for every pair n >= j, doubled where n > j
    left = (coeffs @ _PRODUCTS).reshape(-1, 4, 4)
    pairs = np.einsum("nyl,ny->nl", left[n], coeffs[j] * _CONJUGATE) * weight
    # row k of the table collects the pair terms carrying t^k
    table = np.zeros((2 * top + 1, 4, top + 1))
    table[power, :, turn] = pairs
    powers = radii[:, None] ** np.arange(2 * top + 1)
    # einsum rather than a matrix product: each row then rounds the same in any batch
    planes = np.einsum("rk,kx->rx", powers, table.reshape(2 * top + 1, -1))
    return planes.reshape(-1, 4, top + 1)


_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
# structure constants: row x, column 4 y + l holds component l of e_x e_y
_PRODUCTS = qmul_rows(np.eye(4)[:, None], np.eye(4)[None]).reshape(4, 16)


_NEWTON_STEPS = 8
# the planes (A, then U's three) that each row of ``_POLISH_WEIGHTS`` weights
_POLISH_PLANES = np.array([0, 0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3])
# the turns d = 0..DEGREE_CAP and the weights (12, DEGREE_CAP + 1) of ``sphere_max_polish``, of
# which degree N reads the first N+1 columns: rows 1, -d^2, d, d, d of A, U, U, U (against
# cos(d theta): A, A'' and U') and rows -d, 1, 1, 1, -d^2, -d^2, -d^2 of A, U, U, U, U, U, U
# (against sin(d theta): A', U, U'')
_TURNS = np.arange(DEGREE_CAP + 1)
_POLISH_WEIGHTS = np.stack([_TURNS ** 0, -_TURNS ** 2, _TURNS, -_TURNS])[
    [0, 1, 2, 2, 2, 3, 0, 0, 0, 1, 1, 1]].astype(float)
_read_only(_TURNS, _POLISH_WEIGHTS)


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
    turns, weights = _TURNS[:planes.shape[2]], _POLISH_WEIGHTS[:, :planes.shape[2]]
    # against cos(d theta) these rows give A, A'' and U', against sin(d theta) A', U and U'';
    # every sum runs along the last axis, so it rounds the same in any batch
    weighted = planes[:, _POLISH_PLANES] * weights
    with_cos, with_sin = weighted[:, :5], weighted[:, 5:]
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
# the slice ascent's trust radius cap, its first radius too, in radians of the chart;
# the Hessian shift and the smallest predicted rise worth a step, relative to H
_TRUST_CAP = 1.0
_SHIFT, _RISE = 1e-6, 1e-15


def _chart_jets(w: np.ndarray) -> np.ndarray:
    """The jets (value, d/da, d/db, d2/da2, d2/dadb, d2/db2) at a = b = 0 of the monomials
    x^2, y^2, z^2, 2xy, 2xz, 2yz, x, y, z of the unit I + aJ + bK, normalised, which is
    I + aJ + bK - (a^2 + b^2) I / 2 to second order, for orthonormal frame rows
    w = (1, I, J, K) (10, ...); quadratic in w. Returns (9, 6, ...)."""
    one, i, j, k = w[:1], w[1:4], w[4:7], w[7:]

    def square(u, v):
        return np.concatenate([u * v, u[[0, 0, 1]] * v[[1, 2, 2]] + u[[1, 2, 2]] * v[[0, 0, 1]]])

    ii = square(i, i)
    jets = [(ii, one * i), (2.0 * square(i, j), one * j), (2.0 * square(i, k), one * k),
            (2.0 * (square(j, j) - ii), -one * i), (2.0 * square(j, k), 0.0 * i),
            (2.0 * (square(k, k) - ii), -one * i)]
    return np.stack([np.concatenate(jet) for jet in jets], axis=1)


# the forms of H and of its theta-derivatives from each side's outer product of the sums
# s, s', s'' at its angle (24 (Re, Im) entries; row 576 side + 24 u + v for entry (u, v)): a
# side adds B(s, s) to H, 2 B(s, s') to its first and 2 (B(s', s') + B(s, s'')) to its second
# theta-derivative, B from _SQUARE_FORMS (F's on side 0, G's on side 1); column 9 k + c is
# coefficient c of form k: H, its theta_1- and theta_2-derivatives, then the second ones
_WEIGHTS = np.zeros((2, 3, 3, 5))
_WEIGHTS[:, 0, 0, 0] = 1.0
_WEIGHTS[[0, 0, 0, 1, 1, 1], [0, 1, 0] * 2, [1, 1, 2] * 2, [1, 3, 3, 2, 4, 4]] = 2.0
_ANGLE_FORMS = np.einsum("sdek,ascb->sdaebkc", _WEIGHTS,
                         _SQUARE_FORMS.reshape(8, 2, 9, 8)).reshape(1152, 45)
# only its 248 nonzero rows are kept, with the entries u and v of the 48 (Re, Im) sums of
# both sides whose product each weights: a zero row adds nothing to a sum, so dropping it
# moves no bit of a product of two rows or more (one row takes numpy's matrix-vector
# product, which rounds either table its own way)
_ROWS = np.flatnonzero(_ANGLE_FORMS.any(axis=1))
_LEFT_SUMS, _RIGHT_SUMS, _ANGLE_ROWS = _read_only(24 * (_ROWS // 576) + _ROWS % 576 // 24,
                                                  24 * (_ROWS // 576) + _ROWS % 24,
                                                  _ANGLE_FORMS[_ROWS])
del _ROWS, _ANGLE_FORMS
# _chart_jets as w^T T w, T by polarisation on basis vectors: row 10 r + s, column 6 c + d
_PAIRS = np.eye(10)[:, :, None] + np.array([1.0, -1.0])[:, None, None, None] * np.eye(10)[:, None]
_CHART_JETS = (0.25 * (_chart_jets(_PAIRS[0]) - _chart_jets(_PAIRS[1]))).transpose(
    2, 3, 0, 1).reshape(100, 54)
# an ascent state row holds the 30 numbers (value, d/da, d/db, d2/da2, d2/dadb, d2/db2) of
# each form, a zero, the chart row (1, I, J, K) and the two angles; where the terms and the
# zero go in the gradient and Hessian on the chart (a, b, theta_1, theta_2), and both at once
_GRADIENT = np.array([1, 2, 6, 12])
_HESSIAN = np.array([[3, 4, 7, 13], [4, 5, 8, 14], [7, 8, 18, 30], [13, 14, 30, 24]])
_DERIVATIVES = np.concatenate([_GRADIENT, _HESSIAN.ravel()])
_CHART_COLUMNS, _ANGLE_COLUMNS = slice(31, 41), slice(41, 43)


def _slice_table(coeffs: np.ndarray, radius: float) -> np.ndarray:
    """Rows (i n)^k radius^n a_n, k = 0, 1, 2 (N+1, 12): e^{i n theta} sums them to d^k/dtheta^k."""
    n = np.arange(coeffs.shape[0])
    weighted = (np.array([np.ones(n.size), 1j * n, -n * n]) * radius ** n)[:, :, None] * coeffs
    return weighted.transpose(1, 0, 2).reshape(n.size, 12)


def _chart(units: np.ndarray) -> np.ndarray:
    """Rows (1, I, J, K) (m, 10) for unit rows I (m, 3), with (J, K) their ``_completion_rows``."""
    return np.concatenate([np.ones((len(units), 1)), units, *_completion_rows(units)], axis=1)


def _slice_state(table: np.ndarray, chart: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The ascent state rows (m, 43) of ``_chart`` rows (m, 10) and angle rows (m, 2): the
    terms of H with its gradient and Hessian (``_slice_terms``), a zero, the chart and the
    angles, so that one selection keeps or drops a whole trial point."""
    sums = (np.exp(1j * angles[:, :, None] * np.arange(len(table))) @ table).view(float)
    sums = sums.reshape(-1, 48)
    forms = (sums[:, _LEFT_SUMS] * sums[:, _RIGHT_SUMS]) @ _ANGLE_ROWS
    jets = (chart[:, :, None] * chart[:, None]).reshape(-1, 100) @ _CHART_JETS
    terms = (forms.reshape(-1, 5, 9) @ jets.reshape(-1, 9, 6)).reshape(-1, 30)
    return np.concatenate([terms, np.zeros((len(terms), 1)), chart, angles], axis=1)


def _slice_terms(table: np.ndarray, chart: np.ndarray,
                 angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H = |F_I(z_1)|^2 + |G_I(z_2)|^2 with its gradient and Hessian, per ``_chart`` row (m, 10).

    z_k = radius e^{i theta_k} for the angle rows (m, 2), with the series as its
    ``_slice_table``. On the chart (a, b, theta_1, theta_2) the unit moves to
    I + aJ + bK, normalised, and the angles add. One contraction gives every
    term: the forms of H and of its theta-derivatives (``_ANGLE_ROWS``, the
    nonzero rows of a map of the outer products of the sums, times just the
    products they weight) times the jets of the unit's monomials
    (``_CHART_JETS``), placed so that the
    Hessian is exactly symmetric. Returns H (m,), the gradient (m, 4) and the
    Hessian (m, 4, 4), read from the rows of ``_slice_state``.

    The package no longer calls it: ``slice_norm_ascent`` reads
    ``_slice_state`` directly. It stays as the readable form of those rows
    that the tests and ``tools/ab.py`` check and time.
    """
    state = _slice_state(table, chart, angles)
    return state[:, 0], state[:, _GRADIENT], state[:, _HESSIAN]


def slice_norm_ascent(coeffs: np.ndarray, radius: float, units: np.ndarray, angles: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton ascent of H (``_slice_terms``) from each start, all in lockstep.

    The squared slice norm at a unit I is the maximum of H over the two angles,
    so the squared supremum over units is the maximum of H on S^2 x T^2. A step
    solves with the Hessian, shifted where needed until it is negative
    definite by ``_SHIFT`` times H, and is cut to a trust radius, which starts
    at its cap ``_TRUST_CAP``, so that no first Newton step is cut short. It is
    kept only if H rises. The radius shrinks to a quarter of a step that rose by
    less than a quarter of its predicted rise, and doubles, up to its cap, after
    a full step that rose by more than three quarters of it. A step predicted to
    rise by at most ``_RISE`` times H is its start's last, and all stop after
    ``_ASCENT_STEPS`` steps, which run all starts under masks. Each point is one
    ``_slice_state`` row, its chart built once and kept with it, so a step keeps
    or drops its trial points in one selection. Returns H at the final points, H
    before the last step (equal to H when that step was not kept), the final
    units (m, 3) and angles (m, 2), and the steps each start took.
    """
    table = _slice_table(coeffs, radius)
    state = _slice_state(table, _chart(units), angles)
    before = state[:, 0].copy()
    trust = np.full(len(state), _TRUST_CAP)
    steps = np.zeros(len(state), dtype=int)
    live = np.ones(len(state), dtype=bool)
    for _ in range(_ASCENT_STEPS):
        if not live.any():
            break
        h, derivatives = state[:, 0], state[:, _DERIVATIVES]
        grad, hess = derivatives[:, :4], derivatives[:, 4:].reshape(-1, 4, 4)
        lam, vec = np.linalg.eigh(hess)
        shift = np.maximum(lam[:, -1] + _SHIFT * h, 0.0)
        along = np.einsum("mij,mi->mj", vec, grad) / np.maximum(shift[:, None] - lam, 1e-300)
        move = np.einsum("mij,mj->mi", vec, along)
        length = np.sqrt(np.sum(move * move, axis=1))
        cut = np.minimum(1.0, trust / np.maximum(length, 1e-300))
        move *= cut[:, None]
        length *= cut
        rise = np.sum(move * grad, axis=1) + 0.5 * np.einsum("mi,mij,mj->m", move, hess, move)
        chart = state[:, _CHART_COLUMNS]
        turned = chart[:, 1:4] + move[:, :1] * chart[:, 4:7] + move[:, 1:2] * chart[:, 7:]
        turned /= np.sqrt(np.sum(turned * turned, axis=1, keepdims=True))
        trial = _slice_state(table, _chart(turned), state[:, _ANGLE_COLUMNS] + move[:, 2:])
        steps += live
        ratio = (trial[:, 0] - h) / np.maximum(rise, 1e-300)
        up = live & (trial[:, 0] > h)
        before = np.where(live, h, before)
        trust = np.where(ratio < 0.25, 0.25 * length,
                         np.where((ratio > 0.75) & (length > 0.99 * trust),
                                  np.minimum(2.0 * trust, _TRUST_CAP), trust))
        live &= rise > _RISE * h
        state = np.where(up[:, None], trial, state)
    return (state[:, 0], before, state[:, _CHART_COLUMNS][:, 1:4], state[:, _ANGLE_COLUMNS],
            steps)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean length of each row (..., k) from the squares of the row times 2^-e, e the frexp
    exponent of its largest component: none overflows or underflows; past the floats it is inf."""
    e = np.frexp(np.abs(rows).max(axis=-1))[1]
    folded = np.ldexp(rows, -e[..., None])
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(np.add.reduce(folded * folded, axis=-1)), e)


def coefficient_bound(rows: np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """B(t) = sum |b_k| t^k at each radius t, a float or an array, for the coefficient rows b_k
    of a series.

    |q^k b_k| = |q|^k |b_k|, so by the triangle inequality B(t) bounds |f| on
    the ball of radius t without an evaluation. B is taken by Horner's rule,
    from the top row down, on the row norms as floats, so a float t runs on
    floats and an array t on arrays, each rounding the same: each value meets
    2N + 3 roundings, 3 in each row norm and 2N in Horner's rule. Past the
    floats B is inf, and nan only where an inf row norm above the first meets
    t = 0.
    """
    bound = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for norm in reversed(row_norms(rows).tolist()):
            bound = bound * t + norm
    return bound


def outward_bound(rows: np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """``coefficient_bound`` taken from above: B(t) (1 + gamma_n), n = 10N + 21 (``_gamma``).

    It is at least B at t, and at t rounded from a difference r - s, and at
    least every maximum of |f| on the sphere of radius t computed from
    ``sphere_constants`` (``sphere_max_rows``), so no computed maximum passes
    it. Computed B meets 2N + 3 roundings (``coefficient_bound``), so B(t) is
    at most computed B times 1 + gamma_{2N+4}, and B at r - s is at most B at
    its rounding t times 1 + gamma_N. A computed maximum meets at most 8N + 14
    relative to B(t): 3 in the modulus of the point x + iy (cos or sin to an
    ulp, then the product with t) and 3 in each complex product of its power
    table, so 6k in its k-th power; N + 1 in the sums b and c, counted twice,
    as |b| + |c| is at most sqrt(2) times the maximum; and 12 in
    ``sphere_max_rows``. n covers the larger of the two sums, 3N + 4 and
    10N + 18, and 3 for the product with 1 + gamma_n.
    """
    with np.errstate(over="ignore"):
        return coefficient_bound(rows, t) * (1.0 + _gamma(10 * len(rows) + 11))


def _sphere_squares(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """|b|^2, |c|^2, the squared maximum of |b + I c| over the unit sphere, and the
    three components of Im(b conj(c)), the unit along which it is attained, per row."""
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    c0, c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    bb = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
    cc = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3
    v1 = -b0 * c1 + b1 * c0 - b2 * c3 + b3 * c2
    v2 = -b0 * c2 + b1 * c3 + b2 * c0 - b3 * c1
    v3 = -b0 * c3 - b1 * c2 + b2 * c1 + b3 * c0
    return bb, cc, (bb + cc) + 2.0 * np.sqrt(v1 * v1 + v2 * v2 + v3 * v3), v1, v2, v3


def sphere_max_rows(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The maximum of ``sphere_extrema_rows``, per row."""
    return np.sqrt(_sphere_squares(b, c)[2])


def sphere_product_rows(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The product of the minimum and the maximum of ``sphere_extrema_rows``,
    hypot(|b|^2 - |c|^2, 2 <b, c>), and the squared maximum, per row. For the sphere
    constants of x + iy the product is |f^s(x + iy)|, f^s the symmetrization of f."""
    bb, cc, top, *_ = _sphere_squares(b, c)
    return np.hypot(bb - cc, 2.0 * np.einsum("...i,...i->...", b, c)), top


def sphere_min_rows(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The minimum of ``sphere_extrema_rows``, per row."""
    product, top = sphere_product_rows(b, c)
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

