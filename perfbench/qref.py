"""Independent numpy reference for checking quatregular outputs.

Nothing here imports quatregular. Quaternions are float arrays of shape
(..., 4) holding (x0, x1, x2, x3); a series is an (N+1, 4) coefficient array
for sum_n q^n a_n. The product is expanded from the literal basis table
(i j = k and its cyclic relatives), not from the closed formula the package
uses, so a shared typo cannot hide.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# e_a e_b = sign * e_c over the basis (1, i, j, k)
_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}
_STRUCTURE = np.zeros((16, 4))
for (_a, _b), (_sign, _c) in _TABLE.items():
    _STRUCTURE[4 * _a + _b, _c] = _sign


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion product of broadcastable (..., 4) arrays."""
    outer = np.asarray(p, float)[..., :, None] * np.asarray(q, float)[..., None, :]
    return outer.reshape(outer.shape[:-2] + (16,)) @ _STRUCTURE


def qconj(p: np.ndarray) -> np.ndarray:
    return np.asarray(p, float) * np.array([1.0, -1.0, -1.0, -1.0])


def evaluate(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """sum_n q^n a_n at each point row, by Horner's rule with q on the left:
    q (q (... a_N) + a_{N-1}) + a_0."""
    points = np.asarray(points, float)
    acc = np.broadcast_to(np.asarray(coeffs[-1], float), points.shape)
    for a in coeffs[-2::-1]:
        acc = qmul(points, acc) + a
    return acc


def star(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cauchy convolution of coefficient arrays with quaternion products."""
    out = np.zeros((len(f) + len(g) - 1, 4))
    products = qmul(f[:, None, :], g[None, :, :])
    for k in range(len(f)):
        out[k:k + len(g)] += products[k]
    return out


def slice_derivative(f: np.ndarray) -> np.ndarray:
    if len(f) == 1:
        return np.zeros((1, 4))
    return f[1:] * np.arange(1, len(f))[:, None]


def sphere_constants(f: np.ndarray, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """(b, c) with f(x + y I) = b + I c: Re and Im of w^n against a_n, w = x + iy."""
    powers = (x + 1j * y) ** np.arange(len(f))
    return powers.real @ f, powers.imag @ f


@functools.lru_cache(maxsize=None)
def _binomials(degree: int) -> np.ndarray:
    """weights[m, n] = C(n, m), zero below the diagonal."""
    return np.array([[math.comb(n, m) for n in range(degree + 1)] for m in range(degree + 1)],
                    float)


def translate(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coefficients b_m = sum_{n >= m} C(n, m) w^{n-m} a_n."""
    degree = len(f) - 1
    powers = [np.array([1.0, 0.0, 0.0, 0.0])]
    for _ in range(degree):
        powers.append(qmul(powers[-1], w))
    table = qmul(np.array(powers)[:, None, :], f[None, :, :])  # table[k, n] = w^k a_n
    idx = np.arange(degree + 1)
    shift = idx[None, :] - idx[:, None]  # n - m
    weights = _binomials(degree)
    return np.einsum("mn,mnc->mc", weights, table[np.maximum(shift, 0), idx[None, :]])


def max_rel_err(got, want) -> float:
    """Largest deviation, relative to the larger of 1 and the reference's size."""
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    if got.shape != want.shape:
        return math.inf
    if not want.size:
        return 0.0
    return float(abs(got - want).max()) / max(1.0, float(abs(want).max()))


# -- norm bounds ------------------------------------------------------------------

def coeff_bound(f: np.ndarray, s: float) -> float:
    """sum_n |a_n| s^n: bounds |f| on the ball of radius s and every slice norm."""
    return float(np.sum(np.linalg.norm(f, axis=1) * s ** np.arange(len(f))))


def _sphere_abs_range(f: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Exact (min, max) of |f| over each sphere x + y S, for arrays x, y of any shape.

    f(x + y I) = b + I c and |b + I c|^2 = |b|^2 + |c|^2 - 2 <I, Im(c conj b)>,
    which is affine in I, so its extrema over the unit sphere are
    |b|^2 + |c|^2 -+ 2 |Im(c conj b)|.
    """
    powers = (x + 1j * y)[..., None] ** np.arange(len(f))
    b, c = powers.real @ f, powers.imag @ f
    base = np.sum(b * b, axis=-1) + np.sum(c * c, axis=-1)
    im = (b[..., :1] * c[..., 1:] - c[..., :1] * b[..., 1:]
          - np.cross(c[..., 1:], b[..., 1:]))
    swing = 2.0 * np.linalg.norm(im, axis=-1)
    return np.sqrt(np.clip(base - swing, 0.0, None)), np.sqrt(base + swing)


def _zoom_max(fn, lo: np.ndarray, hi: np.ndarray, points: int = 64, rounds: int = 4) -> float:
    """Largest sampled value of fn on nested grids shrinking around each bracket's best point.

    fn maps an array of arguments, shape (brackets, points), to values of the
    same shape. Every value returned is attained, so the result is a lower
    bound of the maximum.
    """
    best = -math.inf
    for _ in range(rounds):
        t = np.linspace(lo, hi, points, axis=-1)
        vals = fn(t)
        k = np.argmax(vals, axis=-1)
        rows = np.arange(len(t))
        best = max(best, float(vals[rows, k].max()))
        half = (hi - lo) / (points - 1)
        lo, hi = t[rows, k] - half, t[rows, k] + half
    return best


def ball_max_lower(f: np.ndarray, s: float, angles: int = 4096) -> float:
    """A value of |f| attained on the sphere of radius s: a lower bound of its maximum."""
    theta = np.linspace(0.0, math.pi, angles)
    _, high = _sphere_abs_range(f, s * np.cos(theta), s * np.sin(theta))
    k = int(np.argmax(high))
    lo = np.array([theta[max(k - 1, 0)]])
    hi = np.array([theta[min(k + 1, angles - 1)]])
    zoom = _zoom_max(lambda t: _sphere_abs_range(f, s * np.cos(t), s * np.sin(t))[1], lo, hi)
    return max(float(high[k]), zoom)


def ball_min_upper(f: np.ndarray, s: float, radial: int = 128, angles: int = 512) -> float:
    """A value of |f| attained in the ball of radius s: an upper bound of its minimum."""
    t = np.linspace(0.0, s, radial)[:, None]
    theta = np.linspace(0.0, math.pi, angles)[None, :]
    low, _ = _sphere_abs_range(f, (t * np.cos(theta)).ravel(), (t * np.sin(theta)).ravel())
    return float(low.min())


def ball_min_lower(f: np.ndarray, s: float) -> float:
    """|a_0| - sum_{n >= 1} |a_n| s^n, floored at zero."""
    return max(0.0, float(np.linalg.norm(f[0])) - (coeff_bound(f, s) - float(np.linalg.norm(f[0]))))


def fibonacci_units(n: int) -> np.ndarray:
    """n quasi-uniform unit 3-vectors (no jitter), shape (n, 3)."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _completion(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors J perpendicular to each unit, and K = unit x J."""
    helper = np.where(np.abs(units[:, :1]) < 0.6, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    j = np.cross(units, helper)
    j /= np.linalg.norm(j, axis=1, keepdims=True)
    return j, np.cross(units, j)


def _slice_coeffs(f: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic components on each slice: a_n = alpha_n + beta_n J, shapes (N+1, M)."""
    j, k = _completion(units)
    im = f[:, 1:]
    alpha = f[:, :1] + 1j * (im @ units.T)
    beta = im @ j.T + 1j * (im @ k.T)
    return alpha, beta


def _grid_max(values: np.ndarray) -> np.ndarray:
    """Parabola-interpolated maximum of periodic samples along axis 0."""
    k = np.argmax(values, axis=0)
    cols = np.arange(values.shape[1])
    f0 = values[k, cols]
    fm = values[(k - 1) % len(values), cols]
    fp = values[(k + 1) % len(values), cols]
    curv = fm - 2.0 * f0 + fp
    safe = np.where(curv < 0.0, curv, -1.0)
    return np.where(curv < 0.0, f0 - (fp - fm) ** 2 / (8.0 * safe), f0)


def _circle_max_exact(poly: np.ndarray, radius: float, angles: int = 1024) -> float:
    """max |P(radius e^{i theta})|, as a value attained at a refined angle."""
    n = np.arange(len(poly))
    scaled = poly * radius ** n

    def at(t):
        return np.abs(np.exp(1j * t[..., None] * n) @ scaled)

    theta = np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False)
    vals = at(theta)
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    step = theta[1] - theta[0]
    return max(float(vals.max()), _zoom_max(at, theta[peaks] - step, theta[peaks] + step))


def _tangent_patterns(u: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Eight points around each unit row at its step along the sphere, shape (C, 8, 3)."""
    j, k = _completion(u)
    angles = np.arange(8) * (math.pi / 4.0)
    offsets = (np.cos(angles)[None, :, None] * j[:, None, :]
               + np.sin(angles)[None, :, None] * k[:, None, :])
    cand = u[:, None, :] + step[:, None, None] * offsets
    return cand / np.linalg.norm(cand, axis=2, keepdims=True)


def split_norm_lower(f: np.ndarray, radius: float, units: int = 4096,
                     angles: int = 512, candidates: int = 6) -> float:
    """A slice norm attained at some unit: a lower bound of the supremum over units.

    Scans a denser lattice of units and angles than the package's default
    grids, climbs from the best separated lattice points, and evaluates the
    winners' circle maxima at refined angles, so the result is a value the
    supremum must reach.
    """
    n = np.arange(len(f))
    z_pow = np.exp(1j * np.outer(np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False), n))
    z_pow *= radius ** n

    def surrogate(u: np.ndarray) -> np.ndarray:
        alpha, beta = _slice_coeffs(f, u)
        return np.hypot(_grid_max(np.abs(z_pow @ alpha)), _grid_max(np.abs(z_pow @ beta)))

    if np.all(f[:, 1:] == 0.0):
        # every slice carries the same restriction
        u = np.array([[1.0, 0.0, 0.0]])
    else:
        lattice = fibonacci_units(units)
        scan = np.concatenate([surrogate(lattice[i:i + 512])
                               for i in range(0, units, 512)])
        starts = []
        for idx in np.argsort(-scan, kind="stable"):
            if all(np.dot(lattice[idx], v) < math.cos(0.15) for v in starts):
                starts.append(lattice[idx])
                if len(starts) == candidates:
                    break
        u = np.array(starts)
        val = surrogate(u)
        step = np.full(len(u), 0.02)
        while np.any(step > 1e-7):
            cand = _tangent_patterns(u, step)
            vals = surrogate(cand.reshape(-1, 3)).reshape(len(u), 8)
            k = np.argmax(vals, axis=1)
            best = vals[np.arange(len(u)), k]
            moved = (best > val) & (step > 1e-7)
            u[moved] = cand[moved, k[moved]]
            val[moved] = best[moved]
            step[~moved] *= 0.5
    alpha, beta = _slice_coeffs(f, u)
    return max(math.hypot(_circle_max_exact(alpha[:, c], radius),
                          _circle_max_exact(beta[:, c], radius)) for c in range(len(u)))
