"""Slice restriction machinery: splitting, sphere constants, extension, translation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import eval_rows, qmul_rows, row_norms, sphere_constants
from .errors import DomainError
from .quaternions import ALGEBRA_TOL, Quaternion, UnitImaginary, _require_quaternion
from .quaternions import _completion_rows, _require_unit, _slice_point, _sphere_rows
from .series import DEGREE_CAP, Series, _from_rows, _require_degree_cap, _require_inside, evaluate
from .series import regular_conjugate

# C(n, m) at row m, column n up to the cap: exact through degree 56, then rounded
_BINOMIALS = np.array([[math.comb(n, m) for n in range(DEGREE_CAP + 1)]
                       for m in range(DEGREE_CAP + 1)], dtype=float)


def embed_complex(z: complex, unit: UnitImaginary) -> Quaternion:
    """Map a complex number onto the slice plane spanned by 1 and ``unit``."""
    return _slice_point(z.real, z.imag, _require_unit(unit))


@dataclass(frozen=True)
class ComplexSeries:
    """Power series with coefficients in the slice plane of ``unit``, stored as complex."""

    coeffs: tuple[complex, ...]
    unit: UnitImaginary
    radius: float = 1.0

    def __call__(self, z: complex) -> complex:
        _require_inside(abs(z), self.radius)
        acc = 0j
        for a in reversed(self.coeffs):
            acc = acc * z + a
        return acc


@dataclass(frozen=True)
class SplitPair:
    """Holomorphic components (F, G) of a restriction to a slice: f_I = F + G J, with
    I and J checked as a frame (``_require_frame``)."""

    F: ComplexSeries
    G: ComplexSeries
    I: UnitImaginary
    J: UnitImaginary

    def __post_init__(self):
        for name, unit in zip("IJ", _require_frame(self.I, self.J)):
            object.__setattr__(self, name, unit)

    def evaluate(self, z: complex) -> Quaternion:
        return embed_complex(self.F(z), self.I) + embed_complex(self.G(z), self.I) * self.J


@dataclass(frozen=True)
class SpherePair:
    """Constants (b, c) with f(x + y I) = b + I c for every unit I."""

    b: Quaternion
    c: Quaternion
    x: float
    y: float

    def evaluate(self, unit: UnitImaginary) -> Quaternion:
        return self.b + _require_unit(unit) * self.c


def split_rows(coeffs: np.ndarray, units: np.ndarray,
               completion: tuple[np.ndarray, np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Split coefficient rows a_n = alpha_n + beta_n J for unit rows I (m, 3); each (m, N+1).

    alpha_n = Re a_n + i <I, a_n> and beta_n = <J, a_n> + i <K, a_n>, with the
    rows (J, K = I J) from ``completion`` or else ``_completion_rows``.
    """
    j_rows, k_rows = _completion_rows(units) if completion is None else completion
    imag = coeffs[:, 1:].T
    return coeffs[:, 0] + 1j * (units @ imag), j_rows @ imag + 1j * (k_rows @ imag)


def _require_frame(unit, j_unit) -> tuple[UnitImaginary, UnitImaginary]:
    """I and J as units (``_require_unit``), J orthogonal to I (DomainError), since only
    then is I J a unit imaginary and {1, I, J, I J} a basis."""
    unit, j_unit = _require_unit(unit), _require_unit(j_unit)
    if abs(float(np.dot(unit.components[1:], j_unit.components[1:]))) > ALGEBRA_TOL:
        raise DomainError("j_unit must be orthogonal to unit")
    return unit, j_unit


def _frame(unit: UnitImaginary, j_unit: UnitImaginary | None = None
           ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Rows I and (J, K = I J) of one slice frame, each (1, 3).

    J defaults to the deterministic completion of I; a given J makes a frame
    with I (``_require_frame``).
    """
    unit = _require_unit(unit)
    units = np.array([unit.components[1:]])
    if j_unit is None:
        return units, _completion_rows(units)
    unit, j_unit = _require_frame(unit, j_unit)
    k_unit = UnitImaginary(*(unit * j_unit).components)
    return units, (np.array([j_unit.components[1:]]), np.array([k_unit.components[1:]]))


def split(f: Series, unit: UnitImaginary,
          j_unit: UnitImaginary | None = None) -> SplitPair:
    """Decompose each coefficient over the orthonormal basis {1, I, J, IJ}.

    Writing a_n = alpha_n + beta_n J with alpha_n, beta_n in the slice plane
    of I gives the holomorphic components F, G of the restriction. Pass
    ``j_unit`` to choose the completion explicitly; the default is the
    deterministic one.
    """
    units, completion = _frame(unit, j_unit)
    alpha, beta = split_rows(f.rows, units, completion)
    return SplitPair(
        ComplexSeries(tuple(alpha[0].tolist()), unit, f.radius),
        ComplexSeries(tuple(beta[0].tolist()), unit, f.radius),
        unit,
        j_unit if j_unit is not None else UnitImaginary(0.0, *completion[0][0].tolist()),
    )


def _split_conjugate_gap(f: Series, unit: UnitImaginary) -> tuple[SplitPair, SplitPair, float]:
    """Splits of f and of its regular conjugate with one shared completion, and how far the
    conjugate's is from (conj alpha_n, -beta_n): the largest coefficient gap."""
    pair = split(f, unit)
    pair_c = split(regular_conjugate(f), unit, j_unit=pair.J)
    gaps = ([abs(ac - a.conjugate()) for a, ac in zip(pair.F.coeffs, pair_c.F.coeffs)]
            + [abs(bc + b) for b, bc in zip(pair.G.coeffs, pair_c.G.coeffs)])
    return pair, pair_c, max(gaps)


def split_conjugate_check(f: Series, unit: UnitImaginary) -> tuple[SplitPair, SplitPair]:
    """Split f and its regular conjugate with one shared completion and verify
    that the conjugate splits as (conj alpha_n, -beta_n) coefficientwise."""
    pair, pair_c, gap = _split_conjugate_gap(f, unit)
    if gap > ALGEBRA_TOL * max(1.0, max(abs(a) for a in pair.F.coeffs + pair.G.coeffs)):
        raise ArithmeticError("conjugate split relation failed")
    return pair, pair_c


def representation_eval(f: Series, x: float, y: float,
                        j_unit: UnitImaginary, i_unit: UnitImaginary) -> Quaternion:
    """Value at x + y*I reconstructed from the two values at x +- y*J.

    Values of f on the sphere x + y S are affine in the unit, so any slice
    determines all the others.
    """
    j_unit, i_unit = _require_unit(j_unit), _require_unit(i_unit)
    _require_inside(math.hypot(x, y), f.radius)
    plus, minus = evaluate(f, _slice_point(x, y, j_unit)), evaluate(f, _slice_point(x, -y, j_unit))
    even = (plus + minus) / 2.0
    odd = j_unit * (minus - plus) / 2.0
    return even + i_unit * odd


def sphere_pair(f: Series, x: float, y: float) -> SpherePair:
    """Constants (b, c) of the sphere x + y S via coefficient sums.

    With w = x + iy on the canonical slice, b sums Re(w^n) a_n and c sums the
    signed imaginary components Im(w^n) a_n. The sign matters: it is what
    makes f(x + y I) = b + I c hold pointwise for every unit rather than only
    up to the symmetry I -> -I of the sphere.
    """
    if y < 0:
        raise DomainError("sphere parametrisation requires y >= 0")
    _require_inside(math.hypot(x, y), f.radius)
    b, c = sphere_constants(f.rows, np.array([x], dtype=float), np.array([y], dtype=float))
    return SpherePair(Quaternion(*b[0].tolist()), Quaternion(*c[0].tolist()), x, y)


def ext_from_slice(F: ComplexSeries, G: ComplexSeries,
                   i_unit: UnitImaginary, j_unit: UnitImaginary) -> Series:
    """Reassemble the quaternionic series a_n = alpha_n + beta_n J from a splitting.

    Inverse of :func:`split`: the unique regular extension of F + G J off the
    slice of I. J must be orthogonal to I, as in ``split``.
    """
    if len(F.coeffs) != len(G.coeffs):
        raise DomainError("component series must have equal length")
    # rows (Re alpha_n, Im alpha_n, Re beta_n, Im beta_n) against the basis (1, I, J, I J)
    parts = np.array(list(zip(F.coeffs, G.coeffs)), dtype=complex).reshape(-1, 2).view(float)
    units, (j_rows, k_rows) = _frame(i_unit, j_unit)
    basis = np.eye(4)
    basis[1:, 1:] = np.concatenate([units, j_rows, k_rows])
    return _from_rows(parts @ basis, F.radius)


def regular_translation(f: Series, w) -> Series:
    """Recenter the series at w: the regular extension of z -> f(z + w).

    On the slice containing w the binomial theorem applies verbatim because z
    and w commute there, giving coefficients b_m = sum_n C(n, m) w^{n-m} a_n.
    Off that slice the result deliberately differs from pointwise composition,
    which would not be regular. Valid on the ball of radius radius - |w|.
    """
    w = _require_quaternion(w)
    norm_w = w.modulus()
    _require_inside(norm_w, f.radius)
    _require_degree_cap(f)
    powers = [np.array([1.0, 0.0, 0.0, 0.0]), np.array(w.components)]
    for _ in range(f.degree - 1):
        powers.append(qmul_rows(powers[-1], powers[1]))
    # row k, column n: w^k a_n
    table = qmul_rows(np.array(powers[:f.degree + 1])[:, None], f.rows[None])
    coeffs = np.zeros((f.degree + 1, 4))
    # column n adds C(n, m) w^(n-m) a_n to every b_m with m <= n, in order of n
    for n in range(f.degree + 1):
        coeffs[:n + 1] += _BINOMIALS[:n + 1, n, None] * table[n::-1, n]
    return _from_rows(coeffs, f.radius - norm_w)


def _probe_grid(ball_radius: float) -> np.ndarray:
    """Fixed deterministic evaluation grid inside the closed ball of radius K, as rows (61, 4)."""
    z = np.multiply.outer(ball_radius * np.array([0.35, 0.7, 1.0]),
                          np.exp(1j * np.array([0.0, 0.9, 1.8, 2.7, math.pi]))).ravel()
    points = np.zeros((z.size, 4, 4))
    points[:, :, 0] = z.real[:, None]
    points[:, :, 1:] = z.imag[:, None, None] * _sphere_rows(8, seed=0)[:4]
    return np.concatenate([np.zeros((1, 4)), points.reshape(-1, 4)])


def translation_continuity_probe(f: Series, w_seq: list[Quaternion],
                                 ball_radius: float) -> float:
    """Sup distance on a fixed grid between the last two regular translations.

    The final entry of ``w_seq`` plays the limit; the returned number is the
    discrepancy of the preceding term against it, so feeding successively
    longer convergent sequences produces values that decrease to zero.
    """
    if not w_seq:
        raise DomainError("need at least one translation point")
    shifts = [_require_quaternion(w) for w in w_seq]
    bound = max(q.modulus() for q in shifts)
    _require_inside(ball_radius, f.radius - bound)  # inside the ball of every translation
    if len(shifts) == 1:
        return 0.0
    grid = _probe_grid(ball_radius)
    delta = (eval_rows(regular_translation(f, shifts[-2]).rows, grid)
             - eval_rows(regular_translation(f, shifts[-1]).rows, grid))
    return float(row_norms(delta).max())
