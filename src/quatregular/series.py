"""Truncated power series q^n a_n with quaternion coefficients on the right.

Polynomials are the primary citizens. Products never truncate, so algebraic
identities between polynomials hold to rounding error only.

Every Series-to-Series operation works on ``Series.rows``, the one store.
Evaluation at one point stays a loop of ``Quaternion`` products: the reference
the array operations are checked against, and faster at a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from ._arrays import _CONJUGATE, DEGREE_CAP, star_rows
from .errors import DomainError, PreconditionError, ZeroFactorSignal
from .quaternions import Quaternion, _coerce, _require_quaternion


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Series:
    """Coefficients a_0..a_N of sum_n q^n a_n, valid on the open ball |q| < radius.

    ``rows`` holds them once, as a read-only (N+1, 4) float array; ``coeffs``
    builds them as a tuple of ``Quaternion`` on each read.
    """

    rows: np.ndarray
    radius: float

    def __init__(self, coeffs, radius: float = 1.0):
        coerced = tuple(map(_coerce, coeffs))
        if any(q is None for q in coerced):
            raise TypeError(f"coefficient {coerced.index(None)} is not a quaternion or real number")
        rows = np.array([(q.x0, q.x1, q.x2, q.x3) for q in coerced], dtype=float)
        self._keep(rows.reshape(-1, 4), radius)

    def _keep(self, rows: np.ndarray, radius: float) -> Series:
        """This series, holding the checked rows (made read-only) and radius."""
        if not len(rows):
            raise DomainError("a series needs at least one coefficient")
        if not np.isfinite(rows).all():
            raise DomainError(f"coefficient {np.flatnonzero(~np.isfinite(rows))[0] // 4} is not finite")
        if not (radius > 0 and math.isfinite(radius)):
            raise DomainError("radius must be positive and finite")
        rows.flags.writeable = False
        self.__dict__.update(rows=rows, radius=radius)
        return self

    @property
    def coeffs(self) -> tuple[Quaternion, ...]:
        return tuple(starmap(Quaternion, self.rows.tolist()))

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    def with_radius(self, radius: float) -> Series:
        return _from_rows(self.rows, radius)

    def __call__(self, q) -> Quaternion:
        return evaluate(self, q)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.radius == other.radius and np.array_equal(self.rows, other.rows)

    def __hash__(self):
        return hash((tuple(map(tuple, self.rows.tolist())), self.radius))

    def __repr__(self):
        return f"Series(coeffs={self.coeffs!r}, radius={self.radius!r})"

    def __reduce__(self):
        # pickle and copy rebuild through _from_rows, so the rows come back read-only
        return _from_rows, (self.rows, self.radius)


def _from_rows(rows: np.ndarray, radius: float) -> Series:
    """The series with coefficient rows (N+1, 4): kept if read-only, else copied."""
    return object.__new__(Series)._keep(rows.copy() if rows.flags.writeable else rows, radius)


def _require_zero_at_origin(f: Series) -> None:
    """Raise PreconditionError unless every component of f(0) = a_0 is zero (-0.0 counts)."""
    if f.rows[0].any():
        raise PreconditionError("requires f(0) = 0")


def _require_inside(t: float, radius: float) -> None:
    """Raise DomainError unless 0 <= t < radius, inside the open ball of validity (NaN is not)."""
    if not 0.0 <= t < radius:
        raise DomainError("outside ball of validity")


def _require_degree_cap(f: Series) -> None:
    """Raise DomainError when the degree of f exceeds ``DEGREE_CAP``."""
    if f.degree > DEGREE_CAP:
        raise DomainError(f"degree {f.degree} exceeds the cap {DEGREE_CAP}")


def evaluate(f: Series, q) -> Quaternion:
    """Evaluate by left power accumulation: running q^n times the coefficient.

    Horner reordering is invalid here because the coefficients sit on the
    right of noncommuting powers.
    """
    q = _require_quaternion(q)
    _require_inside(q.modulus(), f.radius)
    acc, *terms = f.coeffs
    power = Quaternion(1.0)
    for a in terms:
        power = power * q
        acc = acc + power * a
    return acc


def slice_derivative(f: Series) -> Series:
    """Coefficient shift n * a_n -> position n-1; the constant series drops to zero."""
    rows = np.arange(1.0, f.degree + 1.0)[:, None] * f.rows[1:]
    return _from_rows(rows if f.degree else np.zeros((1, 4)), f.radius)


def star(f: Series, g: Series) -> Series:
    """Star product: Cauchy convolution of coefficient lists (``star_rows``), degrees add."""
    return _from_rows(star_rows(f.rows, g.rows), min(f.radius, g.radius))


def star_transform_point(f: Series, q) -> Quaternion:
    """The point f(q)^{-1} q f(q) at which the right star factor is evaluated.

    The result stays on the same 2-sphere as q: equal real part and modulus.
    Raises ZeroFactorSignal where f(q) = 0, since the star product simply
    vanishes there.
    """
    q = _require_quaternion(q)
    value = evaluate(f, q)
    if not any(value.components):
        raise ZeroFactorSignal("zero of f: f*g vanishes here")
    return value.inverse() * q * value


def regular_conjugate(f: Series) -> Series:
    """Series with componentwise conjugated coefficients."""
    return _from_rows(f.rows * _CONJUGATE, f.radius)


def symmetrization(f: Series) -> Series:
    """Star product of f with its regular conjugate; coefficients are real.

    The result preserves every slice plane, which is what makes it usable as
    a scalar-valued surrogate for f.
    """
    return star(f, regular_conjugate(f))
