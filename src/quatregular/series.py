"""Truncated power series q^n a_n with quaternion coefficients on the right.

Polynomials are the primary citizens: ``exact`` marks a finite series with no
truncation error. Products never truncate, so algebraic identities between
polynomials hold to rounding error only.

Every Series-to-Series operation works on the coefficient array ``Series.rows``.
Evaluation at one point stays a loop of ``Quaternion`` products: the reference
the array operations are checked against, and faster at a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import starmap

import numpy as np

from ._arrays import _CONJUGATE, qmul_rows
from .errors import DomainError, ZeroFactorSignal
from .quaternions import Quaternion, _coerce


@dataclass(frozen=True)
class Series:
    """Coefficients a_0..a_N of sum_n q^n a_n, valid on the open ball |q| < radius.

    ``rows`` holds the same coefficients as a read-only (N+1, 4) float array.
    """

    coeffs: tuple[Quaternion, ...]
    radius: float = 1.0
    exact: bool = True
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coerced = tuple(map(_coerce, self.coeffs))
        if any(q is None for q in coerced):
            raise TypeError(f"coefficient {coerced.index(None)} is not a quaternion or real number")
        if not coerced:
            raise DomainError("a series needs at least one coefficient")
        rows = np.array([(q.x0, q.x1, q.x2, q.x3) for q in coerced], dtype=float)
        if not np.isfinite(rows).all():
            raise DomainError(f"coefficient {np.flatnonzero(~np.isfinite(rows))[0] // 4} is not finite")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise DomainError("radius must be positive and finite")
        rows.flags.writeable = False
        object.__setattr__(self, "coeffs", coerced)
        object.__setattr__(self, "rows", rows)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def with_radius(self, radius: float) -> Series:
        return Series(self.coeffs, radius, self.exact)

    def __call__(self, q) -> Quaternion:
        return evaluate(self, q)


def _from_rows(rows: np.ndarray, radius: float, exact: bool) -> Series:
    """The series with coefficient rows (N+1, 4)."""
    return Series(tuple(starmap(Quaternion, rows.tolist())), radius, exact)


def evaluate(f: Series, q) -> Quaternion:
    """Evaluate by left power accumulation: running q^n times the coefficient.

    Horner reordering is invalid here because the coefficients sit on the
    right of noncommuting powers.
    """
    q = _coerce(q)
    if q is None:
        raise TypeError("expected a quaternion point")
    if q.modulus() >= f.radius:
        raise DomainError("outside ball of validity")
    acc = f.coeffs[0]
    power = Quaternion(1.0)
    for a in f.coeffs[1:]:
        power = power * q
        acc = acc + power * a
    return acc


def slice_derivative(f: Series) -> Series:
    """Coefficient shift n * a_n -> position n-1; the constant series drops to zero."""
    if f.degree == 0:
        return Series((Quaternion(),), f.radius, f.exact)
    return _from_rows(np.arange(1.0, f.degree + 1.0)[:, None] * f.rows[1:], f.radius, f.exact)


def star(f: Series, g: Series) -> Series:
    """Star product: Cauchy convolution of coefficient lists, degrees add.

    Row k of the product table holds a_k b_m for every m; adding the rows in
    order of k sums each coefficient as the convolution is written.
    """
    out = np.zeros((f.degree + g.degree + 1, 4))
    for k, row in enumerate(qmul_rows(f.rows[:, None], g.rows[None])):
        out[k:k + g.degree + 1] += row
    return _from_rows(out, min(f.radius, g.radius), f.exact and g.exact)


def star_transform_point(f: Series, q) -> Quaternion:
    """The point f(q)^{-1} q f(q) at which the right star factor is evaluated.

    The result stays on the same 2-sphere as q: equal real part and modulus.
    Raises ZeroFactorSignal where f(q) = 0, since the star product simply
    vanishes there.
    """
    q = _coerce(q)
    value = evaluate(f, q)
    if value.modulus_sq() == 0.0:
        raise ZeroFactorSignal("zero of f: f*g vanishes here")
    return value.inverse() * q * value


def regular_conjugate(f: Series) -> Series:
    """Series with componentwise conjugated coefficients."""
    return _from_rows(f.rows * _CONJUGATE, f.radius, f.exact)


def symmetrization(f: Series) -> Series:
    """Star product of f with its regular conjugate; coefficients are real.

    The result preserves every slice plane, which is what makes it usable as
    a scalar-valued surrogate for f.
    """
    return star(f, regular_conjugate(f))
