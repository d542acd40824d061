"""Truncated power series q^n a_n with quaternion coefficients on the right.

Polynomials are the primary citizens: ``exact`` marks a finite series with no
truncation error. Products never truncate, so algebraic identities between
polynomials hold to rounding error only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ZeroFactorSignal
from .quaternions import Quaternion, _coerce


@dataclass(frozen=True)
class Series:
    """Coefficients a_0..a_N of sum_n q^n a_n, valid on the open ball |q| < radius."""

    coeffs: tuple[Quaternion, ...]
    radius: float = 1.0
    exact: bool = True

    def __post_init__(self):
        coerced = []
        for idx, a in enumerate(self.coeffs):
            q = _coerce(a)
            if q is None:
                raise TypeError(f"coefficient {idx} is not a quaternion or real number")
            if not all(map(math.isfinite, q.components)):
                raise DomainError(f"coefficient {idx} is not finite")
            coerced.append(q)
        if not coerced:
            raise DomainError("a series needs at least one coefficient")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise DomainError("radius must be positive and finite")
        object.__setattr__(self, "coeffs", tuple(coerced))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def with_radius(self, radius: float) -> Series:
        return Series(self.coeffs, radius, self.exact)

    def __call__(self, q) -> Quaternion:
        return evaluate(self, q)


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
    shifted = tuple(float(n) * a for n, a in enumerate(f.coeffs) if n >= 1)
    return Series(shifted, f.radius, f.exact)


def star(f: Series, g: Series) -> Series:
    """Star product: Cauchy convolution of coefficient lists, degrees add."""
    fa, ga = f.coeffs, g.coeffs
    out = []
    for n in range(len(fa) + len(ga) - 1):
        acc = Quaternion()
        for k in range(max(0, n - len(ga) + 1), min(n, len(fa) - 1) + 1):
            acc = acc + fa[k] * ga[n - k]
        out.append(acc)
    return Series(tuple(out), min(f.radius, g.radius), f.exact and g.exact)


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
    return Series(tuple(a.conjugate() for a in f.coeffs), f.radius, f.exact)


def symmetrization(f: Series) -> Series:
    """Star product of f with its regular conjugate; coefficients are real.

    The result preserves every slice plane, which is what makes it usable as
    a scalar-valued surrogate for f.
    """
    return star(f, regular_conjugate(f))
