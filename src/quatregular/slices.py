"""Slice restriction machinery: splitting, sphere constants, extension, translation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import coeff_rows, sphere_constants
from .errors import DomainError
from .quaternions import (
    Quaternion,
    UnitImaginary,
    _coerce,
    orthonormal_completion,
    sphere_sample,
)
from .series import Series, evaluate, regular_conjugate

_BINOMIAL_DEGREE_CAP = 60


def embed_complex(z: complex, unit: UnitImaginary) -> Quaternion:
    """Map a complex number onto the slice plane spanned by 1 and ``unit``."""
    return Quaternion(z.real, z.imag * unit.x1, z.imag * unit.x2, z.imag * unit.x3)


@dataclass(frozen=True)
class ComplexSeries:
    """Power series with coefficients in the slice plane of ``unit``, stored as complex."""

    coeffs: tuple[complex, ...]
    unit: UnitImaginary
    radius: float = 1.0

    def __call__(self, z: complex) -> complex:
        if abs(z) >= self.radius:
            raise DomainError("outside ball of validity")
        acc = 0j
        for a in reversed(self.coeffs):
            acc = acc * z + a
        return acc

    def embed_value(self, z: complex) -> Quaternion:
        return embed_complex(self(z), self.unit)


@dataclass(frozen=True)
class SplitPair:
    """Holomorphic components (F, G) of a restriction to a slice: f_I = F + G J."""

    F: ComplexSeries
    G: ComplexSeries
    I: UnitImaginary
    J: UnitImaginary

    def evaluate(self, z: complex) -> Quaternion:
        f_part = embed_complex(self.F(z), self.I)
        g_part = embed_complex(self.G(z), self.I)
        return f_part + g_part * self.J


@dataclass(frozen=True)
class SpherePair:
    """Constants (b, c) with f(x + y I) = b + I c for every unit I."""

    b: Quaternion
    c: Quaternion
    x: float
    y: float

    def evaluate(self, unit: UnitImaginary) -> Quaternion:
        return self.b + unit * self.c


def split(f: Series, unit: UnitImaginary,
          j_unit: UnitImaginary | None = None) -> SplitPair:
    """Decompose each coefficient over the orthonormal basis {1, I, J, IJ}.

    Writing a_n = alpha_n + beta_n J with alpha_n, beta_n in the slice plane
    of I gives the holomorphic components F, G of the restriction. Pass
    ``j_unit`` to choose the completion explicitly; the default is the
    deterministic one.
    """
    if j_unit is None:
        j_unit, k_unit = orthonormal_completion(unit)
    else:
        k_quat = unit * j_unit
        k_unit = UnitImaginary(*k_quat.components)
    alphas = []
    betas = []
    for a in f.coeffs:
        alphas.append(complex(a.x0, a.dot(unit)))
        betas.append(complex(a.dot(j_unit), a.dot(k_unit)))
    return SplitPair(
        ComplexSeries(tuple(alphas), unit, f.radius),
        ComplexSeries(tuple(betas), unit, f.radius),
        unit,
        j_unit,
    )


def split_conjugate_check(f: Series, unit: UnitImaginary,
                          tol: float = 1e-12) -> tuple[SplitPair, SplitPair]:
    """Split f and its regular conjugate with one shared completion and verify
    that the conjugate splits as (conj alpha_n, -beta_n) coefficientwise."""
    pair = split(f, unit)
    pair_c = split(regular_conjugate(f), unit, j_unit=pair.J)
    scale = max(1.0, max(abs(a) for a in pair.F.coeffs + pair.G.coeffs))
    for alpha, alpha_c in zip(pair.F.coeffs, pair_c.F.coeffs):
        if abs(alpha_c - alpha.conjugate()) > tol * scale:
            raise ArithmeticError("conjugate split relation failed on F coefficients")
    for beta, beta_c in zip(pair.G.coeffs, pair_c.G.coeffs):
        if abs(beta_c + beta) > tol * scale:
            raise ArithmeticError("conjugate split relation failed on G coefficients")
    return pair, pair_c


def representation_eval(f: Series, x: float, y: float,
                        j_unit: UnitImaginary, i_unit: UnitImaginary) -> Quaternion:
    """Value at x + y*I reconstructed from the two values at x +- y*J.

    Values of f on the sphere x + y S are affine in the unit, so any slice
    determines all the others.
    """
    if math.hypot(x, y) >= f.radius:
        raise DomainError("outside ball of validity")
    plus = evaluate(f, Quaternion(x, y * j_unit.x1, y * j_unit.x2, y * j_unit.x3))
    minus = evaluate(f, Quaternion(x, -y * j_unit.x1, -y * j_unit.x2, -y * j_unit.x3))
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
    if math.hypot(x, y) >= f.radius:
        raise DomainError("outside ball of validity")
    b, c = sphere_constants(coeff_rows(f), np.array([x], dtype=float), np.array([y], dtype=float))
    return SpherePair(Quaternion(*b[0].tolist()), Quaternion(*c[0].tolist()), x, y)


def ext_from_slice(F: ComplexSeries, G: ComplexSeries,
                   i_unit: UnitImaginary, j_unit: UnitImaginary,
                   exact: bool = True) -> Series:
    """Reassemble the quaternionic series a_n = alpha_n + beta_n J from a splitting.

    Inverse of :func:`split`: the unique regular extension of F + G J off the
    slice of I.
    """
    if len(F.coeffs) != len(G.coeffs):
        raise DomainError("component series must have equal length")
    coeffs = []
    for alpha, beta in zip(F.coeffs, G.coeffs):
        coeffs.append(embed_complex(alpha, i_unit) + embed_complex(beta, i_unit) * j_unit)
    return Series(tuple(coeffs), F.radius, exact)


def regular_translation(f: Series, w) -> Series:
    """Recenter the series at w: the regular extension of z -> f(z + w).

    On the slice containing w the binomial theorem applies verbatim because z
    and w commute there, giving coefficients b_m = sum_n C(n, m) w^{n-m} a_n.
    Off that slice the result deliberately differs from pointwise composition,
    which would not be regular. Valid on the ball of radius radius - |w|.
    """
    w = _coerce(w)
    if w is None:
        raise TypeError("expected a quaternion shift")
    norm_w = w.modulus()
    if norm_w >= f.radius:
        raise DomainError("outside ball of validity")
    n_deg = f.degree
    if n_deg > _BINOMIAL_DEGREE_CAP:
        raise DomainError(
            f"degree {n_deg} exceeds the exact-binomial cap {_BINOMIAL_DEGREE_CAP}")
    powers = [Quaternion(1.0)]
    for _ in range(n_deg):
        powers.append(powers[-1] * w)
    coeffs = []
    for m in range(n_deg + 1):
        acc = Quaternion()
        for n in range(m, n_deg + 1):
            acc = acc + math.comb(n, m) * (powers[n - m] * f.coeffs[n])
        coeffs.append(acc)
    return Series(tuple(coeffs), f.radius - norm_w, f.exact)


def _probe_grid(ball_radius: float) -> list[Quaternion]:
    """Fixed deterministic evaluation grid inside the closed ball of radius K."""
    points = [Quaternion()]
    units = sphere_sample(8, seed=0)[:4]
    for t in (0.35, 0.7, 1.0):
        for theta in (0.0, 0.9, 1.8, 2.7, math.pi):
            for u in units:
                x = ball_radius * t * math.cos(theta)
                y = ball_radius * t * math.sin(theta)
                points.append(Quaternion(x, y * u.x1, y * u.x2, y * u.x3))
    return points


def translation_continuity_probe(f: Series, w_seq: list[Quaternion],
                                 ball_radius: float) -> float:
    """Sup distance on a fixed grid between the last two regular translations.

    The final entry of ``w_seq`` plays the limit; the returned number is the
    discrepancy of the preceding term against it, so feeding successively
    longer convergent sequences produces values that decrease to zero.
    """
    if not w_seq:
        raise DomainError("need at least one translation point")
    shifts = []
    for w in w_seq:
        q = _coerce(w)
        if q is None:
            raise TypeError("expected quaternion shifts")
        shifts.append(q)
    bound = max(q.modulus() for q in shifts)
    if ball_radius >= f.radius - bound:
        raise DomainError("probe ball must fit inside the translated domain")
    if len(shifts) == 1:
        return 0.0
    limit = regular_translation(f, shifts[-1])
    tail = regular_translation(f, shifts[-2])
    worst = 0.0
    for q in _probe_grid(ball_radius):
        delta = evaluate(tail, q) - evaluate(limit, q)
        worst = max(worst, delta.modulus())
    return worst
