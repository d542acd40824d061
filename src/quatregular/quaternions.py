"""Quaternion arithmetic, the sphere of imaginary units, and slice utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import DomainError

# Absolute tolerance for algebraic identities on unit-scale values, used
# library-wide. Derived quantities (high-degree convolutions, norm grids)
# state their own looser tolerances where they are checked.
ALGEBRA_TOL = 1e-12
# a sum of squares below this (2^53 times the smallest normal float) may have lost
# bits to underflow; there, and where it overflows, modulus and inverse rescale
_SQUARES_MIN = 2.0 ** -969


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value), 0.0, 0.0, 0.0)
    return None


def _require_quaternion(value) -> Quaternion:
    """``value`` as a Quaternion, an int or a float as a real one; TypeError for anything else."""
    q = _coerce(value)
    if q is None:
        raise TypeError(f"expected a quaternion, got {type(value).__name__}")
    return q


def _require_unit(value) -> UnitImaginary:
    """``value`` as a UnitImaginary: one as it is, any other quaternion through the checks of
    ``UnitImaginary`` (DomainError); TypeError for anything that is not a quaternion."""
    if isinstance(value, UnitImaginary):
        return value
    return UnitImaginary(*_require_quaternion(value).components)


@dataclass(frozen=True, eq=False)
class Quaternion:
    """Element x0 + x1*i + x2*j + x3*k of the real quaternion algebra.

    Instances are immutable; all operations return new values. Mixed
    arithmetic with ints and floats treats them as real quaternions.
    """

    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3)

    @property
    def real(self) -> float:
        return self.x0

    @property
    def imag(self) -> Quaternion:
        return Quaternion(0.0, self.x1, self.x2, self.x3)

    def conjugate(self) -> Quaternion:
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def modulus_sq(self) -> float:
        return self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def modulus(self) -> float:
        m2 = self.modulus_sq()
        return math.sqrt(m2) if _SQUARES_MIN <= m2 < math.inf else math.hypot(*self.components)

    def inverse(self) -> Quaternion:
        if not any(self.components):
            raise DomainError("zero has no inverse")
        m2 = self.modulus_sq()
        if _SQUARES_MIN <= m2 < math.inf:
            return Quaternion(self.x0 / m2, -self.x1 / m2, -self.x2 / m2, -self.x3 / m2)
        # q^{-1} = 2^-e (2^-e q)^{-1}, with the largest component of 2^-e q in [0.5, 1)
        e = math.frexp(max(map(abs, self.components)))[1]
        x0, x1, x2, x3 = (math.ldexp(v, -e) for v in self.components)
        s2 = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
        try:
            return Quaternion(*(math.ldexp(v / s2, -e) for v in (x0, -x1, -x2, -x3)))
        except OverflowError:
            raise DomainError("inverse beyond the largest float") from None

    def dot(self, other: Quaternion) -> float:
        """Euclidean inner product of the two 4-vectors."""
        return (self.x0 * other.x0 + self.x1 * other.x1
                + self.x2 * other.x2 + self.x3 * other.x3)

    def is_real(self) -> bool:
        return self.x1 == 0.0 and self.x2 == 0.0 and self.x3 == 0.0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        p, q = self, other
        return Quaternion(
            p.x0 * q.x0 - p.x1 * q.x1 - p.x2 * q.x2 - p.x3 * q.x3,
            p.x0 * q.x1 + p.x1 * q.x0 + p.x2 * q.x3 - p.x3 * q.x2,
            p.x0 * q.x2 - p.x1 * q.x3 + p.x2 * q.x0 + p.x3 * q.x1,
            p.x0 * q.x3 + p.x1 * q.x2 - p.x2 * q.x1 + p.x3 * q.x0,
        )

    def __rmul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__mul__(self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise DomainError("zero has no inverse")
            return Quaternion(self.x0 / other, self.x1 / other,
                              self.x2 / other, self.x3 / other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Quaternion(1.0)
        for _ in range(n):
            out = out * self
        return out

    def __abs__(self) -> float:
        return self.modulus()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self):
        parts = []
        for value, name in zip(self.components, ("", "i", "j", "k")):
            if value != 0.0 or (name == "" and not parts):
                parts.append(f"{value:+g}{name}")
        return "".join(parts).lstrip("+")


@dataclass(frozen=True, eq=False)
class UnitImaginary(Quaternion):
    """A quaternion on the sphere of imaginary units (zero real part, modulus one)."""

    def __post_init__(self):
        if not abs(self.x0) <= ALGEBRA_TOL:
            raise DomainError("unit imaginary must have zero real part")
        if not abs(self.modulus() - 1.0) <= ALGEBRA_TOL:
            raise DomainError("unit imaginary must have modulus one")

    @classmethod
    def from_vector(cls, x1: float, x2: float, x3: float) -> UnitImaginary:
        """Normalise a nonzero imaginary 3-vector onto the unit sphere."""
        norm = Quaternion(0.0, x1, x2, x3).modulus()
        if norm == 0.0:
            raise DomainError("cannot normalise the zero vector")
        return cls(0.0, x1 / norm, x2 / norm, x3 / norm)


ONE = Quaternion(1.0)
I = UnitImaginary(0.0, 1.0, 0.0, 0.0)
J = UnitImaginary(0.0, 0.0, 1.0, 0.0)
K = UnitImaginary(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SlicePoint:
    """Point x + y*unit on the slice plane spanned by 1 and ``unit`` (y >= 0); the unit
    is checked (``_require_unit``)."""

    x: float
    y: float
    unit: UnitImaginary

    def __post_init__(self):
        if not self.y >= 0:  # so that nan is refused too
            raise DomainError("slice point requires y >= 0")
        object.__setattr__(self, "unit", _require_unit(self.unit))

    def embed(self) -> Quaternion:
        return _slice_point(self.x, self.y, self.unit)

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> SlicePoint:
        """Decompose q as x + y*unit; real points get the canonical unit i."""
        return cls(q.x0, 0.0, I) if q.is_real() else cls(q.x0, q.imag.modulus(), unit_of(q))


def _slice_point(x: float, y: float, unit: Quaternion) -> Quaternion:
    """The point x + y unit of the slice plane of ``unit``, for y of either sign."""
    return Quaternion(x, y * unit.x1, y * unit.x2, y * unit.x3)


def unit_of(q: Quaternion) -> UnitImaginary:
    """The imaginary direction of a non-real quaternion, Im(q)/|Im(q)|."""
    q = _require_quaternion(q)
    if q.is_real():
        raise DomainError("real point lies in every slice; choose a unit explicitly")
    return UnitImaginary.from_vector(q.x1, q.x2, q.x3)


def orthonormal_completion(unit: UnitImaginary) -> tuple[UnitImaginary, UnitImaginary]:
    """Deterministic orthonormal completion of an imaginary unit.

    Returns units (J, K) with {1, unit, J, K} an orthonormal real basis and
    K = unit * J. The rule is reproducible: take the coordinate axis least
    aligned with ``unit`` (first of i, j, k on ties), Gram-Schmidt it against
    ``unit``, and set K to the quaternion product.
    """
    unit = _require_unit(unit)
    j_rows, k_rows = _completion_rows(np.array([[unit.x1, unit.x2, unit.x3]]))
    return UnitImaginary(0.0, *j_rows[0].tolist()), UnitImaginary(0.0, *k_rows[0].tolist())


def rotate_unit(c: Quaternion, unit: UnitImaginary) -> UnitImaginary:
    """The unique imaginary unit L with c * unit == L * c, for c != 0.

    Computed by conjugation, L = c * unit * c^{-1}, which solves the defining
    linear system exactly.
    """
    c = _require_quaternion(c)
    if not any(c.components):
        raise DomainError("zero does not rotate units")
    rotated = c * unit * c.inverse()
    return UnitImaginary(*rotated.components)


def _sphere_rows(n: int, seed: int = 0) -> np.ndarray:
    """The points of ``sphere_sample(n, seed)`` as an (n, 3) array."""
    if n < 1:
        raise DomainError("need at least one sample point")
    ks = np.arange(n)
    z = 1.0 - (2.0 * ks + 1.0) / n
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = ks * golden
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    pts = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)

    if n > 1:
        rng = np.random.default_rng(seed)
        scale = 0.25 * math.sqrt(4.0 * math.pi / n)
        jitter = rng.uniform(-scale, scale, size=(n, 3))
        jitter[0] = 0.0  # keep the canonical anchor point exact
        pts = pts + jitter - (np.sum(pts * jitter, axis=1, keepdims=True)) * pts
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


# cyclic component orders for the cross product I x J
_NEXT = np.array([1, 2, 0])
_LAST = np.array([2, 0, 1])
# coordinate axes, one of which seeds each completion
_AXES = np.eye(3)


def _completion_rows(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (J, K = I J) of ``orthonormal_completion`` for unit rows (m, 3).

    K is the cross product I x J, which is the quaternion product of orthogonal units.
    """
    axis = np.argmin(np.abs(units), axis=1)
    j_rows = _AXES[axis] - units[np.arange(len(units)), axis, None] * units
    j_rows /= np.sqrt(np.add.reduce(j_rows * j_rows, axis=1, keepdims=True))
    k_rows = units[:, _NEXT] * j_rows[:, _LAST] - units[:, _LAST] * j_rows[:, _NEXT]
    return j_rows, k_rows


def sphere_sample(n: int, seed: int = 0) -> list[UnitImaginary]:
    """Deterministic quasi-uniform sample of n imaginary units.

    A Fibonacci lattice on the unit 2-sphere of imaginary directions, with a
    small seeded tangential jitter to break grid alignment. The first point is
    always exactly i, and the whole list is reproducible from (n, seed).
    """
    return [UnitImaginary(0.0, float(p[0]), float(p[1]), float(p[2]))
            for p in _sphere_rows(n, seed)]


def plain_data(value):
    """A report as plain data: a ``Quaternion`` as its four components, a
    dataclass as a dict of the fields that take part in its equality, and
    dicts and lists item by item; anything else is returned as it is."""
    if isinstance(value, Quaternion):
        return list(value.components)
    if is_dataclass(value):
        return {f.name: plain_data(getattr(value, f.name)) for f in fields(value) if f.compare}
    if isinstance(value, dict):
        return {key: plain_data(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain_data(item) for item in value]
    return value
