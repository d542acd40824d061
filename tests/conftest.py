"""Shared helpers: independent oracles, and the seeded generators of the package.

The oracles here deliberately avoid the library code paths they check: the
basis-table product expands by distributivity over a literal multiplication
table, and the rotation oracle solves the defining linear system by
elimination instead of conjugating.
"""

import numpy as np
import pytest

from quatregular import Quaternion, UnitImaginary
# the seeded generators the test modules import from here
from quatregular.verification import (
    coeff_deviation,
    random_ball_point,
    random_quaternion,
    random_series,
    random_unit,
)

# literal multiplication table over the basis (1, i, j, k): entries are
# (sign, index) of the product basis element
_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def table_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Product by distributivity over the basis table; oracle for __mul__."""
    out = [0.0, 0.0, 0.0, 0.0]
    pc, qc = p.components, q.components
    for a in range(4):
        if pc[a] == 0.0:
            continue
        for b in range(4):
            if qc[b] == 0.0:
                continue
            sign, idx = _TABLE[(a, b)]
            out[idx] += sign * pc[a] * qc[b]
    return Quaternion(*out)


def rotation_by_linear_system(c: Quaternion, unit: UnitImaginary) -> Quaternion:
    """Solve c*I = L*c for L by elimination in the basis adapted to c.

    Writing c = a + b*J with J the imaginary direction of c, and decomposing
    I over (J, K, JK), the component equations reduce to l1 = i1 and a 2x2
    system with determinant a^2 + b^2.
    """
    a = c.real
    im = c.imag
    b = im.modulus()
    if b == 0.0:
        return Quaternion(0.0, unit.x1, unit.x2, unit.x3)
    j_vec = np.array([im.x1, im.x2, im.x3]) / b
    axis = int(np.argmin(np.abs(j_vec)))
    e = np.zeros(3)
    e[axis] = 1.0
    k_vec = e - np.dot(e, j_vec) * j_vec
    k_vec /= np.linalg.norm(k_vec)
    jk_vec = np.cross(j_vec, k_vec)
    i_vec = np.array([unit.x1, unit.x2, unit.x3])
    i1, i2, i3 = np.dot(i_vec, j_vec), np.dot(i_vec, k_vec), np.dot(i_vec, jk_vec)
    det = a * a + b * b
    l1 = i1
    l2 = ((a * a - b * b) * i2 - 2.0 * a * b * i3) / det
    l3 = (2.0 * a * b * i2 + (a * a - b * b) * i3) / det
    out = l1 * j_vec + l2 * k_vec + l3 * jk_vec
    return Quaternion(0.0, *out)


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
