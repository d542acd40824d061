import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_quaternion, random_unit, rotation_by_linear_system, table_mul
import quatregular
from quatregular import (
    DomainError,
    Quaternion,
    SlicePoint,
    UnitImaginary,
    orthonormal_completion,
    rotate_unit,
    sphere_sample,
    unit_of,
)
from quatregular.quaternions import I, J, K, _completion_rows, _slice_point

finite = st.floats(-1.0, 1.0, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


class TestArithmetic:
    def test_multiplication_table(self):
        assert I * J == K
        assert J * I == -K
        assert J * K == I
        assert K * J == -I
        assert K * I == J
        assert I * K == -J
        assert I * I == Quaternion(-1)
        assert J * J == Quaternion(-1)
        assert K * K == Quaternion(-1)

    def test_identity(self, rng):
        for _ in range(20):
            q = random_quaternion(rng)
            assert 1 * q == q
            assert q * 1 == q

    def test_distributed_product(self):
        # (2+i)(3+j) expanded against the basis-table oracle
        p = Quaternion(2, 1, 0, 0)
        q = Quaternion(3, 0, 1, 0)
        assert p * q == Quaternion(6, 3, 2, 1)
        assert p * q == table_mul(p, q)

    def test_against_table_oracle(self, rng):
        for _ in range(200):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert (p * q - table_mul(p, q)).modulus() < 1e-14

    @given(p=quaternions, q=quaternions, r=quaternions)
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, p, q, r):
        assert ((p * q) * r - p * (q * r)).modulus() < 1e-13

    @given(p=quaternions, q=quaternions)
    @settings(max_examples=200, deadline=None)
    def test_modulus_multiplicative(self, p, q):
        assert abs((p * q).modulus() - p.modulus() * q.modulus()) < 1e-13

    def test_conj_modulus_inverse(self):
        assert I.conjugate() == -I
        assert Quaternion(1, 1, 1, 1).modulus() == 2.0
        assert J.inverse() == -J
        with pytest.raises(DomainError, match="zero has no inverse"):
            Quaternion().inverse()

    @given(q=quaternions)
    @settings(max_examples=200, deadline=None)
    def test_modulus_squared_is_q_conj_q(self, q):
        prod = q * q.conjugate()
        assert prod.imag.modulus() < 1e-14
        assert abs(prod.real - q.modulus_sq()) < 1e-13

    def test_normal_range_keeps_the_sum_of_squares(self, rng):
        for _ in range(100):
            q = random_quaternion(rng)
            m2 = q.modulus_sq()
            assert q.modulus() == math.sqrt(m2)
            assert q.inverse() == Quaternion(q.x0 / m2, -q.x1 / m2, -q.x2 / m2, -q.x3 / m2)

    @pytest.mark.parametrize("value", [1e200, 1e-170], ids=["huge", "tiny"])
    def test_inverse_beyond_the_squares_range(self, value):
        # the sum of squares overflows or underflows; the inverse does not
        assert math.isclose(Quaternion(value).inverse().x0, 1.0 / value, rel_tol=1e-15)
        q = Quaternion(value, -2 * value, 0.5 * value, 3 * value)
        assert (q * q.inverse() - Quaternion(1)).modulus() < 1e-15
        assert math.isclose(q.modulus(), math.sqrt(14.25) * value, rel_tol=1e-15)

    def test_inverse_beyond_the_largest_float(self):
        with pytest.raises(DomainError, match="largest float"):
            Quaternion(1e-320).inverse()

    def test_inverse_roundtrip(self, rng):
        for _ in range(100):
            q = random_quaternion(rng)
            if q.modulus() < 1e-3:
                continue
            lhs = q * q.inverse()
            rhs = q.inverse() * q
            assert (lhs - Quaternion(1)).modulus() < 1e-12 * max(1, 1 / q.modulus())
            assert (rhs - Quaternion(1)).modulus() < 1e-12 * max(1, 1 / q.modulus())


class TestUnits:
    def test_unit_of_examples(self):
        assert unit_of(Quaternion(1, 2, 0, 0)) == I
        u = unit_of(Quaternion(0, 0, 3, 4))
        assert u == Quaternion(0, 0, 0.6, 0.8)
        assert (u * u + 1).modulus() < 1e-12
        with pytest.raises(DomainError, match="real point"):
            unit_of(Quaternion(5))

    def test_unit_validation(self):
        with pytest.raises(DomainError):
            UnitImaginary(0.1, 1, 0, 0)
        with pytest.raises(DomainError):
            UnitImaginary(0, 0.5, 0, 0)

    @pytest.mark.parametrize("build", [
        lambda: UnitImaginary(0, math.nan, 0, 0),
        lambda: UnitImaginary(math.nan, 1, 0, 0),
        lambda: UnitImaginary.from_vector(math.inf, 0, 0),
        lambda: unit_of(Quaternion(0, math.inf, 0, 0)),
        lambda: rotate_unit(Quaternion(math.nan), I),
    ], ids=["nan-component", "nan-real-part", "from_vector", "unit_of", "rotate_unit"])
    def test_non_finite_units_rejected(self, build):
        with pytest.raises(DomainError, match="unit imaginary must have"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: unit_of(Quaternion(0, 1e200, 1e200, 0)),
        lambda: UnitImaginary.from_vector(1e200, 1e200, 0),
        lambda: unit_of(Quaternion(0, 1e-170, 1e-170, 0)),
    ], ids=["unit_of", "from_vector", "unit_of-tiny"])
    def test_huge_and_tiny_vectors_normalise(self, build):
        half = math.sqrt(0.5)
        assert (build() - Quaternion(0, half, half, 0)).modulus() < 1e-15

    def test_completion_canonical(self):
        j_unit, k_unit = orthonormal_completion(I)
        assert j_unit == J and k_unit == K

    def test_completion_properties(self, rng):
        for _ in range(100):
            unit = random_unit(rng)
            j_unit, k_unit = orthonormal_completion(unit)
            assert abs(unit.dot(j_unit)) < 1e-12
            assert abs(j_unit.modulus() - 1) < 1e-12
            # orthogonal imaginary units anticommute
            anti = unit * j_unit + j_unit * unit
            assert anti.modulus() < 1e-13
            assert (k_unit - unit * j_unit).modulus() < 1e-13

    def test_completion_rows_match_the_one_hot_formula(self, rng):
        # the axis term is indexed rather than summed from a one-hot product, and
        # the norm is summed squares; neither moves a bit, signed zeros included
        units = rng.standard_normal((200, 3))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        units = np.concatenate([units, [(1, 0, 0), (0, -0.0, -1), (-0.0, 0, 1), (0, 1, 0),
                                        (-1, -0.0, -0.0), (0.6, -0.0, 0.8)]])
        axis_rows = np.eye(3)[np.argmin(np.abs(units), axis=1)]
        j_rows = axis_rows - np.sum(axis_rows * units, axis=1, keepdims=True) * units
        j_rows /= np.linalg.norm(j_rows, axis=1, keepdims=True)
        nxt, last = [1, 2, 0], [2, 0, 1]
        k_rows = units[:, nxt] * j_rows[:, last] - units[:, last] * j_rows[:, nxt]
        for new, old in zip(_completion_rows(units), (j_rows, k_rows)):
            assert np.array_equal(new, old)
            assert np.array_equal(np.signbit(new), np.signbit(old))

    def test_completion_diagonal_unit(self):
        unit = UnitImaginary.from_vector(1, 1, 0)
        j_unit, _ = orthonormal_completion(unit)
        assert (unit * j_unit + j_unit * unit).modulus() < 1e-12


class TestRotateUnit:
    def test_real_multiplier_fixes_unit(self, rng):
        for _ in range(10):
            unit = random_unit(rng)
            assert (rotate_unit(Quaternion(2), unit) - unit).modulus() < 1e-14

    def test_j_times_i(self):
        out = rotate_unit(J, I)
        assert (out - (-I)).modulus() < 1e-14
        # j * i = (-i) * j = -k on both sides
        assert J * I == Quaternion(0, 0, 0, -1)
        assert (-I) * J == Quaternion(0, 0, 0, -1)

    def test_postconditions_and_system_oracle(self, rng):
        for _ in range(1000):
            c = random_quaternion(rng)
            if c.modulus() < 1e-3:
                continue
            unit = random_unit(rng)
            out = rotate_unit(c, unit)
            assert abs(out.modulus() - 1) < 1e-12
            assert (out * out + 1).modulus() < 1e-12
            assert (c * unit - out * c).modulus() < 1e-12 * max(1.0, c.modulus())
            oracle = rotation_by_linear_system(c, unit)
            assert (out - oracle).modulus() < 1e-11

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            rotate_unit(Quaternion(), I)

    def test_huge_multiplier(self):
        assert (rotate_unit(Quaternion(1e200, 1e200), J) - K).modulus() < 1e-15


class TestSphereSample:
    def test_first_point_canonical(self):
        assert sphere_sample(1) == [I]

    def test_deterministic(self):
        assert sphere_sample(64, seed=5) == sphere_sample(64, seed=5)
        assert sphere_sample(64, seed=5) != sphere_sample(64, seed=6)

    def test_covering_gap(self):
        pts = np.array([(u.x1, u.x2, u.x3) for u in sphere_sample(1000, seed=0)])
        dots = np.clip(pts @ pts.T, -1.0, 1.0)
        np.fill_diagonal(dots, -1.0)
        nearest = np.arccos(dots.max(axis=1))
        assert nearest.max() < 0.25

    def test_all_on_sphere(self):
        for u in sphere_sample(200, seed=1):
            assert abs(u.modulus() - 1) < 1e-12
            assert u.real == 0.0


class TestSlicePoint:
    def test_embed_roundtrip(self, rng):
        for _ in range(50):
            q = random_quaternion(rng)
            pt = SlicePoint.from_quaternion(q)
            assert (pt.embed() - q).modulus() < 1e-14
            assert pt.y >= 0

    def test_tiny_imaginary_part_kept(self):
        q = Quaternion(1, 0, 1e-170, 0)
        pt = SlicePoint.from_quaternion(q)
        assert pt.unit == J and pt.y == 1e-170
        assert pt.embed() == q

    def test_real_point_convention(self):
        pt = SlicePoint.from_quaternion(Quaternion(0.5))
        assert pt.unit == I and pt.y == 0.0
        assert pt.embed() == Quaternion(0.5)

    def test_slice_point_takes_either_sign(self):
        assert _slice_point(0.5, -2.0, J) == Quaternion(0.5, 0.0, -2.0, 0.0)
        assert _slice_point(0.5, 2.0, J) == SlicePoint(0.5, 2.0, J).embed()

    @pytest.mark.parametrize("y", [-1e-300, -1.0, math.nan], ids=["tiny", "negative", "nan"])
    def test_y_below_zero_or_nan_rejected(self, y):
        with pytest.raises(DomainError, match="requires y >= 0"):
            SlicePoint(0.1, y, I)


_F = quatregular.Series((0, 1, 0.25))
# every entry point that takes a point, shift, target or excluded value, called
# with ``p`` in that place
_POINT_CALLS = {
    "evaluate": lambda p: quatregular.evaluate(_F, p),
    "star_transform_point": lambda p: quatregular.star_transform_point(_F, p),
    "unit_of": lambda p: unit_of(p),
    "rotate_unit": lambda p: rotate_unit(p, I),
    "regular_translation": lambda p: quatregular.regular_translation(_F, p),
    "translation_continuity_probe": lambda p: quatregular.translation_continuity_probe(
        _F, [Quaternion(0.1), p], 0.2),
    "mean_value_margin": lambda p: quatregular.mean_value_margin(_F, p),
    "sphere_extrema": lambda p: quatregular.sphere_extrema(p, I),
    "sphere_extrema[c]": lambda p: quatregular.sphere_extrema(I, p),
    "attain": lambda p: quatregular.attain(_F, p, 0.5),
    "in_oset": lambda p: quatregular.in_oset(p, 0.5),
    "g_series": lambda p: quatregular.g_series(_F, p),
}


class TestPointArguments:
    @pytest.mark.parametrize("name", sorted(_POINT_CALLS))
    def test_a_non_quaternion_point_is_a_type_error(self, name):
        for bad in ("x", None, [0.1, 0.0, 0.0, 0.0]):
            with pytest.raises(TypeError, match=f"expected a quaternion, got {type(bad).__name__}"):
                _POINT_CALLS[name](bad)
