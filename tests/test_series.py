import math

import numpy as np
import pytest

from conftest import (
    coeff_deviation,
    random_ball_point,
    random_quaternion,
    random_series,
    random_unit,
    table_mul,
)
from quatregular import (
    DomainError,
    Quaternion,
    Series,
    ZeroFactorSignal,
    evaluate,
    regular_conjugate,
    slice_derivative,
    star,
    star_transform_point,
    symmetrization,
)
from quatregular.quaternions import I, J, K
from quatregular.serialization import dump_series, load_series


def series_sum(f, g):
    n = max(len(f.coeffs), len(g.coeffs))
    pad = lambda c: list(c) + [Quaternion()] * (n - len(c))
    return Series(tuple(a + b for a, b in zip(pad(f.coeffs), pad(g.coeffs))),
                  min(f.radius, g.radius))


class TestEvaluate:
    def test_linear(self):
        f = Series((0, 1), radius=2.0)
        q = Quaternion(1, 0, 0, 1)
        assert evaluate(f, q) == q

    def test_square_of_i_plus_j(self):
        # (i+j)^2 expanded with the independent table product
        f = Series((0, 0, 1), radius=2.0)
        q = Quaternion(0, 1, 1, 0)
        assert evaluate(f, q) == table_mul(q, q)
        assert evaluate(f, q) == Quaternion(-2)

    def test_constant(self, rng):
        a0 = random_quaternion(rng)
        f = Series((a0,))
        for _ in range(10):
            assert evaluate(f, random_ball_point(rng, 0.9)) == a0

    def test_domain_guard(self):
        f = Series((0, 1))
        with pytest.raises(DomainError, match="outside ball of validity"):
            evaluate(f, Quaternion(1.5))

    def test_eval_at_zero_is_first_coeff(self, rng):
        f = random_series(rng, 5)
        assert evaluate(f, Quaternion()) == f.coeffs[0]


class TestSliceDerivative:
    def test_monomial(self):
        assert slice_derivative(Series((0, 0, 1))).coeffs == (Quaternion(), Quaternion(2))

    def test_constant(self):
        assert slice_derivative(Series((5,))).coeffs == (Quaternion(),)

    def test_shift_example(self):
        f = Series((1, I, J))
        d = slice_derivative(f)
        assert d.coeffs == (I, Quaternion(0, 0, 2, 0))

    def test_iterated_recovers_factorials(self, rng):
        f = random_series(rng, 5)
        g = f
        fact = 1.0
        for n in range(6):
            assert (evaluate(g, Quaternion()) - fact * f.coeffs[n]).modulus() < 1e-12
            g = slice_derivative(g)
            fact *= n + 1


class TestStar:
    def test_single_term_order(self, rng):
        a, b = random_quaternion(rng), random_quaternion(rng)
        f = Series((0, a))
        g = Series((0, b))
        prod = star(f, g)
        assert coeff_deviation(prod, Series((0, 0, a * b))) < 1e-15

    def test_unit(self, rng):
        one = Series((1,))
        f = random_series(rng, 4)
        assert coeff_deviation(star(f, one), f) == 0.0
        assert coeff_deviation(star(one, f), f) == 0.0

    def test_hand_convolution(self):
        f = Series((I, J))
        g = Series((K, 1))
        prod = star(f, g)
        expected = (table_mul(I, K), table_mul(I, Quaternion(1)) + table_mul(J, K), J)
        assert prod.coeffs == expected
        assert prod.coeffs == (-J, Quaternion(0, 2, 0, 0), J)

    def test_degrees_add_and_flags(self, rng):
        f = random_series(rng, 3)
        g = random_series(rng, 4)
        prod = star(f, g)
        assert prod.degree == 7
        assert prod.radius == 1.0
        assert prod.exact

    def test_associativity(self, rng):
        for _ in range(100):
            f = random_series(rng, int(rng.integers(0, 7)))
            g = random_series(rng, int(rng.integers(0, 7)))
            h = random_series(rng, int(rng.integers(0, 7)))
            assert coeff_deviation(star(star(f, g), h), star(f, star(g, h))) < 1e-12

    def test_leibniz_rule(self, rng):
        for _ in range(100):
            f = random_series(rng, int(rng.integers(0, 7)))
            g = random_series(rng, int(rng.integers(0, 7)))
            lhs = slice_derivative(star(f, g))
            rhs = series_sum(star(slice_derivative(f), g), star(f, slice_derivative(g)))
            assert coeff_deviation(lhs, rhs) < 1e-13

    @pytest.mark.parametrize("degree", [12, 24])
    def test_cauchy_product_at_high_degree(self, rng, degree):
        # the convolution written out with the independent table product
        f, g = random_series(rng, degree, scale=1.0), random_series(rng, degree, scale=1.0)
        expected = []
        for n in range(2 * degree + 1):
            acc = Quaternion()
            for k in range(max(0, n - degree), min(n, degree) + 1):
                acc = acc + table_mul(f.coeffs[k], g.coeffs[n - k])
            expected.append(acc)
        scale = max(a.modulus() for a in expected)
        assert coeff_deviation(star(f, g), Series(tuple(expected))) <= 1e-12 * scale


class TestSeriesRows:
    def test_rows_match_components(self, rng):
        f = Series((0, I, random_quaternion(rng), 2.5))
        assert f.rows.shape == (4, 4)
        assert f.rows.tolist() == [list(a.components) for a in f.coeffs]

    def test_rows_are_read_only(self):
        f = Series((0, 1))
        with pytest.raises(ValueError):
            f.rows[1, 0] = 2.0
        assert f.rows[1, 0] == 1.0

    def test_rows_stay_out_of_equality_and_repr(self):
        f = Series((0, J), radius=0.5)
        assert f == Series((Quaternion(), J), radius=0.5)
        assert hash(f) == hash(Series((Quaternion(), J), radius=0.5))
        assert "rows" not in repr(f)

    def test_large_finite_coefficients_build_quietly(self):
        # pytest turns RuntimeWarning into an error: the finiteness check must
        # not overflow on coefficients whose sum passes the largest float
        f = Series((1e308, 1e308, Quaternion(0.0, 1e308, 1e308, 0.0)))
        assert np.isfinite(f.rows).all()

    def test_mixed_infinities_rejected_quietly(self):
        with pytest.raises(DomainError, match="coefficient 1 is not finite"):
            Series((1.0, Quaternion(0.0, math.inf, -math.inf, 0.0)))

    def test_dump_load_roundtrip(self, rng, tmp_path):
        f = random_series(rng, 5)
        path = tmp_path / "f.json"
        dump_series(f, path)
        back = load_series(path)
        assert back == f
        assert np.array_equal(back.rows, f.rows)


class TestStarTransformPoint:
    def test_real_point_fixed(self, rng):
        f = random_series(rng, 4)
        q = Quaternion(0.5)
        if evaluate(f, q).modulus() > 1e-6:
            assert (star_transform_point(f, q) - q).modulus() < 1e-12

    def test_constant_j(self):
        f = Series((J,), radius=2.0)
        out = star_transform_point(f, I)
        # (-j) i j by the table
        expected = table_mul(table_mul(-J, I), J)
        assert (out - expected).modulus() < 1e-14
        assert abs(out.modulus() - 1) < 1e-12
        assert abs(out.real) < 1e-12

    def test_sphere_invariance(self, rng):
        for _ in range(200):
            f = random_series(rng, int(rng.integers(0, 6)))
            q = random_ball_point(rng, 0.8)
            if evaluate(f, q).modulus() < 1e-3:
                continue
            out = star_transform_point(f, q)
            assert abs(out.modulus() - q.modulus()) < 1e-12
            assert abs(out.real - q.real) < 1e-12

    def test_zero_signals(self):
        f = Series((0, 1))
        with pytest.raises(ZeroFactorSignal, match="vanishes"):
            star_transform_point(f, Quaternion())

    def test_pointwise_star_identity(self, rng):
        checked = 0
        while checked < 100:
            f = random_series(rng, int(rng.integers(0, 5)))
            g = random_series(rng, int(rng.integers(0, 5)))
            q = random_ball_point(rng, 0.7)
            value = evaluate(f, q)
            if value.modulus() < 1e-2:
                continue
            checked += 1
            lhs = evaluate(star(f, g), q)
            rhs = value * evaluate(g, star_transform_point(f, q))
            assert (lhs - rhs).modulus() < 1e-10

    def test_real_zero_persists_exactly(self):
        # dyadic coefficients keep the whole computation exact
        g = star(Series((-0.5, 1), radius=4.0), Series((0.25, -1.5, 0.75), radius=4.0))
        assert evaluate(g, Quaternion(0.5)).modulus() == 0.0
        f = Series((0.75, Quaternion(0.5, -0.25, 1.25, 0), Quaternion(0, 0.5, 0, -0.75)),
                   radius=4.0)
        assert evaluate(star(f, g), Quaternion(0.5)).modulus() == 0.0


class TestConjugateAndSymmetrization:
    def test_real_coefficients_fixed(self):
        f = Series((1.5, -2.0, 0.25))
        assert regular_conjugate(f) == f

    def test_single_unit(self):
        assert regular_conjugate(Series((I,))).coeffs == (-I,)

    def test_involution_exact(self, rng):
        for _ in range(50):
            f = random_series(rng, int(rng.integers(0, 7)))
            assert regular_conjugate(regular_conjugate(f)) == f

    def test_symmetrization_of_identity(self):
        assert symmetrization(Series((0, 1))).coeffs == (Quaternion(), Quaternion(), Quaternion(1))

    def test_symmetrization_hand_example(self):
        sym = symmetrization(Series((I, J)))
        assert coeff_deviation(sym, Series((1, 0, 1))) < 1e-15

    def test_symmetrization_real_and_symmetric(self, rng):
        for _ in range(100):
            f = random_series(rng, int(rng.integers(0, 7)))
            sym = symmetrization(f)
            assert max(a.imag.modulus() for a in sym.coeffs) < 1e-13
            other = star(regular_conjugate(f), f)
            assert coeff_deviation(sym, other) < 1e-13

    def test_symmetrization_slice_preserving(self, rng):
        for _ in range(100):
            f = random_series(rng, int(rng.integers(0, 7)))
            sym = symmetrization(f)
            unit = random_unit(rng)
            x, y = rng.uniform(-0.6, 0.6), rng.uniform(0, 0.6)
            z = Quaternion(x, y * unit.x1, y * unit.x2, y * unit.x3)
            value = evaluate(sym, z)
            off = value - Quaternion(value.x0) - value.dot(unit) * unit
            assert off.modulus() < 1e-12
