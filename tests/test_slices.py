import math

import pytest

from conftest import coeff_deviation, random_quaternion, random_series, random_unit, table_mul
from quatregular import (
    ComplexSeries,
    DomainError,
    Quaternion,
    Series,
    evaluate,
    ext_from_slice,
    regular_translation,
    representation_eval,
    sphere_pair,
    split,
    split_conjugate_check,
    translation_continuity_probe,
)
from quatregular.quaternions import I, J


def on_slice(x, y, unit):
    return Quaternion(x, y * unit.x1, y * unit.x2, y * unit.x3)


class TestSplit:
    def test_identity_series(self):
        pair = split(Series((0, 1)), I)
        assert pair.F.coeffs == (0j, 1 + 0j)
        assert pair.G.coeffs == (0j, 0j)

    def test_single_j_coefficient(self):
        pair = split(Series((J,)), I)
        assert pair.J == J
        assert pair.F.coeffs == (0j,)
        assert pair.G.coeffs == (1 + 0j,)

    def test_full_basis_coefficient(self):
        pair = split(Series((Quaternion(1, 1, 1, 1),)), I)
        assert pair.F.coeffs == (1 + 1j,)
        assert pair.G.coeffs == (1 + 1j,)  # k = ij

    def test_reconstruction(self, rng):
        for _ in range(50):
            f = random_series(rng, int(rng.integers(0, 8)))
            unit = random_unit(rng)
            pair = split(f, unit)
            for n, a in enumerate(f.coeffs):
                from quatregular import embed_complex

                rebuilt = (embed_complex(pair.F.coeffs[n], unit)
                           + embed_complex(pair.G.coeffs[n], unit) * pair.J)
                assert (rebuilt - a).modulus() < 1e-14

    def test_slicewise_values_match(self, rng):
        for _ in range(20):
            f = random_series(rng, int(rng.integers(0, 6)))
            unit = random_unit(rng)
            pair = split(f, unit)
            x, y = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
            direct = evaluate(f, on_slice(x, y, unit))
            assert (pair.evaluate(complex(x, y)) - direct).modulus() < 1e-13

    def test_roundtrip_canonical_exact(self):
        f = Series((Quaternion(1, 2, 3, 4), Quaternion(-1, 0, 5, 2)))
        pair = split(f, I)
        assert ext_from_slice(pair.F, pair.G, pair.I, pair.J) == f

    def test_roundtrip_random(self, rng):
        for _ in range(50):
            f = random_series(rng, int(rng.integers(0, 8)))
            unit = random_unit(rng)
            pair = split(f, unit)
            back = ext_from_slice(pair.F, pair.G, pair.I, pair.J, exact=f.exact)
            assert coeff_deviation(back, f) < 1e-13
            assert back.radius == f.radius

    def test_ext_reassembly_example(self):
        F = ComplexSeries((0j, 1j), I)
        G = ComplexSeries((1 + 0j, 0j), I)
        out = ext_from_slice(F, G, I, J)
        assert out.coeffs == (J, I)


class TestSplitConjugate:
    def test_real_coefficients(self):
        f = Series((1.0, -0.5, 2.0))
        pair, pair_c = split_conjugate_check(f, I)
        assert all(abs(b) == 0 for b in pair.G.coeffs)
        assert all(abs(b) == 0 for b in pair_c.G.coeffs)
        assert all(abs(a.imag) == 0 for a in pair.F.coeffs)

    def test_single_unit(self):
        _, pair_c = split_conjugate_check(Series((I,)), I)
        assert pair_c.F.coeffs == (-1j,)

    def test_relation_random(self, rng):
        for _ in range(50):
            f = random_series(rng, int(rng.integers(0, 8)))
            unit = random_unit(rng)
            pair, pair_c = split_conjugate_check(f, unit)
            for a, ac in zip(pair.F.coeffs, pair_c.F.coeffs):
                assert abs(ac - a.conjugate()) < 1e-13
            for b, bc in zip(pair.G.coeffs, pair_c.G.coeffs):
                assert abs(bc + b) < 1e-13


class TestRepresentationFormula:
    def test_identity_series(self, rng):
        f = Series((0, 1))
        for _ in range(10):
            i_unit, j_unit = random_unit(rng), random_unit(rng)
            x, y = rng.uniform(-0.5, 0.5), rng.uniform(0, 0.5)
            out = representation_eval(f, x, y, j_unit, i_unit)
            assert (out - on_slice(x, y, i_unit)).modulus() < 1e-14

    def test_degenerate_sphere(self, rng):
        f = random_series(rng, 5)
        out = representation_eval(f, 0.4, 0.0, J, I)
        assert (out - evaluate(f, Quaternion(0.4))).modulus() < 1e-14

    def test_matches_direct_eval(self, rng):
        for _ in range(50):
            f = random_series(rng, int(rng.integers(0, 8)))
            i_unit, j_unit = random_unit(rng), random_unit(rng)
            x, y = rng.uniform(-0.6, 0.6), rng.uniform(0, 0.6)
            out = representation_eval(f, x, y, j_unit, i_unit)
            assert (out - evaluate(f, on_slice(x, y, i_unit))).modulus() < 1e-11

    def test_out_of_ball(self):
        with pytest.raises(DomainError):
            representation_eval(Series((0, 1)), 0.9, 0.9, J, I)


class TestSpherePair:
    def test_identity_series(self):
        pair = sphere_pair(Series((0, 1)), 0.3, 0.4)
        assert (pair.b - Quaternion(0.3)).modulus() < 1e-15
        assert (pair.c - Quaternion(0.4)).modulus() < 1e-15

    def test_square_signed_constant(self):
        # b = x^2 - y^2 and c = 2xy, with c negative when x < 0
        pair = sphere_pair(Series((0, 0, 1)), -0.3, 0.4)
        assert abs(pair.b.real - (0.09 - 0.16)) < 1e-15
        assert abs(pair.c.real - (-0.24)) < 1e-15

    def test_real_axis(self, rng):
        f = random_series(rng, 5)
        pair = sphere_pair(f, 0.5, 0.0)
        assert pair.c.modulus() == 0.0
        assert (pair.b - evaluate(f, Quaternion(0.5))).modulus() < 1e-14

    def test_reconstruction_over_sphere(self, rng):
        from quatregular import sphere_sample

        for _ in range(10):
            f = random_series(rng, int(rng.integers(0, 8)))
            x, y = rng.uniform(-0.6, 0.6), rng.uniform(0, 0.6)
            pair = sphere_pair(f, x, y)
            for unit in sphere_sample(100, seed=3):
                direct = evaluate(f, on_slice(x, y, unit))
                assert (pair.evaluate(unit) - direct).modulus() < 1e-11

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            sphere_pair(Series((0, 1)), 0.8, 0.8)
        with pytest.raises(DomainError):
            sphere_pair(Series((0, 1)), 0.1, -0.2)


class TestRegularTranslation:
    def test_zero_shift(self, rng):
        f = random_series(rng, 6)
        assert regular_translation(f, Quaternion()) == f

    def test_square_recentred(self, rng):
        w = random_quaternion(rng, 0.4)
        out = regular_translation(Series((0, 0, 1)), w)
        assert coeff_deviation(out, Series((w * w, 2 * w, 1), radius=out.radius)) < 1e-14
        assert abs(out.radius - (1 - w.modulus())) < 1e-15

    def test_real_shift_matches_everywhere(self, rng):
        for _ in range(20):
            f = random_series(rng, int(rng.integers(0, 8)))
            w = Quaternion(rng.uniform(-0.4, 0.4))
            shifted = regular_translation(f, w)
            q = random_quaternion(rng, 0.25)
            assert (evaluate(shifted, q) - evaluate(f, q + w)).modulus() < 1e-11

    def test_on_slice_matches(self, rng):
        for _ in range(20):
            f = random_series(rng, int(rng.integers(0, 8)))
            unit = random_unit(rng)
            w = on_slice(0.2, 0.3, unit)
            shifted = regular_translation(f, w)
            q = on_slice(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), unit)
            assert (evaluate(shifted, q) - evaluate(f, q + w)).modulus() < 1e-11

    def test_off_slice_differs(self):
        # guards against implementing naive composition
        f = Series((0, 0, 1))
        w = Quaternion(0, 0, 0.3, 0)
        shifted = regular_translation(f, w)
        q = Quaternion(0, 0.2, 0, 0)
        delta = (evaluate(shifted, q) - evaluate(f, q + w)).modulus()
        assert delta > 1e-6
        # [q, w] = qw - wq is the discrepancy for the square
        assert abs(delta - (q * w - w * q).modulus()) < 1e-14

    @pytest.mark.parametrize("degree", [12, 24])
    def test_binomial_recentring_at_high_degree(self, rng, degree):
        # b_m = sum_n C(n, m) w^(n-m) a_n with powers from the independent table product
        f = random_series(rng, degree, scale=1.0)
        w = random_quaternion(rng, 0.2)
        powers = [Quaternion(1.0)]
        for _ in range(degree):
            powers.append(table_mul(powers[-1], w))
        expected = []
        for m in range(degree + 1):
            acc = Quaternion()
            for n in range(m, degree + 1):
                acc = acc + math.comb(n, m) * table_mul(powers[n - m], f.coeffs[n])
            expected.append(acc)
        scale = max(a.modulus() for a in expected)
        out = regular_translation(f, w)
        assert coeff_deviation(out, Series(tuple(expected), out.radius)) <= 1e-12 * scale

    def test_shift_outside_ball(self):
        with pytest.raises(DomainError):
            regular_translation(Series((0, 1)), Quaternion(1.5))

    def test_degree_cap(self):
        f = Series(tuple([0.0] * 61 + [1.0]), radius=2.0)
        with pytest.raises(DomainError, match="cap"):
            regular_translation(f, Quaternion(0.1))


class TestContinuityProbe:
    def test_constant_sequence(self, rng):
        f = random_series(rng, 5)
        w = Quaternion(0.1, 0.2, 0, 0)
        assert translation_continuity_probe(f, [w, w, w], 0.4) == 0.0

    def test_real_perturbations_decrease(self, rng):
        f = random_series(rng, 4)
        limit = Quaternion(0.15)
        values = []
        for n in (2, 8, 32):
            seq = [limit + Quaternion(0.3 / m) for m in range(1, n + 1)] + [limit]
            values.append(translation_continuity_probe(f, seq, 0.4))
        assert values[2] < values[1] < values[0]
        # discrepancy scales like the perturbation 1/n
        assert values[2] < 0.25 * values[1]

    def test_cross_slice_convergence(self, rng):
        f = random_series(rng, 4)
        limit = Quaternion(0.1, 0.25, 0, 0)
        values = []
        for n in (2, 8, 32):
            units = [Quaternion(0, math.cos(1.0 / m), math.sin(1.0 / m), 0)
                     for m in range(1, n + 1)]
            seq = [Quaternion(0.1) + 0.25 * u for u in units] + [limit]
            values.append(translation_continuity_probe(f, seq, 0.4))
        assert values[2] < values[1] < values[0]
        assert values[2] < 0.2 * values[0]

    def test_radius_guard(self, rng):
        f = random_series(rng, 3)
        with pytest.raises(DomainError):
            translation_continuity_probe(f, [Quaternion(0.5)], 0.6)
