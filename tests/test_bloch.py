import math

import numpy as np
import pytest

from conftest import random_quaternion, random_series
from quatregular import (
    DomainError,
    NumericalSearchError,
    PreconditionError,
    Quaternion,
    Series,
    attain,
    bl_search,
    coverage_report,
    fourth_root_series,
    g_series,
    in_oset,
    inscribed_disc_check,
    inscribed_disc_margin,
    oset_slice_curve,
    parseval_mean,
    rho_lemma,
    slice_derivative,
    split_norm,
    star,
)
from quatregular.quaternions import I, J

RHO_FLOOR_SCALE = 1.0 / (32.0 * math.sqrt(2.0))


def sqrt_binomial_coeffs(n):
    """Oracle: power series of (1 - q)^{1/2} by the exponent recurrence."""
    out = [1.0]
    c = 1.0
    for k in range(n):
        c *= (0.5 - k) / (k + 1)
        out.append(c * (-1.0) ** (k + 1))
    return out


class TestOSet:
    def test_real_half_rho(self):
        rho = 0.8
        assert in_oset(Quaternion(rho / 2), rho)

    def test_pure_imaginary_excluded(self):
        assert not in_oset(Quaternion(0, 0.01, 0, 0), 1.0)

    def test_membership_bounds_modulus(self, rng):
        for _ in range(10000):
            rho = float(rng.uniform(0.05, 1.5))
            q = random_quaternion(rng, rho)
            if in_oset(q, rho):
                assert q.modulus() < rho

    def test_scaling(self, rng):
        for _ in range(10000):
            rho = float(rng.uniform(0.05, 2.0))
            q = random_quaternion(rng, rho)
            assert in_oset(q, rho) == in_oset(q / rho, 1.0)

    def test_rho_validation(self):
        with pytest.raises(DomainError):
            in_oset(Quaternion(1), 0.0)


class TestCurve:
    def test_axis_point(self):
        pts = oset_slice_curve(0.7, 64)
        assert pts[0] == (0.7, 0.0)
        assert pts[32] == (-0.7, 0.0)

    def test_on_curve_equation(self):
        for rho in (0.25, 1.0):
            for x, y in oset_slice_curve(rho, 256):
                r2 = x * x + y * y
                assert abs(r2 ** 1.5 - rho * x * x) < 1e-10

    def test_passes_origin(self):
        pts = oset_slice_curve(1.0, 64)
        assert any(x == 0.0 and y == 0.0 for x, y in pts)

    def test_scaling(self):
        base = oset_slice_curve(1.0, 64)
        scaled = oset_slice_curve(0.3, 64)
        for (x1, y1), (x0, y0) in zip(scaled, base):
            assert abs(x1 - 0.3 * x0) < 1e-14
            assert abs(y1 - 0.3 * y0) < 1e-14

    def test_min_points(self):
        with pytest.raises(DomainError):
            oset_slice_curve(1.0, 8)


class TestInscribedDisc:
    def test_reference_point_values(self):
        # rightmost disc point at rho = 1: both sides of the inequality
        x = 0.5 + 37.0 / 256.0
        assert abs(x ** 3 - 0.26775) < 1e-4
        assert abs(1.0 * x * x - 0.41542) < 1e-4
        assert x ** 3 < x * x

    @pytest.mark.parametrize("rho", [1.0, 1.0 / (32.0 * math.sqrt(2.0)), 0.25, 0.1])
    def test_discs_fit(self, rho):
        assert inscribed_disc_check(rho)
        assert inscribed_disc_margin(rho) > 0.0

    def test_warns_above_one(self):
        with pytest.warns(UserWarning, match="rho <= 1"):
            inscribed_disc_check(1.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            inscribed_disc_check(-0.5)


class TestRhoLemma:
    def test_identity(self):
        assert rho_lemma(Series((0, 1))) == 0.25

    def test_vanishing_derivative(self):
        assert rho_lemma(Series((0, 0, 1))) == 0.0

    def test_quadratic_j(self):
        # derivative 1 + 2 q j has split norm 1 + 2 = ... computed by grid
        f = Series((0, 1, J))
        value = rho_lemma(f)
        norm = split_norm(slice_derivative(f)).value
        assert abs(value - 1.0 / (4.0 * norm)) < 1e-12

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="f\\(0\\) = 0"):
            rho_lemma(Series((1, 1)))
        with pytest.raises(PreconditionError, match="real"):
            rho_lemma(Series((0, I)))


class TestGSeries:
    def test_identity_c_one(self):
        g = g_series(Series((0, 1)), Quaternion(1))
        assert g.coeffs == (Quaternion(1), Quaternion(-2), Quaternion(1))

    def test_constant_term_one(self, rng):
        for _ in range(20):
            f = random_series(rng, int(rng.integers(1, 6)), monic_shift=True)
            c = random_quaternion(rng) + Quaternion(1.5)
            g = g_series(f, c)
            assert g.coeffs[0] == Quaternion(1)
            assert all(a.is_real() for a in g.coeffs)

    def test_derivative_at_zero(self, rng):
        for _ in range(20):
            f = random_series(rng, int(rng.integers(1, 6)), monic_shift=True)
            c = random_quaternion(rng) + Quaternion(1.5)
            g = g_series(f, c)
            expected = -2.0 * (f.coeffs[1] * c.inverse()).x0
            assert abs(g.coeffs[1].x0 - expected) < 1e-13

    def test_zero_excluded_value(self):
        with pytest.raises(DomainError):
            g_series(Series((0, 1)), Quaternion())


class TestFourthRoot:
    def test_constant_one(self):
        psi = fourth_root_series(Series((1,)))
        assert psi.coeffs == (Quaternion(1),)

    def test_square_of_one_minus_q(self):
        g = Series((1, -2, 1))
        psi = fourth_root_series(g)
        expected = sqrt_binomial_coeffs(2)
        for a, e in zip(psi.coeffs, expected):
            assert abs(a.x0 - e) < 1e-14

    def test_longer_binomial_oracle(self):
        # (1-q)^2 padded with zeros: the root must keep following (1-q)^{1/2}
        g = Series((1.0, -2.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        psi = fourth_root_series(g)
        expected = sqrt_binomial_coeffs(6)
        for a, e in zip(psi.coeffs, expected):
            assert abs(a.x0 - e) < 1e-13

    def test_fourth_power_matches(self, rng):
        for _ in range(20):
            f = random_series(rng, int(rng.integers(1, 6)), monic_shift=True)
            c = random_quaternion(rng) + Quaternion(1.5)
            g = g_series(f, c)
            psi = fourth_root_series(g)
            fourth = star(star(star(psi, psi), psi), psi)
            for n in range(g.degree + 1):
                assert (fourth.coeffs[n] - g.coeffs[n]).modulus() < 1e-11

    def test_derivative_identity(self, rng):
        for _ in range(20):
            f = random_series(rng, int(rng.integers(1, 6)), monic_shift=True)
            c = random_quaternion(rng) + Quaternion(1.5)
            psi = fourth_root_series(g_series(f, c))
            expected = -0.5 * (f.coeffs[1] * c.inverse()).x0
            assert abs(psi.coeffs[1].x0 - expected) < 1e-12

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="real"):
            fourth_root_series(Series((1, I)))
        with pytest.raises(PreconditionError, match="constant term"):
            fourth_root_series(Series((2, 1)))


class TestParseval:
    def test_constant(self):
        integral, coeff_sum = parseval_mean(Series((1,)), 0.5)
        assert abs(integral - 1.0) < 1e-14
        assert coeff_sum == 1.0

    def test_one_plus_q(self):
        # direct integral of |1 + 0.5 e^{i t}|^2 over the circle is 1 + 0.25
        integral, coeff_sum = parseval_mean(Series((1, 1)), 0.5)
        assert abs(integral - 1.25) < 1e-12
        assert abs(coeff_sum - 1.25) < 1e-15

    def test_random_real_degree8(self, rng):
        coeffs = tuple(float(v) for v in rng.uniform(-1, 1, size=9))
        integral, coeff_sum = parseval_mean(Series(coeffs), 0.9)
        assert abs(integral - coeff_sum) < 1e-8

    def test_quaternionic_coefficients(self, rng):
        f = random_series(rng, 6)
        unit = Quaternion(0, 0, 1, 0)
        from quatregular import UnitImaginary

        integral, coeff_sum = parseval_mean(f, 0.8, unit=UnitImaginary(0, 0, 1, 0))
        assert abs(integral - coeff_sum) < 1e-9


class TestAttain:
    def test_identity(self):
        target = Quaternion(0.1, -0.2, 0.05, 0)
        root = attain(Series((0, 1)), target, 1.0)
        assert root is not None
        assert (root - target).modulus() < 1e-9

    def test_square_root_of_minus_two(self):
        root = attain(Series((0, 0, 1), radius=2.0), Quaternion(-2), 1.9)
        assert root is not None
        assert (root * root - Quaternion(-2)).modulus() < 1e-8
        assert root.modulus() < 1.9

    def test_unattainable(self):
        assert attain(Series((0, 1)), Quaternion(5), 1.0) is None

    def test_ball_respected(self):
        # target only reachable outside the search ball
        assert attain(Series((0, 1)), Quaternion(0.9), 0.5) is None


class TestCoverage:
    def test_identity_quarter(self):
        report = coverage_report(Series((0, 1)), 0.25, samples=200, seed=5)
        assert report.hits == 200
        assert not report.misses
        assert report.max_residual < 1e-8

    def test_vacuous(self):
        report = coverage_report(Series((0, 1)), 0.25, samples=0)
        assert report.hits == 0 and not report.misses

    def test_soft_quadratic(self):
        f = Series((0, 1, 0.1))
        report = coverage_report(f, rho_lemma(f), samples=200, seed=5)
        assert report.hits == 200
        assert not report.misses

    def test_samples_in_shrunken_set(self, rng):
        f = Series((0, 1))
        report = coverage_report(f, 0.25, samples=50, seed=9)
        assert report.samples == 50


class TestSearch:
    def test_profile_only_on_failure(self):
        # the 1024-radius profile stays out of a report and is carried by the error
        assert "mu_profile" not in bl_search(Series((0, 1)), 0.9).diagnostics
        with pytest.raises(NumericalSearchError, match="at s = 0") as err:
            bl_search(Series((0, 1)), 1e-13)
        profile = err.value.diagnostics["mu_profile"]
        assert len(profile) == 1024
        assert profile[0] == [0.0, 0.0] and profile[-1] == [1e-13, 1e-13]

    def test_identity_closed_form(self):
        report = bl_search(Series((0, 1)), 0.99)
        assert abs(report.R_r - 0.495) < 1e-9
        assert report.w.modulus() < 1e-9
        assert abs(report.rho_r - 0.12375) < 1e-9
        assert abs(report.rotation.modulus() - 1.0) < 1e-12
        assert report.rho_r >= 0.99 * RHO_FLOOR_SCALE - 1e-6

    def test_invariants_nontrivial(self):
        f = Series((0, 1, 0, 5.0 / 3.0))
        report = bl_search(f, 0.99)
        assert abs(report.w.modulus() + 2 * report.R_r - report.r) < 1e-9
        assert abs(report.rotation.modulus() - 1.0) < 1e-12
        d = report.diagnostics
        assert abs(d["dphi0"] - report.r / (2 * report.R_r)) < 1e-9
        assert d["dphi_norm"]["value"] <= d["dphi_norm_bound"] * (1 + 1e-6)
        assert report.rho_r >= d["rho_lower_bound"] - 1e-6
        # known root of s (1 + 5 (r-s)^2) = r at r = 0.99
        assert abs(2 * report.R_r - 0.2829) < 5e-3

    def test_nonreal_shift(self):
        # derivative 1 + 1.6 q j peaks at w = -t j, a genuinely nonreal shift
        f = Series((0, 1, Quaternion(0, 0, 0.8, 0)))
        report = bl_search(f, 0.99)
        assert report.w.imag.modulus() > 0.1
        assert abs(report.w.modulus() + 2 * report.R_r - report.r) < 1e-9
        assert abs(report.diagnostics["dphi0"] - report.r / (2 * report.R_r)) < 1e-9
        assert report.rho_r >= report.diagnostics["rho_lower_bound"] - 1e-6

    def test_translation_image_contains_rotated_set(self):
        # spot check of the coverage statement: f(w) + t * rotation attained
        # on the working ball of the regular translation
        from quatregular import regular_translation

        f = Series((0, 1, Quaternion(0, 0, 0.8, 0)))
        report = bl_search(f, 0.99)
        shifted = regular_translation(f, report.w).with_radius(report.R_r)
        rng = np.random.default_rng(3)
        hits = 0
        tries = 0
        while hits < 20 and tries < 4000:
            tries += 1
            v = rng.standard_normal(4)
            v *= report.rho_r * 0.999 * rng.random() ** 0.25 / np.linalg.norm(v)
            t = Quaternion(*v)
            if not in_oset(t, report.rho_r * 0.999):
                continue
            target = report.f_w + t * report.rotation
            root = attain(shifted, target, report.R_r, seed=1)
            assert root is not None, f"unattained target {target}"
            hits += 1
        assert hits == 20

    def test_cubic_half_end_to_end(self):
        # moderate working radius, then certify the reported coverage radius
        # directly on the recentred and rotated function
        f = Series((0, 1, 0, 0.5))
        report = bl_search(f, 0.9)
        assert abs(report.w.modulus() + 2 * report.R_r - report.r) < 1e-9
        assert report.rho_r >= report.diagnostics["rho_lower_bound"] - 1e-6
        phi = Series(tuple(Quaternion(*row) for row in report.diagnostics["phi_coeffs"]),
                     radius=report.diagnostics["phi_lemma_radius"])
        cov = coverage_report(phi, report.rho_r, samples=100, seed=17)
        assert cov.hits == 100
        assert not cov.misses

    def test_normalization_guards(self):
        with pytest.raises(PreconditionError):
            bl_search(Series((0.5, 1)), 0.9)
        with pytest.raises(PreconditionError):
            bl_search(Series((0, 2)), 0.9)
        with pytest.raises(PreconditionError):
            bl_search(Series((0, 1)), 1.2)


class TestLemmaChain:
    def test_bound_dominates_partial_sums(self):
        f = Series((0, 1, 0.1))
        deriv_norm = split_norm(slice_derivative(f)).value
        for c in (Quaternion(10.0), Quaternion(3.0, 2.0, 0.0, 1.0)):
            psi = fourth_root_series(g_series(f, c))
            bound = 1.0 + deriv_norm * f.radius / c.modulus()
            for r in (0.3, 0.6, 0.9):
                integral, coeff_sum = parseval_mean(psi, r)
                first_terms = 1.0 + r * r * psi.coeffs[1].modulus_sq()
                closed = 1.0 + (r * r * f.coeffs[1].modulus_sq()
                                * c.x0 * c.x0 / (4.0 * c.modulus() ** 4))
                assert bound >= integral - 1e-9
                assert integral >= first_terms - 1e-9
                assert bound >= closed - 1e-12
