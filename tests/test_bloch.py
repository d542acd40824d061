import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_ball_point, random_quaternion, random_series
from quatregular import (
    CoverageReport,
    DomainError,
    NumericalSearchError,
    PreconditionError,
    Quaternion,
    SearchReport,
    Series,
    attain,
    bl_search,
    coverage_report,
    evaluate,
    fourth_root_series,
    g_series,
    in_oset,
    inscribed_disc_check,
    inscribed_disc_margin,
    mean_value_margin,
    oset_slice_curve,
    parseval_mean,
    rho_lemma,
    slice_derivative,
    split_norm,
    star,
    sup_norm_ball,
)
from quatregular import bloch
from quatregular._arrays import eval_rows
from quatregular.norms import _sphere_max
from quatregular.quaternions import I, J
from quatregular.verification import builtin_corpus

RHO_FLOOR_SCALE = 1.0 / (32.0 * math.sqrt(2.0))

# the entry points that require f(0) = 0, each with its other arguments
ORIGIN_ENTRY_POINTS = {
    "rho_lemma": rho_lemma,
    "g_series": lambda f: g_series(f, Quaternion(1)),
    "bl_search": lambda f: bl_search(f, 0.5),
    "mean_value_margin": lambda f: mean_value_margin(f, Quaternion(0.5)),
}


class TestOriginPrecondition:
    @pytest.mark.parametrize("axis", range(4))
    @pytest.mark.parametrize("entry", ORIGIN_ENTRY_POINTS.values(), ids=ORIGIN_ENTRY_POINTS)
    def test_tiny_constant_term_rejected(self, entry, axis):
        # its square underflows to zero, but the constant term is not zero
        a0 = np.zeros(4)
        a0[axis] = 1e-170
        with pytest.raises(PreconditionError, match=r"requires f\(0\) = 0"):
            entry(Series((Quaternion(*a0), 1)))

    @pytest.mark.parametrize("entry", ORIGIN_ENTRY_POINTS.values(), ids=ORIGIN_ENTRY_POINTS)
    def test_negative_zero_constant_term_accepted(self, entry):
        entry(Series((Quaternion(-0.0, -0.0, -0.0, -0.0), 1)))


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

    @pytest.mark.parametrize("k", [600, -600])
    def test_scale_free(self, rng, k):
        # the ranges of the verify checks, scaled by 2^k far past where |q|^3 is a float
        for _ in range(2000):
            rho = float(rng.uniform(0.05, 2.0))
            q = random_quaternion(rng, rho)
            scaled = Quaternion(*(math.ldexp(v, k) for v in q.components))
            assert in_oset(scaled, math.ldexp(rho, k)) == in_oset(q, rho)

    def test_extreme_scales(self):
        # |q|^3 = 1e600 and 1e-600 are no floats, yet both points lie in the set
        assert in_oset(Quaternion(1e200), 1e201)
        assert in_oset(Quaternion(1e-200), 1e-199)
        assert not in_oset(Quaternion(1e300), 1e-300)


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

    @pytest.mark.parametrize("rho", [1e-110, 1e-200])
    def test_tiny_discs_fit(self, rho):
        # the absolute margin, about rho^3 / 8, underflows to zero here
        assert inscribed_disc_check(rho)

    def test_warns_above_one(self):
        with pytest.warns(UserWarning, match="rho <= 1"):
            inscribed_disc_check(1.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            inscribed_disc_check(-0.5)

    @pytest.mark.parametrize("unit", [0.0, -1.0, math.nan, math.inf])
    def test_margin_rejects_a_unit_that_is_not_positive_and_finite(self, unit):
        with pytest.raises(DomainError, match="unit must be positive and finite"):
            inscribed_disc_margin(0.5, unit)


class TestRhoLemma:
    def test_identity(self):
        assert rho_lemma(Series((0, 1))) == 0.25

    def test_tiny_derivative_does_not_underflow(self):
        # R a^2 / (4 ||f'||) = 1e-200 / 4 for f = 1e-200 q: the square 1e-400 underflows
        # alone, and the result is a normal float
        assert rho_lemma(Series((0, 1e-200))) == 2.5e-201

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

    def test_overflowing_coefficient(self):
        # a_2 = c^-2 = 1e340: a DomainError, with no numpy overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="coefficient 2 is not finite"):
                g_series(Series((0, 1)), 1e-170)

    def test_tiny_excluded_value(self):
        # |c|^2 underflows to zero, but c is not zero: f c^{-1} = q
        g = g_series(Series((0, 1e-170)), 1e-170)
        assert np.abs(g.rows - [[1, 0, 0, 0], [-2, 0, 0, 0], [1, 0, 0, 0]]).max() < 1e-15


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
            for a, b in zip(fourth.coeffs, g.coeffs):
                assert (a - b).modulus() < 1e-11

    def test_derivative_identity(self, rng):
        for _ in range(20):
            f = random_series(rng, int(rng.integers(1, 6)), monic_shift=True)
            c = random_quaternion(rng) + Quaternion(1.5)
            psi = fourth_root_series(g_series(f, c))
            expected = -0.5 * (f.coeffs[1] * c.inverse()).x0
            assert abs(psi.coeffs[1].x0 - expected) < 1e-12

    def test_huge_coefficient(self):
        # the square of 1e160 overflows; the real-coefficient test must not take it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            psi = fourth_root_series(Series((1, 1e160)))
        assert psi.rows.tolist() == [[1.0, 0.0, 0.0, 0.0], [2.5e159, 0.0, 0.0, 0.0]]

    def test_nonreal_coefficient_longer_than_the_largest_float(self):
        # |a_1| = 2.1e308 is no float, but its imaginary part 1.5e308 is far above 1e-12 of it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PreconditionError, match="coefficient 1 is not"):
                fourth_root_series(Series((1, Quaternion(1.5e308, 1.5e308, 0.0, 0.0))))

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

    def test_outside_ball(self):
        with pytest.raises(DomainError, match="outside ball"):
            parseval_mean(Series((1, 1), radius=0.5), 0.5)

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

    @pytest.mark.parametrize("ball_radius, message", [
        (0.0, "must be positive"), (-1.0, "must be positive"), (math.nan, "must be positive"),
        (1.5, "cannot exceed the ball of validity")])
    def test_ball_radius_checked(self, ball_radius, message):
        with pytest.raises(DomainError, match=message):
            attain(Series((0, 1)), Quaternion(0.1), ball_radius)

    def test_ball_respected(self):
        # target only reachable outside the search ball
        assert attain(Series((0, 1)), Quaternion(0.9), 0.5) is None

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed cannot be negative"):
            coverage_report(Series((0, 1)), 0.25, samples=3, seed=-1)

    @pytest.mark.parametrize("target", [Quaternion(1e200), Quaternion(0, 0, -3e307, 3e307),
                                        Quaternion(2.0)], ids=["1e200", "huge", "past-bound"])
    def test_target_out_of_reach_returns_none_quietly(self, target, monkeypatch):
        # |f(q)| <= B(|q|) <= B(1), 1.5 and 1 here, in the unit ball, so no Newton step
        # is taken, and nothing overflows on the way
        def no_newton(*args):
            raise AssertionError("a Newton step ran")

        monkeypatch.setattr(bloch, "eval_rows", no_newton)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert attain(Series((0, 1, 0.5)), target, 1.0) is None
            assert attain(Series((0, 1)), target, 1.0) is None

    def test_constant_term_and_target_near_the_largest_float(self):
        # a_0 - target is 3.4e308 here, past the floats: the rows are halved before the
        # subtraction, so nothing overflows, and f - target has no zero in the ball
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert attain(Series((1.7e308, 1)), Quaternion(-1.7e308), 1.0) is None
            assert attain(Series((1.7e308, 1)), Quaternion(1.7e308), 1.0) == Quaternion()

    def test_target_just_within_the_bound_is_searched(self):
        # f = q on the ball of radius 0.5: B(0.5) = 0.5, and 0.5 - 1e-9 is attained
        root = attain(Series((0, 1)), Quaternion(0.5 - 1e-9), 0.5)
        assert root is not None and root.modulus() < 0.5

    @pytest.mark.parametrize("target", [Quaternion(math.nan), Quaternion(0, math.inf, 0, 0),
                                        Quaternion(0, 0, 0, -math.inf)],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(DomainError, match="target must be finite"):
            attain(Series((0, 1, 0.1)), target, 1.0)


    def test_attains_seeded_images(self):
        # t = f(q) at q in the unit ball, degrees 1-8, real and non-real coefficients,
        # and every fifth q within 1e-8 of the real axis. There the two roots x +- iy of
        # (f - t)^s nearly meet, so the root start is good only to about 1e-11, and the
        # Newton loop stops once the residual is below 1e-10; off the axis the root
        # start is exact to rounding
        rng = np.random.default_rng(35)
        for k in range(160):
            f = random_series(rng, 1 + k % 8, scale=1.0)
            if k % 3 == 0:
                f = Series(tuple(f.rows[:, 0].tolist()))
            q = random_ball_point(rng, 0.98).components
            near_real = k % 5 == 0
            if near_real:
                q = (q[0], *(1e-8 * rng.random() * np.array(q[1:]) / math.hypot(*q[1:])))
            t = eval_rows(f.rows, np.array([q]))[0]
            root = attain(f, Quaternion(*t.tolist()), 1.0)
            assert root is not None, (k, q)
            residual = math.hypot(*(eval_rows(f.rows, np.array([root.components]))[0] - t))
            bound = 1e-10 if near_real else 1e-12
            assert residual <= bound * max(1.0, math.hypot(*t)), (k, residual)

    @pytest.mark.parametrize("f", [Series((0.5,)), Series((0.5, 0, 0))], ids=["constant", "padded"])
    def test_series_equal_to_the_target_attains_it(self, f):
        # f - target vanishes identically, so there is no root sphere: the origin is the start
        assert attain(f, Quaternion(0.5), 1.0) == Quaternion(0)

    def test_tiny_target_gets_a_true_preimage(self):
        # the origin's residual, |target|, is below the Newton exit at 1e-10 and would pass
        # as a hit; the root sphere gives a preimage exact to rounding
        f = Series((0, 1, 0.1))
        target = Quaternion(4e-12, -1e-12, 2e-12, 0)
        root = attain(f, target, 1.0)
        assert (evaluate(f, root) - target).modulus() <= 1e-14 * target.modulus()

    def test_one_root_finder(self):
        # attain takes its starts from the same roots of a symmetrization as inf_norm_ball
        source = Path(bloch.__file__).parent
        assert sum(path.read_text().count("np.roots") for path in source.glob("*.py")) == 1

    def test_preimage_components_are_floats(self):
        root = attain(Series((0, 1, 0.1)), Quaternion(0.1, 0.02, 0, 0), 1.0)
        assert all(type(v) is float for v in root.components)


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

    def test_tiny_rho(self):
        # every |q|^3 of the pinched set of radius 1e-120 underflows to zero
        start = time.perf_counter()
        report = coverage_report(Series((0, 1)), 1e-120, 3)
        assert time.perf_counter() - start < 5.0
        assert (report.samples, report.hits, report.misses) == (3, 3, [])

    def test_to_dict(self):
        report = CoverageReport(0.25, 2, 1, 1e-9, [Quaternion(0.1, 0.2, 0.0, -0.3)], 1.0, 3)
        assert report.to_dict() == {"rho": 0.25, "samples": 2, "hits": 1, "max_residual": 1e-9,
                                    "misses": [[0.1, 0.2, 0.0, -0.3]], "ball_radius": 1.0,
                                    "seed": 3}

    def test_misses_are_reported(self):
        # the pinched set of radius 1.5 reaches past the unit ball that f = q maps onto
        report = coverage_report(Series((0, 1)), 1.5, samples=20, seed=0)
        assert (report.hits, len(report.misses)) == (12, 8)
        assert all(miss.modulus() >= 1.0 for miss in report.misses)

    def test_residual_whose_squares_underflow(self, monkeypatch):
        # rho = 1.25e-201 for f = q + 1e200 q^2: every residual is near 1e-201, so
        # its squares are below the smallest float
        f = Series((0, 1, 1e200))
        found = []

        def recorded(f, target, ball_radius):
            found.append((target, attain(f, target, ball_radius)))
            return found[-1][1]

        monkeypatch.setattr(bloch, "attain", recorded)
        report = coverage_report(f, rho_lemma(f), 5)
        assert report.hits == 5
        rows = [eval_rows(f.rows, np.array([root.components]))[0] - target.components
                for target, root in found]
        largest = max(math.hypot(*row) for row in rows)
        assert report.max_residual > 0.0
        assert abs(report.max_residual - largest) <= 1e-15 * largest

    def test_targets_and_misses_hold_floats(self):
        report = coverage_report(Series((0, 1)), 3.0, 3, seed=1)
        assert report.misses and all(type(v) is float for miss in report.misses
                                     for v in miss.components)
        # a numpy scalar component would overflow in modulus_sq here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            misses = coverage_report(Series((0, 1)), 1e300, 3).misses
            assert len(misses) == 3 and all(math.isfinite(m.modulus()) for m in misses)

    def test_samples_in_shrunken_set(self, rng):
        f = Series((0, 1))
        report = coverage_report(f, 0.25, samples=50, seed=9)
        assert report.samples == 50


class TestSearch:
    def test_to_dict(self):
        report = SearchReport(0.99, 0.4, Quaternion(0.1, 0.0, 0.2, 0.0), Quaternion(1.0),
                              0.05, Quaternion(0.0, 0.0, 0.0, 0.5),
                              {"dphi0": 1.0, "dphi_norm": {"value": 2.0}, "rho_bound_ok": True})
        assert report.to_dict() == {
            "r": 0.99, "R_r": 0.4, "w": [0.1, 0.0, 0.2, 0.0], "rotation": [1.0, 0.0, 0.0, 0.0],
            "rho_r": 0.05, "f_w": [0.0, 0.0, 0.0, 0.5],
            "diagnostics": {"dphi0": 1.0, "dphi_norm": {"value": 2.0}, "rho_bound_ok": True}}

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

    def test_unit_of_w_near_the_origin(self):
        # f' = 1 + 2q(0.3 + 0.01i) peaks on the sphere of radius |w| ~ 2.4e-12 at the
        # unit -i, along Im(b conj(c)) of size ~1e-15: an absolute threshold of 1e-14
        # took i, the other side of the slice, and |f'(w)| fell 3.3e-15 short
        f = Series((0, 1, Quaternion(0.3, 0.01, 0, 0)))
        report = bl_search(f, 0.99)
        derivative = slice_derivative(f)
        assert report.w.components[1] < 0.0
        top = sup_norm_ball(derivative, report.w.modulus()).value
        assert abs(evaluate(derivative, report.w).modulus() - top) <= 4e-16 * top

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
            root = attain(shifted, target, report.R_r)
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

    @pytest.mark.parametrize("c", [1e9, 1e10, 1e11, 1e12, 1e13])
    def test_steep_quadratic_resolves_the_mu_root(self, c):
        # f = q + c q^2 has M(t) = 1 + 2 c t, so mu(s) = s (1 + 2 c (r - s)) = r at
        # s = 2 r / (a + sqrt(a^2 - 8 c r)), a = 1 + 2 c r: about 1 / (2 c), far below
        # the absolute root width 1e-12 for the larger c
        r = 0.9
        report = bl_search(Series((0, 1, c)), r)
        a = 1.0 + 2.0 * c * r
        root = 2.0 * r / (a + math.sqrt(a * a - 8.0 * c * r))
        assert abs(2.0 * report.R_r - root) <= 1e-9 * root
        assert report.diagnostics["mu_root_residual"] <= 1e-9 * r
        assert report.diagnostics["rho_bound_ok"]

    def searches(self):
        """bl_search on the builtin series and seeded normalised ones of degree 1-8 at
        r in {0.99, 0.9, 0.6}, with each series."""
        rng = np.random.default_rng(3301)
        series = [f for _, f in builtin_corpus()]
        series += [random_series(rng, degree, monic_shift=True)
                   for degree in range(1, 9) for _ in range(2)]
        for f in series:
            for r in (0.99, 0.9, 0.6):
                yield f, bl_search(f, r)

    def test_rho_r_is_the_coverage_lemma_of_phi(self):
        # rho_r and rho_lemma take the lemma from one formula, so they agree to the bit
        for _, report in self.searches():
            diagnostics = report.diagnostics
            phi_lemma = Series(tuple(Quaternion(*row) for row in diagnostics["phi_coeffs"]),
                               radius=diagnostics["phi_lemma_radius"])
            assert report.rho_r == rho_lemma(phi_lemma)

    def test_mu_root_residual_is_read_at_the_locator(self):
        # the residual |s* M(r - s*) - r| takes M from the one sphere read at the locator,
        # which is the maximum of |f'| on its sphere, settled search or not
        radii = []
        for f, report in self.searches():
            s_star = 2.0 * report.R_r
            (top,), _, _ = _sphere_max(slice_derivative(f).rows, np.array([report.r - s_star]))
            expected = abs(s_star * top - report.r)
            assert abs(report.diagnostics["mu_root_residual"] - expected) <= 1e-15 * report.r
            radii.append(report.diagnostics["mu_radii"][0])
        # both settled searches (no profile radius) and unsettled ones are checked
        assert radii.count(0) >= 10 and len(radii) - radii.count(0) >= 10

    def test_steep_cubic_dphi_norm_is_a_closed_form(self):
        # phi' of the settled steep-cubic search has real positive coefficients, so its
        # split norm is the coefficient bound, attained at the real point R_r; the
        # boundary grid search gave rho_r = 0.09416192444923153
        report = bl_search(dict(builtin_corpus())["steep-cubic"], 0.99)
        assert report.diagnostics["dphi_norm"]["method"] == "closed-form"
        assert abs(report.rho_r - 0.09416192444923153) <= 1e-15 * report.rho_r

    def test_working_radius_outside_the_ball(self):
        with pytest.raises(DomainError, match="inside the ball of validity"):
            bl_search(Series((0, 1), radius=0.5), 0.6)

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
