import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import random_quaternion, random_series, random_unit
from quatregular import (
    DomainError,
    PreconditionError,
    Quaternion,
    Series,
    UnitImaginary,
    attain,
    bl_search,
    coverage_report,
    evaluate,
    fourth_root_series,
    g_series,
    inf_norm_ball,
    mean_value_margin,
    parseval_mean,
    regular_conjugate,
    regular_translation,
    rho_lemma,
    slice_derivative,
    slice_norm,
    sphere_extrema,
    split_norm,
    star,
    sup_norm_ball,
    symmetrization,
)
from quatregular import _arrays, bloch, norms
from quatregular._arrays import (
    _chart,
    _slice_table,
    _slice_terms,
    circle_table,
    eval_rows,
    qmul_rows,
    slice_norm_ascent,
    slice_square_forms,
    sphere_constants,
    sphere_extrema_rows,
    sphere_max_rows,
    sphere_min_rows,
    sphere_planes,
    square_forms,
)
from quatregular.norms import NormReport, _sphere_max
from quatregular.quaternions import I, J, _completion_rows, orthonormal_completion, sphere_sample
from quatregular.series import DEGREE_CAP
from quatregular.slices import split_rows as _slice_rows
from quatregular.verification import builtin_corpus


def brute_sphere_extrema(b, c, n=100000):
    """Oracle: scan |b + I c| over a dense sampled sphere."""
    units = np.array([(u.x1, u.x2, u.x3) for u in sphere_sample(n, seed=7)])
    iq = np.zeros((n, 4))
    iq[:, 1:] = units
    prod = qmul_rows(iq, np.broadcast_to(np.array(c.components), iq.shape))
    values = np.linalg.norm(np.array(b.components) + prod, axis=1)
    return float(values.min()), float(values.max())


class TestSphereExtrema:
    def test_constant_on_sphere(self, rng):
        b = random_quaternion(rng)
        low, high = sphere_extrema(b, Quaternion())
        assert low == high == b.modulus()

    def test_pure_swing(self, rng):
        c = random_quaternion(rng)
        low, high = sphere_extrema(Quaternion(), c)
        assert abs(low - c.modulus()) < 1e-14
        assert abs(high - c.modulus()) < 1e-14

    @pytest.mark.parametrize("b, c", [(Quaternion(math.inf), Quaternion(1)),
                                      (Quaternion(1), Quaternion(0, 0, -math.inf, 0)),
                                      (Quaternion(0, math.nan, 0, 0), Quaternion(1))])
    def test_non_finite_constants_rejected(self, b, c):
        # pytest turns RuntimeWarning into an error, so this also checks they are quiet
        with pytest.raises(DomainError, match="sphere constants must be finite"):
            sphere_extrema(b, c)

    def test_unit_example(self):
        low, high = sphere_extrema(Quaternion(1), I)
        assert low == 0.0 and high == 2.0

    def test_axis_is_im_b_conj_c_to_the_bit(self, rng):
        # the unit where |b + I c| peaks, as the search's locator reads it
        b, c = rng.standard_normal((2, 50, 4))
        axis = np.stack(_arrays._sphere_squares(b, c)[3:], axis=1)
        for b_row, c_row, got in zip(b, c, axis):
            product = Quaternion(*b_row) * Quaternion(*c_row).conjugate()
            assert got.tolist() == list(product.components[1:])

    def test_beyond_the_squares_range(self):
        # |b|^2 overflows for b = 1e200 and underflows for b = 3e-170; the
        # closed form is scaled first, so both read as their scale-one versions
        low, high = sphere_extrema(Quaternion(1e200), Quaternion(0.0, 1e200, 0.0, 0.0))
        assert low == 0.0 and high == 2e200
        low, high = sphere_extrema(Quaternion(3e-170), Quaternion(0.0, 0.0, 2e-170, 0.0))
        assert abs(low - 1e-170) <= 1e-15 * 1e-170
        assert abs(high - 5e-170) <= 1e-15 * 5e-170

    def test_against_brute_force(self, rng):
        for _ in range(10):
            b, c = random_quaternion(rng), random_quaternion(rng)
            low, high = sphere_extrema(b, c)
            blow, bhigh = brute_sphere_extrema(b, c)
            assert abs(high - bhigh) < 1e-3
            assert abs(low - blow) < 1e-3
            # the sampled values can never beat the closed form
            assert bhigh <= high + 1e-12
            assert blow >= low - 1e-12

    def test_minimum_near_zero_against_mpmath(self):
        # b = -I c plus a small offset: b + I c nearly vanishes at I, where a
        # minimum taken as a difference of squares cancels to noise; the
        # 60-digit oracle takes that difference, which is exact at its precision
        rng = np.random.default_rng(4141)
        n = 400
        c = rng.standard_normal((n, 4))
        units = rng.standard_normal((n, 3))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        iq = np.zeros((n, 4))
        iq[:, 1:] = units
        b = -qmul_rows(iq, c) + 10.0 ** rng.uniform(-15, -5, (n, 1)) * rng.standard_normal((n, 4))
        low, high = sphere_extrema_rows(b, c)
        with mpmath.workdps(60):
            for b_row, c_row, got in zip(b, c, low):
                b0, b1, b2, b3 = (mpmath.mpf(float(x)) for x in b_row)
                c0, c1, c2, c3 = (mpmath.mpf(float(x)) for x in c_row)
                v1 = -b0 * c1 + b1 * c0 - b2 * c3 + b3 * c2
                v2 = -b0 * c2 + b1 * c3 + b2 * c0 - b3 * c1
                v3 = -b0 * c3 - b1 * c2 + b2 * c1 + b3 * c0
                base = sum(x ** 2 for x in (b0, b1, b2, b3, c0, c1, c2, c3))
                exact = mpmath.sqrt(max(base - 2 * mpmath.sqrt(v1 ** 2 + v2 ** 2 + v3 ** 2), 0))
                assert abs(float(exact - mpmath.mpf(float(got)))) <= 1e-15
        assert np.all(low <= high)


def circle_max_at_critical_points(row, radius):
    """Oracle: max of |P| over the exact critical angles of |P(radius e^{i theta})|^2.

    On |z| = radius, |P(z)|^2 = z^-N S(z) with S(z) = z^N P(z) conj(P)(radius^2 / z),
    whose theta-derivative vanishes exactly at the roots of z S'(z) - N S(z).
    The roots come from the eigenvalues of its companion matrix and are
    projected onto the circle. Roots at zero are dropped, and angle 0 covers
    rows of constant modulus, where that polynomial vanishes identically.
    """
    n = len(row) - 1
    s = np.zeros(2 * n + 1, dtype=complex)
    for k, a in enumerate(row):
        for m, b in enumerate(row):
            s[n + k - m] += a * np.conj(b) * radius ** (2 * m)
    t = (np.arange(2 * n + 1) - n) * s
    nonzero = np.flatnonzero(t)
    angles = [0.0]
    if nonzero.size > 1:
        c = t[nonzero[0]:nonzero[-1] + 1][::-1]
        companion = np.diag(np.ones(len(c) - 2, dtype=complex), -1)
        companion[0] = -c[1:] / c[0]
        angles.extend(np.angle(np.linalg.eigvals(companion)))
    z = radius * np.exp(1j * np.array(angles))
    return float(np.abs(np.polyval(row[::-1], z)).max())


def circle_maxima(rows, radius):
    """Oracle: maximum of |P(radius e^{i theta})| for each complex coefficient row P (m, N+1).

    With c_n = radius^n p_n and q_d = sum_j c_{j+d} conj(c_j), |P(z)|^2 and
    |P(conj z)|^2 at z = radius e^{i theta} are A -+ U with
    A = q_0 + sum_d 2 Re q_d cos(d theta) and U = sum_d 2 Im q_d sin(d theta).
    So g = A + |U| on one plane of U is the larger of the two on the half
    circle, and ``norms._angle_max`` finds its angle on 512 grid angles. The
    value is the larger |P| at that angle and its mirror, so it is attained.
    """
    n = np.arange(rows.shape[1])
    c = rows * radius ** n
    if n.size == 1:
        return np.abs(c[:, 0])
    q = np.stack([np.sum(c[:, d:] * c[:, :n.size - d].conj(), axis=1) for d in n], axis=1)
    planes = np.zeros((len(rows), 4, n.size))
    planes[:, 0] = np.where(n > 0, 2.0, 1.0) * q.real
    planes[:, 1] = 2.0 * q.imag
    turns = np.exp(1j * np.multiply.outer(norms._angle_max(planes)[0], n))
    return np.maximum(np.abs(np.sum(c * turns, axis=1)), np.abs(np.sum(c * turns.conj(), axis=1)))


def circle_max_in_slice_of_i(row, radius):
    """The maximum of |P| on the circle of ``radius``: ``_sphere_max`` of the
    coefficient rows (Re p_n, Im p_n, 0, 0)."""
    rows = np.array([(p.real, p.imag, 0.0, 0.0) for p in row])
    return float(_sphere_max(rows, np.array([radius]))[0][0])


def dense_circle_max(rows, radius, angles=200000, chunk=20000):
    """Largest |P| over a dense uniform angle grid, per row."""
    k = np.arange(rows.shape[1])[:, None]
    best = np.zeros(len(rows))
    for start in range(0, angles, chunk):
        theta = 2.0 * math.pi * np.arange(start, start + chunk) / angles
        powers = radius ** k * np.exp(1j * k * theta)
        best = np.maximum(best, np.abs(rows @ powers).max(axis=1))
    return best


class TestCircleMaxRows:
    def test_against_critical_points_and_dense_scan(self):
        rng = np.random.default_rng(1307)
        checked = 0
        for degree in range(9):
            for radius in (0.5, 0.9, 1.0, 1.7):
                shape = (15, degree + 1)
                rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                rows *= 10.0 ** rng.uniform(-3, 3, size=(15, 1))
                rows[0] = 0.0  # all zero
                rows[1, 1:] = 0.0  # constant
                rows[2, -1] = 0.0  # leading coefficient zero
                rows[3, 0] = 0.0  # trailing coefficient zero
                rows[4, :(degree + 1) // 2] = 0.0  # several trailing zeros
                rows[5, (degree + 1) // 2 + 1:] = 0.0  # several leading zeros
                exact = np.array([circle_max_at_critical_points(r, radius) for r in rows])
                dense = dense_circle_max(rows, radius)
                got = np.array([circle_max_in_slice_of_i(r, radius) for r in rows])
                assert np.all(np.abs(got - exact) <= 1e-13 * exact)
                assert np.all(got >= dense - 1e-13 * dense)
                checked += len(rows)
        assert checked >= 500


class TestSupNormBall:
    def test_identity(self):
        for s in (0.0, 0.3, 0.77):
            assert abs(sup_norm_ball(Series((0, 1)), s).value - s) < 1e-13

    def test_square(self):
        report = sup_norm_ball(Series((0, 0, 1)), 0.5)
        assert abs(report.value - 0.25) < 1e-13

    def test_constant_closed_form(self, rng):
        a = random_quaternion(rng)
        report = sup_norm_ball(Series((a,)), 0.5)
        assert report.method == "closed-form"
        assert report.value == a.modulus()

    def test_monte_carlo_oracle(self):
        # q + q^2 j at radius 0.9: closed form max is 0.9 * (1 + 0.9) = 1.71,
        # attained where q j is real positive; a large boundary sample must agree
        f = Series((0, 1, J))
        report = sup_norm_ball(f, 0.9)
        rng = np.random.default_rng(424242)
        pts = rng.standard_normal((1000000, 4))
        pts *= 0.9 / np.linalg.norm(pts, axis=1, keepdims=True)
        values = np.linalg.norm(eval_rows(f.rows, pts), axis=1)
        mc = float(values.max())
        assert abs(report.value - 1.71) < 1e-9
        assert abs(report.value - mc) < 1e-4
        assert mc <= report.value + 1e-12

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            sup_norm_ball(Series((0, 1)), 1.0)

    def test_monotone(self, rng):
        f = random_series(rng, 6)
        values = [sup_norm_ball(f, s).value for s in np.linspace(0, 0.9, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


    def test_never_below_dense_scan(self):
        # every sphere maximum along a 200000-angle half circle is attained, so
        # the search may not fall below the best of them beyond rounding
        rng = np.random.default_rng(2718)
        angles = np.linspace(0.0, math.pi, 200000)
        for degree in range(9):
            for _ in range(3):
                f = random_series(rng, degree, scale=1.0)
                coeffs = f.rows
                for s in (0.3, 0.6, 0.9):
                    dense = max(
                        float(sphere_extrema_rows(*sphere_constants(
                            coeffs, s * np.cos(part), s * np.sin(part)))[1].max())
                        for part in np.array_split(angles, 10))
                    assert sup_norm_ball(f, s).value >= dense - 1e-13 * dense

    def test_newton_polish_at_its_hard_spots(self):
        # maxima at the ends 0 and pi, where Im(b conj(c)) = 0 (real coefficients,
        # cubic-half), real quadratics whose maximum sits within the first grid
        # step off an end that is a minimum, a maximum that is flat along the
        # sphere (quadratic-j), and at degree DEGREE_CAP, where the 512 grid angles
        # are fewest per oscillation (4N + 1 = 241 would do), series f(q / t) whose
        # terms are all of one size on the sphere of radius t: never below a
        # 200000-angle scan
        rng = np.random.default_rng(1414)
        corpus = dict(builtin_corpus())
        cases = [corpus["cubic-half"], slice_derivative(corpus["cubic-half"]),
                 Series((0.5725, 0.7709, -0.2725)), Series((0.7626, 0.2406, -0.1968)),
                 corpus["quadratic-j"], slice_derivative(corpus["quadratic-j"])]
        for degree in range(1, 9):
            f = random_series(rng, degree, scale=1.0)
            cases += [f, Series(tuple(Quaternion(a.x0) for a in f.coeffs))]
        for t in (0.3, 0.6, 0.9):
            rows = random_series(rng, DEGREE_CAP, scale=1.0).rows
            rows = rows * t ** -np.arange(DEGREE_CAP + 1.0)[:, None]
            cases += [Series(tuple(Quaternion(*row) for row in rows.tolist())),
                      Series(tuple(rows[:, 0].tolist()))]
        angles = np.linspace(0.0, math.pi, 200000)
        for f in cases:
            coeffs = f.rows
            for s in (0.3, 0.6, 0.9):
                dense = max(float(sphere_max_rows(*sphere_constants(
                    coeffs, s * np.cos(part), s * np.sin(part))).max())
                    for part in np.array_split(angles, 10))
                assert sup_norm_ball(f, s).value >= dense - 1e-13 * dense

    def test_maximiser_on_tiny_spheres(self):
        # for f = a0 + q a1, |f|^2 on the sphere of radius t at angle theta is
        # |a0|^2 + t^2 |a1|^2 + 2t (Re c cos(theta) + |Im c| sin(theta)) at best, with
        # c = a0 conj(a1), so the maximiser is atan2(|Im c|, Re c) on every sphere;
        # the constant term of g is of order 1 and the rest of order t, so on tiny
        # spheres the search must find the angle without it
        rng = np.random.default_rng(5151)
        radii = np.array([1e-11, 1e-9, 1e-7])
        worst = 0.0
        for _ in range(50):
            a0, a1 = rng.standard_normal((2, 4))
            c = Quaternion(*a0) * Quaternion(*a1).conjugate()
            expected = math.atan2(c.imag.modulus(), c.x0)
            angles = norms._angle_max(sphere_planes(np.array([a0, a1]), radii))[0]
            worst = max(worst, float(np.abs(angles - expected).max()))
        assert worst <= 1e-12


class TestSliceNorm:
    def test_identity(self):
        assert abs(slice_norm(Series((0, 1)), I) - 1.0) < 1e-12

    def test_constant_j(self):
        assert abs(slice_norm(Series((J,)), I) - 1.0) < 1e-12

    def test_one_plus_qj(self):
        # F = 1 and G = z on the i slice: hypot(1, 1)
        value = slice_norm(Series((1, J)), I)
        assert abs(value - math.sqrt(2.0)) < 1e-12

    def test_plane_of_i_equals_sup_norm_ball(self, rng):
        # with every coefficient in the plane of i, G_I = 0 at I = i and F_I is
        # f on that plane, whose boundary maximum is the maximum on the ball
        for degree in range(9):
            for radius in (0.5, 0.9):
                coeffs = tuple(Quaternion(*rng.standard_normal(2), 0.0, 0.0)
                               for _ in range(degree + 1))
                value = slice_norm(Series(coeffs, radius), I)
                reference = sup_norm_ball(Series(coeffs, 1.0), radius).value
                assert abs(value - reference) <= 1e-13 * reference

    def test_j_independence(self, rng):
        for _ in range(10):
            f = random_series(rng, int(rng.integers(0, 7)))
            unit = random_unit(rng)
            j_unit, k_unit = orthonormal_completion(unit)
            angle = rng.uniform(0.2, 2.9)
            j_vec = (math.cos(angle) * np.array([j_unit.x1, j_unit.x2, j_unit.x3])
                     + math.sin(angle) * np.array([k_unit.x1, k_unit.x2, k_unit.x3]))
            from quatregular import UnitImaginary

            rotated = UnitImaginary.from_vector(*j_vec)
            assert abs(slice_norm(f, unit, j_unit=j_unit)
                       - slice_norm(f, unit, j_unit=rotated)) < 1e-10

    def test_j_unit_must_be_orthogonal(self):
        with pytest.raises(DomainError, match="orthogonal"):
            slice_norm(Series((0, 1)), I, j_unit=I)

    @pytest.mark.parametrize("tiny", [1e-100, 1e-200, 1e-300])
    def test_a_component_far_below_the_other(self, tiny):
        # the components are not folded again: one whose squares underflow is far
        # below rounding in the hypot with the other
        assert (slice_norm(Series((0, 1, Quaternion(0, 0, tiny, 0))), I)
                == slice_norm(Series((0, 1)), I) == 1.0)
        assert slice_norm(Series((0, tiny, J)), I) == slice_norm(Series((0, 0, J)), I) == 1.0


def slice_norm_rows(coeffs, units, radius):
    """Slice norms at unit rows: a_n = alpha_n + beta_n J with J, K = I J from cross
    products, and the boundary maxima of alpha and beta from circle_maxima."""
    axis = np.where(np.abs(units[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    j = np.cross(units, axis)
    j /= np.linalg.norm(j, axis=1, keepdims=True)
    k = np.cross(units, j)
    imag = coeffs[:, 1:].T
    alpha = coeffs[:, 0] + 1j * (units @ imag)
    beta = j @ imag + 1j * (k @ imag)
    return np.hypot(circle_maxima(alpha, radius), circle_maxima(beta, radius))


def attained_slice_norm(coeffs, radius):
    """Largest slice norm over a 6000-unit lattice, then three 41 x 41 tangent
    patches around the best unit, each a twentieth the width of the last."""
    units = np.array([(u.x1, u.x2, u.x3) for u in sphere_sample(6000, seed=3)])
    values = slice_norm_rows(coeffs, units, radius)
    best = units[int(np.argmax(values))]
    offsets = np.linspace(-1.0, 1.0, 41)
    for width in (0.04, 2e-3, 1e-4):
        axis = np.array([1.0, 0.0, 0.0]) if abs(best[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        t1 = np.cross(best, axis)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(best, t1)
        a, b = np.meshgrid(width * offsets, width * offsets)
        patch = best + a.reshape(-1, 1) * t1 + b.reshape(-1, 1) * t2
        patch /= np.linalg.norm(patch, axis=1, keepdims=True)
        patch_values = slice_norm_rows(coeffs, patch, radius)
        best = patch[int(np.argmax(patch_values))]
    return float(slice_norm_rows(coeffs, best[None, :], radius)[0])


def coefficient_bound(f):
    """|a_0| + R |a_1| + ... on the ball of f, as ``_arrays.coefficient_bound`` sums it."""
    return float(_arrays.coefficient_bound(f.rows, np.array([f.radius]))[0])


def attains_bound(f, radius):
    """Whether |f| reaches B(radius) (``coefficient_bound``) to 1e-12 at an angle pi p / q,
    q <= N and 0 <= p <= q, of the circle of that radius, for real coefficients of degree N:
    where every term of f points one way, so do the first two, at such an angle."""
    coeffs = f.rows[:, 0]
    degree = len(coeffs) - 1
    angles = np.array([math.pi * p / q for q in range(1, degree + 1) for p in range(q + 1)])
    top = np.abs(np.polyval(coeffs[::-1], radius * np.exp(1j * angles))).max(initial=0.0)
    bound = float(_arrays.coefficient_bound(f.rows, np.array([radius]))[0])
    return top >= bound * (1.0 - 1e-12)


def witness_unit(f, steps=60):
    """A unit whose slice norm of the effective-degree-1 series f is |a_0| + R |a_1|.

    Along the arc from I along Im a_0 to I along Im a_1, h = |alpha_0| |beta_1| -
    |beta_0| |alpha_1| goes from at least 0 to at most 0 (a_k = alpha_k + beta_k J),
    and where it vanishes (alpha_0, beta_0) and (alpha_1, beta_1) have parallel
    moduli, so their Minkowski sum attains the bound; it is bisected there, on the
    rows over their largest component, since h keeps its sign under scaling. A real
    or zero a_0 or a_1 leaves every unit on that arc a witness.
    """
    rows = f.rows[:2] / np.abs(f.rows[:2]).max()
    ends = [row[1:] / np.linalg.norm(row[1:]) if row[1:].any() else None for row in rows]
    start, end = (ends[0] if ends[0] is not None else ends[1]), ends[1]
    if start is None:
        return I
    if end is None:
        end = start

    def unit_at(tau):
        unit = (1.0 - tau) * start + tau * end
        return unit / np.linalg.norm(unit)

    def h(tau):
        alpha, beta = _slice_rows(rows, unit_at(tau)[None])
        return abs(alpha[0, 0]) * abs(beta[0, 1]) - abs(beta[0, 0]) * abs(alpha[0, 1])

    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h(mid) >= 0.0 else (lo, mid)
    return UnitImaginary.from_vector(*unit_at(lo))


class TestSplitNorm:
    def test_identity(self):
        report = split_norm(Series((0, 1)))
        assert abs(report.value - 1.0) < 1e-12

    def test_real_coefficients_single_slice(self, rng):
        coeffs = tuple(float(v) for v in rng.uniform(-1, 1, size=5))
        f = Series(coeffs)
        report = split_norm(f)
        if attains_bound(f, f.radius):
            assert report == NormReport(coefficient_bound(f), "closed-form")
        else:
            assert report.resolution["sphere"] == 1
        assert abs(report.value - slice_norm(f, I)) < 1e-12

    def test_real_path_is_the_boundary_sphere_maximum(self):
        # |f| is constant on each sphere of a real-coefficient series, so its split
        # norm is the maximum on the boundary sphere: the same report on the same
        # rows as sup_norm_ball at that radius, to the last bit. Where the terms of f
        # align at a point of that sphere (always at degree 1) both are the closed
        # form B(R) = |a_0| + R |a_1| + ...
        rng = np.random.default_rng(3331)
        aligned = 0
        for degree in range(1, 9):
            for radius in (0.5, 0.9, 1.0):
                f = Series(tuple(float(v) for v in rng.uniform(-1, 1, size=degree + 1)), radius)
                report = split_norm(f)
                reference = sup_norm_ball(f.with_radius(2.0 * radius), radius)
                if attains_bound(f, radius):
                    assert report == reference == NormReport(coefficient_bound(f), "closed-form")
                    aligned += degree > 1
                    continue
                assert degree > 1
                assert report.resolution == {"sphere": 1, "theta": 512}
                assert (report.value, report.certified_tol) == (
                    reference.value, reference.certified_tol)
        assert aligned >= 3

    def test_reported_angles_at_the_cap(self, rng):
        # one grid of 512 angles serves every degree up to DEGREE_CAP
        f = Series(tuple(float(v) for v in rng.uniform(-1, 1, size=DEGREE_CAP + 1)))
        assert split_norm(f).resolution["theta"] == 512
        assert sup_norm_ball(f, 0.5).resolution["theta"] == 512

    def test_quadratic_j_analytic(self):
        # sup over slices of (1 + |alpha2|)^2 + |beta2|^2 for a2 = j is 4
        report = split_norm(Series((0, 1, J)))
        assert abs(report.value - 2.0) < 1e-9

    def test_conjugate_invariance(self, rng):
        for _ in range(5):
            f = random_series(rng, int(rng.integers(1, 6)))
            a = split_norm(f)
            b = split_norm(regular_conjugate(f))
            assert abs(a.value - b.value) <= max(2 * (a.certified_tol + b.certified_tol), 1e-8)

    def test_equivalence_with_uniform(self, rng):
        for _ in range(8):
            f = random_series(rng, int(rng.integers(1, 7)))
            split_report = split_norm(f.with_radius(0.9))
            ball_report = sup_norm_ball(f, 0.9)
            allowance = 2 * (split_report.certified_tol + ball_report.certified_tol) + 1e-9
            assert ball_report.value <= split_report.value + allowance
            assert ball_report.value >= math.sqrt(0.5) * split_report.value - allowance

    def test_homogeneity_and_triangle(self, rng):
        f = random_series(rng, 4)
        g = random_series(rng, 3)
        scaled = Series(tuple(a * (-2.5) for a in f.coeffs), f.radius)
        assert abs(split_norm(scaled).value - 2.5 * split_norm(f).value) < 1e-12
        n = max(len(f.coeffs), len(g.coeffs))
        pad = lambda c: list(c) + [Quaternion()] * (n - len(c))
        h = Series(tuple(a + b for a, b in zip(pad(f.coeffs), pad(g.coeffs))), 1.0)
        assert split_norm(h).value <= split_norm(f).value + split_norm(g).value + 1e-10

    def test_zero_norm_iff_zero(self):
        assert split_norm(Series((0, 0))).value == 0.0
        assert split_norm(Series((0, 1e-9))).value > 0.0

    def test_not_below_attained_slice_norms(self):
        # two general series whose compass once stopped short of the maximum
        # with its step budget spent (4.2468339 and 4.4317852 reported)
        cases = [
            ((0.810043414379392, 0.8593839004627697, 0.6715419595519312, -0.6790144554040467),
             (-0.5324260470013846, -0.7002141855217829, -0.8372380127038326, 0.10441989397118356),
             (-0.03407627445227912, 0.21736208416872316, -0.6448715649711887, 0.3082814607361428),
             (-0.28516055438939936, 0.9824671142018702, -0.9948552808557325,
              -0.028087826304400654),
             (0.9167494795550453, -0.45043032240300507, 0.18879229588826663, 0.8122331120447392),
             (0.6331779083164752, -0.6958303305432638, -0.08486221443745823, -0.2795719858306924)),
            ((0.9315175998966729, 0.023377729724667118, 0.9143087369420668, 0.5993710779232353),
             (-0.04193719462968293, 0.4971459501297699, -0.026638039071542163,
              -0.40940732459602347),
             (-0.7323950149795999, 0.5322053775145408, 0.036227015995676126,
              -0.07940386687720857),
             (0.4058289209034671, 0.5555621064029548, -0.13964014271776826, 0.09635310598830626),
             (0.06596244075892765, 0.6355691436208029, 0.8003216244473859, 0.1090515187465575),
             (-0.04678895261504201, -0.6843481800655462, 0.7015845682784827, 0.7712680215793264),
             (-0.24769385732048543, 0.9926205465320708, 0.545728165412388, 0.1276727128183741),
             (0.7063896284910753, -0.9144036639684647, -0.9481318801128078, 0.9572191768003611),
             (0.3035767257692592, -0.9934363620345577, -0.7200589476202051, -0.29231437355261347)),
            # slice-norms seed 313 task 42: the lattice oracle and two of the three
            # starts stop at a lower local maximum, 4.9216118
            ((-0.13648244756603778, -0.170558912671966, 0.5976619076077754, -0.8768801644261903),
             (0.5285253082655244, 0.9555730139100922, 0.013011887457797133, -0.9289507714161089),
             (-0.008583256216362356, 0.6808272074608253, -0.8126630687724041, 0.2882721460393711),
             (0.14030045249581424, 0.9557945009763422, 0.8159853736040859, -0.7262440753962662),
             (0.2076604142005598, 0.7489662464702398, 0.28735928572885094, -0.9194387347579955),
             (0.5823441253782724, 0.2830000082109496, 0.41532675256795004, -0.8512033938483388),
             (-0.4211898029296681, -0.08842643259355087, 0.14376885778147264,
              -0.1762555320081911)),
        ]
        # units where a case is known to reach more than the lattice oracle finds (4.9218445)
        known_units = {2: (-0.7081189490668345, -0.20647926127227953, 0.6752287528215425)}
        for index, rows in enumerate(cases):
            f = Series(tuple(Quaternion(*row) for row in rows), 0.9)
            attained = attained_slice_norm(f.rows, 0.9)
            if index in known_units:
                unit = np.array([known_units[index]])
                unit /= np.linalg.norm(unit)
                attained = max(attained, float(slice_norm_rows(f.rows, unit, 0.9)[0]))
            report = split_norm(f)
            assert report.value >= attained - report.certified_tol

    def test_budget_spent_states_room_below_the_ceiling(self):
        # just past degree 1 the winning start spends all 30 ascent steps and stops
        # 1.1e-10 short of B_1(R) - |a_2| R^2, a proved floor; certified_tol must cover that
        a0 = Quaternion(490.1910031322352, -209.5793596507148, 1730.871375444107,
                        -504.4167860010569)
        a1 = Quaternion(5.02920671892555e-05, 0.00024022065726992726, -0.001954774190842331,
                        0.0005209826601498965)
        report = split_norm(Series((a0, a1, Quaternion(1e-12)), 1.022006128519611))
        assert report.value + report.certified_tol >= 1880.045364070473

    def test_report_says_what_produced_it(self):
        f = Series((0, 1, Quaternion(0.2, 0.5, -0.3, 0.1), Quaternion(0, 0.4, 0, -0.6)), 0.9)
        report = split_norm(f)
        assert report.method == "lattice+newton"
        assert report.resolution["starts"] == 3
        assert report.resolution["steps"] >= 1
        assert report.to_dict() == split_norm(f).to_dict()

    def test_to_dict(self):
        report = NormReport(1.5, "grid+refine", {"theta": 512}, 4e-15)
        assert report.to_dict() == {"value": 1.5, "method": "grid+refine",
                                    "resolution": {"theta": 512}, "certified_tol": 4e-15}

    def test_tied_starts_report_the_first(self, monkeypatch):
        # f = q + j/8 + (3j/8) q^2 peaks on the slice of j, and its starts end on the
        # units -j, -j and j, whose slice norms agree to an ulp: the steps and the gap
        # come from the first start in pick order, whichever tied norm rounds highest;
        # the rounding floor is at 2^1, the frexp scale of the largest coefficient
        ascents = []

        def recording(*args):
            ascents.append(slice_norm_ascent(*args))
            return ascents[-1]

        monkeypatch.setattr(norms, "slice_norm_ascent", recording)
        report = split_norm(Series((J / 8, 1, J * 0.375)))
        h, before, units, _, steps = ascents[0]
        assert abs(np.dot(units[0], units[1])) > 1.0 - 1e-12
        assert steps[0] not in steps[1:]
        assert report.value == 1.25
        assert report.resolution["steps"] == steps[0]
        gap = 2.0 * (math.sqrt(h[0]) - math.sqrt(before[0]))
        assert report.certified_tol == norms._tol_floor(1.25, gap, 1)

    def test_starts_lie_on_distinct_slices(self, monkeypatch):
        # I and -I span one slice, so no start is within 0.2 rad of another or of its antipode
        starts = []

        def recording(coeffs, radius, units, angles):
            starts.append(units)
            return slice_norm_ascent(coeffs, radius, units, angles)

        monkeypatch.setattr(norms, "slice_norm_ascent", recording)
        rng = np.random.default_rng(2719)
        for degree in range(2, 9):
            for _ in range(3):
                split_norm(random_series(rng, degree, 1.0))
                units = starts[-1]
                assert len(units) == norms._STARTS
                dots = np.abs(units @ units.T)[np.triu_indices(len(units), 1)]
                assert np.all(dots <= math.cos(0.2))

    def test_blocked_scan_matches_the_whole_grid(self):
        # the scan builds its grids in blocks of rows; each row's maximum and its
        # column (the first on ties) are those of the whole grid. The along_k series
        # has G_I vanishing near +-k, and the real one G_I = 0, where every row ties
        rng = np.random.default_rng(2723)
        _, monomials = norms._lattice()
        cases = [random_series(rng, degree, scale).rows
                 for scale in (0.2, 1.0, 3.0) for degree in range(1, 13)]
        along_k = rng.standard_normal((7, 4))
        along_k[:, 1:3] = 0.0
        real = rng.standard_normal((5, 4))
        real[:, 1:] = 0.0
        cases += [along_k, real]
        for rows in cases:
            table = circle_table(0.9, len(rows), 256)
            sums = (table.T @ rows).view(float)
            grids = [monomials @ form for form in np.moveaxis(square_forms(sums, sums), 0, -1)]
            cols = np.array([np.argmax(grid, axis=1) for grid in grids])
            tops = np.array([grid[np.arange(len(grid)), col] for grid, col in zip(grids, cols)])
            scan_tops, scan_cols = norms._lattice_scan(rows, table)
            assert np.array_equal(scan_cols, cols)
            assert np.array_equal(scan_tops, np.sqrt(np.maximum(tops, 0.0)))
        assert not scan_cols[1].any() and not scan_tops[1].any()

    def test_starts_are_the_greedy_picks(self, monkeypatch):
        # the best lattice units by scan value (stable order), each skipped when
        # within 0.2 rad of an earlier pick or of its antipode; then again with the
        # grid maxima rounded to 2 decimals where the pick phase's fine values, its
        # bounds and the whole scan take them (_grid_tops), where many values tie and
        # the lowest lattice index wins
        starts = []

        def recording(coeffs, radius, units, angles):
            starts.append(units)
            return slice_norm_ascent(coeffs, radius, units, angles)

        def rounded(squares, tops=norms._grid_tops):
            return np.round(tops(squares), 2)

        monkeypatch.setattr(norms, "slice_norm_ascent", recording)
        lattice, _ = norms._lattice()
        for tied in (False, True):
            if tied:
                monkeypatch.setattr(norms, "_grid_tops", rounded)
            rng = np.random.default_rng(2724)
            ties = 0
            for degree in range(2, 9):
                for _ in range(3):
                    f = random_series(rng, degree, 1.0)
                    split_norm(f)
                    rows, radius, _ = norms._scaled(f.rows, f.radius)
                    table = circle_table(radius, len(rows), 256)
                    scan = np.hypot(*norms._lattice_scan(rows, table)[0])
                    picks = []
                    for idx in np.argsort(-scan, kind="stable"):
                        if all(abs(np.dot(lattice[idx], lattice[k])) <= math.cos(0.2)
                               for k in picks):
                            picks.append(idx)
                        if len(picks) == norms._STARTS:
                            break
                    assert np.array_equal(starts[-1], lattice[picks])
                    ties += sum(np.count_nonzero(scan == scan[k]) > 1 for k in picks)
            assert (ties > 0) == tied

    def test_pick_phase_is_the_greedy_picks_of_the_whole_scan(self, monkeypatch):
        # the pick phase computes the 256-angle rows of just the units that can be picked:
        # its units and start columns are those of the greedy picks on the whole scan,
        # on sub-grids of steps 8, 4 and 2 (degrees 1-4, 5-9, 10-12), at degree 19, where
        # no sub-grid serves, and on the along_k and real rows of the blocked scan test;
        # the real rows, and every case again with the grid maxima rounded to 2 decimals,
        # tie many units, where the lowest lattice index wins
        rng = np.random.default_rng(2725)
        lattice, _ = norms._lattice()
        cases = [random_series(rng, degree, scale).rows
                 for scale in (0.2, 1.0, 3.0) for degree in range(1, 13)]
        along_k = rng.standard_normal((7, 4))
        along_k[:, 1:3] = 0.0
        real = rng.standard_normal((5, 4))
        real[:, 1:] = 0.0
        cases += [along_k, real, random_series(rng, 19, 1.0).rows]

        def rounded(squares, tops=norms._grid_tops):
            return np.round(tops(squares), 2)

        for tied in (False, True):
            if tied:
                monkeypatch.setattr(norms, "_grid_tops", rounded)
            ties = 0
            for rows in cases:
                tops, cols = norms._lattice_scan(rows, circle_table(0.9, len(rows), 256))
                scan = np.hypot(*tops)
                picks = []
                for idx in np.argsort(-scan, kind="stable"):
                    if all(abs(np.dot(lattice[idx], lattice[k])) <= math.cos(0.2) for k in picks):
                        picks.append(idx)
                    if len(picks) == norms._STARTS:
                        break
                units, columns = norms._scan_picks(rows, 0.9)
                assert units.tolist() == picks
                assert np.array_equal(columns, cols[:, picks])
                ties += sum(np.count_nonzero(scan == scan[k]) > 1 for k in picks)
            assert ties > 0

    def test_rows_of_some_units_are_the_whole_scan_rows(self):
        # the pick phase's rows of a few units, one alone included (numpy's matrix-vector
        # product rounds differently, so it runs as two) and more than a block, are the
        # whole scan's to the bit
        rng = np.random.default_rng(2727)
        _, monomials = norms._lattice()
        grid = np.empty(norms._SCAN_BLOCK * 256)
        for degree in (2, 6, 12):
            rows = random_series(rng, degree, 1.0).rows
            forms = norms._scan_forms(rows, circle_table(0.9, degree + 1, 256))
            whole = norms._scan_rows(monomials, forms, grid)
            for count in (1, 2, 3, 255, 257, 600):
                units = np.sort(rng.choice(len(monomials), count, replace=False))
                part = norms._scan_rows(monomials[units], forms, grid)
                assert all(np.array_equal(p, w[:, units]) for p, w in zip(part, whole))

    def test_sub_grid_ceiling_holds(self):
        # |F_I|^2 and |G_I|^2 are nonnegative trigonometric polynomials of degree N, so
        # each one's maximum on the 256 angles is at most its maximum on every s-th angle
        # over cos(N pi s / 256), for the step s the pick phase takes at degree N
        rng = np.random.default_rng(2726)
        for degree in range(1, 19):
            step = next(s for s in norms._SUB_STEPS
                        if math.cos(degree * math.pi * s / 256) >= norms._SUB_COS)
            cosine = math.cos(degree * math.pi * step / 256)
            for scale in (0.2, 1.0, 3.0):
                rows = random_series(rng, degree, scale).rows
                table = circle_table(0.9, degree + 1, 256)
                tops = np.hypot(*norms._lattice_scan(rows, table)[0])
                sub = norms._lattice_scan(rows, table[:, ::step])[0]
                assert np.all(tops <= np.hypot(*sub) / math.sqrt(cosine) * (1.0 + 1e-14))

    def test_lattice_squares_match_split_grids(self):
        # the quadratic forms in the unit against |F_I|^2 and |G_I|^2 from split rows,
        # at every lattice unit and scan angle; the last series has every Im a_n
        # along k, so G_I vanishes near the units +-k
        rng = np.random.default_rng(2720)
        lattice, monomials = norms._lattice()
        cases = [random_series(rng, degree, scale).rows
                 for scale in (0.2, 1.0, 3.0) for degree in range(1, 13)]
        along_k = rng.standard_normal((7, 4))
        along_k[:, 1:3] = 0.0
        cases.append(along_k)
        for rows in cases:
            table = circle_table(0.9, len(rows), 256)
            sums = rows.T @ table
            size = np.sum(sums.real ** 2 + sums.imag ** 2, axis=0)
            old_tops = []
            for form, part in zip(slice_square_forms(sums, sums), _slice_rows(rows, lattice)):
                old = np.abs(part @ table)
                assert np.all(np.abs(monomials @ form - old ** 2) <= 1e-13 * size)
                old_tops.append(old.max(axis=1))
            order = np.argsort(-np.hypot(*norms._lattice_scan(rows, table)[0]), kind="stable")
            assert np.array_equal(order[:50], np.argsort(-np.hypot(*old_tops), kind="stable")[:50])

    def test_bilinear_forms_match_split_products(self):
        # B(s, t) of the sums of two series against Re(F_I(s) conj F_I(t)) and
        # Re(G_I(s) conj G_I(t)) from split rows; B is symmetric, and the contraction
        # with the constant map gives the same forms
        rng = np.random.default_rng(2721)
        lattice, monomials = norms._lattice()
        for scale in (0.2, 1.0, 3.0):
            for degree in range(1, 9):
                first, second = (random_series(rng, degree, scale).rows for _ in range(2))
                table = circle_table(0.9, degree + 1, 64)
                s, t = first.T @ table, second.T @ table
                size = np.sqrt(np.sum(np.abs(s) ** 2, axis=0) * np.sum(np.abs(t) ** 2, axis=0))
                forms = slice_square_forms(s, t)
                for form, left, right in zip(forms, _slice_rows(first, lattice),
                                             _slice_rows(second, lattice)):
                    product = np.real((left @ table) * np.conj(right @ table))
                    assert np.all(np.abs(monomials @ form - product) <= 1e-13 * size)
                for form, swapped in zip(forms, slice_square_forms(t, s)):
                    assert np.array_equal(form, swapped)
                contracted = square_forms(s.T.copy().view(float), t.T.copy().view(float))
                assert np.all(np.abs(np.moveaxis(contracted, 0, -1) - forms) <= 1e-15 * size)

    def test_ascent_value_is_the_scan_value_on_the_lattice(self):
        # H of the ascent at every lattice unit and the scan's best angles of each
        # component is the scan's grid maximum of |F_I|^2 + |G_I|^2 there
        rng = np.random.default_rng(2722)
        lattice, _ = norms._lattice()
        for scale in (0.2, 1.0, 3.0):
            for degree in range(1, 9):
                rows = random_series(rng, degree, scale).rows
                table = circle_table(0.9, degree + 1, 256)
                tops, cols = norms._lattice_scan(rows, table)
                h = _slice_terms(_slice_table(rows, 0.9), _chart(lattice),
                                 (2.0 * math.pi / 256) * cols.T)[0]
                size = np.sum(np.linalg.norm(rows, axis=1) * 0.9 ** np.arange(degree + 1)) ** 2
                assert np.all(np.abs(h - np.sum(tops ** 2, axis=0)) <= 1e-14 * size)

    def test_value_is_the_slice_norm_at_the_final_unit(self, monkeypatch):
        # the value is sqrt(H) at the ascent's best point, with no second pass of
        # circle maxima: it must match the slice norm at that point's unit; at
        # degree 1 no ascent runs, and the closed form is the slice norm at a witness
        ascents = []

        def recording(*args):
            ascents.append(slice_norm_ascent(*args))
            return ascents[-1]

        monkeypatch.setattr(norms, "slice_norm_ascent", recording)
        rng = np.random.default_rng(2718)
        for scale in (0.5, 1.0, 3.0):
            for degree in range(1, 9):
                f = random_series(rng, degree, scale)
                count = len(ascents)
                value = split_norm(f).value
                if degree == 1:
                    assert len(ascents) == count and value == coefficient_bound(f)
                    assert abs(value - slice_norm(f, witness_unit(f))) <= 1e-14 * value
                    continue
                h, _, units, _, _ = ascents[-1]
                unit = UnitImaginary.from_vector(*units[int(np.argmax(h))])
                assert abs(value - slice_norm(f, unit)) <= 2e-15 * value


class TestDegreeOneClosedForms:
    """Effective degree at most 1: M(t) = |a_0| + t |a_1|, and the split norm is B(R)."""

    def test_ball_norms_match_the_closed_forms(self):
        rng = np.random.default_rng(4401)
        for _ in range(2000):
            rows = rng.standard_normal((2, 4)) * np.exp(rng.uniform(-3.0, 3.0, (2, 1)))
            s = float(rng.uniform(0.05, 0.99))
            f = Series(tuple(Quaternion(*row) for row in rows))
            n0, n1 = (math.hypot(*row) for row in rows)
            top, bottom = sup_norm_ball(f, s), inf_norm_ball(f, s)
            assert top.method == "closed-form"
            assert abs(top.value - (n0 + s * n1)) <= 4.4e-16 * (n0 + s * n1)
            assert abs(bottom.value - max(0.0, n0 - s * n1)) <= 4.4e-16 * (n0 + s * n1)
            if bottom.method != "root-sphere":
                assert bottom == NormReport(bottom.value, "closed-form")

    @pytest.mark.parametrize("f", [
        *(Series((Quaternion(0.3 * k, -0.2 * k, 0.9 * k, 0.1 * k),
                  Quaternion(-0.5 * k, 0.4 * k, 0.2 * k, -0.7 * k)), 0.8)
          for k in (1e-200, 1e-100, 1.0, 1e100, 1e200)),
        Series((0.4, -1.3), 0.9),
        Series((0, Quaternion(0.2, 0.5, -0.1, 0.3)), 0.7),
        Series((Quaternion(0.2, 0.5, -0.1, 0.3), 0), 0.7),
        Series((Quaternion(0.2, 0.5, -0.1, 0.3), 1.5), 0.7),
        Series((Quaternion(0.2, 0.5, -0.1, 0.3), Quaternion(0, 1, 2, 0), 0, 0), 0.95),
    ])
    def test_split_norm_is_the_coefficient_bound(self, f):
        report = split_norm(f)
        assert report == NormReport(coefficient_bound(f), "closed-form")
        assert abs(report.value - slice_norm(f, witness_unit(f))) <= 1e-14 * report.value

    def test_split_norm_of_a_near_real_series(self):
        # the lattice ascent read 1880.0453640703606 here, 6.0e-14 below the bound
        a0 = Quaternion(490.1910031322352, -209.5793596507148, 1730.871375444107,
                        -504.4167860010569)
        a1 = Quaternion(5.02920671892555e-05, 0.00024022065726992726, -0.001954774190842331,
                        0.0005209826601498965)
        assert split_norm(Series((a0, a1), 1.022006128519611)).value == 1880.045364070474

    @pytest.mark.parametrize("lowest", [False, True])
    def test_angle_max_on_one_turn_planes(self, lowest):
        # g = alpha_0 + alpha_1 cos + |u_1| sin on [0, pi]: the closed form is at the
        # top of a 10^5-angle scan, refined by another over the two cells around its
        # best angle, and the scan never rises above it beyond rounding
        rng = np.random.default_rng(4402)
        for _ in range(50):
            planes = sphere_planes(rng.standard_normal((2, 4)), rng.uniform(0.01, 1.0, 8))
            if lowest:
                planes[:, 0] *= -1.0
            angle, row, before, polished = norms._angle_max(planes)
            assert np.array_equal(row, np.arange(len(planes)))
            assert np.array_equal(before, polished)
            swing = np.linalg.norm(planes[:, 1:, 1], axis=1)

            def g(theta):
                return (planes[:, 0, :1] + planes[:, 0, 1:] * np.cos(theta)
                        + swing[:, None] * np.sin(theta))

            coarse = np.linspace(0.0, math.pi, 100000)
            best = coarse[np.argmax(g(coarse[None]), axis=1)][:, None]
            step = coarse[1]
            fine = np.clip(best + np.linspace(-step, step, 100000), 0.0, math.pi)
            scan = g(fine).max(axis=1)
            at = g(angle[:, None])[:, 0]
            scale = np.abs(planes).sum(axis=(1, 2))
            assert np.all(np.abs(polished - scan) <= 1e-14 * scale)
            assert np.all(polished >= scan - 4e-16 * scale)
            assert np.all(np.abs(at - polished) <= 4e-16 * scale)


class TestAttainedBound:
    """Where every term of a real series points one way at a point of the sphere, the
    maximum of |f| there is the coefficient bound B, a closed form with no grid."""

    def aligned_series(self):
        """Seeded real series of degree 2-12 that align: all terms positive (at R),
        alternating (at -R), and q - c q^3 (at +-iR)."""
        rng = np.random.default_rng(5501)
        for degree in range(2, 13):
            sizes = rng.uniform(0.05, 1.0, degree + 1)
            yield sizes
            yield sizes * (-1.0) ** np.arange(degree + 1)
        for c in rng.uniform(0.1, 2.0, 4):
            yield np.array([0.0, 1.0, 0.0, -c])

    def test_aligned_series_against_mpmath(self):
        # the closed form is, to 1e-15 at every scale, the 40-digit maximum over the
        # 20001 angles k pi / 20000, which hold 0, pi / 2 and pi (taken at their five
        # best in floats), and split_norm, the boundary sphere maximum of a real
        # series, has its bits
        steps = 20000
        angles = np.linspace(0.0, math.pi, steps + 1)
        with mpmath.workdps(40):
            for coeffs in self.aligned_series():
                terms = [mpmath.mpf(float(a)) for a in coeffs[::-1]]
                for radius in (0.3, 0.9, 1.0):
                    dense = np.abs(np.polyval(coeffs[::-1], radius * np.exp(1j * angles)))
                    top = max(abs(mpmath.polyval(terms, radius * mpmath.expjpi(k / steps)))
                              for k in map(mpmath.mpf, np.argsort(dense)[-5:].tolist()))
                    for scale in (2.0 ** -500, 1.0, 2.0 ** 500):
                        f = Series(tuple((scale * coeffs).tolist()), radius)
                        report = split_norm(f)
                        assert report.method == "closed-form"
                        assert report == sup_norm_ball(f.with_radius(2.0 * radius), radius)
                        exact = top * scale
                        assert abs(report.value - exact) <= 1e-15 * exact

    def test_closed_forms_are_dense_maxima(self):
        # 1000 seeded real series of degree 2-12: signs at random, alternating, all
        # positive, sparse, or aligned but for one term of the opposite sign and relative
        # size 1e-17 to 1e-9. A closed-form maximum is reached to 1e-13 on 27721 angles
        # k pi / 27720, which hold every pi p / q with q <= 12, so every angle where the
        # terms can align; every other report is the grid search's, to the bit
        rng = np.random.default_rng(5503)
        angles = np.linspace(0.0, math.pi, 27721)
        closed = 0
        for draw in range(1000):
            degree = int(rng.integers(2, 13))
            coeffs = rng.uniform(0.05, 1.0, degree + 1)
            kind = draw % 5
            if kind in (0, 3):
                coeffs *= rng.choice([-1.0, 1.0], degree + 1)
            if kind == 1:
                coeffs *= (-1.0) ** np.arange(degree + 1)
            if kind == 3:
                coeffs[rng.random(degree + 1) < 0.6] = 0.0
            if kind == 4:
                coeffs[rng.integers(degree + 1)] *= -10.0 ** rng.uniform(-17.0, -9.0)
            if not coeffs[2:].any():
                coeffs[degree] = 0.5
            s = float(rng.uniform(0.2, 0.99))
            f = Series(tuple(coeffs.tolist()))
            report = sup_norm_ball(f, s)
            if report.method == "closed-form":
                closed += 1
                dense = np.abs(np.polyval(coeffs[::-1], s * np.exp(1j * angles))).max()
                assert dense >= report.value * (1.0 - 1e-13)
                continue
            (value,), _, _ = _sphere_max(f.rows, np.array([s]))
            assert (report.value, report.method, report.resolution) == (
                value, "grid+refine", {"theta": 512})
        assert 300 <= closed <= 900


class TestScaleFree:
    @pytest.mark.parametrize("s", [1e-300, 1e-170, 1.0, 1e160, 1e300])
    def test_norms_scale_with_the_series(self, s):
        # f = s (1 + i q): every norm is s times the norm at s = 1, with no
        # overflow or underflow in the squares the searches take
        def norms_of(f):
            return [sup_norm_ball(f, 0.5).value, inf_norm_ball(f, 0.5).value,
                    split_norm(f).value, slice_norm(f, I)]

        unscaled = norms_of(Series((1.0, I)))
        scaled = norms_of(Series((Quaternion(s), Quaternion(0.0, s, 0.0, 0.0))))
        for value, reference in zip(scaled, unscaled):
            assert abs(value / s - reference) <= 1e-12 * reference

    @pytest.mark.parametrize("k", [-900, -500, 500, 900])
    def test_tolerances_scale_with_the_series(self, k):
        # f = 2^k (1 + i q + (j/2) q^2): the searches run on the same scaled rows for
        # every k, and the rounding floor scales with the series, so each tolerance is
        # 2^k times that at k = 0, exactly (degree 2, as degree 1 is a closed form)
        def tolerances_of(f):
            return [sup_norm_ball(f, 0.5).certified_tol, inf_norm_ball(f, 0.5).certified_tol,
                    split_norm(f).certified_tol]

        s = math.ldexp(1.0, k)
        unscaled = tolerances_of(Series((1.0, I, J / 2)))
        assert all(tol > 0.0 for tol in unscaled)
        scaled = tolerances_of(Series((Quaternion(s), Quaternion(0.0, s, 0.0, 0.0),
                                       Quaternion(0.0, 0.0, s / 2, 0.0))))
        assert scaled == [s * tol for tol in unscaled]

    def test_a_tolerance_of_zero_is_positive(self):
        # the gap of the boundary minimum is -0.0 here and both rounding floors
        # underflow, so the floor is +0.0, which the report writes as 0.0
        report = inf_norm_ball(Series((1e-310, 0, 1e-320)), 0.5)
        assert report.method == "grid+refine"
        assert math.copysign(1.0, report.certified_tol) == 1.0
        assert '"certified_tol": 0.0' in json.dumps(report.to_dict())
        assert math.copysign(1.0, norms._tol_floor(0.0, -0.0, -2000)) == 1.0

    @pytest.mark.parametrize("t", [1e-100, 1e-10, 1e10, 1e100])
    def test_norms_scale_with_the_radius(self, t):
        # g(q) = f(q / t) on the ball of radius t: every norm of g at radius 0.5 t
        # (or on its whole ball) is that of f at 0.5 (or on the unit ball), with
        # no overflow or underflow in the radius powers the searches take
        coeffs = (Quaternion(1.0), Quaternion(0.0, 1.0, 0.0, 0.0), Quaternion(0.0, 0.0, 0.5, 0.25))
        f = Series(coeffs)
        g = Series(tuple(a * t ** -n for n, a in enumerate(coeffs)), t)
        for norm_of in (lambda h, s: sup_norm_ball(h, 0.5 * s).value,
                        lambda h, s: inf_norm_ball(h, 0.5 * s).value,
                        lambda h, s: split_norm(h).value, lambda h, s: slice_norm(h, I)):
            reference = norm_of(f, 1.0)
            assert abs(norm_of(g, t) - reference) <= 1e-12 * reference

    def test_row_norms_at_every_scale(self, rng):
        # each row is folded by its own power of two: exact, quiet, and inf past the floats
        rows = np.array([[math.ldexp(3.0, k), 0.0, math.ldexp(-4.0, k), 0.0]
                         for k in (990, 0, -1060)] + [[0.0] * 4, [1e308] * 4])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lengths = _arrays.row_norms(rows)
        assert lengths.tolist() == [math.ldexp(5.0, 990), 5.0, math.ldexp(5.0, -1060), 0.0,
                                    math.inf]
        unit_scale = rng.standard_normal((100, 4))
        assert np.array_equal(_arrays.row_norms(unit_scale),
                              np.sqrt(np.add.reduce(unit_scale * unit_scale, axis=1)))


    def test_norm_beyond_the_largest_float_is_a_domain_error(self):
        # |F| reaches 2e308 on the unit circle for f = 1e308 (1 + i q)
        f = Series((1e308, Quaternion(0.0, 1e308, 0.0, 0.0)))
        for norm in (lambda: split_norm(f), lambda: slice_norm(f, I),
                     lambda: sup_norm_ball(f, 0.99)):
            with pytest.raises(DomainError, match="beyond the largest float"):
                norm()
        assert sup_norm_ball(f, 0.5).value == pytest.approx(1.5e308, rel=1e-12)


def slice_h(coeffs, radius, units, angles):
    """|F_I(z_1)|^2 + |G_I(z_2)|^2 from the split coefficients of ``_slice_rows``."""
    alpha, beta = _slice_rows(coeffs, units)
    powers = (radius * np.exp(1j * angles))[:, :, None] ** np.arange(len(coeffs))
    return (np.abs(np.sum(alpha * powers[:, 0], axis=1)) ** 2
            + np.abs(np.sum(beta * powers[:, 1], axis=1)) ** 2)


def slice_h_differences(coeffs, radius, units, angles, step):
    """Central differences of H along the chart of ``_slice_terms``: the unit moves to
    I + a J + b K, normalised, with (J, K) its completion, and the angles add."""
    j_rows, k_rows = _completion_rows(units)

    def h_at(delta):
        moved = units + delta[:, :1] * j_rows + delta[:, 1:2] * k_rows
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        return _slice_terms(_slice_table(coeffs, radius), _chart(moved), angles + delta[:, 2:])[0]

    basis = [np.broadcast_to(step * e, (len(units), 4)) for e in np.eye(4)]
    grad = np.stack([(h_at(e) - h_at(-e)) / (2.0 * step) for e in basis], axis=1)
    hess = np.stack([np.stack([(h_at(e + d) - h_at(e - d) - h_at(d - e) + h_at(-e - d))
                               / (4.0 * step * step) for d in basis], axis=1)
                     for e in basis], axis=1)
    return grad, hess


def slice_ascent_cases(rng):
    """Quadratic j, whose |G_I| is constant on every circle, then seeded rows of
    degree 1-8 at coefficient scales 1e-3, 1 and 1e3."""
    cases = [np.array([[0.0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]])]
    for degree in range(1, 9):
        for scale in (1e-3, 1.0, 1e3):
            cases.append(scale * rng.uniform(-1.0, 1.0, size=(degree + 1, 4)))
    return cases


class TestSliceNormAscent:
    # units whose two smallest components are equal in size, where the
    # completion switches its reference axis, then seeded units
    SWITCHING = np.array([[1.0, 0.3, 0.3], [0.3, -1.0, -0.3], [-0.2, 0.2, 0.9], [0.5, 0.5, 0.5]])

    def starts(self, rng, count=4):
        units = np.concatenate([self.SWITCHING, rng.standard_normal((count, 3))])
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        return units, rng.uniform(0.0, 2.0 * math.pi, size=(len(units), 2))

    def test_terms_against_split_and_differences(self):
        rng = np.random.default_rng(2207)
        for coeffs in slice_ascent_cases(rng):
            units, angles = self.starts(rng)
            h, grad, hess = _slice_terms(_slice_table(coeffs, 0.9), _chart(units), angles)
            # |f| on the circle of radius 0.9 is at most this, and so are |F_I| and |G_I|
            scale = np.sum(np.linalg.norm(coeffs, axis=1) * 0.9 ** np.arange(len(coeffs))) ** 2
            assert np.all(np.abs(h - slice_h(coeffs, 0.9, units, angles)) <= 1e-14 * scale)
            fd_grad, fd_hess = slice_h_differences(coeffs, 0.9, units, angles, 1e-4)
            assert np.all(np.abs(grad - fd_grad) <= 1e-6 * scale)
            assert np.all(np.abs(hess - fd_hess) <= 1e-5 * scale)
            assert np.all(hess == np.swapaxes(hess, 1, 2))

    def test_ascent_never_descends(self):
        rng = np.random.default_rng(2208)
        for index, coeffs in enumerate(slice_ascent_cases(rng)):
            units, angles = self.starts(rng)
            start = _slice_terms(_slice_table(coeffs, 0.9), _chart(units), angles)[0]
            h, before, final_units, final_angles, steps = slice_norm_ascent(
                coeffs, 0.9, units, angles)
            assert np.all(h >= start)
            assert np.all(before <= h)
            assert np.all(steps >= 1)
            assert np.allclose(np.linalg.norm(final_units, axis=1), 1.0, rtol=0, atol=1e-15)
            assert np.array_equal(h, _slice_terms(_slice_table(coeffs, 0.9), _chart(final_units),
                                                   final_angles)[0])
            if index == 0:
                # at radius 0.9 the squared slice norm of q + q^2 j is 1.4661 + 1.458 |<I, j>|,
                # 1.71^2 at I = +-j, and |G_I| does not depend on theta_2
                assert np.all(np.abs(np.sqrt(h) - 1.71) <= 1e-12)

    def test_one_chart_per_trial_point(self, monkeypatch):
        # the chart of a point is built once, for its terms, and kept with it when the
        # step is: one completion at the starts and one per step of the lockstep loop
        calls = []

        def counting(units):
            calls.append(len(units))
            return _completion_rows(units)

        monkeypatch.setattr(_arrays, "_completion_rows", counting)
        rng = np.random.default_rng(2209)
        for coeffs in slice_ascent_cases(rng):
            units, angles = self.starts(rng)
            calls.clear()
            steps = slice_norm_ascent(coeffs, 0.9, units, angles)[4]
            assert calls == [len(units)] * (1 + steps.max())


class TestInfNormBall:
    @pytest.mark.parametrize("tiny", [1e-154, 1e-155, 1e-160])
    def test_subnormal_leading_coefficients_of_the_symmetrization(self, tiny):
        # f^s of 3 + q tiny + q^2 tiny i has leading coefficients near the subnormal
        # range, whose companion row overflows; they carry no root near the ball
        f = Series((3, tiny, Quaternion(0, tiny, 0, 0)))
        report = inf_norm_ball(f, 0.4)
        assert report.value == sup_norm_ball(f, 0.4).value == 3.0
        assert report.resolution["roots"] == 0

    def test_coefficients_three_hundred_decades_apart(self):
        f = Series((Quaternion(0, 1e160, 0, -1e160), Quaternion(-0.0, 1e-160, -5e-324, 0)), 2.0)
        value = inf_norm_ball(f, 1.0).value
        assert abs(value - sup_norm_ball(f, 1.0).value) <= 1e-15 * value

    def test_identity_min_zero(self):
        assert inf_norm_ball(Series((0, 1)), 0.8).value < 1e-12

    def test_shifted_constant(self):
        # |2 + q| over |q| <= 0.5 has minimum 1.5
        report = inf_norm_ball(Series((2, 1)), 0.5)
        assert abs(report.value - 1.5) < 1e-9

    def test_closed_form_at_the_centre_and_on_a_constant(self):
        assert inf_norm_ball(Series((2, 1)), 0.0) == NormReport(2.0, "closed-form")
        assert inf_norm_ball(Series((J,)), 0.5) == NormReport(1.0, "closed-form")

    def test_outside_ball(self):
        with pytest.raises(DomainError, match="outside ball"):
            inf_norm_ball(Series((2, 1)), 1.0)

    def test_conjugate_invariance(self, rng):
        for _ in range(5):
            f = random_series(rng, int(rng.integers(1, 6)))
            a = inf_norm_ball(f, 0.9)
            b = inf_norm_ball(regular_conjugate(f), 0.9)
            assert abs(a.value - b.value) <= max(2 * (a.certified_tol + b.certified_tol), 1e-9)


    def test_polishes_more_than_the_best_cell(self):
        # a general cubic whose best polar-grid cell lies in a local minimum
        # above the global one; a coarse polar grid already attains less
        f = Series(tuple(Quaternion(*row) for row in (
            (-0.6925529540558297, -0.6761469437338985, 0.4848076883122352, 0.19178461325555407),
            (-0.2754022780826968, 0.018764303183955944, -0.11084310349947013,
             -0.10677775533798495),
            (0.4564605766693255, 0.29119345107510064, 0.9232030620503344, 0.30332196288170743),
            (-0.8523222414864942, 0.851663372603269, -0.024920104603036064,
             -0.8287758642383825),
        )))
        t = np.linspace(0.0, 0.9, 128)[:, None]
        theta = np.linspace(0.0, math.pi, 512)
        low, _ = sphere_extrema_rows(*sphere_constants(
            f.rows, (t * np.cos(theta)).ravel(), (t * np.sin(theta)).ravel()))
        attained = float(low.min())
        report = inf_norm_ball(f, 0.9)
        assert report.value <= attained + report.certified_tol

    def test_zero_in_the_ball_reads_the_root_sphere(self):
        # a cubic with a zero in the ball: the minimum is 0, attained on a root sphere of f^s
        f = Series(tuple(Quaternion(*row) for row in (
            (-0.20841489907609745, -0.8896701478582401, 0.2922819356907995, 0.2425917660844188),
            (0.3664195009426712, 0.8443336237024284, 0.12018255997983518, -0.530825813904725),
            (-0.44637844171814955, 0.3128955990714113, 0.11204714478942024, 0.5559637603600553),
            (-0.7333591408830409, -0.5694010268747287, 0.7545593345965538, 0.25376011093886186),
        )), 1.0)
        assert inf_norm_ball(f, 0.9).value <= 1e-13

    def test_multiple_zeros_read_zero(self):
        # a zero of multiplicity k is a 2k-fold root of the symmetrization,
        # which the root solver splits by about eps^(1/2k)
        def linear(root):
            return Series((-Quaternion(*root), 1))

        square = Series((0.25, 0, 1))
        for f in (star(linear((0.5, 0, 0, 0)), linear((0.5, 0, 0, 0))),
                  star(star(linear((0.6, 0, 0, 0)), linear((0.6, 0, 0, 0))),
                       linear((0.6, 0, 0, 0))),
                  square,
                  star(square, linear((0.3, 0, 0, 0))),
                  star(linear((0, 0, 0.3, 0)), linear((0, 0, 0.3, 0)))):
            report = inf_norm_ball(f, 0.9)
            assert report.value <= 1e-12
            assert report.value <= report.certified_tol

    def test_sharp_boundary_minimum_beside_an_outer_root(self):
        # the symmetrization has a root at |z| = 0.90036, just outside the ball
        f = Series(tuple(Quaternion(*row) for row in (
            (0.7908799660595067, -0.8999490057336899, -0.9160255185853716, -0.7918442877852898),
            (-0.1353612901699326, -0.4284040274708809, 0.48279278730928654, -0.91327963901696),
            (0.8747529629903654, 0.8894380811177607, 0.619930497797115, 0.6123171912557732),
        )), 1.0)
        theta = np.linspace(0.0, math.pi, 200001)
        scan = float(sphere_min_rows(*sphere_constants(
            f.rows, 0.9 * np.cos(theta), 0.9 * np.sin(theta))).min())
        report = inf_norm_ball(f, 0.9)
        assert abs(report.value - 1.0938057e-3) < 1e-9
        assert report.value <= scan


def inf_norm_cases(rng):
    """(f, s) pairs: seeded series of degree 1-8 at three scales, the builtins, zeros on
    or near the boundary sphere (q - s, q^2 + s^2, q - 0.9 s) and a sharp boundary
    minimum beside a root of f^s just outside the ball, each at ball radii 0.45 and 0.9."""
    sharp = Series(tuple(Quaternion(*row) for row in (
        (0.7908799660595067, -0.8999490057336899, -0.9160255185853716, -0.7918442877852898),
        (-0.1353612901699326, -0.4284040274708809, 0.48279278730928654, -0.91327963901696),
        (0.8747529629903654, 0.8894380811177607, 0.619930497797115, 0.6123171912557732),
    )))
    cases = []
    for s in (0.45, 0.9):
        cases += [(random_series(rng, degree, scale), s)
                  for scale in (0.3, 1.0, 5.0) for degree in range(1, 9)]
        cases += [(f, s) for _, f in builtin_corpus()]
        cases += [(Series((-s, 1)), s), (Series((s * s, 0, 1)), s), (Series((-0.9 * s, 1)), s),
                  (sharp, s)]
    return cases


class TestInfNormRootsFirst:
    def test_boundary_floor_is_below_the_boundary_minimum(self, rng):
        theta = np.linspace(0.0, math.pi, 20001)
        cases = inf_norm_cases(rng)
        positive = 0
        for f, s in cases:
            rows, t, e = norms._scaled(f.rows, s)
            sym = symmetrization(Series(tuple(Quaternion(*row) for row in rows))).rows[:, 0]
            floor = norms._boundary_floor(rows, t, sym)
            boundary = norms._sphere_report(rows, t, e, lowest=True).value
            scan = sphere_min_rows(*sphere_constants(rows, t * np.cos(theta), t * np.sin(theta)))
            assert floor <= min(math.ldexp(boundary, -e), float(scan.min()))
            positive += floor > 0.0
        # the bound is not vacuous: most of these boundaries stay away from 0
        assert positive > len(cases) // 2

    def test_reports_match_with_the_shortcut_off(self, rng, monkeypatch):
        cases = inf_norm_cases(rng) + [
            (Series((-3e299, 1e300)), 0.9), (Series((-3e-301, 1e-300)), 0.9),
            (Series((-3e100, 1), 1e101), 9e100), (Series((-3e-101, 1), 1e-100), 9e-101)]
        searches = []

        def tally(*args, **kwargs):
            searches.append(args)
            return report(*args, **kwargs)

        report = norms._folded_sphere_max
        monkeypatch.setattr(norms, "_folded_sphere_max", tally)
        shortcut = [inf_norm_ball(f, s) for f, s in cases]
        # the root sphere wins without a boundary search in a quarter of the cases at least
        assert len(cases) - len(searches) >= len(cases) // 4
        assert all(r.method == "root-sphere" for r in shortcut[-4:])
        monkeypatch.setattr(norms, "_boundary_floor", lambda *args: -math.inf)
        assert [inf_norm_ball(f, s) for f, s in cases] == shortcut

    @pytest.mark.parametrize("f, s, expected", [
        (Series((0, 0, 0)), 0.5, NormReport(0.0, "closed-form")),
        (Series((0, 0, 0), 1e300), 1e200, NormReport(0.0, "closed-form")),
        (Series((0, 0), 1e-300), 1e-310, NormReport(0.0, "closed-form")),
        (Series((0, 0, 0)), 0.0, NormReport(0.0, "closed-form")),
        (Series((0,)), 0.5, NormReport(0.0, "closed-form")),
    ])
    def test_the_zero_series_keeps_its_report(self, f, s, expected):
        # f = 0 has no root of f^s, so no lower bound is taken (it would be 0 / 0);
        # its effective degree is 0, so the boundary is a closed form at every radius
        assert inf_norm_ball(f, s) == expected

    def test_a_root_minimum_beside_a_boundary_past_the_floats(self):
        # 1e300 (q - 1) is about 1e310 on the sphere of radius 1e10, but 0 at q = 1
        report = inf_norm_ball(Series((-1e300, 1e300), 1e20), 1e10)
        assert (report.value, report.method) == (0.0, "root-sphere")

    def test_a_zero_wins_over_a_searched_boundary_past_the_floats(self):
        # -9e299 q + 1e290 q^2 vanishes at 0 and 9e9, and L does not clear the root,
        # so the boundary is searched: about 1e310 there, compared before it is unfolded
        report = inf_norm_ball(Series((0, -9e299, 1e290), 1e20), 1e10)
        assert (report.value, report.method) == (0.0, "root-sphere")

    def test_a_minimum_past_the_floats_is_a_domain_error(self):
        # |a_0| = 2.1e308 with no zero in the ball: the minimum itself is past the floats
        with pytest.raises(DomainError, match="beyond the largest float"):
            inf_norm_ball(Series((Quaternion(1.5e308, 1.5e308, 0, 0), 1.0)), 0.5)


class TestMeanValue:
    def test_identity_equality_case(self):
        margin = mean_value_margin(Series((0, 1)), Quaternion(0.3, 0.1, 0, 0))
        assert abs(margin) < 1e-12

    def test_square_closed_form(self):
        margin = mean_value_margin(Series((0, 0, 1)), Quaternion(0.5))
        assert abs(margin - 1.5) < 1e-9

    def test_requires_vanishing_at_zero(self):
        with pytest.raises(PreconditionError, match="f\\(0\\) = 0"):
            mean_value_margin(Series((1, 1)), Quaternion(0.5))

    def test_property_sweep(self, rng):
        f = random_series(rng, 6, monic_shift=True)
        deriv_norm = split_norm(slice_derivative(f)).value
        from quatregular import evaluate

        for _ in range(200):
            q = random_quaternion(rng, 0.45)
            if q.modulus() < 1e-3:
                continue
            assert deriv_norm - evaluate(f, q).modulus() / q.modulus() >= -1e-9

    def test_remark_bound(self, rng):
        for _ in range(5):
            f = random_series(rng, int(rng.integers(1, 7)), monic_shift=True)
            deriv_norm = split_norm(slice_derivative(f)).value
            for s in (0.25, 0.6, 0.9):
                assert s * deriv_norm - sup_norm_ball(f, s).value >= -1e-9


# c of the binomial derivatives f' = 1 + c q^k: real of either sign, and nonreal
BINOMIAL_C = (Quaternion(0.8), Quaternion(-6.0), Quaternion(0.3, -3.2, 1.5, 0.0),
              Quaternion(0.0, 0.0, 0.0, 20.0))


def binomial(k, c):
    """f = q + c q^(k+1) / (k+1), whose derivative is 1 + c q^k to rounding."""
    return Series((0, 1) + (0,) * (k - 1) + (c * (1.0 / (k + 1)),))


def evaluated_root(derivative, r):
    """The first grid crossing of the whole evaluated mu-profile at r, and the root in its
    cell to 1e-12 from 15 evenly spaced points a batch, each batch one _sphere_max call."""
    threshold = r - 1e-12
    grid = np.linspace(0.0, r, bloch._MU_GRID)
    first = int(np.flatnonzero(grid * _sphere_max(derivative.rows, r - grid)[0]
                               >= threshold)[0])
    lo, hi = grid[first - 1], grid[first]
    while hi - lo > 1e-12:
        points = np.linspace(lo, hi, 17)
        values = points[1:-1] * _sphere_max(derivative.rows, r - points[1:-1])[0]
        k = next((k for k, value in enumerate(values.tolist(), 1) if value >= threshold), 16)
        lo, hi = points[k - 1], points[k]
    return first, hi


class TestSphereMaxSearch:
    def test_batches_match_single_radius_calls_to_the_bit(self):
        # 70 radii take three _CHUNK_ROWS chunks of grid rows
        rng = np.random.default_rng(2725)
        cases = [random_series(rng, degree, scale)
                 for scale in (0.2, 1.0, 3.0) for degree in range(1, 13)]
        for f in cases:
            radii = np.sort(rng.uniform(0.0, 0.95, 70))
            assert len(radii) > 2 * (norms._CHUNK_ROWS // norms._THETA_GRID)
            for lowest in (False, True):
                batch = np.array(_sphere_max(f.rows, radii, lowest))
                single = np.array([_sphere_max(f.rows, radii[k:k + 1], lowest)
                                   for k in range(len(radii))])[:, :, 0].T
                assert np.array_equal(batch, single)

    def test_angle_tables_are_cached_read_only_and_bounded(self):
        norms._angle_table.cache_clear()
        theta, cos, sin, parity = norms._angle_table(7)
        for array in (theta, cos, sin, parity):
            with pytest.raises(ValueError):
                array[0] = 1.0
        turns = _arrays.power_table(np.exp(1j * theta), 7)
        assert np.array_equal(cos, turns.real) and np.array_equal(sin, turns.imag)
        assert np.array_equal(parity, [1, -1, 1, -1, 1, -1, 1])
        rng = np.random.default_rng(2726)
        for degree in range(1, 40):
            sup_norm_ball(random_series(rng, degree, 1.0), 0.9)
            assert norms._angle_table.cache_info().currsize <= norms._TABLES
        # degree 61 is past the cap: no table is built for it
        info = norms._angle_table.cache_info()
        with pytest.raises(DomainError, match="cap 60"):
            sup_norm_ball(random_series(rng, 61, 1.0), 0.9)
        assert norms._angle_table.cache_info() == info
        assert info.currsize == norms._TABLES

    def test_plane_and_polish_tables_hold_every_degree_read_only(self):
        # degree N reads the first (N+1)(N+2)/2 pairs and the first N+1 polish
        # columns of the tables built at the cap: those are its own tables, bit for bit
        tables = (*_arrays._PAIR_TABLE, _arrays._TURNS, _arrays._POLISH_WEIGHTS)
        for degree in range(DEGREE_CAP + 1):
            n, j = np.nonzero(np.tri(degree + 1, dtype=bool))
            turns = np.arange(degree + 1)
            one, square = np.ones(degree + 1), -turns ** 2
            weights = np.stack([one, square, turns, turns, turns,
                                -turns, one, one, one, square, square, square]).astype(float)
            direct = (n, j, n + j, n - j, np.where(n > j, 2.0, 1.0)[:, None], turns, weights)
            read = [table[:n.size] for table in _arrays._PAIR_TABLE]
            read += [_arrays._TURNS[:degree + 1], _arrays._POLISH_WEIGHTS[:, :degree + 1]]
            for got, want in zip(read, direct):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                with pytest.raises(ValueError):
                    got[0] = 1
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 1

    def test_batched_mu_profile_matches_single_radius_calls(self):
        for f in (dict(builtin_corpus())["mixed-units"],
                  random_series(np.random.default_rng(31), 5, monic_shift=True)):
            r = 0.9
            derivative = slice_derivative(f)
            grid = np.linspace(0.0, r, bloch._MU_GRID)
            for s, mu in zip(grid, grid * _sphere_max(derivative.rows, r - grid)[0]):
                single = s * sup_norm_ball(derivative, r - s).value
                assert abs(mu - single) <= 1e-15 * single

    def test_root_batches_match_a_scalar_first_crossing_search(self):
        # the two bounds of mu first narrow the grid cell of the crossing; then each
        # root batch evaluates 15 evenly spaced points of the bracket, an interpolated
        # step and a point on either side of it, and keeps the first where mu reaches
        # r. The same placement over single sup_norm_ball calls, interpolating first
        # through the evaluated grid points within 10 of the crossing, must land on the
        # same s*, the 15 even points alone on s* to within the root's 1e-12, and mu
        # must reach r at s* itself. A search the coefficient bound settles closes its
        # bracket from the two bounds of mu alone
        rng = np.random.default_rng(4242)
        series = [f for _, f in builtin_corpus()]
        series += [random_series(rng, degree, monic_shift=True) for degree in (2, 4, 5)]
        for f in series:
            derivative = slice_derivative(f)
            norms = bloch._term_norms(derivative.rows)
            for r in (0.99, 0.9, 0.6):
                threshold = r - 1e-12
                report = bl_search(f, r)
                grid = np.linspace(0.0, r, bloch._MU_GRID)
                first, _, mu = bloch._first_crossing(derivative, r, grid, norms)
                # a settled search evaluates no grid point
                if not (mu > -np.inf).any():
                    lo, hi = bloch._bound_bracket(norms, r, grid[first - 1], grid[first],
                                                  threshold)
                    assert hi - lo <= 1e-12 and report.R_r == hi / 2.0
                    assert report.diagnostics["mu_radii"][:2] == [0, 0]
                else:
                    known = [(grid[i], mu[i]) for i in range(max(first - 10, 0), first + 10)
                             if i < grid.size and mu[i] > -np.inf]
                    lo, hi = bloch._bound_bracket(norms, r, grid[first - 1], grid[first],
                                                  threshold)
                    while hi - lo > 1e-12:
                        known_s, known_mu = map(np.array, zip(*known))
                        points = bloch._root_points(lo, hi, known_s, known_mu, threshold, 1e-12)
                        values = [s * sup_norm_ball(derivative, r - s).value for s in points]
                        k = next((k for k, v in enumerate(values) if v >= threshold), len(points))
                        lo = points[k - 1] if k > 0 else lo
                        hi = points[k] if k < len(points) else hi
                        known += zip(points, values)
                    assert report.R_r == hi / 2.0

                # the rule without interpolated points: 15 evenly spaced points a batch
                profile = list(zip(grid, grid * _sphere_max(derivative.rows, r - grid)[0]))
                first = next(i for i, (_, mu) in enumerate(profile) if mu >= threshold)
                lo, hi = profile[first - 1][0], profile[first][0]
                while hi - lo > 1e-12:
                    points = np.linspace(lo, hi, 17)
                    k = next((k for k in range(1, 16) if points[k] * sup_norm_ball(
                        derivative, r - points[k]).value >= threshold), 16)
                    lo, hi = points[k - 1], points[k]
                assert abs(2.0 * report.R_r - hi) <= 1e-12

                s_star = 2.0 * report.R_r
                assert s_star * sup_norm_ball(derivative, r - s_star).value >= threshold

    def test_neville_reproduces_polynomials(self):
        # x_n interpolates through n pairs, so it is exact to rounding for s = p(mu) of
        # degree below n, at every n past the degree
        rng = np.random.default_rng(3301)
        for degree in range(10):
            for _ in range(20):
                coeffs = rng.uniform(-1.0, 1.0, degree + 1)
                mu = rng.permutation(np.linspace(0.5, 1.5, 10) + rng.uniform(-0.03, 0.03, 10))
                s = np.polynomial.polynomial.polyval(mu, coeffs)
                target = rng.uniform(0.6, 1.4)
                want = np.polynomial.polynomial.polyval(target, coeffs)
                estimates = bloch._neville(s.tolist(), mu.tolist(), target)
                assert len(estimates) == 10
                for x in estimates[degree:]:
                    assert abs(x - want) <= 1e-11 * np.abs(coeffs).sum()

    def test_neville_is_nan_where_two_mu_agree(self):
        # x_n is nan from the first n whose pairs hold two equal mu
        s, mu = [0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 2.0, 3.0, 2.0, 5.0]
        estimates = bloch._neville(s, mu, 2.5)
        assert all(math.isfinite(x) for x in estimates[:3])
        assert all(math.isnan(x) for x in estimates[3:])
        assert math.isnan(bloch._neville([0.1, 0.2], [1.0, 1.0], 0.5)[1])
        assert bloch._neville([], [], 0.5) == []

    def test_neville_matches_the_three_point_formula(self):
        # x_3 is the inverse quadratic interpolation through three pairs, the Lagrange form
        def inverse_quadratic(s, mu, target):
            (s0, s1, s2), (m0, m1, m2) = s, mu
            return (s0 * (target - m1) * (target - m2) / ((m0 - m1) * (m0 - m2))
                    + s1 * (target - m0) * (target - m2) / ((m1 - m0) * (m1 - m2))
                    + s2 * (target - m0) * (target - m1) / ((m2 - m0) * (m2 - m1)))

        # on three neighbouring grid points of a rising profile, in the order of their
        # distance from the bracket, as the first root batch sees them
        rng = np.random.default_rng(3303)
        for _ in range(2000):
            r = rng.uniform(0.3, 0.99)
            j = rng.integers(100, bloch._MU_GRID - 1)
            s = rng.permutation(np.array([j - 1, j, j + 1]) * (r / (bloch._MU_GRID - 1)))
            mu = s * (1.0 + rng.uniform(0.1, 3.0) * (r - s) ** rng.integers(1, 4))
            target = rng.uniform(mu.min(), mu.max())
            s, mu = s.tolist(), mu.tolist()
            want = inverse_quadratic(s, mu, target)
            got = bloch._neville(s, mu, target)[2]
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_bound_bracket_keeps_a_sub_bracket(self):
        # _bound_bracket moves an end only to a point strictly inside the bracket it is
        # given, where the bounds of mu decide that side. On the grid cell of the first
        # crossing of seed-1 bl-search record 65 (r = 0.99), the k = 1 model root lies at
        # 0.98999, far outside the cell, and no end may move there
        f = Series(tuple(Quaternion(*row) for row in (
            (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0),
            (-0.07773941363817571, 0.24350771967239337, 0.31397771038348066,
             -0.09405016526776011),
            (-0.04103208305960693, 0.4948483689729577, 0.07327072581083915,
             0.18273752833431534),
            (-0.4559689298616294, 0.12602495163269956, 0.1028290609800061,
             0.17661006147208236),
            (-0.04721171073303876, -0.33809717699124775, -0.44237656944469317,
             0.33047884038481745))))
        r = 0.99
        derivative = slice_derivative(f)
        norms = bloch._term_norms(derivative.rows)
        grid = np.linspace(0.0, r, bloch._MU_GRID)
        first, _, _ = bloch._first_crossing(derivative, r, grid, norms)
        lo, hi = grid[first - 1], grid[first]
        assert abs(lo - 0.30387) < 1e-5 and abs(hi - 0.30484) < 1e-5
        assert bloch._bound_bracket(norms, r, lo, hi, r - 1e-12) == (lo, hi)
        assert bl_search(f, r).diagnostics["mu_root_residual"] <= 1e-12

        rng = np.random.default_rng(3307)
        series = [random_series(rng, degree, scale, monic_shift=True)
                  for scale in (0.5, 3.0) for degree in range(2, 8)]
        series += [binomial(k, c) for k in range(1, 4) for c in BINOMIAL_C]
        moved = 0
        for f in series:
            norms = bloch._term_norms(slice_derivative(f).rows)
            for r in (0.99, 0.9, 0.6, 0.3):
                target = r - 1e-12
                grid = np.linspace(0.0, r, bloch._MU_GRID)
                for j in np.concatenate([rng.integers(1, grid.size, 8), [grid.size - 1]]):
                    low, high = grid[j - 1], grid[j]
                    lo, hi = bloch._bound_bracket(norms, r, low, high, target)
                    assert low <= lo < hi <= high
                    if lo > low:
                        assert bloch._mu_bounds(norms, r, lo)[1] < target
                    if hi < high:
                        assert bloch._mu_bounds(norms, r, hi)[0] >= target
                    moved += (lo, hi) != (low, high)
        assert moved >= 20

    def profile_series(self):
        """The builtin series and seeded normalised ones of degree 1-12 at three scales."""
        rng = np.random.default_rng(1729)
        return [f for _, f in builtin_corpus()] + [
            random_series(rng, degree, scale, monic_shift=True)
            for scale in (0.2, 1.0, 3.0) for degree in range(1, 13)]

    def test_log_max_is_convex_in_log_radius(self):
        # Hadamard's three-circles theorem on each slice, then the maximum over the
        # slices: on the dense profile no point rises above the chord of its neighbours
        t = np.linspace(0.0, 0.99, bloch._MU_GRID)[1:]
        x = np.log(t)
        for f in self.profile_series():
            y = np.log(_sphere_max(slice_derivative(f).rows, t)[0])
            chord = ((x[2:] - x[1:-1]) * y[:-2] + (x[1:-1] - x[:-2]) * y[2:]) / (x[2:] - x[:-2])
            assert (y[1:-1] - chord).max() <= 4.0 * np.finfo(float).eps * np.abs(y).max()

    def test_coefficient_bound_is_above_the_sphere_maxima(self):
        # the rule's own 1e-12 covers the ulp by which a computed M can pass B
        t = np.linspace(0.0, 0.99, bloch._MU_GRID)
        for f in self.profile_series():
            derivative = slice_derivative(f)
            bound = _arrays.coefficient_bound(derivative.rows, t)
            assert np.all(bound * (1.0 + 1e-12) >= _sphere_max(derivative.rows, t)[0])

    def test_chord_supremum_matches_a_fine_sampling(self):
        # s M_b ((r - s) / t_b)^beta on the cell [0.3, 0.33] at r = 0.9 peaks inside it
        # (beta = 1.85), at either end (0.3 and 5), or at s_b for beta <= 0, where the
        # clip of r / (1 + beta) would pick s_a for beta < -1
        r, s_a, s_b, upper_b = 0.9, 0.3, 0.33, 2.0
        t_a, t_b = r - s_a, r - s_b
        s = np.linspace(s_a, s_b, 2 ** 20 + 1)
        for beta in (1.85, 0.3, 5.0, 0.0, -0.5, -1.0, -3.0):
            upper_a = upper_b * (t_a / t_b) ** beta
            sup, = bloch._chord_sup(r, np.array([s_a]), np.array([s_b]),
                                    np.array([upper_a]), np.array([upper_b]))
            slope = np.log(upper_a / upper_b) / np.log(t_a / t_b)
            sampled = (s * upper_b * ((r - s) / t_b) ** slope).max()
            assert abs(sup - sampled) <= 4.0 * np.finfo(float).eps * sup
        # the last cell touches t = 0 and has no chord
        assert bloch._chord_sup(r, np.array([0.87]), np.array([r]),
                                np.array([1.5]), np.array([1.0])).tolist() == [np.inf]

    def test_chord_supremum_is_within_the_monotone_bound(self):
        # with U_a >= U_b the chord's slope is at least 0, and its supremum on the cell
        # is at most s_b U_a, the monotone bound, to rounding; U_a = U_b gives beta = 0
        rng = np.random.default_rng(2719)
        r = rng.uniform(0.05, 0.999, 20000)
        low = rng.integers(0, bloch._MU_GRID - 2, r.size)
        high = np.minimum(low + rng.integers(1, 2 * bloch._MU_STRIDE, r.size),
                          bloch._MU_GRID - 2)
        s_a, s_b = r * low / (bloch._MU_GRID - 1), r * high / (bloch._MU_GRID - 1)
        upper_b = rng.uniform(1.0, 100.0, r.size)
        upper_a = upper_b * np.where(rng.random(r.size) < 0.2, 1.0,
                                     np.exp(rng.uniform(0.0, 5.0, r.size)))
        sup = bloch._chord_sup(r, s_a, s_b, upper_a, upper_b)
        assert np.all(sup <= s_b * upper_a * (1.0 + 4.0 * np.finfo(float).eps))
        flat = upper_a == upper_b
        assert flat.sum() > 1000 and np.array_equal(sup[flat], s_b[flat] * upper_b[flat])

    def test_second_pass_is_within_the_monotone_rule(self):
        # the cells the monotone bound alone leaves, from all the coarse values
        rng = np.random.default_rng(2718)
        series = [f for _, f in builtin_corpus()]
        series += [random_series(rng, degree, monic_shift=True) for degree in range(2, 6)]
        for f in series:
            derivative = slice_derivative(f)
            for r in (0.99, 0.9, 0.6):
                threshold = r - bloch._MU_TOL
                grid = np.linspace(0.0, r, bloch._MU_GRID)
                coarse = bloch._coarse_points(grid.size)
                maxima, gap, _ = _sphere_max(derivative.rows, r - grid[coarse])
                bound = grid[coarse[1:]] * (maxima[:-1] + gap[:-1] + 1e-12 * maxima[:-1])
                crossed = np.flatnonzero(grid[coarse[1:]] * maxima[1:] >= threshold)
                cells = np.flatnonzero(bound[:crossed[0] + 1] >= threshold)
                monotone = int(np.sum(np.diff(coarse)[cells] - 1))
                assert bl_search(f, r).diagnostics["mu_radii"][1] <= monotone

    def test_huge_rows_only_stop_the_coefficient_bound(self):
        # |b_1| = 2.4e308 is past the floats, so B is inf and clears no cell, with no
        # numpy warning; M stays finite on the ball of radius 0.3
        derivative = slice_derivative(Series((0, 1, Quaternion(0.85e308, 0.85e308, 0, 0))))
        assert _arrays.coefficient_bound(derivative.rows, np.array([0.3])).tolist() == [np.inf]
        grid = np.linspace(0.0, 0.3, bloch._MU_GRID)
        maxima, _, angles = _sphere_max(derivative.rows, 0.3 - grid)
        first = int(np.flatnonzero(grid * maxima >= 0.3 - bloch._MU_TOL)[0])
        found, angle, mu = bloch._first_crossing(derivative, 0.3, grid,
                                                 bloch._term_norms(derivative.rows))
        assert (found, angle) == (first, angles[first])
        assert mu[first] == grid[first] * maxima[first]

    def test_lazy_first_crossing_matches_the_whole_profile(self):
        # the coarse pass and the cells that neither the coefficient nor the chord
        # bound clears must find the first crossing of the profile on all of the
        # grid's radii
        rng = np.random.default_rng(1717)
        series = [f for _, f in builtin_corpus()]
        series += [random_series(rng, degree, scale, monic_shift=True)
                   for scale in (0.2, 1.0, 3.0) for degree in range(1, 9)]
        # at r = 0.9 mu(s) = s (1 + 37 (r - s)^7) is above r only on grid points
        # 136-157, between two coarse points: the coarse pass first meets r at s = r
        series.append(Series((0, 1, 0, 0, 0, 0, 0, 0, 37.0 / 8.0)))
        for f in series:
            derivative = slice_derivative(f)
            norms = bloch._term_norms(derivative.rows)
            for r in (0.99, 0.9, 0.6, 0.3):
                grid = np.linspace(0.0, r, bloch._MU_GRID)
                maxima, _, angles = _sphere_max(derivative.rows, r - grid)
                first = int(np.flatnonzero(grid * maxima >= r - 1e-12)[0])
                found, angle, mu = bloch._first_crossing(derivative, r, grid, norms)
                evaluated = mu > -np.inf
                # a settled search evaluates no grid point and returns the angle 0
                assert found == first and angle == (angles[first] if evaluated.any() else 0.0)
                assert np.array_equal(mu[evaluated], (grid * maxima)[evaluated])
                # a settled search evaluates nothing; any other evaluates its first crossing
                assert evaluated[first] or not evaluated.any()

    def test_settled_searches_close_the_root_from_the_bounds(self):
        # the two bounds of mu settle a search only where they decide the whole profile's
        # first crossing. Its root then closes at the root's own width with no sphere search:
        # mu reaches r at s* while the upper bound B and mu itself are below it at the
        # lower end, and w is a maximiser of |f'| on its sphere, to rounding
        rng = np.random.default_rng(1719)
        series = [f for _, f in builtin_corpus()]
        series += [random_series(rng, degree, monic_shift=True)
                   for degree in range(1, 9) for _ in range(2)]
        settled = 0
        for f in series:
            derivative = slice_derivative(f)
            norms = bloch._term_norms(derivative.rows)
            for r in (0.99, 0.9, 0.6, 0.3):
                threshold = r - 1e-12
                grid = np.linspace(0.0, r, bloch._MU_GRID)
                # a settled search evaluates no grid point
                first, _, mu = bloch._first_crossing(derivative, r, grid, norms)
                if (mu > -np.inf).any():
                    continue
                settled += 1
                profile = grid * _sphere_max(derivative.rows, r - grid)[0]
                assert np.flatnonzero(profile >= threshold)[0] == first
                report = bl_search(f, r)
                s_star = 2.0 * report.R_r
                lo, hi = bloch._bound_bracket(norms, r, grid[first - 1], grid[first], threshold)
                assert hi == s_star and hi - lo <= min(1e-12, 1e-10 * hi)
                assert report.diagnostics["mu_radii"] == [0, 0, 0]
                assert s_star * sup_norm_ball(derivative, r - s_star).value >= threshold
                bound = lo * _arrays.coefficient_bound(derivative.rows, np.array([r - lo]))[0]
                assert bound < threshold
                assert lo * sup_norm_ball(derivative, r - lo).value < threshold
                w = report.w
                top = sup_norm_ball(derivative, w.modulus()).value
                assert abs(evaluate(derivative, w).modulus() - top) <= 4e-16 * top
        assert settled >= 40

    def test_binomial_searches_settle_with_no_sphere_search(self, monkeypatch):
        # f' = 1 + c q^k has M(t) = 1 + |c| t^k, reached at the witness, so the two
        # bounds of mu meet: each search settles wherever its first crossing lies, with
        # no sphere search, and closes on the root of the evaluated profile
        searches = [(binomial(k, c), r) for k in range(1, 5) for c in BINOMIAL_C
                    for r in (0.99, 0.9, 0.6)]
        roots = [evaluated_root(slice_derivative(f), r) for f, r in searches]

        def no_search(*args):
            raise AssertionError("a sphere search ran")

        monkeypatch.setattr(bloch, "_sphere_max", no_search)
        for (f, r), (_, root) in zip(searches, roots):
            report = bl_search(f, r)
            assert report.diagnostics["mu_radii"] == [0, 0, 0]
            assert abs(2.0 * report.R_r - root) <= 1e-12
            assert report.diagnostics["mu_root_residual"] <= 1e-12
        # crossings before the last grid point, and below r / 2, are among them
        assert sum(first < bloch._MU_GRID - 1 for first, _ in roots) >= 15
        assert sum(root < 0.5 * r for (_, r), (_, root) in zip(searches, roots)) >= 15

    def test_mu_bounds_contain_mu_for_binomials(self):
        # for f' = 1 + c q^k, mu(s) = s (1 + |c| (r - s)^k) exactly; at 60 digits it lies
        # within the float bounds at s below r / 2, where t = r - s is rounded, and above
        rng = np.random.default_rng(1723)
        with mpmath.workdps(60):
            for k in range(1, 5):
                for c in BINOMIAL_C:
                    derivative = slice_derivative(binomial(k, c))
                    sizes = bloch._term_norms(derivative.rows)
                    size = mpmath.sqrt(sum(mpmath.mpf(x) ** 2 for x in derivative.rows[k].tolist()))
                    for r in (0.99, 0.9, 0.6):
                        for s in np.concatenate([rng.uniform(0.0, 0.5 * r, 25),
                                                 rng.uniform(0.5 * r, r, 25)]).tolist():
                            mu = s * (1 + size * (mpmath.mpf(r) - mpmath.mpf(s)) ** k)
                            lower, upper = bloch._mu_bounds(sizes, r, s)
                            assert lower <= mu <= upper
                            assert upper - lower <= 1e-14 * upper

    def test_settled_first_crossing_matches_the_whole_profile(self):
        # series with b_1 = 0 (leading term b_k, k >= 2) and binomials with a tail of
        # about 1e-14: wherever the two bounds settle a search, its first crossing is
        # that of the whole evaluated profile
        rng = np.random.default_rng(1731)
        series = []
        for k in range(2, 5):
            for extra in range(3):
                rows = rng.uniform(-1.0, 1.0, (k + 2 + extra, 4))
                rows[0], rows[1], rows[2:k + 1] = 0.0, (1.0, 0.0, 0.0, 0.0), 0.0
                series.append(Series(tuple(Quaternion(*row) for row in rows.tolist())))
        for k in range(1, 5):
            for c in BINOMIAL_C:
                rows = np.pad(binomial(k, c).rows, ((0, 2), (0, 0)))
                rows[-1 - rng.integers(2)] = 1e-14 * rng.uniform(-1.0, 1.0, 4)
                series.append(Series(tuple(Quaternion(*row) for row in rows.tolist())))
        settled = inner = 0
        for f in series:
            derivative = slice_derivative(f)
            norms = bloch._term_norms(derivative.rows)
            for r in (0.99, 0.9, 0.6, 0.3):
                grid = np.linspace(0.0, r, bloch._MU_GRID)
                first, angle, mu = bloch._first_crossing(derivative, r, grid, norms)
                if (mu > -np.inf).any():
                    continue
                profile = grid * _sphere_max(derivative.rows, r - grid)[0]
                assert first == np.flatnonzero(profile >= r - 1e-12)[0] and angle == 0.0
                settled += 1
                inner += first < grid.size - 1
        assert settled >= 60 and inner >= 15

    def test_profile_radii_per_search(self, monkeypatch):
        radii = []

        def tally(f, at, *args, **kwargs):
            radii.append(len(at))
            return _sphere_max(f, at, *args, **kwargs)

        monkeypatch.setattr(bloch, "_sphere_max", tally)
        for _, f in builtin_corpus():
            radii.clear()
            grid = np.linspace(0.0, 0.99, bloch._MU_GRID)
            derivative = slice_derivative(f)
            bloch._first_crossing(derivative, 0.99, grid, bloch._term_norms(derivative.rows))
            assert sum(radii) <= 256

    def counted_searches(self, monkeypatch):
        """bl_search on the builtin series and random ones of degree 2-5 at three
        working radii, with the radii of each _sphere_max call and the number of
        calls _first_crossing made."""
        calls, crossing_calls = [], []
        first_crossing = bloch._first_crossing

        def tally(f, at, *args, **kwargs):
            calls.append(len(at))
            return _sphere_max(f, at, *args, **kwargs)

        def tally_crossing(*args):
            result = first_crossing(*args)
            crossing_calls.append(len(calls))
            return result

        monkeypatch.setattr(bloch, "_sphere_max", tally)
        monkeypatch.setattr(bloch, "_first_crossing", tally_crossing)
        rng = np.random.default_rng(2718)
        series = [f for _, f in builtin_corpus()]
        series += [random_series(rng, degree, monic_shift=True) for degree in range(2, 6)]
        for f in series:
            for r in (0.99, 0.9, 0.6):
                calls.clear()
                report = bl_search(f, r)
                yield report, list(calls), crossing_calls[-1]

    def test_root_takes_at_most_two_batches(self, monkeypatch):
        # quadratic-j at r = 0.6 crosses where mu' is about 0.04, so the threshold
        # r - 1e-12 the interpolation aims at lies 2.5e-11 below r
        for _, calls, crossing in self.counted_searches(monkeypatch):
            assert crossing <= 2
            assert len(calls) - crossing <= 2

    def test_a_last_cell_crossing_makes_no_root_batch(self, monkeypatch):
        # where an evaluated profile first meets r in its last grid cell, its root lies at
        # t = r - s of about 1e-11 and the two bounds of mu close the bracket alone: no sphere
        # search runs after the profile's, and mu reaches r at s* to the root's 1e-12
        rng = np.random.default_rng(2718)
        cases = []
        for degree in range(3, 7):
            for _ in range(12):
                f = random_series(rng, degree, monic_shift=True)
                derivative = slice_derivative(f)
                norms = bloch._term_norms(derivative.rows)
                for r in (0.99, 0.9):
                    grid = np.linspace(0.0, r, bloch._MU_GRID)
                    first, _, mu = bloch._first_crossing(derivative, r, grid, norms)
                    if first == grid.size - 1 and (mu > -np.inf).any():
                        cases.append((f, r))
        assert len(cases) >= 10
        calls, crossing_calls = [], []
        first_crossing = bloch._first_crossing

        def tally(f, at, *args, **kwargs):
            calls.append(len(at))
            return _sphere_max(f, at, *args, **kwargs)

        def tally_crossing(*args):
            result = first_crossing(*args)
            crossing_calls.append(len(calls))
            return result

        monkeypatch.setattr(bloch, "_sphere_max", tally)
        monkeypatch.setattr(bloch, "_first_crossing", tally_crossing)
        for f, r in cases:
            calls.clear()
            report = bl_search(f, r)
            assert len(calls) == crossing_calls[-1]
            assert report.diagnostics["mu_radii"][2] == 0
            assert report.diagnostics["mu_root_residual"] <= 1e-12
            s_star = 2.0 * report.R_r
            derivative = slice_derivative(f)
            assert s_star * sup_norm_ball(derivative, r - s_star).value >= r - 1e-12
            s_low = s_star - 1e-12
            assert s_low * sup_norm_ball(derivative, r - s_low).value < r - 1e-12

    def test_mu_radii_count_the_evaluated_radii(self, monkeypatch):
        # a search the coefficient bound settles makes no profile call, and may make none
        for report, calls, crossing in self.counted_searches(monkeypatch):
            profile, root = calls[:crossing], calls[crossing:]
            assert report.diagnostics["mu_radii"] == [
                sum(profile[:1]), sum(profile[1:]), sum(root)]

    def test_norms_and_search_leave_numpy_ma_unimported(self):
        # numpy's set routines import numpy.ma, which costs set-up time and RSS
        code = """if True:
            import sys
            import quatregular, quatregular.cli
            from quatregular import bl_search, inf_norm_ball, split_norm, sup_norm_ball
            from quatregular.verification import builtin_corpus
            for _, f in builtin_corpus():
                for r in (0.99, 0.6):
                    bl_search(f, r)
                split_norm(f)
                sup_norm_ball(f, 0.5)
                inf_norm_ball(f, 0.5)
            print("numpy.ma" in sys.modules)
        """
        env = dict(os.environ, PYTHONPATH=str(Path(bloch.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env=env, check=True)
        assert result.stdout.strip() == "False"

    def test_identity_locator_angle(self):
        for r in (0.99, 0.9):
            report = bl_search(Series((0, 1)), r)
            assert report.diagnostics["locator_angle"] == 0.0
            assert report.w == Quaternion()


# every analytic entry point, called on a series with f(0) = 0 and f'(0) = 1
CAPPED = {
    "sup_norm_ball": lambda f: sup_norm_ball(f, 0.5),
    "inf_norm_ball": lambda f: inf_norm_ball(f, 0.5),
    "slice_norm": lambda f: slice_norm(f, I),
    "split_norm": split_norm,
    "rho_lemma": rho_lemma,
    "mean_value_margin": lambda f: mean_value_margin(f, Quaternion(0.3)),
    "bl_search": lambda f: bl_search(f, 0.6),
    "regular_translation": lambda f: regular_translation(f, Quaternion(0.1)),
    "attain": lambda f: attain(f, Quaternion(0.05), 1.0),
    "coverage_report": lambda f: coverage_report(f, 0.01, samples=2),
}


def capped_series(degree):
    """q + q^degree (0.01 i + 0.01 j): f(0) = 0, f'(0) = 1, and nonreal."""
    return Series((0, 1) + (0,) * (degree - 2) + (Quaternion(0, 0.01, 0.01, 0),))


class TestDegreeCap:
    @pytest.mark.parametrize("entry", CAPPED)
    def test_degree_above_the_cap_is_rejected_before_any_search(self, entry, monkeypatch):
        def no_search(*args):
            raise AssertionError("a search ran")

        for module, name in ((norms, "_sphere_max"), (norms, "_folded_sphere_max"),
                             (bloch, "_sphere_max"), (norms, "_lattice_scan")):
            monkeypatch.setattr(module, name, no_search)
        with pytest.raises(DomainError, match="degree 61 exceeds the cap 60"):
            CAPPED[entry](capped_series(DEGREE_CAP + 1))

    @pytest.mark.parametrize("entry", CAPPED)
    def test_degree_at_the_cap_is_accepted(self, entry):
        CAPPED[entry](capped_series(DEGREE_CAP))

    def test_the_algebra_and_the_linear_time_checks_stay_uncapped(self):
        f = capped_series(DEGREE_CAP + 1)
        assert star(f, f).degree == symmetrization(f).degree == 2 * DEGREE_CAP + 2
        assert g_series(f, 2.0).degree == fourth_root_series(g_series(f, 2.0)).degree
        integral, coeff_sum = parseval_mean(f, 0.5)
        assert abs(integral - coeff_sum) <= 1e-12 * coeff_sum

    def test_the_grid_has_4n_plus_1_angles_at_the_cap(self):
        assert 4 * DEGREE_CAP + 1 <= norms._THETA_GRID
