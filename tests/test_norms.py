import math

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
    bl_search,
    inf_norm_ball,
    mean_value_margin,
    regular_conjugate,
    slice_derivative,
    slice_norm,
    sphere_extrema,
    split_norm,
    star,
    sup_norm_ball,
)
from quatregular import bloch, norms
from quatregular._arrays import (
    _slice_terms,
    eval_rows,
    qmul_rows,
    slice_norm_ascent,
    sphere_constants,
    sphere_extrema_rows,
    sphere_max_rows,
    sphere_min_rows,
    sphere_planes,
)
from quatregular.norms import _circle_max, _sphere_max
from quatregular.quaternions import I, J, _completion_rows, orthonormal_completion, sphere_sample
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

    def test_unit_example(self):
        low, high = sphere_extrema(Quaternion(1), I)
        assert low == 0.0 and high == 2.0

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
                for points in (256, 512):
                    got = _circle_max(rows, radius, points)
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
        # sphere (quadratic-j), at 512 grid angles and at the 4N + 1 floor that
        # sets the grid above degree 127: never below a 200000-angle scan
        rng = np.random.default_rng(1414)
        corpus = dict(builtin_corpus())
        cases = [corpus["cubic-half"], slice_derivative(corpus["cubic-half"]),
                 Series((0.5725, 0.7709, -0.2725)), Series((0.7626, 0.2406, -0.1968)),
                 corpus["quadratic-j"], slice_derivative(corpus["quadratic-j"])]
        for degree in range(1, 9):
            f = random_series(rng, degree, scale=1.0)
            cases += [f, Series(tuple(Quaternion(a.x0) for a in f.coeffs))]
        angles = np.linspace(0.0, math.pi, 200000)
        for f in cases:
            coeffs = f.rows
            for s in (0.3, 0.6, 0.9):
                dense = max(float(sphere_max_rows(*sphere_constants(
                    coeffs, s * np.cos(part), s * np.sin(part))).max())
                    for part in np.array_split(angles, 10))
                assert sup_norm_ball(f, s).value >= dense - 1e-13 * dense
                angle = norms._angle_max(sphere_planes(coeffs, np.array([s])),
                                         4 * f.degree + 1)[0]
                floor = sphere_max_rows(*sphere_constants(coeffs, s * np.cos(angle),
                                                          s * np.sin(angle)))
                assert floor[0] >= dense - 1e-13 * dense


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


def slice_norm_rows(coeffs, units, radius):
    """Slice norms at unit rows: a_n = alpha_n + beta_n J with J, K = I J from cross
    products, and the boundary maxima of alpha and beta from _circle_max."""
    axis = np.where(np.abs(units[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    j = np.cross(units, axis)
    j /= np.linalg.norm(j, axis=1, keepdims=True)
    k = np.cross(units, j)
    imag = coeffs[:, 1:].T
    alpha = coeffs[:, 0] + 1j * (units @ imag)
    beta = j @ imag + 1j * (k @ imag)
    return np.hypot(_circle_max(alpha, radius, 512), _circle_max(beta, radius, 512))


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


class TestSplitNorm:
    def test_identity(self):
        report = split_norm(Series((0, 1)))
        assert abs(report.value - 1.0) < 1e-12

    def test_real_coefficients_single_slice(self, rng):
        coeffs = tuple(float(v) for v in rng.uniform(-1, 1, size=5))
        f = Series(coeffs)
        report = split_norm(f)
        assert report.resolution["sphere"] == 1
        assert abs(report.value - slice_norm(f, I)) < 1e-12

    def test_reported_angles_above_degree_127(self, rng):
        # the circle grid rises from 512 angles to 4N + 1 = 521 at degree 130
        f = Series(tuple(float(v) for v in rng.uniform(-1, 1, size=131)))
        assert split_norm(f).resolution["theta"] == 521
        assert sup_norm_ball(f, 0.5).resolution["theta"] == 521

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

    def test_report_says_what_produced_it(self):
        f = Series((0, 1, Quaternion(0.2, 0.5, -0.3, 0.1), Quaternion(0, 0.4, 0, -0.6)), 0.9)
        report = split_norm(f)
        assert report.method == "lattice+newton"
        assert report.resolution["starts"] == 3
        assert report.resolution["steps"] >= 1
        assert report.to_dict() == split_norm(f).to_dict()

    def test_tied_starts_report_the_first(self, monkeypatch):
        # f = q + j/2 peaks on the slice of j, and its starts end on the units -j, j
        # and j, whose slice norms agree to an ulp: the steps and the gap come from
        # the first start in pick order, whichever tied norm rounds highest
        ascents = []

        def recording(*args):
            ascents.append(slice_norm_ascent(*args))
            return ascents[-1]

        monkeypatch.setattr(norms, "slice_norm_ascent", recording)
        report = split_norm(Series((Quaternion(0, 0, 0.5, 0), 1)))
        h, before, units, _, steps = ascents[0]
        assert np.dot(units[0], units[1]) < -1.0 + 1e-12
        assert len(set(steps.tolist())) == 3
        assert report.value == 1.5
        assert report.resolution["steps"] == steps[0]
        gap = 2.0 * (math.sqrt(h[0]) - math.sqrt(before[0]))
        assert report.certified_tol == norms._tol_floor(1.5, gap)

    def test_value_is_the_slice_norm_at_the_final_unit(self, monkeypatch):
        # the value is sqrt(H) at the ascent's best point, with no second pass of
        # circle maxima: it must match the slice norm at that point's unit
        ascents = []

        def recording(*args):
            ascents.append(slice_norm_ascent(*args))
            return ascents[-1]

        monkeypatch.setattr(norms, "slice_norm_ascent", recording)
        rng = np.random.default_rng(2718)
        for scale in (0.5, 1.0, 3.0):
            for degree in range(1, 9):
                f = random_series(rng, degree, scale)
                value = split_norm(f).value
                h, _, units, _, _ = ascents[-1]
                unit = UnitImaginary.from_vector(*units[int(np.argmax(h))])
                assert abs(value - slice_norm(f, unit)) <= 2e-15 * value


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
        return _slice_terms(coeffs, radius, moved, angles + delta[:, 2:])[0]

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
            h, grad, hess = _slice_terms(coeffs, 0.9, units, angles)
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
            start = _slice_terms(coeffs, 0.9, units, angles)[0]
            h, before, final_units, final_angles, steps = slice_norm_ascent(
                coeffs, 0.9, units, angles)
            assert np.all(h >= start)
            assert np.all(before <= h)
            assert np.all(steps >= 1)
            assert np.allclose(np.linalg.norm(final_units, axis=1), 1.0, rtol=0, atol=1e-15)
            assert np.array_equal(h, _slice_terms(coeffs, 0.9, final_units, final_angles)[0])
            if index == 0:
                # at radius 0.9 the squared slice norm of q + q^2 j is 1.4661 + 1.458 |<I, j>|,
                # 1.71^2 at I = +-j, and |G_I| does not depend on theta_2
                assert np.all(np.abs(np.sqrt(h) - 1.71) <= 1e-12)


class TestInfNormBall:
    def test_identity_min_zero(self):
        assert inf_norm_ball(Series((0, 1)), 0.8).value < 1e-12

    def test_shifted_constant(self):
        # |2 + q| over |q| <= 0.5 has minimum 1.5
        report = inf_norm_ball(Series((2, 1)), 0.5)
        assert abs(report.value - 1.5) < 1e-9

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


class TestSphereMaxSearch:
    def test_batched_mu_profile_matches_single_radius_calls(self):
        for f in (dict(builtin_corpus())["mixed-units"],
                  random_series(np.random.default_rng(31), 5, monic_shift=True)):
            r = 0.9
            derivative = slice_derivative(f)
            grid = np.linspace(0.0, r, bloch._MU_GRID)
            for s, mu in zip(grid, grid * _sphere_max(derivative, r - grid)[0]):
                single = s * sup_norm_ball(derivative, r - s).value
                assert abs(mu - single) <= 1e-15 * single

    def test_root_batches_match_a_scalar_first_crossing_search(self):
        # the root search evaluates 15 points of the bracket per batch and keeps
        # the first where mu reaches r; the same rule over single sup_norm_ball
        # calls must land on the same s*
        rng = np.random.default_rng(4242)
        series = [f for _, f in builtin_corpus()]
        series += [random_series(rng, degree, monic_shift=True) for degree in (2, 4, 5)]
        for f in series:
            derivative = slice_derivative(f)
            for r in (0.99, 0.9, 0.6):
                report = bl_search(f, r)
                grid = np.linspace(0.0, r, bloch._MU_GRID)
                profile = list(zip(grid, grid * _sphere_max(derivative, r - grid)[0]))
                first = next(i for i, (_, mu) in enumerate(profile) if mu >= r - 1e-12)
                lo, hi = profile[first - 1][0], profile[first][0]
                while hi - lo > 1e-12:
                    points = np.linspace(lo, hi, 17)
                    k = next((k for k in range(1, 16) if points[k] * sup_norm_ball(
                        derivative, r - points[k]).value >= r - 1e-12), 16)
                    lo, hi = points[k - 1], points[k]
                assert report.R_r == hi / 2.0

    def test_lazy_first_crossing_matches_the_whole_profile(self):
        # the coarse pass and the cells its monotone bound cannot clear must find
        # the first crossing of the profile on all of the grid's radii
        rng = np.random.default_rng(1717)
        series = [f for _, f in builtin_corpus()]
        series += [random_series(rng, degree, scale, monic_shift=True)
                   for scale in (0.2, 1.0, 3.0) for degree in range(1, 9)]
        # at r = 0.9 mu(s) = s (1 + 37 (r - s)^7) is above r only on grid points
        # 136-157, between two coarse points: the coarse pass first meets r at s = r
        series.append(Series((0, 1, 0, 0, 0, 0, 0, 0, 37.0 / 8.0)))
        for f in series:
            derivative = slice_derivative(f)
            for r in (0.99, 0.9, 0.6, 0.3):
                grid = np.linspace(0.0, r, bloch._MU_GRID)
                maxima, _, angles = _sphere_max(derivative, r - grid)
                first = int(np.flatnonzero(grid * maxima >= r - 1e-12)[0])
                lazy = bloch._first_crossing(derivative, r, grid)
                assert lazy == (first, maxima[first], angles[first])

    def test_profile_radii_per_search(self, monkeypatch):
        radii = []

        def tally(f, at, *args, **kwargs):
            radii.append(len(at))
            return _sphere_max(f, at, *args, **kwargs)

        monkeypatch.setattr(bloch, "_sphere_max", tally)
        for _, f in builtin_corpus():
            radii.clear()
            grid = np.linspace(0.0, 0.99, bloch._MU_GRID)
            bloch._first_crossing(slice_derivative(f), 0.99, grid)
            assert sum(radii) <= 256

    def test_identity_locator_angle(self):
        for r in (0.99, 0.9):
            report = bl_search(Series((0, 1)), r)
            assert report.diagnostics["locator_angle"] == 0.0
            assert report.w == Quaternion()
