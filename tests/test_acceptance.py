"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in the
captured output of a failing run) and then asserts, so the suite both
documents and enforces the contract.
"""

import math
import time

import numpy as np

from conftest import coeff_deviation, random_ball_point, random_series, random_unit
from quatregular import (
    Quaternion,
    Series,
    bl_search,
    coverage_report,
    evaluate,
    ext_from_slice,
    fourth_root_series,
    g_series,
    inf_norm_ball,
    inscribed_disc_margin,
    parseval_mean,
    regular_conjugate,
    regular_translation,
    representation_eval,
    rho_lemma,
    slice_derivative,
    slice_norm,
    sphere_extrema,
    sphere_pair,
    split,
    split_norm,
    star,
    star_transform_point,
    sup_norm_ball,
    symmetrization,
)
from quatregular.quaternions import UnitImaginary, orthonormal_completion
from quatregular.verification import builtin_corpus, series_sum

RHO_FLOOR = 1.0 / (32.0 * math.sqrt(2.0))


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_algebraic_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = random_series(rng, int(rng.integers(0, 7)))
        g = random_series(rng, int(rng.integers(0, 7)))
        h = random_series(rng, int(rng.integers(0, 7)))
        worst = max(worst, coeff_deviation(star(star(f, g), h), star(f, star(g, h))))
        lhs = slice_derivative(star(f, g))
        rhs = series_sum(star(slice_derivative(f), g), star(f, slice_derivative(g)))
        worst = max(worst, coeff_deviation(lhs, rhs))
        worst = max(worst, coeff_deviation(regular_conjugate(regular_conjugate(f)), f))
        worst = max(worst, max(a.imag.modulus() for a in symmetrization(f).coeffs))
        while True:
            q = random_ball_point(rng, 0.7)
            value = evaluate(f, q)
            if value.modulus() >= 1e-2:
                break
        pointwise = (evaluate(star(f, g), q)
                     - value * evaluate(g, star_transform_point(f, q))).modulus()
        worst = max(worst, pointwise)
    elapsed = time.perf_counter() - start
    report("criterion 1 (algebraic suite)",
           worst < 1e-10 and elapsed < 5.0,
           f"100 random polynomials, worst margin {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_splitting_representation():
    rng = np.random.default_rng(202)
    worst_round = 0.0
    worst_repr = 0.0
    worst_j = 0.0
    for _ in range(50):
        f = random_series(rng, int(rng.integers(0, 8)))
        i_unit, j_unit = random_unit(rng), random_unit(rng)
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
        pair = split(f, i_unit)
        back = ext_from_slice(pair.F, pair.G, pair.I, pair.J, exact=f.exact)
        worst_round = max(worst_round, coeff_deviation(back, f))
        direct = evaluate(f, Quaternion(x, y * i_unit.x1, y * i_unit.x2, y * i_unit.x3))
        worst_repr = max(worst_repr,
                         (representation_eval(f, x, y, j_unit, i_unit) - direct).modulus())
        base_j, base_k = orthonormal_completion(i_unit)
        angle = rng.uniform(0.2, 2.9)
        rotated = UnitImaginary.from_vector(
            *(math.cos(angle) * np.array([base_j.x1, base_j.x2, base_j.x3])
              + math.sin(angle) * np.array([base_k.x1, base_k.x2, base_k.x3])))
        worst_j = max(worst_j, abs(slice_norm(f, i_unit, j_unit=base_j)
                                   - slice_norm(f, i_unit, j_unit=rotated)))
    passed = worst_round < 1e-13 and worst_repr < 1e-11 and worst_j < 1e-10
    report("criterion 2 (splitting and representation)", passed,
           f"roundtrip {worst_round:.2e}, representation {worst_repr:.2e}, "
           f"J-independence {worst_j:.2e}")


def test_criterion_3_conjugate_norm_equality():
    rng = np.random.default_rng(303)
    worst_sphere = 0.0
    worst_ball = 0.0
    allowance_ball = 0.0
    for _ in range(50):
        f = random_series(rng, int(rng.integers(1, 7)))
        fc = regular_conjugate(f)
        for _ in range(20):
            x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
            p, pc = sphere_pair(f, x, y), sphere_pair(fc, x, y)
            lo, hi = sphere_extrema(p.b, p.c)
            lo_c, hi_c = sphere_extrema(pc.b, pc.c)
            worst_sphere = max(worst_sphere, abs(hi - hi_c), abs(lo - lo_c))
    for _ in range(10):
        f = random_series(rng, int(rng.integers(1, 7)))
        fc = regular_conjugate(f)
        sup_f, sup_c = sup_norm_ball(f, 0.9), sup_norm_ball(fc, 0.9)
        inf_f, inf_c = inf_norm_ball(f, 0.9), inf_norm_ball(fc, 0.9)
        worst_ball = max(worst_ball, abs(sup_f.value - sup_c.value),
                         abs(inf_f.value - inf_c.value))
        allowance_ball = max(allowance_ball,
                             2.0 * (sup_f.certified_tol + sup_c.certified_tol),
                             2.0 * (inf_f.certified_tol + inf_c.certified_tol))
    allowance_ball = max(allowance_ball, 1e-9)
    passed = worst_sphere < 1e-11 and worst_ball <= allowance_ball
    report("criterion 3 (conjugate invariance of extrema)", passed,
           f"sphere {worst_sphere:.2e}, ball {worst_ball:.2e} "
           f"(allowed {allowance_ball:.2e})")


def test_criterion_4_norm_inequalities():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst_violation = 0.0
    max_allowance = 0.0
    for _ in range(100):
        f = random_series(rng, int(rng.integers(1, 7)), monic_shift=True)
        restricted = f.with_radius(0.9)
        split_report = split_norm(restricted)
        ball_report = sup_norm_ball(f, 0.9)
        allowance = max(2.0 * (split_report.certified_tol + ball_report.certified_tol),
                        1e-9)
        max_allowance = max(max_allowance, allowance)
        lower = ball_report.value - math.sqrt(0.5) * split_report.value
        upper = split_report.value - ball_report.value
        worst_violation = max(worst_violation, -min(lower, upper) - allowance, 0.0)

        deriv_norm = split_norm(slice_derivative(f)).value
        for _ in range(10):
            q = random_ball_point(rng, 0.95)
            if q.modulus() < 1e-3:
                continue
            slack = deriv_norm - evaluate(f, q).modulus() / q.modulus()
            worst_violation = max(worst_violation, -slack - 1e-9, 0.0)
        for s in (0.45, 0.9):
            slack = s * deriv_norm - sup_norm_ball(f, s).value
            worst_violation = max(worst_violation, -slack - 1e-9, 0.0)
    elapsed = time.perf_counter() - start
    passed = worst_violation == 0.0 and max_allowance <= 1e-5 and elapsed < 60.0
    report("criterion 4 (norm inequalities)", passed,
           f"100 normalised polynomials, worst excess violation {worst_violation:.2e}, "
           f"max allowance {max_allowance:.2e}, {elapsed:.1f}s")


def test_criterion_5_universal_constants():
    worst_margin = math.inf
    for rho in (RHO_FLOOR, 0.1, 0.25, 1.0):
        worst_margin = min(worst_margin, inscribed_disc_margin(rho))
    searches = []
    ok = worst_margin > 0.0
    for name, f in builtin_corpus():
        rep = bl_search(f, 0.99)
        slack = rep.rho_r - (0.99 * RHO_FLOOR - 1e-6)
        searches.append(f"{name}: rho_r={rep.rho_r:.5f}")
        ok &= slack >= 0.0
    report("criterion 5 (inscribed discs and universal bound)", ok,
           f"disc margin {worst_margin:.2e}; " + "; ".join(searches))


def test_criterion_6_lemma_pipeline():
    start = time.perf_counter()
    rho_identity = rho_lemma(Series((0, 1)))
    ok = abs(rho_identity - 0.25) < 1e-6
    # coverage_report shrinks by the stated 1e-3 margin internally, so the
    # sampled set is exactly the pinched set of radius 0.25 * (1 - 1e-3)
    rep1 = coverage_report(Series((0, 1)), 0.25, samples=500, seed=61)
    ok &= rep1.hits == 500 and not rep1.misses
    f2 = Series((0, 1, 0.1))
    rho2 = rho_lemma(f2)
    rep2 = coverage_report(f2, rho2, samples=500, seed=62)
    ok &= rep2.hits == 500 and not rep2.misses
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report("criterion 6 (coverage pipeline)", ok,
           f"rho(identity)={rho_identity}, hits {rep1.hits}+{rep2.hits}, "
           f"max residuals {rep1.max_residual:.1e}/{rep2.max_residual:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_7_fourth_root_machinery():
    rng = np.random.default_rng(707)
    worst_power = 0.0
    worst_parseval = 0.0
    worst_deriv = 0.0
    for _ in range(20):
        f = random_series(rng, int(rng.integers(1, 6)), monic_shift=True)
        c = Quaternion(*rng.uniform(-1, 1, size=4)) + Quaternion(1.5)
        g = g_series(f, c)
        psi = fourth_root_series(g)
        fourth = star(star(star(psi, psi), psi), psi)
        worst_power = max(worst_power,
                          max((fourth.coeffs[n] - g.coeffs[n]).modulus()
                              for n in range(g.degree + 1)))
        integral, coeff_sum = parseval_mean(psi, 0.9)
        worst_parseval = max(worst_parseval, abs(integral - coeff_sum))
        expected = -0.5 * (f.coeffs[1] * c.inverse()).x0
        worst_deriv = max(worst_deriv, abs(psi.coeffs[1].x0 - expected))
    passed = worst_power < 1e-11 and worst_parseval < 1e-8 and worst_deriv < 1e-12
    report("criterion 7 (fourth-root machinery)", passed,
           f"power residual {worst_power:.2e}, parseval gap {worst_parseval:.2e}, "
           f"derivative identity {worst_deriv:.2e}")


def test_criterion_8_translation_witness():
    f = Series((0, 0, 1))
    w = Quaternion(0.0, 0.0, 0.3, 0.0)
    shifted = regular_translation(f, w)
    q = Quaternion(0.0, 0.2, 0.0, 0.0)
    observed = (evaluate(shifted, q) - evaluate(f, q + w)).modulus()
    report("criterion 8 (off-slice translation witness)", observed > 1e-6,
           f"difference {observed:.3f} at an off-slice point for a nonreal shift")
