"""Property suites behind the ``verify`` command.

Each check exercises one algebraic or analytic invariant of the library on a
seeded corpus and reports a single figure of merit (``margin``) against its
tolerance. Equality-style checks report the worst deviation (pass when it is
at most the tolerance); inequality-style checks report the worst slack (pass
when it is at least the tolerance, which may be negative); witness checks
pass when the reported effect exceeds the tolerance.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import bloch, norms, slices
from ._arrays import qmul_rows
from .errors import DomainError
from .quaternions import I as UNIT_I
from .quaternions import (
    Quaternion,
    UnitImaginary,
    _sphere_rows,
    orthonormal_completion,
    sphere_sample,
)
from .series import (
    Series,
    _from_rows,
    evaluate,
    regular_conjugate,
    slice_derivative,
    star,
    star_transform_point,
    symmetrization,
)

SUITES = ("series", "slices", "norms", "bloch")


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    passed: bool
    margin: float
    tolerance: float
    kind: str  # "deviation", "slack", or "witness"
    detail: str = ""
    # wall time of the check; kept out of to_dict so reports stay reproducible
    seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "suite": self.suite,
            "passed": self.passed,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "kind": self.kind,
            "detail": self.detail,
        }


def _deviation(name, suite, margin, tol, detail=""):
    return CheckResult(name, suite, bool(margin <= tol), float(margin), tol,
                       "deviation", detail)


def _slack(name, suite, margin, tol, detail=""):
    return CheckResult(name, suite, bool(margin >= tol), float(margin), tol,
                       "slack", detail)


def _witness(name, suite, margin, tol, detail=""):
    return CheckResult(name, suite, bool(margin > tol), float(margin), tol,
                       "witness", detail)


# -- corpus helpers --------------------------------------------------------------

def random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(rng.uniform(-scale, scale, size=4)))


def random_unit(rng) -> UnitImaginary:
    v = rng.standard_normal(3)
    return UnitImaginary.from_vector(*v)


def random_series(rng, degree: int, scale: float = 0.5, monic_shift: bool = False) -> Series:
    """Random polynomial; ``monic_shift`` pins a_0 = 0 and a_1 = 1."""
    coeffs = [random_quaternion(rng, scale) for _ in range(degree + 1)]
    if monic_shift:
        coeffs[0] = Quaternion()
        if degree >= 1:
            coeffs[1] = Quaternion(1.0)
    return Series(tuple(coeffs))


def random_ball_point(rng, radius: float) -> Quaternion:
    v = rng.standard_normal(4)
    v *= radius * rng.random() ** 0.25 / np.linalg.norm(v)
    return Quaternion(*v)


def _padded_rows(f: Series, g: Series) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows of f and g, zero-padded to the larger degree."""
    n = max(f.degree, g.degree) + 1
    return tuple(np.pad(h.rows, ((0, n - h.degree - 1), (0, 0))) for h in (f, g))


def series_sum(f: Series, g: Series) -> Series:
    a, b = _padded_rows(f, g)
    return _from_rows(a + b, min(f.radius, g.radius), f.exact and g.exact)


def coeff_deviation(f: Series, g: Series) -> float:
    a, b = _padded_rows(f, g)
    return float(np.sqrt(np.sum((a - b) ** 2, axis=1)).max())


def builtin_corpus() -> list[tuple[str, Series]]:
    """Named normalised polynomials exercised by the search checks."""
    return [
        ("identity", Series((0, 1))),
        ("soft-quadratic", Series((0, 1, 0.1))),
        ("cubic-half", Series((0, 1, 0, 0.5))),
        ("steep-cubic", Series((0, 1, 0, 5.0 / 3.0))),
        ("quadratic-j", Series((Quaternion(), Quaternion(1), Quaternion(0, 0, 0.8, 0)))),
        ("mixed-units", Series((Quaternion(), Quaternion(1),
                                Quaternion(0, 0, 0.6, 0), Quaternion(0.3, 0.2, 0, 0.1)))),
    ]


# -- series suite ----------------------------------------------------------------

def check_star_associativity(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 7)))
        g = random_series(rng, int(rng.integers(0, 7)))
        h = random_series(rng, int(rng.integers(0, 7)))
        worst = max(worst, coeff_deviation(star(star(f, g), h), star(f, star(g, h))))
    return _deviation("star-associativity", "series", worst, 1e-12)


def check_star_unit(rng, count) -> CheckResult:
    one = Series((1,))
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 7)))
        worst = max(worst, coeff_deviation(star(f, one), f),
                    coeff_deviation(star(one, f), f))
    return _deviation("star-unit", "series", worst, 0.0)


def check_leibniz(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 7)))
        g = random_series(rng, int(rng.integers(0, 7)))
        lhs = slice_derivative(star(f, g))
        rhs = series_sum(star(slice_derivative(f), g), star(f, slice_derivative(g)))
        worst = max(worst, coeff_deviation(lhs, rhs))
    return _deviation("leibniz-rule", "series", worst, 1e-13)


def check_conjugate_involution(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 7)))
        worst = max(worst, coeff_deviation(regular_conjugate(regular_conjugate(f)), f))
    return _deviation("conjugate-involution", "series", worst, 0.0)


def check_symmetrization_real(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 7)))
        worst = max(worst, max(a.imag.modulus() for a in symmetrization(f).coeffs))
    return _deviation("symmetrization-real", "series", worst, 1e-13)


def check_pointwise_star(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 5)))
        g = random_series(rng, int(rng.integers(0, 5)))
        tried = 0
        while tried < 100:
            q = random_ball_point(rng, 0.7)
            tried += 1
            value = evaluate(f, q)
            if value.modulus() < 1e-2:
                continue
            transformed = star_transform_point(f, q)
            lhs = evaluate(star(f, g), q)
            rhs = value * evaluate(g, transformed)
            worst = max(worst, (lhs - rhs).modulus())
            break
    return _deviation("pointwise-star", "series", worst, 1e-10)


def check_real_zero_persistence(rng, count) -> CheckResult:
    # dyadic data keeps every convolution and evaluation step exact in floats
    worst = 0.0
    for _ in range(count):
        root = float(rng.integers(-2, 3)) / 4.0
        g = star(Series((-root, 1), radius=4.0),
                 Series(tuple(float(rng.integers(-4, 5)) / 4.0 for _ in range(3)), radius=4.0))
        f = Series(tuple(float(rng.integers(-4, 5)) / 4.0 for _ in range(4)), radius=4.0)
        assert evaluate(g, root).modulus() == 0.0
        worst = max(worst, evaluate(star(f, g), root).modulus())
    return _deviation("real-zero-persistence", "series", worst, 0.0)


def check_symmetrization_slice_preserving(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 7)))
        sym = symmetrization(f)
        unit = random_unit(rng)
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
        z = Quaternion(x, y * unit.x1, y * unit.x2, y * unit.x3)
        value = evaluate(sym, z)
        off_plane = value - Quaternion(value.x0) - value.dot(unit) * unit
        worst = max(worst, off_plane.modulus())
    return _deviation("symmetrization-slice-preserving", "series", worst, 1e-12)


# -- slices suite ----------------------------------------------------------------

def check_split_roundtrip(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 8)))
        unit = random_unit(rng)
        pair = slices.split(f, unit)
        back = slices.ext_from_slice(pair.F, pair.G, pair.I, pair.J, exact=f.exact)
        worst = max(worst, coeff_deviation(back, f))
    return _deviation("split-roundtrip", "slices", worst, 1e-13)


def check_split_conjugate(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 8)))
        unit = random_unit(rng)
        pair, pair_c = slices.split_conjugate_check(f, unit)
        for alpha, alpha_c in zip(pair.F.coeffs, pair_c.F.coeffs):
            worst = max(worst, abs(alpha_c - alpha.conjugate()))
        for beta, beta_c in zip(pair.G.coeffs, pair_c.G.coeffs):
            worst = max(worst, abs(beta_c + beta))
    return _deviation("split-conjugate-relation", "slices", worst, 1e-13)


def check_representation_formula(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 8)))
        i_unit, j_unit = random_unit(rng), random_unit(rng)
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
        via_formula = slices.representation_eval(f, x, y, j_unit, i_unit)
        direct = evaluate(f, Quaternion(x, y * i_unit.x1, y * i_unit.x2, y * i_unit.x3))
        worst = max(worst, (via_formula - direct).modulus())
    return _deviation("representation-formula", "slices", worst, 1e-11)


def check_sphere_pair_reconstruction(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 8)))
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
        pair = slices.sphere_pair(f, x, y)
        for unit in sphere_sample(20, seed=int(rng.integers(0, 10000))):
            direct = evaluate(f, Quaternion(x, y * unit.x1, y * unit.x2, y * unit.x3))
            worst = max(worst, (pair.evaluate(unit) - direct).modulus())
    return _deviation("sphere-pair-reconstruction", "slices", worst, 1e-11)


def check_translation_slice_agreement(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 8)))
        unit = random_unit(rng)
        w = Quaternion(0.2, 0.3 * unit.x1, 0.3 * unit.x2, 0.3 * unit.x3)
        shifted = slices.regular_translation(f, w)
        for _ in range(10):
            a, b = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            q = Quaternion(a, b * unit.x1, b * unit.x2, b * unit.x3)
            worst = max(worst, (evaluate(shifted, q) - evaluate(f, q + w)).modulus())
    return _deviation("translation-slice-agreement", "slices", worst, 1e-11)


def check_translation_offslice_witness(rng, count) -> CheckResult:
    # regular translation must not be pointwise composition off the slice
    f = Series((0, 0, 1))
    w = Quaternion(0.0, 0.0, 0.3, 0.0)
    q = Quaternion(0.0, 0.2, 0.0, 0.0)
    shifted = slices.regular_translation(f, w)
    observed = (evaluate(shifted, q) - evaluate(f, q + w)).modulus()
    return _witness("translation-offslice-witness", "slices", observed, 1e-6,
                    "regular translation differs from naive composition off the slice")


def check_translation_continuity(rng, count) -> CheckResult:
    f = random_series(rng, 4)
    limit = Quaternion(0.1, 0.2, 0.0, 0.0)
    probes = []
    for n in (2, 8, 64):
        seq = [limit + Quaternion(0.3 / m, 0.2 / m, 0.1 / m, 0.0) for m in range(1, n + 1)]
        seq.append(limit)
        probes.append(slices.translation_continuity_probe(f, seq, 0.4))
    decreasing = probes[2] < probes[1] < probes[0]
    # the discrepancy scales like the 1/n perturbation, so 2/64 with headroom
    final_small = probes[2] < 0.06 * probes[0] + 1e-12
    return CheckResult("translation-continuity", "slices",
                       decreasing and final_small, probes[2], probes[0],
                       "slack", f"probe values {probes}")


# -- norms suite -----------------------------------------------------------------

def check_sphere_extrema_oracle(rng, count) -> CheckResult:
    iq = np.zeros((100000, 4))
    iq[:, 1:] = _sphere_rows(100000, seed=7)
    worst = 0.0
    for _ in range(count):
        b, c = random_quaternion(rng), random_quaternion(rng)
        low, high = norms.sphere_extrema(b, c)
        prod = qmul_rows(iq, np.broadcast_to(np.array(c.components), iq.shape))
        values = np.linalg.norm(np.array(b.components) + prod, axis=1)
        worst = max(worst, abs(high - values.max()), abs(values.min() - low))
    return _deviation("sphere-extrema-oracle", "norms", worst, 1e-3,
                      "closed form against a 1e5-point sampled sphere")


def check_norm_homogeneity(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(1, 6)))
        scalar = float(rng.uniform(-3.0, 3.0))
        scaled = Series(tuple(a * scalar for a in f.coeffs), f.radius)
        worst = max(worst, abs(norms.split_norm(scaled).value
                               - abs(scalar) * norms.split_norm(f).value))
    return _deviation("norm-homogeneity", "norms", worst, 1e-12)


def check_norm_triangle(rng, count) -> CheckResult:
    worst = math.inf
    for _ in range(count):
        f = random_series(rng, int(rng.integers(1, 6)))
        g = random_series(rng, int(rng.integers(1, 6)))
        slack = (norms.split_norm(f).value
                 + norms.split_norm(g).value
                 - norms.split_norm(series_sum(f, g)).value)
        worst = min(worst, slack)
    return _slack("norm-triangle", "norms", worst, -1e-10)


def check_norm_definiteness(rng, count) -> CheckResult:
    zero = Series((0,))
    if norms.split_norm(zero).value != 0.0:
        return _deviation("norm-definiteness", "norms", math.inf, 0.0)
    smallest = math.inf
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 6)))
        if all(a.modulus() == 0 for a in f.coeffs):
            continue
        smallest = min(smallest, norms.split_norm(f).value)
    return _slack("norm-definiteness", "norms", smallest, 1e-12,
                  "zero norm only for the zero series")


def check_norm_equivalence(rng, count) -> CheckResult:
    worst = math.inf
    tol = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(1, 7)))
        split_report = norms.split_norm(f.with_radius(0.9))
        ball_report = norms.sup_norm_ball(f, 0.9)
        allowance = 2.0 * (split_report.certified_tol + ball_report.certified_tol)
        tol = max(tol, allowance)
        worst = min(worst,
                    ball_report.value - math.sqrt(0.5) * split_report.value,
                    split_report.value - ball_report.value)
    return _slack("norm-equivalence", "norms", worst, -max(tol, 1e-9),
                  "sqrt(2)/2 ||f|| <= ||f||_ball <= ||f||")


def check_conjugate_sphere_extrema(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 7)))
        fc = regular_conjugate(f)
        for _ in range(20):
            x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
            p = slices.sphere_pair(f, x, y)
            pc = slices.sphere_pair(fc, x, y)
            lo, hi = norms.sphere_extrema(p.b, p.c)
            lo_c, hi_c = norms.sphere_extrema(pc.b, pc.c)
            worst = max(worst, abs(hi - hi_c), abs(lo - lo_c))
    return _deviation("conjugate-sphere-extrema", "norms", worst, 1e-11)


def check_conjugate_ball_extrema(rng, count) -> CheckResult:
    worst = 0.0
    tol = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(1, 7)))
        fc = regular_conjugate(f)
        sup_f = norms.sup_norm_ball(f, 0.9)
        sup_c = norms.sup_norm_ball(fc, 0.9)
        inf_f = norms.inf_norm_ball(f, 0.9)
        inf_c = norms.inf_norm_ball(fc, 0.9)
        worst = max(worst, abs(sup_f.value - sup_c.value), abs(inf_f.value - inf_c.value))
        tol = max(tol, 2.0 * max(sup_f.certified_tol + sup_c.certified_tol,
                                 inf_f.certified_tol + inf_c.certified_tol))
    return _deviation("conjugate-ball-extrema", "norms", worst, max(tol, 1e-9))


def check_norm_conjugate_invariance(rng, count) -> CheckResult:
    worst = 0.0
    tol = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(1, 6)))
        a = norms.split_norm(f)
        b = norms.split_norm(regular_conjugate(f))
        worst = max(worst, abs(a.value - b.value))
        tol = max(tol, 2.0 * (a.certified_tol + b.certified_tol))
    return _deviation("norm-conjugate-invariance", "norms", worst, max(tol, 1e-8))


def check_mean_value(rng, count) -> CheckResult:
    worst = math.inf
    for _ in range(count):
        f = random_series(rng, int(rng.integers(1, 7)), monic_shift=True)
        deriv_norm = norms.split_norm(slice_derivative(f)).value
        for _ in range(25):
            q = random_ball_point(rng, 0.95)
            if q.modulus() < 1e-3:
                continue
            worst = min(worst, deriv_norm - evaluate(f, q).modulus() / q.modulus())
    return _slack("mean-value", "norms", worst, -1e-9,
                  "|q^{-1} f(q)| <= ||f'|| for f(0) = 0")


def check_remark_bound(rng, count) -> CheckResult:
    worst = math.inf
    for _ in range(count):
        f = random_series(rng, int(rng.integers(1, 7)), monic_shift=True)
        deriv_norm = norms.split_norm(slice_derivative(f)).value
        for s in (0.3, 0.6, 0.9):
            worst = min(worst, s * deriv_norm - norms.sup_norm_ball(f, s).value)
    return _slack("remark-bound", "norms", worst, -1e-9,
                  "sup over the ball of radius s is at most s ||f'||")


def check_j_independence(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(0, 7)))
        unit = random_unit(rng)
        j_unit, k_unit = orthonormal_completion(unit)
        angle = rng.uniform(0.3, 2.8)
        rotated = UnitImaginary.from_vector(
            *(math.cos(angle) * np.array((j_unit.x1, j_unit.x2, j_unit.x3))
              + math.sin(angle) * np.array((k_unit.x1, k_unit.x2, k_unit.x3))))
        worst = max(worst, abs(norms.slice_norm(f, unit, j_unit=j_unit)
                               - norms.slice_norm(f, unit, j_unit=rotated)))
    return _deviation("slice-norm-j-independence", "norms", worst, 1e-10)


def check_m_monotone(rng, count) -> CheckResult:
    f = random_series(rng, 6)
    coarse = [norms.sup_norm_ball(f, s).value for s in np.linspace(0.0, 0.95, 64)]
    fine = [norms.sup_norm_ball(f, s).value for s in np.linspace(0.0, 0.95, 256)]
    monotone = min(b - a for a, b in zip(coarse, coarse[1:]))
    monotone = min(monotone, min(b - a for a, b in zip(fine, fine[1:])))
    jump_coarse = max(b - a for a, b in zip(coarse, coarse[1:]))
    jump_fine = max(b - a for a, b in zip(fine, fine[1:]))
    ok = bool(monotone >= -1e-12 and jump_fine <= 0.5 * jump_coarse + 1e-9)
    return CheckResult("max-modulus-profile", "norms", ok, float(jump_fine),
                       float(jump_coarse), "slack",
                       "nondecreasing, with jumps shrinking under refinement")


# -- bloch suite -----------------------------------------------------------------

def check_oset_scaling(rng, count) -> CheckResult:
    mismatches = 0
    for _ in range(count):
        rho = float(rng.uniform(0.05, 2.0))
        q = random_quaternion(rng, rho)
        if bloch.in_oset(q, rho) != bloch.in_oset(q / rho, 1.0):
            mismatches += 1
    return _deviation("oset-scaling", "bloch", mismatches, 0.0)


def check_oset_membership_radius(rng, count) -> CheckResult:
    violations = 0
    members = 0
    for _ in range(count):
        rho = float(rng.uniform(0.05, 1.5))
        q = random_quaternion(rng, rho)
        if bloch.in_oset(q, rho):
            members += 1
            if q.modulus() >= rho:
                violations += 1
    return _deviation("oset-membership-radius", "bloch", violations, 0.0,
                      f"{members} members observed")


def check_inscribed_disc(rng, count) -> CheckResult:
    worst = math.inf
    for rho in (1.0 / (32.0 * math.sqrt(2.0)), 0.1, 0.25, 1.0):
        worst = min(worst, bloch.inscribed_disc_margin(rho))
    return _slack("inscribed-disc", "bloch", worst, 0.0,
                  "boundary sweep of the disc of radius 37/256 rho^2")


def check_fourth_root(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(1, 6)), monic_shift=True)
        c = random_quaternion(rng)
        if c.modulus() < 0.5:
            c = c + Quaternion(1.0)
        g = bloch.g_series(f, c)
        psi = bloch.fourth_root_series(g)
        fourth = star(star(star(psi, psi), psi), psi)
        worst = max(worst, max((fourth.coeffs[n] - g.coeffs[n]).modulus()
                               for n in range(g.degree + 1)))
    return _deviation("fourth-root-residual", "bloch", worst, 1e-11)


def check_psi_derivative(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        f = random_series(rng, int(rng.integers(1, 6)), monic_shift=True)
        c = random_quaternion(rng) + Quaternion(1.5)
        psi = bloch.fourth_root_series(bloch.g_series(f, c))
        expected = -0.5 * (f.coeffs[1] * c.inverse()).x0
        worst = max(worst, abs(psi.coeffs[1].x0 - expected))
    return _deviation("fourth-root-derivative", "bloch", worst, 1e-12)


def check_parseval(rng, count) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        coeffs = tuple(float(v) for v in rng.uniform(-1, 1, size=9))
        psi = Series(coeffs, radius=1.0)
        integral, coeff_sum = bloch.parseval_mean(psi, 0.9)
        worst = max(worst, abs(integral - coeff_sum))
    return _deviation("parseval-gap", "bloch", worst, 1e-8)


def check_lemma_chain(rng, count) -> CheckResult:
    """Excluded-value chain: the explicit bound dominates the circle mean,
    which dominates its first two coefficient terms."""
    f = Series((0, 1, 0.1))
    ball = f.radius
    deriv_norm = norms.split_norm(slice_derivative(f)).value
    worst = math.inf
    for c in (Quaternion(10.0), Quaternion(3.0, 2.0, 0.0, 1.0)):
        psi = bloch.fourth_root_series(bloch.g_series(f, c))
        bound = 1.0 + deriv_norm * ball / c.modulus()
        for r in (0.3, 0.6, 0.9):
            integral, coeff_sum = bloch.parseval_mean(psi, r)
            first_terms = 1.0 + r * r * psi.coeffs[1].modulus_sq()
            worst = min(worst, bound - integral, integral - first_terms + 1e-8,
                        bound - (1.0 + r * r * f.coeffs[1].modulus_sq()
                                 * c.x0 * c.x0 / (4.0 * c.modulus() ** 4)))
    return _slack("lemma-chain", "bloch", worst, -1e-9)


def check_search_invariants(rng, count) -> CheckResult:
    worst = 0.0
    slack = math.inf
    for name, f in (builtin_corpus()[0], builtin_corpus()[3]):
        report = bloch.bl_search(f, 0.99)
        worst = max(worst,
                    abs(report.w.modulus() + 2.0 * report.R_r - report.r),
                    abs(report.rotation.modulus() - 1.0) * 1e3,
                    abs(report.diagnostics["dphi0"] - report.r / (2.0 * report.R_r)))
        slack = min(slack, report.rho_r - report.diagnostics["rho_lower_bound"])
    ok = worst <= 1e-9 and slack >= -1e-6
    return CheckResult("search-invariants", "bloch", ok, worst, 1e-9, "deviation",
                       f"coverage slack {slack:.6f}")


def check_coverage_identity(rng, count) -> CheckResult:
    report = bloch.coverage_report(Series((0, 1)), 0.25, samples=count, seed=11)
    return _deviation("coverage-identity", "bloch", len(report.misses), 0.0,
                      f"{report.hits} hits, max residual {report.max_residual:.2e}")


# -- runner ------------------------------------------------------------------------

_CHECKS = [
    ("series", check_star_associativity, 40),
    ("series", check_star_unit, 20),
    ("series", check_leibniz, 40),
    ("series", check_conjugate_involution, 40),
    ("series", check_symmetrization_real, 40),
    ("series", check_pointwise_star, 40),
    ("series", check_real_zero_persistence, 40),
    ("series", check_symmetrization_slice_preserving, 40),
    ("slices", check_split_roundtrip, 30),
    ("slices", check_split_conjugate, 30),
    ("slices", check_representation_formula, 50),
    ("slices", check_sphere_pair_reconstruction, 10),
    ("slices", check_translation_slice_agreement, 20),
    ("slices", check_translation_offslice_witness, 1),
    ("slices", check_translation_continuity, 1),
    ("norms", check_sphere_extrema_oracle, 5),
    ("norms", check_norm_homogeneity, 4),
    ("norms", check_norm_triangle, 4),
    ("norms", check_norm_definiteness, 4),
    ("norms", check_norm_equivalence, 6),
    ("norms", check_conjugate_sphere_extrema, 10),
    ("norms", check_conjugate_ball_extrema, 3),
    ("norms", check_norm_conjugate_invariance, 3),
    ("norms", check_mean_value, 4),
    ("norms", check_remark_bound, 4),
    ("norms", check_j_independence, 10),
    ("norms", check_m_monotone, 1),
    ("bloch", check_oset_scaling, 10000),
    ("bloch", check_oset_membership_radius, 10000),
    ("bloch", check_inscribed_disc, 1),
    ("bloch", check_fourth_root, 10),
    ("bloch", check_psi_derivative, 10),
    ("bloch", check_parseval, 5),
    ("bloch", check_lemma_chain, 1),
    ("bloch", check_search_invariants, 1),
    ("bloch", check_coverage_identity, 100),
]


def run_checks(suites=None, seed: int = 0, scale: float = 1.0,
               extra_series: Series | None = None) -> list[CheckResult]:
    """Run the property suites; ``scale`` multiplies every sample count.

    Each result carries the wall time of its check in ``seconds``.
    """
    if not scale > 0:
        raise DomainError("the sample scale must be positive")
    wanted = set(suites) if suites else set(SUITES)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    results = []
    for suite, fn, count in _CHECKS:
        if suite not in wanted:
            continue
        rng = np.random.default_rng([seed, zlib.crc32(fn.__name__.encode())])
        results.append(_timed(fn, rng, max(1, int(count * scale))))
    if extra_series is not None and "series" in wanted:
        results.append(_timed(_user_series_checks, extra_series))
    return results


def _timed(check, *args) -> CheckResult:
    start = time.perf_counter()
    result = check(*args)
    return replace(result, seconds=time.perf_counter() - start)


def _user_series_checks(f: Series) -> CheckResult:
    """Light structural pass over a user-supplied series file."""
    worst = 0.0
    worst = max(worst, coeff_deviation(regular_conjugate(regular_conjugate(f)), f))
    sym = symmetrization(f)
    worst = max(worst, max(a.imag.modulus() for a in sym.coeffs))
    pair = slices.split(f, UNIT_I)
    back = slices.ext_from_slice(pair.F, pair.G, pair.I, pair.J, exact=f.exact)
    worst = max(worst, coeff_deviation(back, f))
    return _deviation("user-series-structure", "series", worst, 1e-12)
