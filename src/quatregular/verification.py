"""Property suites behind the ``verify`` command.

Each check states one algebraic or analytic property of the library as a
function of a seeded generator that draws one sample and returns its margin.
The ``_check`` decorator adds the property to ``_CHECKS`` with its suite,
name, kind, tolerance, sample count and detail text, and one runner draws
the samples in order and keeps the worst margin (see ``_KINDS``): for a
deviation the largest, which passes when at most the tolerance; for a slack
the smallest, which passes when at least the tolerance (it may be negative);
for a witness the single value, which passes when it exceeds the tolerance;
for a count the number of draws whose property fails, reported as a
deviation. A check whose pass rule or tolerance depends on what it drew
judges its own draws, and a check that draws nothing runs once at any
sample scale. Each check's generator is seeded by the run's seed and the
check's fixed key, so its draws depend on neither the other checks nor its
name.
"""

from __future__ import annotations

import functools
import math
import operator
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import bloch, norms, slices
from ._arrays import qmul_rows, row_norms
from .errors import DomainError
from .quaternions import I as UNIT_I
from .quaternions import (
    Quaternion,
    UnitImaginary,
    _slice_point,
    _sphere_rows,
    orthonormal_completion,
    plain_data,
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
        return plain_data(self)


# -- corpus helpers --------------------------------------------------------------

def random_quaternion(rng, scale: float = 1.0) -> Quaternion:
    return Quaternion(*rng.uniform(-scale, scale, size=4).tolist())


def random_unit(rng) -> UnitImaginary:
    v = rng.standard_normal(3)
    return UnitImaginary.from_vector(*v)


def random_series(rng, degree: int, scale: float = 0.5, monic_shift: bool = False) -> Series:
    """Random polynomial; ``monic_shift`` pins a_0 = 0 and a_1 = 1."""
    rows = rng.uniform(-scale, scale, size=(degree + 1, 4))
    if monic_shift:
        rows[0] = 0.0
        if degree >= 1:
            rows[1] = (1.0, 0.0, 0.0, 0.0)
    return _from_rows(rows, 1.0)


def random_ball_point(rng, radius: float) -> Quaternion:
    v = rng.standard_normal(4)
    v *= radius * rng.random() ** 0.25 / np.linalg.norm(v)
    return Quaternion(*v.tolist())


def _padded_rows(f: Series, g: Series) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows of f and g, zero-padded to the larger degree."""
    n = max(f.degree, g.degree) + 1
    return tuple(np.pad(h.rows, ((0, n - h.degree - 1), (0, 0))) for h in (f, g))


def series_sum(f: Series, g: Series) -> Series:
    a, b = _padded_rows(f, g)
    return _from_rows(a + b, min(f.radius, g.radius))


def coeff_deviation(f: Series, g: Series) -> float:
    a, b = _padded_rows(f, g)
    return float(row_norms(a - b).max())


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


def _random_degree_series(rng, low: int, high: int, monic_shift: bool = False) -> Series:
    """A random series of a degree drawn from [low, high)."""
    return random_series(rng, int(rng.integers(low, high)), monic_shift=monic_shift)


# -- the check table and its runner ----------------------------------------------

class _Check(NamedTuple):
    key: str  # seeds the check's draws; fixed, so a renamed check keeps them
    suite: str
    name: str
    kind: str  # a key of _KINDS
    tolerance: float | None  # None: prop(rng, count) judges its own draws
    count: int  # draws at --samples 100; 0 for a property that draws nothing
    detail: str
    prop: Callable


_CHECKS: list[_Check] = []

# kind: (kind reported, fold of one draw's margin into the worst so far, its start,
# pass rule of the worst against the tolerance)
_KINDS = {
    "deviation": ("deviation", max, 0.0, operator.le),
    "slack": ("slack", min, math.inf, operator.ge),
    "witness": ("witness", lambda _, margin: margin, math.nan, operator.gt),
    "count": ("deviation", operator.add, 0, operator.le),
}


def _check(key, suite, name, kind, tolerance, count, detail=""):
    """Add the decorated property to ``_CHECKS``."""
    def register(prop):
        _CHECKS.append(_Check(key, suite, name, kind, tolerance, count, detail, prop))
        return prop
    return register


def _run(check: _Check, rng, count: int) -> CheckResult:
    """Draw ``count`` samples of the check's property in order and judge the worst
    margin; the result carries the check's wall time in ``seconds``."""
    start = time.perf_counter()
    kind, fold, worst, rule = _KINDS[check.kind]
    if check.tolerance is None:
        passed, worst, tolerance, detail = check.prop(rng, count)
    else:
        for _ in range(count):
            worst = fold(worst, check.prop(rng))
        passed, tolerance, detail = rule(worst, check.tolerance), check.tolerance, check.detail
    return CheckResult(check.name, check.suite, bool(passed), float(worst), float(tolerance),
                       kind, detail, time.perf_counter() - start)


def run_checks(suites=None, seed: int = 0, scale: float = 1.0,
               extra_series: Series | None = None) -> list[CheckResult]:
    """Run the property suites; ``scale`` multiplies every sample count.

    Each result carries the wall time of its check in ``seconds``. A negative
    seed raises DomainError.
    """
    if not scale > 0:
        raise DomainError("the sample scale must be positive")
    bloch._require_seed(seed)
    wanted = set(suites) if suites else set(SUITES)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    results = [_run(check, np.random.default_rng([seed, zlib.crc32(check.key.encode())]),
                    max(1, int(check.count * scale)))
               for check in _CHECKS if check.suite in wanted]
    if extra_series is not None and "series" in wanted:
        results.append(_run(_user_series_check(extra_series), None, 1))
    return results


def _user_series_check(f: Series) -> _Check:
    """Light structural pass over a user-supplied series: the worst of three series-suite
    properties, homogeneous in f, so taken of f times 2^-e (``norms._scaled`` at radius 1)."""
    f = _from_rows(norms._scaled(f.rows, 1.0)[0], f.radius)
    return _Check("", "series", "user-series-structure", "deviation", 1e-12, 1, "",
                  lambda _: max(_involution_gap(f), _symmetrization_imag(f),
                                _split_gap(f, UNIT_I)))


# -- series suite ----------------------------------------------------------------

def _involution_gap(f: Series) -> float:
    return coeff_deviation(regular_conjugate(regular_conjugate(f)), f)


def _symmetrization_imag(f: Series) -> float:
    return float(row_norms(symmetrization(f).rows[:, 1:]).max())


@_check("check_star_associativity", "series", "star-associativity", "deviation", 1e-12, 40)
def _star_associativity(rng):
    f, g, h = (_random_degree_series(rng, 0, 7) for _ in range(3))
    return coeff_deviation(star(star(f, g), h), star(f, star(g, h)))


_ONE = Series((1,))


@_check("check_star_unit", "series", "star-unit", "deviation", 0.0, 20)
def _star_unit(rng):
    f = _random_degree_series(rng, 0, 7)
    return max(coeff_deviation(star(f, _ONE), f), coeff_deviation(star(_ONE, f), f))


@_check("check_leibniz", "series", "leibniz-rule", "deviation", 1e-13, 40)
def _leibniz(rng):
    f, g = _random_degree_series(rng, 0, 7), _random_degree_series(rng, 0, 7)
    rhs = series_sum(star(slice_derivative(f), g), star(f, slice_derivative(g)))
    return coeff_deviation(slice_derivative(star(f, g)), rhs)


@_check("check_conjugate_involution", "series", "conjugate-involution", "deviation", 0.0, 40)
def _conjugate_involution(rng):
    return _involution_gap(_random_degree_series(rng, 0, 7))


@_check("check_symmetrization_real", "series", "symmetrization-real", "deviation", 1e-13, 40)
def _symmetrization_real(rng):
    return _symmetrization_imag(_random_degree_series(rng, 0, 7))


@_check("check_pointwise_star", "series", "pointwise-star", "deviation", 1e-10, 40)
def _pointwise_star(rng):
    f, g = _random_degree_series(rng, 0, 5), _random_degree_series(rng, 0, 5)
    for _ in range(100):
        q = random_ball_point(rng, 0.7)
        value = evaluate(f, q)
        if value.modulus() >= 1e-2:
            rhs = value * evaluate(g, star_transform_point(f, q))
            return (evaluate(star(f, g), q) - rhs).modulus()
    return 0.0


@_check("check_real_zero_persistence", "series", "real-zero-persistence", "deviation", 0.0, 40)
def _real_zero_persistence(rng):
    # dyadic data keeps every convolution and evaluation step exact in floats
    root = float(rng.integers(-2, 3)) / 4.0
    g = star(Series((-root, 1), radius=4.0),
             Series(tuple(float(rng.integers(-4, 5)) / 4.0 for _ in range(3)), radius=4.0))
    f = Series(tuple(float(rng.integers(-4, 5)) / 4.0 for _ in range(4)), radius=4.0)
    assert evaluate(g, root).modulus() == 0.0
    return evaluate(star(f, g), root).modulus()


@_check("check_symmetrization_slice_preserving", "series", "symmetrization-slice-preserving",
        "deviation", 1e-12, 40)
def _symmetrization_slice_preserving(rng):
    sym = symmetrization(_random_degree_series(rng, 0, 7))
    unit = random_unit(rng)
    x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
    value = evaluate(sym, _slice_point(x, y, unit))
    return (value - Quaternion(value.x0) - value.dot(unit) * unit).modulus()


# -- slices suite ----------------------------------------------------------------

def _split_gap(f: Series, unit: UnitImaginary) -> float:
    pair = slices.split(f, unit)
    back = slices.ext_from_slice(pair.F, pair.G, pair.I, pair.J)
    return coeff_deviation(back, f)


@_check("check_split_roundtrip", "slices", "split-roundtrip", "deviation", 1e-13, 30)
def _split_roundtrip(rng):
    return _split_gap(_random_degree_series(rng, 0, 8), random_unit(rng))


@_check("check_split_conjugate", "slices", "split-conjugate-relation", "deviation", 1e-13, 30)
def _split_conjugate(rng):
    return slices._split_conjugate_gap(_random_degree_series(rng, 0, 8), random_unit(rng))[2]


@_check("check_representation_formula", "slices", "representation-formula", "deviation",
        1e-11, 50)
def _representation_formula(rng):
    f = _random_degree_series(rng, 0, 8)
    i_unit, j_unit = random_unit(rng), random_unit(rng)
    x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
    via_formula = slices.representation_eval(f, x, y, j_unit, i_unit)
    return (via_formula - evaluate(f, _slice_point(x, y, i_unit))).modulus()


@_check("check_sphere_pair_reconstruction", "slices", "sphere-pair-reconstruction",
        "deviation", 1e-11, 10)
def _sphere_pair_reconstruction(rng):
    f = _random_degree_series(rng, 0, 8)
    x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
    pair = slices.sphere_pair(f, x, y)
    return max((pair.evaluate(unit) - evaluate(f, _slice_point(x, y, unit))).modulus()
               for unit in sphere_sample(20, seed=int(rng.integers(0, 10000))))


@_check("check_translation_slice_agreement", "slices", "translation-slice-agreement",
        "deviation", 1e-11, 20)
def _translation_slice_agreement(rng):
    f = _random_degree_series(rng, 0, 8)
    unit = random_unit(rng)
    w = _slice_point(0.2, 0.3, unit)
    shifted = slices.regular_translation(f, w)
    points = (_slice_point(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), unit)
              for _ in range(10))
    return max((evaluate(shifted, q) - evaluate(f, q + w)).modulus() for q in points)


@_check("check_translation_offslice_witness", "slices", "translation-offslice-witness",
        "witness", 1e-6, 0, "regular translation differs from naive composition off the slice")
def _translation_offslice_witness(rng):
    # regular translation must not be pointwise composition off the slice
    f = Series((0, 0, 1))
    w = Quaternion(0.0, 0.0, 0.3, 0.0)
    q = Quaternion(0.0, 0.2, 0.0, 0.0)
    return (evaluate(slices.regular_translation(f, w), q) - evaluate(f, q + w)).modulus()


@_check("check_translation_continuity", "slices", "translation-continuity", "slack", None, 1)
def _translation_continuity(rng, count):
    f = random_series(rng, 4)
    limit = Quaternion(0.1, 0.2, 0.0, 0.0)
    probes = [slices.translation_continuity_probe(
        f, [limit + Quaternion(0.3 / m, 0.2 / m, 0.1 / m, 0.0) for m in range(1, n + 1)]
        + [limit], 0.4) for n in (2, 8, 64)]
    decreasing = probes[2] < probes[1] < probes[0]
    # the discrepancy scales like the 1/n perturbation, so 2/64 with headroom
    final_small = probes[2] < 0.06 * probes[0] + 1e-12
    return decreasing and final_small, probes[2], probes[0], f"probe values {probes}"


# -- norms suite -----------------------------------------------------------------

@functools.cache
def _oracle_sphere() -> np.ndarray:
    """Rows (0, u) of the 1e5 imaginary units u the sphere-extrema oracle samples."""
    iq = np.zeros((100000, 4))
    iq[:, 1:] = _sphere_rows(100000, seed=7)
    iq.flags.writeable = False
    return iq


@_check("check_sphere_extrema_oracle", "norms", "sphere-extrema-oracle", "deviation", 1e-3, 5,
        "closed form against a 1e5-point sampled sphere")
def _sphere_extrema_oracle(rng):
    b, c = random_quaternion(rng), random_quaternion(rng)
    low, high = norms.sphere_extrema(b, c)
    iq = _oracle_sphere()
    prod = qmul_rows(iq, np.broadcast_to(np.array(c.components), iq.shape))
    values = np.linalg.norm(np.array(b.components) + prod, axis=1)
    return max(abs(high - values.max()), abs(values.min() - low))


@_check("check_norm_homogeneity", "norms", "norm-homogeneity", "deviation", 1e-12, 4)
def _norm_homogeneity(rng):
    f = _random_degree_series(rng, 1, 6)
    scalar = float(rng.uniform(-3.0, 3.0))
    scaled = Series(tuple(a * scalar for a in f.coeffs), f.radius)
    return abs(norms.split_norm(scaled).value - abs(scalar) * norms.split_norm(f).value)


@_check("check_norm_triangle", "norms", "norm-triangle", "slack", -1e-10, 4)
def _norm_triangle(rng):
    f, g = _random_degree_series(rng, 1, 6), _random_degree_series(rng, 1, 6)
    return (norms.split_norm(f).value + norms.split_norm(g).value
            - norms.split_norm(series_sum(f, g)).value)


@_check("check_norm_definiteness", "norms", "norm-definiteness", "slack", None, 4)
def _norm_definiteness(rng, count):
    zero_norm = norms.split_norm(Series((0,))).value
    smallest = math.inf
    for _ in range(count):
        f = _random_degree_series(rng, 0, 6)
        if f.rows.any():
            smallest = min(smallest, norms.split_norm(f).value)
    return (zero_norm == 0.0 and smallest >= 1e-12, smallest, 1e-12,
            "zero norm only for the zero series")


@_check("check_norm_equivalence", "norms", "norm-equivalence", "slack", None, 6)
def _norm_equivalence(rng, count):
    worst, tol = math.inf, 0.0
    for _ in range(count):
        f = _random_degree_series(rng, 1, 7)
        split_report = norms.split_norm(f.with_radius(0.9))
        ball_report = norms.sup_norm_ball(f, 0.9)
        tol = max(tol, 2.0 * (split_report.certified_tol + ball_report.certified_tol))
        worst = min(worst, ball_report.value - math.sqrt(0.5) * split_report.value,
                    split_report.value - ball_report.value)
    tol = -max(tol, 1e-9)
    return worst >= tol, worst, tol, "sqrt(2)/2 ||f|| <= ||f||_ball <= ||f||"


@_check("check_conjugate_sphere_extrema", "norms", "conjugate-sphere-extrema", "deviation",
        1e-11, 10)
def _conjugate_sphere_extrema(rng):
    f = _random_degree_series(rng, 0, 7)
    fc = regular_conjugate(f)
    worst = 0.0
    for _ in range(20):
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.6)
        (lo, hi), (lo_c, hi_c) = (norms.sphere_extrema(p.b, p.c) for p in
                                  (slices.sphere_pair(f, x, y), slices.sphere_pair(fc, x, y)))
        worst = max(worst, abs(hi - hi_c), abs(lo - lo_c))
    return worst


@_check("check_conjugate_ball_extrema", "norms", "conjugate-ball-extrema", "deviation", None, 3)
def _conjugate_ball_extrema(rng, count):
    worst, tol = 0.0, 0.0
    for _ in range(count):
        f = _random_degree_series(rng, 1, 7)
        fc = regular_conjugate(f)
        sup_f, sup_c = norms.sup_norm_ball(f, 0.9), norms.sup_norm_ball(fc, 0.9)
        inf_f, inf_c = norms.inf_norm_ball(f, 0.9), norms.inf_norm_ball(fc, 0.9)
        worst = max(worst, abs(sup_f.value - sup_c.value), abs(inf_f.value - inf_c.value))
        tol = max(tol, 2.0 * max(sup_f.certified_tol + sup_c.certified_tol,
                                 inf_f.certified_tol + inf_c.certified_tol))
    tol = max(tol, 1e-9)
    return worst <= tol, worst, tol, ""


@_check("check_norm_conjugate_invariance", "norms", "norm-conjugate-invariance", "deviation",
        None, 3)
def _norm_conjugate_invariance(rng, count):
    worst, tol = 0.0, 0.0
    for _ in range(count):
        f = _random_degree_series(rng, 1, 6)
        a, b = norms.split_norm(f), norms.split_norm(regular_conjugate(f))
        worst = max(worst, abs(a.value - b.value))
        tol = max(tol, 2.0 * (a.certified_tol + b.certified_tol))
    tol = max(tol, 1e-8)
    return worst <= tol, worst, tol, ""


@_check("check_mean_value", "norms", "mean-value", "slack", -1e-9, 4,
        "|q^{-1} f(q)| <= ||f'|| for f(0) = 0")
def _mean_value(rng):
    f = _random_degree_series(rng, 1, 7, monic_shift=True)
    deriv_norm = norms.split_norm(slice_derivative(f)).value
    points = (random_ball_point(rng, 0.95) for _ in range(25))
    return min((deriv_norm - evaluate(f, q).modulus() / q.modulus()
                for q in points if q.modulus() >= 1e-3), default=math.inf)


@_check("check_remark_bound", "norms", "remark-bound", "slack", -1e-9, 4,
        "sup over the ball of radius s is at most s ||f'||")
def _remark_bound(rng):
    f = _random_degree_series(rng, 1, 7, monic_shift=True)
    deriv_norm = norms.split_norm(slice_derivative(f)).value
    return min(s * deriv_norm - norms.sup_norm_ball(f, s).value for s in (0.3, 0.6, 0.9))


@_check("check_j_independence", "norms", "slice-norm-j-independence", "deviation", 1e-10, 10)
def _j_independence(rng):
    f = _random_degree_series(rng, 0, 7)
    unit = random_unit(rng)
    j_unit, k_unit = orthonormal_completion(unit)
    angle = rng.uniform(0.3, 2.8)
    rotated = UnitImaginary.from_vector(*(math.cos(angle) * np.array(j_unit.components[1:])
                                          + math.sin(angle) * np.array(k_unit.components[1:])))
    return abs(norms.slice_norm(f, unit, j_unit=j_unit)
               - norms.slice_norm(f, unit, j_unit=rotated))


@_check("check_m_monotone", "norms", "max-modulus-profile", "slack", None, 1)
def _max_modulus_profile(rng, count):
    f = random_series(rng, 6)
    coarse, fine = (np.diff([norms.sup_norm_ball(f, s).value for s in np.linspace(0.0, 0.95, n)])
                    for n in (64, 256))
    ok = min(coarse.min(), fine.min()) >= -1e-12 and fine.max() <= 0.5 * coarse.max() + 1e-9
    return ok, fine.max(), coarse.max(), "nondecreasing, with jumps shrinking under refinement"


# -- bloch suite -----------------------------------------------------------------

@_check("check_oset_scaling", "bloch", "oset-scaling", "count", 0.0, 10000)
def _oset_scaling(rng):
    rho = float(rng.uniform(0.05, 2.0))
    q = random_quaternion(rng, rho)
    return bloch.in_oset(q, rho) != bloch.in_oset(q / rho, 1.0)


@_check("check_oset_membership_radius", "bloch", "oset-membership-radius", "deviation", None,
        10000)
def _oset_membership_radius(rng, count):
    violations = members = 0
    for _ in range(count):
        rho = float(rng.uniform(0.05, 1.5))
        q = random_quaternion(rng, rho)
        if bloch.in_oset(q, rho):
            members += 1
            violations += q.modulus() >= rho
    return violations <= 0.0, violations, 0.0, f"{members} members observed"


@_check("check_inscribed_disc", "bloch", "inscribed-disc", "slack", 0.0, 0,
        "boundary sweep of the disc of radius 37/256 rho^2")
def _inscribed_disc(rng):
    return min(bloch.inscribed_disc_margin(rho)
               for rho in (1.0 / (32.0 * math.sqrt(2.0)), 0.1, 0.25, 1.0))


@_check("check_fourth_root", "bloch", "fourth-root-residual", "deviation", 1e-11, 10)
def _fourth_root(rng):
    f = _random_degree_series(rng, 1, 6, monic_shift=True)
    c = random_quaternion(rng)
    if c.modulus() < 0.5:
        c = c + Quaternion(1.0)
    g = bloch.g_series(f, c)
    psi = bloch.fourth_root_series(g)
    fourth = star(star(star(psi, psi), psi), psi)
    return max((a - b).modulus() for a, b in zip(fourth.coeffs, g.coeffs))


@_check("check_psi_derivative", "bloch", "fourth-root-derivative", "deviation", 1e-12, 10)
def _psi_derivative(rng):
    f = _random_degree_series(rng, 1, 6, monic_shift=True)
    c = random_quaternion(rng) + Quaternion(1.5)
    psi = bloch.fourth_root_series(bloch.g_series(f, c))
    expected = -0.5 * (f.coeffs[1] * c.inverse()).x0
    return abs(psi.coeffs[1].x0 - expected)


@_check("check_parseval", "bloch", "parseval-gap", "deviation", 1e-8, 5)
def _parseval(rng):
    psi = Series(tuple(float(v) for v in rng.uniform(-1, 1, size=9)), radius=1.0)
    integral, coeff_sum = bloch.parseval_mean(psi, 0.9)
    return abs(integral - coeff_sum)


@_check("check_lemma_chain", "bloch", "lemma-chain", "slack", -1e-9, 0)
def _lemma_chain(rng):
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
    return worst


@_check("check_search_invariants", "bloch", "search-invariants", "deviation", None, 1)
def _search_invariants(rng, count):
    worst = 0.0
    slack = math.inf
    for _, f in (builtin_corpus()[0], builtin_corpus()[3]):
        report = bloch.bl_search(f, 0.99)
        worst = max(worst,
                    abs(report.w.modulus() + 2.0 * report.R_r - report.r),
                    abs(report.rotation.modulus() - 1.0) * 1e3,
                    abs(report.diagnostics["dphi0"] - report.r / (2.0 * report.R_r)))
        slack = min(slack, report.rho_r - report.diagnostics["rho_lower_bound"])
    return worst <= 1e-9 and slack >= -1e-6, worst, 1e-9, f"coverage slack {slack:.6f}"


@_check("check_coverage_identity", "bloch", "coverage-identity", "deviation", None, 100)
def _coverage_identity(rng, count):
    report = bloch.coverage_report(Series((0, 1)), 0.25, samples=count, seed=11)
    return (not report.misses, len(report.misses), 0.0,
            f"{report.hits} hits, max residual {report.max_residual:.2e}")
