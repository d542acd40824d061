import math

import numpy as np

from quatregular import ext_from_slice, regular_conjugate, split, symmetrization
from quatregular import slices, verification
from quatregular.quaternions import I
from quatregular.series import _from_rows
from quatregular.verification import (
    _CHECKS,
    _KINDS,
    SUITES,
    CheckResult,
    coeff_deviation,
    random_series,
    run_checks,
)

# the generator key of every check: the name its function had when the keys were fixed
CHECK_KEYS = [
    "check_star_associativity", "check_star_unit", "check_leibniz",
    "check_conjugate_involution", "check_symmetrization_real", "check_pointwise_star",
    "check_real_zero_persistence", "check_symmetrization_slice_preserving",
    "check_split_roundtrip", "check_split_conjugate", "check_representation_formula",
    "check_sphere_pair_reconstruction", "check_translation_slice_agreement",
    "check_translation_offslice_witness", "check_translation_continuity",
    "check_sphere_extrema_oracle", "check_norm_homogeneity", "check_norm_triangle",
    "check_norm_definiteness", "check_norm_equivalence", "check_conjugate_sphere_extrema",
    "check_conjugate_ball_extrema", "check_norm_conjugate_invariance", "check_mean_value",
    "check_remark_bound", "check_j_independence", "check_m_monotone", "check_oset_scaling",
    "check_oset_membership_radius", "check_inscribed_disc", "check_fourth_root",
    "check_psi_derivative", "check_parseval", "check_lemma_chain", "check_search_invariants",
    "check_coverage_identity",
]


class TestCheckTable:
    def test_rows(self):
        names = [check.name for check in _CHECKS]
        assert len(set(names)) == len(names)
        assert {check.suite for check in _CHECKS} <= set(SUITES)
        assert {check.kind for check in _CHECKS} <= set(_KINDS)
        assert all(check.count >= 0 for check in _CHECKS)

    def test_keys(self):
        keys = [check.key for check in _CHECKS]
        assert len(set(keys)) == len(keys)
        assert set(keys) == set(CHECK_KEYS)


class TestUserSeriesCheck:
    def test_worst_of_three_properties(self):
        # the properties are those of f folded by the power of two of its largest component
        g = random_series(np.random.default_rng(5), 6)
        f = _from_rows(np.ldexp(g.rows, -math.frexp(np.abs(g.rows).max())[1]), g.radius)
        pair = split(f, I)
        expected = max(coeff_deviation(regular_conjugate(regular_conjugate(f)), f),
                       max(a.imag.modulus() for a in symmetrization(f).coeffs),
                       coeff_deviation(ext_from_slice(pair.F, pair.G, pair.I, pair.J), f))
        result = run_checks(["series"], seed=3, scale=0.01, extra_series=g)[-1]
        assert (result.name, result.suite, result.kind) == (
            "user-series-structure", "series", "deviation")
        assert result.margin == expected
        assert result.passed == (expected <= 1e-12)


class TestSplitConjugateRelation:
    def test_violation_is_a_failed_check(self, monkeypatch):
        # with the conjugate replaced by f itself the relation fails on every nonreal
        # coefficient; split_conjugate_check would raise ArithmeticError here
        monkeypatch.setattr(slices, "regular_conjugate", lambda f: f)
        (check,) = [c for c in _CHECKS if c.name == "split-conjugate-relation"]
        result = verification._run(check, np.random.default_rng(0), 5)
        assert not result.passed and result.margin > 1e-3


class TestCheckResult:
    def test_to_dict(self):
        result = CheckResult("star-unit", "series", True, 0.0, 1e-12, "deviation", "", 2.5)
        assert result.to_dict() == {"name": "star-unit", "suite": "series", "passed": True,
                                    "margin": 0.0, "tolerance": 1e-12, "kind": "deviation",
                                    "detail": ""}

    def test_no_draw_checks_run_once(self, monkeypatch):
        # a check that draws nothing runs once at any sample scale
        assert {check.name for check in _CHECKS if check.count == 0} == {
            "translation-offslice-witness", "inscribed-disc", "lemma-chain"}
        calls = []

        def counted(check):
            return check._replace(prop=lambda rng: calls.append(check.name) or check.prop(rng))

        monkeypatch.setattr(verification, "_CHECKS", [
            counted(check) if check.count == 0 else check for check in _CHECKS])
        run_checks(["slices"], seed=0, scale=2.5)
        assert calls == ["translation-offslice-witness"]
