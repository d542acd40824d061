"""Output checks against the benchmark's own reference (qref); nothing here
imports quatregular.

check(workload, record, output) returns a list of problems; an empty list is
a passed task. Outputs are plain data (lists, numbers, strings, None).
run.py calls these in a child process of its own, so the reference computations never touch the
memory of the process being measured.
"""

from __future__ import annotations

import json
import math

import numpy as np

import qref
from corpus import BALL_RADII, SPLIT_RADIUS

SQRT2 = math.sqrt(2.0)

# Prefix of the problems that do not make a run incorrect: the extremum search
# missing the extremum by more than its certified_tol, so that split_norm
# reports less than a value its supremum attains, or inf_norm_ball more than a
# value its minimum attains (ROADMAP item 4: certified_tol is not a bound).
# Such tasks still count as failed.
KNOWN_DEFECT = "known extremum miss:"


def slice_norms(rec: dict, out) -> list[str]:
    c = np.asarray(rec["coeffs"], float)
    (split, split_tol), *balls, (inf, inf_tol) = out
    problems = []
    lo, hi = qref.split_norm_lower(c, SPLIT_RADIUS), qref.coeff_bound(c, SPLIT_RADIUS)
    if split < lo - split_tol - 1e-12 * lo:
        problems.append(f"{KNOWN_DEFECT} split_norm {split!r} below attained {lo!r} by "
                        f"{lo - split:.3e} > certified_tol {split_tol:.1e}")
    if split > hi * (1.0 + 1e-12):
        problems.append(f"split_norm {split!r} above coefficient bound {hi!r}")
    for s, (value, tol) in zip(BALL_RADII, balls):
        lo, hi = qref.ball_max_lower(c, s), qref.coeff_bound(c, s)
        if value < lo - tol - 1e-12 * lo:
            problems.append(f"sup_norm_ball({s}) {value!r} below attained {lo!r}")
        if value > hi * (1.0 + 1e-12):
            problems.append(f"sup_norm_ball({s}) {value!r} above coefficient bound {hi!r}")
    lo, hi = qref.ball_min_lower(c, BALL_RADII[1]), qref.ball_min_upper(c, BALL_RADII[1])
    if inf > hi + inf_tol + 1e-12 * max(1.0, hi):
        problems.append(f"{KNOWN_DEFECT} inf_norm_ball {inf!r} above attained {hi!r} by "
                        f"{inf - hi:.3e} > certified_tol {inf_tol:.1e}")
    if inf < lo - 1e-12 * max(1.0, lo):
        problems.append(f"inf_norm_ball {inf!r} below lower bound {lo!r}")
    ball, ball_tol = balls[1]
    allowance = max(2.0 * (split_tol + ball_tol), 1e-9)
    if not SQRT2 / 2.0 * split - allowance <= ball <= split + allowance:
        problems.append(f"sandwich sqrt2/2 {split!r} <= {ball!r} <= split fails")
    return problems


def bl_search(rec: dict, out) -> list[str]:
    code, report = out
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["no report written"]
    rep = json.loads(report)
    diag = rep["diagnostics"]
    r = rec["r"]
    problems = []
    if diag["rho_bound_ok"] is not True:
        problems.append("rho_bound_ok is false")
    if not rep["rho_r"] >= r / (32.0 * SQRT2) - 1e-6:
        problems.append(f"rho_r {rep['rho_r']!r} below r/(32 sqrt2)")
    if not diag["mu_root_residual"] <= 1e-9:
        problems.append(f"mu_root_residual {diag['mu_root_residual']!r}")
    if not abs(diag["dphi0"] - r / (2.0 * rep["R_r"])) <= 1e-9:
        problems.append(f"dphi0 {diag['dphi0']!r} != r/(2 R_r)")
    want = qref.evaluate(np.asarray(rec["coeffs"], float), np.array(rep["w"]))
    if qref.max_rel_err(rep["f_w"], want) > 1e-10:
        problems.append(f"f_w {rep['f_w']!r} != f(w) {want.tolist()!r}")
    return problems


def coverage(rec: dict, out) -> list[str]:
    if out is None:
        return ["attain returned None"]
    root = np.array(out)
    residual = float(np.linalg.norm(
        qref.evaluate(np.asarray(rec["coeffs"], float), root) - np.asarray(rec["target"])))
    problems = []
    if not residual < 1e-8:
        problems.append(f"residual {residual:.3e}")
    if not np.linalg.norm(root) < rec["radius"]:
        problems.append(f"|root| {np.linalg.norm(root)!r} >= radius")
    return problems


def series_algebra(rec: dict, out) -> list[str]:
    f, g = np.asarray(rec["f"], float), np.asarray(rec["g"], float)
    x, y = rec["xy"]
    unit = np.concatenate([[0.0], np.asarray(rec["unit_i"], float)])
    unit /= np.linalg.norm(unit)
    w = np.asarray(rec["w"], float)
    at_q, at_xy = qref.evaluate(f, np.stack([np.asarray(rec["q"], float),
                                            np.array([x, 0.0, 0.0, 0.0]) + y * unit]))
    ref = {
        "star": qref.star(f, g),
        "symmetrization": qref.star(f, qref.qconj(f)),
        "regular_conjugate": qref.qconj(g),
        "evaluate": at_q,
        "slice_derivative": qref.slice_derivative(f),
        "ext_from_slice": f,
        "sphere_pair": np.array(qref.sphere_constants(f, x, y)),
        "representation_eval": at_xy,
        "regular_translation": np.vstack([
            qref.translate(f, w), [[rec["radius"] - np.linalg.norm(w), 0.0, 0.0, 0.0]]]),
    }
    problems = []
    for key, want in ref.items():
        err = qref.max_rel_err(out[key], want)
        if not err <= 1e-10:
            problems.append(f"{key} off by {err:.3e}")
    # a_n = alpha_n + beta_n J with J orthogonal to I and K = I J
    j_q = np.array(out["split"][2])
    k_q = qref.qmul(unit, j_q)
    alpha = np.stack([f[:, 0], f @ unit], axis=1)
    beta = np.stack([f @ j_q, f @ k_q], axis=1)
    err = max(qref.max_rel_err(out["split"][0], alpha),
              qref.max_rel_err(out["split"][1], beta),
              abs(float(unit @ j_q)), abs(float(j_q @ j_q) - 1.0), abs(j_q[0]))
    if not err <= 1e-10:
        problems.append(f"split off by {err:.3e}")
    return problems


CHECKS = {
    "slice-norms": slice_norms,
    "bl-search": bl_search,
    "coverage": coverage,
    "series-algebra": series_algebra,
}


def check(workload: str, rec: dict, out) -> list[str]:
    """Problems with one task's output; a check that raises is a problem too."""
    try:
        return CHECKS[workload](rec, out)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]
