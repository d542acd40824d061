"""Compare this source tree with another, kernels and benchmark records, in one process.

    python3 tools/ab.py OTHER_TREE

This tree's ``quatregular`` is imported from its ``src``, and OTHER_TREE's
(``OTHER_TREE/src/quatregular``) is loaded beside it as the package
``qr_other`` with ``importlib.util.spec_from_file_location``, which works
because the package imports itself only relatively. There are four sections.

The three workloads read the first RECORDS of each workload's corpus stream for
every seed in SEEDS, from this tree's ``perfbench/corpus.py`` (which imports
numpy alone); nothing under ``perfbench/`` is edited. Each task is the
workload's call:

- slice-norms: ``split_norm`` on the ball of radius ``SPLIT_RADIUS``,
  ``sup_norm_ball`` at both ``BALL_RADII`` and ``inf_norm_ball`` at the
  larger, its output the four reports (value, method, resolution and
  ``certified_tol``);
- bl-search: ``quatregular search FILE --r R -o OUT`` through ``cli.main``,
  its output the exit code and the report (both trees read the same input
  path);
- coverage: ``attain(f, target, f.radius)``, the preimage search that
  polishes the zeros of f - target by Newton steps, its output the
  components of the preimage found, or None.

The kernels are built from each tree's own modules on seeded inputs that are
the same on every run: a series of degree DEGREE (the derivative of a
normalised series of degree DEGREE + 1) on the ball of radius RADIUS. The rows
are the sphere-maximum search at 1, 15, 18 (one root batch: 15 evenly spaced
points and 3 interpolated ones), 33 (the coarse mu-profile pass when no cell
is dropped), 63 and 1024 (a whole mu-profile) radii, and at 33 radii on the
first two coefficient rows (degree 1: the closed-form angle, no grid or
polish); the slice norm at the unit i (two sphere-maximum searches), the
split_norm lattice scan (2048 units, 256 angles) and its pick phase (the
three starts of the scan's greedy picks, from a pass on every fourth angle at
this degree and the 256-angle rows of just the units that can be picked), the
value, gradient and Hessian of the split_norm ascent at its three starts
(_slice_terms, given the series table and the charts) and the whole ascent
from them (slice_norm_ascent); the whole split_norm on the series, on the
real-coefficient series of its real parts (the boundary sphere maximum), on
the degree-1 series of its first two rows (the closed form |a_0| + R |a_1|) and
on phi' of the settled steep-cubic search below, whose real positive terms align
at R (the closed form B(R) = sum |a_k| R^k); sup_norm_ball at RADIUS on the series
of the moduli of those real parts, which align at RADIUS (the same closed form);
inf_norm_ball at RADIUS on q times the series' first DEGREE coefficients, a
degree-DEGREE series with a zero at the origin whose root sphere wins without
a boundary search; sup_norm_ball, inf_norm_ball (both at RADIUS) and
split_norm (on the ball of radius RADIUS) on a series of degree DEGREE_CAP
with |a_n| about 1/(n+1)^2, the largest degree that every norm takes; the
sphere constants at 1024 spheres and series evaluation at 64 points; the
series algebra that builds a new series from coefficient rows (star,
slice_derivative, regular_translation and with_radius, one call each, on a
degree-2 series); attain, the preimage search from the zeros of f - target,
on the builtin mixed-units series for a fixed target in the unit ball; and
the whole bl_search at r = 0.99 on the same series, on the builtin
quadratic-j series (its derivative is linear, so every M and the norm of
phi' are closed forms), on the builtin steep-cubic series (f' = 1 + 5 q^2,
whose first crossing, near s = 0.283, is below r/2) and on the seeded
degree-4 series LONG_PASS_SEED draws, where the monotone bound alone left
558 radii to the second pass of the mu-profile (the two bounds of
bloch._first_crossing leave 31), and at r = 0.6 on mixed-units. The
quadratic-j, steep-cubic and r = 0.6 searches are settled: two polynomial
bounds of mu decide the first crossing, the root closes from them and the
locator comes from their witness, with no sphere-maximum search. A row that a tree cannot build or
run (a private kernel renamed or re-signed) reads null for that tree, and
stderr says why.

Over ROUNDS rounds every task runs once in each tree, the two back to back,
with the tree that goes first alternating from task to task and round to
round; a kernel row's task is CALLS back-to-back calls. BLAS is pinned to one
thread and the process to one CPU, as in ``perfbench/run.py``. Prints one
JSON object. For each workload and seed: the sum over tasks of each tree's
per-task minimum seconds, their ratio (this tree over the other), for
bl-search ``mu_radii``, each tree's summed ``diagnostics["mu_radii"]`` (the radii
of the coarse pass, the second pass and the root) and this tree's less the
other's (a count, the same on every run, where a time is not), ``faster``,
the number of tasks where this tree's minimum is the smaller, ``moved``, the
number of tasks whose output differs between the trees, ``max_rel_move``, the
largest relative change |a - b| / min(|a|, |b|) over the numeric leaves of
those outputs (a difference in shape or in a leaf that is not a number counts
as inf), ``max_abs_move``, the largest absolute change |a - b| over the same
leaves (it reads a change near 0 that the relative figure inflates),
``moves``, the largest such change at each leaf path that moved (keys
joined by ".", list indices written "*"), and every task whose output
differs, with both outputs. For each kernel row: each tree's minimum
milliseconds per call and their ratio.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import gc
import importlib
import importlib.util
import itertools
import json
import math
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import quatregular  # noqa: E402

SEEDS = (1, 7, 11)
RECORDS = {"slice-norms": 96, "bl-search": 72, "coverage": 72}
ROUNDS = 5
CALLS = 20
DEGREE = 6
RADIUS = 0.9
SPHERE_RADII = (1, 15, 18, 33, 63, 1024)
# random_series(default_rng(LONG_PASS_SEED), 4, monic_shift=True): mu_radii [26, 31, 18]
LONG_PASS_SEED = 10


def _load(name: str, path: Path):
    """Import the module or package at ``path`` under ``name``."""
    package = path.name == "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _series(pkg, coeffs, radius):
    return pkg.Series(tuple(pkg.Quaternion(*map(float, row)) for row in coeffs), float(radius))


def _slice_norms(corpus, pkg):
    """Prepare a slice-norms record for ``pkg``: the task and the plain form of its output."""
    split_radius, (small, large) = corpus.SPLIT_RADIUS, corpus.BALL_RADII

    def prepare(record, _):
        f = _series(pkg, record["coeffs"], record["radius"])
        return (lambda: (pkg.split_norm(f.with_radius(split_radius)), pkg.sup_norm_ball(f, small),
                         pkg.sup_norm_ball(f, large), pkg.inf_norm_ball(f, large)),
                lambda raw: [report.to_dict() for report in raw])
    return prepare


def _bl_search(pkg, work: Path, tag: str):
    """Prepare a bl-search record for ``pkg``: the CLI call and its exit code and report."""
    cli = importlib.import_module(pkg.__name__ + ".cli")

    def prepare(record, task):
        source, out = work / f"in{task}.json", work / f"out{task}-{tag}.json"
        source.write_text(json.dumps({"radius": record["radius"], "exact": True,
                                      "coeffs": np.asarray(record["coeffs"], float).tolist()}))
        argv = ["search", str(source), "--r", repr(record["r"]), "-o", str(out)]

        def output(code):
            report = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            return [code, report]
        return (lambda: cli.main(argv)), output
    return prepare


def _coverage(pkg):
    """Prepare a coverage record for ``pkg``: the attain call and the preimage it finds."""
    def prepare(record, _):
        f = _series(pkg, record["coeffs"], record["radius"])
        target = pkg.Quaternion(*map(float, record["target"]))
        return (lambda: pkg.attain(f, target, f.radius),
                lambda root: None if root is None else list(root.components))
    return prepare


def _attempt(what: str, build):
    """``build()``, or None where this tree cannot build or run it, said on stderr."""
    try:
        return build()
    except Exception as error:
        print(f"ab.py: {what}: {type(error).__name__}: {error}", file=sys.stderr)
        return None


def _kernel_rows(pkg) -> dict:
    """Each kernel row's name and its call in ``pkg``'s own modules, inputs built once.

    A call looks its kernel up when it runs, so a kernel this tree lacks fails
    that row alone; so does a row whose one untimed call raises."""
    arrays, norms, series, verification = (importlib.import_module(f"{pkg.__name__}.{name}")
                                           for name in ("_arrays", "norms", "series",
                                                        "verification"))
    rng = np.random.default_rng(2024)
    # a normalised series of degree DEGREE + 1, so its derivative has degree DEGREE
    derivative = pkg.slice_derivative(verification.random_series(rng, DEGREE + 1,
                                                                   monic_shift=True))
    rows, at_radius = derivative.rows, derivative.with_radius(RADIUS)
    angles = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    points = rng.standard_normal((64, 4)) * 0.2
    small = verification.random_series(rng, 2)
    shift = pkg.Quaternion(*(rng.standard_normal(4) * 0.1))
    cap = series.DEGREE_CAP
    capped = _series(pkg, rng.uniform(-1.0, 1.0, (cap + 1, 4))
                     / np.arange(1.0, cap + 2.0)[:, None] ** 2, 1.0)
    real = pkg.Series(tuple(rows[:, 0].tolist()), RADIUS)
    aligned = pkg.Series(tuple(np.abs(rows[:, 0]).tolist()), 1.0)
    linear = _series(pkg, rows[:2], RADIUS)
    rooted = _series(pkg, np.concatenate([np.zeros((1, 4)), rows[:-1]]), 1.0)
    corpus = dict(verification.builtin_corpus())
    long_pass = verification.random_series(np.random.default_rng(LONG_PASS_SEED), 4,
                                           monic_shift=True)
    # phi' of the settled steep-cubic search: real, positive coefficients
    steep = pkg.bl_search(corpus["steep-cubic"], 0.99).diagnostics
    dphi = pkg.slice_derivative(_series(pkg, steep["phi_coeffs"], steep["phi_lemma_radius"]))
    target = pkg.Quaternion(0.05, 0.01, -0.01, 0.0)
    table = arrays.circle_table(RADIUS, DEGREE + 1, 256)
    # the scaled rows and radius, units and angles that split_norm starts its ascent from
    starts = []
    norms.slice_norm_ascent = lambda *args: starts.append(args) or arrays.slice_norm_ascent(*args)
    _attempt(f"{pkg.__name__} split_norm", lambda: pkg.split_norm(at_radius))
    norms.slice_norm_ascent = arrays.slice_norm_ascent
    start = starts[0] if starts else None
    terms = _attempt(f"{pkg.__name__} _slice_table", lambda: (
        arrays._slice_table(*start[:2]), arrays._chart(start[2]), start[3]))

    calls = {f"_sphere_max[{n} radii]": lambda radii=np.linspace(RADIUS, 0.0, n, endpoint=False):
             norms._sphere_max(rows, radii) for n in SPHERE_RADII}
    calls.update({
        "_sphere_max[degree 1, 33 radii]": lambda radii=np.linspace(
            RADIUS, 0.0, 33, endpoint=False): norms._sphere_max(rows[:2], radii),
        f"slice_norm[degree {DEGREE}]": lambda: pkg.slice_norm(at_radius, pkg.I),
        "_lattice_scan[2048 units, 256 angles]": lambda: norms._lattice_scan(rows, table),
        "_scan_picks[2048 units, 256 angles]": lambda: norms._scan_picks(rows, RADIUS),
        f"_slice_terms[3 starts, degree {DEGREE}]": lambda: arrays._slice_terms(*terms),
        "slice_norm_ascent[split_norm starts]": lambda: arrays.slice_norm_ascent(*start),
        "split_norm": lambda: pkg.split_norm(at_radius),
        f"split_norm[real, degree {DEGREE}]": lambda: pkg.split_norm(real),
        "split_norm[degree 1]": lambda: pkg.split_norm(linear),
        "split_norm[aligned real, degree 2]": lambda: pkg.split_norm(dphi),
        f"sup_norm_ball[aligned real, degree {DEGREE}]": lambda: pkg.sup_norm_ball(aligned,
                                                                                  RADIUS),
        f"inf_norm_ball[degree {DEGREE}]": lambda: pkg.inf_norm_ball(rooted, RADIUS),
        f"sup_norm_ball[degree {cap}]": lambda: pkg.sup_norm_ball(capped, RADIUS),
        f"inf_norm_ball[degree {cap}]": lambda: pkg.inf_norm_ball(capped, RADIUS),
        f"split_norm[degree {cap}]": lambda: pkg.split_norm(capped.with_radius(RADIUS)),
        "sphere_constants[1024 spheres]": lambda: arrays.sphere_constants(
            rows, RADIUS * np.cos(angles), RADIUS * np.sin(angles)),
        "eval_rows[64 points]": lambda: arrays.eval_rows(rows, points),
        "series algebra[degree 2]": lambda: (
            pkg.star(small, small), pkg.slice_derivative(small),
            pkg.regular_translation(small, shift), small.with_radius(RADIUS)),
        "attain[mixed-units, ball radius 1]": lambda: pkg.attain(corpus["mixed-units"],
                                                                 target, 1.0),
        "bl_search[mixed-units, r=0.99]": lambda: pkg.bl_search(corpus["mixed-units"], 0.99),
        "bl_search[mixed-units, r=0.6]": lambda: pkg.bl_search(corpus["mixed-units"], 0.6),
        "bl_search[quadratic-j, r=0.99]": lambda: pkg.bl_search(corpus["quadratic-j"], 0.99),
        "bl_search[steep-cubic, r=0.99]": lambda: pkg.bl_search(corpus["steep-cubic"], 0.99),
        "bl_search[long second pass]": lambda: pkg.bl_search(long_pass, 0.99),
    })
    return {name: _attempt(f"{pkg.__name__} {name}", lambda call=call: (call(), call)[1])
            for name, call in calls.items()}


def _alternate(tasks: dict) -> tuple[dict, dict]:
    """Each tree's least seconds and last plain output per task over ROUNDS rounds.

    ``tasks[tag]`` lists, per task, its call in the tree ``tag`` and the plain form
    of its result, or None where the tree cannot run it (its time stays inf). Each
    round runs every task once in each tree, back to back, the tree that goes first
    alternating from task to task and round to round."""
    count = len(tasks["this"])
    best = {tag: np.full(count, np.inf) for tag in tasks}
    outputs = {tag: [None] * count for tag in tasks}
    gc.collect()
    gc.disable()
    try:
        for turn in range(ROUNDS):
            for task in range(count):
                for tag in list(tasks)[::1 if (turn + task) % 2 == 0 else -1]:
                    if tasks[tag][task] is None:
                        continue
                    call, output = tasks[tag][task]
                    start = time.perf_counter()
                    raw = call()
                    best[tag][task] = min(best[tag][task], time.perf_counter() - start)
                    outputs[tag][task] = output(raw)
            gc.collect()
    finally:
        gc.enable()
    return best, outputs


def _move(this, other, leaf, moves: dict | None, path: str) -> float:
    """The largest ``leaf(a, b)`` over the numeric leaves a, b of two outputs, 0 if they
    are equal; a difference in shape or in a leaf that is not a number is inf. Each
    leaf path that moved (its keys joined by ".", list indices written "*") keeps its
    largest move in ``moves``, if given."""
    if this == other:
        return 0.0
    if isinstance(this, dict) and isinstance(other, dict) and this.keys() == other.keys():
        return max(_move(this[key], other[key], leaf, moves, f"{path}.{key}") for key in this)
    if isinstance(this, list) and isinstance(other, list) and len(this) == len(other):
        return max(_move(a, b, leaf, moves, f"{path}.*") for a, b in zip(this, other))
    move = math.inf
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (this, other)):
        move = leaf(this, other)
    if moves is not None:
        moves[path[1:]] = max(moves.get(path[1:], 0.0), move)
    return move


def _rel_move(this, other, moves: dict | None = None, path: str = "") -> float:
    """The largest |a - b| / min(|a|, |b|) over the numeric leaves of two outputs
    (``_move``), inf where the smaller is 0."""
    def relative(a, b):
        floor = min(abs(a), abs(b))
        return abs(a - b) / floor if floor else math.inf
    return _move(this, other, relative, moves, path)


def _abs_move(this, other) -> float:
    """The largest |a - b| over the numeric leaves of two outputs (``_move``)."""
    return _move(this, other, lambda a, b: abs(a - b), None, "")


def compare(workload: str, seed: int, corpus, trees: dict, work: Path) -> dict:
    """Time and diff the first RECORDS[workload] records of ``seed`` in both trees."""
    records = list(itertools.islice(corpus.generate(workload, seed), RECORDS[workload]))
    preparers = {tag: (_slice_norms(corpus, pkg) if workload == "slice-norms"
                       else _bl_search(pkg, work, tag) if workload == "bl-search"
                       else _coverage(pkg)) for tag, pkg in trees.items()}
    best, outputs = _alternate({tag: [prepare(record, task) for task, record in enumerate(records)]
                                for tag, prepare in preparers.items()})
    diffs = [{"task": task, "this": this, "other": other}
             for task, (this, other) in enumerate(zip(outputs["this"], outputs["other"]))
             if this != other]
    # a bl-search output is [exit code, report text or None]
    parse = ((lambda out: {"exit": out[0], **json.loads(out[1] or "{}")})
             if workload == "bl-search" else (lambda out: out))
    moves = {}
    pairs = [(parse(d["this"]), parse(d["other"])) for d in diffs]
    max_move = max((_rel_move(this, other, moves) for this, other in pairs), default=0.0)
    max_abs = max((_abs_move(this, other) for this, other in pairs), default=0.0)
    this_s, other_s = float(best["this"].sum()), float(best["other"].sum())
    result = {"tasks": len(records), "this_s": round(this_s, 4), "other_s": round(other_s, 4),
              "ratio": round(this_s / other_s, 4)}
    if workload == "bl-search":
        result["mu_radii"] = _mu_radii(outputs)
    return {**result, "faster": int(np.count_nonzero(best["this"] < best["other"])),
            "moved": len(diffs), "max_rel_move": max_move, "max_abs_move": max_abs,
            "moves": moves, "diffs": diffs}


def _mu_radii(outputs: dict) -> dict:
    """Each tree's ``mu_radii`` (coarse pass, second pass, root) summed over the bl-search
    reports it wrote, and this tree's sums less the other's."""
    sums = {tag: np.array([json.loads(report)["diagnostics"]["mu_radii"]
                           for _, report in outputs[tag] if report], dtype=int)
            .reshape(-1, 3).sum(axis=0).tolist() for tag in outputs}
    return {**sums, "diff": [a - b for a, b in zip(sums["this"], sums["other"])]}


def kernels(trees: dict) -> dict:
    """Each kernel row's least milliseconds per call in both trees, and their ratio."""
    rows = {tag: _attempt(f"{pkg.__name__} kernel rows", lambda pkg=pkg: _kernel_rows(pkg)) or {}
            for tag, pkg in trees.items()}
    names = list(dict.fromkeys(itertools.chain(*rows.values())))
    best, _ = _alternate({tag: [call and (lambda call=call: [call() for _ in range(CALLS)],
                                          lambda raw: None)
                                for call in map(rows[tag].get, names)] for tag in trees})

    def ms(seconds):
        return round(1e3 * seconds / CALLS, 4) if math.isfinite(seconds) else None
    return {name: {"this_ms": ms(this), "other_ms": ms(other),
                   "ratio": round(this / other, 4) if math.isfinite(this + other) else None}
            for name, this, other in zip(names, best["this"].tolist(), best["other"].tolist())}


def main(other_tree) -> dict:
    other = Path(other_tree).resolve()
    corpus = _load("corpus", ROOT / "perfbench" / "corpus.py")
    trees = {"this": quatregular, "other": _load("qr_other", other / "src" / "quatregular" /
                                                  "__init__.py")}
    result = {"this": str(ROOT), "other": str(other), "rounds": ROUNDS, "calls": CALLS,
              "seeds": list(SEEDS), "records": dict(RECORDS), "numpy": np.__version__}
    with tempfile.TemporaryDirectory() as work:
        for workload in RECORDS:
            result[workload] = {str(seed): compare(workload, seed, corpus, trees, Path(work))
                                for seed in SEEDS}
    result["kernels"] = kernels(trees)
    return result


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/ab.py OTHER_TREE")
    print(json.dumps(main(sys.argv[1]), indent=1))
