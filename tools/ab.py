"""Compare this source tree with another on the benchmark records, in one process.

    python3 tools/ab.py OTHER_TREE

This tree's ``quatregular`` is imported from its ``src``, and OTHER_TREE's
(``OTHER_TREE/src/quatregular``) is loaded beside it as the package
``qr_other`` with ``importlib.util.spec_from_file_location``, which works
because the package imports itself only relatively. The records are the
first RECORDS of each workload's corpus stream for every seed in SEEDS, read
from this tree's ``perfbench/corpus.py`` (which imports numpy alone); nothing
under ``perfbench/`` is edited. Each task is the workload's call:

- slice-norms: ``split_norm`` on the ball of radius ``SPLIT_RADIUS``,
  ``sup_norm_ball`` at both ``BALL_RADII`` and ``inf_norm_ball`` at the
  larger, its output the four reports (value, method, resolution and
  ``certified_tol``);
- bl-search: ``quatregular search FILE --r R -o OUT`` through ``cli.main``,
  its output the exit code and the report's bytes (both trees read the same
  input path).

Over ROUNDS rounds every task runs once in each tree, the two back to back,
with the tree that goes first alternating from task to task and round to
round. BLAS is pinned to one thread and the process to one CPU, as in
``perfbench/run.py``. Prints one JSON object: for each workload and seed, the
sum over tasks of each tree's per-task minimum seconds, their ratio (this
tree over the other), the number of tasks where this tree's minimum is the
smaller, ``moved``, the number of tasks whose output differs between the
trees, ``max_rel_move``, the largest relative change |a - b| / min(|a|, |b|)
over the numeric leaves of those outputs (bl-search reports parsed as JSON; a
difference in shape or in a leaf that is not a number counts as inf), and
every task whose output differs, with both outputs.
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
RECORDS = {"slice-norms": 96, "bl-search": 72}
ROUNDS = 5


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


def _rel_move(this, other) -> float:
    """The largest |a - b| / min(|a|, |b|) over the numeric leaves of two outputs, 0 if
    they are equal; a difference in shape or in a leaf that is not a number is inf."""
    if this == other:
        return 0.0
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (this, other)):
        floor = min(abs(this), abs(other))
        return abs(this - other) / floor if floor else math.inf
    if isinstance(this, dict) and isinstance(other, dict) and this.keys() == other.keys():
        return max(_rel_move(this[key], other[key]) for key in this)
    if isinstance(this, list) and isinstance(other, list) and len(this) == len(other):
        return max(map(_rel_move, this, other))
    return math.inf


def compare(workload: str, seed: int, corpus, trees: dict, work: Path) -> dict:
    """Time and diff the first RECORDS[workload] records of ``seed`` in both trees."""
    records = list(itertools.islice(corpus.generate(workload, seed), RECORDS[workload]))
    preparers = {tag: (_slice_norms(corpus, pkg) if workload == "slice-norms"
                       else _bl_search(pkg, work, tag)) for tag, pkg in trees.items()}
    best = {tag: np.full(len(records), np.inf) for tag in trees}
    outputs = {tag: [None] * len(records) for tag in trees}
    gc.collect()
    gc.disable()
    try:
        for turn in range(ROUNDS):
            for task, record in enumerate(records):
                order = list(trees) if (turn + task) % 2 == 0 else list(trees)[::-1]
                for tag in order:
                    call, output = preparers[tag](record, task)
                    start = time.perf_counter()
                    raw = call()
                    best[tag][task] = min(best[tag][task], time.perf_counter() - start)
                    outputs[tag][task] = output(raw)
            gc.collect()
    finally:
        gc.enable()
    diffs = [{"task": task, "this": this, "other": other}
             for task, (this, other) in enumerate(zip(outputs["this"], outputs["other"]))
             if this != other]
    # a bl-search output is [exit code, report text or None]
    parse = ((lambda out: out) if workload == "slice-norms"
             else (lambda out: [out[0], out[1] and json.loads(out[1])]))
    moves = [_rel_move(parse(d["this"]), parse(d["other"])) for d in diffs]
    this_s, other_s = float(best["this"].sum()), float(best["other"].sum())
    return {"tasks": len(records), "this_s": round(this_s, 4), "other_s": round(other_s, 4),
            "ratio": round(this_s / other_s, 4),
            "faster": int(np.count_nonzero(best["this"] < best["other"])),
            "moved": len(diffs), "max_rel_move": max(moves, default=0.0), "diffs": diffs}


def main(other_tree) -> dict:
    other = Path(other_tree).resolve()
    corpus = _load("corpus", ROOT / "perfbench" / "corpus.py")
    trees = {"this": quatregular, "other": _load("qr_other", other / "src" / "quatregular" /
                                                  "__init__.py")}
    result = {"this": str(ROOT), "other": str(other), "rounds": ROUNDS, "seeds": list(SEEDS),
              "records": dict(RECORDS)}
    with tempfile.TemporaryDirectory() as work:
        for workload in RECORDS:
            result[workload] = {str(seed): compare(workload, seed, corpus, trees, Path(work))
                                for seed in SEEDS}
    return result


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/ab.py OTHER_TREE")
    print(json.dumps(main(sys.argv[1]), indent=1))
