"""quatregular benchmark: one seeded workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload slice-norms --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy can be imported by anything.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The loop has one caller, so the process (and the set-up probes, which inherit
# this) stays on one CPU: migrating between CPUs made runs slower and noisier.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import gc
import hashlib
import itertools
import json
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TRACES = HERE / "_traces"

WORKLOAD_NAMES = ("slice-norms", "bl-search", "coverage", "series-algebra")
# A run does a fixed amount of work: whole corpus blocks (corpus.BLOCK) whose
# calibrated cost at the seed commit (seconds per task, below) adds up to about
# --seconds. The same seed and --seconds give the same tasks on every machine
# and every commit, so attempted and failed depend on the code alone.
NOMINAL_TASK_S = {"slice-norms": 0.53, "bl-search": 0.62, "coverage": 0.0025,
                  "series-algebra": 0.0025}
END_TO_END = (("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_p50_ms", "ms"),
              ("task_tail_ms", "ms"), ("passed_frac", "ratio"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5
TRACED_TASK_CAP = 400


def task_count(workload: str, seconds: float) -> int:
    """Tasks in a run: whole blocks of the workload's corpus, at least one."""
    import corpus

    block = corpus.BLOCK[workload]
    return block * max(1, round(seconds / (NOMINAL_TASK_S[workload] * block)))


def _import_package():
    """Import quatregular from ./src, refusing any other copy."""
    if not (SRC / "quatregular" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'quatregular'}")
    sys.path.insert(0, str(SRC))
    import quatregular

    if Path(quatregular.__file__).resolve().parent != (SRC / "quatregular").resolve():
        raise SystemExit(f"error: imported quatregular from {quatregular.__file__}")
    return quatregular


def _plain(value):
    """JSON fallback for numpy values in outputs."""
    return value.tolist()


def setup_probe(workload: str, workdir: Path) -> None:
    """Child process: time import quatregular plus one warm-up task.

    The timer covers the package import (workloads.py adds quatregular.cli)
    and the warm-up call with its output; the warm-up input is prepared
    outside it. The time printed is calibrated by probes run afterwards.
    """
    start = time.perf_counter()
    _import_package()
    import workloads

    imported = time.perf_counter() - start
    import calibrate
    import corpus

    wl = workloads.WORKLOADS[workload](workdir)
    inp = wl.prepare(corpus.WARMUP[workload], -1)
    start = time.perf_counter()
    wl.output(inp, wl.call(inp))
    elapsed = imported + time.perf_counter() - start
    calibrate.warm_up(1)
    probes = [calibrate.probe() for _ in range(2 * calibrate.PROBE_WINDOW + 1)]
    print(repr(elapsed), repr(elapsed * calibrate.scale(probes, calibrate.PROBE_WINDOW)))


def measure_setup(workload: str, workdir: Path) -> list[tuple[float, float]]:
    """(wall, calibrated) set-up seconds of SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-probe", str(workdir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
        wall, calibrated = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(wall), float(calibrated)))
    return times


class Checker:
    """The output checks, run in a child process (see check_server).

    One request, a batch of (record, output) pairs, is in flight at a time,
    so the checker never runs while a task is timed, and its memory is not
    the measured process's. Requests and replies are pickles on the child's
    standard input and output.
    """

    def __init__(self, workload: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--check"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        if self._reply() != "ready":
            self.close()
            raise SystemExit("error: the output checker did not start")

    def _reply(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise SystemExit("error: the output checker exited") from None

    def __call__(self, batch: list) -> list[list[str]]:
        """The problems of each (record, output) pair of batch."""
        pickle.dump(batch, self.proc.stdin)
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def check_server(workload: str) -> None:
    """Child process: a pickled batch of (record, output) pairs in, the list
    of problems of each out."""
    import checks

    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    pickle.dump("ready", replies)
    replies.flush()
    while True:
        try:
            batch = pickle.load(requests)
        except EOFError:
            return
        pickle.dump([checks.check(workload, rec, out) for rec, out in batch], replies)
        replies.flush()


def machine_record(workload: str, seed: int) -> dict:
    import numpy as np

    import calibrate

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "quatregular").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "reference_probe_s": calibrate.REFERENCE_PROBE_S,
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Runner:
    """Closed loop with one caller over a workload's record stream."""

    def __init__(self, wl, workload: str, seed: int, checker: Checker):
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.checker = checker
        self.probes = []  # calibration probe times of the last loop

    def task(self, inp, idx: int, tracer=None):
        """Run one prepared input; returns (wall seconds, raw result or None,
        error or None)."""
        clock = time.perf_counter
        start = clock()
        try:
            raw = tracer.run_task(idx, self.wl.call, inp) if tracer else self.wl.call(inp)
        except Exception as exc:  # a raising task is a failed task; the run goes on
            return clock() - start, None, f"{type(exc).__name__}: {exc}"
        return clock() - start, raw, None

    def loop(self, count: int, tracer=None, keep: bool = False):
        """Run and check the first count records of the seed's stream in
        batches of about calibrate.PROBE_EVERY_S of task time. Before a batch
        its inputs are built; the batch's tasks then run back to back, a
        calibration probe runs right after them, and their outputs are
        converted and checked. Only the tasks are timed. Per-task results
        are kept in flat arrays, so the benchmark adds few objects to the
        heap that the program's garbage collection scans. Returns (wall busy
        seconds, calibrated task seconds, {task index: problems} for failed
        tasks, outputs as JSON if keep else None).
        """
        import calibrate
        import corpus

        batch = max(1, round(calibrate.PROBE_EVERY_S / NOMINAL_TASK_S[self.workload]))
        records = itertools.islice(corpus.generate(self.workload, self.seed), count)
        elapsed, probe_at = array("d"), array("l")
        probes, problems = [], {}
        kept = [] if keep else None
        calibrate.warm_up()
        gc.collect()
        while True:
            recs = list(itertools.islice(records, batch))
            if not recs:
                break
            first = len(elapsed)
            inputs = [self.wl.prepare(rec, first + k) for k, rec in enumerate(recs)]
            results = []
            for k, inp in enumerate(inputs):
                seconds, raw, error = self.task(inp, first + k, tracer)
                elapsed.append(seconds)
                probe_at.append(len(probes))
                results.append((raw, error))
            probes.append(calibrate.probe())
            pending = []
            for k, (rec, inp, (raw, error)) in enumerate(zip(recs, inputs, results)):
                out = None if error else self.wl.output(inp, raw)
                if keep:
                    kept.append(json.dumps([out, error], default=_plain))
                if error:
                    problems[first + k] = [error]
                else:
                    pending.append((first + k, rec, out))
            for (idx, _, _), found in zip(pending, self.checker([(rec, out) for _, rec, out
                                                                 in pending])):
                if found:
                    problems[idx] = found
        calibrated = [t * calibrate.scale(probes, k) for t, k in zip(elapsed, probe_at)]
        self.probes = probes
        return sum(elapsed), calibrated, problems, kept


def _report_failures(problems: dict) -> tuple[int, bool]:
    """Print each failed task; return the failed count and whether every
    failure is a known extremum miss (checks.KNOWN_DEFECT)."""
    import checks

    known_only = True
    for idx in sorted(problems):
        known_only &= all(p.startswith(checks.KNOWN_DEFECT) for p in problems[idx])
        print(f"FAIL task {idx}: {'; '.join(problems[idx])}")
    return len(problems), known_only


def run_plain(args, runner, workdir) -> tuple[dict, int, int, bool]:
    import stats

    setups = measure_setup(args.workload, workdir)
    busy, latencies, problems, _ = runner.loop(task_count(args.workload, args.seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, correct = _report_failures(problems)
    attempted = len(latencies)
    tail = stats.tail_percentile(attempted)
    values = {
        "setup_s": statistics.median(calibrated for _, calibrated in setups),
        "tasks_per_s": (attempted - failed) / sum(latencies),
        "task_p50_ms": 1e3 * stats.percentile(latencies, 50.0),
        "task_tail_ms": 1e3 * stats.percentile(latencies, tail),
        "passed_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    print(json.dumps({"tail": {"percentile": tail, "tasks": attempted,
                               "tasks_beyond": stats.tasks_beyond(attempted, tail)},
                      "failed_frac": failed / attempted,
                      "wall": {"busy_s": busy, "tasks_per_s": (attempted - failed) / busy,
                               "setup_s": statistics.median(wall for wall, _ in setups),
                               "probe_s": statistics.quantiles(runner.probes, n=4)},
                      "setup_samples_s": setups}))
    return metrics, attempted, failed, correct


def run_traced(args, runner) -> tuple[dict, int, int, bool]:
    """Untraced pass, then the same records again under the tracer."""
    import numpy as np

    import tracing

    count = min(TRACED_TASK_CAP, max(1, task_count(args.workload, args.seconds) // 2))
    _, plain, _, plain_out = runner.loop(count, keep=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced, problems, traced_out = runner.loop(count, tracer=tracer, keep=True)
    finally:
        tracer.uninstall()
    for idx, (untraced, out) in enumerate(zip(plain_out, traced_out)):
        if out != untraced:
            problems.setdefault(idx, []).append("traced output differs from untraced output")
    failed, correct = _report_failures(problems)
    spans = tracer.arrays()
    TRACES.mkdir(exist_ok=True)
    np.savez_compressed(TRACES / f"{args.workload}-seed{args.seed}.npz", **spans)
    layer = tracing.layer_metrics(spans, len(traced))
    layer["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    shares = {k[:-len(".self_s")]: v for k, v in layer.items()
              if k.count(".") == 1 and k.endswith(".self_s")}
    total = sum(shares.values())
    print(json.dumps({"self_share": {k: v / total for k, v in
                                     sorted(shares.items(), key=lambda kv: -kv[1])},
                      "spans": len(spans["name"]), "tasks": len(traced)}))
    metrics = {name: (layer.get(name, 0.0), unit) for name, unit in tracing.PER_LAYER}
    return metrics, len(traced), failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, Path(args.setup_probe))
        return 0
    if args.check:
        check_server(args.workload)
        return 0

    _import_package()
    import corpus
    import workloads

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    checker = None
    try:
        record = machine_record(args.workload, args.seed)
        wl = workloads.WORKLOADS[args.workload](workdir)
        warm = wl.prepare(corpus.WARMUP[args.workload], -1)
        wl.output(warm, wl.call(warm))
        checker = Checker(args.workload)
        runner = Runner(wl, args.workload, args.seed, checker)
        if args.trace:
            metrics, attempted, failed, correct = run_traced(args, runner)
        else:
            metrics, attempted, failed, correct = run_plain(args, runner, workdir)
    finally:
        if checker is not None:
            checker.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    record["tasks"] = attempted
    print(json.dumps({"record": record}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
