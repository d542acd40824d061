"""Outside-in span tracing of quatregular's module-level functions.

The tracer wraps every public function defined in each layer module and
installs the wrapper at every module-namespace binding of the original
function object inside the package, because bloch, norms and cli import
names directly. Methods of Quaternion, Series and the other classes are not
wrapped, so their time is self time of the layer that called them. Spans live
in flat in-memory arrays and are saved once, when the run ends.

No layer here has a queue: every call runs to completion on the caller's
thread, so there is no waiting time to report, only busy (self) time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# layer modules, as (metric prefix, module name); "arrays" names quatregular._arrays
LAYERS = (
    ("quaternions", "quatregular.quaternions"),
    ("series", "quatregular.series"),
    ("arrays", "quatregular._arrays"),
    ("slices", "quatregular.slices"),
    ("norms", "quatregular.norms"),
    ("bloch", "quatregular.bloch"),
    ("serialization", "quatregular.serialization"),
    ("cli", "quatregular.cli"),
)
TASK = "task"

# the per-layer metrics a traced run reports, with their units
PER_LAYER = [(f"{prefix}.{kind}", unit) for prefix, _ in LAYERS
             for kind, unit in (("self_s", "s/task"), ("calls", "calls/task"))] + [
    ("norms.split_norm.self_s", "s/task"),
    ("norms.split_norm.calls", "calls/task"),
    ("slices.split.calls", "calls/task"),
    ("norms.sup_norm_ball.self_s", "s/task"),
    ("norms.sup_norm_ball.calls", "calls/task"),
    ("norms.inf_norm_ball.self_s", "s/task"),
    ("arrays.sphere_constants.calls", "calls/task"),
    ("arrays.sphere_constants.rows", "rows/call"),
    ("arrays.eval_rows.calls", "calls/task"),
    ("arrays.eval_rows.rows", "rows/call"),
    ("arrays.eval_rows.self_s", "s/task"),
    ("bloch.attain.calls", "calls/task"),
    ("bloch.attain.hit_ratio", "ratio"),
    ("bloch.bl_search.self_s", "s/task"),
    ("series.star.self_s", "s/task"),
    ("series.evaluate.calls", "calls/task"),
    ("slices.regular_translation.self_s", "s/task"),
    ("quaternions.sphere_sample.self_s", "s/task"),
    ("trace.overhead_frac", "ratio"),
]


def _sphere_rows(args, kwargs, result) -> float:
    """Spheres per sphere_constants(coeffs, x, y) call: the length of x."""
    return float(np.size(args[1]))


def _point_rows(args, kwargs, result) -> float:
    """Points per eval_rows(coeffs, points) call."""
    return float(np.atleast_2d(args[1]).shape[0])


def _hit(args, kwargs, result) -> float:
    return float(result is not None)


# per-call notes recorded for the functions whose per-layer metrics need them
NOTES = {
    "arrays.sphere_constants": _sphere_rows,
    "arrays.eval_rows": _point_rows,
    "bloch.attain": _hit,
}


class Tracer:
    """Span recorder; install() wraps the package, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = [TASK]
        self.name_ids = {TASK: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.note = array("d")
        self.stack: list[int] = []
        self.current_task = -1
        self._bindings: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.current_task)
        self.start.append(0.0)
        self.end.append(0.0)
        self.note.append(float("nan"))
        self.stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if note is not None:
                self.note[idx] = note(args, kwargs, result)
            return result

        return traced

    def run_task(self, task_id: int, fn, *args):
        """Call fn(*args) under a root span carrying task_id."""
        self.current_task = task_id
        idx = self._open(0)
        self.start[idx] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()
            self.current_task = -1

    def install(self) -> None:
        wrappers = {}
        for prefix, module_name in LAYERS:
            module = sys.modules[module_name]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module_name):
                    wrappers[id(obj)] = (obj, self._wrap(f"{prefix}.{attr}", obj))
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.split(".")[0] == "quatregular":
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "note": np.frombuffer(self.note, dtype=float).copy(),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come from one thread, so the children of a span are disjoint; each
    child is clipped to its parent's interval before it is subtracted.
    """
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    parent = np.asarray(parent, int)
    out = end - start
    has = parent >= 0
    p = parent[has]
    covered = np.clip(np.minimum(end[has], end[p]) - np.maximum(start[has], start[p]), 0.0, None)
    np.subtract.at(out, p, covered)
    return out


def layer_metrics(spans: dict, tasks: int) -> dict:
    """Per-task self time and calls per layer and per function, plus row and hit notes."""
    names = list(spans["names"])
    own = self_times(spans["start"], spans["end"], spans["parent"])
    name_of = spans["name"]
    out: dict[str, float] = {}
    per_name_self = np.bincount(name_of, weights=own, minlength=len(names))
    per_name_calls = np.bincount(name_of, minlength=len(names))
    for prefix, _ in LAYERS:
        ids = [i for i, n in enumerate(names) if n.startswith(prefix + ".")]
        out[f"{prefix}.self_s"] = float(per_name_self[ids].sum()) / tasks
        out[f"{prefix}.calls"] = float(per_name_calls[ids].sum()) / tasks
    out["task.self_s"] = float(per_name_self[0]) / tasks
    for i, n in enumerate(names[1:], start=1):
        out[f"{n}.self_s"] = float(per_name_self[i]) / tasks
        out[f"{n}.calls"] = float(per_name_calls[i]) / tasks
    for n, note in NOTES.items():
        key = "hit_ratio" if note is _hit else "rows"
        mask = name_of == names.index(n) if n in names else np.zeros(len(name_of), bool)
        out[f"{n}.{key}"] = float(spans["note"][mask].mean()) if mask.any() else 0.0
    return out
