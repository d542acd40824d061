"""Machine-speed calibration: task times scaled to a fixed reference speed.

A shared host runs this process at a speed that drifts by 10-25% between
minutes, with the load of its other tenants. Task times are therefore
measured next to a fixed probe, pure Python and numpy in the proportions the
workloads use, that imports nothing from quatregular. A task's calibrated
time is its wall time times REFERENCE_PROBE_S over the median time of the
probes around it: the time the task would take on a machine where the probe
takes REFERENCE_PROBE_S. The probe never changes with the program, so a
faster program gives proportionally smaller calibrated times.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_PROBE_S = 0.005
# seconds of task time between two probes
PROBE_EVERY_S = 0.2
# probes on each side of a task that set its local speed
PROBE_WINDOW = 3

_ROWS = np.linspace(0.0, 1.0, 8192).reshape(2048, 4)


@dataclass(frozen=True)
class _Quat:
    a: float
    b: float
    c: float
    d: float

    def __mul__(self, o):
        return _Quat(self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d,
                     self.a * o.b + self.b * o.a + self.c * o.d - self.d * o.c,
                     self.a * o.c - self.b * o.d + self.c * o.a + self.d * o.b,
                     self.a * o.d + self.b * o.c - self.c * o.b + self.d * o.a)

    def __add__(self, o):
        return _Quat(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)


def _work() -> float:
    """A fixed mix: products and sums of small immutable quaternion objects,
    row-wise numpy on 2048 x 4 arrays and numpy calls on 4-vectors."""
    xs = [_Quat(0.001 * k, 0.2, 0.3, 0.4) for k in range(80)]
    acc = _Quat(0.0, 0.0, 0.0, 0.0)
    for x in xs:
        for y in xs[::10]:
            acc = acc + x * y
    total = acc.a
    for _ in range(30):
        total += float((np.sqrt(np.einsum("ij,ij->i", _ROWS, _ROWS)) * _ROWS[:, 0]).max())
    v = np.ones(4)
    for _ in range(400):
        v = np.abs(v * 0.999 + 0.001)
    return total + float(v[0])


def probe() -> float:
    """Wall time of the fixed work, run twice back to back: the second run,
    after the first has brought its code and data back into the caches. The
    garbage collector is paused, so that a collection of the program's heap
    never lands in a probe."""
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def warm_up(runs: int = 3) -> None:
    for _ in range(runs):
        _work()


def scale(probes: list[float], index: int) -> float:
    """Factor from wall time to calibrated time for a task that ran after probe
    number index: REFERENCE_PROBE_S over the median of the probes around it."""
    window = probes[max(0, index - PROBE_WINDOW):index + PROBE_WINDOW + 1]
    return REFERENCE_PROBE_S / statistics.median(window)
