"""The four workloads: how a corpus record becomes a quatregular call.

Each workload has prepare (record -> program inputs, untimed), call (the
timed task) and output (raw result -> plain data, untimed). The checks
of those outputs are in checks.py.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import quatregular as qr
import quatregular.cli
from corpus import BALL_RADII, SPLIT_RADIUS


def _series(coeffs, radius: float) -> qr.Series:
    return qr.Series(tuple(qr.Quaternion(*(float(v) for v in row)) for row in coeffs),
                     float(radius))


def _rows(quats) -> list:
    return [list(q.components) for q in quats]


class SliceNorms:
    """split_norm at its defaults, sup_norm_ball at two radii, inf_norm_ball at one."""

    def __init__(self, workdir: Path):
        pass

    def prepare(self, rec: dict, idx: int):
        return _series(rec["coeffs"], rec["radius"])

    def call(self, f):
        return (qr.split_norm(f.with_radius(SPLIT_RADIUS)), qr.sup_norm_ball(f, BALL_RADII[0]),
                qr.sup_norm_ball(f, BALL_RADII[1]), qr.inf_norm_ball(f, BALL_RADII[1]))

    def output(self, f, raw):
        return [[r.value, r.certified_tol] for r in raw]


class BLSearch:
    """`quatregular search FILE --r R -o OUT`, in-process through cli.main."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def prepare(self, rec: dict, idx: int):
        src = self.workdir / f"in{idx}.json"
        src.write_text(json.dumps({"radius": rec["radius"], "exact": True,
                                   "coeffs": np.asarray(rec["coeffs"], float).tolist()}))
        out = self.workdir / f"out{idx}.json"
        return ["search", str(src), "--r", repr(rec["r"]), "-o", str(out)], src, out

    def call(self, inp):
        return quatregular.cli.main(inp[0])

    def output(self, inp, raw):
        _, src, out = inp
        src.unlink()
        if not out.exists():
            return [raw, None]
        report = out.read_text()
        out.unlink()
        return [raw, report]


class Coverage:
    """One bloch.attain(f, target, f.radius) call per task."""

    def __init__(self, workdir: Path):
        pass

    def prepare(self, rec: dict, idx: int):
        return _series(rec["coeffs"], rec["radius"]), qr.Quaternion(*map(float, rec["target"]))

    def call(self, inp):
        f, target = inp
        return qr.attain(f, target, f.radius)

    def output(self, inp, raw):
        return None if raw is None else list(raw.components)


class SeriesAlgebra:
    """The exact scalar facade: star, conjugates, evaluation, splitting,
    sphere constants, the representation formula and regular translation."""

    def __init__(self, workdir: Path):
        pass

    def prepare(self, rec: dict, idx: int):
        return {
            "f": _series(rec["f"], rec["radius"]),
            "g": _series(rec["g"], rec["radius"]),
            "q": qr.Quaternion(*map(float, rec["q"])),
            "w": qr.Quaternion(*map(float, rec["w"])),
            "I": qr.UnitImaginary.from_vector(*map(float, rec["unit_i"])),
            "J": qr.UnitImaginary.from_vector(*map(float, rec["unit_j"])),
            "xy": tuple(map(float, rec["xy"])),
        }

    def call(self, inp):
        f, g, (x, y) = inp["f"], inp["g"], inp["xy"]
        pair = qr.split(f, inp["I"])
        return {
            "star": qr.star(f, g),
            "symmetrization": qr.symmetrization(f),
            "regular_conjugate": qr.regular_conjugate(g),
            "evaluate": qr.evaluate(f, inp["q"]),
            "slice_derivative": qr.slice_derivative(f),
            "split": pair,
            "ext_from_slice": qr.ext_from_slice(pair.F, pair.G, pair.I, pair.J),
            "sphere_pair": qr.sphere_pair(f, x, y),
            "representation_eval": qr.representation_eval(f, x, y, inp["J"], inp["I"]),
            "regular_translation": qr.regular_translation(f, inp["w"]),
        }

    def output(self, inp, raw):
        pair, sp, trans = raw["split"], raw["sphere_pair"], raw["regular_translation"]
        out = {k: _rows(raw[k].coeffs) for k in
               ("star", "symmetrization", "regular_conjugate", "slice_derivative",
                "ext_from_slice")}
        out["evaluate"] = list(raw["evaluate"].components)
        out["representation_eval"] = list(raw["representation_eval"].components)
        out["split"] = [[[a.real, a.imag] for a in pair.F.coeffs],
                        [[b.real, b.imag] for b in pair.G.coeffs],
                        list(pair.J.components)]
        out["sphere_pair"] = [list(sp.b.components), list(sp.c.components)]
        out["regular_translation"] = _rows(trans.coeffs) + [[trans.radius, 0.0, 0.0, 0.0]]
        return out


WORKLOADS = {
    "slice-norms": SliceNorms,
    "bl-search": BLSearch,
    "coverage": Coverage,
    "series-algebra": SeriesAlgebra,
}
