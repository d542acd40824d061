"""Series files: JSON with a radius and coefficient rows; an old boolean "exact" is ignored."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import SeriesFormatError
from .series import Series, _from_rows


def series_to_dict(f: Series) -> dict:
    return {"radius": f.radius, "coeffs": f.rows.tolist()}


def _finite(value) -> float | None:
    """The value as a finite float, or None for non-numbers, NaN and infinities."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    return None


def series_from_dict(payload: dict, source: str = "<payload>") -> Series:
    if not isinstance(payload, dict):
        raise SeriesFormatError(f"{source}: expected a JSON object")
    for key in ("radius", "coeffs"):
        if key not in payload:
            raise SeriesFormatError(f"{source}: missing field '{key}'")
    radius = _finite(payload["radius"])
    if radius is None or radius <= 0:
        raise SeriesFormatError(f"{source}: field 'radius' must be a positive finite number")
    if not isinstance(payload.get("exact", True), bool):
        raise SeriesFormatError(f"{source}: field 'exact' must be a boolean")
    rows = payload["coeffs"]
    if not isinstance(rows, list) or not rows:
        raise SeriesFormatError(f"{source}: field 'coeffs' must be a nonempty list")
    for idx, row in enumerate(rows):
        values = [_finite(v) for v in row] if isinstance(row, list) else []
        if len(values) != 4 or None in values:
            raise SeriesFormatError(
                f"{source}: coeffs[{idx}] must be a list of four finite numbers")
    # the rows are lists of four finite ints and floats, which float() and numpy convert alike
    return _from_rows(np.array(rows, dtype=float), radius)


def load_series(path) -> Series:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SeriesFormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SeriesFormatError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                                f"{exc.msg}") from exc
    except RecursionError as exc:
        raise SeriesFormatError(f"{path}: JSON nested too deeply") from exc
    return series_from_dict(payload, source=str(path))


def _json_text(payload) -> str:
    """Series files and reports as indented, sorted JSON; a ValueError on a non-finite number."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_series(f: Series, path) -> None:
    Path(path).write_text(_json_text(series_to_dict(f)))
