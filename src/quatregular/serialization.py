"""Series files: JSON with a radius, rows of four coefficients, and an exact flag."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import SeriesFormatError
from .quaternions import Quaternion
from .series import Series


def series_to_dict(f: Series) -> dict:
    return {
        "radius": f.radius,
        "coeffs": f.rows.tolist(),
        "exact": f.exact,
    }


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
    exact = payload.get("exact", True)
    if not isinstance(exact, bool):
        raise SeriesFormatError(f"{source}: field 'exact' must be a boolean")
    rows = payload["coeffs"]
    if not isinstance(rows, list) or not rows:
        raise SeriesFormatError(f"{source}: field 'coeffs' must be a nonempty list")
    coeffs = []
    for idx, row in enumerate(rows):
        values = [_finite(v) for v in row] if isinstance(row, list) else []
        if len(values) != 4 or None in values:
            raise SeriesFormatError(
                f"{source}: coeffs[{idx}] must be a list of four finite numbers")
        coeffs.append(Quaternion(*values))
    return Series(tuple(coeffs), radius, exact)


def load_series(path) -> Series:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SeriesFormatError(f"{path}: {exc.strerror or exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeriesFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return series_from_dict(payload, source=str(path))


def dump_series(f: Series, path) -> None:
    Path(path).write_text(
        json.dumps(series_to_dict(f), indent=2, sort_keys=True, allow_nan=False) + "\n")
