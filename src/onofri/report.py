"""Machine-readable run reports: JSON with a fixed shape, plus CSV tables.

Top-level keys are stable: command, config, seed, version, rows, verdict,
elapsed_s; seed is null for a run that draws no random numbers.  Rows are
flat dicts of plain scalars; each carries a "claim" string naming the
mathematical statement the row checks; NaN and infinities are written as
null in JSON and as nan and inf in CSV.  Files are written atomically (temp
file + rename).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import tempfile

from . import __version__

# The top-level keys in order, with their types.
REPORT_TYPES = {
    "command": str, "config": dict, "seed": (int, type(None)), "version": str,
    "rows": list, "verdict": str, "elapsed_s": (int, float),
}
REPORT_KEYS = tuple(REPORT_TYPES)


def _convert(obj, real):
    """obj with numpy scalars and arrays as builtins and every float passed through real."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _convert(v, real) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_convert(v, real) for v in obj]
    if isinstance(obj, np.ndarray):
        return _convert(obj.tolist(), real)
    if isinstance(obj, (float, np.floating)):
        return real(obj)
    if isinstance(obj, np.generic):     # numpy integers and booleans
        return obj.item()
    return obj


def to_builtin(obj):
    """Recursively coerce numpy scalars/arrays into JSON-serialisable builtins."""
    return _convert(obj, float)


def build_report(command: str, config: dict, seed: int | None, rows: list, verdict: str,
                 elapsed_s: float) -> dict:
    report = {
        "command": command,
        "config": config,
        "seed": None if seed is None else int(seed),
        "version": __version__,
        "rows": rows,
        "verdict": verdict,
        "elapsed_s": float(elapsed_s),
    }
    return _convert(report, lambda x: float(x) if math.isfinite(x) else None)   # NaN -> null


def validate_report(report: dict) -> list[str]:
    """Minimal structural validation against REPORT_TYPES; returns problems."""
    problems = [f"missing key {key}" for key in REPORT_KEYS if key not in report]
    for key, typ in REPORT_TYPES.items():
        if key in report and not isinstance(report[key], typ):
            problems.append(f"key {key} has type {type(report[key]).__name__}")
    if report.get("verdict") not in ("pass", "fail", "info", None):
        problems.append(f"verdict {report.get('verdict')!r} not in pass/fail/info")
    for i, row in enumerate(report.get("rows", [])):
        if not isinstance(row, dict):
            problems.append(f"row {i} is not an object")
    return problems


@contextlib.contextmanager
def _atomic_write(path: str):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path: str, report: dict) -> None:
    with _atomic_write(path) as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_csv(path: str, rows: list[dict]) -> None:
    rows = to_builtin(rows)     # floats stay floats, which csv spells by repr: NaN is nan
    fields = list(dict.fromkeys(key for row in rows for key in row))   # every row's, first seen first
    with _atomic_write(path) as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
