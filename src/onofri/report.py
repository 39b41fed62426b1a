"""Machine-readable run reports: JSON with a fixed shape, plus CSV tables.

Top-level keys are stable: command, config, seed, version, rows, verdict,
elapsed_s; seed is null for a run that draws no random numbers.  Rows are
flat dicts of plain scalars; each carries a "claim" string naming the
mathematical statement the row checks; NaN and infinities are written as
null.  Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

from . import __version__

# The top-level keys in order, with their types.
REPORT_TYPES = {
    "command": str, "config": dict, "seed": (int, type(None)), "version": str,
    "rows": list, "verdict": str, "elapsed_s": (int, float),
}
REPORT_KEYS = tuple(REPORT_TYPES)


def to_builtin(obj):
    """Recursively coerce numpy scalars/arrays into JSON-serialisable builtins."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_builtin(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def build_report(command: str, config: dict, seed: int | None, rows: list, verdict: str,
                 elapsed_s: float) -> dict:
    report = {
        "command": command,
        "config": to_builtin(config),
        "seed": None if seed is None else int(seed),
        "version": __version__,
        "rows": to_builtin(rows),
        "verdict": verdict,
        "elapsed_s": float(elapsed_s),
    }
    return json.loads(json.dumps(report), parse_constant=lambda _: None)    # NaN -> null


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


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path: str, report: dict) -> None:
    _atomic_write(path, json.dumps(report, indent=2, allow_nan=False) + "\n")


def rows_to_csv_text(rows: list[dict]) -> str:
    if not rows:
        return ""
    import io

    fields = list(dict.fromkeys(key for row in rows for key in row))   # every row's, first seen first
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


def write_csv(path: str, rows: list[dict]) -> None:
    _atomic_write(path, rows_to_csv_text(to_builtin(rows)))
