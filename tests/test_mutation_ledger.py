"""The mutation ledger, results/mutants.csv, still describes src/onofri.

scripts/mutation_sweep.py writes one row per one-token mutant that no output
and no test notices.  Each row needs a class and a reason; a `dead` row names
a line that should have gone.  A row whose source line no longer occurs in its
module is stale: re-sweep that module (--modules).
"""
import csv
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLASSES = {"dead", "test-only", "perf", "margin", "guard", "gap"}

with (ROOT / "results" / "mutants.csv").open(newline="") as fh:
    ROWS = list(csv.DictReader(fh))


def _name(row):
    return f"{row['module']}:{row['line']}:{row['col']} {row['mutation']}"


def test_every_row_has_a_class_and_a_reason():
    assert [_name(r) for r in ROWS if r["class"] not in CLASSES] == []
    assert [_name(r) for r in ROWS if not r["reason"].strip()] == []


def test_no_row_is_dead():
    assert [_name(r) for r in ROWS if r["class"] == "dead"] == []


@pytest.mark.parametrize("module", sorted({r["module"] for r in ROWS}))
def test_every_source_line_still_occurs(module):
    lines = {line.strip() for line in (ROOT / "src" / "onofri" / f"{module}.py").read_text().splitlines()}
    assert [_name(r) for r in ROWS if r["module"] == module and r["source"] not in lines] == []
