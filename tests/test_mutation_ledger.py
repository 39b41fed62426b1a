"""The mutation ledger, results/mutants.csv, still describes src/onofri.

scripts/mutation_sweep.py writes one row per one-token mutant that no output
and no test notices.  Each row needs a class and a reason; a `dead` row names
a line that should have gone.  A row whose source line no longer occurs in its
module is stale: re-sweep that module (--modules).
"""
import csv
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutation_sweep", ROOT / "scripts" / "mutation_sweep.py")
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)
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


def test_key_follows_a_statement_into_another_block():
    """A mutant's column is measured from its line's stripped source, so the
    same statement at another depth keeps its ledger key, and the count of
    earlier rows with that key tells repeated mutants on one line apart."""
    shallow = "if 0.5 <= err <= 1.0:\n    h = 1.0\n"
    deep = "def step(err):\n    while True:\n        if 0.5 <= err <= 1.0:\n            h = 1.0\n"

    def keys(source):
        seen = {}
        return [sweep._key({"module": "shooting", "source": source.splitlines()[line - 1].strip(),
                            "col": col, "mutation": f"{old} -> {new}"}, seen)
                for line, col, old, new in sweep.mutants(source)]

    assert sorted(keys(shallow)) == sorted(keys(deep))
    assert ("shooting", "if 0.5 <= err <= 1.0:", "3", "<= -> <", 0) in keys(shallow)
    assert ("shooting", "if 0.5 <= err <= 1.0:", "3", "<= -> <", 1) in keys(shallow)
