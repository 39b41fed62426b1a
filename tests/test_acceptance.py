"""Acceptance battery: one test per numbered criterion, at stated tolerances.

Each test prints a PASS/FAIL line; run with `pytest -s` to see them inline.
The battery rows are computed once per session and criterion 13 recomputes
the whole battery, criteria in reversed order, to check bit-for-bit
reproducibility.
"""
import json
import tracemalloc

import pytest

from onofri import acceptance
from onofri.report import to_builtin

SEED = acceptance.DEFAULT_SEED


@pytest.fixture(scope="module")
def battery():
    return acceptance.run_battery(SEED)


def _check(battery, cid):
    rows = [r for r in battery if r["criterion"] == cid]
    assert rows, f"criterion {cid} produced no rows"
    ok = all(r["passed"] for r in rows)
    name = acceptance.CRITERIA[cid][0]
    print(f"criterion {cid:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({len(rows)} rows)")
    for r in rows:
        assert r["passed"], f"criterion {cid} failed at {r['check']}: value={r['value']!r} tol={r['tolerance']!r}"


def test_criterion_01_spectral_core(battery):
    _check(battery, 1)


def test_criterion_02_minimum_at_alpha_one(battery):
    _check(battery, 2)


def test_criterion_03_zero_infimum_to_two_thirds(battery):
    _check(battery, 3)


def test_criterion_04_unbounded_below_half(battery):
    _check(battery, 4)


def test_criterion_05_bridge_identities(battery):
    _check(battery, 5)


def test_criterion_06_flat_mass_curve(battery):
    _check(battery, 6)


def test_criterion_07_pohozaev_window(battery):
    _check(battery, 7)


def test_criterion_08_uniqueness_windows(battery):
    _check(battery, 8)


def test_criterion_09_eigenvalue_mass_audits(battery):
    _check(battery, 9)


def test_criterion_10_nodal_accounting(battery):
    _check(battery, 10)


def test_criterion_11_second_variation(battery):
    _check(battery, 11)


def test_criterion_12_axisymmetric_inequality(battery):
    _check(battery, 12)


# Descent paths at DEFAULT_SEED: the number of stacks a criterion runs, and one
# digit per lane, its iteration count; every lane converges with no halving.  A
# change to the lanes' arithmetic that moves any descent fails here, not only in
# a row hash.
DESCENT_PATHS = {
    2: (2, "44444444444444444444"),
    3: (5, "55444544554444444444445444544444444444444444444444"),
    12: (1, "444554444544444444444454444444444444444444544454444444444444"),
}


def test_descent_paths_are_pinned(battery, monkeypatch):
    from onofri import axisym, functional

    runs = []
    for module, name in ((functional, "minimize_stack"), (axisym, "minimize_axisym_stack")):
        def recorded(*args, _inner=getattr(module, name)):
            runs.append(_inner(*args))
            return runs[-1]

        monkeypatch.setattr(module, name, recorded)
    grids = acceptance.battery_grids()
    for cid, (stacks, path) in DESCENT_PATHS.items():
        runs.clear()
        rows = acceptance.CRITERIA[cid][1](SEED, grids)
        lanes = [res for stack in runs for res in stack]
        assert len(runs) == stacks and "".join(str(res.iterations) for res in lanes) == path
        assert {(res.status, res.backtracks) for res in lanes} == {("converged", 0)}
        assert rows == [row for row in battery if row["criterion"] == cid]
    assert [row["iterations"] for row in battery if row["criterion"] == 2] == [4] * 20


# The battery's largest allocators, and the most bytes (tracemalloc) each may hold
# live at once when warm: a stack beyond SCAN_LANES lanes, or a full point grid
# beside the nodal labelling, goes over it.
PEAK_CRITERIA = (2, 3, 5, 9, 10)
PEAK_MB = 3.5


def test_criterion_peaks_stay_bounded():
    grids = acceptance.battery_grids()
    for cid in PEAK_CRITERIA:
        acceptance.CRITERIA[cid][1](SEED, grids)
    peaks = {}
    for cid in PEAK_CRITERIA:
        tracemalloc.start()
        try:
            acceptance.CRITERIA[cid][1](SEED, grids)
            peaks[cid] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= PEAK_MB, peaks


def test_criterion_13_determinism(battery):
    fresh = acceptance.run_battery(SEED, sorted(acceptance.CRITERIA, reverse=True))
    same = json.dumps(to_builtin(battery), sort_keys=True) == json.dumps(to_builtin(fresh), sort_keys=True)
    print(f"criterion 13 [determinism]: {'PASS' if same else 'FAIL'}")
    assert same, "rerun with the same seed changed result rows"


def _order_dependent_criteria():
    """Criterion 2 reads state that criteria 1 and 3 write."""
    shared = {}

    def writer(cid):
        def run(seed, grids):
            shared["last_writer"] = cid
            return [acceptance._row(cid, "write", "writes shared state", 0.0, 0.0, True)]
        return run

    def reader(seed, grids):
        return [acceptance._row(2, "read", "reads shared state", shared["last_writer"], 0.0, True)]

    return {1: ("writer", writer(1)), 2: ("reader", reader), 3: ("writer", writer(3))}


def test_criterion_13_catches_order_dependence(monkeypatch):
    """Two forward runs agree, but the reversed pass lets criterion 3 write first."""
    for cid, entry in _order_dependent_criteria().items():
        monkeypatch.setitem(acceptance.CRITERIA, cid, entry)
    ids = (1, 2, 3)
    assert acceptance.run_battery(SEED, ids) == acceptance.run_battery(SEED, ids)
    reversed_rows = acceptance.run_battery(SEED, ids[::-1])
    assert [r["criterion"] for r in reversed_rows] == [1, 2, 3]
    assert not acceptance.determinism_row(SEED, acceptance.run_battery(SEED, ids))["passed"]


def test_run_verify_reuses_its_pass_as_the_forward_pass(monkeypatch):
    """run_verify runs the battery twice: its own pass doubles as criterion
    13's forward pass, and the reversed pass still exposes order dependence."""
    monkeypatch.setattr(acceptance, "CRITERIA", _order_dependent_criteria())
    monkeypatch.setattr(acceptance, "battery_grids", lambda: {})
    passes = []
    real_run_battery = acceptance.run_battery

    def counting_run_battery(*args, **kwargs):
        passes.append(args)
        return real_run_battery(*args, **kwargs)

    monkeypatch.setattr(acceptance, "run_battery", counting_run_battery)
    rows = acceptance.run_verify(SEED)
    assert len(passes) == 2
    assert rows[-1]["criterion"] == 13 and not rows[-1]["passed"]
    assert [r["criterion"] for r in rows[:-1]] == [1, 2, 3]



def test_run_verify_names_each_check_once():
    """A (criterion, check) pair names one row, so rows can be compared by name."""
    pairs = [(row["criterion"], row["check"]) for row in acceptance.run_verify(SEED)]
    assert len(set(pairs)) == len(pairs)


def test_criterion_12_reports_the_lowest_start(monkeypatch):
    """One start below -1e-6 among the twenty of an alpha fails its row, and
    the row reports that start's value."""
    from types import SimpleNamespace

    from onofri import axisym

    values = iter([0.01] * 7 + [-1e-3] + [0.01] * 52)
    monkeypatch.setattr(axisym, "minimize_axisym_stack", lambda alphas, g0: [
        SimpleNamespace(value=next(values), status="converged") for _ in alphas])
    rows = acceptance.criterion_12(SEED, acceptance.battery_grids())
    assert [(r["value"], r["passed"]) for r in rows[:3]] == [(-1e-3, False), (0.01, True), (0.01, True)]
