"""The benchmark's own checks:  python3 -m pytest perfbench -q"""

import json
import math

import numpy as np
import pytest

from onofri import eigen, functional, shooting, sphere
from perfbench import run, tracer, workloads


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.5, 10.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    rec.open("outer")
    for _ in range(2):
        rec.open("inner")
        rec.close()
    rec.close()
    assert rec.calls == {"outer": 1, "inner": 2}
    assert rec.self_s["outer"] == 10.0 - 2.0 - 3.5
    assert rec.self_s["inner"] == 5.5
    outer, first, second = rec.spans
    assert outer[3] == -1 and first[3] == 0 and second[3] == 0
    assert (first[1], first[2]) == (1.0, 3.0)


def test_instrumented_package_calls_nest():
    u = functional.random_start(sphere.build_grid(16), (1, 2))
    analyze = sphere.analyze
    rec = tracer.Recorder()
    with tracer.instrument(rec):
        assert sphere.analyze is not analyze
        functional.el_residual(u, 1.5)
    assert sphere.analyze is analyze
    names = rec.names
    spans = rec.spans
    (lap,) = [k for k, s in enumerate(spans) if names[s[0]] == "sphere.laplacian.L16"]
    children = [s for s in spans if s[3] == lap]
    assert {names[s[0]] for s in children} == {"sphere.analyze.L16", "sphere.synthesize.L16"}
    covered = sum(s[2] - s[1] for s in children)
    duration = spans[lap][2] - spans[lap][1]
    assert rec.self_s["sphere.laplacian.L16"] == pytest.approx(duration - covered)
    assert spans[lap][3] == [k for k, s in enumerate(spans)
                             if names[s[0]] == "functional.el_residual"][0]


def test_tail_has_ten_tasks_beyond():
    p50, tail, pct = run.task_quantiles({k: float(k) for k in range(24)}, repeats=1)
    assert (p50, tail) == (11.5, 13.0) and pct == pytest.approx(100.0 * 14 / 24)
    # four repeats: each slot stands for four tasks, so three slots hold ten or more
    _, tail, pct = run.task_quantiles({k: float(k) for k in range(13)}, repeats=4)
    assert tail == 9.0 and pct == pytest.approx(100.0 * 10 / 13)
    with pytest.raises(ValueError):
        run.task_quantiles({k: 1.0 for k in range(10)}, repeats=1)


def test_row_hash_ignores_order_but_not_values():
    tasks = workloads.verify_tasks({"seed": 5, "grids": None}, 0)
    rows = [{"criterion": t.key[0], "value": 0.5 * t.key[0]} for t in tasks]
    perm = np.random.default_rng(0).permutation(len(tasks))
    shuffled = workloads.row_hash([tasks[i] for i in perm], [rows[i] for i in perm])
    assert workloads.row_hash(tasks, rows) == shuffled
    rows[3] = dict(rows[3], value=math.nextafter(rows[3]["value"], 1.0))
    assert workloads.row_hash(tasks, rows) != shuffled


def test_verify_orders_differ_between_repeats():
    orders = {tuple(t.key for t in workloads.verify_tasks({"seed": 5, "grids": None}, r))
              for r in range(2)}
    assert len(orders) == 2


def test_curves_never_repeat_a_shot_within_a_run():
    state = workloads.curves_setup(11)
    shots = [(l, s) for r in range(20)
             for l, ss in workloads.curve_points(state, r).items() for s in ss]
    assert len(shots) == len(set(shots)) == 20 * 4 * workloads.CURVE_POINTS


def _tampered_shoot(real):
    def shoot(l, s, **kw):
        sol = real(l, s, **kw)
        if l == 1.0:
            sol.beta_mass = sol.beta_slope = 8.5          # outside the window (4, 8)
        return sol
    return shoot


def test_wrong_results_raise_failed_frac(monkeypatch, capsys):
    monkeypatch.setattr(shooting, "shoot", _tampered_shoot(shooting.shoot))
    for var in run.BLAS_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr("sys.path", list(__import__("sys").path))
    assert run.main(["--workload", "curves", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    per_repeat = len(workloads.curves_tasks(workloads.curves_setup(3), 0))
    assert result["attempted"] == 2 * per_repeat
    assert result["failed"] == 2 * per_repeat // len(workloads.CURVE_LS)
    assert result["correct"] is False


@pytest.mark.parametrize("module, fn_name, field, wrong, workload, task_name", [
    (functional, "minimize", "status", "stalled", "descent", "descent.L16"),
    (eigen, "bol_audit", "verdict", "violated", "audits", "audits.bol_audit"),
])
def test_gates_reject_wrong_results(monkeypatch, module, fn_name, field, wrong,
                                    workload, task_name):
    real = getattr(module, fn_name)

    def tampered(*args, **kwargs):
        out = real(*args, **kwargs)
        for item in out if isinstance(out, list) else [out]:
            setattr(item, field, wrong)
        return out

    wl = workloads.WORKLOADS[workload]
    tasks = [t for t in wl.tasks(wl.setup(2), 0) if t.name == task_name][:2]
    assert run.run_repeat(tasks)[2] == [True, True]
    monkeypatch.setattr(module, fn_name, tampered)
    assert run.run_repeat(tasks)[2] == [False, False]


def test_raising_task_counts_as_failed():
    def boom():
        raise RuntimeError("deliberate")
    _, _, passed, rows = run.run_repeat([workloads.Task((0,), "t", boom)])
    assert passed == [False] and "deliberate" in rows[0]["error"]


def test_traced_verify_shot_counts_repeat_exactly():
    state = workloads.verify_setup(20260808)
    rec = tracer.Recorder()
    with tracer.instrument(rec):
        _, _, passed, _ = run.run_repeat(workloads.verify_tasks(state, 0), rec)
    assert all(passed)
    metrics = tracer.layer_metrics(rec, 0.0)
    # criteria 6, 7 and 8 make 17 + 24 + 2176 shots with 17 + 24 + 580 distinct
    # inputs each; 16 inputs of criterion 7 recur in criterion 8
    assert metrics["shooting.shoot.calls"] == 2217
    assert len(rec.shots) == 605
    assert set(metrics) == set(tracer.layer_metric_names())
    assert all(metrics[f"acceptance.criterion_{c}.s"] > 0 for c in range(1, 13))
