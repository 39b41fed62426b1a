"""Lane stacks: minimize_stack and minimize_axisym_stack run every lane as its own
run would, and a lane that has stopped is not stepped again.

Each stack mixes lanes that converge at different iterations, a lane whose
large start makes the line search halve, and a lane that dives through a
raised BLOWUP_FLOOR (the unbounded-descent verdict).  Every lane is compared
with its one-lane run and with the reference minimisers of
reference_solvers, and the callbacks descend hands to the minimiser are
recorded to show which lanes each step touched.
"""
import numpy as np
import pytest

from onofri import axisym as ax, functional as fn, sphere

import reference_solvers as ref


def _recorded_lanes(monkeypatch):
    """Wrap fn.descend so that every trial and retraction records the lanes it acts on."""
    calls = {"trial": [], "retract": []}
    inner = fn.descend

    def descend(start, precond, trial, retract, norm):
        every = list(range(len(precond)))

        def ids(lanes):
            return every[lanes] if isinstance(lanes, slice) else [int(i) for i in lanes]

        def recorded_trial(lanes, state, delta):
            calls["trial"].append(ids(lanes))
            return trial(lanes, state, delta)

        def recorded_retract(lanes, cand):
            calls["retract"].append(ids(lanes))
            return retract(lanes, cand)

        return inner(start, precond, recorded_trial, recorded_retract, norm)

    monkeypatch.setattr(fn, "descend", descend)
    return calls


def _check_lane_work(calls, results):
    """A lane is tried once per line-search halving of the iterations it steps in,
    and retracted once per accepted step plus its start: nothing after it stops."""
    for i, res in enumerate(results):
        assert res.status in ("converged", "unbounded-descent")
        trials = sum(i in lanes for lanes in calls["trial"])
        retracts = sum(i in lanes for lanes in calls["retract"])
        assert trials == res.iterations - 1 + res.backtracks
        assert retracts == res.iterations


def _sphere_lanes(grid):
    """(alpha, start) of the sphere stack: lanes converging at 4, 5, 9, 8 (after
    one halving) and 5 iterations, and two unbounded-descent lanes at alpha 0.3
    that stop at 7 and 9 iterations after halvings."""
    return [(0.7, fn.random_start(grid, (42, 0, 5))),
            (1.0, fn.random_start(grid, (42, 0, 1))),
            (0.8, fn.random_start(grid, (31, 7), amplitude=40.0)),
            (0.6, fn.random_start(grid, (31, 8), amplitude=40.0)),
            (0.3, ref.two_bubble_field(grid, 2.0)),
            (0.55, fn.random_start(grid, (42, 0, 2))),
            (0.3, fn.random_start(grid, (42, 0, 5), amplitude=2.0))]


def test_sphere_stack_lanes_match_their_own_runs(grid16, monkeypatch):
    monkeypatch.setattr(fn, "BLOWUP_FLOOR", -2.0)
    monkeypatch.setattr(fn, "MAX_ITER", 400)
    lanes = _sphere_lanes(grid16)
    calls = _recorded_lanes(monkeypatch)
    stack = fn.minimize_stack([alpha for alpha, _ in lanes],
                              sphere.SphereField(grid16, np.stack([u.values for _, u in lanes])))
    _check_lane_work(calls, stack)
    for (alpha, u0), res in zip(lanes, stack):
        one = fn.minimize(alpha, u0)
        status, j, iterations, backtracks, u = ref.minimize(alpha, u0)
        counts = (res.status, res.iterations, res.backtracks)
        assert counts + (res.newton_steps,) == (one.status, one.iterations, one.backtracks,
                                                one.newton_steps)
        assert counts == (status, iterations, backtracks)
        assert abs(res.j_value - one.j_value) <= 1e-12 and abs(res.j_value - j) <= 1e-12
        assert np.max(np.abs(res.u.values - one.u.values)) <= 1e-12
        assert np.max(np.abs(res.u.values - u.values)) <= 1e-10
        for key in ("grad_norm", "com_norm", "exp_mass"):
            assert abs(getattr(res, key) - getattr(one, key)) <= 1e-12
    assert {res.status for res in stack} == {"converged", "unbounded-descent"}
    assert len({res.iterations for res in stack}) >= 4
    assert any(res.backtracks for res in stack if res.status == "converged")


def _axisym_lanes():
    """(alpha, start) of the 1-D stack: lanes converging at 4, 8, 7 (after one
    halving) and 10 iterations, and two unbounded-descent lanes at alpha 0.3 and
    0.25 that stop at 10 and 3 iterations."""
    return [(0.5, ax.random_start_1d((31, 5, 0))),
            (0.6, ax.random_start_1d((31, 6, 2), amplitude=40.0)),
            (0.8, ax.random_start_1d((31, 8, 3), amplitude=40.0)),
            (0.3, ax.random_start_1d((7, 1))),
            (0.45, ax.random_start_1d((7, 0), amplitude=10.0)),
            (0.25, ax.random_start_1d((7, 2), amplitude=2.0))]


def test_axisym_stack_lanes_match_their_own_runs(monkeypatch):
    monkeypatch.setattr(fn, "BLOWUP_FLOOR", -2.0)
    monkeypatch.setattr(fn, "MAX_ITER", 400)
    lanes = _axisym_lanes()
    calls = _recorded_lanes(monkeypatch)
    stack = ax.minimize_axisym_stack([alpha for alpha, _ in lanes],
                                     ax.LegendreFunction(np.stack([g.coeffs for _, g in lanes])))
    _check_lane_work(calls, stack)
    for (alpha, g0), res in zip(lanes, stack):
        one = ax.minimize_axisym(alpha, g0)
        status, value, iterations, backtracks, g = ref.minimize_axisym(alpha, g0)
        counts = (res.status, res.iterations, res.backtracks)
        assert counts + (res.newton_steps,) == (one.status, one.iterations, one.backtracks,
                                                one.newton_steps)
        assert counts == (status, iterations, backtracks)
        assert abs(res.value - one.value) <= 1e-12 and abs(res.value - value) <= 1e-12
        assert np.max(np.abs(res.g.coeffs - one.g.coeffs)) <= 1e-12
        assert np.max(np.abs(res.g.coeffs - g.coeffs)) <= 1e-10
        assert abs(res.grad_norm - one.grad_norm) <= 1e-12
        assert abs(res.moment - one.moment) <= 1e-12
    assert {res.status for res in stack} == {"converged", "unbounded-descent"}
    assert len({res.iterations for res in stack}) >= 4
    assert any(res.backtracks for res in stack if res.status == "converged")


def test_lanes_may_stall_while_others_converge():
    """A stalled lane leaves the lockstep after its 40 halvings; the lane beside it
    converges as it would alone."""
    a = np.array([1.0, 3.0, 10.0])

    def trial(lanes, x, delta):
        value = 0.5 * np.sum(a * (x + delta) ** 2, axis=-1)
        stall = np.isin(np.arange(2)[lanes], [1])      # every trial of lane 1 fails
        return x + delta, np.where(stall, value + 10.0, value)

    def retract(lanes, x):
        return x, 0.5 * np.sum(a * x * x, axis=-1), a * x, np.ones(len(x), dtype=int)

    run = fn.descend(np.array([[1.0, -2.0, 0.5], [1.0, -2.0, 0.5]]), np.array([2.0 * a] * 2),
                     trial, retract, lambda grad: np.linalg.norm(grad, axis=-1))
    assert run.status == ["converged", "stalled"]
    assert run.iterations[1] == 1 and run.backtracks[1] == fn.MAX_HALVINGS
    assert np.array_equal(run.state[1], [1.0, -2.0, 0.5])
    assert run.backtracks[0] == 0 and run.iterations[0] > 1
    assert run.grad_norm[0] <= fn.STAT_TOL


def test_stacks_take_one_alpha_per_lane(grid8):
    u = fn.random_start(grid8, (1,))
    g = ax.random_start_1d((1,))
    for alphas in ([0.8], [0.8, 0.9, 1.0]):
        with pytest.raises(ValueError):
            fn.minimize_stack(alphas, sphere.SphereField(grid8, np.stack([u.values] * 2)))
        with pytest.raises(ValueError):
            ax.minimize_axisym_stack(alphas, ax.LegendreFunction(np.stack([g.coeffs] * 2)))
    with pytest.raises(ValueError):
        fn.minimize_stack([0.8], u)                     # a single field is not a stack
    with pytest.raises(ValueError):
        ax.minimize_axisym_stack([0.8], g)


@pytest.mark.parametrize("lanes", [1, 3])
def test_tilt_stack_matches_single_tilts(grid16, lanes):
    """The stacked tilt gives every lane the c, moments and Newton steps of its
    own tilt, bit for bit, centered lanes included, and leaves the moments it
    starts from as they were."""
    pts, weights = grid16.node_points, grid16.node_weights
    fields = [fn.random_start(grid16, (seed,), amplitude=1.5).values.ravel() for seed in range(lanes)]
    fields.append(np.zeros(pts.shape[0]))
    start = fn.exp_moments(np.stack(fields), weights, pts)
    kept = [a.copy() for a in start]
    c, mom, steps = fn.tilt(np.stack(fields), weights, pts, grid16.node_second, start)
    assert all(np.array_equal(a, b) for a, b in zip(start, kept))
    for i, values in enumerate(fields):
        c1, mom1, steps1 = ref.tilt_lane(values, weights, pts)
        assert np.array_equal(c[i], c1) and steps[i] == steps1
        assert mom.log_mass[i] == mom1.log_mass
        assert np.array_equal(mom.density[i], mom1.density) and np.array_equal(mom.mean[i], mom1.mean)
    assert steps[-1] == 0 and not c[-1].any()
