"""Radial shooting: closed-form anchors, mass estimators, uniqueness windows."""
import math

import numpy as np
import pytest

from onofri import shooting as sh
from onofri.errors import NonConvergenceError


def test_liouville_closed_form():
    """l=0, v(0)=log 8 is exactly v = log(8/(1+r^2)^2) with mass 4."""
    sol = sh.shoot(0.0, math.log(8.0))
    exact = np.log(8.0 / (1.0 + sol.r_grid**2) ** 2)
    assert np.max(np.abs(sol.values - exact)) <= 1e-8
    assert sol.beta_mass == pytest.approx(4.0, abs=1e-6)
    assert sol.verdict == "converged"


def test_vstar_anchor_l1():
    sol = sh.shoot(1.0, math.log(12.0))
    assert sol.beta_mass == pytest.approx(6.0, abs=1e-6)
    assert sol.c_asym == pytest.approx(math.log(12.0), abs=1e-6)


@pytest.mark.parametrize("s", [-2.0, 0.0, 2.0])
def test_l0_scaling_family(s):
    sol = sh.shoot(0.0, s)
    assert sol.beta_mass == pytest.approx(4.0, abs=1e-6)


def test_dual_estimators_agree():
    for l, s in ((0.0, -4.0), (0.0, 4.0), (1.0, 1.0), (2.0, 0.0)):
        sol = sh.shoot(l, s)
        assert abs(sol.beta_mass - sol.beta_slope) <= 1e-6


def test_tolerance_refinement_on_anchor():
    b1 = sh.shoot(1.0, math.log(12.0), tol=1e-10).beta_mass
    b2 = sh.shoot(1.0, math.log(12.0), tol=5e-11).beta_mass
    assert abs(b1 - b2) <= 1e-8


def test_vprime_zero_at_origin():
    sol = sh.shoot(1.0, 0.5)
    # series start: v(r) - s behaves like -e^s r^2 / 4
    r0 = sol.r_grid[0]
    assert sol.values[0] == pytest.approx(0.5 - math.exp(0.5) * r0**2 / 4.0, abs=1e-12)


def test_profile_decreasing_at_large_r():
    sol = sh.shoot(1.0, 1.0)
    far = sol.values[sol.r_grid > 10.0]
    assert np.all(np.diff(far) < 0.0)


def test_shoot_rejects_bad_domain():
    with pytest.raises(ValueError):
        sh.shoot(-0.5, 0.0)
    with pytest.raises(ValueError):
        sh.shoot(1.0, 0.0, r_max=10.0)


def test_beta_curve_flat_at_l0():
    rows = sh.beta_curve(0.0, -4.0, 4.0, 17)
    assert len(rows) == 17
    assert all(abs(r["beta"] - 4.0) <= 1e-6 for r in rows)
    assert all(r["verdict"] == "converged" for r in rows)


def test_beta_curve_passes_anchor_l1():
    rows = sh.beta_curve(1.0, math.log(12.0) - 2.0, math.log(12.0) + 2.0, 33)
    mid = rows[16]
    assert mid["s"] == pytest.approx(math.log(12.0), abs=1e-12)
    assert mid["beta"] == pytest.approx(6.0, abs=1e-6)


def test_beta_curve_within_pohozaev_window_l1():
    rows = sh.beta_curve(1.0, -4.0, 4.0, 9)
    assert all(4.0 < r["beta"] < 8.0 for r in rows if r["verdict"] == "converged")


def test_beta_curve_needs_two_points():
    with pytest.raises(ValueError):
        sh.beta_curve(1.0, 0.0, 1.0, 1)


def test_roots_l1_mass_six():
    roots = sh.solutions_at_beta(1.0, [6.0], (-2.0, 6.0)).roots[0]
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.log(12.0), abs=1e-6)


def test_roots_l05_mass_five():
    roots = sh.solutions_at_beta(0.5, [5.0], (-2.0, 6.0)).roots[0]
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.log(10.0), abs=1e-6)


@pytest.mark.parametrize("target", [5.0, 6.0, 7.0])
def test_l2_window_at_most_one_root(target):
    roots = sh.solutions_at_beta(2.0, [target], (-6.0, 10.0)).roots[0]
    assert len(roots) <= 1


def test_empty_bracket_returns_no_roots():
    roots = sh.solutions_at_beta(1.0, [6.0], (4.0, 6.0)).roots[0]   # beta < 5.3 there
    assert roots == []


SHARED_TARGETS = (4.5, 5.0, 5.5, 6.0, 6.5)


def test_shared_curve_matches_one_target_calls():
    search = sh.solutions_at_beta(1.0, SHARED_TARGETS, (-6.0, 10.0))
    assert len(search.roots) == len(SHARED_TARGETS)
    for target, roots in zip(SHARED_TARGETS, search.roots):
        assert roots == sh.solutions_at_beta(1.0, [target], (-6.0, 10.0)).roots[0]


def test_shared_curve_shot_budget_and_no_state(monkeypatch):
    calls = []
    real_shoot = sh.shoot

    def counting_shoot(*args, **kw):
        calls.append(args)
        return real_shoot(*args, **kw)

    monkeypatch.setattr(sh, "shoot", counting_shoot)
    counts = []
    for _ in range(2):
        calls.clear()
        search = sh.solutions_at_beta(1.0, SHARED_TARGETS, (-6.0, 10.0))
        n_roots = sum(len(r) for r in search.roots)
        assert n_roots >= 1
        assert len(calls) <= 129 + 12 * n_roots
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_shared_curve_reports_beta_range():
    search = sh.solutions_at_beta(2.0, [5.0, 6.0, 7.0], (-6.0, 10.0))
    lo, hi = search.beta_range
    assert 7.0 < lo <= hi < 12.0          # why l = 2 finds no root at 5, 6 or 7
    assert search.roots == [[], [], []]
    assert search.divergent_samples == 0


def test_shared_curve_counts_divergent_samples(monkeypatch):
    real_shoot = sh.shoot

    def shoot_diverging_above_8(l, s, **kw):
        sol = real_shoot(l, s, **kw)
        if s > 8.0:
            sol.verdict = "divergent-mass"
        return sol

    full = sh.solutions_at_beta(1.0, [4.1, 6.0], (-6.0, 10.0), n_samples=33)
    monkeypatch.setattr(sh, "shoot", shoot_diverging_above_8)
    cut = sh.solutions_at_beta(1.0, [4.1, 6.0], (-6.0, 10.0), n_samples=33)
    assert full.divergent_samples == 0 and len(full.roots[0]) == 1 and full.roots[0][0] > 8.0
    assert cut.divergent_samples == 4                  # s = 8.5, 9, 9.5, 10
    assert cut.roots[0] == [] and cut.roots[1] == full.roots[1]
    assert cut.beta_range[0] > full.beta_range[0]


def test_brent_matches_closed_form_root():
    f = lambda x: math.cos(x) - x
    root = sh._brent(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
    assert root == pytest.approx(0.7390851332151607, abs=1e-12)


def test_integrator_step_budget_raises_typed_error():
    xs, ys = [0.0], [(1.0, 0.0)]
    with pytest.raises(NonConvergenceError) as info:
        sh._rk_adaptive(lambda x, y: (y[1], -y[0]), 0.0, ys[0], 10.0, 1e-10, 1e-3, xs, ys,
                        max_steps=3)
    assert 0.0 < info.value.best < 10.0
    assert info.value.best == xs[-1]


def test_slope_estimate_nonzero_on_monotone_branch():
    slope = sh.beta_slope_at(1.0, math.log(12.0))
    assert abs(slope) > 1e-3
