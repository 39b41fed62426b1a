"""Radial shooting: closed-form anchors, mass estimators, uniqueness windows."""
import math
from fractions import Fraction

import numpy as np
import pytest

from onofri import acceptance
from onofri import rootsearch as rs
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


@pytest.mark.parametrize("l, window", [(1.0, (4.0, 8.0)), (0.0, (4.0, 4.0)), (-0.5, (2.0, 4.0))])
def test_mass_window_orders_its_edges(l, window):
    """The window lies between 4 and 4(1 + l) on either side of l = 0."""
    assert sh.mass_window(l) == window


@pytest.mark.parametrize("s", [-2.0, 0.0, 2.0])
def test_l0_scaling_family(s):
    sol = sh.shoot(0.0, s)
    assert sol.beta_mass == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("s", [-20.0, -25.0])
def test_l0_mass_for_strongly_negative_start(s):
    """At s = -25 the profile's scale is near r_max, so W is far from settled there."""
    sol = sh.shoot(0.0, s)
    assert sol.verdict == "converged"
    assert abs(sol.beta_mass - 4.0) <= 1e-6 and abs(sol.beta_slope - 4.0) <= 1e-6


@pytest.mark.parametrize("l, s", [(1.0, 8.75), (1.0, 10.0), (0.0, -20.0),
                                  (1.0, 11.0), (1.0, 14.0), (1.0, 22.0)])
def test_far_field_tail_matches_long_domain(l, s):
    """The analytic tail past r_max = 1e6 agrees with integrating out to 1e80."""
    short = sh.shoot(l, s)
    long = sh.shoot(l, s, r_max=1e80)
    assert short.verdict == long.verdict == "converged"
    assert abs(short.beta_mass - long.beta_mass) <= 1e-10
    assert abs(short.c_asym - long.c_asym) <= 1e-9


def test_large_starts_have_finite_mass_at_l1():
    """For large s the decay rate beta - 4 is small but positive at t = 60, which
    already proves the mass finite; beta creeps down toward 4."""
    sols = [sh.shoot(1.0, s) for s in (11.0, 14.0, 22.0)]
    assert all(sol.verdict == "converged" for sol in sols)
    assert all(abs(sol.beta_mass - sol.beta_slope) <= 1e-6 for sol in sols)
    betas = [sol.beta_mass for sol in sols]
    assert 4.0 < betas[2] < betas[1] < betas[0]
    assert betas[2] == pytest.approx(4.000189, abs=1e-6)


def test_dual_estimators_agree():
    for l, s in ((0.0, -4.0), (0.0, 4.0), (1.0, 1.0), (2.0, 0.0)):
        sol = sh.shoot(l, s)
        assert abs(sol.beta_mass - sol.beta_slope) <= 1e-6


def test_tolerance_refinement_on_anchor(monkeypatch):
    monkeypatch.setattr(sh, "TOL", 1e-10)
    b1 = sh.shoot(1.0, math.log(12.0)).beta_mass
    monkeypatch.setattr(sh, "TOL", 5e-11)
    b2 = sh.shoot(1.0, math.log(12.0)).beta_mass
    assert abs(b1 - b2) <= 1e-8


def _start_values(l, s):
    """(V0, W0, Y0, Y'(t0)) of the start series at x0 = START_RADIUS^2: v, r v',
    w = dv/ds and r w' at r0, with w's coefficients from beta_prime's recurrence."""
    _, p = sh._series(l, s)
    V0, W0 = sh._at_start(s, [-p_k / (4.0 * (k + 1) ** 2) for k, p_k in enumerate(p)])
    return (V0, W0) + sh._at_start(1.0, sh._jacobi_series(p))


def test_vprime_zero_at_origin():
    """At l = 0 the start series is that of v = s - 2 log(1 + e^s r^2 / 8), an
    even function (v'(0) = 0): in x = M r^2 its coefficients are b_k =
    -2 (-1)^{k+1} (e^s / 8M)^k / k, and V0 = v(r0), W0 = r0 v'(r0), Y0 = w(r0)
    and Y'(t0) = r0 w'(r0), with w = dv/ds, match the closed form to rounding."""
    for s in (-3.0, 0.0, 2.0, 10.0, 300.0):
        m, p = sh._series(0.0, s)
        y = math.exp(s) / (8.0 * m)
        for k, p_k in enumerate(p, start=1):
            assert -p_k / (4.0 * k * k) == pytest.approx(-2.0 * (-1.0) ** (k + 1) * y**k / k,
                                                         rel=1e-14, abs=1e-300)
        r0 = sh.START_RADIUS / math.sqrt(m)
        z = math.exp(s) * r0**2 / 8.0            # e^s r^2 / 8 at r0, and d/ds of it
        closed = (s - 2.0 * math.log1p(z), -4.0 * z / (1.0 + z),
                  1.0 - 2.0 * z / (1.0 + z), -4.0 * z / (1.0 + z) ** 2)
        assert _start_values(0.0, s) == pytest.approx(closed, rel=1e-15, abs=1e-15)
        sol = sh.shoot(0.0, s)
        assert (sol.values[0], sol.nodes[2][0]) == _start_values(0.0, s)[:2]


@pytest.mark.parametrize("l", [0.0, 0.5, 2.0, 100.0, 1023.99])
@pytest.mark.parametrize("s", [-40.0, 0.0, 10.0, 355.0])
def test_series_terms_suffice(monkeypatch, l, s):
    """SERIES_TERMS terms of the start series match 40 terms within 1e-11 in
    V0, W0, Y0 and Y'(t0) at the corners of the shot's domain."""
    short = _start_values(l, s)
    monkeypatch.setattr(sh, "SERIES_TERMS", 40)
    assert short == pytest.approx(_start_values(l, s), rel=0.0, abs=1e-11)


def test_profile_decreasing_at_large_r():
    sol = sh.shoot(1.0, 1.0)
    far = sol.values[sol.r_grid > 10.0]
    assert np.all(np.diff(far) < 0.0)


def test_shoot_rejects_bad_domain():
    with pytest.raises(ValueError):
        sh.shoot(-0.5, 0.0)
    with pytest.raises(ValueError):
        sh.shoot(1.0, 0.0, r_max=10.0)


@pytest.mark.parametrize("s, r_max", [(math.nan, 1e6), (math.inf, 1e6), (-math.inf, 1e6),
                                      (750.0, 1e6), (355.7, 1e6), (0.0, math.nan),
                                      (0.0, math.inf)])
def test_shoot_rejects_non_finite_inputs(s, r_max):
    """A NaN start or radius would run out the step budget or report a mass,
    and an infinite or overflowing e^s would crash in the start series.  From
    s = 355.58, where e^s e^s / 4 overflows, s is outside the start domain,
    though the scaled series itself stays finite there."""
    with pytest.raises(ValueError, match="finite"):
        sh.shoot(1.0, s, r_max=r_max)


@pytest.mark.parametrize("l", [-1.0, math.nan, math.inf, 1024.0, 1e306])
def test_shoot_rejects_l_outside_the_weights_range(l):
    """A negative or NaN l is out of scope, and from l = 1024 the weight 2^l at
    r = 1 overflows, which would crash the shot's kernel."""
    with pytest.raises(ValueError, match="2\\^l finite"):
        sh.shoot(l, 10.0)


def test_shoot_takes_l_just_below_the_weights_overflow():
    assert sh.finite_weight(1023.999999) and not sh.finite_weight(1024.0)
    assert sh.shoot(1023.999999, 10.0).verdict == "converged"


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
    search = sh.solutions_at_beta(2.0, [target], (-6.0, 10.0))
    assert target < search.beta_range[0]      # below the curve's minimum: nothing to find
    assert search.roots[0] == []
    assert search.certificate.count(target) == 0


def test_l2_mass_below_4l_has_two_profiles():
    """At l = 2 the curve dips to 7.35 near s = 4.7 and rises back toward 8, so
    a mass in (7.35, 8) inside the Pohozaev window has two radial profiles."""
    roots = sh.solutions_at_beta(2.0, [7.5], (-6.0, 10.0)).roots[0]
    assert len(roots) == 2
    assert roots[0] == pytest.approx(3.777292, abs=1e-5)
    assert roots[1] == pytest.approx(5.861400, abs=1e-5)


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
        assert len(calls) <= rs.N_COARSE + rs._CHECK_SHOTS + 2 * n_roots
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_flat_curve_stops_splitting_at_the_estimator_gap(monkeypatch):
    """At l = 0 the curve is beta = 4 and beta' is noise at the estimator gap
    (about 2e-12): no split can lift |P'| to MARGIN_GOAL gaps, so the search
    does not split down to the finest spacing for the margin, and the
    certificate stays unproven."""
    calls = []
    real_shoot = sh.shoot

    def counting_shoot(*args, **kw):
        calls.append(args)
        return real_shoot(*args, **kw)

    monkeypatch.setattr(sh, "shoot", counting_shoot)
    search = sh.solutions_at_beta(0.0, [4.5], (-6.0, 10.0))
    assert len(calls) <= 60
    assert not search.certificate.ok and search.roots == [[]]


def test_shared_curve_reports_beta_range():
    search = sh.solutions_at_beta(2.0, [5.0, 6.0, 7.0], (-6.0, 10.0))
    lo, hi = search.beta_range
    assert 7.0 < lo <= hi < 12.0          # why l = 2 finds no root at 5, 6 or 7
    assert search.roots == [[], [], []]


def test_shared_curve_skips_unresolved_samples(monkeypatch):
    """At l = 1 the shots past s = 26 are unresolved: the search keeps the
    converged stretch, finds there the root a bracket ending at 26 finds,
    and none for a mass that only the unresolved samples reach."""
    targets = [4.0002, 4.000005]
    monkeypatch.setattr(rs, "N_COARSE", 17)
    cut = sh.solutions_at_beta(1.0, targets, (18.0, 34.0))
    monkeypatch.setattr(rs, "N_COARSE", 9)
    full = sh.solutions_at_beta(1.0, targets, (18.0, 26.0))
    assert cut.unresolved_samples == 8 and full.unresolved_samples == 0
    assert len(full.roots[0]) == 1 and cut.roots[0] == full.roots[0]
    assert cut.roots[1] == full.roots[1] == []
    assert cut.beta_range == full.beta_range
    assert not cut.certificate.ok


def test_quintic_mass_rule_is_sixth_order():
    """Bubble v = log 8 - 2 log(1 + r^2) with exact v, v', v'' on uniform
    nodes: the quintic Hermite interpolant at the Gauss nodes and the
    three-point rule that _integrate sums, on the inner leg's integrand e^v r."""
    def v(r):
        return math.log(8.0) - 2.0 * np.log1p(r * r)

    def error(n):
        r = np.linspace(0.0, 3.0, n + 1)
        h = np.diff(r)
        vq = sh._hermite_at(h, v(r), -4.0 * r / (1.0 + r * r),
                            -4.0 * (1.0 - r * r) / (1.0 + r * r) ** 2)
        rq = r[:-1] + sh._GAUSS3_NODES[:, None] * h
        mass = float(np.sum(sh._GAUSS3_WEIGHTS[:, None] * h * (np.exp(vq) * rq)))
        return abs(mass - 4.0 * 9.0 / 10.0)

    assert error(8) >= 40.0 * error(16) > 0.0
    assert error(16) >= 40.0 * error(32) > 0.0


# the l and s range of the curves workload
CURVES_GRID = [(l, float(s)) for l in (0.0, 0.5, 1.0, 2.0) for s in np.linspace(-5.0, 8.0, 14)]


def test_steps_per_shot_over_the_curves_grid():
    """Accepted plus rejected steps per shot.  The median is 161.5: the series
    start at r0 = 0.5 / sqrt(M) skips the stretch of t just after a start at
    0.01 / sqrt(M), where that start took a sixth of its 198."""
    steps = []
    for l, s in CURVES_GRID:
        sol = sh.shoot(l, s)
        steps.append(len(sol.r_grid) - 1 + sol.rejected_steps)
    assert np.median(steps) <= 165


@pytest.mark.parametrize("s", [40.0, 100.0])
def test_concentrated_starts_take_few_steps(s):
    """The profile's scale e^{-s/2} sets t0 = log r0, so a concentrated start
    adds about s/2 unit steps in t, not steps that shrink with the scale."""
    sol = sh.shoot(1.0, s)
    assert len(sol.r_grid) - 1 + sol.rejected_steps <= 400


def test_outer_step_cap_bounds_the_far_field_error(monkeypatch):
    """The v error is measured against tol, not tol (1 + |v|), so the large
    |V| of the far field does not loosen the step there, and a step cap
    of 1.0 keeps the far field as accurate as the old cap of 0.12 did: against
    tol = 1e-13 with a cap of 0.01, beta_mass is within 7e-10 (1.04e-9 under
    the relative norm) and c_asym within 2e-9 over the grid."""
    shots = [sh.shoot(l, s) for l, s in CURVES_GRID]
    monkeypatch.setattr(sh, "_HMAX", 0.01)
    monkeypatch.setattr(sh, "TOL", 1e-13)
    refs = [sh.shoot(l, s) for l, s in CURVES_GRID]
    assert max(abs(a.beta_mass - b.beta_mass) for a, b in zip(shots, refs)) <= 7e-10
    assert max(abs(a.c_asym - b.c_asym) for a, b in zip(shots, refs)) <= 2e-9


def test_brent_matches_closed_form_root():
    f = lambda x: math.cos(x) - x
    root = rs.brent(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
    assert root == pytest.approx(0.7390851332151607, abs=1e-12)


def test_integrator_step_budget_raises_typed_error(monkeypatch):
    """The l = 1 bubble in t = log r from r = 1 to r = e^10."""
    xs, vs, ps = [0.0], [math.log(12.0 / 8.0)], [-3.0]
    monkeypatch.setattr(sh, "MAX_STEPS", 3)
    with pytest.raises(NonConvergenceError) as info:
        sh._rk_adaptive(1.0, 10.0, 1e-10, (xs, vs, ps), 1e-2)
    assert 0.0 < info.value.best < 10.0
    assert info.value.best == xs[-1]


def test_series_start_step_budget_raises_typed_error(monkeypatch):
    """The l = 1, s = 0 shot from its series start t0 = log r0: the error
    carries the last accepted t."""
    monkeypatch.setattr(sh, "MAX_STEPS", 3)
    with pytest.raises(NonConvergenceError) as info:
        sh.shoot(1.0, 0.0)
    assert math.log(sh.START_RADIUS) < info.value.best < 0.0


# Generic references for the unrolled kernel, both on V'' = -q(t, V) in
# t = log r.  The Nystrom loop is the Cash-Karp tableau loop in Nystrom form,
# with A^2, bA and eA formed exactly and rounded once and generator stage sums,
# driven by a closure that holds the right-hand side as it was before the
# kernel inlined it; the kernel must reproduce it bit for bit.  The
# first-order loop steps y = (V, W) with the same tableau: the same method,
# which the kernel must follow step for step.
_CK_C = (Fraction(0), Fraction(1, 5), Fraction(3, 10), Fraction(3, 5), Fraction(1),
         Fraction(7, 8))
_CK_A = (
    (),
    (Fraction(1, 5),),
    (Fraction(3, 40), Fraction(9, 40)),
    (Fraction(3, 10), Fraction(-9, 10), Fraction(6, 5)),
    (Fraction(-11, 54), Fraction(5, 2), Fraction(-70, 27), Fraction(35, 27)),
    (Fraction(1631, 55296), Fraction(175, 512), Fraction(575, 13824), Fraction(44275, 110592),
     Fraction(253, 4096)),
)
_CK_B5 = (Fraction(37, 378), Fraction(0), Fraction(250, 621), Fraction(125, 594), Fraction(0),
          Fraction(512, 1771))
_CK_ERR = (Fraction(-277, 64512), Fraction(0), Fraction(6925, 370944), Fraction(-6925, 202752),
           Fraction(-277, 14336), Fraction(277, 7084))


def _a(i, j):
    return _CK_A[i][j] if j < i else Fraction(0)


def _floats(row):
    return tuple(float(a) for a in row)


_C, _B5, _ERR = _floats(_CK_C), _floats(_CK_B5), _floats(_CK_ERR)
_A = tuple(_floats(row) for row in _CK_A)
# the Nystrom coefficients: row i of A^2 over the stages before it, bA and eA
_A2 = tuple(_floats(sum(_a(i, m) * _a(m, j) for m in range(6)) for j in range(i))
            for i in range(6))
_BA = _floats(sum(_CK_B5[i] * _a(i, j) for i in range(6)) for j in range(6))
_EA = _floats(sum(_CK_ERR[i] * _a(i, j) for i in range(6)) for j in range(6))


def test_nystrom_coefficients_are_the_tableaus_products():
    """The exact rationals the kernel writes for A^2, bA and eA."""
    assert _A2 == ((), (0.0,), (9 / 200, 0.0), (-9 / 100, 27 / 100, 0.0),
                   (25 / 36, -7 / 4, 14 / 9, 0.0),
                   (4949 / 27648, -805 / 4096, 8855 / 27648, 8855 / 110592, 0.0))
    assert _BA == (11 / 108, 0.0, 50 / 189, 25 / 216, 1 / 56, 0.0)
    assert _EA == (-277 / 73728, 0.0, 1385 / 129024, -1385 / 147456, 277 / 114688, 0.0)
    # the identities the Nystrom form rests on: rows of A sum to c, b to 1, e to 0
    assert all(sum(_CK_A[i]) == _CK_C[i] for i in range(6))
    assert sum(_CK_B5) == 1 and sum(_CK_ERR) == 0


def _force_reference(l):
    """W' = -q(t, V) on the log-radial leg."""
    exp, log1p = math.exp, math.log1p
    two_l2 = 2.0 + 2.0 * l
    return lambda t, v: -exp(two_l2 * t + l * log1p(exp(-2.0 * t)) + v)


def _next_step(h, err):
    """The kernel's step update after a step with this error."""
    fac = 0.9 * (err ** -0.2) if err > 0 else 5.0
    return h * min(5.0, max(0.2, fac))


def _rk_first_order_reference(l, x0, v0, p0, x1, tol, h0, store_x, store_v, store_p, hmax):
    """First-order Cash-Karp loop: y = (V, W), y' = (W, -q(t, V))."""
    force = _force_reference(l)

    def f(t, v, w):
        return w, force(t, v)

    x = x0
    y = [v0, p0]
    h, h_open = h0, 0.0
    steps = rejected = 0
    while x < x1:
        h = min(h, hmax)
        if x + h > x1:
            h_open, h = h, x1 - x
        k = [f(x, *y)]
        for i in range(1, 6):
            a = _A[i]
            yi = [y[0] + h * sum(a[j] * k[j][0] for j in range(i)),
                  y[1] + h * sum(a[j] * k[j][1] for j in range(i))]
            k.append(f(x + _C[i] * h, *yi))
        e0 = h * sum(_ERR[i] * k[i][0] for i in range(6))
        e1 = h * sum(_ERR[i] * k[i][1] for i in range(6))
        err = max(abs(e0) / tol, abs(e1) / (tol * (1.0 + abs(y[1]))))
        if err <= 1.0:
            y = [y[0] + h * sum(_B5[i] * k[i][0] for i in range(6)),
                 y[1] + h * sum(_B5[i] * k[i][1] for i in range(6))]
            x += h
            store_x.append(x)
            store_v.append(y[0])
            store_p.append(y[1])
        else:
            rejected += 1
        h = _next_step(h, err)
        steps += 1
        if steps > sh.MAX_STEPS:
            raise NonConvergenceError("adaptive integrator exceeded the step budget", best=x)
    return rejected, max(h_open, h)


def _rk_nystrom_reference(l, x0, v0, p0, x1, tol, h0, store_x, store_v, store_p, hmax):
    """Nystrom Cash-Karp loop for V'' = -q(t, V): the stages carry V only."""
    force = _force_reference(l)
    x, v, w = x0, v0, p0
    h, h_open = h0, 0.0
    steps = rejected = 0
    while x < x1:
        h = min(h, hmax)
        if x + h > x1:
            h_open, h = h, x1 - x
        k = []
        for i in range(6):
            vi = v + h * (_C[i] * w + h * sum(_A2[i][j] * k[j] for j in range(i)))
            k.append(force(x + _C[i] * h, vi))
        e0 = h * (h * sum(_EA[i] * k[i] for i in range(6)))
        e1 = h * sum(_ERR[i] * k[i] for i in range(6))
        err = max(abs(e0) / tol, abs(e1) / (tol * (1.0 + abs(w))))
        if err <= 1.0:
            v = v + h * (w + h * sum(_BA[i] * k[i] for i in range(6)))
            w = w + h * sum(_B5[i] * k[i] for i in range(6))
            x += h
            store_x.append(x)
            store_v.append(v)
            store_p.append(w)
        else:
            rejected += 1
        h = _next_step(h, err)
        steps += 1
        if steps > sh.MAX_STEPS:
            raise NonConvergenceError("adaptive integrator exceeded the step budget", best=x)
    return rejected, max(h_open, h)


def _on_store(loop):
    """loop behind the kernel's signature: from the last node of store and the
    given first step, with the kernel's step cap; it returns the rejected steps
    and the last step proposed before x1 clipped one."""
    def run(l, x1, tol, store, h):
        xs, vs, ps = store
        return loop(l, xs[-1], vs[-1], ps[-1], x1, tol, h, *store, sh._HMAX)
    return run


_rk_reference_on_store = _on_store(_rk_nystrom_reference)
_rk_first_order_on_store = _on_store(_rk_first_order_reference)


def _assert_same_shot(new, ref):
    assert np.array_equal(new.r_grid, ref.r_grid)
    assert np.array_equal(new.values, ref.values)
    for nodes_new, nodes_ref in zip(new.nodes, ref.nodes):
        assert np.array_equal(nodes_new, nodes_ref)
    assert new.beta_mass == ref.beta_mass
    assert new.beta_slope == ref.beta_slope
    assert new.c_asym == ref.c_asym
    assert new.verdict == ref.verdict
    assert new.rejected_steps == ref.rejected_steps


KERNEL_LS = [0.0, 0.5, 1.0, 2.0]
KERNEL_SS = [-6.0, -5.0, 0.0, math.log(12.0), 8.0, 10.0]


@pytest.mark.parametrize("l", KERNEL_LS)
@pytest.mark.parametrize("s", KERNEL_SS)
def test_unrolled_kernel_matches_reference_bit_for_bit(monkeypatch, l, s):
    new = sh.shoot(l, s)
    monkeypatch.setattr(sh, "_rk_adaptive", _rk_reference_on_store)
    _assert_same_shot(new, sh.shoot(l, s))


def test_unrolled_kernel_matches_reference_over_the_curves_grid(monkeypatch):
    """Every shot of the curves workload's range, and a shot with rejected steps."""
    grid = CURVES_GRID + [(2.0, 7.0)]
    shots = [sh.shoot(l, s) for l, s in grid]
    assert shots[-1].rejected_steps >= 1
    monkeypatch.setattr(sh, "_rk_adaptive", _rk_reference_on_store)
    for new, (l, s) in zip(shots, grid):
        _assert_same_shot(new, sh.shoot(l, s))


def test_unrolled_kernel_matches_reference_through_far_field_extension(monkeypatch):
    r_max = 50.0
    new = sh.shoot(2.0, 12.0, r_max=r_max)
    assert new.r_grid[-1] > 2.0 * r_max          # the extension loop ran
    monkeypatch.setattr(sh, "_rk_adaptive", _rk_reference_on_store)
    _assert_same_shot(new, sh.shoot(2.0, 12.0, r_max=r_max))


def test_nystrom_leg_takes_the_first_order_steps(monkeypatch):
    """The Nystrom form is the same method as the first-order loop: on every
    shot the bit-for-bit tests cover, the same accepted and rejected steps,
    the same start and the masses and c_asym within rounding."""
    shots = ([(l, s, 1e6) for l in KERNEL_LS for s in KERNEL_SS]
             + [(l, s, 1e6) for l, s in CURVES_GRID + [(2.0, 7.0)]] + [(2.0, 12.0, 50.0)])
    new = [sh.shoot(l, s, r_max=r_max) for l, s, r_max in shots]
    monkeypatch.setattr(sh, "_rk_adaptive", _rk_first_order_on_store)
    for a, (l, s, r_max) in zip(new, shots):
        b = sh.shoot(l, s, r_max=r_max)
        assert (len(a.r_grid), a.rejected_steps) == (len(b.r_grid), b.rejected_steps)
        assert all(x[0] == y[0] for x, y in zip(a.nodes, b.nodes))
        assert abs(a.beta_mass - b.beta_mass) <= 1e-12
        assert abs(a.beta_slope - b.beta_slope) <= 1e-12
        assert abs(a.c_asym - b.c_asym) <= 1e-11
        assert a.verdict == b.verdict


def test_rejected_steps_count_repeats():
    counts = [sh.shoot(2.0, 7.0).rejected_steps for _ in range(2)]
    assert all(isinstance(c, int) and c >= 0 for c in counts)
    assert counts[0] == counts[1] >= 1


def test_rejected_steps_sum_every_kernel_call(monkeypatch):
    """A shot whose far field is extended calls the kernel once per stretch of
    t; its rejected_steps is the sum of what every call returns (offset by one
    per call here, since an extension stretch rejects no step)."""
    counts = []
    kernel = sh._rk_adaptive

    def counted(*args):
        rejected, h = kernel(*args)
        counts.append(rejected + 1)
        return counts[-1], h

    monkeypatch.setattr(sh, "_rk_adaptive", counted)
    sol = sh.shoot(1.0, 22.0)
    assert len(counts) > 1 and sol.rejected_steps == sum(counts)


def test_far_field_extensions_keep_their_step(monkeypatch):
    """Each extension of 10 in t goes on at the step the stretch before it
    proposed, the cap _HMAX = 1 in the far field, so it takes 10 steps (at
    most 11), not the 13 of a restart at the first step 1e-2."""
    steps = []
    kernel = sh._rk_adaptive

    def counted(l, x1, tol, store, h):
        before = len(store[0])
        rejected, h_next = kernel(l, x1, tol, store, h)
        steps.append(len(store[0]) - before + rejected)
        return rejected, h_next

    monkeypatch.setattr(sh, "_rk_adaptive", counted)
    sh.shoot(1.0, 32.0)
    assert len(steps) == 6 and max(steps[1:]) <= 11



def test_nodes_rebuild_the_profile():
    """The nodes are (t, V, W) from t0 = log r0, r0 = 0.5 / sqrt(max(1, e^s, l)),
    out to r_max: the profile is r = e^t against V."""
    for l, s in ((1.0, 2.0), (2.0, -1.0), (0.5, -3.0), (3.0, 0.5)):
        sol = sh.shoot(l, s)
        t, V, _ = sol.nodes
        assert math.exp(t[0]) == pytest.approx(0.5 / math.sqrt(max(1.0, math.exp(s), l)), rel=1e-12)
        assert np.all(np.diff(t) > 0.0) and t[-1] == pytest.approx(math.log(1e6), abs=1e-12)
        assert np.array_equal(sol.r_grid, np.exp(t)) and np.array_equal(sol.values, V)


# -- unresolved verdicts ------------------------------------------------------


@pytest.mark.parametrize("l, s", [(1.0, 32.0), (1.0, 34.0), (1.0, 36.0), (1.0, 38.0),
                                  (0.5, 26.0), (0.5, 30.0), (1.0, -40.0)])
def test_unresolved_rate_or_edge_mass(l, s):
    """beta - 4 falls below the integration error for very concentrated starts,
    and 4(1 + l) - beta for very spread ones: the rate at t_cap (l = 1, large
    s) or the mass's distance to the window edge (l = 0.5, about 2e-9 at
    s = 26; l = 1, s = -40, about 2e-9) is not above _RATE_RESOLUTION TOL,
    and the shot says so.  The mass sits at the edge its start tends to: 4 as
    s -> inf, 4(1 + l) as s -> -inf."""
    edge = 4.0 if s > 0.0 else 4.0 * (1.0 + l)
    sol = sh.shoot(l, s)
    assert sol.verdict == "unresolved"
    assert abs(sol.beta_mass - edge) <= 1e-5


@pytest.mark.parametrize("l", [0.5, 1.0, 2.0])
def test_converged_masses_lie_inside_the_window(l):
    for s in (-30.0, -6.0, 0.0, 10.0, 20.0, 26.0, 28.0, 30.0, 40.0):
        sol = sh.shoot(l, s)
        assert sol.verdict in ("converged", "unresolved")
        if sol.verdict == "converged":
            assert 4.0 < sol.beta_mass < 4.0 * (1.0 + l)


@pytest.mark.parametrize("l", [0.0, 0.5, 1.0, 2.0])
def test_verdicts_on_the_search_bracket_stay_converged(l):
    assert all(sh.shoot(l, float(s)).verdict == "converged" for s in np.linspace(-6.0, 10.0, 17))


@pytest.mark.parametrize("l, s", [(0.0, -130.0), (0.0, -200.0), (1.0, -300.0)])
def test_unreached_far_field_is_unresolved(l, s):
    """Starts whose scale e^{-s/2} lies past e^60 keep a negative decay rate up
    to t_cap; every radial mass is finite, so the shot is unresolved, and the
    conserved rate^2 + 2q still puts its mass at the s -> -inf limit 4(1+l)."""
    sol = sh.shoot(l, s)
    assert sol.verdict == "unresolved" and math.isnan(sol.c_asym)
    assert sol.beta_mass == pytest.approx(4.0 * (1.0 + l), abs=1e-9)


def test_root_search_counts_unresolved_samples(monkeypatch):
    monkeypatch.setattr(rs, "N_COARSE", 4)
    search = sh.solutions_at_beta(1.0, [4.0001], (30.0, 38.0))
    assert search.unresolved_samples == 4
    assert search.roots == [[]]
    assert not search.certificate.ok and search.certificate.count(4.0001) is None


# -- beta' from the Jacobi field ----------------------------------------------

# s = 8 at l = 1 leaves the most mass past r_max on this grid, so the tail's
# derivative moves beta' there by 1e-4 if it reads the last node's neighbour
SLOPE_GRID = [(l, s) for l in (0.0, 0.5, 1.0, 2.0) for s in (-6.0, -2.0, 2.0, 4.7, 8.0, 10.0)]


@pytest.mark.parametrize("l, s", SLOPE_GRID)
def test_beta_prime_matches_finite_difference(l, s):
    h = 1e-3
    b = [sh.shoot(l, s + k * h).beta_mass for k in (-2, -1, 1, 2)]
    fd = (b[0] - 8.0 * b[1] + 8.0 * b[2] - b[3]) / (12.0 * h)
    slope_form, mass_form = sh.beta_prime(sh.shoot(l, s))
    assert abs(mass_form - fd) <= 1e-6 and abs(slope_form - fd) <= 1e-6


@pytest.mark.parametrize("l, s", SLOPE_GRID)
def test_beta_prime_forms_agree(l, s):
    slope_form, mass_form = sh.beta_prime(sh.shoot(l, s))
    assert abs(slope_form - mass_form) <= 1e-6
    if l == 0.0:
        assert abs(mass_form) <= 1e-6          # the flat curve


def test_beta_prime_needs_a_converged_shot():
    with pytest.raises(ValueError):
        sh.beta_prime(sh.shoot(1.0, 34.0))


# -- the slope certificate ----------------------------------------------------


def _synthetic(beta, slope):
    return lambda s: ("converged", beta(s), slope(s), 0.0)


@pytest.mark.parametrize("bracket", [(6.0, 2.0), (5.0, 5.0)])
def test_search_refuses_a_reversed_or_empty_bracket(bracket):
    """A spacing at or below zero would pass every slope bound of the
    certificate, so the search refuses the bracket before sampling it."""
    def curve(s):
        raise AssertionError("sampled a refused bracket")

    with pytest.raises(ValueError, match="empty or reversed"):
        rs.search_curve(curve, [6.0], bracket)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_search_refuses_a_non_finite_target(target):
    """No sign change of beta - target exists for a NaN or infinite target, so
    the certificate would predict 0 roots and a count of 0 would pass."""
    def curve(s):
        raise AssertionError("sampled for a refused target")

    with pytest.raises(ValueError, match="finite"):
        rs.search_curve(curve, [6.0, target], (-6.0, 10.0))


def test_certificate_rejects_a_hidden_double_root():
    """beta - 5 = cosh(s - 1.25) - 1 touches zero between the samples 1.0 and
    1.5: every sample lies above the target, so sign counting sees no root.
    beta' changes sign there, the turning point lands on the double root, its
    band holds the target, and the certificate predicts no count."""
    curve = _synthetic(lambda s: 4.0 + math.cosh(s - 1.25), lambda s: math.sinh(s - 1.25))
    search = rs.search_curve(curve, [5.0, 5.5], (-6.0, 10.0))
    cert = search.certificate
    assert cert.ok
    assert [tp[0] for tp in cert.turning_points] == [pytest.approx(1.25, abs=1e-8)]
    assert search.roots[0] == [pytest.approx(1.25, abs=1e-8)] and cert.count(5.0) is None
    assert not acceptance.uniqueness_verdict(search, 5.0, 1)[1]
    assert cert.count(5.5) == 2 == len(search.roots[1])


def test_certificate_rejects_a_wiggle_the_checks_see():
    """A bump of width 0.05 at s = 3, the midpoint of the coarse samples 2 and
    4, turns beta up and back down: beta = 5.78 then has three roots, and
    the coarse samples show one sign change.  The check shot the refinement
    makes at s = 3 sees the bump, and the error bound it sets swallows the
    margins: refinement down to the finest spacing brackets all three roots
    but cannot certify the shape between them."""
    def bump(s):
        return 0.05 * math.exp(-((s - 3.0) / 0.05) ** 2)

    smooth = (lambda s: 6.0 - 0.2 * math.atan(s), lambda s: -0.2 / (1.0 + s * s))
    clean = rs.search_curve(_synthetic(*smooth), [5.78], (-6.0, 10.0))
    assert clean.certificate.ok and clean.certificate.count(5.78) == 1
    assert 3.0 in [check[0] for check in clean.certificate.checks]
    bumped = rs.search_curve(_synthetic(lambda s: smooth[0](s) + bump(s),
                                        lambda s: smooth[1](s) - 800.0 * (s - 3.0) * bump(s)),
                             [5.78], (-6.0, 10.0))
    assert [smooth[0](s) + bump(s) > 5.78 for s in (2.85, 3.0, 3.15)] == [False, True, False]
    assert [smooth[0](s) > 5.78 for s in np.linspace(-6.0, 10.0, rs.N_COARSE)].count(True) == 4
    assert len(bumped.roots[0]) == 3
    assert not bumped.certificate.ok and bumped.certificate.count(5.78) is None


def test_refinement_meets_its_goals():
    """beta = 5 + e^{s/2} passes the margin goal from the coarse samples on,
    but not the goal on |beta - P| near s = 10: midpoint shots refine there
    until the bound is met.  The nodes are the coarse samples, the check
    shots and the turning points; the Newton shots of the root are not."""
    curve = _synthetic(lambda s: 5.0 + math.exp(0.5 * s), lambda s: 0.5 * math.exp(0.5 * s))
    search = rs.search_curve(curve, [5.0 + math.exp(0.65)], (-6.0, 10.0))
    cert = search.certificate
    assert search.roots == [[pytest.approx(1.3, abs=1e-8)]]
    assert cert.ok and cert.margin >= rs.MARGIN_GOAL and cert.beta_error <= rs.BETA_GOAL
    assert len(cert.checks) > rs._CHECK_SHOTS
    coarse = np.linspace(-6.0, 10.0, rs.N_COARSE).tolist()
    assert cert.nodes == sorted(cert.nodes)
    assert set(cert.nodes) == set(coarse + [check[0] for check in cert.checks]
                                  + [tp[0] for tp in cert.turning_points])


def test_newton_leaving_the_bracket_falls_back_to_brent_on_shots(monkeypatch):
    """beta = 5 + tanh(2000 (s - 0.9)) steps up over a width far below the finest
    node spacing.  The Hermite root lands on the upper plateau, where beta - 5
    reads 1 and beta' is below 1e-30, so the first Newton step leaves the
    bracket and Brent on shots takes over.  Both ends of its bracket read
    beta - 5 = -1 and +1 exactly, so no interpolation beats bisection there:
    its first shot is the bracket's midpoint."""
    k, s0 = 2000.0, 0.9
    curve = _synthetic(lambda s: 5.0 + math.tanh(k * (s - s0)),
                       lambda s: k / math.cosh(min(k * abs(s - s0), 300.0)) ** 2)
    brent, calls = rs.brent, []

    def spy(f, a, b, fa, fb, tol):
        xs = []
        root = brent(lambda x: xs.append(x) or f(x), a, b, fa, fb, tol)
        calls.append((a, b, fa, fb, tol, xs))
        return root

    monkeypatch.setattr(rs, "brent", spy)
    search = rs.search_curve(curve, [5.0], (-6.0, 10.0))
    assert search.roots == [[pytest.approx(s0, abs=rs.ROOT_TOL)]]
    hermite, shots = calls                  # no turning point: Brent on P, then on shots
    assert hermite[4] < rs.ROOT_TOL and shots[4] == rs.ROOT_TOL
    a, b, fa, fb, _, xs = shots
    assert (fa, fb) == (-1.0, 1.0) and max(curve(a)[2], curve(b)[2]) < 1e-30
    assert xs[0] == pytest.approx(0.5 * (a + b), abs=1e-15)


def test_gap_inside_the_bracket_cuts_the_runs():
    """beta = 6 - 0.2 atan(s) with the coarse sample at s = 2 unresolved: the
    runs end at the converged samples 0 and 4 on either side of it, so 5.9,
    whose root tan(0.5) lies in the gap, has none, and the certificate names
    the gap."""
    def curve(s):
        if s == 2.0:
            return "unresolved", math.nan, math.nan, math.nan
        return "converged", 6.0 - 0.2 * math.atan(s), -0.2 / (1.0 + s * s), 0.0

    search = rs.search_curve(curve, [6.2, 5.9, 5.72], (-6.0, 10.0))
    cert = search.certificate
    assert search.roots == [[pytest.approx(-math.tan(1.0), abs=1e-8)], [],
                            [pytest.approx(math.tan(1.4), abs=1e-8)]]
    assert [run[:2] for run in cert.runs] == [(-6.0, 0.0), (4.0, 10.0)]
    assert [run[2:] for run in cert.runs] == [(curve(a)[1], curve(b)[1]) for a, b, _, _ in cert.runs]
    assert search.unresolved_samples == 1
    assert not cert.ok and cert.reason == "1 samples not converged"


def test_stationary_mass_has_two_profiles_only_below_alpha_half():
    """The stationary mass 4 + 2l lies below 4l exactly when l > 2, i.e.
    alpha = 1/(1 + l/2) < 1/2: one radial profile at l = 1.5, two at l = 2.5."""
    for l, beta, count in ((1.5, 7.0, 1), (2.5, 9.0, 2)):
        search = sh.solutions_at_beta(l, [beta], (-6.0, 10.0))
        assert search.certificate.ok
        assert len(search.roots[0]) == search.certificate.count(beta) == count


def test_l2_rows_find_two_profiles_below_4l_and_one_above():
    targets = (7.2, 7.5, 7.9, 9.0, 11.0)
    search = sh.solutions_at_beta(2.0, targets, (-6.0, 10.0))
    cert = search.certificate
    assert cert.ok and len(cert.turning_points) == 1
    s_min, beta_min = cert.turning_points[0]
    assert beta_min == pytest.approx(7.352, abs=1e-3) and s_min == pytest.approx(4.68, abs=1e-2)
    assert [len(r) for r in search.roots] == [cert.count(t) for t in targets] == [0, 2, 2, 1, 1]
    assert s_min in cert.nodes and cert.margin >= rs.MARGIN_GOAL


def test_criterion_8_shot_count(monkeypatch):
    calls = []
    real_shoot = sh.shoot

    def counting_shoot(*args, **kw):
        calls.append(args)
        return real_shoot(*args, **kw)

    monkeypatch.setattr(sh, "shoot", counting_shoot)
    counts = []
    for _ in range(2):
        calls.clear()
        rows = acceptance.criterion_8(acceptance.DEFAULT_SEED, None)
        assert all(row["passed"] for row in rows)
        assert all(row["certificate"]["margin"] >= rs.MARGIN_GOAL for row in rows if "certificate" in row)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 65
