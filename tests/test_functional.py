"""The sphere functional: value, gradient, recentering, minimisation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from onofri import axisym as ax, conformal, functional as fn, quadrature, sphere
from onofri.errors import GridConfigError, InvalidFieldError, NonConvergenceError

import reference_solvers as ref


def coordinate(grid, which=2):
    return sphere.field_of(grid, lambda a, b, c: (a, b, c)[which])


# ---------------------------------------------------------------------------
# j_alpha
# ---------------------------------------------------------------------------


def test_value_at_zero(grid16):
    assert fn.j_alpha(ref.constant_field(grid16, 0.0), 0.8) == 0.0


def test_taylor_value_along_coordinate(grid16):
    """Second-order expansion: j(eps x3) = (alpha-1)/6 eps^2 + O(eps^4)."""
    eps, alpha = 0.05, 0.5
    u = eps * coordinate(grid16)
    expected = (alpha - 1.0) / 6.0 * eps**2
    assert fn.j_alpha(u, alpha) == pytest.approx(expected, abs=5e-6)
    assert expected == pytest.approx(-2.0833e-4, abs=1e-8)


def test_overflow_stabilised(grid16):
    u = sphere.field_of(grid16, lambda a, b, c: 400.0 * c)
    val = fn.j_alpha(u, 1.0)
    assert np.isfinite(val)


def test_j_alpha_rejects_nonfinite_field(grid8):
    u = ref.constant_field(grid8, 0.0)
    u.values[1, 2] = np.nan
    with pytest.raises(InvalidFieldError):
        fn.j_alpha(u, 0.8)


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_shift_invariance(seed):
    g = sphere.build_grid(8)
    u = fn.random_start(g, (seed,))
    c = 0.37 * (1 + seed % 5)
    assert fn.j_alpha(u + c, 0.8) == pytest.approx(fn.j_alpha(u, 0.8), abs=1e-12)


@given(st.integers(0, 10**6), st.integers(1, 63))
@settings(max_examples=15)
def test_azimuthal_rotation_invariance(seed, shift):
    """Rotating about the polar axis permutes grid columns exactly."""
    g = sphere.build_grid(8)
    u = fn.random_start(g, (seed,))
    rotated = sphere.SphereField(g, np.roll(u.values, shift, axis=1))
    assert fn.j_alpha(rotated, 0.7) == pytest.approx(fn.j_alpha(u, 0.7), abs=1e-12)


def test_general_rotation_invariance(grid16):
    """Resample a closed-form field under a 90-degree rotation about x1."""
    u = sphere.field_of(grid16, lambda a, b, c: 0.4 * c + 0.3 * a * b + 0.2 * b)
    rot = sphere.field_of(grid16, lambda a, b, c: 0.4 * (-b) + 0.3 * a * c + 0.2 * c)
    assert fn.j_alpha(rot, 0.8) == pytest.approx(fn.j_alpha(u, 0.8), abs=1e-10)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_zero_at_zero(grid16):
    g = fn.gradient_j(ref.constant_field(grid16, 0.0), 0.9)
    assert np.max(np.abs(g.values)) <= 1e-14


def test_gradient_matches_finite_differences(grid16):
    """Directional derivative oracle at step 1e-5, relative 1e-6."""
    u = fn.random_start(grid16, (11,))
    h = fn.random_start(grid16, (13,))
    alpha, d = 0.8, 1e-5
    fd = (fn.j_alpha(u + d * h.values, alpha) - fn.j_alpha(u - d * h.values, alpha)) / (2.0 * d)
    an = sphere.integrate(sphere.SphereField(grid16, fn.gradient_j(u, alpha).values * h.values))
    assert abs(fd - an) <= 1e-6 * max(abs(an), 1e-3)


def test_gradient_linearisation(grid16):
    eps, alpha = 1e-3, 0.7
    u = eps * coordinate(grid16)
    g = fn.gradient_j(u, alpha)
    lin = eps * (alpha - 1.0) * coordinate(grid16).values
    assert np.max(np.abs(g.values - lin)) <= 5.0 * eps**2


# ---------------------------------------------------------------------------
# center of mass and recentering
# ---------------------------------------------------------------------------


def test_com_zero_field(grid16):
    assert np.linalg.norm(fn.center_of_mass(ref.constant_field(grid16, 0.0))) <= 1e-14


def test_com_first_order(grid16):
    eps = 0.01
    c = fn.center_of_mass(eps * coordinate(grid16))
    assert c[2] == pytest.approx(eps / 3.0, abs=1e-6)
    assert abs(c[0]) <= 1e-14 and abs(c[1]) <= 1e-14


def test_com_rotation_equivariance(grid16):
    """com(u o R) = R^{-1} com(u) for the 90-degree rotation about x1.

    R: (x1, x2, x3) -> (x1, x3, -x2); u o R resampled in closed form.
    """
    u = sphere.field_of(grid16, lambda a, b, c: 0.3 * c + 0.2 * a + 0.1 * a * b)
    u_rot = sphere.field_of(grid16, lambda a, b, c: 0.3 * (-b) + 0.2 * a + 0.1 * a * c)
    com = fn.center_of_mass(u)
    com_rot = fn.center_of_mass(u_rot)
    r_inv_com = np.array([com[0], -com[2], com[1]])
    assert np.max(np.abs(com_rot - r_inv_com)) <= 1e-10


def test_recenter_identity_on_centered(grid16):
    u = ref.constant_field(grid16, 0.0)
    out = ref.recenter(u)
    assert np.max(np.abs(out.values)) <= 1e-12


def test_recenter_coordinate_field(grid16):
    """The tilt of eps x3 is -eps x3: it returns the zero field."""
    u = 0.3 * coordinate(grid16)
    out = ref.recenter(u)
    assert np.linalg.norm(fn.center_of_mass(out)) <= 1e-10
    assert np.max(np.abs(out.values)) <= 1e-9
    assert sphere.log_exp_mass(out) <= sphere.log_exp_mass(u)


@given(st.integers(0, 10**6))
@settings(max_examples=10)
def test_recenter_tilts_degree_one_only(seed):
    g = sphere.build_grid(8)
    u = fn.random_start(g, (seed,), amplitude=1.5)
    out = ref.recenter(u)
    assert np.linalg.norm(fn.center_of_mass(out)) <= 1e-10
    change = sphere.analyze(out).coeffs - sphere.analyze(u).coeffs
    assert np.max(np.abs(np.delete(change, 1, axis=0))) <= 1e-13
    assert np.max(np.abs(change[1])) > 0.0
    assert sphere.log_exp_mass(out) <= sphere.log_exp_mass(u) + 1e-15


def test_pullback_alpha_one_invariance(grid32):
    """J_1 and the exp-mass are invariant under a Mobius pullback."""
    u = fn.random_start(grid32, (5,), degree=4, amplitude=0.2)
    for a in (np.array([0.1, 0.2, -0.15]), np.array([0.0, 0.0, 0.3])):
        out = fn.pullback(u, a)
        assert fn.j_alpha(out, 1.0) == pytest.approx(fn.j_alpha(u, 1.0), abs=1e-12)
        assert sphere.log_exp_mass(out) == pytest.approx(sphere.log_exp_mass(u), abs=1e-12)


def test_pullback_inverts_conformal_factor(grid32):
    """Pulling a log-Jacobian back by the inverse map leaves a constant."""
    a = np.array([0.0, 0.0, 0.5])
    pts = np.stack(grid32.points(), axis=-1)
    w = sphere.SphereField(grid32, conformal.log_conformal_factor(pts, a))
    out = fn.pullback(w, -a)
    assert np.max(np.abs(out.values - np.mean(out.values))) <= 1e-12


# ---------------------------------------------------------------------------
# Euler-Lagrange residual
# ---------------------------------------------------------------------------


def test_el_residual_zero(grid16):
    assert fn.el_residual(ref.constant_field(grid16, 0.0), 1.3) <= 1e-13


def test_el_residual_linearised(grid16):
    eps, rho = 0.01, 1.5
    u = eps * coordinate(grid16)
    expected = 2.0 * eps * abs(rho - 1.0) / np.sqrt(3.0)
    assert fn.el_residual(u, rho) == pytest.approx(expected, abs=1e-4)
    assert expected == pytest.approx(5.7735e-3, abs=1e-7)


# ---------------------------------------------------------------------------
# minimisation
# ---------------------------------------------------------------------------


def test_minimize_alpha_one(grid16):
    res = fn.minimize(1.0, fn.random_start(grid16, (42, 0, 0)))
    assert res.converged
    assert -1e-6 <= res.j_value <= 1e-3
    assert sphere.h1_norm(res.u) <= 1e-3
    assert res.com_norm <= 1e-10
    assert res.grad_norm <= 1e-8


def test_minimize_stationarity_implies_field_equation(grid16):
    alpha = 0.7
    res = fn.minimize(alpha, fn.random_start(grid16, (42, 0, 1)))
    assert res.converged and res.grad_norm <= 1e-8
    assert fn.el_residual(res.u, 1.0 / alpha) <= 1e-6


def test_minimize_multistart_alpha_07(grid16):
    best = np.inf
    for k in range(10):
        res = fn.minimize(0.7, fn.random_start(grid16, (7, 0, k)))
        best = min(best, res.j_value)
    assert best >= -1e-6


def test_unbounded_descent_verdict(grid16, monkeypatch):
    """Below the coercivity range a resolvable two-bubble start dives through
    the floor; the verdict replaces the minimiser."""
    u0 = ref.two_bubble_field(grid16, 2.0)
    monkeypatch.setattr(fn, "BLOWUP_FLOOR", -2.0)
    monkeypatch.setattr(fn, "MAX_ITER", 400)
    res = fn.minimize(0.3, u0)
    assert res.status == "unbounded-descent"
    assert res.j_value < -2.0


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0 / 3.0, 0.4, 0.7, 1.0])
def test_zero_hessian_is_the_clipped_second_variation(alpha):
    l = np.arange(65, dtype=float)
    h = fn.zero_hessian(alpha, 64)
    assert np.all(h > 0.0)
    exact = alpha / 2.0 * l * (l + 1.0) - 1.0
    floor = (2.0 * l + 1.0) / 16.0
    assert np.array_equal(h, np.where(exact >= floor, exact, floor))
    if alpha >= 0.25:
        # the floor acts on degrees 0 and 1, and on degree 2 only below 7/16
        clipped = exact < floor
        assert clipped[:2].all() and not clipped[3:].any()
        assert clipped[2] == (alpha < 7.0 / 16.0)


@pytest.mark.parametrize("alpha", [0.5, 2.0 / 3.0, 0.8, 1.0])
def test_minimize_converges_in_a_few_newton_like_steps(grid16, alpha):
    """The preconditioner is the Hessian at the minimiser, so full steps are
    accepted and a handful reach the gradient tolerance."""
    ia = int(round(10 * alpha))
    for k in range(10):
        res = fn.minimize(alpha, fn.random_start(grid16, (7, 3, ia, k)))
        assert res.converged and res.iterations <= 8 and res.backtracks == 0


def test_minimize_l32_converges_in_a_few_steps(grid32):
    res = fn.minimize(0.75, fn.random_start(grid32, (7, 32, 0)))
    assert res.converged and res.iterations <= 8 and res.backtracks == 0


def test_tilt_counts_newton_steps(grid16, monkeypatch):
    """One linear solve per Newton step, and none for a measure already centered."""
    solves = []
    solve = np.linalg.solve

    def counted_solve(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    pts, weights = grid16.node_points, grid16.node_weights
    c, _, steps = ref.tilt_lane(np.zeros(pts.shape[0]), weights, pts)
    assert steps == len(solves) == 0 and not c.any()
    for seed in range(4):
        solves.clear()
        u = fn.random_start(grid16, (seed,), amplitude=1.5).values.ravel()
        c, mom, steps = ref.tilt_lane(u, weights, pts)
        assert steps == len(solves) >= 2
        assert np.linalg.norm(mom.mean) <= 1e-10


@pytest.mark.parametrize("lmax", [8, 16, 32])
@pytest.mark.parametrize("lanes", [1, 10])
def test_second_moment_table_matches_the_direct_form(lmax, lanes):
    """The tilt's second moments, one product of each lane's density with the
    grid's table, are the weighted sum of x x^T over the nodes to 1e-15 of
    their trace.  The reference sums each entry's terms exactly (math.fsum);
    each term carries three roundings, and their errors, of either sign, add
    up to far below the bound."""
    grid = sphere.build_grid(lmax)
    pts, weights = grid.node_points, grid.node_weights
    values = fn.random_starts(grid, [(lmax, k) for k in range(lanes)]).values.reshape(lanes, -1)
    density = fn.exp_moments(values, weights, pts).density
    table = np.matvec(grid.node_second, density)[:, quadrature.pair_rows(3)]
    direct = np.array([[[math.fsum(row * pts[:, i] * pts[:, j]) for j in range(3)] for i in range(3)]
                       for row in weights * density])
    trace = np.trace(direct, axis1=1, axis2=2)[:, None, None]
    assert np.max(np.abs(table - direct) / trace) <= 1e-15


def test_tilt_that_fails_every_halving_raises(monkeypatch):
    """On the points x = -1e8 and 1 under weights e^-56.3 and 1 the covariance,
    3.5e-9 of the second moments, is far from singular, but the first Newton
    step is 1.3 times 2^49 the way to the minimiser: it fails the Armijo test at
    all MAX_HALVINGS halvings, and the tilt raises NonConvergenceError carrying
    its best point, the start c = 0, and the start's residual."""
    trials = []                     # the trial moments of each Newton step
    solve, moments = np.linalg.solve, fn.exp_moments

    def counted_solve(*args):
        trials.append(0)
        return solve(*args)

    def counted_moments(*args):
        if trials:
            trials[-1] += 1
        return moments(*args)

    values, points = np.array([-56.3, 0.0]), np.array([[-1e8], [1.0]])
    start = fn.exp_moments(values[None], np.ones(2), points)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(fn, "exp_moments", counted_moments)
    with pytest.raises(NonConvergenceError) as info:
        ref.tilt_lane(values, np.ones(2), points)
    assert trials == [fn.MAX_HALVINGS]
    assert not info.value.best.any()
    assert info.value.residual == float(np.linalg.norm(start.mean))


def test_tilt_of_a_spike_raises_nonconvergence(grid16):
    """e^v of a field of zeros with one node at 50 puts all but about e^-50 of its
    mass on that node: its covariance is below the rounding of the second
    moments it cancels, singular to working precision, and the tilt raises the
    toolkit's NonConvergenceError before any step, not numpy's LinAlgError."""
    pts, weights = grid16.node_points, grid16.node_weights
    values = np.zeros(pts.shape[0])
    values[7] = 50.0
    with pytest.raises(NonConvergenceError) as info:
        ref.tilt_lane(values, weights, pts)
    assert not info.value.best.any() and info.value.best.shape == (1, 3)
    assert info.value.residual == pytest.approx(np.linalg.norm(pts[7]), rel=1e-9)


def test_tilt_error_residual_is_the_center_of_mass_it_leaves(grid16, monkeypatch):
    """With COM_TOL = 0 the tilt runs out of Newton steps; the error's residual is
    the largest |center of mass| of the measure tilted by its best c."""
    pts, weights = grid16.node_points, grid16.node_weights
    values = fn.random_start(grid16, (3,), amplitude=1.5).values.reshape(1, -1)
    monkeypatch.setattr(fn, "COM_TOL", 0.0)
    with pytest.raises(NonConvergenceError) as info:
        fn.tilt(values, weights, pts, grid16.node_second, fn.exp_moments(values, weights, pts))
    best = info.value.best
    mean = fn.exp_moments(values + np.matvec(pts, best), weights, pts).mean
    assert info.value.residual == float(np.max(np.linalg.norm(mean, axis=-1)))


def test_tilt_newton_budget_raises_with_its_best_c(grid16, monkeypatch):
    """A tilt whose start needs two Newton steps, allowed TILT_STEPS = 1, raises
    NonConvergenceError carrying c after its one step and the |center of
    mass| that c leaves, still above COM_TOL."""
    pts, weights, second = grid16.node_points, grid16.node_weights, grid16.node_second
    values = fn.random_start(grid16, (0,), amplitude=0.1).values.reshape(1, -1)
    start = fn.exp_moments(values, weights, pts)
    assert fn.tilt(values, weights, pts, second, start)[2].tolist() == [2]
    monkeypatch.setattr(fn, "TILT_STEPS", 1)
    with pytest.raises(NonConvergenceError) as info:
        fn.tilt(values, weights, pts, second, start)
    best = info.value.best
    assert best.any()
    mean = fn.exp_moments(values + np.matvec(pts, best), weights, pts).mean
    assert info.value.residual == float(np.max(np.linalg.norm(mean, axis=-1))) > fn.COM_TOL


def test_minimize_needs_a_band_limit_of_one():
    """A one-node grid (L = 0) has no degree-1 tilt onto the constraint; L = 1 has
    one, and its minimiser is u = 0."""
    with pytest.raises(GridConfigError):
        fn.minimize(0.8, fn.random_start(sphere.build_grid(0), (1, 2)))
    res = fn.minimize(0.8, fn.random_start(sphere.build_grid(1), (1, 2)))
    assert res.converged and abs(res.j_value) <= 1e-12


def test_minimize_rejects_nonpositive_alpha(grid8):
    with pytest.raises(ValueError):
        fn.minimize(-0.1, ref.constant_field(grid8, 0.0))


@pytest.mark.parametrize("alpha", [1e308, 1e307])
def test_minimizers_reject_an_overflowing_stiffness(grid8, alpha):
    """alpha/2 L(L+1) overflows at L = 8 and at the 1-D degree 16."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        fn.minimize(alpha, ref.constant_field(grid8, 0.0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        ax.minimize_axisym(alpha, ax.random_start_1d((1,)))


def test_minimize_rejects_nonfinite_start(grid8):
    bad = ref.constant_field(grid8, 0.0)
    bad.values[0, 0] = np.inf
    with pytest.raises(InvalidFieldError):
        fn.minimize(0.8, bad)


def test_recenter_nonconvergence_carries_best(grid8, monkeypatch):
    u = 0.3 * coordinate(grid8)
    monkeypatch.setattr(fn, "COM_TOL", -1.0)
    with pytest.raises(NonConvergenceError) as info:
        ref.recenter(u)
    assert info.value.best.shape == (1, 3)
    assert info.value.best[0] == pytest.approx([0.0, 0.0, -0.3], abs=1e-12)


def test_minimize_keeps_iterate_band_limited(grid16, monkeypatch):
    monkeypatch.setattr(fn, "MAX_ITER", 4)
    res = fn.minimize(0.8, fn.random_start(grid16, (42, 0, 3)))
    resynth = sphere.synthesize(sphere.analyze(res.u), grid16)
    assert np.max(np.abs(resynth.values - res.u.values)) <= 1e-13


def test_minimize_exp_mass_is_that_of_returned_field(grid16, monkeypatch):
    monkeypatch.setattr(fn, "MAX_ITER", 2)
    res = fn.minimize(0.8, fn.random_start(grid16, (42, 0, 3)))
    assert res.status == "max-iter"
    assert res.exp_mass == pytest.approx(np.exp(sphere.log_exp_mass(res.u)), abs=1e-14)


# the shared descent driver on a synthetic problem: f(x) = (1/2) sum a x^2,
# preconditioned by 2a, so every accepted step halves x

_A = np.array([1.0, 3.0, 10.0])


def _quadratic(x):
    return 0.5 * float(np.sum(_A * x * x))


def _descend(value=_quadratic, x0=(1.0, -2.0, 0.5)):
    """fn.descend on the quadratic as a stack of one lane, with one Newton step
    per retraction and trials valued by `value`; returns that lane's fields."""
    def trial(lanes, x, delta):
        return x + delta, np.array([value(row) for row in x + delta])

    def retract(lanes, x):
        return x, np.array([_quadratic(row) for row in x]), _A * x, np.ones(len(x), dtype=int)

    run = fn.descend(np.array([x0]), np.array([2.0 * _A]), trial, retract,
                     lambda grad: np.linalg.norm(grad, axis=-1))
    return fn.Descent(*(lanes[0] for lanes in run))


def test_descend_converges_on_a_quadratic(monkeypatch):
    monkeypatch.setattr(fn, "STAT_TOL", 1e-6)
    run = _descend()
    assert run.status == "converged"
    assert run.grad_norm <= 1e-6 < np.linalg.norm(2.0 * _A * run.state)
    assert np.allclose(run.state, np.array([1.0, -2.0, 0.5]) * 0.5 ** (run.iterations - 1))
    assert run.backtracks == 0 and run.newton_steps == run.iterations
    assert run.value == _quadratic(run.state)


def test_descend_stalls_after_every_halving_fails():
    # every trial value is above the start value 7.75
    run = _descend(value=lambda x: _quadratic(x) + 10.0)
    assert run.status == "stalled"
    assert run.iterations == 1 and run.backtracks == fn.MAX_HALVINGS == 40
    assert np.array_equal(run.state, [1.0, -2.0, 0.5]) and run.newton_steps == 1


def test_descend_reports_unbounded_descent_below_the_floor(monkeypatch):
    start = _quadratic(np.array([1.0, -2.0, 0.5]))
    monkeypatch.setattr(fn, "BLOWUP_FLOOR", start + 1.0)
    run = _descend()
    assert run.status == "unbounded-descent"
    assert run.iterations == 1 and run.backtracks == 0 and run.value == start


def test_descend_stops_at_max_iter(monkeypatch):
    monkeypatch.setattr(fn, "MAX_ITER", 1)
    run = _descend()
    assert run.status == "max-iter"
    assert run.iterations == 1 and run.newton_steps == 2
    assert np.array_equal(run.state, [0.5, -1.0, 0.25])


def _minimize_field_space(alpha, u0):
    """Reference: the field-space minimiser, re-analysing the iterate at every step."""
    grid = u0.grid
    u = sphere.synthesize(sphere.analyze(u0), grid)
    u = fn.shift_to_unit_mass(ref.recenter(u))
    status, it = "max-iter", 0
    j = fn.j_alpha(u, alpha)
    gspec = sphere.analyze(fn.gradient_j(u, alpha))
    gnorm = float(np.linalg.norm(gspec.coeffs))
    for it in range(1, fn.MAX_ITER + 1):
        if gnorm <= fn.STAT_TOL:
            status = "converged"
            break
        if j < fn.BLOWUP_FLOOR:
            status = "unbounded-descent"
            break
        direction = -gspec.coeffs / fn.zero_hessian(alpha, gspec.lmax)[:, None]
        slope = float(np.sum(gspec.coeffs * direction))
        noise = 1e-14 * (1.0 + abs(j))
        step = 1.0
        uspec = sphere.analyze(u)
        for _ in range(40):
            cand_spec = sphere.HarmonicSpectrum(uspec.lmax, uspec.coeffs + step * direction)
            cand = sphere.synthesize(cand_spec, grid)
            if fn.j_alpha(cand, alpha) <= j + 1e-4 * step * slope + noise:
                break
            step *= 0.5
        else:
            status = "stalled"
            break
        u = fn.shift_to_unit_mass(ref.recenter(cand))
        j = fn.j_alpha(u, alpha)
        gspec = sphere.analyze(fn.gradient_j(u, alpha))
        gnorm = float(np.linalg.norm(gspec.coeffs))
    return status, j, it


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_minimize_matches_field_space_reference(grid16, alpha):
    for k in range(4):
        u0 = fn.random_start(grid16, (17, int(10 * alpha), k))
        res = fn.minimize(alpha, u0)
        status, j, iterations = _minimize_field_space(alpha, u0)
        assert res.status == status
        assert abs(res.j_value - j) <= 1e-12
        assert abs(res.iterations - iterations) <= 1


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_minimize_matches_per_quantity_exponential_reference(grid16, alpha):
    for k in range(4):
        u0 = fn.random_start(grid16, (23, int(10 * alpha), k))
        res = fn.minimize(alpha, u0)
        status, j, iterations, backtracks, u = ref.minimize(alpha, u0)
        assert res.status == status
        assert abs(res.j_value - j) <= 1e-12
        assert abs(res.iterations - iterations) <= 1
        assert np.max(np.abs(res.u.values - u.values)) <= 1e-10


def test_tilt_matches_log_weight_reference(grid16):
    pts, weights = grid16.node_points, grid16.node_weights
    for seed in range(4):
        u = fn.random_start(grid16, (seed,), amplitude=1.5).values.ravel()
        c, mom, _ = ref.tilt_lane(u, weights, pts)
        assert np.max(np.abs(c - ref.tilt_log_weights(np.log(weights) + u, pts, 1e-10))) <= 1e-12
        fresh = fn.exp_moments(u + pts @ c, weights, pts)
        assert abs(mom.log_mass - fresh.log_mass) <= 1e-15
        assert np.array_equal(mom.density, fresh.density)
        assert np.linalg.norm(mom.mean) <= 1e-10


def _converged_and_backtracking_runs(grid16):
    """(alpha, start, MAX_ITER, status, last_accepted) of two default-step runs.

    The first converges, accepting a full step on every iteration but the
    last.  The second, below 1/2 from a large start, ends at max-iter with
    an accepted step on its last iteration; 13 of its 30 line searches halve.
    """
    return ((0.7, fn.random_start(grid16, (42, 0, 5)), fn.MAX_ITER, "converged", 0),
            (0.3, fn.random_start(grid16, (42, 0, 5), amplitude=2.0), 30, "max-iter", 1))


def test_minimize_exponential_counts(grid16, monkeypatch):
    """One full-grid exponential per line-search trial, one per moment evaluation
    of a tilt that is not trivial, none for the shift, J or the gradient.

    Outside the tilts that leaves the start's moments and the two checks on
    the returned field (center of mass and exp-mass).  Both runs have trivial
    and non-trivial tilts.
    """
    counts = ref.count_exponentials(monkeypatch, grid16.n_mu * grid16.n_phi)
    for alpha, u0, max_iter, status, last_accepted in _converged_and_backtracking_runs(grid16):
        counts.update(outside=0, in_tilt=0, tilt_moments=0, tilts=0, trivial=0, newton_steps=0)
        monkeypatch.setattr(fn, "MAX_ITER", max_iter)
        res = fn.minimize(alpha, u0)
        assert res.status == status
        accepted = res.iterations - 1 + last_accepted
        assert counts["outside"] == accepted + res.backtracks + 3
        assert counts["in_tilt"] == counts["tilt_moments"] > 0
        assert counts["tilts"] == accepted + 1
        assert 0 < counts["trivial"] < counts["tilts"]
        assert 0 < res.newton_steps == counts["newton_steps"] <= counts["in_tilt"]
    assert res.backtracks > 0


def test_minimize_transform_counts(grid16, monkeypatch):
    """One synthesize per line-search trial and one analyze per accepted step."""
    calls = {"analyze": 0, "synthesize": 0}
    for name in calls:
        inner = getattr(sphere, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(sphere, name, counted)
    for alpha, u0, max_iter, status, last_accepted in _converged_and_backtracking_runs(grid16):
        calls.update(analyze=0, synthesize=0)
        monkeypatch.setattr(fn, "MAX_ITER", max_iter)
        res = fn.minimize(alpha, u0)
        assert res.status == status
        accepted = res.iterations - 1 + last_accepted
        assert calls["analyze"] == accepted + 2                     # u0 and the first gradient
        assert calls["synthesize"] == accepted + res.backtracks + 1  # the band-limited start
    assert res.backtracks > 0


# ---------------------------------------------------------------------------
# quadratic form and thresholds
# ---------------------------------------------------------------------------


def quadratic_form(v, alpha):
    """Second-order coefficient of J_alpha at zero along v.

    Exactly (alpha/4) int |grad v|^2 - (1/2) int v^2 + (1/2) (int v)^2,
    i.e. spectrally (alpha/4) sum l(l+1) c^2 - (1/2) sum_{l>=1} c^2.
    """
    l = np.arange(v.lmax + 1, dtype=float)
    power = np.sum(v.coeffs**2, axis=1)
    return float(alpha / 4.0 * np.sum(l * (l + 1.0) * power) - 0.5 * np.sum(power[1:]))


def test_quadratic_form_degree_two(grid16):
    v = sphere.field_of(grid16, lambda a, b, c: a * b)
    spec = sphere.analyze(v)
    m = sphere.integrate(sphere.SphereField(grid16, v.values**2))
    for alpha in (1.0 / 3.0, 0.5, 1.0):
        assert quadratic_form(spec, alpha) == pytest.approx(m * (1.5 * alpha - 0.5), abs=1e-12)


def test_quadratic_form_degree_one(grid16):
    spec = sphere.analyze(coordinate(grid16))
    assert quadratic_form(spec, 0.5) == pytest.approx((0.5 - 1.0) / 6.0, abs=1e-12)
    assert quadratic_form(spec, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_form_constant(grid16):
    spec = sphere.analyze(ref.constant_field(grid16, 2.0))
    assert quadratic_form(spec, 0.7) == pytest.approx(0.0, abs=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_quadratic_form_gap_above_degree_one(seed):
    """Q(v, alpha) >= (6 alpha - 2)/4 * int v^2 once degrees 0 and 1 vanish."""
    g = sphere.build_grid(8)
    u = fn.random_start(g, (seed,))
    spec = sphere.analyze(u)
    spec.coeffs[:2] = 0.0
    power = float(np.sum(spec.coeffs**2))
    for alpha in (0.4, 0.7, 1.0):
        assert quadratic_form(spec, alpha) >= (6.0 * alpha - 2.0) / 4.0 * power - 1e-12


def test_taylor_limit_of_quadratic_form(grid16):
    """(j(t v) - t^2 Q) / t^2 shrinks like t^2 along a degree-2 mode."""
    v = sphere.field_of(grid16, lambda a, b, c: a * b)
    spec = sphere.analyze(v)
    alpha = 0.6
    q = quadratic_form(spec, alpha)
    r2 = abs(fn.j_alpha(1e-2 * v, alpha) - 1e-4 * q) / 1e-4
    r3 = abs(fn.j_alpha(1e-3 * v, alpha) - 1e-6 * q) / 1e-6
    assert r2 <= 1e-4
    assert r3 <= 1e-6


def test_threshold_estimates(grid16):
    """The thresholds, and the coefficients at the brackets' midpoints 0.35 and 1:
    along v the quadratic part of J_alpha is (3 alpha - 1) int v^2 / 2 for
    v = x1 x2 (int v^2 = 1/15) and (alpha - 1) int v^2 / 2 for v = x3."""
    threshold, coefficient, _ = fn.mode_threshold(grid16, "degree2")
    assert threshold == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert coefficient == pytest.approx((3.0 * 0.35 - 1.0) / 30.0, abs=1e-10)
    threshold1, coefficient1, _ = fn.mode_threshold(grid16, "degree1")
    assert threshold1 == pytest.approx(1.0, abs=1e-8)
    assert coefficient1 == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# alpha scan
# ---------------------------------------------------------------------------


def test_alpha_scan_deterministic_and_nonnegative(grid16):
    rows = fn.alpha_scan([0.8, 0.9, 1.0], trials=3, seed=5, grid=grid16)
    again = fn.alpha_scan([0.8, 0.9, 1.0], trials=3, seed=5, grid=grid16)
    assert rows == again
    assert all(r["min_j"] >= -1e-6 for r in rows)


def _ending(status, u0):
    """A minimize_stack stand-in whose every lane returns J = 0 with the given status."""
    def fake(alphas, starts):
        return [fn.MinimizeResult(u=u0, j_value=0.0, grad_norm=1.0, com_norm=0.0,
                                  exp_mass=1.0, iterations=800, backtracks=0,
                                  newton_steps=0, status=status) for _ in alphas]
    return fake


@pytest.mark.parametrize("status, failed", [("stalled", 2), ("max-iter", 2),
                                            ("unbounded-descent", 0), ("converged", 0)])
def test_alpha_scan_counts_runs_without_a_verdict(grid8, monkeypatch, status, failed):
    monkeypatch.setattr(fn, "minimize_stack", _ending(status, ref.constant_field(grid8, 0.0)))
    row, = fn.alpha_scan([0.8], trials=2, seed=5, grid=grid8)
    assert row["n_failed"] == failed
    assert row["min_j"] == 0.0 and row["mean_iterations"] == 800.0


def test_alpha_scan_fails_only_the_trials_of_the_stack_that_raises(grid8, monkeypatch):
    """25 trials run as stacks of 10, 10 and 5 lanes; the second stack raising
    fails its 10 trials and leaves the other 15 as they ran."""
    ending, calls = _ending("converged", ref.constant_field(grid8, 0.0)), []

    def second_raises(alphas, starts):
        calls.append(len(alphas))
        if len(calls) == 2:
            raise NonConvergenceError("forced")
        return ending(alphas, starts)

    monkeypatch.setattr(fn, "minimize_stack", second_raises)
    row, = fn.alpha_scan([0.8], trials=25, seed=5, grid=grid8)
    assert calls == [fn.SCAN_LANES, fn.SCAN_LANES, 5]
    assert row["n_failed"] == 10 and row["min_j"] == 0.0 and row["mean_iterations"] == 800.0


def test_alpha_scan_rows_equal_a_loop_of_single_runs(grid16):
    """Each alpha's trials run as one stack and give the rows, bit for bit, of one
    minimize per trial."""
    alphas = [0.55, 2.0 / 3.0, 1.0]
    rows = fn.alpha_scan(alphas, trials=4, seed=5, grid=grid16)
    for ia, (alpha, row) in enumerate(zip(alphas, rows)):
        runs = [fn.minimize(alpha, fn.random_start(grid16, (5, ia, k))) for k in range(4)]
        assert row == {"alpha": alpha, "min_j": min(res.j_value for res in runs),
                       "mean_iterations": float(np.mean([res.iterations for res in runs])),
                       "n_failed": sum(res.status in ("max-iter", "stalled") for res in runs)}


def test_alpha_scan_open_region_reports(grid16):
    rows = fn.alpha_scan([0.60], trials=2, seed=5, grid=grid16)
    assert len(rows) == 1 and np.isfinite(rows[0]["min_j"])


@pytest.mark.parametrize("mode, L", [("degree2", 0), ("degree2", 1), ("degree1", 0)])
def test_mode_threshold_refuses_a_band_limit_below_the_mode(mode, L):
    """The mode vanishes on such a grid, and its two quadratic coefficients with it."""
    with pytest.raises(GridConfigError, match="cannot hold"):
        fn.mode_threshold(sphere.build_grid(L), mode)
