"""The one-dimensional constrained functional and its minimiser."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from onofri import axisym as ax, conformal, functional as fn, sphere

import reference_solvers as ref


def legendre(coeff_map, degree=16):
    coeffs = np.zeros(degree + 1)
    for k, c in coeff_map.items():
        coeffs[k] = c
    return ax.LegendreFunction(coeffs)


# ---------------------------------------------------------------------------
# functional value and moment
# ---------------------------------------------------------------------------


def test_value_at_zero():
    assert ax.i_functional(legendre({}), 0.5) == pytest.approx(0.0, abs=1e-15)


def test_taylor_value():
    eps = 0.05
    val = ax.i_functional(legendre({1: eps}), 0.5)
    assert val == pytest.approx(-(2.0 / 3.0) * eps**2, abs=5e-5)
    assert -(2.0 / 3.0) * eps**2 == pytest.approx(-1.6667e-3, abs=1e-7)


def test_energy_closed_form_matches_quadrature():
    """sum 2k(k+1)/(2k+1) c_k^2 equals the quadrature of (1-x^2) g'^2."""
    g = ax.random_start_1d((3,), degree=10)
    dcoef = np.polynomial.legendre.legder(g.coeffs)
    dvals = np.polynomial.legendre.legval(g.nodes, dcoef)
    quad = float(np.dot(g.weights, (1.0 - g.nodes**2) * dvals**2))
    assert ref.weighted_energy(g) == pytest.approx(quad, abs=1e-12)


def test_moment_examples():
    assert ax.constraint_moment(legendre({})) == pytest.approx(0.0, abs=1e-15)
    assert ax.constraint_moment(legendre({2: 0.1})) == pytest.approx(0.0, abs=1e-14)
    eps = 0.01
    assert ax.constraint_moment(legendre({1: eps})) == pytest.approx(4.0 * eps / 3.0, abs=1e-6)


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_parity(seed):
    g = ax.random_start_1d((seed,), degree=8)
    flipped = ax.LegendreFunction(g.coeffs * (-1.0) ** np.arange(9))
    assert ax.i_functional(flipped, 0.6) == pytest.approx(ax.i_functional(g, 0.6), abs=1e-12)
    assert ax.constraint_moment(flipped) == pytest.approx(-ax.constraint_moment(g), abs=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_shift_invariance_1d(seed):
    g = ax.random_start_1d((seed,), degree=8)
    shifted = g.copy()
    shifted.coeffs[0] += 0.83
    assert ax.i_functional(shifted, 0.5) == pytest.approx(ax.i_functional(g, 0.5), abs=1e-12)


def test_lift_identity(grid32):
    """2 J_alpha(2 g(x3)) = I_alpha(g) for band-limited g (matched nodes)."""
    g = ax.random_start_1d((17,), degree=6)
    u = ax.lift(g, grid32)
    for alpha in (0.5, 0.77, 1.0):
        assert 2.0 * fn.j_alpha(u, alpha) == pytest.approx(
            ax.i_functional(g, alpha), abs=1e-10)


# ---------------------------------------------------------------------------
# recentering
# ---------------------------------------------------------------------------


def test_recenter_fixed_point():
    g = legendre({})
    out = ax.recenter_1d(g)
    assert np.max(np.abs(out.coeffs)) <= 1e-15


def log_half_mass(g):
    """log((1/2) int e^{2g} dx), max-shifted."""
    tg = 2.0 * g(g.nodes)
    m = float(np.max(tg))
    return m + math.log(0.5 * float(np.dot(g.weights, np.exp(tg - m))))


def normalised_moment(g):
    return ax.constraint_moment(g) / (2.0 * math.exp(log_half_mass(g)))


def test_recenter_linear_start():
    """The tilt of eps P_1 is -eps P_1: it returns the zero function."""
    g = legendre({1: 0.3})
    out = ax.recenter_1d(g)
    assert abs(ax.constraint_moment(out)) <= 1e-10
    assert np.max(np.abs(out.coeffs)) <= 1e-9
    assert log_half_mass(out) <= log_half_mass(g)


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_recenter_tilts_first_coefficient_only(seed):
    g = ax.random_start_1d((seed,), degree=8, amplitude=1.5)
    out = ax.recenter_1d(g)
    assert abs(normalised_moment(out)) <= 1e-10
    assert out.degree == g.degree
    assert np.array_equal(np.delete(out.coeffs, 1), np.delete(g.coeffs, 1))
    assert log_half_mass(out) <= log_half_mass(g) + 1e-15


def test_recenter_commutes_with_lift(grid32):
    """The 1-D tilt is the sphere tilt of the lifted field."""
    for seed in range(4):
        g = ax.random_start_1d((seed,), degree=10)
        lifted = ax.lift(ax.recenter_1d(g), grid32)
        assert np.max(np.abs(lifted.values - ref.recenter(ax.lift(g, grid32)).values)) <= 1e-12


# ---------------------------------------------------------------------------
# minimisation and probes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 0.55, 0.6])
def test_minimize_nonnegative(alpha):
    worst = -np.inf
    for k in range(5):
        res = ax.minimize_axisym(alpha, ax.random_start_1d((101, k)))
        assert res.status == "converged"
        assert abs(res.moment) <= 1e-9
        worst = max(worst, res.value)
    assert worst >= -1e-6


def test_minimize_historical_range():
    res = ax.minimize_axisym(25.0 / 32.0, ax.random_start_1d((7, 1, 1)))
    assert res.status == "converged"
    assert res.value >= -1e-6


@pytest.mark.parametrize("alpha", [0.5, 0.6])
def test_minimize_matches_per_quantity_exponential_reference(alpha):
    for k in range(4):
        # the large amplitude makes some full steps fail the Armijo test
        g0 = ax.random_start_1d((31, int(10 * alpha), k), amplitude=0.4 if k < 2 else 40.0)
        res = ax.minimize_axisym(alpha, g0)
        status, value, iterations, backtracks, g = ref.minimize_axisym(alpha, g0)
        assert res.status == status
        assert abs(res.value - value) <= 1e-12
        assert abs(res.iterations - iterations) <= 1
        assert res.backtracks == backtracks
        assert np.max(np.abs(res.g.coeffs - g.coeffs)) <= 1e-10


def test_preconditioner_is_the_sphere_rule_on_the_lift(monkeypatch):
    """minimize_axisym reads functional.zero_hessian as 8 h / (2k+1), which is
    the clipped 1-D Hessian at zero, max((4 alpha k(k+1) - 8)/(2k+1), 1/2),
    bit for bit."""
    calls = []
    zero_hessian = fn.zero_hessian

    def spy(alpha, lmax):
        calls.append((alpha, lmax))
        return zero_hessian(alpha, lmax)

    monkeypatch.setattr(fn, "zero_hessian", spy)
    monkeypatch.setattr(fn, "MAX_ITER", 1)
    ax.minimize_axisym(0.6, ax.random_start_1d((3,)))
    assert calls == [(0.6, ax.DEFAULT_DEGREE)]
    k = np.arange(65, dtype=float)
    for alpha in np.linspace(0.2, 1.5, 131):
        old = np.maximum((4.0 * alpha * k * (k + 1.0) - 8.0) / (2.0 * k + 1.0), 0.5)
        assert np.array_equal(8.0 * zero_hessian(alpha, 64) / (2.0 * k + 1.0), old)


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.8, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_sphere_descent_mirrors_the_1d_descent(grid16, alpha, n, monkeypatch):
    """From a lifted start the sphere descent takes the 1-D descent's steps:
    after n iterations u is the lift of g, J is half of I, and the line
    searches halved alike."""
    monkeypatch.setattr(fn, "MAX_ITER", n)
    for k in range(3):
        g0 = ax.random_start_1d((61, k))
        res = fn.minimize(alpha, ax.lift(g0, grid16))
        res1 = ax.minimize_axisym(alpha, g0)
        assert res.iterations == res1.iterations == n
        assert np.max(np.abs(res.u.values - ax.lift(res1.g, grid16).values)) <= 1e-12
        assert abs(2.0 * res.j_value - res1.value) <= 1e-14
        assert res.backtracks == res1.backtracks


def test_node_values_share_the_quadrature_vandermonde():
    g = ax.random_start_1d((5,), degree=12)
    assert g.vander.shape == (g.nodes.size, 13)
    assert np.max(np.abs(g.node_values() - g(g.nodes))) <= 1e-14
    cand = ax.LegendreFunction(2.0 * g.coeffs)
    assert cand.vander is g.vander and g.copy().vander is g.vander
    # the default Gauss rule is solved once and shared read-only
    other = ax.LegendreFunction(np.zeros(3))
    assert other.nodes is g.nodes and other.weights is g.weights
    assert not g.nodes.flags.writeable and not g.weights.flags.writeable


def test_minimize_exponential_and_legval_counts(monkeypatch):
    """One node exponential per line-search trial and per moment evaluation of a
    tilt that is not trivial, none for the gauge, I or the gradient, and no
    Clenshaw evaluation anywhere in the run.

    Outside the tilts that leaves the start's moments and the moment check on
    the returned function.
    """
    counts = ref.count_exponentials(monkeypatch, ax.DEFAULT_QUAD)
    counts["legval"] = 0
    legval = np.polynomial.legendre.legval

    def counted_legval(*args, **kwargs):
        counts["legval"] += 1
        return legval(*args, **kwargs)

    monkeypatch.setattr(np.polynomial.legendre, "legval", counted_legval)
    # a converged run, and a run below 1/2 that backtracks on most steps
    for alpha, amplitude, max_iter, status, last_accepted in ((0.5, 40.0, 600, "converged", 0),
                                                              (0.3, 10.0, 60, "max-iter", 1)):
        g0 = ax.random_start_1d((7, 0), amplitude=amplitude)    # leggauss calls legval
        for key in counts:
            counts[key] = 0
        monkeypatch.setattr(fn, "MAX_ITER", max_iter)
        res = ax.minimize_axisym(alpha, g0)
        assert res.status == status and res.backtracks > 0
        accepted = res.iterations - 1 + last_accepted
        assert counts["outside"] == accepted + res.backtracks + 2
        assert counts["in_tilt"] == counts["tilt_moments"] > 0
        assert counts["tilts"] == accepted + 1
        assert 0 < counts["trivial"] < counts["tilts"]
        assert 0 < res.newton_steps == counts["newton_steps"] <= counts["in_tilt"]
        assert counts["legval"] == 0


def test_probe_below_half():
    """The march stops at its first value below the floor (here between the
    values -9.5 and -16.0 of its last two points)."""
    s_hit, trace = ax.probe_two_bubble_1d(0.45, floor=-12.0)
    assert s_hit == trace[-1][0]
    assert trace[-1][1] < -12.0 <= min(i for _, i in trace[:-1])


def test_probe_trace_is_i_of_the_projected_family():
    """The 1-D probe's first two values (s = 1 and 1.6) are I_alpha of the
    degree-64 Legendre projection of g = u_s / 2, with u_s the two-bubble
    profile at t = arctanh(x): a value the sphere trace does not give."""
    _, trace = ax.probe_two_bubble_1d(0.45, floor=-10.0)
    rule = ax.LegendreFunction(np.zeros(65))
    k = np.arange(65)
    for s, i_value in trace[:2]:
        g = 0.5 * conformal.two_bubble_profile(np.arctanh(rule.nodes), s)[0]
        coeffs = (2.0 * k + 1.0) / 2.0 * (rule.vander.T @ (rule.weights * g))
        assert i_value == pytest.approx(ax.i_functional(ax.LegendreFunction(coeffs), 0.45), abs=1e-10)
    assert [s for s, _ in trace[:2]] == [1.0, 1.6]


def test_two_bubble_value_matches_sphere_functional(grid32):
    """The log-radial quadrature agrees with J_alpha of the sampled family,
    and the 1-D value is twice it."""
    for s in (0.25, 0.5, 1.0):
        for alpha in (0.45, 0.7):
            j_val = fn.j_alpha(ref.two_bubble_field(grid32, s), alpha)
            assert conformal.two_bubble_j_value(alpha, s) == pytest.approx(j_val, abs=1e-12)
            assert ax.two_bubble_i_value(alpha, s) == pytest.approx(2.0 * j_val, abs=1e-12)


def test_unbounded_verdict_path(monkeypatch):
    g = ax.random_start_1d((1,), degree=8)
    monkeypatch.setattr(fn, "BLOWUP_FLOOR", 1e9)
    res = ax.minimize_axisym(0.45, g)
    # an absurd floor forces the verdict immediately, exercising the branch
    assert res.status == "unbounded-descent"


def test_rejects_tiny_alpha():
    with pytest.raises(ValueError):
        ax.minimize_axisym(0.1, legendre({}))
