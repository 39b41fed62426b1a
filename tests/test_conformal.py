"""Mobius maps of the sphere and the concentrating two-bubble family."""
import numpy as np
import pytest

from onofri import conformal, functional, sphere


def grid_points(grid):
    return np.stack(grid.points(), axis=-1)


@pytest.mark.parametrize("a", [np.array([0.0, 0.0, 0.3]),
                               np.array([0.2, -0.1, 0.35]),
                               np.array([-0.45, 0.3, 0.1])])
def test_map_inverse_and_unit_norm(grid16, a):
    pts = grid_points(grid16)
    mapped = conformal.apply_mobius(pts, a)
    assert np.max(np.abs(np.linalg.norm(mapped, axis=-1) - 1.0)) <= 1e-14
    back = conformal.apply_mobius(mapped, -a)
    assert np.max(np.abs(back - pts)) <= 1e-13


@pytest.mark.parametrize("a", [np.array([0.0, 0.0, 0.3]), np.array([0.2, -0.1, 0.35])])
def test_conformal_factor_has_unit_mass(grid16, a):
    """The log-Jacobian field integrates e^w to one (change of variables)."""
    pts = grid_points(grid16)
    w = conformal.log_conformal_factor(pts, a)
    mass = sphere.integrate(sphere.SphereField(grid16, np.exp(w)))
    assert mass == pytest.approx(1.0, abs=1e-13)


def test_cocycle_identity(grid16):
    """log det d(phi_a o phi_{-a}) = 0 splits into the two factors."""
    a = np.array([0.15, 0.2, -0.3])
    pts = grid_points(grid16)
    total = (conformal.log_conformal_factor(conformal.apply_mobius(pts, -a), a)
             + conformal.log_conformal_factor(pts, -a))
    assert np.max(np.abs(total)) <= 1e-13


@pytest.mark.parametrize("t", [0.2, 0.5])
def test_extremal_value_at_alpha_one(grid32, t):
    """Conformal factors sit exactly on the zero level of the alpha=1 functional."""
    pts = grid_points(grid32)
    w = sphere.SphereField(grid32, conformal.log_conformal_factor(pts, np.array([0.0, 0.0, t])))
    assert functional.j_alpha(w, 1.0) == pytest.approx(0.0, abs=1e-8)


def test_two_bubble_value_slope():
    """J along the family grows like (4 alpha - 2) log(lam); exact at leading order."""
    for alpha in (0.45, 0.55):
        j1 = conformal.two_bubble_j_value(alpha, 40.0)
        j2 = conformal.two_bubble_j_value(alpha, 80.0)
        slope = (j2 - j1) / 40.0
        assert slope == pytest.approx(4.0 * alpha - 2.0, abs=1e-6)


def test_probe_reaches_floor_below_half():
    s_hit, trace = conformal.probe_two_bubble(0.45, floor=-10.0)
    assert s_hit is not None
    assert trace[-1][1] < -10.0
    tail = [j for s, j in trace if s >= 5.0]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_probe_saturates_at_half(monkeypatch):
    monkeypatch.setattr(conformal, "PROBE_S_MAX", 100.0)
    s_hit, trace = conformal.probe_two_bubble(0.5, floor=-1.0)
    assert s_hit is None
    assert min(j for _, j in trace) > -1.0


def test_logistic_matches_expit_without_warnings():
    """The numpy logistic agrees with scipy's expit to rounding on |z| <= 1e3,
    saturating at 0 and 1 without an overflow warning."""
    import warnings

    from scipy.special import expit

    z = np.concatenate([np.linspace(-1e3, 1e3, 200001), [-1e3, -40.0, 0.0, 40.0, 1e3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = conformal._logistic(z)
    assert np.max(np.abs(got - expit(z))) <= 2.5e-16
    assert got[-5] == 0.0 and got[-3] == 0.5 and got[-1] == 1.0


@pytest.mark.parametrize("a", [np.zeros(3), np.array([1e-16, 0.0, -1e-16])])
def test_identity_map_below_the_parameter_floor(grid16, a):
    """A parameter of norm below 1e-15 is the identity: the points come back as
    they went in, the log-Jacobian is zero, and the pullback is u itself, each
    as a new array."""
    pts = grid_points(grid16)
    mapped = conformal.apply_mobius(pts, a)
    assert np.array_equal(mapped, pts) and mapped is not pts
    w = conformal.log_conformal_factor(pts, a)
    assert w.shape == grid16.shape and not w.any()
    u = functional.random_start(grid16, (4, 1, 0))
    out = functional.pullback(u, a)
    assert out.grid is grid16 and np.array_equal(out.values, u.values)
    assert not np.shares_memory(out.values, u.values)
