"""Stereographic bridge, planar masses, angular derivative, nodal domains."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
import hypothesis.strategies as st

from onofri import acceptance, functional as fn, planar as pl, quadrature, shooting as sh, sphere
from onofri.errors import DivergentMassError, GaugeError, InvalidFieldError

import reference_solvers as ref


# ---------------------------------------------------------------------------
# planar points
# ---------------------------------------------------------------------------


def _points(shape):
    """Coordinates over 30 decades with both signs, so the rounding of |y|^2 shows."""
    rng = np.random.default_rng(24)
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-15.0, 15.0, size=shape)


@pytest.mark.parametrize("y", [_points((257, 2)), _points((9, 13, 2)), _points(2),
                               _points((2, 31)).T, np.zeros((0, 2))],
                         ids=["N_by_2", "n_by_m_by_2", "one_point", "transposed", "empty"])
def test_radius2_rounds_as_the_last_axis_sum(y):
    r2, summed = pl.radius2(y), np.sum(y * y, axis=-1)
    assert np.shape(r2) == np.shape(summed) and np.asarray(r2).tobytes() == summed.tobytes()


def test_point_builders_index_their_axes():
    radii, theta = np.array([0.0, 0.5, 2.0]), np.array([0.0, 1.0, 2.5, 4.0])
    polar = pl.polar_points(radii, theta)
    assert polar.shape == (3, 4, 2)
    assert np.array_equal(polar[2, 1], [2.0 * np.cos(1.0), 2.0 * np.sin(1.0)])
    xs, ys = np.array([-1.0, 0.0, 3.0]), np.array([5.0, 6.0])
    grid = pl.grid_points(xs, ys)
    assert grid.shape == (3, 2, 2) and np.array_equal(grid[2, 0], [3.0, 5.0])


# ---------------------------------------------------------------------------
# stereographic projection
# ---------------------------------------------------------------------------


def test_south_pole_and_equator():
    assert np.allclose(ref.stereo_map(np.array([0.0, 0.0, -1.0])), [0.0, 0.0])
    assert ref.stereo_jacobian(np.zeros(2)) == pytest.approx(4.0)
    assert np.allclose(ref.stereo_map(np.array([1.0, 0.0, 0.0])), [1.0, 0.0])
    assert ref.stereo_jacobian(np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_pole_raises():
    with pytest.raises(ref.PoleError):
        ref.stereo_map(np.array([0.0, 0.0, 1.0]))


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_lift_map_round_trip(seed):
    rng = np.random.default_rng(seed)
    y = 5.0 * rng.normal(size=(20, 2))
    x = pl.stereo_lift(y)
    assert np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0)) <= 1e-14
    assert np.max(np.abs(ref.stereo_map(x) - y)) <= 1e-12 * (1.0 + np.max(np.abs(y)))
    assert np.max(np.abs(pl.stereo_lift(ref.stereo_map(x)) - x)) <= 1e-14


def test_jacobian_total_area():
    """Radial quadrature oracle: integral of (2/(1+r^2))^2 over the plane is 4 pi."""
    xg, wg = np.polynomial.legendre.leggauss(200)
    R = 1e4
    # substitution r = tan(q), dr = sec^2 q dq maps [0, pi/2) smoothly
    q = 0.25 * np.pi * (xg + 1.0)
    wq = 0.25 * np.pi * wg
    r = np.tan(q)
    integrand = (2.0 / (1.0 + r**2)) ** 2 * 2.0 * np.pi * r / np.cos(q) ** 2
    total = float(np.dot(wq, integrand))
    assert total == pytest.approx(4.0 * np.pi, abs=1e-8)


# ---------------------------------------------------------------------------
# v* and the forced constant
# ---------------------------------------------------------------------------


def test_vstar_residual_pins_constant():
    """Hand-differentiated radial Laplacian of -2 rho log(1+r^2) forces the
    additive constant log(8 rho) in the planar equation."""
    rho = 1.5
    l = 2.0 * (rho - 1.0)
    r = np.linspace(1e-3, 30.0, 500)
    lap = -8.0 * rho / (1.0 + r**2) ** 2          # v'' + v'/r in closed form
    source = (1.0 + r**2) ** l * np.exp(pl.v_star(np.stack([r, 0 * r], axis=-1), rho))
    assert np.max(np.abs(lap + source)) <= 1e-12


def test_vstar_center_value():
    assert pl.v_star(np.zeros(2), 1.5) == pytest.approx(math.log(12.0), abs=1e-15)
    assert math.log(12.0) == pytest.approx(2.4849, abs=1e-4)


def test_vstar_structure():
    rho = 1.2
    y = np.random.default_rng(0).normal(size=(40, 2)) * 3
    r2 = np.sum(y * y, axis=-1)
    vals = pl.v_star(y, rho) + 2.0 * rho * np.log1p(r2)
    assert np.max(np.abs(vals - vals[0])) <= 1e-12


# ---------------------------------------------------------------------------
# to_planar
# ---------------------------------------------------------------------------


def test_to_planar_of_zero_is_vstar(grid16):
    rho = 1.5
    v = pl.to_planar(ref.constant_field(grid16, 0.0), rho)
    y = np.random.default_rng(1).normal(size=(50, 2)) * 2
    assert np.max(np.abs(v(y) - pl.v_star(y, rho))) <= 1e-12
    assert v.l == pytest.approx(2.0 * (rho - 1.0))


def test_to_planar_mass_identity(grid16):
    rho = 1.5
    v = pl.to_planar(ref.constant_field(grid16, 0.0), rho)
    mass = 2.0 * math.pi * pl.beta_l(v)
    assert mass == pytest.approx(8.0 * math.pi * rho, abs=1e-8)


def test_to_planar_rejects_bad_gauge(grid16):
    with pytest.raises(GaugeError):
        pl.to_planar(ref.constant_field(grid16, 0.5), 1.5)


def test_planar_residual_bounded_by_spherical(grid16):
    """The planar residual is J(y) times the spherical one, so the transfer
    of a minimiser keeps it within 10x the spherical sup residual."""
    alpha = 0.7
    res = fn.minimize(alpha, fn.random_start(grid16, (3, 1, 4)))
    u = fn.shift_to_unit_mass(res.u)
    rho = 1.0 / alpha
    lap = sphere.laplacian(u)
    sphere_res = np.abs(lap.values + 2.0 * rho * (np.exp(u.values) - 1.0))
    v = dataclasses.replace(pl.to_planar(u, rho), lap_evaluator=ref.transferred_laplacian(u, rho))
    rng = np.random.default_rng(2)
    y = rng.uniform(-10, 10, size=(400, 2))
    y = y[np.linalg.norm(y, axis=1) <= 10.0]
    assert np.max(np.abs(pl.planar_residual(v, y))) <= 10.0 * np.max(sphere_res)


@pytest.mark.parametrize("name", sorted(pl.audit_fields()))
def test_audit_laplacians_match_difference_quotients(name):
    """Each audit field's closed-form Laplacian agrees with the five-point
    centered difference quotient of the field itself."""
    field, h = pl.audit_fields()[name], 1e-3
    y = np.random.default_rng(4).uniform(-3.0, 3.0, size=(50, 2))
    steps = h * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    quotient = (sum(field(y + d) for d in steps) - 4.0 * field(y)) / h**2
    assert np.max(np.abs(quotient - field.lap_evaluator(y))) <= 1e-4


# ---------------------------------------------------------------------------
# beta and the Pohozaev window
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l", [0.5, 1.0, 1.5])
def test_beta_of_vstar(l):
    rho = 1.0 + l / 2.0
    assert pl.beta_l(pl.v_star_field(rho)) == pytest.approx(4.0 + 2.0 * l, abs=1e-8)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_beta_of_liouville_bubble(a):
    assert pl.beta_l(pl.liouville_bubble_field(a)) == pytest.approx(4.0, abs=1e-8)


def test_pohozaev_reports():
    v = pl.v_star_field(1.5)
    beta, (lower, upper) = pl.beta_l(v), sh.mass_window(v.l)
    assert lower < beta < upper and lower == 4.0 and upper == 8.0
    assert beta == pytest.approx(6.0, abs=1e-8)
    v2 = pl.v_star_field(1.25)
    beta2, (lower2, upper2) = pl.beta_l(v2), sh.mass_window(v2.l)
    assert lower2 < beta2 < upper2 and upper2 == pytest.approx(6.0)
    assert beta2 == pytest.approx(5.0, abs=1e-8)


def test_pohozaev_flags_outside():
    """Slowly-decaying synthetic field: fitted slope 3.5 misses the window."""
    slow = pl.PlanarField(lambda y: -1.75 * np.log1p(np.sum(np.asarray(y) ** 2, axis=-1)),
                          l=0.25)
    beta, (lower, upper) = pl.beta_l(slow), sh.mass_window(slow.l)
    assert not lower < beta < upper
    assert beta < 4.0


def test_beta_divergent_mass_error():
    slow = pl.PlanarField(lambda y: -1.1 * np.log1p(np.sum(np.asarray(y) ** 2, axis=-1)),
                          l=0.25)
    with pytest.raises(DivergentMassError):
        pl.beta_l(slow)


def _beta_rings():
    """The rings beta_l reads: its quadrature radii to 200 and its 17 fit radii."""
    r, _, theta = quadrature.disk_rule(200.0)
    return np.concatenate([r, np.geomspace(100.0, 200.0, 17)]), theta


def _point_path(v):
    """The same field without its ring evaluator: rings evaluated as points."""
    return dataclasses.replace(v, ring_evaluator=None)


@pytest.mark.parametrize("lmax", [16, 32])
def test_pulled_back_rings_match_point_evaluation(lmax):
    """The ring evaluator of a transferred field reads u on the tensor grid of
    lifted latitudes; it agrees with evaluate_xyz at every lifted point."""
    g = sphere.build_grid(lmax)
    u = fn.shift_to_unit_mass(fn.random_start(g, (lmax, 2, 0), degree=lmax))
    v = pl.to_planar(u, 1.3)
    radii, theta = _beta_rings()
    radii = np.concatenate([[0.0, 1e-3, 1.0], radii])
    fast = v.rings(radii, theta)
    assert fast.shape == (radii.size, theta.size)
    assert np.max(np.abs(fast - _point_path(v).rings(radii, theta))) <= 1e-13


def test_default_rings_evaluate_points():
    v = pl.liouville_bubble_field(1.5, center=(0.3, -0.2))
    radii, theta = np.array([0.0, 0.5, 4.0]), np.linspace(0.0, 6.0, 7)
    pts = np.stack([np.outer(radii, np.cos(theta)), np.outer(radii, np.sin(theta))], axis=-1)
    assert np.array_equal(v.rings(radii, theta), v(pts))


def test_beta_by_rings_matches_point_path(grid32):
    """On criterion 5's three pulled-back fields beta_l by rings agrees with
    beta_l by points."""
    for _, v, _ in acceptance.bridge_fields(acceptance.DEFAULT_SEED, grid32):
        assert v.ring_evaluator is not None
        assert abs(pl.beta_l(v) - pl.beta_l(_point_path(v))) <= 1e-13


# ---------------------------------------------------------------------------
# angular derivative
# ---------------------------------------------------------------------------


def test_angular_derivative_radial_vanishes():
    phi = ref.angular_derivative(pl.v_star_field(1.5), h=1e-4)
    y = np.random.default_rng(3).normal(size=(60, 2)) * 2
    assert np.max(np.abs(phi(y))) <= 1e-10


def test_angular_derivative_linear_field():
    v = pl.PlanarField(lambda y: np.asarray(y)[..., 0], l=0.0)
    h = 1e-3
    phi = ref.angular_derivative(v, h=h)
    y = np.random.default_rng(4).normal(size=(60, 2)) * 3
    err = np.abs(phi(y) - y[..., 1])
    assert np.max(err) <= np.max(np.abs(y)) * h**2 / 6.0 + 1e-12


def test_angular_derivative_norm_rotation_invariant():
    """|phi| patterns rotate with the field, so its sup over a disk is stable."""
    v0 = pl.liouville_bubble_field(1.0, center=(0.8, 0.0))
    v1 = pl.liouville_bubble_field(1.0, center=(0.0, 0.8))
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    ring = np.stack([1.7 * np.cos(theta), 1.7 * np.sin(theta)], axis=-1)
    s0 = np.max(np.abs(ref.angular_derivative(v0, 1e-4)(ring)))
    s1 = np.max(np.abs(ref.angular_derivative(v1, 1e-4)(ring)))
    assert s0 == pytest.approx(s1, rel=1e-6)


def planar_gradient(v, y, h=1e-5):
    """Central-difference gradient of a planar field."""
    y = np.asarray(y, dtype=float)
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    return np.stack([(v(y + e1) - v(y - e1)) / (2.0 * h),
                     (v(y + e2) - v(y - e2)) / (2.0 * h)], axis=-1)


def test_linearised_equation_at_translated_bubble():
    """phi solves the linearised equation at an exact solution; the residual
    is pure finite-difference error and shrinks at second order."""
    v = pl.liouville_bubble_field(1.0, center=(0.7, -0.3))
    assert np.max(np.abs(planar_gradient(v, np.array([0.7, -0.3])))) <= 1e-9
    y = np.random.default_rng(5).normal(size=(80, 2)) * 2
    y = y[np.linalg.norm(y, axis=1) <= 5.0]
    phi = ref.angular_derivative(v, h=1e-4)
    res = {}
    for h in (2e-2, 1e-2):
        res[h] = np.max(np.abs(ref.fd_laplacian(phi, y, h) + np.exp(v(y)) * phi(y)))
    assert res[1e-2] <= 1e-3
    assert res[1e-2] <= res[2e-2] / 3.0          # second-order decay


def test_minimizer_pullback_is_near_radial(grid16):
    """Transfer of a converged minimiser: gradient vanishes at the origin and
    the linearised residual is tiny because phi itself is."""
    alpha = 0.7
    out = fn.minimize(alpha, fn.random_start(grid16, (9, 0, 0)))
    u = fn.shift_to_unit_mass(out.u)
    v = pl.to_planar(u, 1.0 / alpha)
    assert np.max(np.abs(planar_gradient(v, np.zeros(2), h=1e-4))) <= 1e-5
    y = np.random.default_rng(6).normal(size=(50, 2))
    y = y[np.linalg.norm(y, axis=1) <= 5.0]
    phi = ref.angular_derivative(v, h=1e-4)
    lin_res = ref.fd_laplacian(phi, y, 1e-2) + (1.0 + np.sum(y**2, axis=-1)) ** v.l * np.exp(v(y)) * phi(y)
    assert np.max(np.abs(lin_res)) <= 1e-4


# ---------------------------------------------------------------------------
# nodal domains
# ---------------------------------------------------------------------------


def _unit(y):
    return np.ones(len(y))


def _grid_xy(n=201, span=3.0):
    xs = np.linspace(-span, span, n)
    ys = np.linspace(-span, span, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return xs, ys, X, Y


def test_quadrant_pattern_has_four_domains():
    xs, ys, X, Y = _grid_xy()
    f = (X**2 - Y**2) * np.exp(-(X**2 + Y**2))
    rep = pl.nodal_domains(f, xs, ys, disk_radius=3.0, mass_density=_unit, rho=1.5)
    assert rep.m == 4


def test_linear_field_has_two_domains():
    xs, ys, X, Y = _grid_xy()
    rep = pl.nodal_domains(X.copy(), xs, ys, disk_radius=3.0, mass_density=_unit, rho=1.5)
    assert rep.m == 2


def test_empty_grid_rejected():
    with pytest.raises(InvalidFieldError):
        pl.nodal_domains(np.zeros((0, 0)), np.zeros(0), np.zeros(0), disk_radius=3.0,
                         mass_density=_unit, rho=1.5)


def test_partition_masses():
    xs, ys, X, Y = _grid_xy(n=241)
    f = (X**2 - Y**2) * np.exp(-(X**2 + Y**2))

    def density(y):
        r2 = np.sum(np.asarray(y) ** 2, axis=-1)
        return (1.0 + r2) * np.exp(pl.v_star(np.asarray(y), 1.5))

    rep = pl.nodal_domains(f, xs, ys, disk_radius=3.0, mass_density=density, rho=1.5)
    assert rep.m == 4
    assert all(m >= 0.0 for m in rep.masses)
    assert abs(sum(rep.masses) - rep.total) <= 1e-8


def test_nodal_mass_density_closed_form():
    """(1+|y|^2)^{2(rho-1)} e^{v*}: at rho = 3/2 bit for bit the form with the
    power written out, and (1+r^2)^{-2} 8 rho (1+r^2)^{2(rho-1)-2 rho} in general."""
    y = np.stack(np.meshgrid(np.linspace(-3, 3, 41), np.linspace(-3, 3, 41)), axis=-1).reshape(-1, 2)
    r2 = np.sum(y * y, axis=-1)
    written_out = (1.0 + r2) * np.exp(pl.v_star(y, 1.5))
    assert np.array_equal(pl.nodal_mass_density(1.5)(y), written_out)
    for rho in (1.0, 1.25, 2.0):
        assert np.allclose(pl.nodal_mass_density(rho)(y), 8.0 * rho / (1.0 + r2) ** 2,
                           rtol=1e-13, atol=0.0)


def test_ledger_arithmetic():
    led3 = pl.nodal_ledger(3, 1.5)
    assert led3["contradiction"]
    assert led3["total_budget"] == pytest.approx(12.0 * math.pi)
    led4 = pl.nodal_ledger(4, 2.0)
    assert led4["contradiction"]
    assert led4["total_exceeds"] == pytest.approx(16.0 * math.pi)
    assert not pl.nodal_ledger(4, 2.2)["contradiction"]
    assert not pl.nodal_ledger(2, 1.5)["contradiction"]


def test_nodal_rejects_mismatched_shape():
    xs = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(InvalidFieldError, match="shape"):
        pl.nodal_domains(np.ones((5, 4)), xs, xs, disk_radius=1.0, mass_density=_unit, rho=1.5)
    with pytest.raises(InvalidFieldError, match="shape"):
        pl.nodal_domains(np.ones(25), xs, xs, disk_radius=1.0, mass_density=_unit, rho=1.5)


def test_nodal_rejects_non_uniform_axes():
    """A cell sum on a non-uniform grid is not a mass: [0, 0.1, 1]^2 with unit
    density would read 0.09 instead of 1."""
    bent = np.array([0.0, 0.1, 1.0])
    even = np.array([0.0, 0.5, 1.0])
    for xs, ys in ((bent, bent), (bent, even), (even, bent), (even[::-1], even)):
        with pytest.raises(InvalidFieldError, match="uniform"):
            pl.nodal_domains(np.ones((3, 3)), xs, ys, disk_radius=2.0, mass_density=_unit, rho=1.5)
    rep = pl.nodal_domains(np.ones((3, 3)), even, even, disk_radius=2.0, mass_density=_unit, rho=1.5)
    assert rep.m == 1 and rep.total == pytest.approx(9 * 0.25)


def test_nodal_masses_need_two_nodes_per_axis():
    xs, one = np.linspace(0.0, 1.0, 4), np.zeros(1)
    with pytest.raises(InvalidFieldError, match="2 nodes"):
        pl.nodal_domains(np.ones((4, 1)), xs, one, disk_radius=2.0, mass_density=_unit, rho=1.5)


def test_partition_mass_closes_to_rounding():
    """Criterion 10's per-domain masses sum to the total to rounding, not only
    within the row's tolerance."""
    rows = {r["check"]: r for r in acceptance.criterion_10(acceptance.DEFAULT_SEED, {})}
    assert rows["partition_mass"]["passed"] and rows["partition_mass"]["value"] <= 1e-12


def _spiral(n):
    """A one-cell-wide +1 path spiralling inward, walled by a -1 spiral: two
    components whose depth in the pointer forest is the whole path."""
    g = np.zeros((n, n), dtype=int)
    steps = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    i = j = d = 0
    g[0, 0] = 1
    inside = lambda a, b: 0 <= a < n and 0 <= b < n
    while True:
        for _ in range(2):
            di, dj = steps[d]
            if (inside(i + di, j + dj) and g[i + di, j + dj] == 0
                    and not (inside(i + 2 * di, j + 2 * dj) and g[i + 2 * di, j + 2 * dj])):
                i, j = i + di, j + dj
                g[i, j] = 1
                break
            d = (d + 1) % 4
        else:
            return np.where(g == 1, 1, -1)


def _snake(n):
    """+1 rows joined at alternating ends: one boustrophedon path."""
    g = np.full((n, n), -1)
    g[::2] = 1
    g[1::4, -1] = 1
    g[3::4, 0] = 1
    return g


def _assert_same_labels(signs):
    labels, m = pl._component_labels(signs)
    expected, m_ref = ref._flood_fill_reference(signs)
    assert m == m_ref
    assert np.array_equal(labels, expected)
    return m


def test_labels_match_flood_fill_on_criterion_10_grid():
    rep, _ = pl.analytic_nodal_count("quadrant", 1.5)
    xs = np.linspace(-3.0, 3.0, 241)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    f = (X**2 - Y**2) * np.exp(-(X**2 + Y**2))
    tol = 1e-8 * np.max(np.abs(f))
    signs = np.where(X**2 + Y**2 <= 9.0, (f > tol).astype(int) - (f < -tol), 0)
    expected, m = ref._flood_fill_reference(signs)
    assert rep.m == m == 4
    assert np.array_equal(rep.labels, expected)


def test_labels_match_flood_fill_on_401_grid():
    xs = np.linspace(-3.0, 3.0, 401)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    f = np.sin(3.0 * X) * np.cos(2.0 * Y + 0.4 * X) + 0.3 * np.sin(X * Y)
    signs = np.where(X**2 + Y**2 <= 9.0, np.sign(f).astype(int), 0)
    assert _assert_same_labels(signs) > 10


@pytest.mark.parametrize("pattern", [_spiral, _snake])
def test_labels_match_flood_fill_on_long_paths(pattern):
    signs = pattern(61)
    m = _assert_same_labels(signs)
    assert m == (2 if pattern is _spiral else 1 + 30)
    assert _assert_same_labels(pattern(401)) >= 2


@given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=60),
                  elements=st.integers(-1, 1)))
@settings(max_examples=60, deadline=None)
def test_labels_match_flood_fill_on_drawn_grids(signs):
    _assert_same_labels(signs)
