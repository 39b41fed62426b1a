"""Dirichlet eigenvalues of lap + e^g and the mass-implication audits."""
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.special import jn_zeros

from onofri import eigen, planar
from onofri.errors import GridConfigError, NonConvergenceError

import reference_solvers as ref

J01_SQ = float(jn_zeros(0, 1)[0] ** 2)        # 5.7831859629...


def liouville(y):
    return np.log(8.0) - 2.0 * np.log1p(np.sum(np.asarray(y, dtype=float) ** 2, axis=-1))


def liouville_lap(y):
    return -8.0 / (1.0 + np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)) ** 2


EPS = 0.05


def perturbed(y):
    return liouville(y) + EPS * np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)


def perturbed_lap(y):
    return liouville_lap(y) + 4.0 * EPS


# ---------------------------------------------------------------------------
# assembly against the per-node loop assembly it replaced
# ---------------------------------------------------------------------------


def _assemble_disk_reference(R, n_r, n_theta):
    """Loop assembly of the polar scheme, one COO entry pair per face."""
    dr = R / n_r
    dth = 2.0 * math.pi / n_theta
    r = (np.arange(n_r) + 0.5) * dr
    m = np.repeat(r * dr * dth, n_theta)

    def idx(i, j):
        return i * n_theta + (j % n_theta)

    rows, cols, vals = [], [], []
    diag = np.zeros(n_r * n_theta)
    for i in range(n_r - 1):
        w = (i + 1) * dr * dth / dr
        for j in range(n_theta):
            a, b = idx(i, j), idx(i + 1, j)
            rows += [a, b]
            cols += [b, a]
            vals += [-w, -w]
            diag[a] += w
            diag[b] += w
    w_out = n_r * dr * dth / dr
    for j in range(n_theta):
        diag[idx(n_r - 1, j)] += 2.0 * w_out
    for i in range(n_r):
        w = dr / (r[i] * dth)
        for j in range(n_theta):
            a, b = idx(i, j), idx(i, j + 1)
            rows += [a, b]
            cols += [b, a]
            vals += [-w, -w]
            diag[a] += w
            diag[b] += w
    rows += list(range(n_r * n_theta))
    cols += list(range(n_r * n_theta))
    vals += list(diag)
    K = sp.csc_matrix((vals, (rows, cols)), shape=(n_r * n_theta,) * 2)
    return K, m


def _assemble_rect_reference(rect, h):
    """Loop assembly of the five-point scheme."""
    nx = int(round((rect.x1 - rect.x0) / h))
    ny = int(round((rect.y1 - rect.y0) / h))
    hx = (rect.x1 - rect.x0) / nx
    hy = (rect.y1 - rect.y0) / ny
    n = (nx - 1) * (ny - 1)
    area = hx * hy

    def idx(i, j):
        return i * (ny - 1) + j

    rows, cols, vals = [], [], []
    diag = np.full(n, 2.0 * (area / hx**2 + area / hy**2))
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = idx(i, j)
            if i + 1 < nx - 1:
                b = idx(i + 1, j)
                rows += [a, b]; cols += [b, a]; vals += [-area / hx**2] * 2
            if j + 1 < ny - 1:
                b = idx(i, j + 1)
                rows += [a, b]; cols += [b, a]; vals += [-area / hy**2] * 2
    rows += list(range(n))
    cols += list(range(n))
    vals += list(diag)
    K = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    return K, np.full(n, area)


def _assert_same_assembly(got, ref):
    (K, m), (K_ref, m_ref) = got, ref
    assert K.shape == K_ref.shape
    assert np.array_equal(K.indptr, K_ref.indptr)
    assert np.array_equal(K.indices, K_ref.indices)
    assert np.array_equal(K.data, K_ref.data)
    assert np.array_equal(m, m_ref)


@pytest.mark.parametrize("R, h", [(1.0, 0.04), (1.0, 0.02), (3.0, 0.02), (2.0, 0.01)])
def test_disk_assembly_matches_loop_reference(R, h):
    n_r = int(round(R / h))
    n_theta = max(48, n_r)
    K, m, _ = eigen._assemble_disk(R, n_r, n_theta)
    _assert_same_assembly((K, m), _assemble_disk_reference(R, n_r, n_theta))


@pytest.mark.parametrize("rect, h", [(eigen.Rect(0.0, 1.0, 0.0, 1.0), 0.04),
                                     (eigen.Rect(-0.4, 1.5, 0.2, 0.9), 0.02),
                                     (eigen.Rect(0.0, 0.13, 0.0, 2.0), 0.05)])
def test_rect_assembly_matches_loop_reference(rect, h):
    K, m, _ = eigen._assemble_rect(rect, h)
    _assert_same_assembly((K, m), _assemble_rect_reference(rect, h))


def test_too_coarse_mesh_raises_instead_of_clamping():
    """At h = 0.02 the disk of radius 0.1 has 5 rings.  A clamp to 8 rings
    solved it at the mesh of h = 0.0125, so Richardson's 2:1 ratio broke and
    the extrapolated value fell away from the exact j01^2 / R^2."""
    with pytest.raises(GridConfigError):
        eigen.first_eigenvalue_extrapolated(None, eigen.Disk(0.1), 0.02)
    lam = eigen.first_eigenvalue_extrapolated(None, eigen.Disk(0.1), 0.0125)   # 8 rings
    assert lam == pytest.approx(J01_SQ / 0.01, rel=1e-3)
    with pytest.raises(GridConfigError):
        eigen.first_eigenvalue(None, eigen.Rect(0.0, 0.1, 0.0, 2.0), 0.05)      # 2 cells across


# ---------------------------------------------------------------------------
# the exact radial block against the full 2-D disk scheme
# ---------------------------------------------------------------------------


RADIAL_FIELDS = {"none": None, "bubble": liouville, "perturbed": perturbed}


def _full_disk(g_fn, R, h):
    """The 2-D disk scheme at the mesh first_eigenvalue uses: (K, m, pot)."""
    n_r = int(round(R / h))
    n_theta = max(48, n_r)
    K, m, pts = eigen._assemble_disk(R, n_r, n_theta)
    pot = np.zeros(m.size) if g_fn is None else np.exp(g_fn(pts))
    return K, m, pot


@pytest.fixture
def spy_2d(monkeypatch):
    """Counts calls of the 2-D inverse iteration."""
    calls = []
    inner = eigen._smallest_eigenpair

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(eigen, "_smallest_eigenpair", spy)
    return calls


@pytest.mark.parametrize("field", sorted(RADIAL_FIELDS))
@pytest.mark.parametrize("h", [0.04, 0.02])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 3.0])
def test_radial_block_matches_2d_scheme(R, h, field, spy_2d):
    g_fn = RADIAL_FIELDS[field]
    lam = eigen.first_eigenvalue(g_fn, eigen.Disk(R), h)
    assert spy_2d == []
    lam_2d, _ = eigen._smallest_eigenpair(*_full_disk(g_fn, R, h))
    assert abs(lam - lam_2d) <= 1e-10


@pytest.mark.parametrize("g_fn", [liouville, perturbed])
def test_radial_eigenvector_is_ring_constant_and_normalised(g_fn):
    R, h = 1.5, 0.02
    lam, v, pts = ref.first_eigenpair(g_fn, eigen.Disk(R), h)
    _, m, _ = _full_disk(g_fn, R, h)
    n_r = int(round(R / h))
    rings = v.reshape(n_r, -1)
    assert np.array_equal(rings, np.repeat(rings[:, :1], rings.shape[1], axis=1))
    r = np.hypot(pts[:, 0], pts[:, 1]).reshape(n_r, -1)
    assert np.ptp(r, axis=1).max() <= 1e-14
    assert v @ (m * v) == pytest.approx(1.0, abs=1e-12)
    assert np.all(v > 0.0)


def _anisotropic(y):
    y = np.asarray(y, dtype=float)
    return liouville(y) + 1e-6 * (y[..., 0] ** 2 - y[..., 1] ** 2)


@pytest.mark.parametrize("g_fn", [_anisotropic, planar.liouville_bubble_field(center=(0.3, 0.0))])
def test_non_radial_field_takes_2d_path(g_fn, spy_2d):
    lam = eigen.first_eigenvalue(g_fn, eigen.Disk(1.0), 0.04)
    assert len(spy_2d) == 1
    assert spy_2d[0][0].shape[0] == 25 * 48      # the full n_r x n_theta assembly
    assert math.isfinite(lam)


def test_near_radial_field_agrees_with_radial_block():
    lam = eigen.first_eigenvalue(_anisotropic, eigen.Disk(1.0), 0.04)
    assert abs(lam - eigen.first_eigenvalue(liouville, eigen.Disk(1.0), 0.04)) <= 1e-5


def test_radial_residual_is_checked(monkeypatch):
    """A wrong eigenpair from the tridiagonal solver must not pass silently."""
    inner = eigen._tridiagonal_ground_state

    def off_by_one(d, e):
        lam, y = inner(d, e)
        return lam + 1.0, y

    monkeypatch.setattr(eigen, "_tridiagonal_ground_state", off_by_one)
    with pytest.raises(NonConvergenceError) as info:
        eigen.first_eigenvalue(liouville, eigen.Disk(1.0), 0.04)
    assert info.value.residual == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
@pytest.mark.parametrize("n", [1, 2, 3, 25, 200])
def test_tridiagonal_ground_state_matches_lapack(n, scale):
    """Bottom eigenpair of random symmetric tridiagonals against LAPACK: the
    eigenvalue within the residual bound, the eigenvector within bound / gap."""
    rng = np.random.default_rng([n, int(math.log10(scale)) + 10])
    for _ in range(5):
        d, e = rng.normal(size=n) * scale, rng.normal(size=n - 1) * scale
        lam, y = eigen._tridiagonal_ground_state(d, e)
        w, v = eigh_tridiagonal(d, e)
        bound = eigen.RESIDUAL_TOL * (1.0 + abs(w[0]))
        assert abs(lam - w[0]) <= bound
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        if n > 1:
            assert np.linalg.norm(y - np.sign(y @ v[:, 0]) * v[:, 0]) <= 2.0 * bound / (w[1] - w[0])


def test_tridiagonal_ground_state_refuses_a_double_bottom():
    """With a zero coupling the bottom eigenvalue can repeat; no bracket then
    holds exactly one eigenvalue, so no eigenpair is certified."""
    with pytest.raises(NonConvergenceError):
        eigen._tridiagonal_ground_state(np.array([1.0, 3.0, 1.0]), np.array([0.0, 0.0]))


def test_2d_path_reports_residual_when_iterations_run_out(monkeypatch):
    K, m, pot = _full_disk(liouville, 1.0, 0.04)
    with monkeypatch.context() as patch, pytest.raises(NonConvergenceError) as info:
        patch.setattr(eigen, "MAX_SWEEPS", 3)
        eigen._smallest_eigenpair(K, m, pot)
    lam, v = info.value.best
    assert info.value.residual > eigen.RESIDUAL_TOL * (1.0 + abs(lam))
    lam_full, _ = eigen._smallest_eigenpair(K, m, pot)
    assert abs(lam - lam_full) <= info.value.residual ** 2


def test_dirichlet_disk_bessel_oracle():
    lam = eigen.first_eigenvalue_extrapolated(None, eigen.Disk(1.0), 0.04)
    assert lam == pytest.approx(J01_SQ, abs=1e-3)


def test_dirichlet_square_oracle():
    lam = eigen.first_eigenvalue_extrapolated(None, eigen.Rect(0.0, 1.0, 0.0, 1.0), 0.04)
    assert lam == pytest.approx(2.0 * math.pi**2, abs=1e-3)


def test_liouville_unit_disk_neutral():
    lam = eigen.first_eigenvalue_extrapolated(liouville, eigen.Disk(1.0), 0.04)
    assert abs(lam) <= 1e-3


def test_liouville_eigenfunction_shape():
    lam, v, pts = ref.first_eigenpair(liouville, eigen.Disk(1.0), 0.01)
    r2 = np.sum(pts**2, axis=1)
    exact = (1.0 - r2) / (1.0 + r2)
    k = int(np.argmax(np.abs(v)))
    v = v * (exact[k] / v[k])
    assert np.max(np.abs(v - exact)) <= 1e-3


def test_domain_monotonicity():
    lam_small = eigen.first_eigenvalue_extrapolated(liouville, eigen.Disk(0.5), 0.02)
    lam_unit = eigen.first_eigenvalue_extrapolated(liouville, eigen.Disk(1.0), 0.04)
    lam_big = eigen.first_eigenvalue_extrapolated(liouville, eigen.Disk(2.0), 0.04)
    assert lam_small > lam_unit > lam_big
    assert lam_small > 0.0
    assert lam_big < 0.0


def test_liouville_disk_mass_exact():
    assert eigen.domain_mass(liouville, eigen.Disk(1.0)) == pytest.approx(4.0 * math.pi, abs=1e-6)
    assert eigen.domain_mass(liouville, eigen.Disk(2.0)) == pytest.approx(32.0 * math.pi / 5.0, abs=1e-6)


def test_rect_mass_oracle():
    mass = eigen.domain_mass(lambda y: np.zeros(np.asarray(y).shape[:-1]),
                             eigen.Rect(0.0, 2.0, 0.0, 0.5))
    assert mass == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the mass-implication audit
# ---------------------------------------------------------------------------


def test_equality_case_is_vacuous():
    """Unperturbed profile: zero margin, unit-disk mass exactly 4 pi; the audit
    must refuse to classify it rather than report a violation."""
    audits = eigen.bol_audit(liouville, eigen.Disk(3.0), [eigen.Disk(1.0)],
                             glap_fn=liouville_lap)
    assert audits[0].verdict == "vacuous"
    assert abs(audits[0].supersolution_margin) <= 1e-6


def test_strict_margin_audits_confirm():
    audits = eigen.bol_audit(perturbed, eigen.Disk(3.0),
                             [eigen.Disk(2.0), eigen.Disk(1.0), eigen.Disk(0.5)],
                             glap_fn=perturbed_lap)
    by_domain = {a.domain: a for a in audits}
    assert by_domain["disk(R=2.0)"].verdict == "confirmed"
    assert by_domain["disk(R=2.0)"].lambda1 < 0.0
    assert by_domain["disk(R=2.0)"].mass > 4.0 * math.pi
    assert by_domain["disk(R=1.0)"].verdict == "confirmed"
    assert by_domain["disk(R=0.5)"].verdict == "vacuous"   # positive eigenvalue
    assert all(a.supersolution_margin > 0.0 for a in audits)
    assert all(a.total_mass <= 8.0 * math.pi for a in audits)


def test_audit_total_mass_hypothesis_is_8_pi():
    """The perturbed audit field has total mass 24.56 on the disk of radius 3,
    below 8 pi = 25.13, and its audits classify.  Shifted by log 1.2 (the same
    Laplacian, a larger margin) its mass is 29.48, between 8 pi and 12 pi: the
    total-mass hypothesis fails and every verdict is vacuous."""
    field = planar.audit_fields()["perturbed"]
    disks = [eigen.Disk(r) for r in (2.0, 1.0, 0.5)]
    cases = ((field, ["confirmed", "confirmed", "vacuous"]),
             (lambda y: field(y) + math.log(1.2), ["vacuous"] * 3))
    for g_fn, verdicts in cases:
        audits = eigen.bol_audit(g_fn, eigen.Disk(3.0), disks, glap_fn=field.lap_evaluator)
        assert [a.verdict for a in audits] == verdicts
    assert 8.0 * math.pi < audits[0].total_mass < 12.0 * math.pi
    assert audits[0].supersolution_margin > 0.0


def test_supersolution_margin_takes_only_a_disk():
    with pytest.raises(TypeError, match="unsupported domain"):
        eigen.supersolution_margin(perturbed, perturbed_lap, eigen.Rect(-1.0, 1.0, -1.0, 1.0))


def test_continuation_radius_mass():
    """The neutral radius of the perturbed profile carries mass above 4 pi."""
    r_star = eigen.zero_eigenvalue_radius(perturbed, (0.7, 1.1))
    assert 0.9 <= r_star <= 1.05
    mass = eigen.domain_mass(perturbed, eigen.Disk(r_star + 2e-3))
    assert mass > 4.0 * math.pi


def test_bad_bracket_rejected():
    with pytest.raises(ValueError):
        eigen.zero_eigenvalue_radius(perturbed, (0.2, 0.3))


def test_neutral_radius_search_takes_seven_eigenvalues(monkeypatch):
    """Criterion 9's search finds the neutral radius of the perturbed audit field
    in at most 7 extrapolated eigenvalues, the bracket's two ends included, and
    lambda_1 there is within 2e-4 of zero (bisection to RADIUS_TOL took 11 and
    stopped at the last bracket's midpoint, where lambda_1 = -1.6e-3)."""
    field = planar.audit_fields()["perturbed"]
    extrapolated, radii = eigen.first_eigenvalue_extrapolated, []

    def spy(g_fn, omega, h):
        radii.append(omega.radius)
        return extrapolated(g_fn, omega, h)

    monkeypatch.setattr(eigen, "first_eigenvalue_extrapolated", spy)
    r_star = eigen.zero_eigenvalue_radius(field, (0.7, 1.1))
    assert len(radii) <= 7
    assert abs(extrapolated(field, eigen.Disk(r_star), 0.02)) <= 2e-4


# ---------------------------------------------------------------------------
# the neutral radius against a continuous oracle
# ---------------------------------------------------------------------------


def _neutral_radius_ode(g_fn, r_max=3.0):
    """First zero of w'' + w'/r + e^g w = 0 with w(0) = 1, w'(0) = 0 (radial g),
    started off the axis from the series w = 1 - e^g(0) r^2 / 4."""
    e0 = math.exp(float(g_fn(np.zeros((1, 2)))[0]))
    r0 = 1e-6

    def rhs(r, x):
        eg = math.exp(float(g_fn(np.array([[r, 0.0]]))[0]))
        return [x[1], -x[1] / r - eg * x[0]]

    def crossing(r, x):
        return x[0]

    crossing.terminal = True
    crossing.direction = -1
    sol = solve_ivp(rhs, (r0, r_max), [1.0 - 0.25 * e0 * r0**2, -0.5 * e0 * r0],
                    method="DOP853", rtol=1e-12, atol=1e-14, events=crossing)
    (zeros,) = sol.t_events
    return float(zeros[0])


def test_ode_oracle_bubble_zero_is_one():
    """w = (1 - r^2)/(1 + r^2) for the bubble, so the first zero is exactly 1."""
    assert _neutral_radius_ode(liouville) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("g_fn", [liouville, perturbed])
@pytest.mark.parametrize("tol", [1e-3, 1e-5])
def test_neutral_radius_matches_ode_oracle(g_fn, tol, monkeypatch):
    h = 0.02
    monkeypatch.setattr(eigen, "RADIUS_TOL", tol)
    r_star = eigen.zero_eigenvalue_radius(g_fn, (0.7, 1.1), h=h)
    assert abs(r_star - _neutral_radius_ode(g_fn)) <= 0.5 * tol + h**2
