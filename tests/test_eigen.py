"""Dirichlet eigenvalues of lap + e^g and the mass-implication audits."""
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import jn_zeros

from onofri import eigen

J01_SQ = float(jn_zeros(0, 1)[0] ** 2)        # 5.7831859629...


def liouville(y):
    return np.log(8.0) - 2.0 * np.log1p(np.sum(np.asarray(y, dtype=float) ** 2, axis=-1))


def liouville_lap(y):
    return -8.0 / (1.0 + np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)) ** 2


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
    nx = max(3, int(round((rect.x1 - rect.x0) / h)))
    ny = max(3, int(round((rect.y1 - rect.y0) / h)))
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
    n_r = max(8, int(round(R / h)))
    n_theta = max(48, n_r)
    K, m, _ = eigen._assemble_disk(R, n_r, n_theta)
    _assert_same_assembly((K, m), _assemble_disk_reference(R, n_r, n_theta))


@pytest.mark.parametrize("rect, h", [(eigen.Rect(0.0, 1.0, 0.0, 1.0), 0.04),
                                     (eigen.Rect(-0.4, 1.5, 0.2, 0.9), 0.02),
                                     (eigen.Rect(0.0, 0.1, 0.0, 2.0), 0.05)])
def test_rect_assembly_matches_loop_reference(rect, h):
    K, m, _ = eigen._assemble_rect(rect, h)
    _assert_same_assembly((K, m), _assemble_rect_reference(rect, h))


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
    lam, v, pts = eigen.first_eigenpair(liouville, eigen.Disk(1.0), 0.01)
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


EPS = 0.05


def perturbed(y):
    return liouville(y) + EPS * np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)


def perturbed_lap(y):
    return liouville_lap(y) + 4.0 * EPS


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


def test_continuation_radius_mass():
    """The neutral radius of the perturbed profile carries mass above 4 pi."""
    r_star = eigen.zero_eigenvalue_radius(perturbed, (0.7, 1.1))
    assert 0.9 <= r_star <= 1.05
    mass = eigen.domain_mass(perturbed, eigen.Disk(r_star + 2e-3))
    assert mass > 4.0 * math.pi


def test_bad_bracket_rejected():
    with pytest.raises(ValueError):
        eigen.zero_eigenvalue_radius(perturbed, (0.2, 0.3))
