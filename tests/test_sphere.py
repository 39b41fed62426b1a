"""Quadrature, transforms, and spectral operators on the sphere."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from onofri import planar, quadrature, sphere
from onofri.errors import GridConfigError, InvalidFieldError

import reference_solvers as ref


def random_band_limited(grid, seed, lmax=None, amplitude=1.0):
    rng = np.random.default_rng(seed)
    L = grid.lmax if lmax is None else min(lmax, grid.lmax)
    spec = sphere.zero_spectrum(grid.lmax)
    for l in range(L + 1):
        ms = np.arange(-l, l + 1)
        spec.coeffs[l, grid.lmax + ms] = amplitude * rng.normal(size=ms.size) / (1.0 + l)
    return sphere.synthesize(spec, grid), spec


# ---------------------------------------------------------------------------
# grid invariants
# ---------------------------------------------------------------------------


def test_weights_sum_to_two(grid16):
    assert abs(np.sum(grid16.w_mu) - 2.0) <= 1e-14


def test_quadrature_exactness(grid8):
    """Gauss-Legendre with n nodes integrates mu-polynomials of degree 2n-1."""
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=2 * grid8.n_mu)           # degree 2 n_mu - 1
    exact = np.polynomial.polynomial.polyint(coeffs)
    exact_val = np.polynomial.polynomial.polyval(1.0, exact) - np.polynomial.polynomial.polyval(-1.0, exact)
    quad = float(np.dot(grid8.w_mu, np.polynomial.polynomial.polyval(grid8.mu, coeffs)))
    assert quad == pytest.approx(exact_val, abs=1e-12)


def test_grid_rejects_aliasing():
    with pytest.raises(GridConfigError):
        sphere.build_grid(-1)
    with pytest.raises(GridConfigError):
        sphere.build_grid(8, n_mu=8)
    with pytest.raises(GridConfigError):
        sphere.build_grid(8, n_phi=16)
    g = sphere.build_grid(8, n_mu=9, n_phi=17)          # the hard floor is fine
    assert g.n_mu == 9 and g.n_phi == 17


def test_default_grid_sizes():
    """n_mu = 2 lmax and n_phi = 4 lmax, raised to the floor only at lmax = 0."""
    assert [sphere.build_grid(lmax).shape for lmax in (0, 1, 2)] == [(1, 1), (2, 4), (4, 8)]


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_constant(grid16):
    assert sphere.integrate(ref.constant_field(grid16, 1.0)) == pytest.approx(1.0, abs=1e-15)


def test_integrate_odd_coordinate(grid16):
    x3 = sphere.field_of(grid16, lambda a, b, c: c)
    assert abs(sphere.integrate(x3)) <= 1e-14


def test_integrate_second_moment(grid16):
    """Closed-form moment of x3^2 against the probability measure is 1/3."""
    f = sphere.field_of(grid16, lambda a, b, c: c**2)
    assert sphere.integrate(f) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_integrate_rejects_nonfinite(grid8):
    bad = ref.constant_field(grid8, 1.0)
    bad.values[0, 0] = np.inf
    with pytest.raises(InvalidFieldError):
        sphere.integrate(bad)


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_integrate_linear_and_positive(seed):
    g = sphere.build_grid(8)
    f, _ = random_band_limited(g, seed)
    h, _ = random_band_limited(g, seed + 1)
    lhs = sphere.integrate(sphere.SphereField(g, 2.0 * f.values - 3.0 * h.values))
    rhs = 2.0 * sphere.integrate(f) - 3.0 * sphere.integrate(h)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert sphere.integrate(sphere.SphereField(g, f.values**2)) >= 0.0


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_constant_mode(grid16):
    spec = sphere.analyze(ref.constant_field(grid16, 1.0))
    assert spec.coeffs[0, grid16.lmax] == pytest.approx(1.0, abs=1e-13)
    rest = spec.coeffs.copy()
    rest[0, grid16.lmax] = 0.0
    assert np.max(np.abs(rest)) <= 1e-13


def test_coordinate_coefficient_matches_quadrature_oracle(grid16):
    """Project x3 on the normalised degree-one zonal basis function by direct
    quadrature; the transform must reproduce that number (it is 1/sqrt(3))."""
    x3 = sphere.field_of(grid16, lambda a, b, c: c)
    e10 = sphere.field_of(grid16, lambda a, b, c: np.sqrt(3.0) * c)
    oracle = sphere.integrate(sphere.SphereField(grid16, x3.values * e10.values))
    spec = sphere.analyze(x3)
    assert spec.coeffs[1, grid16.lmax] == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
    off = spec.coeffs.copy()
    off[1, grid16.lmax] = 0.0
    assert np.max(np.abs(off)) <= 1e-13


@given(st.integers(0, 10**6))
@settings(max_examples=20)
def test_round_trip_identity(seed):
    g = sphere.build_grid(12)
    f, spec = random_band_limited(g, seed)
    back = sphere.analyze(f)
    assert np.max(np.abs(back.coeffs - spec.coeffs)) <= 1e-12
    again = sphere.synthesize(back, g)
    assert np.max(np.abs(again.values - f.values)) <= 1e-12


def _analyze_loop(f):
    """Reference forward transform: one matrix-vector product per order m."""
    grid = f.grid
    L = grid.lmax
    spec = sphere.zero_spectrum(L)
    fhat = np.fft.rfft(f.values, axis=1)
    for m in range(L + 1):
        block = grid.basis_mu[m, m:]
        spec.coeffs[m:, L + m] = block @ (0.5 * grid.w_mu * fhat[:, m].real / grid.n_phi)
        if m > 0:
            spec.coeffs[m:, L - m] = block @ (0.5 * grid.w_mu * -fhat[:, m].imag / grid.n_phi)
    return spec


def _synthesize_loop(spec, grid):
    """Reference inverse transform: one matrix-vector product per order m."""
    L = spec.lmax
    fhat = np.zeros((grid.n_mu, grid.n_phi // 2 + 1), dtype=complex)
    for m in range(L + 1):
        block = grid.basis_mu[m, m : L + 1]
        cm = block.T @ spec.coeffs[m:, L + m]
        if m == 0:
            fhat[:, 0] = grid.n_phi * cm
        else:
            fhat[:, m] = 0.5 * grid.n_phi * (cm - 1j * (block.T @ spec.coeffs[m:, L - m]))
    return np.fft.irfft(fhat, n=grid.n_phi, axis=1)


@pytest.mark.parametrize("lmax", [8, 16, 32])
@pytest.mark.parametrize("floor", [False, True])
def test_batched_transforms_match_per_order_loop(lmax, floor):
    g = sphere.build_grid(lmax, n_mu=lmax + 1, n_phi=2 * lmax + 1) if floor else sphere.build_grid(lmax)
    for seed in range(3):
        f, spec = random_band_limited(g, seed)
        assert np.max(np.abs(sphere.synthesize(spec, g).values - _synthesize_loop(spec, g))) <= 1e-14
        assert np.max(np.abs(sphere.analyze(f).coeffs - _analyze_loop(f).coeffs)) <= 1e-14


def test_batched_synthesis_of_lower_degree_spectrum(grid32):
    for degree in (0, 1, 5, 16):
        spec = random_band_limited(sphere.build_grid(degree), degree)[1]
        vals = sphere.synthesize(spec, grid32).values
        assert np.max(np.abs(vals - _synthesize_loop(spec, grid32))) <= 1e-14
        back = sphere.analyze(sphere.SphereField(grid32, vals)).coeffs
        assert np.max(np.abs(back[: degree + 1, 32 - degree : 33 + degree] - spec.coeffs)) <= 1e-14


@pytest.mark.parametrize("lmax", [8, 16, 32])
@pytest.mark.parametrize("floor", [False, True])
def test_fft_transforms_match_per_order_loop(lmax, floor):
    """A grid without the azimuth table, as build_grid makes above TABLE_LMAX,
    sums over the azimuth by FFT, to the per-order loop's rounding, also for a
    spectrum of lower degree than the grid."""
    g = sphere.build_grid(lmax, n_mu=lmax + 1, n_phi=2 * lmax + 1) if floor else sphere.build_grid(lmax)
    g = dataclasses.replace(g, azimuth=None)
    for seed in range(3):
        f, spec = random_band_limited(g, seed)
        assert np.max(np.abs(sphere.synthesize(spec, g).values - _synthesize_loop(spec, g))) <= 1e-14
        assert np.max(np.abs(sphere.analyze(f).coeffs - _analyze_loop(f).coeffs)) <= 1e-14
    spec = random_band_limited(sphere.build_grid(lmax // 2), lmax // 2)[1]
    assert np.max(np.abs(sphere.synthesize(spec, g).values - _synthesize_loop(spec, g))) <= 1e-14


def test_grid_above_table_lmax_transforms_by_fft():
    assert sphere.build_grid(sphere.TABLE_LMAX).azimuth is not None
    g = sphere.build_grid(sphere.TABLE_LMAX + 1)
    assert g.azimuth is None
    f, spec = random_band_limited(g, 0)
    assert np.max(np.abs(sphere.analyze(f).coeffs - spec.coeffs)) <= 1e-12


@pytest.mark.parametrize("lmax, n_phi", [(8, None), (16, None), (32, None), (8, 17)])
def test_azimuth_table_is_cos_sin_of_the_reduced_angle(lmax, n_phi):
    """Rows 2m and 2m + 1 of the azimuth table are cos and sin of m phi_k with the
    angle reduced exactly, 2 pi ((k m) mod n_phi) / n_phi: every entry is,
    bit for bit, the order-one entry at node (k m) mod n_phi, as in the
    discrete Fourier matrix, and within rounding of cos and sin of m phi_k."""
    g = sphere.build_grid(lmax, n_phi=n_phi)
    km = np.outer(np.arange(lmax + 1), np.arange(g.n_phi))
    angle = 2.0 * np.pi * (km % g.n_phi) / g.n_phi
    assert np.array_equal(g.azimuth[0::2], np.cos(angle))
    assert np.array_equal(g.azimuth[1::2], np.sin(angle))
    assert np.array_equal(g.azimuth[0::2], g.azimuth[2, km % g.n_phi])
    assert np.array_equal(g.azimuth[1::2], g.azimuth[3, km % g.n_phi])
    m_phi = np.outer(np.arange(lmax + 1), g.phi)
    assert np.max(np.abs(g.azimuth[0::2] - np.cos(m_phi))) <= 1e-13
    assert np.max(np.abs(g.azimuth[1::2] - np.sin(m_phi))) <= 1e-13


def test_basis_table_is_zero_padded(grid16):
    table = grid16.basis_mu
    assert table.shape == (17, 17, grid16.n_mu)
    for m in range(17):
        assert not table[m, :m].any()
        assert np.all(np.any(table[m, m:] != 0.0, axis=1))


def test_synthesize_rejects_oversized_spectrum(grid8):
    spec = sphere.zero_spectrum(20)
    with pytest.raises(GridConfigError):
        sphere.synthesize(spec, grid8)


def _unit_vectors(mu, phi):
    """The unit vectors at latitudes mu and longitudes phi, shape mu.shape + (3,)."""
    sin_t = np.sqrt(1.0 - mu * mu)
    return np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), mu], axis=-1)


def test_evaluate_matches_grid_samples(grid8):
    f, spec = random_band_limited(grid8, 7)
    mu = np.repeat(grid8.mu[:, None], grid8.n_phi, axis=1)
    phi = np.repeat(grid8.phi[None, :], grid8.n_mu, axis=0)
    vals = sphere.evaluate_xyz(spec, _unit_vectors(mu, phi))
    assert np.max(np.abs(vals - f.values)) <= 1e-12


def _alf_rows(lmax, mu):
    """Reference associated Legendre functions, orthonormal on L2(d mu), by order m:
    entry m has shape (lmax + 1 - m, len(mu)), rows l = m .. lmax."""
    sin_t = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
    rows = []
    pmm = np.full_like(mu, 1.0 / np.sqrt(2.0))
    for m in range(lmax + 1):
        block = np.empty((lmax + 1 - m, mu.size))
        block[0] = pmm
        if m + 1 <= lmax:
            block[1] = np.sqrt(2.0 * m + 3.0) * mu * pmm
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            block[l - m] = a * (mu * block[l - m - 1] - b * block[l - m - 2])
        rows.append(block)
        if m < lmax:
            pmm = sin_t * np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * pmm
    return rows


def _basis_rows(lmax, mu):
    """Reference latitude factors of the dw-orthonormal real basis, by order m."""
    rows = _alf_rows(lmax, mu)
    return [np.sqrt(2.0) * rows[0]] + [2.0 * rows[m] for m in range(1, lmax + 1)]


def _evaluate_loop(spec, mu, phi):
    """Reference evaluation: every (m, l) row at every point, then one
    matrix-vector product per order and branch."""
    shape = mu.shape
    mu, phi = mu.ravel(), phi.ravel()
    L = spec.lmax
    rows = _basis_rows(L, mu)
    out = rows[0].T @ spec.coeffs[:, L]
    for m in range(1, L + 1):
        cm = rows[m].T @ spec.coeffs[m:, L + m]
        sm = rows[m].T @ spec.coeffs[m:, L - m]
        out += cm * np.cos(m * phi) + sm * np.sin(m * phi)
    return out.reshape(shape)


def _random_spectrum(lmax, seed):
    return random_band_limited(sphere.build_grid(lmax, n_mu=lmax + 1, n_phi=2 * lmax + 1), seed)[1]


def _stereographic_polar_set():
    """The 13 824 lifted polar quadrature nodes at which planar.beta_l evaluates
    a transferred field (cut at 2 * 100)."""
    r, _, theta = quadrature.disk_rule(200.0)
    y = np.stack([r[:, None] * np.cos(theta), r[:, None] * np.sin(theta)], axis=-1)
    return planar.stereo_lift(y.reshape(-1, 2))


def test_latitude_blocks_match_reference_rows():
    mu = np.concatenate([[-1.0, 1.0], np.random.default_rng(3).uniform(-1.0, 1.0, 50)])
    for lmax in (0, 1, 8, 33):
        blocks = [block.copy() for _, block in sphere._latitude_blocks(lmax, mu)]
        ref = _basis_rows(lmax, mu)
        assert len(blocks) == len(ref)
        assert all(np.array_equal(b, r) for b, r in zip(blocks, ref))


@pytest.mark.parametrize("lmax", [8, 16, 32, 64])
def test_tabulated_recurrence_keeps_the_tables(monkeypatch, lmax):
    """Tabulating a(l, m) and b(l, m) leaves basis_mu and the streamed
    blocks byte-identical to the recurrence that computes them per row."""
    grid = sphere.build_grid(lmax)
    mu = np.random.default_rng(lmax).uniform(-1.0, 1.0, 64)
    blocks = [block.copy() for _, block in sphere._latitude_blocks(lmax, mu)]
    monkeypatch.setattr(sphere, "_latitude_blocks", ref.latitude_blocks)
    assert grid.basis_mu.tobytes() == sphere.build_grid(lmax).basis_mu.tobytes()
    assert all(b.tobytes() == r.tobytes() for b, (_, r) in zip(blocks, ref.latitude_blocks(lmax, mu)))


@pytest.mark.parametrize("lmax", [8, 16, 32, 64])
def test_evaluate_matches_loop_reference(lmax):
    rng = np.random.default_rng(lmax)
    mu = np.concatenate([[-1.0, 1.0, -1.0, 1.0], rng.uniform(-1.0, 1.0, 400)])
    phi = rng.uniform(-np.pi, np.pi, mu.size)
    xyz = _stereographic_polar_set()
    points = _unit_vectors(mu, phi)
    for seed in range(2):
        spec = _random_spectrum(lmax, seed)
        got = sphere.evaluate_xyz(spec, points.reshape(4, -1, 3))
        assert got.shape == (4, mu.size // 4)
        # the reference reads the longitudes the vectors hold, which round phi
        ref_phi = np.arctan2(points[:, 1], points[:, 0])
        assert np.max(np.abs(got.ravel() - _evaluate_loop(spec, mu, ref_phi))) <= 1e-13
        ref = _evaluate_loop(spec, xyz[:, 2], np.arctan2(xyz[:, 1], xyz[:, 0]))
        assert np.max(np.abs(sphere.evaluate_xyz(spec, xyz) - ref)) <= 1e-13


@pytest.mark.parametrize("lmax", [16, 32])
def test_evaluate_tensor_matches_evaluate_xyz(lmax):
    """On the lifted rings of planar.beta_l the tensor-grid entry agrees with
    evaluate_xyz at every lifted point, to 1e-13 plus what the two latitudes'
    difference makes of the field's slope.  The ring's latitude
    (r^2 - 1)/(r^2 + 1) and the lifted point's x3 round differently (by up to
    3.3e-16), and near the pole f changes fast in mu; the slope at each ring
    is a central difference of the tensor entry over 2e-7 in mu."""
    r, _, theta = quadrature.disk_rule(200.0)
    r = np.concatenate([[0.0, 1.0], r])
    mu = (r * r - 1.0) / (r * r + 1.0)
    y = np.stack([np.outer(r, np.cos(theta)), np.outer(r, np.sin(theta))], axis=-1)
    lifted = planar.stereo_lift(y)
    shift = np.abs(lifted[..., 2] - mu[:, None])
    lo, hi = np.maximum(mu - 1e-7, -1.0), np.minimum(mu + 1e-7, 1.0)
    for seed in range(2):
        spec = _random_spectrum(lmax, seed)
        got = sphere.evaluate_tensor(spec, mu, theta)
        assert got.shape == (r.size, theta.size)
        slope = (sphere.evaluate_tensor(spec, hi, theta)
                 - sphere.evaluate_tensor(spec, lo, theta)) / (hi - lo)[:, None]
        bound = 1e-13 + np.abs(slope) * shift
        assert np.all(np.abs(got - sphere.evaluate_xyz(spec, lifted)) <= bound)


def test_evaluate_memory_is_bounded():
    """Streaming one order at a time keeps evaluate at L = 32 on the stereographic
    set far below the 124 MB that every (m, l) row and its scaled copy take."""
    spec = _random_spectrum(32, 0)
    xyz = _stereographic_polar_set()
    tracemalloc.start()
    try:
        sphere.evaluate_xyz(spec, xyz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_evaluate_xyz_rejects_non_vectors():
    spec = _random_spectrum(4, 0)
    with pytest.raises(InvalidFieldError):
        sphere.evaluate_xyz(spec, np.zeros((5, 2)))
    with pytest.raises(InvalidFieldError):
        sphere.evaluate_xyz(spec, np.zeros(3 * 5))


# ---------------------------------------------------------------------------
# Dirichlet energy and Laplacian
# ---------------------------------------------------------------------------


def test_energy_constant_is_zero(grid16):
    assert sphere.dirichlet_energy(ref.constant_field(grid16, 3.7)) <= 1e-14


def test_energy_coordinate(grid16):
    """Surface gradient of x3 has |grad|^2 = 1 - x3^2; integrate it directly."""
    oracle = sphere.integrate(sphere.field_of(grid16, lambda a, b, c: 1.0 - c**2))
    f = sphere.field_of(grid16, lambda a, b, c: c)
    assert sphere.dirichlet_energy(f) == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_norms_of_the_degree_one_zonal_function(grid16):
    """sqrt(3) x3 has unit L2 norm and Dirichlet energy l(l+1) = 2, so H1 norm sqrt(3)."""
    f = sphere.field_of(grid16, lambda a, b, c: np.sqrt(3.0) * c)
    assert sphere.l2_norm(f) == pytest.approx(1.0, abs=1e-12)
    assert sphere.h1_norm(f) == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_energy_degree_two(grid16):
    """|grad(x1 x2)|^2 = x1^2 + x2^2 - 4 x1^2 x2^2 on the sphere."""
    oracle = sphere.integrate(sphere.field_of(
        grid16, lambda a, b, c: a**2 + b**2 - 4.0 * a**2 * b**2))
    f = sphere.field_of(grid16, lambda a, b, c: a * b)
    assert sphere.dirichlet_energy(f) == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(0.4, abs=1e-12)


def test_laplacian_eigenvalues(grid16):
    x3 = sphere.field_of(grid16, lambda a, b, c: c)
    assert np.max(np.abs(sphere.laplacian(x3).values + 2.0 * x3.values)) <= 1e-12
    p2 = sphere.field_of(grid16, lambda a, b, c: 3.0 * c**2 - 1.0)
    assert np.max(np.abs(sphere.laplacian(p2).values + 6.0 * p2.values)) <= 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_laplacian_integrates_to_zero(seed):
    g = sphere.build_grid(10)
    f, _ = random_band_limited(g, seed)
    assert abs(sphere.integrate(sphere.laplacian(f))) <= 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_spectral_gap_two(seed):
    g = sphere.build_grid(10)
    f, _ = random_band_limited(g, seed)
    var = sphere.integrate(sphere.SphereField(g, f.values**2)) - sphere.integrate(f) ** 2
    assert sphere.dirichlet_energy(f) >= 2.0 * var - 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=15)
def test_spectral_gap_six_above_degree_one(seed):
    g = sphere.build_grid(10)
    _, spec = random_band_limited(g, seed)
    high = sphere.HarmonicSpectrum(spec.lmax, spec.coeffs.copy())
    high.coeffs[:2] = 0.0
    v = sphere.synthesize(high, g)
    norm2 = sphere.integrate(sphere.SphereField(g, v.values**2))
    assert sphere.dirichlet_energy(v) >= 6.0 * norm2 - 1e-10
