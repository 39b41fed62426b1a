"""Discrete fields on the unit sphere.

Conventions used throughout the package:

* the surface measure ``dw`` is normalised to total mass one, so
  ``integrate(1) == 1`` and the moment ``integrate(x3**2) == 1/3``;
* the grid is Gauss-Legendre in ``mu = cos(theta)`` crossed with a uniform
  azimuthal grid, which integrates band-limited fields exactly;
* real spherical harmonics are orthonormal with respect to ``dw``
  (not the area measure), e.g. the degree-one zonal basis function is
  ``sqrt(3) * x3``;
* a field or spectrum may carry leading lane axes: a stack of fields that
  the transforms and integrals treat lane by lane, as they treat one field;
* the transforms are matrix products with two tables the grid builds once:
  the latitude factors of the basis and the azimuth's cosines and sines (a
  grid above TABLE_LMAX has no azimuth table and sums over the azimuth by a
  real FFT).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import GridConfigError, InvalidFieldError

# Largest band limit whose grid sums over the azimuth by a product with its
# cos/sin table; above it, where the product's O(lmax) work per node outgrows a
# real FFT's O(log n_phi), analyze and synthesize use the FFT.
TABLE_LMAX = 64


def _recurrence_coefficients(lmax: int) -> tuple[list, list]:
    """a(l, m) and b(l, m) of the three-term recurrence, as lists indexed [m][l].

    p_{l,m} = a(l, m) (mu p_{l-1,m} - b(l, m) p_{l-2,m}) for l >= m + 2; each
    entry is rounded as the scalar formula rounds it.
    """
    l = np.arange(lmax + 1, dtype=float)
    m = l[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
    return a.tolist(), b.tolist()


def _latitude_blocks(lmax: int, mu: np.ndarray):
    """Latitude factors of the dw-orthonormal real basis, one order m at a time.

    Basis: e_{l,0} = q_{l,0}(mu);  e_{l,m} = q_{l,m}(mu) cos(m phi) and
    e_{l,-m} = q_{l,m}(mu) sin(m phi) for m >= 1, where q_{l,0} = sqrt(2) p_{l,0},
    q_{l,m} = 2 p_{l,m} and p_{l,m} are the associated Legendre functions
    orthonormal on L2(d mu), from the standard stable three-term recurrence (no
    Condon-Shortley phase) with its coefficients tabulated once per call.
    Yields (m, block), block of shape (lmax + 1 - m, len(mu)) holding rows
    l = m .. lmax; every block is a view of one (lmax + 1, len(mu)) buffer
    that the next order overwrites.
    """
    mu = np.asarray(mu, dtype=float)
    sin_t = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
    coef_a, coef_b = _recurrence_coefficients(lmax)
    buf = np.empty((lmax + 1, mu.size))
    tmp = np.empty(mu.size)
    pmm = np.full_like(mu, 1.0 / np.sqrt(2.0))
    for m in range(lmax + 1):
        block = buf[: lmax + 1 - m]
        block[0] = pmm
        if m + 1 <= lmax:
            np.multiply(np.sqrt(2.0 * m + 3.0) * mu, pmm, out=block[1])
        a_m, b_m = coef_a[m], coef_b[m]
        for l in range(m + 2, lmax + 1):
            # a * (mu * p_{l-1} - b * p_{l-2}) in place, rounding as written
            row = block[l - m]
            np.multiply(b_m[l], block[l - m - 2], out=tmp)
            np.multiply(mu, block[l - m - 1], out=row)
            row -= tmp
            row *= a_m[l]
        block *= np.sqrt(2.0) if m == 0 else 2.0
        yield m, block
        pmm = sin_t * np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * pmm


def _orthonormalized_table(lmax: int, mu: np.ndarray, w_mu: np.ndarray) -> np.ndarray:
    """Basis tables polished so discrete quadrature orthonormality is exact.

    The recurrence leaves O(l*eps) noise in the tables, which the Laplacian
    amplifies by l(l+1); a thin QR against the quadrature inner product
    restores orthonormality to machine precision without changing the span.
    Returns one array of shape (lmax + 1, lmax + 1, len(mu)) indexed
    (m, l, mu), zero where l < m.  It is stored with l varying fastest, the
    memory order of the QR factor, so a batched product with it sums over mu
    in the same order as a product with each factor on its own.
    """
    table = np.zeros((lmax + 1, mu.size, lmax + 1))
    for m, block in _latitude_blocks(lmax, mu):
        scale = np.sqrt(w_mu / 2.0) if m == 0 else np.sqrt(w_mu) / 2.0
        q, r = np.linalg.qr(block.T * scale[:, None])
        q *= np.sign(np.diag(r))
        table[m, :, m:] = q / scale[:, None]
    return table.transpose(0, 2, 1)


@dataclass(frozen=True)
class SphereGrid:
    """Gauss-Legendre x uniform-azimuth quadrature grid."""

    lmax: int
    n_mu: int
    n_phi: int
    mu: np.ndarray = field(repr=False)
    w_mu: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    basis_mu: np.ndarray = field(repr=False)   # (m, l, mu) latitude tables, zero for l < m
    azimuth: np.ndarray | None = field(repr=False)  # (2 (lmax + 1), n_phi) cos/sin rows, or None
    node_points: np.ndarray = field(repr=False)    # (n_mu n_phi, 3) node coordinates, read-only
    node_weights: np.ndarray = field(repr=False)   # (n_mu n_phi,) weights of dw, read-only
    node_second: np.ndarray = field(repr=False)    # (6, n_mu n_phi) weights x_i x_j, i <= j, read-only

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_mu, self.n_phi)

    def points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cartesian coordinates of all nodes, each of shape (n_mu, n_phi)."""
        return tuple(np.moveaxis(self.node_points.reshape(*self.shape, 3), -1, 0))


def build_grid(lmax: int, n_mu: int | None = None, n_phi: int | None = None) -> SphereGrid:
    """Construct a grid able to hold degree-2*lmax products without aliasing.

    Defaults n_mu = 2*lmax and n_phi = 4*lmax, raised to the hard floor
    n_mu >= lmax + 1 and n_phi >= 2*lmax + 1; an explicit size below the floor
    raises GridConfigError.
    """
    if lmax < 0:
        raise GridConfigError("band limit must be nonnegative")
    n_mu = max(2 * lmax, lmax + 1) if n_mu is None else n_mu
    n_phi = max(4 * lmax, 2 * lmax + 1) if n_phi is None else n_phi
    if n_mu < lmax + 1 or n_phi < 2 * lmax + 1:
        raise GridConfigError(f"grid {n_mu}x{n_phi} cannot hold degree {lmax}")
    mu, w = quadrature.gauss_rule(n_mu)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(1.0 - mu**2)[:, None]
    xyz = np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi), mu[:, None])
    points, weights = np.stack(xyz, axis=-1).reshape(-1, 3), np.repeat(w / (2.0 * n_phi), n_phi)
    points.flags.writeable = weights.flags.writeable = False
    azimuth = _azimuth_table(lmax, n_phi) if lmax <= TABLE_LMAX else None
    return SphereGrid(lmax, n_mu, n_phi, mu, w, phi, _orthonormalized_table(lmax, mu, w),
                      azimuth, points, weights, quadrature.second_moments(weights, points))


def _azimuth_table(lmax: int, n_phi: int) -> np.ndarray:
    """Rows cos(m phi_k) and sin(m phi_k), m = 0 .. lmax in turn, at the nodes
    phi_k = 2 pi k / n_phi.  Each angle is reduced exactly, 2 pi ((k m) mod n_phi)
    / n_phi, so the table is the discrete Fourier matrix to rounding of one cos
    or sin: a product with it sums over the azimuth as a real FFT does."""
    angle = 2.0 * np.pi * (np.outer(np.arange(lmax + 1), np.arange(n_phi)) % n_phi) / n_phi
    return np.stack([np.cos(angle), np.sin(angle)], axis=1).reshape(2 * lmax + 2, n_phi)


@dataclass
class SphereField:
    """Real scalar field sampled on a SphereGrid, or a stack of them (leading lane axes)."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-2:] != self.grid.shape:
            raise InvalidFieldError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    def with_values(self, values: np.ndarray) -> "SphereField":
        return SphereField(self.grid, values)

    def __add__(self, shift):          # a number or an array of values, not another field
        return SphereField(self.grid, self.values + shift)

    def __sub__(self, shift):
        return SphereField(self.grid, self.values - shift)

    def __rmul__(self, scalar):
        return SphereField(self.grid, scalar * self.values)


@dataclass
class HarmonicSpectrum:
    """Real spherical-harmonic coefficients, dense (l, m) storage.

    coeffs[..., l, lmax + m] is the coefficient of the dw-orthonormal basis
    function of degree l and order m (cosine branch m > 0, sine branch m < 0);
    the leading axes, if any, are lanes.
    """

    lmax: int
    coeffs: np.ndarray


def zero_spectrum(lmax: int) -> HarmonicSpectrum:
    return HarmonicSpectrum(lmax, np.zeros((lmax + 1, 2 * lmax + 1)))


def field_of(grid: SphereGrid, fn) -> SphereField:
    """Sample fn(x1, x2, x3) on the grid nodes."""
    x1, x2, x3 = grid.points()
    return SphereField(grid, np.broadcast_to(np.asarray(fn(x1, x2, x3), dtype=float), grid.shape).copy())


def integrate(f: SphereField) -> float:
    """Integral of f against the probability measure dw (per lane)."""
    if not np.all(np.isfinite(f.values)):
        raise InvalidFieldError("integrate: field has non-finite values")
    return integrate_values(f.grid, f.values)


def integrate_values(grid: SphereGrid, values: np.ndarray):
    return np.add.reduce(grid.w_mu @ values, axis=-1) / (2.0 * grid.n_phi)


def analyze(f: SphereField) -> HarmonicSpectrum:
    """Forward transform onto the dw-orthonormal real basis.

    c_{l,m} = 1/2 sum_i w_i p_{l,m}(mu_i) A_m(i), with A_m the azimuthal
    cosine (m >= 0) and sine (m < 0) averages: one matrix product with the
    grid's azimuth table (or one rfft above TABLE_LMAX) gives every A_m,
    then one matmul batched over m sums over the latitudes.
    """
    grid = f.grid
    L = grid.lmax
    sums = _azimuth_sums(grid, f.values)                                 # (m branch, mu)
    sums *= grid.w_mu / (2.0 * grid.n_phi)
    sums = sums.reshape(sums.shape[:-2] + (L + 1, 2, grid.n_mu))
    out = np.matmul(sums, grid.basis_mu.swapaxes(-1, -2))               # (m, branch, l)
    coeffs = np.empty(out.shape[:-3] + (L + 1, 2 * L + 1))
    coeffs[..., L:] = out[..., 0, :].swapaxes(-1, -2)
    coeffs[..., :L] = out[..., :0:-1, 1, :].swapaxes(-1, -2)
    return HarmonicSpectrum(L, coeffs)


def synthesize(spec: HarmonicSpectrum, grid: SphereGrid) -> SphereField:
    """Inverse transform of a spectrum onto a grid (of equal or higher degree).

    One matmul batched over m gives the cosine and sine latitude sums, then
    one matrix product with the grid's azimuth table (or one irfft above
    TABLE_LMAX) sums over the orders.
    """
    L = spec.lmax
    if L > grid.lmax:
        raise GridConfigError(f"spectrum degree {L} exceeds grid band limit {grid.lmax}")
    lead = spec.coeffs.shape[:-2]
    coeffs = spec.coeffs.swapaxes(-1, -2)                        # (m, l)
    lhs = np.zeros(lead + (L + 1, 2, L + 1))                     # (m, branch, l)
    lhs[..., 0, :] = coeffs[..., L:, :]
    lhs[..., 1:, 1, :] = coeffs[..., :L, :][..., ::-1, :]
    sums = np.matmul(lhs, grid.basis_mu[: L + 1, : L + 1])       # (m, branch, mu)
    sums = sums.reshape(lead + (2 * L + 2, grid.n_mu)).swapaxes(-1, -2)
    return SphereField(grid, _azimuth_values(grid, sums))


def _azimuth_sums(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Rows sum_k f(mu, phi_k) cos(m phi_k) and sin(m phi_k), m = 0 .. lmax in
    turn, shape (..., 2 (lmax + 1), n_mu): the azimuth table's product, or a
    real FFT on a grid above TABLE_LMAX."""
    if grid.azimuth is not None:
        return np.matmul(grid.azimuth, values.swapaxes(-1, -2))
    fhat = np.fft.rfft(values, axis=-1)[..., : grid.lmax + 1]          # (mu, m)
    sums = np.stack([fhat.real, -fhat.imag], axis=-1)                   # (mu, m, branch)
    return sums.reshape(fhat.shape[:-1] + (-1,)).swapaxes(-1, -2)


def _azimuth_values(grid: SphereGrid, sums: np.ndarray) -> np.ndarray:
    """Values at the nodes phi_k of cos and sin rows laid out as _azimuth_sums
    returns them, last axis 2 (degree + 1): the azimuth table's product, or
    an inverse real FFT on a grid above TABLE_LMAX."""
    if grid.azimuth is not None:
        return np.matmul(sums, grid.azimuth[: sums.shape[-1]])
    pairs = sums.reshape(sums.shape[:-1] + (-1, 2)) * (0.5 * grid.n_phi)
    pairs[..., 0, 0] *= 2.0
    fhat = np.zeros(sums.shape[:-1] + (grid.n_phi // 2 + 1,), dtype=complex)
    fhat.real[..., : pairs.shape[-2]] = pairs[..., 0]
    fhat.imag[..., : pairs.shape[-2]] = -pairs[..., 1]
    return np.fft.irfft(fhat, n=grid.n_phi, axis=-1)


def _order_sums(spec: HarmonicSpectrum, mu: np.ndarray):
    """Latitude sums of a spectrum at the latitudes mu, one order m at a time.

    Yields (cm, sm) for m = 0 .. lmax: the cosine and sine branches of order
    m summed over the degrees l = m .. lmax, each of shape mu.shape, from one
    matrix product with the recurrence's block; the azimuthal factors
    cos(m phi) and sin(m phi) turn them into values.
    """
    L = spec.lmax
    for m, block in _latitude_blocks(L, mu):
        yield spec.coeffs[m:, [L + m, L - m]].T @ block


def evaluate_tensor(spec: HarmonicSpectrum, mu: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Evaluate a spectrum on the tensor grid mu x phi, shape (len(mu), len(phi)).

    The latitude sums are formed once per latitude, not once per point; two
    matrix products with cos(m phi) and sin(m phi) sum over the orders.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    sums = np.array(list(_order_sums(spec, mu)))       # (m, branch, mu)
    angles = np.outer(np.arange(spec.lmax + 1), phi)
    return sums[:, 0].T @ np.cos(angles) + sums[:, 1].T @ np.sin(angles)


def evaluate_xyz(spec: HarmonicSpectrum, points: np.ndarray) -> np.ndarray:
    """Evaluate a spectrum at unit vectors given as an (..., 3) array.

    The latitude sums are streamed one order m at a time, and the azimuthal
    factors cos(m phi) + i sin(m phi), advanced by one complex rotation per
    order, are added before the next order overwrites the rows.  Memory
    stays at one (lmax + 1, points) buffer.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[-1:] != (3,):
        raise InvalidFieldError(f"evaluate_xyz: points shape {points.shape} is not (..., 3)")
    mu = np.clip(points[..., 2], -1.0, 1.0).ravel()
    phi = np.arctan2(points[..., 1], points[..., 0]).ravel()
    turn = np.cos(phi) + 1j * np.sin(phi)
    azimuth = np.ones(phi.size, dtype=complex)
    out = np.zeros(phi.size)
    for cm, sm in _order_sums(spec, mu):
        out += cm * azimuth.real + sm * azimuth.imag
        azimuth *= turn
    return out.reshape(points.shape[:-1])


@functools.lru_cache(maxsize=None)
def laplace_weights(lmax: int) -> np.ndarray:
    """l(l+1) for l = 0 .. lmax, read-only and shared."""
    l = np.arange(lmax + 1, dtype=float)
    out = l * (l + 1.0)
    out.flags.writeable = False
    return out


def dirichlet_energy(f: SphereField):
    """Integral of |grad f|^2 dw, computed spectrally as sum l(l+1) c^2 (per lane)."""
    spec = analyze(f)
    return np.add.reduce(laplace_weights(spec.lmax) * np.add.reduce(spec.coeffs**2, axis=-1), axis=-1)


def laplacian(f: SphereField) -> SphereField:
    """Laplace-Beltrami operator: multiplication by -l(l+1) per degree."""
    spec = analyze(f)
    spec.coeffs *= -laplace_weights(spec.lmax)[:, None]
    return synthesize(spec, f.grid)


def l2_norm(f: SphereField):
    return np.sqrt(np.maximum(integrate(f.with_values(f.values**2)), 0.0))


def h1_norm(f: SphereField):
    return np.sqrt(np.maximum(integrate(f.with_values(f.values**2)) + dirichlet_energy(f), 0.0))


def log_exp_mass(f: SphereField):
    """log of integral of exp(f) dw, with max-shift stabilisation."""
    m = np.maximum.reduce(f.values, axis=(-2, -1), keepdims=True)
    return m[..., 0, 0] + np.log(integrate_values(f.grid, np.exp(f.values - m)))
