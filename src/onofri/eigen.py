"""First eigenvalue of  lap + e^g  with zero boundary data, and the mass audit.

Sign convention: the solver returns the smallest lambda with
-(lap(phi) + e^g phi) = lambda phi, so lambda_1 <= 0 means the operator
lap + e^g has a nonnegative direction, the hypothesis of the audited
implication "first eigenvalue <= 0 forces mass over 4 pi".

Disks use a conservative cell-centered polar scheme (the radial faces carry
the metric factor, the axis face has zero weight), which keeps the boundary
exactly on the grid and the eigenvalue error a clean O(h^2) for Richardson
extrapolation.  Rectangles use the plain five-point Cartesian stencil, whose
boundary is also exact.

When e^g is constant on every ring of the disk nodes (a radial field, such as
the Liouville bubble and its +eps|y|^2 perturbation), the disk scheme's ground
state is the bottom of its m = 0 block, an n_r x n_r symmetric tridiagonal
problem (see _radial_ground_state).  A small pure-Python solver handles it
(_tridiagonal_ground_state): Sturm-count bisection brackets the bottom
eigenvalue away from the rest of the spectrum, and inverse iteration with a
Thomas solve, its shift raised by Temple's bound, converges on it from below.
Rectangles and non-radial fields go through shifted inverse iteration on the
full 2-D assembly, the only path that loads scipy (scipy.sparse, on first
use).  Either way the eigenpair must meet a residual bound
||(A - lambda M) v||_{M^-1} <= RESIDUAL_TOL (1 + |lambda|), or
NonConvergenceError carries the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import planar, quadrature, rootsearch
from .errors import GridConfigError, NonConvergenceError


@dataclass(frozen=True)
class Disk:
    radius: float

    def describe(self) -> str:
        return f"disk(R={self.radius})"


@dataclass(frozen=True)
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    def describe(self) -> str:
        return f"rect([{self.x0},{self.x1}]x[{self.y0},{self.y1}])"


def _stiffness(faces, diag):
    """Symmetric CSC matrix: -w at (a, b) and (b, a) for every face (a, b, w), diag on
    the diagonal.  No (a, b) pair repeats, so the entry order does not matter."""
    import scipy.sparse as sp

    n = diag.size
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [diag]
    for a, b, w in faces:
        rows += [a, b]
        cols += [b, a]
        vals += [-w, -w]
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def _polar_grid(R: float, n_r: int, n_theta: int):
    """Lumped mass of one cell on each ring, radial face weights between rings i
    and i+1, each ring's sum of radial face weights (inner, outer and the
    Dirichlet face, in that order), the angular face weight on each ring, and
    the node coordinates (ring-major)."""
    dr = R / n_r
    dth = 2.0 * math.pi / n_theta
    r = (np.arange(n_r) + 0.5) * dr
    # radial fluxes between rings i and i+1 across the face at (i+1) dr
    w_rad = np.arange(1, n_r) * dr * dth / dr
    # angular fluxes between neighbours j and j+1 (periodic) within each ring
    w_ang = dr / (r * dth)
    ring_diag = np.zeros(n_r)
    ring_diag[1:] += w_rad
    ring_diag[:-1] += w_rad
    # the Dirichlet face at r = R (ghost mirror, face value zero)
    ring_diag[-1] += 2.0 * (n_r * dr * dth / dr)
    theta = (np.arange(n_theta) + 0.5) * dth
    pts = planar.polar_points(r, theta).reshape(-1, 2)
    return r * dr * dth, w_rad, ring_diag, w_ang, pts


def _assemble_disk(R: float, n_r: int, n_theta: int):
    """Weighted stiffness K, lumped mass m, and node coordinates on the disk."""
    m_ring, w_rad, ring_diag, w_ang, pts = _polar_grid(R, n_r, n_theta)
    node = np.arange(n_r * n_theta).reshape(n_r, n_theta)
    # each node's diagonal adds its two angular faces to its ring's radial faces
    K = _stiffness(
        [(node[:-1].ravel(), node[1:].ravel(), np.repeat(w_rad, n_theta)),
         (node.ravel(), np.roll(node, -1, axis=1).ravel(), np.repeat(w_ang, n_theta))],
        np.repeat(ring_diag + w_ang + w_ang, n_theta))
    return K, np.repeat(m_ring, n_theta), pts


def _assemble_rect(rect: Rect, h: float):
    nx = int(round((rect.x1 - rect.x0) / h))
    ny = int(round((rect.y1 - rect.y0) / h))
    if min(nx, ny) < 3:
        raise GridConfigError(f"h = {h} leaves {rect.describe()} {nx} x {ny} cells, below 3")
    hx = (rect.x1 - rect.x0) / nx
    hy = (rect.y1 - rect.y0) / ny
    xs = rect.x0 + hx * np.arange(1, nx)
    ys = rect.y0 + hy * np.arange(1, ny)
    n = (nx - 1) * (ny - 1)
    area = hx * hy
    node = np.arange(n).reshape(nx - 1, ny - 1)
    wx, wy = area / hx**2, area / hy**2
    K = _stiffness(
        [(node[:-1].ravel(), node[1:].ravel(), np.full((nx - 2) * (ny - 1), wx)),
         (node[:, :-1].ravel(), node[:, 1:].ravel(), np.full((nx - 1) * (ny - 2), wy))],
        np.full(n, 2.0 * (wx + wy)))
    return K, np.full(n, area), planar.grid_points(xs, ys).reshape(-1, 2)


# eigenpairs must reach ||(A - lambda M) v||_{M^-1} <= RESIDUAL_TOL (1 + |lambda|);
# its rounding floor measured below 1e-9 on disks up to R = 3 at h = 0.01 and on
# rectangles at h = 0.005
RESIDUAL_TOL = 1e-8
MAX_SWEEPS = 500        # inverse-iteration sweeps before a solver gives up
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


def _residual_norm(r, m) -> float:
    """||r||_{M^-1} for a lumped (diagonal) mass m."""
    return math.sqrt(float(r @ (r / m)))


def _smallest_eigenpair(K, m, pot):
    """Smallest lambda of (K - M diag(pot)) v = lambda M v by shifted inverse iteration.

    The shift sits below the whole spectrum (K is PSD), so the iteration
    converges to the bottom eigenpair.  It stops once the residual
    ||(A - lambda M) v||_{M^-1} is at most RESIDUAL_TOL (1 + |lambda|); the Rayleigh
    quotient is then within residual^2 / gap of the eigenvalue.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    M = sp.diags(m)
    A = (K - sp.diags(m * pot)).tocsc()
    sigma = -float(np.max(pot)) - 1.0
    solver = spla.splu((A - sigma * M).tocsc())
    rng = np.random.default_rng(12345)
    v = rng.normal(size=m.size)
    v /= math.sqrt(float(v @ (m * v)))
    for _ in range(MAX_SWEEPS):
        v = solver.solve(m * v)
        v /= math.sqrt(float(v @ (m * v)))
        Av = A @ v
        lam = float(v @ Av)
        res = _residual_norm(Av - lam * (m * v), m)
        if res <= RESIDUAL_TOL * (1.0 + abs(lam)):
            return lam, v
    raise NonConvergenceError("inverse iteration did not converge", best=(lam, v), residual=res)


def _count_below(d, e2, x: float, pivmin: float) -> int:
    """Eigenvalues at or below x of the symmetric tridiagonal with diagonal d and
    squared off-diagonal e2 (led by a zero): the nonpositive pivots of the
    LDL^T factorisation of T - x (Sturm).  A pivot smaller than pivmin counts
    as -pivmin, so no division is by zero."""
    count, q = 0, 1.0
    for di, ei2 in zip(d, e2):
        q = di - x - ei2 / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count


def _shifted_solve(d, e_prev, e_next, sigma: float, x, pivmin: float) -> list:
    """y with (T - sigma) y = x by Thomas elimination, for the symmetric
    tridiagonal with diagonal d whose off-diagonal is listed led by a zero
    (e_prev) and trailed by one (e_next); a pivot smaller than pivmin is
    lifted to it, as in _count_below."""
    piv, z = [], []
    p, zi = 1.0, 0.0
    for di, ei, xi in zip(d, e_prev, x):
        l = ei / p
        p = di - sigma - l * ei
        if -pivmin < p < pivmin:
            p = -pivmin
        zi = xi - l * zi
        piv.append(p)
        z.append(zi)
    y, yi = [], 0.0
    for pi, zi, ei in zip(reversed(piv), reversed(z), reversed(e_next)):
        yi = (zi - ei * yi) / pi
        y.append(yi)
    y.reverse()
    return y


def _tridiagonal_ground_state(d, e):
    """Bottom eigenpair (lambda, unit y) of the symmetric tridiagonal with
    diagonal d and nonzero off-diagonal e.

    Sturm-count bisection from the Gershgorin interval stops at the first
    bracket [lo, hi] with no eigenvalue at or below lo and exactly one at or
    below hi.  Inverse iteration shifted to lo then converges on that one
    from below; each sweep raises lo to Temple's lower bound
    lambda - res^2 / (hi - lambda) (valid since the second eigenvalue exceeds
    hi), so the shift closes in on it.  The pair is returned once its residual
    ||T y - lambda y|| is at most RESIDUAL_TOL (1 + |lambda|) and below
    hi - lambda: some eigenvalue then lies within the residual of lambda,
    hence below hi, and the bracket leaves only the bottom one there.
    """
    d_list, e_list = d.tolist(), e.tolist()
    e_prev, e_next = [0.0] + e_list, e_list + [0.0]
    e2 = [v * v for v in e_prev]
    radius = np.abs(e_prev) + np.abs(e_next)
    lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
    pivmin = _TINY * max(1.0, max(e2))
    pad = 4.0 * _EPS * max(abs(lo), abs(hi)) + pivmin
    lo, hi = lo - pad, hi + pad
    above = len(d_list)
    while above > 1:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise NonConvergenceError("the bottom eigenvalue is not simple")
        count = _count_below(d_list, e2, mid, pivmin)
        if count == 0:
            lo = mid
        else:
            hi, above = mid, count
    x = [1.0] * len(d_list)
    for _ in range(MAX_SWEEPS):
        y = np.array(_shifted_solve(d_list, e_prev, e_next, lo, x, pivmin))
        y /= math.sqrt(float(y @ y))
        ty = d * y
        ty[:-1] += e * y[1:]
        ty[1:] += e * y[:-1]
        lam = float(y @ ty)
        r = ty - lam * y
        res = math.sqrt(float(r @ r))
        if res <= RESIDUAL_TOL * (1.0 + abs(lam)) and lam + res < hi:
            return lam, y
        if lam < hi:
            lo = max(lo, lam - res * res / (hi - lam))
        x = y.tolist()
    raise NonConvergenceError("tridiagonal inverse iteration did not converge",
                              best=(lam, y), residual=res)


def _radial_ground_state(m_ring, w_rad, ring_diag, n_theta: int, pot_ring):
    """Bottom eigenpair of the disk scheme for a potential constant on each ring.

    The reduction is exact.  After the shift, K - M diag(e^g) is an
    irreducible M-matrix, so its ground state is simple and positive; the
    scheme commutes with rotation by dtheta, so that ground state is constant
    in theta.  On theta-constant vectors the angular faces cancel, leaving the
    m = 0 block: diagonal n_theta (inner + outer + Dirichlet face),
    off-diagonal -n_theta w_rad, lumped mass n_theta r dr dtheta.  Returns
    lambda and the M-normalised eigenvector on the rings.
    """
    mass = n_theta * m_ring
    diag = n_theta * ring_diag
    off = -n_theta * w_rad
    # M^{-1/2} (K - M diag(pot)) M^{-1/2} is symmetric tridiagonal with the same spectrum
    root = np.sqrt(mass)
    lam, y = _tridiagonal_ground_state(diag / mass - pot_ring, off / (root[:-1] * root[1:]))
    u = y / root
    u *= math.copysign(1.0, float(np.sum(u)))
    r = (diag - mass * (pot_ring + lam)) * u
    r[:-1] += off * u[1:]
    r[1:] += off * u[:-1]
    res = _residual_norm(r, mass)
    if res > RESIDUAL_TOL * (1.0 + abs(lam)):
        raise NonConvergenceError("radial eigensolve missed its residual", best=(lam, u),
                                  residual=res)
    return lam, u


# a potential is radial when it is constant on every ring up to round-off of its
# largest value; replacing each ring by its mean then moves the operator, and so
# lambda (Weyl), by at most RADIAL_RTOL max|e^g|
RADIAL_RTOL = 64.0 * np.finfo(float).eps


def _solve_on(omega, g_fn, h: float):
    if isinstance(omega, Disk):
        n_r = int(round(omega.radius / h))
        if n_r < 8:             # a clamp to 8 would break the 2:1 mesh ratio of Richardson
            raise GridConfigError(f"h = {h} leaves {omega.describe()} {n_r} rings, below 8")
        n_theta = max(48, n_r)
        m_ring, w_rad, ring_diag, _, pts = _polar_grid(omega.radius, n_r, n_theta)
        pot = _potential(g_fn, pts)
        rings = pot.reshape(n_r, n_theta)
        if np.all(np.ptp(rings, axis=1) <= RADIAL_RTOL * np.max(np.abs(rings))):
            lam, u = _radial_ground_state(m_ring, w_rad, ring_diag, n_theta, rings.mean(axis=1))
            return lam, np.repeat(u, n_theta), pts
        K, m, _ = _assemble_disk(omega.radius, n_r, n_theta)
    elif isinstance(omega, Rect):
        K, m, pts = _assemble_rect(omega, h)
        pot = _potential(g_fn, pts)
    else:
        raise TypeError(f"unsupported domain {omega!r}")
    lam, v = _smallest_eigenpair(K, m, pot)
    return lam, v, pts


def _potential(g_fn, pts):
    """e^g at the nodes, zero when g_fn is None."""
    if g_fn is None:
        return np.zeros(len(pts))
    return np.broadcast_to(np.exp(np.asarray(g_fn(pts), dtype=float)), (len(pts),))


def first_eigenvalue(g_fn, omega, h: float) -> float:
    """Smallest eigenvalue of -(lap + e^g) on omega, zero boundary data.

    g_fn is a vectorised callable on (N, 2) points, or None for e^g = 0.
    """
    return _solve_on(omega, g_fn, h)[0]


def first_eigenvalue_extrapolated(g_fn, omega, h: float) -> float:
    """Two-level Richardson in h (the scheme is O(h^2) on both domain types)."""
    lam_h = first_eigenvalue(g_fn, omega, h)
    lam_h2 = first_eigenvalue(g_fn, omega, h / 2.0)
    return (4.0 * lam_h2 - lam_h) / 3.0


# ---------------------------------------------------------------------------
# mass quadrature and the eigenvalue/mass audit
# ---------------------------------------------------------------------------


def domain_mass(g_fn, omega) -> float:
    """int_omega e^g dy by quadrature.disk_rule on a disk, and by 64-point Gauss
    rules in each coordinate on a rectangle."""
    if isinstance(omega, Disk):
        r, wr, theta = quadrature.disk_rule(omega.radius)
        pts = planar.polar_points(r, theta).reshape(-1, 2)
        vals = np.exp(np.asarray(g_fn(pts))).reshape(r.size, theta.size)
        return float(2.0 * math.pi / theta.size * np.dot(wr * r, np.sum(vals, axis=1)))
    if isinstance(omega, Rect):
        xs, wx = quadrature.panels([omega.x0, omega.x1], 64)
        ys, wy = quadrature.panels([omega.y0, omega.y1], 64)
        vals = np.exp(np.asarray(g_fn(planar.grid_points(xs, ys).reshape(-1, 2))))
        return float(wx @ vals.reshape(xs.size, ys.size) @ wy)
    raise TypeError(f"unsupported domain {omega!r}")


FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
MARGIN_SAMPLES = 96     # radii and angles of the margin's sample points
MARGIN_TOL, EIG_TOL = 1e-8, 2e-3    # audit hypotheses: margin > MARGIN_TOL, lambda1 <= -EIG_TOL
RADIUS_TOL = 1e-3       # bracket width where the neutral-radius Brent search stops


@dataclass
class BolAudit:
    domain: str
    lambda1: float
    mass: float
    supersolution_margin: float
    total_mass: float
    verdict: str


def supersolution_margin(g_fn, glap_fn, Omega) -> float:
    """min over the disk Omega of lap(g) + e^g, with glap_fn the exact Laplacian of g."""
    if not isinstance(Omega, Disk):
        raise TypeError(f"unsupported domain {Omega!r}")
    r = np.linspace(0.0, Omega.radius, MARGIN_SAMPLES)
    theta = 2.0 * math.pi * np.arange(MARGIN_SAMPLES) / MARGIN_SAMPLES
    pts = planar.polar_points(r, theta).reshape(-1, 2)
    lap = np.asarray(glap_fn(pts), dtype=float)
    return float(np.min(lap + np.exp(np.asarray(g_fn(pts), dtype=float))))


def bol_audit(g_fn, Omega, omega_family, glap_fn, h: float = 0.02) -> list[BolAudit]:
    """Audit the implication: strict supersolution + total mass <= 8 pi and
    lambda_1(omega) <= 0 force mass(omega) > 4 pi.

    Verdicts: "confirmed" when hypotheses hold and the mass bound does,
    "violated" when hypotheses hold and it does not (a suite failure), and
    "vacuous" when any hypothesis fails (including the equality case of the
    unperturbed axial profile, where the margin is zero).
    """
    margin = supersolution_margin(g_fn, glap_fn, Omega)
    total = domain_mass(g_fn, Omega)
    audits = []
    hypotheses_global = margin > MARGIN_TOL and total <= EIGHT_PI + 1e-9
    for omega in omega_family:
        lam = first_eigenvalue_extrapolated(g_fn, omega, h)
        mass = domain_mass(g_fn, omega)
        if not hypotheses_global or lam > -EIG_TOL:
            verdict = "vacuous"
        elif mass > FOUR_PI:
            verdict = "confirmed"
        else:
            verdict = "violated"
        audits.append(BolAudit(domain=omega.describe(), lambda1=float(lam), mass=float(mass),
                               supersolution_margin=float(margin), total_mass=float(total),
                               verdict=verdict))
    return audits


def zero_eigenvalue_radius(g_fn, bracket: tuple[float, float], h: float = 0.02) -> float:
    """Disk radius R* with lambda_1(disk(R*)) = 0, by rootsearch.brent on the
    extrapolated eigenvalue, given a bracket where it falls through zero."""
    f_lo, f_hi = (first_eigenvalue_extrapolated(g_fn, Disk(R), h) for R in bracket)
    if not (f_lo > 0.0 > f_hi):
        raise ValueError(f"bracket does not straddle the zero: {f_lo}, {f_hi}")
    return rootsearch.brent(lambda R: first_eigenvalue_extrapolated(g_fn, Disk(R), h),
                            *bracket, f_lo, f_hi, RADIUS_TOL)
