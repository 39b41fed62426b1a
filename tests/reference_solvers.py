"""Reference minimisers: both descents as they were before their retractions
read one exponential per step, and a counter of the exponentials a descent makes;
and the test-only maps the package itself does not call: the constant sphere
field, the sphere tilt of a whole field, the two-bubble family on a grid, the
stereographic projection (and the PoleError it raises at the pole), the areal
Jacobian of the stereographic lift, the planar Laplacian of a transferred
sphere field, the planar angular derivative, the eigenpair of one resolution, the breadth-first
flood fill the nodal labelling replaced, the latitude recurrence with
its coefficients computed row by row, and the closed-form axisymmetric
Dirichlet energy.

Each accepted step here exponentiates the field separately for the tilt's
first moments, the unit-mass shift, the value and the gradient, and the
axisymmetric one evaluates node values by Clenshaw (legval).  The tests
compare the package minimisers against these step for step.
"""
import math
from collections import deque

import numpy as np

from onofri import axisym as ax, conformal, eigen, functional as fn, planar, quadrature, sphere
from onofri.errors import NonConvergenceError, ToolkitError


class PoleError(ToolkitError, ValueError):
    """Stereographic forward map evaluated at the projection pole."""


def tilt_log_weights(log_weights, points, tol):
    """c with zero mean of `points` under the weights exp(log_weights + points @ c),
    by damped Newton on F(c) = log sum exp(log_weights + points @ c)."""
    def moments(c):
        v = log_weights + points @ c
        m = float(np.max(v))
        p = np.exp(v - m)
        total = float(np.sum(p))
        p /= total
        mean = p @ points
        cov = (points.T * p) @ points - np.outer(mean, mean)
        return m + np.log(total), mean, cov

    c = np.zeros(points.shape[1])
    f, mean, cov = moments(c)
    for _ in range(50):
        if np.linalg.norm(mean) <= tol:
            return c
        step = -np.linalg.solve(cov, mean)
        slope = float(mean @ step)
        t = 1.0
        for _ in range(50):
            ft, mean_t, cov_t = moments(c + t * step)
            if ft <= f + 1e-4 * t * slope + 1e-14 * (1.0 + abs(f)):
                break
            t *= 0.5
        c, f, mean, cov = c + t * step, ft, mean_t, cov_t
    raise NonConvergenceError("tilt: Newton did not reach tolerance",
                              best=c, residual=float(np.linalg.norm(mean)))


def _j_value(spec, u, alpha):
    l = np.arange(spec.lmax + 1, dtype=float)
    energy = float(np.sum(l * (l + 1.0) * np.sum(spec.coeffs**2, axis=1)))
    return float(alpha / 4.0 * energy + spec.coeffs[0, spec.lmax] - sphere.log_exp_mass(u))


def minimize(alpha, u0):
    """The coefficient-space sphere descent; returns (status, J, iterations, backtracks, u)."""
    grid = u0.grid
    L = grid.lmax
    pts = np.stack(grid.points(), axis=-1).reshape(-1, 3)
    log_w = np.log(grid.node_weights)
    l = np.arange(L + 1, dtype=float)
    stiffness = (alpha / 2.0 * l * (l + 1.0))[:, None]
    tilt_slots = [L + 1, L - 1, L]

    def retract(spec, u):
        c = tilt_log_weights(log_w + u.values.ravel(), pts, fn.COM_TOL)
        if c.any():
            u = sphere.SphereField(grid, u.values + (pts @ c).reshape(grid.shape))
            spec.coeffs[1, tilt_slots] += c / np.sqrt(3.0)
        shift = sphere.log_exp_mass(u)
        spec.coeffs[0, L] -= shift
        return spec, u - shift

    def gradient(spec, u):
        e = np.exp(u.values - float(np.max(u.values)))
        e /= sphere.integrate_values(grid, e)
        gspec = sphere.analyze(sphere.SphereField(grid, e))
        gspec.coeffs = stiffness * spec.coeffs - gspec.coeffs
        gspec.coeffs[0, L] += 1.0
        return gspec

    spec = sphere.analyze(u0)
    spec, u = retract(spec, sphere.synthesize(spec, grid))
    status, it, backtracks = "max-iter", 0, 0
    j = _j_value(spec, u, alpha)
    gspec = gradient(spec, u)
    gnorm = float(np.linalg.norm(gspec.coeffs))
    for it in range(1, fn.MAX_ITER + 1):
        if gnorm <= fn.STAT_TOL:
            status = "converged"
            break
        if j < fn.BLOWUP_FLOOR:
            status = "unbounded-descent"
            break
        direction = -gspec.coeffs / fn.zero_hessian(alpha, L)[:, None]
        slope = float(np.sum(gspec.coeffs * direction))
        noise = 1e-14 * (1.0 + abs(j))
        step = 1.0
        for _ in range(40):
            cand_spec = sphere.HarmonicSpectrum(L, spec.coeffs + step * direction)
            cand = sphere.synthesize(cand_spec, grid)
            if _j_value(cand_spec, cand, alpha) <= j + 1e-4 * step * slope + noise:
                break
            step *= 0.5
            backtracks += 1
        else:
            status = "stalled"
            break
        spec, u = retract(cand_spec, cand)
        j = _j_value(spec, u, alpha)
        gspec = gradient(spec, u)
        gnorm = float(np.linalg.norm(gspec.coeffs))
    return status, j, it, backtracks, u


def _node_values(g):
    return np.polynomial.legendre.legval(g.nodes, g.coeffs)


def _log_half_mass(g):
    tg = 2.0 * _node_values(g)
    m = float(np.max(tg))
    return m + math.log(0.5 * float(np.dot(g.weights, np.exp(tg - m))))


def weighted_energy(g):
    """int (1-x^2) g'^2 dx, closed form sum 2 k(k+1)/(2k+1) c_k^2 (per lane)."""
    return np.add.reduce(ax._energy_weights(g.degree) * g.coeffs**2, axis=-1)


def _i_functional(g, alpha):
    mean2 = 2.0 * float(np.dot(g.weights, _node_values(g)))
    return float(alpha * weighted_energy(g) + mean2 - 2.0 * _log_half_mass(g))


def _recenter_gauge(g, tol):
    log_w = np.log(g.weights) + 2.0 * _node_values(g)
    c = tilt_log_weights(log_w, g.nodes[:, None], tol)[0]
    out = g.copy()
    out.coeffs[1] += 0.5 * c
    out.coeffs[0] -= 0.5 * _log_half_mass(out)
    return out


def _gradient(g, alpha):
    k = np.arange(g.coeffs.size, dtype=float)
    grad = 4.0 * alpha * k * (k + 1.0) / (2.0 * k + 1.0) * g.coeffs
    grad[0] += 4.0
    tg = 2.0 * _node_values(g)
    e = np.exp(tg - float(np.max(tg)))
    e /= float(np.dot(g.weights, e))
    pk = np.polynomial.legendre.legvander(g.nodes, g.degree)
    grad -= 4.0 * (pk.T @ (g.weights * e))
    return grad


def minimize_axisym(alpha, g0):
    """The axisymmetric descent; returns (status, I, iterations, backtracks, g)."""
    g = _recenter_gauge(g0, fn.COM_TOL)
    val = _i_functional(g, alpha)
    k = np.arange(g.degree + 1, dtype=float)
    precond = np.maximum((4.0 * alpha * k * (k + 1.0) - 8.0) / (2.0 * k + 1.0), 0.5)
    status, it, backtracks = "max-iter", 0, 0
    grad = _gradient(g, alpha)
    gnorm = ax._grad_l2(grad)
    for it in range(1, fn.MAX_ITER + 1):
        if gnorm <= fn.STAT_TOL:
            status = "converged"
            break
        if val < fn.BLOWUP_FLOOR:
            status = "unbounded-descent"
            break
        direction = -grad / precond
        slope = float(np.dot(grad, direction))
        noise = 1e-14 * (1.0 + abs(val))
        step = 1.0
        for _ in range(40):
            cand = ax.LegendreFunction(g.coeffs + step * direction)
            if _i_functional(cand, alpha) <= val + 1e-4 * step * slope + noise:
                break
            step *= 0.5
            backtracks += 1
        else:
            status = "stalled"
            break
        g = _recenter_gauge(cand, fn.COM_TOL)
        val = _i_functional(g, alpha)
        grad = _gradient(g, alpha)
        gnorm = ax._grad_l2(grad)
    return status, val, it, backtracks, g


def count_exponentials(monkeypatch, size):
    """Wrap np.exp, functional.exp_moments and functional.tilt.

    Counts exponentials of `size` entries outside and inside tilts, the
    moment evaluations inside tilts and the Newton steps the tilts report;
    every tilt that returns c = 0 must have made no exponential.
    """
    counts = {"outside": 0, "in_tilt": 0, "tilt_moments": 0, "tilts": 0, "trivial": 0,
              "newton_steps": 0}
    inside = []
    exp, moments, tilt = np.exp, fn.exp_moments, fn.tilt

    def counted_exp(x, *args, **kwargs):
        if np.size(x) == size:
            counts["in_tilt" if inside else "outside"] += 1
        return exp(x, *args, **kwargs)

    def counted_moments(*args):
        counts["tilt_moments"] += bool(inside)
        return moments(*args)

    def counted_tilt(*args, **kwargs):
        before = counts["in_tilt"]
        inside.append(True)
        try:
            c, mom, steps = tilt(*args, **kwargs)
        finally:
            inside.pop()
        counts["tilts"] += 1
        counts["newton_steps"] += steps
        if not c.any():
            counts["trivial"] += 1
            assert counts["in_tilt"] == before
        return c, mom, steps

    monkeypatch.setattr(np, "exp", counted_exp)
    monkeypatch.setattr(fn, "exp_moments", counted_moments)
    monkeypatch.setattr(fn, "tilt", counted_tilt)
    return counts


def constant_field(grid, c=0.0):
    return sphere.SphereField(grid, np.full(grid.shape, float(c)))


def tilt_lane(values, weights, points):
    """fn.tilt of one field: c, the moments and the Newton steps of its one-lane stack."""
    c, mom, steps = fn.tilt(values[None], weights, points, quadrature.second_moments(weights, points),
                            fn.exp_moments(values[None], weights, points))
    return c[0], fn.ExpMoments(*(a[0] for a in mom)), steps[0]


def recenter(u):
    """The degree-1 tilt u + c.x whose measure e^{u + c.x} dw has zero center of mass.

    The constraint is the first-order condition of the convex problem
    min_c log int e^{u + c.x} dw, so the tilt never raises the exp-mass.  It
    changes only the degree-1 harmonics and keeps a band-limited u
    band-limited.  u itself is returned when its center of mass is already
    within fn.COM_TOL.
    """
    pts = u.grid.node_points
    c, _, _ = tilt_lane(u.values.ravel(), u.grid.node_weights, pts)
    if not c.any():
        return u
    return sphere.SphereField(u.grid, u.values + (pts @ c).reshape(u.grid.shape))


def two_bubble_field(grid, s):
    """Grid samples of the balanced two-bubble family (resolvable for small s)."""
    x3 = grid.points()[2]
    t = np.arctanh(np.clip(x3, -1 + 1e-15, 1 - 1e-15))
    wa = conformal.bubble_log_factor(t, s)
    wb = conformal.bubble_log_factor(t, -s)
    return sphere.SphereField(grid, np.logaddexp(wa, wb) - np.log(2.0))


def stereo_map(x):
    """Project unit vectors (..., 3) to the plane, y = (x1, x2)/(1 - x3)."""
    x = np.asarray(x, dtype=float)
    denom = 1.0 - x[..., 2]
    if np.any(denom <= 1e-15):
        raise PoleError("stereographic map is singular at the north pole")
    return np.stack([x[..., 0] / denom, x[..., 1] / denom], axis=-1)


def stereo_jacobian(y):
    """Areal Jacobian of the lift, (2/(1+|y|^2))^2; integrates to 4 pi."""
    return (2.0 / (1.0 + planar.radius2(np.asarray(y, dtype=float)))) ** 2


def transferred_laplacian(u, rho):
    """The exact Laplacian of planar.to_planar(u, rho), by the conformal identity
    lap(v)(y) = J(y) (lap_sphere(u) - 2 rho)(lift y)."""
    lap_spec = sphere.analyze(u)
    l = np.arange(lap_spec.lmax + 1, dtype=float)
    lap_spec.coeffs *= -(l * (l + 1.0))[:, None]

    def lap(y):
        y = np.asarray(y, dtype=float)
        return stereo_jacobian(y) * (sphere.evaluate_xyz(lap_spec, planar.stereo_lift(y)) - 2.0 * rho)

    return lap


def angular_derivative(v, h=1e-4):
    """phi = y2 d1(v) - y1 d2(v), by a central difference of step h.

    The difference is taken along the rotation orbit (phi is minus the
    rotation generator applied to v), which makes phi vanish identically on
    radial fields instead of leaving an O(h^2) residue.  At a solution of the
    planar equation phi solves the linearised equation, which is what the
    nodal-domain audits exploit.
    """
    c, s = math.cos(h), math.sin(h)

    def ev(y):
        y = np.asarray(y, dtype=float)
        y_plus = np.stack([c * y[..., 0] - s * y[..., 1],
                           s * y[..., 0] + c * y[..., 1]], axis=-1)
        y_minus = np.stack([c * y[..., 0] + s * y[..., 1],
                            -s * y[..., 0] + c * y[..., 1]], axis=-1)
        return (v(y_minus) - v(y_plus)) / (2.0 * h)

    return planar.PlanarField(ev, l=v.l)


def fd_laplacian(f, y, h):
    """Five-point Laplacian of f at the (..., 2) points y, step h."""
    y = np.asarray(y, dtype=float)
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    return (f(y + e1) + f(y - e1) + f(y + e2) + f(y - e2) - 4.0 * f(y)) / h**2


def first_eigenpair(g_fn, omega, h):
    """(lambda, eigenvector, node coordinates) at a single resolution."""
    return eigen._solve_on(omega, g_fn, h)


def _flood_fill_reference(signs):
    """4-connected components of the nonzero sign classes by breadth-first
    search from row-major seeds: (labels, m), labels 1 .. m, 0 unclassified."""
    ni, nj = signs.shape
    labels = np.zeros((ni, nj), dtype=int)
    current = 0
    for i0 in range(ni):
        for j0 in range(nj):
            if signs[i0, j0] == 0 or labels[i0, j0] != 0:
                continue
            current += 1
            want = signs[i0, j0]
            queue = deque([(i0, j0)])
            labels[i0, j0] = current
            while queue:
                i, j = queue.popleft()
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    a, b = i + di, j + dj
                    if 0 <= a < ni and 0 <= b < nj and labels[a, b] == 0 and signs[a, b] == want:
                        labels[a, b] = current
                        queue.append((a, b))
    return labels, current


def latitude_blocks(lmax: int, mu: np.ndarray):
    """Latitude factors of the dw-orthonormal real basis, one order m at a time.

    Basis: e_{l,0} = q_{l,0}(mu);  e_{l,m} = q_{l,m}(mu) cos(m phi) and
    e_{l,-m} = q_{l,m}(mu) sin(m phi) for m >= 1, where q_{l,0} = sqrt(2) p_{l,0},
    q_{l,m} = 2 p_{l,m} and p_{l,m} are the associated Legendre functions
    orthonormal on L2(d mu), from the standard stable three-term recurrence (no
    Condon-Shortley phase).  Yields (m, block), block of shape
    (lmax + 1 - m, len(mu)) holding rows l = m .. lmax; every block is a view
    of one (lmax + 1, len(mu)) buffer that the next order overwrites.

    sphere._latitude_blocks as it was before it tabulated a(l, m) and b(l, m):
    two scalar square roots per degree row.
    """
    mu = np.asarray(mu, dtype=float)
    sin_t = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
    buf = np.empty((lmax + 1, mu.size))
    tmp = np.empty(mu.size)
    pmm = np.full_like(mu, 1.0 / np.sqrt(2.0))
    for m in range(lmax + 1):
        block = buf[: lmax + 1 - m]
        block[0] = pmm
        if m + 1 <= lmax:
            np.multiply(np.sqrt(2.0 * m + 3.0) * mu, pmm, out=block[1])
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            # a * (mu * p_{l-1} - b * p_{l-2}) in place, rounding as written
            row = block[l - m]
            np.multiply(b, block[l - m - 2], out=tmp)
            np.multiply(mu, block[l - m - 1], out=row)
            row -= tmp
            row *= a
        block *= np.sqrt(2.0) if m == 0 else 2.0
        yield m, block
        if m < lmax:
            pmm = sin_t * np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * pmm
