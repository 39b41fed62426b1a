"""Stereographic transfer between the sphere and the plane.

For a solution of  lap(u) + 2 rho (e^u - 1) = 0  with unit exp-mass, the field

    v(y) = u(lift(y)) - 2 rho log(1+|y|^2) + log(8 rho)

satisfies  lap(v) + (1+|y|^2)^l e^v = 0  with l = 2(rho-1); the additive
constant log(8 rho) is pinned by substituting the axial profile
v*(y) = -2 rho log(1+|y|^2) + log(8 rho) into the planar equation
(lap of -2 rho log(1+r^2) is exactly -8 rho (1+r^2)^{-2}), and makes the
normalised mass of v* equal 4 rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature, sphere
from .errors import DivergentMassError, GaugeError, InvalidFieldError

GAUGE_TOL = 1e-8        # largest |int e^u dw - 1| that to_planar accepts
R_CUT = 100.0           # beta_l integrates to 2 R_CUT, fitting the tail on [R_CUT, 2 R_CUT]
ROWS_RADIUS, ROWS_N = 5.0, 41   # field_to_rows: [-ROWS_RADIUS, ROWS_RADIUS]^2, ROWS_N per axis
ZERO_RTOL = 1e-8        # values within ZERO_RTOL max|f| of zero are in no sign domain
DENSITY_ROWS = 32       # grid rows per call of nodal_domains' mass density


# ---------------------------------------------------------------------------
# planar points: (..., 2) arrays of (y1, y2)
# ---------------------------------------------------------------------------


def radius2(y: np.ndarray) -> np.ndarray:
    """|y|^2 of (..., 2) points, rounded as np.sum(y * y, axis=-1) rounds it."""
    return y[..., 0] * y[..., 0] + y[..., 1] * y[..., 1]


def polar_points(radii: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The points (r cos t, r sin t), shape (len(radii), len(theta), 2)."""
    return np.stack([radii[:, None] * np.cos(theta), radii[:, None] * np.sin(theta)], axis=-1)


def grid_points(xs, ys) -> np.ndarray:
    """The points (x, y), shape (len(xs), len(ys), 2), indexed [i, j] ~ (xs[i], ys[j])."""
    return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)


# ---------------------------------------------------------------------------
# stereographic projection from the north pole
# ---------------------------------------------------------------------------


def stereo_lift(y: np.ndarray) -> np.ndarray:
    """Lift (..., 2) points to unit vectors (..., 3), the inverse of
    y = (x1, x2)/(1 - x3), the projection from the north pole."""
    y = np.asarray(y, dtype=float)
    r2 = radius2(y)
    denom = 1.0 + r2
    return np.stack([2.0 * y[..., 0] / denom,
                     2.0 * y[..., 1] / denom,
                     (r2 - 1.0) / denom], axis=-1)


# ---------------------------------------------------------------------------
# planar fields
# ---------------------------------------------------------------------------


@dataclass
class PlanarField:
    """Scalar field on the plane given by a vectorised evaluator y -> value.

    lap_evaluator, when present, is the closed-form Laplacian of an analytic
    field; planar_residual needs it.
    ring_evaluator, when present, gives the values on the polar grid
    radii x theta directly (see `rings`).
    """

    evaluator: callable
    l: float
    lap_evaluator: callable | None = None
    ring_evaluator: callable | None = None

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(y, dtype=float))

    def rings(self, radii: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Values at (r cos t, r sin t), shape (len(radii), len(theta))."""
        radii = np.asarray(radii, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if self.ring_evaluator is not None:
            return self.ring_evaluator(radii, theta)
        return self(polar_points(radii, theta))


def v_star(y: np.ndarray, rho: float) -> np.ndarray:
    """The explicit axial solution, -2 rho log(1+|y|^2) + log(8 rho)."""
    return -2.0 * rho * np.log1p(radius2(np.asarray(y, dtype=float))) + math.log(8.0 * rho)


def nodal_mass_density(rho: float):
    """The mass density (1+|y|^2)^{2(rho-1)} e^{v*(y; rho)} of the axial profile,
    the weight of the nodal-domain masses."""
    def density(y):
        y = np.asarray(y, dtype=float)
        return (1.0 + radius2(y)) ** (2.0 * (rho - 1.0)) * np.exp(v_star(y, rho))

    return density


def v_star_field(rho: float) -> PlanarField:
    def lap(y):
        return -8.0 * rho / (1.0 + radius2(np.asarray(y, dtype=float))) ** 2

    return PlanarField(lambda y: v_star(y, rho), l=2.0 * (rho - 1.0), lap_evaluator=lap)


def liouville_bubble_field(a: float = 1.0, center=(0.0, 0.0)) -> PlanarField:
    """l = 0 solution  v = log(8 a^2 / (1 + a^2 |y - y0|^2)^2), mass 8 pi."""
    y0 = np.asarray(center, dtype=float)

    def ev(y):
        return np.log(8.0 * a * a) - 2.0 * np.log1p(a * a * radius2(np.asarray(y, dtype=float) - y0))

    def lap(y):
        return -8.0 * a * a / (1.0 + a * a * radius2(np.asarray(y, dtype=float) - y0)) ** 2

    return PlanarField(ev, l=0.0, lap_evaluator=lap)


def audit_fields() -> dict[str, PlanarField]:
    """The fields of the eigenvalue/mass audit, shared by the battery and the CLI:
    the unit Liouville bubble (the equality case) and the bubble + 0.05 |y|^2,
    whose Laplacian gains 0.2, making it a strict supersolution."""
    eps = 0.05
    bubble = liouville_bubble_field()

    def ev(y):
        y = np.asarray(y, dtype=float)
        return bubble(y) + eps * radius2(y)

    def lap(y):
        return bubble.lap_evaluator(y) + 4.0 * eps

    return {"liouville": bubble,
            "perturbed": PlanarField(ev, l=0.0, lap_evaluator=lap)}


def to_planar(u: sphere.SphereField, rho: float) -> PlanarField:
    """Transfer a unit-exp-mass sphere field to the plane.

    The evaluator goes through u's harmonic expansion; the field carries no
    Laplacian.  A ring of radius r lifts to the latitude
    mu = (r^2 - 1)/(r^2 + 1) at longitudes theta, so the ring evaluator reads
    u on the tensor grid of those latitudes.
    """
    mass_defect = abs(math.exp(sphere.log_exp_mass(u)) - 1.0)
    if mass_defect > GAUGE_TOL:
        raise GaugeError(f"to_planar needs int e^u dw = 1; defect {mass_defect:.2e}")
    spec = sphere.analyze(u)
    const = math.log(8.0 * rho)

    def ev(y):
        y = np.asarray(y, dtype=float)
        return sphere.evaluate_xyz(spec, stereo_lift(y)) - 2.0 * rho * np.log1p(radius2(y)) + const

    def ring(radii, theta):
        r2 = radii * radii
        values = sphere.evaluate_tensor(spec, (r2 - 1.0) / (1.0 + r2), theta)
        return values + (const - 2.0 * rho * np.log1p(r2))[:, None]

    return PlanarField(ev, l=2.0 * (rho - 1.0), ring_evaluator=ring)


def planar_residual(v: PlanarField, y: np.ndarray) -> np.ndarray:
    """Residual lap(v) + (1+|y|^2)^l e^v, from v's exact lap_evaluator."""
    y = np.asarray(y, dtype=float)
    return v.lap_evaluator(y) + (1.0 + radius2(y)) ** v.l * np.exp(v(y))


# ---------------------------------------------------------------------------
# normalised mass
# ---------------------------------------------------------------------------


def beta_l(v: PlanarField) -> float:
    """Normalised mass (1/2pi) int (1+|y|^2)^l e^v dy.

    Quadrature to 2 R_CUT plus the analytic tail of the asymptote
    v ~ c - beta log r + d / r^2, fitted on [R_CUT, 2 R_CUT].
    """
    cut = 2.0 * R_CUT
    r, wr, theta = quadrature.disk_rule(cut)
    rf = np.geomspace(cut / 2.0, cut, 17)
    # angular means of e^v on the quadrature rings and the fit rings, one call
    means = np.mean(np.exp(v.rings(np.concatenate([r, rf]), theta)), axis=1)
    inner = float(np.dot(wr, (1.0 + r**2) ** v.l * means[: r.size] * r))

    # fit log(mean_theta e^v) = c - beta log r + d / r^2 on [cut/2, cut]
    m = means[r.size:]
    if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
        raise DivergentMassError("tail fit: non-finite angular means")
    basis = np.stack([np.ones_like(rf), -np.log(rf), rf**-2.0], axis=1)
    coef, *_ = np.linalg.lstsq(basis, np.log(m), rcond=None)
    c_fit, beta_fit, d_fit = (float(t) for t in coef)
    gamma = 2.0 * v.l - beta_fit + 2.0
    if gamma >= -1e-6:
        raise DivergentMassError(
            f"fitted decay beta = {beta_fit:.6f} <= 2l+2 = {2*v.l+2:.6f}: mass diverges")
    a1 = d_fit + v.l
    a2 = 0.5 * d_fit**2 + d_fit * v.l + 0.5 * v.l * (v.l - 1.0)
    tail = math.exp(c_fit) * (cut**gamma / (-gamma)
                            + a1 * cut ** (gamma - 2.0) / (2.0 - gamma)
                            + a2 * cut ** (gamma - 4.0) / (4.0 - gamma))
    return float(inner + tail)


# ---------------------------------------------------------------------------
# planar samples and nodal domains
# ---------------------------------------------------------------------------


def field_to_rows(v: PlanarField) -> list[dict]:
    """Sample a planar field on a Cartesian grid as (y1, y2, value) rows."""
    xs = np.linspace(-ROWS_RADIUS, ROWS_RADIUS, ROWS_N)
    pts = grid_points(xs, xs).reshape(-1, 2)
    vals = v(pts)
    return [{"y1": float(p[0]), "y2": float(p[1]), "value": float(val)}
            for p, val in zip(pts, vals)]


@dataclass
class NodalReport:
    m: int
    masses: list
    total: float
    ledger_verdict: str
    labels: np.ndarray = field(repr=False)


def _component_labels(signs: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of the nonzero sign classes, numbered 1 .. m in
    row-major order of their first cell; 0 marks unclassified cells.

    Min-index hooking with pointer jumping: every cell points at a cell of
    its component with an index no larger than its own, at first the start
    of its same-sign run along the row.  Each round hooks the larger root of
    every equal-sign vertical pair under the smaller one, then jumps pointers
    until each cell points at its root.  At the fixed point each component's
    root is its smallest, i.e. first, cell.
    """
    nj = signs.shape[1]
    flat = signs.ravel()
    # int32 indices halve the working set; 2^31 cells would hold 17 GB of values
    index = np.arange(flat.size, dtype=np.int32).reshape(signs.shape)
    run_start = np.ones(signs.shape, dtype=bool)
    run_start[:, 1:] = signs[:, 1:] != signs[:, :-1]
    parent = np.maximum.accumulate(np.where(run_start, index, 0).ravel())
    upper = index[:-1][(signs[:-1] == signs[1:]) & (signs[1:] != 0)]   # cell above an equal-sign cell
    while True:
        ra, rb = parent[upper], parent[upper + nj]
        split = ra != rb
        if not split.any():
            break
        upper, ra, rb = upper[split], ra[split], rb[split]
        parent[np.maximum(ra, rb)] = np.minimum(ra, rb)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    first = (parent == index.ravel()) & (flat != 0)
    del index, run_start, upper     # the hooking's scratch goes before the relabel allocates
    rank = np.cumsum(first, dtype=np.int32)
    labels = rank[parent]
    labels[flat == 0] = 0
    return labels.reshape(signs.shape), int(rank[-1])


def nodal_ledger(m: int, rho: float):
    """The mass-count arithmetic: m domains above 4 pi against a budget 8 pi rho.

    With every domain mass strictly above 4 pi the total exceeds 4 pi m, so a
    budget 8 pi rho <= 4 pi m (i.e. 2 rho <= m) is contradictory.
    """
    return {
        "total_exceeds": 4.0 * math.pi * m,
        "total_budget": 8.0 * math.pi * rho,
        "contradiction": bool(2.0 * rho <= m),
    }


def _uniform_axis(nodes: np.ndarray, name: str) -> float:
    """The step of an increasing uniform grid axis of at least 2 nodes."""
    steps = np.diff(nodes)
    if not (steps[0] > 0.0 and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
        raise InvalidFieldError(f"nodal_domains: {name} is not an increasing uniform grid")
    return float(steps[0])


def nodal_domains(f_values: np.ndarray, xs: np.ndarray, ys: np.ndarray, *,
                  disk_radius: float, mass_density, rho: float) -> NodalReport:
    """Count the 4-connected sign domains of a gridded field on a disk.

    f_values is indexed [i, j] ~ (xs[i], ys[j]) on increasing uniform axes.
    Per-domain masses of mass_density (a pointwise planar callable such as
    (1+|y|^2)^l e^v, called on DENSITY_ROWS grid rows at a time, which bounds
    its temporaries) are cell sums over each label, and `total` is the cell
    sum over the classified cells, read from the signs and not the labels, so
    the partition identity sum(masses) = total checks the labelling.  The
    ledger states whether m domains of mass above 4 pi contradict the budget
    8 pi rho.
    """
    f_values = np.asarray(f_values, dtype=float)
    if f_values.size == 0:
        raise InvalidFieldError("nodal_domains: empty grid")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if f_values.shape != (xs.size, ys.size):
        raise InvalidFieldError(
            f"nodal_domains: values shape {f_values.shape} != axes ({xs.size}, {ys.size})")
    if min(xs.size, ys.size) < 2:
        raise InvalidFieldError("nodal_domains: masses need at least 2 nodes on each axis")
    cell = _uniform_axis(xs, "xs") * _uniform_axis(ys, "ys")
    zero_tol = ZERO_RTOL * float(np.max(np.abs(f_values)))
    x, y = xs[:, None], ys[None, :]
    inside = x * x + y * y <= disk_radius**2        # as radius2 of the grid points rounds it
    signs = np.zeros(f_values.shape, dtype=np.int8)
    signs[(f_values > zero_tol) & inside] = 1
    signs[(f_values < -zero_tol) & inside] = -1
    labels, m = _component_labels(signs)

    dens = np.empty(f_values.shape)
    for i in range(0, xs.size, DENSITY_ROWS):
        block = grid_points(xs[i:i + DENSITY_ROWS], ys).reshape(-1, 2)
        dens[i:i + DENSITY_ROWS] = np.asarray(mass_density(block)).reshape(-1, ys.size)
    sums = np.bincount(labels.ravel(), weights=dens.ravel())
    verdict = "contradiction" if nodal_ledger(m, rho)["contradiction"] else "consistent"
    return NodalReport(m=m, masses=[float(mk * cell) for mk in sums[1:]],
                       total=float(np.sum(dens[signs != 0]) * cell), ledger_verdict=verdict,
                       labels=labels)


def analytic_nodal_count(which: str, rho: float) -> tuple[NodalReport, int]:
    """Nodal report at rho and expected domain count of an analytic field on the
    241 x 241 grid of [-3, 3]^2, cut to the disk of radius 3, shared by the
    battery and the CLI: 'quadrant', (x^2 - y^2) e^{-(x^2 + y^2)}, has four
    domains and 'linear', x, has two."""
    xs = np.linspace(-3.0, 3.0, 241)
    X, Y = xs[:, None], xs[None, :]     # broadcast axes: no point grid
    if which == "quadrant":
        f, expected = (X**2 - Y**2) * np.exp(-(X * X + Y * Y)), 4
    elif which == "linear":
        f, expected = np.broadcast_to(X, (xs.size, xs.size)), 2
    else:
        raise ValueError(f"unknown field {which!r} (quadrant, linear)")
    rep = nodal_domains(f, xs, xs, disk_radius=3.0, mass_density=nodal_mass_density(rho), rho=rho)
    return rep, expected
