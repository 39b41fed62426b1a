"""The one-dimensional axisymmetric functional on (-1, 1).

    I_alpha(g) = alpha int (1-x^2) g'^2 dx + 2 int g dx - 2 log((1/2) int e^{2g} dx)

restricted by the moment constraint int e^{2g} x dx = 0, which the descent
restores after every step with the degree-1 tilt g + c x.  For u(x) = 2 g(x3)
lifted to the sphere, I_alpha(g) = 2 J_alpha(u) exactly, and alpha = 1/2 is
the classical axially symmetric inequality; exposing general alpha lets the
module scan the whole constrained range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import conformal, functional, sphere

DEFAULT_DEGREE = 16
DEFAULT_QUAD = 64


@dataclass
class LegendreFunction:
    """Polynomial in the Legendre basis with an attached Gauss quadrature."""

    coeffs: np.ndarray
    nodes: np.ndarray = field(repr=False, default=None)
    weights: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.nodes is None:
            n = max(DEFAULT_QUAD, 2 * (self.coeffs.size - 1))
            self.nodes, self.weights = np.polynomial.legendre.leggauss(n)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x) -> np.ndarray:
        return np.polynomial.legendre.legval(np.asarray(x, dtype=float), self.coeffs)

    def node_values(self) -> np.ndarray:
        return self(self.nodes)

    def copy(self) -> "LegendreFunction":
        return LegendreFunction(self.coeffs.copy(), self.nodes, self.weights)


def weighted_energy(g: LegendreFunction) -> float:
    """int (1-x^2) g'^2 dx, closed form sum 2 k(k+1)/(2k+1) c_k^2."""
    k = np.arange(g.coeffs.size, dtype=float)
    return float(np.sum(2.0 * k * (k + 1.0) / (2.0 * k + 1.0) * g.coeffs**2))


def _log_half_mass(g: LegendreFunction) -> float:
    """log((1/2) int e^{2g} dx), max-shifted."""
    tg = 2.0 * g.node_values()
    m = float(np.max(tg))
    return m + math.log(0.5 * float(np.dot(g.weights, np.exp(tg - m))))


def i_functional(g: LegendreFunction, alpha: float) -> float:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    mean2 = 2.0 * float(np.dot(g.weights, g.node_values()))
    return float(alpha * weighted_energy(g) + mean2 - 2.0 * _log_half_mass(g))


def constraint_moment(g: LegendreFunction) -> float:
    """int e^{2g} x dx."""
    return float(np.dot(g.weights * g.nodes, np.exp(2.0 * g.node_values())))


def recenter_1d(g: LegendreFunction, tol: float = 1e-10) -> LegendreFunction:
    """The degree-1 tilt g + c x whose weight e^{2(g + c x)} has zero moment.

    The sphere tilt of the lift 2 g(x3): c minimises the convex
    log int e^{2(g + c x)} dx (functional.tilt), the half exp-mass does not
    grow, and only coeffs[1] changes, so the degree is kept.  g itself is
    returned when its normalised moment is already within tol.
    """
    log_w = np.log(g.weights) + 2.0 * g.node_values()
    c = functional.tilt(log_w, g.nodes[:, None], tol)[0]
    if c == 0.0:
        return g
    out = g.copy()
    out.coeffs[1] += 0.5 * c
    return out


def lift(g: LegendreFunction, grid: sphere.SphereGrid) -> sphere.SphereField:
    """The sphere field u = 2 g(x3)."""
    vals = 2.0 * g(grid.mu)
    return sphere.SphereField(grid, np.repeat(vals[:, None], grid.n_phi, axis=1))


# ---------------------------------------------------------------------------
# minimisation
# ---------------------------------------------------------------------------


@dataclass
class AxisymResult:
    g: LegendreFunction
    value: float
    grad_norm: float
    moment: float
    iterations: int
    status: str = "converged"


def _axisym_gradient(g: LegendreFunction, alpha: float) -> np.ndarray:
    k = np.arange(g.coeffs.size, dtype=float)
    grad = 4.0 * alpha * k * (k + 1.0) / (2.0 * k + 1.0) * g.coeffs
    grad[0] += 4.0
    tg = 2.0 * g.node_values()
    m = float(np.max(tg))
    e = np.exp(tg - m)
    e /= float(np.dot(g.weights, e))
    pk = np.polynomial.legendre.legvander(g.nodes, g.degree)
    grad -= 4.0 * (pk.T @ (g.weights * e))
    return grad


def _grad_l2(grad: np.ndarray) -> float:
    k = np.arange(grad.size, dtype=float)
    return float(np.sqrt(np.sum(grad**2 * (2.0 * k + 1.0) / 2.0)))


def _gauge(g: LegendreFunction) -> LegendreFunction:
    out = g.copy()
    out.coeffs[0] -= 0.5 * _log_half_mass(g)
    return out


def minimize_axisym(alpha: float, g0: LegendreFunction, stat_tol: float = 1e-8,
                    moment_tol: float = 1e-10, max_iter: int = 600,
                    blowup_floor: float = -25.0) -> AxisymResult:
    """Projected descent in coefficient space, mirroring the sphere minimiser."""
    if alpha < 0.2:
        raise ValueError("alpha far below the probe range")
    g = _gauge(recenter_1d(g0, moment_tol))
    val = i_functional(g, alpha)
    k = np.arange(g.degree + 1, dtype=float)
    # diagonal Hessian of the functional at zero, clipped positive
    precond = np.maximum((4.0 * alpha * k * (k + 1.0) - 8.0) / (2.0 * k + 1.0), 0.5)
    status = "max-iter"
    it = 0
    grad = _axisym_gradient(g, alpha)
    gnorm = _grad_l2(grad)
    for it in range(1, max_iter + 1):
        if gnorm <= stat_tol:
            status = "converged"
            break
        if val < blowup_floor:
            status = "unbounded-descent"
            break
        direction = -grad / precond
        slope = float(np.dot(grad, direction))
        noise = 1e-14 * (1.0 + abs(val))
        step = 1.0
        accepted = False
        for _ in range(40):
            cand = LegendreFunction(g.coeffs + step * direction, g.nodes, g.weights)
            vc = i_functional(cand, alpha)
            if vc <= val + 1e-4 * step * slope + noise:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = "stalled"
            break
        g = _gauge(recenter_1d(cand, moment_tol))
        val = i_functional(g, alpha)
        grad = _axisym_gradient(g, alpha)
        gnorm = _grad_l2(grad)
    return AxisymResult(g=g, value=float(val), grad_norm=gnorm,
                        moment=constraint_moment(g), iterations=it, status=status)


def random_start_1d(stream_key, degree: int = DEFAULT_DEGREE, amplitude: float = 0.4) -> LegendreFunction:
    rng = functional.stream_rng(stream_key)
    coeffs = np.zeros(degree + 1)
    ks = np.arange(1, degree + 1)
    coeffs[1:] = amplitude * rng.normal(size=degree) / (1.0 + ks) ** 1.5
    return LegendreFunction(coeffs)


# ---------------------------------------------------------------------------
# the concentrating two-bubble probe
# ---------------------------------------------------------------------------


def two_bubble_i_value(alpha: float, s: float) -> float:
    """I_alpha along the balanced 1-D two-bubble family: twice the sphere value
    of its lift, the family of conformal.two_bubble_j_value."""
    return 2.0 * conformal.two_bubble_j_value(alpha, s)


def probe_two_bubble_1d(alpha: float, floor: float = -10.0, s_max: float = 400.0):
    """March the 1-D concentration until I_alpha drops below floor.

    The sphere march at half the floor, with every value doubled (I = 2 J).
    """
    s_hit, trace = conformal.probe_two_bubble(alpha, floor=0.5 * floor, s_max=s_max)
    return s_hit, [(s, 2.0 * j) for s, j in trace]
