"""The one-dimensional axisymmetric functional on (-1, 1).

    I_alpha(g) = alpha int (1-x^2) g'^2 dx + 2 int g dx - 2 log((1/2) int e^{2g} dx)

restricted by the moment constraint int e^{2g} x dx = 0, which the descent
restores after every step with the degree-1 tilt g + c x.  For u(x) = 2 g(x3)
lifted to the sphere, I_alpha(g) = 2 J_alpha(u) exactly, and alpha = 1/2 is
the classical axially symmetric inequality; exposing general alpha lets the
module scan the whole constrained range.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import conformal, functional, quadrature, sphere

DEFAULT_DEGREE = 16
DEFAULT_QUAD = 64
SCAN_LANES = 60         # most lanes per minimize_axisym_stack of a multi-start run


@dataclass
class LegendreFunction:
    """Polynomial in the Legendre basis, on the Gauss rule of its degree.

    The rule carries the Legendre Vandermonde of its nodes, so values at the
    nodes are one matrix-vector product; functions of one degree share the
    rule, built once.  coeffs may be a (lanes, degree + 1) stack of
    polynomials; evaluation by __call__ takes one.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    @property
    def nodes(self) -> np.ndarray:
        return _gauss_rule(self.degree)[0]

    @property
    def weights(self) -> np.ndarray:
        return _gauss_rule(self.degree)[1]

    @property
    def vander(self) -> np.ndarray:
        return _gauss_rule(self.degree)[2]

    def __call__(self, x) -> np.ndarray:
        return np.polynomial.legendre.legval(np.asarray(x, dtype=float), self.coeffs)

    def node_values(self) -> np.ndarray:
        return np.matvec(self.vander, self.coeffs)

    def copy(self) -> "LegendreFunction":
        return LegendreFunction(self.coeffs.copy())


@functools.lru_cache(maxsize=None)
def _gauss_rule(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and Legendre Vandermonde up to degree of the
    max(DEFAULT_QUAD, 2 degree)-point Gauss rule, read-only and shared."""
    nodes, weights = quadrature.gauss_rule(max(DEFAULT_QUAD, 2 * degree))
    vander = np.polynomial.legendre.legvander(nodes, degree)
    vander.flags.writeable = False
    return nodes, weights, vander


@functools.lru_cache(maxsize=None)
def _half_rule(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The measure dx/2 on the nodes of _gauss_rule(degree) as functional.tilt
    takes it: half weights, the nodes as (nodes, 1) points and their
    second-moment row, read-only and shared."""
    nodes, weights, _ = _gauss_rule(degree)
    half_w = 0.5 * weights
    half_w.flags.writeable = False
    return half_w, nodes[:, None], quadrature.second_moments(half_w, nodes[:, None])


@functools.lru_cache(maxsize=None)
def _energy_weights(degree: int) -> np.ndarray:
    """2 k(k+1)/(2k+1) for k = 0 .. degree, read-only and shared."""
    k = np.arange(degree + 1, dtype=float)
    out = 2.0 * k * (k + 1.0) / (2.0 * k + 1.0)
    out.flags.writeable = False
    return out


def _moments(g: LegendreFunction, two_g: np.ndarray) -> functional.ExpMoments:
    """Moments of e^{2g} dx/2 from the node values of 2g: log((1/2) int e^{2g} dx),
    the density e^{2g} / ((1/2) int e^{2g} dx) and the normalised moment in x."""
    half_w, x, _ = _half_rule(g.degree)
    return functional.exp_moments(two_g, half_w, x)


def _i_value(coeffs: np.ndarray, log_half_mass, alpha):
    """I_alpha (per lane) from the Legendre coefficients of g and the log half-mass:
    int 2g dx is 4 coeffs[0]."""
    energy = np.add.reduce(_energy_weights(coeffs.shape[-1] - 1) * coeffs**2, axis=-1)
    return alpha * energy + 4.0 * coeffs[..., 0] - 2.0 * log_half_mass


def i_functional(g: LegendreFunction, alpha: float) -> float:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    two_g = 2.0 * g.node_values()
    return float(_i_value(g.coeffs, _moments(g, two_g).log_mass, alpha))


def constraint_moment(g: LegendreFunction):
    """int e^{2g} x dx (per lane)."""
    return np.vecdot(np.exp(2.0 * g.node_values()), g.weights * g.nodes)


def recenter_1d(g: LegendreFunction) -> LegendreFunction:
    """The degree-1 tilt g + c x whose weight e^{2(g + c x)} has zero moment.

    The sphere tilt of the lift 2 g(x3): c minimises the convex
    log int e^{2(g + c x)} dx (functional.tilt), the half exp-mass does not
    grow, and only coeffs[1] changes, so the degree is kept.  g itself is
    returned when its normalised moment is already within functional.COM_TOL.
    """
    two_g = 2.0 * g.node_values()[None]
    c, _, _ = functional.tilt(two_g, *_half_rule(g.degree), _moments(g, two_g))
    if c[0, 0] == 0.0:
        return g
    out = g.copy()
    out.coeffs[1] += 0.5 * c[0, 0]
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
    backtracks: int         # line-search halvings over the whole run
    newton_steps: int       # Newton steps of the tilts over the whole run
    status: str


def _grad_l2(grad: np.ndarray):
    """L2(dx) norm of the function with Legendre coefficients grad (per lane)."""
    k = np.arange(grad.shape[-1], dtype=float)
    with np.errstate(over="ignore"):    # a square past the float range reads inf: not stationary
        return np.sqrt(np.add.reduce(grad**2 * (2.0 * k + 1.0) / 2.0, axis=-1))


def minimize_axisym(alpha: float, g0: LegendreFunction) -> AxisymResult:
    """Projected descent in coefficient space: functional.descend on I_alpha.

    It preconditions with functional.zero_hessian read on Legendre
    coefficients, so for a lifted start it takes the sphere minimiser's
    steps; functional.COM_TOL bounds the normalised moment the tilt leaves.
    A line-search trial costs one product with the quadrature's Vandermonde
    and one exponential (for I); the tilt, the gauge, I and the gradient of
    the accepted step read the moments of that exponential, or of the tilt's
    last Newton iterate.  This is the one-lane case of minimize_axisym_stack.
    """
    return minimize_axisym_stack([alpha], LegendreFunction(g0.coeffs[None]))[0]


def minimize_axisym_stack(alphas, g0: LegendreFunction) -> list[AxisymResult]:
    """minimize_axisym for a stack of starts g0 (coeffs of shape (lanes, degree + 1)),
    lane i at alphas[i]: one functional.descend over all lanes, each lane's
    result as its own minimize_axisym run would give it."""
    alphas = np.asarray(alphas, dtype=float)
    if g0.coeffs.ndim != 2 or alphas.shape != g0.coeffs.shape[:1]:
        raise ValueError("minimize_axisym_stack takes one alpha per row of a (lanes, degree + 1) stack")
    if (alphas < 0.2).any():
        raise ValueError("alpha far below the probe range")
    k = np.arange(g0.degree + 1, dtype=float)
    stiffness = 4.0 * alphas[:, None] * k * (k + 1.0) / (2.0 * k + 1.0)
    # the sphere's preconditioner on the lift: I = 2 J and a Legendre
    # coefficient c_k is the sphere coefficient 2 c_k / sqrt(2k+1)
    precond = 8.0 * np.array([functional.zero_hessian(a, g0.degree) for a in alphas]) / (2.0 * k + 1.0)
    vander, (half_w, x, second) = g0.vander, _half_rule(g0.degree)

    def trial(lanes, coeffs, delta):
        coeffs = coeffs + delta
        two_g = 2.0 * np.matvec(vander, coeffs)
        mom = functional.exp_moments(two_g, half_w, x)
        return (coeffs, two_g, *mom), _i_value(coeffs, mom.log_mass, alphas[lanes])

    def retract(lanes, cand):
        """Tilt g + (c/2) x onto the constraint and gauge it to unit half-mass;
        returns the states with their I and gradients, and the tilts' Newton steps."""
        coeffs, two_g, *mom = cand
        c, mom, steps = functional.tilt(two_g, half_w, x, second, functional.ExpMoments(*mom))
        coeffs[:, 1] += 0.5 * c[:, 0]
        value = _i_value(coeffs, mom.log_mass, alphas[lanes])   # I is shift-invariant
        coeffs[:, 0] -= 0.5 * mom.log_mass
        grad = stiffness[lanes] * coeffs
        grad[:, 0] += 4.0
        grad -= 4.0 * np.matvec(vander.T, half_w * mom.density)
        return coeffs, value, grad, steps

    two_g = 2.0 * g0.node_values()
    run = functional.descend((g0.coeffs.copy(), two_g, *_moments(g0, two_g)), precond, trial,
                             retract, _grad_l2)
    moment = constraint_moment(LegendreFunction(run.state))
    return [AxisymResult(g=LegendreFunction(run.state[i]), value=float(run.value[i]),
                         grad_norm=float(run.grad_norm[i]), moment=float(moment[i]),
                         iterations=int(run.iterations[i]), backtracks=int(run.backtracks[i]),
                         newton_steps=int(run.newton_steps[i]), status=run.status[i])
            for i in range(len(alphas))]


def random_start_1d(stream_key, degree: int = DEFAULT_DEGREE, amplitude: float = 0.4) -> LegendreFunction:
    rng = functional.stream_rng(stream_key)
    coeffs = np.zeros(degree + 1)
    ks = np.arange(1, degree + 1)
    coeffs[1:] = amplitude * rng.normal(size=degree) / (1.0 + ks) ** 1.5
    return LegendreFunction(coeffs)


def random_starts_1d(keys) -> LegendreFunction:
    """The random starts of the stream keys as one stack of polynomials."""
    return LegendreFunction(np.stack([random_start_1d(key).coeffs for key in keys]))


def minimize_starts(alphas, keys) -> list[AxisymResult]:
    """minimize_axisym at alphas[i] from the start of key keys[i], in_stacks of SCAN_LANES."""
    return functional.in_stacks(lambda part: minimize_axisym_stack(alphas[part], random_starts_1d(keys[part])),
                                len(keys), SCAN_LANES)


# ---------------------------------------------------------------------------
# the concentrating two-bubble probe
# ---------------------------------------------------------------------------


def two_bubble_i_value(alpha: float, s: float) -> float:
    """I_alpha along the balanced 1-D two-bubble family: twice the sphere value
    of its lift, the family of conformal.two_bubble_j_value."""
    return 2.0 * conformal.two_bubble_j_value(alpha, s)


def probe_two_bubble_1d(alpha: float, floor: float):
    """March the 1-D concentration until I_alpha drops below floor.

    The sphere march at half the floor, with every value doubled (I = 2 J).
    """
    s_hit, trace = conformal.probe_two_bubble(alpha, floor=0.5 * floor)
    return s_hit, [(s, 2.0 * j) for s, j in trace]
