"""The Moser-Trudinger-Onofri functional on the sphere.

    J_alpha(u) = (alpha/4) int |grad u|^2 dw + int u dw - log int e^u dw

with dw the probability measure.  Minimisation runs on the submanifold where
the center of mass of e^u dw vanishes, with the gauge int e^u dw = 1.  The
constraint is the first-order condition of min_c log int e^{u + c.x} dw, so
after every step a degree-1 tilt u + c.x puts the iterate back on it and
keeps it band-limited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import conformal, sphere
from .errors import GridConfigError, InvalidFieldError, NonConvergenceError
from .sphere import HarmonicSpectrum, SphereField, SphereGrid


def _j_value(spec: HarmonicSpectrum, log_mass: float, alpha: float) -> float:
    """J_alpha from the spectrum of u and log int e^u dw.

    The energy is sum l(l+1) c^2 and the mean is c_00.
    """
    l = np.arange(spec.lmax + 1, dtype=float)
    energy = float(np.sum(l * (l + 1.0) * np.sum(spec.coeffs**2, axis=1)))
    return float(alpha / 4.0 * energy + spec[0, 0] - log_mass)


def j_alpha(u: SphereField, alpha: float) -> float:
    """Value of the functional; stable under large field values via max shift."""
    if not np.all(np.isfinite(u.values)):
        raise InvalidFieldError("j_alpha: field has non-finite values")
    return _j_value(sphere.analyze(u), sphere.log_exp_mass(u), alpha)


def gradient_j(u: SphereField, alpha: float) -> SphereField:
    """First variation: g = -(alpha/2) lap(u) + 1 - e^u / int e^u."""
    lap = sphere.laplacian(u)
    m = float(np.max(u.values))
    e = np.exp(u.values - m)
    e /= sphere.integrate_values(u.grid, e)
    return SphereField(u.grid, -(alpha / 2.0) * lap.values + 1.0 - e)


def center_of_mass(u: SphereField) -> np.ndarray:
    """Center of mass of the measure e^u dw (a vector in the open unit ball)."""
    pts, weights = _node_geometry(u.grid)
    return exp_moments(u.values.ravel(), weights, pts).mean


def shift_to_unit_mass(u: SphereField) -> SphereField:
    """Additive shift making int e^u dw = 1 (the working gauge)."""
    return u - sphere.log_exp_mass(u)


class ExpMoments(NamedTuple):
    """The measure e^v w on a set of nodes, from one exponential."""

    log_mass: float         # log sum w e^v
    density: np.ndarray     # e^v / sum w e^v, the normalised density against w
    mean: np.ndarray        # sum w density points, the center of mass


def exp_moments(values: np.ndarray, weights: np.ndarray, points: np.ndarray) -> ExpMoments:
    """Log-mass, normalised density and center of mass of e^values weights (max-shifted)."""
    m = float(np.max(values))
    e = np.exp(values - m)
    mass = float(weights @ e)
    e /= mass
    return ExpMoments(m + np.log(mass), e, (weights * e) @ points)


def tilt(values: np.ndarray, weights: np.ndarray, points: np.ndarray,
         start: ExpMoments | None = None) -> tuple[np.ndarray, ExpMoments, int]:
    """Vector c with zero mean of `points` under e^{values + points @ c} weights.

    c minimises F(c) = log sum weights e^{values + points @ c}, which is
    strictly convex and coercive when the points span their space: the
    gradient of F is the weighted mean of the points and its Hessian is their
    weighted covariance, so damped Newton reaches the unique minimiser.
    Returns c, the moments of the tilted measure and the number of Newton
    steps taken: `start`, the moments at c = 0 when the caller has them, and
    c = 0 after no step when their mean is already within COM_TOL.  Every other
    moment evaluation costs one exponential.
    """
    c = np.zeros(points.shape[1])
    mom = start if start is not None else exp_moments(values, weights, points)
    for steps in range(50):
        if np.linalg.norm(mom.mean) <= COM_TOL:
            return c, mom, steps
        cov = (points.T * (weights * mom.density)) @ points - np.outer(mom.mean, mom.mean)
        step = -np.linalg.solve(cov, mom.mean)
        slope = float(mom.mean @ step)
        t = 1.0
        for _ in range(50):
            trial = exp_moments(values + points @ (c + t * step), weights, points)
            # the allowance admits full steps whose decrease is below rounding
            if trial.log_mass <= mom.log_mass + 1e-4 * t * slope + 1e-14 * (1.0 + abs(mom.log_mass)):
                break
            t *= 0.5
        c, mom = c + t * step, trial
    raise NonConvergenceError("tilt: Newton did not reach tolerance",
                              best=c, residual=float(np.linalg.norm(mom.mean)))


def _node_geometry(grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """Node points as an (n, 3) array and the quadrature weights of dw, flattened."""
    return np.stack(grid.points(), axis=-1).reshape(-1, 3), grid.weights.ravel()


def pullback(u: SphereField, a: np.ndarray) -> SphereField:
    """u o phi_a + log det(d phi_a), sampled on u's grid.

    J_1 and the exp-mass are invariant under this Mobius pullback, which makes
    it the reference the alpha = 1 invariance tests check against.  The
    composition is evaluated through u's harmonic expansion, so it is
    exact for band-limited u; resampling reprojects onto the grid's band.
    """
    if np.linalg.norm(a) < 1e-15:
        return u.copy()
    spec = sphere.analyze(u)
    x1, x2, x3 = u.grid.points()
    pts = np.stack([x1, x2, x3], axis=-1)
    mapped = conformal.apply_mobius(pts, a)
    vals = sphere.evaluate_xyz(spec, mapped) + conformal.log_conformal_factor(pts, a)
    return SphereField(u.grid, vals)


def el_residual(u: SphereField, rho: float) -> float:
    """L2(dw) norm of lap(u) + 2 rho (e^u - 1) after the unit-mass shift."""
    u = shift_to_unit_mass(u)
    lap = sphere.laplacian(u)
    res = lap.values + 2.0 * rho * (np.exp(u.values) - 1.0)
    return float(np.sqrt(max(sphere.integrate_values(u.grid, res**2), 0.0)))


# ---------------------------------------------------------------------------
# minimisation
# ---------------------------------------------------------------------------


@dataclass
class MinimizeResult:
    u: SphereField
    j_value: float
    grad_norm: float
    com_norm: float
    exp_mass: float
    iterations: int
    backtracks: int         # line-search halvings over the whole run
    newton_steps: int       # Newton steps of the tilts over the whole run
    trace: list = field(repr=False, default_factory=list)
    status: str = "converged"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def zero_hessian(alpha: float, lmax: int) -> np.ndarray:
    """Second variation of J_alpha at u = 0 per degree l <= lmax, clipped positive.

    At zero the Hessian is diagonal in spherical harmonics, alpha/2 l(l+1) - 1
    on degree l.  The floor (2l+1)/16 is the 1-D rule's clip at 1/2 under the
    lift u = 2 g(x3) (a Legendre coefficient c_k is the sphere coefficient
    2 c_k / sqrt(2k+1), and I = 2 J).  For alpha >= 1/4 it acts only on
    degrees 0 and 1, where the gauge and the constraint make the gradient
    vanish, and on degree 2 when alpha < 7/16.  Both minimisers precondition
    with it.
    """
    l = np.arange(lmax + 1, dtype=float)
    return np.maximum(alpha / 2.0 * l * (l + 1.0) - 1.0, (2.0 * l + 1.0) / 16.0)


STAT_TOL = 1e-8         # gradient norm at which both descents are stationary
COM_TOL = 1e-10         # center of mass (1-D: normalised moment) their tilts leave
MAX_ITER = 800          # iterations of a descent
BLOWUP_FLOOR = -25.0    # values below it end a descent as unbounded
ARMIJO = 1e-4           # sufficient-decrease constant of the line search
MAX_HALVINGS = 40       # halvings of the unit step before a descent stalls
QUADRATIC_STEP = 1e-2   # amplitude t of the probes t v and t v / 2 of the second variation


class Descent(NamedTuple):
    """Where a projected descent stopped, with its work counters."""

    state: object
    value: float
    grad_norm: float
    status: str             # converged, unbounded-descent, stalled or max-iter
    iterations: int
    backtracks: int         # line-search halvings over the whole run
    newton_steps: int       # Newton steps of the retractions over the whole run
    trace: list             # (iteration, value) at the top of every iteration and at the end


def descend(start, precond: np.ndarray, trial, retract, norm) -> Descent:
    """Preconditioned projected descent with Armijo backtracking.

    The minimiser supplies its representation through three callbacks:
    retract(candidate) -> (state, value, gradient, newton_steps) puts a
    candidate on the constraint and the gauge; trial(state, delta) ->
    (candidate, value) moves the state's coefficients by delta; norm(gradient)
    is the norm the stationarity test reads.  `start` is the first candidate.
    Each iteration steps along -gradient / precond from a unit step, halving
    until the Armijo test holds within a rounding allowance of
    1e-14 (1 + |value|); a run whose MAX_HALVINGS halvings all fail is stalled.
    """
    state, value, grad, newton_steps = retract(start)
    gnorm = norm(grad)
    trace = []
    status = "max-iter"
    it = backtracks = 0
    for it in range(1, MAX_ITER + 1):
        trace.append((it - 1, value))
        if gnorm <= STAT_TOL:
            status = "converged"
            break
        if value < BLOWUP_FLOOR:
            status = "unbounded-descent"
            break
        direction = -grad / precond
        slope = float(np.sum(grad * direction))
        noise = 1e-14 * (1.0 + abs(value))
        step = 1.0
        for _ in range(MAX_HALVINGS):
            cand, cand_value = trial(state, step * direction)
            if cand_value <= value + ARMIJO * step * slope + noise:
                break
            step *= 0.5
            backtracks += 1
        else:
            status = "stalled"
            break
        state, value, grad, steps = retract(cand)
        newton_steps += steps
        gnorm = norm(grad)
    trace.append((it, value))
    return Descent(state, float(value), gnorm, status, it, backtracks, newton_steps, trace)


def minimize(alpha: float, u0: SphereField) -> MinimizeResult:
    """Projected descent for J_alpha on the center-of-mass constraint.

    Each iteration of descend: a gradient step preconditioned by zero_hessian
    (the second variation at u = 0, the constrained minimiser for
    alpha >= 2/3, so a full step is close to Newton's there), the degree-1
    tilt back onto the constraint, then the unit exp-mass shift.  The iterate is carried as its spectrum and its grid
    values together, so a line-search trial costs one synthesize and one
    exponential (for J), and an accepted step one analyze (of e^u, for the
    gradient).  The tilt, the shift, J and the gradient of the accepted step
    all read the moments of that one exponential, or of the tilt's last
    Newton iterate.  Descent past BLOWUP_FLOOR returns an
    unbounded-descent verdict instead of a minimiser (the expected outcome of
    probes below alpha = 1/2).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if not np.all(np.isfinite(u0.values)):
        raise InvalidFieldError("minimize: start has non-finite values")
    grid = u0.grid
    L = grid.lmax
    pts, weights = _node_geometry(grid)
    l = np.arange(L + 1, dtype=float)
    stiffness = (alpha / 2.0 * l * (l + 1.0))[:, None]
    # x1, x2, x3 are the degree-1 harmonics (1, 1), (1, -1), (1, 0) over sqrt(3)
    tilt_slots = [L + 1, L - 1, L]

    def moments(u):
        return exp_moments(u.values.ravel(), weights, pts)

    def trial(state, delta):
        spec = HarmonicSpectrum(L, state[0].coeffs + delta)
        u = sphere.synthesize(spec, grid)
        mom = moments(u)
        return (spec, u, mom), _j_value(spec, mom.log_mass, alpha)   # J is shift-invariant

    def retract(cand):
        """Tilt onto the constraint and shift to unit exp-mass: the state
        (spectrum, field), J, the gradient's coefficients, the Newton steps.

        The tilt starts from u's moments and returns those of the tilted
        field: the shift is their log-mass, the shifted state has log-mass
        zero, and e^u / int e^u dw is their density (both shift-invariant).
        """
        spec, u, mom = cand
        c, mom, steps = tilt(u.values.ravel(), weights, pts, mom)
        values = u.values
        if c.any():
            values = values + (pts @ c).reshape(grid.shape)
            spec.coeffs[1, tilt_slots] += c / np.sqrt(3.0)
        spec.coeffs[0, L] -= mom.log_mass
        # spectrum of -(alpha/2) lap u + 1 - e^u / int e^u dw
        grad = stiffness * spec.coeffs - sphere.analyze(
            SphereField(grid, mom.density.reshape(grid.shape))).coeffs
        grad[0, L] += 1.0
        state = (spec, SphereField(grid, values - mom.log_mass))
        return state, _j_value(spec, 0.0, alpha), grad, steps

    spec = sphere.analyze(u0)
    u = sphere.synthesize(spec, grid)                       # the state is band-limited
    run = descend((spec, u, moments(u)), zero_hessian(alpha, L)[:, None], trial, retract,
                  np.linalg.norm)
    u = run.state[1]
    return MinimizeResult(u=u, j_value=run.value, grad_norm=float(run.grad_norm),
                          com_norm=float(np.linalg.norm(center_of_mass(u))),
                          exp_mass=float(np.exp(sphere.log_exp_mass(u))),
                          iterations=run.iterations, backtracks=run.backtracks,
                          newton_steps=run.newton_steps, trace=run.trace, status=run.status)


# ---------------------------------------------------------------------------
# seeded starts and scans
# ---------------------------------------------------------------------------


def random_start(grid: SphereGrid, stream_key, degree: int = 8, amplitude: float = 0.4) -> SphereField:
    """Deterministic random band-limited start derived from a counter-based stream."""
    rng = stream_rng(stream_key)
    degree = min(degree, grid.lmax)
    spec = sphere.zero_spectrum(grid.lmax)
    for l in range(1, degree + 1):
        sigma = amplitude / (1.0 + l) ** 1.5
        ms = np.arange(-l, l + 1)
        spec.coeffs[l, grid.lmax + ms] = sigma * rng.normal(size=ms.size)
    return sphere.synthesize(spec, grid)


def stream_rng(stream_key) -> np.random.Generator:
    """Counter-based generator for an integer stream key such as (seed, cell index)."""
    parts = np.atleast_1d(np.asarray(stream_key, dtype=np.int64))
    key = 0x9E3779B97F4A7C15
    for p in parts:
        key = ((key ^ int(p)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    return np.random.Generator(np.random.Philox(key=key))


def alpha_scan(alpha_list, trials: int, seed: int, grid: SphereGrid):
    """Multi-start minimisation summary per alpha.

    Returns rows (alpha, min_j, mean_iterations, n_failed); random streams are
    keyed by (seed, alpha index, trial index) so any execution order gives the
    same table.  n_failed counts runs that raise and runs that end without a
    verdict (max-iter or stalled); an unbounded-descent verdict is not a
    failure.  min_j and mean_iterations cover every run that returns.
    """
    rows = []
    for ia, alpha in enumerate(alpha_list):
        best = np.inf
        iters = []
        failed = 0
        for trial in range(trials):
            u0 = random_start(grid, (seed, ia, trial))
            try:
                res = minimize(float(alpha), u0)
            except NonConvergenceError:
                failed += 1
                continue
            failed += res.status in ("max-iter", "stalled")
            best = min(best, res.j_value)
            iters.append(res.iterations)
        rows.append({
            "alpha": float(alpha),
            "min_j": float(best),
            "mean_iterations": float(np.mean(iters)) if iters else float("nan"),
            "n_failed": failed,
        })
    return rows


# ---------------------------------------------------------------------------
# second variation
# ---------------------------------------------------------------------------


@dataclass
class SecondVariationReport:
    alpha: float
    mode: str
    quadratic_coefficient: float
    threshold_estimate: float


def empirical_quadratic_coefficient(v: SphereField, alpha: float) -> float:
    """j_alpha(t v)/t^2 at t = QUADRATIC_STEP and t/2, one Richardson sweep on the O(t^2) tail."""
    q1, q2 = (j_alpha(t * v, alpha) / t**2 for t in (QUADRATIC_STEP, 0.5 * QUADRATIC_STEP))
    return float((4.0 * q2 - q1) / 3.0)


def second_variation_threshold(v: SphereField, mode: str,
                               bracket: tuple[float, float]) -> SecondVariationReport:
    """Zero crossing in alpha of the measured quadratic coefficient along v.

    The coefficient is affine in alpha, so two evaluations determine the root.
    """
    a0, a1 = bracket
    q0 = empirical_quadratic_coefficient(v, a0)
    q1 = empirical_quadratic_coefficient(v, a1)
    root = a0 - q0 * (a1 - a0) / (q1 - q0)
    mid = 0.5 * (a0 + a1)
    return SecondVariationReport(
        alpha=mid,
        mode=mode,
        quadratic_coefficient=empirical_quadratic_coefficient(v, mid),
        threshold_estimate=float(root),
    )


# test modes of the second variation: degree, shape in (x1, x2, x3), alpha
# bracket of the threshold, exact threshold
_MODES = {"degree2": (2, lambda a, b, c: a * b, (0.25, 0.45), 1.0 / 3.0),
          "degree1": (1, lambda a, b, c: c, (0.9, 1.1), 1.0)}


def mode_threshold(grid: SphereGrid, mode: str) -> tuple[SecondVariationReport, float]:
    """Threshold along x1 x2 ('degree2', exact 1/3) or x3 ('degree1', exact 1),
    with the exact value; the battery and the CLI share these brackets.  A grid
    whose band limit is below the mode's degree cannot hold the mode and raises
    GridConfigError."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r} (degree1, degree2)")
    degree, shape, bracket, exact = _MODES[mode]
    if grid.lmax < degree:
        raise GridConfigError(f"band limit {grid.lmax} cannot hold the degree-{degree} mode")
    return second_variation_threshold(sphere.field_of(grid, shape), mode, bracket), exact
