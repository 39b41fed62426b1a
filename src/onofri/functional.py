"""The Moser-Trudinger-Onofri functional on the sphere.

    J_alpha(u) = (alpha/4) int |grad u|^2 dw + int u dw - log int e^u dw

with dw the probability measure.  Minimisation runs on the submanifold where
the center of mass of e^u dw vanishes, with the gauge int e^u dw = 1.  The
constraint is the first-order condition of min_c log int e^{u + c.x} dw, so
after every step a degree-1 tilt u + c.x puts the iterate back on it and
keeps it band-limited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import conformal, quadrature, sphere
from .errors import GridConfigError, InvalidFieldError, NonConvergenceError
from .sphere import HarmonicSpectrum, SphereField, SphereGrid


def _j_value(coeffs: np.ndarray, log_mass, alpha):
    """J_alpha (per lane) from the spectrum of u, energy sum l(l+1) c^2 and mean c_00,
    and log int e^u dw."""
    L = coeffs.shape[-2] - 1
    energy = np.add.reduce(sphere.laplace_weights(L) * np.add.reduce(coeffs**2, axis=-1), axis=-1)
    return alpha / 4.0 * energy + coeffs[..., 0, L] - log_mass


def j_alpha(u: SphereField, alpha: float) -> float:
    """Value of the functional; stable under large field values via max shift."""
    if not np.all(np.isfinite(u.values)):
        raise InvalidFieldError("j_alpha: field has non-finite values")
    return float(_j_value(sphere.analyze(u).coeffs, sphere.log_exp_mass(u), alpha))


def gradient_j(u: SphereField, alpha: float) -> SphereField:
    """First variation: g = -(alpha/2) lap(u) + 1 - e^u / int e^u."""
    lap = sphere.laplacian(u)
    m = float(np.max(u.values))
    e = np.exp(u.values - m)
    e /= sphere.integrate_values(u.grid, e)
    return SphereField(u.grid, -(alpha / 2.0) * lap.values + 1.0 - e)


def center_of_mass(u: SphereField) -> np.ndarray:
    """Center of mass of the measure e^u dw (a vector in the open unit ball), per lane."""
    values = u.values.reshape(*u.values.shape[:-2], -1)
    return exp_moments(values, u.grid.node_weights, u.grid.node_points).mean


def shift_to_unit_mass(u: SphereField) -> SphereField:
    """Additive shift making int e^u dw = 1 (the working gauge), per lane."""
    return u - sphere.log_exp_mass(u)[..., None, None]


class ExpMoments(NamedTuple):
    """The measure e^v w on a set of nodes, from one exponential."""

    log_mass: float         # log sum w e^v
    density: np.ndarray     # e^v / sum w e^v, the normalised density against w
    mean: np.ndarray        # sum w density points, the center of mass


def exp_moments(values: np.ndarray, weights: np.ndarray, points: np.ndarray) -> ExpMoments:
    """Log-mass, normalised density and center of mass of e^values weights (max-shifted),
    per lane of values (..., nodes).  vecdot, vecmat and matvec sum each lane as the
    single-field dot and @ do, bit for bit, which keeps a lane equal to its own run."""
    m = np.maximum.reduce(values, axis=-1, keepdims=True)
    e = np.exp(values - m)
    mass = np.vecdot(e, weights)[..., None]
    e /= mass
    return ExpMoments((m + np.log(mass))[..., 0], e, np.vecmat(weights * e, points))


def _lanes(ids: list, count: int):
    """Index of the lanes ids (sorted) of count lanes; slice(None), no copy, for all of them."""
    return slice(None) if len(ids) == count else np.array(ids, dtype=int)


def _take(stack, lanes):
    """The lanes of a stack, an array or a tuple of arrays (as a tuple)."""
    if isinstance(lanes, slice):
        return stack
    return tuple(a[lanes] for a in stack) if isinstance(stack, tuple) else stack[lanes]


def _put(stack, lanes, sub):
    """Write sub into the lanes of a stack; sub itself when it is every lane."""
    if isinstance(lanes, slice):
        return sub
    for a, s in zip(stack, sub) if isinstance(stack, tuple) else [(stack, sub)]:
        a[lanes] = s
    return stack


def tilt(values: np.ndarray, weights: np.ndarray, points: np.ndarray, second: np.ndarray,
         start: ExpMoments) -> tuple[np.ndarray, ExpMoments, np.ndarray]:
    """Per lane of a (lanes, nodes) stack of values, the vector c with zero mean of
    `points` under e^{values + points @ c} weights.

    c minimises F(c) = log sum weights e^{values + points @ c}, which is
    strictly convex and coercive when the points span their space: the
    gradient of F is the weighted mean of the points and its Hessian is their
    weighted covariance, so damped Newton reaches the unique minimiser.  The
    covariance is the second moments, one product of the density with
    `second` (quadrature.second_moments of weights and points), less the
    mean's square.  Starts from `start`, the moments at c = 0, and returns per
    lane c, the moments of the tilted measure and the number of Newton steps
    taken: c = 0 after no step when the mean is already within COM_TOL.  Every
    other moment evaluation costs one exponential.  Each lane takes its own
    Newton steps and halvings.  A covariance singular to working precision
    (its curvature along the Newton step at most COV_TOL times the trace of
    the second moments it cancels), a step that fails its Armijo test at all
    MAX_HALVINGS halvings or TILT_STEPS Newton steps short of COM_TOL raise
    NonConvergenceError.
    """
    pairs = quadrature.pair_rows(points.shape[1])
    c = np.zeros((len(values), points.shape[1]))
    steps = [0] * len(values)
    if len(values) == 1:        # a single lane is replaced whole, never written in place
        mom = start
    else:                       # the lanes of a stack are written in place: not the caller's
        mom = ExpMoments(*(a.copy() for a in start))
    for _ in range(TILT_STEPS):
        norms = np.sqrt(np.vecdot(mom.mean, mom.mean)).tolist()
        live = [i for i, norm in enumerate(norms) if norm > COM_TOL]
        if not live:
            return c, mom, np.array(steps)
        for i in live:
            steps[i] += 1
        rows = _lanes(live, len(values))
        now, base, c0 = ExpMoments(*_take(mom, rows)), _take(values, rows), _take(c, rows)
        mean = now.mean[:, :, None]
        moments = np.matvec(second, now.density)[:, pairs]
        try:
            step = -np.linalg.solve(moments - mean * now.mean[:, None, :], mean)[:, :, 0]
        except np.linalg.LinAlgError:       # a covariance singular to the last bit
            break
        slope = np.vecdot(now.mean, step)
        # -slope / |step|^2 is the covariance's curvature along the step: within COV_TOL
        # of the second moments it cancels it is rounding (or not finite), and the
        # points do not span their space under e^v
        if not (-slope > COV_TOL * np.trace(moments, axis1=1, axis2=2) * np.vecdot(step, step)).all():
            break
        slope, level = slope.tolist(), now.log_mass.tolist()
        for halving in range(MAX_HALVINGS):
            t = 0.5**halving                # every live lane has halved as often
            ct = c0 + t * step
            trial = exp_moments(base + np.matvec(points, ct), weights, points)
            # the allowance admits full steps whose decrease is below rounding
            ok = [v <= f + ARMIJO * t * sj + 1e-14 * (1.0 + abs(f))
                  for v, f, sj in zip(trial.log_mass.tolist(), level, slope)]
            if all(ok):
                c, mom = _put(c, rows, ct), _put(mom, rows, trial)
                break
            done, keep = ([j for j, a in enumerate(ok) if a == side] for side in (True, False))
            lanes = np.array([live[j] for j in done], dtype=int)
            c, mom = _put(c, lanes, ct[done]), _put(mom, lanes, _take(trial, done))
            live, base, c0, step = [live[j] for j in keep], base[keep], c0[keep], step[keep]
            rows = np.array(live)
            slope, level = ([a[j] for j in keep] for a in (slope, level))
        else:                               # a lane failed every halving
            break
    raise NonConvergenceError("tilt: Newton did not reach tolerance", best=c,
                              residual=float(np.max(np.linalg.norm(mom.mean, axis=-1))))


def pullback(u: SphereField, a: np.ndarray) -> SphereField:
    """u o phi_a + log det(d phi_a), sampled on u's grid.

    J_1 and the exp-mass are invariant under this Mobius pullback, which makes
    it the reference the alpha = 1 invariance tests check against.  The
    composition is evaluated through u's harmonic expansion, so it is
    exact for band-limited u; resampling reprojects onto the grid's band.
    """
    if np.linalg.norm(a) < 1e-15:
        return SphereField(u.grid, u.values.copy())
    spec = sphere.analyze(u)
    x1, x2, x3 = u.grid.points()
    pts = np.stack([x1, x2, x3], axis=-1)
    mapped = conformal.apply_mobius(pts, a)
    vals = sphere.evaluate_xyz(spec, mapped) + conformal.log_conformal_factor(pts, a)
    return SphereField(u.grid, vals)


def el_residual(u: SphereField, rho):
    """L2(dw) norm of lap(u) + 2 rho (e^u - 1) after the unit-mass shift, per lane
    (rho may be one per lane)."""
    u = shift_to_unit_mass(u)
    lap = sphere.laplacian(u)
    res = lap.values + 2.0 * np.asarray(rho)[..., None, None] * (np.exp(u.values) - 1.0)
    return np.sqrt(np.maximum(sphere.integrate_values(u.grid, res**2), 0.0))


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
    status: str

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
COV_TOL = 1e-14         # a tilt covariance's curvature, over its second moments' trace, that is rounding
MAX_ITER = 800          # iterations of a descent
BLOWUP_FLOOR = -25.0    # values below it end a descent as unbounded
ARMIJO = 1e-4           # sufficient-decrease constant of the line searches and the tilt
MAX_HALVINGS = 40       # halvings of the unit step before a descent stalls
TILT_STEPS = 50         # Newton steps of a tilt before it stalls
QUADRATIC_STEP = 1e-2   # amplitude t of the probes t v and t v / 2 of the second variation
SCAN_LANES = 10         # most lanes per minimize_stack of a multi-start run: its memory bound


class Descent(NamedTuple):
    """Where the lanes of a projected descent stopped, with their work counters (per lane)."""

    state: object           # the stack of final states
    value: list
    grad_norm: list
    status: list            # converged, unbounded-descent, stalled or max-iter
    iterations: list
    backtracks: list        # line-search halvings over the whole run
    newton_steps: list      # Newton steps of the retractions over the whole run


def descend(start, precond: np.ndarray, trial, retract, norm) -> Descent:
    """Preconditioned projected descent with Armijo backtracking, lanes in lockstep.

    The minimiser supplies three callbacks on stacks (leading axis: lane; a
    tuple of arrays or an array) and `lanes`, which lanes of the whole stack
    they hold: retract(lanes, candidate) -> (state, value, gradient,
    newton_steps) puts candidates on the constraint and the gauge;
    trial(lanes, state, delta) -> (candidate, value) moves coefficients by
    delta; norm(gradient) is the norm the stationarity test reads.  `start`
    is the first candidates, precond one divisor per lane (ValueError unless
    finite).  Each iteration steps a lane along -gradient / precond from a
    unit step, halving until its Armijo test holds within a rounding allowance
    of 1e-14 (1 + |value|); a lane whose MAX_HALVINGS halvings all fail is
    stalled.  A lane that stops keeps its state and counters as they were.
    """
    if not np.isfinite(precond).all():
        raise ValueError("descend: the preconditioner is not finite (alpha/2 L(L+1) overflows)")
    count = len(precond)
    state, value, grad, newton_steps = retract(slice(None), start)
    value, gnorm, newton_steps = value.tolist(), norm(grad).tolist(), newton_steps.tolist()
    status, iterations, backtracks = ["max-iter"] * count, [0] * count, [0] * count
    live = list(range(count))                       # the lanes still stepping
    for it in range(1, MAX_ITER + 1):
        for i in live:
            iterations[i] = it
            if gnorm[i] <= STAT_TOL or value[i] < BLOWUP_FLOOR:
                status[i] = "converged" if gnorm[i] <= STAT_TOL else "unbounded-descent"
        live = [i for i in live if status[i] == "max-iter"]
        if not live:
            break
        direction = -grad / precond                 # of every lane; stopped ones are not read
        slope = np.add.reduce((grad * direction).reshape(count, -1), axis=-1).tolist()
        pending = live
        for halving in range(MAX_HALVINGS):
            step = 0.5**halving                     # every pending lane has halved as often
            lanes = _lanes(pending, count)
            cand, cand_value = trial(lanes, _take(state, lanes), step * _take(direction, lanes))
            ok = [v <= value[i] + ARMIJO * step * slope[i] + 1e-14 * (1.0 + abs(value[i]))
                  for i, v in zip(pending, cand_value.tolist())]
            if any(ok):
                ids = [i for i, accepted in zip(pending, ok) if accepted]
                lanes = _lanes(ids, count)
                new, new_value, new_grad, steps = retract(
                    lanes, _take(cand, slice(None) if all(ok) else np.flatnonzero(ok)))
                state, grad = _put(state, lanes, new), _put(grad, lanes, new_grad)
                for i, v, g, n in zip(ids, new_value.tolist(), norm(new_grad).tolist(), steps.tolist()):
                    value[i], gnorm[i], newton_steps[i] = v, g, newton_steps[i] + n
            pending = [i for i, accepted in zip(pending, ok) if not accepted]
            for i in pending:
                backtracks[i] += 1
            if not pending:
                break
        else:
            for i in pending:
                status[i] = "stalled"
            live = [i for i in live if status[i] == "max-iter"]
    return Descent(state, value, gnorm, status, iterations, backtracks, newton_steps)


def minimize(alpha: float, u0: SphereField) -> MinimizeResult:
    """Projected descent for J_alpha on the center-of-mass constraint from u0: minimize_stack
    with one lane."""
    return minimize_stack([alpha], SphereField(u0.grid, u0.values[None]))[0]


def minimize_stack(alphas, u0: SphereField) -> list[MinimizeResult]:
    """minimize for a stack of starts u0 (values (lanes, n_mu, n_phi)), lane i at alphas[i]:
    one descend over all lanes, each lane's result as its own run would give it.

    Each iteration of descend: a gradient step preconditioned by zero_hessian
    (the second variation at u = 0, the constrained minimiser for
    alpha >= 2/3, so a full step is close to Newton's there), the degree-1
    tilt back onto the constraint, then the unit exp-mass shift.  The iterate
    is carried as its spectrum and its grid values together, so a line-search
    trial costs one synthesize and one exponential (for J), and an accepted
    step one analyze (of e^u, for the gradient).  The tilt, the shift, J and
    the gradient of the accepted step all read the moments of that one
    exponential, or of the tilt's last Newton iterate.  Descent past
    BLOWUP_FLOOR returns an unbounded-descent verdict instead of a minimiser
    (the expected outcome of probes below alpha = 1/2).
    """
    alphas = np.asarray(alphas, dtype=float)
    if u0.values.ndim != 3 or alphas.shape != u0.values.shape[:1]:
        raise ValueError("minimize_stack takes one alpha per lane of a (lanes, n_mu, n_phi) stack")
    if not (alphas > 0.0).all():
        raise ValueError("alpha must be positive")
    grid = u0.grid
    L = grid.lmax
    if L < 1:
        raise GridConfigError(f"band limit {L} has no degree-1 tilt onto the constraint")
    hessian = np.array([zero_hessian(a, L) for a in alphas])
    if not np.all(np.isfinite(u0.values)):
        raise InvalidFieldError("minimize: start has non-finite values")
    pts, weights, second = grid.node_points, grid.node_weights, grid.node_second
    stiffness = (alphas[:, None] / 2.0 * sphere.laplace_weights(L))[:, :, None]
    # x1, x2, x3 are the degree-1 harmonics (1, 1), (1, -1), (1, 0) over sqrt(3)
    tilt_slots = np.array([L + 1, L - 1, L])

    def moments(values):
        return exp_moments(values.reshape(len(values), -1), weights, pts)

    def trial(lanes, state, delta):
        coeffs = state[0] + delta
        values = sphere.synthesize(HarmonicSpectrum(L, coeffs), grid).values
        mom = moments(values)
        # J is shift-invariant
        return (coeffs, values, *mom), _j_value(coeffs, mom.log_mass, alphas[lanes])

    def retract(lanes, cand):
        """Tilt onto the constraint and shift to unit exp-mass: the states
        (coefficients, values), J, the gradients' coefficients, the Newton steps.

        The tilt starts from u's moments and returns those of the tilted
        field: the shift is their log-mass, the shifted state has log-mass
        zero, and e^u / int e^u dw is their density (both shift-invariant).
        """
        coeffs, values, *mom = cand
        c, mom, steps = tilt(values.reshape(len(values), -1), weights, pts, second, ExpMoments(*mom))
        values = values + np.matvec(pts, c).reshape(values.shape)
        coeffs[:, 1, tilt_slots] += c / np.sqrt(3.0)
        coeffs[:, 0, L] -= mom.log_mass
        # spectrum of -(alpha/2) lap u + 1 - e^u / int e^u dw
        grad = stiffness[lanes] * coeffs - sphere.analyze(
            SphereField(grid, mom.density.reshape(values.shape))).coeffs
        grad[:, 0, L] += 1.0
        state = (coeffs, values - mom.log_mass[:, None, None])
        return state, _j_value(coeffs, 0.0, alphas[lanes]), grad, steps

    def grad_norm(grad):
        with np.errstate(over="ignore"):    # a square past the float range reads inf: not stationary
            return np.sqrt(np.vecdot(*(grad.reshape(len(grad), -1),) * 2))

    spec = sphere.analyze(u0)
    values = sphere.synthesize(spec, grid).values           # the state is band-limited
    run = descend((spec.coeffs, values, *moments(values)), hessian[:, :, None], trial, retract,
                  grad_norm)
    u = SphereField(grid, run.state[1])
    com, mass = center_of_mass(u), np.exp(sphere.log_exp_mass(u))
    return [MinimizeResult(u=SphereField(grid, u.values[i]), j_value=float(run.value[i]),
                           grad_norm=float(run.grad_norm[i]),
                           com_norm=float(np.linalg.norm(com[i])), exp_mass=float(mass[i]),
                           iterations=int(run.iterations[i]), backtracks=int(run.backtracks[i]),
                           newton_steps=int(run.newton_steps[i]), status=run.status[i])
            for i in range(len(alphas))]


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


def random_starts(grid: SphereGrid, keys) -> SphereField:
    """The random starts of the stream keys as one stack of fields."""
    return SphereField(grid, np.stack([random_start(grid, key).values for key in keys]))


def in_stacks(run, count: int, lanes: int) -> list:
    """run(part) joined over the slices part of range(count), each of at most `lanes`
    lanes: every multi-start run steps so, and its memory does not grow with count."""
    runs = []
    for first in range(0, count, lanes):
        runs += run(slice(first, first + lanes))
    return runs


def minimize_starts(alphas, keys, grid: SphereGrid) -> list[MinimizeResult]:
    """minimize at alphas[i] from the random start of key keys[i], in_stacks of SCAN_LANES."""
    return in_stacks(lambda part: minimize_stack(alphas[part], random_starts(grid, keys[part])),
                     len(keys), SCAN_LANES)


def alpha_scan(alpha_list, trials: int, seed: int, grid: SphereGrid):
    """Multi-start minimisation summary per alpha.

    Returns rows (alpha, min_j, mean_iterations, n_failed); random streams are
    keyed by (seed, alpha index, trial index) so any execution order gives the
    same table.  Each alpha's trials run in_stacks of SCAN_LANES.  n_failed counts
    runs without a verdict (max-iter or stalled) and each trial of a stack that
    raises, not the other stacks' trials; unbounded descent is no failure.  min_j
    and mean_iterations cover every run that returns.
    """
    def stack(alphas, keys):
        try:
            return minimize_stack(alphas, random_starts(grid, keys))
        except NonConvergenceError:
            return [None] * len(keys)

    rows = []
    for ia, alpha in enumerate(alpha_list):
        alphas, keys = [float(alpha)] * trials, [(seed, ia, t) for t in range(trials)]
        ended = in_stacks(lambda part: stack(alphas[part], keys[part]), trials, SCAN_LANES)
        runs = [res for res in ended if res is not None]
        iters = [res.iterations for res in runs]
        rows.append({
            "alpha": float(alpha),
            "min_j": float(min((res.j_value for res in runs), default=np.inf)),
            "mean_iterations": float(np.mean(iters)) if iters else float("nan"),
            "n_failed": sum(res is None or res.status in ("max-iter", "stalled") for res in ended),
        })
    return rows


# ---------------------------------------------------------------------------
# second variation
# ---------------------------------------------------------------------------


# test modes of the second variation: degree, shape in (x1, x2, x3), alpha
# bracket of the threshold, exact threshold
_MODES = {"degree2": (2, lambda a, b, c: a * b, (0.25, 0.45), 1.0 / 3.0),
          "degree1": (1, lambda a, b, c: c, (0.9, 1.1), 1.0)}


def mode_threshold(grid: SphereGrid, mode: str) -> tuple[float, float, float]:
    """Zero crossing in alpha of the measured quadratic coefficient of J_alpha along
    x1 x2 ('degree2', exact 1/3) or x3 ('degree1', exact 1): the threshold, the
    coefficient at the bracket's midpoint and the exact value.  The battery and
    the CLI share these brackets.

    The coefficient along v (_quadratic_coefficient) is affine in alpha, so its
    values at the bracket's ends determine the root.  A grid whose band limit is
    below the mode's degree cannot hold the mode and raises GridConfigError.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r} (degree1, degree2)")
    degree, shape, (a0, a1), exact = _MODES[mode]
    if grid.lmax < degree:
        raise GridConfigError(f"band limit {grid.lmax} cannot hold the degree-{degree} mode")
    v = sphere.field_of(grid, shape)
    q0, q1 = _quadratic_coefficient(v, a0), _quadratic_coefficient(v, a1)
    return float(a0 - q0 * (a1 - a0) / (q1 - q0)), _quadratic_coefficient(v, 0.5 * (a0 + a1)), exact


def _quadratic_coefficient(v: SphereField, alpha: float) -> float:
    """j_alpha(t v)/t^2 at t = QUADRATIC_STEP and t/2, with one Richardson sweep on
    the O(t^2) tail."""
    q1, q2 = (j_alpha(t * v, alpha) / t**2 for t in (QUADRATIC_STEP, 0.5 * QUADRATIC_STEP))
    return float((4.0 * q2 - q1) / 3.0)
