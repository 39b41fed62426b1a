"""Radial shooting for the planar equation  v'' + v'/r + (1+r^2)^l e^v = 0.

The profile starts from a fourth-order series at a radius r0 that shrinks with
the scales e^{-s/2} and l^{-1/2} (the ODE is 0/0 at the origin) and is
integrated as one leg in t = log r, where the far field is asymptotically
linear, v ~ -beta t + c: V'' = -q(t, V) with q = r^2 (1+r^2)^l e^v, which has
no V' on the right.  One Cash-Karp kernel steps it in Nystrom form with q
inline, and measures the error of V against the tolerance itself, not
relative to |V|, which grows like beta t.  Two mass estimates are formed
along independent paths:

* beta_slope: the ODE state -V'(t) at the endpoint plus an analytic tail,
* beta_mass: the series' disk mass plus quadrature of q over the stored
  profile plus the same tail.  Between stored nodes V is the quintic Hermite
  interpolant of V, V' and V'' (V'' = -q at the node), integrated by
  three-point Gauss per interval; both are sixth order in the node spacing,
  above the integrator's fifth, so the adaptive steps chosen for the ODE
  tolerance also resolve the mass and no step cap serves the quadrature.

Their agreement is the accuracy certificate for a shot.  The shot keeps the
weights it sums for beta_mass; beta_prime differentiates both estimators in s
along the Jacobi field w = dv/ds, which it integrates after the shot on the
shot's own nodes and those weights.  solutions_at_beta hands shots with
(beta, beta') to rootsearch.search_curve, which samples the mass curve
adaptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .rootsearch import RootSearch, search_curve


def _rk_adaptive(l, x1, tol, store):
    """Cash-Karp 5(4) embedded pair for the radial equation in t = log r.

    With V(t) = v(e^t) and W = V', the equation times r^2 reads
    V'' = -q(t, V), q = exp((2+2l) t + l log1p(e^{-2t}) + V), whose right-hand
    side does not read W.  It is stepped in the Nystrom form of the pair:
    stage i reads V + h (c_i W + h (A^2 k)_i), the step adds h (W + h (bA) k)
    to V and h (b k) to W, and the V error is h^2 |(eA) k|, so the loop forms
    no W stage sums and takes the steps of the first-order form.  It is one
    flat scalar loop with the six stages unrolled and q inline, and every
    stage sum keeps the left-to-right order of a generic tableau loop, to
    which it is bit-identical (kept as a test reference).  Stage 5 sits at
    t + h, the next node, so its log weight is carried into the next step's
    stage 1.  The error of V is measured against tol and the error of W
    against tol (1 + |W|): V falls like -beta t to about -100, and an error
    relative to |V| would loosen the step where the far field builds c_asym
    and the W the analytic tail starts from.  The leg starts from the last
    node of store, the shot's node lists (t, V, W), and appends its accepted
    nodes there; its first step is 1e-2 and its step cap _HMAX.  Returns the
    number of rejected steps.
    """
    # tableau (Cash & Karp 1990); the zero weights b2, b5 and e2 are omitted
    c2, c3, c4, c6 = 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 7.0 / 8.0     # c5 = 1
    b1, b3, b4, b6 = 37.0 / 378.0, 250.0 / 621.0, 125.0 / 594.0, 512.0 / 1771.0
    e1, e3, e4, e5, e6 = (-277.0 / 64512.0, 6925.0 / 370944.0, -6925.0 / 202752.0,
                          -277.0 / 14336.0, 277.0 / 7084.0)
    # Nystrom coefficients A^2, bA and eA (zero entries omitted)
    q31 = 9.0 / 200.0
    q41, q42 = -9.0 / 100.0, 27.0 / 100.0
    q51, q52, q53 = 25.0 / 36.0, -7.0 / 4.0, 14.0 / 9.0
    q61, q62, q63, q64 = (4949.0 / 27648.0, -805.0 / 4096.0, 8855.0 / 27648.0,
                          8855.0 / 110592.0)
    ba1, ba3, ba4, ba5 = 11.0 / 108.0, 50.0 / 189.0, 25.0 / 216.0, 1.0 / 56.0
    ea1, ea3, ea4, ea5 = (-277.0 / 73728.0, 1385.0 / 129024.0, -1385.0 / 147456.0,
                          277.0 / 114688.0)
    exp, log1p = math.exp, math.log1p
    two_l2 = 2.0 + 2.0 * l
    add_x, add_v, add_p = (nodes.append for nodes in store)
    x, v, p = (nodes[-1] for nodes in store)
    steps = rejected = 0
    h, hmax = 1e-2, _HMAX
    g1 = two_l2 * x + l * log1p(exp(-2.0 * x))
    while x < x1:
        if hmax < h:
            h = hmax
        if x + h > x1:
            h = x1 - x
        # stage j is at xj; its W slope kj is -exp(the log weight at xj + its V)
        k1 = -exp(g1 + v)
        x2 = x + c2 * h
        k2 = -exp(two_l2 * x2 + l * log1p(exp(-2.0 * x2)) + (v + h * (c2 * p)))
        x3 = x + c3 * h
        k3 = -exp(two_l2 * x3 + l * log1p(exp(-2.0 * x3))
                  + (v + h * (c3 * p + h * (q31 * k1))))
        x4 = x + c4 * h
        k4 = -exp(two_l2 * x4 + l * log1p(exp(-2.0 * x4))
                  + (v + h * (c4 * p + h * (q41 * k1 + q42 * k2))))
        x5 = x + h
        g5 = two_l2 * x5 + l * log1p(exp(-2.0 * x5))
        k5 = -exp(g5 + (v + h * (p + h * (q51 * k1 + q52 * k2 + q53 * k3))))
        x6 = x + c6 * h
        k6 = -exp(two_l2 * x6 + l * log1p(exp(-2.0 * x6))
                  + (v + h * (c6 * p + h * (q61 * k1 + q62 * k2 + q63 * k3 + q64 * k4))))
        err_v = abs(h * (h * (ea1 * k1 + ea3 * k3 + ea4 * k4 + ea5 * k5))) / tol
        err_p = (abs(h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6))
                 / (tol * (1.0 + abs(p))))
        err = err_p if err_p > err_v else err_v
        if err <= 1.0:
            v = v + h * (p + h * (ba1 * k1 + ba3 * k3 + ba4 * k4 + ba5 * k5))
            p = p + h * (b1 * k1 + b3 * k3 + b4 * k4 + b6 * k6)
            x, g1 = x5, g5
            add_x(x)
            add_v(v)
            add_p(p)
        else:
            rejected += 1
        fac = 0.9 * (err ** -0.2) if err > 0 else 5.0
        fac = fac if fac > 0.2 else 0.2
        h *= fac if fac < 5.0 else 5.0
        steps += 1
        if steps > MAX_STEPS:
            raise NonConvergenceError("adaptive integrator exceeded the step budget", best=x)
    return rejected


@dataclass
class RadialSolution:
    l: float
    s: float
    r_grid: np.ndarray
    values: np.ndarray
    beta_mass: float
    beta_slope: float
    c_asym: float
    verdict: str            # "converged" or "unresolved"
    rejected_steps: int     # accepted steps are len(r_grid) - 1
    nodes: tuple            # accepted (t = log r, V, W = dV/dt) from t0 = log r0
    # (c, cq, h): q = r^2 (1+r^2)^l e^v at the nodes and at the three Gauss
    # nodes of every interval (shape (3, intervals)), and the interval widths.
    # beta_mass sums them and beta_prime reads them
    weights: tuple


# three-point Gauss-Legendre rule on [0, 1]
_GAUSS3_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _quintic_hermite_basis(q: np.ndarray) -> np.ndarray:
    """Quintic Hermite basis on [0, 1]; rows weight v_a, h v'_a, h^2 v''_a,
    v_b, h v'_b, h^2 v''_b in that order, columns follow q."""
    q2, q3 = q * q, q**3
    q4, q5 = q3 * q, q3 * q2
    return np.array([1.0 - 10.0 * q3 + 15.0 * q4 - 6.0 * q5,
                     q - 6.0 * q3 + 8.0 * q4 - 3.0 * q5,
                     0.5 * (q2 - 3.0 * q3 + 3.0 * q4 - q5),
                     10.0 * q3 - 15.0 * q4 + 6.0 * q5,
                     -4.0 * q3 + 7.0 * q4 - 3.0 * q5,
                     0.5 * (q3 - 2.0 * q4 + q5)])


_GAUSS3_QUINTIC = _quintic_hermite_basis(_GAUSS3_NODES)[:, :, None]    # (basis, node, 1)


def _hermite_at(h: np.ndarray, v: np.ndarray, dv: np.ndarray, d2v: np.ndarray) -> np.ndarray:
    """Quintic Hermite interpolant of v at the three Gauss nodes of every interval.

    h holds the interval widths, and v, dv, d2v are node arrays with dv and d2v
    the first and second derivatives of v in x.  The result has shape
    (3, intervals).
    """
    h2 = h * h
    b0, b1, b2, b3, b4, b5 = _GAUSS3_QUINTIC
    # broadcast sums, not matrix products: a first BLAS call maps its buffers,
    # about 0.25 MB of peak RSS in a process that only shoots
    return (b0 * v[:-1] + b1 * (h * dv[:-1]) + b2 * (h2 * d2v[:-1])
            + b3 * v[1:] + b4 * (h * dv[1:]) + b5 * (h2 * d2v[1:]))


def _q(l, t, v):
    """r^2 (1+r^2)^l e^v = -V'' in t = log r."""
    return np.exp((2.0 + 2.0 * l) * t + l * np.log1p(np.exp(-2.0 * t)) + v)


# A decay rate at t_cap below this many ODE tolerances is unresolved.
_RATE_RESOLUTION = 100.0

# Step cap of the integrator.  The quintic mass rule needs no cap of its own,
# and the absolute v error keeps the far field accurate.  This cap only keeps
# the step at the leg's unit scale: at 1.0 the far-field tests against
# r_max = 1e80 use 0.94 of their bound (0.26 at a cap of 0.12, 0.98 at 1.5).
_HMAX = 1.0
MAX_STEPS = 200000      # steps, accepted or rejected, of one call before _rk_adaptive gives up
TOL = 1e-10             # error tolerance of the adaptive integrator
# r0^6 = _START_ERROR TOL / M^3 with M = max(1, e^s, |l|), so r0 = 0.01 / sqrt(M)
# at TOL = 1e-10: the series' first omitted term a6 r0^6 stays below TOL / 2600,
# since |a6| <= M^3 / 26
_START_ERROR = 1e-2


R_MAX_FLOOR = 50.0      # an r_max below this cannot anchor the asymptote


def finite_start(s: float) -> bool:
    """Whether s, e^s and e^s e^s / 4 are finite: the scale of the start series and
    the size of its r^4 coefficient, whose overflow would start the shot from NaN."""
    try:
        es = math.exp(s)
    except OverflowError:
        return False
    return math.isfinite(s) and es * (es / 4.0) < math.inf


def finite_weight(l: float) -> bool:
    """Whether l is nonnegative and 2^l, the weight (1+r^2)^l at r = 1, is finite."""
    try:
        return 0.0 <= l and math.isfinite(2.0**l)
    except OverflowError:
        return False


def mass_window(l: float) -> tuple[float, float]:
    """Edges, in increasing order, of the Pohozaev window of K = (1+|y|^2)^l: int (y.grad K) e^v
    = pi beta (beta - 4) puts a finite mass beta strictly between them, and at 4 when l = 0.

    A shot tells its mass from an edge only beyond _RATE_RESOLUTION * TOL, an absolute
    margin: for 0 < l below about 5e-9 the window is narrower than twice it and every
    shot reads unresolved, and at large l, where the mass error grows with 4(1 + l)
    (2.7e-8 at l near 1024), a mass within that error of an edge can still read converged."""
    edge = 4.0 * (1.0 + l)
    return min(4.0, edge), max(4.0, edge)


def shoot(l: float, s: float, r_max: float = 1e6) -> RadialSolution:
    """Integrate the radial problem with v(0) = s, v'(0) = 0 out to r_max."""
    if not finite_weight(l):
        raise ValueError(f"l = {l}: l must be nonnegative and 2^l finite (l below 1024; "
                         "the l < 0 regime is out of scope)")
    if not finite_start(s):
        raise ValueError(f"s = {s}: s, e^s and e^s e^s / 4 must be finite (s below 355.58)")
    if not R_MAX_FLOOR <= r_max < math.inf:
        raise ValueError(f"r_max = {r_max} must be finite and at least {R_MAX_FLOOR}")
    return _integrate(l, s, r_max)


def _integrate(l: float, s: float, r_max: float) -> RadialSolution:
    """shoot without its domain checks: the equation is defined for every real
    l, and l < 0 is (1+r^2)^l with the sign of l flipped, which the tests use
    as a mutation of the weight."""
    es = math.exp(s)
    a2 = -es / 4.0
    a4 = -es * (l + a2) / 16.0
    r0 = (_START_ERROR * TOL) ** (1.0 / 6.0) / math.sqrt(max(1.0, es, abs(l)))

    # V = v(r0) and W = r0 v'(r0) from the series; the leg ends at r_max, or is
    # extended in steps of 10 in t while the decay rate has not cleanly emerged
    # (slow saturation toward beta = 2l+2 happens for strongly negative or large s)
    xs, vs, ps = store = ([math.log(r0)], [s + a2 * r0**2 + a4 * r0**4],
                          [2.0 * a2 * r0**2 + 4.0 * a4 * r0**4])
    t_cap = max(math.log(r_max), 60.0)
    rejected = _rk_adaptive(l, math.log(r_max), TOL, store)
    while -(2.0 + 2.0 * l + ps[-1]) <= 0.1 and xs[-1] < t_cap:
        rejected += _rk_adaptive(l, min(xs[-1] + 10.0, t_cap), TOL, store)
    t_max, V_end, W_end = xs[-1], vs[-1], ps[-1]

    # the mass integrand q at the nodes and at the Gauss nodes, with V from its
    # quintic Hermite interpolant (V'' = -q at the nodes)
    x, v, p = np.array(store)
    h = x[1:] - x[:-1]
    c = _q(l, x, v)
    cq = _q(l, x[:-1] + _GAUSS3_NODES[:, None] * h, _hermite_at(h, v, p, -c))

    rate = -(2.0 + 2.0 * l + W_end)
    q_end = float(c[-1])
    # d log q/dt = -rate - 2l/(1 + e^{2t}) <= -rate and the rate only grows
    # (W' = -q < 0), so every radial mass is finite; a rate not above
    # _RATE_RESOLUTION * TOL at t_cap says only that the far field was not
    # reached above the integration error (about 1.5 TOL in W by t = 60).
    # Beyond t_max the far field solves W' = -q, q' = -rate q (dropping the
    # l log1p(e^{-2t}) factor), so rate^2 + 2q is conserved: the rate settles
    # at R = sqrt(rate^2 + 2 q_end) even when W has not settled by r_max, the
    # mass still to come is R - rate (formed as 2 q_end / (R + rate) against
    # cancellation when rate > 0), and V + beta t gains 2 log(2R / (R + rate)).
    settled = math.sqrt(rate * rate + 2.0 * q_end)
    tail = 2.0 * q_end / (settled + rate) if rate > 0.0 else settled - rate
    beta_slope = -W_end + tail
    mass = es * (r0**2 / 2.0 + (l + a2) * r0**4 / 4.0)
    beta_mass = mass + float(np.add.reduce((_GAUSS3_WEIGHTS[:, None] * h) * cq, axis=None)) + tail
    c_asym = (V_end + beta_slope * t_max + 2.0 * math.log1p(tail / (settled + rate))
              if rate > 0.0 else math.nan)
    # for l > 0 every finite mass lies strictly inside (4, upper), and one within
    # the rate's resolution of an edge is not told from it: at l = 1 the rate at
    # t_cap and beta - 4 are one quantity.  No l < 0 mass passes.  The margin is
    # absolute, so it is too wide for 0 < l < 5e-9 and too narrow at large l
    # (see mass_window).
    _, upper = mass_window(l)
    resolution = _RATE_RESOLUTION * TOL
    inside = l == 0.0 or 4.0 + resolution < beta_mass < upper - resolution
    verdict = "converged" if rate > resolution and inside else "unresolved"

    return RadialSolution(l=l, s=s, r_grid=np.exp(x), values=v,
                          beta_mass=float(beta_mass), beta_slope=float(beta_slope),
                          c_asym=float(c_asym), verdict=verdict, rejected_steps=rejected,
                          nodes=(x, v, p), weights=(c, cq, h))


# Butcher matrix of the three-stage Gauss collocation method (order 6) on the
# nodes _GAUSS3_NODES with weights _GAUSS3_WEIGHTS; products by broadcast sums,
# as in _hermite_at
_SQRT15 = math.sqrt(15.0)
_GAUSS3_A = np.array([[5.0 / 36.0, 2.0 / 9.0 - _SQRT15 / 15.0, 5.0 / 36.0 - _SQRT15 / 30.0],
                      [5.0 / 36.0 + _SQRT15 / 24.0, 2.0 / 9.0, 5.0 / 36.0 - _SQRT15 / 24.0],
                      [5.0 / 36.0 + _SQRT15 / 30.0, 2.0 / 9.0 + _SQRT15 / 15.0, 5.0 / 36.0]])
_GAUSS3_A2 = (_GAUSS3_A[:, :, None] * _GAUSS3_A[None, :, :]).sum(axis=1)
_GAUSS3_BA = (_GAUSS3_WEIGHTS[:, None] * _GAUSS3_A).sum(axis=0)


def _jacobi_at_nodes(h, c, w0, z0):
    """Solution (Y, Y') of Y'' + c Y = 0 at the nodes from (w0, z0).

    h holds the interval widths and c the coefficient at the three Gauss
    nodes of every interval, shape (3, intervals).  Gauss collocation gives
    each interval's 2x2 propagator (one batched 3x3 solve for the stage
    derivatives m_j = Y''(x_j) of both columns), and the propagators are
    chained from the first node.
    """
    hh = h[:, None, None]
    c = c.T[:, :, None]                                            # (interval, stage, 1)
    # m = -c (Y + h G Y' + h^2 A^2 m)
    lhs = np.eye(3) + c * hh * hh * _GAUSS3_A2
    rhs = np.concatenate([-c, -c * hh * _GAUSS3_NODES[:, None]], axis=2)
    m = np.linalg.solve(lhs, rhs)                                  # columns: w0 = 1, z0 = 1
    bam = (_GAUSS3_BA[:, None] * m).sum(axis=1)
    bm = (_GAUSS3_WEIGHTS[:, None] * m).sum(axis=1)
    # w1 = w + h z + h^2 BA m,  z1 = z + h B m
    p11, p12 = 1.0 + h * h * bam[:, 0], h + h * h * bam[:, 1]
    p21, p22 = h * bm[:, 0], 1.0 + h * bm[:, 1]
    ws, zs = [w0], [z0]
    wi, zi = w0, z0
    for a, b, e, f in zip(p11.tolist(), p12.tolist(), p21.tolist(), p22.tolist()):
        wi, zi = a * wi + b * zi, e * wi + f * zi
        ws.append(wi)
        zs.append(zi)
    return np.array(ws), np.array(zs)


def beta_prime(sol: RadialSolution) -> tuple[float, float]:
    """d(beta)/ds of a converged shot as (slope form, mass form).

    The Jacobi field w = dv/ds solves w'' + w'/r + (1+r^2)^l e^v w = 0 with
    w(0) = 1, w'(0) = 0; in t = log r, Y(t) = w(e^t) solves Y'' = -q Y from
    Y(t0) = w(r0) and Y'(t0) = r0 w'(r0), taken from the series.  It is
    integrated after the shot, on the shot's own accepted nodes, by Gauss
    collocation on the interval widths, Gauss nodes and weights that the
    shot's mass rule formed (sol.weights; both sixth order).  The two forms
    differentiate the two mass estimators: -Y'(t_max) plus the derivative of
    the closed-form tail, and the series term plus the quintic Hermite
    quadrature of q Y plus the same tail derivative.  Their agreement
    certifies the slope.
    """
    if sol.verdict != "converged":
        raise ValueError(f"beta_prime needs a converged shot, not {sol.verdict!r}")
    l = sol.l
    _, _, W = sol.nodes
    es = math.exp(sol.s)
    a2 = -es / 4.0
    da4 = -es * (l + 2.0 * a2) / 16.0        # d/ds of the series' r^4 coefficient
    r0 = float(sol.r_grid[0])

    c, cq, h = sol.weights
    w, z = _jacobi_at_nodes(h, cq, 1.0 + a2 * r0**2 + da4 * r0**4,
                            2.0 * a2 * r0**2 + 4.0 * da4 * r0**4)
    wq = _hermite_at(h, w, z, -c * w)
    mass = es * (r0**2 / 2.0 + (l + 2.0 * a2) * r0**4 / 4.0)
    mass += float(np.add.reduce((_GAUSS3_WEIGHTS[:, None] * h) * cq * wq, axis=None))

    # tail = R - rate with R = sqrt(rate^2 + 2 q_end): d tail = (dq_end - tail d rate) / R,
    # where d rate = -Y'(t_max) and dq_end = q_end Y(t_max)
    rate = -(2.0 + 2.0 * l + float(W[-1]))
    q_end = float(c[-1])
    settled = math.sqrt(rate * rate + 2.0 * q_end)
    tail = 2.0 * q_end / (settled + rate)
    d_tail = (q_end * float(w[-1]) + tail * float(z[-1])) / settled
    return -float(z[-1]) + d_tail, mass + d_tail


def beta_curve(l: float, s_min: float, s_max: float, n: int, r_max: float = 1e6):
    """Equally spaced shots; rows (s, beta, verdict)."""
    if n < 2:
        raise ValueError("need at least two samples")
    rows = []
    for s in np.linspace(s_min, s_max, n):
        sol = shoot(l, float(s), r_max=r_max)
        rows.append({"s": float(s), "beta": sol.beta_mass, "verdict": sol.verdict})
    return rows


def solutions_at_beta(l: float, beta_targets, s_bracket: tuple[float, float]) -> RootSearch:
    """Radial profiles of each target mass inside the bracket:
    rootsearch.search_curve on default shots, with beta' from beta_prime (the
    mass form, the slope form's gap to it as its error)."""
    def curve(s: float):
        sol = shoot(l, s)
        if sol.verdict != "converged":
            return sol.verdict, math.nan, math.nan, math.nan
        slope_form, mass_form = beta_prime(sol)
        return sol.verdict, sol.beta_mass, mass_form, abs(slope_form - mass_form)

    return search_curve(curve, beta_targets, s_bracket)
