"""Radial shooting for the planar equation  v'' + v'/r + (1+r^2)^l e^v = 0.

The profile starts from a fourth-order series at r0 = 1e-4 (the ODE is 0/0 at
the origin), integrates in r up to r = 1, then switches to t = log r where the
far field is asymptotically linear, v ~ -beta t + c.  Two mass estimates are
formed along independent paths:

* beta_slope: the ODE state -r v'(r) at the endpoint plus an analytic tail,
* beta_mass: quadrature of (1+r^2)^l e^v over the stored profile plus the same
  tail.  Between stored nodes v is the quintic Hermite interpolant of v, v'
  and v'' (v'' is the ODE right-hand side at the node), integrated by
  three-point Gauss per interval; both are sixth order in the node spacing,
  above the integrator's fifth, so the adaptive steps chosen for the ODE
  tolerance also resolve the mass and no step cap serves the quadrature.

Their agreement is the accuracy certificate for a shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError


def _rk_adaptive(f, x0, v, p, x1, tol, h0, store_x, store_v, store_p,
                 hmax=np.inf, max_steps=200000):
    """Cash-Karp 5(4) embedded pair for the 2-state system (v, p)' = f(x, v, p).

    One flat scalar step with the six stages unrolled; every stage sum keeps
    the left-to-right order of the generic tableau loop, so the accepted steps
    are bit-identical to it.  Accepted nodes are appended to store_x/v/p.
    Returns (v, p, rejected_steps).  hmax caps the step size; shoot sets it on
    the log-radial leg only, where it bounds the error accumulated over the
    long far-field integration (c_asym and the W the analytic tail starts
    from), not the error of the mass quadrature.
    """
    # tableau (Cash & Karp 1990); the zero weights b2, b5 and e2 are omitted
    c2, c3, c4, c5, c6 = 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0
    a21 = 1.0 / 5.0
    a31, a32 = 3.0 / 40.0, 9.0 / 40.0
    a41, a42, a43 = 3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0
    a51, a52, a53, a54 = -11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0
    a61, a62, a63, a64, a65 = (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0,
                               44275.0 / 110592.0, 253.0 / 4096.0)
    b1, b3, b4, b6 = 37.0 / 378.0, 250.0 / 621.0, 125.0 / 594.0, 512.0 / 1771.0
    e1, e3, e4, e5, e6 = (-277.0 / 64512.0, 6925.0 / 370944.0, -6925.0 / 202752.0,
                          -277.0 / 14336.0, 277.0 / 7084.0)
    x, h = x0, h0
    steps = rejected = 0
    while x < x1:
        if hmax < h:
            h = hmax
        if x + h > x1:
            h = x1 - x
        kv1, kp1 = f(x, v, p)
        kv2, kp2 = f(x + c2 * h, v + h * (a21 * kv1), p + h * (a21 * kp1))
        kv3, kp3 = f(x + c3 * h, v + h * (a31 * kv1 + a32 * kv2),
                     p + h * (a31 * kp1 + a32 * kp2))
        kv4, kp4 = f(x + c4 * h, v + h * (a41 * kv1 + a42 * kv2 + a43 * kv3),
                     p + h * (a41 * kp1 + a42 * kp2 + a43 * kp3))
        kv5, kp5 = f(x + c5 * h, v + h * (a51 * kv1 + a52 * kv2 + a53 * kv3 + a54 * kv4),
                     p + h * (a51 * kp1 + a52 * kp2 + a53 * kp3 + a54 * kp4))
        kv6, kp6 = f(x + c6 * h,
                     v + h * (a61 * kv1 + a62 * kv2 + a63 * kv3 + a64 * kv4 + a65 * kv5),
                     p + h * (a61 * kp1 + a62 * kp2 + a63 * kp3 + a64 * kp4 + a65 * kp5))
        err_v = (abs(h * (e1 * kv1 + e3 * kv3 + e4 * kv4 + e5 * kv5 + e6 * kv6))
                 / (tol * (1.0 + abs(v))))
        err_p = (abs(h * (e1 * kp1 + e3 * kp3 + e4 * kp4 + e5 * kp5 + e6 * kp6))
                 / (tol * (1.0 + abs(p))))
        err = err_p if err_p > err_v else err_v
        if err <= 1.0:
            v = v + h * (b1 * kv1 + b3 * kv3 + b4 * kv4 + b6 * kv6)
            p = p + h * (b1 * kp1 + b3 * kp3 + b4 * kp4 + b6 * kp6)
            x += h
            store_x.append(x)
            store_v.append(v)
            store_p.append(p)
        else:
            rejected += 1
        fac = 0.9 * (err ** -0.2) if err > 0 else 5.0
        fac = fac if fac > 0.2 else 0.2
        h *= fac if fac < 5.0 else 5.0
        steps += 1
        if steps > max_steps:
            raise NonConvergenceError("adaptive integrator exceeded the step budget", best=x)
    return v, p, rejected


@dataclass
class RadialSolution:
    l: float
    s: float
    r_grid: np.ndarray
    values: np.ndarray
    beta_mass: float
    beta_slope: float
    c_asym: float
    verdict: str            # "converged" or "divergent-mass"
    rejected_steps: int     # accepted steps are len(r_grid) - 1

    @property
    def beta(self) -> float:
        return self.beta_mass


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


def _gauss3_hermite_mass(x: np.ndarray, v: np.ndarray, dv: np.ndarray, d2v: np.ndarray,
                         integrand) -> float:
    """Integral of integrand(x, v(x)) using quintic Hermite interpolation of v.

    x, v, dv, d2v are node arrays with dv and d2v the first and second
    derivatives of v in the x variable; three-point Gauss per stored interval.
    Interpolation and rule are both sixth order in the node spacing.
    """
    h = np.diff(x)
    h2 = h * h
    # broadcast sums, not matrix products: a first BLAS call maps its buffers,
    # about 0.25 MB of peak RSS in a process that only shoots
    vq = sum(b * node for b, node in zip(_GAUSS3_QUINTIC, (
        v[:-1], h * dv[:-1], h2 * d2v[:-1], v[1:], h * dv[1:], h2 * d2v[1:])))
    xq = x[:-1] + _GAUSS3_NODES[:, None] * h            # (Gauss node, interval)
    return float(np.sum(_GAUSS3_WEIGHTS[:, None] * h * integrand(xq, vq)))


# Step cap on the log-radial leg.  The quintic mass rule needs no cap of its
# own; this one bounds the global error of the long far-field integration,
# i.e. of c_asym and of the W that the analytic tail starts from.
_HMAX_OUTER = 0.12


def shoot(l: float, s: float, r_max: float = 1e6, tol: float = 1e-10) -> RadialSolution:
    """Integrate the radial problem with v(0) = s, v'(0) = 0 out to r_max."""
    if l < 0:
        raise ValueError("l must be nonnegative (the l < 0 regime is out of scope)")
    if r_max < 50:
        raise ValueError("r_max below 50 cannot anchor the asymptote")
    es = math.exp(s)
    a2 = -es / 4.0
    a4 = -es * (l + a2) / 16.0
    # keep the series truncation error under control for concentrated starts
    r0 = min(1e-4, 0.01 * math.exp(-max(s, 0.0) / 2.0))

    exp = math.exp

    def f_inner(r, v, p):
        return p, -p / r - (1.0 + r * r) ** l * exp(v)

    rs = [r0]
    vs = [s + a2 * r0**2 + a4 * r0**4]
    ps = [2.0 * a2 * r0 + 4.0 * a4 * r0**3]
    v, p, rejected = _rk_adaptive(f_inner, r0, vs[0], ps[0], 1.0, tol, min(1e-3, r0),
                                  rs, vs, ps)

    t_max = math.log(r_max)
    log1p = math.log1p
    two_l2 = 2.0 + 2.0 * l

    def f_outer(t, v, w):
        return w, -exp(two_l2 * t + l * log1p(exp(-2.0 * t)) + v)

    ts, Vs, Ws = [0.0], [v], [p]       # W = r v' = v' at r = 1
    V_end, W_end, rej = _rk_adaptive(f_outer, 0.0, v, p, t_max, tol, 1e-2, ts, Vs, Ws,
                                     hmax=_HMAX_OUTER)
    rejected += rej

    # extend when the decay rate has not cleanly emerged at r_max (slow
    # saturation toward beta = 2l+2 happens for strongly negative or large s)
    t_cap = max(t_max, 60.0)
    while -(2.0 + 2.0 * l + W_end) <= 0.1 and ts[-1] < t_cap:
        t_next = min(ts[-1] + 10.0, t_cap)
        V_end, W_end, rej = _rk_adaptive(f_outer, ts[-1], V_end, W_end, t_next, tol, 1e-2,
                                         ts, Vs, Ws, hmax=_HMAX_OUTER)
        rejected += rej
    t_max = ts[-1]

    rate = -(2.0 + 2.0 * l + W_end)
    q_end = math.exp((2.0 + 2.0 * l) * t_max + l * math.log1p(math.exp(-2.0 * t_max)) + V_end)
    # d log q/dt = -rate - 2l/(1 + e^{2t}) <= -rate and the rate only grows
    # (W' = -q < 0), so any positive rate proves the mass finite
    if rate <= 0.0:
        verdict = "divergent-mass"
        beta_slope = -W_end
        beta_mass = -W_end
        c_asym = float("nan")
    else:
        verdict = "converged"
        # Beyond t_max the far field solves W' = -q, q' = -rate q (dropping the
        # l log1p(e^{-2t}) factor), so rate^2 + 2q is conserved: the rate
        # settles at R = sqrt(rate^2 + 2 q_end) even when W has not settled by
        # r_max, the mass still to come is R - rate (q_end / rate to first
        # order; formed as 2 q_end / (R + rate) to avoid cancellation), and
        # V + beta t gains 2 log(2R / (R + rate)).
        settled = math.sqrt(rate * rate + 2.0 * q_end)
        tail = 2.0 * q_end / (settled + rate)
        beta_slope = -W_end + tail

        def weight(r, v):       # (1+r^2)^l e^v = -(v'' + v'/r) on the inner leg
            return (1.0 + r * r) ** l * np.exp(v)

        def q_of(t, v):         # r^2 (1+r^2)^l e^v = -V'' on the outer leg
            return np.exp(two_l2 * t + l * np.log1p(np.exp(-2.0 * t)) + v)

        r_in, v_in, p_in = np.asarray(rs), np.asarray(vs), np.asarray(ps)
        t_out, v_out = np.asarray(ts), np.asarray(Vs)
        mass = es * (r0**2 / 2.0 + (l + a2) * r0**4 / 4.0)
        mass += _gauss3_hermite_mass(r_in, v_in, p_in, -p_in / r_in - weight(r_in, v_in),
                                     lambda r, v: weight(r, v) * r)
        mass += _gauss3_hermite_mass(t_out, v_out, np.asarray(Ws), -q_of(t_out, v_out), q_of)
        mass += tail
        beta_mass = mass
        c_asym = V_end + beta_slope * t_max + 2.0 * math.log1p(tail / (settled + rate))

    r_grid = np.concatenate([np.asarray(rs), np.exp(np.asarray(ts[1:]))])
    values = np.concatenate([vs, Vs[1:]])
    return RadialSolution(l=l, s=s, r_grid=r_grid, values=values,
                          beta_mass=float(beta_mass), beta_slope=float(beta_slope),
                          c_asym=float(c_asym), verdict=verdict, rejected_steps=rejected)


def beta_curve(l: float, s_min: float, s_max: float, n: int,
               r_max: float = 1e6, tol: float = 1e-10):
    """Equally spaced shots; rows (s, beta, verdict)."""
    if n < 2:
        raise ValueError("need at least two samples")
    rows = []
    for s in np.linspace(s_min, s_max, n):
        sol = shoot(l, float(s), r_max=r_max, tol=tol)
        rows.append({"s": float(s), "beta": sol.beta_mass, "verdict": sol.verdict})
    return rows


@dataclass
class RootSearch:
    """Roots of beta(s) = target on one shared sampling of the curve."""

    roots: list[list[float]]            # one list per target, in target order
    beta_range: tuple[float, float]     # min and max beta of the converged samples
    divergent_samples: int              # samples whose verdict is not "converged"


def _brent(f, a: float, b: float, fa: float, fb: float, tol: float, max_iter: int = 100) -> float:
    """Root of f in [a, b] given f(a) f(b) < 0 (Brent 1973, ch. 4, as in brentq.c).

    Inverse quadratic interpolation or secant steps, falling back to bisection
    whenever a step would not shrink the bracket fast enough; stops once the
    bracket is narrower than tol.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk, fblk, spre, scur = a, fa, 0.0, 0.0
    for _ in range(max_iter):
        if fpre * fcur < 0.0:
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (tol + 4.0 * np.finfo(float).eps * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else None
        if stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise NonConvergenceError("Brent refinement exceeded its iteration budget", best=xcur,
                              residual=fcur)


def solutions_at_beta(l: float, beta_targets, s_bracket: tuple[float, float],
                      tol: float = 1e-8, n_samples: int = 129,
                      r_max: float = 1e6, ode_tol: float = 1e-10) -> RootSearch:
    """All s with beta(s) = target inside the bracket, for every target.

    The curve is sampled once through beta_curve (129 points guard against
    missing near-tangent double roots) and the samples are shared by all
    targets; every sign change is refined with Brent to tol.  Intervals with a
    divergent-mass endpoint are not searched; their count is reported.
    """
    rows = beta_curve(l, s_bracket[0], s_bracket[1], n_samples, r_max=r_max, tol=ode_tol)
    ss = [row["s"] for row in rows]
    betas = np.array([row["beta"] if row["verdict"] == "converged" else np.nan for row in rows])

    def beta_at(s):
        sol = shoot(l, s, r_max=r_max, tol=ode_tol)
        if sol.verdict != "converged":
            raise NonConvergenceError(f"shot at s={s} diverged inside a converged bracket",
                                      best=s)
        return sol.beta_mass

    roots = []
    for target in beta_targets:
        vals = betas - target
        found = []
        for i in range(n_samples - 1):
            f0, f1 = vals[i], vals[i + 1]
            if np.isnan(f0) or np.isnan(f1):
                continue
            if f0 == 0.0:
                found.append(ss[i])
            elif f0 * f1 < 0.0:
                found.append(_brent(lambda s: beta_at(s) - target, ss[i], ss[i + 1],
                                    float(f0), float(f1), tol))
        if vals[-1] == 0.0:
            found.append(ss[-1])
        roots.append(found)
    converged = betas[~np.isnan(betas)]
    beta_range = ((float(converged.min()), float(converged.max())) if converged.size
                  else (math.nan, math.nan))
    return RootSearch(roots=roots, beta_range=beta_range,
                      divergent_samples=int(np.isnan(betas).sum()))


def beta_slope_at(l: float, s: float, h: float = 1e-4, **kw) -> float:
    """Numerical d(beta)/ds, used to flag near-tangent roots."""
    b1 = shoot(l, s + h, **kw).beta_mass
    b0 = shoot(l, s - h, **kw).beta_mass
    return (b1 - b0) / (2.0 * h)
