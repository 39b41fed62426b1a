"""Radial shooting for the planar equation  v'' + v'/r + (1+r^2)^l e^v = 0.

The profile starts from a fourth-order series at r0 = 1e-4 (the ODE is 0/0 at
the origin), integrates in r up to r = 1, then switches to t = log r where the
far field is asymptotically linear, v ~ -beta t + c.  Two mass estimates are
formed along independent paths:

* beta_slope: the ODE state -r v'(r) at the endpoint plus an analytic tail,
* beta_mass: Hermite quadrature of (1+r^2)^l e^v over the stored profile.

Their agreement is the accuracy certificate for a shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError

# Cash-Karp 5(4) tableau
_CK_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0)
_CK_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
_CK_B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_CK_ERR = (-277.0 / 64512.0, 0.0, 6925.0 / 370944.0, -6925.0 / 202752.0,
           -277.0 / 14336.0, 277.0 / 7084.0)


def _rk_adaptive(f, x0, y0, x1, tol, h0, store_x, store_y, hmax=np.inf, max_steps=200000):
    """Embedded Cash-Karp pair for a 2-state system, scalar arithmetic.

    hmax also bounds the Hermite-quadrature error of the stored profile, which
    is fourth order in the node spacing.
    """
    x = x0
    y = list(y0)
    h = min(h0, hmax)
    steps = 0
    while x < x1:
        h = min(h, hmax)
        if x + h > x1:
            h = x1 - x
        k = [f(x, y)]
        for i in range(1, 6):
            a = _CK_A[i]
            yi = [y[0] + h * sum(a[j] * k[j][0] for j in range(i)),
                  y[1] + h * sum(a[j] * k[j][1] for j in range(i))]
            k.append(f(x + _CK_C[i] * h, yi))
        e0 = h * sum(_CK_ERR[i] * k[i][0] for i in range(6))
        e1 = h * sum(_CK_ERR[i] * k[i][1] for i in range(6))
        sc0 = tol * (1.0 + abs(y[0]))
        sc1 = tol * (1.0 + abs(y[1]))
        err = max(abs(e0) / sc0, abs(e1) / sc1)
        if err <= 1.0:
            y = [y[0] + h * sum(_CK_B5[i] * k[i][0] for i in range(6)),
                 y[1] + h * sum(_CK_B5[i] * k[i][1] for i in range(6))]
            x += h
            store_x.append(x)
            store_y.append((y[0], y[1]))
        fac = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, fac))
        steps += 1
        if steps > max_steps:
            raise NonConvergenceError("adaptive integrator exceeded the step budget", best=x)
    return y


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

    @property
    def beta(self) -> float:
        return self.beta_mass


def _gauss3_hermite_mass(x: np.ndarray, v: np.ndarray, dv: np.ndarray, integrand) -> float:
    """Integral of integrand(x, v(x)) using cubic Hermite interpolation of v.

    Three-point Gauss per stored interval; x, v, dv are node arrays with dv
    the derivative of v in the x variable.
    """
    xi = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
    wg = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
    h = np.diff(x)
    xa, xb = x[:-1], x[1:]
    va, vb = v[:-1], v[1:]
    pa, pb = dv[:-1], dv[1:]
    total = 0.0
    for q, w in zip(xi, wg):
        h00 = 2 * q**3 - 3 * q**2 + 1
        h10 = q**3 - 2 * q**2 + q
        h01 = -2 * q**3 + 3 * q**2
        h11 = q**3 - q**2
        xq = xa + q * h
        vq = h00 * va + h10 * h * pa + h01 * vb + h11 * h * pb
        total += w * float(np.sum(h * integrand(xq, vq)))
    return total


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

    def f_inner(r, y):
        v, p = y
        return (p, -p / r - (1.0 + r * r) ** l * math.exp(v))

    rs = [r0]
    ys = [(s + a2 * r0**2 + a4 * r0**4, 2.0 * a2 * r0 + 4.0 * a4 * r0**3)]
    y = _rk_adaptive(f_inner, r0, ys[0], 1.0, tol, min(1e-3, r0), rs, ys, hmax=0.02)

    t_max = math.log(r_max)

    def f_outer(t, y):
        v, w = y
        q = math.exp((2.0 + 2.0 * l) * t + l * math.log1p(math.exp(-2.0 * t)) + v)
        return (w, -q)

    ts = [0.0]
    zs = [(y[0], y[1] * 1.0)]       # W = r v' = v' at r = 1
    z = _rk_adaptive(f_outer, 0.0, zs[0], t_max, tol, 1e-2, ts, zs, hmax=0.05)

    # extend when the decay rate has not cleanly emerged at r_max (slow
    # saturation toward beta = 2l+2 happens for strongly negative or large s)
    t_cap = max(t_max, 60.0)
    while -(2.0 + 2.0 * l + z[1]) <= 0.1 and ts[-1] < t_cap:
        t_next = min(ts[-1] + 10.0, t_cap)
        z = _rk_adaptive(f_outer, ts[-1], z, t_next, tol, 1e-2, ts, zs, hmax=0.05)
    t_max = ts[-1]

    V_end, W_end = z
    rate = -(2.0 + 2.0 * l + W_end)
    q_end = math.exp((2.0 + 2.0 * l) * t_max + l * math.log1p(math.exp(-2.0 * t_max)) + V_end)
    if rate <= 0.05:
        verdict = "divergent-mass"
        beta_slope = -W_end
        beta_mass = -W_end
        c_asym = float("nan")
    else:
        verdict = "converged"
        beta_slope = -W_end + q_end / rate

        mass = es * (r0**2 / 2.0 + (l + a2) * r0**4 / 4.0)
        r_arr = np.asarray(rs)
        v_arr = np.array([p[0] for p in ys])
        p_arr = np.array([p[1] for p in ys])
        mass += _gauss3_hermite_mass(
            r_arr, v_arr, p_arr,
            lambda r, v: (1.0 + r * r) ** l * np.exp(v) * r)
        t_arr = np.asarray(ts)
        V_arr = np.array([p[0] for p in zs])
        W_arr = np.array([p[1] for p in zs])
        mass += _gauss3_hermite_mass(
            t_arr, V_arr, W_arr,
            lambda t, v: np.exp((2.0 + 2.0 * l) * t + l * np.log1p(np.exp(-2.0 * t)) + v))
        mass += q_end / rate
        beta_mass = mass
        c_asym = V_end + beta_slope * t_max + q_end / rate**2

    r_grid = np.concatenate([np.asarray(rs), np.exp(np.asarray(ts[1:]))])
    values = np.concatenate([[p[0] for p in ys], [p[0] for p in zs[1:]]])
    return RadialSolution(l=l, s=s, r_grid=r_grid, values=values,
                          beta_mass=float(beta_mass), beta_slope=float(beta_slope),
                          c_asym=float(c_asym), verdict=verdict)


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
