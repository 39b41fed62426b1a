"""Root search on a sampled mass curve, with a slope certificate.

A curve is a callable s -> (verdict, beta, beta', gap between two estimates
of beta').  search_curve samples it once on an equally spaced grid shared by
every target mass, refines the zeros of beta' between samples to turning
points, certifies from the cubic Hermite interpolant of (beta, beta') and a
few midpoint check shots that beta is monotone between turning points, and
refines each root by safeguarded Newton.  shooting.solutions_at_beta runs it
on radial shots.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonConvergenceError


@dataclass
class Certificate:
    """Shape of one sampled beta-curve and the evidence for it.

    The curve is the piecewise cubic Hermite interpolant P of the samples
    (beta, beta').  runs are the stretches between the ends of the converged
    samples and the turning points (zeros of beta'), as (s_a, s_b, beta_a,
    beta_b) with shot values at both ends.  When ok, beta is strictly
    monotone on every run outside the tangent zones: |P'| exceeds the bound
    on |beta' - P'| there, and inside the zone around a turning point beta
    stays within the zone's band (lo, hi).  The bounds come from the Hermite
    remainder, with the fourth derivative of beta estimated from the jumps of
    P''' and scaled up to the errors seen at the midpoint check shots.

    estimator_gap compares two forms of beta' computed from one Jacobi field
    w = dv/ds, so it checks their quadrature, not the propagation of w: an
    error in w common to both forms does not show in it.
    """

    ok: bool
    reason: str                 # why not ok; "" when ok
    runs: list                  # (s_a, s_b, beta_a, beta_b)
    turning_points: list        # (s, beta) where beta' = 0
    bands: list                 # (lo, hi): beta inside each tangent zone
    margin: float               # smallest |P'| over its bound outside the zones (> 1 when ok)
    slope_error: float          # largest bound on |beta' - P'|
    beta_error: float           # largest bound on |beta - P|
    estimator_gap: float        # largest gap between the two beta' forms at the samples
    checks: list                # (s, |beta - P|, |beta' - P'|) at each midpoint check shot

    def count(self, target: float):
        """Roots of beta = target that the certified shape predicts; None when
        the curve is not certified or the target lies in a tangent band."""
        if not self.ok or any(lo <= target <= hi for lo, hi in self.bands):
            return None
        if any(target in (b0, b1) for _, _, b0, b1 in self.runs):
            return None
        return sum(1 for _, _, b0, b1 in self.runs if min(b0, b1) < target < max(b0, b1))

    def summary(self) -> dict:
        """The certificate without its runs, for a report row."""
        return {k: v for k, v in asdict(self).items() if k != "runs"}


@dataclass
class RootSearch:
    """Roots of beta(s) = target on one shared sampling of the curve."""

    roots: list[list[float]]            # one list per target, in target order
    root_slopes: list[list[float]]      # beta' at each root, same layout
    beta_range: tuple[float, float]     # min and max beta of the converged samples and turning points
    unresolved_samples: int             # samples with verdict "unresolved"
    certificate: Certificate


def _brent(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """Root of f in [a, b] given f(a) f(b) < 0 (Brent 1973, ch. 4, as in brentq.c).

    Inverse quadratic interpolation or secant steps, falling back to bisection
    whenever a step would not shrink the bracket fast enough; stops once the
    bracket is narrower than tol.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk, fblk, spre, scur = a, fa, 0.0, 0.0
    for _ in range(BRENT_MAX_ITER):
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


N_SAMPLES = 33          # equally spaced samples of a curve
ROOT_TOL = 1e-8         # accuracy in s of the roots and turning points
BRENT_MAX_ITER = 100    # Brent steps before a refinement gives up
# Check shots per curve, and the factor between the bounds the certificate
# uses and the Hermite remainder scaled to the errors the checks see.
_CHECK_SHOTS = 3
_SAFETY = 2.0
# Hermite remainder on an interval of width h: |beta - P| <= M4 h^4 / 384 and
# |beta' - P'| <= M4 h^3 / (72 sqrt 3), with M4 the largest |beta''''|.
_BETA_REMAINDER = 1.0 / 384.0
_SLOPE_REMAINDER = 1.0 / (72.0 * math.sqrt(3.0))


class _Hermite:
    """Piecewise cubic Hermite interpolant P of equally spaced (s, beta, beta')."""

    def __init__(self, ss, beta, slope):
        self.ss, self.h = ss, float(ss[1] - ss[0])
        h = self.h
        # P = c0 + c1 u + c2 u^2 + c3 u^3 with u = (s - s_i) / h on interval i
        self.c0, self.c1 = beta[:-1], h * slope[:-1]
        self.c2 = 3.0 * (beta[1:] - beta[:-1]) - h * (2.0 * slope[:-1] + slope[1:])
        self.c3 = 2.0 * (beta[:-1] - beta[1:]) + h * (slope[:-1] + slope[1:])

    def interval(self, s: float) -> int:
        return min(max(int(np.searchsorted(self.ss, s, side="right")) - 1, 0), len(self.ss) - 2)

    def value(self, i: int, s: float) -> float:
        u = (s - self.ss[i]) / self.h
        return float(self.c0[i] + u * (self.c1[i] + u * (self.c2[i] + u * self.c3[i])))

    def slope(self, i: int, s: float) -> float:
        u = (s - self.ss[i]) / self.h
        return float((self.c1[i] + u * (2.0 * self.c2[i] + 3.0 * u * self.c3[i])) / self.h)

    def slope_levels(self, i: int, level: float) -> list:
        """The s in interval i where P' = level, ascending."""
        a, b, c = 3.0 * self.c3[i], 2.0 * self.c2[i], self.c1[i] - level * self.h
        if a == 0.0:
            us = [-c / b] if b != 0.0 else []
        else:
            disc = b * b - 4.0 * a * c
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b)) if disc >= 0.0 else None
            us = [] if q is None else sorted([q / a, c / q] if q != 0.0 else [0.0])
        return [float(self.ss[i] + u * self.h) for u in us if 0.0 <= u <= 1.0]

    def min_slope(self, i: int, sign: float) -> float:
        """Smallest sign * P' over interval i (P' is quadratic in u)."""
        us = [0.0, 1.0]
        if self.c3[i] != 0.0 and 0.0 < -self.c2[i] / (3.0 * self.c3[i]) < 1.0:
            us.append(-self.c2[i] / (3.0 * self.c3[i]))
        return min(sign * self.slope(i, float(self.ss[i] + u * self.h)) for u in us)

    def curvature(self, i: int) -> float:
        """Largest |P''| over interval i (P'' is linear)."""
        return max(abs(2.0 * self.c2[i] + 6.0 * self.c3[i] * u) for u in (0.0, 1.0)) / self.h**2

    def remainder_scale(self) -> np.ndarray:
        """M4 h^4 per interval, from the jumps of the piecewise constant P''' at its ends."""
        jumps = np.abs(np.diff(6.0 * self.c3))
        return np.maximum(np.concatenate([jumps, [0.0]]), np.concatenate([[0.0], jumps]))


def _converged_stretches(conv) -> list:
    """Index lists of the maximal stretches of at least two converged samples."""
    out, cur = [], []
    for j, ok in enumerate(conv):
        if ok:
            cur.append(j)
            continue
        if len(cur) > 1:
            out.append(cur)
        cur = []
    if len(cur) > 1:
        out.append(cur)
    return out


def _certify(herm: _Hermite, beta, slope, gap, shot, turning) -> Certificate:
    """Certificate for one sampled curve; shot(s) gives (beta, beta') of a real
    shot, turning the (s, beta) of the zeros of beta' between samples."""
    ss, h, n = herm.ss, herm.h, len(herm.ss)
    conv = ~np.isnan(beta)
    scale = herm.remainder_scale()
    est_beta, est_slope = _BETA_REMAINDER * scale, _SLOPE_REMAINDER * scale / h
    est_gap = float(np.max(gap[conv])) if conv.any() else math.nan
    turn_at = {herm.interval(s): (s, b) for s, b in turning}
    usable = [i for i in range(n - 1) if conv[i] and conv[i + 1]]

    # the check shots go where |P'| is smallest against its predicted error
    def tightness(i):
        low = 0.0 if i in turn_at else max(herm.min_slope(i, 1.0), herm.min_slope(i, -1.0))
        return est_slope[i] / low if low > 0.0 else math.inf

    chosen = sorted(sorted(usable, key=lambda i: (-tightness(i), i))[:_CHECK_SHOTS])
    checks, calib = [], 1.0
    for i in chosen:
        m = float(ss[i] + 0.5 * h)
        b, d = shot(m)
        err_b, err_d = abs(b - herm.value(i, m)), abs(d - herm.slope(i, m))
        checks.append((m, err_b, err_d))
        for err, est in ((err_b, est_beta[i]), (err_d, est_slope[i])):
            if err > calib * est:
                calib = err / est if est > 0.0 else math.inf
    bound_beta = _SAFETY * calib * est_beta
    bound_slope = _SAFETY * calib * est_slope + est_gap

    reasons, bands, margin, flat = [], [], math.inf, []
    if not conv.all():
        reasons.append(f"{int(n - conv.sum())} samples not converged")
    if np.any(slope[conv] == 0.0):
        reasons.append("beta' vanishes at a sample")
    for i in usable:
        delta = float(bound_slope[i])
        if i not in turn_at:
            low = herm.min_slope(i, 1.0 if slope[i] > 0.0 else -1.0)
            margin = min(margin, low / delta if delta > 0.0 else math.inf)
            if not low > delta:
                flat.append(i)
            continue
        # turning interval: |P'| <= delta on one stretch only, the tangent zone
        s_k, b_k = turn_at[i]
        rise = 1.0 if slope[i + 1] > 0.0 else -1.0
        enter, leave = herm.slope_levels(i, -rise * delta), herm.slope_levels(i, rise * delta)
        if len(enter) != 1 or len(leave) != 1 or not enter[0] < s_k < leave[0]:
            reasons.append(f"no single tangent zone on [{ss[i]:.4g}, {ss[i + 1]:.4g}]")
            continue
        zone = enter + leave + [x for x in herm.slope_levels(i, 0.0) if enter[0] < x < leave[0]]
        values = [herm.value(i, x) for x in zone]
        band = (min(values) - float(bound_beta[i]), max(values) + float(bound_beta[i]))
        if not band[0] <= b_k <= band[1]:
            reasons.append(f"turning value {b_k:.9g} outside its band")
        bands.append(band)

    if flat:
        reasons.append(f"|P'| within its error bound on {len(flat)} intervals, "
                       f"first [{ss[flat[0]]:.4g}, {ss[flat[0] + 1]:.4g}]")
    runs = []
    for stretch in _converged_stretches(conv):
        s_lo, s_hi = ss[stretch[0]], ss[stretch[-1]]
        cuts = ([(float(ss[stretch[0]]), float(beta[stretch[0]]))]
                + [tp for tp in turning if s_lo < tp[0] < s_hi]
                + [(float(ss[stretch[-1]]), float(beta[stretch[-1]]))])
        runs += [(a[0], b[0], a[1], b[1]) for a, b in zip(cuts[:-1], cuts[1:])]
    return Certificate(ok=not reasons, reason="; ".join(reasons), runs=runs,
                       turning_points=list(turning), bands=bands, margin=float(margin),
                       slope_error=float(np.max(bound_slope, initial=0.0)),
                       beta_error=float(np.max(bound_beta, initial=0.0)),
                       estimator_gap=est_gap, checks=checks)


def _newton(shot, herm: _Hermite, target: float, a: float, b: float, fa: float, fb: float,
            tol: float) -> tuple[float, float]:
    """Root of beta = target in [a, b], with f = beta - target and f(a) f(b) < 0.

    Safeguarded Newton on real shots from the root of the Hermite
    interpolant; it stops once the quadratic-convergence bound
    max|P''| dx^2 / (2 |beta'|) on the next iterate's error is below tol, and
    falls back to Brent when a step leaves the bracket.  Returns the root and
    beta' at the last shot.
    """
    i = herm.interval(0.5 * (a + b))
    lo, hi = a, b
    flo = herm.value(i, lo) - target
    while hi - lo > 1e-3 * tol:                 # bisection on the cubic for the start
        mid = 0.5 * (lo + hi)
        fmid = herm.value(i, mid) - target
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    x, curvature = 0.5 * (lo + hi), herm.curvature(i)
    for _ in range(8):
        beta, d = shot(x)
        f = beta - target
        if f == 0.0:
            return x, d
        if (f < 0.0) == (fa < 0.0):
            a, fa = x, f
        else:
            b, fb = x, f
        step = -f / d
        if not a < x + step < b:
            break
        if curvature * step * step <= 2.0 * abs(d) * tol:
            return x + step, d
        x += step
    root = _brent(lambda s: shot(s)[0] - target, a, b, fa, fb, tol)
    return root, shot(root)[1]


def search_curve(curve, beta_targets, s_bracket: tuple[float, float]) -> RootSearch:
    """All s with beta(s) = target inside the bracket, for every target.

    curve(s) returns (verdict, beta, beta', gap between two estimates of
    beta'); beta and beta' are read only when the verdict is "converged".
    The curve is sampled once at N_SAMPLES equally spaced points shared by
    all targets.  Sign changes of beta' between samples are refined by Brent
    to turning points, and the certificate checks that beta is monotone
    between them.  Every sign change of beta - target between consecutive
    samples or turning points is refined by safeguarded Newton to ROOT_TOL.
    Stretches with a sample that did not converge are not searched.
    The bracket must have s_min < s_max: the certificate's slope bounds divide
    by the sample spacing, and a spacing at or below zero would pass them all.
    """
    if not s_bracket[0] < s_bracket[1]:
        raise ValueError(f"bracket {tuple(s_bracket)} is empty or reversed")
    ss = np.linspace(s_bracket[0], s_bracket[1], N_SAMPLES)
    rows = [curve(float(s)) for s in ss]
    verdicts = [row[0] for row in rows]
    beta = np.array([row[1] if row[0] == "converged" else math.nan for row in rows])
    slope = np.array([row[2] if row[0] == "converged" else math.nan for row in rows])
    gap = np.array([row[3] if row[0] == "converged" else math.nan for row in rows])
    seen = {float(s): (float(b), float(d)) for s, b, d in zip(ss, beta, slope) if not math.isnan(b)}

    def shot(s: float):
        if s not in seen:
            verdict, b, d, _ = curve(s)
            if verdict != "converged":
                raise NonConvergenceError(f"shot at s={s} is {verdict} inside a converged bracket",
                                          best=s)
            seen[s] = (b, d)
        return seen[s]

    turning = []
    for i in range(N_SAMPLES - 1):
        if slope[i] * slope[i + 1] < 0.0:
            s_k = _brent(lambda s: shot(s)[1], float(ss[i]), float(ss[i + 1]),
                         float(slope[i]), float(slope[i + 1]), ROOT_TOL)
            turning.append((s_k, shot(s_k)[0]))
    herm = _Hermite(ss, beta, slope)
    cert = _certify(herm, beta, slope, gap, shot, turning)

    roots, root_slopes = [], []
    for target in beta_targets:
        found = {}
        for s_a, s_b, _, _ in cert.runs:
            nodes = [s_a] + [float(s) for s in ss if s_a < s < s_b] + [s_b]
            for x0, x1 in zip(nodes[:-1], nodes[1:]):
                f0, f1 = seen[x0][0] - target, seen[x1][0] - target
                for x, f in ((x0, f0), (x1, f1)):
                    if f == 0.0:
                        found[x] = seen[x][1]
                if f0 * f1 < 0.0:
                    x, d = _newton(shot, herm, target, x0, x1, f0, f1, ROOT_TOL)
                    found[x] = d
        roots.append(sorted(found))
        root_slopes.append([found[x] for x in sorted(found)])
    values = np.concatenate([beta[~np.isnan(beta)], [b for _, b in turning]])
    beta_range = (float(values.min()), float(values.max())) if values.size else (math.nan, math.nan)
    return RootSearch(roots=roots, root_slopes=root_slopes, beta_range=beta_range,
                      unresolved_samples=verdicts.count("unresolved"), certificate=cert)
