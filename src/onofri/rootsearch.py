"""Root search on an adaptively sampled mass curve, with a slope certificate.

A curve is a callable s -> (verdict, beta, beta', gap between two estimates
of beta').  search_curve samples it at N_COARSE equally spaced points shared
by every target mass and refines the zeros of beta' between samples to
turning points.  It then splits an interval, by shooting its midpoint, while
the certificate is loose there: the interval's slope margin, the tangent band
of a turning point at its end, or its Hermite remainder estimate.  The
midpoint shots are the certificate's check shots.  The samples, the check
shots and the turning points are the nodes of the cubic Hermite interpolant
of (beta, beta').  The certificate shows that beta is monotone between
turning points, and each root is then refined once by safeguarded Newton;
its shots do not change the nodes.  shooting.solutions_at_beta runs it on
radial shots.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonConvergenceError


@dataclass
class Certificate:
    """Shape of one sampled beta-curve and the evidence for it.

    The curve is the piecewise cubic Hermite interpolant P of the nodes
    (beta, beta').  runs are the stretches between the ends of the converged
    samples and the turning points (zeros of beta', each a node), as (s_a,
    s_b, beta_a, beta_b) with shot values at both ends.  When ok, beta is
    strictly monotone on every run outside the tangent zones: |P'| exceeds
    the bound on |beta' - P'| there, and inside the zone around a turning
    point beta stays within the zone's band (lo, hi).  The bounds come from
    the Hermite remainder, with the fourth derivative of beta estimated from
    the jumps of P''' and scaled up to the errors seen at the midpoint check
    shots.

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
    estimator_gap: float        # largest gap between the two beta' forms at the nodes
    checks: list                # (s, |beta - P|, |beta' - P'|) at each midpoint check shot
    nodes: list                 # the s of every node of P, ascending

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
    beta_range: tuple[float, float]     # min and max beta of the converged nodes
    unresolved_samples: int             # coarse samples with verdict "unresolved"
    certificate: Certificate


def brent(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
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


N_COARSE = 9            # equally spaced samples a curve starts from
ROOT_TOL = 1e-8         # accuracy in s of the roots and turning points
BRENT_MAX_ITER = 100    # Brent steps before a refinement gives up
# An interval is split while its slope margin is below MARGIN_GOAL, while a
# target lies in the band of a turning point at one of its ends, or while its
# bound on |beta - P| exceeds BETA_GOAL (a twenty-fifth of the 0.25 between
# the closest target masses of criterion 8); never below 2^-MAX_SPLITS of the
# coarse spacing.  Until _CHECK_SHOTS splits are made, the interval with the
# largest remainder estimate is split even when none is loose, so the bounds
# are always scaled to errors that shots have seen.
MARGIN_GOAL = 10.0
BETA_GOAL = 1e-2
MAX_SPLITS = 4
_CHECK_SHOTS = 3
# Factor between the bounds the certificate uses and the Hermite remainder
# scaled to the errors the check shots see.
_SAFETY = 2.0
# Hermite remainder on an interval of width h: |beta - P| <= M4 h^4 / 384 and
# |beta' - P'| <= M4 h^3 / (72 sqrt 3), with M4 the largest |beta''''|.
_BETA_REMAINDER = 1.0 / 384.0
_SLOPE_REMAINDER = 1.0 / (72.0 * math.sqrt(3.0))


class _Hermite:
    """Piecewise cubic Hermite interpolant P of (s, beta, beta') on ascending nodes."""

    def __init__(self, ss, beta, slope):
        self.ss, self.h = ss, np.diff(ss)
        h = self.h
        # P = c0 + c1 u + c2 u^2 + c3 u^3 with u = (s - s_i) / h_i on interval i
        self.c0, self.c1 = beta[:-1], h * slope[:-1]
        self.c2 = 3.0 * (beta[1:] - beta[:-1]) - h * (2.0 * slope[:-1] + slope[1:])
        self.c3 = 2.0 * (beta[:-1] - beta[1:]) + h * (slope[:-1] + slope[1:])

    def interval(self, s: float) -> int:
        return min(max(int(np.searchsorted(self.ss, s, side="right")) - 1, 0), len(self.ss) - 2)

    def value(self, i: int, s: float) -> float:
        u = (s - self.ss[i]) / self.h[i]
        return float(self.c0[i] + u * (self.c1[i] + u * (self.c2[i] + u * self.c3[i])))

    def slope(self, i: int, s: float) -> float:
        u = (s - self.ss[i]) / self.h[i]
        return float((self.c1[i] + u * (2.0 * self.c2[i] + 3.0 * u * self.c3[i])) / self.h[i])

    def slope_levels(self, i: int, level: float) -> list:
        """The s in interval i where P' = level, ascending."""
        a, b, c = 3.0 * self.c3[i], 2.0 * self.c2[i], self.c1[i] - level * self.h[i]
        if a == 0.0:
            us = [-c / b] if b != 0.0 else []
        else:
            disc = b * b - 4.0 * a * c
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b)) if disc >= 0.0 else None
            us = [] if q is None else sorted([q / a, c / q] if q != 0.0 else [0.0])
        return [float(self.ss[i] + u * self.h[i]) for u in us if 0.0 <= u <= 1.0]

    def min_slope(self, i: int, sign: float) -> float:
        """Smallest sign * P' over interval i (P' is quadratic in u)."""
        us = [0.0, 1.0]
        if self.c3[i] != 0.0 and 0.0 < -self.c2[i] / (3.0 * self.c3[i]) < 1.0:
            us.append(-self.c2[i] / (3.0 * self.c3[i]))
        return min(sign * self.slope(i, float(self.ss[i] + u * self.h[i])) for u in us)

    def curvature(self, i: int) -> float:
        """Largest |P''| over interval i (P'' is linear)."""
        return max(abs(2.0 * self.c2[i] + 6.0 * self.c3[i] * u) for u in (0.0, 1.0)) / self.h[i]**2

    def remainder(self) -> tuple[np.ndarray, np.ndarray]:
        """Estimates of M4 h^4 / 384 and M4 h^3 / (72 sqrt 3) per interval.

        M4 on an interval is the larger of the estimates at its two ends, each
        the jump of the piecewise constant P''' over the mean width of the two
        intervals it joins; an end with no interval beyond it (the bracket's,
        or a sample that did not converge) adds nothing.
        """
        h = self.h
        jumps = np.nan_to_num(2.0 * np.abs(np.diff(6.0 * self.c3 / h**3)) / (h[:-1] + h[1:]))
        m4 = np.maximum(np.concatenate([jumps, [0.0]]), np.concatenate([[0.0], jumps]))
        return _BETA_REMAINDER * m4 * h**4, _SLOPE_REMAINDER * m4 * h**3


def _interpolant(rows: dict):
    """P on the nodes rows, and their columns beta, beta' and gap."""
    ss = np.array(sorted(rows))
    beta, slope, gap = np.array([rows[s] for s in ss]).T
    return _Hermite(ss, beta, slope), beta, slope, gap


def _certify(rows: dict, turning: list, checks: list, calib: float,
             targets) -> tuple[Certificate, dict, _Hermite, tuple]:
    """Certificate on the nodes rows, turning points, check shots and calib;
    how tight each usable interval is, its largest ratio of a bound to its
    goal (above 1 when loose); and P with its remainder estimates."""
    herm, beta, slope, gap = _interpolant(rows)
    ss, n = herm.ss, len(herm.ss)
    conv = ~np.isnan(slope)
    est_beta, est_slope = remainder = herm.remainder()
    est_gap = float(np.max(gap[conv])) if conv.any() else math.nan
    bound_beta = _SAFETY * calib * est_beta
    bound_slope = _SAFETY * calib * est_slope + est_gap
    turn_at = {int(np.searchsorted(ss, s)): s for s, _ in turning}
    usable = [i for i in range(n - 1) if conv[i] and conv[i + 1]]
    tight = {i: float(bound_beta[i]) / BETA_GOAL for i in usable}

    reasons, bands, margin, flat = [], [], math.inf, []
    if not conv.all():
        reasons.append(f"{int(n - conv.sum())} samples not converged")
    if any(slope[j] == 0.0 for j in range(n) if conv[j] and j not in turn_at):
        reasons.append("beta' vanishes at a node")
    for i in usable:
        if i in turn_at or i + 1 in turn_at:
            continue
        delta = float(bound_slope[i])
        low = herm.min_slope(i, 1.0 if slope[i] > 0.0 else -1.0)
        ratio = low / delta if delta > 0.0 else math.inf
        margin = min(margin, ratio)
        if not low > delta:
            flat.append(i)
        # |P'| within MARGIN_GOAL estimator gaps of zero cannot clear the goal
        # at any width, since the gap is part of every slope bound
        if low > MARGIN_GOAL * est_gap:
            tight[i] = max(tight[i], MARGIN_GOAL / ratio if ratio > 0.0 else math.inf)
    for j, s_k in sorted(turn_at.items()):
        # the zone |P'| <= delta around the turning node j enters in interval
        # j - 1 and leaves in interval j, crossing each level once
        rise = 1.0 if slope[j + 1] > 0.0 else -1.0
        enter = herm.slope_levels(j - 1, -rise * float(bound_slope[j - 1]))
        leave = herm.slope_levels(j, rise * float(bound_slope[j]))
        if slope[j - 1] * rise >= 0.0 or len(enter) != 1 or len(leave) != 1:
            reasons.append(f"no single tangent zone around s = {s_k:.9g}")
            tight[j - 1] = tight[j] = math.inf
            continue
        zone = ([(j - 1, enter[0]), (j, s_k), (j, leave[0])]
                + [(j - 1, x) for x in herm.slope_levels(j - 1, 0.0) if enter[0] < x]
                + [(j, x) for x in herm.slope_levels(j, 0.0) if x < leave[0]])
        values = [herm.value(i, x) for i, x in zone]
        width = float(max(bound_beta[j - 1], bound_beta[j]))
        band = (min(values) - width, max(values) + width)
        bands.append(band)
        if any(band[0] <= t <= band[1] for t in targets):
            tight[j - 1] = tight[j] = math.inf

    if flat:
        reasons.append(f"|P'| within its error bound on {len(flat)} intervals, "
                       f"first [{ss[flat[0]]:.4g}, {ss[flat[0] + 1]:.4g}]")
    # runs between the ends of each stretch of converged nodes and its turning nodes
    runs, a = [], None
    for j in range(n):
        if not conv[j]:
            a = None
        elif a is None:
            a = j
        elif j in turn_at or j == n - 1 or not conv[j + 1]:
            runs.append((float(ss[a]), float(ss[j]), float(beta[a]), float(beta[j])))
            a = j
    cert = Certificate(ok=not reasons, reason="; ".join(reasons), runs=runs,
                       turning_points=list(turning), bands=bands, margin=float(margin),
                       slope_error=float(np.max(bound_slope, initial=0.0)),
                       beta_error=float(np.max(bound_beta, initial=0.0)),
                       estimator_gap=est_gap, checks=list(checks),
                       nodes=[float(s) for s in ss])
    return cert, tight, herm, remainder


def _newton(shot, herm: _Hermite, target: float, a: float, b: float, fa: float, fb: float,
            tol: float) -> tuple[float, float]:
    """Root of beta = target in [a, b], with f = beta - target and f(a) f(b) < 0.

    Safeguarded Newton on real shots from the root of the Hermite
    interpolant (Brent on P to 1e-3 tol); it stops once the
    quadratic-convergence bound max|P''| dx^2 / (2 |beta'|) on the next
    iterate's error is below tol, and falls back to Brent on shots when a step
    leaves the bracket.  Returns the root and beta' at the last shot.
    """
    i = herm.interval(0.5 * (a + b))
    x = brent(lambda s: herm.value(i, s) - target, a, b, fa, fb, 1e-3 * tol)
    curvature = herm.curvature(i)
    for _ in range(8):
        beta, d, _ = shot(x)
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
    root = brent(lambda s: shot(s)[0] - target, a, b, fa, fb, tol)
    return root, shot(root)[1]


def search_curve(curve, beta_targets, s_bracket: tuple[float, float]) -> RootSearch:
    """All s with beta(s) = target inside the bracket, for every target.

    curve(s) returns (verdict, beta, beta', gap between two estimates of
    beta'); beta and beta' are read only when the verdict is "converged".
    One pass: the curve is sampled at N_COARSE equally spaced points shared
    by all targets, sign changes of beta' between nodes are refined by Brent
    to turning points, and loose intervals are split by midpoint check shots
    until the certificate is tight (see MARGIN_GOAL).  Then every sign change
    of beta - target between consecutive nodes is refined by safeguarded
    Newton to ROOT_TOL from the interpolant.  The Newton shots do not become
    nodes, so the roots of one target do not depend on the others unless a
    target lies in a tangent band, which refines the band's intervals.
    Stretches with a sample that did not converge are not searched.
    The bracket must have s_min < s_max: the certificate's slope bounds divide
    by the node spacing, and a spacing at or below zero would pass them all.
    """
    if not s_bracket[0] < s_bracket[1]:
        raise ValueError(f"bracket {tuple(s_bracket)} is empty or reversed")
    if not all(math.isfinite(t) for t in beta_targets):
        raise ValueError(f"targets {list(beta_targets)} must be finite")
    coarse = np.linspace(s_bracket[0], s_bracket[1], N_COARSE)
    samples = [curve(float(s)) for s in coarse]
    unresolved = sum(1 for row in samples if row[0] == "unresolved")
    # the nodes of P: s -> (beta, beta', gap), nan where a sample did not converge
    rows = {float(s): tuple(row[1:]) if row[0] == "converged" else (math.nan,) * 3
            for s, row in zip(coarse, samples)}
    seen = {s: row for s, row in rows.items() if not math.isnan(row[0])}
    turning = []                # (s, beta) where beta' = 0, each a node
    checks = []                 # (s, |beta - P|, |beta' - P'|) at each check shot
    calib = 1.0                 # largest error over its estimate at the checks

    def shot(s: float):
        if s not in seen:
            verdict, b, d, g = curve(s)
            if verdict != "converged":
                raise NonConvergenceError(f"shot at s={s} is {verdict} inside a converged bracket",
                                          best=s)
            seen[s] = (b, d, g)
        return seen[s]

    def find_turning():
        """A turning node for every sign change of beta' between two nodes."""
        ss = sorted(rows)
        done = {s for s, _ in turning}
        for a, b in zip(ss[:-1], ss[1:]):
            (_, d_a, _), (_, d_b, _) = rows[a], rows[b]
            if not d_a * d_b < 0.0 or {a, b} & done:
                continue
            # the first shot goes to the zero of P', and Brent starts from the
            # part of the bracket it leaves
            herm = _interpolant(rows)[0]
            guess = [x for x in herm.slope_levels(herm.interval(0.5 * (a + b)), 0.0) if a < x < b]
            if guess:
                d = shot(guess[0])[1]
                if d == 0.0:
                    a = b = guess[0]
                elif (d < 0.0) == (d_a < 0.0):
                    a, d_a = guess[0], d
                else:
                    b, d_b = guess[0], d
            s_k = a if a == b else brent(lambda s: shot(s)[1], a, b, d_a, d_b, ROOT_TOL)
            rows[s_k] = shot(s_k)
            turning[:] = sorted(turning + [(s_k, rows[s_k][0])])

    # split loose intervals, never below 2^-MAX_SPLITS of the coarse spacing
    finest = (s_bracket[1] - s_bracket[0]) / (N_COARSE - 1) / 2**MAX_SPLITS
    find_turning()
    while True:
        cert, tight, herm, remainder = _certify(rows, turning, checks, calib, beta_targets)
        splittable = [i for i in tight if herm.h[i] > 1.5 * finest]
        loose = [i for i in splittable if tight[i] > 1.0]
        if loose:
            i = min(loose, key=lambda i: (-tight[i], i))
        elif len(checks) < _CHECK_SHOTS and splittable:
            i = min(splittable, key=lambda i: (-remainder[0][i], i))
        else:
            break
        # shoot the midpoint of interval i as a check shot and make it a node
        m = float(herm.ss[i] + 0.5 * herm.h[i])
        rows[m] = shot(m)
        b, d, _ = rows[m]
        err_b, err_d = abs(b - herm.value(i, m)), abs(d - herm.slope(i, m))
        checks.append((m, err_b, err_d))
        for err, est in zip((err_b, err_d), (est[i] for est in remainder)):
            if err > calib * est:
                calib = err / est if est > 0.0 else math.inf
        find_turning()

    roots, root_slopes = [], []
    for target in beta_targets:
        found = {}
        for s_a, s_b, _, _ in cert.runs:
            run = [float(s) for s in herm.ss if s_a <= s <= s_b]
            for x0, x1 in zip(run[:-1], run[1:]):
                f0, f1 = seen[x0][0] - target, seen[x1][0] - target
                for x, f in ((x0, f0), (x1, f1)):
                    if f == 0.0:
                        found[x] = seen[x][1]
                if f0 * f1 < 0.0:
                    x, d = _newton(shot, herm, target, x0, x1, f0, f1, ROOT_TOL)
                    found[x] = d
        roots.append(sorted(found))
        root_slopes.append([found[x] for x in sorted(found)])
    values = [row[0] for row in rows.values() if not math.isnan(row[0])]
    beta_range = (min(values), max(values)) if values else (math.nan, math.nan)
    return RootSearch(roots=roots, root_slopes=root_slopes, beta_range=beta_range,
                      unresolved_samples=unresolved, certificate=cert)
