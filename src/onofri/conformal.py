"""Mobius transformations of the sphere and conformal bubble families.

A map is parametrised by a point ``a`` in the open unit ball: writing
``p = a/|a|`` and ``t = |a|``, the map is the conformal dilation that fixes
``+-p`` and pushes mass toward ``p`` with stereographic dilation factor
``lam = sqrt((1+t)/(1-t))``.  Its inverse is the map with parameter ``-a``.

The two-bubble family used by the unboundedness probes is

    u_s = log( (exp(w_s) + exp(w_{-s})) / 2 ),

where ``w_s`` is the log conformal factor of the axial dilation with
``log(lam) = s``; both exp-masses are one, so the family sits exactly on the
center-of-mass constraint for every s.
"""

from __future__ import annotations

import numpy as np

from . import quadrature

PROBE_S_MAX = 400.0     # the two-bubble probe marches s = 1, 1.6, 1.6^2, ... up to here


def _split(points: np.ndarray, a: np.ndarray):
    """Components of unit vectors along and orthogonal to the direction of a."""
    t = float(np.linalg.norm(a))
    p = a / t
    par = points @ p
    perp = points - par[..., None] * p
    return t, p, par, perp


def apply_mobius(points: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Apply the dilation with ball parameter a to unit vectors (..., 3)."""
    a = np.asarray(a, dtype=float)
    points = np.asarray(points, dtype=float)
    if np.linalg.norm(a) < 1e-15:
        return points.copy()
    t, p, par, perp = _split(points, a)
    lam2 = (1.0 + t) / (1.0 - t)
    lam = np.sqrt(lam2)
    denom = lam2 * (1.0 + par) + (1.0 - par)
    new_par = (lam2 * (1.0 + par) - (1.0 - par)) / denom
    out = (2.0 * lam / denom)[..., None] * perp + new_par[..., None] * p
    return out


def log_conformal_factor(points: np.ndarray, a: np.ndarray) -> np.ndarray:
    """log det of the tangent map of apply_mobius(., a) at the given points."""
    a = np.asarray(a, dtype=float)
    points = np.asarray(points, dtype=float)
    if np.linalg.norm(a) < 1e-15:
        return np.zeros(points.shape[:-1])
    t, _, par, _ = _split(points, a)
    lam2 = (1.0 + t) / (1.0 - t)
    denom = lam2 * (1.0 + par) + (1.0 - par)
    return np.log(4.0 * lam2) - 2.0 * np.log(denom)


# ---------------------------------------------------------------------------
# axial two-bubble family in the log-radial variable t = log r
# ---------------------------------------------------------------------------


def _softplus(z):
    return np.logaddexp(0.0, z)


def _logistic(z):
    """1 / (1 + e^-z) without overflow, to within 2.3e-16 absolute."""
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def bubble_log_factor(t: np.ndarray, s: float) -> np.ndarray:
    """w_s as a function of t = log r (stereographic radius from the north pole)."""
    return 2.0 * s + 2.0 * _softplus(2.0 * t) - 2.0 * _softplus(2.0 * t + 2.0 * s)


def bubble_log_factor_deriv(t: np.ndarray, s: float) -> np.ndarray:
    return 4.0 * _logistic(2.0 * t) - 4.0 * _logistic(2.0 * t + 2.0 * s)


def two_bubble_profile(t: np.ndarray, s: float):
    """(u, du/dt) of the balanced two-bubble field along t = log r."""
    wa = bubble_log_factor(t, s)
    wb = bubble_log_factor(t, -s)
    u = np.logaddexp(wa, wb) - np.log(2.0)
    frac = _logistic(wa - wb)
    du = frac * bubble_log_factor_deriv(t, s) + (1.0 - frac) * bubble_log_factor_deriv(t, -s)
    return u, du


def two_bubble_j_value(alpha: float, s: float) -> float:
    """Exact J_alpha along the two-bubble family via log-radial quadrature.

    For axisymmetric fields  J = (alpha/8) int u'(t)^2 dt
    + int u(t) sech^2(t)/2 dt, and the exp-mass is one identically.
    """
    # the integrands vary on a unit scale only near t = -s, 0 and s and decay
    # like |t| e^{-2|t|} beyond s: 16-point Gauss panels start 0.25 wide at
    # those points and double away from them, out to |t| = s + 45
    a = abs(s)
    inner = quadrature.graded(0.5 * a, 0.25)
    right = np.concatenate([inner, a - inner[-2::-1], a + quadrature.graded(45.0, 0.25)[1:]])
    t, w = quadrature.panels(np.concatenate([-right[:0:-1], right]), 16)
    u, du = two_bubble_profile(t, s)
    sech2 = 1.0 / np.cosh(np.clip(t, -300.0, 300.0)) ** 2
    return float(alpha / 8.0 * np.dot(w, du * du) + np.dot(w, 0.5 * u * sech2))


def probe_two_bubble(alpha: float, floor: float):
    """March the two-bubble concentration until J_alpha drops below floor.

    Returns (s_hit, trace) with trace a list of (s, J(s)); s_hit is None if
    the floor was not reached by PROBE_S_MAX (expected for alpha >= 1/2).
    """
    trace = []
    s = 1.0
    while s <= PROBE_S_MAX:
        j = two_bubble_j_value(alpha, s)
        trace.append((s, j))
        if j < floor:
            return s, trace
        s *= 1.6
    return None, trace
