"""Gauss-Legendre quadrature: the n-point rule and composite panels."""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1], read-only: every caller
    shares one copy instead of solving for it again."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on every panel [edges[k], edges[k+1]],
    concatenated in panel order."""
    edges = np.asarray(edges, dtype=float)
    nodes, weights = gauss_rule(n)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * nodes + mid).ravel(), (half * weights).ravel()


def graded(length: float, width: float) -> np.ndarray:
    """Panel edges 0, width, 3 width, 7 width, ... cut at length: panels that
    double in width away from 0."""
    edges = [0.0]
    while edges[-1] < length:
        edges.append(min(2.0 * edges[-1] + width, length))
    return np.array(edges)
