"""Gauss-Legendre quadrature: the n-point rule, composite and graded panels, the disk
rule on graded panels, and the second-moment table of a rule's nodes."""

from __future__ import annotations

import functools

import numpy as np

N_GAUSS, N_THETA = 24, 64   # disk rule: Gauss nodes per radial panel, uniform angles


@functools.lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1], read-only: every caller
    shares one copy instead of solving for it again."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def second_moments(weights: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The rows weights x_i x_j, i <= j in np.triu_indices order, of nodes `points`
    (nodes, k), read-only: one product with a density gives its k(k+1)/2 distinct
    second moments, and pair_rows(k) puts them in a k x k matrix."""
    i, j = np.triu_indices(points.shape[1])
    table = (weights * points.T)[i]
    table *= points.T[j]
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def pair_rows(k: int) -> np.ndarray:
    """The (k, k) index of the second_moments row holding x_i x_j, read-only."""
    rows = np.empty((k, k), dtype=int)
    i, j = np.triu_indices(k)
    rows[i, j] = rows[j, i] = np.arange(i.size)
    rows.flags.writeable = False
    return rows


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


def disk_rule(radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial nodes and weights and the angles of the polar rule on the disk of
    the radius: N_GAUSS-point panels on graded(radius, 1.0), times N_THETA
    uniform angles (node weight wr 2 pi r / N_THETA)."""
    r, wr = panels(graded(radius, 1.0), N_GAUSS)
    return r, wr, 2.0 * np.pi * np.arange(N_THETA) / N_THETA
