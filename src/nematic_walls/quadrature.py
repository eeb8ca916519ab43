"""Composite Gauss-Legendre quadrature helpers."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

# Newton's method stops once its largest step is this many ulps of 1
NEWTON_ULPS = 4


def _legendre(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p, q = x, np.ones_like(x)
    for k in range(2, n + 1):
        p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
    return p, q


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Nodes (ascending) and weights of the order-point rule on [-1, 1].

    Newton's method on P_n from x_k = cos(pi (k - 1/4)/(n + 1/2)), with
    (1 - x^2) P_n' = n (P_{n-1} - x P_n) and 1 - x^2 formed as (1 - x)(1
    + x), stops once its largest step is NEWTON_ULPS ulps of 1.  The
    weights are 2/((1 - x^2) P_n'^2) from that form of P_n' at the nodes,
    which first-order node errors move by 2x/(1 - x^2) only, where the
    equal form 2 (1 - x^2)/(n P_{n-1})^2 moves by 2(n + 1)x/(1 - x^2).  As
    numpy's `leggauss`, the rule is then symmetrized and its weights
    scaled to sum to 2; it needs neither LAPACK nor `numpy.polynomial`.
    """
    n = order
    if n < 1:
        raise ValueError("order >= 1 required")
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, q = _legendre(n, x)
        step = p * (1.0 - x) * (1.0 + x) / (n * (q - x * p))
        x = x - step
        if np.abs(step).max() <= NEWTON_ULPS * np.finfo(float).eps:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes of order {n} did not "
                           "converge")
    p, q = _legendre(n, x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (q - x * p)) ** 2
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


def composite_nodes(a: float, b: float, panels: int, order: int):
    """Nodes/weights of panel-composite Gauss-Legendre on [a, b], flattened."""
    x, w = gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              panels: int = 16, order: int = 8) -> float:
    nodes, weights = composite_nodes(a, b, panels, order)
    return float(np.dot(weights, f(nodes)))
