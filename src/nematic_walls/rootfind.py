"""Bracketed scalar root finding: the one solver behind every construction.

Each construction equation comes with a sign bracket, so one solver serves
them all.  `bracketed_root` runs SciPy's vectorized Chandrupatla method
(inverse quadratic interpolation safeguarded by bisection; Chandrupatla
1997) elementwise over arrays of brackets and refuses brackets without a
sign change.  The scan helpers find brackets when only an interval is
known: `scan_brackets` for a scalar function, `bracketed_arc_solve` and
`bracketed_arc_solve_both` for the arc of a circle family through each of
many points.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize.elementwise import find_root


class BracketError(ValueError):
    """A bracket does not enclose a sign change."""


def bracketed_root(f: Callable, lo, hi, args=(), xtol: float = 0.0):
    """Root of f(x, *args) = 0 in every bracket [lo, hi], elementwise.

    f must be elementwise: it is called on the still-unconverged points
    only, with the matching elements of args, so per-point data must come
    through args rather than a closure.  lo, hi and args broadcast together.
    The bracket shrinks to a few ulps, or to xtol when xtol > 0.  A root at
    an endpoint is returned as is.  Raises BracketError where f(lo) and
    f(hi) share a nonzero sign and RuntimeError on any other failure.
    Returns an array of the broadcast shape, or a float for scalar input.
    """
    res = find_root(f, (lo, hi), args=args,
                    tolerances={"xatol": xtol} if xtol > 0 else None)
    status = np.atleast_1d(res.status)
    if np.any(status == -1):
        k = int(np.argmax(status == -1))
        flo, fhi = (np.atleast_1d(v)[k] for v in res.f_bracket)
        raise BracketError(f"{int(np.sum(status == -1))} bracket(s) without "
                           f"a sign change (first: f = {flo:.3e}, {fhi:.3e})")
    if np.any(status != 0):
        raise RuntimeError(f"root solve failed with status "
                           f"{int(status[np.argmax(status != 0)])}")
    return float(res.x) if np.ndim(res.x) == 0 else res.x


def scan_brackets(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  n: int = 4096):
    """Sign scan of f on n+1 uniform points; returns bracket pairs."""
    xs = np.linspace(a, b, n + 1)
    vals = f(xs)
    s = np.sign(vals)
    out = []
    for k in range(n):
        if s[k] == 0.0:
            out.append((xs[k], xs[k]))
        elif s[k] * s[k + 1] < 0:
            out.append((xs[k], xs[k + 1]))
    return out


def _arc_roots(circle, nodes, x, y, both):
    """Scan the circle residual on nodes and solve in the first (and, with
    both, the last) sign-change cell of each point; nan without a change."""
    def resid(s, x, y):
        cx, cy, r2 = circle(s)
        return (x - cx) ** 2 + (y - cy) ** 2 - r2

    sgn = np.sign(resid(nodes[:, None], x, y))
    change = (sgn[:-1] * sgn[1:]) <= 0
    ok = change.any(axis=0)
    cells = [np.argmax(change, axis=0)]
    if both:
        cells.append(len(nodes) - 2 - np.argmax(change[::-1], axis=0))
    roots = []
    for cell in cells:
        s = np.full(x.shape, np.nan)
        if ok.any():
            c = cell[ok]
            s[ok] = bracketed_root(resid, nodes[c], nodes[c + 1],
                                   args=(x[ok], y[ok]))
        roots.append(s)
    return roots


def bracketed_arc_solve(circle, lo, hi, x, y, n_scan=64):
    """Per-point arc parameter s in [lo, hi] of the circle through (x, y).

    circle(s) -> (cx, cy, r^2) is the elementwise circle of the arc seeded
    at s.  The residual |p - c(s)|^2 - r(s)^2 is scanned upward on n_scan
    nodes, with the circles computed once per node, and solved in its first
    sign-change cell.  Points without a sign change get s = nan.
    """
    return _arc_roots(circle, np.linspace(lo, hi, n_scan), x, y, False)[0]


def bracketed_arc_solve_both(circle, lo, hi, x, y, n_scan=96,
                             geometric=False):
    """Roots from the lowest and highest sign-change cells of the
    `bracketed_arc_solve` residual.

    Families whose arcs depart a curve tangentially fold their full circles
    over the covered region, so a point can see two circle roots with only
    one lying on the actual arc (t in range); the caller picks by the
    recovered arc parameter.  Returns (s_low, s_high) with nan where no
    sign change exists.  With geometric=True the scan adds nodes clustered
    at the lower end (the roots coalesce toward degenerate corner arcs).
    """
    nodes = np.linspace(lo, hi, n_scan)
    if geometric:
        nodes = np.unique(np.concatenate(
            [nodes, lo * (hi / lo) ** np.linspace(0.0, 1.0, n_scan)]))
    return tuple(_arc_roots(circle, nodes, x, y, True))
