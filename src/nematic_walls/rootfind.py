"""Bracketed scalar root finding: the one solver behind every construction.

Each construction equation comes with a sign bracket, so one solver serves
them all.  `bracketed_root` is Chandrupatla's method (inverse quadratic
interpolation safeguarded by bisection; Chandrupatla 1997, Adv. Eng.
Softw. 28:145), run elementwise over arrays of brackets; it refuses
brackets without a sign change.  It follows SciPy's `find_root` operation
for operation, so both return the same floats.  The scan helpers find
brackets when only an interval is known: `scan_brackets` for a scalar
function, `bracketed_arc_solve` and `bracketed_arc_solve_both` for the arc
of a circle family through each of many points.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
# SciPy's default iteration cap: the number of binades of float64
_MAXITER = math.log2(np.finfo(float).max) - math.log2(_TINY)


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
    lo, hi, *args = np.broadcast_arrays(lo, hi, *args)
    shape = lo.shape
    x1, x2 = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    f1 = np.asarray(f(x1, *args), dtype=float).ravel()
    f2 = np.asarray(f(x2, *args), dtype=float).ravel()
    x1, x2 = x1.ravel(), x2.ravel()
    args = [np.ravel(a).copy() for a in args]
    xatol = xtol if xtol > 0 else 4 * _TINY
    # fatol + frtol min |f(end)| with frtol = 0, as SciPy forms it: NaN
    # where an end value is NaN or infinite, which turns the f test off
    ftol = _TINY + 0.0 * np.minimum(np.abs(f1), np.abs(f2))

    n = x1.size
    active = np.arange(n)  # output index of each working element
    # per element: the root, f at the low and high end of the final
    # bracket, and the status: 0 converged, -1 no sign change, -2
    # iteration cap, -3 NaN (1 while in progress)
    x, fl, fr = np.zeros(n), np.zeros(n), np.zeros(n)
    status = np.zeros(n, dtype=int)
    x3 = f3 = None
    t = 0.5
    nit = 0
    while True:
        # stop tests in SciPy's order; a later test overrides an earlier
        i = np.abs(f1) < np.abs(f2)
        xmin, fmin = np.where(i, x1, x2), np.where(i, f1, f2)
        st = np.ones(len(active), dtype=int)
        stop = np.abs(fmin) <= ftol
        st[stop] = 0
        bad = (np.sign(f1) == np.sign(f2)) & ~stop
        xmin[bad], st[bad] = np.nan, -1
        stop |= bad
        bad = ~(np.isfinite(x1) & np.isfinite(x2)) \
            | (np.isnan(f1) & np.isnan(f2))
        bad &= ~stop
        xmin[bad], st[bad] = np.nan, -3
        stop |= bad
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * (4 * _EPS) + xatol
        done = dx < tol
        st[done] = 0
        stop |= done
        if nit >= _MAXITER:
            st[~stop] = -2
            stop[:] = True
        if stop.any():
            k = active[stop]
            x[k], status[k] = xmin[stop], st[stop]
            low = x1[stop] < x2[stop]
            fl[k] = np.where(low, f1[stop], f2[stop])
            fr[k] = np.where(low, f2[stop], f1[stop])
            go = ~stop
            active = active[go]
            x1, f1, x2, f2, ftol, dx, tol = (
                a[go] for a in (x1, f1, x2, f2, ftol, dx, tol))
            if x3 is not None:
                x3, f3 = x3[go], f3[go]
            args = [a[go] for a in args]
        if not active.size:
            break
        if x3 is not None:
            # inverse quadratic interpolation where it is safe, else bisect
            with np.errstate(divide="ignore", invalid="ignore"):
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                iqi = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
        xn = x1 + t * (x2 - x1)
        fn = np.asarray(f(xn, *args), dtype=float)
        keep = np.sign(fn) == np.sign(f1)
        x3, f3 = np.where(keep, x1, x2), np.where(keep, f1, f2)
        x2, f2 = np.where(keep, x2, x1), np.where(keep, f2, f1)
        x1, f1 = xn, fn
        nit += 1

    if np.any(status == -1):
        k = int(np.argmax(status == -1))
        raise BracketError(f"{int(np.sum(status == -1))} bracket(s) without "
                           f"a sign change (first: f = {fl[k]:.3e}, "
                           f"{fr[k]:.3e})")
    if np.any(status != 0):
        raise RuntimeError(f"root solve failed with status "
                           f"{int(status[np.argmax(status != 0)])}")
    return float(x[0]) if shape == () else x.reshape(shape)


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


# Elements of the (nodes x points) residual sign block that the arc scan
# forms at a time: all nodes at once for a few points, one node at a time
# for a field's worth
_SCAN_BLOCK = 1 << 14


def _arc_roots(circle, nodes, x, y, both):
    """Scan the circle residual on nodes and solve in the first (and, with
    both, the last) sign-change cell of each point; nan without a change.

    The circles are computed once for all nodes; the residual's sign is
    formed on blocks of consecutive nodes (sharing their end node), so the
    scan never holds a (nodes x points) matrix of a large point set.
    """
    def resid(s, x, y):
        cx, cy, r2 = circle(s)
        return (x - cx) ** 2 + (y - cy) ** 2 - r2

    col = (-1,) + (1,) * x.ndim
    cx, cy, r2 = (np.broadcast_to(a, nodes.shape).reshape(col)
                  for a in circle(nodes))
    first = np.full(x.shape, -1)
    last = np.full(x.shape, -1)
    step = max(1, _SCAN_BLOCK // max(x.size, 1))
    for k0 in range(0, len(nodes) - 1, step):
        blk = slice(k0, k0 + step + 1)
        sgn = np.sign((x - cx[blk]) ** 2 + (y - cy[blk]) ** 2 - r2[blk])
        change = (sgn[:-1] * sgn[1:]) <= 0
        seen = change.any(axis=0)
        fresh = seen & (first < 0)
        first[fresh] = k0 + np.argmax(change, axis=0)[fresh]
        if both:
            last[seen] = (k0 + len(change) - 1
                          - np.argmax(change[::-1], axis=0)[seen])
    ok = first >= 0
    roots = []
    for cell in ((first, last) if both else (first,)):
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
    nodes, with the circles computed once for all nodes, and solved in its
    first sign-change cell.  Points without a sign change get s = nan.
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
        # sorted and without repeats, as np.unique would give, which would
        # also import numpy.ma
        nodes = np.sort(np.concatenate(
            [nodes, lo * (hi / lo) ** np.linspace(0.0, 1.0, n_scan)]))
        nodes = nodes[np.concatenate([[True], nodes[1:] != nodes[:-1]])]
    return tuple(_arc_roots(circle, nodes, x, y, True))
