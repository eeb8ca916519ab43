"""Bracketed scalar root finding: the one solver behind every construction.

Each construction equation comes with a sign bracket, so one solver serves
them all.  `bracketed_root` is Chandrupatla's method (inverse quadratic
interpolation safeguarded by bisection; Chandrupatla 1997, Adv. Eng.
Softw. 28:145), run elementwise over arrays of brackets; it refuses
brackets without a sign change.  It follows SciPy's `find_root` operation
for operation, so both return the same floats.  `scan_brackets` finds
brackets of a scalar function when only an interval is known.

`arc_root` inverts a one-parameter family of circular arcs at many points
at once: the family's seed comes in a parameter with a closed form, and
each point brings its own bracket, so no scan is needed.
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


def arc_root(seed: Callable, lo, hi, x, y):
    """Angle and curvature at (x, y) of the family arc through it.

    seed(q) -> (x0, y0, theta0, v0, ...) is the elementwise seed of the
    arc with parameter q (entries past the fourth, such as a family's t*,
    are ignored), and [lo, hi] brackets each point's arc.  The arc
    through p = (x, y) has |w|^2 = 1 with w = v0 (p - P0) + e0, e0 = (cos
    theta0, sin theta0), and w = (cos theta, sin theta) at p.  The root is
    solved in q for (|w|^2 - 1)/v0 = v0 |d|^2 + 2 d.e0 with d = p - P0:
    no 1/v0 and no cancellation of the 1, and at v0 = 0 it is the straight
    arc's equation d.e0 = 0, so straight arcs need no clamp.  Returns
    (theta, v0) at the roots, theta = atan2(w_y, w_x).
    """
    def parts(q, x, y):
        x0, y0, th0, v0 = seed(q)[:4]
        return x - x0, y - y0, np.cos(th0), np.sin(th0), v0

    def resid(q, x, y):
        dx, dy, e0x, e0y, v0 = parts(q, x, y)
        return v0 * (dx * dx + dy * dy) + 2.0 * (dx * e0x + dy * e0y)

    q = bracketed_root(resid, lo, hi, args=(x, y))
    dx, dy, e0x, e0y, v0 = parts(q, x, y)
    return np.arctan2(v0 * dy + e0y, v0 * dx + e0x), v0
