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
each point brings its own bracket, so no scan is needed.  Its residual,
`arc_residual`, depends on an arc's circle alone, so the constructions
test which side of a seam arc a point lies on with the same evaluation
that a bracket end at that arc uses.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
# SciPy's default iteration cap: the number of binades of float64
_MAXITER = math.log2(np.finfo(float).max) - math.log2(_TINY)
# points per `arc_root` solve; the solve holds about 44 float64 values
# per point, so a block holds about 1.4 MB
ARC_BLOCK = 4096


class BracketError(ValueError):
    """A bracket does not enclose a sign change."""


def bracketed_root(f: Callable, lo, hi, args=(), xtol: float = 0.0,
                   signs=None):
    """Root of f(x, *args) = 0 in every bracket [lo, hi], elementwise.

    f must be elementwise: it is called on the still-unconverged points
    only, with the matching elements of args, so per-point data must come
    through args rather than a closure.  lo, hi and args broadcast together.
    The bracket shrinks to a few ulps, or to xtol when xtol > 0.  A root at
    an endpoint (f exactly 0 there) is returned as is.  signs, when given,
    are the signs (+-1) f has at lo and at hi in every bracket; where f at
    an end has the other sign it is taken as 0, so that end is the root.
    Raises BracketError where f(lo) and f(hi) share a nonzero sign and
    RuntimeError on any other failure.  Returns an array of the broadcast
    shape, or a float for scalar input.
    """
    lo, hi, *args = np.broadcast_arrays(lo, hi, *args)
    shape = lo.shape
    x1, x2 = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    f1 = np.asarray(f(x1, *args), dtype=float).ravel()
    f2 = np.asarray(f(x2, *args), dtype=float).ravel()
    if signs is not None:
        f1 = np.where(signs[0] * f1 < 0.0, 0.0, f1)
        f2 = np.where(signs[1] * f2 < 0.0, 0.0, f2)
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


def _arc_parts(seed: Callable, q, x, y):
    x0, y0, th0, v0 = seed(q)[:4]
    return x - x0, y - y0, np.cos(th0), np.sin(th0), v0


def _arc_residual(seed: Callable, q, x, y):
    dx, dy, e0x, e0y, v0 = _arc_parts(seed, q, x, y)
    return v0 * (dx * dx + dy * dy) + 2.0 * (dx * e0x + dy * e0y)


def arc_residual(seed: Callable, q: float, x, y):
    """The residual `arc_root` solves, of the one arc with parameter q at
    the points (x, y): v0 |d|^2 + 2 d.e0 = (|w|^2 - 1)/v0 (see
    `arc_root`).  It equals v0 |p - C|^2 - 1/v0 with C = P0 - e0/v0, so
    it depends on the arc's circle and curvature alone, not on where along
    the circle the arc is seeded: two families that share an arc share its
    residual, to roundoff.  For v0 < 0 it is positive inside that
    circle."""
    return _arc_residual(seed, np.array([q], dtype=float), x, y)


def arc_root(seed: Callable, lo, hi, x, y, signs=None):
    """Angle and curvature at (x, y) of the family arc through it.

    seed(q) -> (x0, y0, theta0, v0, ...) is the elementwise seed of the
    arc with parameter q (entries past the fourth, such as a family's t*,
    are ignored), and [lo, hi] brackets each point's arc.  The arc
    through p = (x, y) has |w|^2 = 1 with w = v0 (p - P0) + e0, e0 = (cos
    theta0, sin theta0), and w = (cos theta, sin theta) at p.  The root is
    solved in q for `arc_residual` (|w|^2 - 1)/v0 = v0 |d|^2 + 2 d.e0 with
    d = p - P0: no 1/v0 and no cancellation of the 1, and at v0 = 0 it is
    the straight arc's equation d.e0 = 0, so straight arcs need no clamp.
    signs, when given, are the signs (+-1) of that residual at lo and at
    hi for points inside the bracket.  An end where it has the other sign
    is taken as 0, and so is the root (see `bracketed_root`): the caller's
    region test put the point between the two arcs, so it lies on that
    end's arc within roundoff, as at a seam between two families.  Returns
    (theta, v0) at the roots, theta = atan2(w_y, w_x), of the broadcast
    shape of lo, hi, x and y.  The points are solved ARC_BLOCK at a time,
    which bounds the solver's temporaries; the solve is elementwise, so
    the blocks change no result.  An argument with a single value, such as
    a bracket end shared by every point, is broadcast block by block.
    """
    def resid(q, x, y):
        return _arc_residual(seed, q, x, y)

    def flat(a):
        a = np.asarray(a, dtype=float)
        if a.shape == shape:
            return a.ravel()
        if a.size == 1:
            return a.reshape(())
        return np.broadcast_to(a, shape).ravel()

    shape = np.broadcast_shapes(*(np.shape(a) for a in (lo, hi, x, y)))
    lo, hi, x, y = (flat(a) for a in (lo, hi, x, y))
    n = math.prod(shape)
    theta, v = np.empty(n), np.empty(n)
    for k in range(0, n, ARC_BLOCK):
        b = slice(k, k + ARC_BLOCK)
        lo_b, hi_b, x_b, y_b = (a[b] if a.ndim else a for a in (lo, hi, x, y))
        q = bracketed_root(resid, lo_b, hi_b, args=(x_b, y_b), signs=signs)
        dx, dy, e0x, e0y, v0 = _arc_parts(seed, q, x_b, y_b)
        theta[b] = np.arctan2(v0 * dy + e0y, v0 * dx + e0x)
        v[b] = v0
    return theta.reshape(shape), v.reshape(shape)
