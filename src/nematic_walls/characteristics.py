"""Circular-arc characteristics.

A critical director field u = (cos theta, sin theta) away from walls obeys
two transport equations along the integral curves of u^perp = (-sin theta,
cos theta): theta grows linearly with rate v = div u, and v itself is
constant.  The curves are therefore circular arcs of curvature v (straight
lines when v = 0).  Every construction in this package is a small number of
one-parameter families of such arcs plus an explicit jump set.

Convention: arcs are marched along +u^perp, so the parameter t is arclength,
d theta/dt = v0 and the stored v0 is the divergence carried by the arc.
Positions have one formula, `arc_xy`, in the cancellation-free sinc form,
which is exact in the straight-line limit v0 -> 0.

A family is one function, its seed: s -> (x0, y0, theta0, v0, t*), the
arc's foot, angle and divergence there, and its terminal parameter.  What
a family derives (its points, its Jacobian, its terminal times, its
arrivals) comes from that one call, so a family that solves for its seed
once gets t* from the same solve.

The coordinate Jacobian det d(x,y)/d(s,t), which the foliation checks
sample, is also closed-form along each arc (`arc_jacobian`), and so is its
integral over the arc (`arc_jacobian_integral`), which weighs E0's bulk
term.  Both need the seed and its s-derivatives at the arc's foot, not the
arc's positions; `family_jacobian` and `family_jacobian_integral` take
those derivatives by central differences of the seed's first four entries.

A `PiecewiseCriticalField` holds the families, the jump set and the one
vectorized pointwise sampler of its construction, `sample(x, y) -> (u1,
u2, v)`, which every point evaluation goes through.

A straight symmetry wall is built by `mirror_wall` from the + side's
angle and divergence at its knots; the - side is their mirror image.  The
knots are the arrivals of the families that end on the wall,
`CharacteristicFamily.arrival(s) -> (x, y, theta, v)`: `arc_xy` at t = t*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .core import JumpSegment

# Central-difference step of the seed derivatives in family_jacobian,
# relative to max(s-span, 1).
SEED_DIFF_STEP = 1e-6

# check_foliation samples the Jacobian this fraction of the (s, t) box in
# from its edges
FOLIATION_MARGIN = 1e-3


def _sinc(z):
    # sin(z)/z with the removable singularity filled in
    return np.sinc(z / np.pi)


def arc_xy(x0, y0, theta0, v0, t):
    """Arc positions in the cancellation-free sinc form (broadcasting)."""
    theta = theta0 + v0 * t
    half = 0.5 * v0 * t
    arclen = t * _sinc(half)
    x = x0 - arclen * np.sin(theta0 + half)
    y = y0 + arclen * np.cos(theta0 + half)
    return x, y, theta


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y) -> Callable[[np.ndarray], np.ndarray]:
    """Monotone piecewise-cubic Hermite interpolant of y(x) (PCHIP; Fritsch
    and Carlson 1980), x strictly increasing.

    Interior slopes are the weighted harmonic mean of the adjacent secant
    slopes, or 0 where those differ in sign or vanish; end slopes use the
    one-sided three-point rule; two points give the straight line.  The
    returned function evaluates elementwise and extends the end cubics
    beyond [x[0], x[-1]].  Every floating-point operation matches SciPy's
    PchipInterpolator, so both give the same values bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = x[1:] - x[:-1]
    if np.any(h <= 0):
        raise ValueError("pchip: x must be strictly increasing")
    m = (y[1:] - y[:-1]) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) \
            | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d = np.concatenate([[_pchip_end_slope(h[0], h[1], m[0], m[1])],
                            np.where(flat, 0.0, inner),
                            [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]])
    # power-form coefficients of each interval, in the local s = x - x[i]
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1] + 0.0

    def interp(xv):
        xv = np.asarray(xv, dtype=float)
        i = np.clip(np.searchsorted(x, xv, side="right") - 1, 0, len(x) - 2)
        s = xv - x[i]
        ss = s * s
        return c3[i] + c2[i] * s + c1[i] * ss + c0[i] * (ss * s)

    return interp


def mirror_wall(points, q, theta, v, normal) -> JumpSegment:
    """Jump segment of a straight symmetry wall with unit normal `normal`
    (from the + side to the - side).

    points, q, theta and v are the wall's knots, their arclength from the
    first knot, and the + side's angle and divergence there.  The knots
    are sorted by q, a knot within 1e-14 of the wall's length of the one
    before it is dropped, and theta(q) and v(q) are fitted with `pchip`.
    The - side is the + side's mirror image: u- = 2 (u+ . nu) nu - u+ and
    v- = -v+.
    """
    q = np.asarray(q, dtype=float)
    order = np.argsort(q)
    points, q, theta, v = (np.asarray(a, dtype=float)[order]
                           for a in (points, q, theta, v))
    keep = np.concatenate([[True], np.diff(q) > 1e-14 * (q[-1] - q[0])])
    theta_of_q, v_of_q = pchip(q[keep], theta[keep]), pchip(q[keep], v[keep])
    nu = np.asarray(normal, dtype=float)

    def traces(arc):
        th = theta_of_q(arc)
        up = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return up, 2.0 * (up @ nu)[..., None] * nu - up

    return JumpSegment(polyline=points[keep],
                       normals=np.tile(nu, (np.count_nonzero(keep), 1)),
                       trace_fn=traces,
                       div_fn=lambda arc: (w := v_of_q(arc), -w))


@dataclass
class CharacteristicFamily:
    """One-parameter family of arcs.

    seed     vectorized s -> (x0, y0, theta0, v0, t_star) arrays: the foot,
             angle and divergence of the arc seeded at s, and its terminal
             parameter (> 0 inside the open range)
    s_range  (s_lo, s_hi)
    """

    seed: Callable[[np.ndarray], tuple]
    s_range: tuple

    def point(self, s, t):
        """Vectorized forward map (s, t) -> (x, y, theta, v)."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        x0, y0, th0, v0, _ = self.seed(s)
        x, y, theta = arc_xy(x0, y0, th0, v0, t)
        return x, y, theta, np.broadcast_to(v0, theta.shape)

    def arrival(self, s):
        """(x, y, theta, v) where the arc seeded at s ends: one seed call
        and `arc_xy` at t = t*; what a wall's knots carry."""
        x0, y0, th0, v0, ts = self.seed(np.asarray(s, dtype=float))
        x, y, theta = arc_xy(x0, y0, th0, v0, ts)
        return x, y, theta, v0


def arc_jacobian(theta0, v0, x0_s, y0_s, theta0_s, v0_s, t):
    """det d(x,y)/d(s,t) = (dp/ds) . u along arcs, from the seed (theta0,
    v0) and its s-derivatives (x0', y0', theta0', v0'); broadcasting.

    Along an arc, J = x_s cos theta + y_s sin theta and K = -x_s sin theta
    + y_s cos theta obey J' = v0 K - theta_s and K' = -v0 J, where
    theta_s = theta0' + v0' t, so

        J = J0 cos(v0 t) + K0 sin(v0 t) - theta0' t sinc(v0 t)
            - v0' (t^2/2) sinc^2(v0 t/2),

    with J0, K0 the values at t = 0.  In the half angle h = v0 t/2 and
    S = t sinc(h): cos(v0 t) = 1 - v0 S sin h, sin(v0 t) = v0 S cos h and
    (1 - cos(v0 t))/v0^2 = S^2/2, so a point costs one sin and one cos.
    S = t where h = 0, which covers straight arcs (v0 = 0).
    """
    J0, K0, sh, ch, S = _foot_and_half_angle(theta0, v0, x0_s, y0_s, t)
    return J0 + S * ((v0 * K0 - theta0_s) * ch - (v0 * J0) * sh
                     - (0.5 * v0_s) * S)


def _foot_and_half_angle(theta0, v0, x0_s, y0_s, t):
    """J0 and K0 at the arc's foot, and sin h, cos h and S = t sinc(h) in
    the half angle h = v0 t/2."""
    c0, s0 = np.cos(theta0), np.sin(theta0)
    h = 0.5 * v0 * t
    sh, ch = np.sin(h), np.cos(h)
    with np.errstate(invalid="ignore", divide="ignore"):
        S = t * np.where(h != 0.0, sh / h, 1.0)
    return x0_s * c0 + y0_s * s0, y0_s * c0 - x0_s * s0, sh, ch, S


# Taylor coefficients of G(x) = (x - sin x)/x^3 = sum_n (-1)^n x^2n/(2n+3)!,
# enough terms for roundoff accuracy on |x| < 1
_G_COEFFS = tuple((-1) ** n / math.factorial(2 * n + 3) for n in range(8))


def _g_series(x):
    z = x * x
    g = 0.0
    for c in reversed(_G_COEFFS):
        g = g * z + c
    return g


def arc_jacobian_integral(theta0, v0, x0_s, y0_s, theta0_s, v0_s, t_star):
    """integral of `arc_jacobian` over t in [0, t_star]; broadcasting.

    J solves J'' + v0^2 J = -v0' with J(0) = J0 and J'(0) = v0 K0 -
    theta0', so with h = v0 t*/2, S = t* sinc(h) and G(x) = (x - sin x)/x^3

        I = J0 S cos h + (v0 K0 - theta0') S^2/2 - v0' t*^3 G(2h),

    two sines and a cosine per arc besides the foot's.  Below |x| = 1,
    where x - sin x cancels, G is its Taylor series, accurate to roundoff
    there.
    """
    J0, K0, _, ch, S = _foot_and_half_angle(theta0, v0, x0_s, y0_s, t_star)
    x = v0 * t_star
    with np.errstate(invalid="ignore", divide="ignore"):
        G = np.where(np.abs(x) < 1.0, _g_series(x), (x - np.sin(x)) / x ** 3)
    return J0 * S * ch + (v0 * K0 - theta0_s) * (0.5 * S * S) \
        - v0_s * t_star ** 3 * G


def _seed_derivatives(family: CharacteristicFamily, s):
    """(theta0, v0, t_star) at s and (x0', y0', theta0', v0'), the central
    differences of the seed's first four entries over SEED_DIFF_STEP
    (one-sided at the ends of s_range): one seed call, on s, s + ds and
    s - ds stacked."""
    s = np.asarray(s, dtype=float)
    s_lo, s_hi = family.s_range
    ds = SEED_DIFF_STEP * max(s_hi - s_lo, 1.0)
    sp = np.minimum(s + ds, s_hi)
    sm = np.maximum(s - ds, s_lo)
    x0, y0, th0, v0, ts = (np.asarray(a, dtype=float)
                           for a in family.seed(np.stack([s, sp, sm])))
    return th0[0], v0[0], ts[0], tuple((a[1] - a[2]) / (sp - sm)
                                       for a in (x0, y0, th0, v0))


def family_jacobian(family: CharacteristicFamily, s, t):
    """(J, v0): the Jacobian det d(x,y)/d(s,t) of `arc_jacobian` on the
    broadcast shape of s and t, and the arcs' divergence on the shape of s.

    The seed derivatives are taken on s alone: pass s as a column against
    a t-grid to evaluate the seed once in all.
    """
    th0, v0, _, derivs = _seed_derivatives(family, s)
    return arc_jacobian(th0, v0, *derivs, np.asarray(t, dtype=float)), v0


def family_jacobian_integral(family: CharacteristicFamily, s):
    """(I, v0): `arc_jacobian_integral` over [0, max(t_star, 0)] of the arc
    seeded at each s, and the arcs' divergence, both on the shape of s.
    The seed is evaluated once, on s and s +- ds stacked, and t_star
    comes from its s part."""
    th0, v0, ts, derivs = _seed_derivatives(family, s)
    return arc_jacobian_integral(th0, v0, *derivs, np.maximum(ts, 0.0)), v0


@dataclass
class FoliationReport:
    min_jacobian: float
    max_jacobian: float
    sign_consistent: bool
    crossings: int


def _segments_intersect(p, p2, q, q2, eps=1e-12):
    """Proper intersection test for segments [p,p2] and [q,q2] (vectorized)."""
    d1 = p2 - p
    d2 = q2 - q
    r = q - p
    denom = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    tn = r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]
    un = r[..., 0] * d1[..., 1] - r[..., 1] * d1[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = tn / denom
        uu = un / denom
    hit = (np.abs(denom) > eps) & (tt > eps) & (tt < 1 - eps) \
        & (uu > eps) & (uu < 1 - eps)
    return hit, tt, uu


def check_foliation(family: CharacteristicFamily, ns: int = 16,
                    nt: int = 16) -> FoliationReport:
    """Sample the coordinate Jacobian on an ns x nt lattice and count arc
    crossings at the sampled resolution.

    The Jacobian is sampled FOLIATION_MARGIN inside the (s, t) box: the
    families of interest focus at vortices where J -> 0 by construction,
    which is not a foliation failure.  Crossings at shared seed or focus
    points are ignored.
    """
    if ns < 8 or nt < 8:
        raise ValueError("ns, nt must be >= 8")
    s_lo, s_hi = family.s_range
    m = FOLIATION_MARGIN
    ss = s_lo + (s_hi - s_lo) * (m + (1 - 2 * m) * np.linspace(0.0, 1.0, ns))
    taus = m + (1 - 2 * m) * np.linspace(0.0, 1.0, nt)
    ts = np.maximum(np.asarray(family.seed(ss)[4], dtype=float), 0.0)
    J, _ = family_jacobian(family, ss[:, None], taus * ts[:, None])
    jmin, jmax = float(J.min()), float(J.max())
    sign_consistent = bool(jmin > 0.0 or jmax < 0.0)

    # pairwise intersection tests of the arcs' nt-vertex polylines
    xx, yy, _, _ = family.point(np.repeat(ss[:, None], nt, axis=1),
                                ts[:, None] * np.linspace(0.0, 1.0, nt))
    polys = np.stack([xx, yy], axis=-1)
    crossings = 0
    for i in range(ns):
        for j in range(i + 1, ns):
            A, B = polys[i], polys[j]
            p, p2 = A[:-1], A[1:]
            q, q2 = B[:-1], B[1:]
            hit, _, _ = _segments_intersect(p[:, None, :], p2[:, None, :],
                                            q[None, :, :], q2[None, :, :])
            if hit.any():
                # ignore near-endpoint meetings (shared vortex/seed)
                ia, ja = np.nonzero(hit)
                mids = 0.5 * (p[ia] + p2[ia])
                ends = np.array([A[0], A[-1], B[0], B[-1]])
                dmin = np.min(np.linalg.norm(mids[:, None, :] - ends[None, :, :],
                                             axis=-1), axis=1)
                scale = max(np.linalg.norm(A[-1] - A[0]), 1e-12)
                crossings += int(np.count_nonzero(dmin > 0.02 * scale))
    return FoliationReport(jmin, jmax, sign_consistent, crossings)


@dataclass
class PiecewiseCriticalField:
    """Critical point of the wall-energy functional: characteristic families
    plus an explicit jump set.

    families and jumps are the unit-scale build; the field is its image
    under x -> scale x.  sample: vectorized (x, y) -> (u1, u2, v) arrays of
    the broadcast shape of x and y, the one pointwise evaluation of the
    field; the disc and annulus samplers raise ValueError off their domains.
    """

    families: List[CharacteristicFamily]
    jumps: List[JumpSegment]
    sample: Callable
    symmetry_copies: int = 1  # bulk integral multiplier (reflection copies)
    wall_multiplier: float = 1.0
    scale: float = 1.0
