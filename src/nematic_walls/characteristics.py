"""Circular-arc characteristics.

A critical director field u = (cos theta, sin theta) away from walls obeys
two transport equations along the integral curves of u^perp = (-sin theta,
cos theta): theta grows linearly with rate v = div u, and v itself is
constant.  The curves are therefore circular arcs of curvature v (straight
lines when v = 0).  Every construction in this package is a small number of
one-parameter families of such arcs plus an explicit jump set.

Convention: arcs are marched along +u^perp, so the parameter t is arclength,
d theta/dt = v0 and the stored v0 is the physical divergence carried by the
arc.  Positions are evaluated in the cancellation-free sinc form, which is
exact in the straight-line limit v0 -> 0.

The coordinate Jacobian det d(x,y)/d(s,t), which the foliation checks
sample, is also closed-form along each arc (`arc_jacobian`), and so is its
integral over the arc (`arc_jacobian_integral`), which weighs E0's bulk
term.  Both need the seed and its s-derivatives at the arc's foot, not the
arc's positions; `family_jacobian` and `family_jacobian_integral` take
those derivatives by central differences of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .core import JumpSegment

# Below this curvature the arc is evaluated as a straight line.  The sinc
# form is continuous through the threshold, so this is documentation more
# than a numerical necessity.
STRAIGHT_LINE_THRESHOLD = 1e-8

# Central-difference step of the seed derivatives in family_jacobian,
# relative to max(s-span, 1).
SEED_DIFF_STEP = 1e-6


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


@dataclass(frozen=True)
class CharacteristicArc:
    x0: float
    y0: float
    theta0: float
    v0: float
    t_max: float = np.inf

    def __post_init__(self):
        vals = (self.x0, self.y0, self.theta0, self.v0, self.t_max)
        if not all(np.isfinite(v) or v == np.inf for v in vals):
            raise ValueError("non-finite arc data")
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")


def arc_point(arc: CharacteristicArc, t):
    """(x, y, theta, v) at parameter t in [0, t_max]; t may be an array."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-15) or np.any(t > arc.t_max * (1 + 1e-15) + 1e-300):
        raise ValueError(f"t out of range [0, {arc.t_max}]")
    theta = arc.theta0 + arc.v0 * t
    half = 0.5 * arc.v0 * t
    s = t * _sinc(half)
    x = arc.x0 - s * np.sin(arc.theta0 + half)
    y = arc.y0 + s * np.cos(arc.theta0 + half)
    v = np.broadcast_to(np.asarray(arc.v0, dtype=float), theta.shape).copy() \
        if theta.shape else float(arc.v0)
    return x, y, theta, v


def arc_tangent_normal(arc: CharacteristicArc, t):
    """Unit tangent tau = (-sin theta, cos theta) and normal nu = tau^perp.

    nu equals the director u itself, so u . tau = 0 holds exactly.
    """
    _, _, theta, _ = arc_point(arc, t)
    tau = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    nu = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return tau, nu


class NoConvergence(RuntimeError):
    """Point inversion failed; the point is outside the family's region."""


@dataclass
class CharacteristicFamily:
    """One-parameter family of arcs.

    seed   vectorized s -> (x0, y0, theta0, v0) arrays
    s_range  (s_lo, s_hi)
    t_star   vectorized s -> terminal parameter (> 0 inside the open range)
    label    region tag
    """

    seed: Callable[[np.ndarray], tuple]
    s_range: tuple
    t_star: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    @classmethod
    def from_samples(cls, s: np.ndarray, x0: np.ndarray, y0: np.ndarray,
                     theta0: np.ndarray, v0: np.ndarray, t_star: np.ndarray,
                     label: str = "") -> "CharacteristicFamily":
        """Monotone-cubic interpolation of sampled seed data.

        PCHIP preserves the monotonicity of v0(s) that the constructions
        prove, so interpolated seeds cannot overshoot the proven brackets.
        """
        s = np.asarray(s, dtype=float)
        interps = [pchip(s, a) for a in (x0, y0, theta0, v0)]
        return cls(seed=lambda ss: tuple(f(ss) for f in interps),
                   s_range=(float(s[0]), float(s[-1])),
                   t_star=pchip(s, t_star), label=label)

    def arc_at(self, s: float) -> CharacteristicArc:
        x0, y0, th0, v0 = (float(np.asarray(a)) for a in self.seed(np.asarray(s)))
        return CharacteristicArc(x0, y0, th0, v0, t_max=float(self.t_star(s)))

    def point(self, s, t):
        """Vectorized forward map (s, t) -> (x, y, theta, v)."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        x0, y0, th0, v0 = self.seed(s)
        x, y, theta = arc_xy(x0, y0, th0, v0, t)
        return x, y, theta, np.broadcast_to(v0, theta.shape)


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
    """(theta0, v0) at s and (x0', y0', theta0', v0'), the central
    differences of family.seed over SEED_DIFF_STEP (one-sided at the ends
    of s_range): two seed calls, one at s and one on s + ds and s - ds
    stacked."""
    s = np.asarray(s, dtype=float)
    s_lo, s_hi = family.s_range
    ds = SEED_DIFF_STEP * max(s_hi - s_lo, 1.0)
    sp = np.minimum(s + ds, s_hi)
    sm = np.maximum(s - ds, s_lo)
    _, _, th0, v0 = (np.asarray(a, dtype=float) for a in family.seed(s))
    ends = (np.asarray(a, dtype=float) for a in family.seed(np.stack([sp, sm])))
    return th0, v0, tuple((p - m) / (sp - sm) for p, m in ends)


def family_jacobian(family: CharacteristicFamily, s, t):
    """(J, v0): the Jacobian det d(x,y)/d(s,t) of `arc_jacobian` on the
    broadcast shape of s and t, and the arcs' divergence on the shape of s.

    The seed derivatives are taken on s alone: pass s as a column against
    a t-grid to evaluate the seed twice in all.
    """
    th0, v0, derivs = _seed_derivatives(family, s)
    return arc_jacobian(th0, v0, *derivs, np.asarray(t, dtype=float)), v0


def family_jacobian_integral(family: CharacteristicFamily, s):
    """(I, v0): `arc_jacobian_integral` over [0, max(t_star(s), 0)] of the
    arc seeded at each s, and the arcs' divergence, both on the shape of
    s.  The seed is evaluated twice.  t_star(s) is called right before
    seed(s), so a family that derives both from one solve on the s-nodes
    (cross-tie region II) can keep that solve for the second call."""
    ts = np.maximum(np.asarray(family.t_star(s), dtype=float), 0.0)
    th0, v0, derivs = _seed_derivatives(family, s)
    return arc_jacobian_integral(th0, v0, *derivs, ts), v0


def invert_family(family: CharacteristicFamily, x: float, y: float,
                  guess: Optional[tuple] = None, tol: float = 1e-12,
                  max_iter: int = 50):
    """Solve family.point(s, t) = (x, y) by damped Newton with FD Jacobian.

    The initial guess comes from a coarse lattice scan unless supplied.
    Raises NoConvergence when the point is outside the covered region, so
    callers can try the next family.
    """
    s_lo, s_hi = family.s_range

    if guess is None:
        ns, nt = 24, 24
        ss = np.linspace(s_lo, s_hi, ns)
        tt = np.linspace(0.0, 1.0, nt)
        S, T_ = np.meshgrid(ss, tt, indexing="ij")
        Tt = T_ * np.maximum(family.t_star(S), 0.0)
        X, Y, _, _ = family.point(S, Tt)
        k = np.argmin((X - x) ** 2 + (Y - y) ** 2)
        s, t = float(S.ravel()[k]), float(Tt.ravel()[k])
    else:
        s, t = float(guess[0]), float(guess[1])

    span = max(s_hi - s_lo, 1.0)
    for _ in range(max_iter):
        px, py, _, _ = family.point(s, t)
        rx, ry = px - x, py - y
        if max(abs(rx), abs(ry)) < tol:
            ts = float(family.t_star(s))
            pad_s = 1e-9 * span
            pad_t = 1e-9 * max(ts, 1.0)
            if (s_lo - pad_s <= s <= s_hi + pad_s) and (-pad_t <= t <= ts + pad_t):
                return (min(max(s, s_lo), s_hi), min(max(t, 0.0), ts))
            raise NoConvergence(f"converged outside range: s={s}, t={t}")
        hs = 1e-7 * span
        ht = 1e-7 * max(abs(t), 1.0)
        xs, ys, _, _ = family.point(s + hs, t)
        xm, ym, _, _ = family.point(s - hs, t)
        x_s, y_s = (xs - xm) / (2 * hs), (ys - ym) / (2 * hs)
        xt, yt, _, _ = family.point(s, t + ht)
        xtm, ytm, _, _ = family.point(s, t - ht)
        x_t, y_t = (xt - xtm) / (2 * ht), (yt - ytm) / (2 * ht)
        det = x_s * y_t - x_t * y_s
        if abs(det) < 1e-300:
            raise NoConvergence("singular Jacobian during inversion")
        d_s = (-rx * y_t + ry * x_t) / det
        d_t = (-ry * x_s + rx * y_s) / det
        # damping: never jump more than a quarter of the s-range at once
        lim = 0.25 * span
        fac = min(1.0, lim / max(abs(d_s), 1e-300))
        s_new = s + fac * d_s
        t_new = t + fac * d_t
        s = min(max(s_new, s_lo - 0.05 * span), s_hi + 0.05 * span)
        t = t_new
    raise NoConvergence(f"no convergence inverting at ({x}, {y})")


def invert_family_batch(family: CharacteristicFamily, x: np.ndarray, y: np.ndarray,
                        tol: float = 1e-12, max_iter: int = 60,
                        scan: tuple = (48, 48)):
    """Batched Newton inversion; returns (s, t, ok) arrays.

    ok is False where the iteration left the family's (s, t) box or failed
    to converge.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    s_lo, s_hi = family.s_range
    span = max(s_hi - s_lo, 1.0)

    ns, nt = scan
    ss = np.linspace(s_lo, s_hi, ns)
    tt = np.linspace(0.0, 1.0, nt)
    S, T_ = np.meshgrid(ss, tt, indexing="ij")
    Tt = T_ * np.maximum(family.t_star(S), 0.0)
    X, Y, _, _ = family.point(S, Tt)
    Xf, Yf, Sf, Tf = X.ravel(), Y.ravel(), S.ravel(), Tt.ravel()
    # nearest scan point per query
    d2 = (Xf[None, :] - x[:, None]) ** 2 + (Yf[None, :] - y[:, None]) ** 2
    k = np.argmin(d2, axis=1)
    s = Sf[k].copy()
    t = Tf[k].copy()

    hs = 1e-7 * span
    active = np.ones(x.shape, dtype=bool)
    for _ in range(max_iter):
        px, py, _, _ = family.point(s, t)
        rx, ry = px - x, py - y
        done = np.maximum(np.abs(rx), np.abs(ry)) < tol
        active &= ~done
        if not active.any():
            break
        sa, ta = s[active], t[active]
        xs, ys, _, _ = family.point(sa + hs, ta)
        xm, ym, _, _ = family.point(sa - hs, ta)
        x_s, y_s = (xs - xm) / (2 * hs), (ys - ym) / (2 * hs)
        _, _, theta_a, _ = family.point(sa, ta)
        x_t, y_t = -np.sin(theta_a), np.cos(theta_a)
        det = x_s * y_t - x_t * y_s
        det = np.where(np.abs(det) < 1e-300, np.nan, det)
        rxa, rya = rx[active], ry[active]
        d_s = (-rxa * y_t + rya * x_t) / det
        d_t = (-rya * x_s + rxa * y_s) / det
        lim = 0.25 * span
        mag = np.abs(d_s)
        fac = np.where(mag > lim, lim / mag, 1.0)
        s[active] = np.clip(sa + fac * d_s, s_lo - 0.05 * span, s_hi + 0.05 * span)
        t[active] = ta + fac * d_t

    px, py, _, _ = family.point(s, t)
    resid = np.maximum(np.abs(px - x), np.abs(py - y))
    ts = np.maximum(family.t_star(np.clip(s, s_lo, s_hi)), 0.0)
    pad_s = 1e-9 * span
    ok = (resid < 10 * tol) & (s >= s_lo - pad_s) & (s <= s_hi + pad_s) \
        & (t >= -1e-9 * np.maximum(ts, 1.0)) & (t <= ts * (1 + 1e-9) + 1e-12)
    return np.clip(s, s_lo, s_hi), np.clip(t, 0.0, ts), ok


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


def check_foliation(family: CharacteristicFamily, ns: int = 16, nt: int = 16,
                    interior_margin: float = 1e-3) -> FoliationReport:
    """Sample the coordinate Jacobian on an ns x nt lattice and count arc
    crossings at the sampled resolution.

    The Jacobian is sampled slightly inside the (s, t) box: the families of
    interest focus at vortices where J -> 0 by construction, which is not a
    foliation failure.  Crossings at shared seed or focus points are ignored.
    """
    if ns < 8 or nt < 8:
        raise ValueError("ns, nt must be >= 8")
    s_lo, s_hi = family.s_range
    ss = s_lo + (s_hi - s_lo) * (interior_margin
                                 + (1 - 2 * interior_margin)
                                 * np.linspace(0.0, 1.0, ns))
    taus = interior_margin + (1 - 2 * interior_margin) * np.linspace(0.0, 1.0, nt)
    T_ = taus * np.maximum(family.t_star(ss), 0.0)[:, None]
    J, _ = family_jacobian(family, ss[:, None], T_)
    jmin, jmax = float(J.min()), float(J.max())
    sign_consistent = bool(jmin > 0.0 or jmax < 0.0)

    # pairwise polyline intersection tests
    tt_nodes = np.linspace(0.0, 1.0, nt)
    crossings = 0
    polys = []
    for s in ss:
        ts = max(float(family.t_star(s)), 0.0)
        xx, yy, _, _ = family.point(np.full(nt, s), tt_nodes * ts)
        polys.append(np.stack([xx, yy], axis=-1))
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

    eval_fn: optional (x, y) -> (u1, u2, v) closed-form evaluation.  When
    absent, evaluation falls back to family inversion.
    """

    families: List[CharacteristicFamily]
    jumps: List[JumpSegment]
    domain: str = ""
    eval_fn: Optional[Callable] = None
    symmetry_copies: int = 1  # bulk integral multiplier (reflection copies)
    wall_multiplier: float = 1.0

    def eval(self, x: float, y: float):
        """(u1, u2, v) at a point; NoConvergence if no family covers it."""
        if self.eval_fn is not None:
            return self.eval_fn(x, y)
        last = None
        for fam in self.families:
            try:
                s, t = invert_family(fam, x, y)
            except NoConvergence as exc:
                last = exc
                continue
            _, _, theta, v = fam.point(s, t)
            return float(np.cos(theta)), float(np.sin(theta)), float(v)
        raise NoConvergence(f"no family covers ({x}, {y})") from last


def family_to_csv(family: CharacteristicFamily, path, ns: int = 64, nt: int = 32):
    """Dump the family on its sampling lattice: s,t,x,y,theta,v."""
    ss = np.linspace(*family.s_range, ns)
    with open(path, "w") as fh:
        fh.write("s,t,x,y,theta,v\n")
        for s in ss:
            ts = max(float(family.t_star(s)), 0.0)
            tt = np.linspace(0.0, ts, nt)
            x, y, th, v = family.point(np.full(nt, s), tt)
            for k in range(nt):
                fh.write(f"{s:.17g},{tt[k]:.17g},{x[k]:.17g},{y[k]:.17g},"
                         f"{th[k]:.17g},{v[k]:.17g}\n")
