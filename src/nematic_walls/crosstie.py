"""Cross-tie critical point on the periodic rectangle.

On the quarter cell (0,T) x (0,H) with theta = 0 on the top and right
edges and walls along x = 0 and y = 0, three families of circular-arc
characteristics assemble a critical point once the half-period satisfies
the tangency relation

    (L/H) (sqrt((L/H)^2 + 4 Tt^2) - L/H) = 8 Tt^3 (1 - Tt^2)/(Tt^2+1)^2,

which makes the terminal characteristics of families I and III meet
tangentially at the (T, 0) vortex (solved by `rect1d.solve_Ttilde`).  The
energy per unit length depends on L/H only; compared against the
one-dimensional minimum it is lower exactly on an interval
(L0, L1) ~ (1.27, 2.14).

Family conventions (arcs marched along u^perp, stored v = physical
divergence, negative throughout the quarter cell):

  I   point-seeded at the (T,0) vortex, angle 2 atan((T-s)/H), curvature
      -1/R(s) with R(s) = (T-s)/2 + H^2/(2(T-s)); arcs end on the top edge.
  III seeded on the bottom wall at angle pi/2 - asin(w)/2 per
      sin(2 theta) = w = (-1 + sqrt(1+2 lambda))/lambda, lambda = 2 s^2/L^2,
      curvature -w/L; arcs end on the left wall.
  II  seeded tangentially on family I's terminal arc (theta continuous,
      v jumps), terminal angle the root of
      (1 - cos(alpha s)) sin(2 beta) - L alpha (cos beta - cos(alpha s)) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .characteristics import (CharacteristicFamily, PiecewiseCriticalField,
                              pchip)
from .core import EnergyBreakdown, JumpSegment, Params
from . import rect1d
from .energy import eval_E0_piecewise
# the period equation lives in rect1d, which the flow imports without this
# module; its names stay importable from here
from .rect1d import (SQRT2M1, period_equation_residual, solve_Ttilde,
                     ttilde_closed_form_check)
from .rootfind import (bracketed_arc_solve, bracketed_arc_solve_both,
                       bracketed_root)

# --- region III seed relations ------------------------------------------------

def _w_of_lambda(lam):
    lam = np.asarray(lam, dtype=float)
    small = lam < 1e-8
    safe = np.where(small, 1.0, lam)
    w = (-1.0 + np.sqrt(1.0 + 2.0 * safe)) / safe
    series = 1.0 - 0.5 * lam + 0.5 * lam * lam
    return np.where(small, series, w)


def region3_seed_angle(s, L: float):
    """theta at the bottom wall: pi/2 - asin(w)/2 in (pi/4, pi/2)."""
    s = np.asarray(s, dtype=float)
    w = _w_of_lambda(2.0 * s * s / (L * L))
    return 0.5 * math.pi - 0.5 * np.arcsin(np.clip(w, -1.0, 1.0))


def region3_v(s, L: float):
    s = np.asarray(s, dtype=float)
    return -_w_of_lambda(2.0 * s * s / (L * L)) / L


# --- region II terminal angle ---------------------------------------------------

def _region2_equation(beta, c, a_s, k):
    """theta*'s equation with c = 1 - cos(alpha s) = 2 sin^2(alpha s/2),
    a_s = alpha s and k = L alpha, in the stable form
    c sin(2 beta) + 2 k sin((beta + a_s)/2) sin((beta - a_s)/2)."""
    return c * np.sin(2.0 * beta) \
        + 2.0 * k * np.sin(0.5 * (beta + a_s)) * np.sin(0.5 * (beta - a_s))


def region2_theta_star(s2, alpha: float, L: float):
    """Root of (1-cos(alpha s)) sin(2 beta) - L alpha (cos beta - cos(alpha s))
    on (0, min(alpha s, beta*)]; vectorized, beta = 0 at s = 0."""
    s = np.asarray(s2, dtype=float)
    # stable forms: 1 - cos x = 2 sin^2(x/2);
    # cos b - cos a = -2 sin((b+a)/2) sin((b-a)/2)
    a_s = alpha * s
    c = 2.0 * np.sin(0.5 * a_s) ** 2
    k = L * alpha
    sin_bstar = np.where(c > 0.5 * k, 0.5 * k / np.maximum(c, 1e-300), 1.0)
    beta_star = np.arcsin(np.clip(sin_bstar, 0.0, 1.0))
    # where alpha s < beta* (<= pi/2), f(alpha s) = c sin(2 alpha s) >= 0,
    # so the root lies below alpha s; this bracket stays tight as s -> 0
    hi = np.minimum(a_s, beta_star)
    beta = np.zeros(s.shape)
    solve = s > 0.0
    beta[solve] = bracketed_root(_region2_equation, 0.0, hi[solve],
                                 args=(c[solve], a_s[solve], k))
    return float(beta) if beta.ndim == 0 else beta


def region2_theta_star_residual(s2, theta_star, alpha: float, L: float):
    """sup |(1-cos(alpha s)) sin(2 theta*) - L alpha (cos theta* -
    cos(alpha s))| in the stable form `region2_theta_star` solves."""
    a_s = alpha * np.asarray(s2, dtype=float)
    f = _region2_equation(np.asarray(theta_star, dtype=float),
                          2.0 * np.sin(0.5 * a_s) ** 2, a_s, L * alpha)
    return float(np.abs(f).max())


@dataclass
class CrossTieSolution:
    L: float
    H: float
    L_over_H: float
    T_tilde: float
    T: float
    alpha: float
    t1_star: float
    region1: CharacteristicFamily
    region2: CharacteristicFamily
    region3: CharacteristicFamily
    wall_left: JumpSegment
    wall_bottom: JumpSegment
    field: PiecewiseCriticalField

    @property
    def tangency_mismatch(self) -> float:
        """Angle gap at (T, 0) between the terminal arcs of families I and
        III (what the period equation enforces)."""
        theta_e = self.alpha * self.t1_star
        theta_b = float(region3_seed_angle(self.T, self.L))
        return abs(theta_e - theta_b)

    def wall_residual(self) -> float:
        """sup |L v + sin 2 theta| over the vertices both walls store, with
        theta the angle of trace_plus (sin 2 theta = 2 u1 u2) and v its
        div_plus: the bottom wall's region-III seeds and the left wall's
        region-III and region-II arrivals."""
        return float(max(
            np.abs(self.L * w.div_plus
                   + 2.0 * w.trace_plus[:, 0] * w.trace_plus[:, 1]).max()
            for w in (self.wall_bottom, self.wall_left)))


def build_crosstie(L: float, H: float) -> CrossTieSolution:
    """Assemble the three families and both walls on the quarter cell."""
    if L <= 0 or H <= 0:
        raise ValueError("L, H > 0 required")
    lh = L / H
    t_tilde = solve_Ttilde(lh)
    T = H * t_tilde
    alpha = 2.0 * T / (T * T + H * H)
    t1_star = 2.0 * math.atan2(T, H) / alpha

    # region I: point seed at the vortex (T, 0)
    def seed1(s):
        s = np.asarray(s, dtype=float)
        d = T - s
        theta0 = 2.0 * np.arctan2(d, H)
        v0 = -2.0 * d / (d * d + H * H)
        return (np.full_like(s, T), np.zeros_like(s), theta0, v0)

    def t_star1(s):
        s = np.asarray(s, dtype=float)
        d = T - s
        theta0 = 2.0 * np.arctan2(d, H)
        with np.errstate(divide="ignore", invalid="ignore"):
            R = 0.5 * d + H * H / (2.0 * np.where(d > 0, d, 1.0))
        return np.where(d > 1e-300, R * theta0, H)

    fam1 = CharacteristicFamily(seed=seed1, s_range=(0.0, T), t_star=t_star1,
                                label="crosstie region I")

    # region III: bottom wall to left wall
    def seed3(s):
        s = np.asarray(s, dtype=float)
        return (s, np.zeros_like(s), region3_seed_angle(s, L), region3_v(s, L))

    def t_star3(s):
        # pi/2 - 2 theta_b = -acos(w), v = -w/L: t* = L acos(w)/w
        s = np.asarray(s, dtype=float)
        w = _w_of_lambda(2.0 * s * s / (L * L))
        return L * np.arccos(np.clip(w, -1.0, 1.0)) / w

    fam3 = CharacteristicFamily(seed=seed3, s_range=(0.0, T), t_star=t_star3,
                                label="crosstie region III")

    # region II: seeded on Gamma (family I's terminal arc).  E0's quadrature
    # calls t_star2(s) and then seed2(s) on the same s-nodes (before the
    # seed on s +- ds), so the last theta* is kept: one solve serves both.
    last = [np.empty(0), np.empty(0)]  # s-nodes (flat) and their theta*

    def theta_star2(s):
        flat = s.ravel()
        if not np.array_equal(flat, last[0]):
            last[:] = flat.copy(), region2_theta_star(flat, alpha, L)
        return last[1].reshape(s.shape)

    def seed2(s):
        s = np.asarray(s, dtype=float)
        x0 = (1.0 - np.cos(alpha * s)) / alpha
        y0 = H - np.sin(alpha * s) / alpha
        th0 = alpha * s
        th_star = theta_star2(s)
        v = -np.sin(2.0 * th_star) / L
        return (x0, y0, th0, v)

    def t_star2(s):
        s = np.asarray(s, dtype=float)
        th_star = theta_star2(s)
        v = -np.sin(2.0 * th_star) / L
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (th_star - alpha * s) / np.where(v != 0.0, v, 1.0)
        # s -> 0: theta* ~ alpha s (1 - s/L), v ~ -2 alpha s / L: t* -> s/2
        return np.where(v != 0.0, t, 0.5 * s)

    fam2 = CharacteristicFamily(seed=seed2, s_range=(0.0, t1_star),
                                t_star=t_star2, label="crosstie region II")

    # --- walls -----------------------------------------------------------
    n_w = 1024
    # bottom wall y = 0, x in (0, T): trace angle theta_b(x)
    xs = np.linspace(0.0, T, n_w)
    thb = region3_seed_angle(xs, L)
    v3 = region3_v(xs, L)
    theta_b_of_x = pchip(xs, thb)
    v3_of_x = pchip(xs, v3)

    def bottom_traces(th):
        c, s = np.cos(th), np.sin(th)
        return np.stack([c, s], axis=-1), np.stack([-c, s], axis=-1)

    tp, tm = bottom_traces(thb)
    wall_bottom = JumpSegment(
        polyline=np.stack([xs, np.zeros_like(xs)], axis=-1),
        normals=np.tile([0.0, -1.0], (n_w, 1)),
        trace_plus=tp, trace_minus=tm, div_plus=v3, div_minus=-v3,
        trace_fn=lambda arc: bottom_traces(theta_b_of_x(arc)),
        div_fns=(v3_of_x, lambda s: -v3_of_x(s)))

    # left wall x = 0, y in (0, H): arrivals of III (y < T) and II (y > T).
    # Stable arrival heights: region III collapses to
    # y3 = sqrt(2) L sin(acos(w)/2)/w; region II uses the half-angle product
    # form of sin(theta*) - sin(alpha s) to avoid cancellation near y = H.
    s3 = np.linspace(0.0, T, n_w // 2 + 1)
    w3 = _w_of_lambda(2.0 * s3 * s3 / (L * L))
    th3b = region3_seed_angle(s3, L)
    th3s = 0.5 * math.pi - th3b
    v3a = region3_v(s3, L)
    y3 = math.sqrt(2.0) * L * np.sin(0.5 * np.arccos(np.clip(w3, -1, 1))) / w3
    s2 = np.linspace(1e-9 * T, t1_star, n_w // 2 + 1)
    th2s = region2_theta_star(s2, alpha, L)
    v2a = -np.sin(2.0 * th2s) / L
    y0_2 = H - np.sin(alpha * s2) / alpha
    diff = 2.0 * np.cos(0.5 * (th2s + alpha * s2)) * np.sin(0.5 * (th2s - alpha * s2))
    with np.errstate(divide="ignore", invalid="ignore"):
        y2 = y0_2 + np.where(v2a != 0.0,
                             diff / np.where(v2a != 0, v2a, 1.0), 0.0)
    yw = np.concatenate([y3, y2])
    thw = np.concatenate([th3s, th2s])
    vw = np.concatenate([v3a, v2a])
    order = np.argsort(yw)
    yw, thw, vw = yw[order], thw[order], vw[order]
    keep = np.concatenate([[True], np.diff(yw) > 1e-14 * H])
    yw, thw, vw = yw[keep], thw[keep], vw[keep]
    theta_of_y = pchip(yw, thw)
    v_of_y = pchip(yw, vw)

    def left_traces(th):
        c, s = np.cos(th), np.sin(th)
        return np.stack([c, s], axis=-1), np.stack([c, -s], axis=-1)

    tp, tm = left_traces(thw)
    wall_left = JumpSegment(
        polyline=np.stack([np.zeros_like(yw), yw], axis=-1),
        normals=np.tile([-1.0, 0.0], (len(yw), 1)),
        trace_plus=tp, trace_minus=tm, div_plus=vw, div_minus=-vw,
        trace_fn=lambda arc: left_traces(theta_of_y(arc)),
        div_fns=(v_of_y, lambda s: -v_of_y(s)))

    sol = CrossTieSolution(L=L, H=H, L_over_H=lh, T_tilde=t_tilde, T=T,
                           alpha=alpha, t1_star=t1_star,
                           region1=fam1, region2=fam2, region3=fam3,
                           wall_left=wall_left, wall_bottom=wall_bottom,
                           field=None)
    # the sampler holds a copy of sol without the field: sol -> field ->
    # sampler -> sol would be a reference cycle, which keeps every
    # solution a sweep builds alive until the cyclic collector runs
    cell = replace(sol)
    sol.field = PiecewiseCriticalField(
        families=[fam1, fam2, fam3], jumps=[wall_left, wall_bottom],
        sample=lambda x, y: crosstie_field_sample(cell, x, y),
        domain=f"period cell (0,{2*T})x(-{H},{H})",
        symmetry_copies=4, wall_multiplier=2.0)

    if sol.tangency_mismatch > 1e-9:
        raise RuntimeError(f"tangency mismatch {sol.tangency_mismatch:.3e} "
                           "(period equation violated)")
    res = sol.wall_residual()
    if res > 1e-8:
        raise RuntimeError(f"wall residual {res:.3e} exceeds 1e-8")
    # wall_residual holds on region II whatever theta* is (v is defined
    # from it), so theta*'s own equation is checked on the left-wall nodes
    res = region2_theta_star_residual(s2, th2s, alpha, L)
    if res > 1e-8:
        raise RuntimeError(f"region-II theta* residual {res:.3e} exceeds 1e-8")
    # terminal region III characteristic must arrive at (0, T)
    if abs(float(y3[-1]) - T) > 1e-8 * max(T, 1.0):
        raise RuntimeError(f"terminal arrival y = {y3[-1]} != T = {T}")
    return sol


def crosstie_energy_per_length(sol: CrossTieSolution, *,
                               s_panels: int = 128, order: int = 4,
                               wall_order: int = 8) -> float:
    """(1/2T) E0 over one period cell (function of L/H only)."""
    eb = eval_E0_piecewise(sol.field, Params(L=sol.L, H=sol.H, T=sol.T),
                           s_panels=s_panels, order=order,
                           wall_order=wall_order)
    return eb.total / (2.0 * sol.T)


def crosstie_energy_breakdown(sol: CrossTieSolution, **kw) -> EnergyBreakdown:
    return eval_E0_piecewise(sol.field, Params(L=sol.L, H=sol.H, T=sol.T), **kw)


def find_crossing(H: float = 1.0, l_lo: float = 0.5, l_hi: float = 3.0,
                  step: float = 0.01, s_panels: int = 128, order: int = 4,
                  refine_tol: float = 1e-6,
                  samples: Optional[list] = None
                  ) -> Tuple[Optional[float], Optional[float]]:
    """Sign changes of (cross-tie energy per length) - (1D minimum).

    Scans L/H on a uniform grid, refines every sign change at once with
    the bracketed root solver to refine_tol, and returns (L0, L1); either
    may be None when no crossing shows up in the window.  When samples is
    a list it receives one (L/H, E_crosstie, E_1d, gap) row per grid point.
    """
    def sample(lh: float):
        sol = build_crosstie(lh * H, H)
        e2 = crosstie_energy_per_length(sol, s_panels=s_panels, order=order)
        e1 = rect1d.min_energy_1d(lh, 1.0, 0.0)
        return lh, e2, e1, e2 - e1

    n = int(round((l_hi - l_lo) / step))
    rows = [sample(l_lo + k * step) for k in range(n + 1)]
    if samples is not None:
        samples.extend(rows)
    cells = [k for k in range(n) if (rows[k][3] < 0) != (rows[k + 1][3] < 0)]
    if not cells:
        return None, None
    known = {row[0]: row[3] for row in rows}

    def gap(lhs):
        # the solver starts at the bracket ends, which the scan already knows
        return np.array([known[x] if x in known else sample(x)[3]
                         for x in lhs])

    roots = bracketed_root(gap, np.array([rows[k][0] for k in cells]),
                           np.array([rows[k + 1][0] for k in cells]),
                           xtol=refine_tol)
    return float(roots[0]), (float(roots[1]) if len(roots) > 1 else None)


# --- pointwise evaluation on the period cell ----------------------------------

def region1_seed_offset(x, y, T: float, H: float):
    """d = T - s of the region-I arc through each point with x <= T.

    The arc seeded at s leaves the vortex (T, 0) on the circle of centre
    (T + (H^2 - d^2)/(2d), H).  With X = x - T and Q = X^2 + (y-H)^2 - H^2,
    its circle residual times d is X d^2 + Q d - H^2 X, whose positive root
    is taken in the form free of cancellation: (Q + r)/(-2X) for Q >= 0 and
    2 H^2 |X|/(r - Q) for Q < 0, with r = sqrt(Q^2 + 4 H^2 X^2).  Points on
    x = T get d = 0 exactly.
    """
    X = np.asarray(x, dtype=float) - T
    y = np.asarray(y, dtype=float)
    Q = X * X + y * (y - 2.0 * H)
    r = np.hypot(Q, 2.0 * H * X)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(Q >= 0.0, (Q + r) / (-2.0 * X),
                        2.0 * H * H * np.abs(X) / (r - Q))


def _arc_root_or_end(circle, lo, hi, x, y):
    """Arc parameter in [lo, hi] of the circle through each point, solved
    on the whole interval; a point whose residual keeps its sign there (the
    corner at the origin, which no region-III arc with s >= lo reaches)
    takes the end arc s = hi, whose angle is pi/4 there as in the s -> 0
    limit."""
    s = bracketed_arc_solve(circle, lo, hi, x, y, n_scan=2)
    return np.where(np.isnan(s), hi, s)


def _quarter_eval_batch(sol: CrossTieSolution, x, y):
    """(theta, v) arrays for points in the closed quarter cell."""
    L, H, T, alpha, t1 = sol.L, sol.H, sol.T, sol.alpha, sol.t1_star
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.full(x.shape, np.nan)
    v = np.full(x.shape, np.nan)

    # Points within a hair of Gamma get the Gamma angle directly: theta is
    # continuous across it and the circle-root solves of region II degrade
    # exactly there (grazing double roots).  The v assignment on the sliver
    # is the region-I side of the admissible jump.
    sliver = 1e-4 * max(T, H)
    dist = np.hypot(x - 1.0 / alpha, y - H)
    near_gamma = np.abs(dist - 1.0 / alpha) <= sliver
    if near_gamma.any():
        g = 1.0 / alpha
        theta[near_gamma] = np.arctan2((H - y[near_gamma]) / g,
                                       (1.0 / alpha - x[near_gamma]) / g)
        v[near_gamma] = -alpha

    # region I: inside the Gamma circle |p - (1/alpha, H)| <= 1/alpha
    mI = (dist <= 1.0 / alpha) & ~near_gamma
    if mI.any():
        xi, yi = x[mI], y[mI]
        d = region1_seed_offset(xi, yi, T, H)
        # direction to the arc's centre, scaled by 2d > 0
        theta[mI] = np.arctan2(2.0 * d * (H - yi),
                               H * H - d * (2.0 * (xi - T) + d))
        v[mI] = -2.0 * d / (d * d + H * H)

    rem = ~mI & ~near_gamma
    if rem.any():
        thbT = float(region3_seed_angle(T, L))
        v3T = float(region3_v(T, L))
        c3x = T - math.cos(thbT) / v3T
        c3y = -math.sin(thbT) / v3T
        R3 = 1.0 / abs(v3T)
        xr, yr = x[rem], y[rem]
        m3 = (xr - c3x) ** 2 + (yr - c3y) ** 2 >= R3 * R3
        th_r = np.full(xr.shape, np.nan)
        v_r = np.full(xr.shape, np.nan)
        if m3.any():
            x3, y3 = xr[m3], yr[m3]

            def circle3(s):
                thb = region3_seed_angle(s, L)
                v3 = region3_v(s, L)
                return s - np.cos(thb) / v3, -np.sin(thb) / v3, 1.0 / (v3 * v3)

            s3 = _arc_root_or_end(circle3, 1e-9 * T, T, x3, y3)
            v3 = region3_v(s3, L)
            g = -1.0 / v3
            cx, cy, _ = circle3(s3)
            th_r[m3] = np.arctan2((cy - y3) / g, (cx - x3) / g)
            v_r[m3] = v3
        m2 = ~m3
        if m2.any():
            x2, y2 = xr[m2], yr[m2]

            def arc2(s):
                th2 = region2_theta_star(s, alpha, L)
                v2 = -np.sin(2.0 * th2) / L
                v2 = np.where(v2 != 0, v2, -1e-300)
                x0 = (1.0 - np.cos(alpha * s)) / alpha
                y0 = H - np.sin(alpha * s) / alpha
                cx = x0 - np.cos(alpha * s) / v2
                cy = y0 - np.sin(alpha * s) / v2
                return cx, cy, 1.0 / (v2 * v2), th2, v2

            # the tangentially seeded circles can pass a point twice; keep
            # the root whose recovered arc parameter lies in [0, t*]
            def recover(s):
                cx, cy, _, th2, v2 = arc2(s)
                g = -1.0 / v2
                th = np.arctan2((cy - y2) / g, (cx - x2) / g)
                t = (th - alpha * s) / v2
                ts = (th2 - alpha * s) / v2
                return th, v2, t, ts

            s_a, s_b = bracketed_arc_solve_both(lambda s: arc2(s)[:3],
                                                1e-7 * t1, t1 * (1 - 1e-9),
                                                x2, y2, geometric=True)
            th_a, v_a, t_a, ts_a = recover(np.nan_to_num(s_a))
            th_b, v_b, t_b, ts_b = recover(np.nan_to_num(s_b))
            # reject the degenerate corner root (clamped v) outright: its
            # recovered arc parameter is meaningless
            ok_a = np.isfinite(s_a) & (np.abs(v_a) > 1e-10) \
                & (t_a >= -1e-9) & (t_a <= ts_a * (1 + 1e-9) + 1e-12)
            ok_b = np.isfinite(s_b) & (np.abs(v_b) > 1e-10) \
                & (t_b >= -1e-9) & (t_b <= ts_b * (1 + 1e-9) + 1e-12)
            pick_b = ~ok_a & ok_b
            th_r[m2] = np.where(pick_b, th_b, th_a)
            v_r[m2] = np.where(pick_b, v_b, v_a)
        theta[rem] = th_r
        v[rem] = v_r
    if np.any(~np.isfinite(theta)):
        bad = np.nonzero(~np.isfinite(theta))
        raise ValueError(f"{len(bad[0])} quarter-cell points not covered "
                         f"(first: {x[bad][0]}, {y[bad][0]})")
    return theta, v


def crosstie_field_sample(sol: CrossTieSolution, x, y):
    """Vectorized (u1, u2, v) on the period cell via quarter-cell
    reflections: u1 flips across y = 0, u2 flips across x = T (both flip
    the divergence sign); x is reduced modulo the period 2T."""
    T, H = sol.T, sol.H
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    shape = x.shape
    x = np.mod(x.ravel(), 2.0 * T)
    y = y.ravel()
    f1 = np.where(y < 0, -1.0, 1.0)
    y = np.abs(y)
    f2 = np.where(x > T, -1.0, 1.0)
    x = np.where(x > T, 2.0 * T - x, x)
    theta, v = _quarter_eval_batch(sol, x, np.minimum(y, H))
    u1 = np.cos(theta) * f1
    u2 = np.sin(theta) * f2
    v = v * f1 * f2
    return u1.reshape(shape), u2.reshape(shape), v.reshape(shape)


# --- the explicit divergence-free cross-tie map ------------------------------

def remark_crosstie_map(x, y):
    """Periodic piecewise map: six angular sectors on the strip |x| < 1/2,
    extended 1-periodically in x; divergence-free with cubic-cost walls."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xr = x - np.round(x)  # reduce to [-1/2, 1/2)
    theta = np.mod(np.arctan2(y, xr), 2.0 * np.pi)
    r = np.hypot(xr, y)
    s2 = 1.0 / math.sqrt(2.0)
    u1 = np.empty_like(theta)
    u2 = np.empty_like(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        st = np.where(r > 0, y / np.maximum(r, 1e-300), 0.0)
        ct = np.where(r > 0, xr / np.maximum(r, 1e-300), 1.0)
    conds = [
        theta <= 0.25 * np.pi,
        (theta > 0.25 * np.pi) & (theta <= 0.75 * np.pi),
        (theta > 0.75 * np.pi) & (theta <= np.pi),
        (theta > np.pi) & (theta <= 1.25 * np.pi),
        (theta > 1.25 * np.pi) & (theta <= 1.75 * np.pi),
        theta > 1.75 * np.pi,
    ]
    vals1 = [s2, st, s2, -s2, st, -s2]
    vals2 = [-s2, -ct, s2, s2, -ct, -s2]
    u1 = np.select(conds, vals1)
    u2 = np.select(conds, vals2)
    return u1, u2


def _tail_traces(y):
    """(left, right) traces of the explicit map on the tail wall x = 1/2 at
    ordinate y, |y| > 1/2."""
    th_l, th_r = np.arctan2(y, 0.5), np.arctan2(y, -0.5)
    return (np.stack([np.sin(th_l), -np.cos(th_l)], axis=-1),
            np.stack([np.sin(th_r), -np.cos(th_r)], axis=-1))


def remark_crosstie_field(y_split: float = 8.0, n_tail: int = 256) -> PiecewiseCriticalField:
    """Jump segments of the explicit map on one period (tails truncated at
    |y| = y_split; the remainder is analytic, see remark_tail_integral)."""
    s2 = 1.0 / math.sqrt(2.0)
    segs = []
    # horizontal wall y = 0, |x| < 1/2 (trace pairs differ per half)
    xs = np.linspace(-0.5, 0.5, 257)

    def h_traces(x):
        # (above, below) at abscissa x
        right = x[..., None] >= 0
        return (np.where(right, [s2, -s2], [s2, s2]),
                np.where(right, [-s2, -s2], [-s2, s2]))

    above, below = h_traces(xs)
    segs.append(JumpSegment(
        polyline=np.stack([xs, np.zeros_like(xs)], axis=-1),
        normals=np.tile([0.0, 1.0], (len(xs), 1)),
        trace_plus=above, trace_minus=below,
        trace_fn=lambda arc: h_traces(np.asarray(arc, dtype=float) - 0.5)))
    # vertical wall x = 1/2, |y| < 1/2
    ys = np.linspace(-0.5, 0.5, 257)

    def v_traces(y):
        # (left, right) at ordinate y
        upper = y[..., None] >= 0
        return (np.where(upper, [s2, -s2], [-s2, -s2]),
                np.where(upper, [s2, s2], [-s2, s2]))

    left, right = v_traces(ys)
    segs.append(JumpSegment(
        polyline=np.stack([np.full_like(ys, 0.5), ys], axis=-1),
        normals=np.tile([1.0, 0.0], (len(ys), 1)),
        trace_plus=left, trace_minus=right,
        trace_fn=lambda arc: v_traces(np.asarray(arc, dtype=float) - 0.5)))
    # tails x = 1/2, 1/2 < |y| < y_split
    for sgn in (+1.0, -1.0):
        yy = sgn * np.linspace(0.5, y_split, n_tail)

        tp, tm = _tail_traces(yy)
        segs.append(JumpSegment(
            polyline=np.stack([np.full_like(yy, 0.5), yy], axis=-1),
            normals=np.tile([1.0, 0.0], (len(yy), 1)),
            trace_plus=tp, trace_minus=tm,
            trace_fn=lambda arc, sgn=sgn: _tail_traces(
                sgn * (0.5 + np.asarray(arc, dtype=float)))))
    def sample(x, y):
        u1, u2 = remark_crosstie_map(x, y)
        return u1, u2, np.zeros(np.shape(u1))

    return PiecewiseCriticalField(families=[], jumps=segs, sample=sample,
                                  domain="strip |x|<1/2, one period")


def remark_tail_integral(Y: float) -> float:
    """int_Y^inf (1 + 4 y^2)^(-3/2) dy = (1/2)(1 - 2Y/sqrt(1+4Y^2))."""
    return 0.5 * (1.0 - 2.0 * Y / math.sqrt(1.0 + 4.0 * Y * Y))


def remark_crosstie_energy(y_split: float = 8.0, wall_order: int = 8) -> float:
    """E0 per period of the explicit map: quadrature on the truncated walls
    plus the analytic tail beyond |y| = y_split (two tails)."""
    field = remark_crosstie_field(y_split=y_split)
    eb = eval_E0_piecewise(field, Params(), wall_order=wall_order)
    tail = 2.0 * (4.0 / 3.0) * remark_tail_integral(y_split)
    return eb.total + tail
