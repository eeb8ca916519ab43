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
from .rootfind import arc_root, bracketed_root

# --- region III seed relations ------------------------------------------------

def _w_of_lambda(lam):
    lam = np.asarray(lam, dtype=float)
    small = lam < 1e-8
    safe = np.where(small, 1.0, lam)
    w = (-1.0 + np.sqrt(1.0 + 2.0 * safe)) / safe
    series = 1.0 - 0.5 * lam + 0.5 * lam * lam
    return np.where(small, series, w)


def region3_seed(s, L: float):
    """Region III's seed (x0, y0, theta0, v0, t*) at the foot (s, 0).

    The arc leaves the bottom wall at theta0 = pi/2 - asin(w)/2 in (pi/4,
    pi/2) with curvature v0 = -w/L and turns by pi/2 - 2 theta0 = -acos(w)
    to arrive on the left wall at (0, s), so t* = L acos(w)/w.
    """
    s = np.asarray(s, dtype=float)
    w = _w_of_lambda(2.0 * s * s / (L * L))
    cw = np.clip(w, -1.0, 1.0)
    return (s, np.zeros_like(s), 0.5 * math.pi - 0.5 * np.arcsin(cw), -w / L,
            L * np.arccos(cw) / w)


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


def region2_seed_of_theta_star(beta, alpha: float, L: float, H: float):
    """Region II's seed (x0, y0, theta0, v0) in its terminal angle beta.

    theta*'s equation is linear in sin^2(alpha s/2): with k = L alpha it
    gives sin(alpha s/2) = m = sin(beta/2) sqrt(k/(k - sin 2 beta)), so the
    foot ((1 - cos alpha s)/alpha, H - sin(alpha s)/alpha) = (2 m^2/alpha,
    H - 2 m sqrt(1 - m^2)/alpha), theta0 = alpha s = 2 asin(m) and v0 =
    -sin(2 beta)/L are closed-form in beta.  Inverts `region2_theta_star`
    to roundoff.
    """
    beta = np.asarray(beta, dtype=float)
    k = L * alpha
    m = np.sin(0.5 * beta) * np.sqrt(k / (k - np.sin(2.0 * beta)))
    return (2.0 * m * m / alpha, H - 2.0 * m * np.sqrt(1.0 - m * m) / alpha,
            2.0 * np.arcsin(m), -np.sin(2.0 * beta) / L)


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
        theta_b = float(region3_seed(self.T, self.L)[2])
        return abs(theta_e - theta_b)

    def wall_residual(self) -> float:
        """sup |L v + sin 2 theta| over both walls' vertices, with theta
        the angle of trace_plus (sin 2 theta = 2 u1 u2) and v its div_plus:
        the bottom wall's region-III seeds and the left wall's region-III
        and region-II arrivals, which are the knots of the walls' trace
        and divergence interpolants."""
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

    # region I: point seed at the vortex (T, 0); arcs of radius R(s)
    # turning by theta0 reach the top edge
    def seed1(s):
        s = np.asarray(s, dtype=float)
        d = T - s
        theta0 = 2.0 * np.arctan2(d, H)
        v0 = -2.0 * d / (d * d + H * H)
        with np.errstate(divide="ignore", invalid="ignore"):
            R = 0.5 * d + H * H / (2.0 * np.where(d > 0, d, 1.0))
        return (np.full_like(s, T), np.zeros_like(s), theta0, v0,
                np.where(d > 1e-300, R * theta0, H))

    fam1 = CharacteristicFamily(seed=seed1, s_range=(0.0, T),
                                label="crosstie region I")

    # region III: bottom wall to left wall
    fam3 = CharacteristicFamily(seed=lambda s: region3_seed(s, L),
                                s_range=(0.0, T), label="crosstie region III")

    # region II: seeded on Gamma (family I's terminal arc); one theta*
    # solve gives the divergence and the terminal parameter
    def seed2(s):
        s = np.asarray(s, dtype=float)
        th_star = region2_theta_star(s, alpha, L)
        v = -np.sin(2.0 * th_star) / L
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (th_star - alpha * s) / np.where(v != 0.0, v, 1.0)
        # s -> 0: theta* ~ alpha s (1 - s/L), v ~ -2 alpha s / L: t* -> s/2
        return ((1.0 - np.cos(alpha * s)) / alpha,
                H - np.sin(alpha * s) / alpha, alpha * s, v,
                np.where(v != 0.0, t, 0.5 * s))

    fam2 = CharacteristicFamily(seed=seed2, s_range=(0.0, t1_star),
                                label="crosstie region II")

    # --- walls: the reflection across each flips v --------------------------
    n_w = 1024
    # bottom wall y = 0, x in (0, T): trace angle theta_b(x)
    xs = np.linspace(0.0, T, n_w)
    _, _, thb, v3, _ = region3_seed(xs, L)
    theta_b_of_x = pchip(xs, thb)
    v3_of_x = pchip(xs, v3)

    def bottom_traces(arc):
        th = theta_b_of_x(arc)
        c, s = np.cos(th), np.sin(th)
        return np.stack([c, s], axis=-1), np.stack([-c, s], axis=-1)

    wall_bottom = JumpSegment(
        polyline=np.stack([xs, np.zeros_like(xs)], axis=-1),
        normals=np.tile([0.0, -1.0], (n_w, 1)), trace_fn=bottom_traces,
        div_fn=lambda arc: (v := v3_of_x(arc), -v))

    # left wall x = 0, y in (0, H): arrivals of III (y < T) and II (y > T).
    # Stable arrival heights: region III collapses to
    # y3 = sqrt(2) L sin(acos(w)/2)/w; region II uses the half-angle product
    # form of sin(theta*) - sin(alpha s) to avoid cancellation near y = H.
    s3 = np.linspace(0.0, T, n_w // 2 + 1)
    w3 = _w_of_lambda(2.0 * s3 * s3 / (L * L))
    _, _, th3b, v3a, _ = region3_seed(s3, L)
    th3s = 0.5 * math.pi - th3b
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

    def left_traces(arc):
        th = theta_of_y(arc)
        c, s = np.cos(th), np.sin(th)
        return np.stack([c, s], axis=-1), np.stack([c, -s], axis=-1)

    wall_left = JumpSegment(
        polyline=np.stack([np.zeros_like(yw), yw], axis=-1),
        normals=np.tile([-1.0, 0.0], (len(yw), 1)), trace_fn=left_traces,
        div_fn=lambda arc: (v := v_of_y(arc), -v))

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
                               s_panels: int = 128, order: int = 4) -> float:
    """(1/2T) E0 over one period cell (function of L/H only)."""
    eb = eval_E0_piecewise(sol.field, Params(L=sol.L, H=sol.H, T=sol.T),
                           s_panels=s_panels, order=order)
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
    x = T, the vortex (T, 0) included, get d = 0 exactly.
    """
    X = np.asarray(x, dtype=float) - T
    y = np.asarray(y, dtype=float)
    Q = X * X + y * (y - 2.0 * H)
    r = np.hypot(Q, 2.0 * H * X)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(Q >= 0.0, (Q + r) / (-2.0 * X),
                     2.0 * H * H * np.abs(X) / (r - Q))
    return np.where(X == 0.0, 0.0, d)


def _quarter_eval_batch(sol: CrossTieSolution, x, y):
    """(theta, v) arrays for points in the closed quarter cell.

    Region I (inside Gamma, d = T - s <= T) is closed-form.  The other two
    families are inverted by `rootfind.arc_root` on a bracket known from
    the point: region III in s on [min(x + y, T), T], because its arcs run
    from (s, 0) to (0, s) on the origin side of that chord; region II in
    its terminal angle beta = theta*, from the arc seeded at the point's
    foot on Gamma to the last arc, seeded at the vortex.  Region III's
    lower end keeps out the circles seeded at s < x + y, which for L/H
    below 0.5426 meet the bottom wall a second time before x = T and pass
    near (T, 0) again.  Points on the left wall x = 0, where the region-III
    arcs end, get the arrival of the arc seeded at s = y in closed form, so
    no point sits on a bracket end.
    """
    L, H, T, alpha = sol.L, sol.H, sol.T, sol.alpha
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.empty(x.shape)
    v = np.empty(x.shape)

    # region I: the arc through the vortex with seed offset d <= T
    d = region1_seed_offset(x, y, T, H)
    mI = d <= T
    xi, yi, d = x[mI], y[mI], d[mI]
    # direction to the arc's centre, scaled by 2d > 0
    theta[mI] = np.arctan2(2.0 * d * (H - yi), H * H - d * (2.0 * (xi - T) + d))
    v[mI] = -2.0 * d / (d * d + H * H)

    # region III: outside the circle of its terminal arc, seeded at s = T
    _, _, thbT, v3T, _ = (float(a) for a in region3_seed(T, L))
    m3 = ~mI & ((x - T + math.cos(thbT) / v3T) ** 2
                + (y + math.sin(thbT) / v3T) ** 2 >= 1.0 / (v3T * v3T))
    left = m3 & (x == 0.0)
    if left.any():
        _, _, th0, v[left], _ = region3_seed(y[left], L)
        theta[left] = 0.5 * math.pi - th0
    inner = m3 & ~left
    if inner.any():
        x3, y3 = x[inner], y[inner]
        theta[inner], v[inner] = arc_root(
            sol.region3.seed, np.minimum(x3 + y3, T), T, x3, y3)

    # region II: p's foot sigma on Gamma; the arc through p is seeded
    # beyond it, up to the vortex
    m2 = ~mI & ~m3
    if m2.any():
        x2, y2 = x[m2], y[m2]
        sigma = np.arctan2(H - y2, 1.0 / alpha - x2) / alpha
        theta[m2], v[m2] = arc_root(
            lambda b: region2_seed_of_theta_star(b, alpha, L, H),
            region2_theta_star(sigma, alpha, L),
            region2_theta_star(sol.t1_star, alpha, L), x2, y2)
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

# the map's tail walls are truncated at |y| = REMARK_Y_SPLIT, with
# REMARK_TAIL_NODES vertices each; the rest is integrated analytically
REMARK_Y_SPLIT = 8.0
REMARK_TAIL_NODES = 256


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


def remark_crosstie_field() -> PiecewiseCriticalField:
    """Jump segments of the explicit map on one period (tails truncated at
    |y| = REMARK_Y_SPLIT; the remainder is analytic, see
    remark_tail_integral)."""
    s2 = 1.0 / math.sqrt(2.0)
    segs = []
    # horizontal wall y = 0, |x| < 1/2 (trace pairs differ per half)
    xs = np.linspace(-0.5, 0.5, 257)

    def h_traces(x):
        # (above, below) at abscissa x
        right = x[..., None] >= 0
        return (np.where(right, [s2, -s2], [s2, s2]),
                np.where(right, [-s2, -s2], [-s2, s2]))

    segs.append(JumpSegment(
        polyline=np.stack([xs, np.zeros_like(xs)], axis=-1),
        normals=np.tile([0.0, 1.0], (len(xs), 1)),
        trace_fn=lambda arc: h_traces(np.asarray(arc, dtype=float) - 0.5)))
    # vertical wall x = 1/2, |y| < 1/2
    ys = np.linspace(-0.5, 0.5, 257)

    def v_traces(y):
        # (left, right) at ordinate y
        upper = y[..., None] >= 0
        return (np.where(upper, [s2, -s2], [-s2, -s2]),
                np.where(upper, [s2, s2], [-s2, s2]))

    segs.append(JumpSegment(
        polyline=np.stack([np.full_like(ys, 0.5), ys], axis=-1),
        normals=np.tile([1.0, 0.0], (len(ys), 1)),
        trace_fn=lambda arc: v_traces(np.asarray(arc, dtype=float) - 0.5)))
    # tails x = 1/2, 1/2 < |y| < REMARK_Y_SPLIT
    for sgn in (+1.0, -1.0):
        yy = sgn * np.linspace(0.5, REMARK_Y_SPLIT, REMARK_TAIL_NODES)
        segs.append(JumpSegment(
            polyline=np.stack([np.full_like(yy, 0.5), yy], axis=-1),
            normals=np.tile([1.0, 0.0], (len(yy), 1)),
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


def remark_crosstie_energy() -> float:
    """E0 per period of the explicit map: quadrature on the truncated walls
    plus the analytic tail beyond |y| = REMARK_Y_SPLIT (two tails)."""
    eb = eval_E0_piecewise(remark_crosstie_field(), Params())
    tail = 2.0 * (4.0 / 3.0) * remark_tail_integral(REMARK_Y_SPLIT)
    return eb.total + tail
