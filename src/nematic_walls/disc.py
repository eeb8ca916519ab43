"""Disc constructions: tangential, hedgehog, and the degree -1 field.

All three are assembled as characteristic families so the generic
energy machinery applies:

* tangential data (-y, x)/R: u = e_theta, characteristics are radii with
  zero divergence, zero limiting energy.
* hedgehog data (x, y): u = r e_r +- sqrt(1-r^2) e_theta on the unit disc,
  divergence identically 2; the characteristics are the circles of radius
  1/2 internally tangent to the boundary (+ sign, seeded on the boundary)
  or emanating from the origin (- sign).
* degree -1 data (x/R, -y/R): built on one octant {0 <= psi <= pi/4} with
  a diagonal wall on y = x and extended to the disc by reflections.  Three
  families: I (arcs of radius R from the x-axis to the boundary), III
  (arcs from the x-axis to the wall, curvature solving
  (1 - s v)^2 = 1 + sqrt(1 - L^2 v^2)), and II (arcs seeded tangentially
  on the terminal region-I characteristic, curvature solving
  A(s)^2 = 1 + sqrt(1 - L^2 v^2) with
  A(s) = sqrt(2) [(R v + 1) sin(s/R + pi/4) - R v]).

Angles in the octant lie in [-pi/4, 0]; the wall traces satisfy
L v + cos(2 theta) = 0, the operative form of the natural boundary
condition under the diagonal's reflection symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .characteristics import (CharacteristicFamily, PiecewiseCriticalField,
                              pchip)
from .core import JumpSegment, Params
from .rootfind import (bracketed_arc_solve, bracketed_arc_solve_both,
                       bracketed_root)

SQRT2 = math.sqrt(2.0)


# --- simple closed-form solutions -------------------------------------------

def _polar_radius(x, y, what: str):
    """x, y broadcast to float arrays and r = hypot(x, y); ValueError where
    r = 0, at which `what` is undefined."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    r = np.hypot(x, y)
    if np.any(r == 0.0):
        raise ValueError(f"{what} is undefined at the origin")
    return x, y, r


def tangential_solution(R: float) -> PiecewiseCriticalField:
    """u = e_theta: divergence-free, no walls, zero limiting energy."""
    if R <= 0:
        raise ValueError("R > 0 required")

    def seed(s):
        s = np.asarray(s, dtype=float)
        return (R * np.cos(s), R * np.sin(s), s + 0.5 * np.pi, np.zeros_like(s))

    fam = CharacteristicFamily(
        seed=seed, s_range=(0.0, 2.0 * np.pi),
        t_star=lambda s: np.full_like(np.asarray(s, dtype=float), R),
        label="radii")

    def sample(x, y):
        x, y, r = _polar_radius(x, y, "e_theta")
        return -y / r, x / r, np.zeros(r.shape)

    return PiecewiseCriticalField(families=[fam], jumps=[], sample=sample,
                                  domain=f"disc R={R}")


def hedgehog_solution(sign: int = +1) -> PiecewiseCriticalField:
    """u = r e_r +- sqrt(1-r^2) e_theta on the unit disc; div u = 2."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign > 0:
        def seed(s):
            s = np.asarray(s, dtype=float)
            return (np.cos(s), np.sin(s), s, np.full_like(s, 2.0))
    else:
        def seed(s):
            s = np.asarray(s, dtype=float)
            z = np.zeros_like(s)
            return (z, z, s, np.full_like(s, 2.0))

    fam = CharacteristicFamily(
        seed=seed, s_range=(0.0, 2.0 * np.pi),
        t_star=lambda s: np.full_like(np.asarray(s, dtype=float), 0.5 * np.pi),
        label="hedgehog")

    def sample(x, y):
        # u = r e_r + q e_theta with e_r = (x,y)/r, e_theta = (-y,x)/r
        x, y, r = _polar_radius(x, y, "the angular part")
        q = sign * np.sqrt(np.maximum(1.0 - r * r, 0.0))
        return x + q * (-y / r), y + q * (x / r), np.full(r.shape, 2.0)

    return PiecewiseCriticalField(families=[fam], jumps=[], sample=sample,
                                  domain="unit disc")


def hedgehog_energy(L: float) -> float:
    """Closed form: (L/2) * 4 * area of the unit disc = 2 pi L."""
    return 2.0 * math.pi * L


# --- degree -1 construction ---------------------------------------------------

def region3_v0(s, L: float):
    """Curvature of the family joining the x-axis to the diagonal wall.

    Root p of (1 - s p)^2 - sqrt(1 - L^2 p^2) - 1 in [-1/L, 0], solved as
    p = -cos(phi) / L with phi in [0, pi/2], where the square root is
    sin(phi): exact at the s = 0 root phi = 0 and smooth there; vectorized.
    """
    def F(phi, s_):
        return (1.0 + s_ * np.cos(phi) / L) ** 2 - np.sin(phi) - 1.0

    phi = bracketed_root(F, 0.0, 0.5 * np.pi,
                         args=(np.asarray(s, dtype=float),))
    return -np.cos(phi) / L


def region2_A(s, v0, R: float):
    return SQRT2 * ((R * v0 + 1.0) * np.sin(s / R + 0.25 * np.pi) - R * v0)


def region2_v0(s, R: float, L: float):
    """Curvature of the wedge family seeded on the terminal region-I arc.

    Root of 2[(Rp+1) sin(s/R + pi/4) - Rp]^2 - sqrt(1-L^2 p^2) - 1 on
    (-min(1/R, 1/L), 0); endpoint signs are asserted.  At the corner
    s = pi R / 4 the root collapses to v = 0.
    """
    s_arr = np.asarray(s, dtype=float)
    q = min(1.0 / R, 1.0 / L)

    def F(p, sinf):
        A = SQRT2 * ((R * p + 1.0) * sinf - R * p)
        return A * A - np.sqrt(np.maximum(1.0 - (L * p) ** 2, 0.0)) - 1.0

    sinf = np.sin(s_arr / R + 0.25 * np.pi)
    f0 = F(0.0, sinf)
    fq = F(-q, sinf)
    at_corner = f0 >= -1e-15
    if not np.all(fq[~at_corner] >= 0.0):
        k = int(np.argmin(fq))
        raise RuntimeError(f"bracket failure in region II at "
                           f"s={s_arr.ravel()[k]}: f(-q)={fq.ravel()[k]}, "
                           f"f(0)={f0.ravel()[k]}")
    out = np.zeros(s_arr.shape)
    solve = ~at_corner
    out[solve] = bracketed_root(F, -q, 0.0, args=(sinf[solve],))
    return float(out) if out.ndim == 0 else out


def _theta_star_from_cosminussin(val):
    """theta in [-pi/4, 0] with cos(theta) - sin(theta) = val."""
    return np.arccos(np.clip(np.asarray(val, dtype=float) / SQRT2, -1.0, 1.0)) \
        - 0.25 * np.pi


@dataclass
class DegMinusOneSolution:
    """Octant construction of the degree -1 critical point."""

    R: float
    L: float
    s0: float
    region1: CharacteristicFamily
    region2: CharacteristicFamily
    region3: CharacteristicFamily
    jump: JumpSegment
    field: PiecewiseCriticalField

    # wall data in arclength xi along y=x, from the origin
    wall_xi: np.ndarray = None
    wall_theta: np.ndarray = None
    wall_v: np.ndarray = None

    # dense curvature interpolants (4096 exact samples; interpolation error
    # is O(h^3) ~ 1e-13, below the root-solver tolerance)
    v3_of_s: Optional[Callable] = None
    v2_of_s: Optional[Callable] = None
    s2_max: float = 0.0

    def natural_bc_residual(self, n: int = 256) -> float:
        """sup |L v + cos 2 theta| along the wall (operative natural BC).

        Evaluated in the exact seed parametrization of each family, so the
        value reflects the root-solver tolerance, not interpolation error.
        """
        s3 = np.linspace(1e-9 * self.R, self.s0, n)
        v3 = region3_v0(s3, self.L)
        th3 = _theta_star_from_cosminussin(1.0 - s3 * v3)
        r3 = np.abs(self.L * v3 + np.cos(2.0 * th3)).max()
        s2 = np.linspace(1e-9 * self.R, 0.25 * math.pi * self.R, n)
        v2 = region2_v0(s2, self.R, self.L)
        th2 = _theta_star_from_cosminussin(region2_A(s2, v2, self.R))
        r2 = np.abs(self.L * v2 + np.cos(2.0 * th2)).max()
        return float(max(r3, r2))


def build_deg_minus_one(R: float, L: float, n_wall: int = 1024) -> DegMinusOneSolution:
    """Assemble the three families and the diagonal wall on one octant.

    Seeds are evaluated exactly (vectorized root solves) rather than
    sampled and interpolated; the wall polyline carries n_wall vertices
    with monotone-cubic trace functions between them.
    """
    if R <= 0 or L <= 0:
        raise ValueError("R, L > 0 required")
    s0 = (SQRT2 - 1.0) * R

    # region I: arcs of radius R from (s, 0), s in [s0, R]
    def seed1(s):
        s = np.asarray(s, dtype=float)
        return (s, np.zeros_like(s), np.zeros_like(s), np.full_like(s, -1.0 / R))

    def t_star1(s):
        s = np.asarray(s, dtype=float)
        return R * np.arccos(np.clip((s + R) / (2.0 * R), -1.0, 1.0))

    fam1 = CharacteristicFamily(seed=seed1, s_range=(s0, R), t_star=t_star1,
                                label="deg-1 region I")

    # region III: arcs from (s, 0), s in [0, s0], to the wall
    def seed3(s):
        s = np.asarray(s, dtype=float)
        return (s, np.zeros_like(s), np.zeros_like(s), region3_v0(s, L))

    def t_star3(s):
        s = np.asarray(s, dtype=float)
        v = region3_v0(s, L)
        th = _theta_star_from_cosminussin(1.0 - s * v)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(v != 0.0, th / v, 0.0)
        return t

    fam3 = CharacteristicFamily(seed=seed3, s_range=(0.0, s0), t_star=t_star3,
                                label="deg-1 region III")

    # region II: seeds on the terminal region-I arc, arclength s in [0, pi R/4]
    def seed2(s):
        s = np.asarray(s, dtype=float)
        return (SQRT2 * R - R * np.cos(s / R), R * np.sin(s / R), -s / R,
                region2_v0(s, R, L))

    def t_star2(s):
        s = np.asarray(s, dtype=float)
        v = region2_v0(s, R, L)
        A = region2_A(s, v, R)
        th = _theta_star_from_cosminussin(A)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(v != 0.0, (th + s / R) / v, 0.0)
        return np.maximum(t, 0.0)

    s2_max = 0.25 * math.pi * R
    fam2 = CharacteristicFamily(seed=seed2, s_range=(0.0, s2_max), t_star=t_star2,
                                label="deg-1 region II")

    # wall: terminal points of III then II, parametrized by arclength
    s3 = np.linspace(0.0, s0, n_wall // 2 + 1)
    v3 = region3_v0(s3, L)
    th3 = _theta_star_from_cosminussin(1.0 - s3 * v3)
    with np.errstate(divide="ignore", invalid="ignore"):
        x3 = np.where(v3 != 0.0, s3 + (np.cos(th3) - 1.0) / v3, s3)
    s2 = np.linspace(0.0, s2_max, n_wall // 2 + 1)[1:]
    v2 = region2_v0(s2, R, L)
    A2 = region2_A(s2, v2, R)
    th2 = _theta_star_from_cosminussin(A2)
    x02 = SQRT2 * R - R * np.cos(s2 / R)
    with np.errstate(invalid="ignore", divide="ignore"):
        x2 = np.where(v2 != 0.0,
                      x02 + (np.cos(th2) - np.cos(s2 / R)) / np.where(v2 != 0, v2, 1.0),
                      x02)
    xw = np.concatenate([x3, x2])
    thw = np.concatenate([th3, th2])
    vw = np.concatenate([v3, v2])
    order = np.argsort(xw)
    xw, thw, vw = xw[order], thw[order], vw[order]
    # drop duplicate abscissae (seam point appears in both families)
    keep = np.concatenate([[True], np.diff(xw) > 1e-14 * R])
    xw, thw, vw = xw[keep], thw[keep], vw[keep]
    xi = SQRT2 * xw
    theta_of_xi = pchip(xi, thw)
    v_of_xi = pchip(xi, vw)

    poly = np.stack([xw, xw], axis=-1)
    nu = np.tile(np.array([-1.0, 1.0]) / SQRT2, (len(xw), 1))

    def traces(th):
        c, s = np.cos(th), np.sin(th)
        return np.stack([c, s], axis=-1), np.stack([-s, -c], axis=-1)

    tp, tm = traces(thw)
    jump = JumpSegment(
        polyline=poly, normals=nu, trace_plus=tp, trace_minus=tm,
        div_plus=vw, div_minus=-vw,
        trace_fn=lambda arc: traces(theta_of_xi(arc)),
        div_fns=(v_of_xi, lambda a: -v_of_xi(a)),
    )

    s3_dense = np.linspace(0.0, s0, 4096)
    v3_dense = region3_v0(s3_dense, L)
    s2_dense = np.linspace(0.0, s2_max, 4096)
    v2_dense = region2_v0(s2_dense, R, L)
    sol = DegMinusOneSolution(R=R, L=L, s0=s0, region1=fam1, region2=fam2,
                              region3=fam3, jump=jump, field=None,
                              wall_xi=xi, wall_theta=thw, wall_v=vw,
                              v3_of_s=pchip(s3_dense, v3_dense),
                              v2_of_s=pchip(s2_dense, v2_dense),
                              s2_max=s2_max)
    # the sampler holds a copy of sol without the field: sol -> field ->
    # sampler -> sol would be a reference cycle, which keeps every
    # solution alive until the cyclic collector runs
    cell = replace(sol)
    sol.field = PiecewiseCriticalField(
        families=[fam1, fam2, fam3], jumps=[jump],
        sample=lambda x, y: deg_minus_one_sample(cell, x, y),
        domain=f"disc R={R}, degree -1",
        symmetry_copies=8, wall_multiplier=4.0)

    # construction sanity: traces satisfy the operative natural condition
    res = sol.natural_bc_residual()
    if res > 1e-8:
        raise RuntimeError(f"wall natural-BC residual {res:.3e} exceeds 1e-8")
    return sol


def _octant_eval_batch(sol: DegMinusOneSolution, x, y):
    """(u1, u2, v) arrays for points in the octant 0 <= y <= x <= ... r <= R."""
    R, L, s0 = sol.R, sol.L, sol.s0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x * x + y * y > R * R * (1 + 1e-10)):
        raise ValueError("point outside the disc")
    theta = np.full(x.shape, np.nan)
    v = np.full(x.shape, np.nan)

    # region I: circles of radius R centred on the x-axis; the seam with
    # region II is x_r itself, where theta is continuous, so a hair of
    # tolerance toward region II only perturbs the v assignment on a
    # 1e-5 R-wide strip
    sI = x - R + np.sqrt(np.maximum(R * R - y * y, 0.0))
    mask1 = (sI >= s0 - 1e-5 * R) & (sI <= R + 1e-12 * R)
    theta[mask1] = -np.arcsin(np.clip(y[mask1] / R, -1.0, 1.0))
    v[mask1] = -1.0 / R

    rem = ~mask1
    if rem.any():
        xr, yr = x[rem], y[rem]
        # region III: outside the terminal arc's circle x_l
        vL = float(sol.v3_of_s(s0))
        gL = -1.0 / vL
        m3 = (xr - (s0 + gL)) ** 2 + yr ** 2 > gL * gL

        th_r = np.full(xr.shape, np.nan)
        v_r = np.full(xr.shape, np.nan)
        if m3.any():
            x3, y3 = xr[m3], yr[m3]

            def circle3(s):
                g = -1.0 / sol.v3_of_s(s)
                return s + g, 0.0, g * g

            s = bracketed_arc_solve(circle3, 1e-12 * R, s0, x3, y3)
            vv = np.asarray(sol.v3_of_s(s), dtype=float)
            g = -1.0 / vv
            th = np.arctan2(-y3 / g, (s + g - x3) / g)
            th_r[m3] = th
            v_r[m3] = vv
        m2 = ~m3
        if m2.any():
            x2, y2 = xr[m2], yr[m2]

            def circle2(s):
                vv = np.asarray(sol.v2_of_s(s), dtype=float)
                x0 = SQRT2 * R - R * np.cos(s / R)
                y0 = R * np.sin(s / R)
                cx = x0 - np.cos(-s / R) / vv
                cy = y0 - np.sin(-s / R) / vv
                return cx, cy, 1.0 / (vv * vv)

            def recover(s):
                vv = np.asarray(sol.v2_of_s(s), dtype=float)
                cx, cy, _ = circle2(s)
                g = -1.0 / vv
                th = np.arctan2((cy - y2) / g, (cx - x2) / g)
                t = (th + s / R) / vv
                return th, vv, t

            # keep clear of the degenerate corner arc (v -> 0); the circle
            # of a tangentially seeded arc can pass a point twice, so keep
            # the root whose arc parameter is in range
            def t_star_interp(s):
                vv = np.asarray(sol.v2_of_s(s), dtype=float)
                A = region2_A(s, vv, R)
                th_star = _theta_star_from_cosminussin(A)
                with np.errstate(divide="ignore", invalid="ignore"):
                    return np.where(vv != 0, (th_star + s / R) / vv, 0.0)

            s_a, s_b = bracketed_arc_solve_both(circle2, 1e-9 * R,
                                                sol.s2_max - 1e-5 * R,
                                                x2, y2, geometric=True)
            th_a, v_a, t_a = recover(np.nan_to_num(s_a))
            th_b, v_b, t_b = recover(np.nan_to_num(s_b))
            ts_a = t_star_interp(np.nan_to_num(s_a))
            ok_a = np.isfinite(s_a) & (t_a >= -1e-9) \
                & (t_a <= ts_a * (1 + 1e-9) + 1e-12)
            th_r[m2] = np.where(ok_a, th_a, th_b)
            v_r[m2] = np.where(ok_a, v_a, v_b)
            bad2 = ~ok_a & ~np.isfinite(s_b)
            if bad2.any():
                tmp = th_r[m2]
                tmp[bad2] = np.nan
                th_r[m2] = tmp
        theta[rem] = th_r
        v[rem] = v_r

    # region II pinches to a cusp where the wall meets the boundary; points
    # the arc solves miss there sit within O(1e-4 R) of the region-I seam,
    # where theta is continuous, so the region-I formula is the right limit
    miss = ~np.isfinite(theta)
    if miss.any():
        nearI = miss & (sI >= s0 - 1e-3 * R)
        theta[nearI] = -np.arcsin(np.clip(y[nearI] / R, -1.0, 1.0))
        v[nearI] = -1.0 / R
    if np.any(~np.isfinite(theta)):
        bad = np.nonzero(~np.isfinite(theta))
        raise ValueError(f"{len(bad[0])} points not covered by any region "
                         f"(first: {x[bad][0]}, {y[bad][0]})")
    return np.cos(theta), np.sin(theta), v


_MIRROR_X = np.array([[1.0, 0.0], [0.0, -1.0]])   # reflection about x-axis
_MIRROR_Y = np.array([[-1.0, 0.0], [0.0, 1.0]])   # reflection about y-axis
_DIAG_FLIP = np.array([[0.0, -1.0], [-1.0, 0.0]])  # wall rule across y = x


def deg_minus_one_sample(sol: DegMinusOneSolution, x, y):
    """Vectorized (u1, u2, v) anywhere in the disc via octant + reflections.

    Axis reflections mirror u and preserve v; the diagonal reflection uses
    the wall rule u -> (2 nu x nu - I) u and flips the sign of v.  Points
    exactly on a diagonal get the trace of the octant side they round into.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    sx = np.where(y < 0, -1.0, 1.0)      # mirror about x-axis: u2 flips
    y = np.abs(y)
    sy = np.where(x < 0, -1.0, 1.0)      # mirror about y-axis: u1 flips
    x = np.abs(x)
    diag = y > x
    x2 = np.where(diag, y, x)
    y2 = np.where(diag, x, y)
    u1o, u2o, vo = _octant_eval_batch(sol, x2, y2)
    # diagonal rule: (u1, u2) -> (-u2, -u1), v -> -v
    u1 = np.where(diag, -u2o, u1o)
    u2 = np.where(diag, -u1o, u2o)
    v = np.where(diag, -vo, vo)
    # undo the y-axis mirror (acts on u1), then the x-axis mirror (u2)
    u1 *= sy
    u2 *= sx
    return u1.reshape(shape), u2.reshape(shape), v.reshape(shape)


def deg_minus_one_E0(sol: DegMinusOneSolution, params: Optional[Params] = None,
                     **quad_kw):
    from .energy import eval_E0_piecewise
    p = params if params is not None else Params(L=sol.L, R=sol.R)
    return eval_E0_piecewise(sol.field, p.with_(L=sol.L), **quad_kw)
