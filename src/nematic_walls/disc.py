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

import numpy as np

from .characteristics import (CharacteristicFamily, PiecewiseCriticalField,
                              pchip)
from .core import JumpSegment
from .rootfind import arc_root, bracketed_root

SQRT2 = math.sqrt(2.0)
# wall nodes per family at which natural_bc_residual checks the seeds
NBC_NODES = 256


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
        return (R * np.cos(s), R * np.sin(s), s + 0.5 * np.pi,
                np.zeros_like(s), np.full_like(s, R))

    fam = CharacteristicFamily(seed=seed, s_range=(0.0, 2.0 * np.pi),
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
    # every arc is a half circle of radius 1/2: t* = pi/2
    if sign > 0:
        def seed(s):
            s = np.asarray(s, dtype=float)
            return (np.cos(s), np.sin(s), s, np.full_like(s, 2.0),
                    np.full_like(s, 0.5 * np.pi))
    else:
        def seed(s):
            s = np.asarray(s, dtype=float)
            z = np.zeros_like(s)
            return (z, z, s, np.full_like(s, 2.0),
                    np.full_like(s, 0.5 * np.pi))

    fam = CharacteristicFamily(seed=seed, s_range=(0.0, 2.0 * np.pi),
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

def _region3_phi(s, L: float):
    """phi in [0, pi/2] of `region3_v0`'s root p = -cos(phi)/L."""
    def F(phi, s_):
        return (1.0 + s_ * np.cos(phi) / L) ** 2 - np.sin(phi) - 1.0

    return bracketed_root(F, 0.0, 0.5 * np.pi,
                          args=(np.asarray(s, dtype=float),))


def region3_v0(s, L: float):
    """Curvature of the family joining the x-axis to the diagonal wall.

    Root p of (1 - s p)^2 - sqrt(1 - L^2 p^2) - 1 in [-1/L, 0], solved as
    p = -cos(phi) / L with phi in [0, pi/2], where the square root is
    sin(phi): exact at the s = 0 root phi = 0 and smooth there; vectorized.
    """
    return -np.cos(_region3_phi(s, L)) / L


def region3_seed_of_mu(mu, L: float):
    """Region III's seed (x0, y0, theta0, v0) in mu = sin(phi).

    `region3_v0`'s equation solved for s: 1 + s cos(phi)/L = sqrt(1 + mu)
    gives s = L mu / ((1 + sqrt(1 + mu)) sqrt(1 - mu^2)), and v0 =
    -sqrt(1 - mu^2)/L.  The arc's centre s - 1/v0 is L/sqrt(1 - mu).
    """
    mu = np.asarray(mu, dtype=float)
    c = np.sqrt((1.0 - mu) * (1.0 + mu))
    z = np.zeros_like(mu)
    return (L * mu / ((1.0 + np.sqrt(1.0 + mu)) * c), z, z, -c / L)


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


def region2_seed_of_v(p, R: float, L: float):
    """Region II's seed (x0, y0, theta0, v0) in its curvature p.

    `region2_v0`'s equation solved for s: with q = sqrt(1 - L^2 p^2) and
    A = sqrt((1 + q)/2), 1 - sin(s/R + pi/4) = delta = L^2 p^2 / (2 (1 + A)
    (1 + q) (1 + R p)), so phi = s/R + pi/4 = pi/2 - 2 asin(sqrt(delta/2))
    and the foot (sqrt2 R - R cos(s/R), R sin(s/R)) on the terminal
    region-I arc is (R/sqrt2) (1 + delta - cos phi, 1 - delta - cos phi).
    """
    p = np.asarray(p, dtype=float)
    q = np.sqrt((1.0 - L * p) * (1.0 + L * p))
    A = np.sqrt(0.5 * (1.0 + q))
    delta = (L * p) ** 2 / (2.0 * (1.0 + A) * (1.0 + q) * (1.0 + R * p))
    cos_phi = np.sqrt(delta * (2.0 - delta))
    k = R / SQRT2
    return (k * (1.0 + delta - cos_phi), k * (1.0 - delta - cos_phi),
            2.0 * np.arcsin(np.sqrt(0.5 * delta)) - 0.25 * np.pi, p)


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

    def natural_bc_residual(self) -> float:
        """sup |L v + cos 2 theta| along the wall (operative natural BC),
        on NBC_NODES seeds of each family.

        Evaluated in the exact seed parametrization of each family, so the
        value reflects the root-solver tolerance, not interpolation error.
        """
        n = NBC_NODES
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

    # region I: arcs of radius R from (s, 0), s in [s0, R], to the boundary
    def seed1(s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return (s, z, z, np.full_like(s, -1.0 / R),
                R * np.arccos(np.clip((s + R) / (2.0 * R), -1.0, 1.0)))

    fam1 = CharacteristicFamily(seed=seed1, s_range=(s0, R),
                                label="deg-1 region I")

    # region III: arcs from (s, 0), s in [0, s0], to the wall; one
    # curvature solve gives the arc and its terminal angle
    def seed3(s):
        s = np.asarray(s, dtype=float)
        v = region3_v0(s, L)
        th = _theta_star_from_cosminussin(1.0 - s * v)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(v != 0.0, th / v, 0.0)
        return (s, np.zeros_like(s), np.zeros_like(s), v, t)

    fam3 = CharacteristicFamily(seed=seed3, s_range=(0.0, s0),
                                label="deg-1 region III")

    # region II: seeds on the terminal region-I arc, arclength s in [0, pi R/4]
    def seed2(s):
        s = np.asarray(s, dtype=float)
        v = region2_v0(s, R, L)
        th = _theta_star_from_cosminussin(region2_A(s, v, R))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(v != 0.0, (th + s / R) / v, 0.0)
        return (SQRT2 * R - R * np.cos(s / R), R * np.sin(s / R), -s / R, v,
                np.maximum(t, 0.0))

    s2_max = 0.25 * math.pi * R
    fam2 = CharacteristicFamily(seed=seed2, s_range=(0.0, s2_max),
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

    def traces(arc):
        th = theta_of_xi(arc)
        c, s = np.cos(th), np.sin(th)
        return np.stack([c, s], axis=-1), np.stack([-s, -c], axis=-1)

    # the diagonal reflection flips v
    jump = JumpSegment(polyline=poly, normals=nu, trace_fn=traces,
                       div_fn=lambda arc: (v := v_of_xi(arc), -v))

    sol = DegMinusOneSolution(R=R, L=L, s0=s0, region1=fam1, region2=fam2,
                              region3=fam3, jump=jump, field=None)
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
    """(u1, u2, v) arrays for points in the octant 0 <= y <= x, r <= R.

    Region I (arcs of radius R centred on the x-axis, seeded at s >= s0)
    is closed-form.  The other two families are inverted by
    `rootfind.arc_root` on a bracket known from the point: region III in
    mu = sin(phi), from the arc whose angle at the point is -pi/4 to the
    terminal arc mu(s0); region II in its curvature, from the first arc
    (the terminal region-III arc) to the arc seeded at the point's foot on
    the terminal region-I arc.
    """
    R, L, s0 = sol.R, sol.L, sol.s0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x * x + y * y > R * R * (1 + 1e-10)):
        raise ValueError("point outside the disc")
    theta = np.empty(x.shape)
    v = np.empty(x.shape)

    # region I: the circle of radius R through the point, centred on the
    # x-axis at sI + R
    sI = x - R + np.sqrt(np.maximum(R * R - y * y, 0.0))
    m1 = sI >= s0
    theta[m1] = -np.arcsin(np.clip(y[m1] / R, -1.0, 1.0))
    v[m1] = -1.0 / R

    # region III: outside the circle of its terminal arc, which region
    # II's first arc continues; an arc's centre is L/sqrt(1 - mu), and
    # the arc centred at x + y has angle -pi/4 at the point
    mu0 = math.sin(float(_region3_phi(s0, L)))
    s_end, _, _, v_end = (float(a) for a in region3_seed_of_mu(mu0, L))
    g = -1.0 / v_end
    m3 = ~m1 & ((x - s_end - g) ** 2 + y * y > g * g)
    if m3.any():
        x3, y3 = x[m3], y[m3]
        theta[m3], v[m3] = arc_root(
            lambda mu: region3_seed_of_mu(mu, L),
            1.0 - (L / np.maximum(x3 + y3, L)) ** 2, mu0, x3, y3)

    m2 = ~m1 & ~m3
    if m2.any():
        x2, y2 = x[m2], y[m2]
        sigma = R * np.arctan2(y2, SQRT2 * R - x2)
        theta[m2], v[m2] = arc_root(lambda p: region2_seed_of_v(p, R, L),
                                    v_end, region2_v0(sigma, R, L), x2, y2)
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
