"""Disc constructions: tangential, hedgehog, and the degree -1 field.

All three are assembled as characteristic families so the generic
energy machinery applies:

* tangential data (-y, x)/R: u = e_theta, characteristics are radii with
  zero divergence, zero limiting energy.
* hedgehog data (x, y): u = r e_r +- sqrt(1-r^2) e_theta on the unit disc,
  divergence identically 2; the characteristics are the circles of radius
  1/2 internally tangent to the boundary (+ sign, seeded on the boundary)
  or emanating from the origin (- sign).
* degree -1 data (x/R, -y/R): built at R = 1 (L below stands for L/R, and
  the helpers below work there) on one octant {0 <= psi <= pi/4} with a
  diagonal wall on y = x, and extended to the disc by reflections.  Three
  families: I (arcs of radius 1 from the x-axis to the boundary), III (arcs
  from the x-axis to the wall, curvature solving (1 - s v)^2 = 1 +
  sqrt(1 - L^2 v^2)), and II (arcs seeded tangentially on the terminal
  region-I characteristic, curvature solving A(s)^2 = 1 + sqrt(1 - L^2 v^2)
  with A(s) = sqrt(2) [(v + 1) sin(s + pi/4) - v]).

Angles in the octant lie in [-pi/4, 0].  The diagonal is a
`characteristics.mirror_wall` through the arrivals of III and II, which
`CharacteristicFamily.arrival` reads off their seeds; its
traces satisfy L v + cos(2 theta) = 0, the form `energy.wall_balance`
takes under the diagonal's reflection (its value is twice |L v + cos 2
theta|).  The build checks it once and stores it as `wall_balance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .characteristics import (CharacteristicFamily, PiecewiseCriticalField,
                              mirror_wall)
from .energy import wall_balance
from .rootfind import arc_residual, arc_root, bracketed_root

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


def tangential_solution() -> PiecewiseCriticalField:
    """u = e_theta on the unit disc: divergence-free, no walls, zero
    limiting energy at every radius; its sampler holds at every point."""
    def seed(s):
        s = np.asarray(s, dtype=float)
        return (np.cos(s), np.sin(s), s + 0.5 * np.pi, np.zeros_like(s),
                np.ones_like(s))

    fam = CharacteristicFamily(seed=seed, s_range=(0.0, 2.0 * np.pi))

    def sample(x, y):
        x, y, r = _polar_radius(x, y, "e_theta")
        return -y / r, x / r, np.zeros(r.shape)

    return PiecewiseCriticalField(families=[fam], jumps=[], sample=sample)


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

    fam = CharacteristicFamily(seed=seed, s_range=(0.0, 2.0 * np.pi))

    def sample(x, y):
        # u = r e_r + q e_theta with e_r = (x,y)/r, e_theta = (-y,x)/r
        x, y, r = _polar_radius(x, y, "the angular part")
        q = sign * np.sqrt(np.maximum(1.0 - r * r, 0.0))
        return x + q * (-y / r), y + q * (x / r), np.full(r.shape, 2.0)

    return PiecewiseCriticalField(families=[fam], jumps=[], sample=sample)


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


def region2_v0(s, L: float):
    """Curvature of the wedge family seeded on the terminal region-I arc.

    Root of 2[(p+1) sin(s + pi/4) - p]^2 - sqrt(1-L^2 p^2) - 1 on
    (-min(1, 1/L), 0); endpoint signs are asserted.  At the corner
    s = pi / 4 the root collapses to v = 0.
    """
    s_arr = np.asarray(s, dtype=float)
    q = min(1.0, 1.0 / L)

    def F(p, sinf):
        A = SQRT2 * ((p + 1.0) * sinf - p)
        return A * A - np.sqrt(np.maximum(1.0 - (L * p) ** 2, 0.0)) - 1.0

    sinf = np.sin(s_arr + 0.25 * np.pi)
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


def region2_seed_of_v(p, L: float):
    """Region II's seed (x0, y0, theta0, v0) in its curvature p.

    `region2_v0`'s equation solved for s: with q = sqrt(1 - L^2 p^2) and
    A = sqrt((1 + q)/2), 1 - sin(s + pi/4) = delta = L^2 p^2 / (2 (1 + A)
    (1 + q) (1 + p)), so phi = s + pi/4 = pi/2 - 2 asin(sqrt(delta/2))
    and the foot (sqrt2 - cos(s), sin(s)) on the terminal region-I arc is
    (1/sqrt2) (1 + delta - cos phi, 1 - delta - cos phi).
    """
    p = np.asarray(p, dtype=float)
    q = np.sqrt((1.0 - L * p) * (1.0 + L * p))
    A = np.sqrt(0.5 * (1.0 + q))
    delta = (L * p) ** 2 / (2.0 * (1.0 + A) * (1.0 + q) * (1.0 + p))
    cos_phi = np.sqrt(delta * (2.0 - delta))
    k = 1.0 / SQRT2
    return (k * (1.0 + delta - cos_phi), k * (1.0 - delta - cos_phi),
            2.0 * np.arcsin(np.sqrt(0.5 * delta)) - 0.25 * np.pi, p)


def _theta_star_from_cosminussin(val):
    """theta in [-pi/4, 0] with cos(theta) - sin(theta) = val."""
    return np.arccos(np.clip(np.asarray(val, dtype=float) / SQRT2, -1.0, 1.0)) \
        - 0.25 * np.pi


@dataclass
class DegMinusOneSolution:
    """Octant construction of the degree -1 critical point at radius R; the
    families' seed parameter s, mu0 and v_end are the unit disc's."""

    R: float
    L: float
    s0: float
    region1: CharacteristicFamily
    region2: CharacteristicFamily
    region3: CharacteristicFamily
    field: PiecewiseCriticalField
    # energy.wall_balance of the diagonal, which the build checks
    wall_balance: float
    # mu = sin(phi) and curvature of region III's terminal arc, which
    # region II's first arc continues: the sampler's seam
    mu0: float
    v_end: float


def build_deg_minus_one(R: float, L: float, n_wall: int = 1024) -> DegMinusOneSolution:
    """Assemble the three families and the diagonal wall on one octant.

    Seeds are evaluated exactly (vectorized root solves) rather than
    sampled and interpolated; the wall polyline carries about n_wall
    vertices, the arrivals of regions III and II, with `mirror_wall`'s
    monotone-cubic traces between them.  Built at R = 1, scaled to R.
    """
    if R <= 0 or L <= 0:
        raise ValueError("R, L > 0 required")
    lam, s0 = L / R, SQRT2 - 1.0

    # region I: arcs of radius 1 from (s, 0), s in [s0, 1], to the boundary
    def seed1(s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return (s, z, z, np.full_like(s, -1.0),
                np.arccos(np.clip((s + 1.0) / 2.0, -1.0, 1.0)))

    fam1 = CharacteristicFamily(seed=seed1, s_range=(s0, 1.0))

    # region III: arcs from (s, 0), s in [0, s0], to the wall; one
    # curvature solve gives the arc and its terminal angle
    def seed3(s):
        s = np.asarray(s, dtype=float)
        v = region3_v0(s, lam)
        th = _theta_star_from_cosminussin(1.0 - s * v)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(v != 0.0, th / v, 0.0)
        return (s, np.zeros_like(s), np.zeros_like(s), v, t)

    fam3 = CharacteristicFamily(seed=seed3, s_range=(0.0, s0))

    # region II: seeds on the terminal region-I arc, arclength s in [0, pi/4]
    def seed2(s):
        s = np.asarray(s, dtype=float)
        v = region2_v0(s, lam)
        th = _theta_star_from_cosminussin(
            SQRT2 * ((v + 1.0) * np.sin(s + 0.25 * np.pi) - v))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(v != 0.0, (th + s) / v, 0.0)
        return SQRT2 - np.cos(s), np.sin(s), -s, v, np.maximum(t, 0.0)

    s2_max = 0.25 * math.pi
    fam2 = CharacteristicFamily(seed=seed2, s_range=(0.0, s2_max))

    # wall: the arrivals of III then II, parametrized by arclength
    x3, _, th3, v3 = fam3.arrival(np.linspace(0.0, s0, n_wall // 2 + 1))
    x2, _, th2, v2 = fam2.arrival(np.linspace(0.0, s2_max,
                                              n_wall // 2 + 1)[1:])
    xw = R * np.concatenate([x3, x2])
    # the diagonal's wall rule: the reflection across y = x, which flips v
    jump = mirror_wall(np.stack([xw, xw], axis=-1), SQRT2 * xw,
                       np.concatenate([th3, th2]), np.concatenate([v3, v2]) / R,
                       np.array([-1.0, 1.0]) / SQRT2)
    balance = wall_balance(jump, L)

    mu0 = math.sin(float(_region3_phi(s0, lam)))
    sol = DegMinusOneSolution(R=R, L=L, s0=R * s0, region1=fam1.scaled(R),
                              region2=fam2.scaled(R), region3=fam3.scaled(R),
                              field=None, wall_balance=balance, mu0=mu0,
                              v_end=float(region3_seed_of_mu(mu0, lam)[3]))
    # the sampler holds a copy of sol without the field: sol -> field ->
    # sampler -> sol would be a reference cycle, which keeps every
    # solution alive until the cyclic collector runs
    cell = replace(sol)
    sol.field = PiecewiseCriticalField(
        families=[sol.region1, sol.region2, sol.region3], jumps=[jump],
        sample=lambda x, y: deg_minus_one_sample(cell, x, y),
        symmetry_copies=8, wall_multiplier=4.0)

    if balance > 1e-8:
        raise RuntimeError(f"wall balance {balance:.3e} exceeds 1e-8")
    return sol


def _octant_eval_batch(sol: DegMinusOneSolution, x, y):
    """(u1, u2, v) arrays for points in the octant 0 <= y <= x, r <= 1.

    Region I (arcs of radius 1 centred on the x-axis, seeded at s >= s0)
    is closed-form.  The other two families are inverted by
    `rootfind.arc_root` on a bracket known from the point: region III in
    mu = sin(phi), from the arc whose angle at the point is -pi/4 to the
    terminal arc mu(s0); region II in its curvature, from the first arc
    (the terminal region-III arc) to the arc seeded at the point's foot on
    the terminal region-I arc.  A point within roundoff of a seam takes
    the seam's arc: each bracket end gets its residual with the sign the
    region requires, or 0 where it rounds to the other sign, and a 0 end
    is the root.
    """
    L, mu0 = sol.L / sol.R, sol.mu0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x * x + y * y > 1.0 + 1e-10):
        raise ValueError("point outside the disc")
    theta = np.empty(x.shape)
    v = np.empty(x.shape)

    # region I: the circle of radius 1 through the point, centred on the
    # x-axis at sI + 1
    sI = x - 1.0 + np.sqrt(np.maximum(1.0 - y * y, 0.0))
    m1 = sI >= sol.region1.s_range[0]
    del sI
    theta[m1] = -np.arcsin(np.clip(y[m1], -1.0, 1.0))
    v[m1] = -1.0

    # region III: outside the circle of its terminal arc, which region
    # II's first arc continues.  That arc's residual is < 0 outside its
    # circle; the region test is that residual, as region III's upper
    # bracket end evaluates it.  An arc's centre is L/sqrt(1 - mu), and
    # the arc centred at x + y has angle -pi/4 at the point
    seed3 = lambda mu: region3_seed_of_mu(mu, L)
    m3 = ~m1 & (arc_residual(seed3, mu0, x, y) < 0.0)
    if m3.any():
        x3, y3 = x[m3], y[m3]
        theta[m3], v[m3] = arc_root(
            seed3, 1.0 - (L / np.maximum(x3 + y3, L)) ** 2, mu0, x3, y3,
            (1, -1))

    # region II: its own residual of the shared arc is >= 0 here, where
    # region III's is
    m2 = ~m1 & ~m3
    if m2.any():
        x2, y2 = x[m2], y[m2]
        sigma = np.arctan2(y2, SQRT2 - x2)
        theta[m2], v[m2] = arc_root(lambda p: region2_seed_of_v(p, L),
                                    sol.v_end, region2_v0(sigma, L), x2, y2,
                                    (1, -1))
    return np.cos(theta), np.sin(theta, out=theta), v


def deg_minus_one_sample(sol: DegMinusOneSolution, x, y):
    """Vectorized (u1, u2, v) anywhere in the disc via octant + reflections.

    Axis reflections mirror u and preserve v; the diagonal reflection uses
    the wall rule u -> (2 nu x nu - I) u and flips the sign of v.  Points
    exactly on a diagonal get the trace of the octant side they round into.
    The folded point over R is evaluated at R = 1, then v is divided by R;
    the reflections are boolean masks, undone in place.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    flip2 = y < 0      # mirror about the x-axis: u2 flips
    flip1 = x < 0      # mirror about the y-axis: u1 flips
    x, y = np.abs(x), np.abs(y)
    diag = y > x       # mirror about the diagonal
    # the octant point is (max, min) of (|x|, |y|)
    xo = np.maximum(x, y)
    yo = np.minimum(x, y, out=y)
    del x, y
    xo /= sol.R
    yo /= sol.R
    u1, u2, v = _octant_eval_batch(sol, xo, yo)
    del xo, yo
    v /= sol.R
    # diagonal rule: (u1, u2) -> (-u2, -u1), v -> -v
    u1[diag], u2[diag] = -u2[diag], -u1[diag]
    np.negative(v, out=v, where=diag)
    # undo the y-axis mirror (acts on u1), then the x-axis mirror (u2)
    np.negative(u1, out=u1, where=flip1)
    np.negative(u2, out=u2, where=flip2)
    return u1.reshape(shape), u2.reshape(shape), v.reshape(shape)
