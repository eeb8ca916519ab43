"""Radial-ansatz analysis on the annulus 1 < r < R with mismatch data
g = -e_theta at r = 1 and g = +e_theta at r = R.

Within u = p(r) e_r + q(r) e_theta, |u| = 1, p(1) = p(R) = 0, an interior
wall at radius rho with normal trace a = p(rho) forces

    p(r) = a rho/(rho^2-1) (r - 1/r)          on (1, rho)
    p(r) = -a rho/(R^2-rho^2) (r - R^2/r)     on (rho, R)

with piecewise-constant divergence, and the closed-form energy

    E = 2 pi L a^2 rho^2 (1/(rho^2-1) + 1/(R^2-rho^2))
        + (8/3) pi rho (1 - a^2)^(3/2).

Criticality (wall balance + wall stationarity) reduces to a single
polynomial g_{R,L}(z) in z = rho^2 on (1, 2R^2/(1+R^2)); no admissible
root means the wall sits at the inner boundary with energy 8 pi / 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .characteristics import (CharacteristicFamily, PiecewiseCriticalField,
                              arc_xy)
from .core import EnergyBreakdown, JumpSegment
from .rootfind import bracketed_root, scan_brackets

EIGHT_PI_THIRDS = 8.0 * math.pi / 3.0


def radial_p(rho: float, a: float, R: float):
    """The two-branch radial component; returns p(r) vectorized."""
    if not (1.0 < rho < R):
        raise ValueError(f"rho must lie in (1, R), got {rho}")
    if not (0.0 <= a <= 1.0):
        raise ValueError("a in [0, 1] required")
    ci = a * rho / (rho * rho - 1.0)
    co = -a * rho / (R * R - rho * rho)

    def p(r):
        r = np.asarray(r, dtype=float)
        inner = ci * (r - 1.0 / r)
        outer = co * (r - R * R / r)
        return np.where(r <= rho, inner, outer)

    return p


def radial_div(rho: float, a: float, R: float):
    """Piecewise-constant divergence (1/r)(r p)' of the radial ansatz."""
    c_in = 2.0 * a * rho / (rho * rho - 1.0)
    c_out = -2.0 * a * rho / (R * R - rho * rho)
    return c_in, c_out


def annulus_energy(rho: float, a: float, R: float, L: float) -> float:
    """Closed-form limiting energy of the interior-wall radial field."""
    z = rho * rho
    bulk = 2.0 * math.pi * L * a * a * z * (1.0 / (z - 1.0) + 1.0 / (R * R - z))
    wall = EIGHT_PI_THIRDS * rho * (1.0 - a * a) ** 1.5
    return bulk + wall


def g_poly(z, R: float, L: float):
    """The criticality polynomial in z = rho^2."""
    z = np.asarray(z, dtype=float)
    R2 = R * R
    return (L * L * (R2 - 1.0) ** 2 * z
            * (z * z - 0.25 * (1.0 + R2) * z - 0.5 * R2)
            + 3.0 * (R2 - z * z) * (z - 1.0) ** 2 * (R2 - z) ** 2)


def a_squared_of_z(z: float, R: float) -> float:
    """Normal trace from the wall-stationarity relation."""
    R2 = R * R
    denom = -4.0 * z * z + (1.0 + R2) * z + 2.0 * R2
    return (z - 1.0) * (R2 - z) / denom


def rho_squared_for_a(a: float, R: float) -> float:
    """Wall radius squared from the combined criticality quadratic

        (1 - 2 c_a) z^2 - z (1 + R^2)(1 - c_a) + R^2 = 0,
        c_a = 3 a^2 / (2 a^2 + 1),

    picking the root in (1, R^2).  a = 1/2 degenerates to the linear case
    z = 2 R^2 / (1 + R^2); a > 1/2 has no real admissible root.
    """
    if not (0.0 < a <= 0.5):
        raise ValueError("the criticality system requires a in (0, 1/2]")
    R2 = R * R
    ca = 3.0 * a * a / (2.0 * a * a + 1.0)
    A = 1.0 - 2.0 * ca
    B = -(1.0 + R2) * (1.0 - ca)
    C = R2
    if abs(A) < 1e-14:
        return 2.0 * R2 / (1.0 + R2)
    disc = B * B - 4.0 * A * C
    if disc < 0:
        raise ValueError("no real wall radius for this a")
    roots = [(-B + math.sqrt(disc)) / (2.0 * A), (-B - math.sqrt(disc)) / (2.0 * A)]
    inside = [z for z in roots if 1.0 < z < R2]
    if not inside:
        raise ValueError("no admissible wall radius in (1, R^2)")
    return min(inside)


def small_L_interior_bound(R: float) -> float:
    """Elastic constants below this bound make some interior wall beat the
    inner-boundary wall's 8 pi / 3 (competitor at a = 1/2,
    rho^2 = 2R^2/(R^2+1))."""
    if R <= 1.0:
        raise ValueError("R > 1 required")
    R2 = R * R
    return (8.0 / 3.0) * (R2 - 1.0) / (R2 + 1.0) \
        * (1.0 - math.sqrt(2.0) * R / math.sqrt(R2 + 1.0) * (0.75) ** 1.5)


def critical_L_for_a_half(R: float) -> float:
    """The elastic constant at which the interior critical wall has exactly
    a = 1/2 (and rho^2 = 2R^2/(R^2+1)), from the wall-balance relation
    2 a L rho (1/(rho^2-1) + 1/(R^2-rho^2)) = 4 a sqrt(1-a^2)."""
    z = 2.0 * R * R / (R * R + 1.0)
    rho = math.sqrt(z)
    sigma = 1.0 / (z - 1.0) + 1.0 / (R * R - z)
    return 2.0 * math.sqrt(1.0 - 0.25) / (rho * sigma)


@dataclass
class AnnulusRadialSolution:
    R: float
    L: float
    rho: float               # wall radius, or 1.0 with wall_at_boundary
    a: float                 # normal trace at the wall
    wall_at_boundary: bool
    energy: EnergyBreakdown
    field: PiecewiseCriticalField
    nbc_residual: float = 0.0
    jump_residual: float = 0.0


def _annulus_radius(x, y, R: float):
    """x, y broadcast to float arrays and r = hypot(x, y); ValueError where
    a point lies outside 1 <= r <= R (to 1e-12)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    r = np.hypot(x, y)
    if np.any((r < 1.0 - 1e-12) | (r > R + 1e-12)):
        raise ValueError("point outside the annulus")
    return x, y, r


def _assemble_field(rho: float, a: float, R: float) -> PiecewiseCriticalField:
    """Characteristic families + wall circle for the interior-wall field."""
    c_in, c_out = radial_div(rho, a, R)
    p = radial_p(rho, a, R) if a > 0 else (lambda r: np.zeros_like(np.asarray(r, float)))

    # inner family: seeds on r = 1 where u = -e_theta (theta0 = phi - pi/2),
    # marched outward to the wall; v = c_in everywhere in 1 < r < rho.  The
    # outer family is seeded on r = R.  Each reaches the wall at one t* for
    # every phi, by rotational symmetry.
    def _hit_radius(x0, th0, v0, target, t_hi):
        # first arrival time at |pos(t)| = target along the phi = 0 arc,
        # seeded at (x0, 0) with angle th0
        if abs(v0) > 1e-12:
            t_hi = min(t_hi, math.pi / abs(v0))  # at most half the circle

        def f(t):
            x, y, _ = arc_xy(x0, 0.0, th0, v0, np.asarray(t, dtype=float))
            return np.hypot(x, y) - target

        ts = np.linspace(0.0, t_hi, 512)
        vals = f(ts)
        sc = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        if len(sc) == 0:
            raise RuntimeError("characteristic never reaches the wall radius")
        return bracketed_root(f, ts[sc[0]], ts[sc[0] + 1])

    t_in = _hit_radius(1.0, -0.5 * np.pi, c_in, rho,
                       t_hi=4.0 * (rho - 1.0) + 2.0) if a > 0 else rho - 1.0
    t_out = _hit_radius(R, 0.5 * np.pi, c_out, rho,
                        t_hi=4.0 * (R - rho) + 2.0) if a > 0 else R - rho

    def seed_in(s):
        s = np.asarray(s, dtype=float)
        return (np.cos(s), np.sin(s), s - 0.5 * np.pi, np.full_like(s, c_in),
                np.full_like(s, t_in))

    def seed_out(s):
        s = np.asarray(s, dtype=float)
        return (R * np.cos(s), R * np.sin(s), s + 0.5 * np.pi,
                np.full_like(s, c_out), np.full_like(s, t_out))

    fam_in = CharacteristicFamily(seed=seed_in, s_range=(0.0, 2.0 * np.pi),
                                  label="annulus inner")
    fam_out = CharacteristicFamily(seed=seed_out, s_range=(0.0, 2.0 * np.pi),
                                   label="annulus outer")

    # wall circle with exact trace functions of arclength
    nv = 512
    phi = np.linspace(0.0, 2.0 * np.pi, nv + 1)
    pts = rho * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    b = math.sqrt(max(1.0 - a * a, 0.0))

    def traces(ph):
        # traces from r > rho and from r < rho at polar angle ph
        er = np.stack([np.cos(ph), np.sin(ph)], axis=-1)
        et = np.stack([-np.sin(ph), np.cos(ph)], axis=-1)
        return a * er + b * et, a * er - b * et

    # from + (outer) to - (inner)
    normals = -np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    dphi = phi[1] - phi[0]
    arc_over_chord = (0.5 * dphi) / math.sin(0.5 * dphi)
    wall = JumpSegment(
        polyline=pts, normals=normals,
        trace_fn=lambda arc: traces(np.asarray(arc, dtype=float) / rho),
        div_fn=lambda arc: (np.full(np.shape(arc), c_out),
                            np.full(np.shape(arc), c_in)),
        length_scale=np.full(nv, arc_over_chord),
    )

    def sample(x, y):
        x, y, r = _annulus_radius(x, y, R)
        pr = p(r)
        q_ = np.sqrt(np.maximum(1.0 - pr * pr, 0.0)) \
            * np.where(r > rho, 1.0, -1.0)
        u1 = pr * x / r - q_ * y / r
        u2 = pr * y / r + q_ * x / r
        return u1, u2, np.where(r < rho, c_in, c_out)

    return PiecewiseCriticalField(
        families=[fam_in, fam_out], jumps=[wall], sample=sample,
        domain=f"annulus 1..{R}")


def boundary_wall_solution(R: float, L: float) -> AnnulusRadialSolution:
    """u = e_theta everywhere; the wall sits on the inner boundary."""
    def seed(s):
        s = np.asarray(s, dtype=float)
        return (R * np.cos(s), R * np.sin(s), s + 0.5 * np.pi,
                np.zeros_like(s), np.full_like(s, R - 1.0))

    fam = CharacteristicFamily(seed=seed, s_range=(0.0, 2.0 * np.pi),
                               label="annulus radii")
    nv = 512
    phi = np.linspace(0.0, 2.0 * np.pi, nv + 1)
    pts = np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    def traces(arc):
        # on the unit circle arclength is the polar angle
        ph = np.asarray(arc, dtype=float)
        et = np.stack([-np.sin(ph), np.cos(ph)], axis=-1)
        return et, -et

    dphi = phi[1] - phi[0]
    wall = JumpSegment(
        polyline=pts, normals=np.stack([np.cos(phi), np.sin(phi)], axis=-1),
        trace_fn=traces, div_fn=lambda arc: (np.zeros(np.shape(arc)),) * 2,
        length_scale=np.full(nv, (0.5 * dphi) / math.sin(0.5 * dphi)),
        boundary=True)

    def sample(x, y):
        x, y, r = _annulus_radius(x, y, R)
        return -y / r, x / r, np.zeros(r.shape)

    field = PiecewiseCriticalField(
        families=[fam], jumps=[wall], sample=sample, domain=f"annulus 1..{R}")
    eb = EnergyBreakdown(wall_boundary=EIGHT_PI_THIRDS)
    return AnnulusRadialSolution(R=R, L=L, rho=1.0, a=0.0, wall_at_boundary=True,
                                 energy=eb, field=field)


def solve_interior_wall(R: float, L: float) -> Optional[AnnulusRadialSolution]:
    """Interior critical wall, or None when no admissible root exists.

    Scans g_{R,L} on (1, 2R^2/(1+R^2)) with 4096 points, solves all
    brackets at once, keeps roots with a in (0, 1/2], and returns the
    lowest-energy one; wall-balance and stationarity residuals are checked
    to 1e-10.
    """
    if R <= 1.0 or L <= 0.0:
        raise ValueError("R > 1 and L > 0 required")
    z_hi = 2.0 * R * R / (1.0 + R * R)
    # include a sliver beyond z_hi so a root sitting exactly at a = 1/2
    # (z = z_hi) is not lost to roundoff
    lo, hi = 1.0 + 1e-9, z_hi * (1.0 + 1e-9)
    brackets = scan_brackets(lambda z: g_poly(z, R, L), lo, hi, n=4096)
    if not brackets:
        return None
    za, zb = np.array(brackets).T
    best = None
    for z in bracketed_root(g_poly, za, zb, args=(R, L)):
        z = float(z)
        a2 = a_squared_of_z(z, R)
        if not (0.0 < a2 <= 0.25 + 1e-9):
            continue
        a2 = min(a2, 0.25)
        a = math.sqrt(a2)
        rho = math.sqrt(z)
        E = annulus_energy(rho, a, R, L)
        if best is None or E < best[0]:
            best = (E, rho, a)
    if best is None:
        return None
    E, rho, a = best
    c_in, c_out = radial_div(rho, a, R)
    nbc = abs(2.0 * a * L * rho * (1.0 / (rho * rho - 1.0)
                                   + 1.0 / (R * R - rho * rho))
              - 4.0 * a * math.sqrt(1.0 - a * a))
    jump = abs(4.0 * a * a * rho * rho / (R * R - rho * rho) ** 2
               - 4.0 * a * a * rho * rho / (rho * rho - 1.0) ** 2
               + (8.0 / (3.0 * L * rho)) * math.sqrt(1.0 - a * a)
               * (1.0 + 2.0 * a * a))
    if max(nbc, jump) > 1e-10:
        raise RuntimeError(f"criticality residuals too large: nbc={nbc:.3e}, "
                           f"jump={jump:.3e}")
    field = _assemble_field(rho, a, R)
    bulk = 2.0 * math.pi * L * a * a * rho * rho \
        * (1.0 / (rho * rho - 1.0) + 1.0 / (R * R - rho * rho))
    wall = EIGHT_PI_THIRDS * rho * (1.0 - a * a) ** 1.5
    eb = EnergyBreakdown(bulk_div=bulk, wall_interior=wall)
    return AnnulusRadialSolution(R=R, L=L, rho=rho, a=a, wall_at_boundary=False,
                                 energy=eb, field=field,
                                 nbc_residual=nbc, jump_residual=jump)


def solve_annulus(R: float, L: float) -> AnnulusRadialSolution:
    """Interior critical wall when the criticality system admits one;
    otherwise the wall sits at the inner boundary (u = e_theta)."""
    interior = solve_interior_wall(R, L)
    if interior is not None:
        return interior
    return boundary_wall_solution(R, L)
