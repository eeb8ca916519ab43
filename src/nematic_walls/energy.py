"""Energy evaluation.

The evaluators here:

* eval_E_eps: the eps-level energy of a sampled field on a rectangle or
  polar grid (gradient, potential and divergence terms), via the grid's
  `grid_stencils`.  It is the one discrete E_eps: a y-only (1D) field is
  an x-independent field on the unit-length x-periodic cell, whose energy
  is the energy per length.  The gradient-flow right-hand side is the
  exact gradient of this discrete energy; `node_divergence` takes its
  cell divergence to the nodes.
* eval_E0_piecewise: the limiting wall-energy functional on an assembled
  piecewise critical field.  Bulk divergence is integrated per family in
  characteristic coordinates: a composite Gauss-Legendre rule in s over
  v0(s)^2 |integral of J dt|, the Jacobian integrated exactly along each
  arc (`characteristics.family_jacobian_integral`).  J keeps one sign
  along an arc of a foliation, so that is the integral of v0^2 |J|; there
  is no t-rule.  The seed is evaluated once per family, on the s-nodes
  (which give each arc's t*) and s +- ds stacked.  Walls are
  cubic-jump line integrals over the stored jump segments, with the traces
  at the quadrature nodes from each segment's trace_fn.
* eval_E0_1d: the limiting energy of a y-only profile on the rectangle.
* wall_balance: the natural condition of a wall, L [div u] =
  4 (u.nu) |u.tau|, in signed form on a jump segment's vertex traces and
  divergences (which it derives from its trace_fn and div_fn).  It is the
  condition's one definition: the constructions check their walls with it.
* criticality_residuals: the free-boundary criticality conditions of a
  piecewise critical field.  The bulk-transport residual differences the
  divergence along each family's arcs, from one `field.sample` call per
  family; the wall balance is `wall_balance` on every segment, and the
  wall stationarity uses the same vertex data.

A wall costs |u+ - u-|^3 / 6 per length (`wall_energy`), which for unit
traces with equal normal components is (4/3) (1 - (u.nu)^2)^(3/2).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import stencils
from .characteristics import (CharacteristicFamily, PiecewiseCriticalField,
                              family_jacobian_integral)
from .core import (RECTANGLE, EnergyBreakdown, Field2D, Grid2D, JumpSegment,
                   Params)
from .quadrature import composite_nodes, gauss_legendre

# bulk-transport residual: a lattice of RESIDUAL_NS arcs per family by
# RESIDUAL_NT points per arc, central differences along the arc over
# RESIDUAL_FD_STEP
RESIDUAL_NS = 12
RESIDUAL_NT = 12
RESIDUAL_FD_STEP = 1e-6


# --- wall line integrals ----------------------------------------------------

# Gauss-Legendre nodes per polyline segment of a wall's line integral
WALL_ORDER = 8


def wall_nodes(seg: JumpSegment):
    """WALL_ORDER Gauss-Legendre nodes along the polyline, segment by
    segment: (arcs, weights), the nodes' arclengths and weights (the
    weights carry the arclength measure), flat."""
    gl_x, gl_w = gauss_legendre(WALL_ORDER)
    seg_len = seg.segment_lengths
    arc0 = seg.arclengths[:-1]
    lam = 0.5 * (gl_x + 1.0)
    weights = (seg_len[:, None] * (0.5 * gl_w)[None, :]).ravel()
    arcs = (arc0[:, None] + seg_len[:, None] * lam[None, :]).ravel()
    return arcs, weights


def wall_energy(seg: JumpSegment) -> float:
    """Line integral of (1/6)|u+ - u-|^3 over one jump segment, the traces
    from one seg.trace_fn call at its `wall_nodes`."""
    arcs, weights = wall_nodes(seg)
    up, um = (np.asarray(u, dtype=float) for u in seg.trace_fn(arcs))
    jump = np.linalg.norm(up - um, axis=1)
    return float(np.dot(weights, jump ** 3)) / 6.0


# --- E0 on piecewise critical fields ---------------------------------------

def _family_arc_integrals(family: CharacteristicFamily, s_panels: int,
                          order: int):
    """Composite Gauss-Legendre s-weights, |integral of J dt| along each
    s-node's arc, and v0 at the s-nodes.

    J keeps one sign along every arc of a foliation (what check_foliation
    tests), so |integral of J| is the integral of |J|.
    """
    s_nodes, s_w = composite_nodes(*family.s_range, s_panels, order)
    I, v0 = family_jacobian_integral(family, s_nodes)
    return s_w, np.abs(I), v0


def family_bulk_integral(family: CharacteristicFamily, *,
                         s_panels: int = 64, order: int = 8) -> float:
    """integral of v0(s)^2 |J(s,t)| over the family's (s, t) region."""
    s_w, absI, v0 = _family_arc_integrals(family, s_panels, order)
    return float((s_w * v0 ** 2) @ absI)


def eval_E0_piecewise(field: PiecewiseCriticalField, params: Params, *,
                      s_panels: int = 64, order: int = 8) -> EnergyBreakdown:
    """Limiting energy of an assembled critical field.

    bulk = (L/2) * symmetry_copies * sum_f integral v0^2 |J|
    walls = wall_multiplier * cubic jump integrals (interior), plus the
    boundary term for segments flagged boundary (trace_minus = g there).
    """
    bulk = 0.0
    for fam in field.families:
        bulk += family_bulk_integral(fam, s_panels=s_panels, order=order)
    bulk *= 0.5 * params.L * field.symmetry_copies

    wall_int = 0.0
    wall_bdy = 0.0
    for seg in field.jumps:  # each validated when it was built
        w = wall_energy(seg) * field.wall_multiplier
        if seg.boundary:
            wall_bdy += w
        else:
            wall_int += w
    return EnergyBreakdown(bulk_div=bulk, wall_interior=wall_int,
                           wall_boundary=wall_bdy)


# --- eps-level energy on grids ----------------------------------------------

# The `stencils` kernels bound to one grid: read-only node weights W, the
# forms Q_K(u), Q_D(u), their half-gradients K u, D u, and the divergence
# of each cell (node axis order, cell i between periodic nodes i, i + 1).
GridStencils = namedtuple("GridStencils",
                          "W grad_form grad_op div_form div_op cell_div")


def _bind(kernel: Callable, *args) -> Callable:
    return lambda u: kernel(u, *args)


@functools.lru_cache(maxsize=8)
def grid_stencils(grid: Grid2D) -> GridStencils:
    """The stencil set of `grid`, built on first use and shared by
    `eval_E_eps` and the flow.  Each kernel is read from the `stencils`
    module then, so one replaced there before (a timing wrapper, say) is
    the one every call reaches.  A polar grid needs r_in > 0."""
    if grid.kind == RECTANGLE:
        kind, (hx, hy) = "rect", grid.spacing
        W = stencils.rect_node_weights(grid.n1, grid.n2, hx, hy)
        grad = div = (hx, hy)
        cell_div = _bind(stencils._rect_cell_div, hx, hy)
    else:
        kind, (rs, ts), (dr, dt) = "polar", grid.axes(), grid.spacing
        if rs[0] <= 0.0:
            raise ValueError("polar stencils need r_in > 0")
        W = stencils.polar_node_weights(rs, dr, dt)
        grad, div = (rs, dr, dt), (rs, ts, dr, dt)
        cell_div = lambda u: stencils._polar_cell_div(u, *div)[0]
    W.flags.writeable = False
    forms = [_bind(getattr(stencils, f"{kind}_{name}"), *args)
             for name, args in (("grad_form", grad), ("grad_op", grad),
                                ("div_form", div), ("div_op", div))]
    return GridStencils(W, *forms, cell_div)


def eval_E_eps(field: Field2D, params: Params) -> EnergyBreakdown:
    """Discrete eps-level energy on the field's grid.

    grad = (eps/2) int |grad u|^2, potential = 1/(2 eps) int (|u|^2-1)^2,
    bulk = (L/2) int (div u)^2; the grid's `grid_stencils`: second-order
    forms, trapezoid weights, metric-aware on polar grids.
    """
    st = grid_stencils(field.grid)
    u = field.values
    mod2 = u[..., 0] ** 2 + u[..., 1] ** 2
    pot = float(np.sum(st.W * (mod2 - 1.0) ** 2))
    return EnergyBreakdown(
        grad_term=0.5 * params.eps * st.grad_form(u),
        potential_term=pot / (2.0 * params.eps),
        bulk_div=0.5 * params.L * st.div_form(u),
    )


def node_divergence(field: Field2D) -> np.ndarray:
    """The cell divergence of `eval_E_eps` at the nodes: the mean of the 4
    cells around a node, or of the 2 beside it on an end line."""
    g = field.grid
    cells = g.periodic_first(grid_stencils(g).cell_div(field.values))
    pairs = cells + np.roll(cells, 1, axis=0)  # cells i - 1 and i
    pairs = np.concatenate([pairs[:, :1], pairs, pairs[:, -1:]], axis=1)
    return g.periodic_first(0.25 * (pairs[:, :-1] + pairs[:, 1:]))


# --- the limiting 1D energy --------------------------------------------------

def eval_E0_1d(profile, params: Params) -> EnergyBreakdown:
    """Exact limiting energy of a piecewise-linear-u2 profile.

    `profile` is a rect1d.OneDProfile: breakpoints with u2 values, a sign
    pattern for u1 = sign * sqrt(1 - u2^2), and the u1 jump locations.
    Segment integrals of (u2')^2 are closed-form; walls contribute
    (4/3)(1 - u2(y_j)^2)^(3/2); the two boundary terms use the stored sign
    pattern at +-H.
    """
    ys = np.asarray(profile.y_breaks, dtype=float)
    u2 = np.asarray(profile.u2_vals, dtype=float)
    if np.any(np.abs(u2) > 1.0 + 1e-10):
        raise ValueError("|u2| > 1 (unit constraint violated)")
    a = params.a
    if abs(u2[0] - a) > 1e-10 or abs(u2[-1] - a) > 1e-10:
        raise ValueError("u2(+-H) must equal a")
    dy = np.diff(ys)
    du2 = np.diff(u2)
    bulk = 0.5 * params.L * float(np.sum(du2 ** 2 / dy))

    wall = 0.0
    for yj in profile.jumps:
        u2j = float(np.interp(yj, ys, u2))
        wall += (4.0 / 3.0) * max(1.0 - u2j * u2j, 0.0) ** 1.5

    s = math.sqrt(1.0 - a * a)
    u1_left = profile.sign_pattern[0] * math.sqrt(max(1.0 - u2[0] ** 2, 0.0))
    u1_right = profile.sign_pattern[-1] * math.sqrt(max(1.0 - u2[-1] ** 2, 0.0))
    bdy = (abs(u1_left + s) ** 3 + abs(u1_right - s) ** 3) / 6.0
    return EnergyBreakdown(bulk_div=bulk, wall_interior=wall, wall_boundary=bdy)


# --- criticality residuals ----------------------------------------------------

@dataclass
class CriticalityReport:
    """Sup-norm residuals of the free-boundary criticality conditions.

    bulk_transport : u^perp . grad(div u) on family interiors
    wall_balance   : `wall_balance` on interior jumps
    boundary_balance : `wall_balance` on boundary jumps, whose - side holds
                     the boundary datum
    wall_stationarity : jump-set stationarity combining the divergence
                     traces, their tangential derivative, and the curvature
    """

    bulk_transport: Optional[float] = None
    wall_balance: Optional[float] = None
    boundary_balance: Optional[float] = None
    wall_stationarity: Optional[float] = None


def _trace_components(seg: JumpSegment):
    """u+ . nu and |u+ . tau| at the vertices, tau = nu turned by +pi/2.
    |u.tau| = sqrt(1 - (u.nu)^2) for unit traces, without the cancellation
    of that form where the jump degenerates (u.nu -> +-1)."""
    tau = np.stack([-seg.normals[:, 1], seg.normals[:, 0]], axis=-1)
    return (np.einsum("ik,ik->i", seg.trace_plus, seg.normals),
            np.abs(np.einsum("ik,ik->i", seg.trace_plus, tau)))


def wall_balance(seg: JumpSegment, L: float) -> float:
    """sup |L (v+ - v-) - 4 (u+ . nu) |u+ . tau|| over the vertices of a
    segment with divergence traces: the natural condition L [div u] =
    4 (u.nu) |u.tau| of a wall, signed, so a wall whose divergence traces
    carry the wrong sign fails it."""
    if seg.div_plus is None:
        raise ValueError("wall_balance needs the segment's div_fn")
    un, ut = _trace_components(seg)
    return float(np.abs(L * (seg.div_plus - seg.div_minus)
                        - 4.0 * un * ut).max())


def _seg_geometry(seg: JumpSegment):
    """Tangents (vertex-centred) and signed curvature for the residuals.

    kappa is calibrated so that a circular wall of radius rho with the
    stored normal pointing inward has kappa = -1/rho.
    """
    p = seg.polyline
    s = seg.arclengths
    tau = np.gradient(p, s, axis=0)
    tau /= np.linalg.norm(tau, axis=1, keepdims=True)
    dtau = np.gradient(tau, s, axis=0)
    kappa = -np.einsum("ik,ik->i", dtau, seg.normals)
    return tau, kappa


def _bulk_transport_residual(field: PiecewiseCriticalField):
    """sup |u^perp . grad v| over a RESIDUAL_NS x RESIDUAL_NT lattice of
    each family: v differenced along the arc, between p +- h u^perp with h
    = RESIDUAL_FD_STEP, from one field.sample call per family.  None when
    no family has a lattice."""
    h = RESIDUAL_FD_STEP
    taus = np.linspace(0.15, 0.85, RESIDUAL_NT)
    worst = None
    for fam in field.families:
        s_lo, s_hi = fam.s_range
        ss = np.linspace(s_lo + 0.05 * (s_hi - s_lo),
                         s_hi - 0.05 * (s_hi - s_lo), RESIDUAL_NS)
        ts = np.asarray(fam.seed(ss)[4], dtype=float)
        ss, ts = ss[ts > 0], ts[ts > 0]
        if not ss.size:
            continue
        x, y, theta, _ = fam.point(np.repeat(ss, taus.size),
                                   np.outer(ts, taus).ravel())
        dx, dy = -h * np.sin(theta), h * np.cos(theta)
        _, _, v = field.sample(np.concatenate([x + dx, x - dx]),
                               np.concatenate([y + dy, y - dy]))
        vp, vm = np.split(np.asarray(v, dtype=float), 2)
        m = float(np.abs(vp - vm).max()) / (2 * h)
        worst = m if worst is None else max(worst, m)
    return worst


def _max(a: Optional[float], b: float) -> float:
    return b if a is None else max(a, b)


def criticality_residuals(field: PiecewiseCriticalField,
                          params: Params) -> CriticalityReport:
    rep = CriticalityReport(bulk_transport=_bulk_transport_residual(field))
    for seg in field.jumps:
        if seg.div_plus is None:
            continue
        balance = wall_balance(seg, params.L)
        if seg.boundary:
            rep.boundary_balance = _max(rep.boundary_balance, balance)
            continue
        rep.wall_balance = _max(rep.wall_balance, balance)

        # stationarity of the jump set itself
        arcs = seg.arclengths
        dplus, dminus = seg.div_plus, seg.div_minus
        un, root = _trace_components(seg)
        tau, kappa = _seg_geometry(seg)
        dsum = np.gradient(dplus + dminus, arcs)
        tj = np.einsum("ik,ik->i", seg.trace_plus - seg.trace_minus, tau)
        lhs = dplus ** 2 - dminus ** 2 + dsum * tj
        rhs = (8.0 * kappa / (3.0 * params.L)) * root * (1.0 + 2.0 * un ** 2)
        # one-sided endpoint tangents pollute the curvature two vertices in
        inner = slice(2, -2) if len(arcs) > 4 else slice(None)
        rep.wall_stationarity = _max(rep.wall_stationarity,
                                     float(np.abs(lhs - rhs)[inner].max()))
    return rep
