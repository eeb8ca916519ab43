"""Energy evaluation.

The evaluators here:

* eval_E_eps: the eps-level energy of a sampled field on a rectangle or
  polar grid (gradient, potential and divergence terms), via the discrete
  quadratic forms in `stencils`.  The gradient-flow right-hand side is the
  exact gradient of this discrete energy.
* eval_E0_piecewise: the limiting wall-energy functional on an assembled
  piecewise critical field.  Bulk divergence is integrated per family in
  characteristic coordinates: a composite Gauss-Legendre rule in s over
  v0(s)^2 |integral of J dt|, the Jacobian integrated exactly along each
  arc (`characteristics.family_jacobian_integral`).  J keeps one sign
  along an arc of a foliation, so that is the integral of v0^2 |J|; there
  is no t-rule.  The seed is evaluated twice per family, at the s-nodes
  (which also gives each arc's t*) and on s +- ds stacked.  Walls are
  cubic-jump line integrals over the stored jump segments, with the traces
  at the quadrature nodes from each segment's trace_fn.
* eval_E0_1d / eval_E_eps_1d: the y-only energies on the rectangle.
* wall_balance: the natural condition of a wall, L [div u] =
  4 (u.nu) |u.tau|, in signed form on a jump segment's vertex traces and
  divergences (which it derives from its trace_fn and div_fn).  It is the
  condition's one definition: the constructions check their walls with it.
* criticality_residuals: the free-boundary criticality conditions of a
  piecewise critical field.  The bulk-transport residual differences the
  divergence along each family's arcs, from one `field.sample` call per
  family; the wall balance is `wall_balance` on every segment, and the
  wall stationarity uses the same vertex data.

Wall cost appears in two equivalent forms, |u+ - u-|^3 / 6 and
(4/3) (1 - (u.nu)^2)^(3/2); both are exposed for cross-checking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import stencils
from .characteristics import (CharacteristicFamily, PiecewiseCriticalField,
                              family_jacobian_integral)
from .core import (POLAR, RECTANGLE, EnergyBreakdown, Field2D, Grid2D,
                   JumpSegment, Params)
from .quadrature import composite_nodes, gauss_legendre

TRACE_UNIT_TOL = 1e-8
TRACE_NORMAL_TOL = 1e-8

# bulk-transport residual: a lattice of RESIDUAL_NS arcs per family by
# RESIDUAL_NT points per arc, central differences along the arc over
# RESIDUAL_FD_STEP
RESIDUAL_NS = 12
RESIDUAL_NT = 12
RESIDUAL_FD_STEP = 1e-6


@dataclass(frozen=True)
class WallIntegrand:
    """The two equivalent per-point wall cost forms."""

    jump_cube: float     # |u+ - u-|^3 / 6
    normal_form: float   # (4/3) (1 - (u.nu)^2)^(3/2)

    @classmethod
    def from_traces(cls, trace_plus, trace_minus, normal) -> "WallIntegrand":
        up = np.asarray(trace_plus, dtype=float)
        um = np.asarray(trace_minus, dtype=float)
        nu = np.asarray(normal, dtype=float)
        jump = up - um
        jc = float(np.linalg.norm(jump) ** 3) / 6.0
        un = float(np.dot(up, nu))
        nf = (4.0 / 3.0) * max(1.0 - un * un, 0.0) ** 1.5
        return cls(jump_cube=jc, normal_form=nf)


def wall_cost_density(trace_plus, trace_minus, normal=None) -> float:
    """(1/6) |u+ - u-|^3 for a pair of unit traces.

    When a normal is supplied, the traces must share their normal component
    to within 1e-8 (the admissibility condition for jump sets).
    """
    up = np.asarray(trace_plus, dtype=float)
    um = np.asarray(trace_minus, dtype=float)
    for name, v in (("trace_plus", up), ("trace_minus", um)):
        if abs(np.linalg.norm(v) - 1.0) > TRACE_UNIT_TOL:
            raise ValueError(f"{name} is not a unit vector")
    if normal is not None:
        nu = np.asarray(normal, dtype=float)
        mismatch = abs(float(np.dot(up - um, nu)))
        if mismatch > TRACE_NORMAL_TOL:
            raise ValueError(
                f"normal components of the traces differ by {mismatch:.3e}"
            )
    return float(np.linalg.norm(up - um) ** 3) / 6.0


# --- wall line integrals ----------------------------------------------------

def wall_nodes(seg: JumpSegment, order: int):
    """Gauss-Legendre nodes along the polyline, segment by segment.

    Returns (arcs, weights, lam): the nodes' arclengths and weights (the
    weights carry the arclength measure), flat, and the (order,) node
    fractions in (0, 1) shared by every segment.
    """
    gl_x, gl_w = gauss_legendre(order)
    seg_len = seg.segment_lengths
    arc0 = seg.arclengths[:-1]
    lam = 0.5 * (gl_x + 1.0)
    weights = (seg_len[:, None] * (0.5 * gl_w)[None, :]).ravel()
    arcs = (arc0[:, None] + seg_len[:, None] * lam[None, :]).ravel()
    return arcs, weights, lam


def _segment_quadrature(seg: JumpSegment, order: int):
    """(weights, u_plus, u_minus) at the `wall_nodes` of a segment, the
    traces from one seg.trace_fn call."""
    arcs, weights, _ = wall_nodes(seg, order)
    up, um = (np.asarray(u, dtype=float) for u in seg.trace_fn(arcs))
    return weights, up, um


def wall_energy(seg: JumpSegment, order: int = 8) -> float:
    """Line integral of (1/6)|u+ - u-|^3 over one jump segment."""
    weights, up, um = _segment_quadrature(seg, order)
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


def family_area(family: CharacteristicFamily, *, s_panels: int = 64,
                order: int = 8) -> float:
    """integral of |J| -- the area covered by the family (foliation check)."""
    s_w, absI, _ = _family_arc_integrals(family, s_panels, order)
    return float(s_w @ absI)


def eval_E0_piecewise(field: PiecewiseCriticalField, params: Params, *,
                      s_panels: int = 64, order: int = 8,
                      wall_order: int = 8) -> EnergyBreakdown:
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
    for seg in field.jumps:
        seg.validate()
        w = wall_energy(seg, order=wall_order) * field.wall_multiplier
        if seg.boundary:
            wall_bdy += w
        else:
            wall_int += w
    return EnergyBreakdown(bulk_div=bulk, wall_interior=wall_int,
                           wall_boundary=wall_bdy)


# --- eps-level energy on grids ----------------------------------------------

@functools.lru_cache(maxsize=8)
def node_weights(grid: Grid2D) -> np.ndarray:
    """The trapezoid node weights of `grid`, built once per grid and
    read-only: `eval_E_eps` and the flow's operators share them."""
    if grid.kind == RECTANGLE:
        W = stencils.rect_node_weights(grid.n1, grid.n2, *grid.spacing)
    else:
        W = stencils.polar_node_weights(grid.axes()[0], *grid.spacing)
    W.flags.writeable = False
    return W


def eval_E_eps(field: Field2D, params: Params) -> EnergyBreakdown:
    """Discrete eps-level energy on the field's grid.

    grad = (eps/2) int |grad u|^2, potential = 1/(2 eps) int (|u|^2-1)^2,
    bulk = (L/2) int (div u)^2; second-order stencils, trapezoid weights,
    metric-aware on polar grids.
    """
    g = field.grid
    u = field.values
    if g.kind == RECTANGLE:
        hx, hy = g.spacing
        qk = stencils.rect_grad_form(u, hx, hy)
        qd = stencils.rect_div_form(u, hx, hy)
    else:
        rs, ts = g.axes()
        if rs[0] <= 0.0:
            raise ValueError("polar energy evaluation needs r_in > 0")
        dr, dt = g.spacing
        qk = stencils.polar_grad_form(u, rs, dr, dt)
        qd = stencils.polar_div_form(u, rs, ts, dr, dt)
    mod2 = u[..., 0] ** 2 + u[..., 1] ** 2
    pot = float(np.sum(node_weights(g) * (mod2 - 1.0) ** 2))
    return EnergyBreakdown(
        grad_term=0.5 * params.eps * qk,
        potential_term=pot / (2.0 * params.eps),
        bulk_div=0.5 * params.L * qd,
    )


# --- one-dimensional energies ------------------------------------------------

@dataclass
class GridProfile1D:
    """y-sampled competitor (u1, u2) on [-H, H]."""

    ys: np.ndarray
    values: np.ndarray  # (n, 2)

    def __post_init__(self):
        self.ys = np.asarray(self.ys, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.ys.shape[0], 2):
            raise ValueError("values must be (n, 2)")


BC_TOL_1D = 1e-12


def eval_E_eps_1d(profile: GridProfile1D, params: Params) -> EnergyBreakdown:
    """Trapezoid-rule eps-level energy of a sampled 1D profile.

    The profile must satisfy the Dirichlet data (+-sqrt(1-a^2), a) at +-H
    to within 1e-12.
    """
    ys, u = profile.ys, profile.values
    a = params.a
    s = math.sqrt(1.0 - a * a)
    bc_err = max(
        abs(u[0, 0] + s), abs(u[0, 1] - a),
        abs(u[-1, 0] - s), abs(u[-1, 1] - a),
        abs(ys[0] + params.H), abs(ys[-1] - params.H),
    )
    if bc_err > BC_TOL_1D:
        raise ValueError(f"boundary data violated by {bc_err:.3e}")
    dy = np.diff(ys)
    du = np.diff(u, axis=0)
    # midpoint rule on derivative terms (second order, like the 2D forms)
    grad = float(np.sum((du[:, 0] ** 2 + du[:, 1] ** 2) / dy))
    div = float(np.sum(du[:, 1] ** 2 / dy))
    mod2 = u[:, 0] ** 2 + u[:, 1] ** 2
    wtrap = np.zeros_like(ys)
    wtrap[:-1] += 0.5 * dy
    wtrap[1:] += 0.5 * dy
    pot = float(np.sum(wtrap * (mod2 - 1.0) ** 2))
    return EnergyBreakdown(
        grad_term=0.5 * params.eps * grad,
        potential_term=pot / (2.0 * params.eps),
        bulk_div=0.5 * params.L * div,
    )


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
