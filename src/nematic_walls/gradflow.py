"""L2 gradient flow of the eps-level energy.

The right-hand side is the exact negative gradient of the discrete energy
in `energy.eval_E_eps` (mass-lumped trapezoid inner product), so the
finite-difference directional-derivative identity holds to roundoff at any
resolution.  Time stepping is linearly implicit: the stiff linear terms
(vector Laplacian and divergence penalty) are treated implicitly, the
pointwise reaction term explicitly, with the step halved whenever the
energy fails to decrease.

The implicit system (W + dt(eps K + L D)) u = rhs is symmetric positive
definite, constant while dt is unchanged, and shift-invariant along the
periodic axis (x on the rectangle; theta on polar grids once the node
values are written as (u_r, u_theta)).  It is solved directly: an rfft
along that axis, then one Hermitian block-tridiagonal system per Fourier
mode across it, all modes held in a single banded Cholesky factor built
once per dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from . import stencils
from .core import POLAR, RECTANGLE, EnergyBreakdown, Field2D, Grid2D, Params
from .energy import eval_E_eps

BC_CHECK_TOL = 1e-10


@dataclass
class BCSpec:
    """Dirichlet rows plus periodicity of the underlying grid.

    rectangle: top/bottom rows fixed (callables of x); x must be periodic.
    polar: outer radial row fixed (callable of theta); the inner row is
    free (natural condition) unless a callable is given.
    """

    kind: str
    bottom: Optional[Callable] = None
    top: Optional[Callable] = None
    outer: Optional[Callable] = None
    inner: Optional[Callable] = None

    def dirichlet_mask(self, grid: Grid2D) -> np.ndarray:
        m = np.zeros(grid.shape, dtype=bool)
        if self.kind == RECTANGLE:
            if self.bottom is not None:
                m[:, 0] = True
            if self.top is not None:
                m[:, -1] = True
        else:
            if self.inner is not None:
                m[0, :] = True
            if self.outer is not None:
                m[-1, :] = True
        return m

    def boundary_values(self, grid: Grid2D) -> np.ndarray:
        """Field-shaped array with the Dirichlet data (zero elsewhere)."""
        out = np.zeros((*grid.shape, 2))
        a1, a2 = grid.axes()
        if self.kind == RECTANGLE:
            if self.bottom is not None:
                vals = np.asarray(self.bottom(a1), dtype=float)
                out[:, 0, :] = vals if vals.ndim == 2 else np.broadcast_to(vals, (grid.n1, 2))
            if self.top is not None:
                vals = np.asarray(self.top(a1), dtype=float)
                out[:, -1, :] = vals if vals.ndim == 2 else np.broadcast_to(vals, (grid.n1, 2))
        else:
            if self.inner is not None:
                vals = np.asarray(self.inner(a2), dtype=float)
                out[0, :, :] = vals if vals.ndim == 2 else np.broadcast_to(vals, (grid.n2, 2))
            if self.outer is not None:
                vals = np.asarray(self.outer(a2), dtype=float)
                out[-1, :, :] = vals if vals.ndim == 2 else np.broadcast_to(vals, (grid.n2, 2))
        return out

    def impose(self, field: Field2D) -> None:
        mask = self.dirichlet_mask(field.grid)
        field.values[mask] = self.boundary_values(field.grid)[mask]

    def check(self, field: Field2D) -> None:
        mask = self.dirichlet_mask(field.grid)
        err = np.abs(field.values[mask]
                     - self.boundary_values(field.grid)[mask])
        if err.size and err.max() > BC_CHECK_TOL:
            raise ValueError(f"Dirichlet rows violated by {err.max():.3e}")


def rect_bc(a: float) -> BCSpec:
    """u(x, -H) = (-sqrt(1-a^2), a), u(x, +H) = (+sqrt(1-a^2), a)."""
    s = math.sqrt(1.0 - a * a)

    def bottom(xs):
        return np.broadcast_to([-s, a], (len(np.atleast_1d(xs)), 2))

    def top(xs):
        return np.broadcast_to([s, a], (len(np.atleast_1d(xs)), 2))

    return BCSpec(kind=RECTANGLE, bottom=bottom, top=top)


def disc_bc(kind: str, R: float) -> BCSpec:
    """Outer data on the disc of radius R: tangential, hedgehog, or the
    degree -1 data (x/R, -y/R); inner cutoff row is free."""
    if kind == "tangential":
        f = lambda th: np.stack([-np.sin(th), np.cos(th)], axis=-1)
    elif kind == "hedgehog":
        f = lambda th: np.stack([np.cos(th), np.sin(th)], axis=-1)
    elif kind == "degminusone":
        f = lambda th: np.stack([np.cos(th), -np.sin(th)], axis=-1)
    else:
        raise ValueError(f"unknown disc data {kind!r}")
    return BCSpec(kind=POLAR, outer=f)


def annulus_bc() -> BCSpec:
    """Mismatch data: -e_theta at r = 1, +e_theta at r = R."""
    et = lambda th: np.stack([-np.sin(th), np.cos(th)], axis=-1)
    return BCSpec(kind=POLAR, inner=lambda th: -et(th), outer=et)


# --- operators ----------------------------------------------------------------

class _Operators:
    """Grid-bound stencil closures for the flow."""

    def __init__(self, grid: Grid2D, bc: BCSpec):
        self.grid = grid
        self.bc = bc
        self.mask = bc.dirichlet_mask(grid)
        if grid.kind == RECTANGLE:
            if not grid.periodic_x:
                raise ValueError("the flow's rectangle solver requires periodic x")
            hx, hy = grid.spacing
            self.W = stencils.rect_node_weights(grid.n1, grid.n2, hx, hy, True)
            self.K = lambda u: stencils.rect_grad_op(u, hx, hy, True)
            self.D = lambda u: stencils.rect_div_op(u, hx, hy, True)
        else:
            rs, ts = grid.axes()
            if rs[0] <= 0:
                raise ValueError("polar flow needs r_in > 0")
            dr, dt = grid.spacing
            self.cos_t, self.sin_t = np.cos(ts)[None, :], np.sin(ts)[None, :]
            self.W = stencils.polar_node_weights(rs, dr, dt)
            self.K = lambda u: stencils.polar_grad_op(u, rs, dr, dt)
            self.D = lambda u: stencils.polar_div_op(u, rs, ts, dr, dt)

    def reaction(self, u: np.ndarray, eps: float) -> np.ndarray:
        mod2 = u[..., 0] ** 2 + u[..., 1] ** 2
        return (2.0 / eps) * (mod2 - 1.0)[..., None] * u

    def to_modal(self, u: np.ndarray) -> np.ndarray:
        """Node values in the frame where K and D commute with shifts along
        the periodic axis, that axis first: Cartesian components on the
        rectangle, (u_r, u_theta) indexed (theta, r) on polar grids."""
        if self.grid.kind == RECTANGLE:
            return u
        c, s = self.cos_t, self.sin_t
        v = np.stack([c * u[..., 0] + s * u[..., 1],
                      c * u[..., 1] - s * u[..., 0]], axis=-1)
        return v.swapaxes(0, 1)

    def from_modal(self, v: np.ndarray) -> np.ndarray:
        """Inverse of `to_modal`."""
        if self.grid.kind == RECTANGLE:
            return v
        v = v.swapaxes(0, 1)
        c, s = self.cos_t, self.sin_t
        return np.stack([c * v[..., 0] - s * v[..., 1],
                         s * v[..., 0] + c * v[..., 1]], axis=-1)


def rhs(field: Field2D, params: Params, bc: BCSpec,
        ops: Optional[_Operators] = None) -> Field2D:
    """Negative discrete L2 gradient of the eps-level energy (zero on
    Dirichlet rows)."""
    if ops is None:
        ops = _Operators(field.grid, bc)
    u = field.values
    r = -(params.eps * ops.K(u) + params.L * ops.D(u)) / ops.W[..., None] \
        - ops.reaction(u, params.eps)
    r[ops.mask] = 0.0
    return Field2D(field.grid, r)


# --- implicit solver: FFT along the periodic axis, banded Cholesky across ---

class _ModalSolver:
    """Exact inverse of a shift-invariant SPD operator on the free rows.

    `apply_A` must be symmetric positive definite on the free rows, couple
    only neighbouring rows across the periodic axis, and commute with shifts
    along it in the modal frame of `ops`.  An rfft along the periodic axis
    then leaves one Hermitian positive-definite block-tridiagonal system
    (2x2 blocks, one per free row) per Fourier mode, as in the fast Poisson
    solvers of Hockney (1965) and Buzbee, Golub & Nielson (1970).

    The blocks are read off `apply_A` itself, so the operator keeps one
    definition: an impulse at periodic index 0 on every third free row
    answers, after an rfft, with one block column per probed row (its
    neighbours are never probed together).  All modes are stacked into one
    banded matrix with three superdiagonals and Cholesky-factored once.
    """

    BAND = 3  # 2x2 blocks on the tri-diagonal: |p - q| <= 3

    def __init__(self, ops: _Operators, apply_A: Callable):
        self.ops = ops
        if ops.grid.kind == RECTANGLE:
            line_mask, (n_per, n_line) = ops.mask[0, :], ops.grid.shape
        else:
            line_mask, (n_line, n_per) = ops.mask[:, 0], ops.grid.shape
        self.free = np.flatnonzero(~line_mask)
        self.modal_shape = (n_per, n_line, 2)
        nf = len(self.free)
        rows = np.arange(nf)
        ab = np.zeros((self.BAND + 1, n_per // 2 + 1, 2 * nf), dtype=complex)
        for colour in range(3):
            # the probed row within one step of each response row
            src = rows + (colour - rows + 1) % 3 - 1
            valid = (src >= 0) & (src < nf)
            for c in range(2):
                e = np.zeros(self.modal_shape)
                e[0, self.free[colour::3], c] = 1.0
                resp = ops.to_modal(apply_A(ops.from_modal(e)))[:, self.free]
                spec = np.fft.rfft(resp, axis=0)
                for c2 in range(2):
                    p, q = 2 * rows + c2, 2 * src + c
                    keep = valid & (p <= q)  # upper triangle, row p column q
                    ab[self.BAND + p[keep] - q[keep], :, q[keep]] = \
                        spec[:, rows[keep], c2].T
        self.cb = cholesky_banded(ab.reshape(self.BAND + 1, -1),
                                  check_finite=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b on the free rows (b zero on Dirichlet rows; so is the
        result)."""
        spec = np.fft.rfft(self.ops.to_modal(b)[:, self.free], axis=0)
        x = cho_solve_banded((self.cb, False), spec.reshape(-1),
                             check_finite=False)
        w = np.zeros(self.modal_shape)
        w[:, self.free] = np.fft.irfft(x.reshape(spec.shape),
                                       n=self.modal_shape[0], axis=0)
        return self.ops.from_modal(w)


# --- the flow -------------------------------------------------------------------

@dataclass
class FlowState:
    field: Field2D
    bc: BCSpec
    time: float = 0.0
    dt: float = 0.0
    energy_trace: List[Tuple[float, EnergyBreakdown]] = dc_field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""


class FlowSolver:
    """Holds the operators and, per dt, the implicit factorization.

    Every trial step solves (W + dt(eps K + L D)) u = W u_expl exactly with
    a `_ModalSolver`.  The factorization and the Dirichlet shift
    A uD = W uD + dt(eps K uD + L D uD) are built once per dt and kept for
    the three most recent dts.
    """

    def __init__(self, grid: Grid2D, params: Params, bc: BCSpec,
                 dt: Optional[float] = None):
        self.params = params
        self.bc = bc
        self.ops = _Operators(grid, bc)
        self.dt = dt if dt is not None else params.eps / 4.0
        self._factor_cache = {}
        self.uD = bc.boundary_values(grid)
        self.mask = self.ops.mask

    def _factor(self, dt: float) -> Tuple[_ModalSolver, np.ndarray]:
        if dt not in self._factor_cache:
            uD = self.uD
            aD = self.ops.W[..., None] * uD \
                + dt * (self.params.eps * self.ops.K(uD)
                        + self.params.L * self.ops.D(uD))
            solver = _ModalSolver(self.ops, lambda w: self._apply_A(w, dt))
            self._factor_cache[dt] = (solver, aD)
            if len(self._factor_cache) > 3:
                self._factor_cache.pop(next(iter(self._factor_cache)))
        return self._factor_cache[dt]

    def _apply_A(self, w: np.ndarray, dt: float) -> np.ndarray:
        z = self.ops.W[..., None] * w \
            + dt * (self.params.eps * self.ops.K(w) + self.params.L * self.ops.D(w))
        z[self.mask] = 0.0
        return z

    def implicit_solve(self, u_expl: np.ndarray, dt: float) -> Tuple[np.ndarray, int]:
        """Solve (W + dt(eps K + L D)) u = W u_expl with Dirichlet rows.

        Returns u and the number of linear solves, always 1."""
        solver, aD = self._factor(dt)
        b = self.ops.W[..., None] * u_expl - aD
        b[self.mask] = 0.0
        return solver.solve(b) + self.uD, 1

    def step(self, state: FlowState, max_halvings: int = 40) -> FlowState:
        """One accepted IMEX step.  dt is halved while the trial state is
        non-finite or its energy does not decrease."""
        u = state.field.values
        if not state.energy_trace:
            e0 = eval_E_eps(state.field, self.params)
            state.energy_trace.append((state.time, e0))
        E_old = state.energy_trace[-1][1].total
        dt = state.dt or self.dt
        for _ in range(max_halvings):
            u_expl = u - dt * self.ops.reaction(u, self.params.eps)
            u_new, _ = self.implicit_solve(u_expl, dt)
            if np.isfinite(u_new).all():
                new_field = Field2D(state.field.grid, u_new)
                eb = eval_E_eps(new_field, self.params)
                if eb.total <= E_old + 1e-12 * max(1.0, abs(E_old)):
                    state.field = new_field
                    state.time += dt
                    state.dt = dt
                    state.energy_trace.append((state.time, eb))
                    return state
            dt *= 0.5
            if dt < 1e-12 * self.params.eps:
                raise RuntimeError("dt underflow: the configuration diverges")
        raise RuntimeError("energy would not decrease after halvings")

    def run_to_equilibrium(self, init: Field2D, tol: float = 1e-4,
                           max_time: float = 50.0,
                           max_steps: int = 200000,
                           callback=None) -> FlowState:
        """Advance until ||rhs||_inf < tol or the energy decrease per unit
        time drops below tol^2; flagged unconverged at max_time."""
        fld = init.copy()
        self.bc.impose(fld)
        state = FlowState(field=fld, bc=self.bc, dt=self.dt)
        state.energy_trace.append((0.0, eval_E_eps(fld, self.params)))
        for k in range(max_steps):
            E_prev = state.energy_trace[-1][1].total
            self.step(state)
            E_new = state.energy_trace[-1][1].total
            if callback is not None:
                callback(state)
            rate = (E_prev - E_new) / state.dt
            if rate < tol * tol:
                r = rhs(state.field, self.params, self.bc, self.ops)
                if np.abs(r.values).max() < tol:
                    state.converged = True
                    state.stop_reason = "gradient below tolerance"
                    return state
                if rate < 1e-4 * tol * tol:
                    state.converged = True
                    state.stop_reason = "energy stationary"
                    return state
            if state.time >= max_time:
                state.stop_reason = "max_time reached"
                return state
        state.stop_reason = "max_steps reached"
        return state


def random_unit_field(grid: Grid2D, bc: BCSpec, seed: int = 0) -> Field2D:
    """Unit vectors with i.i.d. uniform angles; Dirichlet rows overwritten."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape)
    f = Field2D(grid, np.stack([np.cos(phi), np.sin(phi)], axis=-1))
    bc.impose(f)
    return f


def divergence_field(field: Field2D) -> np.ndarray:
    """Nodal divergence by central differences (one-sided at edges),
    metric-aware on polar grids."""
    g = field.grid
    u = field.values
    if g.kind == RECTANGLE:
        hx, hy = g.spacing
        if g.periodic_x:
            du1dx = (np.roll(u[..., 0], -1, axis=0)
                     - np.roll(u[..., 0], 1, axis=0)) / (2 * hx)
        else:
            du1dx = np.gradient(u[..., 0], hx, axis=0)
        du2dy = np.gradient(u[..., 1], hy, axis=1)
        return du1dx + du2dy
    rs, ts = g.axes()
    dr, dt = g.spacing
    dr1 = np.gradient(u[..., 0], dr, axis=0)
    dr2 = np.gradient(u[..., 1], dr, axis=0)
    dt1 = (np.roll(u[..., 0], -1, axis=1) - np.roll(u[..., 0], 1, axis=1)) / (2 * dt)
    dt2 = (np.roll(u[..., 1], -1, axis=1) - np.roll(u[..., 1], 1, axis=1)) / (2 * dt)
    cos_t = np.cos(ts)[None, :]
    sin_t = np.sin(ts)[None, :]
    r = rs[:, None]
    return cos_t * dr1 + sin_t * dr2 + (-sin_t * dt1 + cos_t * dt2) / r


def angle_field(field: Field2D) -> np.ndarray:
    return np.arctan2(field.values[..., 1], field.values[..., 0])

