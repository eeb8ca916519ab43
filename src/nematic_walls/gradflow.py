"""L2 gradient flow of the eps-level energy.

The right-hand side is the exact negative gradient of the discrete energy
in `energy.eval_E_eps` (mass-lumped trapezoid inner product; both take
the grid's `energy.grid_stencils`), so the finite-difference
directional-derivative identity holds to roundoff at any resolution.
Time stepping is linearly implicit: the stiff linear terms
(vector Laplacian and divergence penalty) are treated implicitly, the
pointwise reaction term explicitly, with the step halved whenever the
energy fails to decrease.

The implicit system (W + dt(eps K + L D)) u = rhs is symmetric positive
definite, constant while dt is unchanged, and shift-invariant along the
periodic axis (x on the rectangle; theta on polar grids once the node
values are written as (u_r, u_theta)).  It is solved directly, with numpy
alone: an rfft along that axis, then one block-tridiagonal system per
Fourier mode across it, real symmetric after S = diag(1, i) because the
operator is symmetric under reflection of that axis, all modes solved at
once by block cyclic reduction factored in float64 once per dt.

Dirichlet data only ever sit on the two end lines across the periodic
axis (y_lo and y_hi on the rectangle; r_in and r_out on polar grids),
so a `BCSpec` is just those two lines' data, `first` and `last`, and the
flow holds them as `BCSpec.lines` and the free slice between them,
`BCSpec.free`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import RECTANGLE, EnergyBreakdown, Field2D, Grid2D, Params
from .energy import eval_E_eps, grid_stencils

# a step gives up after this many halvings of dt
MAX_HALVINGS = 40
# run_to_equilibrium stops unconverged after this many steps
MAX_STEPS = 200000


@dataclass
class BCSpec:
    """Dirichlet data on the two end lines across the periodic axis.

    first is the line y = y_lo on the rectangle and r = r_in on polar
    grids; last is y = y_hi or r = r_out.  Each is a callable of the
    periodic coordinate (x, or theta) returning one unit vector per node,
    or None for a free line (natural condition).
    """

    first: Optional[Callable] = None
    last: Optional[Callable] = None

    def lines(self, grid: Grid2D) -> List[Tuple[int, np.ndarray]]:
        """(k, data) per Dirichlet line in the periodic-first layout: k = 0
        for first, -1 for last, data (n_per, 2).  + 0.0 writes a -0.0
        datum as 0, as the flow's solve writes it."""
        periodic = grid.axes()[0 if grid.kind == RECTANGLE else 1]
        return [(k, f(periodic) + 0.0)
                for k, f in ((0, self.first), (-1, self.last))
                if f is not None]

    def free(self, grid: Grid2D) -> slice:
        """The free lines across the periodic axis."""
        n_line = grid.shape[1 if grid.kind == RECTANGLE else 0]
        return slice(int(self.first is not None),
                     n_line - int(self.last is not None))

    def impose(self, field: Field2D) -> None:
        rows = field.grid.periodic_first(field.values)
        for k, data in self.lines(field.grid):
            rows[:, k] = data


def rect_bc(a: float) -> BCSpec:
    """u(x, -H) = (-sqrt(1-a^2), a), u(x, +H) = (+sqrt(1-a^2), a)."""
    s = math.sqrt(1.0 - a * a)

    def bottom(xs):
        return np.broadcast_to([-s, a], (len(np.atleast_1d(xs)), 2))

    def top(xs):
        return np.broadcast_to([s, a], (len(np.atleast_1d(xs)), 2))

    return BCSpec(first=bottom, last=top)


def disc_bc(kind: str) -> BCSpec:
    """Outer data on the disc: tangential, hedgehog, or the degree -1 data
    (x/R, -y/R), as functions of the polar angle; inner cutoff row is
    free."""
    if kind == "tangential":
        f = lambda th: np.stack([-np.sin(th), np.cos(th)], axis=-1)
    elif kind == "hedgehog":
        f = lambda th: np.stack([np.cos(th), np.sin(th)], axis=-1)
    elif kind == "degminusone":
        f = lambda th: np.stack([np.cos(th), -np.sin(th)], axis=-1)
    else:
        raise ValueError("bc must be tangential|hedgehog|degminusone")
    return BCSpec(last=f)


def annulus_bc() -> BCSpec:
    """Mismatch data: -e_theta at r = 1, +e_theta at r = R."""
    et = lambda th: np.stack([-np.sin(th), np.cos(th)], axis=-1)
    return BCSpec(first=lambda th: -et(th), last=et)


def _reaction(u: np.ndarray, eps: float) -> np.ndarray:
    """The pointwise part of the energy's L2 gradient."""
    mod2 = u[..., 0] ** 2 + u[..., 1] ** 2
    return (2.0 / eps) * (mod2 - 1.0)[..., None] * u


# --- implicit solver: FFT along the periodic axis, cyclic reduction across ---

def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of stacks of 2x2 blocks laid out (2, 2, ...)."""
    return a[:, :1] * b[0] + a[:, 1:] * b[1]


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked 2x2 blocks (2, 2, ...) times stacked 2-vectors (2, ...)."""
    return a[:, 0] * x[0] + a[:, 1] * x[1]


def _inv(d: np.ndarray) -> np.ndarray:
    """Inverse of each 2x2 block."""
    det = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
    return np.array([[d[1, 1], -d[0, 1]], [-d[1, 0], d[0, 0]]]) / det


class _ModalFrame:
    """Node values in the frame where K and D commute with shifts along
    the periodic axis, that axis first: Cartesian components on the
    rectangle, (u_r, u_theta) indexed (theta, r) on polar grids."""

    def __init__(self, grid: Grid2D):
        self.shape = grid.shape[::1 if grid.kind == RECTANGLE else -1]
        self.rotation = None
        if grid.kind != RECTANGLE:
            ts = grid.axes()[1]
            self.rotation = np.cos(ts)[None, :], np.sin(ts)[None, :]

    def to_modal(self, u: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            return u
        c, s = self.rotation
        v = np.stack([c * u[..., 0] + s * u[..., 1],
                      c * u[..., 1] - s * u[..., 0]], axis=-1)
        return v.swapaxes(0, 1)

    def from_modal(self, v: np.ndarray) -> np.ndarray:
        """Inverse of `to_modal`."""
        if self.rotation is None:
            return v
        v = v.swapaxes(0, 1)
        c, s = self.rotation
        return np.stack([c * v[..., 0] - s * v[..., 1],
                         s * v[..., 0] + c * v[..., 1]], axis=-1)


def _probe_blocks(frame: _ModalFrame, apply_A: Callable, free: slice):
    """Per-mode 2x2 blocks of `apply_A` on the free rows, in the modal
    frame, read off the operator itself, real symmetric after
    S = diag(1, i).

    A probe is an impulse in one component on every third free row (one
    colour) at one periodic index p: it answers on the periodic columns
    p - 1, p, p + 1 only, and on each probed row and its two neighbours
    across, which no other row of its colour shares.  The six probes (3
    colours x 2 components) sit at p = 0, 3, 6, ..., so one `apply_A`
    call answers n_per // 3 of them without overlap.  With r0, r+ and r-
    the responses in the columns p, p + 1 and p - 1, mode k is A_k = r0 +
    r+ e^(-i phi) + r- e^(i phi), phi = 2 pi k / n_per.  The operator is
    symmetric under reflection of the periodic axis with the second
    component negated, so S^H A_k S is real: r0 + (r+ + r-) cos phi within
    a component, +-(r+ - r-) sin phi across (+ in the first component's
    row).  A dropped remainder (r+ - r- within a component, r0 and r+ + r-
    across) above 1e-12 times the block scale raises ValueError.

    Returns the diagonal blocks D[:, :, r, k] = S^H A_k(r, r) S and the
    super-diagonal blocks U[:, :, r, k] = S^H A_k(r, r + 1) S, float64 and
    laid out (2, 2, rows, modes); the block below the diagonal is U's
    transpose.
    """
    n_per, n_line = frame.shape
    nf = free.stop - free.start
    phi = 2.0 * np.pi / n_per * np.arange(n_per // 2 + 1)
    cos, sin = np.cos(phi), np.sin(phi)
    D = np.empty((2, 2, nf, len(phi)))
    U = np.empty((2, 2, nf - 1, len(phi)))
    rest = 0.0
    probes = [(colour, c) for colour in range(3) for c in range(2)]
    per_call = n_per // 3
    for k0 in range(0, len(probes), per_call):
        batch = probes[k0:k0 + per_call]
        e = np.zeros((n_per, n_line, 2))
        for j, (colour, c) in enumerate(batch):
            e[3 * j, free][colour::3, c] = 1.0
        resp = frame.to_modal(apply_A(frame.from_modal(e)))[:, free]
        for j, (colour, c) in enumerate(batch):
            r0, rp, rm = resp[3 * j], resp[3 * j + 1], resp[3 * j - 1]
            o = 1 - c
            rest = max(rest, *(np.abs(r).max() for r in (
                rp[:, c] - rm[:, c], r0[:, o], rp[:, o] + rm[:, o])))
            above = (colour - 1) % 3  # rows whose next row was probed
            for out, rows in ((D[:, c, colour::3], slice(colour, None, 3)),
                              (U[:, c, above::3], slice(above, nf - 1, 3))):
                out[c] = r0[rows, c, None] + (rp + rm)[rows, c, None] * cos
                out[o] = (2 * c - 1) * (rp - rm)[rows, o, None] * sin
    if rest > 1e-12 * np.abs(D).max():
        raise ValueError(f"operator not reflection symmetric: remainder "
                         f"{rest:.3e}, block scale {np.abs(D).max():.3e}")
    return D, U


class _BlockCyclicReduction:
    """Direct solver for many real symmetric positive-definite
    block-tridiagonal systems at once, 2x2 blocks, by block cyclic
    reduction.

    D (2, 2, ..., rows, systems) holds the diagonal blocks and U (2, 2,
    ..., rows - 1, systems) the super-diagonal ones; the sub-diagonal
    blocks are U's transposes.  Each level eliminates the even rows, which
    leaves a symmetric block-tridiagonal system on the odd rows, until one
    row is left.  On a positive-definite matrix this is Gaussian
    elimination without pivoting on the odd-even permuted matrix, so it is
    stable.  Per level the factor keeps E = D_even^-1 and the couplings
    P = E U, Q = E U^T that back substitution needs; their transposes fold
    the even rows into the odd ones.  The 2x2 products are written out as
    broadcast multiply-and-sum, which is several times faster than
    np.matmul on stacks of small blocks.
    """

    def __init__(self, D: np.ndarray, U: np.ndarray):
        self.levels = []
        while True:
            E = _inv(D[..., 0::2, :])
            n_odd = D.shape[-2] // 2
            if n_odd == 0:
                self.levels.append((E,))
                return
            Ue, Uot = U[..., 0::2, :], U[..., 1::2, :].swapaxes(0, 1)
            P = _mm(E[..., :n_odd, :], Ue)     # even row to the odd row after
            Q = _mm(E[..., 1:, :], Uot)        # even row to the odd row before
            gamma = Q.swapaxes(0, 1)           # odd row to the even row after
            D = D[..., 1::2, :] - _mm(P.swapaxes(0, 1), Ue)
            D[..., :Uot.shape[-2], :] -= _mm(gamma, Uot)
            U = -_mm(gamma[..., :n_odd - 1, :], Ue[..., 1:, :])
            self.levels.append((E, P, Q))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution for right-hand sides b laid out (2, ..., rows,
        systems); b is used as scratch.  Each level's odd rows go to a new
        array, so every level works on contiguous rows."""
        stack = []
        for _, P, Q in self.levels[:-1]:
            even = b[..., 0::2, :]
            odd = b[..., 1::2, :] - _mv(P.swapaxes(0, 1),
                                        even[..., :P.shape[-2], :])
            odd[..., :Q.shape[-2], :] -= _mv(Q.swapaxes(0, 1), even[..., 1:, :])
            stack.append(b)
            b = odd
        x = _mv(self.levels[-1][0], b)
        for (E, P, Q), b in zip(self.levels[-2::-1], stack[::-1]):
            even = _mv(E, b[..., 0::2, :])
            even[..., :P.shape[-2], :] -= _mv(P, x)
            even[..., 1:, :] -= _mv(Q, x[..., :Q.shape[-2], :])
            b[..., 0::2, :], b[..., 1::2, :] = even, x
            x = b
        return x


class _ModalSolver:
    """Exact inverse of a shift-invariant SPD operator on the free rows.

    `apply_A` must be symmetric positive definite on the free rows (the
    slice `free`), couple only neighbouring rows across the periodic axis,
    commute with shifts along it in `frame`, and be symmetric under its
    reflection.  An rfft along the periodic axis then leaves one
    block-tridiagonal system (2x2 blocks, one per free row) per Fourier
    mode, as in the fast Poisson solvers of Hockney (1965) and Buzbee,
    Golub & Nielson (1970), real symmetric positive definite after
    S = diag(1, i).  The blocks come from `_probe_blocks`, so the operator
    keeps one definition, and all modes, real and imaginary parts alike,
    are solved at once by `_BlockCyclicReduction`, factored once per
    operator.
    """

    def __init__(self, frame: _ModalFrame, apply_A: Callable, free: slice):
        self.frame, self.free = frame, free
        # blocks (2, 2, 1, rows, modes): one factor serves both parts
        self.reduction = _BlockCyclicReduction(
            *(a[:, :, None] for a in _probe_blocks(frame, apply_A, free)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b on the free rows: b is read there only, and the result
        is zero on the Dirichlet rows."""
        bm = self.frame.to_modal(b)
        spec = np.fft.rfft(bm[:, self.free].transpose(2, 1, 0))
        # S^H spec, real and imaginary parts apart: (2, part, rows, modes)
        re, im = spec.real, spec.imag
        y = np.empty((2, 2, *spec.shape[1:]))
        y[0, 0], y[0, 1], y[1, 0], y[1, 1] = re[0], im[0], im[1], -re[1]
        x = self.reduction.solve(y)
        re[0], im[0], re[1], im[1] = x[0, 0], x[0, 1], -x[1, 1], x[1, 0]
        # free the reduction's scratch before the output is allocated
        del y, x, re, im
        v = np.fft.irfft(spec, n=bm.shape[0])
        del spec
        w = np.zeros_like(bm)
        w[:, self.free] = v.transpose(2, 1, 0)
        return self.frame.from_modal(w)


# --- the flow -------------------------------------------------------------------

@dataclass
class FlowState:
    field: Field2D
    time: float = 0.0
    dt: float = 0.0
    energy_trace: List[Tuple[float, EnergyBreakdown]] = dc_field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    # ||rhs||_inf of the current field, when the stop test computed it
    residual: Optional[float] = None


class FlowSolver:
    """Holds the grid's operators and, per dt, the implicit factorization.

    Every trial step solves (W + dt(eps K + L D)) u = W u_expl exactly with
    a `_ModalSolver`, built once per dt and kept for the current dt only,
    since dt only ever halves within a run.  The Dirichlet data uD are
    kept as their lines only.  On the free rows, where W uD vanishes, the
    Dirichlet shift A uD is dt times the dt-free shift eps K uD + L D uD,
    and since A couples only neighbouring lines that shift is nonzero
    only on the two free lines next to the data, which are all that is
    kept of it.  A trial step builds u_expl in the array the reaction
    term returns, and `implicit_solve` scales that same array by W into
    its right-hand side, so the state's field is never written.
    """

    def __init__(self, grid: Grid2D, params: Params, bc: BCSpec,
                 dt: Optional[float] = None):
        self.grid = grid
        self.params = params
        self.bc = bc
        st = grid_stencils(grid)
        self.W, self.K, self.D = st.W, st.grad_op, st.div_op
        self.dt = dt if dt is not None else params.eps / 4.0
        self._factor_cache = {}
        self._frame = _ModalFrame(grid)
        self.free = bc.free(grid)
        self._data = bc.lines(grid)
        uD = Field2D(grid, np.zeros((*grid.shape, 2)))
        bc.impose(uD)
        shift = grid.periodic_first(self._apply_A(uD.values, 1.0))
        self._shift = [(j, shift[:, j].copy())
                       for j in sorted({self.free.start, self.free.stop - 1})]

    def _zero_data(self, z: np.ndarray) -> np.ndarray:
        """z with its Dirichlet lines set to zero, in place."""
        rows = self.grid.periodic_first(z)
        rows[:, :self.free.start] = 0.0
        rows[:, self.free.stop:] = 0.0
        return z

    def rhs(self, field: Field2D) -> Field2D:
        """Negative discrete L2 gradient of the eps-level energy (zero on
        the Dirichlet lines)."""
        u, p = field.values, self.params
        r = -(p.eps * self.K(u) + p.L * self.D(u)) / self.W[..., None] \
            - _reaction(u, p.eps)
        return Field2D(field.grid, self._zero_data(r))

    def _factor(self, dt: float) -> _ModalSolver:
        if dt not in self._factor_cache:
            self._factor_cache.clear()  # free the old factor before building
            self._factor_cache[dt] = _ModalSolver(
                self._frame, lambda w: self._apply_A(w, dt), self.free)
        return self._factor_cache[dt]

    def _apply_A(self, w: np.ndarray, dt: float) -> np.ndarray:
        p = self.params
        return self._zero_data(
            self.W[..., None] * w + dt * (p.eps * self.K(w) + p.L * self.D(w)))

    def implicit_solve(self, u_expl: np.ndarray, dt: float) -> Tuple[np.ndarray, int]:
        """Solve (W + dt(eps K + L D)) u = W u_expl with Dirichlet rows.

        Returns u and the number of linear solves, always 1.  u_expl is
        used as scratch: it is scaled by W in place to make the right-hand
        side b.  The solve reads b on the free rows only, so its Dirichlet
        rows are left as they are; the data lines are written into the
        solution."""
        b = u_expl
        b *= self.W[..., None]
        rows = self.grid.periodic_first(b)
        for j, s in self._shift:
            rows[:, j] -= dt * s
        u = self._factor(dt).solve(b)
        rows = self.grid.periodic_first(u)
        for k, line in self._data:
            rows[:, k] = line
        return u, 1

    def step(self, state: FlowState) -> FlowState:
        """One accepted IMEX step.  dt is halved, up to MAX_HALVINGS times,
        while the trial state is non-finite or its energy does not
        decrease."""
        u = state.field.values
        if not state.energy_trace:
            e0 = eval_E_eps(state.field, self.params)
            state.energy_trace.append((state.time, e0))
        E_old = state.energy_trace[-1][1].total
        dt = state.dt or self.dt
        for _ in range(MAX_HALVINGS):
            u_expl = _reaction(u, self.params.eps)
            u_expl *= -dt
            u_expl += u
            u_new, _ = self.implicit_solve(u_expl, dt)
            del u_expl  # the solve's scratch, freed before the energy
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
                           max_time: float = 50.0) -> FlowState:
        """Advance until equilibrium; flagged unconverged at max_time or
        after MAX_STEPS steps.

        After each accepted step, rate = (E_prev - E_new) / dt is the energy
        drop divided by the step's dt.  Along the exact flow dE/dt is minus
        the squared W-norm of rhs, so for small dt rate estimates that
        norm; the implicit step damps the stiff parts of rhs, so rate can
        be smaller.  Once rate < tol^2 the gradient itself is checked:

        * "gradient below tolerance": ||rhs||_inf < tol;
        * "energy stationary": otherwise, if rate < 1e-4 tol^2, i.e. the
          energy no longer measurably decreases (in practice its drop is
          at the roundoff of E) although the pointwise gradient is not
          below tol.

        state.residual is that ||rhs||_inf on both exits; it is None
        wherever the last step did not compute it (e.g. at max_time).
        """
        fld = init.copy()
        self.bc.impose(fld)
        state = FlowState(field=fld, dt=self.dt)
        state.energy_trace.append((0.0, eval_E_eps(fld, self.params)))
        for _ in range(MAX_STEPS):
            E_prev = state.energy_trace[-1][1].total
            self.step(state)
            E_new = state.energy_trace[-1][1].total
            rate = (E_prev - E_new) / state.dt
            state.residual = None
            if rate < tol * tol:
                r = self.rhs(state.field)
                state.residual = float(np.abs(r.values).max())
                if state.residual < tol:
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
