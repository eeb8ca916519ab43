import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from nematic_walls import gradflow, stencils
from nematic_walls.core import (Field2D, Params, disc_inner_cutoff, make_grid,
                                sample_analytic)
from nematic_walls.rect1d import solve_Ttilde
from nematic_walls.energy import eval_E_eps, grid_stencils, node_divergence
from nematic_walls.gradflow import (BCSpec, FlowSolver, FlowState,
                                    _BlockCyclicReduction, _probe_blocks,
                                    annulus_bc, disc_bc, random_unit_field,
                                    rect_bc)


def fd_gradient_check(grid, bc, params, seed=0):
    rng = np.random.default_rng(seed)
    f = random_unit_field(grid, bc, seed=seed)
    solver = FlowSolver(grid, params, bc)
    r = solver.rhs(f)
    w = solver._zero_data(rng.normal(size=f.values.shape))
    t = 1e-6
    ep = eval_E_eps(Field2D(grid, f.values + t * w), params).total
    em = eval_E_eps(Field2D(grid, f.values - t * w), params).total
    dE = (ep - em) / (2 * t)
    inner = float(np.sum(solver.W[..., None] * r.values * w))
    return abs(dE + inner) / max(abs(dE), 1e-300)


class TestDiscreteGradient:
    def test_rectangle(self):
        g = make_grid("rectangle", (-0.5, 0.5, -0.5, 0.5), 24, 24)
        err = fd_gradient_check(g, rect_bc(0.0), Params(L=0.5, eps=0.05, H=0.5, T=0.5))
        assert err < 1e-5

    def test_polar(self):
        g = make_grid("polar", (0.01, 0.6), 24, 48)
        err = fd_gradient_check(g, disc_bc("degminusone"),
                                Params(L=0.5, eps=0.05, R=0.6))
        assert err < 1e-5

    def test_annulus(self):
        g = make_grid("polar", (1.0, 2.0), 16, 32)
        err = fd_gradient_check(g, annulus_bc(), Params(L=1.0, eps=0.05, R=2.0))
        assert err < 1e-5

    def test_constant_unit_field_interior_rhs_zero(self):
        g = make_grid("rectangle", (-1, 1, -1, 1), 8, 8)
        bc = BCSpec(first=lambda xs: np.broadcast_to([1.0, 0.0], (len(xs), 2)),
                    last=lambda xs: np.broadcast_to([1.0, 0.0], (len(xs), 2)))
        f = sample_analytic(g, lambda X, Y: (np.ones_like(X), np.zeros_like(Y)))
        r = FlowSolver(g, Params(L=1.0, eps=0.05), bc).rhs(f)
        assert np.abs(r.values).max() == 0.0

    def test_divergence_perturbation_linearization(self):
        # rhs of (1,0) + tau * grad(phi) aligns with L grad div to O(tau)
        g = make_grid("rectangle", (-1, 1, -1, 1), 48, 48)
        bc = BCSpec(first=lambda xs: np.broadcast_to([1.0, 0.0], (len(xs), 2)),
                    last=lambda xs: np.broadcast_to([1.0, 0.0], (len(xs), 2)))
        X, Y = g.nodes_xy()
        tau = 1e-7
        # compactly supported bump perturbation
        bump = np.exp(-8 * (X ** 2 + Y ** 2))
        wx = -16 * X * bump
        wy = -16 * Y * bump
        p = Params(L=0.7, eps=0.05)
        base = np.stack([np.ones_like(X), np.zeros_like(X)], axis=-1)
        pert = base.copy()
        pert[..., 0] += tau * wx
        pert[..., 1] += tau * wy
        solver = FlowSolver(g, p, bc)
        r0 = solver.rhs(Field2D(g, base)).values
        r1 = solver.rhs(Field2D(g, pert)).values
        dr = (r1 - r0) / tau
        # the L grad(div) part dominates; the eps-Laplacian and the
        # reaction linearization -(4/eps)(u.w)u complete the derivative
        w = np.stack([wx, wy], axis=-1)
        lin = -(p.L * solver.D(w) + p.eps * solver.K(w)) / solver.W[..., None]
        lin[..., 0] += -(4.0 / p.eps) * w[..., 0]
        solver._zero_data(lin)
        div_part = np.abs(p.L * solver.D(w) / solver.W[..., None]).max()
        assert div_part > 0.2 * np.abs(lin).max()
        assert np.abs(dr - lin).max() / np.abs(lin).max() < 1e-5


def _unit(X, Y, ux, uy):
    """Nodal field (ux, uy) / |(X, Y)|."""
    return np.stack([ux, uy], axis=-1) / np.hypot(X, Y)[..., None]


# grid, data, the node lines the data must fix (as node-array indices),
# and the data's formula in the node coordinates
BC_CASES = {
    # (-+sqrt(1 - a^2), a) at y = -+H, a = 0.3
    "rect": (make_grid("rectangle", (0.0, 1.0, -0.5, 0.5), 8, 6),
             rect_bc(0.3), (slice(None), [0, -1]),
             lambda X, Y: np.where((Y < 0)[..., None],
                                   [-math.sqrt(1 - 0.09), 0.3],
                                   [math.sqrt(1 - 0.09), 0.3])),
    # the disc data at r_out = 0.6
    **{f"disc-{kind}": (make_grid("polar", (disc_inner_cutoff(0.6), 0.6),
                                  6, 12),
                        disc_bc(kind), (-1, slice(None)), want)
       for kind, want in [
           ("tangential", lambda X, Y: _unit(X, Y, -Y, X)),
           ("hedgehog", lambda X, Y: _unit(X, Y, X, Y)),
           ("degminusone", lambda X, Y: _unit(X, Y, X, -Y))]},
    # -e_theta at r = 1, +e_theta at r = R
    "annulus": (make_grid("polar", (1.0, 2.0), 6, 12), annulus_bc(),
                ([0, -1], slice(None)),
                lambda X, Y: np.sign(np.hypot(X, Y) - 1.5)[..., None]
                * _unit(X, Y, -Y, X)),
}


def dirichlet_field(g, bc):
    """The Dirichlet data uD on an otherwise zero field."""
    f = Field2D(g, np.zeros((*g.shape, 2)))
    bc.impose(f)
    return f.values


def data_lines(solver, a):
    """a on the solver's Dirichlet lines, periodic axis first."""
    rows = solver.grid.periodic_first(a)
    return np.concatenate([rows[:, :solver.free.start],
                           rows[:, solver.free.stop:]], axis=1)


@pytest.mark.parametrize("case", list(BC_CASES))
def test_boundary_data_lands_on_its_lines(case):
    """Each spec fixes exactly its end lines across the periodic axis (y = -H
    and y = H; r_out on the disc, whose r_in line is free; r_in and r_out on
    the annulus) with the data's formula there, and nothing elsewhere."""
    g, bc, lines, want = BC_CASES[case]
    expected = np.zeros(g.shape, dtype=bool)
    expected[lines] = True
    free = np.ones(g.shape, dtype=bool)
    g.periodic_first(free)[:, bc.free(g)] = False
    assert np.array_equal(free, expected)
    vals = dirichlet_field(g, bc)
    assert not vals[~expected].any()
    X, Y = g.nodes_xy()
    assert np.abs(vals[expected] - want(X, Y)[expected]).max() <= 1e-15


def test_impose_writes_a_negative_zero_datum_as_the_solve_does():
    """The tangential datum -sin(theta) is -0.0 at theta = 0; `impose`
    writes +0.0 there, the bytes the flow's solve writes on that line."""
    g, bc = BC_CASES["disc-tangential"][:2]
    assert np.signbit(bc.last(g.axes()[1])[0, 0])
    f = random_unit_field(g, bc)
    assert f.values[-1, 0, 0] == 0.0 and not np.signbit(f.values[-1, 0, 0])
    solver = FlowSolver(g, Params(L=0.5, eps=0.05, R=0.6), bc)
    u, _ = solver.implicit_solve(f.values.copy(), solver.dt)
    assert u[-1].tobytes() == f.values[-1].tobytes()


def flow_case(kind, n_per, n_line):
    """Grid and Dirichlet data with n_per nodes along the periodic axis and
    n_line cells across it."""
    if kind == "rect":
        g = make_grid("rectangle", (-0.5, 0.5, -0.5, 0.5), n_per, n_line)
        return g, rect_bc(0.2)
    if kind == "disc":
        g = make_grid("polar", (disc_inner_cutoff(0.6), 0.6), n_line, n_per)
        return g, disc_bc("degminusone")
    return make_grid("polar", (1.0, 2.0), n_line, n_per), annulus_bc()


def rect_solver(n_per=12, n_line=10):
    g, bc = flow_case("rect", n_per, n_line)
    return FlowSolver(g, Params(L=0.5, eps=0.05), bc)


@pytest.mark.parametrize("case", ["rect", "disc"])
def test_energy_and_flow_share_the_node_weights(case, monkeypatch):
    """The flow and `eval_E_eps` read one read-only weight array per grid:
    once the flow's solver exists, the energy builds none."""
    g, bc = flow_case(case, 16, 12)
    solver = FlowSolver(g, Params(L=0.5, eps=0.05, R=0.6), bc)
    assert solver.W is grid_stencils(g).W and not solver.W.flags.writeable
    W = solver.W.copy()
    f = random_unit_field(g, bc)
    mod2 = (f.values ** 2).sum(axis=-1)
    pot = float(np.sum(W * (mod2 - 1.0) ** 2)) / (2 * 0.05)

    def rebuilt(*args):
        raise AssertionError("node weights rebuilt")

    monkeypatch.setattr(stencils, "rect_node_weights", rebuilt)
    monkeypatch.setattr(stencils, "polar_node_weights", rebuilt)
    assert eval_E_eps(f, Params(L=0.5, eps=0.05)).potential_term == pot


def solve_residual(solver, dt, seed=0):
    """||A solve(b) - b|| / ||b|| for a random b that vanishes on the
    Dirichlet rows, where the solution must vanish too."""
    rng = np.random.default_rng(seed)
    b = solver._zero_data(rng.normal(size=(*solver.grid.shape, 2)))
    w = solver._factor(dt).solve(b)
    assert not data_lines(solver, w).any()
    return np.linalg.norm(solver._apply_A(w, dt) - b) / np.linalg.norm(b)


class TestImplicitSolver:
    @pytest.mark.parametrize("n_per", [16, 17])
    @pytest.mark.parametrize("kind", ["rect", "disc", "annulus"])
    def test_direct_solve_exact(self, kind, n_per):
        g, bc = flow_case(kind, n_per, 12)
        p = Params(L=0.5, eps=0.05, R=2.0 if kind == "annulus" else 0.6)
        solver = FlowSolver(g, p, bc)
        for dt in (solver.dt, 8 * solver.dt):
            assert solve_residual(solver, dt) <= 1e-12

    def test_implicit_solve_is_one_solve_with_dirichlet_rows(self):
        solver = rect_solver()
        g = solver.grid
        u, solves = solver.implicit_solve(
            random_unit_field(g, solver.bc).values, solver.dt)
        assert solves == 1
        uD = dirichlet_field(g, solver.bc)
        assert np.array_equal(data_lines(solver, u), data_lines(solver, uD))

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @pytest.mark.parametrize("kind", ["rect", "disc", "annulus"])
    @given(half=hst.integers(2, 10), n_line=hst.integers(4, 14),
           dt_factor=hst.sampled_from([1.0, 8.0]),
           seed=hst.integers(0, 1000))
    def test_line_data_solve_is_the_full_grid_formula(self, kind, parity,
                                                      half, n_line,
                                                      dt_factor, seed):
        """`implicit_solve` keeps the Dirichlet data and the shift A uD as
        lines; it gives the bytes of the full-grid formula solve(W u_expl
        - dt A uD, Dirichlet rows zeroed) + uD, on n_per = 2 half + parity
        nodes along the periodic axis, at dt and 8 dt."""
        g, bc = flow_case(kind, 2 * half + parity, n_line)
        p = Params(L=0.5, eps=0.05, R=2.0 if kind == "annulus" else 0.6)
        solver = FlowSolver(g, p, bc)
        dt = dt_factor * solver.dt
        u_expl = np.random.default_rng(seed).normal(size=(*g.shape, 2))
        uD = dirichlet_field(g, bc)
        b = solver.W[..., None] * u_expl
        b -= dt * solver._apply_A(uD, 1.0)
        solver._zero_data(b)
        want = solver._factor(dt).solve(b)
        want += uD
        got, _ = solver.implicit_solve(u_expl, dt)
        assert got.tobytes() == want.tobytes()

    @given(kind=hst.sampled_from(["rect", "disc", "annulus"]),
           n_per=hst.integers(4, 21), n_line=hst.integers(4, 14),
           eps=hst.floats(0.01, 0.2), L=hst.floats(0.05, 2.0),
           dt_over_eps=hst.floats(0.05, 2.0), seed=hst.integers(0, 1000))
    def test_solver_and_flow_properties(self, kind, n_per, n_line, eps, L,
                                        dt_over_eps, seed):
        g, bc = flow_case(kind, n_per, n_line)
        p = Params(L=L, eps=eps, R=2.0 if kind == "annulus" else 0.6)
        solver = FlowSolver(g, p, bc, dt=dt_over_eps * eps)
        assert solve_residual(solver, solver.dt, seed) <= 1e-12
        st = FlowState(field=random_unit_field(g, bc, seed=seed),
                       dt=solver.dt)
        for _ in range(3):
            solver.step(st)
        totals = [eb.total for _, eb in st.energy_trace]
        assert all(b <= a + 1e-12 * max(1, abs(a))
                   for a, b in zip(totals, totals[1:]))
        assert np.array_equal(data_lines(solver, st.field.values),
                              data_lines(solver, dirichlet_field(g, bc)))


def banded_reference(D, U, b):
    """Solve the block-tridiagonal systems of `_BlockCyclicReduction(D, U)`
    for b (2, rows, systems) by SciPy's banded Cholesky: all systems in one
    symmetric band with three superdiagonals, upper triangle only."""
    from scipy.linalg import cho_solve_banded, cholesky_banded
    n, m = D.shape[2], D.shape[3]
    ab = np.zeros((4, m, 2 * n))
    cols = 2 * np.arange(n)
    for c2 in range(2):
        for c in range(2):
            if c2 <= c:   # row 2r + c2, column 2r + c
                ab[3 + c2 - c][:, cols + c] = D[c2, c].T
            # row 2r + c2, column 2r + 2 + c
            ab[1 + c2 - c][:, cols[1:] + c] = U[c2, c].T
    cb = cholesky_banded(ab.reshape(4, -1))
    x = cho_solve_banded((cb, False), b.transpose(2, 1, 0).reshape(-1))
    return x.reshape(m, n, 2).transpose(2, 1, 0)


def block_apply(D, U, x):
    """The block-tridiagonal matrix of (D, U) times x (2, rows, systems)."""
    y = np.einsum("ijrm,jrm->irm", D, x)
    y[:, :-1] += np.einsum("ijrm,jrm->irm", U, x[:, 1:])
    y[:, 1:] += np.einsum("jirm,jrm->irm", U, x[:, :-1])
    return y


class TestBlockCyclicReduction:
    """Cyclic reduction against LAPACK's banded Cholesky on the operator
    probed from the flow, cut to row counts around powers of two."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31,
                                      32, 33])
    @pytest.mark.parametrize("kind", ["rect", "disc"])
    @settings(max_examples=4)
    @given(n_per=hst.integers(4, 21), eps=hst.floats(0.01, 0.2),
           L=hst.floats(0.05, 2.0), dt_over_eps=hst.floats(0.05, 2.0),
           seed=hst.integers(0, 1000))
    def test_matches_banded_cholesky(self, kind, rows, n_per, eps, L,
                                     dt_over_eps, seed):
        g, bc = flow_case(kind, n_per, max(rows + 2, 4))
        solver = FlowSolver(g, Params(L=L, eps=eps, R=0.6), bc,
                            dt=dt_over_eps * eps)
        D, U = _probe_blocks(solver._frame,
                             lambda w: solver._apply_A(w, solver.dt),
                             solver.free)
        D, U = D[:, :, :rows], U[:, :, :rows - 1]
        b = np.random.default_rng(seed).normal(size=D.shape[1:])
        x = _BlockCyclicReduction(D, U).solve(b.copy())
        ref = banded_reference(D, U, b)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
        assert (np.linalg.norm(block_apply(D, U, x) - b)
                <= 1e-12 * np.linalg.norm(b))


def probe_blocks_reference(solver, apply_A):
    """The blocks of `_probe_blocks` before S = diag(1, i) applies, one
    `apply_A` call per impulse set: an impulse at periodic index 0 on every
    third free row, one component at a time, and the rfft of the whole
    response."""
    g, frame, free = solver.grid, solver._frame, solver.free
    n_per, n_line = g.shape if g.kind == "rectangle" else g.shape[::-1]
    nf = free.stop - free.start
    D = np.empty((2, 2, nf, n_per // 2 + 1), dtype=complex)
    U = np.empty((2, 2, nf - 1, n_per // 2 + 1), dtype=complex)
    for colour in range(3):
        for c in range(2):
            e = np.zeros((n_per, n_line, 2))
            e[0, free][colour::3, c] = 1.0
            resp = frame.to_modal(apply_A(frame.from_modal(e)))[:, free]
            spec = np.fft.rfft(resp.transpose(2, 1, 0))
            D[:, c, colour::3] = spec[:, colour::3]
            above = (colour - 1) % 3
            U[:, c, above::3] = spec[:, above:nf - 1:3]
    return D, U


class TestPackedProbe:
    """`_probe_blocks` answers up to six impulse sets with one operator
    application; its real blocks are S^H A_k S, S = diag(1, i), of the
    per-impulse ones."""

    @pytest.mark.parametrize("n_per", [4, 5, 6, 7, 8, 9, 11, 12, 17, 18,
                                       19, 24, 40])
    @pytest.mark.parametrize("kind", ["rect", "disc", "annulus"])
    def test_matches_per_impulse_probe(self, kind, n_per):
        g, bc = flow_case(kind, n_per, 13)
        p = Params(L=0.7, eps=0.03, R=2.0 if kind == "annulus" else 0.6)
        solver = FlowSolver(g, p, bc)
        calls = []

        def apply_A(w):
            calls.append(1)
            return solver._apply_A(w, solver.dt)

        D, U = _probe_blocks(solver._frame, apply_A, solver.free)
        assert len(calls) == -(-6 // (n_per // 3))
        assert D.dtype == U.dtype == np.float64
        s = np.array([1.0, 1j])[:, None, None, None]
        D0, U0 = probe_blocks_reference(solver, apply_A)
        scale = np.abs(D0).max()
        for X, X0 in ((D, D0), (U, U0)):
            assert np.abs(X - (s.conj() * X0 * s.swapaxes(0, 1)).real).max() \
                <= 1e-15 * scale

    def test_missing_reflection_symmetry_raises(self):
        """A one-sided difference along the periodic axis has no real form
        after S, and the probe says so instead of dropping it."""
        solver = rect_solver()

        def apply_A(w):
            z = solver._apply_A(w, solver.dt)
            z += 1e-3 * (np.roll(w, -1, axis=0) - w)
            return solver._zero_data(z)

        with pytest.raises(ValueError, match="not reflection symmetric"):
            _probe_blocks(solver._frame, apply_A, solver.free)


def test_factor_levels_are_three_real_arrays():
    """Each level of the flow-rect factor keeps E, P and Q in float64 (the
    last level E alone): 1.76 MiB on this grid of 78,750 unknowns."""
    H = 0.5
    T = H * solve_Ttilde(0.5)
    g = make_grid("rectangle", (0.0, 2 * T, -H, H), 175, 224)
    solver = FlowSolver(g, Params(L=0.25, H=H, T=T, eps=0.015), rect_bc(0.0))
    levels = solver._factor(solver.dt).reduction.levels
    assert [len(lev) for lev in levels] == [3] * (len(levels) - 1) + [1]
    arrays = [a for lev in levels for a in lev]
    assert all(a.dtype == np.float64 for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 2e6


class TestStepping:
    def test_equilibrium_input_fixed(self):
        g = make_grid("rectangle", (-1, 1, -1, 1), 12, 12)
        bc = BCSpec(first=lambda xs: np.broadcast_to([1.0, 0.0], (len(xs), 2)),
                    last=lambda xs: np.broadcast_to([1.0, 0.0], (len(xs), 2)))
        p = Params(L=0.5, eps=0.05)
        f = sample_analytic(g, lambda X, Y: (np.ones_like(X), np.zeros_like(Y)))
        solver = FlowSolver(g, p, bc)
        st = FlowState(field=f.copy(), dt=solver.dt)
        solver.step(st)
        assert np.abs(st.field.values - f.values).max() < 1e-9

    def test_energy_monotone_and_bc_fixed(self):
        g = make_grid("rectangle", (-0.5, 0.5, -0.5, 0.5), 24, 32)
        p = Params(L=0.5, eps=0.01, H=0.5, T=0.5)
        bc = rect_bc(0.0)
        solver = FlowSolver(g, p, bc)
        f0 = random_unit_field(g, bc, seed=0)
        st = FlowState(field=f0, dt=solver.dt)
        for _ in range(1000):
            solver.step(st)
        totals = [eb.total for _, eb in st.energy_trace]
        assert all(b <= a + 1e-12 * max(1, abs(a))
                   for a, b in zip(totals, totals[1:]))
        assert np.array_equal(data_lines(solver, st.field.values),
                              data_lines(solver, dirichlet_field(g, bc)))

    def test_one_factor_after_a_halving(self, monkeypatch):
        """dt only halves within a run, so the solver keeps the factor of
        the current dt alone."""
        solver = rect_solver()
        solve = solver.implicit_solve

        def nan_once(u_expl, dt):
            u, n = solve(u_expl, dt)
            return (np.full_like(u, np.nan) if dt == solver.dt else u), n

        monkeypatch.setattr(solver, "implicit_solve", nan_once)
        st = FlowState(field=random_unit_field(solver.grid, solver.bc,
                                               seed=2), dt=solver.dt)
        solver.step(st)
        assert st.dt == solver.dt / 2
        assert list(solver._factor_cache) == [solver.dt / 2]

    def test_non_finite_trial_is_rejected(self, monkeypatch):
        solver = rect_solver()
        solve = solver.implicit_solve
        calls = []

        def nan_once(u_expl, dt):
            calls.append(dt)
            u, n = solve(u_expl, dt)
            if len(calls) == 1:
                u = np.full_like(u, np.nan)
            return u, n

        monkeypatch.setattr(solver, "implicit_solve", nan_once)
        st = FlowState(field=random_unit_field(solver.grid, solver.bc,
                                               seed=2), dt=solver.dt)
        solver.step(st)
        assert calls == [solver.dt, solver.dt / 2]
        assert st.dt == solver.dt / 2 and st.time == solver.dt / 2
        assert np.isfinite(st.field.values).all()


def out_of_place_trial(solver, u, dt):
    """One trial step written without scratch: u_expl and W u_expl as
    new arrays, then the solve and the data lines."""
    r = gradflow._reaction(u, solver.params.eps)
    b = solver.W[..., None] * (u - dt * r)
    rows = solver.grid.periodic_first(b)
    for j, s in solver._shift:
        rows[:, j] -= dt * s
    w = solver._factor(dt).solve(b)
    rows = solver.grid.periodic_first(w)
    for k, line in solver._data:
        rows[:, k] = line
    return w


class TestInPlaceStep:
    """The step builds u_expl and the solve's right-hand side in one
    scratch array; a rejected trial leaves the state's field and the
    caller's start untouched, and the accepted one has the bytes of the
    step written without scratch."""

    @pytest.mark.parametrize("kind", ["rect", "disc"])
    @pytest.mark.parametrize("reject", ["nan", "rise"])
    def test_rejected_trial_writes_nothing(self, monkeypatch, kind, reject):
        g, bc = flow_case(kind, 16, 10)
        solver = FlowSolver(g, Params(L=0.5, eps=0.05, R=0.6), bc)
        init = random_unit_field(g, bc, seed=4)
        start = init.values.copy()
        st = FlowState(field=init, dt=solver.dt)
        solve = solver.implicit_solve
        calls = []

        def reject_once(u_expl, dt):
            assert not np.shares_memory(u_expl, st.field.values)
            assert st.field.values.tobytes() == start.tobytes()
            calls.append(dt)
            u, n = solve(u_expl, dt)
            if len(calls) == 1:
                u = np.full_like(u, np.nan) if reject == "nan" else 100.0 * u
            return u, n

        monkeypatch.setattr(solver, "implicit_solve", reject_once)
        solver.step(st)
        assert calls == [solver.dt, solver.dt / 2]
        assert st.energy_trace[-1][1].total < st.energy_trace[0][1].total
        assert init.values.tobytes() == start.tobytes()
        want = out_of_place_trial(solver, start, solver.dt / 2)
        assert st.field.values.tobytes() == want.tobytes()

    def test_working_set_on_the_flow_rect_grid(self):
        """One accepted step on the flow-rect benchmark grid (175 x 225
        nodes, eps 0.015), factor already built, allocates at most 5.5
        fields' worth at its peak; it was 6.46 while the step made u_expl
        and W u_expl as new arrays and kept the reduction's scratch alive
        through the inverse FFT."""
        T = 0.5 * solve_Ttilde(0.5)
        g = make_grid("rectangle", (0.0, 2 * T, -0.5, 0.5), 175, 224)
        bc = rect_bc(0.0)
        solver = FlowSolver(g, Params(L=0.25, eps=0.015, H=0.5, T=T), bc)
        st = FlowState(field=random_unit_field(g, bc, seed=7), dt=solver.dt)
        solver.step(st)
        tracemalloc.start()
        try:
            solver.step(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.dt == solver.dt
        assert peak <= 5.5 * st.field.values.nbytes


class TestConvergedExits:
    """The two ways `run_to_equilibrium` reports convergence, on the
    tangential disc from a random start."""

    def run(self, tol):
        R = 0.6
        g = make_grid("polar", (disc_inner_cutoff(R), R), 8, 16)
        bc = disc_bc("tangential")
        p = Params(L=0.5, eps=0.1, R=R)
        solver = FlowSolver(g, p, bc)
        st = solver.run_to_equilibrium(random_unit_field(g, bc, seed=1),
                                       tol=tol)
        (_, e_prev), (_, e_new) = st.energy_trace[-2:]
        rate = (e_prev.total - e_new.total) / st.dt
        grad = np.abs(solver.rhs(st.field).values).max()
        return st, rate, grad

    def test_gradient_below_tolerance(self):
        st, rate, grad = self.run(tol=1e-6)
        assert st.converged and st.stop_reason == "gradient below tolerance"
        assert rate < 1e-12 and grad < 1e-6
        assert st.residual == grad and st.residual < 1e-6

    def test_energy_stationary(self):
        """With a tolerance far below what the energy can resolve, the flow
        stops because E no longer decreases while ||rhs|| is above tol."""
        st, rate, grad = self.run(tol=1e-9)
        assert st.converged and st.stop_reason == "energy stationary"
        assert rate < 1e-4 * 1e-18 and grad >= 1e-9
        assert st.residual == grad and st.residual >= 1e-9

    def test_unconverged_exit_reports_a_computed_residual(self, monkeypatch):
        """Once the energy rate falls below tol^2 every step computes
        ||rhs||_inf, and an exit at MAX_STEPS reports the final field's."""
        monkeypatch.setattr(gradflow, "MAX_STEPS", 230)
        st, _, grad = self.run(tol=1e-6)
        assert not st.converged and st.stop_reason == "max_steps reached"
        assert st.residual == grad and st.residual >= 1e-6


def test_polar_grid_needs_a_positive_inner_radius():
    g = make_grid("polar", (0.0, 0.6), 8, 16)
    bc = disc_bc("tangential")
    f = Field2D(g, np.ones((*g.shape, 2)))
    with pytest.raises(ValueError, match="r_in > 0"):
        eval_E_eps(f, Params(L=0.5, eps=0.05, R=0.6))
    with pytest.raises(ValueError, match="r_in > 0"):
        FlowSolver(g, Params(L=0.5, eps=0.05, R=0.6), bc)


class TestDiagnostics:
    """`node_divergence`: the energy's cell divergence at the nodes."""

    @staticmethod
    def rect_error(n):
        """max |node divergence - div u| off the end lines, on the x-periodic
        cell (0, 2) x (-0.5, 0.5) with n cells a side."""
        g = make_grid("rectangle", (0.0, 2.0, -0.5, 0.5), n, n)
        k = math.pi

        def f(X, Y):
            return np.sin(k * X) * np.cos(Y), np.cos(k * X) * np.sin(2 * Y)

        X, Y = g.nodes_xy()
        exact = k * np.cos(k * X) * np.cos(Y) + 2 * np.cos(k * X) * np.cos(2 * Y)
        div = node_divergence(sample_analytic(g, f))
        return np.abs(div - exact)[:, 1:-1].max()

    def test_rect_second_order(self):
        errors = [self.rect_error(n) for n in (32, 64, 128)]
        assert errors[-1] < 3e-3
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.8 < coarse / fine < 4.2

    def test_rect_divergence_free_reads_zero(self):
        """u1 of y alone and u2 of x alone: every cell difference cancels."""
        g = make_grid("rectangle", (0.0, 2.0, -0.5, 0.5), 24, 16)
        fld = sample_analytic(g, lambda X, Y: (np.cos(3 * Y) + 0.5 * Y,
                                               np.sin(math.pi * X)))
        div = node_divergence(fld)
        assert div.shape == g.shape
        assert np.abs(div).max() <= 1e-12

    def test_divergence_hedgehog(self):
        g = make_grid("polar", (0.1, 0.8), 256, 512)

        def f(X, Y):
            r = np.hypot(X, Y)
            q = np.sqrt(np.maximum(1 - r ** 2, 0.0))
            return X + q * (-Y / r), Y + q * (X / r)

        fld = sample_analytic(g, f)
        div = node_divergence(fld)
        rs, _ = g.axes()
        mask = (rs > 0.15) & (rs < 0.6)
        assert np.abs(div[mask, :] - 2).max() < 1e-3

    def test_divergence_e_theta_zero(self):
        g = make_grid("polar", (0.5, 1.5), 64, 128)
        fld = sample_analytic(g, lambda X, Y: (-Y / np.hypot(X, Y),
                                               X / np.hypot(X, Y)))
        div = node_divergence(fld)
        assert np.abs(div[1:-1, :]).max() < 1e-4
