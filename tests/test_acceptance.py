"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured numbers (run with -v -s to see them).

Criterion 8's lower crossing abscissa is asserted verbatim in its own
test, `test_criterion_08b_L0_window_as_specified`, and is expected red:
the converged crossing of this implementation sits at L0 = 1.2195,
5e-4 outside the specified window.  ROADMAP item 7 records what is known
of the cause and the evidence still to be brought into the repository,
and item 10 an open question about the cell.  Everything else passes.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from nematic_walls.core import (Field2D, Params, disc_inner_cutoff, make_grid,
                                sample_analytic)
from nematic_walls.energy import eval_E0_piecewise, eval_E_eps, eval_E0_1d
from nematic_walls import annulus as ann
from nematic_walls import crosstie as ct
from nematic_walls import disc
from nematic_walls import rect1d
from nematic_walls import gradflow as gf
from nematic_walls.characteristics import check_foliation


def report(num, ok, desc, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>3}  {tag}  {desc}" + (f"  [{detail}]" if detail else ""))
    return ok


def test_criterion_01_hedgehog_energy():
    t0 = time.time()
    ok = True
    details = []
    for L in (0.5, 1.0, 2.0):
        closed = disc.hedgehog_energy(L)
        ok &= closed == 2 * math.pi * L
        eb = eval_E0_piecewise(disc.hedgehog_solution(+1), Params(L=L),
                               s_panels=32, order=16)
        err = abs(eb.total - closed)
        details.append(f"L={L}: quad err {err:.1e}")
        ok &= err < 1e-8
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    assert report(1, ok, "hedgehog energy 2*pi*L, closed and quadrature",
                  "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_02_tangential_zero_energy():
    t0 = time.time()
    eb = eval_E0_piecewise(disc.tangential_solution(1.0), Params(L=1.0))
    exact_zero = eb.total == 0.0

    eps = 0.01
    g = make_grid("polar", (disc_inner_cutoff(1.0), 1.0), 128, 256)
    bc = gf.disc_bc("tangential")
    f0 = sample_analytic(g, lambda X, Y: (-Y / np.hypot(X, Y),
                                          X / np.hypot(X, Y)))
    p = Params(L=1.0, eps=eps, R=1.0)
    E_init = eval_E_eps(f0, p).total
    solver = gf.FlowSolver(g, p, bc)
    state = gf.FlowState(field=f0.copy(), dt=solver.dt)
    bc.impose(state.field)
    for _ in range(80):
        solver.step(state)
    E_final = state.energy_trace[-1][1].total
    # E_eps(e_theta) = eps*pi*ln(r_out/r_in) + O(eps): O(eps) with the
    # cutoff's log factor
    bound = 25 * eps
    elapsed = time.time() - t0
    ok = exact_zero and E_final <= E_init and E_final <= bound and elapsed < 60
    assert report(2, ok, "tangential data: E0 = 0 exactly; flow stays O(eps)",
                  f"E0={eb.total}, E_eps {E_init:.4f}->{E_final:.4f} "
                  f"<= {bound:.2f}; {elapsed:.1f}s")


def test_criterion_03_one_dimensional_minimum():
    t0 = time.time()
    ok = True
    for ratio in np.linspace(0.05, 1.95, 20):
        got = rect1d.min_energy_1d(ratio, 1.0, 0.0)
        ok &= abs(got - (ratio - ratio ** 3 / 12)) < 1e-10
    for ratio in (2.5, 3.0, 7.0):
        ok &= abs(rect1d.min_energy_1d(ratio, 1.0, 0.0) - 4 / 3) < 1e-12
    tie = abs((2.0 - 2.0 ** 3 / 12) - 4 / 3) < 1e-12 \
        and abs(rect1d.min_energy_1d(2.0, 1.0, 0.0) - 4 / 3) < 1e-12
    elapsed = time.time() - t0
    ok &= tie and elapsed < 1.0
    assert report(3, ok, "1D minima: L/H - (L/H)^3/12 below 2, 4/3 above, tie at 2",
                  f"{elapsed:.2f}s")


def test_criterion_04_recovery_profile_convergence():
    # configuration: L/H = 1.5, a = 0 (the spec does not pin one; at
    # L = H = 1 the proof's construction gives 1.03%)
    t0 = time.time()
    L = H = 1.0
    ratio = 1.5
    E0 = rect1d.min_energy_1d(ratio, 1.0, 0.0)
    gaps = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        prof = rect1d.recovery_profile_1d(eps, ratio, 1.0, 0.0,
                                          int(40 / eps))
        eb = eval_E_eps(prof, Params(L=ratio, H=1.0, a=0.0, eps=eps))
        gaps.append(eb.total - E0)
    monotone = gaps[0] > gaps[1] > gaps[2] > 0
    final_rel = gaps[-1] / E0
    elapsed = time.time() - t0
    ok = monotone and final_rel < 0.01 and elapsed < 60
    assert report(4, ok, "recovery-profile gap shrinks monotonically, final < 1%",
                  f"gaps={[f'{g:.5f}' for g in gaps]}, final {100*final_rel:.2f}%; "
                  f"{elapsed:.1f}s")


def test_criterion_05_explicit_crosstie_map():
    t0 = time.time()
    E = ct.remark_crosstie_energy()
    err = abs(E - 4 / 3)
    elapsed = time.time() - t0
    ok = err < 1e-8 and elapsed < 1.0
    assert report(5, ok, "explicit cross-tie map: E0 per period = 4/3",
                  f"err {err:.1e}; {elapsed:.2f}s")


def test_criterion_06_period_equation():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_res, worst_cf = 0.0, 0.0
    for lh in rng.uniform(0.1, 5.0, 100):
        t = ct.solve_Ttilde(lh)
        worst_res = max(worst_res, abs(float(rect1d.period_equation_residual(t, lh))))
        worst_cf = max(worst_cf, rect1d.ttilde_closed_form_check(t, lh))
    t1 = ct.solve_Ttilde(1.0) / 2
    t3 = ct.solve_Ttilde(3.0) / 2
    elapsed = time.time() - t0
    ok = (worst_res < 1e-12 and worst_cf < 1e-10
          and abs(t1 - 0.3) <= 0.02 and abs(t3 - 0.25) <= 0.02
          and elapsed < 1.0)
    assert report(6, ok, "period equation residual and closed form; caption values",
                  f"res {worst_res:.1e}, closed-form {worst_cf:.1e}, "
                  f"T~(1)/2={t1:.4f}, T~(3)/2={t3:.4f}; {elapsed:.2f}s")


def test_criterion_07_crosstie_invariants():
    t0 = time.time()
    ok = True
    details = []
    for lh in (1.0, 1.5, 2.0):
        sol = ct.build_crosstie(lh, 1.0)
        tan = sol.tangency_mismatch
        wres = sol.wall_balance
        s2 = np.linspace(1e-6, sol.t1_star * (1 - 1e-9), 512)
        th = ct.region2_theta_star(s2, sol.alpha, sol.L)
        mono = bool(np.all(np.diff(th) > 0))
        at1 = sol.alpha * sol.t1_star
        in_range = math.pi / 4 - 1e-12 <= at1 <= math.pi / 2 + 1e-12
        foli = all(check_foliation(f, 12, 12).sign_consistent
                   for f in (sol.region1, sol.region2, sol.region3))
        ok &= tan < 1e-9 and wres < 1e-8 and mono and in_range and foli
        details.append(f"L/H={lh}: tan {tan:.0e}, wall {wres:.0e}")
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    assert report(7, ok, "cross-tie invariants (tangency, walls, monotone, foliation)",
                  "; ".join(details) + f"; {elapsed:.1f}s")


@pytest.fixture(scope="module")
def crossing():
    t0 = time.time()
    L0, L1 = ct.find_crossing(H=1.0, l_lo=0.5, l_hi=3.0, step=0.01,
                              s_panels=128, order=4)
    return L0, L1, time.time() - t0


def test_criterion_08a_crossing_interval(crossing):
    L0, L1, elapsed = crossing
    mid = 0.5 * (L0 + L1)
    sol = ct.build_crosstie(mid, 1.0)
    gap_mid = ct.crosstie_energy_per_length(sol, s_panels=128, order=4) \
        - rect1d.min_energy_1d(mid, 1.0, 0.0)
    ok = (L0 is not None and L1 is not None
          and abs(L1 - 2.14) <= 0.05
          and gap_mid < 0
          and elapsed < 300)
    assert report("8a", ok,
                  "crossing exists; L1 in 2.14 +- 0.05; strictly below inside",
                  f"L0={L0:.4f}, L1={L1:.4f}, gap(mid)={gap_mid:.4f}; "
                  f"{elapsed:.0f}s")


def test_criterion_08b_L0_window_as_specified(crossing):
    """Faithful assertion of the specified window L0 in 1.27 +- 0.05.

    Expected red: the converged crossing of this construction is
    L0 = 1.2195 (quadrature-converged to 1e-9, cross-checked against an
    independent pointwise integration and the eps-level flow), 5e-4 below
    the window's lower edge.  ROADMAP items 7 and 10 hold what is known
    of the cause.
    """
    L0, _, _ = crossing
    ok = abs(L0 - 1.27) <= 0.05
    report("8b", ok, "L0 within the specified 1.27 +- 0.05 window",
           f"L0={L0:.4f}, |L0-1.27|={abs(L0-1.27):.4f}")
    assert ok, (f"L0 = {L0:.4f} is outside 1.27 +- 0.05 by "
                f"{abs(L0-1.27)-0.05:+.4f}; see ROADMAP item 7")


def test_criterion_09_degree_minus_one():
    t0 = time.time()
    R, L = 0.6, 0.5
    sol = disc.build_deg_minus_one(R, L)
    _, _, _, v0, _ = sol.region1.seed(np.linspace(sol.s0, R, 64))
    region1_const = bool(np.all(v0 == -1.0 / R))
    lim = abs(disc.region3_v0(1e-4, L) + 1.0 / L)
    nbc = sol.wall_balance
    s3 = np.linspace(1e-5, sol.s0, 512)
    mono3 = bool(np.all(np.diff(disc.region3_v0(s3, L)) > 0))
    s2 = np.linspace(1e-5, math.pi * R / 4 * (1 - 1e-6), 512)
    mono2 = bool(np.all(np.diff(disc.region2_v0(s2, R, L)) > 0))
    Es = []
    for Lval in np.linspace(0.1, 0.7, 7):
        s = disc.build_deg_minus_one(R, Lval, n_wall=256)
        Es.append(eval_E0_piecewise(s.field, Params(L=Lval, R=R),
                                    s_panels=24).total)
    increasing = all(a < b for a, b in zip(Es, Es[1:]))
    elapsed = time.time() - t0
    ok = (region1_const and lim < 1e-3 and nbc < 1e-8 and mono3 and mono2
          and increasing and elapsed < 30)
    assert report(9, ok, "degree -1: curvatures, wall residual, monotone energy",
                  f"v3(1e-4)+1/L={lim:.1e}, nbc={nbc:.1e}, "
                  f"E({Es[0]:.3f}..{Es[-1]:.3f}) increasing={increasing}; "
                  f"{elapsed:.1f}s")


def test_criterion_10_annulus():
    t0 = time.time()
    R = 2.0
    z_err = abs(ann.rho_squared_for_a(0.5, R) - 2 * R * R / (R * R + 1))
    sol_c = ann.solve_interior_wall(R, ann.critical_L_for_a_half(R))
    z_err2 = abs(sol_c.rho ** 2 - 2 * R * R / (R * R + 1))
    Lb = ann.small_L_interior_bound(R)
    comp = ann.annulus_energy(math.sqrt(2 * R * R / (R * R + 1)), 0.5, R,
                              0.9 * Lb)
    beats = comp < ann.EIGHT_PI_THIRDS
    none_at_10 = ann.solve_interior_wall(R, 10.0) is None
    bdry = ann.solve_annulus(R, 10.0)
    bdry_exact = bdry.wall_at_boundary and bdry.energy.total == ann.EIGHT_PI_THIRDS
    elapsed = time.time() - t0
    ok = (z_err < 1e-12 and z_err2 < 1e-12 and beats and none_at_10
          and bdry_exact and elapsed < 1.0)
    assert report(10, ok, "annulus: a=1/2 radius, small-L competitor, large-L regime",
                  f"rho^2 err {max(z_err, z_err2):.1e}, competitor "
                  f"{comp:.4f} < {ann.EIGHT_PI_THIRDS:.4f}, L=10 boundary; "
                  f"{elapsed:.2f}s")


def test_criterion_11a_discrete_gradient_and_monotonicity():
    t0 = time.time()
    from tests.test_gradflow import fd_gradient_check
    g = make_grid("rectangle", (-0.5, 0.5, -0.5, 0.5), 32, 32)
    err_r = fd_gradient_check(g, gf.rect_bc(0.0),
                              Params(L=0.5, eps=0.02, H=0.5, T=0.5))
    gp = make_grid("polar", (0.01, 0.6), 24, 48)
    err_p = fd_gradient_check(gp, gf.disc_bc("degminusone"),
                              Params(L=0.5, eps=0.02, R=0.6))
    bc = gf.rect_bc(0.0)
    p = Params(L=0.25, eps=0.01, H=0.5, T=0.5)
    solver = gf.FlowSolver(g, p, bc)
    st = gf.FlowState(field=gf.random_unit_field(g, bc, seed=0),
                      dt=solver.dt)
    for _ in range(300):
        solver.step(st)
    totals = [eb.total for _, eb in st.energy_trace]
    mono = all(b <= a + 1e-12 * max(1, abs(a))
               for a, b in zip(totals, totals[1:]))
    elapsed = time.time() - t0
    ok = err_r < 1e-5 and err_p < 1e-5 and mono
    assert report("11a", ok, "flow: FD gradient identity and monotone trace",
                  f"rel err rect {err_r:.1e}, polar {err_p:.1e}; {elapsed:.0f}s")


def _grid_1d_minimum(ys, dy, L, eps):
    """Discrete 1D eps-minimum on the flow's own y-grid (L-BFGS)."""
    H = ys[-1]
    w = np.full(len(ys), dy)
    w[0] = w[-1] = 0.5 * dy

    def energy(flat):
        u = flat.reshape(-1, 2)
        du = np.diff(u, axis=0)
        grad = np.sum((du[:, 0] ** 2 + du[:, 1] ** 2) / dy)
        div = np.sum(du[:, 1] ** 2 / dy)
        pot = np.sum(w * (u[:, 0] ** 2 + u[:, 1] ** 2 - 1) ** 2)
        return 0.5 * eps * grad + pot / (2 * eps) + 0.5 * L * div

    def grad_e(flat):
        u = flat.reshape(-1, 2)
        g_ = np.zeros_like(u)
        du = np.diff(u, axis=0)
        g_[:-1] += -(eps / dy) * du
        g_[1:] += (eps / dy) * du
        g_[:-1, 1] += -(L / dy) * du[:, 1]
        g_[1:, 1] += (L / dy) * du[:, 1]
        g_ += ((2 / eps) * w * (u[:, 0] ** 2 + u[:, 1] ** 2 - 1))[:, None] * u
        g_[0] = 0
        g_[-1] = 0
        return g_.ravel()

    ratio = L / H
    M = math.sqrt(max(1 - ratio * ratio / 4, 0.0)) if ratio < 2 else 0.0
    u2 = np.where(ys <= 0, M * (ys + H) / H, M * (H - ys) / H)
    u1 = np.sign(ys) * np.sqrt(np.maximum(1 - u2 ** 2, 0.0))
    x0 = np.stack([u1, u2], axis=-1)
    x0[0] = (-1, 0)
    x0[-1] = (1, 0)
    res = minimize(energy, x0.ravel(), jac=grad_e, method="L-BFGS-B",
                   options=dict(maxiter=20000, ftol=1e-18, gtol=1e-14))
    return res.fun


@pytest.mark.slow
def test_criterion_11b_rectangle_recovers_1d():
    """Random init at L/H = 0.5 relaxes to the one-dimensional state.

    The equilibrium is compared against the 1D minimum of the same
    discrete functional on the same y-grid.  The spec's closed-form
    comparison value L/H - (L/H)^3/12 is the sharp-interface limit, which
    the eps-level energy exceeds by an intrinsic ~3.4 eps/H at any
    resolution (measured), so it is reported but not the
    5%-gate.
    """
    t0 = time.time()
    LH, H = 0.5, 0.5
    L = LH * H
    eps = 0.015
    T = H * ct.solve_Ttilde(LH)
    ny = 224
    nx = int(round(2 * T / (2 * H / ny)))
    g = make_grid("rectangle", (0, 2 * T, -H, H), nx, ny)
    bc = gf.rect_bc(0.0)
    p = Params(L=L, H=H, T=T, eps=eps)
    solver = gf.FlowSolver(g, p, bc)
    res = solver.run_to_equilibrium(gf.random_unit_field(g, bc, seed=0),
                                    tol=1e-3, max_time=40.0)
    E = res.energy_trace[-1][1].total / (2 * T)
    ys = g.axes()[1]
    E1d = _grid_1d_minimum(ys, g.spacing[1], L, eps)
    gamma_formula = rect1d.min_energy_1d(LH, 1.0, 0.0)
    rel = abs(E - E1d) / E1d
    elapsed = time.time() - t0
    ok = rel < 0.05 and elapsed < 1800
    assert report("11b", ok, "flow recovers the 1D state at L/H = 0.5",
                  f"E/2T={E:.6f} vs same-grid 1D {E1d:.6f} ({100*rel:.2f}%); "
                  f"sharp-interface formula {gamma_formula:.4f} "
                  f"(eps-gap {100*abs(E-gamma_formula)/gamma_formula:.1f}%); "
                  f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_11c_degree_minus_one_wall_position():
    t0 = time.time()
    R, L, eps = 0.6, 0.5, 0.005
    g = make_grid("polar", (disc_inner_cutoff(R), R), 256, 512)
    bc = gf.disc_bc("degminusone")
    p = Params(L=L, R=R, eps=eps)
    sol = disc.build_deg_minus_one(R, L)
    X, Y = g.nodes_xy()
    rcl = np.hypot(X, Y)
    scale = np.minimum(1.0, R * (1 - 1e-12) / rcl)
    u1, u2, _ = disc.deg_minus_one_sample(sol, X * scale, Y * scale)
    init = Field2D(g, np.stack([u1, u2], axis=-1))
    solver = gf.FlowSolver(g, p, bc)
    res = solver.run_to_equilibrium(init, tol=2e-2, max_time=0.5)
    u = res.field.values
    rs, ts = g.axes()
    dtheta = g.spacing[1]
    worst = 0.0
    for diag_angle, tau in [
        (math.pi / 4, (1, 1)), (3 * math.pi / 4, (-1, 1)),
        (5 * math.pi / 4, (1, 1)), (7 * math.pi / 4, (-1, 1)),
    ]:
        tau = np.asarray(tau, dtype=float) / math.sqrt(2)
        comp = u[..., 0] * tau[0] + u[..., 1] * tau[1]
        for i in range(16, 240, 16):
            k0 = int(round(diag_angle / dtheta))
            idx = np.arange(k0 - 12, k0 + 13) % g.n2
            c = comp[i, idx]
            sc = np.nonzero(np.sign(c[:-1]) != np.sign(c[1:]))[0]
            assert len(sc) > 0, f"no wall near angle {diag_angle} at row {i}"
            cands = []
            for k in sc:
                thc = ts[idx[k]] + dtheta * abs(c[k]) / (abs(c[k]) + abs(c[k + 1]))
                d = abs((thc - diag_angle + math.pi) % (2 * math.pi) - math.pi)
                cands.append(d)
            worst = max(worst, min(cands))
    elapsed = time.time() - t0
    ok = worst <= dtheta and elapsed < 1800
    assert report("11c", ok, "degree -1 flow: walls on the diagonals within one cell",
                  f"worst offset {worst:.4f} rad vs cell {dtheta:.4f}; "
                  f"E_eps={res.energy_trace[-1][1].total:.4f}; {elapsed:.0f}s")
