import math

import numpy as np
import pytest

from nematic_walls.annulus import (EIGHT_PI_THIRDS, _assemble_field,
                                   annulus_energy, boundary_wall_solution,
                                   critical_L_for_a_half, g_poly, radial_div,
                                   radial_p, rho_squared_for_a,
                                   small_L_interior_bound, solve_annulus,
                                   solve_interior_wall)
from nematic_walls.core import JumpSegment, Params
from nematic_walls.energy import (criticality_residuals, eval_E0_piecewise,
                                  wall_energy)

R = 2.0


class TestRadialProfile:
    def test_boundary_values(self):
        p = radial_p(1.4, 0.3, R)
        assert float(p(np.asarray(1.0))) == pytest.approx(0.0, abs=1e-15)
        assert float(p(np.asarray(R))) == pytest.approx(0.0, abs=1e-15)

    def test_continuous_normal_trace(self):
        rho, a = 1.4, 0.3
        p = radial_p(rho, a, R)
        assert float(p(np.asarray(rho - 1e-14))) == pytest.approx(a, abs=1e-12)
        assert float(p(np.asarray(rho + 1e-14))) == pytest.approx(a, abs=1e-12)

    def test_piecewise_constant_divergence_fd_oracle(self):
        rho, a = 1.3, 0.4
        p = radial_p(rho, a, R)
        c_in, c_out = radial_div(rho, a, R)
        h = 1e-6
        for r in (1.1, rho - 1e-3, rho + 1e-3, 1.9):
            div = ((r + h) * float(p(np.asarray(r + h)))
                   - (r - h) * float(p(np.asarray(r - h)))) / (2 * h) / r
            expect = c_in if r < rho else c_out
            assert div == pytest.approx(expect, abs=1e-6)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            radial_p(0.9, 0.3, R)


class TestClosedFormEnergy:
    def test_a_zero_inner_wall_limit(self):
        # a = 0: E = (8/3) pi rho, minimized as rho -> 1 at 8 pi/3
        for rho in (1.001, 1.2, 1.9):
            assert annulus_energy(rho, 0.0, R, 0.7) == pytest.approx(
                (8 / 3) * math.pi * rho, abs=1e-12)

    def test_outer_boundary_wall_cost(self):
        # u = -e_theta against g = +e_theta along r = R: an antipodal jump
        # of cost 4/3 per length, on a polyline whose length_scale gives
        # each chord its arc
        n = 64
        th = np.linspace(0.0, 2 * math.pi, n + 1)
        e_r = np.stack([np.cos(th), np.sin(th)], axis=-1)

        def traces(s):
            e_theta = np.stack([-np.sin(s / R), np.cos(s / R)], axis=-1)
            return -e_theta, e_theta

        seg = JumpSegment(polyline=R * e_r, normals=e_r, trace_fn=traces,
                          length_scale=np.full(n, (math.pi / n)
                                               / math.sin(math.pi / n)),
                          boundary=True)
        assert wall_energy(seg) == pytest.approx(8 * math.pi * R / 3,
                                                 abs=1e-12)

    def test_matches_generic_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            rho = rng.uniform(1.1, R - 0.1)
            a = rng.uniform(0.05, 0.95)
            L = rng.uniform(0.2, 2.0)
            field = _assemble_field(rho, a, R)
            eb = eval_E0_piecewise(field, Params(L=L, R=R),
                                   s_panels=32)
            assert eb.total == pytest.approx(annulus_energy(rho, a, R, L),
                                             abs=1e-8)


class TestCriticalitySystem:
    def test_g_at_one(self):
        for L in (0.3, 1.0, 2.5):
            assert float(g_poly(1.0, R, L)) == pytest.approx(
                0.75 * L * L * (1 - R * R) ** 3, rel=1e-12)

    def test_a_half_rho_squared(self):
        assert rho_squared_for_a(0.5, R) == pytest.approx(2 * R * R / (R * R + 1),
                                                          abs=1e-15)
        Lc = critical_L_for_a_half(R)
        sol = solve_interior_wall(R, Lc)
        assert sol is not None
        assert sol.rho ** 2 == pytest.approx(2 * R * R / (R * R + 1), abs=1e-12)
        assert sol.a == pytest.approx(0.5, abs=1e-9)

    def test_quadratic_branch_is_the_solved_wall(self):
        """Below a = 1/2 the root of the criticality quadratic is the wall
        radius squared that solve_interior_wall finds, to 1e-12."""
        n = 0
        for r in (1.2, 1.5, 2.0, 3.0, 5.0):
            for L in np.geomspace(0.02, 3.0, 40):
                sol = solve_interior_wall(r, float(L))
                if sol is None or not sol.a < 0.5:
                    continue
                n += 1
                assert rho_squared_for_a(sol.a, r) == pytest.approx(
                    sol.rho ** 2, rel=1e-12, abs=0), (r, L)
        assert n > 100  # 131 walls

    def test_interior_residuals(self):
        sol = solve_interior_wall(R, critical_L_for_a_half(R))
        assert sol.nbc_residual < 1e-10
        assert sol.jump_residual < 1e-10
        assert 0 < sol.a <= 0.5
        assert 1 < sol.rho ** 2 < 2 * R * R / (R * R + 1) + 1e-9

    def test_large_L_returns_none(self):
        assert solve_interior_wall(R, 10.0) is None
        sol = solve_annulus(R, 10.0)
        assert sol.wall_at_boundary
        assert sol.energy.total == EIGHT_PI_THIRDS

    def test_criticality_report_on_assembled_field(self):
        Lc = critical_L_for_a_half(R)
        sol = solve_interior_wall(R, Lc)
        rep = criticality_residuals(sol.field, Params(L=Lc, R=R))
        assert rep.bulk_transport == pytest.approx(0.0, abs=1e-10)
        assert rep.wall_balance < 1e-9
        # curvature comes from the 512-gon polyline, O(h^2) accurate
        assert rep.wall_stationarity < 5e-4


class TestSmallLBound:
    def test_positive_for_any_R(self):
        for Rv in (1.01, 1.5, 2.0, 5.0, 20.0):
            assert small_L_interior_bound(Rv) > 0.0

    def test_competitor_beats_boundary_wall(self):
        Lb = small_L_interior_bound(R)
        z = 2 * R * R / (R * R + 1)
        E = annulus_energy(math.sqrt(z), 0.5, R, 0.9 * Lb)
        assert E < EIGHT_PI_THIRDS

    def test_vanishes_as_R_to_one(self):
        assert small_L_interior_bound(1.0 + 1e-9) < 1e-8


def test_families_end_on_the_wall_circle():
    """Both families' arcs, run for their closed-form arrival times, end on
    r = rho, over the interior solutions of 5 R and 40 L."""
    cases = 0
    for R_ in (1.2, 1.5, 2.0, 3.0, 5.0):
        for L in np.linspace(0.02, 3.0, 40):
            sol = solve_interior_wall(R_, L)
            if sol is None:
                continue
            cases += 1
            for fam in sol.field.families:
                x, y, _, _ = fam.arrival(np.linspace(0, 2 * np.pi, 13))
                assert np.abs(np.hypot(x, y) - sol.rho).max() <= 1e-14
    assert cases == 44


def test_boundary_wall_quadrature():
    sol = boundary_wall_solution(R, 10.0)
    eb = eval_E0_piecewise(sol.field, Params(L=10.0, R=R))
    assert eb.wall_boundary == pytest.approx(EIGHT_PI_THIRDS, abs=1e-8)
    assert eb.bulk_div == pytest.approx(0.0, abs=1e-12)


def test_root_count_parity_bookkeeping():
    # odd number of sign changes on the window exactly when the endpoint
    # signs differ
    from nematic_walls.rootfind import scan_brackets
    for L in (0.2, 0.66, 2.0, 10.0):
        z_hi = 2 * R * R / (1 + R * R)
        lo, hi = 1 + 1e-9, z_hi - 1e-9
        f = lambda z: g_poly(z, R, L)
        brackets = scan_brackets(f, lo, hi, n=4096)
        endpoints_differ = float(f(np.asarray(lo))) * float(f(np.asarray(hi))) < 0
        assert (len(brackets) % 2 == 1) == endpoints_differ
