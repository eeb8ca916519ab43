import math
import warnings

import numpy as np
import pytest

from nematic_walls.characteristics import check_foliation
from nematic_walls.core import Params
from nematic_walls.crosstie import (_quarter_eval_batch, build_crosstie,
                                    crosstie_energy_per_length,
                                    crosstie_field_sample, find_crossing,
                                    region1_seed_offset, region2_theta_star,
                                    region2_theta_star_residual,
                                    region3_seed, remark_crosstie_energy,
                                    remark_crosstie_field, remark_crosstie_map,
                                    remark_tail_integral)
from nematic_walls.energy import criticality_residuals, wall_balance
from nematic_walls.quadrature import integrate
from nematic_walls.rect1d import (min_energy_1d, period_equation_residual,
                                  solve_Ttilde, ttilde_closed_form_check)
from nematic_walls.rootfind import BracketError
from oracles import family_area


class TestPeriodEquation:
    def test_residual_and_closed_form(self):
        rng = np.random.default_rng(7)
        for lh in rng.uniform(0.1, 5.0, 100):
            t = solve_Ttilde(lh)
            assert 0.0 < t < 1.0
            assert abs(float(period_equation_residual(t, lh))) < 1e-12
            assert ttilde_closed_form_check(t, lh) < 1e-10

    def test_decreases_strictly_in_L_over_H(self):
        """T~ falls toward sqrt(2) - 1 as L/H grows; the residual's first
        term, formed without cancellation, keeps it falling up to 3e4."""
        t = [solve_Ttilde(lh) for lh in np.geomspace(1e-2, 3e4, 60)]
        assert all(b < a for a, b in zip(t, t[1:]))

    def test_out_of_range_names_a_float_without_warning(self):
        """An array element far above the bracket is named as a plain
        float, and (L/H)^2 overflowing on the way raises no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketError,
                               match=r"^L/H = 1e\+300 lies outside the range"):
                solve_Ttilde(np.float64(1e300))

    def test_caption_values(self):
        assert solve_Ttilde(1.0) / 2 == pytest.approx(0.3, abs=0.02)
        assert solve_Ttilde(3.0) / 2 == pytest.approx(0.25, abs=0.02)

    def test_positivity_identity(self):
        # (1/2)(x^2+1)^2 - 2x(x^2-1) = ((x^2-1)/sqrt2 - sqrt2 x)^2 >= 0
        rng = np.random.default_rng(1)
        for x in rng.uniform(1.0, 10.0, 50):
            lhs = 0.5 * (x * x + 1) ** 2 - 2 * x * (x * x - 1)
            rhs = ((x * x - 1) / math.sqrt(2) - math.sqrt(2) * x) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.fixture(scope="module", params=[1.0, 1.5, 2.0])
def sol(request):
    return build_crosstie(request.param, 1.0)


class TestConstruction:
    def test_tangency(self, sol):
        assert sol.tangency_mismatch < 1e-9

    def test_wall_residual(self, sol):
        assert sol.wall_balance < 1e-8

    def test_alpha_t1_range(self, sol):
        assert math.pi / 4 - 1e-12 <= sol.alpha * sol.t1_star <= math.pi / 2 + 1e-12

    def test_theta2_star_residual_at_roundoff(self, sol):
        # build_crosstie checks the same residual against 1e-8
        s2 = np.linspace(1e-9 * sol.T, sol.t1_star, 513)
        th = region2_theta_star(s2, sol.alpha, sol.L)
        assert region2_theta_star_residual(s2, th, sol.alpha, sol.L) < 1e-14

    def test_theta2_star_monotone(self, sol):
        s2 = np.linspace(1e-6, sol.t1_star * (1 - 1e-9), 512)
        th = region2_theta_star(s2, sol.alpha, sol.L)
        assert np.all(np.diff(th) > 0)
        assert th.max() <= math.pi / 4 + 1e-9

    def test_v2_negative_decreasing(self, sol):
        s2 = np.linspace(1e-6, sol.t1_star * (1 - 1e-9), 256)
        v2 = -np.sin(2 * region2_theta_star(s2, sol.alpha, sol.L)) / sol.L
        assert np.all(v2 < 0)
        assert np.all(np.diff(v2) < 0)

    def test_foliation_all_regions(self, sol):
        for fam in (sol.region1, sol.region2, sol.region3):
            rep = check_foliation(fam, 12, 12)
            assert rep.sign_consistent, fam.s_range
            assert rep.crossings == 0, fam.s_range

    def test_quarter_cell_area(self, sol):
        total = sum(family_area(f, s_panels=48, order=6)
                    for f in (sol.region1, sol.region2, sol.region3))
        assert total == pytest.approx(sol.T * sol.H, rel=1e-8)

    def test_interface_continuity(self, sol):
        # theta and v agree where families II and III meet
        th2_end = float(region2_theta_star(sol.t1_star, sol.alpha, sol.L))
        _, _, th3_seed, v3_end, _ = region3_seed(sol.T, sol.L)
        assert abs(th2_end - (math.pi / 2 - float(th3_seed))) < 1e-12
        v2_end = -math.sin(2 * th2_end) / sol.L
        assert v2_end == pytest.approx(float(v3_end), abs=1e-12)

    def test_divergence_negative_in_quarter(self, sol):
        s3 = np.linspace(1e-6, sol.T, 128)
        assert np.all(region3_seed(s3, sol.L)[3] < 0)


def test_wall_with_negated_divergence_fails_the_balance():
    """The balance is signed: a wall whose divergence traces have the wrong
    sign balances |L [v]| against 4 |u.nu| |u.tau| exactly, but not
    L [v] against 4 (u.nu) |u.tau|."""
    from dataclasses import replace
    sol = build_crosstie(1.5, 1.0)
    good = sol.wall_bottom
    bad = replace(good, div_fn=lambda arc: tuple(-v for v in good.div_fn(arc)))
    assert wall_balance(good, sol.L) < 1e-12
    assert wall_balance(bad, sol.L) > 0.1
    p = Params(L=sol.L, H=sol.H, T=sol.T)
    assert criticality_residuals(sol.field, p).wall_balance < 1e-12
    field = replace(sol.field, jumps=[sol.wall_left, bad])
    assert criticality_residuals(field, p).wall_balance > 0.1


def test_wrong_theta_star_fails_the_build(monkeypatch):
    """A theta* off by 1e-6 relative leaves wall_balance at roundoff (v is
    defined from theta*) but breaks theta*'s equation past 1e-8."""
    from nematic_walls import crosstie

    def perturbed(s2, alpha, L):
        return region2_theta_star(s2, alpha, L) * (1.0 + 1e-6)

    monkeypatch.setattr(crosstie, "region2_theta_star", perturbed)
    with pytest.raises(RuntimeError, match="theta\\* residual"):
        build_crosstie(1.2195, 1.0)


# crosstie_energy_per_length at its default rule, recorded with repr from
# the construction that solves region II's terminal angle once per node
# array, with the Gauss-Legendre rule of `quadrature.gauss_legendre` and
# T~ from the cancellation-free period equation
RECORDED_E0_PER_LENGTH = {
    1.0: 0.9715722202215549,
    1.2195: 1.0683670539455903,
    1.3: 1.0991311456421047,
    2.0: 1.3026329278717457,
}


@pytest.mark.parametrize("lh", sorted(RECORDED_E0_PER_LENGTH))
def test_gap_evaluation_solves_theta_star_twice(lh, monkeypatch):
    """With one seed call per family, E0 solves region II's terminal angle
    once, on its s-nodes and s +- ds stacked: 2 solves per gap evaluation
    with the left wall's, and the recorded energy bit for bit."""
    from nematic_walls import crosstie
    sizes = []

    def counted(s2, alpha, L):
        sizes.append(np.size(s2))
        return region2_theta_star(s2, alpha, L)

    monkeypatch.setattr(crosstie, "region2_theta_star", counted)
    e = crosstie_energy_per_length(build_crosstie(lh, 1.0))
    assert len(sizes) <= 2, sizes
    assert e == RECORDED_E0_PER_LENGTH[lh]


@pytest.mark.parametrize("lh", [0.6, 1.0, 1.2195, 2.0, 2.8])
def test_arrivals_land_on_the_left_wall(lh):
    """Region II's arcs end on x = 0, and the terminal region-III arc, seeded
    at the vortex, ends at (0, T), where the two families' knots meet."""
    sol = build_crosstie(lh, 1.0)
    x, _, _, _ = sol.region2.arrival(np.linspace(*sol.region2.s_range, 257))
    assert np.abs(x).max() <= 1e-14 * sol.T
    x, y, _, _ = sol.region3.arrival(sol.T)
    assert abs(x) <= 1e-13 and abs(y - sol.T) <= 1e-13


class TestEnergy:
    def test_scale_invariance(self):
        eA = crosstie_energy_per_length(build_crosstie(1.0, 0.5),
                                        s_panels=64, order=4)
        eB = crosstie_energy_per_length(build_crosstie(2.0, 1.0),
                                        s_panels=64, order=4)
        assert abs(eA - eB) < 1e-8

    def test_panel_doubling_converged(self):
        s = build_crosstie(1.5, 1.0)
        e1 = crosstie_energy_per_length(s, s_panels=64, order=4)
        e2 = crosstie_energy_per_length(s, s_panels=128, order=4)
        assert abs(e1 - e2) < 1e-7

    def test_crossing_interval_exists(self):
        # gap changes sign twice: the cross-tie beats the 1D branch on an
        # interval; at L/H = 0.5 the 1D profile wins
        s = build_crosstie(0.5, 1.0)
        gap_low = crosstie_energy_per_length(s, s_panels=64, order=4) \
            - min_energy_1d(0.5, 1, 0)
        assert gap_low > 0
        s = build_crosstie(1.5, 1.0)
        gap_mid = crosstie_energy_per_length(s, s_panels=64, order=4) \
            - min_energy_1d(1.5, 1, 0)
        assert gap_mid < 0
        s = build_crosstie(2.5, 1.0)
        gap_high = crosstie_energy_per_length(s, s_panels=64, order=4) \
            - min_energy_1d(2.5, 1, 0)
        assert gap_high > 0

    def test_find_crossing_coarse(self):
        L0, L1 = find_crossing(H=1.0, l_lo=1.1, l_hi=2.3, step=0.1,
                               s_panels=48, order=4,
                               refine_tol=1e-4)
        assert L0 is not None and L1 is not None
        assert 1.15 < L0 < 1.35
        assert 2.0 < L1 < 2.25


class TestRemarkMap:
    def test_sector_values(self):
        u1, u2 = remark_crosstie_map(0.0, 0.2)   # theta = pi/2 inside S
        assert (float(u1), float(u2)) == (1.0, -0.0) or (float(u1), float(u2)) == (1.0, 0.0)
        u1, u2 = remark_crosstie_map(0.3, 0.1)   # first sector
        s2 = 1 / math.sqrt(2)
        assert (float(u1), float(u2)) == (s2, -s2)

    def test_periodicity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, 100)
        y = rng.uniform(-3, 3, 100)
        a = remark_crosstie_map(x, y)
        b = remark_crosstie_map(x + 1.0, y)
        assert np.allclose(a, b, atol=1e-12)

    def test_jump_angle_on_horizontal_wall(self):
        u_above = np.array(remark_crosstie_map(0.2, 1e-12)).ravel()
        u_below = np.array(remark_crosstie_map(0.2, -1e-12)).ravel()
        jump = np.linalg.norm(u_above - u_below)
        assert jump == pytest.approx(math.sqrt(2), abs=1e-9)  # 2 sin(pi/4)

    def test_divergence_free_interfaces(self):
        # normal components match across every wall of the period cell
        for seg in remark_crosstie_field().jumps:
            jump_n = np.einsum("ik,ik->i", seg.trace_plus - seg.trace_minus,
                               seg.normals)
            assert np.abs(jump_n).max() < 1e-12

    def test_tail_integral_closed_form(self):
        # finite quadrature oracle over [Y, Y+400] vs the closed-form
        # difference of tails
        for Y in (0.5, 2.0, 8.0):
            quad = integrate(lambda y: (1 + 4 * y * y) ** -1.5, Y, Y + 400.0,
                             panels=4000, order=10)
            expect = remark_tail_integral(Y) - remark_tail_integral(Y + 400.0)
            assert expect == pytest.approx(quad, abs=1e-12)

    def test_energy_per_period(self):
        assert remark_crosstie_energy() == pytest.approx(4 / 3, abs=1e-8)


class TestFieldSample:
    def test_unit_and_covering(self):
        s = build_crosstie(1.5, 1.0)
        rng = np.random.default_rng(2)
        X = rng.uniform(-2 * s.T, 4 * s.T, 5000)
        Y = rng.uniform(-0.999, 0.999, 5000)
        u1, u2, v = crosstie_field_sample(s, X, Y)
        assert np.abs(np.hypot(u1, u2) - 1).max() < 1e-12
        assert np.isfinite(v).all()

    def test_top_boundary_data(self):
        s = build_crosstie(1.5, 1.0)
        x = np.linspace(0.01, 2 * s.T - 0.01, 50)
        u1, u2, _ = crosstie_field_sample(s, x, np.full_like(x, 0.9999999))
        assert np.abs(u1 - 1.0).max() < 1e-3
        assert np.abs(u2).max() < 1e-3

    @pytest.mark.parametrize("lh", [1.0, 1.25, 2.0])
    def test_roundtrip_region1_near_vortex_line(self, lh):
        """Arcs seeded d = T - s from x = T, mapped forward and back: the
        seed offset, u and v come back to roundoff down to d = 1e-10, and
        the line x = T itself, the vortex (T, 0) and (T, H) included, is
        the arc s = T."""
        s = build_crosstie(lh, 1.0)
        fam = s.region1
        for d in 10.0 ** -np.arange(2, 11):
            ss = np.full(9, s.T - d)
            tt = np.linspace(0.1, 0.9, 9) * fam.seed(ss)[4]
            x, y, th, v = fam.point(ss, tt)
            back = s.T - region1_seed_offset(x, y, s.T, s.H)
            assert np.abs(back - ss).max() <= 1e-12
            u1, u2, vv = crosstie_field_sample(s, x, y)
            assert np.abs(u1 - np.cos(th)).max() <= 1e-12
            assert np.abs(u2 - np.sin(th)).max() <= 1e-12
            assert np.abs(vv - v).max() <= 1e-12
        y = np.concatenate([[0.0, 1.0], np.linspace(0.05, 0.95, 19)]) * s.H
        x = np.full_like(y, s.T)
        assert np.all(region1_seed_offset(x, y, s.T, s.H) == 0.0)
        u1, u2, vv = crosstie_field_sample(s, x, y)
        assert np.all(u1 == 1.0) and np.all(u2 == 0.0) and np.all(vv == 0.0)

    def test_forward_roundtrip_region2(self):
        s = build_crosstie(1.27, 1.0)
        fam = s.region2
        rng = np.random.default_rng(5)
        ss = rng.uniform(1e-3 * s.t1_star, s.t1_star * 0.999, 300)
        tt = rng.uniform(0.05, 0.95, 300) * np.maximum(fam.seed(ss)[4], 0)
        x, y, th, v = fam.point(ss, tt)
        ok = (x >= 0) & (x <= s.T) & (y >= 0) & (y <= s.H)
        from nematic_walls.crosstie import _quarter_eval_batch
        th2, vv = _quarter_eval_batch(s, x[ok], y[ok])
        assert np.abs(vv - v[ok]).max() < 1e-8


def test_theta_continuous_v_jumps_across_gamma():
    """Across family I's terminal characteristic the angle traces agree
    exactly (region II is seeded with region I's angle along Gamma) while
    the divergence jumps.  The theta FIELD leaves Gamma with a sqrt cusp
    (tangential departure), so finite-offset probes differ by O(sqrt(d))."""
    from nematic_walls.crosstie import _quarter_eval_batch
    s = build_crosstie(1.5, 1.0)
    alpha, H = s.alpha, s.H
    taus = np.linspace(0.15, 0.85, 9) * s.t1_star
    # construction traces: seed angle of family II equals Gamma's angle
    _, _, th0, _, _ = s.region2.seed(taus)
    assert np.abs(th0 - alpha * taus).max() == 0.0
    x0 = (1 - np.cos(alpha * taus)) / alpha
    y0 = H - np.sin(alpha * taus) / alpha
    nx = x0 - 1 / alpha
    ny = y0 - H
    nn = np.hypot(nx, ny)
    nx, ny = nx / nn, ny / nn
    diffs = []
    for d in (3e-4, 12e-4):
        thI, vI = _quarter_eval_batch(s, x0 - d * nx, y0 - d * ny)
        thII, vII = _quarter_eval_batch(s, x0 + d * nx, y0 + d * ny)
        assert np.abs(vI - vII).min() > 0.05   # genuine divergence jump
        diffs.append(np.abs(thI - thII).max())
    # sqrt(d) scaling: quadrupling d roughly doubles the angle gap
    assert diffs[1] < 3.0 * diffs[0]
    assert diffs[0] < 0.05


def _cell_points(sol):
    """A 96 x 129 node lattice of the period cell (the construct
    benchmark's), then points on its edges, its seams x = 0, T, 2T and
    y = 0 (both signs of zero), and a period away."""
    T, H = sol.T, sol.H
    X, Y = np.meshgrid(np.arange(96) * (2 * T / 96),
                       -H + np.arange(129) * (2 * H / 128), indexing="ij")
    s = np.linspace(0.1, 0.9, 5)
    x = np.concatenate([X.ravel(), 0 * s, T + 0 * s, 2 * T + 0 * s,
                        2 * T * s, 2 * T * s, 2 * T * s - 2 * T,
                        2 * T * s + 4 * T, T * s])
    y = np.concatenate([Y.ravel(), H * s, -H * s, H * s, 0.0 * s,
                        -0.0 * s, H * s, -H * s, H + 0 * s])
    return x, y


def test_sample_folds_as_float_sign_arrays(sol):
    """The fold by boolean masks, undone in place, gives the bits of the
    fold by float sign arrays and np.where copies."""
    T, H = sol.T, sol.H
    x, y = _cell_points(sol)
    x = np.mod(x, 2 * T)
    f1, f2 = np.where(y < 0, -1.0, 1.0), np.where(x > T, -1.0, 1.0)
    theta, v = _quarter_eval_batch(sol, np.where(x > T, 2 * T - x, x),
                                   np.minimum(np.abs(y), H))
    expected = (np.cos(theta) * f1, np.sin(theta) * f2, v * f1 * f2)
    got = crosstie_field_sample(sol, *_cell_points(sol))
    for a, b in zip(got, expected):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_sample_solves_theta_star_on_its_points_only(sol, monkeypatch):
    """theta* of region II's last arc, seeded at the vortex, is solved once
    per build, to the floats a scalar solve gives; a sample call solves
    theta* only at its points' feet."""
    from nematic_walls import crosstie
    assert sol.theta_star_end == region2_theta_star(sol.t1_star, sol.alpha,
                                                    sol.L)
    sizes = []

    def counted(s2, alpha, L):
        sizes.append(np.size(s2))
        return region2_theta_star(s2, alpha, L)

    monkeypatch.setattr(crosstie, "region2_theta_star", counted)
    x, y = _cell_points(sol)
    u1, _, _ = crosstie_field_sample(sol, x, y)
    assert np.isfinite(u1).all()
    assert len(sizes) == 1 and sizes[0] < x.size
