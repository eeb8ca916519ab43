import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from nematic_walls.characteristics import check_foliation
from nematic_walls.core import (POLAR, Params, disc_inner_cutoff, make_grid,
                                sample_analytic)
from nematic_walls.disc import (_octant_eval_batch, build_deg_minus_one,
                                deg_minus_one_sample, hedgehog_energy,
                                hedgehog_solution, region2_v0, region3_v0,
                                tangential_solution)
from nematic_walls.energy import (criticality_residuals, eval_E0_piecewise,
                                  family_bulk_integral, node_divergence)
from oracles import family_area

R, L = 0.6, 0.5


@pytest.fixture(scope="module")
def sol():
    return build_deg_minus_one(R, L)


class TestTangential:
    def test_zero_energy_exact(self):
        eb = eval_E0_piecewise(tangential_solution(), Params(L=1.0))
        assert eb.total == 0.0

    def test_characteristics_are_radii(self):
        fam = tangential_solution().families[0]
        x, y, th, v = fam.point(np.asarray(0.3), np.asarray(0.5))
        # marching inward along the radius through angle 0.3
        assert np.all(v == 0.0)
        assert math.hypot(float(x), float(y)) == pytest.approx(0.5, abs=1e-14)
        assert math.atan2(float(y), float(x)) == pytest.approx(0.3, abs=1e-14)

    def test_transport_residual_zero(self):
        rep = criticality_residuals(tangential_solution(), Params(L=1.0))
        assert rep.bulk_transport == 0.0


class TestHedgehog:
    def test_energy_both_routes(self):
        for Lval in (0.5, 1.0, 2.0):
            closed = hedgehog_energy(Lval)
            assert closed == 2 * math.pi * Lval
            eb = eval_E0_piecewise(hedgehog_solution(+1), Params(L=Lval),
                                   s_panels=32, order=16)
            assert abs(eb.total - closed) < 1e-8

    def test_unit_modulus(self):
        sol = hedgehog_solution(-1)
        rng = np.random.default_rng(0)
        r = np.sqrt(rng.uniform(1e-4, 1.0, 50))
        phi = rng.uniform(0, 2 * math.pi, 50)
        u1, u2, v = sol.sample(r * np.cos(phi), r * np.sin(phi))
        assert np.abs(np.hypot(u1, u2) - 1.0).max() <= 1e-14
        assert np.all(v == 2.0)

    @pytest.mark.parametrize("nr,ny", [(384, 1536), (768, 3072)])
    def test_numerical_divergence_two(self, nr, ny):
        # central differences of the sampled field approach div = 2 at
        # second order; the angular coefficient sqrt(1-r^2) steepens near
        # the rim, so the check stays in the middle of the disc
        g = make_grid("polar", (0.05, 0.8), nr, ny)

        def f(X, Y):
            r = np.hypot(X, Y)
            q = np.sqrt(np.maximum(1 - r ** 2, 0.0))
            return X + q * (-Y / r), Y + q * (X / r)

        fld = sample_analytic(g, f)
        div = node_divergence(fld)
        rs, _ = g.axes()
        mask = (rs >= 0.1) & (rs <= 0.55)
        err = np.abs(div[mask, :] - 2.0).max()
        assert err < 4e-6
        if nr == 768:
            assert err < 1e-6


class TestRegionSolvers:
    def test_region3_small_s_limit(self):
        assert region3_v0(1e-9, L) == pytest.approx(-1 / L, abs=1e-12)
        assert abs(region3_v0(1e-4, L) + 1 / L) < 1e-3

    def test_region3_bound_at_s0(self):
        s0 = (math.sqrt(2) - 1) * R
        assert region3_v0(s0, L) > -1 / R

    def test_region3_scan_oracle(self):
        s = 0.1
        ps = np.linspace(-1 / L, 0.0, 10 ** 6)
        F = (1 - s * ps) ** 2 - np.sqrt(np.maximum(1 - (L * ps) ** 2, 0)) - 1
        k = np.nonzero(np.sign(F[:-1]) != np.sign(F[1:]))[0][0]
        root = region3_v0(s, L)
        assert ps[k] - 1e-6 <= root <= ps[k + 1] + 1e-6
        assert abs((1 - s * root) ** 2
                   - math.sqrt(1 - (L * root) ** 2) - 1) < 1e-12

    def test_region2_endpoint_sign(self):
        # F(0) = 2 sin^2(s/R + pi/4) - 2 = -2 cos^2(s/R + pi/4) < 0
        for s in (0.05, 0.2, 0.4):
            arg = s / R + math.pi / 4
            F0 = 2 * math.sin(arg) ** 2 - 2.0
            assert F0 == pytest.approx(-2 * math.cos(arg) ** 2, abs=1e-12)
            assert F0 < 0
        # the solver asserts the bracket signs internally
        region2_v0(np.array([0.05, 0.2, 0.4]) / R, L / R)

    def test_region2_scan_oracle(self):
        s = 0.2
        q = min(1 / R, 1 / L)
        ps = np.linspace(-q, 0.0, 10 ** 6)
        sinf = math.sin(s / R + math.pi / 4)
        A = math.sqrt(2) * ((R * ps + 1) * sinf - R * ps)
        F = A * A - np.sqrt(np.maximum(1 - (L * ps) ** 2, 0)) - 1
        k = np.nonzero(np.sign(F[:-1]) != np.sign(F[1:]))[0][0]
        root = region2_v0(s / R, L / R) / R
        assert abs(root - ps[k]) < 1e-5
        Aroot = math.sqrt(2) * ((R * root + 1) * sinf - R * root)
        assert abs(Aroot ** 2 - math.sqrt(1 - (L * root) ** 2) - 1) < 1e-10

    def test_monotone_v0(self):
        s3 = np.linspace(1e-4, (math.sqrt(2) - 1) * R, 512)
        v3 = region3_v0(s3, L)
        assert np.all(np.diff(v3) > 0)
        s2 = np.linspace(1e-4, math.pi * R / 4 * (1 - 1e-6), 512)
        v2 = region2_v0(s2 / R, L / R)
        assert np.all(np.diff(v2) > 0)


class TestConstruction:
    def test_terminal_characteristic_foot(self, sol):
        assert sol.s0 == pytest.approx((math.sqrt(2) - 1) * R, abs=0)

    def test_region1_arcs_radius_R(self, sol):
        # arcs of curvature -1/R centred on the x-axis; the family is the
        # unit disc's, mapped by the field's scale R
        fam, k = sol.region1, sol.field.scale
        s = 0.45
        ts = float(fam.seed(s / R)[4])
        x, y, _, v = fam.point(np.full(9, s / R), np.linspace(0, ts, 9))
        x, y = k * x, k * y
        assert np.all(v / k == -1 / R)
        cx = s + R
        assert np.abs(np.hypot(x - cx, y) - R).max() < 1e-12

    def test_divergence_bounded(self, sol):
        s3 = np.linspace(0, sol.s0, 257)
        v3 = region3_v0(s3, L)
        assert np.all(v3 >= -1 / L - 1e-12)
        assert np.all(v3 <= 0.0)

    def test_natural_bc_residual(self, sol):
        assert sol.wall_balance < 1e-8

    @pytest.mark.parametrize("Lval", [0.09, 0.18, 0.475, 0.72, 0.87])
    def test_builds_at_rounding_prone_L(self, Lval):
        # at these L, 1 - (L * (-1/L))^2 evaluates to 2.2e-16, not 0
        assert build_deg_minus_one(R, Lval).wall_balance < 1e-8

    def test_wall_balance_residual(self, sol):
        rep = criticality_residuals(sol.field, Params(L=L, R=R))
        assert rep.wall_balance < 1e-8
        assert rep.wall_stationarity == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("Lval", [0.1, 0.3, 0.5, 0.7])
    def test_arrivals_land_on_the_diagonal(self, Lval):
        """Regions III and II end on the wall y = x, whose knots are their
        arrivals."""
        s = build_deg_minus_one(R, Lval)
        for fam in (s.region3, s.region2):
            x, y, _, _ = fam.arrival(np.linspace(*fam.s_range, 257))
            assert np.abs(x - y).max() <= 1e-13 * R

    def test_foliation_all_regions(self, sol):
        for fam in (sol.region1, sol.region2, sol.region3):
            rep = check_foliation(fam, 12, 12)
            assert rep.sign_consistent, fam.s_range
            assert rep.crossings == 0, fam.s_range

    def test_octant_area(self, sol):
        total = sum(family_area(f, s_panels=32)
                    for f in (sol.region1, sol.region2, sol.region3))
        total *= sol.field.scale ** 2
        assert total == pytest.approx(math.pi * R * R / 8, abs=2e-6)

    def test_energy_increasing_in_L(self):
        Es = []
        for Lval in np.linspace(0.1, 0.7, 7):
            s = build_deg_minus_one(R, Lval, n_wall=256)
            eb = eval_E0_piecewise(s.field, Params(L=Lval, R=R),
                                   s_panels=24)
            Es.append(eb.total)
        assert all(a < b for a, b in zip(Es, Es[1:]))

    def test_bulk_vs_pointwise_oracle(self, sol):
        # independent route: Monte-Carlo of v^2 with pointwise region
        # dispatch vs the characteristic-coordinate quadrature
        quad = 0.0
        for fam in (sol.region1, sol.region2, sol.region3):
            quad += family_bulk_integral(fam, s_panels=48, order=6)
        r = np.sqrt(np.random.default_rng(0).uniform(0, R * R, 200000))
        phi = np.random.default_rng(1).uniform(0, math.pi / 4, 200000)
        _, _, vmc = deg_minus_one_sample(sol, r * np.cos(phi) * (1 - 1e-12),
                                         np.minimum(r * np.sin(phi),
                                                    r * np.cos(phi)) * (1 - 1e-12))
        mc = float(np.mean(vmc ** 2)) * math.pi * R * R / 8
        assert quad == pytest.approx(mc, rel=5e-3)


class TestFieldEval:
    def test_positive_x_axis(self, sol):
        u1, u2, v = sol.field.sample(0.3, 0.0)
        assert (u1, u2) == (1.0, 0.0)

    def test_boundary_data(self, sol):
        for psi in (0.1, 0.7, 2.0, -1.2):
            x = R * math.cos(psi) * (1 - 1e-13)
            y = R * math.sin(psi) * (1 - 1e-13)
            u1, u2, _ = sol.field.sample(x, y)
            assert u1 == pytest.approx(math.cos(psi), abs=1e-9)
            assert u2 == pytest.approx(-math.sin(psi), abs=1e-9)

    def test_theta_range_in_octant(self, sol):
        """Octant points get angles in [-pi/4, 0], at L = 0.1 and 0.3 too,
        where region-III circles also pass octant points past their arcs'
        end, with angles below -pi/4, which the sampler must not pick."""
        rng = np.random.default_rng(1)
        r = np.sqrt(rng.uniform(1e-4, R * R * 0.9999, 500))
        psi = rng.uniform(1e-3, math.pi / 4 - 1e-3, 500)
        for s in (sol, build_deg_minus_one(R, 0.1), build_deg_minus_one(R, 0.3)):
            u1, u2, _ = deg_minus_one_sample(s, r * np.cos(psi),
                                             r * np.sin(psi))
            th = np.arctan2(u2, u1)
            assert th.min() >= -math.pi / 4 - 1e-9, s.L
            assert th.max() <= 1e-9, s.L

    def test_symmetries(self, sol):
        x, y = 0.31, 0.17
        u, um, uy, ud = np.transpose(sol.field.sample(np.array([x, x, -x, y]),
                                                      np.array([y, -y, y, x])))
        # mirrors about the axes keep v; the wall reflection flips it
        assert np.allclose(um, (u[0], -u[1], u[2]), atol=1e-9)
        assert np.allclose(uy, (-u[0], u[1], u[2]), atol=1e-9)
        assert np.allclose(ud, (-u[1], -u[0], -u[2]), atol=1e-9)

    def test_jump_traces(self, sol):
        # samples 1e-11 either side of the wall y = x: the octant side (+)
        # and its reflection (-) share the normal component, and v flips
        u1, u2, v = sol.field.sample(0.2, np.array([0.2 - 1e-11, 0.2 + 1e-11]))
        nu = np.array([-1.0, 1.0]) / math.sqrt(2)
        assert abs((u1[0] - u1[1]) * nu[0] + (u2[0] - u2[1]) * nu[1]) < 1e-8
        assert v[0] == pytest.approx(-v[1], abs=1e-8)

    def test_forward_map_roundtrip(self, sol):
        rng = np.random.default_rng(5)
        for fam in (sol.region1, sol.region2, sol.region3):
            s_lo, s_hi = fam.s_range
            ss = rng.uniform(s_lo + 1e-3 * (s_hi - s_lo),
                             s_hi - 1e-3 * (s_hi - s_lo), 200)
            tt = rng.uniform(0.1, 0.9, 200) * np.maximum(fam.seed(ss)[4], 0)
            x, y, th, v = fam.point(ss, tt)
            k = sol.field.scale
            x, y, v = k * x, k * y, v / k
            ok = (y >= 1e-9) & (y <= x * (1 - 1e-12)) \
                & (x ** 2 + y ** 2 <= R * R * (1 - 1e-10))
            u1, u2, vv = deg_minus_one_sample(sol, x[ok], y[ok])
            assert np.abs(vv - v[ok]).max() < 1e-8


def test_built_solution_is_freed_without_the_cyclic_collector():
    """The sampler holds a copy of the solution, not the solution itself,
    so a built solution sits in no reference cycle and dies on del."""
    gc.disable()
    try:
        built = build_deg_minus_one(R, L)
        ref = weakref.ref(built)
        u1, _, _ = built.field.sample(np.array([0.3]), np.array([0.1]))
        assert np.isfinite(u1).all()
        del built
        assert ref() is None
    finally:
        gc.enable()


def _fold_points():
    """The construct benchmark's 129 x 256 disc grid, then points on the
    axes (both signs of zero) and on both diagonals."""
    grid = make_grid(POLAR, (disc_inner_cutoff(R), R), 128, 256)
    X, Y = grid.nodes_xy()
    r = np.linspace(0.05, 0.55, 5)
    d = r / math.sqrt(2.0)
    x = np.concatenate([X.ravel(), r, -r, 0.0 * r, -0.0 * r, d, -d, d, -d])
    y = np.concatenate([Y.ravel(), 0.0 * r, -0.0 * r, r, -r, d, d, -d, -d])
    return x, y


def test_sample_folds_as_float_sign_arrays(sol):
    """The fold by boolean masks, undone in place, gives the bits of the
    fold by float sign arrays and np.where copies."""
    x, y = _fold_points()
    sx, sy = np.where(y < 0, -1.0, 1.0), np.where(x < 0, -1.0, 1.0)
    ax, ay = np.abs(x), np.abs(y)
    diag = ay > ax
    u1o, u2o, vo = _octant_eval_batch(sol, np.where(diag, ay, ax) / R,
                                      np.where(diag, ax, ay) / R)
    expected = (np.where(diag, -u2o, u1o) * sy, np.where(diag, -u1o, u2o) * sx,
                np.where(diag, -vo, vo) / R)
    for got, want in zip(deg_minus_one_sample(sol, x, y), expected):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sample_peak_memory_per_point():
    """Sampling the construct benchmark's 129 x 256 grid holds at most 13.0
    float64 values per point at its tracemalloc peak (12.40 measured at L
    = 0.1, the benchmark's worst L; 22.8 with float sign arrays and
    8192-point root solves)."""
    grid = make_grid(POLAR, (disc_inner_cutoff(R), R), 128, 256)
    X, Y = grid.nodes_xy()
    built = build_deg_minus_one(R, 0.1)
    deg_minus_one_sample(built, X[:1], Y[:1])
    tracemalloc.start()
    try:
        deg_minus_one_sample(built, X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * X.size) <= 13.0


def test_sample_solves_no_seam_constant(sol, monkeypatch):
    """Region III's terminal arc, the seam the sampler tests points against,
    is solved once per build, to the floats a per-call solve gives."""
    from nematic_walls import disc
    mu0 = math.sin(float(disc._region3_phi(math.sqrt(2.0) - 1.0, L / R)))
    assert sol.mu0 == mu0
    assert sol.v_end == float(disc.region3_seed_of_mu(mu0, L / R)[3])
    monkeypatch.setattr(disc, "_region3_phi", None)
    u1, _, _ = deg_minus_one_sample(sol, *_fold_points())
    assert np.isfinite(u1).all()
