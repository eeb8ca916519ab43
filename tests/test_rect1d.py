import math

import numpy as np
import pytest

from nematic_walls.core import RECTANGLE, Params
from nematic_walls.energy import eval_E0_1d, eval_E_eps
from nematic_walls.rect1d import (min_energy_1d, minimizer_profile,
                                  recovery_profile_1d, solve_M,
                                  wall_height_objective)
from oracles import energy_1d


class TestSolveM:
    def test_a0_closed_form(self):
        for ratio in np.linspace(0.1, 1.9, 10):
            assert solve_M(ratio, 1.0, 0.0) == pytest.approx(
                math.sqrt(1 - ratio ** 2 / 4), abs=1e-15)

    def test_a0_step_branch(self):
        assert solve_M(3.0, 1.0, 0.0) == 0.0
        assert min_energy_1d(3.0, 1.0, 0.0) == 4 / 3

    def test_tie_at_two(self):
        # both branches give 4/3 at L/H = 2
        tent = 2.0 - 8.0 / 12.0
        assert tent == pytest.approx(4 / 3, abs=1e-15)
        assert min_energy_1d(2.0, 1.0, 0.0) == pytest.approx(4 / 3, abs=1e-12)

    def test_dense_scan_oracle(self):
        L, H, a = 1.0, 1.0, 0.3
        ms = np.linspace(a, 1.0, 10 ** 6)
        scan_min = ms[np.argmin(wall_height_objective(ms, L, H, a))]
        M = solve_M(L, H, a)
        assert abs(M - scan_min) < 2e-6
        # interior stationarity to 1e-12
        assert abs(2 * (L / H) * (M - a)
                   - 4 * M * math.sqrt(1 - M * M)) < 1e-12

    def test_uniqueness_of_stationary_point(self):
        # f' changes sign exactly once on (a, 1) for a > 0
        for (L, H, a) in [(1.0, 1.0, 0.3), (0.5, 1.0, 0.1), (4.0, 1.0, 0.6)]:
            ms = np.linspace(a + 1e-6, 1 - 1e-9, 20001)
            fp = 2 * (L / H) * (ms - a) - 4 * ms * np.sqrt(1 - ms ** 2)
            changes = np.count_nonzero(np.sign(fp[:-1]) != np.sign(fp[1:]))
            assert changes == 1

    def test_energy_formula_identity(self):
        # (L/H) M^2 + (4/3)(1-M^2)^(3/2) == L/H - (1/12)(L/H)^3 at a = 0
        for ratio in np.linspace(0.1, 1.9, 19):
            M = math.sqrt(1 - ratio ** 2 / 4)
            lhs = ratio * M * M + (4 / 3) * (1 - M * M) ** 1.5
            assert lhs == pytest.approx(ratio - ratio ** 3 / 12, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.3, 0.8, 1.2195, 1.6, 1.9, 2.5])
    def test_bulk_over_lambda_is_the_energy_slope(self, lam):
        """At a = 0 the minimum's bulk term lam M^2, divided by lam, is
        d/dlam of min_energy_1d: M^2 = 1 - lam^2/4 = (lam - lam^3/12)'
        below lam = 2, and both are 0 on the step branch above it.  A
        central difference of step h is off by h^2/12 (the third
        derivative is -1/2) plus roundoff."""
        h = 1e-4
        slope = 1 - lam ** 2 / 4 if lam < 2 else 0.0
        bulk = solve_M(lam, 1.0, 0.0) ** 2
        fd = (min_energy_1d(lam + h, 1.0, 0.0)
              - min_energy_1d(lam - h, 1.0, 0.0)) / (2 * h)
        assert abs(bulk - slope) <= 1e-12
        assert abs(fd - bulk) <= h * h / 12 + 1e-11
        if lam > 2:
            assert bulk == 0.0 and fd == 0.0


class TestMinimizerProfile:
    def test_energy_matches_closed_form(self):
        for (L, H, a) in [(1.0, 1.0, 0.0), (1.0, 1.0, 0.3), (0.7, 2.0, 0.15),
                          (3.0, 1.0, 0.0)]:
            prof = minimizer_profile(L, H, a)
            eb = eval_E0_1d(prof, Params(L=L, H=H, a=a))
            assert eb.total == pytest.approx(min_energy_1d(L, H, a), abs=1e-12)

    def test_single_jump_at_zero(self):
        prof = minimizer_profile(1.0, 1.0, 0.3)
        assert prof.jumps == [0.0]
        assert prof.u2(0.0) == prof.M  # continuous peak from both sides

    def test_u1_sign_flip(self):
        prof = minimizer_profile(1.0, 1.0, 0.3)
        assert prof.u1(-0.5) < 0 < prof.u1(0.5)


class TestRecoveryProfile:
    def test_gap_ladder_decreases(self):
        L = H = 1.0
        E0 = 11 / 12
        gaps = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            prof = recovery_profile_1d(eps, L, H, 0.0, int(40 * H / eps))
            eb = eval_E_eps(prof, Params(L=L, H=H, a=0.0, eps=eps))
            gaps.append(eb.total - E0)
        assert gaps[0] > gaps[1] > gaps[2] > 0
        # the proof's construction carries an O(eps) overhead with constant
        # ~3.8 here; 5% at eps = 1e-2 is the measured-achievable bound
        assert gaps[0] < 0.05 * E0

    def test_wall_cost_isolated(self):
        # step profile with a vanishing divergence penalty isolates the
        # heteroclinic cost (4/3)(1 - u2(0)^2)^(3/2) = 4/3
        eps = 1e-3
        prof = recovery_profile_1d(eps, 1e-12, 1.0, 0.0, 40000, M=0.0)
        eb = eval_E_eps(prof, Params(L=1e-12, eps=eps, H=1.0, a=0.0))
        assert eb.total == pytest.approx(4 / 3, rel=0.01)

    def test_boundary_conditions_exact(self):
        # the Dirichlet lines y = -+H, in every node column
        u = recovery_profile_1d(1e-2, 1.0, 1.0, 0.3, 4000).values
        s = math.sqrt(1 - 0.09)
        assert np.all(u[:, 0, 0] == -s) and np.all(u[:, -1, 0] == s)
        assert np.all(u[:, [0, -1], 1] == 0.3)

    @pytest.mark.parametrize("eps, L, a, n, M", [
        (1e-2, 1.0, 0.0, 4000, None),
        (5e-3, 1.0, 0.3, 8000, None),
        (2e-3, 1e-15, 0.0, 20000, 0.0),
    ], ids=["a0", "a0.3", "pure-wall"])
    def test_energy_matches_1d_oracle(self, eps, L, a, n, M):
        """eval_E_eps of the x-independent field on the unit-length cell is
        the 1D midpoint/trapezoid energy per length of its profile."""
        H = 1.0
        f = recovery_profile_1d(eps, L, H, a, n, M=M)
        g = f.grid
        assert g.kind == RECTANGLE and g.extents == (0.0, 1.0, -H, H)
        assert np.all(f.values == f.values[:1])
        p = Params(L=L, H=H, a=a, eps=eps)
        ref = energy_1d(np.linspace(-H, H, n), f.values[0], p).total
        assert eval_E_eps(f, p).total == pytest.approx(ref, rel=1e-14, abs=0)

    def test_under_resolution_rejected(self):
        with pytest.raises(ValueError, match="under-resolved"):
            recovery_profile_1d(1e-3, 1.0, 1.0, 0.0, 100)
