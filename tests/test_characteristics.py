import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nematic_walls.characteristics import (CharacteristicArc,
                                           CharacteristicFamily, NoConvergence,
                                           arc_jacobian, arc_point,
                                           arc_tangent_normal, arc_xy,
                                           check_foliation, family_jacobian,
                                           invert_family, invert_family_batch,
                                           pchip)


def rk4_arc(x0, y0, th0, v0, t_end, h=1e-4):
    """Independent oracle: integrate (x', y') = (-sin th, cos th), th' = v0."""
    state = np.array([x0, y0, th0], dtype=float)

    def f(s):
        return np.array([-math.sin(s[2]), math.cos(s[2]), v0])

    n = max(int(round(t_end / h)), 1)
    h = t_end / n
    for _ in range(n):
        k1 = f(state)
        k2 = f(state + 0.5 * h * k1)
        k3 = f(state + 0.5 * h * k2)
        k4 = f(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


class TestArcPoint:
    def test_identity_at_t0(self):
        arc = CharacteristicArc(0.3, -0.2, 0.7, -1.3, t_max=2.0)
        assert arc_point(arc, 0.0) == (0.3, -0.2, 0.7, -1.3)

    def test_straight_line(self):
        arc = CharacteristicArc(0.0, 0.0, 0.0, 0.0, t_max=2.0)
        x, y, th, v = arc_point(arc, 1.0)
        assert (x, y, th, v) == (0.0, 1.0, 0.0, 0.0)

    def test_rk4_oracle(self):
        arc = CharacteristicArc(0.0, 0.0, 0.0, -0.5, t_max=math.pi)
        x, y, th, _ = arc_point(arc, math.pi)
        ox, oy, oth = rk4_arc(0.0, 0.0, 0.0, -0.5, math.pi)
        assert abs(x - ox) < 1e-10
        assert abs(y - oy) < 1e-10
        assert abs(th - oth) < 1e-10

    def test_threshold_continuity(self):
        # at |v0| = 1e-8 the arc agrees with the straight line to 1e-9
        # (deviation |v0| t^2 / 2; the sinc evaluation is cancellation-free
        # so there is no loss approaching v0 = 0)
        t = 0.4
        arc = CharacteristicArc(0.1, 0.2, 0.5, 1e-8, t_max=1.0)
        x, y, _, _ = arc_point(arc, t)
        assert abs(x - (0.1 - t * math.sin(0.5))) < 1e-9
        assert abs(y - (0.2 + t * math.cos(0.5))) < 1e-9
        arc0 = CharacteristicArc(0.1, 0.2, 0.5, 0.0, t_max=1.0)
        x0, y0, _, _ = arc_point(arc0, t)
        assert x0 == 0.1 - t * math.sin(0.5)
        assert y0 == 0.2 + t * math.cos(0.5)

    def test_range_checked(self):
        arc = CharacteristicArc(0, 0, 0, 1.0, t_max=1.0)
        with pytest.raises(ValueError, match="range"):
            arc_point(arc, 1.5)

    def test_conservation_along_arc(self):
        # theta - theta0 = v0 t and v = v0 exactly at sampled t
        arc = CharacteristicArc(0.2, 0.1, -0.4, 0.83, t_max=3.0)
        t = np.linspace(0, 3, 17)
        _, _, th, v = arc_point(arc, t)
        assert np.array_equal(th, -0.4 + 0.83 * t)
        assert np.all(v == 0.83)


class TestTangentNormal:
    def test_vertical_at_zero(self):
        arc = CharacteristicArc(0, 0, 0.0, 0.7, t_max=1.0)
        tau, nu = arc_tangent_normal(arc, 0.0)
        assert np.allclose(tau, [0.0, 1.0], atol=0)
        assert np.allclose(nu, [1.0, 0.0], atol=0)

    def test_orthogonal_to_director(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            arc = CharacteristicArc(*rng.normal(size=2), rng.uniform(-3, 3),
                                    rng.uniform(-2, 2), t_max=2.0)
            t = rng.uniform(0, 2)
            tau, nu = arc_tangent_normal(arc, t)
            _, _, th, _ = arc_point(arc, t)
            u = np.array([math.cos(th), math.sin(th)])
            assert abs(float(tau @ u)) < 1e-15
            assert np.allclose(nu, u, atol=0)

    def test_deg_minus_one_axis_foot_perpendicular(self):
        # arcs seeded on the x-axis leave it orthogonally
        from nematic_walls.disc import build_deg_minus_one
        sol = build_deg_minus_one(0.6, 0.5)
        arc = sol.region1.arc_at(0.3)
        tau, _ = arc_tangent_normal(arc, 0.0)
        assert abs(tau[0]) < 1e-14 and abs(abs(tau[1]) - 1.0) < 1e-14


def lines_family():
    def seed(s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return (s, z, z, z)

    return CharacteristicFamily(
        seed=seed, s_range=(0.0, 1.0),
        t_star=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        label="parallel lines")


def curved_family():
    def seed(s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return (s, z, z, -0.5 - 0.3 * s)

    return CharacteristicFamily(
        seed=seed, s_range=(0.2, 1.0),
        t_star=lambda s: 0.8 * np.ones_like(np.asarray(s, dtype=float)))


class TestInversion:
    def test_seed_point(self):
        fam = lines_family()
        s, t = invert_family(fam, 0.4, 0.0)
        assert abs(s - 0.4) < 1e-10 and abs(t) < 1e-10

    def test_roundtrip(self):
        fam = curved_family()
        rng = np.random.default_rng(1)
        for _ in range(10):
            s0 = rng.uniform(0.25, 0.95)
            t0 = rng.uniform(0.05, 0.75)
            x, y, _, _ = fam.point(np.asarray(s0), np.asarray(t0))
            s, t = invert_family(fam, float(x), float(y))
            assert abs(s - s0) < 1e-9 and abs(t - t0) < 1e-9

    def test_outside_region_raises(self):
        fam = lines_family()
        with pytest.raises(NoConvergence):
            invert_family(fam, 5.0, -3.0)

    def test_batch(self):
        fam = curved_family()
        rng = np.random.default_rng(2)
        s0 = rng.uniform(0.25, 0.95, 50)
        t0 = rng.uniform(0.05, 0.75, 50)
        x, y, _, _ = fam.point(s0, t0)
        s, t, ok = invert_family_batch(fam, x, y)
        assert ok.all()
        assert np.abs(s - s0).max() < 1e-9


class TestJacobian:
    def test_parallel_lines_unit(self):
        J, v = family_jacobian(lines_family(), 0.5, 0.3)
        assert J == pytest.approx(1.0, abs=1e-9) and v == 0.0

    def test_arclength_seed_unit_speed(self):
        # the wedge family's seed curve is arclength-parametrized
        from nematic_walls.crosstie import build_crosstie
        sol = build_crosstie(1.0, 1.0)
        fam = sol.region2
        h = 1e-6
        for s in (0.2, 0.5, 0.9):
            xp, yp, _, _ = fam.point(np.asarray(s + h), np.asarray(0.0))
            xm, ym, _, _ = fam.point(np.asarray(s - h), np.asarray(0.0))
            speed = math.hypot(float(xp - xm), float(yp - ym)) / (2 * h)
            assert speed == pytest.approx(1.0, abs=1e-8)

    def test_fd_oracle(self):
        fam = curved_family()

        def fd_jac(s, t, h=1e-5):
            xp, yp, _, _ = fam.point(np.asarray(s + h), np.asarray(t))
            xm, ym, _, _ = fam.point(np.asarray(s - h), np.asarray(t))
            xt, yt, _, _ = fam.point(np.asarray(s), np.asarray(t + h))
            xtm, ytm, _, _ = fam.point(np.asarray(s), np.asarray(t - h))
            return float((xp - xm) * (yt - ytm) - (xt - xtm) * (yp - ym)) / (4 * h * h)

        rng = np.random.default_rng(3)
        for _ in range(10):
            s = rng.uniform(0.25, 0.95)
            t = rng.uniform(0.05, 0.75)
            assert abs(family_jacobian(fam, s, t)[0] - fd_jac(s, t)) < 1e-6

    def test_column_s_broadcasts_against_t_grid(self):
        fam = curved_family()
        s = np.linspace(0.25, 0.95, 5)
        t = np.linspace(0.05, 0.75, 7)
        J, v = family_jacobian(fam, s[:, None], t[None, :])
        S, T_ = np.meshgrid(s, t, indexing="ij")
        J2, v2 = family_jacobian(fam, S, T_)
        assert J.shape == (5, 7) and v.shape == (5, 1)
        assert np.array_equal(J, J2) and np.array_equal(v[:, 0], v2[:, 0])


# seeds quadratic in s: x0, y0, theta0, v0 = c0 + c1 s + c2 s^2
_coef = st.floats(-2.0, 2.0)
_quad = st.tuples(_coef, _coef, _coef)


@given(x=_quad, y=_quad, th=_quad,
       v=st.one_of(st.just((0.0, 0.0, 0.0)),      # straight lines
                   st.tuples(st.just(0.0), _coef, _coef),  # v0 = 0 at s
                   st.tuples(st.floats(-1e-9, 1e-9), _coef, _coef),
                   _quad),
       s=st.floats(-1.0, 1.0), frac=st.floats(0.0, 1.0))
def test_arc_jacobian_matches_complex_step(x, y, th, v, s, frac):
    """The closed form equals (d/ds of arc_xy) . u, the s-derivative by
    complex step Im f(s + ih)/h (no subtractive error), to 1e-12 of the
    size of its terms; |v0 t| ranges up to 2 pi, v0 may vanish, be tiny or
    change sign along s."""
    def seed(z):
        return tuple(c[0] + c[1] * z + c[2] * z * z for c in (x, y, th, v))

    def dseed(z):
        return tuple(c[1] + 2.0 * c[2] * z for c in (x, y, th, v))

    x0, y0, th0, v0 = seed(s)
    t = frac * (2.0 * math.pi / abs(v0) if abs(v0) > 1.0 else 2.0)
    h = 1e-20
    xc, yc, _ = arc_xy(*seed(complex(s, h)), t)
    _, _, theta = arc_xy(x0, y0, th0, v0, t)
    J_cs = (xc.imag * math.cos(theta) + yc.imag * math.sin(theta)) / h
    xs, ys, ths, vs = dseed(s)
    J = arc_jacobian(th0, v0, xs, ys, ths, vs, t)
    scale = abs(xs) + abs(ys) + abs(ths) * t + abs(vs) * t * t
    assert abs(J - J_cs) <= 1e-12 * max(scale, 1.0)


class TestFoliation:
    def test_parallel_lines(self):
        rep = check_foliation(lines_family(), 16, 16)
        assert rep.sign_consistent
        assert rep.crossings == 0

    def test_deg_minus_one_region3(self):
        from nematic_walls.disc import build_deg_minus_one
        sol = build_deg_minus_one(0.6, 0.5)
        rep = check_foliation(sol.region3, 12, 12)
        assert rep.sign_consistent
        assert rep.crossings == 0

    def test_reversed_ordering_crosses(self):
        def seed(s):
            s = np.asarray(s, dtype=float)
            z = np.zeros_like(s)
            return (s, z, z, -3.0 + 2.5 * s)

        fam = CharacteristicFamily(
            seed=seed, s_range=(0.0, 1.0),
            t_star=lambda s: 1.5 * np.ones_like(np.asarray(s, dtype=float)))
        rep = check_foliation(fam, 12, 12)
        assert rep.crossings > 0


def test_pde_residual_refines():
    """Reconstruct theta and v on a grid by inversion; the transport
    residuals under central differences shrink under refinement."""
    fam = curved_family()

    def sup_residual(h):
        xs = np.arange(0.45, 0.75, h)
        ys = np.arange(0.15, 0.45, h)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        s, t, ok = invert_family_batch(fam, X.ravel(), Y.ravel())
        assert ok.all()
        _, _, TH, V = fam.point(s, t)
        TH = TH.reshape(X.shape)
        V = V.reshape(X.shape)
        thx = (TH[2:, 1:-1] - TH[:-2, 1:-1]) / (2 * h)
        thy = (TH[1:-1, 2:] - TH[1:-1, :-2]) / (2 * h)
        vx = (V[2:, 1:-1] - V[:-2, 1:-1]) / (2 * h)
        vy = (V[1:-1, 2:] - V[1:-1, :-2]) / (2 * h)
        th_c = TH[1:-1, 1:-1]
        v_c = V[1:-1, 1:-1]
        r1 = np.abs(-np.sin(th_c) * thx + np.cos(th_c) * thy - v_c).max()
        r2 = np.abs(-np.sin(th_c) * vx + np.cos(th_c) * vy).max()
        return max(r1, r2)

    r_coarse = sup_residual(0.02)
    r_fine = sup_residual(0.01)
    assert r_fine < r_coarse
    assert r_fine < 1e-3


def test_family_dump_csv(tmp_path):
    from nematic_walls.characteristics import family_to_csv
    fam = curved_family()
    path = tmp_path / "fam.csv"
    family_to_csv(fam, path, ns=8, nt=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,t,x,y,theta,v"
    assert len(lines) == 1 + 8 * 5
    s, t, x, y, th, v = (float(c) for c in lines[1].split(","))
    assert (s, t) == (0.2, 0.0)
    assert (x, y) == (0.2, 0.0)


def test_family_from_samples_monotone_interp():
    from nematic_walls.characteristics import CharacteristicFamily
    s = np.linspace(0.0, 1.0, 9)
    v0 = -1.0 + 0.5 * s ** 2  # strictly increasing
    fam = CharacteristicFamily.from_samples(
        s, x0=s, y0=np.zeros_like(s), theta0=np.zeros_like(s), v0=v0,
        t_star=np.full_like(s, 0.5))
    ss = np.linspace(0.0, 1.0, 200)
    _, _, _, vi = fam.point(ss, np.zeros_like(ss))
    assert np.all(np.diff(vi) > 0)  # monotonicity preserved by the interpolant
    assert float(fam.t_star(0.3)) == 0.5


def _assert_pchip_matches_scipy(x, y):
    from scipy.interpolate import PchipInterpolator
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    span = x[-1] - x[0]
    mids = 0.5 * (x[1:] + x[:-1])
    rng = np.random.default_rng(len(x))
    xe = np.concatenate([x, mids, rng.uniform(x[0], x[-1], 257),
                         x[0] - span * np.array([1e-12, 0.01, 0.5]),
                         x[-1] + span * np.array([1e-12, 0.01, 0.5])])
    got = pchip(x, y)(xe)
    ref = PchipInterpolator(x, y)(xe)
    assert got.tobytes() == ref.tobytes()
    assert float(pchip(x, y)(x[1])) == float(PchipInterpolator(x, y)(x[1]))


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [2.0, -1.0]),                           # two points: a line
    ([0.0, 1.0, 3.0], [1.0, 1.0, 1.0]),                  # constant
    ([0.0, 0.5, 2.0, 2.5, 4.0], [0.0, 1.0, 1.0, -2.0, 3.0]),  # flat, turns
    ([-1.0, 0.0, 0.1, 3.0, 3.2, 7.0], [-0.0, 0.0, 5.0, -1e-3, 2.0, 2.0]),
    (np.linspace(0.0, 1.0, 40) ** 2, np.sin(9.0 * np.linspace(0.0, 1.0, 40))),
    # -0.0 at a knot where every coefficient is negative: SciPy returns +0.0
    ([0.0, 0.25, 1.0, 4.0], [-0.0, -0.5, -3.0, -5.5]),
])
def test_pchip_matches_scipy_bitwise(x, y):
    _assert_pchip_matches_scipy(x, y)


def test_pchip_matches_scipy_on_wall_traces(monkeypatch):
    """Every interpolant the cross-tie and degree -1 constructions build
    (wall angle and divergence traces, dense curvature tables)."""
    from nematic_walls import crosstie, disc
    data = []

    def recording(x, y):
        data.append((x, y))
        return pchip(x, y)

    monkeypatch.setattr(crosstie, "pchip", recording)
    monkeypatch.setattr(disc, "pchip", recording)
    crosstie.build_crosstie(1.0, 1.0)
    disc.build_deg_minus_one(0.6, 0.5)
    assert len(data) == 8
    for x, y in data:
        _assert_pchip_matches_scipy(x, y)


def test_pchip_rejects_unsorted_abscissae():
    with pytest.raises(ValueError, match="strictly increasing"):
        pchip([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])
