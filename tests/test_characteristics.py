import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nematic_walls.characteristics import (CharacteristicFamily,
                                           arc_jacobian, arc_xy,
                                           check_foliation, family_jacobian,
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
        assert arc_xy(0.3, -0.2, 0.7, -1.3, 0.0) == (0.3, -0.2, 0.7)

    def test_straight_line(self):
        assert arc_xy(0.0, 0.0, 0.0, 0.0, 1.0) == (0.0, 1.0, 0.0)

    def test_rk4_oracle(self):
        x, y, th = arc_xy(0.0, 0.0, 0.0, -0.5, math.pi)
        ox, oy, oth = rk4_arc(0.0, 0.0, 0.0, -0.5, math.pi)
        assert abs(x - ox) < 1e-10
        assert abs(y - oy) < 1e-10
        assert abs(th - oth) < 1e-10

    def test_threshold_continuity(self):
        # at |v0| = 1e-8 the arc agrees with the straight line to 1e-9
        # (deviation |v0| t^2 / 2; the sinc evaluation is cancellation-free
        # so there is no loss approaching v0 = 0)
        t = 0.4
        x, y, _ = arc_xy(0.1, 0.2, 0.5, 1e-8, t)
        assert abs(x - (0.1 - t * math.sin(0.5))) < 1e-9
        assert abs(y - (0.2 + t * math.cos(0.5))) < 1e-9
        x0, y0, _ = arc_xy(0.1, 0.2, 0.5, 0.0, t)
        assert x0 == 0.1 - t * math.sin(0.5)
        assert y0 == 0.2 + t * math.cos(0.5)

    def test_conservation_along_arc(self):
        # theta - theta0 = v0 t exactly at sampled t
        t = np.linspace(0, 3, 17)
        _, _, th = arc_xy(0.2, 0.1, -0.4, 0.83, t)
        assert np.array_equal(th, -0.4 + 0.83 * t)


def _arc_tangent(x0, y0, theta0, v0, t):
    """d/dt of arc_xy's position by complex step, and the angle at t."""
    h = 1e-20
    xc, yc, _ = arc_xy(x0, y0, theta0, v0, complex(t, h))
    _, _, theta = arc_xy(x0, y0, theta0, v0, t)
    return np.array([xc.imag, yc.imag]) / h, theta


class TestTangentNormal:
    """Arcs are integral curves of u^perp: arc_xy moves along
    (-sin theta, cos theta), normal to the director."""

    def test_vertical_at_zero(self):
        tau, _ = _arc_tangent(0.0, 0.0, 0.0, 0.7, 0.0)
        assert np.array_equal(tau, [0.0, 1.0])

    def test_orthogonal_to_director(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x0, y0 = rng.normal(size=2)
            tau, th = _arc_tangent(x0, y0, rng.uniform(-3, 3),
                                   rng.uniform(-2, 2), rng.uniform(0, 2))
            u = np.array([math.cos(th), math.sin(th)])
            assert abs(float(tau @ u)) < 1e-15
            assert np.allclose(tau, [-u[1], u[0]], atol=1e-15, rtol=0)

    def test_deg_minus_one_axis_foot_perpendicular(self):
        # arcs seeded on the x-axis leave it orthogonally
        from nematic_walls.disc import build_deg_minus_one
        sol = build_deg_minus_one(0.6, 0.5)
        for fam, s in ((sol.region1, 0.3), (sol.region3, 0.1)):
            x0, y0, th0, v0, _ = (float(a) for a in fam.seed(np.asarray(s)))
            assert y0 == 0.0
            tau, _ = _arc_tangent(x0, y0, th0, v0, 0.0)
            assert abs(tau[0]) < 1e-14 and abs(abs(tau[1]) - 1.0) < 1e-14


def lines_family():
    def seed(s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return (s, z, z, z, np.ones_like(s))

    return CharacteristicFamily(seed=seed, s_range=(0.0, 1.0),
                                label="parallel lines")


def curved_family():
    def seed(s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return (s, z, z, -0.5 - 0.3 * s, np.full_like(s, 0.8))

    return CharacteristicFamily(seed=seed, s_range=(0.2, 1.0))


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
            return (s, z, z, -3.0 + 2.5 * s, np.full_like(s, 1.5))

        fam = CharacteristicFamily(seed=seed, s_range=(0.0, 1.0))
        rep = check_foliation(fam, 12, 12)
        assert rep.crossings > 0


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
    """Every interpolant the cross-tie and degree -1 constructions build:
    the wall angle and divergence traces of their three walls."""
    from nematic_walls import crosstie, disc
    data = []

    def recording(x, y):
        data.append((x, y))
        return pchip(x, y)

    monkeypatch.setattr(crosstie, "pchip", recording)
    monkeypatch.setattr(disc, "pchip", recording)
    crosstie.build_crosstie(1.0, 1.0)
    disc.build_deg_minus_one(0.6, 0.5)
    assert len(data) == 6
    for x, y in data:
        _assert_pchip_matches_scipy(x, y)


def test_pchip_rejects_unsorted_abscissae():
    with pytest.raises(ValueError, match="strictly increasing"):
        pchip([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])
