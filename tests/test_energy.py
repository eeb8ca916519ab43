import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nematic_walls import annulus, characteristics, crosstie, disc
from nematic_walls.core import (NORMAL_JUMP_TOL, UNIT_TOL, JumpSegment,
                                Params, make_grid, sample_analytic)
from nematic_walls.disc import hedgehog_solution
from nematic_walls.energy import (_bulk_transport_residual,
                                  criticality_residuals, eval_E0_1d,
                                  eval_E0_piecewise, eval_E_eps,
                                  family_bulk_integral, wall_energy,
                                  wall_nodes)
from nematic_walls.quadrature import composite_nodes
from nematic_walls.rect1d import OneDProfile, recovery_profile_1d


def _straight_wall(trace_plus, trace_minus, normal):
    """A unit-length straight JumpSegment along normal turned by +pi/2,
    with constant traces."""
    nu = np.asarray(normal, dtype=float)
    tau = np.array([-nu[1], nu[0]])
    traces = [np.asarray(u, dtype=float) for u in (trace_plus, trace_minus)]
    return JumpSegment(polyline=[np.zeros(2), tau], normals=[nu, nu],
                       trace_fn=lambda s: [np.broadcast_to(u, (len(s), 2))
                                           for u in traces])


class TestWallCostDensity:
    """The cost per length of a straight wall with constant traces,
    (1/6)|u+ - u-|^3, as `wall_energy` integrates it; JumpSegment
    rejects the inadmissible trace pairs."""

    def test_antipodal(self):
        seg = _straight_wall((1, 0), (-1, 0), (0, 1))
        assert wall_energy(seg) == pytest.approx(4 / 3, abs=0)

    def test_right_angle_example(self):
        # the jump (1,-1) must be tangential, so the admissible normal for
        # this trace pair is (1,1)/sqrt(2); the value (1/6) sqrt(2)^3 is
        # normal-independent
        nu = (1 / math.sqrt(2), 1 / math.sqrt(2))
        seg = _straight_wall((1, 0), (0, 1), nu)
        assert wall_energy(seg) == pytest.approx(math.sqrt(2) / 3, abs=1e-14)

    def test_equal_traces(self):
        assert wall_energy(_straight_wall((0, 1), (0, 1), (1, 0))) == 0.0

    def test_normal_mismatch_rejected(self):
        with pytest.raises(ValueError, match="normal"):
            _straight_wall((1, 0), (0, 1), (1, 0))

    def test_nonunit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            _straight_wall((1.1, 0), (-1, 0), (0, 1))


@settings(max_examples=200, deadline=None)
@given(phi=st.floats(0, 2 * math.pi), c=st.floats(-0.999, 0.999),
       sgn=st.sampled_from([-1.0, 1.0]))
def test_wall_form_equivalence(phi, c, sgn):
    """(1/6)|u+ - u-|^3, integrated by `wall_energy` over a unit-length
    wall, equals (4/3)(1-(u.nu)^2)^(3/2) for every admissible trace pair
    (random rotations of the normal, random normal component)."""
    nu = np.array([math.cos(phi), math.sin(phi)])
    tau = np.array([-nu[1], nu[0]])
    tcomp = sgn * math.sqrt(1 - c * c)
    seg = _straight_wall(c * nu + tcomp * tau, c * nu - tcomp * tau, nu)
    assert wall_energy(seg) == pytest.approx((4 / 3) * (1 - c * c) ** 1.5,
                                             abs=1e-12)


class TestEvalEEps:
    def test_constant_field_zero(self):
        g = make_grid("rectangle", (-1, 1, -1, 1), 8, 8)
        f = sample_analytic(g, lambda X, Y: (np.ones_like(X), np.zeros_like(Y)))
        eb = eval_E_eps(f, Params(L=2.0, eps=0.1))
        assert eb.total == 0.0

    def test_e_theta_annulus_grad_term(self):
        # (eps/2) int |grad e_theta|^2 = eps pi ln R; potential and
        # divergence vanish identically
        R = 2.0
        p = Params(L=1.0, eps=0.01)
        errs = []
        for n in (32, 64):
            g = make_grid("polar", (1.0, R), n, 2 * n)
            f = sample_analytic(g, lambda X, Y: (-Y / np.hypot(X, Y),
                                                 X / np.hypot(X, Y)))
            eb = eval_E_eps(f, p)
            assert eb.potential_term < 1e-25
            assert eb.bulk_div < 1e-25
            errs.append(abs(eb.grad_term - p.eps * math.pi * math.log(R)))
        assert errs[1] < errs[0] / 3.5  # second order

    def test_tanh_wall_recovers_four_thirds(self):
        # pure wall profile on the unit-length cell: total = 4/3 + O(eps)
        eps = 2e-3
        H = 1.0
        f = recovery_profile_1d(eps, 1e-15 + 1e-16, H, 0.0, int(40 * H / eps),
                                M=0.0)
        eb = eval_E_eps(f, Params(L=1e-15, eps=eps))
        assert eb.total == pytest.approx(4 / 3, rel=0.01)

    def test_grid_convergence_second_order(self):
        eps = 0.02
        p = Params(L=1.0, H=1.0, eps=eps)
        vals = []
        for n in (2000, 4000, 8000):
            prof = recovery_profile_1d(eps, 1.0, 1.0, 0.0, n)
            vals.append(eval_E_eps(prof, p).total)
        # Richardson: consecutive differences shrink ~4x
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < d1 / 2.5


class TestEval1D:
    def test_minimizer_energy_exact(self):
        from nematic_walls.rect1d import min_energy_1d, minimizer_profile
        p = Params(L=1.0, H=1.0, a=0.0)
        prof = minimizer_profile(1.0, 1.0, 0.0)
        assert eval_E0_1d(prof, p).total == pytest.approx(11 / 12, abs=1e-14)

    def test_step_profile(self):
        prof = OneDProfile(y_breaks=np.array([-1.0, 0.0, 1.0]),
                           u2_vals=np.zeros(3),
                           sign_pattern=np.array([-1.0, 1.0]),
                           jumps=[0.0], M=0.0, a=0.0, H=1.0)
        eb = eval_E0_1d(prof, Params(L=3.0, H=1.0, a=0.0))
        assert eb.total == pytest.approx(4 / 3, abs=1e-15)

    def test_jump_free_reaches_one(self):
        # continuous profile through u2 = 1: energy (L/H)(1-a)^2
        a = 0.25
        prof = OneDProfile(y_breaks=np.array([-1.0, 0.0, 1.0]),
                           u2_vals=np.array([a, 1.0, a]),
                           sign_pattern=np.array([-1.0, 1.0]),
                           jumps=[], M=1.0, a=a, H=1.0)
        eb = eval_E0_1d(prof, Params(L=2.0, H=1.0, a=a))
        assert eb.total == pytest.approx(2.0 * (1 - a) ** 2, abs=1e-14)
        assert eb.wall_interior == 0.0


class TestE0Piecewise:
    def test_hedgehog_quadrature_order16(self):
        sol = hedgehog_solution(+1)
        for L in (0.5, 1.0, 2.0):
            eb = eval_E0_piecewise(sol, Params(L=L), s_panels=32, order=16)
            assert abs(eb.total - 2 * math.pi * L) < 1e-8

    @pytest.mark.parametrize("s_panels, order",
                             [(1, 1), (4, 2), (8, 2), (32, 16)])
    def test_hedgehog_exact_under_every_rule(self, s_panels, order):
        """The hedgehog's arc integral is the same at every s, so the
        s-rule integrates it exactly; what is left is the seed
        difference's ds^2/6 truncation, about 8e-11."""
        eb = eval_E0_piecewise(hedgehog_solution(+1), Params(L=1.0),
                               s_panels=s_panels, order=order)
        assert abs(eb.total - 2 * math.pi) < 1e-10

    def test_s_halving_reduces_error(self):
        """Cross-tie region I varies in s: halving the s-panels of the
        two-point rule cuts the error at least fourfold (it is fourth
        order)."""
        fam = crosstie.build_crosstie(1.5, 1.0).region1
        ref = family_bulk_integral(fam, s_panels=256, order=8)
        errs = [abs(family_bulk_integral(fam, s_panels=n, order=2) - ref)
                for n in (4, 8)]
        assert errs[1] < errs[0] / 4.0

    def test_nonnegative_terms(self):
        sol = hedgehog_solution(-1)
        eb = eval_E0_piecewise(sol, Params(L=1.0))
        for term in (eb.bulk_div, eb.wall_interior, eb.wall_boundary,
                     eb.grad_term, eb.potential_term):
            assert term >= 0.0


def test_criticality_hedgehog_clean():
    rep = criticality_residuals(hedgehog_solution(+1), Params(L=1.0))
    assert rep.bulk_transport == 0.0
    assert rep.wall_balance is None


@pytest.mark.parametrize("kind, value", [("disc", 0.1), ("disc", 0.3),
                                         ("disc", 0.5), ("disc", 0.7),
                                         ("crosstie", 1.0),
                                         ("crosstie", 1.3),
                                         ("crosstie", 2.0)])
def test_bulk_transport_residual_on_multi_family_constructions(kind, value):
    """The sampled divergence is constant along every family's arcs: the
    along-arc difference of v stays below 1e-5 on each family's lattice,
    next to the degree -1 cusp (|grad v| ~ 2e3 at L = 0.1) too."""
    if kind == "disc":
        field = disc.build_deg_minus_one(0.6, value).field
    else:
        field = crosstie.build_crosstie(value, 1.0).field
    assert _bulk_transport_residual(field) <= 1e-5


# --- references on s x t grids: the three-grid finite-difference bulk term
# the closed-form Jacobian replaced, and the closed-form Jacobian under a
# t-rule, which the exact arc integral replaced -------------------------------

def reference_bulk_integral(family, s_panels, t_panels, order):
    """integral of v0^2 |J| with J = x_s cos theta + y_s sin theta, x_s and
    y_s central differences of arc positions on three full s x t grids."""
    arc_xy = characteristics.arc_xy
    s_lo, s_hi = family.s_range
    s_nodes, s_w = composite_nodes(s_lo, s_hi, s_panels, order)
    tau_nodes, tau_w = composite_nodes(0.0, 1.0, t_panels, order)
    ds = 1e-6 * max(s_hi - s_lo, 1.0)
    sp = np.minimum(s_nodes + ds, s_hi)
    sm = np.maximum(s_nodes - ds, s_lo)
    col = lambda a: np.asarray(a, dtype=float)[:, None]
    x0, y0, th0, v0, ts = (col(a) for a in family.seed(s_nodes))
    xp0, yp0, thp0, vp0, _ = (col(a) for a in family.seed(sp))
    xm0, ym0, thm0, vm0, _ = (col(a) for a in family.seed(sm))
    ts = np.maximum(ts, 0.0)
    T = tau_nodes[None, :] * ts
    _, _, theta = arc_xy(x0, y0, th0, v0, T)
    xp, yp, _ = arc_xy(xp0, yp0, thp0, vp0, T)
    xm, ym, _ = arc_xy(xm0, ym0, thm0, vm0, T)
    denom = (sp - sm)[:, None]
    J = (xp - xm) / denom * np.cos(theta) + (yp - ym) / denom * np.sin(theta)
    return float(s_w @ ((v0 ** 2) * np.abs(J) * ts) @ tau_w)


def grid_bulk_integral(family, s_panels, t_panels, order):
    """integral of v0^2 |J| with the closed-form J on an s x t Gauss grid,
    t mapped panel-wise onto [0, t*(s)] per s-node."""
    s_nodes, s_w = composite_nodes(*family.s_range, s_panels, order)
    tau_nodes, tau_w = composite_nodes(0.0, 1.0, t_panels, order)
    ts = np.maximum(np.asarray(family.seed(s_nodes)[4], dtype=float), 0.0)
    J, v0 = characteristics.family_jacobian(family, s_nodes[:, None],
                                            tau_nodes * ts[:, None])
    return float((s_w * ts * v0[:, 0] ** 2) @ np.abs(J) @ tau_w)


def reference_E0(field, params, s_panels=64, t_panels=64, order=8):
    eb = eval_E0_piecewise(field, params, s_panels=s_panels, order=order)
    bulk = sum(reference_bulk_integral(f, s_panels, t_panels, order)
               for f in field.families)
    bulk *= 0.5 * params.L * field.symmetry_copies
    return bulk + eb.wall_interior + eb.wall_boundary, bulk


def _assert_matches_reference(field, params, rtol, t_panels=64, **rule):
    eb = eval_E0_piecewise(field, params, **rule)
    total, bulk = reference_E0(field, params, t_panels=t_panels, **rule)
    assert abs(eb.bulk_div - bulk) <= rtol * abs(bulk)
    assert abs(eb.total - total) <= rtol * abs(total)


@pytest.mark.parametrize("lh", [1.0, 1.2195, 2.0])
@pytest.mark.parametrize("rule", [dict(s_panels=64, t_panels=64, order=8),
                                  dict(s_panels=128, t_panels=128, order=4)])
def test_crosstie_E0_matches_finite_difference_reference(lh, rule):
    sol = crosstie.build_crosstie(lh, 1.0)
    _assert_matches_reference(sol.field, Params(L=lh, H=1.0, T=sol.T),
                              1e-12, **rule)


@pytest.mark.parametrize("L", [0.1, 0.5])
def test_deg_minus_one_E0_matches_finite_difference_reference(L):
    sol = disc.build_deg_minus_one(0.6, L)
    _assert_matches_reference(sol.field, Params(L=L, R=0.6), 1e-12,
                              s_panels=48, t_panels=48)


@pytest.mark.parametrize("sign", [+1, -1])
def test_hedgehog_E0_matches_finite_difference_reference(sign):
    """The seed s-range is 2 pi, so ds = 2 pi 1e-6 and the central
    difference's truncation, a factor 1 - ds^2/6 = 1 - 6.6e-12 on every
    rotation, is above roundoff.  The reference applies it to the whole
    of J; the closed form to the seed's position derivative but not to
    theta0' = 1, which is differenced exactly.  The two may differ by it,
    and no more."""
    ds = 2.0 * math.pi * characteristics.SEED_DIFF_STEP
    _assert_matches_reference(hedgehog_solution(sign), Params(L=2.0),
                              ds * ds / 6.0 + 1e-12)


def test_tangential_E0_matches_finite_difference_reference():
    field = disc.tangential_solution()
    eb = eval_E0_piecewise(field, Params(L=2.0))
    assert eb.total == reference_E0(field, Params(L=2.0))[0] == 0.0


# the shipped constructions, each with its production E0 rule
CONSTRUCTIONS = ([("crosstie", lh) for lh in (0.6, 1.0, 1.2195, 2.0, 2.1333)]
                 + [("deg_minus_one", L) for L in (0.1, 0.5, 0.7)]
                 + [("hedgehog", +1), ("hedgehog", -1)])


def _construction(kind, value):
    if kind == "crosstie":
        sol = crosstie.build_crosstie(value, 1.0)
        return (sol.field, Params(L=value, H=1.0, T=sol.T),
                dict(s_panels=128, order=4))
    if kind == "deg_minus_one":
        return (disc.build_deg_minus_one(0.6, value).field,
                Params(L=value, R=0.6), dict(s_panels=48, order=8))
    if kind == "hedgehog":
        return hedgehog_solution(value), Params(L=2.0), {}
    return disc.tangential_solution(), Params(L=2.0), {}


@pytest.mark.parametrize("kind, value", CONSTRUCTIONS)
def test_E0_matches_grid_quadrature(kind, value):
    """The exact arc integral reproduces the s x t grid it replaced (t-rule
    as fine as the s-rule) to roundoff."""
    field, params, rule = _construction(kind, value)
    s_panels, order = rule.get("s_panels", 64), rule.get("order", 8)
    eb = eval_E0_piecewise(field, params, **rule)
    bulk = sum(grid_bulk_integral(f, s_panels, s_panels, order)
               for f in field.families)
    bulk *= 0.5 * params.L * field.symmetry_copies
    total = bulk + eb.wall_interior + eb.wall_boundary
    assert abs(eb.bulk_div - bulk) <= 1e-13 * abs(bulk)
    assert abs(eb.total - total) <= 1e-13 * abs(total)


@pytest.mark.parametrize("kind, ratio",
                         [("crosstie", lh) for lh in (0.6, 1.2195, 2.0)]
                         + [("deg_minus_one", lr) for lr in (1 / 6, 5 / 6)])
def test_E0_depends_on_the_ratio_alone(kind, ratio):
    """x -> k x maps a construction at length scale 1 onto one at scale k,
    with E0 times k: the cross-tie's energy per length at height H = k and
    the degree -1 E0/R at radius R = k, with L = ratio k, equal their
    values at k = 1 to 1e-12 relative from k = 1e-6 to 1e3."""
    def per_scale(k):
        if kind == "crosstie":
            sol = crosstie.build_crosstie(ratio * k, k)
            return crosstie.crosstie_energy_per_length(sol)
        sol = disc.build_deg_minus_one(k, ratio * k)
        return eval_E0_piecewise(sol.field, Params(L=ratio * k, R=k),
                                 s_panels=48).total / k

    unit = per_scale(1.0)
    for k in (1e-6, 1e-3, 1e3):
        assert per_scale(k) == pytest.approx(unit, rel=1e-12, abs=0), k


@pytest.mark.parametrize("kind, value",
                         CONSTRUCTIONS + [("tangential", 1.0)])
def test_jacobian_one_sign_per_arc(kind, value):
    """|integral of J| is the integral of |J| because J keeps one sign
    along every arc.  Checked at the E0 rule's s-nodes on 255 interior
    points of each arc.  At the arc ends J vanishes where arcs leave a
    vortex or focus, and there the computed value is seed-difference
    noise of either sign, far below the family's scale."""
    field, _, rule = _construction(kind, value)
    s_panels, order = rule.get("s_panels", 64), rule.get("order", 8)
    tau = np.linspace(0.0, 1.0, 257)
    for fam in field.families:
        s_nodes, _ = composite_nodes(*fam.s_range, s_panels, order)
        ts = np.maximum(np.asarray(fam.seed(s_nodes)[4], dtype=float), 0.0)
        J, _ = characteristics.family_jacobian(fam, s_nodes[:, None],
                                               tau * ts[:, None])
        inner = J[:, 1:-1]
        assert not np.any((inner.max(axis=1) > 0) & (inner.min(axis=1) < 0)), \
            fam.s_range
        sign = np.sign(inner.sum(axis=1))[:, None]
        ends = J[:, [0, -1]] * sign
        assert ends.min() >= -1e-7 * np.abs(J).max(), fam.s_range


_TWO_PI = 2.0 * math.pi
_coef = st.floats(-3.0, 3.0)


@given(theta0=st.floats(-math.pi, math.pi), t_star=st.floats(1e-3, 4.0),
       vt=st.one_of(st.sampled_from([0.0, 1e-6, -1e-3, 1e-2, 0.1, -0.5,
                                     1.0 - 1e-9, 1.0 + 1e-9, -1.0 + 1e-9,
                                     -1.0 - 1e-9, _TWO_PI, -_TWO_PI]),
                    st.floats(-1.0, 1.0), st.floats(-_TWO_PI, _TWO_PI)),
       x0_s=_coef, y0_s=_coef, theta0_s=_coef, v0_s=_coef)
@example(theta0=0.3, t_star=1.0, vt=1e-9, x0_s=1.0, y0_s=-0.5,
         theta0_s=0.7, v0_s=2.0)
def test_arc_jacobian_integral_matches_gauss_rule(theta0, t_star, vt, x0_s,
                                                  y0_s, theta0_s, v0_s):
    """The closed-form arc integral against a 64 x 16 Gauss rule of
    arc_jacobian, for v0 t* in [-2 pi, 2 pi]: zero, v0 = 1e-9, small
    products where the direct form of G would cancel, both sides of the
    series threshold |v0 t*| = 1, and negative v0.  The bound is relative
    to the size of the three terms."""
    v0 = vt / t_star
    I = characteristics.arc_jacobian_integral(theta0, v0, x0_s, y0_s,
                                              theta0_s, v0_s, t_star)
    t, w = composite_nodes(0.0, t_star, 64, 16)
    Q = float(w @ characteristics.arc_jacobian(theta0, v0, x0_s, y0_s,
                                               theta0_s, v0_s, t))
    J0 = x0_s * math.cos(theta0) + y0_s * math.sin(theta0)
    K0 = y0_s * math.cos(theta0) - x0_s * math.sin(theta0)
    size = (abs(J0) * t_star + abs(v0 * K0 - theta0_s) * t_star ** 2 / 2
            + abs(v0_s) * t_star ** 3 / 6)
    assert abs(float(I) - Q) <= 1e-14 * size


def test_E0_evaluates_no_arc_grid(monkeypatch):
    """E0's bulk term integrates the Jacobian along each arc in closed
    form: no arc positions, no Jacobian on an s x t grid, and the seed of
    each family, which also gives t*, evaluated at most twice (at the
    s-nodes, and on s + ds and s - ds stacked)."""
    def no_arcs(*args):
        raise AssertionError("arc_xy called during E0")

    def no_jacobian(*args):
        raise AssertionError("arc_jacobian called during E0")

    # the builds read their walls' knots off the arcs' arrivals
    sol = crosstie.build_crosstie(1.5, 1.0)
    fields = [(sol.field, Params(L=1.5, H=1.0, T=sol.T)),
              (disc.build_deg_minus_one(0.6, 0.5).field, Params(L=0.5, R=0.6)),
              (hedgehog_solution(+1), Params(L=1.0))]
    monkeypatch.setattr(characteristics, "arc_xy", no_arcs)
    monkeypatch.setattr(characteristics, "arc_jacobian", no_jacobian)
    for field, params in fields:
        calls = {}
        for k, fam in enumerate(field.families):
            def counted(s, seed=fam.seed, k=k):
                calls[k] = calls.get(k, 0) + 1
                return seed(s)
            monkeypatch.setattr(fam, "seed", counted)
        eval_E0_piecewise(field, params)
        assert len(calls) == len(field.families)
        assert max(calls.values()) <= 2


def test_disc_E0_solves_each_curvature_once(monkeypatch):
    """One degree -1 E0 solves region III's and region II's seed
    curvatures once each, on the s-nodes and s +- ds stacked: t* comes
    from the same solve as the seed."""
    sol = disc.build_deg_minus_one(0.6, 0.5)
    calls = {}
    for name in ("region3_v0", "region2_v0"):
        def counted(*args, fn=getattr(disc, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(disc, name, counted)
    eval_E0_piecewise(sol.field, Params(L=0.5, R=0.6))
    assert calls == {"region3_v0": 1, "region2_v0": 1}


def test_E0_validates_no_wall_again(monkeypatch):
    """A JumpSegment validates its traces when it is built (an invalid one
    raises there, see test_core.TestJumpSegment); E0 does not validate it
    again."""
    field = crosstie.build_crosstie(1.5, 1.0).field
    calls = []
    monkeypatch.setattr(JumpSegment, "validate", calls.append)
    eval_E0_piecewise(field, Params(L=1.5, H=1.0))
    assert calls == []


def _circle_normal(radius, sign):
    def normal(arcs):
        ph = np.asarray(arcs) / radius
        return sign * np.stack([np.cos(ph), np.sin(ph)], axis=-1)
    return normal


def _walls(kind):
    """(segment, normal as a function of arclength) for every wall of a
    construction; None stands for a straight wall's constant normal."""
    if kind == "annulus_interior":
        sol = annulus.solve_interior_wall(2.0,
                                          annulus.critical_L_for_a_half(2.0))
        return [(seg, _circle_normal(sol.rho, -1.0))
                for seg in sol.field.jumps]
    if kind == "annulus_boundary":
        sol = annulus.boundary_wall_solution(2.0, 1.0)
        return [(seg, _circle_normal(1.0, 1.0)) for seg in sol.field.jumps]
    field = {"crosstie": lambda: crosstie.build_crosstie(1.2195, 1.0).field,
             "deg_minus_one": lambda: disc.build_deg_minus_one(0.6, 0.5).field,
             "remark": crosstie.remark_crosstie_field}[kind]()
    return [(seg, None) for seg in field.jumps]


@pytest.mark.parametrize("kind", ["crosstie", "deg_minus_one", "remark",
                                  "annulus_interior", "annulus_boundary"])
def test_trace_fn_at_wall_quadrature_nodes(kind):
    """One trace_fn call gives both traces at every wall quadrature node:
    unit vectors whose normal components agree to NORMAL_JUMP_TOL.
    JumpSegment.validate checks the vertex traces only."""
    for seg, normal in _walls(kind):
        arcs, _ = wall_nodes(seg)
        up, um = seg.trace_fn(arcs)
        assert up.shape == um.shape == (arcs.size, 2)
        if normal is None:
            assert np.all(seg.normals == seg.normals[0])
            nu = seg.normals[0]
        else:
            assert np.abs(normal(seg.arclengths) - seg.normals).max() < 1e-12
            nu = normal(arcs)
        for u in (up, um):
            assert np.abs(np.hypot(u[:, 0], u[:, 1]) - 1.0).max() <= UNIT_TOL
        assert np.abs(((up - um) * nu).sum(axis=-1)).max() <= NORMAL_JUMP_TOL


def _lattice(kind):
    """A construction's field and a 4 x 5 lattice of points in its domain."""
    if kind == "crosstie":
        sol = crosstie.build_crosstie(1.2195, 1.0)
        return sol.field, *np.meshgrid(np.linspace(0.1, 2 * sol.T - 0.1, 5),
                                       np.linspace(-0.9, 0.9, 4))
    if kind == "deg_minus_one":
        field, r = disc.build_deg_minus_one(0.6, 0.5).field, (0.05, 0.55)
    elif kind == "annulus":
        field, r = annulus.solve_annulus(
            2.0, annulus.critical_L_for_a_half(2.0)).field, (1.0, 2.0)
    elif kind == "annulus_boundary":
        field, r = annulus.boundary_wall_solution(2.0, 1.0).field, (1.0, 2.0)
    elif kind == "tangential":
        field, r = disc.tangential_solution(), (0.05, 1.0)
    else:
        field, r = hedgehog_solution(+1), (0.05, 1.0)
    rr, phi = np.meshgrid(np.linspace(*r, 5), np.linspace(0.1, 6.0, 4))
    return field, rr * np.cos(phi), rr * np.sin(phi)


@pytest.mark.parametrize("kind", ["crosstie", "deg_minus_one", "annulus",
                                  "annulus_boundary", "tangential",
                                  "hedgehog"])
def test_sample_returns_unit_directors_of_the_input_shape(kind):
    field, X, Y = _lattice(kind)
    u1, u2, v = field.sample(X, Y)
    for a in (u1, u2, v):
        assert np.shape(a) == X.shape
        assert np.all(np.isfinite(a))
    assert np.abs(np.hypot(u1, u2) - 1.0).max() <= 1e-14


@pytest.mark.parametrize("field", [disc.tangential_solution(),
                                   hedgehog_solution(+1),
                                   hedgehog_solution(-1)])
def test_sample_rejects_the_origin(field):
    with pytest.raises(ValueError, match="origin"):
        field.sample(np.array([0.5, 0.0]), np.array([0.1, 0.0]))


def test_deg_minus_one_sample_rejects_points_off_the_disc():
    field = disc.build_deg_minus_one(0.6, 0.5).field
    with pytest.raises(ValueError, match="outside the disc"):
        field.sample(np.array([0.3, 0.0]), np.array([0.1, 0.6 + 1e-9]))


@pytest.mark.parametrize("r", [0.5, 1.0 - 1e-9, 2.0 + 1e-9, 2.5])
@pytest.mark.parametrize("field", [
    annulus.solve_annulus(2.0, annulus.critical_L_for_a_half(2.0)).field,
    annulus.boundary_wall_solution(2.0, 1.0).field])
def test_annulus_sample_rejects_points_off_the_annulus(field, r):
    with pytest.raises(ValueError, match="outside the annulus"):
        field.sample(np.array([1.5, r * 0.6]), np.array([0.0, r * 0.8]))
