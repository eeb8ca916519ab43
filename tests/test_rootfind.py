import math
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_root

from nematic_walls import crosstie, disc, rootfind
from nematic_walls.rootfind import BracketError, bracketed_root


def _cubic(x, r, c):
    """Monotone cubic with its single root at r; c = +-1 sets the sign."""
    d = x - r
    return c * (d ** 3 + d)


_widths = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


@given(st.lists(st.tuples(st.floats(-10.0, 10.0), _widths, _widths,
                          st.sampled_from([-1.0, 1.0])),
                min_size=1, max_size=12),
       st.sampled_from(["scalar", "1d", "2d"]))
def test_shifted_cubics(cases, layout):
    r, dl, dr, c = (np.array(v) for v in zip(*cases))
    dr = np.where((dl == 0.0) & (dr == 0.0), 1.0, dr)  # keep brackets open
    lo, hi = r - dl, r + dr
    if layout == "scalar":
        r, lo, hi, c = r[0], lo[0], hi[0], c[0]
    elif layout == "2d":
        r, lo, hi, c = (np.stack([v, v]) for v in (r, lo, hi, c))
    x = bracketed_root(_cubic, lo, hi, args=(r, c))
    if layout == "scalar":
        assert isinstance(x, float)
    else:
        assert x.shape == np.shape(r)
    assert np.all((lo <= x) & (x <= hi))
    assert np.all(np.abs(x - r) <= 1e-14 * np.maximum(np.abs(r), 1.0))


def _recording(f, calls):
    def g(x, *args):
        calls.append(np.array(x))
        return f(x, *args)
    return g


@given(st.lists(st.tuples(st.floats(-10.0, 10.0), _widths, _widths,
                          st.sampled_from([-1.0, 1.0])),
                min_size=1, max_size=12),
       st.sampled_from(["scalar", "1d", "2d"]),
       st.sampled_from([0.0, 1e-9, 1e-3]))
def test_matches_scipy_find_root_bitwise(cases, layout, xtol):
    """Same roots to the bit, and f called on the same points in the same
    order: the port keeps SciPy's tolerances, steps and stop order."""
    r, dl, dr, c = (np.array(v) for v in zip(*cases))
    dr = np.where((dl == 0.0) & (dr == 0.0), 1.0, dr)
    lo, hi = r - dl, r + dr
    if layout == "scalar":
        r, lo, hi, c = r[0], lo[0], hi[0], c[0]
    elif layout == "2d":
        r, lo, hi, c = (np.stack([v, v[::-1]]) for v in (r, lo, hi, c))
    ours, theirs = [], []
    x = bracketed_root(_recording(_cubic, ours), lo, hi, args=(r, c),
                       xtol=xtol)
    res = find_root(_recording(_cubic, theirs), (lo, hi), args=(r, c),
                    tolerances={"xatol": xtol} if xtol > 0 else None)
    assert np.all(res.status == 0)
    assert np.asarray(x).tobytes() == np.asarray(res.x).tobytes()
    assert len(ours) == len(theirs)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs))


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: 1e-310 * (x - 0.3), 0.0, 1.0),      # |f| below tiny: stops
    (lambda x: np.sign(x - 0.3), 0.0, 1.0),        # a jump, not a root
    (lambda x: np.where(x > 0.5, np.nan, x - 0.25), 0.0, 1.0),  # NaN at hi
    (lambda x: (x - 0.25) ** 3, 0.0, 1.0),         # flat at the root
    (lambda x: x - 0.3, 1.0, 0.0),                 # reversed bracket
    (lambda x: np.exp(x) - 2.0, -700.0, 700.0),    # wide range of |f|
])
def test_matches_scipy_find_root_on_hard_residuals(f, lo, hi):
    """Same roots, or a RuntimeError where SciPy reports a failed status
    (the NaN case: one bracket ends with NaN at both ends)."""
    lo, hi = np.array([lo, lo + 1e-3]), np.array([hi, hi])
    ours, theirs = [], []
    res = find_root(_recording(f, theirs), (lo, hi))
    if np.all(res.status == 0):
        x = bracketed_root(_recording(f, ours), lo, hi)
        assert x.tobytes() == res.x.tobytes()
    else:
        with pytest.raises(RuntimeError, match=f"status {min(res.status)}"):
            bracketed_root(_recording(f, ours), lo, hi)
    assert [a.tobytes() for a in ours] == [b.tobytes() for b in theirs]


def test_same_sign_bracket_matches_scipy_status():
    lo = np.array([-1.0, 1.0, 2.0, -3.0])
    hi = np.array([1.0, 2.0, 5.0, 3.0])
    assert list(find_root(_cubic, (lo, hi), args=(0.0, 1.0)).status) \
        == [0, -1, -1, 0]
    with pytest.raises(BracketError, match=r"^2 bracket\(s\) without a sign "
                       r"change \(first: f = 2\.000e\+00, 1\.000e\+01\)"):
        bracketed_root(_cubic, lo, hi, args=(0.0, 1.0))


def test_nan_residual_raises_runtime_error():
    def nan(x):
        return np.full(np.shape(x), np.nan)

    assert find_root(nan, (0.0, 1.0)).status == -3
    with pytest.raises(RuntimeError, match="status -3"):
        bracketed_root(nan, 0.0, 1.0)
    with pytest.raises(RuntimeError, match="status -3"):
        bracketed_root(nan, np.zeros(3), np.ones(3))


def test_endpoint_roots_are_exact():
    r = np.array([0.3, -2.0])
    assert np.array_equal(bracketed_root(_cubic, r, r + 1.0, args=(r, 1.0)), r)
    assert np.array_equal(bracketed_root(_cubic, r - 1.0, r, args=(r, -1.0)),
                          r)


def test_same_sign_bracket_raises():
    with pytest.raises(BracketError):
        bracketed_root(_cubic, 1.0, 2.0, args=(0.0, 1.0))
    with pytest.raises(BracketError):
        bracketed_root(_cubic, np.array([-1.0, 1.0]), np.array([1.0, 2.0]),
                       args=(0.0, 1.0))


def _bisect(F, lo, hi, iters=200):
    """Reference: plain vectorized bisection of F(lo) <= 0 <= F(hi) or the
    reverse, run to exhaustion."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = F(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = F(mid)
        same = np.sign(fm) == np.sign(flo)
        lo, flo, hi = (np.where(same, mid, lo), np.where(same, fm, flo),
                       np.where(same, hi, mid))
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("L", [0.1, 0.475, 1.2])
def test_region3_v0_matches_bisection(L):
    s = np.linspace(0.0, (math.sqrt(2.0) - 1.0) * 0.6, 513)
    ref = _bisect(lambda q: (1.0 - s * q / L) ** 2
                  - np.sqrt((1.0 - q) * (1.0 + q)) - 1.0,
                  np.full_like(s, -1.0), np.zeros_like(s)) / L
    assert np.max(np.abs(disc.region3_v0(s, L) - ref)) <= 1e-14 / L


@pytest.mark.parametrize("L", [0.1, 0.475, 1.2])
def test_region2_v0_matches_bisection(L):
    """Roots agree to 1e-14 on the first half of the seed range.  Toward the
    corner s = pi R / 4 the slope of the residual vanishes with v, so there
    both roots are only checked to leave a residual at roundoff."""
    R = 0.6
    s = np.linspace(0.0, 0.25 * math.pi * R, 513)
    sinf = np.sin(s / R + 0.25 * math.pi)

    def F(p):
        A = math.sqrt(2.0) * ((R * p + 1.0) * sinf - R * p)
        return A * A - np.sqrt(np.maximum(1.0 - (L * p) ** 2, 0.0)) - 1.0

    v = disc.region2_v0(s / R, L / R) / R
    ref = _bisect(F, np.full_like(s, -min(1.0 / R, 1.0 / L)), np.zeros_like(s))
    ref = np.where(F(np.zeros_like(s)) >= -1e-15, 0.0, ref)
    first_half = s <= 0.125 * math.pi * R
    assert np.max(np.abs(v - ref)[first_half]) <= 1e-14
    assert np.max(np.abs(F(v))) <= 2e-15


@pytest.mark.parametrize("lh", [1.0, 2.0])
def test_region2_theta_star_matches_bisection(lh):
    sol = crosstie.build_crosstie(lh, 1.0)
    a, k = sol.alpha, sol.L * sol.alpha
    s = np.linspace(0.0, sol.t1_star, 513)
    c = 2.0 * np.sin(0.5 * a * s) ** 2
    beta_star = np.arcsin(np.clip(
        np.where(c > 0.5 * k, 0.5 * k / np.maximum(c, 1e-300), 1.0), 0.0, 1.0))
    ref = _bisect(lambda b: c * np.sin(2.0 * b) + 2.0 * k
                  * np.sin(0.5 * (b + a * s)) * np.sin(0.5 * (b - a * s)),
                  np.zeros_like(s), beta_star)
    got = crosstie.region2_theta_star(s, a, sol.L)
    assert np.max(np.abs(got - ref)) <= 1e-14
    assert isinstance(crosstie.region2_theta_star(0.5 * sol.t1_star, a, sol.L),
                      float)


# --- arc inversion ---------------------------------------------------------------

@given(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(-3.0, 3.0),
       st.floats(0.05, 0.95))
def test_arc_root_inverts_a_family_with_straight_arcs(x0, k, th0, frac):
    """A family of arcs from the points (x0 + q, 0) at angle th0 + q with
    curvature k q, which is straight at q = 0: a point on the arc of q
    (t up to one radian of turning) returns that arc's angle and curvature
    from a bracket of half-width 1e-3 about q, straight arcs included."""
    from nematic_walls.characteristics import arc_xy

    def seed(q):
        q = np.asarray(q, dtype=float)
        return x0 + q, np.zeros_like(q), th0 + q, k * q

    q = np.array([-0.5, -1e-9, 0.0, 1e-9, 0.5])
    t = frac * np.minimum(1.0, 1.0 / np.maximum(np.abs(k * q), 1e-300))
    x, y, th = arc_xy(*seed(q), t)
    got_th, got_v = rootfind.arc_root(seed, q - 1e-3, q + 1e-3, x, y)
    assert np.abs(np.angle(np.exp(1j * (got_th - th)))).max() <= 1e-12
    assert np.abs(got_v - k * q).max() <= 1e-12


def test_arc_root_scalar_end_is_the_broadcast_end(monkeypatch):
    """A bracket end shared by every point, passed as a scalar, gives the
    bits of the same end passed as a full array, over several blocks, and
    a single point comes back as a scalar."""
    def seed(q):
        q = np.asarray(q, dtype=float)
        return q, np.zeros_like(q), 0.25 * np.pi + q, -1.0 - q

    monkeypatch.setattr(rootfind, "ARC_BLOCK", 64)
    rng = np.random.default_rng(4)
    q = rng.uniform(0.1, 0.9, 300)
    from nematic_walls.characteristics import arc_xy
    x, y, _ = arc_xy(*seed(q), 0.3)
    want = rootfind.arc_root(seed, np.zeros_like(q), np.ones_like(q), x, y)
    for lo, hi in ((0.0, np.ones_like(q)), (np.zeros_like(q), 1.0),
                   (0.0, 1.0)):
        got = rootfind.arc_root(seed, lo, hi, x, y)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    th, v = rootfind.arc_root(seed, 0.0, 1.0, x[0], y[0])
    assert np.shape(th) == () and (th, v) == (want[0][0], want[1][0])


@pytest.mark.parametrize("lh", [0.6, 1.0, 1.2195, 2.0, 2.8])
def test_crosstie_region2_seed_inverts_theta_star(lh):
    """The closed-form seed in beta = theta* returns the foot alpha s of
    `region2_theta_star`'s root to 6e-15 relative, from s = 1e-12 t1*."""
    sol = crosstie.build_crosstie(lh, 1.0)
    s = sol.t1_star * np.geomspace(1e-12, 1.0, 400)
    beta = crosstie.region2_theta_star(s, sol.alpha, sol.L)
    x0, y0, th0, v0 = crosstie.region2_seed_of_theta_star(beta, sol.alpha,
                                                          sol.L)
    as_ = sol.alpha * s
    assert np.max(np.abs(th0 - as_) / as_) <= 6e-15
    assert np.array_equal(v0, -np.sin(2.0 * beta) / sol.L)


@pytest.mark.parametrize("L", [0.1, 0.2, 0.3, 0.5, 0.7])
def test_deg_minus_one_seeds_invert_their_curvatures(L):
    """The closed-form seeds of regions III (in mu = sin phi) and II (in
    v) return the seed parameter s of `region3_v0`'s and `region2_v0`'s
    roots to 8e-13 R and 3.7e-12 R."""
    R = 0.6
    s0 = (math.sqrt(2.0) - 1.0) * R
    s3 = np.linspace(0.0, s0, 513)
    mu = np.sin(disc._region3_phi(s3, L))
    x0, _, _, v0 = disc.region3_seed_of_mu(mu, L)
    assert np.max(np.abs(x0 - s3)) <= 8e-13 * R
    assert np.max(np.abs(v0 - disc.region3_v0(s3, L))) <= 1e-13 / L
    s2 = np.linspace(0.0, 0.25 * math.pi * R, 513)
    x0, y0, th0, _ = disc.region2_seed_of_v(disc.region2_v0(s2 / R, L / R),
                                            L / R)
    assert np.max(np.abs(th0 + s2 / R)) <= 3.7e-12  # theta0 = -s/R
    assert np.max(np.hypot(R * x0 - (math.sqrt(2.0) * R - R * np.cos(s2 / R)),
                           R * y0 - R * np.sin(s2 / R))) <= 3.7e-12 * R


def _lattice(fam, taus, n=24):
    """Points of n x len(taus) arcs: s in [0.05, 0.95] of the family's
    range, t = tau t*(s)."""
    s_lo, s_hi = fam.s_range
    ss = s_lo + (s_hi - s_lo) * np.linspace(0.05, 0.95, n)
    ts = np.asarray(fam.seed(ss)[4], dtype=float)
    return fam.point(np.repeat(ss, len(taus)), np.outer(ts, taus).ravel())


# tau ranges of the lattice: the arcs' bulk, and the band next to the seam
# each arc is seeded on, with their (theta, v) tolerances
_TAU_BANDS = [(np.linspace(0.05, 0.95, 24), 5e-11),
              (np.geomspace(5e-4, 0.05, 24), 2e-9)]


def _assert_samples_arc(sample, fam, tol_of_band):
    for taus, tol in _TAU_BANDS:
        x, y, th, v = _lattice(fam, taus)
        got_th, got_v = sample(x, y)
        tol = tol_of_band(tol)
        err_th = np.abs(np.angle(np.exp(1j * (got_th - th)))).max()
        assert err_th <= tol, (fam.s_range, taus[0], err_th)
        assert np.abs(got_v - v).max() <= tol, (fam.s_range, taus[0])


@pytest.mark.parametrize("L", [0.1, 0.2, 0.3, 0.5, 0.7])
def test_deg_minus_one_sampler_lattice_roundtrip(L):
    """At points on every degree -1 family's arcs, the sampler returns the
    arc's angle and curvature: 5e-11 on the arcs' bulk, 2e-9 within
    tau < 0.05 of the seam they are seeded on."""
    sol = disc.build_deg_minus_one(0.6, L)
    k = sol.field.scale  # the families are the unit disc's

    def sample(x, y):
        u1, u2, v = disc.deg_minus_one_sample(sol, k * x, k * y)
        return np.arctan2(u2, u1), k * v

    for fam in (sol.region1, sol.region2, sol.region3):
        _assert_samples_arc(sample, fam, lambda tol: tol)


@pytest.mark.parametrize("lh", [0.3, 0.5, 0.6, 1.0, 1.2195, 2.0, 2.8])
def test_crosstie_sampler_lattice_roundtrip(lh):
    """The same on the cross-tie's quarter cell.  Region III's seed angle
    carries the cancellation of `crosstie._w_of_lambda` at small s (ROADMAP
    item 1), which both the arcs and their inversion see: up to 5e-11 rad
    at L/H = 2.8, so region III is held to 6e-10.  Below L/H = 0.5426,
    region-III circles seeded at small s pass near (T, 0) a second time;
    the bracket [x + y, T] keeps them out.  On the left wall the sampler
    returns each region-III arc's arrival: the arc seeded at s ends at
    (0, s)."""
    sol = crosstie.build_crosstie(lh, 1.0)

    def sample(x, y):
        return crosstie._quarter_eval_batch(sol, x, y)

    for fam in (sol.region1, sol.region2):
        _assert_samples_arc(sample, fam, lambda tol: tol)
    _assert_samples_arc(sample, sol.region3, lambda tol: max(tol, 6e-10))

    s = sol.T * np.linspace(0.0, 1.0, 33)
    x, y, th, v = sol.region3.arrival(s)
    assert np.abs(x).max() <= 6e-10 and np.abs(y - s).max() <= 6e-10
    got_th, got_v = sample(np.zeros_like(s), s)
    assert np.abs(np.angle(np.exp(1j * (got_th - th)))).max() <= 6e-10
    assert np.abs(got_v - v).max() <= 6e-10


# --- points within roundoff of a seam ----------------------------------------

SEAM_POINTS = 2000
SEAM_DISTANCES = [0.0, 1e-17, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12]


def _arc_band(cx, cy, r, inside, rng):
    """SEAM_POINTS points of the circle (cx, cy, r) where inside(x, y)
    holds, kept 1 % of that angle range away from its ends, with their
    unit normals."""
    a = np.linspace(0.0, 2 * math.pi, 20001)
    a = a[inside(cx + r * np.cos(a), cy + r * np.sin(a))]
    lo, hi = a.min(), a.max()
    a = rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), SEAM_POINTS)
    return cx + r * np.cos(a), cy + r * np.sin(a), np.cos(a), np.sin(a)


def _off_seam(x, y, nx, ny, scale):
    """The points moved each SEAM_DISTANCE (relative to scale) to both
    sides along the normals: (distances, sides, points) stacked."""
    d = np.array([[-1.0], [1.0]])[None] * np.array(SEAM_DISTANCES)[:, None,
                                                                   None]
    return x + d * scale * nx, y + d * scale * ny


def _assert_continuous(theta):
    """Angles of points stacked by (distance, side, point): every one is
    finite and within 4 sqrt(d + 1e-15) of the on-seam angle at the same
    point, d the relative distance.  The angle is continuous across every
    seam, but next to the curve region II is seeded on it moves as the
    square root of the distance (measured: 1.2 sqrt(d) at d = 1e-12); the
    1e-15 covers the rounding of the moved points."""
    assert np.all(np.isfinite(theta))
    d = np.array(SEAM_DISTANCES)[:, None, None]
    assert np.all(np.abs(theta - theta[0, 0]) <= 4 * np.sqrt(d + 1e-15))


@pytest.mark.parametrize("lh", [0.6, 1.0, 1.2195, 1.5, 2.0, 2.6])
def test_crosstie_sampler_at_its_seams(lh):
    """Points on Gamma and on region III's terminal circle, and 1e-17 to
    1e-12 (relative to T) off them to either side, invert without a
    BracketError, with angles continuous across the seam; points 1e-16 T
    to 1e-12 T from the vortex, where region II's cusp is thinner than
    roundoff, invert without one too."""
    sol = crosstie.build_crosstie(lh, 1.0)
    T, H, a = sol.T, sol.H, sol.alpha
    rng = np.random.default_rng(int(lh * 1e4))

    def inside(x, y):
        return (x > 0) & (x < T) & (y > 0) & (y < H)

    _, _, th, v, _ = (float(z) for z in crosstie.region3_seed(T, sol.L))
    for circle in ((1 / a, H, 1 / a),
                   (T - math.cos(th) / v, -math.sin(th) / v, -1 / v)):
        x, y = _off_seam(*_arc_band(*circle, inside, rng), T)
        theta, _ = crosstie._quarter_eval_batch(sol, x, y)
        _assert_continuous(theta)

    phi = rng.uniform(0.5 * math.pi, math.pi, SEAM_POINTS)
    r = T * np.geomspace(1e-16, 1e-12, 5)[:, None]
    theta, v = crosstie._quarter_eval_batch(sol, T + r * np.cos(phi),
                                            r * np.sin(phi))
    assert np.all(np.isfinite(theta)) and np.all(np.isfinite(v))


@pytest.mark.parametrize("L", [0.1, 0.3, 0.5, 0.7])
def test_deg_minus_one_sampler_at_its_seams(L):
    """Points on region I's terminal arc and on region III's terminal
    circle, and 1e-17 to 1e-12 (relative to R) off them to either side,
    invert without a BracketError, with angles continuous across the
    seam."""
    R = 0.6
    sol = disc.build_deg_minus_one(R, L)
    rng = np.random.default_rng(int(L * 1e4))

    def inside(x, y):
        return (y > 0) & (y < x) & (x * x + y * y < R * R)

    mu0 = math.sin(float(disc._region3_phi(sol.s0, L)))
    s_end, _, _, v_end = (float(z) for z in disc.region3_seed_of_mu(mu0, L))
    for circle in ((sol.s0 + R, 0.0, R), (s_end - 1 / v_end, 0.0, -1 / v_end)):
        x, y = _off_seam(*_arc_band(*circle, inside, rng), R)
        u1, u2, _ = disc.deg_minus_one_sample(sol, x, y)
        _assert_continuous(np.arctan2(u2, u1))
