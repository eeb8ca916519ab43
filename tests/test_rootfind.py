import math
from unittest import mock

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

    v = disc.region2_v0(s, R, L)
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


# --- arc scan ------------------------------------------------------------------

def _matrix_arc_roots(circle, nodes, x, y, both):
    """Reference arc scan: the residual's sign on the whole (nodes x
    points) matrix, then the first (and last) sign-change cell per point."""
    def resid(s, x, y):
        cx, cy, r2 = circle(s)
        return (x - cx) ** 2 + (y - cy) ** 2 - r2

    sgn = np.sign(resid(nodes[:, None], x, y))
    change = (sgn[:-1] * sgn[1:]) <= 0
    ok = change.any(axis=0)
    cells = [np.argmax(change, axis=0)]
    if both:
        cells.append(len(nodes) - 2 - np.argmax(change[::-1], axis=0))
    roots = []
    for cell in cells:
        s = np.full(x.shape, np.nan)
        if ok.any():
            c = cell[ok]
            s[ok] = bracketed_root(resid, nodes[c], nodes[c + 1],
                                   args=(x[ok], y[ok]))
        roots.append(s)
    return roots


def _disc_sample(n):
    sol = disc.build_deg_minus_one(0.6, 0.5)
    r = np.linspace(0.01, 0.6 * (1 - 1e-12), n)
    phi = np.linspace(0.0, 2 * math.pi, 2 * n)
    X = r[:, None] * np.cos(phi)
    Y = r[:, None] * np.sin(phi)
    return disc, lambda: disc.deg_minus_one_sample(sol, X, Y)


def _crosstie_sample(n):
    sol = crosstie.build_crosstie(1.0, 1.0)
    X, Y = np.meshgrid(np.linspace(0.0, 2 * sol.T, 2 * n),
                       np.linspace(-1.0, 1.0, n), indexing="ij")
    return crosstie, lambda: crosstie.crosstie_field_sample(sol, X, Y)


@pytest.mark.parametrize("setup, n", [(_disc_sample, 8), (_disc_sample, 40),
                                      (_crosstie_sample, 40)])
def test_arc_scan_matches_matrix_scan(setup, n, monkeypatch):
    """Every bracketed_arc_solve(_both) call of a field sample returns the
    roots of the (nodes x points) matrix scan bit for bit, and so does the
    sampled field: with few points the scan takes all nodes in one block,
    with many a few nodes (or one) per block."""
    module, sample = setup(n)
    calls = []
    for name in ("bracketed_arc_solve", "bracketed_arc_solve_both"):
        solve = getattr(rootfind, name)

        def checked(*args, solve=solve, name=name, **kw):
            got = solve(*args, **kw)
            with monkeypatch.context() as m:
                m.setattr(rootfind, "_arc_roots", _matrix_arc_roots)
                want = solve(*args, **kw)
            assert np.array_equal(np.asarray(got), np.asarray(want),
                                  equal_nan=True), name
            calls.append(name)
            return got

        monkeypatch.setattr(module, name, checked)
    fast = sample()
    assert set(calls) == {"bracketed_arc_solve", "bracketed_arc_solve_both"}
    monkeypatch.setattr(rootfind, "_arc_roots", _matrix_arc_roots)
    for a, b in zip(fast, sample()):
        assert np.array_equal(a, b, equal_nan=True)


@given(st.floats(1e-9, 1.0), st.floats(1.0 + 1e-9, 1e3),
       st.integers(2, 200))
def test_geometric_scan_nodes_match_unique(lo, ratio, n_scan):
    """The geometric scan nodes are np.unique of the uniform and the
    geometric nodes, bit for bit: sorted, each value once."""
    hi = lo * ratio
    seen = []

    def capture(circle, nodes, x, y, both):
        seen.append(nodes)
        return [x, y]

    with mock.patch.object(rootfind, "_arc_roots", capture):
        rootfind.bracketed_arc_solve_both(None, lo, hi, np.zeros(1),
                                          np.zeros(1), n_scan=n_scan,
                                          geometric=True)
    want = np.unique(np.concatenate(
        [np.linspace(lo, hi, n_scan),
         lo * (hi / lo) ** np.linspace(0.0, 1.0, n_scan)]))
    assert seen[0].tobytes() == want.tobytes()
