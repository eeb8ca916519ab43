import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nematic_walls import crosstie, disc
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
