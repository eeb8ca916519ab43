import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nematic_walls import crosstie, disc
from nematic_walls.contours import (contours_to_csv, level_curves,
                                   marching_squares)
from nematic_walls.core import POLAR, RECTANGLE, disc_inner_cutoff, make_grid

# --- reference: the per-cell loop the array kernel replaced -------------------

_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}


def _edge_point(edge, i, j, F, X, Y, level):
    if edge == 0:
        a, b = (i, j), (i + 1, j)
    elif edge == 1:
        a, b = (i + 1, j), (i + 1, j + 1)
    elif edge == 2:
        a, b = (i + 1, j + 1), (i, j + 1)
    else:
        a, b = (i, j + 1), (i, j)
    fa, fb = F[a], F[b]
    t = 0.5 if fb == fa else (level - fa) / (fb - fa)
    t = min(max(t, 0.0), 1.0)
    return (X[a] + t * (X[b] - X[a]), Y[a] + t * (Y[b] - Y[a]))


def reference_marching_squares(F, X, Y, level):
    F = np.asarray(F, dtype=float)
    n1, n2 = F.shape
    segments = []
    above = F > level
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            idx = (int(above[i, j]) | int(above[i + 1, j]) << 1
                   | int(above[i + 1, j + 1]) << 2 | int(above[i, j + 1]) << 3)
            if idx in (0, 15):
                continue
            if idx in (5, 10):
                center = 0.25 * (F[i, j] + F[i + 1, j]
                                 + F[i + 1, j + 1] + F[i, j + 1])
                if idx == 5:
                    pairs = [(3, 0), (1, 2)] if center > level else [(3, 2), (1, 0)]
                else:
                    pairs = [(0, 1), (2, 3)] if center > level else [(0, 3), (2, 1)]
            else:
                pairs = _CASES[idx]
            for e1, e2 in pairs:
                p = _edge_point(e1, i, j, F, X, Y, level)
                q = _edge_point(e2, i, j, F, X, Y, level)
                segments.append((p, q))
    return _reference_chain(segments)


def _reference_chain(segments, tol=1e-12):
    if not segments:
        return []

    def key(p):
        return (round(p[0] / max(tol, 1e-300)), round(p[1] / max(tol, 1e-300)))

    by_end = defaultdict(list)
    for k, (p, q) in enumerate(segments):
        by_end[key(p)].append((k, 0))
        by_end[key(q)].append((k, 1))
    used = [False] * len(segments)
    polys = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        chain = [p, q]
        # extend forward
        while True:
            candidates = [c for c in by_end[key(chain[-1])] if not used[c[0]]]
            if not candidates:
                break
            k, end = candidates[0]
            used[k] = True
            seg = segments[k]
            chain.append(seg[1 - end])
        # extend backward
        while True:
            candidates = [c for c in by_end[key(chain[0])] if not used[c[0]]]
            if not candidates:
                break
            k, end = candidates[0]
            used[k] = True
            seg = segments[k]
            chain.insert(0, seg[1 - end])
        polys.append(np.asarray(chain))
    return polys


def assert_matches_reference(F, X, Y, level):
    got = marching_squares(F, X, Y, level)
    ref = reference_marching_squares(F, X, Y, level)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes()  # -0.0 too
    return got


def _unit_square(n1=2, n2=2):
    xs, ys = np.linspace(0.0, 1.0, n1), np.linspace(0.0, 1.0, n2)
    return np.meshgrid(xs, ys, indexing="ij")


# --- single cells ---------------------------------------------------------------

_CORNERS = [(0, 0), (1, 0), (1, 1), (0, 1)]  # bit c of the case index


def _cell(case, above, below):
    F = np.empty((2, 2))
    for c, node in enumerate(_CORNERS):
        F[node] = above[c] if case >> c & 1 else below[c]
    return F


@pytest.mark.parametrize("case", [c for c in range(1, 15)])
def test_every_case_matches_reference(case):
    X, Y = _unit_square()
    F = _cell(case, [0.9, 0.3, 0.7, 0.45], [-0.2, -0.8, -0.35, -0.6])
    polys = assert_matches_reference(F, X, Y, 0.0)
    assert len(polys) == (2 if case in (5, 10) else 1)


@pytest.mark.parametrize("case", [5, 10])
@pytest.mark.parametrize("centre_above", [True, False])
def test_saddle_resolutions_match_reference(case, centre_above):
    X, Y = _unit_square()
    above, below = ([1.0, 0.8, 0.9, 1.1], [-0.1, -0.2, -0.3, -0.15])
    if not centre_above:
        above, below = ([-b for b in below], [-a for a in above])
    F = _cell(case, above, below)
    assert (F.mean() > 0.0) == centre_above
    polys = assert_matches_reference(F, X, Y, 0.0)
    assert len(polys) == 2


@pytest.mark.parametrize("seed", range(4))
def test_levels_at_node_values_match_reference(seed):
    rng = np.random.default_rng(seed)
    F = np.round(rng.uniform(-0.3, 0.3, size=(9, 11)), 1) + 0.0
    assert np.any(F == 0.0)
    X, Y = _unit_square(9, 11)
    assert_matches_reference(F, X, Y, 0.0)


def test_constant_and_empty_results():
    X, Y = _unit_square(5, 6)
    F = np.full((5, 6), 0.25)
    for level in (0.25, 0.0, 1.0):
        assert assert_matches_reference(F, X, Y, level) == []
    G = X + Y
    assert assert_matches_reference(G, X, Y, 5.0) == []
    assert assert_matches_reference(G, X, Y, -1.0) == []


# --- construct fields -----------------------------------------------------------

_DIV_BINS = 11
_ANGLE_LEVELS = np.linspace(-math.pi * 0.99, math.pi * 0.99, 13)


def _assert_construct_levels(u1, u2, v, X, Y):
    for lv in np.linspace(v.min(), v.max(), _DIV_BINS)[1:-1]:
        assert_matches_reference(v, X, Y, lv)
    theta = np.arctan2(u2, u1)
    for lv in _ANGLE_LEVELS:
        assert_matches_reference(theta, X, Y, lv)


def test_disc_construct_field_matches_reference():
    R = 0.6
    sol = disc.build_deg_minus_one(R, 0.5)
    grid = make_grid(POLAR, (disc_inner_cutoff(R), R * (1 - 1e-12)), 24, 48)
    X, Y = grid.nodes_xy()
    _assert_construct_levels(*disc.deg_minus_one_sample(sol, X, Y), X, Y)


def test_crosstie_construct_field_matches_reference():
    sol = crosstie.build_crosstie(1.0, 1.0)
    grid = make_grid(RECTANGLE, (0.0, 2 * sol.T, -1.0, 1.0), 24, 32)
    X, Y = grid.nodes_xy()
    _assert_construct_levels(*crosstie.crosstie_field_sample(sol, X, Y), X, Y)


# --- property test --------------------------------------------------------------

@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["smooth", "noise", "ties"]),
       st.sampled_from(["square", "polar"]), st.floats(-1.2, 1.2))
def test_random_fields_match_reference(n1, n2, seed, kind, coords, level):
    rng = np.random.default_rng(seed)
    if coords == "square":
        X, Y = _unit_square(n1, n2)
    else:
        r, t = np.meshgrid(np.linspace(0.1, 1.0, n1),
                           np.linspace(0.0, 2 * math.pi, n2), indexing="ij")
        X, Y = r * np.cos(t), r * np.sin(t)
    if kind == "smooth":
        c = rng.normal(size=4)
        F = np.sin(3 * c[0] * X + c[1]) * np.cos(3 * c[2] * Y + c[3])
    else:
        F = rng.uniform(-1.0, 1.0, size=(n1, n2))
    if kind == "ties":
        F = np.round(F, 1)
        level = float(rng.choice(F.ravel()))
    assert_matches_reference(F, X, Y, level)


def _segments(polys):
    """The polylines' segments, each as a sorted pair of endpoints rounded
    to 1e-9 (a vertex shared by two cells is computed in each cell, with
    the edge oriented either way, and chaining keeps one of the two)."""
    return sorted(tuple(sorted((tuple(np.round(p[k], 9)),
                                tuple(np.round(p[k + 1], 9)))))
                  for p in polys for k in range(len(p) - 1))


@given(st.integers(2, 10), st.integers(2, 10), st.integers(0, 2 ** 32 - 1),
       st.floats(-0.9, 0.9))
def test_masked_cells_take_case_zero(n1, n2, seed, level):
    """A mask drops exactly the masked cells' segments; an all-False mask
    changes nothing."""
    rng = np.random.default_rng(seed)
    X, Y = _unit_square(n1, n2)
    F = rng.uniform(-1.0, 1.0, size=(n1, n2))
    mask = rng.random((n1 - 1, n2 - 1)) < 0.4
    kept = []
    for i, j in zip(*np.nonzero(~mask)):
        cell = np.s_[i:i + 2, j:j + 2]
        kept += _segments(marching_squares(F[cell], X[cell], Y[cell], level))
    assert _segments(marching_squares(F, X, Y, level, mask)) == sorted(kept)
    plain = marching_squares(F, X, Y, level)
    unmasked = marching_squares(F, X, Y, level, np.zeros_like(mask))
    assert len(plain) == len(unmasked)
    assert all(np.array_equal(a, b) for a, b in zip(plain, unmasked))


def test_angle_level_curves_skip_the_branch_cut():
    """An angle field that winds once around the polar grid jumps by 2 pi
    across one ray; its level curves are the other rays only."""
    grid = make_grid(POLAR, (0.1, 1.0), 8, 32)
    X, Y = grid.nodes_xy()
    theta = np.arctan2(Y, X)
    levels = [-2.5, -1.0, 0.0, 1.0, 2.5, 3.0]
    for lv, polys in level_curves(grid, theta, levels, angle=True).items():
        (poly,) = polys
        assert np.allclose(np.arctan2(poly[:, 1], poly[:, 0]), lv,
                           rtol=0, atol=0.05)
    # without the mask, 3.0 also runs along the cut, just below -x
    plain = level_curves(grid, theta, [3.0])[3.0]
    assert len(plain) == 2 and np.vstack(plain)[:, 1].min() < 0.0


def test_contours_csv_bytes_match_per_row_format(tmp_path):
    awkward = np.array([0.0, -0.0, 5e-324, -1.5e-310, 0.1 + 0.2, 1 / 3,
                        -2 / 3 * 1e-300, 1.7976931348623157e308])
    rng = np.random.default_rng(2)
    polys = [awkward.reshape(-1, 2), rng.normal(size=(7, 2)),
             awkward[::-1].reshape(-1, 2)]
    levels = {-0.0: polys, 1 / 3: polys[1:], 5e-324: []}
    path = tmp_path / "c.csv"
    contours_to_csv(levels, path)
    expected = "level,poly_id,x,y\n" + "".join(
        f"{lv:.17g},{pid},{x:.17g},{y:.17g}\n"
        for lv, ps in levels.items() for pid, p in enumerate(ps) for x, y in p)
    assert path.read_bytes() == expected.encode()


def test_marching_squares_circle():
    n = 200
    xs = np.linspace(-1, 1, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    F = X ** 2 + Y ** 2
    polys = marching_squares(F, X, Y, 0.25)
    assert len(polys) >= 1
    pts = np.vstack(polys)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert np.abs(r - 0.5).max() < 2e-3


# --- periodic seams -------------------------------------------------------------

def test_level_curves_close_the_polar_seam():
    grid = make_grid(POLAR, (0.1, 1.0), 32, 64)
    X, Y = grid.nodes_xy()
    (polys,) = level_curves(grid, X ** 2 + Y ** 2, [0.25]).values()
    assert len(polys) == 1
    (poly,) = polys
    assert len(poly) == grid.n2 + 1
    assert np.allclose(poly[0], poly[-1], rtol=0, atol=1e-15)
    assert np.abs(np.hypot(poly[:, 0], poly[:, 1]) - 0.5).max() < 2e-3


def test_level_curves_cross_the_periodic_x_seam():
    grid = make_grid(RECTANGLE, (0.0, 1.0, 0.0, 1.0), 20, 20)
    X, Y = grid.nodes_xy()
    (polys,) = level_curves(grid, Y, [0.05]).values()
    assert len(polys) == 1
    assert polys[0][:, 0].min() == 0.0 and polys[0][:, 0].max() == 1.0
    assert np.all(polys[0][:, 1] == 0.05)


def _level_curves_from_node_arrays(grid, F, levels, angle=False):
    """level_curves as written on `Grid2D.nodes_xy` with the seam appended
    to every array, and the corners stacked for the branch-cut mask."""
    X, Y = grid.nodes_xy()
    if grid.kind == POLAR:
        F, X, Y = (np.concatenate([A, A[:, :1]], axis=1) for A in (F, X, Y))
    else:
        F, Y = (np.concatenate([A, A[:1]], axis=0) for A in (F, Y))
        X = np.concatenate([X, np.full_like(X[:1], grid.extents[1])], axis=0)
    mask = None
    if angle:
        corners = np.stack([F[:-1, :-1], F[1:, :-1], F[1:, 1:], F[:-1, 1:]])
        mask = corners.max(axis=0) - corners.min(axis=0) > np.pi
    return {lv: marching_squares(F, X, Y, lv, mask) for lv in levels}


@pytest.mark.parametrize("angle", [False, True])
@pytest.mark.parametrize("grid", [
    make_grid(POLAR, (1e-3, 0.6), 48, 96),
    make_grid("rectangle", (0.0, 1.3, -0.5, 0.5), 40, 32),
], ids=["polar", "rectangle"])
def test_level_curves_match_node_array_construction(grid, angle):
    """The nodes formed from the grid's axes and the pairwise corner
    max/min give the polylines of the node arrays, bit for bit."""
    X, Y = grid.nodes_xy()
    F = np.arctan2(Y - 0.1, X - 0.2) if angle else np.sin(5 * X) * Y
    levels = np.linspace(-0.99 * np.pi, 0.99 * np.pi, 13) if angle \
        else np.linspace(F.min(), F.max(), 11)[1:-1]
    got = level_curves(grid, F, levels, angle=angle)
    want = _level_curves_from_node_arrays(grid, F, levels, angle=angle)
    assert list(got) == list(want)
    assert sum(len(ps) for ps in got.values()) >= len(levels) // 2
    for lv in levels:
        assert len(got[lv]) == len(want[lv])
        assert all(np.array_equal(a, b) for a, b in zip(got[lv], want[lv]))
