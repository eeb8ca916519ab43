import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nematic_walls.core import (G17_CELL, EnergyBreakdown, Field2D,
                                JumpSegment, Params, csv_rows, field_from_csv,
                                field_to_csv, g17_cells, make_grid,
                                sample_analytic)


class TestParams:
    def test_defaults_valid(self):
        Params()

    @pytest.mark.parametrize("kw", [dict(L=0.0), dict(L=-1.0), dict(eps=0.0),
                                    dict(H=-0.1), dict(T=0.0), dict(R=0.0),
                                    dict(a=1.0), dict(a=-0.1)])
    def test_invariants_enforced(self, kw):
        with pytest.raises(ValueError):
            Params(**kw)


class TestMakeGrid:
    def test_rectangle_periodic_example(self):
        g = make_grid("rectangle", (-1, 1, -0.5, 0.5), 8, 4)
        assert g.shape == (8, 5)          # periodic in x: nx node columns
        assert g.spacing == (0.25, 0.25)

    def test_polar_example(self):
        g = make_grid("polar", (0.01, 0.6), 16, 32)
        assert g.shape == (17, 32)
        assert g.spacing[1] == pytest.approx(2 * math.pi / 32, abs=0)

    def test_counts_too_small(self):
        with pytest.raises(ValueError, match="counts too small"):
            make_grid("rectangle", (-1, 1, -1, 1), 2, 8)

    def test_invalid_extents(self):
        with pytest.raises(ValueError, match="invalid extents"):
            make_grid("rectangle", (1, -1, -1, 1), 8, 8)
        with pytest.raises(ValueError, match="invalid extents"):
            make_grid("polar", (0.5, 0.2), 8, 8)

    def test_bit_exact_reproducibility(self):
        a = make_grid("rectangle", (-1.7, 2.3, -0.9, 1.1), 37, 23)
        b = make_grid("rectangle", (-1.7, 2.3, -0.9, 1.1), 37, 23)
        xa, ya = a.nodes_xy()
        xb, yb = b.nodes_xy()
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)


class TestSampleAnalytic:
    def test_constant(self):
        g = make_grid("rectangle", (-1, 1, -1, 1), 4, 4)
        f = sample_analytic(g, lambda X, Y: (np.ones_like(X), np.zeros_like(X)))
        assert np.all(f.values[..., 0] == 1.0)
        assert np.all(f.values[..., 1] == 0.0)

    def test_e_theta_on_polar(self):
        g = make_grid("polar", (0.5, 1.0), 4, 8)
        f = sample_analytic(g, lambda X, Y: (-Y / np.hypot(X, Y),
                                             X / np.hypot(X, Y)))
        rs, ts = g.axes()
        for j, th in enumerate(ts):
            assert f.values[0, j, 0] == pytest.approx(-math.sin(th), abs=1e-15)
            assert f.values[0, j, 1] == pytest.approx(math.cos(th), abs=1e-15)

    def test_hedgehog_at_boundary(self):
        # u = r e_r + sqrt(1-r^2) e_theta equals e_r at r = 1
        g = make_grid("polar", (0.25, 1.0), 4, 8)

        def f(X, Y):
            r = np.hypot(X, Y)
            q = np.sqrt(np.maximum(1 - r ** 2, 0.0))
            return X + q * (-Y / r), Y + q * (X / r)

        fld = sample_analytic(g, f)
        rs, ts = g.axes()
        for j, th in enumerate(ts):
            assert fld.values[-1, j, 0] == pytest.approx(math.cos(th), abs=1e-14)
            assert fld.values[-1, j, 1] == pytest.approx(math.sin(th), abs=1e-14)

    def test_nonfinite_rejected(self):
        g = make_grid("rectangle", (-1, 1, -1, 1), 4, 4)
        with pytest.raises(ValueError, match="finite"), \
                np.errstate(divide="ignore"):
            sample_analytic(g, lambda X, Y: (1.0 / (X - X), Y))


class TestJumpSegment:
    """A segment derives its vertex traces (and divergences) from trace_fn
    (and div_fn) at its arclengths, and rejects vertex traces that are not
    unit or whose normal component jumps."""

    UP = (math.sqrt(0.5), math.sqrt(0.5))
    UM = (-math.sqrt(0.5), math.sqrt(0.5))

    @staticmethod
    def _segment(up, um, **kw):
        n = 5
        xs = np.linspace(0, 1, n)

        def traces(arc):
            n = np.size(arc)
            return np.tile(up, (n, 1)), np.tile(um, (n, 1))

        return JumpSegment(np.stack([xs, np.zeros(n)], axis=-1),
                           np.tile([0.0, 1.0], (n, 1)), traces, **kw)

    def test_valid_segment(self):
        seg = self._segment(self.UP, self.UM)
        assert seg.length == pytest.approx(1.0)
        assert np.array_equal(seg.trace_plus, np.tile(self.UP, (5, 1)))
        assert np.array_equal(seg.trace_minus, np.tile(self.UM, (5, 1)))
        assert seg.div_plus is None and seg.div_minus is None

    def test_vertex_divergences_from_div_fn(self):
        seg = self._segment(self.UP, self.UM,
                            div_fn=lambda arc: (2.0 * arc, -arc))
        assert np.array_equal(seg.div_plus, 2.0 * seg.arclengths)
        assert np.array_equal(seg.div_minus, -seg.arclengths)

    def test_nonunit_trace_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            self._segment(1.1 * np.array(self.UP), self.UM)

    def test_normal_jump_rejected(self):
        with pytest.raises(ValueError, match="normal"):
            self._segment(self.UP, (0.0, -1.0))  # normal component flips


class TestEnergyBreakdown:
    def test_total_is_exact_sum(self):
        eb = EnergyBreakdown(bulk_div=0.1, wall_interior=0.2,
                             wall_boundary=0.3, grad_term=0.4,
                             potential_term=0.5)
        assert eb.total == 0.1 + 0.2 + 0.3 + 0.4 + 0.5

    def test_as_dict_keys(self):
        d = EnergyBreakdown().as_dict(Params())
        assert set(d) == {"grad", "potential", "bulk_div", "wall_interior",
                          "wall_boundary", "total", "params"}


def test_field_csv_roundtrip(tmp_path):
    g = make_grid("polar", (0.5, 1.5), 6, 10)
    rng = np.random.default_rng(3)
    f = Field2D(g, rng.normal(size=(*g.shape, 2)))
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,u1,u2"
    g2 = field_from_csv(g, path)
    assert np.allclose(g2.values, f.values, atol=0, rtol=1e-15)


_AWKWARD = [0.0, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308,
            0.1 + 0.2, 1 / 3, -2 / 3 * 1e-300, 1.7976931348623157e308]


def test_field_csv_bytes_match_per_row_format(tmp_path):
    """Rectangle grids (one format string per x-row) and polar grids (one
    per block of nodes) both write what per-node formatting writes."""
    grids = [
        make_grid("rectangle", (0.0, 1.0, -1.0, 1.0), 70, 60),  # > one block
        make_grid("rectangle", (0.0, 2.0 * 0.6180339887498949, -0.5, 0.5),
                  175, 224),
        make_grid("polar", (1e-3, 0.6), 96, 128),
    ]
    for k, g in enumerate(grids):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(*g.shape, 2)) * 10.0 ** rng.integers(
            -300, 300, size=(*g.shape, 2))
        vals.ravel()[:len(_AWKWARD)] = _AWKWARD
        vals.ravel()[-len(_AWKWARD):] = _AWKWARD
        f = Field2D(g, vals)
        path = tmp_path / f"f{k}.csv"
        field_to_csv(f, path)
        X, Y = g.nodes_xy()
        expected = "x,y,u1,u2\n" + "".join(
            f"{X[i, j]:.17g},{Y[i, j]:.17g},{vals[i, j, 0]:.17g},{vals[i, j, 1]:.17g}\n"
            for i in range(g.n1) for j in range(g.n2))
        assert path.read_bytes() == expected.encode(), g


# --- the vectorized '%.17g' formatter --------------------------------------------

def _assert_g17(values):
    """g17_cells writes every value as '%.17g' does, one per row."""
    values = np.asarray(values, dtype=float)
    got = csv_rows(g17_cells(values[:, None])).decode().splitlines()
    expected = ["%.17g" % v for v in values.tolist()]
    bad = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected)
           if g != e]
    assert not bad and len(got) == len(expected), bad[:5]


def _g17_edges() -> list:
    """Powers of ten 1e-6 ... 1e22 with their one-ulp neighbours; the
    closest double to 1e-6, which lies below it; the '%g' switch from
    exponent to fixed notation at 1e-4 and the exponents at 1e-5; ties of
    the 17th digit; the carry of 99999999999999999.0 into 1e17; zeros,
    subnormals, extremes and non-finite values; all with both signs."""
    edges = [9.9999999999999995e-7, 1e-5, 1e-4, 9.99999999999999e-5,
             0.000099999999999999991, 99999999999999999.0,
             9999999999999998.0, 0.0, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, math.inf, math.nan]
    for k in range(-6, 23):
        v = float(f"1e{k}")
        edges += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    edges += (1e15 + 0.25 * np.arange(16)).tolist()  # halves of the 17th digit
    return edges + [-v for v in edges]


def test_g17_edges():
    _assert_g17(_g17_edges())


def test_g17_on_a_wide_sample():
    """Normals, values spread uniformly over 26 decades, integers and
    dyadic fractions scaled by powers of ten, random bit patterns."""
    rng = np.random.default_rng(19)
    n = 20000
    _assert_g17(np.concatenate([
        rng.normal(size=n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 18.0, n),
        np.rint(rng.normal(size=n) * 10.0 ** rng.integers(0, 12, n))
        * 10.0 ** rng.integers(-6, 6, n),
        rng.integers(-2 ** 30, 2 ** 30, n) / 2.0 ** rng.integers(0, 40, n),
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
    ]))


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_g17_property_bit_patterns(bits):
    _assert_g17(np.array(bits, dtype=np.uint64).view(np.float64))


@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=64))
def test_g17_property_floats(values):
    _assert_g17(values)


@given(st.lists(st.floats(1e-7, 1e17), min_size=1, max_size=64),
       st.lists(st.booleans(), min_size=64, max_size=64))
def test_g17_property_vectorized_range(values, negative):
    """The range the vectorized path formats, with its ends."""
    _assert_g17(np.where(negative[:len(values)], -1.0, 1.0) * values)


def test_csv_rows_broadcasts_its_fields():
    """Fields broadcast over the leading axes: a column of x against a row
    of y gives every (x, y) pair, in C order."""
    xs, ys = np.array([0.5, -2.0]), np.array([1e-7, 3.0, 0.0])
    text = csv_rows(g17_cells(xs[:, None, None]), g17_cells(ys[None, :, None]))
    assert g17_cells(np.zeros((2, 3))).shape == (2, 3, G17_CELL)
    assert text.decode() == "".join(f"{x:.17g},{y:.17g}\n"
                                    for x in xs for y in ys)
