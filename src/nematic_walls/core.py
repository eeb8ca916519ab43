"""Shared geometry and field types.

Grids are uniform, rectangle or polar; fields always store Cartesian
components (u1, u2) per node, even on polar grids, so the metric-aware
stencils live in one place.  A jump segment is a polyline with a unit
normal per vertex and one function of arclength for its one-sided unit
traces (and one for its divergence traces); the vertex values are derived
from those functions, and the normal component of the trace pair must be
continuous across the jump.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

RECTANGLE = "rectangle"
POLAR = "polar"

# Inner cutoff for disc domains: the polar grid starts at
# max(1e-3, r_out/1024) so the coordinate singularity is excluded.  The
# constructions of interest are bounded near the origin, so the excluded
# energy is O(r_in^2).
def disc_inner_cutoff(r_out: float) -> float:
    return max(1e-3, r_out / 1024.0)


@dataclass(frozen=True)
class Params:
    """Parameter bundle (L, eps, H, T, R, a).

    L   elastic coefficient multiplying the squared divergence
    eps singular-perturbation scale (only the eps-level paths use it)
    H   half-height of the rectangle
    T   half-period of the rectangle
    R   disc radius, or annulus outer radius (annulus inner radius is 1)
    a   vertical component of the rectangle boundary data, in [0, 1)
    """

    L: float = 1.0
    eps: float = 1e-2
    H: float = 1.0
    T: float = 1.0
    R: float = 1.0
    a: float = 0.0

    def __post_init__(self):
        # every rule the values break, one line each
        broken = [rule for rule, ok in (
            ("L > 0", self.L > 0), ("eps > 0", self.eps > 0),
            ("H > 0", self.H > 0), ("T > 0", self.T > 0),
            ("R > 0", self.R > 0), ("a in [0,1)", 0.0 <= self.a < 1.0))
            if not ok]
        if broken:
            raise ValueError("\n".join(f"{rule} violated" for rule in broken))

    def with_(self, **kw) -> "Params":
        return replace(self, **kw)


@dataclass(frozen=True)
class Grid2D:
    """Uniform structured grid.

    rectangle: extents (x_lo, x_hi, y_lo, y_hi); nx, ny cell counts;
      always periodic in x (nx node columns; x_hi is x_lo again).
    polar: extents (r_in, r_out); nx radial cells, ny angular cells;
      always periodic in theta (ny node columns in theta).

    Node arrays are (n1, n2): first axis is x (or r), second y (or theta).
    """

    kind: str
    extents: tuple
    nx: int
    ny: int

    def __post_init__(self):
        if self.kind not in (RECTANGLE, POLAR):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("counts too small (nx, ny >= 4)")
        if self.kind == RECTANGLE:
            x_lo, x_hi, y_lo, y_hi = self.extents
            if not (x_hi > x_lo and y_hi > y_lo):
                raise ValueError(f"invalid extents {self.extents}")
        else:
            r_in, r_out = self.extents
            if not (r_in >= 0.0 and r_out > r_in):
                raise ValueError(f"invalid extents {self.extents}")

    # --- shape -----------------------------------------------------------
    @property
    def n1(self) -> int:
        if self.kind == RECTANGLE:
            return self.nx  # x nodes, periodic
        return self.nx + 1  # radial nodes

    @property
    def n2(self) -> int:
        if self.kind == RECTANGLE:
            return self.ny + 1
        return self.ny  # theta nodes, periodic

    @property
    def shape(self) -> tuple:
        return (self.n1, self.n2)

    @property
    def n_nodes(self) -> int:
        return self.n1 * self.n2

    def periodic_first(self, a: np.ndarray) -> np.ndarray:
        """A view of a with the periodic axis first: (theta, r) if polar."""
        return a if self.kind == RECTANGLE else a.swapaxes(0, 1)

    @property
    def spacing(self) -> tuple:
        if self.kind == RECTANGLE:
            x_lo, x_hi, y_lo, y_hi = self.extents
            return ((x_hi - x_lo) / self.nx, (y_hi - y_lo) / self.ny)
        r_in, r_out = self.extents
        return ((r_out - r_in) / self.nx, 2.0 * math.pi / self.ny)

    # --- coordinates ------------------------------------------------------
    def axes(self):
        """Native 1D coordinate axes: (x, y) or (r, theta)."""
        h1, h2 = self.spacing
        if self.kind == RECTANGLE:
            x_lo, x_hi, y_lo, y_hi = self.extents
            xs = x_lo + h1 * np.arange(self.n1)
            ys = y_lo + h2 * np.arange(self.n2)
            return xs, ys
        r_in, r_out = self.extents
        rs = r_in + h1 * np.arange(self.n1)
        ts = h2 * np.arange(self.n2)
        return rs, ts

    def mesh(self):
        """Native coordinates on the (n1, n2) node lattice."""
        a1, a2 = self.axes()
        return np.meshgrid(a1, a2, indexing="ij")

    def nodes_xy(self):
        """Cartesian coordinates of every node, shape (n1, n2) each."""
        A1, A2 = self.mesh()
        if self.kind == RECTANGLE:
            return A1, A2
        return A1 * np.cos(A2), A1 * np.sin(A2)


def make_grid(kind: str, extents, nx: int, ny: int) -> Grid2D:
    return Grid2D(kind=kind, extents=tuple(float(e) for e in extents),
                  nx=int(nx), ny=int(ny))


@dataclass
class Field2D:
    """Sampled R^2-valued field: values[i, j] = (u1, u2) at node (i, j)."""

    grid: Grid2D
    values: np.ndarray  # (n1, n2, 2)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (*self.grid.shape, 2):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {(*self.grid.shape, 2)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def copy(self) -> "Field2D":
        return Field2D(self.grid, self.values.copy())


def sample_analytic(grid: Grid2D, f: Callable[[float, float], tuple]) -> Field2D:
    """Sample f(x, y) -> (u1, u2) at every node (Cartesian arguments)."""
    X, Y = grid.nodes_xy()
    out = np.empty((*grid.shape, 2))
    out[..., 0], out[..., 1] = f(X, Y)
    return Field2D(grid, out)


# --- CSV: '%.17g' for whole arrays -------------------------------------------
#
# A float with 1e-6 < |x| < 1e16 (the double nearest 1e-6 lies below
# 10^-6) has a 17-digit decimal mantissa m with 10^16 <= m < 10^17 and
# |x| 10^k = m to rounding, for k = 16 - floor(log10 |x|) in 1..22, where
# 10^k is an exact double.  Dekker's TwoProduct
# (Dekker 1971) gives |x| 10^k exactly as hi + lo; hi >= 10^16 > 2^53 is an
# even integer, so rint(lo), which rounds half to even, rounds the sum as
# '%.17g' does.  The digits come four at a time from a table, and each
# value's characters sit in a fixed-width cell whose unused bytes are NUL;
# deleting the NULs of the whole file leaves the CSV text.  Zeros take the
# same path (m = 0); NaN, inf and the rest of the range go through
# '%.17g' itself.

# the longest '%.17g' of a float64, e.g. '-2.2250738585072014e-308'
G17_CELL = 24
_POW10 = np.array([float(10 ** k) for k in range(23)])
_IPOW10 = np.array([10 ** k for k in range(17)], dtype=np.int64)


@functools.cache
def _digit_table() -> np.ndarray:
    """Little-endian uint32 holding the 4 ASCII digits of v at [v] for v <
    10^4, and at [10^4 + v] with the trailing zeros as NUL.  Built on first
    use, so that a run which writes no CSV does not build it."""
    v = np.arange(10000, dtype=np.uint32)
    table = np.zeros(20000, "<u4")
    for i, p in enumerate((1000, 100, 10, 1)):
        char = (v // p % 10 + ord("0")) * 256 ** i  # byte i of the word
        table[:10000] += char
        table[10000:] += char * (v % (10 * p) != 0)
    table.flags.writeable = False
    return table


def _two_product(a, b):
    """(hi, lo) with hi = fl(a b) and hi + lo = a b exactly (Dekker)."""
    def split(v):
        c = 134217729.0 * v  # 2^27 + 1
        h = c - (c - v)
        return h, v - h

    hi = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def g17_cells(values) -> np.ndarray:
    """'%.17g' % v of every float v, as an array of shape values.shape +
    (G17_CELL,) of uint8: each value's characters in order, with NUL
    bytes between and after them (see `csv_rows`)."""
    x = np.asarray(values, dtype=float)
    shape, x = x.shape, x.ravel()
    a = np.abs(x)
    kernel = (a > 1e-6) & (a < 1e16)
    zero = a == 0
    a = np.where(kernel, a, 1.0)
    # 1. the decimal exponent e and the mantissa m = rint(a 10^(16 - e)),
    # with e corrected on the exact product hi + lo: hi alone can round
    # up to a power of ten that the product lies below
    e = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.int8)
    hi, lo = _two_product(a, _POW10[16 - e])
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += high[fix].astype(np.int8) - low[fix]
        hi[fix], lo[fix] = _two_product(a[fix], _POW10[16 - e[fix]])
    # m < 10^17: no double in the range lies within half a unit of the
    # 17th digit below a power of ten, so rounding never carries into an
    # 18th digit
    m = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    m[zero] = 0
    e[zero] = 0
    # every exponent is one layout: sort by it (a radix sort, as e is
    # 8-bit) and place each in slices
    order = np.argsort(e, kind="stable")
    e, m = e[order], m[order]
    # 2. the 17 digits, trailing zeros as NUL: m = d0 g1 g2 g3 g4 in
    # groups of 4 digits, each stripped when all groups after it are 0
    q = (m // 10 ** 8).astype(np.uint32)
    r = (m - q.astype(np.int64) * 10 ** 8).astype(np.uint32)
    d0 = q // 10 ** 8
    q -= d0 * 10 ** 8
    table = _digit_table()
    groups = np.empty((x.size, 5), "<u4")
    groups[:, 0] = table[d0]
    strip = np.ones(x.size, dtype=bool)
    for k, g in ((4, r % 10000), (3, r // 10000), (2, q % 10000),
                 (1, q // 10000)):
        groups[:, k] = table[g + strip * 10000]
        strip &= g == 0
    digits = groups.view(np.uint8)[:, 3:]  # d0 is '000' + d0
    # 3. sign, point or exponent by the rules of %g: fixed notation for
    # -4 <= e < 17, the integer digits kept, the point only before a
    # nonzero digit
    cells = np.zeros((x.size, G17_CELL), np.uint8)
    cells[:, 0] = np.signbit(x[order]) * ord("-")
    bounds = np.searchsorted(e, np.arange(-6, 18)).tolist()
    for X, s, t in zip(range(-6, 17), bounds, bounds[1:]):
        if s == t:
            continue
        c, d, frac = cells[s:t, 1:], digits[s:t], m[s:t]
        if X >= 0:
            np.maximum(d[:, :X + 1], ord("0"), out=c[:, :X + 1])
            c[:, X + 1] = (frac % _IPOW10[16 - X] != 0) * ord(".")
            c[:, X + 2:18] = d[:, X + 1:]
        elif X >= -4:
            lead = np.frombuffer(b"0." + b"0" * (-X - 1), np.uint8)
            c[:, :lead.size] = lead
            c[:, lead.size:lead.size + 17] = d
        else:
            c[:, 0] = d[:, 0]
            c[:, 1] = (frac % _IPOW10[16] != 0) * ord(".")
            c[:, 2:18] = d[:, 1:]
            c[:, 18:22] = np.frombuffer(b"e-0%d" % -X, np.uint8)
    out = np.empty_like(cells)
    # whole cells move as single items
    out.view(f"V{G17_CELL}")[order] = cells.view(f"V{G17_CELL}")
    other = np.flatnonzero(~(kernel | zero))
    if other.size:
        text = [b"%.17g" % v for v in x[other].tolist()]
        out[other] = np.array(text, dtype=f"S{G17_CELL}").view(
            np.uint8).reshape(-1, G17_CELL)
    return out.reshape(*shape, G17_CELL)


def csv_rows(*fields: np.ndarray) -> bytes:
    """CSV text of the rows whose fields are `g17_cells` arrays of shape
    (..., k, G17_CELL), k fields each, which broadcast together over their
    leading axes: a row holds the fields of every array in turn, joined by
    ',' and ended by a newline; rows follow in C order."""
    shape = np.broadcast_shapes(*(f.shape[:-2] for f in fields))
    width = sum(f.shape[-2] for f in fields)
    rows = np.zeros((*shape, width, G17_CELL + 1), np.uint8)
    k = 0
    for f in fields:
        rows[..., k:k + f.shape[-2], :G17_CELL] = f
        k += f.shape[-2]
    rows[..., :-1, G17_CELL] = ord(",")
    rows[..., -1, G17_CELL] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


# CSV rows per write: bounds the formatter's buffers
CSV_ROWS = 2048


def field_to_csv(field: Field2D, path) -> None:
    """Snapshot CSV: header x,y,u1,u2; row-major over nodes; each value as
    '%.17g' writes it.  On rectangle grids each x and each y is formatted
    once and gathered per node; on polar grids the nodes' x and y are
    formed per written block, as `Grid2D.nodes_xy` forms them."""
    grid = field.grid
    a1, a2 = grid.axes()
    if grid.kind == RECTANGLE:
        xy = [np.broadcast_to(g17_cells(a), (*grid.shape, 1, G17_CELL))
              for a in (a1[:, None, None], a2[None, :, None])]

        def nodes(rows):
            return [c[rows] for c in xy]
    else:
        cos_t, sin_t = np.cos(a2), np.sin(a2)

        def nodes(rows):
            r = a1[rows, None]
            return [g17_cells(np.stack([r * cos_t, r * sin_t], axis=-1))]
    step = -(-CSV_ROWS // grid.n2)  # node rows per write
    with open(path, "wb") as fh:
        fh.write(b"x,y,u1,u2\n")
        for i in range(0, grid.n1, step):
            rows = slice(i, i + step)
            fh.write(csv_rows(*nodes(rows), g17_cells(field.values[rows])))


def table_to_csv(table, path, header: str) -> None:
    """CSV of a header line, then one row per row of the 2D float table,
    each value as '%.17g' writes it."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(csv_rows(g17_cells(table)))


def field_from_csv(grid: Grid2D, path) -> Field2D:
    """The field of a snapshot CSV whose x, y columns are the nodes of grid,
    to 1e-12 times the grid's largest extent; ValueError otherwise."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape[0] != grid.n_nodes:
        raise ValueError(f"{path}: {data.shape[0]} rows, grid has {grid.n_nodes} nodes")
    offset = np.abs(data[:, :2] - np.stack(grid.nodes_xy(), axis=-1)
                    .reshape(-1, 2)).max()
    if offset > 1e-12 * max(abs(e) for e in grid.extents):
        raise ValueError(f"{path}: nodes off the grid's by up to "
                         f"{float(offset)!r}")
    vals = data[:, 2:4].reshape(grid.n1, grid.n2, 2)
    return Field2D(grid, vals)


UNIT_TOL = 1e-12
NORMAL_JUMP_TOL = 1e-10


@dataclass
class JumpSegment:
    """Oriented jump curve with one-sided traces.

    polyline     (N, 2) ordered vertices
    normals      (N, 2) unit normal per vertex, pointing from the + side
                 to the - side
    trace_fn     callable: arclength array (M,) -> (u_plus, u_minus), the
                 (M, 2) unit traces on both sides from one evaluation of
                 the wall's angle; the wall quadrature evaluates the traces
                 at its nodes through it
    div_fn       optional callable: arclength array (M,) -> (v_plus,
                 v_minus), the divergence traces (used by the wall
                 criticality residuals)
    length_scale optional per-segment arc/chord ratio, so quadrature uses
                 the true curve measure on curved walls
    boundary     True when the segment lies on the domain boundary; it is
                 then charged to the boundary wall term, with the minus
                 trace holding the boundary datum g

    trace_plus, trace_minus (N, 2) and div_plus, div_minus (N,) are the
    vertex values, trace_fn and div_fn evaluated once at `arclengths`;
    div_plus and div_minus are None without div_fn.
    """

    polyline: np.ndarray
    normals: np.ndarray
    trace_fn: Callable
    div_fn: Optional[Callable] = None
    length_scale: Optional[np.ndarray] = None
    boundary: bool = False
    trace_plus: np.ndarray = field(init=False, repr=False)
    trace_minus: np.ndarray = field(init=False, repr=False)
    div_plus: Optional[np.ndarray] = field(init=False, repr=False)
    div_minus: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.polyline = np.atleast_2d(np.asarray(self.polyline, dtype=float))
        self.normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        n = self.polyline.shape[0]
        if n < 2:
            raise ValueError("polyline needs at least 2 vertices")
        arcs = self.arclengths
        self.trace_plus, self.trace_minus = (
            np.asarray(u, dtype=float) for u in self.trace_fn(arcs))
        self.div_plus = self.div_minus = None
        if self.div_fn is not None:
            self.div_plus, self.div_minus = (
                np.asarray(v, dtype=float) for v in self.div_fn(arcs))
        for name in ("normals", "trace_plus", "trace_minus"):
            arr = getattr(self, name)
            if arr.shape != (n, 2):
                raise ValueError(f"{name} shape {arr.shape} != {(n, 2)}")
        self.validate()

    def validate(self):
        for name in ("trace_plus", "trace_minus", "normals"):
            arr = getattr(self, name)
            err = np.abs(np.hypot(arr[:, 0], arr[:, 1]) - 1.0).max()
            if err > UNIT_TOL:
                raise ValueError(f"{name} not unit length (max err {err:.3e})")
        jump_normal = np.einsum("ik,ik->i", self.trace_plus - self.trace_minus,
                                self.normals)
        err = np.abs(jump_normal).max()
        if err > NORMAL_JUMP_TOL:
            raise ValueError(
                f"normal component jumps across the segment (max err {err:.3e})"
            )

    @property
    def segment_lengths(self) -> np.ndarray:
        """True per-segment lengths (chords scaled by length_scale)."""
        seg = np.diff(self.polyline, axis=0)
        ds = np.hypot(seg[:, 0], seg[:, 1])
        if self.length_scale is not None:
            ds = ds * np.asarray(self.length_scale, dtype=float)
        return ds

    @property
    def arclengths(self) -> np.ndarray:
        """Cumulative arclength at each vertex."""
        return np.concatenate([[0.0], np.cumsum(self.segment_lengths)])

    @property
    def length(self) -> float:
        return float(self.arclengths[-1])


@dataclass
class EnergyBreakdown:
    """Itemized energy; total is always the exact sum of the parts."""

    bulk_div: float = 0.0
    wall_interior: float = 0.0
    wall_boundary: float = 0.0
    grad_term: float = 0.0
    potential_term: float = 0.0

    @property
    def total(self) -> float:
        return (self.bulk_div + self.wall_interior + self.wall_boundary
                + self.grad_term + self.potential_term)

    def as_dict(self, params: Optional[Params] = None) -> dict:
        out = {
            "grad": self.grad_term,
            "potential": self.potential_term,
            "bulk_div": self.bulk_div,
            "wall_interior": self.wall_interior,
            "wall_boundary": self.wall_boundary,
            "total": self.total,
        }
        if params is not None:
            out["params"] = {
                "L": params.L, "eps": params.eps, "H": params.H,
                "T": params.T, "R": params.R, "a": params.a,
            }
        return out
