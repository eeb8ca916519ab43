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
        if not self.L > 0:
            raise ValueError(f"L > 0 violated (L={self.L})")
        if not self.eps > 0:
            raise ValueError(f"eps > 0 violated (eps={self.eps})")
        if not self.H > 0:
            raise ValueError(f"H > 0 violated (H={self.H})")
        if not self.T > 0:
            raise ValueError(f"T > 0 violated (T={self.T})")
        if not self.R > 0:
            raise ValueError(f"R > 0 violated (R={self.R})")
        if not (0.0 <= self.a < 1.0):
            raise ValueError(f"a in [0,1) violated (a={self.a})")

    def with_(self, **kw) -> "Params":
        return replace(self, **kw)


@dataclass(frozen=True)
class Grid2D:
    """Uniform structured grid.

    rectangle: extents (x_lo, x_hi, y_lo, y_hi); nx, ny cell counts.
      periodic_x collapses the x seam (nx node columns instead of nx+1).
    polar: extents (r_in, r_out); nx radial cells, ny angular cells;
      always periodic in theta (ny node columns in theta).

    Node arrays are (n1, n2): first axis is x (or r), second y (or theta).
    """

    kind: str
    extents: tuple
    nx: int
    ny: int
    periodic_x: bool = False

    def __post_init__(self):
        if self.kind not in (RECTANGLE, POLAR):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"counts too small (nx={self.nx}, ny={self.ny}; need >= 4)")
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
            return self.nx if self.periodic_x else self.nx + 1
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


def make_grid(kind: str, extents, nx: int, ny: int, periodic_x: bool = False) -> Grid2D:
    return Grid2D(kind=kind, extents=tuple(float(e) for e in extents),
                  nx=int(nx), ny=int(ny), periodic_x=bool(periodic_x))


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
    fx, fy = f(X, Y)
    out[..., 0] = fx
    out[..., 1] = fy
    if not np.all(np.isfinite(out)):
        raise ValueError("analytic field returned non-finite values")
    return Field2D(grid, out)


# Polar nodes formatted per write: one format call per block instead of
# per row, with the temporary strings bounded.
_CSV_BLOCK = 4096


def field_to_csv(field: Field2D, path) -> None:
    """Snapshot CSV: header x,y,u1,u2; row-major over nodes; 17 sig. digits.

    On rectangle grids each x and each y is formatted once: every x-row is
    one format string holding its coordinates, into which only u1 and u2
    are formatted."""
    grid = field.grid
    with open(path, "w") as fh:
        fh.write("x,y,u1,u2\n")
        if grid.kind == RECTANGLE:
            xs, ys = grid.axes()
            tail = ["", *("%.17g,%%.17g,%%.17g\n" % y for y in ys.tolist())]
            for x, u in zip(xs.tolist(), field.values):
                fh.write(("%.17g," % x).join(tail) % tuple(u.ravel().tolist()))
            return
        X, Y = grid.nodes_xy()
        rows = np.column_stack([X.ravel(), Y.ravel(),
                                field.values.reshape(-1, 2)])
        for k in range(0, len(rows), _CSV_BLOCK):
            block = rows[k:k + _CSV_BLOCK]
            fh.write(("%.17g,%.17g,%.17g,%.17g\n" * len(block))
                     % tuple(block.ravel().tolist()))


def field_from_csv(grid: Grid2D, path) -> Field2D:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape[0] != grid.n_nodes:
        raise ValueError(f"{path}: {data.shape[0]} rows, grid has {grid.n_nodes} nodes")
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
