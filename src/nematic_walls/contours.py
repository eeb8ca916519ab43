"""Marching-squares level curves on structured grids.

Cells are classified by corner signs of f - level; crossing points are
linearly interpolated along edges.  Saddle cells (cases 5 and 10) are
disambiguated with the cell-centre average.  Segments are returned in
physical coordinates via the supplied node coordinate arrays, chained
into polylines.

One level is one pass of array expressions over all cells; only the
chaining of segments into polylines walks them one by one.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .core import CSV_ROWS, POLAR, Grid2D, csv_rows, g17_cells

# Corner c of cell (i, j) is node (i + _DI[c], j + _DJ[c]); edge e runs
# from corner e to corner e + 1 (mod 4): 0 bottom, 1 right, 2 top, 3 left.
_DI = np.array([0, 1, 1, 0])
_DJ = np.array([0, 0, 1, 1])


def _segment_table() -> np.ndarray:
    """[case, centre > level, k] -> (first edge, second edge) of the
    cell's k-th segment, or (-1, -1) when it has no k-th segment."""
    single = {1: (3, 0), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2),
              7: (3, 2), 8: (2, 3), 9: (2, 0), 11: (2, 1), 12: (1, 3),
              13: (1, 0), 14: (0, 3)}
    table = np.full((16, 2, 2, 2), -1, dtype=np.intp)
    for case, pair in single.items():
        table[case, :, 0] = pair
    table[5] = [[(3, 2), (1, 0)], [(3, 0), (1, 2)]]
    table[10] = [[(0, 3), (2, 1)], [(0, 1), (2, 3)]]
    return table


_SEGMENTS = _segment_table()


def marching_squares(F: np.ndarray, X: np.ndarray, Y: np.ndarray,
                     level: float, mask: Optional[np.ndarray] = None
                     ) -> List[np.ndarray]:
    """Polylines of the level set {F = level}; F, X, Y share a (n1, n2)
    node layout.  Cells where the (n1 - 1, n2 - 1) boolean mask is set
    are skipped (case 0)."""
    F = np.asarray(F, dtype=float)
    X, Y = np.asarray(X), np.asarray(Y)
    a = (F > level).astype(np.uint8)
    case = a[:-1, :-1] | a[1:, :-1] << 1 | a[1:, 1:] << 2 | a[:-1, 1:] << 3
    if mask is not None:
        case[mask] = 0
    ci, cj = np.nonzero((case != 0) & (case != 15))  # row-major cell order
    if ci.size == 0:
        return []
    centre = 0.25 * (F[ci, cj] + F[ci + 1, cj] + F[ci + 1, cj + 1]
                     + F[ci, cj + 1])
    edges = _SEGMENTS[case[ci, cj], (centre > level).astype(np.intp)]
    cell, k = np.nonzero(edges[:, :, 0] >= 0)  # cell by cell, k within
    edges = edges[cell, k]  # (n, 2): a segment's two edges
    i, j = ci[cell, None], cj[cell, None]
    ai, aj = i + _DI[edges], j + _DJ[edges]
    bi, bj = i + _DI[(edges + 1) % 4], j + _DJ[(edges + 1) % 4]
    fa, fb = F[ai, aj], F[bi, bj]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(fb == fa, 0.5, (level - fa) / (fb - fa))
    # min(max(t, 0), 1) with Python's tie rules, which keep t = -0.0
    t = np.where(t > 1.0, 1.0, np.where(0.0 > t, 0.0, t))
    xa, ya = X[ai, aj], Y[ai, aj]
    ends = np.stack([xa + t * (X[bi, bj] - xa), ya + t * (Y[bi, bj] - ya)],
                    axis=-1)
    return _chain(ends)


def _chain(ends: np.ndarray) -> List[np.ndarray]:
    """Join segments sharing endpoints into polylines.

    ends is (n, 2, 2): segment, endpoint, coordinate.  Endpoints match
    when their coordinates round to the same multiples of 1e-12.  Greedy:
    each polyline starts from the first unused segment, grows forward from
    its last point and then backward from its first, each time through the
    lowest-numbered unused segment touching that point.
    """
    pts = ends.reshape(-1, 2)  # endpoint 2k + e is end e of segment k
    keys = np.rint(pts / 1e-12)
    order = np.lexsort((keys[:, 1], keys[:, 0]))  # stable: ids ascend per key
    sk = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(sk[1:] != sk[:-1], axis=1)
    node = np.empty(len(order), dtype=np.intp)
    node[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    node, order = node.tolist(), order.tolist()
    nxt = starts.tolist()  # per point: its first entry not known to be used
    stop = starts[1:].tolist() + [len(order)]
    used = [False] * len(ends)

    def extend(e: int) -> List[int]:
        """Endpoint ids reached from endpoint e through unused segments."""
        path = []
        while True:
            n = node[e]
            p, q = nxt[n], stop[n]
            while p < q and used[order[p] >> 1]:
                p += 1
            nxt[n] = p
            if p == q:
                return path
            e = order[p] ^ 1
            used[e >> 1] = True
            path.append(e)

    polys = []
    for s in range(len(ends)):
        if used[s]:
            continue
        used[s] = True
        forward = extend(2 * s + 1)
        backward = extend(2 * s)
        polys.append(pts[backward[::-1] + [2 * s, 2 * s + 1] + forward])
    return polys


def level_curves(grid: Grid2D, F: np.ndarray, levels,
                 angle: bool = False) -> dict:
    """{level: marching_squares polylines} of the nodal field F on grid.

    Both grids are periodic and get their seam cells: the first node column
    (theta = 0) of a polar grid, or the first node row of a rectangle, is
    appended after the last one (at x = x_hi on the rectangle), so a curve
    that crosses the seam stays one polyline and a closed curve comes back
    closed.  With angle=True, F is an angle in [-pi, pi]: cells whose
    corner values span more than pi straddle the branch cut, where F jumps
    by 2 pi, and are skipped.
    """
    F = np.asarray(F, dtype=float)
    F = (np.concatenate([F, F[:, :1]], axis=1) if grid.kind == POLAR
         else np.concatenate([F, F[:1]], axis=0))
    mask = None
    if angle:
        # each cell's corner max and min, one pair of corners at a time
        corners = (F[:-1, :-1], F[1:, :-1], F[1:, 1:], F[:-1, 1:])
        hi, lo = np.maximum(*corners[:2]), np.minimum(*corners[:2])
        for c in corners[2:]:
            np.maximum(hi, c, out=hi)
            np.minimum(lo, c, out=lo)
        mask = np.subtract(hi, lo, out=hi) > np.pi
        del hi, lo
    a1, a2 = grid.axes()
    if grid.kind == POLAR:
        # the nodes as `Grid2D.nodes_xy` forms them, theta = 0 again last
        t = np.append(a2, a2[0])
        X, Y = a1[:, None] * np.cos(t), a1[:, None] * np.sin(t)
    else:
        x = np.append(a1, grid.extents[1])
        X, Y = (np.broadcast_to(a, F.shape) for a in (x[:, None], a2))
    return {lv: marching_squares(F, X, Y, lv, mask) for lv in levels}


def contours_to_csv(levels_polys: dict, path) -> None:
    """CSV rows level,poly_id,x,y for every polyline vertex, each float as
    '%.17g' writes it.  Each level and each poly_id is formatted once
    (poly_id as a float, which '%.17g' writes as the integer)."""
    with open(path, "wb") as fh:
        fh.write(b"level,poly_id,x,y\n")
        counts = [len(ps) for ps in levels_polys.values()]
        polys = [p for ps in levels_polys.values() for p in ps]
        if not polys:
            return
        sizes = [len(p) for p in polys]
        level = np.repeat(np.repeat(np.arange(len(counts)), counts), sizes)
        pid = np.repeat(np.concatenate([np.arange(n) for n in counts]), sizes)
        level_cells = g17_cells(np.array(list(levels_polys), dtype=float))
        pid_cells = g17_cells(np.arange(max(counts), dtype=float))
        xy = np.concatenate(polys)
        for k in range(0, len(xy), CSV_ROWS):
            rows = slice(k, k + CSV_ROWS)
            fh.write(csv_rows(level_cells[level[rows], None],
                              pid_cells[pid[rows], None],
                              g17_cells(xy[rows])))
