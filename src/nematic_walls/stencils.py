"""Stencil kernels: discrete quadratic forms of the eps-level energy and
their exact half-gradients, in numpy.  The forms are

  grad form   Q_K(u) = sum over edges  c_e |u_b - u_a|^2
  div  form   Q_D(u) = sum over cells  m_c (div_c u)^2

with midpoint-edge differences and cell-centred divergences (trapezoid
weights transversally), second-order accurate on smooth fields and, on
polar grids, metric-aware with Cartesian components throughout.  The ops
return K u := (1/2) dQ_K/du and D u := (1/2) dQ_D/du, so the discrete
energy gradient is exact, not merely consistent.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"  # recorded as the stencils backend by perfbench/worker.py


def _trapezoid(n):
    """Trapezoid weights of n nodes in units of the spacing: ones with 0.5
    at both ends."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _wrap_diff(u, axis):
    """u[i + 1] - u[i] along axis, the wrap difference u[0] - u[-1] last,
    without a rolled copy of u."""
    u = np.moveaxis(u, axis, 0)
    d = np.empty_like(u)
    np.subtract(u[1:], u[:-1], out=d[:-1])
    np.subtract(u[0], u[-1], out=d[-1])
    return np.moveaxis(d, 0, axis)


def _wrap_gather(out, d, axis):
    """out[i] += d[i - 1] along axis, the wrap term d[-1] into out[0]."""
    out, d = np.moveaxis(out, axis, 0), np.moveaxis(d, axis, 0)
    out[1:] += d[:-1]
    out[0] += d[-1]


# --- rectangle: periodic in x, nodes x_lo + i hx for i < n1 ----------------

def _rect_weights(n1, n2):
    return np.ones(n1), _trapezoid(n2)


def rect_node_weights(n1, n2, hx, hy):
    wx, wy = _rect_weights(n1, n2)
    return (hx * hy) * wx[:, None] * wy[None, :]


def rect_grad_form(u, hx, hy):
    # the squared differences are summed over contiguous axes before the
    # weights apply
    n1, n2 = u.shape[:2]
    wx, wy = _rect_weights(n1, n2)
    d = _wrap_diff(u, 0)
    d *= d
    total = float(((hy / hx) * wy) @ d.sum(axis=0).sum(axis=1))
    d = u[:, 1:] - u[:, :-1]
    d *= d
    return total + float(((hx / hy) * wx) @ d.sum(axis=(1, 2)))


def rect_grad_op(u, hx, hy):
    n1, n2 = u.shape[:2]
    wx, wy = _rect_weights(n1, n2)
    cx = ((hy / hx) * wy)[None, :, None]
    d = _wrap_diff(u, 0)
    d *= cx
    out = 0.0 - d  # not -d: a zero difference gives +0
    _wrap_gather(out, d, 0)
    cy = ((hx / hy) * wx)[:, None, None]
    d = cy * (u[:, 1:] - u[:, :-1])
    out[:, :-1] -= d
    out[:, 1:] += d
    return out


def _cell_div(ul, ur, hx, hy):
    """Divergence of the cells between node columns ul (left) and ur."""
    u1l, u1r = ul[..., 0], ur[..., 0]
    u2l, u2r = ul[..., 1], ur[..., 1]
    ddx = ((u1r[:, :-1] + u1r[:, 1:]) - (u1l[:, :-1] + u1l[:, 1:])) / (2.0 * hx)
    ddy = ((u2l[:, 1:] + u2r[:, 1:]) - (u2l[:, :-1] + u2r[:, :-1])) / (2.0 * hy)
    return ddx + ddy


def _rect_cell_div(u, hx, hy):
    # the wrap cells, between the last column and the first, come last
    return np.concatenate([_cell_div(u[:-1], u[1:], hx, hy),
                           _cell_div(u[-1:], u[:1], hx, hy)])


def rect_div_form(u, hx, hy):
    div = _rect_cell_div(u, hx, hy)
    return float(hx * hy * np.sum(div * div))


def rect_div_op(u, hx, hy):
    g = (hx * hy) * _rect_cell_div(u, hx, hy)
    gx = g / (2.0 * hx)
    gy = g / (2.0 * hy)
    out = np.empty_like(u)
    # u1: right corners +, left corners -; the right corners of cell i are
    # at node i + 1, so node i takes rx[i - 1] - rx[i]
    rx = np.zeros(u.shape[:2])
    rx[:, :-1] += gx
    rx[:, 1:] += gx
    np.subtract(rx[:-1], rx[1:], out=out[1:, :, 0])
    np.subtract(rx[-1], rx[0], out=out[0, :, 0])
    # u2: top corners +, bottom corners -; node i takes ty[i] + ty[i - 1]
    ty = np.zeros(u.shape[:2])
    ty[:, 1:] += gy
    ty[:, :-1] -= gy
    np.add(ty[1:], ty[:-1], out=out[1:, :, 1])
    np.add(ty[0], ty[-1], out=out[0, :, 1])
    return out


# --- polar ----------------------------------------------------------------

def polar_node_weights(rs, dr, dt):
    return (dr * dt) * (rs * _trapezoid(rs.shape[0]))[:, None]


def polar_grad_form(u, rs, dr, dt):
    r_mid = 0.5 * (rs[:-1] + rs[1:])
    cr = (r_mid * dt / dr)[:, None, None]
    d = u[1:] - u[:-1]
    total = float(np.sum(cr * d * d))
    ct = (_trapezoid(rs.shape[0]) * dr / (rs * dt))[:, None, None]
    d = _wrap_diff(u, 1)
    total += float(np.sum(ct * d * d))
    return total


def polar_grad_op(u, rs, dr, dt):
    out = np.zeros_like(u)
    r_mid = 0.5 * (rs[:-1] + rs[1:])
    cr = (r_mid * dt / dr)[:, None, None]
    d = cr * (u[1:] - u[:-1])
    out[:-1] -= d
    out[1:] += d
    ct = (_trapezoid(rs.shape[0]) * dr / (rs * dt))[:, None, None]
    d = _wrap_diff(u, 1)
    d *= ct
    out -= d
    _wrap_gather(out, d, 1)
    return out


def _polar_cell_div(u, rs, ts, dr, dt):
    r_c = (0.5 * (rs[:-1] + rs[1:]))[:, None]
    t_c = (ts + 0.5 * dt)[None, :]
    Dr = np.empty((u.shape[0] - 1, *u.shape[1:]))
    Dt = np.empty_like(Dr)
    # corners: a = (i, j), b = (i+1, j), c = (i, j+1), d = (i+1, j+1); the
    # wrap cells, whose j + 1 is column 0, come last
    for cells, uj, ujp in ((slice(None, -1), u[:, :-1], u[:, 1:]),
                           (slice(-1, None), u[:, -1:], u[:, :1])):
        a, b, c, d = uj[:-1], uj[1:], ujp[:-1], ujp[1:]
        Dr[:, cells] = (b + d - a - c) / (2.0 * dr)
        Dt[:, cells] = (c + d - a - b) / (2.0 * dt)
    cos_c, sin_c = np.cos(t_c), np.sin(t_c)
    div = (cos_c * Dr[..., 0] + sin_c * Dr[..., 1]
           + (-sin_c * Dt[..., 0] + cos_c * Dt[..., 1]) / r_c)
    return div, r_c, cos_c, sin_c


def polar_div_form(u, rs, ts, dr, dt):
    div, r_c, _, _ = _polar_cell_div(u, rs, ts, dr, dt)
    return float(np.sum(r_c * dr * dt * div * div))


def polar_div_op(u, rs, ts, dr, dt):
    div, r_c, cos_c, sin_c = _polar_cell_div(u, rs, ts, dr, dt)
    g = (dr * dt) * r_c * div
    # d(div)/d(corner): radial part +-cos/(2dr), +-sin/(2dr);
    # angular part -+(-sin)/(2dt r_c), -+cos/(2dt r_c)
    gr1 = g * cos_c / (2.0 * dr)
    gr2 = g * sin_c / (2.0 * dr)
    gt1 = g * (-sin_c) / (2.0 * dt * r_c)
    gt2 = g * cos_c / (2.0 * dt * r_c)
    out = np.zeros_like(u)
    o1 = np.zeros(u.shape[:2])
    o2 = np.zeros(u.shape[:2])
    # corner a=(i,j): Dr -, Dt -
    add1 = -gr1 - gt1
    add2 = -gr2 - gt2
    o1[:-1] += add1
    o2[:-1] += add2
    # corner b=(i+1,j): Dr +, Dt -
    add1 = gr1 - gt1
    add2 = gr2 - gt2
    o1[1:] += add1
    o2[1:] += add2
    # corner c=(i,j+1): Dr -, Dt +   (j+1 wraps)
    _wrap_gather(o1[:-1], -gr1 + gt1, 1)
    _wrap_gather(o2[:-1], -gr2 + gt2, 1)
    # corner d=(i+1,j+1): Dr +, Dt +
    _wrap_gather(o1[1:], gr1 + gt1, 1)
    _wrap_gather(o2[1:], gr2 + gt2, 1)
    out[..., 0] = o1
    out[..., 1] = o2
    return out
