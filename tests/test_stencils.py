import numpy as np
import pytest

from nematic_walls import stencils


def test_ops_are_exact_half_gradients():
    """K u = (1/2) dQ_K/du and D u = (1/2) dQ_D/du."""
    rng = np.random.default_rng(2)
    u = rng.normal(size=(17, 13, 2))
    w = rng.normal(size=u.shape)
    t = 1e-6
    for form, op, args in [
        ("rect_grad_form", "rect_grad_op", (0.07, 0.11)),
        ("rect_div_form", "rect_div_op", (0.07, 0.11)),
    ]:
        f = getattr(stencils, form)
        K = getattr(stencils, op)(u, *args)
        dQ = (f(u + t * w, *args) - f(u - t * w, *args)) / (2 * t)
        assert abs(dQ - 2 * np.sum(K * w)) / max(abs(dQ), 1.0) < 1e-7

    rs = np.linspace(0.4, 1.2, 17)
    ts = np.linspace(0, 2 * np.pi, 13, endpoint=False)
    dr, dt = rs[1] - rs[0], ts[1]
    K = stencils.polar_grad_op(u, rs, dr, dt)
    dQ = (stencils.polar_grad_form(u + t * w, rs, dr, dt)
          - stencils.polar_grad_form(u - t * w, rs, dr, dt)) / (2 * t)
    assert abs(dQ - 2 * np.sum(K * w)) / abs(dQ) < 1e-7
    D = stencils.polar_div_op(u, rs, ts, dr, dt)
    dQ = (stencils.polar_div_form(u + t * w, rs, ts, dr, dt)
          - stencils.polar_div_form(u - t * w, rs, ts, dr, dt)) / (2 * t)
    assert abs(dQ - 2 * np.sum(D * w)) / abs(dQ) < 1e-7


# --- reference forms: the rolled-copy formulas the rectangle forms replace ---

def rect_grad_form_reference(u, hx, hy):
    wy = np.ones(u.shape[1])
    wy[0] = wy[-1] = 0.5
    d = np.roll(u, -1, axis=0) - u
    total = float(np.einsum("j,ijk->", (hy / hx) * wy, d * d))
    d = u[:, 1:] - u[:, :-1]
    return total + (hx / hy) * float(np.sum(d * d))


def rolled_cell_div(u, hx, hy):
    ul, ur = u, np.roll(u, -1, axis=0)
    u1l, u1r = ul[..., 0], ur[..., 0]
    u2l, u2r = ul[..., 1], ur[..., 1]
    ddx = ((u1r[:, :-1] + u1r[:, 1:]) - (u1l[:, :-1] + u1l[:, 1:])) / (2.0 * hx)
    ddy = ((u2l[:, 1:] + u2r[:, 1:]) - (u2l[:, :-1] + u2r[:, :-1])) / (2.0 * hy)
    return ddx + ddy


def rect_div_form_reference(u, hx, hy):
    div = rolled_cell_div(u, hx, hy)
    return float(hx * hy * np.sum(div * div))


@pytest.mark.parametrize("shape", [(4, 5), (17, 13), (175, 226)])
def test_rect_forms_match_rolled_reference(shape):
    rng = np.random.default_rng(shape[0])
    u = rng.normal(size=(*shape, 2))
    hx, hy = 0.07, 0.011
    for form, ref in ((stencils.rect_grad_form, rect_grad_form_reference),
                      (stencils.rect_div_form, rect_div_form_reference)):
        want = ref(u, hx, hy)
        assert abs(form(u, hx, hy) - want) <= 1e-13 * abs(want)


def test_rect_cell_divergence_unchanged():
    """The cell divergence behind the div form and op is the rolled
    formula's, bit for bit."""
    rng = np.random.default_rng(3)
    u = rng.normal(size=(19, 11, 2))
    assert np.array_equal(stencils._rect_cell_div(u, 0.07, 0.011),
                          rolled_cell_div(u, 0.07, 0.011))


# --- reference ops: the rolled-copy formulas the roll-free ops replace ------

def rect_grad_op_reference(u, hx, hy):
    wx, wy = np.ones(u.shape[0]), np.ones(u.shape[1])
    wy[0] = wy[-1] = 0.5
    out = np.zeros_like(u)
    d = ((hy / hx) * wy)[None, :, None] * (np.roll(u, -1, axis=0) - u)
    out -= d
    out += np.roll(d, 1, axis=0)
    d = ((hx / hy) * wx)[:, None, None] * (u[:, 1:] - u[:, :-1])
    out[:, :-1] -= d
    out[:, 1:] += d
    return out


def rect_div_op_reference(u, hx, hy):
    g = (hx * hy) * rolled_cell_div(u, hx, hy)
    gx, gy = g / (2.0 * hx), g / (2.0 * hy)
    out = np.zeros_like(u)
    rx = np.zeros(u.shape[:2])
    rx[:, :-1] += gx
    rx[:, 1:] += gx
    out1 = np.roll(rx, 1, axis=0)
    out1 -= rx
    ty = np.zeros(u.shape[:2])
    ty[:, 1:] += gy
    ty[:, :-1] -= gy
    out[..., 0] = out1
    out[..., 1] = ty + np.roll(ty, 1, axis=0)
    return out


def polar_ct(rs, dr, dt):
    w = np.ones(rs.shape[0])
    w[0] = w[-1] = 0.5
    return (w * dr / (rs * dt))[:, None, None]


def polar_grad_form_reference(u, rs, dr, dt):
    r_mid = 0.5 * (rs[:-1] + rs[1:])
    d = u[1:] - u[:-1]
    total = float(np.sum((r_mid * dt / dr)[:, None, None] * d * d))
    d = np.roll(u, -1, axis=1) - u
    return total + float(np.sum(polar_ct(rs, dr, dt) * d * d))


def polar_grad_op_reference(u, rs, dr, dt):
    out = np.zeros_like(u)
    r_mid = 0.5 * (rs[:-1] + rs[1:])
    d = (r_mid * dt / dr)[:, None, None] * (u[1:] - u[:-1])
    out[:-1] -= d
    out[1:] += d
    d = polar_ct(rs, dr, dt) * (np.roll(u, -1, axis=1) - u)
    out -= d
    out += np.roll(d, 1, axis=1)
    return out


def polar_cell_div_reference(u, rs, ts, dr, dt):
    r_c = (0.5 * (rs[:-1] + rs[1:]))[:, None]
    t_c = (ts + 0.5 * dt)[None, :]
    ujp = np.roll(u, -1, axis=1)
    a, b, c, d = u[:-1], u[1:], ujp[:-1], ujp[1:]
    Dr = (b + d - a - c) / (2.0 * dr)
    Dt = (c + d - a - b) / (2.0 * dt)
    cos_c, sin_c = np.cos(t_c), np.sin(t_c)
    return (cos_c * Dr[..., 0] + sin_c * Dr[..., 1]
            + (-sin_c * Dt[..., 0] + cos_c * Dt[..., 1]) / r_c)


def polar_div_op_reference(u, rs, ts, dr, dt):
    div = polar_cell_div_reference(u, rs, ts, dr, dt)
    r_c = (0.5 * (rs[:-1] + rs[1:]))[:, None]
    t_c = (ts + 0.5 * dt)[None, :]
    cos_c, sin_c = np.cos(t_c), np.sin(t_c)
    g = (dr * dt) * r_c * div
    gr1, gr2 = g * cos_c / (2.0 * dr), g * sin_c / (2.0 * dr)
    gt1 = g * (-sin_c) / (2.0 * dt * r_c)
    gt2 = g * cos_c / (2.0 * dt * r_c)
    o1, o2 = np.zeros(u.shape[:2]), np.zeros(u.shape[:2])
    o1[:-1] += -gr1 - gt1
    o2[:-1] += -gr2 - gt2
    o1[1:] += gr1 - gt1
    o2[1:] += gr2 - gt2
    o1[:-1] += np.roll(-gr1 + gt1, 1, axis=1)
    o2[:-1] += np.roll(-gr2 + gt2, 1, axis=1)
    o1[1:] += np.roll(gr1 + gt1, 1, axis=1)
    o2[1:] += np.roll(gr2 + gt2, 1, axis=1)
    return np.stack([o1, o2], axis=-1)


def signed_field(shape, seed):
    """Normal deviates with some entries set to +0.0 and -0.0, so that the
    sign of a zero result shows too."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(*shape, 2))
    u[rng.random(u.shape) < 0.1] = 0.0
    u[rng.random(u.shape) < 0.1] = -0.0
    return u


@pytest.mark.parametrize("n_per", [4, 5, 16, 17, 175])
def test_rect_ops_match_rolled_reference_bytes(n_per):
    """The roll-free rectangle ops give the rolled formulas' bytes."""
    u = signed_field((n_per, 13), n_per)
    for op, ref in ((stencils.rect_grad_op, rect_grad_op_reference),
                    (stencils.rect_div_op, rect_div_op_reference)):
        assert op(u, 0.07, 0.011).tobytes() == ref(u, 0.07, 0.011).tobytes()


@pytest.mark.parametrize("n_theta", [4, 5, 12, 13, 64, 65])
def test_polar_stencils_match_rolled_reference_bytes(n_theta):
    """The roll-free polar ops, cell divergence and grad form give the
    rolled formulas' bytes, for odd and even n_theta."""
    u = signed_field((11, n_theta), n_theta)
    rs = np.linspace(0.05, 0.6, 11)
    ts = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    dr, dt = rs[1] - rs[0], ts[1]
    assert stencils.polar_grad_op(u, rs, dr, dt).tobytes() \
        == polar_grad_op_reference(u, rs, dr, dt).tobytes()
    assert stencils.polar_grad_form(u, rs, dr, dt) \
        == polar_grad_form_reference(u, rs, dr, dt)
    assert stencils._polar_cell_div(u, rs, ts, dr, dt)[0].tobytes() \
        == polar_cell_div_reference(u, rs, ts, dr, dt).tobytes()
    assert stencils.polar_div_op(u, rs, ts, dr, dt).tobytes() \
        == polar_div_op_reference(u, rs, ts, dr, dt).tobytes()
