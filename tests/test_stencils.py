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
