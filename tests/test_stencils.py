import numpy as np

from nematic_walls import stencils


def test_ops_are_exact_half_gradients():
    """K u = (1/2) dQ_K/du and D u = (1/2) dQ_D/du."""
    rng = np.random.default_rng(2)
    u = rng.normal(size=(17, 13, 2))
    w = rng.normal(size=u.shape)
    t = 1e-6
    for form, op, args in [
        ("rect_grad_form", "rect_grad_op", (0.07, 0.11, True)),
        ("rect_div_form", "rect_div_op", (0.07, 0.11, True)),
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
