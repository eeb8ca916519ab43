"""One-dimensional (y-only) minimizers on the rectangle.

The limiting energy over y-dependent unit fields with u2(+-H) = a reduces
to a single scalar minimization over the wall height M:

    f(m) = (L/H) (m - a)^2 + (4/3) (1 - m^2)^(3/2),

whose minimizer gives a tent-shaped u2 rising from a to M at y = 0 and a
single sign flip of u1 there.  At a = 0 the problem degenerates: for
L/H < 2 the interior solution M = sqrt(1 - L^2/(4 H^2)) wins with energy
L/H - (1/12)(L/H)^3; for L/H > 2 step profiles win at energy 4/3; at
L/H = 2 both tie.

The recovery profile replaces the u1 sign flip with a tanh heteroclinic of
width eps inside an eps^(5/6) window, linearly interpolated to the sharp
profile over a second eps^(5/6) band, which realizes the wall cost
(4/3)(1 - M^2)^(3/2) in the eps-level energy as eps -> 0.

The period equation of the cross-tie, whose root T~ = T/H sets the
half-period of the periodic rectangle, is solved here too (`solve_Ttilde`),
so the gradient flow on that rectangle need not import the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .energy import GridProfile1D
from .rootfind import bracketed_root

RECOVERY_WINDOW_POWER = 5.0 / 6.0
SQRT2M1 = math.sqrt(2.0) - 1.0


@dataclass
class OneDProfile:
    """Piecewise-linear u2 over [-H, H] with a u1 sign pattern.

    y_breaks      breakpoints, increasing, y_breaks[0] = -H, [-1] = H
    u2_vals       u2 at the breakpoints (piecewise linear between)
    sign_pattern  sign of u1 on each interval (len = len(y_breaks) - 1)
    jumps         y-locations of u1 sign flips
    M             wall height u2 at the jump
    """

    y_breaks: np.ndarray
    u2_vals: np.ndarray
    sign_pattern: np.ndarray
    jumps: List[float]
    M: float
    a: float
    H: float

    def u2(self, y):
        return np.interp(y, self.y_breaks, self.u2_vals)

    def u1(self, y):
        y = np.asarray(y, dtype=float)
        idx = np.clip(np.searchsorted(self.y_breaks, y, side="right") - 1,
                      0, len(self.sign_pattern) - 1)
        sgn = np.asarray(self.sign_pattern, dtype=float)[idx]
        return sgn * np.sqrt(np.maximum(1.0 - self.u2(y) ** 2, 0.0))


def wall_height_objective(m, L, H, a):
    m = np.asarray(m, dtype=float)
    return (L / H) * (m - a) ** 2 + (4.0 / 3.0) * np.maximum(1.0 - m * m, 0.0) ** 1.5


def solve_M(L: float, H: float, a: float) -> float:
    """Minimizer M in [a, 1] of the wall-height objective.

    a = 0 is closed form; a > 0 uses a coarse scan, golden-section search,
    and a Newton polish of f'.
    """
    if not (0.0 <= a < 1.0):
        raise ValueError("a in [0,1) required")
    ratio = L / H
    if a == 0.0:
        if ratio < 2.0:
            return math.sqrt(1.0 - ratio * ratio / 4.0)
        return 0.0  # step family
    f = lambda m: float(wall_height_objective(m, L, H, a))
    # coarse scan to bracket the global minimum
    ms = np.linspace(a, 1.0, 1025)
    vals = wall_height_objective(ms, L, H, a)
    k = int(np.argmin(vals))
    lo = ms[max(k - 1, 0)]
    hi = ms[min(k + 1, len(ms) - 1)]
    # golden-section
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-14:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    m = 0.5 * (lo + hi)
    # Newton polish on the stationarity equation 2(L/H)(m-a) = 4 m sqrt(1-m^2)
    fp = lambda x: 2 * ratio * (x - a) - 4 * x * math.sqrt(max(1 - x * x, 0.0))
    fpp = lambda x: 2 * ratio - 4 * math.sqrt(max(1 - x * x, 0.0)) \
        + 4 * x * x / math.sqrt(max(1 - x * x, 1e-300))
    for _ in range(3):
        d = fpp(m)
        if d == 0:
            break
        m_new = m - fp(m) / d
        if not (a < m_new < 1.0):
            break
        m = m_new
    return m


def min_energy_1d(L: float, H: float, a: float) -> float:
    """Closed-form/optimized minimum of the limiting 1D energy."""
    if a == 0.0:
        ratio = L / H
        if ratio < 2.0:
            return ratio - ratio ** 3 / 12.0
        if ratio > 2.0:
            return 4.0 / 3.0
        return 4.0 / 3.0
    return float(wall_height_objective(solve_M(L, H, a), L, H, a))


def minimizer_profile(L: float, H: float, a: float) -> OneDProfile:
    """The optimal profile: tent u2 with a single u1 flip at y = 0.

    For L/H > 2 at a = 0 the step family is optimal; the representative
    with the jump at y* = 0 is returned.  At L/H = 2 the tied tent
    solution is returned.
    """
    M = solve_M(L, H, a)
    y = np.array([-H, 0.0, H])
    u2 = np.array([a, M, a])
    return OneDProfile(y_breaks=y, u2_vals=u2,
                       sign_pattern=np.array([-1.0, 1.0]),
                       jumps=[0.0], M=M, a=a, H=H)


def recovery_profile_1d(eps: float, L: float, H: float, a: float, n: int,
                        M: Optional[float] = None,
                        window_power: float = RECOVERY_WINDOW_POWER) -> GridProfile1D:
    """eps-level competitor built from the sharp minimizer.

    u2 is the tent unchanged; u1 follows sqrt(1 - u2^2) with the sign of
    the sharp profile outside |y| > 2 w, bridges through the heteroclinic
      b tanh(b y / eps),  b = sqrt(1 - M^2)
    for |y| <= w, and interpolates linearly on w <= |y| <= 2 w, where
    w = eps^window_power.  Pass M to override the optimal wall height
    (e.g. M = 0 isolates the pure wall cost).
    """
    if n < int(20.0 * H / eps):
        raise ValueError(f"under-resolved: need n >= {int(20 * H / eps)} points")
    if M is None:
        M = solve_M(L, H, a)
    b = math.sqrt(max(1.0 - M * M, 0.0))
    w = eps ** window_power
    ys = np.linspace(-H, H, n)
    u2 = np.where(ys <= 0.0, a + (M - a) * (ys + H) / H,
                  a + (M - a) * (H - ys) / H)
    sharp = np.sign(ys) * np.sqrt(np.maximum(1.0 - u2 ** 2, 0.0))
    u1 = sharp.copy()
    core = np.abs(ys) <= w
    u1[core] = b * np.tanh(b * ys[core] / eps)
    h_edge = b * math.tanh(b * w / eps)
    for sgn in (-1.0, 1.0):
        band = (sgn * ys > w) & (sgn * ys <= 2 * w)
        if not band.any():
            continue
        y_out = sgn * 2 * w
        u2_out = float(np.interp(y_out, ys, u2))
        u_out = sgn * math.sqrt(max(1.0 - u2_out ** 2, 0.0))
        lam = (sgn * ys[band] - w) / w
        u1[band] = (1 - lam) * sgn * h_edge + lam * u_out
    # Dirichlet data exact at the endpoints
    u1[0] = -math.sqrt(1.0 - a * a)
    u1[-1] = math.sqrt(1.0 - a * a)
    u2[0] = u2[-1] = a
    return GridProfile1D(ys=ys, values=np.stack([u1, u2], axis=-1))


# --- the cross-tie's period equation (see `crosstie`) ------------------------

def period_equation_residual(t_tilde, l_over_h: float):
    t = np.asarray(t_tilde, dtype=float)
    lh = l_over_h
    return lh * (np.sqrt(lh * lh + 4.0 * t * t) - lh) \
        - 8.0 * t ** 3 * (1.0 - t * t) / (t * t + 1.0) ** 2


def solve_Ttilde(l_over_h: float) -> float:
    """Scaled half-period T/H solving the tangency relation.

    The root lies in (sqrt(2)-1, 1) for every positive L/H.
    """
    if l_over_h <= 0:
        raise ValueError("L/H > 0 required")
    return bracketed_root(period_equation_residual, SQRT2M1 + 1e-14,
                          1.0 - 1e-14, args=(l_over_h,))


def ttilde_closed_form_check(t_tilde: float, l_over_h: float) -> float:
    """|L/T - 2/sqrt(Lambda)| for the solved half-period, with
    zeta = 2x(x^2-1)/(x^2+1)^2, Lambda = (1-2 zeta)/zeta^2, x = H/T."""
    x = 1.0 / t_tilde
    zeta = 2.0 * x * (x * x - 1.0) / (x * x + 1.0) ** 2
    lam = (1.0 - 2.0 * zeta) / (zeta * zeta)
    return abs(l_over_h / t_tilde - 2.0 / math.sqrt(lam))
