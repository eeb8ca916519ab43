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
(4/3)(1 - M^2)^(3/2) in the eps-level energy as eps -> 0.  It is a field
on the unit-length x-periodic cell, constant in x, so the one eps-level
energy, `energy.eval_E_eps`, gives its energy per length.

The period equation of the cross-tie, whose root T~ = T/H sets the
half-period of the periodic rectangle, is solved here too (`solve_Ttilde`),
so the gradient flow on that rectangle need not import the construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import RECTANGLE, Field2D, make_grid
from .rootfind import BracketError, bracketed_root

RECOVERY_WINDOW_POWER = 5.0 / 6.0
SQRT2M1 = math.sqrt(2.0) - 1.0
# the lengths whose squares are normal floats: the cross-tie's
# construction forms L^2, H^2 and T^2 + H^2
CELL_LENGTHS = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


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


def _stationarity(m, ratio, a):
    # f'(m) of the wall-height objective, ratio = L/H
    return 2.0 * ratio * (m - a) \
        - 4.0 * m * np.sqrt(np.maximum(1.0 - m * m, 0.0))


def solve_M(L: float, H: float, a: float) -> float:
    """Minimizer M in [a, 1] of the wall-height objective.

    a = 0 is closed form.  For a > 0 a coarse scan brackets the global
    minimum between its neighbours, and the bracketed root solver finds the
    stationary point 2(L/H)(m - a) = 4 m sqrt(1 - m^2) there.
    """
    if not (0.0 <= a < 1.0):
        raise ValueError("a in [0,1) required")
    ratio = L / H
    if a == 0.0:
        if ratio < 2.0:
            return math.sqrt(1.0 - ratio * ratio / 4.0)
        return 0.0  # step family
    ms = np.linspace(a, 1.0, 1025)
    k = int(np.argmin(wall_height_objective(ms, L, H, a)))
    return bracketed_root(_stationarity, ms[max(k - 1, 0)],
                          ms[min(k + 1, len(ms) - 1)], args=(ratio, a))


def min_energy_1d(L: float, H: float, a: float) -> float:
    """Closed-form/optimized minimum of the limiting 1D energy."""
    if a == 0.0:
        ratio = L / H
        if ratio < 2.0:
            return ratio - ratio ** 3 / 12.0
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
                        M: Optional[float] = None) -> Field2D:
    """eps-level competitor built from the sharp minimizer, on n nodes in y.

    u2 is the tent unchanged; u1 follows sqrt(1 - u2^2) with the sign of
    the sharp profile outside |y| > 2 w, bridges through the heteroclinic
      b tanh(b y / eps),  b = sqrt(1 - M^2)
    for |y| <= w, and interpolates linearly on w <= |y| <= 2 w, where
    w = eps^RECOVERY_WINDOW_POWER.  Pass M to override the optimal wall height
    (e.g. M = 0 isolates the pure wall cost).

    The profile is returned x-independent on the unit-length x-periodic
    cell [0, 1) x [-H, H] (4 node columns), so `energy.eval_E_eps` of it
    is the eps-level energy per length; the Dirichlet data
    (+-sqrt(1 - a^2), a) hold exactly on the end lines y = -+H.
    """
    if n < int(20.0 * H / eps):
        raise ValueError(f"under-resolved: need n >= {int(20 * H / eps)} points")
    if M is None:
        M = solve_M(L, H, a)
    b = math.sqrt(max(1.0 - M * M, 0.0))
    w = eps ** RECOVERY_WINDOW_POWER
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
    grid = make_grid(RECTANGLE, (0.0, 1.0, -H, H), 4, n - 1)
    profile = np.stack([u1, u2], axis=-1)
    return Field2D(grid, np.tile(profile, (grid.n1, 1, 1)))


# --- the cross-tie's period equation (see `crosstie`) ------------------------

def period_equation_residual(t_tilde, l_over_h: float):
    """The tangency relation's left side minus its right side, with
    sqrt(lh^2 + 4t^2) - lh formed as 4t^2/(sqrt(lh^2 + 4t^2) + lh), which
    does not cancel at large L/H."""
    t = np.asarray(t_tilde, dtype=float)
    lh = l_over_h
    t2 = 4.0 * t * t
    return lh * t2 / (np.sqrt(lh * lh + t2) + lh) \
        - 8.0 * t ** 3 * (1.0 - t * t) / (t * t + 1.0) ** 2


def solve_Ttilde(l_over_h: float) -> float:
    """Scaled half-period T/H solving the tangency relation.

    The root lies in (sqrt(2)-1, 1) for every positive L/H.  (L/H)^2
    overflows above L/H ~ 1e154, far outside the bracket, and that L/H
    raises the same BracketError, with no overflow warning.
    """
    if l_over_h <= 0:
        raise ValueError("L/H > 0 required")
    try:
        with np.errstate(over="ignore"):
            return bracketed_root(period_equation_residual, SQRT2M1 + 1e-14,
                                  1.0 - 1e-14, args=(l_over_h,))
    except BracketError as exc:
        raise BracketError(f"L/H = {float(l_over_h)!r} lies outside the range "
                           f"the tangency relation brackets: {exc}") from None


def cell_ttilde(L: float, H: float) -> float:
    """T~ = T/H of the cross-tie's cell of height 2H at elastic constant L:
    `solve_Ttilde(L/H)`.  ValueError with what `solve_Ttilde` rejects, else
    naming H, else L, where it lies outside CELL_LENGTHS."""
    t_tilde = solve_Ttilde(L / H)
    lo, hi = CELL_LENGTHS
    for name, length in (("H", H), ("L", L)):
        if not lo <= length <= hi:
            raise ValueError(f"{name} = {length!r} lies outside "
                             f"[{lo:.4g}, {hi:.4g}], the lengths whose "
                             "squares the cross-tie's construction forms")
    return t_tilde


def ttilde_closed_form_check(t_tilde: float, l_over_h: float) -> float:
    """|L/T - 2/sqrt(Lambda)| for the solved half-period, with
    zeta = 2x(x^2-1)/(x^2+1)^2, Lambda = (1-2 zeta)/zeta^2, x = H/T."""
    x = 1.0 / t_tilde
    zeta = 2.0 * x * (x * x - 1.0) / (x * x + 1.0) ** 2
    lam = (1.0 - 2.0 * zeta) / (zeta * zeta)
    return abs(l_over_h / t_tilde - 2.0 / math.sqrt(lam))
