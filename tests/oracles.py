"""Reference quantities the tests check constructions against, with no
caller in the package."""

import numpy as np

from nematic_walls.characteristics import CharacteristicFamily
from nematic_walls.core import EnergyBreakdown, Params
from nematic_walls.energy import _family_arc_integrals


def family_area(family: CharacteristicFamily, *, s_panels: int = 64,
                order: int = 8) -> float:
    """integral of |J| -- the area covered by the family (foliation check)."""
    s_w, absI, _ = _family_arc_integrals(family, s_panels, order)
    return float(s_w @ absI)


def energy_1d(ys: np.ndarray, u: np.ndarray,
              params: Params) -> EnergyBreakdown:
    """eps-level energy per length of a y-only profile u (n, 2) at nodes ys:
    the midpoint rule on the derivative terms, the trapezoid rule on the
    potential."""
    dy = np.diff(ys)
    du = np.diff(u, axis=0)
    grad = float(np.sum((du[:, 0] ** 2 + du[:, 1] ** 2) / dy))
    div = float(np.sum(du[:, 1] ** 2 / dy))
    wtrap = np.zeros_like(ys)
    wtrap[:-1] += 0.5 * dy
    wtrap[1:] += 0.5 * dy
    pot = float(np.sum(wtrap * (u[:, 0] ** 2 + u[:, 1] ** 2 - 1.0) ** 2))
    return EnergyBreakdown(grad_term=0.5 * params.eps * grad,
                           potential_term=pot / (2.0 * params.eps),
                           bulk_div=0.5 * params.L * div)
