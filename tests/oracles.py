"""Reference quantities the tests check constructions against, with no
caller in the package."""

from nematic_walls.characteristics import CharacteristicFamily
from nematic_walls.energy import _family_arc_integrals


def family_area(family: CharacteristicFamily, *, s_panels: int = 64,
                order: int = 8) -> float:
    """integral of |J| -- the area covered by the family (foliation check)."""
    s_w, absI, _ = _family_arc_integrals(family, s_panels, order)
    return float(s_w @ absI)
