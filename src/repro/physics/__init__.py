"""Physics substrates: reduced H2 kinetics, turbulence synthesis, flow fields."""

from .fields import advect_scalar, box_filter, lamb_oseen_vortex, mixture_fraction_jet
from .h2chem import MOLAR_MASS, SPECIES, H2Mechanism
from .turbulence import gradient, synthesize_scalar

__all__ = [
    "H2Mechanism",
    "MOLAR_MASS",
    "SPECIES",
    "advect_scalar",
    "box_filter",
    "gradient",
    "lamb_oseen_vortex",
    "mixture_fraction_jet",
    "synthesize_scalar",
]
