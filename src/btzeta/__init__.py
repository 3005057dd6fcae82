"""Zeta functions of type-colored 2-dimensional simplicial complexes.

The package models finite quotient complexes of the rank-3 affine building
(vertices typed in Z/3), builds the positive-edge and pointed-chamber
transfer operators, computes their exact zeta polynomials and the associated
rational-function ratio, enumerates closed positive geodesics and galleries
as an independent oracle, decomposes lattice points of rational sharp cones
into closed-form generating series, and classifies quotients against the
critical root modulus q^(1/2).

The top level re-exports the public names (``__all__``) of every module.
"""

from . import complexes, cones, generators, geodesics, operators, polynomials, rh, zeta
from .complexes import *  # noqa: F401,F403
from .cones import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .geodesics import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .polynomials import *  # noqa: F401,F403
from .rh import *  # noqa: F401,F403
from .zeta import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (complexes, cones, generators, geodesics, operators, polynomials, rh, zeta)
    for name in module.__all__
]
