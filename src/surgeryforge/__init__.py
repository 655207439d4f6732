"""Exact-arithmetic Dehn surgery calculus: continued fractions, lens space
classification, norm sequences, simple-knot Euler characteristics, pentangle
filling verification and the magic-manifold filling families."""

__version__ = "0.1.0"

from .lens import (LensSpace, S3, S1XS2, from_surgery, homeo_oriented,
                   homeo_unoriented, mirror)
from .rationals import (INF, ZERO, ExtRational, cf_eval, cf_expand_norm,
                        cf_solve_tail, rat)

__all__ = [
    "__version__",
    "LensSpace", "S3", "S1XS2", "from_surgery", "homeo_oriented",
    "homeo_unoriented", "mirror",
    "INF", "ZERO", "ExtRational", "cf_eval", "cf_expand_norm", "cf_solve_tail",
    "rat",
]
