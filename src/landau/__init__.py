"""Numerical laboratory for the linearized Landau collision operator with
soft potentials (-3 < gamma < 0) on a truncated velocity grid."""

from .config import RunConfig, load_config
from .evolution import (DerivativeLadder, SourceModel, derivative_ladder,
                        evolve, step)
from .field import (ScalarField, VectorField, a_norm, gradient, inner_product,
                    l2_norm, random_field, weighted_norm)
from .grid import VelocityGrid
from .kernel import (KernelParams, LandauCoefficients, QuadratureSpec,
                     build_coefficients, compute_abar_field,
                     maxwellian_field)
from .operator import (ConvolutionEngine, OperatorContext, apply_L, apply_L1,
                       apply_L2, make_context)

__version__ = "0.1.0"
