"""affine-kit: affine Markov processes on general state spaces.

Transforms through generalized Riccati equations, exact and Euler path
simulation, and a suite of numerical verifiers for the structural
properties of affine processes (semi-flow, regularity, boundedness,
small-time limits, martingale functionals, semimartingale characteristics).
"""

from . import params, presets, simulate, state_space, transform
from .params import *
from .simulate import *
from .state_space import *
from .transform import *

__version__ = "0.1.0"

__all__ = [*params.__all__, *simulate.__all__, *state_space.__all__, *transform.__all__,
           "presets"]
