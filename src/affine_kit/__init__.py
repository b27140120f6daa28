"""affine-kit: affine Markov processes on general state spaces.

Transforms through generalized Riccati equations, exact and Euler path
simulation, and a suite of numerical verifiers for the structural
properties of affine processes (semi-flow, regularity, boundedness,
small-time limits, martingale functionals, semimartingale characteristics).
"""

from .params import AdmissibilityError, AffineParams, LevyMeasure, jump_integral
from .simulate import (
    Ensemble,
    McEstimate,
    characteristics_check,
    martingale_L_test,
    mc_char_fn,
    simulate_ensemble,
    simulate_parabola_ensemble,
    stopped_ensemble,
)
from .state_space import (
    CanonicalOrthantPlane,
    FullSpace,
    HalfLine,
    Parabola,
    StateSpace,
    TransformPoint,
    space_from_config,
)
from .transform import (
    BlowUpError,
    TransformDomainError,
    TransformError,
    TransformResult,
    boundedness_probe,
    char_fn,
    closed_form_parabola,
    cp_limit_check,
    evaluate,
    evaluate_grid,
    fd_regularity,
    parabola_FR,
    semiflow_residual,
)
from . import presets

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "AffineParams",
    "LevyMeasure",
    "jump_integral",
    "Ensemble",
    "McEstimate",
    "characteristics_check",
    "martingale_L_test",
    "mc_char_fn",
    "simulate_ensemble",
    "simulate_parabola_ensemble",
    "stopped_ensemble",
    "CanonicalOrthantPlane",
    "FullSpace",
    "HalfLine",
    "Parabola",
    "StateSpace",
    "TransformPoint",
    "space_from_config",
    "BlowUpError",
    "TransformDomainError",
    "TransformError",
    "TransformResult",
    "boundedness_probe",
    "char_fn",
    "closed_form_parabola",
    "cp_limit_check",
    "evaluate",
    "evaluate_grid",
    "fd_regularity",
    "parabola_FR",
    "semiflow_residual",
    "presets",
]
