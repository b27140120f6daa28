import numpy as np
import pytest

from affine_kit import presets
from affine_kit.params import AffineParams, LevyMeasure
from affine_kit.state_space import CanonicalOrthantPlane


@pytest.fixture
def brownian():
    return presets.brownian(2)


@pytest.fixture
def cir():
    return presets.cir()


@pytest.fixture
def parabola():
    return presets.parabola()


@pytest.fixture
def svj():
    """The 2-d stochastic-volatility tuple with jumps and killing on R_+ x R
    that the transform-svj and simulate-svj benchmark workloads run."""
    s, rho = 0.5, -0.7
    return AffineParams.zeros(CanonicalOrthantPlane(1, 1)).with_(
        alpha=np.array([[[s * s, rho * s], [rho * s, 1.0]], np.zeros((2, 2))]),
        b=np.array([0.08, 0.0]),
        beta=np.array([[-2.0, -0.5], [0.0, 0.0]]),
        c=0.02,
        gamma=np.array([0.1, 0.0]),
        m_measure=LevyMeasure.from_atoms(
            [(0.5, [0.0, 0.1]), (0.5, [0.0, -0.1]), (0.3, [0.05, 0.0])]),
        mu_measures=(LevyMeasure.from_atoms([(2.0, [0.0, -0.2])]), LevyMeasure.empty(2)),
    )
