import numpy as np
import pytest

from affine_kit import presets
from affine_kit.params import AffineParams, LevyMeasure
from affine_kit.state_space import CanonicalOrthantPlane, FullSpace, HalfLine


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


def jump_integral(measure: LevyMeasure, u) -> complex:
    """int (e^<xi,u> - 1 - <h(xi), u>) measure(dxi), atom by atom: the
    independent reference for the jump part of the exponents."""
    u = np.asarray(u, dtype=complex)
    total = 0.0 + 0.0j
    for w, xi in zip(measure.weights, measure.locations):
        z = complex(xi @ u)
        total += w * (np.exp(z) - 1.0 - (z if np.linalg.norm(xi) <= 1.0 else 0.0))
    return complex(total)


def consistent_with(est, target, n_se: float = 3.0, tol: float = 0.0) -> bool:
    """A Monte Carlo estimate within n_se standard errors (or tol) of target."""
    return abs(est.value - target) <= max(n_se * est.std_error, tol)


def closed_form_parabola(t: float, u):
    """Exact (phi, psi) for the process (w, w^2) driven by a Brownian w.

    phi(t,u) = -log(1 - 2 t u2)/2 + u1^2 t / (2 (1 - 2 t u2)), with the
    logarithm branch continued from t = 0, and psi(t,u) = u / (1 - 2 t u2).
    s -> 1 - 2 s u2 is a straight segment from 1, which meets the principal
    cut (-inf, 0] only if it runs along the real axis through 0; otherwise the
    continued logarithm is the principal one.  Raises at the pole 1 - 2 t u2 = 0
    and past it, where 1 - 2 t u2 is real and negative.
    """
    u = np.asarray(u, dtype=complex).reshape(2)
    w = 1.0 - 2.0 * t * u[1]
    if abs(w) < 1e-14 or (w.imag == 0.0 and w.real < 0.0):
        raise ValueError("closed form evaluated at or past its pole 1 - 2 t u2 = 0")
    phi = -0.5 * np.log(w) + u[0] ** 2 * t / (2.0 * w)
    return complex(phi), u / w


def parabola_FR(u):
    """Time-zero derivatives of the parabola closed form: F and R at u."""
    u = np.asarray(u, dtype=complex).reshape(2)
    F = u[1] + 0.5 * u[0] ** 2
    R = np.array([2.0 * u[0] * u[1], 2.0 * u[1] ** 2], dtype=complex)
    return complex(F), R


def invalid_negative_diffusion() -> AffineParams:
    """d=1 full space with A(x) = x: indefinite in the x < 0 direction."""
    return AffineParams.zeros(FullSpace(dim=1)).with_(alpha=np.array([[[1.0]]]))


def invalid_negative_jump_weight() -> AffineParams:
    """Half-line params whose merged jump weight 1 - 2x goes negative on D."""
    return AffineParams.zeros(HalfLine()).with_(
        m_measure=LevyMeasure.from_atoms([(1.0, 1.0)]),
        mu_measures=(LevyMeasure.from_atoms([(-2.0, 1.0)]),))
