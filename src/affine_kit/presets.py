"""Built-in parameter sets used as oracles and CLI presets."""

from __future__ import annotations

import numpy as np

from .params import AffineParams
from .state_space import FullSpace, HalfLine, Parabola

__all__ = [
    "brownian",
    "cir",
    "parabola",
    "get",
    "PRESET_NAMES",
]


def brownian(dim: int = 2) -> AffineParams:
    """Standard Brownian motion on R^d: a = I, everything else zero.

    F(u) = <u,u>/2 and R = 0, so psi stays at u and phi grows linearly.
    """
    p = AffineParams.zeros(FullSpace(dim=dim))
    return p.with_(a=np.eye(dim))


def cir(kappa: float = 1.0, theta: float = 1.0, sigma: float = 1.0) -> AffineParams:
    """Square-root diffusion dX = kappa(theta - X)dt + sigma sqrt(X) dW on [0, inf).

    F(u) = kappa*theta*u, R(u) = sigma^2 u^2 / 2 - kappa u.
    """
    p = AffineParams.zeros(HalfLine())
    return p.with_(
        a=np.zeros((1, 1)),
        alpha=np.array([[[sigma ** 2]]]),
        b=np.array([kappa * theta]),
        beta=np.array([[-kappa]]),
    )


def parabola() -> AffineParams:
    """Generator of the squared-Brownian pair (w, w^2) on the parabola.

    Encodes F(u) = u2 + u1^2/2 and R(u) = (2 u1 u2, 2 u2^2) via
    a = diag(1, 0), b = (0, 1), alpha^1 = [[0,2],[2,0]], alpha^2 = [[0,0],[0,4]].
    A(x) = [[1, 2x1], [2x1, 4x1^2]] is PSD (rank one) on the parabola itself
    but indefinite on R^2, so these parameters are admissible only on the
    curve.  validate() reflects that: Parabola.generators() are states on the
    curve, not directions of the plane.
    """
    p = AffineParams.zeros(Parabola())
    alpha = np.zeros((2, 2, 2))
    alpha[0] = np.array([[0.0, 2.0], [2.0, 0.0]])
    alpha[1] = np.array([[0.0, 0.0], [0.0, 4.0]])
    return p.with_(
        a=np.diag([1.0, 0.0]),
        alpha=alpha,
        b=np.array([0.0, 1.0]),
    )


_PRESETS = {"brownian": brownian, "cir": cir, "parabola": parabola}
PRESET_NAMES = tuple(_PRESETS)


def get(name: str) -> AffineParams:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None

