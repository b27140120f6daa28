"""State spaces for affine processes.

A state space ``D`` is a Borel subset of R^d whose affine hull is all of
R^d.  The transform domain attached to ``D`` is the convex cone

    U = {u in C^d : sup_{x in D} Re<u, x> < infinity},

i.e. the set of complex vectors for which x -> exp(<u, x>) is bounded on
``D``.  Each shipped variant has an exact closed-form support function
``sup_{x in D} Re<u, x>``, which is what makes membership in U decidable.
Arbitrary Borel sets are deliberately not supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

__all__ = [
    "StateSpace",
    "FullSpace",
    "HalfLine",
    "CanonicalOrthantPlane",
    "Parabola",
    "random_u_in_domain",
    "space_from_config",
]

# relative tolerance for the parabola membership band
_PARABOLA_RTOL = 1e-12


@dataclass(frozen=True)
class StateSpace:
    """Base class: a state space descriptor with an exact support function."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"state space dimension must be >= 1, got {self.dim}")

    def contains(self, x) -> bool:
        """True iff x lies in D (up to the variant's membership tolerance)."""
        raise NotImplementedError

    def support(self, u) -> float:
        """sup_{x in D} Re<u, x>; math.inf when the sup is unbounded."""
        raise NotImplementedError

    def affine_basis(self) -> np.ndarray:
        """(d+1, d) array of affinely independent points of D."""
        raise NotImplementedError

    def sample_points(self, n: int, radius: float = 5.0) -> np.ndarray:
        """n low-discrepancy (Halton) points of D inside a box of half-width radius."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------

    def _check_vector(self, v, name: str) -> np.ndarray:
        arr = np.asarray(v)
        if arr.shape != (self.dim,):
            raise ValueError(
                f"{name} has shape {arr.shape}, expected ({self.dim},) for this space"
            )
        return arr

    def in_domain(self, u, tol: float = 0.0) -> bool:
        """Membership of u in U, treating real parts within tol as zero.

        With tol=0 this is exactly support(u) < inf.  A positive tol absorbs
        floating-point drift of trajectories that hug the boundary of U.
        """
        u = np.asarray(u, dtype=complex)
        re = u.real.copy()
        re[np.abs(re) <= tol] = 0.0
        return self.support(re + 1j * u.imag) < math.inf


@dataclass(frozen=True)
class FullSpace(StateSpace):
    """D = R^d.  U is exactly the purely imaginary vectors."""

    def contains(self, x) -> bool:
        self._check_vector(x, "x")
        return True

    def support(self, u) -> float:
        u = self._check_vector(np.asarray(u, dtype=complex), "u")
        return 0.0 if np.all(u.real == 0.0) else math.inf

    def affine_basis(self) -> np.ndarray:
        return np.vstack([np.zeros(self.dim), np.eye(self.dim)])

    def sample_points(self, n: int, radius: float = 5.0) -> np.ndarray:
        h = qmc.Halton(d=self.dim, scramble=False).random(n)
        return (2.0 * h - 1.0) * radius


@dataclass(frozen=True)
class HalfLine(StateSpace):
    """D = [0, inf) in one dimension."""

    dim: int = 1

    def __post_init__(self):
        if self.dim != 1:
            raise ValueError("HalfLine is one-dimensional")

    def contains(self, x) -> bool:
        x = self._check_vector(x, "x")
        return bool(x[0] >= 0.0)

    def support(self, u) -> float:
        u = self._check_vector(np.asarray(u, dtype=complex), "u")
        return 0.0 if u.real[0] <= 0.0 else math.inf

    def affine_basis(self) -> np.ndarray:
        return np.array([[0.0], [1.0]])

    def sample_points(self, n: int, radius: float = 5.0) -> np.ndarray:
        h = qmc.Halton(d=1, scramble=False).random(n)
        return h * radius


@dataclass(frozen=True)
class CanonicalOrthantPlane(StateSpace):
    """D = R_{>=0}^m x R^n, dim d = m + n."""

    m: int = 0
    n: int = 0
    dim: int = field(default=0)

    def __init__(self, m: int, n: int):
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "dim", int(m) + int(n))
        if self.m < 0 or self.n < 0:
            raise ValueError("m and n must be nonnegative")
        super().__post_init__()

    def contains(self, x) -> bool:
        x = self._check_vector(x, "x")
        return bool(np.all(x[: self.m] >= 0.0))

    def support(self, u) -> float:
        u = self._check_vector(np.asarray(u, dtype=complex), "u")
        re = u.real
        if np.all(re[: self.m] <= 0.0) and np.all(re[self.m :] == 0.0):
            return 0.0
        return math.inf

    def affine_basis(self) -> np.ndarray:
        return np.vstack([np.zeros(self.dim), np.eye(self.dim)])

    def sample_points(self, n: int, radius: float = 5.0) -> np.ndarray:
        h = qmc.Halton(d=self.dim, scramble=False).random(n)
        pts = (2.0 * h - 1.0) * radius
        pts[:, : self.m] = h[:, : self.m] * radius
        return pts


@dataclass(frozen=True)
class Parabola(StateSpace):
    """D = {(y, y^2) : y in R}, a curve in R^2 whose affine hull is R^2."""

    dim: int = 2

    def __post_init__(self):
        if self.dim != 2:
            raise ValueError("Parabola is two-dimensional")

    def contains(self, x) -> bool:
        x = self._check_vector(x, "x")
        return bool(abs(x[1] - x[0] ** 2) <= _PARABOLA_RTOL * max(1.0, x[0] ** 2))

    def support(self, u) -> float:
        # sup over y of p*y + q*y^2 with p = Re u1, q = Re u2
        u = self._check_vector(np.asarray(u, dtype=complex), "u")
        p, q = u.real
        if q > 0.0 or (q == 0.0 and p != 0.0):
            return math.inf
        if p == 0.0 and q == 0.0:
            return 0.0
        return -(p * p) / (4.0 * q)

    def affine_basis(self) -> np.ndarray:
        return np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])

    def sample_points(self, n: int, radius: float = 5.0) -> np.ndarray:
        y = (2.0 * qmc.Halton(d=1, scramble=False).random(n)[:, 0] - 1.0) * radius
        return np.column_stack([y, y * y])

    def in_domain(self, u, tol: float = 0.0) -> bool:
        u = np.asarray(u, dtype=complex)
        p, q = u.real
        # q < 0 is interior for any p; near the origin corner use the band
        return bool(q < 0.0 or (abs(q) <= tol and abs(p) <= tol) or (q == 0.0 and p == 0.0))


def random_u_in_domain(space: StateSpace, rng: np.random.Generator) -> np.ndarray:
    """A random point of the transform domain U for any shipped space.

    Draws the imaginary part first, then the real part, from `rng`.
    """
    d = space.dim
    y = rng.uniform(-1.5, 1.5, size=d)
    re = np.zeros(d)
    if isinstance(space, Parabola):
        re = np.array([rng.uniform(-1.0, 1.0), -rng.uniform(0.2, 1.5)])
    elif isinstance(space, HalfLine):
        re[0] = -rng.uniform(0.0, 1.5)
    elif isinstance(space, CanonicalOrthantPlane) and space.m:
        re[: space.m] = -rng.uniform(0.0, 1.5, size=space.m)
    return re + 1j * y


def space_from_config(cfg: dict) -> StateSpace:
    """Build a state space from its JSON descriptor {"kind": ..., ...}."""
    kind = cfg.get("kind")
    if kind == "full":
        return FullSpace(dim=int(cfg.get("d", cfg.get("dim", 1))))
    if kind == "half_line":
        return HalfLine()
    if kind == "orthant_plane":
        return CanonicalOrthantPlane(m=int(cfg["m"]), n=int(cfg["n"]))
    if kind == "parabola":
        return Parabola()
    raise ValueError(f"unknown state space kind: {kind!r}")
