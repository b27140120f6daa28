"""State spaces for affine processes.

A state space ``D`` is a Borel subset of R^d whose affine hull is all of
R^d.  The transform domain attached to ``D`` is the convex cone

    U = {u in C^d : sup_{x in D} Re<u, x> < infinity},

i.e. the set of complex vectors for which x -> exp(<u, x>) is bounded on
``D``.  Two geometries are shipped, each with an exact closed-form support
function ``sup_{x in D} Re<u, x>``, which is what makes membership in U
decidable: the canonical orthant plane R_{>=0}^m x R^n and the parabola
{(y, y^2)}.  FullSpace(d) (m = 0) and HalfLine() (m = 1, n = 0) are orthant
planes under their own names.  Arbitrary Borel sets are deliberately not
supported.

contains, support and in_domain take one vector of shape (d,) or an array
of shape (..., d), one answer per vector; a (d,) input gives a Python bool
or float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
_SAMPLE_RADIUS = 5.0    # sample_points' scale: coordinates within [-5, 5]


def _unwrap(a: np.ndarray):
    """A 0-d answer as a Python scalar, any other as the array."""
    return a.item() if a.ndim == 0 else a


def _halton(n: int, d: int) -> np.ndarray:
    """(n, d) unscrambled Halton points: radical inverses of 0 .. n-1 in the first d primes.

    Digits are added lowest first, each times a weight 1/base^k kept by repeated
    division, which is the float order of the usual van der Corput loop.
    """
    primes, b = [], 2
    while len(primes) < d:
        if all(b % p for p in primes):
            primes.append(b)
        b += 1
    out = np.zeros((n, d))
    for j, base in enumerate(primes):
        q, f = np.arange(n), 1.0 / base
        while q.any():
            out[:, j] += (q % base) * f
            q //= base
            f /= base
    return out


@dataclass(frozen=True)
class StateSpace:
    """Base class: a state space descriptor with an exact support function."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"state space dimension must be >= 1, got {self.dim}")

    def contains(self, x):
        """Membership in D per vector of x (up to the variant's membership tolerance)."""
        raise NotImplementedError

    def support(self, u):
        """sup_{x in D} Re<u, x> per vector of u; math.inf where the sup is unbounded."""
        raise NotImplementedError

    def affine_basis(self) -> np.ndarray:
        """(d+1, d) array of affinely independent points of D."""
        raise NotImplementedError

    def sample_points(self, n: int) -> np.ndarray:
        """The first n unscrambled Halton points (radical inverse in the first d
        primes) mapped into D: orthant coordinates into [0, 5], the others and
        the parabola's y into [-5, 5].  Each call's points are a prefix of a longer call's."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------

    def _check_vector(self, v, name: str) -> np.ndarray:
        arr = np.asarray(v)
        if arr.shape[-1:] != (self.dim,):
            raise ValueError(
                f"{name} has shape {arr.shape}, expected (..., {self.dim}) for this space")
        return arr

    def _real(self, u) -> np.ndarray:
        return self._check_vector(np.asarray(u, dtype=complex), "u").real

    def in_domain(self, u, tol=0.0):
        """Membership in U per vector of u, treating real parts within tol as zero.

        tol is a scalar or one value per vector.  With tol=0 this is exactly
        support(u) < inf.  A positive tol absorbs floating-point drift of
        trajectories that hug the boundary of U.
        """
        re = self._real(u)
        re = np.where(np.abs(re) <= np.asarray(tol)[..., None], 0.0, re)
        return self.support(re) < math.inf


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

    def contains(self, x):
        x = self._check_vector(x, "x")
        return _unwrap((x[..., : self.m] >= 0.0).all(axis=-1))

    def support(self, u):
        re = self._real(u)
        bounded = (re[..., : self.m] <= 0.0).all(axis=-1) & (re[..., self.m :] == 0.0).all(axis=-1)
        return _unwrap(np.where(bounded, 0.0, math.inf))

    def affine_basis(self) -> np.ndarray:
        return np.vstack([np.zeros(self.dim), np.eye(self.dim)])

    def sample_points(self, n: int) -> np.ndarray:
        h = _halton(n, self.dim)
        pts = (2.0 * h - 1.0) * _SAMPLE_RADIUS
        pts[:, : self.m] = h[:, : self.m] * _SAMPLE_RADIUS
        return pts


class FullSpace(CanonicalOrthantPlane):
    """D = R^d, the orthant plane with m = 0.  U is exactly the purely imaginary vectors."""

    def __init__(self, dim: int):
        super().__init__(0, dim)


class HalfLine(CanonicalOrthantPlane):
    """D = [0, inf) in one dimension, the orthant plane with m = 1, n = 0."""

    def __init__(self, dim: int = 1):
        if dim != 1:
            raise ValueError("HalfLine is one-dimensional")
        super().__init__(1, 0)


@dataclass(frozen=True)
class Parabola(StateSpace):
    """D = {(y, y^2) : y in R}, a curve in R^2 whose affine hull is R^2."""

    dim: int = 2

    def __post_init__(self):
        if self.dim != 2:
            raise ValueError("Parabola is two-dimensional")

    def contains(self, x):
        x = self._check_vector(x, "x")
        sq = x[..., 0] ** 2
        return _unwrap(np.abs(x[..., 1] - sq) <= _PARABOLA_RTOL * np.maximum(1.0, sq))

    def support(self, u):
        # sup over y of p*y + q*y^2: 0 at p = q = 0, inf for q > 0 or q = 0 != p
        re = self._real(u)
        p, q = re[..., 0], re[..., 1]
        out = np.where((p == 0.0) & (q == 0.0), 0.0, math.inf)
        rest = ~(q >= 0.0)      # q < 0, or NaN
        out[rest] = -(p[rest] * p[rest]) / (4.0 * q[rest])
        return _unwrap(out)

    def affine_basis(self) -> np.ndarray:
        return np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])

    def sample_points(self, n: int) -> np.ndarray:
        y = (2.0 * _halton(n, 1)[:, 0] - 1.0) * _SAMPLE_RADIUS
        return np.column_stack([y, y * y])

    def in_domain(self, u, tol=0.0):
        re = self._real(u)
        p, q, tol = re[..., 0], re[..., 1], np.asarray(tol)
        # q < 0 is interior for any p; near the origin corner use the band
        return _unwrap((q < 0.0) | ((np.abs(q) <= tol) & (np.abs(p) <= tol))
                       | ((q == 0.0) & (p == 0.0)))


def random_u_in_domain(space: StateSpace, rng: np.random.Generator) -> np.ndarray:
    """A random point of the transform domain U for any shipped space.

    Draws the imaginary part first, then the real part, from `rng`.
    """
    d = space.dim
    y = rng.uniform(-1.5, 1.5, size=d)
    re = np.zeros(d)
    if isinstance(space, Parabola):
        re = np.array([rng.uniform(-1.0, 1.0), -rng.uniform(0.2, 1.5)])
    elif space.m:
        re[: space.m] = -rng.uniform(0.0, 1.5, size=space.m)
    return re + 1j * y


def space_from_config(cfg: dict) -> StateSpace:
    """Build a state space from its JSON descriptor {"kind": ..., ...}."""
    kind = cfg.get("kind")
    if kind == "full":
        return FullSpace(dim=int(cfg.get("d", 1)))
    if kind == "half_line":
        return HalfLine()
    if kind == "orthant_plane":
        return CanonicalOrthantPlane(m=int(cfg["m"]), n=int(cfg["n"]))
    if kind == "parabola":
        return Parabola()
    raise ValueError(f"unknown state space kind: {kind!r}")
