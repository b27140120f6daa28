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
]

# relative tolerance for the parabola membership band
_PARABOLA_RTOL = 1e-12


def _unwrap(a: np.ndarray):
    """A 0-d answer as a Python scalar, any other as the array."""
    return a.item() if a.ndim == 0 else a


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

    def generators(self) -> np.ndarray:
        """(k, d+1) homogeneous rows: (1, x) a state of D, (0, r) a direction in
        which D is unbounded.  rows @ table gives an affine function's value at
        each state and its slope along each direction."""
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
        """Membership in U per vector of u, one rule for every space: all parts finite,
        and support(u) < inf or support < inf once real parts within tol are zero.

        Finiteness is the rule contains applies to x.  tol is a scalar or one
        value per vector; it absorbs floating-point drift of trajectories that
        hug the boundary of U, and the first support test keeps a point that
        zeroing moves out of U (parabola: q < 0 with |p| > tol).
        """
        u = self._check_vector(np.asarray(u, dtype=complex), "u")
        near = np.where(np.abs(u.real) <= np.asarray(tol)[..., None], 0.0, u.real)
        return _unwrap(np.isfinite(u).all(axis=-1)) & (
            (self.support(u.real) < math.inf) | (self.support(near) < math.inf))


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
        return _unwrap((x[..., : self.m] >= 0.0).all(axis=-1) & np.isfinite(x).all(axis=-1))

    def support(self, u):
        re = self._real(u)
        bounded = (re[..., : self.m] <= 0.0).all(axis=-1) & (re[..., self.m :] == 0.0).all(axis=-1)
        return _unwrap(np.where(bounded, 0.0, math.inf))

    def affine_basis(self) -> np.ndarray:
        return np.vstack([np.zeros(self.dim), np.eye(self.dim)])

    def generators(self) -> np.ndarray:
        """The vertex 0, a ray e_i for each i < m and both of +-e_j for each j >= m.
        Exact: an affine function is >= 0 on D iff its value and slopes here are."""
        eye = np.eye(self.dim + 1)
        return np.vstack([eye, 0.0 - eye[self.m + 1 :]])


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
        # a y^2 past the largest float, inf or NaN is no state, though inf <= the band's inf
        with np.errstate(over="ignore", invalid="ignore"):
            sq = x[..., 0] ** 2
            near = np.abs(x[..., 1] - sq) <= _PARABOLA_RTOL * np.maximum(1.0, sq)
        return _unwrap(near & np.isfinite(sq))

    def support(self, u):
        # sup over y of p*y + q*y^2: 0 at p = q = 0, inf for q > 0 or q = 0 != p
        re = self._real(u)
        p, q = re[..., 0], re[..., 1]
        out = np.where((p == 0.0) & (q == 0.0), 0.0, math.inf)
        rest = ~(q >= 0.0)      # q < 0, or NaN
        with np.errstate(over="ignore", invalid="ignore"):  # finite p: saturate at max float
            sup = -(p[rest] * p[rest]) / (4.0 * q[rest])
        out[rest] = np.where(np.isfinite(p[rest]), np.minimum(sup, np.finfo(float).max), sup)
        return _unwrap(out)

    def affine_basis(self) -> np.ndarray:
        return np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])

    def generators(self) -> np.ndarray:
        """The states (y, y^2) of the affine basis and of y = -5 + 10k/64, k < 64: a
        fixed sample of the curve, not exact, since D has no finite generators."""
        y = np.concatenate([[0.0, 1.0, -1.0], np.linspace(-5.0, 5.0, 64, endpoint=False)])
        return np.column_stack([np.ones_like(y), y, y * y])


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

