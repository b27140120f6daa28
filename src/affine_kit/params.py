"""Admissible parameter tuples and their Levy-Khintchine evaluators.

An affine process on D is specified by the tuple
(a, alpha^i, b, beta^i, c, gamma^i, m, mu^i): the state-dependent
characteristics are affine in the state,

    A(x) = a + sum_i x_i alpha^i        (diffusion, PSD on D)
    B(x) = b + sum_i x_i beta^i         (drift)
    C(x) = c + sum_i x_i gamma^i        (killing rate, >= 0 on D)
    nu(x, .) = m + sum_i x_i mu^i       (jump measure, >= 0 on D)

and the exponents driving the Riccati system are

    F(u)   = <u, a u>/2 + <b, u> - c + int (e^<xi,u> - 1 - <h(xi), u>) m(dxi)
    R_i(u) = <u, alpha^i u>/2 + <beta^i, u> - gamma^i + same integral vs mu^i

with truncation h(xi) = xi * 1{|xi| <= 1}.  Jump measures are finite atomic
(finite activity), so every integral is an exact finite sum and simulation
can place jumps exactly.

Sign convention: C(x) is the instantaneous killing rate and must be
nonnegative on D; equivalently F(0) = -c and R(0) = -gamma, so that the
small-time total-mass derivative F(0) + <x, R(0)> = -C(x) <= 0.  The
validation report always records this convention.

validate checks these conditions at sampled states x of D, and that nu(x, .)
charges only jumps that land in D: x + xi in D for every atom xi of positive
weight ("jump_leaves_state_space").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .state_space import StateSpace

__all__ = [
    "LevyMeasure",
    "AffineParams",
    "ValidationReport",
    "Violation",
]

# tolerances and sample count used by validate()
_PSD_TOL = 1e-10       # minimum eigenvalue of A(x) may not drop below -this
_KILL_TOL = 1e-12      # killing rate may not drop below -this
_WEIGHT_TOL = 1e-12    # merged jump weights may not drop below -this
_SAMPLES = 64          # Halton states of D checked besides the affine basis


@dataclass(frozen=True)
class LevyMeasure:
    """Finite atomic measure on R^d \\ {0}: weights (k,), locations (k, d).

    Weights may be signed when the measure plays the state-coefficient role
    mu^i; the base measure m must be nonnegative (enforced by AffineParams).
    """

    weights: np.ndarray
    locations: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        loc = np.asarray(self.locations, dtype=float)
        if loc.ndim == 1:
            loc = loc.reshape(len(w), -1) if len(w) else loc.reshape(0, 1)
        if w.shape[0] != loc.shape[0]:
            raise ValueError("weights and locations must have the same length")
        if loc.shape[0] and np.any(np.all(loc == 0.0, axis=1)):
            raise ValueError("jump locations must be nonzero vectors")
        w.flags.writeable = False
        loc.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "locations", loc)

    @classmethod
    def empty(cls, dim: int) -> "LevyMeasure":
        return cls(np.zeros(0), np.zeros((0, dim)))

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple], dim: int | None = None) -> "LevyMeasure":
        """Build from [(weight, location), ...]; location may be a scalar for d=1."""
        if not atoms:
            return cls.empty(dim or 1)
        ws = np.array([float(w) for w, _ in atoms])
        locs = np.array([np.atleast_1d(np.asarray(xi, dtype=float)) for _, xi in atoms])
        return cls(ws, locs)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]


@dataclass(frozen=True)
class Violation:
    kind: str            # "diffusion_not_psd" | "negative_jump_weight" |
                         # "jump_leaves_state_space" | "negative_killing_rate"
    x: np.ndarray        # witness state
    value: float         # offending quantity (min eigenvalue, weight, rate)
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: list
    checked_points: int
    notes: tuple

    def __str__(self) -> str:
        head = "valid" if self.valid else f"INVALID ({len(self.violations)} violations)"
        lines = [f"parameter validation: {head} over {self.checked_points} states"]
        for v in self.violations[:5]:
            lines.append(f"  - {v.kind} at x={np.round(v.x, 6)}: {v.detail}")
        if len(self.violations) > 5:
            lines.append(f"  - ... and {len(self.violations) - 5} more")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


@dataclass(frozen=True)
class AffineParams:
    """Parameter tuple of an affine process on `space`.

    Shapes: a (d,d) symmetric; alpha (d,d,d) with alpha[i] symmetric;
    b (d,); beta (d,d) with beta[i] the i-th coefficient vector; c scalar;
    gamma (d,); m_measure the base jump measure; mu_measures a tuple of d
    signed per-coordinate jump measures.

    The constructor stores the tuple once, as tables whose row 0 is the
    constant part and row 1+i the coefficient of x_i, so that every
    characteristic at x is (1, x) @ table:

        A = [a; alpha]  (d+1, d, d)      B = [b; beta]  (d+1, d)
        C = [c; gamma]  (d+1,)
        L  (k, d)    the k distinct atom locations of m and of every mu^i
        W  (d+1, k)  W[0] the weights of m at L, W[1+i] those of mu^i
        small (k,)   |L[j]| <= 1: the atoms where the truncation h applies

    a, alpha, b, beta and gamma are read-only views of these rows.
    """

    space: StateSpace
    a: np.ndarray
    alpha: np.ndarray
    b: np.ndarray
    beta: np.ndarray
    c: float
    gamma: np.ndarray
    m_measure: LevyMeasure
    mu_measures: tuple

    def __post_init__(self):
        d = self.space.dim
        A = np.empty((d + 1, d, d))
        A[0] = np.asarray(self.a, dtype=float).reshape(d, d)
        A[1:] = np.asarray(self.alpha, dtype=float).reshape(d, d, d)
        B = np.empty((d + 1, d))
        B[0] = np.asarray(self.b, dtype=float).reshape(d)
        B[1:] = np.asarray(self.beta, dtype=float).reshape(d, d)
        C = np.empty(d + 1)
        C[0] = float(self.c)
        C[1:] = np.asarray(self.gamma, dtype=float).reshape(d)
        for name, mat in zip(["a"] + [f"alpha[{i}]" for i in range(d)], A):
            if not np.allclose(mat, mat.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
        if np.any(self.m_measure.weights < 0.0):
            raise ValueError("base jump measure m must have nonnegative weights")
        if len(self.mu_measures) != d:
            raise ValueError(f"expected {d} per-coordinate jump measures")
        measures = (self.m_measure, *self.mu_measures)
        L, cols = np.unique(
            np.vstack([m.locations for m in measures if len(m)] or [np.zeros((0, d))]),
            axis=0, return_inverse=True)
        W = np.zeros((d + 1, len(L)))
        rows = np.repeat(np.arange(d + 1), [len(m) for m in measures])
        np.add.at(W, (rows, cols.ravel()), np.concatenate([m.weights for m in measures]))
        small = np.linalg.norm(L, axis=1) <= 1.0
        for name, table in (("A", A), ("B", B), ("C", C), ("L", L), ("W", W), ("small", small)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        # complex tables for F and R (all d+1 rows in one pass), None for an
        # all-zero B or C, and the atoms as L.T; Q[r*d + i, j] = A_r[i, j]/2
        # gives every row's (A_r u)/2 as Q @ u
        object.__setattr__(self, "_exponent_tables", (
            (0.5 * A).reshape(-1, d).astype(complex),
            *(t.astype(complex) if t.any() else None for t in (B, C)),
            W.astype(complex), W != 0.0))
        object.__setattr__(self, "_atoms", L.T.astype(complex))
        object.__setattr__(self, "a", A[0])
        object.__setattr__(self, "alpha", A[1:])
        object.__setattr__(self, "b", B[0])
        object.__setattr__(self, "beta", B[1:])
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "gamma", C[1:])
        object.__setattr__(self, "mu_measures", tuple(self.mu_measures))

    @classmethod
    def zeros(cls, space: StateSpace) -> "AffineParams":
        """All-zero parameters on `space` (the constant dead-calm process)."""
        d = space.dim
        return cls(
            space=space,
            a=np.zeros((d, d)),
            alpha=np.zeros((d, d, d)),
            b=np.zeros(d),
            beta=np.zeros((d, d)),
            c=0.0,
            gamma=np.zeros(d),
            m_measure=LevyMeasure.empty(d),
            mu_measures=tuple(LevyMeasure.empty(d) for _ in range(d)),
        )

    def with_(self, **kwargs) -> "AffineParams":
        return replace(self, **kwargs)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def has_jumps(self) -> bool:
        return len(self.L) > 0

    @property
    def has_killing(self) -> bool:
        return bool(self.C.any())

    # -- Levy-Khintchine exponents ---------------------------------------

    def _exponent(self, u):
        """F and R as (..., d+1), F in column 0, at u of shape (..., d)."""
        u = np.asarray(u, dtype=complex)
        Q, B, C, W, nonzero = self._exponent_tables
        # row r is (A_r u / 2 + B_r) . u - C_r, a product per lane: a batched
        # zgemm would make a lane's bits depend on the batch size
        out = (Q @ u[..., None]).reshape(u.shape[:-1] + (-1, self.dim))
        if B is not None:
            out += B
        out = (out @ u[..., None])[..., 0]
        if C is not None:
            out -= C
        if len(self.L):
            # z = <u, L_j> by elementwise sums, not BLAS: np.exp of (64, 4) takes 100-120 us,
            # not 5-8, on x86-64 if an OpenBLAS zgemm ran since numpy's last SIMD loop
            z = u[..., 0, None] * self._atoms[0]
            for i in range(1, self.dim):
                z += u[..., i, None] * self._atoms[i]
            terms = np.exp(z) - 1.0 - np.where(self.small, z, 0.0)
            if np.isfinite(terms).all():  # a product per lane: no lane's bits depend on the batch
                out += (W @ terms[..., None])[..., 0]
            else:  # lanes where exp overflows: a zero weight adds exactly 0, no 0 * inf
                fin = np.isfinite(terms).all(axis=-1, keepdims=True)
                prod = (W @ np.where(fin, terms, 0.0)[..., None])[..., 0]
                m = np.where(nonzero, terms[..., None, :], 0.0)
                out.real += np.where(fin, prod.real, (W.real * m.real).sum(axis=-1))
                out.imag += np.where(fin, prod.imag, (W.real * m.imag).sum(axis=-1))
        return out

    def F_eval(self, u, R_out=None):
        """Constant part of the exponent: <u,au>/2 + <b,u> - c + jump integral of m.
        Shape (...) at u of shape (..., d); a complex at u of shape (d,).

        One pass evaluates every row of the tuple; given an (..., d) array
        R_out, which must not overlap u, it also writes R(u) into R_out."""
        FR = self._exponent(u)
        if R_out is not None:
            R_out[...] = FR[..., 1:]
        return complex(FR[..., 0]) if FR.ndim == 1 else FR[..., 0]

    def R_eval(self, u) -> np.ndarray:
        """State-coefficient part, (..., d) at u of shape (..., d): component i
        uses (alpha^i, beta^i, gamma^i, mu^i)."""
        return self._exponent(u)[..., 1:]

    # -- validation -------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Desk-scale admissibility check on affine_basis plus sample_points(64) of D.

        Violations are report entries, never exceptions: at every checked
        state A(x) must be PSD (min eigenvalue >= -1e-10), the merged jump
        weights nonnegative, every atom of weight > 1e-12 must land in D
        ("jump_leaves_state_space") and the killing rate c + <gamma, x> must
        be >= -1e-12.
        """
        pts = np.vstack([self.space.affine_basis(), self.space.sample_points(_SAMPLES)])
        xt = np.hstack([np.ones((len(pts), 1)), pts])
        lam_min = np.linalg.eigvalsh(np.tensordot(xt, self.A, axes=1))[:, 0]
        rates = xt @ self.C
        w = xt @ self.W                                     # (points, atoms)
        # initial=0: only a negative weight can be a violation, and k may be 0
        w_min = w.min(axis=1, initial=0.0)
        leaves = (w > _WEIGHT_TOL) & ~self.space.contains(pts[:, None, :] + self.L)
        violations = []
        for i in np.flatnonzero((lam_min < -_PSD_TOL) | (rates < -_KILL_TOL)
                                | (w_min < -_WEIGHT_TOL) | leaves.any(axis=1)):
            x, lam, rate, w_lo = pts[i], lam_min[i], rates[i], w_min[i]
            if lam < -_PSD_TOL:
                violations.append(Violation(
                    "diffusion_not_psd", x, float(lam),
                    f"min eigenvalue of A(x) is {lam:.3e}"))
            if rate < -_KILL_TOL:
                violations.append(Violation(
                    "negative_killing_rate", x, float(rate),
                    f"killing rate c + <gamma,x> is {rate:.3e}"))
            if w_lo < -_WEIGHT_TOL:
                violations.append(Violation(
                    "negative_jump_weight", x, float(w_lo),
                    f"merged jump weight {w_lo:.3e}"))
            if leaves[i].any():
                j = leaves[i].argmax()
                violations.append(Violation(
                    "jump_leaves_state_space", x, float(w[i, j]),
                    f"atom {self.L[j]} of weight {w[i, j]:.3e} lands at {x + self.L[j]}, "
                    "outside D"))
        notes = (
            "killing rate convention: C(x) = c + <gamma, x> is required to be "
            "nonnegative on D (equivalently F(0) = -c, R(0) = -gamma); the "
            "opposite sign for C(x) is rejected by this check",
        )
        return ValidationReport(
            valid=not violations,
            violations=violations,
            checked_points=len(pts),
            notes=notes,
        )
