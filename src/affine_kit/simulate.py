"""Path simulation and Monte Carlo verifiers for affine processes.

The general scheme is Euler-Maruyama with per-step jump thinning and an
exponential killing clock:

  * drift B(X) - int h(xi) nu(X, dxi), so that uncompensated jumps combined
    with this drift reproduce the exponents' truncation convention;
  * diffusion through the PSD square root of A(X): sqrt(max(diag A(X), 0))
    when a and every alpha^i are diagonal (always in d = 1), which are the
    floats eigh gives, and a batched eigh otherwise;
  * jump counts per step drawn from the frozen-rate Poisson law by inverse
    CDF (thinning against the per-step mass bound), capped at
    _JUMPS_PER_STEP_CAP per step, atoms by categorical inverse CDF; the
    path-steps cut by the cap are counted in Ensemble.jump_overflows;
  * killing by a single Exp(1) clock matched against the accumulated hazard
    int C(X_s) ds along the discrete path (inverse CDF, exact given the path).

Orthant-constrained coordinates use full truncation: coefficients are
evaluated at the clamped state and the stored state is projected back onto
the constraint, so paths never leave the state space.  The parabola is a
curve with no tube around it, so it is never simulated by Euler: only the
parabola preset's process (w, w^2) is, exactly, by simulate_parabola_ensemble,
which maps Brownian increments through w -> (w, w^2).

Randomness: path i reads the counter-based stream of
Generator(Philox(key=seed, counter=[0, 0, i, 0])), so ensembles are
deterministic, order-independent and safe to generate in parallel.  A call
builds one generator and resets it to each path's counter with an empty
buffer, which keeps those streams without a generator per path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import presets
from .params import AffineParams
from .state_space import Parabola
from .transform import BlowUpError, evaluate

__all__ = [
    "Ensemble",
    "McEstimate",
    "SamplerError",
    "simulate_ensemble",
    "simulate_parabola_ensemble",
    "mc_char_fn",
    "martingale_L_test",
    "stopped_ensemble",
    "characteristics_check",
    "CharacteristicsReport",
]

_JUMPS_PER_STEP_CAP = 3  # overflow probability O((rate*dt)^4) per step


class SamplerError(ValueError):
    """No sampler of this module draws paths with the law of the given tuple."""


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    value: complex
    std_error: float
    n_paths: int

    def consistent_with(self, target, n_se: float = 3.0, tol: float = 0.0) -> bool:
        return abs(self.value - target) <= max(n_se * self.std_error, tol)


@dataclass(frozen=True)
class Ensemble:
    """A set of paths on a common grid, stored as (n_paths, n_times, d).

    alive_until holds per-path first-dead indices (n_times if never killed).
    stop_radius is set by stopped_ensemble and consumed by the martingale
    test.  jump_overflows counts the live path-steps whose Poisson draw was
    above the count cap and was truncated to it.
    """

    times: np.ndarray
    states: np.ndarray
    alive_until: np.ndarray
    x0: np.ndarray
    stop_radius: float | None = None
    jump_overflows: int = 0

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def time_index(self, t: float) -> int:
        idx = np.nonzero(np.isclose(self.times, t, rtol=1e-12, atol=1e-12))[0]
        if not len(idx):
            raise ValueError(f"t={t} is not on the simulation grid")
        return int(idx[0])


def _path_streams(seed: int, n_paths: int):
    """Yield one generator n_paths times, reset before the i-th yield to the
    stream of Generator(Philox(key=seed, counter=[0, 0, i, 0])): that counter
    block with an empty output buffer."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    state = rng.bit_generator.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    for i in range(n_paths):
        state["state"]["counter"][:] = (0, 0, i, 0)
        rng.bit_generator.state = state
        yield rng


def _psd_sqrt(mats: np.ndarray) -> np.ndarray:
    """Batched symmetric PSD square root; tiny negative eigenvalues clamp to 0."""
    w, v = np.linalg.eigh(mats)
    w = np.sqrt(np.maximum(w, 0.0))
    return np.einsum("...ij,...j,...kj->...ik", v, w, v)


def simulate_ensemble(p: AffineParams, x0, T: float, n_steps: int, seed: int,
                      n_paths: int) -> Ensemble:
    """Ensemble of n_paths trajectories on the grid linspace(0, T, n_steps + 1).

    Deterministic in (params, x0, T, n_steps, seed); path i depends only on
    (seed, i).  Euler-Maruyama on the orthant plane.  On the parabola only
    the tuple of presets.parabola() (equal A, B, C and W tables), the process
    (w, w^2), is accepted: it gets simulate_parabola_ensemble on that grid;
    any other parabola tuple raises SamplerError.
    """
    if T <= 0 or n_steps < 1:
        raise ValueError("need T > 0 and n_steps >= 1")
    if isinstance(p.space, Parabola):
        ref = presets.parabola()
        if not all(np.array_equal(getattr(p, t), getattr(ref, t)) for t in "ABCW"):
            raise SamplerError("the parabola is a curve and cannot be simulated by Euler; only "
                               "the parabola preset's tuple, (w, w^2), has an exact sampler")
        return simulate_parabola_ensemble(x0, np.linspace(0.0, T, n_steps + 1), seed, n_paths)
    x0 = np.asarray(x0, dtype=float).reshape(p.dim)
    if not p.space.contains(x0):
        raise ValueError(f"x0={x0} is not in the state space")
    report = p.validate(samples=32)
    if not report.valid:
        raise ValueError(f"parameters failed validation:\n{report}")

    d = p.dim
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    has_jumps = p.has_jumps
    has_killing = p.has_killing

    # fixed per-path draw order: normals, then jump uniforms, then the clock
    normals = np.empty((n_paths, n_steps, d))
    if has_jumps:
        jump_u = np.empty((n_paths, n_steps, 1 + _JUMPS_PER_STEP_CAP))
    kill_clock = np.empty(n_paths) if has_killing else None
    for i, rng in enumerate(_path_streams(seed, n_paths)):
        rng.standard_normal(out=normals[i])
        if has_jumps:
            rng.random(out=jump_u[i])
        if has_killing:
            kill_clock[i] = rng.standard_exponential()

    # affine pieces, precomputed: B(x) = b + x @ beta etc.
    constant_diffusion = not p.alpha.any()
    diagonal_diffusion = not p.A[:, ~np.eye(d, dtype=bool)].any()    # a and every alpha^i
    if constant_diffusion:
        sqrt_a = _psd_sqrt(p.a)
    elif diagonal_diffusion:
        a_diag = p.a.diagonal()
        alpha_diag = p.alpha.diagonal(axis1=1, axis2=2)     # (i, j) -> alpha^i_jj
    if has_jumps:
        # jump weights w(x) = W0 + x @ W1 over the atom table, and the
        # truncation compensation int h dnu(x) = hm0 + x @ hm1
        W0, W1 = p.W[0], p.W[1:]
        atom_locs = p.L
        hm = (p.W * p.small) @ p.L
        hm0, hm1 = hm[0], hm[1:]

    m = p.space.m
    states = np.empty((n_paths, n_steps + 1, d))
    states[:, 0, :] = x0
    alive_until = np.full(n_paths, n_steps + 1, dtype=np.int64)
    hazard = np.zeros(n_paths)
    X = np.broadcast_to(x0, (n_paths, d)).copy()
    alive = np.ones(n_paths, dtype=bool)
    jump_overflows = 0
    sqdt = math.sqrt(dt)

    for step in range(n_steps):
        if has_killing:
            rate = np.maximum(p.c + X @ p.gamma, 0.0)
            hazard += rate * dt
            dying = alive & (hazard >= kill_clock)
            alive_until[dying] = step + 1
            alive &= ~dying

        drift = p.b + X @ p.beta
        if has_jumps:
            drift = drift - (hm0 + X @ hm1)
        if constant_diffusion:
            noise = normals[:, step, :] @ sqrt_a.T
        elif diagonal_diffusion:
            A = a_diag + np.einsum("pi,ij->pj", X, alpha_diag)
            noise = np.sqrt(np.maximum(A, 0.0)) * normals[:, step, :]
        else:
            A = p.a + np.einsum("pi,ijk->pjk", X, p.alpha)
            noise = np.einsum("pjk,pk->pj", _psd_sqrt(A), normals[:, step, :])
        X_new = X + drift * dt + sqdt * noise

        if has_jumps:
            w = np.maximum(W0 + X @ W1, 0.0)          # (n_paths, k_atoms)
            lam = w.sum(axis=1) * dt
            # Poisson count by inverse CDF from one uniform per (path, step)
            u_cnt = jump_u[:, step, 0]
            pk = np.exp(-lam)
            cdf = pk.copy()
            counts = np.zeros(n_paths, dtype=np.int64)
            for j in range(1, _JUMPS_PER_STEP_CAP + 1):
                more = u_cnt > cdf
                if not more.any():
                    break
                counts[more] = j
                pk = pk * lam / j
                cdf = cdf + pk
            else:
                # the count loop reached the cap: draws above its CDF are cut
                jump_overflows += int(np.count_nonzero(alive & (u_cnt > cdf)))
            atom_cdf = np.cumsum(w, axis=1)
            for j in range(_JUMPS_PER_STEP_CAP):
                hit = counts > j
                if not hit.any():
                    break
                v = jump_u[hit, step, 1 + j] * atom_cdf[hit, -1]
                idx = (v[:, None] <= atom_cdf[hit]).argmax(axis=1)
                X_new[hit] += atom_locs[idx]

        np.maximum(X_new[:, :m], 0.0, out=X_new[:, :m])
        if has_killing:
            X = np.where(alive[:, None], X_new, X)
            states[:, step + 1, :] = np.where(alive[:, None], X, np.nan)
        else:   # every path stays alive
            X = states[:, step + 1, :] = X_new

    return Ensemble(times=times, states=states, alive_until=alive_until, x0=x0,
                    jump_overflows=jump_overflows)


def simulate_parabola_ensemble(x0, times, seed: int, n_paths: int) -> Ensemble:
    """Exact sampler for the parabola-supported process: (w, w^2) on the grid.

    No discretization error: Brownian increments are drawn per grid interval
    and the second coordinate is the exact square of the first.
    """
    x0 = np.asarray(x0, dtype=float).reshape(2)
    if not Parabola().contains(x0):
        raise ValueError(f"x0={x0} does not lie on the parabola")
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or (len(times) > 1 and np.any(np.diff(times) <= 0)):
        raise ValueError("times must be an increasing grid starting at 0")
    incr = np.zeros((n_paths, len(times)))     # column 0 stays 0: w starts at x0
    for i, rng in enumerate(_path_streams(seed, n_paths)):
        rng.standard_normal(out=incr[i, 1:])
    incr[:, 1:] *= np.sqrt(np.diff(times))
    w = x0[0] + np.cumsum(incr, axis=1)
    states = np.stack([w, w * w], axis=2)
    return Ensemble(times=times, states=states,
                    alive_until=np.full(n_paths, len(times), dtype=np.int64),
                    x0=x0)


def _complex_mean_se(vals: np.ndarray) -> McEstimate:
    n = len(vals)
    if n < 2:
        raise ValueError("need at least 2 paths for a standard error")
    mean = vals.mean()
    var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
    return McEstimate(complex(mean), float(np.sqrt(var / n)), n)


def mc_char_fn(ens: Ensemble, t: float, u) -> McEstimate:
    """Monte Carlo estimate of E[exp(<u, X_t>); alive] over the ensemble.

    Killed paths contribute 0 (functions vanish at the cemetery).
    """
    u = np.asarray(u, dtype=complex).reshape(ens.dim)
    i = ens.time_index(t)
    alive = i < ens.alive_until
    vals = np.zeros(ens.n_paths, dtype=complex)
    vals[alive] = np.exp(ens.states[alive, i, :] @ u)
    return _complex_mean_se(vals)


def martingale_L_test(p: AffineParams, ens: Ensemble, delta: float, n: int, u,
                      tol: float = 1e-10) -> McEstimate:
    """Sample mean of the exponential compensated functional

        L(n) = exp(<u, X_{n delta} - X_0>
                   - sum_{j<=n} (phi(delta,u) + <psi(delta,u) - u, X_{(j-1) delta}>)),

    whose expectation is exactly 1.  phi and psi come from the Riccati
    integrator at horizon delta.  If the ensemble carries a stop radius r,
    each path is capped at its first delta-grid index with |X - X0| >= r
    (discrete optional stopping: the expectation is still exactly 1).
    delta must be a multiple of the grid spacing.
    """
    u = np.asarray(u, dtype=complex).reshape(ens.dim)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return McEstimate(1.0 + 0.0j, 0.0, ens.n_paths)
    dts = np.diff(ens.times)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("martingale test requires a uniform time grid")
    stride = delta / dt
    if not np.isclose(stride, round(stride), rtol=1e-9, atol=1e-12):
        raise ValueError(f"delta={delta} is not aligned with the grid spacing {dt}")
    stride = int(round(stride))
    if n * stride > len(ens.times) - 1:
        raise ValueError("n * delta exceeds the simulated horizon")

    r = evaluate(p, delta, u, tol=tol)
    if not r.ok:
        raise BlowUpError(r.blow_up_time if r.blow_up_time is not None else delta,
                          "transform unavailable at the martingale step size")
    phi, rho = r.phi, r.rho

    sub = ens.states[:, :: stride, :][:, : n + 1, :]        # (paths, n+1, d)
    alive_sub = (np.arange(n + 1) * stride) < ens.alive_until[:, None]
    x0 = sub[:, 0, :]

    # per-path cap from the stop radius, evaluated on this delta-grid
    if ens.stop_radius is not None and math.isfinite(ens.stop_radius):
        with np.errstate(invalid="ignore"):
            exceeded = np.linalg.norm(sub - x0[:, None, :], axis=2) >= ens.stop_radius
        exceeded &= alive_sub
        any_exc = exceeded.any(axis=1)
        n_eff = np.where(any_exc, exceeded.argmax(axis=1), n)
    else:
        n_eff = np.full(ens.n_paths, n, dtype=np.int64)

    # compensator partial sums S_k = sum_{j<=k} (phi + <rho, X_{(j-1)delta}>)
    incr = phi + (sub[:, :-1, :] @ rho)                     # (paths, n)
    S = np.concatenate([np.zeros((ens.n_paths, 1), dtype=complex),
                        np.nancumsum(incr, axis=1)], axis=1)
    rows = np.arange(ens.n_paths)
    x_end = sub[rows, n_eff, :]
    ok_alive = alive_sub[rows, n_eff]
    vals = np.zeros(ens.n_paths, dtype=complex)
    vals[ok_alive] = np.exp((x_end[ok_alive] - x0[ok_alive]) @ u
                            - S[rows[ok_alive], n_eff[ok_alive]])
    return _complex_mean_se(vals)


def stopped_ensemble(ens: Ensemble, r: float) -> Ensemble:
    """Freeze each path at its first grid index with |X_t - X_0| >= r.

    Records the radius so the martingale test applies discrete optional
    stopping on its own delta-grid.  r = inf returns the ensemble unchanged
    (no path ever exits); r = 0 freezes everything at t = 0.
    """
    if r < 0:
        raise ValueError("stop radius must be nonnegative")
    if not math.isfinite(r):
        return replace(ens, stop_radius=r)
    with np.errstate(invalid="ignore"):
        exceeded = np.linalg.norm(ens.states - ens.states[:, :1, :], axis=2) >= r
    exceeded &= ~np.isnan(ens.states).any(axis=2)
    any_exc = exceeded.any(axis=1)
    first = np.where(any_exc, exceeded.argmax(axis=1), len(ens.times) - 1)
    idx = np.minimum(np.arange(len(ens.times))[None, :], first[:, None])
    frozen = np.take_along_axis(ens.states, idx[:, :, None], axis=1)
    return replace(ens, states=frozen, stop_radius=r)


@dataclass(frozen=True)
class CharacteristicsReport:
    """Realized quadratic covariation and drift against their model integrals."""

    mean_rel_error: float            # mean per-path Frobenius error of QV vs int A(X)ds
    ensemble_rel_error: float        # error of the ensemble means
    drift_residual_mean: np.ndarray  # mean of X_T - X_0 - int B(X)ds
    drift_residual_se: np.ndarray
    max_drift_z: float               # largest |mean|/SE across components


def characteristics_check(ens: Ensemble, p: AffineParams) -> CharacteristicsReport:
    """Compare realized sum (dX)(dX)^T with int A(X_s)ds path by path.

    Only meaningful for killing-free pure diffusions; jump or killing
    parameters are rejected.
    """
    if p.has_jumps:
        raise ValueError("characteristics check requires a jump-free process")
    if p.has_killing:
        raise ValueError("characteristics check requires zero killing")
    dts = np.diff(ens.times)
    dX = np.diff(ens.states, axis=1)
    qv = np.einsum("pti,ptj->pij", dX, dX)
    # int of the affine map s -> A(X_s) reduces to the time-integral of X
    int_x = np.einsum("pti,t->pi", ens.states[:, :-1, :], dts)
    T = ens.times[-1] - ens.times[0]
    a_int = T * p.a + np.einsum("pi,ijk->pjk", int_x, p.alpha)

    diff_norm = np.linalg.norm(qv - a_int, axis=(1, 2))
    ref_norm = np.maximum(np.linalg.norm(a_int, axis=(1, 2)), 1e-300)
    per_path = diff_norm / ref_norm
    qv_mean, ai_mean = qv.mean(axis=0), a_int.mean(axis=0)
    ens_err = float(np.linalg.norm(qv_mean - ai_mean)
                    / max(np.linalg.norm(ai_mean), 1e-300))

    b_int = T * p.b + int_x @ p.beta
    resid = ens.states[:, -1, :] - ens.states[:, 0, :] - b_int
    mean = resid.mean(axis=0)
    se = resid.std(axis=0, ddof=1) / math.sqrt(ens.n_paths)
    z = np.abs(mean) / np.maximum(se, 1e-300)
    return CharacteristicsReport(
        mean_rel_error=float(per_path.mean()),
        ensemble_rel_error=ens_err,
        drift_residual_mean=mean,
        drift_residual_se=se,
        max_drift_z=float(z.max()),
    )
