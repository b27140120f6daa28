"""Path simulation and Monte Carlo verifiers for affine processes.

simulate_ensemble is the one sampler interface.  It picks, from the tuple
alone, one of three samplers and records which in Ensemble.sampler:

  * "parabola_exact": the parabola preset's process (w, w^2), by
    simulate_parabola_ensemble, which maps Brownian increments through
    w -> (w, w^2).  The parabola is a curve with no tube around it, so no
    other parabola tuple is simulated (SamplerError);
  * "cir_exact": the square-root diffusion dX = (b - kappa X)dt + sigma
    sqrt(X) dW on the half-line (no jumps, no killing, a = 0, alpha = sigma^2
    > 0) whose dimension df = 4b/sigma^2 is >= 1.  Over a step of length h,
    with c = sigma^2 (1 - e^{-kappa h})/(4 kappa), the transition is exact
    (Glasserman 2003, section 3.4; Broadie & Kaya 2006):

        X' = c [(Z + sqrt(X e^{-kappa h}/c))^2 + 2G],
        Z ~ N(0, 1), G ~ Gamma((df - 1)/2);

  * "euler": Euler-Maruyama for every other tuple on the orthant plane.

The Euler scheme:

  * drift B(X) - int h(xi) nu(X, dxi), so that uncompensated jumps combined
    with this drift reproduce the exponents' truncation convention;
  * diffusion through the symmetric PSD square root of A(X), in closed form
    for d <= 2 (no LAPACK call per step) and by a batched eigh for d >= 3;
    a constant A is rooted once;
  * jump counts per step drawn from the frozen-rate Poisson law by inverse
    CDF (thinning against the per-step mass bound), capped at
    _JUMPS_PER_STEP_CAP per step, atoms by categorical inverse CDF; the
    path-steps cut by the cap are counted in Ensemble.jump_overflows;
  * killing by a single Exp(1) clock matched against the accumulated hazard
    int C(X_s) ds along the discrete path (inverse CDF, exact given the path).

Orthant-constrained coordinates use full truncation: coefficients are
evaluated at the clamped state and the stored state is projected back onto
the constraint, so paths never leave the state space.  Ensemble.clamps
counts the coordinates so projected.

Grid: every sampler returns every time of linspace(0, T, n_steps + 1).
grid_index is the one rule for whether a time lies on a grid.

Randomness: Euler and the parabola sampler give path i the counter-based
stream of Generator(Philox(key=seed, counter=[0, 0, i, 0])).  The exact CIR
sampler draws in block substreams: block k of _BLOCK paths reads the stream
of counter [0, 0, k, 1], kept apart from the per-path counters by the last
word, and always draws a whole block.  Either way path i depends only on
(seed, i, grid), so ensembles are deterministic and order-independent.  A
drawing thread builds one generator and resets it to each stream's counter
with an empty buffer, without a generator per stream.  The exact CIR
sampler splits its blocks into one run per CPU in the process's affinity
and draws and steps each run on a thread of its own.  A run writes only
its own paths, so the bytes do not depend on the number of threads, and
the threads end before the call returns.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import presets
from .params import AffineParams
from .state_space import CanonicalOrthantPlane, Parabola
from .transform import _require_ok, evaluate

__all__ = [
    "Ensemble",
    "McEstimate",
    "SamplerError",
    "grid_index",
    "simulate_ensemble",
    "simulate_parabola_ensemble",
    "mc_char_fn",
    "martingale_L_test",
    "stopped_ensemble",
    "characteristics_check",
    "CharacteristicsReport",
]

_JUMPS_PER_STEP_CAP = 3  # overflow probability O((rate*dt)^4) per step
_BLOCK = 256             # paths per block substream of the exact CIR sampler
_EYE2 = np.eye(2)        # _psd_sqrt's identity, built once rather than per Euler step


class SamplerError(ValueError):
    """No sampler of this module draws paths with the law of the given tuple."""


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    value: complex
    std_error: float
    n_paths: int


@dataclass(frozen=True)
class Ensemble:
    """A set of paths on a common grid, stored as (n_paths, n_times, d); path i
    starts at states[i, 0].

    alive_until holds per-path first-dead indices (n_times if never killed).
    stop_radius is set by stopped_ensemble and consumed by the martingale
    test.  jump_overflows counts the live path-steps whose Poisson draw was
    above the count cap and was truncated to it.  clamps counts the live
    (path, step, coordinate) cells that Euler's full truncation moved from
    below 0 back to 0; the exact samplers record 0.  sampler names the
    sampler that drew the paths: "euler", "cir_exact" or "parabola_exact".
    """

    times: np.ndarray
    states: np.ndarray
    alive_until: np.ndarray
    stop_radius: float | None = None
    jump_overflows: int = 0
    clamps: int = 0
    sampler: str = "euler"

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


def grid_index(times: np.ndarray, t: float) -> int:
    """The index of t in the grid `times`; ValueError if t is not on it."""
    idx = np.nonzero(np.isclose(times, t, rtol=1e-12, atol=1e-12))[0]
    if not len(idx):
        raise ValueError(f"t={t} is not on the simulation grid")
    return int(idx[0])


def _path_streams(seed: int, ks, word: int = 0):
    """Yield one generator for each k of ks, reset to the stream of
    Generator(Philox(key=seed, counter=[0, 0, k, word])): that counter block
    with an empty output buffer.  Word 0 gives path k's stream, word 1 the
    stream of block k of the exact CIR sampler."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    state = rng.bit_generator.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    for k in ks:
        state["state"]["counter"][:] = (0, 0, k, word)
        rng.bit_generator.state = state
        yield rng


def _psd_sqrt(mats: np.ndarray) -> np.ndarray:
    """Batched symmetric PSD square root of (..., d, d) stacks.

    d = 1: sqrt(max(M, 0)).  d = 2, closed form: with s = sqrt(max(det M, 0))
    and t = sqrt(max(tr M + 2s, 0)), R = (M + sI)/t, and R = 0 where t = 0;
    by Cayley-Hamilton R R = M whenever det M >= 0.  d >= 3: batched eigh,
    tiny negative eigenvalues clamped to 0.
    """
    d = mats.shape[-1]
    if d == 1:
        return np.sqrt(np.maximum(mats, 0.0))
    if d == 2:
        a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
        s = np.sqrt(np.maximum(a * c - b * b, 0.0))
        t = np.sqrt(np.maximum(a + c + 2.0 * s, 0.0))[..., None, None]
        return np.divide(mats + s[..., None, None] * _EYE2, t,
                         out=np.zeros(mats.shape), where=t > 0.0)
    w, v = np.linalg.eigh(mats)
    w = np.sqrt(np.maximum(w, 0.0))
    return np.einsum("...ij,...j,...kj->...ik", v, w, v)


def simulate_ensemble(p: AffineParams, x0, T: float, n_steps: int, seed: int,
                      n_paths: int) -> Ensemble:
    """Ensemble of n_paths trajectories on the grid linspace(0, T, n_steps + 1).

    Deterministic in (params, x0, T, n_steps, seed); path i depends only on
    (seed, i) and the grid.  The sampler follows from the tuple (module
    docstring): the parabola preset's tuple (equal A, B, C and W tables) gets
    simulate_parabola_ensemble, any other parabola tuple raises SamplerError;
    a square-root diffusion with df >= 1 gets the exact CIR transition;
    every other tuple gets Euler-Maruyama.
    """
    if T <= 0 or n_steps < 1:
        raise ValueError("need T > 0 and n_steps >= 1")
    times = np.linspace(0.0, T, n_steps + 1)
    if isinstance(p.space, Parabola):
        ref = presets.parabola()
        if not all(np.array_equal(getattr(p, t), getattr(ref, t)) for t in "ABCW"):
            raise SamplerError("the parabola is a curve and cannot be simulated by Euler; only "
                               "the parabola preset's tuple, (w, w^2), has an exact sampler")
        return simulate_parabola_ensemble(x0, times, seed, n_paths)
    x0 = np.asarray(x0, dtype=float).reshape(p.dim)
    if not p.space.contains(x0):
        raise ValueError(f"x0={x0} is not in the state space")
    report = p.validate()
    if not report.valid:
        raise ValueError(f"parameters failed validation:\n{report}")

    square_root = _square_root_diffusion(p)
    if square_root is not None:
        return _cir_exact(x0, times, *square_root, seed, n_paths)
    return _euler(p, x0, times, seed, n_paths)


def _square_root_diffusion(p: AffineParams):
    """(kappa, sigma^2, df) of a tuple the exact CIR sampler draws, else None:
    dX = (b - kappa X)dt + sigma sqrt(X) dW on the half-line, with no jumps,
    no killing, a = 0, alpha = sigma^2 > 0 and df = 4b/sigma^2 >= 1."""
    if (not isinstance(p.space, CanonicalOrthantPlane) or p.space.m != 1 or p.dim != 1
            or p.has_jumps or p.has_killing or p.a[0, 0] != 0.0 or not p.alpha[0, 0, 0] > 0.0):
        return None
    sigma2 = float(p.alpha[0, 0, 0])
    df = 4.0 * float(p.b[0]) / sigma2
    return (-float(p.beta[0, 0]), sigma2, df) if df >= 1.0 else None


def _cir_exact(x0: np.ndarray, times: np.ndarray, kappa: float, sigma2: float, df: float,
               seed: int, n_paths: int) -> Ensemble:
    """Exact square-root transitions between consecutive times (module docstring)."""
    h = np.diff(times)
    decay = np.exp(-kappa * h)
    c = sigma2 * h / 4.0 if kappa == 0.0 else -sigma2 * np.expm1(-kappa * h) / (4.0 * kappa)
    n = len(h)
    # Z and 2G are drawn a whole block of paths at a time; 2G waits in states
    z = np.empty((n, n_paths))
    states = np.empty((n_paths, n + 1, 1))
    states[:, 0, 0] = x0[0]

    def run(blocks: range):
        """Draw a run of blocks, then step its paths through the times."""
        for k, rng in zip(blocks, _path_streams(seed, blocks, word=1)):
            rows = slice(k * _BLOCK, min(n_paths, (k + 1) * _BLOCK))
            width = rows.stop - rows.start
            z[:, rows] = rng.standard_normal((n, _BLOCK))[:, :width]
            np.multiply(rng.standard_gamma(0.5 * (df - 1.0), (_BLOCK, n))[:width], 2.0,
                        out=states[rows, 1:, 0])
        cols = slice(blocks.start * _BLOCK, min(n_paths, blocks.stop * _BLOCK))
        # row j of z, once read, is overwritten by X at times[j + 1]
        X = states[cols, 0, 0]
        for j in range(n):
            row = z[j, cols]
            row += np.sqrt(X * (decay[j] / c[j]))
            np.square(row, out=row)
            row += states[cols, j + 1, 0]
            row *= c[j]
            X = row
        states[cols, 1:, 0] = z[:, cols].T

    # one run of blocks per CPU; the draws and the array arithmetic release the GIL
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_runs = max(1, min(cpus or 1, n_blocks))
    runs = [range(w * n_blocks // n_runs, (w + 1) * n_blocks // n_runs) for w in range(n_runs)]
    with ThreadPoolExecutor(n_runs) as pool:
        list(pool.map(run, runs))
    return Ensemble(times=times, states=states,
                    alive_until=np.full(n_paths, n + 1, dtype=np.int64), sampler="cir_exact")


def _euler(p: AffineParams, x0: np.ndarray, times: np.ndarray, seed: int,
           n_paths: int) -> Ensemble:
    """Euler-Maruyama on the uniform grid `times` (module docstring)."""
    d = p.dim
    n_steps = len(times) - 1
    dt = times[-1] / n_steps
    has_jumps = p.has_jumps
    has_killing = p.has_killing

    # fixed per-path draw order: normals, then jump uniforms, then the clock
    normals = np.empty((n_paths, n_steps, d))
    if has_jumps:
        jump_u = np.empty((n_paths, n_steps, 1 + _JUMPS_PER_STEP_CAP))
    kill_clock = np.empty(n_paths) if has_killing else None
    for i, rng in enumerate(_path_streams(seed, range(n_paths))):
        rng.standard_normal(out=normals[i])
        if has_jumps:
            rng.random(out=jump_u[i])
        if has_killing:
            kill_clock[i] = rng.standard_exponential()

    # affine pieces, precomputed: B(x) = b + x @ beta etc.
    constant_diffusion = not p.alpha.any()
    if constant_diffusion:
        sqrt_a = _psd_sqrt(p.a)
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
    jump_overflows = clamps = 0
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

        clamps += int(np.count_nonzero((X_new[:, :m] < 0.0) & alive[:, None]))
        np.maximum(X_new[:, :m], 0.0, out=X_new[:, :m])
        if has_killing:
            X = np.where(alive[:, None], X_new, X)
            states[:, step + 1, :] = np.where(alive[:, None], X, np.nan)
        else:   # every path stays alive
            X = states[:, step + 1, :] = X_new

    return Ensemble(times=times, states=states, alive_until=alive_until,
                    jump_overflows=jump_overflows, clamps=clamps)


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
    for i, rng in enumerate(_path_streams(seed, range(n_paths))):
        rng.standard_normal(out=incr[i, 1:])
    incr[:, 1:] *= np.sqrt(np.diff(times))
    w = x0[0] + np.cumsum(incr, axis=1)
    states = np.stack([w, w * w], axis=2)
    return Ensemble(times=times, states=states,
                    alive_until=np.full(n_paths, len(times), dtype=np.int64),
                    sampler="parabola_exact")


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
    i = grid_index(ens.times, t)
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
    integrator at horizon delta, with char_fn's errors.  If the ensemble
    carries a stop radius r, each path is capped at its first delta-grid
    index with |X - X0| >= r (discrete optional stopping: the expectation is
    still exactly 1).  The grid must be uniform with delta on it.
    """
    u = np.asarray(u, dtype=complex).reshape(ens.dim)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return McEstimate(1.0 + 0.0j, 0.0, ens.n_paths)
    dts = np.diff(ens.times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError("martingale test requires a uniform time grid")
    stride = grid_index(ens.times, delta)
    if n * stride > len(ens.times) - 1:
        raise ValueError("n * delta exceeds the simulated horizon")

    r = _require_ok(evaluate(p, delta, u, tol=tol))
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
    """The ensemble, paths unchanged, with stop radius r for martingale_L_test,
    which stops on its own delta-grid: stopping between delta-grid points
    would move the mean of L away from 1.  r = inf stops no path."""
    if r < 0:
        raise ValueError("stop radius must be nonnegative")
    return replace(ens, stop_radius=r)


@dataclass(frozen=True)
class CharacteristicsReport:
    """Realized quadratic covariation and drift against their model integrals."""

    ensemble_rel_error: float   # error of the ensemble mean of QV against that of int A(X)ds
    max_drift_z: float          # largest |mean|/SE of X_T - X_0 - int B(X)ds across components


def characteristics_check(ens: Ensemble, p: AffineParams) -> CharacteristicsReport:
    """Compare the ensemble means of realized sum (dX)(dX)^T and of int A(X_s)ds,
    and test that X_T - X_0 - int B(X_s)ds is centred.

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
    qv_mean, ai_mean = qv.mean(axis=0), a_int.mean(axis=0)
    ens_err = float(np.linalg.norm(qv_mean - ai_mean)
                    / max(np.linalg.norm(ai_mean), 1e-300))

    b_int = T * p.b + int_x @ p.beta
    resid = ens.states[:, -1, :] - ens.states[:, 0, :] - b_int
    mean = resid.mean(axis=0)
    se = resid.std(axis=0, ddof=1) / math.sqrt(ens.n_paths)
    z = np.abs(mean) / np.maximum(se, 1e-300)
    return CharacteristicsReport(ensemble_rel_error=ens_err, max_drift_z=float(z.max()))
