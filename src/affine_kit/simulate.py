"""Path simulation and Monte Carlo verifiers for affine processes.

simulate_ensemble is the one sampler interface: the first sampler of the
table _SAMPLERS that takes the tuple draws the paths, and Ensemble.sampler
names it.  In order:

  * "cir_exact": the square-root diffusion dX = (b - kappa X)dt + sigma
    sqrt(X) dW on the half-line (no jumps, no killing, a = 0, alpha = sigma^2
    > 0) whose dimension df = 4b/sigma^2 is >= 1.  Over a step of length h,
    with c = sigma^2 (1 - e^{-kappa h})/(4 kappa), the transition is exact
    (Glasserman 2003, section 3.4; Broadie & Kaya 2006):

        X' = c [(Z + sqrt(X e^{-kappa h}/c))^2 + 2G],
        Z ~ N(0, 1), G ~ Gamma((df - 1)/2);

  * "parabola_exact": the parabola preset's process (w, w^2), by
    simulate_parabola_ensemble.  The parabola is a curve with no tube around
    it, so any other parabola tuple raises SamplerError;
  * "euler": Euler-Maruyama for every other tuple on the orthant plane.

Layout: every sampler writes one C-contiguous time-major buffer
(n_times, d, n_paths), and Ensemble.states is its transpose(2, 0, 1) view,
(n_paths, n_times, d), so time k of every path is one contiguous row.
characteristics_check reads that buffer a chunk of time steps at a time;
the other readers index states.

The Euler scheme reads one coefficient table, built once per call: rows
(1, x_1..x_d) and columns, all times dt, for the net drift B - int h dnu,
the killing rate C, the jump weights W and the diffusion.  The step state
X and a chunk's normals are coordinate-major, (d, n) and (steps, d, n); step
k writes X into row k + 1 of the buffer and steps on from there.  A step
computes coef = T_0 + sum_i x_i T_i, (ncol, n), by elementwise products along
the paths over the nonzero rows; no BLAS call runs across paths, so a path's
bits depend neither on n_paths nor on the runs (below) that step it.

  * drift coef_B: uncompensated jumps combined with it reproduce the
    exponents' truncation convention;
  * diffusion: if exactly one row A_r of (a, alpha) is nonzero (a single
    factor; A_r is PSD and x_r >= 0 on D), R_r = root(A_r) is taken once and
    the noise is sqrt(max(x_r dt, 0)) R_r z, or sqrt(dt) R_0 z for r = 0.
    Otherwise coef_A = A(X) dt is rooted per step, in closed form for d <= 2
    (no LAPACK call) and by a batched eigh for d >= 3;
  * jumps from one uniform u per path-step, w = max(coef_W, 0), lam = sum w:
    N by sequential inverse CDF, uncapped (n rises while u > lo + p_n > lo,
    lo = P(N < n), p_n = P(N = n)); v = (u - lo)/p_N lam picks each jump's
    atom a by categorical inverse CDF, clipped into (0, lam], and is reused
    as its place in a's interval, (v - below_a)/w_a lam.  An outcome of
    probability P holds about P 2^53 of u's values (a one-jump step at
    lam = 1.7e-3 uses 9 bits, each pick log2(lam/w_a) more): a live path
    raises SamplerError below P = _OUTCOME_FLOOR = 2^-48;
  * killing by one Exp(1) clock per path against the running hazard
    sum max(coef_C, 0) (inverse CDF, exact given the path): a path is alive
    while hazard < clock.  Dead paths step on unfrozen; their cells from
    alive_until on are set to nan in one pass after the engine returns.

Orthant-constrained coordinates use full truncation: coefficients are
evaluated at the clamped state and the stored state is projected back onto
the constraint, so paths never leave the state space.  Ensemble.clamps
counts the coordinates so projected.

Grid: every sampler returns every time of linspace(0, T, n_steps + 1).
grid_index is the one rule for whether a time lies on a grid.

The estimators solve no Riccati equation: martingale_L_test takes, for
every u of a call, phi(delta, u) and psi(delta, u) from its caller.

Randomness, one rule for every sampler: block k of _BLOCK paths reads
Generator(SFC64(SeedSequence(seed, spawn_key=(k,)))) and the generator of
spawn_key=(k, 1), and always draws whole blocks, time-major with the path axis
last.  From (k,), in order: Euler's kill clocks (_BLOCK,), in the first chunk
only; then, chunk by chunk, the normals: Euler's (steps, d, _BLOCK), the
parabola sampler's (steps, _BLOCK) and the exact CIR sampler's Z
(steps, _BLOCK).  From (k, 1), chunk by chunk: Euler's jump uniforms
(steps, _BLOCK) and the exact CIR sampler's G (steps, _BLOCK).  Path i reads
column i % _BLOCK of block i // _BLOCK's draws, so it depends only on
(seed, i, grid).  The engine, _in_blocks, splits the blocks into one run per
CPU in the process's affinity; a run makes its generators once, then per chunk
of _STEPS steps draws its blocks and steps its own paths, so a sampler holds
one chunk's draws only.  Row chunks of a generator's draws are the bytes of
its whole draw, every running state (X, Euler's hazard, the parabola's w)
steps on from the last row of the chunk before, and a run returns its own
counts, so the bytes depend neither on the chunk length nor on the number of
runs.  Two or more runs go on threads that end before it returns.
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

_OUTCOME_FLOOR = 2.0 ** -48  # least probability of the jumps a live path-step draws
_BLOCK = 256             # paths per block substream, the unit every sampler draws
_STEPS = 32              # steps per chunk of every sampler's draws
_EYE2 = np.eye(2)        # _psd_sqrt's identity, built once rather than per Euler step
_QV_CELLS = 1 << 16      # cells of dX per characteristics_check chunk: 512 KB, not all of dX


class SamplerError(ValueError):
    """No sampler of this module draws paths with the law of the given tuple."""


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    value: complex
    std_error: float


@dataclass(frozen=True)
class Ensemble:
    """A set of paths on a common grid.  states is (n_paths, n_times, d), and
    path i starts at states[i, 0]; the samplers return it as the
    transpose(2, 0, 1) view of a C-contiguous (n_times, d, n_paths) buffer.

    alive_until is per path 1 plus the number of steps it lived (n_times if
    never killed); its cells from alive_until on are nan.  stop_radius is
    set by stopped_ensemble and consumed by the martingale test.  clamps
    counts the live (path, step, coordinate) cells that Euler's full
    truncation moved from below 0 back to 0; the exact samplers record 0.
    sampler names the sampler that drew the paths: "euler", "cir_exact" or
    "parabola_exact".
    """

    times: np.ndarray
    states: np.ndarray
    alive_until: np.ndarray
    stop_radius: float | None = None
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
    """Ensemble of n_paths trajectories on the grid linspace(0, T, n_steps + 1),
    drawn by the first sampler of _SAMPLERS that takes the tuple.

    By the one stream rule (module docstring) the ensemble is deterministic
    in (params, x0, T, n_steps, seed), path i depends only on (seed, i) and
    the grid, and the bytes depend neither on n_paths nor on the CPU count.
    """
    if T <= 0 or n_steps < 1:
        raise ValueError("need T > 0 and n_steps >= 1")
    x0 = np.asarray(x0, dtype=float).reshape(p.dim)
    if not p.space.contains(x0):
        raise ValueError(f"x0={x0} is not in the state space")
    report = p.validate()
    if not report.valid:
        raise ValueError(f"parameters failed validation:\n{report}")
    times = np.linspace(0.0, T, n_steps + 1)
    for match, sample in _SAMPLERS:
        args = match(p)
        if args is not None:
            return sample(x0, times, seed, n_paths, *args)


def _in_blocks(seed: int, n_paths: int, n_steps: int, draw, advance, keys=((),)) -> list:
    """The samplers' engine (module docstring).  A run makes block k's
    generators, of spawn_key (k, *key) for key in keys, once; then for each
    chunk `steps` of _STEPS of the n_steps steps, draw(block, steps,
    *generators) fills the chunk's columns `block` (cut at n_paths) for each
    of its blocks, and advance(paths, steps) steps its slice of paths over
    them.  Returns every chunk's advance result, run by run."""
    n_blocks = -(-n_paths // _BLOCK)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_runs = max(1, min(cpus or 1, n_blocks))
    chunks = [range(t, min(t + _STEPS, n_steps)) for t in range(0, n_steps, _STEPS)]

    def run(w: int) -> list:
        blocks = range(w * n_blocks // n_runs, (w + 1) * n_blocks // n_runs)
        paths = slice(blocks.start * _BLOCK, min(n_paths, blocks.stop * _BLOCK))
        gens = [[np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            seed, spawn_key=(k, *key)))) for key in keys] for k in blocks]
        results = []
        for steps in chunks:
            for k, rngs in zip(blocks, gens):
                draw(slice(k * _BLOCK, (k + 1) * _BLOCK), steps, *rngs)
            results.append(advance(paths, steps))
        return results

    if n_runs == 1:
        return run(0)
    # a run writes only its own paths; the draws and the array arithmetic release the GIL
    with ThreadPoolExecutor(n_runs) as pool:
        return [result for results in pool.map(run, range(n_runs)) for result in results]


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


def _cir_exact(x0: np.ndarray, times: np.ndarray, seed: int, n_paths: int, kappa: float,
               sigma2: float, df: float) -> Ensemble:
    """Exact square-root transitions between consecutive times, drawn _STEPS
    rows of Z and of G at a time (module docstring)."""
    h = np.diff(times)
    decay = np.exp(-kappa * h)
    c = sigma2 * h / 4.0 if kappa == 0.0 else -sigma2 * np.expm1(-kappa * h) / (4.0 * kappa)
    n = len(h)
    # time-major: row j + 1 of x holds Z of step j until X at times[j + 1] overwrites it
    # in place; row j - steps.start of g holds 2G of step j, a run's columns for its chunk
    x, g = np.empty((n + 1, n_paths)), np.empty((min(_STEPS, n), n_paths))
    x[0] = x0[0]

    def draw(block, steps, rng, rng_g):
        width, shape = x[0, block].size, (len(steps), _BLOCK)
        x[1 + steps.start:1 + steps.stop, block] = rng.standard_normal(shape)[:, :width]
        g[:len(steps), block] = 2.0 * rng_g.standard_gamma(0.5 * (df - 1.0), shape)[:, :width]

    def advance(paths, steps):
        for j in steps:
            row = x[j + 1, paths]
            row += np.sqrt(x[j, paths] * (decay[j] / c[j]))
            np.square(row, out=row)
            row += g[j - steps.start, paths]
            row *= c[j]

    _in_blocks(seed, n_paths, n, draw, advance, ((), (1,)))
    return Ensemble(times=times, states=x[:, None, :].transpose(2, 0, 1),
                    alive_until=np.full(n_paths, n + 1, dtype=np.int64), sampler="cir_exact")


def _euler(x0: np.ndarray, times: np.ndarray, seed: int, n_paths: int,
           p: AffineParams) -> Ensemble:
    """Euler-Maruyama on the uniform grid `times` (module docstring)."""
    d, m, k = p.dim, p.space.m, len(p.L)
    n_steps = len(times) - 1
    dt = times[-1] / n_steps
    has_jumps, has_killing = p.has_jumps, p.has_killing

    # the coefficient table times dt (module docstring); a single factor's normals become R_r z
    rows = [r for r in range(d + 1) if p.A[r].any()] or [0]
    if len(rows) == 1:
        r, root = rows[0], _psd_sqrt(p.A[rows[0]])
        diagonal = np.array_equal(root, np.diag(np.diagonal(root)))
        diffusion = np.eye(d + 1)[:, [r]]
    else:
        diffusion = p.A.reshape(d + 1, d * d)
    table = np.hstack([p.B - (p.W * p.small) @ p.L, p.C[:, None], p.W, diffusion]) * dt
    terms = [(i, row[:, None]) for i, row in enumerate(table[1:]) if row.any()]

    # one chunk's draws in the documented order, each run its own columns; per-path clocks
    normals = np.empty((min(_STEPS, n_steps), d, n_paths))
    jump_u = np.empty((len(normals), n_paths)) if has_jumps else None
    kill_clock, hazard = np.empty(n_paths), np.zeros(n_paths)
    states = np.empty((n_steps + 1, d, n_paths))     # time-major; step k + 1 writes row k + 1
    states[0] = x0[:, None]
    alive_until = np.full(n_paths, 1 if has_killing else n_steps + 1, dtype=np.int64)

    def draw(block, steps, rng, rng_u):
        z = normals[:len(steps), :, block]
        if has_killing and steps.start == 0:
            kill_clock[block] = rng.standard_exponential(_BLOCK)[:z.shape[-1]]
        z[...] = rng.standard_normal((len(steps), d, _BLOCK))[..., :z.shape[-1]]
        if has_jumps:
            jump_u[:len(steps), block] = rng_u.random((len(steps), _BLOCK))[:, :z.shape[-1]]

    def advance(paths, steps):
        n = paths.stop - paths.start
        z, lived, hz = normals[:len(steps), :, paths], alive_until[paths], hazard[paths]
        if len(rows) == 1:      # R_r z in place over the chunk's normals
            if diagonal:
                z *= np.diagonal(root)[:, None]
            else:
                z[...] = np.einsum("jk,ikp->ijp", root, z)
            if r == 0:
                z *= math.sqrt(dt)
        base = np.broadcast_to(table[0][:, None], (table.shape[1], n))
        X = states[steps.start, :, paths]   # the step state, coordinate-major (d, n)
        alive = np.ones(n, dtype=bool)
        clamps = 0

        for step in steps:
            coef = base
            for i, row in terms:
                coef = coef + X[i] * row
            if has_killing:
                hz += np.maximum(coef[d], 0.0)
                alive = hz < kill_clock[paths]
                lived += alive
            zs = z[step - steps.start]
            if len(rows) > 1:   # einsum's bits depend on strides: a C-contiguous (n, d) z
                A = coef[d + 1 + k:].T.reshape(n, d, d)
                noise = np.einsum("pjk,pk->pj", _psd_sqrt(A), np.ascontiguousarray(zs.T)).T
            elif r:
                noise = np.sqrt(np.maximum(coef[-1], 0.0)) * zs
            else:
                noise = zs
            X = np.add(X, coef[:d], out=states[step + 1, :, paths])
            X += noise

            if has_jumps:
                w = np.maximum(coef[d + 1:d + 1 + k], 0.0)
                lam = np.add.reduce(w, axis=0)     # w_1 + w_2 + ..., in atom order
                lo = np.exp(-lam)
                u = jump_u[step - steps.start, paths]
                ids = (u > lo).nonzero()[0]        # the paths with N >= 1
                if len(ids):
                    # N uncapped: past the tail lo + p_n rounds to lo, and N stops there
                    u, lam, w, lo = u[ids], lam[ids], w[:, ids], lo[ids]
                    count, pn = np.ones(len(ids), dtype=np.int64), lo * lam
                    while (more := (u > lo + pn) & (lo + pn > lo)).any():
                        count += more
                        lo, pn = np.where(more, lo + pn, lo), np.where(more, pn * lam / count, pn)
                    # a p_N below the floor fails a live path; on a dead one fmax keeps v finite
                    v, prob = (u - lo) / np.fmax(pn, _OUTCOME_FLOOR) * lam, pn
                    below = np.cumsum(np.vstack([np.zeros(len(ids)), w]), axis=0)
                    for j in range(count.max()):
                        run = (count > j).nonzero()[0]
                        x = np.fmin(np.fmax(v[run], 5e-324), lam[run])
                        a = (x <= below[1:, run]).argmax(axis=0)
                        X[:, ids[run]] += p.L[a].T
                        v[run] = (x - below[a, run]) / w[a, run] * lam[run]
                        prob[run] *= w[a, run] / lam[run]
                    if np.any(alive[ids] & (prob < _OUTCOME_FLOOR)):
                        raise SamplerError(f"Euler step {step + 1} of {n_steps} drew jumps "
                                           "of probability < 2^-48: refine mc.steps")

            clamps += int(np.count_nonzero((X[:m] < 0.0) & alive))
            np.maximum(X[:m], 0.0, out=X[:m])
        return clamps

    clamps = sum(_in_blocks(seed, n_paths, n_steps, draw, advance, ((), (1,))))
    for i in np.flatnonzero(alive_until <= n_steps):   # dead paths kept stepping
        states[alive_until[i]:, :, i] = np.nan
    return Ensemble(times=times, states=states.transpose(2, 0, 1), alive_until=alive_until,
                    clamps=clamps)


def simulate_parabola_ensemble(x0, times, seed: int, n_paths: int) -> Ensemble:
    """Exact sampler for the parabola-supported process: (w, w^2) on the grid.

    No discretization error: the Brownian increments over the grid intervals
    are a path's column of its block's normals (simulate_ensemble's stream rule),
    and the second coordinate is the exact square of the first.
    """
    x0 = np.asarray(x0, dtype=float).reshape(2)
    if not Parabola().contains(x0):
        raise ValueError(f"x0={x0} does not lie on the parabola")
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or (len(times) > 1 and np.any(np.diff(times) <= 0)):
        raise ValueError("times must be an increasing grid starting at 0")
    scale = np.sqrt(np.diff(times))[:, None]
    states = np.empty((len(times), 2, n_paths))      # time-major; w's increments wait in w
    states[0] = np.array([x0[0], x0[0] * x0[0]])[:, None]

    def draw(block, steps, rng):
        dw = states[1 + steps.start:1 + steps.stop, 0, block]
        dw[...] = rng.standard_normal((len(steps), _BLOCK))[:, :dw.shape[1]]

    def advance(paths, steps):
        # the running sum from w at steps.start: its bytes do not depend on the chunks
        w = states[steps.start:steps.stop + 1, 0, paths]
        w[1:] *= scale[steps.start:steps.stop]
        np.cumsum(w, axis=0, out=w)
        np.multiply(w[1:], w[1:], out=states[steps.start + 1:steps.stop + 1, 1, paths])

    _in_blocks(seed, n_paths, len(scale), draw, advance)
    return Ensemble(times=times, states=states.transpose(2, 0, 1),
                    alive_until=np.full(n_paths, len(times), dtype=np.int64),
                    sampler="parabola_exact")


def _parabola_preset(p: AffineParams):
    """() for the parabola preset's tuple, None off the parabola, else SamplerError."""
    if not isinstance(p.space, Parabola):
        return None
    ref = presets.parabola()
    if not all(np.array_equal(getattr(p, t), getattr(ref, t)) for t in "ABCW"):
        raise SamplerError("the parabola is a curve and cannot be simulated by Euler; only "
                           "the parabola preset's tuple, (w, w^2), has an exact sampler")
    return ()


# simulate_ensemble's samplers, in order: (match(p) -> the arguments after
# (x0, times, seed, n_paths), or None; sampler).  Euler, last, takes every tuple.
_SAMPLERS = (
    (_square_root_diffusion, _cir_exact),
    (_parabola_preset, simulate_parabola_ensemble),
    (lambda p: (p,), _euler),
)


def _complex_mean_se(vals: np.ndarray) -> McEstimate:
    n = len(vals)
    if n < 2:
        raise ValueError("need at least 2 paths for a standard error")
    mean = vals.mean()
    var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
    return McEstimate(complex(mean), float(np.sqrt(var / n)))


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


def martingale_L_test(ens: Ensemble, delta: float, n: int, U, phi, psi) -> list:
    """Sample means of the exponential compensated functional, one McEstimate
    per row u of U (k, d):

        L(n) = exp(<u, X_{n delta} - X_0>
                   - sum_{j<=n} (phi(delta,u) + <psi(delta,u) - u, X_{(j-1) delta}>)),

    whose expectation is exactly 1.  The caller supplies, for the ensemble's
    tuple, phi (k,) and psi (k, d) whose row j is phi(delta, u) and
    psi(delta, u) at u = U[j], e.g. the ok rows of evaluate_batch.  If the
    ensemble carries a stop radius r, each path is capped at its first
    delta-grid index with |X - X0| >= r (discrete optional stopping: the
    expectation is still exactly 1).  The grid must be uniform with delta on
    it.  The delta-grid, alive mask and stop index are formed once per call;
    each u has its own products.
    """
    U = np.asarray(U, dtype=complex).reshape(-1, ens.dim)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [McEstimate(1.0 + 0.0j, 0.0)] * len(U)
    dts = np.diff(ens.times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError("martingale test requires a uniform time grid")
    stride = grid_index(ens.times, delta)
    if n * stride > len(ens.times) - 1:
        raise ValueError("n * delta exceeds the simulated horizon")

    rhos = np.asarray(psi, dtype=complex).reshape(U.shape) - U

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

    rows = np.arange(ens.n_paths)
    ok_alive = alive_sub[rows, n_eff]
    ok_rows, ok_n = rows[ok_alive], n_eff[ok_alive]
    dx = sub[ok_rows, ok_n, :] - x0[ok_alive]
    out = []
    for u, rho, ph in zip(U, rhos, np.ravel(phi)):
        # compensator partial sums S_k = sum_{j<=k} (phi + <rho, X_{(j-1)delta}>)
        incr = ph + (sub[:, :-1, :] @ rho)                  # (paths, n)
        S = np.concatenate([np.zeros((ens.n_paths, 1), dtype=complex),
                            np.nancumsum(incr, axis=1)], axis=1)
        vals = np.zeros(ens.n_paths, dtype=complex)
        vals[ok_alive] = np.exp(dx @ u - S[ok_rows, ok_n])
        out.append(_complex_mean_se(vals))
    return out


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
    # the samplers' time-major buffer (n_times, d, paths), read _QV_CELLS cells of dX at a time
    S = ens.states.transpose(1, 2, 0)
    dts = np.diff(ens.times)
    qv_sum = np.zeros((ens.dim, ens.dim))
    step = max(1, _QV_CELLS // S[0].size)
    for a in range(0, len(dts), step):
        dX = np.diff(S[a:a + step + 1], axis=0)
        qv_sum += np.einsum("tjp,tkp->jk", dX, dX)
    # int of the affine map s -> A(X_s) reduces to the time-integral of X
    int_x = np.einsum("t,tip->ip", dts, S[:-1])             # (d, paths)
    T = ens.times[-1] - ens.times[0]
    qv_mean = qv_sum / ens.n_paths
    ai_mean = T * p.a + np.einsum("i,ijk->jk", int_x.mean(axis=1), p.alpha)
    ens_err = float(np.linalg.norm(qv_mean - ai_mean)
                    / max(np.linalg.norm(ai_mean), 1e-300))

    resid = S[-1] - S[0] - (T * p.b[:, None] + p.beta.T @ int_x)
    mean = resid.mean(axis=1)
    se = resid.std(axis=1, ddof=1) / math.sqrt(ens.n_paths)
    z = np.abs(mean) / np.maximum(se, 1e-300)
    return CharacteristicsReport(ensemble_rel_error=ens_err, max_drift_z=float(z.max()))
