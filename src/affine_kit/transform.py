"""Transform evaluation via generalized Riccati equations, plus analytic probes.

For an affine process with exponents F and R the Fourier-Laplace transform
factors as exp(phi(t,u) + <x, psi(t,u)>) where

    d/dt phi(t,u) = F(psi(t,u)),   phi(0,u) = 0
    d/dt psi(t,u) = R(psi(t,u)),   psi(0,u) = u.

phi is integrated as an extra ODE component (quadrature of F along psi)
rather than recovered as a logarithm of the transform factor: continuing the
ODE from t = 0 picks the continuous logarithm branch automatically and
avoids phase unwrapping near the blow-up time.

The integrator is an adaptive embedded Dormand-Prince 5(4) pair running in
complex arithmetic with combined absolute/relative error control, one lane
per transform variable u: evaluate_batch sweeps N lanes as one (N, d+1)
array, and evaluate and evaluate_grid are one-lane batches.  Steps land on
every requested time, so no value is interpolated.  Blow-up is declared when
a lane's accepted step collapses below t*1e-12 or |psi| exceeds an overflow
guard; the blow-up time reported is the lane's last accepted time.
This deliberately conflates a vanishing transform factor with integrator
failure, which is flagged in the result status rather than resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import AffineParams
from .state_space import StateSpace

__all__ = [
    "TransformResult",
    "TransformBatch",
    "TransformError",
    "BlowUpError",
    "TransformDomainError",
    "evaluate",
    "evaluate_batch",
    "evaluate_grid",
    "char_fn",
    "closed_form_parabola",
    "parabola_FR",
    "semiflow_residual",
    "fd_regularity",
    "RegularityProbe",
    "boundedness_probe",
    "BoundednessTable",
    "cp_limit_check",
    "CpLimitTable",
]

STATUS_OK = "ok"
STATUS_BLOW_UP = "blow_up"
STATUS_DOMAIN_EXIT = "domain_exit"

PSI_OVERFLOW_GUARD = 1e8
MAX_STEPS = 10 ** 6

# Dormand-Prince 5(4) tableau, complex like the stages (no nodes: the system is
# autonomous); the last row of _DP_A is the 5th-order weights (FSAL: k7 = f(y_new)).
_DP_A = [np.array(row, dtype=complex) for row in (
    [], [1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])]
# row 0: the 5th-order weights b5; row 1: b5 - b4, the local error estimate
_DP_BE = np.array([[35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
                   [71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                    -17253 / 339200, 22 / 525, -1 / 40]], dtype=complex)


class TransformError(RuntimeError):
    """Base class for transform evaluation failures."""


class BlowUpError(TransformError):
    def __init__(self, t_estimate: float, message: str | None = None):
        super().__init__(message or f"transform blow-up near t = {t_estimate:.6g}")
        self.t_estimate = t_estimate


class TransformDomainError(TransformError):
    """psi left the transform domain U (or u was outside it to begin with)."""


@dataclass(frozen=True)
class TransformResult:
    """Value of (phi, psi) at (t, u) with integrator diagnostics.

    For status 'blow_up', t and the values refer to the last accepted time
    (also exposed as blow_up_time).  status 'ok' guarantees the pair (t, u)
    is inside the maximal domain: integration succeeded and psi stayed in U.
    steps and err_est are those of the row's lane: every row of evaluate_grid
    carries the accepted steps and summed error estimate of its one lane.
    """

    t: float
    u: np.ndarray
    phi: complex
    psi: np.ndarray
    status: str
    steps: int
    err_est: float
    blow_up_time: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def rho(self) -> np.ndarray:
        """psi(t,u) - u, the state-coefficient increment."""
        return self.psi - self.u


@dataclass(frozen=True)
class TransformBatch:
    """evaluate() for N transform variables at n_t times, from one sweep.

    Row (i, j) is lane i (u[i]) at the j-th time; on a 'blow_up' row t[i, j] is the
    lane's blow-up time, as in TransformResult.  steps, err_est and blow_up_time
    (nan if none) are per lane, shared by the lane's rows.
    """

    t: np.ndarray               # (N, n_t)
    u: np.ndarray               # (N, d)
    phi: np.ndarray             # (N, n_t) complex
    psi: np.ndarray             # (N, n_t, d) complex
    status: np.ndarray          # (N, n_t) str
    steps: np.ndarray           # (N,) accepted steps
    err_est: np.ndarray         # (N,) sum of the accepted steps' max |error estimate|
    blow_up_time: np.ndarray    # (N,)

    def lane(self, i: int) -> list:
        """Lane i as one TransformResult per requested time."""
        steps, err, bt = int(self.steps[i]), float(self.err_est[i]), float(self.blow_up_time[i])
        return [TransformResult(t, self.u[i], phi, psi, st, steps, err,
                                bt if st == STATUS_BLOW_UP else None)
                for t, phi, psi, st in zip(self.t[i].tolist(), self.phi[i].tolist(),
                                           self.psi[i], self.status[i].tolist())]


def _rhs(p: AffineParams, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Riccati right-hand side (F(psi), R(psi)) of lanes y = (phi, psi), shape (n, d+1)."""
    psi = y[:, 1:]
    out[:, 0] = p.F_eval(psi)
    out[:, 1:] = p.R_eval(psi)
    return out


def _rms(z: np.ndarray) -> np.ndarray:
    return np.sqrt((np.abs(z) ** 2).sum(axis=-1) / z.shape[-1])


def _initial_step(p, y0, f0, t_end, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.where(np.minimum(d0, d1) < 1e-5, 1e-6 * t_end, np.minimum(0.01 * d0 / d1, t_end))
    f1 = _rhs(p, y0 + h0[:, None] * f0, np.empty_like(y0))
    d12 = np.maximum(d1, _rms((f1 - f0) / scale) / h0)
    h1 = np.where(d12 <= 1e-15, np.maximum(1e-6 * t_end, h0 * 1e-3), (0.01 / d12) ** 0.2)
    return np.where(np.isfinite(f1).all(axis=1), np.minimum(np.minimum(100 * h0, h1), t_end),
                    np.maximum(h0 * 1e-3, t_end * 1e-12))


def _integrate(p: AffineParams, y0: np.ndarray, t_stops, rtol: float, atol: float):
    """Adaptive DP54 sweep of the lanes y0 (n, d+1) from 0 through the sorted t_stops.

    Each lane has its own t, step h, next stop, counters and outcome, and
    only t_stops is shared: a step runs on the live lanes as one array and
    masks accept or reject it per lane.  Steps are shortened to land on
    every stop, so no state is interpolated.  Returns (states, t, steps,
    err_est, reached), the last four per lane: states[i, j] is lane i at
    t_stops[j] for j < reached[i], else its last accepted state, at t[i].  Lane i blew
    up iff reached[i] < len(t_stops): a non-finite derivative at t = 0, a
    step below the floor, MAX_STEPS steps or |psi| past the overflow guard.
    """
    (n, m), n_stops = y0.shape, len(t_stops)
    states = np.empty((n, n_stops, m), dtype=complex)
    n_zero = int(np.searchsorted(t_stops, 0.0, side="right"))
    states[:, :n_zero] = y0[:, None]
    # per-lane results (t, steps, err_est, reached), filled as lanes retire
    out = [np.zeros(n), np.zeros(n, dtype=int), np.zeros(n), np.full(n, n_zero)]
    if n == 0 or n_zero == n_stops:
        return (states, *out)
    t_end = float(t_stops[-1])
    h_floor = max(t_end * 1e-12, 5e-324)
    fac_scale = 0.9 * m ** 0.1      # 0.9 * rms**-0.2 = fac_scale * err_sum**-0.1
    ids, y, t_next = np.arange(n), y0.copy(), t_stops[out[3]]
    t, steps, err_est, ptr = (a.copy() for a in out)
    with np.errstate(all="ignore"):
        # the stages, lane by lane (a sum over stages then never depends on
        # the other lanes); k[:, 0] is the derivative at y (FSAL)
        k = np.empty((n, 7, m), dtype=complex)
        _rhs(p, y, k[:, 0])
        h = _initial_step(p, y, k[:, 0], t_end, rtol, atol)
        done = ~(np.isfinite(k[:, 0]).all(axis=1) & (h >= h_floor))
        while True:
            if done.any():
                # retire: rows past a blow-up get the last accepted state
                for i in np.flatnonzero(done):
                    states[ids[i], ptr[i]:] = y[i]
                gone, keep = ids[done], ~done
                for full, live in zip(out, (t, steps, err_est, ptr)):
                    full[gone] = live[done]
                if not keep.any():
                    return (states, *out)
                ids, t, y, h, ptr, t_next, steps, err_est, k = (
                    a[keep] for a in (ids, t, y, h, ptr, t_next, steps, err_est, k))
            gap = t_next - t
            # a step cut short to land on a stop keeps the proposal h, so
            # nearby stops do not drag the step size down to h_floor
            landing = h >= gap
            h_step = np.where(landing, gap, h)
            hs = h_step[:, None]
            for i in range(1, 7):
                _rhs(p, y + hs * (_DP_A[i] @ k[:, :i]), k[:, i])
            inc = hs[:, None] * (_DP_BE @ k)
            y_new = y + inc[:, 0]
            abs_new = np.abs(y_new)
            # + 0 * |y_new|: NaN where y_new is not finite, so the step is rejected
            err = np.abs(inc[:, 1]) + 0.0 * abs_new
            err_sum = ((err / (atol + rtol * np.maximum(np.abs(y), abs_new))) ** 2).sum(axis=1)
            acc = err_sum <= m
            # fmax: a NaN error (non-finite step) shrinks h by 0.2
            h_new = h_step * np.minimum(5.0, np.fmax(0.2, fac_scale * err_sum ** -0.1))
            h = np.where(acc & landing, np.maximum(h, h_new), h_new)
            steps += acc
            err_est += np.where(acc, err.max(axis=1), 0.0)
            # past the guard, a lane stops at its last state below it
            done = acc & (abs_new[:, 1:].max(axis=1) > PSI_OVERFLOW_GUARD)
            move = acc & ~done
            # t + h_step can miss the stop by an ulp; land on it exactly
            t = np.where(move, np.where(landing, t_next, t + h_step), t)
            np.copyto(y, y_new, where=move[:, None])
            np.copyto(k[:, 0], k[:, 6], where=move[:, None])
            done |= ~(h >= h_floor) | (steps >= MAX_STEPS)
            for i in np.flatnonzero(t >= t_next):
                j = t_stops.searchsorted(t[i], side="right")
                states[ids[i], ptr[i]:j] = y[i]
                ptr[i], done[i] = j, done[i] or j == n_stops
                t_next[i] = t_stops[min(j, n_stops - 1)]


def _domain_tol(tol: float, psi: np.ndarray) -> np.ndarray:
    return max(1e-9, 100.0 * tol) * (1.0 + np.abs(psi).max(axis=-1, initial=0.0))


# evaluate_batch's body: evaluate and evaluate_grid call it directly, so traced calls never nest
def _batch(p: AffineParams, t_grid, U, tol: float) -> TransformBatch:
    if not tol > 0:
        raise ValueError("tol must be positive")
    t_arr = np.asarray(t_grid, dtype=float).reshape(-1)
    if not ((t_arr >= 0) & (t_arr < math.inf)).all():
        raise ValueError("times must be finite and nonnegative")
    U = np.asarray(U, dtype=complex).reshape(-1, p.dim)
    y0 = np.hstack([np.zeros((len(U), 1)), U])
    order = t_arr.argsort(kind="stable")
    states, t_last, steps, err_est, reached = _integrate(p, y0, t_arr[order], tol, tol)
    rank = order.argsort()      # back to the caller's order
    y, blown = states[:, rank], rank >= reached[:, None]
    psi = y[..., 1:]
    ok = (p.space.in_domain(U, tol=_domain_tol(tol, U))[:, None]
          & p.space.in_domain(psi, tol=_domain_tol(tol, psi)))
    status = np.where(blown, STATUS_BLOW_UP,
                      np.where(ok, STATUS_OK, STATUS_DOMAIN_EXIT)).astype(object)
    return TransformBatch(np.where(blown, t_last[:, None], t_arr), U, y[..., 0], psi,
                          status, steps, err_est,
                          np.where(reached < len(t_arr), t_last, math.nan))


def evaluate_batch(p: AffineParams, t_grid, U, tol: float = 1e-10) -> TransformBatch:
    """evaluate() at every time of t_grid (unsorted, repeats allowed) for every row u of U.

    One DP54 loop runs a lane per u; a lane keeps its own steps, counters
    and status, so it takes the same steps as a batch of its u alone.
    """
    return _batch(p, t_grid, U, tol)


def evaluate(p: AffineParams, t: float, u, tol: float = 1e-10) -> TransformResult:
    """Integrate the Riccati system to time t from psi(0) = u, phi(0) = 0.

    tol controls the local error (used as both absolute and relative
    tolerance).  The result status records blow-up (with the last accepted
    time) and exits from the transform domain U; out-of-domain inputs are
    integrated anyway -- the ODEs are entire in u for finite-activity jumps
    -- but can never come back with status 'ok'.  Lane 0 of a batch over [t].
    """
    return _batch(p, [float(t)], [u], tol).lane(0)[0]


def evaluate_grid(p: AffineParams, u, t_list, tol: float = 1e-10) -> list:
    """evaluate() at several times in one integrator sweep: lane 0 of a batch.

    The sweep's steps land on every requested time, so each row is a DP54
    state at its own t and the row for a single time equals evaluate().
    Times past a blow-up come back with status 'blow_up' carrying the estimate.
    """
    return _batch(p, t_list, [u], tol).lane(0)


def _require_ok(r: TransformResult) -> TransformResult:
    if r.status == STATUS_BLOW_UP:
        raise BlowUpError(r.blow_up_time)
    if r.status == STATUS_DOMAIN_EXIT:
        raise TransformDomainError("transform variable left the domain U")
    return r


def char_fn(p: AffineParams, x, t: float, u, tol: float = 1e-10) -> complex:
    """Fourier-Laplace transform value exp(phi(t,u) + <x, psi(t,u)>).

    Requires x in D and a clean transform evaluation; blow-up raises
    BlowUpError carrying the time estimate.
    """
    x = np.asarray(x, dtype=float).reshape(p.dim)
    if not p.space.contains(x):
        raise ValueError(f"initial state {x} is not in the state space")
    r = _require_ok(evaluate(p, t, u, tol=tol))
    return complex(np.exp(r.phi + x @ r.psi))


# -- closed forms for the parabola-supported process -----------------------


def _continued_log(t: float, u2: complex, n_sub: int = 64) -> complex:
    """log(1 - 2 t u2) with the branch continued from t = 0.

    1 - 2 s u2 traces a straight segment from 1 as s grows, so its argument
    moves by less than pi/2 per sub-step once the segment is cut finely
    enough; the winding is accumulated incrementally.
    """
    w_prev = 1.0 + 0.0j
    angle = 0.0
    for k in range(1, n_sub + 1):
        w = 1.0 - 2.0 * (t * k / n_sub) * u2
        if abs(w) < 1e-300:
            raise ValueError("closed form evaluated at its pole 1 - 2 t u2 = 0")
        step = np.angle(w / w_prev)
        if abs(step) >= 0.5 * math.pi:
            return _continued_log(t, u2, n_sub * 4)
        angle += step
        w_prev = w
    return math.log(abs(w_prev)) + 1j * angle


def closed_form_parabola(t: float, u):
    """Exact (phi, psi) for the process (w, w^2) driven by a Brownian w.

    phi(t,u) = -log(1 - 2 t u2)/2 + u1^2 t / (2 (1 - 2 t u2)), with the
    logarithm branch continued from t = 0, and psi(t,u) = u / (1 - 2 t u2).
    Raises at the pole 1 - 2 t u2 = 0.
    """
    u = np.asarray(u, dtype=complex).reshape(2)
    w = 1.0 - 2.0 * t * u[1]
    if abs(w) < 1e-14:
        raise ValueError("closed form evaluated at its pole 1 - 2 t u2 = 0")
    phi = -0.5 * _continued_log(float(t), complex(u[1])) + u[0] ** 2 * t / (2.0 * w)
    return complex(phi), u / w


def parabola_FR(u):
    """Time-zero derivatives of the parabola closed form: F and R at u."""
    u = np.asarray(u, dtype=complex).reshape(2)
    F = u[1] + 0.5 * u[0] ** 2
    R = np.array([2.0 * u[0] * u[1], 2.0 * u[1] ** 2], dtype=complex)
    return complex(F), R


# -- analytic verification probes -------------------------------------------


def semiflow_residual(p: AffineParams, t: float, s: float, u, tol: float = 1e-10) -> float:
    """Residual of the composition law

        phi(t+s,u) = phi(t,u) + phi(s, psi(t,u)),  psi(t+s,u) = psi(s, psi(t,u)),

    as max of the phi defect and the psi defect norm.  Zero for t = 0 or
    s = 0 by construction; bounded by a small multiple of tol otherwise.
    """
    r_ts = _require_ok(evaluate(p, t + s, u, tol))
    r_t = _require_ok(evaluate(p, t, u, tol))
    r_s = _require_ok(evaluate(p, s, r_t.psi, tol))
    d_phi = abs(r_ts.phi - r_t.phi - r_s.phi)
    d_psi = float(np.linalg.norm(r_ts.psi - r_s.psi))
    return max(d_phi, d_psi)


@dataclass(frozen=True)
class RegularityProbe:
    """Forward-difference recovery of F and R from small-time transforms."""

    h: np.ndarray               # probe step sizes, decreasing
    F_quotients: np.ndarray     # phi(h,u)/h per h
    R_quotients: np.ndarray     # (psi(h,u)-u)/h per h, shape (len(h), d)
    F_est: complex              # Richardson extrapolation from the two smallest h
    R_est: np.ndarray
    observed_order: float       # log-log slope of the error vs h (inf if at noise floor)
    F_ref: complex
    R_ref: np.ndarray

    @property
    def errors(self) -> np.ndarray:
        return (np.abs(self.F_quotients - self.F_ref)
                + np.linalg.norm(self.R_quotients - self.R_ref, axis=1))

    @property
    def rel_error_est(self) -> float:
        scale = max(1.0, abs(self.F_ref) + float(np.linalg.norm(self.R_ref)))
        return (abs(self.F_est - self.F_ref)
                + float(np.linalg.norm(self.R_est - self.R_ref))) / scale


def fd_regularity(p: AffineParams, u, h_list, tol: float = 1e-10) -> RegularityProbe:
    """Probe differentiability of t -> (phi, psi) at t = 0+.

    Computes phi(h,u)/h and (psi(h,u)-u)/h on the given decreasing steps,
    Richardson-extrapolates assuming first-order truncation error, and fits
    the empirical convergence order against the direct evaluators F and R.
    An observed order of inf means the quotients already sit at the
    integrator noise floor (e.g. when R = 0 makes phi exactly linear).
    """
    h = np.asarray(h_list, dtype=float)
    if len(h) < 3 or np.any(np.diff(h) >= 0) or np.any(h <= 0):
        raise ValueError("h_list must contain >= 3 decreasing positive steps")
    u = np.asarray(u, dtype=complex).reshape(p.dim)
    Fq = np.empty(len(h), dtype=complex)
    Rq = np.empty((len(h), p.dim), dtype=complex)
    for i, hi in enumerate(h):
        r = _require_ok(evaluate(p, float(hi), u, tol))
        Fq[i] = r.phi / hi
        Rq[i] = r.rho / hi
    h1, h2 = h[-2], h[-1]
    F_est = (h1 * Fq[-1] - h2 * Fq[-2]) / (h1 - h2)
    R_est = (h1 * Rq[-1] - h2 * Rq[-2]) / (h1 - h2)
    F_ref, R_ref = p.F_eval(u), p.R_eval(u)

    err = np.abs(Fq - F_ref) + np.linalg.norm(Rq - R_ref, axis=1)
    floor = 1e3 * tol * (1.0 + abs(F_ref) + float(np.linalg.norm(R_ref)))
    live = err > floor
    if live.sum() < 2:
        order = math.inf
    else:
        order = float(np.polyfit(np.log(h[live]), np.log(err[live]), 1)[0])
    return RegularityProbe(h, Fq, Rq, complex(F_est), R_est, order, complex(F_ref), R_ref)


@dataclass(frozen=True)
class BoundednessTable:
    """Small-time suprema of |phi|/t + |psi - u|/t over a u-grid."""

    t: np.ndarray
    sup: np.ndarray
    divergence_suspected: bool


def boundedness_probe(p: AffineParams, grid, t_list, tol: float = 1e-10) -> BoundednessTable:
    """sup over the u-grid of |phi(t,u)|/t + ||psi(t,u) - u||/t per time.

    The suprema must stay bounded as t decreases (they converge to
    sup |F| + ||R|| over the grid); a >2x increase across the last three
    times raises the divergence flag.  Each time is one evaluate_batch
    over the grid, so each u is a single-stop sweep to that time.
    """
    t_arr = np.asarray(t_list, dtype=float)
    if np.any(t_arr <= 0) or np.any(np.diff(t_arr) >= 0):
        raise ValueError("t_list must be decreasing and positive")
    U = np.array([np.asarray(u, dtype=complex).reshape(p.dim) for u in grid]).reshape(-1, p.dim)
    outside = p.space.support(U) == math.inf
    if outside.any():
        raise ValueError(f"grid point {U[outside.argmax()]} lies outside the transform domain U")
    sups = np.empty(len(t_arr))
    for j, t in enumerate(t_arr):
        b = evaluate_batch(p, [t], U, tol)
        for i in range(len(U)):
            _require_ok(b.lane(i)[0])
        sups[j] = np.max(np.abs(b.phi[:, 0]) / t + np.linalg.norm(b.psi[:, 0] - U, axis=1) / t,
                         initial=0.0)
    diverging = len(sups) >= 3 and sups[-1] > 2.0 * sups[-3]
    return BoundednessTable(t_arr, sups, bool(diverging))


@dataclass(frozen=True)
class CpLimitTable:
    """Small-time difference quotients of the centered transform.

    D(t) = (exp(-<x,u>) * transform(x,t,u) - transform(x,t,0)) / t converges
    to target = (F(u) + c) + <x, R(u) + gamma> as t decreases, with error
    decaying linearly in t.
    """

    t: np.ndarray
    values: np.ndarray          # complex D(t)
    target: complex
    errors: np.ndarray          # |D(t) - target|


def cp_limit_check(p: AffineParams, x, u, t_list, tol: float = 1e-10) -> CpLimitTable:
    x = np.asarray(x, dtype=float).reshape(p.dim)
    u = np.asarray(u, dtype=complex).reshape(p.dim)
    t_arr = np.asarray(t_list, dtype=float)
    if np.any(t_arr <= 0) or np.any(np.diff(t_arr) >= 0):
        raise ValueError("t_list must be decreasing and positive")
    target = (p.F_eval(u) + p.c) + x @ (p.R_eval(u) + p.gamma)
    vals = np.empty(len(t_arr), dtype=complex)
    for j, t in enumerate(t_arr):
        ft_u = char_fn(p, x, float(t), u, tol)
        ft_0 = char_fn(p, x, float(t), np.zeros(p.dim), tol)
        vals[j] = (np.exp(-(x @ u)) * ft_u - ft_0) / t
    return CpLimitTable(t_arr, vals, complex(target), np.abs(vals - target))
