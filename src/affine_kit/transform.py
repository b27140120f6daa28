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
complex arithmetic with combined absolute/relative error control; evaluate
and evaluate_grid share one sweep whose steps land on every requested time,
so no value is interpolated.  Blow-up is declared when the accepted step
collapses below t*1e-12 or |psi| exceeds an overflow guard; the blow-up time
reported is the last accepted time.
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
    "TransformError",
    "BlowUpError",
    "TransformDomainError",
    "evaluate",
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

# Dormand-Prince 5(4) tableau; the last row doubles as the 5th-order weights
# (FSAL: stage 7 is the derivative at the accepted point).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: local truncation error estimate
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])


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
    The rows of evaluate_grid come from one integration over the whole
    t-grid, so each row carries the steps and err_est of that whole sweep,
    not of its own row.
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


def _riccati_rhs(p: AffineParams):
    def f(y: np.ndarray) -> np.ndarray:
        psi = y[1:]
        out = np.empty_like(y)
        out[0] = p.F_eval(psi)
        out[1:] = p.R_eval(psi)
        return out
    return f


def _rms(z: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(z) ** 2)))


def _initial_step(f, y0, f0, t_end, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 * t_end if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    with np.errstate(all="ignore"):
        f1 = f(y0 + h0 * f0)
    if not np.all(np.isfinite(f1)):
        return max(h0 * 1e-3, t_end * 1e-12)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * t_end, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end)


def _integrate(f, y0: np.ndarray, t_stops, rtol: float, atol: float):
    """Adaptive DP54 sweep from 0 through the sorted times t_stops.

    A step that would pass the next stop is shortened to end on it, so
    steps land on every requested time and the state there is the
    integrator's own, not an interpolant.  Returns
    (t_reached, y, steps, err_est, states) where states[i] is the state at
    t_stops[i] for the stops reached and y the state at t_reached.  The sweep
    blew up exactly when states is shorter than t_stops; non-finite
    right-hand sides only ever reject steps, they never raise.
    """
    y = y0.astype(complex)
    t = 0.0
    steps = 0
    err_est = 0.0
    n_stops = len(t_stops)
    states: list = []
    while len(states) < n_stops and t_stops[len(states)] <= 0.0:
        states.append(y.copy())
    if len(states) == n_stops:
        return t, y, steps, err_est, states
    t_end = float(t_stops[-1])
    h_floor = max(t_end * 1e-12, 5e-324)

    with np.errstate(all="ignore"):
        k1 = f(y)
        if not np.all(np.isfinite(k1)):
            return t, y, steps, err_est, states
        h = _initial_step(f, y, k1, t_end, rtol, atol)
        k = np.empty((7, y.size), dtype=complex)

        while len(states) < n_stops:
            if steps >= MAX_STEPS or h < h_floor:
                return t, y, steps, err_est, states
            t_stop = float(t_stops[len(states)])
            # a step cut short to land on a stop keeps the proposal h, so
            # nearby stops do not drag the step size down to h_floor
            landing = h >= t_stop - t
            h_step = t_stop - t if landing else h
            k[0] = k1
            bad = False
            for i in range(1, 7):
                k[i] = f(y + h_step * (_DP_A[i] @ k[:i]))
                if not np.all(np.isfinite(k[i])):
                    bad = True
                    break
            if not bad:
                y_new = y + h_step * (_DP_B5 @ k)
                err_vec = h_step * (_DP_E @ k)
                sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
                err_norm = _rms(err_vec / sc)
                bad = not (math.isfinite(err_norm) and np.all(np.isfinite(y_new)))
            if bad or err_norm > 1.0:
                fac = 0.2 if bad else max(0.2, 0.9 * err_norm ** -0.2)
                h = h_step * fac
                continue
            # accepted
            steps += 1
            err_est += float(np.max(np.abs(err_vec)))
            if np.max(np.abs(y_new[1:])) > PSI_OVERFLOW_GUARD:
                # report the last state below the guard
                return t, y, steps, err_est, states
            # t + h_step can miss the stop by an ulp; land on it exactly
            y, t, k1 = y_new, (t_stop if landing else t + h_step), k[6].copy()
            while len(states) < n_stops and t_stops[len(states)] <= t:
                states.append(y.copy())
            fac = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            h = max(h, h_step * fac) if landing else h_step * fac

    return t, y, steps, err_est, states


def _domain_tol(tol: float, psi: np.ndarray) -> float:
    return max(1e-9, 100.0 * tol) * (1.0 + float(np.max(np.abs(psi), initial=0.0)))


def _sweep(p: AffineParams, u, t_sorted: np.ndarray, tol: float) -> list:
    """One Riccati sweep from psi(0) = u, phi(0) = 0: a row per sorted time.

    Rows past a blow-up carry the last accepted state with status
    'blow_up'; the others get the domain check of u and of their psi.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.all(t_sorted >= 0):
        raise ValueError("times must be nonnegative")
    u = np.asarray(u, dtype=complex).reshape(p.dim)
    u_in_U = p.space.in_domain(u, tol=_domain_tol(tol, u))
    y0 = np.concatenate([[0.0 + 0.0j], u])
    t_reached, y_last, steps, err_est, states = _integrate(
        _riccati_rhs(p), y0, t_sorted, rtol=tol, atol=tol)
    rows = []
    for ti, y in zip(t_sorted, states):
        psi = y[1:]
        st = STATUS_OK
        if not u_in_U or not p.space.in_domain(psi, tol=_domain_tol(tol, psi)):
            st = STATUS_DOMAIN_EXIT
        rows.append(TransformResult(float(ti), u, complex(y[0]), psi, st, steps, err_est))
    blown = TransformResult(t_reached, u, complex(y_last[0]), y_last[1:], STATUS_BLOW_UP,
                            steps, err_est, blow_up_time=t_reached)
    return rows + [blown] * (len(t_sorted) - len(rows))


def evaluate(p: AffineParams, t: float, u, tol: float = 1e-10) -> TransformResult:
    """Integrate the Riccati system to time t from psi(0) = u, phi(0) = 0.

    tol controls the local error (used as both absolute and relative
    tolerance).  The result status records blow-up (with the last accepted
    time) and exits from the transform domain U; out-of-domain inputs are
    integrated anyway -- the ODEs are entire in u for finite-activity jumps
    -- but can never come back with status 'ok'.
    """
    return _sweep(p, u, np.array([float(t)]), tol)[0]


def evaluate_grid(p: AffineParams, u, t_list, tol: float = 1e-10) -> list:
    """evaluate() at several times in one integrator sweep.

    The sweep's steps land on every requested time, so each row is a DP54
    state at its own t and the row for a single time equals evaluate().
    Times past a blow-up come back with status 'blow_up' carrying the
    estimate.
    """
    t_arr = np.asarray(t_list, dtype=float).reshape(-1)
    order = np.argsort(t_arr, kind="stable")
    out: list = [None] * len(t_arr)
    for pos, r in zip(order, _sweep(p, u, t_arr[order], tol)):
        out[pos] = r
    return out


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
    times raises the divergence flag.
    """
    t_arr = np.asarray(t_list, dtype=float)
    if np.any(t_arr <= 0) or np.any(np.diff(t_arr) >= 0):
        raise ValueError("t_list must be decreasing and positive")
    us = [np.asarray(u, dtype=complex).reshape(p.dim) for u in grid]
    for u in us:
        if p.space.support(u) == math.inf:
            raise ValueError(f"grid point {u} lies outside the transform domain U")
    sups = np.empty(len(t_arr))
    for j, t in enumerate(t_arr):
        best = 0.0
        for u in us:
            r = _require_ok(evaluate(p, float(t), u, tol))
            best = max(best, abs(r.phi) / t + float(np.linalg.norm(r.rho)) / t)
        sups[j] = best
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
