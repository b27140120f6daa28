"""Transform evaluation via generalized Riccati equations, plus analytic probes.

For an affine process with exponents F and R the Fourier-Laplace transform
factors as exp(phi(t,u) + <x, psi(t,u)>) where

    d/dt phi(t,u) = F(psi(t,u)),   phi(0,u) = 0
    d/dt psi(t,u) = R(psi(t,u)),   psi(0,u) = u.

phi is integrated as an extra ODE component (quadrature of F along psi)
rather than recovered as a logarithm of the transform factor: continuing the
ODE from t = 0 picks the continuous logarithm branch automatically and
avoids phase unwrapping near the blow-up time.

The integrator is Hairer's adaptive Dormand-Prince 8(5,3) pair (DOP853)
running in complex arithmetic, one lane per transform variable u.  A step
makes 12 RHS calls (11 stages and f(y_new), reused as the next step's first
stage), and its error is Hairer's norm: the 5th-order estimate, corrected by
the 3rd-order one and scaled by tol*(1 + |y|) per component.
evaluate_batch sweeps N lanes as one (N, d+1) array, each lane on the shared
times or on a stop row of its own, and evaluate and evaluate_grid are
one-lane batches.  fd_regularity, boundedness_probe and cp_limit_check fold
their independent integrations into one batch.  semiflow_residual runs the
first legs of all its triples as one batch and each second leg, which starts
from a first leg's psi, as one evaluate per triple; its errors come back in
triple order.  Steps land on every requested time, so no value is
interpolated, and a proposal within a margin of 1.1 of the next time lands
on it at once instead of leaving a sliver step; the margin stays below
1/0.9, so a retry after a rejected step is never stretched back to the step
that failed.  Blow-up is declared when a lane's step collapses below
t*1e-12, it makes MAX_STEPS attempts or |psi| exceeds an overflow guard;
past the guard the blow-up time reported is T* = t + |psi_j| / |R_j(psi)| at
the last accepted state (j its largest |psi| component, where psi_j grows
like 1 / (c (T* - t))), otherwise the lane's last accepted time.  This
deliberately conflates a vanishing transform factor with integrator
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
_STATUSES = np.array([STATUS_OK, STATUS_DOMAIN_EXIT, STATUS_BLOW_UP], dtype=object)

PSI_OVERFLOW_GUARD = 1e8
MAX_STEPS = 10 ** 6
# a proposal h with _LANDING_MARGIN * h >= gap steps onto the next stop; kept
# below 1/0.9 (see _integrate)
_LANDING_MARGIN = 1.1

# Dormand-Prince 8(5,3) tableau (Hairer's DOP853), complex like the stages; no
# nodes, since the system is autonomous.  _A[i] is stage i's row over stages
# 0..i-1, _B the 8th-order weights over stages 0..11, and _E5 and _E3 the 5th-
# and 3rd-order error rows over those stages and the FSAL stage 12, f(y_new).
_A = [np.array(row, dtype=complex) for row in (
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636])]
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, 0.3111643669578199,
               -0.1521609496625161, 0.20136540080403034, 0.04471061572777259], dtype=complex)
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0],
               dtype=complex)
_E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0],
               dtype=complex)


class TransformError(RuntimeError):
    """Base class for transform evaluation failures."""


class BlowUpError(TransformError):
    def __init__(self, t_estimate: float):
        super().__init__(f"transform blow-up near t = {t_estimate:.6g}")
        self.t_estimate = t_estimate


class TransformDomainError(TransformError):
    """psi left the transform domain U (or u was outside it to begin with)."""


@dataclass(frozen=True)
class TransformResult:
    """Value of (phi, psi) at (t, u) with integrator diagnostics.

    For status 'blow_up', t is the blow-up time (also exposed as
    blow_up_time) and the values are the lane's last accepted state before
    it.  status 'ok' guarantees the pair (t, u) is inside the maximal
    domain: integration succeeded and psi stayed in U.
    steps is the accepted steps of the row's lane, shared by every row of
    evaluate_grid.
    """

    t: float
    u: np.ndarray
    phi: complex
    psi: np.ndarray
    status: str
    steps: int
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
    """evaluate() for N transform variables at n_t times each, from one sweep.

    Row (i, j) is lane i (u[i]) at its j-th time; on a 'blow_up' row t[i, j] is the
    lane's blow-up time, as in TransformResult.  steps, rejected and blow_up_time
    (nan if none) are per lane, shared by the lane's rows.
    """

    t: np.ndarray               # (N, n_t)
    u: np.ndarray               # (N, d)
    phi: np.ndarray             # (N, n_t) complex
    psi: np.ndarray             # (N, n_t, d) complex
    status: np.ndarray          # (N, n_t) str
    steps: np.ndarray           # (N,) accepted steps
    rejected: np.ndarray        # (N,) rejected steps
    blow_up_time: np.ndarray    # (N,)

    def lane(self, i: int) -> list:
        """Lane i as one TransformResult per requested time."""
        steps, bt = int(self.steps[i]), float(self.blow_up_time[i])
        return [TransformResult(t, self.u[i], phi, psi, st, steps,
                                bt if st == STATUS_BLOW_UP else None)
                for t, phi, psi, st in zip(self.t[i].tolist(), self.phi[i].tolist(),
                                           self.psi[i], self.status[i].tolist())]


def _rhs(p: AffineParams, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Riccati right-hand side (F(psi), R(psi)) of lanes y = (phi, psi), shape (n, d+1),
    written into out (which must not overlap y) by one exponent pass per call."""
    out[:, 0] = p.F_eval(y[:, 1:], R_out=out[:, 1:])
    return out


def _rms(z: np.ndarray) -> np.ndarray:
    return np.sqrt((np.abs(z) ** 2).sum(axis=-1) / z.shape[-1])


def _initial_step(p, y0, f0, t_end, tol):
    scale = tol + tol * np.abs(y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.where(np.minimum(d0, d1) < 1e-5, 1e-6 * t_end, np.minimum(0.01 * d0 / d1, t_end))
    f1 = _rhs(p, y0 + h0[:, None] * f0, np.empty_like(y0))
    d12 = np.maximum(d1, _rms((f1 - f0) / scale) / h0)
    h1 = np.where(d12 <= 1e-15, np.maximum(1e-6 * t_end, h0 * 1e-3), (0.01 / d12) ** 0.125)
    return np.where(np.isfinite(f1).all(axis=1), np.minimum(np.minimum(100 * h0, h1), t_end),
                    np.maximum(h0 * 1e-3, t_end * 1e-12))


def _integrate(p: AffineParams, y0: np.ndarray, t_stops: np.ndarray, tol: float):
    """Adaptive DOP853 sweep of the lanes y0 (n, d+1) from 0 through their stop rows.

    A step makes 12 RHS calls: 11 new stages and f(y_new), which is the next
    step's first stage (FSAL).  Its error is Hairer's per-lane norm, with
    s = tol * (1 + max(|y|, |y_new|)), e5 = sum |E5.k / s|^2 and
    e3 = sum |E3.k / s|^2 over the m components:
    err = h * e5 / sqrt(m * (e5 + 0.01 * e3)).  A step is accepted iff
    err < 1, and the next h is h * min(10, max(0.2, 0.9 * err**(-1/8))).
    A proposal h with _LANDING_MARGIN * h >= gap to the next stop steps the
    gap; the margin is below 1/0.9, so a retry after a rejection is never
    stretched back to the step that failed.

    t_stops is (n, n_t), each row sorted: lane i stops at t_stops[i].  Each
    lane has its own stops, t, step h, step floor, next stop, counters and
    outcome, so it takes exactly the steps it would take alone: a step runs
    on the live lanes as one array and masks accept or reject it per lane.
    Steps are cut or stretched to land on every stop, so no state is
    interpolated; the lanes that reach a stop in a pass record it in one
    array pass, not lane by lane.  Returns (states, t, steps,
    rejected, reached), the last four per lane: states[i, j] is lane i at
    t_stops[i, j] for j < reached[i], else its last accepted state, and t[i]
    is that state's time.  Lane i blew up iff reached[i] < n_t: a non-finite
    derivative at t = 0, a step below the floor, MAX_STEPS attempted steps or
    |psi| past the overflow guard.  For the last, t[i] is instead
    T* = t + |psi_j| / |R_j(psi)| at the last accepted state, j its largest
    |psi| component and R from the FSAL stage k[:, 0]: near a pole psi_j
    grows like 1 / (c (T* - t)).
    """
    (n, m), n_stops = y0.shape, t_stops.shape[1]
    # rows at t = 0 keep y0; a lane writes each later row as it reaches or blows up
    states = np.empty((n, n_stops, m), dtype=complex)
    states[:] = y0[:, None]
    n_zero = (t_stops <= 0.0).sum(axis=1)
    # per-lane results (t, steps, rejected, reached), filled as lanes retire
    out = [np.zeros(n), np.zeros(n, dtype=int), np.zeros(n, dtype=int), n_zero]
    ids = (n_zero < n_stops).nonzero()[0]       # a lane with only zero stops takes no step
    if not len(ids):
        return (states, *out)
    t_end = t_stops[ids, -1]
    h_floor = np.maximum(t_end * 1e-12, 5e-324)
    y, t_next = y0[ids], t_stops[ids, n_zero[ids]]
    t, steps, rejected, ptr = (a[ids] for a in out)
    with np.errstate(all="ignore"):
        # the stages, lane by lane (a sum over stages then never depends on
        # the other lanes); k[:, 0] is the derivative at y (FSAL)
        k = np.empty((len(ids), 13, m), dtype=complex)
        _rhs(p, y, k[:, 0])
        h = _initial_step(p, y, k[:, 0], t_end, tol)
        done = ~(np.isfinite(k[:, 0]).all(axis=1) & (h >= h_floor))
        cols, attempts = np.arange(n_stops), 0
        while True:
            if done.any():
                gone, keep = ids[done], ~done
                for full, live in zip(out, (t, steps, rejected, ptr)):
                    full[gone] = live[done]
                if not keep.any():
                    return (states, *out)
                ids, t, y, h, h_floor, ptr, t_next, steps, rejected, k = (
                    a[keep] for a in (ids, t, y, h, h_floor, ptr, t_next, steps, rejected, k))
            gap = t_next - t
            # a step cut short to land on a stop keeps the proposal h, so
            # nearby stops do not drag the step size down to h_floor
            landing = _LANDING_MARGIN * h >= gap
            h_step = np.where(landing, gap, h)
            hs = h_step[:, None]
            for i in range(1, 12):
                _rhs(p, y + hs * (_A[i] @ k[:, :i]), k[:, i])
            y_new = y + hs * (_B @ k[:, :12])
            _rhs(p, y_new, k[:, 12])
            abs_new = np.abs(y_new)
            s2 = (tol + tol * np.maximum(np.abs(y), abs_new)) ** 2
            e5, e3 = ((np.abs(_E5 @ k) ** 2 / s2).sum(axis=1),
                      (np.abs(_E3 @ k) ** 2 / s2).sum(axis=1))
            # e5 == 0 is a zero error, not 0/0; a NaN e5 (a non-finite stage)
            # stays NaN, and + 0 * |y_new| makes err NaN where y_new is not
            # finite, so such a step is rejected
            err = (np.where(e5 == 0.0, 0.0, h_step * e5 / np.sqrt(m * (e5 + 0.01 * e3)))
                   + 0.0 * abs_new.sum(axis=1))
            acc = err < 1.0
            # fmax: a NaN error shrinks h by 0.2; err == 0 grows it by 10
            h_new = h_step * np.minimum(10.0, np.fmax(0.2, 0.9 * err ** -0.125))
            h = np.where(acc & landing, np.maximum(h, h_new), h_new)
            steps += acc
            rejected += ~acc
            attempts += 1       # every live lane attempts one step per pass
            # past the guard, a lane stops at its last state below it
            over = acc & (abs_new[:, 1:].max(axis=1) > PSI_OVERFLOW_GUARD)
            move = acc & ~over
            # t + h_step can miss the stop by an ulp; land on it exactly
            t = np.where(move, np.where(landing, t_next, t + h_step), t)
            np.copyto(y, y_new, where=move[:, None])
            np.copyto(k[:, 0], k[:, 12], where=move[:, None])
            done = over | ~(h >= h_floor) | (attempts >= MAX_STEPS)
            hit = ((t >= t_next) | done).nonzero()[0]
            if len(hit):
                # a lane at a stop or blown up writes its state into its rows
                # from ptr on: rows past a blow-up keep the last accepted
                # state, and rows past t are written again as it reaches them
                lane = ids[hit]
                r, c = (cols >= ptr[hit, None]).nonzero()
                states[lane[r], c] = y[hit[r]]
                ptr[hit] = (t_stops[lane] <= t[hit, None]).sum(axis=1)
                t_next[hit] = t_stops[lane, np.minimum(ptr[hit], n_stops - 1)]
            done |= ptr == n_stops
            if over.any():
                # T* from the last accepted state; t where |R_j| is 0
                psi = np.abs(y[over, 1:])
                j = psi.argmax(axis=1)[:, None]
                dt = (np.take_along_axis(psi, j, 1)
                      / np.abs(np.take_along_axis(k[over, 0, 1:], j, 1)))[:, 0]
                t[over] += np.where(np.isfinite(dt), dt, 0.0)


def _domain_tol(tol: float, psi: np.ndarray) -> np.ndarray:
    return max(1e-9, 100.0 * tol) * (1.0 + np.abs(psi).max(axis=-1, initial=0.0))


# evaluate_batch's body: evaluate and evaluate_grid call it directly, so traced calls never nest
def _batch(p: AffineParams, t_grid, U, tol: float) -> TransformBatch:
    if not tol > 0:
        raise ValueError("tol must be positive")
    U = np.asarray(U, dtype=complex).reshape(-1, p.dim)
    t_arr = np.asarray(t_grid, dtype=float)
    if t_arr.ndim < 2:
        t_arr = t_arr.reshape(-1)
    elif t_arr.ndim > 2 or len(t_arr) != len(U):
        raise ValueError(f"per-lane times must have shape ({len(U)}, n_t), got {t_arr.shape}")
    if not ((t_arr >= 0) & (t_arr < math.inf)).all():
        raise ValueError("times must be finite and nonnegative")
    y0 = np.zeros((len(U), p.dim + 1), dtype=complex)
    y0[:, 1:] = U
    # a shared grid is sorted once and every lane reads it through a broadcast view
    stops = np.broadcast_to(np.sort(t_arr, axis=-1), (len(U), t_arr.shape[-1]))
    states, t_last, steps, rejected, reached = _integrate(p, y0, stops, tol)
    rank = t_arr.argsort(axis=-1, kind="stable").argsort(axis=-1)   # back to the caller's order
    y, blown = states[np.arange(len(U))[:, None], rank], rank >= reached[:, None]
    psi = y[..., 1:]
    # u and every row of psi in one membership test
    points = np.concatenate([U[:, None], psi], axis=1)
    inside = p.space.in_domain(points, tol=_domain_tol(tol, points))
    ok = inside[:, :1] & inside[:, 1:]
    status = _STATUSES[np.where(blown, 2, ~ok)]     # 0 ok, 1 domain_exit, 2 blow_up
    return TransformBatch(np.where(blown, t_last[:, None], t_arr), U, y[..., 0], psi,
                          status, steps, rejected,
                          np.where(reached < t_arr.shape[-1], t_last, math.nan))


def evaluate_batch(p: AffineParams, t_grid, U, tol: float = 1e-10) -> TransformBatch:
    """evaluate() for every row u of U, at the times of t_grid.

    t_grid is either one list of times shared by every lane, or an (N, n_t)
    array whose row i lists lane i's times; either way unsorted, with
    repeats allowed.  One DOP853 loop runs a lane per u, at 12 RHS calls per
    step, accepted or rejected; a lane keeps its own stops, steps, counters
    and status, so it takes the same steps as a batch of its u and its times
    alone.
    """
    return _batch(p, t_grid, U, tol)


def evaluate(p: AffineParams, t: float, u, tol: float = 1e-10) -> TransformResult:
    """Integrate the Riccati system to time t from psi(0) = u, phi(0) = 0.

    tol controls the local error (used as both absolute and relative
    tolerance).  The result status records blow-up (with its time) and
    exits from the transform domain U; out-of-domain inputs are integrated
    anyway -- the ODEs are entire in u for finite-activity jumps
    -- but can never come back with status 'ok'.  Lane 0 of a batch over [t].
    """
    return _batch(p, [float(t)], [u], tol).lane(0)[0]


def evaluate_grid(p: AffineParams, u, t_list, tol: float = 1e-10) -> list:
    """evaluate() at several times in one integrator sweep: lane 0 of a batch.

    The sweep's steps land on every requested time, so each row is a DOP853
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


def _require_rows_ok(b: TransformBatch) -> TransformBatch:
    """b, or the error _require_ok raises for its first row (lane by lane) that is not ok."""
    bad = b.status != STATUS_OK
    if bad.any():
        i, j = np.unravel_index(bad.argmax(), bad.shape)
        _require_ok(b.lane(i)[j])
    return b


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


def closed_form_parabola(t: float, u):
    """Exact (phi, psi) for the process (w, w^2) driven by a Brownian w.

    phi(t,u) = -log(1 - 2 t u2)/2 + u1^2 t / (2 (1 - 2 t u2)), with the
    logarithm branch continued from t = 0, and psi(t,u) = u / (1 - 2 t u2).
    s -> 1 - 2 s u2 is a straight segment from 1, which meets the principal
    cut (-inf, 0] only if it runs along the real axis through 0; otherwise the
    continued logarithm is the principal one.  Raises at the pole 1 - 2 t u2 = 0
    and past it, where 1 - 2 t u2 is real and negative.
    """
    u = np.asarray(u, dtype=complex).reshape(2)
    w = 1.0 - 2.0 * t * u[1]
    if abs(w) < 1e-14 or (w.imag == 0.0 and w.real < 0.0):
        raise ValueError("closed form evaluated at or past its pole 1 - 2 t u2 = 0")
    phi = -0.5 * np.log(w) + u[0] ** 2 * t / (2.0 * w)
    return complex(phi), u / w


def parabola_FR(u):
    """Time-zero derivatives of the parabola closed form: F and R at u."""
    u = np.asarray(u, dtype=complex).reshape(2)
    F = u[1] + 0.5 * u[0] ** 2
    R = np.array([2.0 * u[0] * u[1], 2.0 * u[1] ** 2], dtype=complex)
    return complex(F), R


# -- analytic verification probes -------------------------------------------


def semiflow_residual(p: AffineParams, t, s, u, tol: float = 1e-10):
    """Residual of the composition law

        phi(t+s,u) = phi(t,u) + phi(s, psi(t,u)),  psi(t+s,u) = psi(s, psi(t,u)),

    as max of the phi defect and the psi defect norm, for N triples: t and s
    of shape (N,) and u of shape (N, d) give the (N,) residuals, and a scalar
    triple gives a float.  Zero for t = 0 or s = 0 by construction; bounded
    by a small multiple of tol otherwise.

    The first legs of all triples share one batch of 2N single-stop lanes,
    (u_i, t_i + s_i) and (u_i, t_i); each second leg, (psi(t_i, u_i), s_i),
    is one evaluate() call.  Every lane takes the steps it takes alone.  A
    failing triple raises the error of the first failing lane in triple
    order: lane (u_i, t_i + s_i), then (u_i, t_i), then triple i's second leg.
    """
    scalar = np.ndim(t) == 0
    t, s = np.atleast_1d(np.asarray(t, dtype=float)), np.atleast_1d(np.asarray(s, dtype=float))
    U = np.asarray(u, dtype=complex).reshape(len(t), p.dim)
    b = _batch(p, np.column_stack([t + s, t]).reshape(-1, 1), np.repeat(U, 2, axis=0), tol)
    res = np.empty(len(t))
    for i, si in enumerate(s.tolist()):
        for j in (2 * i, 2 * i + 1):
            if b.status[j, 0] != STATUS_OK:
                _require_ok(b.lane(j)[0])
        r_s = _require_ok(evaluate(p, si, b.psi[2 * i + 1, 0], tol))
        d_phi = abs(complex(b.phi[2 * i, 0]) - complex(b.phi[2 * i + 1, 0]) - r_s.phi)
        d_psi = float(np.linalg.norm(b.psi[2 * i, 0] - r_s.psi))
        res[i] = max(d_phi, d_psi)
    return float(res[0]) if scalar else res


@dataclass(frozen=True)
class RegularityProbe:
    """Forward-difference recovery of F and R from small-time transforms."""

    h: np.ndarray               # probe step sizes, decreasing
    F_quotients: np.ndarray     # phi(h,u)/h per h
    R_quotients: np.ndarray     # (psi(h,u)-u)/h per h, shape (len(h), d)
    errors: np.ndarray          # |F_quotients - F_ref| + |R_quotients - R_ref| per h
    F_est: complex              # Richardson extrapolation from the two smallest h
    R_est: np.ndarray
    observed_order: float       # log-log slope of the error vs h (inf if at noise floor)
    F_ref: complex
    R_ref: np.ndarray

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
    # one lane per step, each stopping at its h
    b = _require_rows_ok(_batch(p, h[:, None], [u] * len(h), tol))
    Fq = np.empty(len(h), dtype=complex)
    Rq = np.empty((len(h), p.dim), dtype=complex)
    for i, hi in enumerate(h):      # Python's complex division: numpy's multiplies by 1/h
        Fq[i] = complex(b.phi[i, 0]) / hi
        Rq[i] = (b.psi[i, 0] - u) / hi
    h1, h2 = h[-2], h[-1]
    F_est = (h1 * Fq[-1] - h2 * Fq[-2]) / (h1 - h2)
    R_est = (h1 * Rq[-1] - h2 * Rq[-2]) / (h1 - h2)
    R_ref = np.empty(p.dim, dtype=complex)
    F_ref = p.F_eval(u, R_out=R_ref)

    err = np.abs(Fq - F_ref) + np.linalg.norm(Rq - R_ref, axis=1)
    floor = 1e3 * tol * (1.0 + abs(F_ref) + float(np.linalg.norm(R_ref)))
    live = err > floor
    if live.sum() < 2:
        order = math.inf
    else:
        order = float(np.polyfit(np.log(h[live]), np.log(err[live]), 1)[0])
    return RegularityProbe(h, Fq, Rq, err, complex(F_est), R_est, order, complex(F_ref), R_ref)


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
    times raises the divergence flag.  One batch runs a lane per (time, u),
    each a single-stop sweep to its time.
    """
    t_arr = np.asarray(t_list, dtype=float)
    if np.any(t_arr <= 0) or np.any(np.diff(t_arr) >= 0):
        raise ValueError("t_list must be decreasing and positive")
    U = np.array([np.asarray(u, dtype=complex).reshape(p.dim) for u in grid]).reshape(-1, p.dim)
    outside = p.space.support(U) == math.inf
    if outside.any():
        raise ValueError(f"grid point {U[outside.argmax()]} lies outside the transform domain U")
    b = _require_rows_ok(_batch(p, np.repeat(t_arr, len(U))[:, None], np.tile(U, (len(t_arr), 1)),
                                tol))
    phi = b.phi[:, 0].reshape(len(t_arr), len(U))
    psi = b.psi[:, 0].reshape(len(t_arr), len(U), p.dim)
    t = t_arr[:, None]
    sups = np.max(np.abs(phi) / t + np.linalg.norm(psi - U, axis=2) / t, axis=1, initial=0.0)
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
    R = np.empty(p.dim, dtype=complex)
    target = (p.F_eval(u, R_out=R) + p.c) + x @ (R + p.gamma)
    if not p.space.contains(x):
        raise ValueError(f"initial state {x} is not in the state space")
    # lanes u and 0 at each time, one stop each
    b = _require_rows_ok(_batch(p, np.repeat(t_arr, 2)[:, None],
                                np.tile([u, np.zeros(p.dim)], (len(t_arr), 1)), tol))
    vals = np.empty(len(t_arr), dtype=complex)
    # char_fn's scalar arithmetic, row by row: a vectorized exp may round differently
    for j, t in enumerate(t_arr):
        ft_u, ft_0 = (complex(np.exp(b.phi[i, 0] + x @ b.psi[i, 0])) for i in (2 * j, 2 * j + 1))
        vals[j] = (np.exp(-(x @ u)) * ft_u - ft_0) / t
    return CpLimitTable(t_arr, vals, complex(target), np.abs(vals - target))
