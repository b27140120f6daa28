"""Batch front end: JSON configs in, CSV/JSON reports out.

    affine-kit transform --config cfg.json --out outdir
    affine-kit simulate  --config cfg.json --out outdir
    affine-kit verify    --config cfg.json --out outdir

Exit status: 0 all requested checks pass, 1 a check failed, 2 the config
does not parse, 3 the config fails semantic validation (unresolvable
preset, grid point outside the transform domain, invalid parameters, a
verify that selects no check or a transform with no time, ...).

The config is a JSON object that names a preset or both space and params.
Each object in it holds only these keys ([default], (values)), and any
other key does not parse (_SCHEMA):

    config      task, preset, space, params, verify_suite [all], grids, mc, tolerances
    space       kind (full, half_line, orthant_plane, parabola), d [1], m, n
    params      a, alpha, b, beta, c, gamma [0], m, mu [no atoms]
    atom        w, xi
    grids       t [0.05, 0.1, 0.2, 0.4], u [i e_k, -i/sqrt(d)], x [an affine basis point]
    mc          paths [10000], steps [400], T [max(grids.t, 0.5)], seed [0]
    tolerances  ode [1e-10], semiflow_triples [100]

Every number is a JSON number, never a bool or a string; a component of a
point u is a number or [re, im]; of the space keys, kind full reads d and
orthant_plane reads m and n.

The verify thresholds are constants, not settings: semi-flow 1e-7;
regularity at h = 1e-2 ... 1e-4 to error 1e-4 and order 0.9; bounded 0.10
over t = 1e-1 ... 1e-5; cp_limit correlation 0.99 over t = 0.1 ... 0.001, or
a pass with a null statistic if under two errors exceed 1e3 * ode * (1 +
|limit|); martingale stop radius 1.0; characteristics 5%, a SKIP if the tuple
has jumps, killing or no diffusion; Monte Carlo 3 std errors (_MC_SE) for
affine_mc, martingale and the characteristics drift z, the first two floored
at 1e-12 * (1 + |reference|) for rounding (martingale's reference is 1).
levy_structure reports the admissibility verdict of AffineParams.validate.

The Monte Carlo suites of a verify run share one ensemble, simulate's, on
the mc grid linspace(0, mc.T, mc.steps + 1) from grids.x[0], which their
entries name as x.  The times they read (positive grids.t; delta and n * delta
of the martingale pairs (delta, n) = (0.1, 5) and (0.05, 10)) must lie on it.

Reports are reproducible byte for byte for a fixed config and seed; the
only run-dependent value is isolated in the single "generated_at" key.
report.json is strict JSON: a non-finite number (SKIP, aborted check) is null.
CSV lines end in "\r\n" and every float cell holds repr's bytes, Python's
shortest round-trip form, so float(cell) gives back the exact float64 that
was computed.  The digits come from orjson's Ryu formatter, which writes
repr's bytes for +-0 and for 1e-4 <= |x| < 1e16, and from repr itself for
a row that holds any other value (_csv_rows).  In paths.csv "nan" marks a
killed (cemetery) row and "inf"/"-inf" a value that overflowed.  Each path
of paths.csv costs one _csv_rows call (one orjson.dumps, one split and one
range test), one join and one write.
There are no environment knobs.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import presets
from .params import AffineParams, LevyMeasure
from .simulate import (
    SamplerError,
    characteristics_check,
    grid_index,
    martingale_L_test,
    mc_char_fn,
    simulate_ensemble,
    stopped_ensemble,
)
from .state_space import (
    CanonicalOrthantPlane,
    FullSpace,
    HalfLine,
    Parabola,
    StateSpace,
    random_u_in_domain,
)
from .transform import (
    TransformError,
    boundedness_probe,
    cp_limit_check,
    evaluate_batch,
    fd_regularity,
    semiflow_residual,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3


def _integer(name: str, value) -> int:
    """An integral JSON number as an int; anything else does not parse."""
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise ConfigParseError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name: str, value) -> float:
    """A JSON number as a float; a bool, a string or anything else does not parse."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigParseError(f"{name} must be a number, got {value!r}")
    return _parsed(name, lambda _, v: float(v), value)


def _array(name: str, value) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array."""
    if not isinstance(value, list):
        return np.array(_number(name, value))
    return _parsed(name, lambda _, v: np.array(v, dtype=float), [_array(name, v) for v in value])


# the keys each JSON object of a config may hold (module docstring)
_SCHEMA = {
    "config": ("task", "preset", "space", "params", "verify_suite", "grids", "mc", "tolerances"),
    "space": ("kind", "d", "m", "n"),
    "params": ("a", "alpha", "b", "beta", "c", "gamma", "m", "mu"),
    "atom": ("w", "xi"),
    "grids": ("t", "u", "x"),
    "mc": ("paths", "steps", "T", "seed"),
    "tolerances": ("ode", "semiflow_triples"),
}


def _object(kind: str, value) -> dict:
    """value, a JSON object that holds only keys of _SCHEMA[kind]."""
    if not isinstance(value, dict):
        raise ConfigParseError(f"{kind} must be a JSON object")
    for key in value:
        if key not in _SCHEMA[kind]:
            raise ConfigParseError(f"{kind} has unknown key {key!r}; "
                                   f"known: {', '.join(_SCHEMA[kind])}")
    return value


# the verify thresholds and probe steps: numerics that judge fixed identities
_SEMIFLOW_TOL = 1e-7
_REGULARITY_REL, _REGULARITY_ORDER, _REGULARITY_H = 1e-4, 0.9, (1e-2, 1e-3, 1e-4)
_BOUNDED_VARIATION, _BOUNDED_T = 0.10, (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
_CP_CORR, _CP_T = 0.99, (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)
_MARTINGALE_PAIRS, _STOP_RADIUS = ((0.1, 5), (0.05, 10)), 1.0    # (delta, n); radius
_CHARACTERISTICS_REL = 0.05
_MC_SE, _MC_FLOOR = 3.0, 1e-12     # Monte Carlo bound: standard errors, rounding floor


class ConfigParseError(Exception):
    pass


class ConfigValidationError(Exception):
    pass


def _parse_complex_vector(entry, d: int) -> np.ndarray:
    """JSON encoding of u: each component a number or a [re, im] pair."""
    if not isinstance(entry, list) or len(entry) != d:
        raise ConfigParseError(f"u entry {entry!r} is not a length-{d} vector")
    out = np.empty(d, dtype=complex)
    for i, c in enumerate(entry):
        re, im = c if isinstance(c, list) and len(c) == 2 else (c, 0.0)
        out[i] = complex(_number("grids.u", re), _number("grids.u", im))
    return out


# each space.kind: its class and the integer keys it is built from
_SPACES = {"full": (FullSpace, ("d",)), "half_line": (HalfLine, ()),
           "orthant_plane": (CanonicalOrthantPlane, ("m", "n")), "parabola": (Parabola, ())}


def _space_from_config(spec) -> StateSpace:
    """The state space of a JSON descriptor {"kind": ..., ...}."""
    kind = _object("space", spec).get("kind")
    if kind not in _SPACES:
        raise ValueError(f"unknown state space kind: {kind!r}")
    build, keys = _SPACES[kind]
    unread = set(spec) - {"kind", *keys}
    if unread:
        raise ConfigParseError(f"a space of kind {kind!r} has no key {sorted(unread)[0]!r}")
    return build(*(_integer(f"space.{k}", {"d": 1, **spec}[k]) for k in keys))


def _measure_from_json(name: str, entries, d: int) -> LevyMeasure:
    atoms = []
    for e in entries:
        e = _object("atom", e)
        atoms.append((_number(f"{name}.w", e["w"]), _array(f"{name}.xi", e["xi"]).reshape(d)))
    return LevyMeasure.from_atoms(atoms, dim=d)


def _params_from_json(space, spec) -> AffineParams:
    d = space.dim
    base = AffineParams.zeros(space)
    spec = _object("params", spec)
    kw = {k: _array(f"params.{k}", spec[k])
          for k in ("a", "alpha", "b", "beta", "gamma") if k in spec}
    if "c" in spec:
        kw["c"] = _number("params.c", spec["c"])
    if "m" in spec:
        kw["m_measure"] = _measure_from_json("params.m", spec["m"], d)
    if "mu" in spec:
        kw["mu_measures"] = tuple(_measure_from_json(f"params.mu[{i}]", m, d)
                                  for i, m in enumerate(spec["mu"]))
    return base.with_(**kw)


@dataclass
class RunConfig:
    task: str
    params: AffineParams
    preset: str | None
    verify_suite: tuple
    t_grid: np.ndarray
    u_grid: list
    x_grid: list
    n_paths: int
    n_steps: int
    horizon: float
    seed: int
    ode_tol: float
    semiflow_triples: int

    @property
    def space(self):
        return self.params.space

    @functools.cached_property
    def ensemble(self):
        """The run's one ensemble on the mc grid (module docstring); every
        Monte Carlo suite reads its arrays, and none may write them."""
        return simulate_ensemble(self.params, self.x_grid[0], self.horizon, self.n_steps,
                                 self.seed, self.n_paths)


def load_config(path: str) -> RunConfig:
    """Parse and semantically validate a run config.

    Raises ConfigParseError for malformed input and ConfigValidationError
    when the input parses but names an impossible run (u outside U, x
    outside D, inadmissible parameters).
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigParseError(f"cannot read config {path}: {e}") from e
    raw = _object("config", raw)

    task = raw.get("task")
    if task not in ("transform", "simulate", "verify"):
        raise ConfigParseError(f"task must be transform|simulate|verify, got {task!r}")

    preset = raw.get("preset")
    if preset is not None:
        if preset not in presets.PRESET_NAMES:
            raise ConfigParseError(
                f"unknown preset {preset!r}; known: {presets.PRESET_NAMES}")
        if "space" in raw or "params" in raw:
            raise ConfigParseError("config names a preset, so it takes no 'space' or 'params'")
        params = presets.get(preset)
    else:
        if "space" not in raw or "params" not in raw:
            raise ConfigParseError("config needs either 'preset' or 'space' + 'params'")
        try:
            space = _space_from_config(raw["space"])
            params = _params_from_json(space, raw["params"])
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigParseError(f"bad space/params spec: {e}") from e

    suite = raw.get("verify_suite", list(ALL_SUITES))
    if (not isinstance(suite, list) or any(s not in ALL_SUITES for s in suite)
            or len(set(suite)) < len(suite)):
        raise ConfigParseError(f"verify_suite entries must be distinct names among {ALL_SUITES}")

    grids = _object("grids", raw.get("grids", {}))
    d = params.dim
    t_grid = _array("grids.t", grids.get("t", [0.05, 0.1, 0.2, 0.4]))
    if t_grid.ndim != 1 or not np.all((t_grid >= 0) & (t_grid < np.inf)):
        raise ConfigParseError("grids.t must be a list of finite nonnegative times")
    u_grid = _parsed("grids.u", lambda _, v: [_parse_complex_vector(e, d) for e in v],
                     grids.get("u", _default_u_grid(d)))
    x_default = [params.space.affine_basis()[-1].tolist()]
    x_grid = _parsed("grids.x", lambda n, v: [_array(n, x).reshape(d) for x in v],
                     grids.get("x", x_default))

    mc = _object("mc", raw.get("mc", {}))
    tols = _object("tolerances", raw.get("tolerances", {}))
    cfg = RunConfig(
        task=task,
        params=params,
        preset=preset,
        verify_suite=tuple(suite),
        t_grid=t_grid,
        u_grid=u_grid,
        x_grid=x_grid,
        n_paths=_integer("mc.paths", mc.get("paths", 10000)),
        n_steps=_integer("mc.steps", mc.get("steps", 400)),
        horizon=_number("mc.T", mc.get("T", max(float(t_grid.max(initial=0.0)), 0.5))),
        seed=_integer("mc.seed", mc.get("seed", 0)),
        ode_tol=_number("tolerances.ode", tols.get("ode", 1e-10)),
        semiflow_triples=_integer("tolerances.semiflow_triples",
                                  tols.get("semiflow_triples", 100)),
    )
    _validate_config(cfg)
    return cfg


def _parsed(name: str, convert, value):
    """convert(name, value); a value it cannot convert does not parse."""
    try:
        return convert(name, value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigParseError(f"{name} cannot be read from {value!r}: {e}") from e


def _default_u_grid(d: int) -> list:
    # points of the imaginary unit sphere: always inside U
    out = []
    for i in range(d):
        e = [0.0] * d
        e[i] = [0.0, 1.0]
        out.append(e)
    out.append([[0.0, -1.0 / math.sqrt(d)]] * d)
    return out


def _validate_config(cfg: RunConfig) -> None:
    outside = ~cfg.space.in_domain(np.reshape(cfg.u_grid, (-1, cfg.params.dim)))
    if outside.any():
        u = cfg.u_grid[outside.argmax()]
        why = "support(u)=inf" if np.isfinite(u).all() else "a part is not finite"
        raise ConfigValidationError(f"grid point u={u} lies outside the transform domain: {why}")
    if not cfg.u_grid:
        raise ConfigValidationError("grids.u must hold at least one point")
    if not cfg.x_grid:
        raise ConfigValidationError("grids.x must hold at least one state")
    for x in cfg.x_grid:
        if not cfg.space.contains(x):
            raise ConfigValidationError(f"grid point x={x} is not in the state space")
    if not (math.isfinite(cfg.ode_tol) and cfg.ode_tol > 0):
        raise ConfigValidationError(f"the ODE tolerance must be finite and > 0, got {cfg.ode_tol}")
    report = cfg.params.validate()
    if not report.valid:
        raise ConfigValidationError(f"parameters are not admissible:\n{report}")
    if cfg.n_paths < 2 or cfg.n_steps < 1 or not 0 < cfg.horizon < math.inf:
        raise ConfigValidationError("mc settings must satisfy paths>=2, steps>=1, 0<T<inf")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigValidationError(f"the seed must lie in [0, 2**64), got {cfg.seed}")
    if cfg.semiflow_triples < 1:
        raise ConfigValidationError("tolerances.semiflow_triples must be >= 1")
    if cfg.task == "transform" and not len(cfg.t_grid):
        raise ConfigValidationError("grids.t must hold at least one time")
    if cfg.task == "verify":
        # a run that checks nothing, then the times the Monte Carlo suites read on the mc grid
        reads = [t for t in cfg.t_grid if t > 0] if "affine_mc" in cfg.verify_suite else []
        if not cfg.verify_suite:
            raise ConfigValidationError("verify_suite selects no suite")
        if "affine_mc" in cfg.verify_suite and not reads:
            raise ConfigValidationError("affine_mc reads the times t > 0 of grids.t, "
                                        "and grids.t holds none")
        grid = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
        if "martingale" in cfg.verify_suite:
            reads += [t for delta, n in _MARTINGALE_PAIRS for t in (delta, n * delta)]
        for t in reads:
            try:
                grid_index(grid, t)
            except ValueError:
                raise ConfigValidationError(
                    f"t={t}, read by a Monte Carlo suite, is not on the mc grid "
                    f"linspace(0, {cfg.horizon}, {cfg.n_steps + 1})") from None


# ---------------------------------------------------------------------------
# CSV float cells


def _csv_rows(num: np.ndarray) -> list:
    """Row j of the float64 matrix num as b"c0,c1,...", every cell
    repr(float(cell)) byte for byte.

    orjson's Ryu digits equal repr's for +-0 and for 1e-4 <= |x| < 1e16.
    Outside that range the notation differs (nan and inf become null, tiny
    values are written positionally), so a row holding such a cell is
    formatted with repr instead.  run_simulate calls it once per path, on
    that path's (n_t, d) states.
    """
    import orjson   # only the CSV writers need it; verify never loads it
    if not len(num):
        return []
    num = np.ascontiguousarray(num)     # orjson serializes only C-contiguous arrays
    rows = orjson.dumps(num, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    mag = np.abs(num)
    ryu = ((mag >= 1e-4) & (mag < 1e16)) | (num == 0.0)
    for j in np.flatnonzero(~ryu.all(axis=1)).tolist():
        rows[j] = ",".join(map(repr, num[j].tolist())).encode()
    return rows


# ---------------------------------------------------------------------------
# task: transform


def _complex_cols(prefix: str, d: int):
    return [f"re_{prefix}{i+1}" for i in range(d)] + [f"im_{prefix}{i+1}" for i in range(d)]


def run_transform(cfg: RunConfig, out_dir: str) -> int:
    d = cfg.params.dim
    header = (["t"] + _complex_cols("u", d) + ["re_phi", "im_phi"]
              + _complex_cols("psi", d) + ["status"])
    b = evaluate_batch(cfg.params, cfg.t_grid, np.reshape(cfg.u_grid, (-1, d)), cfg.ode_tol)
    u_cols = np.broadcast_to(np.hstack([b.u.real, b.u.imag])[:, None], b.t.shape + (2 * d,))
    num = np.concatenate([b.t[..., None], u_cols, b.phi.real[..., None], b.phi.imag[..., None],
                          b.psi.real, b.psi.imag], axis=-1)
    rows = _csv_rows(num.reshape(-1, num.shape[-1]))
    ends = [f",{st}\r\n".encode() for st in b.status.ravel().tolist()]
    path = os.path.join(out_dir, "transform.csv")
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        fh.writelines(map(b"".join, zip(rows, ends)))
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# task: simulate


def run_simulate(cfg: RunConfig, out_dir: str) -> int:
    ens = cfg.ensemble
    path = os.path.join(out_dir, "paths.csv")
    d, n_t = ens.dim, len(ens.times)
    # the parts "i," "t," "x_1,...,x_d" ",alive\r\n" of each line; t is the same on every path
    parts = [b""] * (4 * n_t)
    parts[1::4] = [c + b"," for c in _csv_rows(ens.times[:, None])]
    alive = [b",1\r\n"] * n_t + [b",0\r\n"] * n_t    # from n_t - au on: au ones, then 0s
    with open(path, "wb") as fh:
        fh.write(",".join(["path_id", "t", *(f"x_{i+1}" for i in range(d)), "alive"]).encode()
                 + b"\r\n")
        for i, au in enumerate(ens.alive_until.tolist()):
            parts[::4] = [b"%d," % i] * n_t
            parts[2::4] = _csv_rows(ens.states[i])
            parts[3::4] = alive[n_t - au:2 * n_t - au]
            fh.write(b"".join(parts))
    print(f"wrote {path} ({ens.n_paths} paths x {n_t} times; {_ensemble_summary(ens)})")
    return EXIT_OK


def _ensemble_summary(ens) -> str:
    """How an ensemble was drawn, as simulate and verify print it."""
    return (f"sampler {ens.sampler}, clamps {ens.clamps}, "
            f"killed share {np.mean(ens.alive_until < len(ens.times)):.4g}")


# ---------------------------------------------------------------------------
# task: verify


def _check(name: str, prop: str, statistic: float, threshold: float, ok: bool,
           **detail) -> dict:
    entry = {
        "check": name,
        "property": prop,
        "statistic": float(statistic),
        "threshold": float(threshold),
        "pass": bool(ok),
    }
    if detail:
        entry["detail"] = detail
    return entry


def _suite_semiflow(cfg: RunConfig) -> list:
    n_triples = cfg.semiflow_triples
    rng = np.random.default_rng(cfg.seed)
    triples = [(rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3),
                random_u_in_domain(cfg.space, rng)) for _ in range(n_triples)]
    t, s, u = zip(*triples)
    worst = float(np.max(semiflow_residual(cfg.params, t, s, u, cfg.ode_tol)))
    return [_check("semiflow", "transform composition law phi(t+s,u) = phi(t,u) + "
                   "phi(s,psi(t,u)), psi(t+s,u) = psi(s,psi(t,u))",
                   worst, _SEMIFLOW_TOL, worst <= _SEMIFLOW_TOL, triples=n_triples)]


def _suite_regularity(cfg: RunConfig) -> list:
    out = []
    for u in cfg.u_grid:
        probe = fd_regularity(cfg.params, u, _REGULARITY_H, cfg.ode_tol)
        ok = probe.rel_error_est <= _REGULARITY_REL and probe.observed_order >= _REGULARITY_ORDER
        out.append(_check(
            "regularity",
            "existence of the transform's time derivatives at t=0+ "
            "(difference quotients recover F and R)",
            probe.rel_error_est, _REGULARITY_REL, ok,
            observed_order=(None if math.isinf(probe.observed_order)
                            else probe.observed_order),
            u=[[c.real, c.imag] for c in u]))
    return out


def _suite_bounded(cfg: RunConfig) -> list:
    d = cfg.params.dim
    rng = np.random.default_rng(cfg.seed + 1)
    z = rng.standard_normal((20, d))
    grid = [1j * row / max(np.linalg.norm(row), 1e-12) for row in z]
    sups = boundedness_probe(cfg.params, grid, _BOUNDED_T, cfg.ode_tol)
    tail = sups[-3:]
    variation = float((tail.max() - tail.min()) / max(tail.min(), 1e-300))
    return [_check("bounded", "small-time boundedness of |phi(t,u)|/t + "
                   "|psi(t,u)-u|/t on a compact u-grid",
                   variation, _BOUNDED_VARIATION, variation <= _BOUNDED_VARIATION,
                   sup_by_t=list(map(float, sups)))]


def _suite_cp_limit(cfg: RunConfig) -> list:
    out, t = [], np.array(_CP_T)
    pairs = [(x, u) for x in cfg.x_grid for u in cfg.u_grid]
    for x, u in pairs:
        table = cp_limit_check(cfg.params, x, u, t, cfg.ode_tol)
        err = np.maximum(table.errors, 1e-15)
        corr = math.nan if table.at_limit else float(np.corrcoef(np.log(t), np.log(err))[0, 1])
        slope_c = float(np.max(err / t))
        out.append(_check(
            "cp_limit",
            "small-time limit of the centered transform difference quotient "
            "towards (F(u)+c) + <x, R(u)+gamma>, with linear error decay",
            corr, _CP_CORR, table.at_limit or corr >= _CP_CORR,
            fitted_linear_constant=slope_c,
            x=list(map(float, x)), u=[[c.real, c.imag] for c in u]))
    return out


def _suite_levy_structure(cfg: RunConfig) -> list:
    report = cfg.params.validate()
    return [_check("levy_structure", "admissibility of the state-affine "
                   "characteristics (PSD diffusion, nonnegative jump weights, "
                   "nonnegative killing rate, jumps that land in D)",
                   float(len(report.violations)), 0.0, report.valid,
                   checked_points=report.checked_points, notes=list(report.notes))]


def _up_to_conjugates(us: list) -> list:
    """The u of us whose complex conjugate is not an earlier entry.  X is
    real, so the estimate and the reference at conj(u) are the conjugates of
    those at u, and a check at conj(u) repeats the check at u."""
    return [u for k, u in enumerate(us)
            if not any(np.array_equal(np.conj(u), v) for v in us[:k])]


def _mc_threshold(est, ref) -> float:
    return max(_MC_SE * est.std_error, _MC_FLOOR * (1.0 + abs(ref)))


def _suite_affine_mc(cfg: RunConfig) -> list:
    x0, ens = cfg.x_grid[0], cfg.ensemble
    tu = [(t, u) for t in cfg.t_grid.tolist() if t > 0 for u in _up_to_conjugates(cfg.u_grid)]
    # the references: one single-stop lane per (t, u), each taking the steps it takes alone
    b = evaluate_batch(cfg.params, [[t] for t, _ in tu], [u for _, u in tu],
                       cfg.ode_tol).require_ok()
    out = []
    for (t, u), ref in zip(tu, b.value(x0)[:, 0]):
        est = mc_char_fn(ens, t, u)
        gap, thr = abs(est.value - ref), _mc_threshold(est, ref)
        out.append(_check(
            "affine_mc",
            "exponential-affine dependence of the Fourier-Laplace transform "
            "on the initial state (Monte Carlo vs Riccati)",
            gap, thr, gap <= thr,
            x=list(map(float, x0)), t=t, u=[[c.real, c.imag] for c in u],
            std_error=est.std_error, sampler=ens.sampler))
    return out


def _suite_martingale(cfg: RunConfig) -> list:
    x0, ens = list(map(float, cfg.x_grid[0])), cfg.ensemble
    stopped = stopped_ensemble(ens, _STOP_RADIUS)
    us = _up_to_conjugates(cfg.u_grid)
    # the references phi(delta, u), psi(delta, u): one single-stop lane per (delta, u)
    lanes = [(delta, u) for delta, _ in _MARTINGALE_PAIRS for u in us]
    b = evaluate_batch(cfg.params, [[t] for t, _ in lanes], [u for _, u in lanes],
                       cfg.ode_tol).require_ok()
    phi, psi = b.phi.reshape(-1, len(us)), b.psi.reshape(-1, len(us), cfg.params.dim)
    out = []
    for k, (delta, n) in enumerate(_MARTINGALE_PAIRS):
        for label, e in (("unstopped", ens), ("stopped", stopped)):
            for u, est in zip(us, martingale_L_test(e, delta, n, us, phi[k], psi[k])):
                gap, thr = abs(est.value - 1.0), _mc_threshold(est, 1.0)
                out.append(_check(
                    "martingale",
                    "unit mean of the exponential compensated functional "
                    "L(n, delta, u), stopped and unstopped",
                    gap, thr, gap <= thr,
                    x=x0, delta=delta, n=n, mode=label,
                    u=[[c.real, c.imag] for c in u], sampler=ens.sampler))
    return out


def _suite_characteristics(cfg: RunConfig) -> list:
    p = cfg.params
    why = ("jumps or killing" if p.has_jumps or p.has_killing
           else "no diffusion" if not p.A.any() else None)
    if why:
        # a check that does not apply is not a failure; the entry keeps the suite named
        return [_check("characteristics",
                       "realized quadratic covariation vs int A(X_s) ds "
                       "(diffusion-only check)",
                       math.nan, _CHARACTERISTICS_REL, True,
                       skipped=f"process has {why}; check not applicable")]
    ens = cfg.ensemble
    rep = characteristics_check(ens, p)
    out = [_check("characteristics",
                  "realized quadratic covariation matches int A(X_s) ds in "
                  "ensemble mean",
                  rep.ensemble_rel_error, _CHARACTERISTICS_REL,
                  rep.ensemble_rel_error <= _CHARACTERISTICS_REL,
                  sampler=ens.sampler),
           _check("characteristics",
                  "drift residual X_T - X_0 - int B(X_s) ds is centered",
                  rep.max_drift_z, _MC_SE, rep.max_drift_z <= _MC_SE, sampler=ens.sampler)]
    return out


_SUITES = {
    "semiflow": _suite_semiflow,
    "regularity": _suite_regularity,
    "bounded": _suite_bounded,
    "cp_limit": _suite_cp_limit,
    "levy_structure": _suite_levy_structure,
    "affine_mc": _suite_affine_mc,
    "martingale": _suite_martingale,
    "characteristics": _suite_characteristics,
}
ALL_SUITES = tuple(_SUITES)


def run_verify(cfg: RunConfig, out_dir: str) -> int:
    checks = []
    for name in cfg.verify_suite:
        try:
            checks.extend(_SUITES[name](cfg))
        except TransformError as e:
            checks.append(_check(name, "verifier aborted by transform failure",
                                 math.nan, math.nan, False, error=str(e)))
    all_pass = all(c["pass"] for c in checks)
    report = {
        "task": "verify",
        "preset": cfg.preset,
        "seed": cfg.seed,
        "ode_tol": cfg.ode_tol,
        "suites": list(cfg.verify_suite),
        "checks": checks,
        "all_pass": all_pass,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    # strict JSON: every float that is not finite, at any depth, becomes null
    report = json.loads(json.dumps(report), parse_constant=lambda _: None)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    for c in checks:
        state = "SKIP" if "skipped" in c.get("detail", {}) else "PASS" if c["pass"] else "FAIL"
        print(f"[{state}] {c['check']}: statistic={c['statistic']:.4g} "
              f"threshold={c['threshold']:.4g}")
    if "ensemble" in vars(cfg):     # a Monte Carlo suite drew it
        print(f"ensemble: {_ensemble_summary(cfg.ensemble)}")
    print(f"wrote {path}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="affine-kit",
        description="Affine process transforms, simulation and verification")
    parser.add_argument("task", choices=["transform", "simulate", "verify"])
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if cfg.task != args.task:
            raise ConfigValidationError(
                f"config task {cfg.task!r} does not match command {args.task!r}")
        os.makedirs(args.out, exist_ok=True)
        run = {"transform": run_transform, "simulate": run_simulate, "verify": run_verify}
        return run[args.task](cfg, args.out)
    except ConfigParseError as e:
        print(f"config parse error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ConfigValidationError, SamplerError) as e:
        print(f"config validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
