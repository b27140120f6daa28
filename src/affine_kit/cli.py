"""Batch front end: JSON configs in, CSV/JSON reports out.

    affine-kit transform --config cfg.json --out outdir [--seed N] [--tol X]
    affine-kit simulate  --config cfg.json --out outdir [--seed N] [--tol X]
    affine-kit verify    --config cfg.json --out outdir [--seed N] [--tol X]

Exit status: 0 all requested checks pass, 1 a check failed, 2 the config
does not parse, 3 the config fails semantic validation (unresolvable
preset, grid point outside the transform domain, invalid parameters, ...).

The Monte Carlo suites of a verify run share one ensemble, simulate's, on
the mc grid linspace(0, mc.T, mc.steps + 1).  The times they read (positive
grids.t; each delta and n * delta of martingale_pairs) must lie on it.

Reports are reproducible byte for byte for a fixed config and seed; the
only run-dependent value is isolated in the single "generated_at" key.
CSV lines end in "\r\n" and every float cell holds repr's bytes, Python's
shortest round-trip form, so float(cell) gives back the exact float64 that
was computed.  The digits come from orjson's Ryu formatter, which writes
repr's bytes for +-0 and for 1e-4 <= |x| < 1e16, and from repr itself for
a row that holds any other value (_csv_rows).  In paths.csv "nan" marks a
killed (cemetery) row and "inf"/"-inf" a value that overflowed.
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
from dataclasses import dataclass, field

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
from .state_space import random_u_in_domain, space_from_config
from .transform import (
    TransformError,
    boundedness_probe,
    char_fn,
    cp_limit_check,
    evaluate_batch,
    fd_regularity,
    semiflow_residual,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3

ALL_SUITES = ("semiflow", "regularity", "bounded", "cp_limit",
              "levy_structure", "affine_mc", "martingale", "characteristics")


def _floats(v) -> list:
    return [float(x) for x in v]


# the tolerances.* keys a run reads, grouped by suite: default and converter
_TOLERANCES = {
    "ode": (1e-10, float), "semiflow": (1e-7, float),
    "semiflow_triples": (100, lambda v: _integer("tolerances.semiflow_triples", v)),
    "regularity_rel": (1e-4, float), "regularity_order": (0.9, float),
    "regularity_h": ([1e-2, 1e-3, 1e-4], _floats),
    "bounded_variation": (0.10, float), "bounded_t": ([1e-1, 1e-2, 1e-3, 1e-4, 1e-5], _floats),
    "cp_corr": (0.99, float), "cp_t": ([0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001], _floats),
    "martingale_pairs": ([[0.1, 5], [0.05, 10]], lambda v: [
        (float(d), _integer("tolerances.martingale_pairs", n)) for d, n in v]),
    "martingale_tol": (0.0, float), "martingale_stop_radius": (1.0, float),
    "characteristics_rel": (0.05, float),
}


class ConfigParseError(Exception):
    pass


class ConfigValidationError(Exception):
    pass


def _parse_complex_vector(entry, d: int) -> np.ndarray:
    """JSON encoding of u: each component a number or a [re, im] pair."""
    if not isinstance(entry, (list, tuple)) or len(entry) != d:
        raise ConfigParseError(f"u entry {entry!r} is not a length-{d} vector")
    out = np.empty(d, dtype=complex)
    for i, c in enumerate(entry):
        if isinstance(c, (int, float)):
            out[i] = complex(c)
        elif isinstance(c, (list, tuple)) and len(c) == 2:
            out[i] = complex(float(c[0]), float(c[1]))
        else:
            raise ConfigParseError(f"component {c!r} is neither a number nor [re, im]")
    return out


def _measure_from_json(entries, d: int) -> LevyMeasure:
    atoms = []
    for e in entries:
        atoms.append((float(e["w"]), np.asarray(e["xi"], dtype=float).reshape(d)))
    return LevyMeasure.from_atoms(atoms, dim=d) if atoms else LevyMeasure.empty(d)


def _params_from_json(space, spec: dict) -> AffineParams:
    d = space.dim
    base = AffineParams.zeros(space)
    kw = {k: np.asarray(spec[k], dtype=float)
          for k in ("a", "alpha", "b", "beta", "gamma") if k in spec}
    if "c" in spec:
        kw["c"] = float(spec["c"])
    if "m" in spec:
        kw["m_measure"] = _measure_from_json(spec["m"], d)
    if "mu" in spec:
        mus = spec["mu"]
        if len(mus) != d:
            raise ConfigParseError(f"'mu' must list {d} measures")
        kw["mu_measures"] = tuple(_measure_from_json(m, d) for m in mus)
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
    tolerances: dict = field(default_factory=dict)     # every key of _TOLERANCES, converted

    @property
    def space(self):
        return self.params.space

    @functools.cached_property
    def ensemble(self):
        """The run's one ensemble on the mc grid (module docstring); every
        Monte Carlo suite reads its arrays, and none may write them."""
        return simulate_ensemble(self.params, self.x_grid[0], self.horizon, self.n_steps,
                                 self.seed, self.n_paths)


def load_config(path: str, seed_override=None, tol_override=None) -> RunConfig:
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
    if not isinstance(raw, dict):
        raise ConfigParseError("config must be a JSON object")

    task = raw.get("task")
    if task not in ("transform", "simulate", "verify"):
        raise ConfigParseError(f"task must be transform|simulate|verify, got {task!r}")

    preset = raw.get("preset")
    if preset is not None:
        if preset not in presets.PRESET_NAMES:
            raise ConfigParseError(
                f"unknown preset {preset!r}; known: {presets.PRESET_NAMES}")
        params = presets.get(preset)
    else:
        if "space" not in raw or "params" not in raw:
            raise ConfigParseError("config needs either 'preset' or 'space' + 'params'")
        try:
            space = space_from_config(raw["space"])
            params = _params_from_json(space, raw["params"])
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigParseError(f"bad space/params spec: {e}") from e

    suite = raw.get("verify_suite", list(ALL_SUITES))
    if not isinstance(suite, list) or any(s not in ALL_SUITES for s in suite):
        raise ConfigParseError(f"verify_suite entries must be among {ALL_SUITES}")

    grids = raw.get("grids", {})
    if not isinstance(grids, dict):
        raise ConfigParseError("grids must be a JSON object")
    d = params.dim
    t_grid = _parsed("grids.t", lambda v: np.asarray(v, dtype=float),
                     grids.get("t", [0.05, 0.1, 0.2, 0.4]))
    if t_grid.ndim != 1 or not np.all((t_grid >= 0) & (t_grid < np.inf)):
        raise ConfigParseError("grids.t must be a list of finite nonnegative times")
    u_grid = [_parse_complex_vector(e, d) for e in grids.get("u", _default_u_grid(d))]
    x_default = [params.space.affine_basis()[-1].tolist()]
    x_grid = _parsed("grids.x", lambda v: [np.asarray(x, dtype=float).reshape(d) for x in v],
                     grids.get("x", x_default))

    mc = raw.get("mc", {})
    if not isinstance(mc, dict):
        raise ConfigParseError("mc must be a JSON object")
    seed = _integer("mc.seed", mc.get("seed", 0) if seed_override is None else seed_override)
    tols = raw.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigParseError("tolerances must be a JSON object")
    tolerances = {k: _parsed(f"tolerances.{k}", convert, tols.get(k, default))
                  for k, (default, convert) in _TOLERANCES.items()}
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
        horizon=_parsed("mc.T", float, mc.get("T", max(float(t_grid.max(initial=0.0)), 0.5))),
        seed=seed,
        ode_tol=tolerances["ode"] if tol_override is None else float(tol_override),
        tolerances=tolerances,
    )
    _validate_config(cfg)
    return cfg


def _integer(name: str, value) -> int:
    """An integral JSON number as an int; anything else does not parse."""
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise ConfigParseError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _parsed(name: str, convert, value):
    """convert(value); a value it cannot convert does not parse."""
    try:
        return convert(value)
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
    outside = ~(cfg.space.support(np.reshape(cfg.u_grid, (-1, cfg.params.dim))) < math.inf)
    if outside.any():
        raise ConfigValidationError(f"grid point u={cfg.u_grid[outside.argmax()]} lies "
                                    "outside the transform domain: support(u)=inf")
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
    tols = cfg.tolerances
    # the probes' step lists: finite, positive, decreasing, and long enough to fit
    for key, least in (("regularity_h", 3), ("bounded_t", 1), ("cp_t", 2)):
        steps = np.asarray(tols[key])
        if len(steps) < least or not (np.all((steps > 0) & (steps < math.inf))
                                      and np.all(np.diff(steps) < 0)):
            raise ConfigValidationError(f"tolerances.{key} must hold >= {least} finite, "
                                        f"positive, decreasing values, got {tols[key]}")
    if not all(0 < delta < math.inf and n >= 1 for delta, n in tols["martingale_pairs"]):
        raise ConfigValidationError("tolerances.martingale_pairs must be [delta, n] pairs with "
                                    f"0 < delta < inf and n >= 1, got {tols['martingale_pairs']}")
    if tols["semiflow_triples"] < 1 or not tols["martingale_stop_radius"] >= 0:
        raise ConfigValidationError("tolerances.semiflow_triples must be >= 1 and "
                                    "tolerances.martingale_stop_radius >= 0")
    if cfg.task == "verify":   # the times the Monte Carlo suites read lie on the mc grid
        grid = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
        reads = [t for t in cfg.t_grid if t > 0] if "affine_mc" in cfg.verify_suite else []
        if "martingale" in cfg.verify_suite:
            reads += [t for delta, n in tols["martingale_pairs"] for t in (delta, n * delta)]
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
    """Row j of the C-contiguous float64 matrix num as b"c0,c1,...", every
    cell repr(float(cell)) byte for byte.

    orjson's Ryu digits equal repr's for +-0 and for 1e-4 <= |x| < 1e16.
    Outside that range the notation differs (nan and inf become null, tiny
    values are written positionally), so a row holding such a cell is
    formatted with repr instead.
    """
    import orjson   # only the CSV writers need it; verify never loads it
    if not len(num):
        return []
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
    t_cells = [c + b"," for c in _csv_rows(ens.times[:, None])]    # formatted once
    with open(path, "wb") as fh:
        fh.write(",".join(["path_id", "t", *(f"x_{i+1}" for i in range(d)), "alive"]).encode()
                 + b"\r\n")
        for i in range(ens.n_paths):    # one write per path; each line starts with its id
            # orjson serializes only C-contiguous arrays
            x_rows = _csv_rows(np.ascontiguousarray(ens.states[i]))
            au = int(ens.alive_until[i])
            alive = [b",1\r\n"] * au + [b",0\r\n"] * (n_t - au)
            head = b"%d," % i
            fh.write(head + head.join(map(b"".join, zip(t_cells, x_rows, alive))))
    killed = float(np.mean(ens.alive_until < n_t))
    print(f"wrote {path} ({ens.n_paths} paths x {n_t} times; "
          f"clamps {ens.clamps}, jump-cap overflows {ens.jump_overflows}, "
          f"killed share {killed:.4g})")
    return EXIT_OK


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
    n_triples = cfg.tolerances["semiflow_triples"]
    thr = cfg.tolerances["semiflow"]
    rng = np.random.default_rng(cfg.seed)
    triples = [(rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3),
                random_u_in_domain(cfg.space, rng)) for _ in range(n_triples)]
    t, s, u = zip(*triples)
    worst = float(np.max(semiflow_residual(cfg.params, t, s, u, cfg.ode_tol)))
    return [_check("semiflow", "transform composition law phi(t+s,u) = phi(t,u) + "
                   "phi(s,psi(t,u)), psi(t+s,u) = psi(s,psi(t,u))",
                   worst, thr, worst <= thr, triples=n_triples)]


def _suite_regularity(cfg: RunConfig) -> list:
    thr_rel = cfg.tolerances["regularity_rel"]
    thr_order = cfg.tolerances["regularity_order"]
    out = []
    for u in cfg.u_grid[:3]:
        probe = fd_regularity(cfg.params, u, cfg.tolerances["regularity_h"], cfg.ode_tol)
        ok = probe.rel_error_est <= thr_rel and probe.observed_order >= thr_order
        out.append(_check(
            "regularity",
            "existence of the transform's time derivatives at t=0+ "
            "(difference quotients recover F and R)",
            probe.rel_error_est, thr_rel, ok,
            observed_order=(None if math.isinf(probe.observed_order)
                            else probe.observed_order),
            u=[[c.real, c.imag] for c in u]))
    return out


def _suite_bounded(cfg: RunConfig) -> list:
    thr = cfg.tolerances["bounded_variation"]
    d = cfg.params.dim
    rng = np.random.default_rng(cfg.seed + 1)
    z = rng.standard_normal((20, d))
    grid = [1j * row / max(np.linalg.norm(row), 1e-12) for row in z]
    table = boundedness_probe(cfg.params, grid, cfg.tolerances["bounded_t"], cfg.ode_tol)
    tail = table.sup[-3:]
    variation = float((tail.max() - tail.min()) / max(tail.min(), 1e-300))
    ok = variation <= thr and not table.divergence_suspected
    return [_check("bounded", "small-time boundedness of |phi(t,u)|/t + "
                   "|psi(t,u)-u|/t on a compact u-grid",
                   variation, thr, ok, sup_by_t=list(map(float, table.sup)))]


def _suite_cp_limit(cfg: RunConfig) -> list:
    thr_corr = cfg.tolerances["cp_corr"]
    out = []
    pairs = [(x, u) for x in cfg.x_grid[:3] for u in cfg.u_grid[:3]][:3]
    for x, u in pairs:
        table = cp_limit_check(cfg.params, x, u, cfg.tolerances["cp_t"], cfg.ode_tol)
        err = np.maximum(table.errors, 1e-15)
        corr = float(np.corrcoef(np.log(table.t), np.log(err))[0, 1])
        slope_c = float(np.max(err / table.t))
        ok = corr >= thr_corr
        out.append(_check(
            "cp_limit",
            "small-time limit of the centered transform difference quotient "
            "towards (F(u)+c) + <x, R(u)+gamma>, with linear error decay",
            corr, thr_corr, ok,
            fitted_linear_constant=slope_c,
            x=list(map(float, x)), u=[[c.real, c.imag] for c in u]))
    return out


def _suite_levy_structure(cfg: RunConfig) -> list:
    p = cfg.params
    report = p.validate()
    out = [_check("levy_structure", "admissibility of the state-affine "
                  "characteristics (PSD diffusion, nonnegative jump weights, "
                  "nonnegative killing rate, jumps that land in D)",
                  float(len(report.violations)), 0.0, report.valid,
                  checked_points=report.checked_points, notes=list(report.notes))]
    # real part of the exponent is maximal at the origin of the imaginary axis
    rng = np.random.default_rng(cfg.seed + 2)
    U = np.vstack([np.zeros(p.dim), 1j * (rng.standard_normal((100, p.dim)) * 2.0)])
    R = np.empty_like(U)
    F = p.F_eval(U, R_out=R)
    # row 0 is y = 0; one column per point x of the affine basis
    val = (F[:, None] + R @ np.asarray(p.space.affine_basis(), dtype=float).T).real
    worst = (val[1:] - val[0]).max()
    thr = 1e-12
    out.append(_check("levy_structure",
                      "Re(F(iy) + <x, R(iy)>) is maximized at y = 0",
                      worst, thr, worst <= thr))
    return out


def _up_to_conjugates(us: list) -> list:
    """The u of us whose complex conjugate is not an earlier entry.  X is
    real, so the estimate and the reference at conj(u) are the conjugates of
    those at u, and a check at conj(u) repeats the check at u."""
    return [u for k, u in enumerate(us)
            if not any(np.array_equal(np.conj(u), v) for v in us[:k])]


def _suite_affine_mc(cfg: RunConfig) -> list:
    x0 = cfg.x_grid[0]
    ens = cfg.ensemble
    out = []
    for t in cfg.t_grid:
        if t <= 0:
            continue
        for u in _up_to_conjugates(cfg.u_grid[:3]):
            est = mc_char_fn(ens, float(t), u)
            ref = char_fn(cfg.params, x0, float(t), u, cfg.ode_tol)
            gap = abs(est.value - ref)
            thr = 3.0 * est.std_error
            out.append(_check(
                "affine_mc",
                "exponential-affine dependence of the Fourier-Laplace transform "
                "on the initial state (Monte Carlo vs Riccati)",
                gap, thr, gap <= thr,
                t=float(t), u=[[c.real, c.imag] for c in u],
                std_error=est.std_error, sampler=ens.sampler))
    return out


def _suite_martingale(cfg: RunConfig) -> list:
    tol = cfg.tolerances["martingale_tol"]
    radius = cfg.tolerances["martingale_stop_radius"]
    ens = cfg.ensemble
    stopped = stopped_ensemble(ens, radius)
    out = []
    for delta, n in cfg.tolerances["martingale_pairs"]:
        for label, e in (("unstopped", ens), ("stopped", stopped)):
            for u in _up_to_conjugates(cfg.u_grid[:3]):
                est = martingale_L_test(cfg.params, e, delta, n, u, cfg.ode_tol)
                gap = abs(est.value - 1.0)
                thr = max(3.0 * est.std_error, tol)
                out.append(_check(
                    "martingale",
                    "unit mean of the exponential compensated functional "
                    "L(n, delta, u), stopped and unstopped",
                    gap, thr, gap <= thr,
                    delta=delta, n=n, mode=label,
                    u=[[c.real, c.imag] for c in u], sampler=ens.sampler))
    return out


def _suite_characteristics(cfg: RunConfig) -> list:
    thr = cfg.tolerances["characteristics_rel"]
    if cfg.params.has_jumps or cfg.params.has_killing:
        # a check that does not apply is not a failure; the entry keeps the suite named
        return [_check("characteristics",
                       "realized quadratic covariation vs int A(X_s) ds "
                       "(diffusion-only check)",
                       math.nan, thr, True,
                       skipped="process has jumps or killing; check not applicable")]
    ens = cfg.ensemble
    rep = characteristics_check(ens, cfg.params)
    out = [_check("characteristics",
                  "realized quadratic covariation matches int A(X_s) ds in "
                  "ensemble mean",
                  rep.ensemble_rel_error, thr, rep.ensemble_rel_error <= thr,
                  sampler=ens.sampler),
           _check("characteristics",
                  "drift residual X_T - X_0 - int B(X_s) ds is centered",
                  rep.max_drift_z, 3.0, rep.max_drift_z <= 3.0, sampler=ens.sampler)]
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
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    for c in checks:
        state = "SKIP" if "skipped" in c.get("detail", {}) else "PASS" if c["pass"] else "FAIL"
        print(f"[{state}] {c['check']}: statistic={c['statistic']:.4g} "
              f"threshold={c['threshold']:.4g}")
    print(f"wrote {path}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="affine-kit",
        description="Affine process transforms, simulation and verification")
    parser.add_argument("task", choices=["transform", "simulate", "verify"])
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--tol", type=float, default=None, help="override tolerances.ode")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed_override=args.seed, tol_override=args.tol)
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
