"""Seeded workload configs and the output checks that judge each run.

Each workload is one `affine-kit` task run through `affine_kit.cli.main`:

* ``transform-svj``: ``transform`` on a 2-d stochastic-volatility process with
  jumps and killing on R_+ x R, 64 seeded u times 6 horizons.  All time goes
  into the Riccati integrator and the exponent; 64 independent u lanes.
* ``simulate-svj``: ``simulate`` on the same process, 250 paths x 400 steps.
  It runs every Euler branch (state-dependent 2x2 diffusion, jumps in m and
  mu^1, killing, full-truncation clamps) and the CSV writer.  250 rather
  than 1000 paths keeps a task run near one second, so a run times enough
  of them for a steady fastest one.
* ``verify-cir``: ``verify`` on the ``cir`` preset at its default config: all
  eight suites, short chained transform calls and d = 1 jump-free ensembles
  that estimators read rather than write.

The program sees only the JSON config generated here.  The checks compare
its outputs with references computed by this file: an independent Riccati
solve (transform), the in-memory ensemble (simulate) and the report's own
consistency (verify).  ``out_of_tol`` counts outputs outside their stated
tolerance; ``correct`` is false only for outputs that are wrong outright.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from affine_kit import AffineParams, CanonicalOrthantPlane, LevyMeasure, simulate_ensemble

WORKLOADS = ("transform-svj", "simulate-svj", "verify-cir")

ODE_TOL = 1e-10
T_GRID = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)
N_U = 64
X0 = (0.04, 0.0)
SIGMA, RHO = 0.5, -0.7

# The process shared by transform-svj and simulate-svj, in the CLI's JSON
# encoding: alpha^1 = [[s^2, rho s], [rho s, 1]], b = (0.08, 0),
# beta^1 = (-2, -0.5), c = 0.02, gamma = (0.1, 0), m with atoms (0, +-0.1)
# of weight 0.5 and (0.05, 0) of weight 0.3, mu^1 with atom (0, -0.2) of
# weight 2.
SVJ_SPACE = {"kind": "orthant_plane", "m": 1, "n": 1}
SVJ_PARAMS = {
    "alpha": [[[SIGMA ** 2, RHO * SIGMA], [RHO * SIGMA, 1.0]],
              [[0.0, 0.0], [0.0, 0.0]]],
    "b": [0.08, 0.0],
    "beta": [[-2.0, -0.5], [0.0, 0.0]],
    "c": 0.02,
    "gamma": [0.1, 0.0],
    "m": [{"w": 0.5, "xi": [0.0, 0.1]},
          {"w": 0.5, "xi": [0.0, -0.1]},
          {"w": 0.3, "xi": [0.05, 0.0]}],
    "mu": [[{"w": 2.0, "xi": [0.0, -0.2]}], []],
}

# Gross error above which a transform value is wrong rather than imprecise,
# relative to 1 + |ref|.  The stated tolerance is 100 * ode_tol (1e-8).
TRANSFORM_WRONG = 1e-6
# %.12g keeps 12 significant digits: relative rounding below 5e-12.
CSV_WRONG = 1e-11


def make_config(workload: str, seed: int, small: bool = False) -> dict:
    """The JSON config of `workload` for `seed`; `small` shrinks it for self-tests."""
    if workload == "transform-svj":
        rng = np.random.default_rng(seed)
        n_u = 4 if small else N_U
        u_grid = []
        for _ in range(n_u):
            re1 = -float(rng.uniform(0.0, 1.5))
            im1, im2 = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))
            u_grid.append([[re1, im1], [0.0, im2]])
        return {"task": "transform", "space": SVJ_SPACE, "params": SVJ_PARAMS,
                "grids": {"t": list(T_GRID), "u": u_grid, "x": [list(X0)]},
                "tolerances": {"ode": ODE_TOL}}
    if workload == "simulate-svj":
        paths, steps = (20, 40) if small else (250, 400)
        return {"task": "simulate", "space": SVJ_SPACE, "params": SVJ_PARAMS,
                "grids": {"x": [list(X0)]},
                "mc": {"paths": paths, "steps": steps, "T": 1.0, "seed": seed}}
    if workload == "verify-cir":
        # The preset's default config, Monte Carlo seed included: the seed
        # does not enter, so every run measures the same verdicts.
        cfg = {"task": "verify", "preset": "cir"}
        if small:
            cfg["mc"] = {"paths": 200, "steps": 40}
            cfg["tolerances"] = {"semiflow_triples": 5}
        return cfg
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def output_files(out_dir: Path) -> list:
    return sorted(p for p in out_dir.iterdir() if p.is_file())


def output_digest(out_dir: Path) -> str:
    """Hash of every output file, with report.json's generated_at removed."""
    h = hashlib.sha256()
    for path in output_files(out_dir):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("generated_at", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest()


def operations(workload: str, cfg: dict, out_dir: Path, code) -> tuple:
    """(attempted, failed) operations of one task run.

    An operation is a transform row, a simulate run or a verify check.  A
    task that raised or exited 2 or 3 counts as one failed operation; exit 1
    from verify is a verdict.  A transform row whose status is not ok and a
    verify check aborted by a TransformError are failed operations.
    """
    if code not in (0, 1) or (code == 1 and workload != "verify-cir"):
        return 1, 1
    if workload == "transform-svj":
        rows = _read_transform_csv(out_dir / "transform.csv")[1]
        return len(rows), sum(r[-1] != "ok" for r in rows)
    if workload == "simulate-svj":
        return 1, 0
    checks = json.loads((out_dir / "report.json").read_text())["checks"]
    aborted = sum("error" in c.get("detail", {}) for c in checks)
    return max(len(checks), 1), aborted


# ---------------------------------------------------------------------------
# transform-svj: independent reference


def _exponent(params: dict, d: int):
    """[F, R](U) for a batch U of shape (n, d), built from the JSON tuple."""
    a = np.asarray(params.get("a", np.zeros((d, d))), dtype=float)
    alpha = np.asarray(params["alpha"], dtype=float)
    b = np.asarray(params["b"], dtype=float)
    beta = np.asarray(params["beta"], dtype=float)
    c = float(params["c"])
    gamma = np.asarray(params["gamma"], dtype=float)

    def atoms(entries):
        w = np.array([e["w"] for e in entries], dtype=float)
        xi = np.array([e["xi"] for e in entries], dtype=float).reshape(len(entries), d)
        h = xi * (np.linalg.norm(xi, axis=1) <= 1.0)[:, None]
        return w, xi, h

    m = atoms(params["m"])
    mus = [atoms(e) for e in params["mu"]]

    def jumps(U, measure):
        w, xi, h = measure
        if not len(w):
            return 0.0
        return (np.exp(U @ xi.T) - 1.0 - U @ h.T) @ w

    def FR(U):
        F = 0.5 * np.einsum("ni,ij,nj->n", U, a, U) + U @ b - c + jumps(U, m)
        R = np.stack([0.5 * np.einsum("ni,ij,nj->n", U, alpha[i], U) + U @ beta[i]
                      - gamma[i] + jumps(U, mus[i]) for i in range(d)], axis=1)
        return F, R

    return FR


def transform_reference(cfg: dict, cache_dir: Path) -> tuple:
    """(phi, psi) of shapes (n_u, n_t) and (n_u, n_t, d) at the config's grid.

    Solves the Riccati system for all u at once with scipy's DOP853 at
    rtol = atol = 1e-13, stopping exactly at each grid time.  Cached on disk
    by config hash.
    """
    key = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
    cache = cache_dir / f"oracle-{key}.npz"
    if cache.is_file():
        with np.load(cache) as z:
            return z["phi"], z["psi"]
    # imported here, after the timed runs, so it adds nothing to peak_rss_mb
    from scipy.integrate import solve_ivp

    d = SVJ_SPACE["m"] + SVJ_SPACE["n"]
    U = np.array([[complex(*c) for c in u] for u in cfg["grids"]["u"]])
    n_u = U.shape[0]
    FR = _exponent(cfg["params"], d)

    def rhs(_t, y):
        F, R = FR(y.reshape(n_u, d + 1)[:, 1:])
        return np.concatenate([F[:, None], R], axis=1).ravel()

    t_grid = np.asarray(cfg["grids"]["t"], dtype=float)
    order = np.argsort(t_grid, kind="stable")
    y = np.concatenate([np.zeros((n_u, 1), dtype=complex), U], axis=1).ravel()
    phi = np.empty((n_u, len(t_grid)), dtype=complex)
    psi = np.empty((n_u, len(t_grid), d), dtype=complex)
    t_now = 0.0
    for j in order:
        if t_grid[j] > t_now:
            sol = solve_ivp(rhs, (t_now, t_grid[j]), y, method="DOP853",
                            rtol=1e-13, atol=1e-13)
            if not sol.success:
                raise RuntimeError(f"reference solve failed: {sol.message}")
            y, t_now = sol.y[:, -1], float(t_grid[j])
        state = y.reshape(n_u, d + 1)
        phi[:, j], psi[:, j] = state[:, 0], state[:, 1:]
    cache_dir.mkdir(parents=True, exist_ok=True)
    np.savez(cache, phi=phi, psi=psi)
    return phi, psi


def _read_transform_csv(path: Path) -> tuple:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_transform(cfg: dict, out_dir: Path, cache_dir: Path) -> dict:
    header, rows = _read_transform_csv(out_dir / "transform.csv")
    d = 2
    t_grid = np.asarray(cfg["grids"]["t"], dtype=float)
    U = np.array([[complex(*c) for c in u] for u in cfg["grids"]["u"]])
    want_header = (["t", "re_u1", "re_u2", "im_u1", "im_u2", "re_phi", "im_phi",
                    "re_psi1", "re_psi2", "im_psi1", "im_psi2", "status"])
    n_rows = len(U) * len(t_grid)
    if header != want_header or len(rows) != n_rows:
        return {"correct": False, "out_of_tol": n_rows, "of": n_rows, "unit": "rows",
                "max_err": math.inf, "note": f"layout: header {header}, {len(rows)} rows"}
    ref_phi, ref_psi = transform_reference(cfg, cache_dir)
    num = np.array([[float(v) for v in r[:-1]] for r in rows]).reshape(len(U), len(t_grid), -1)
    t = num[..., 0]
    u = num[..., 1:1 + d] + 1j * num[..., 1 + d:1 + 2 * d]
    phi = num[..., 1 + 2 * d] + 1j * num[..., 2 + 2 * d]
    psi = num[..., 3 + 2 * d:3 + 3 * d] + 1j * num[..., 3 + 3 * d:3 + 4 * d]
    status_ok = np.array([r[-1] == "ok" for r in rows]).reshape(len(U), len(t_grid))

    grid_ok = (np.allclose(t, t_grid[None, :], rtol=CSV_WRONG, atol=0.0)
               and np.allclose(u, U[:, None, :], rtol=CSV_WRONG, atol=CSV_WRONG))
    err_phi = np.abs(phi - ref_phi) / (1.0 + np.abs(ref_phi))
    err_psi = np.linalg.norm(psi - ref_psi, axis=2) / (1.0 + np.linalg.norm(ref_psi, axis=2))
    rel = np.maximum(err_phi, err_psi)
    raw = max(float(np.abs(phi - ref_phi).max()), float(np.abs(psi - ref_psi).max()))
    tol = 100.0 * cfg["tolerances"]["ode"]
    return {
        "correct": bool(grid_ok and status_ok.all() and np.all(rel <= TRANSFORM_WRONG)),
        "out_of_tol": int(np.sum(~(rel <= tol))),
        "of": n_rows,
        "unit": "rows",
        "rule": f"|value - reference| > {tol:g} * (1 + |reference|)",
        "max_err": raw,
    }


# ---------------------------------------------------------------------------
# simulate-svj: CSV against the in-memory ensemble


def reference_ensemble(cfg: dict):
    """simulate_ensemble on the config's arguments, through the public API."""
    spec = cfg["params"]
    space = CanonicalOrthantPlane(m=cfg["space"]["m"], n=cfg["space"]["n"])
    d = space.dim

    def measure(entries):
        return LevyMeasure.from_atoms([(e["w"], e["xi"]) for e in entries], dim=d)

    params = AffineParams.zeros(space).with_(
        alpha=np.asarray(spec["alpha"]), b=np.asarray(spec["b"]),
        beta=np.asarray(spec["beta"]), c=spec["c"], gamma=np.asarray(spec["gamma"]),
        m_measure=measure(spec["m"]),
        mu_measures=tuple(measure(e) for e in spec["mu"]))
    mc = cfg["mc"]
    return simulate_ensemble(params, np.asarray(cfg["grids"]["x"][0]), mc["T"],
                             mc["steps"], mc["seed"], mc["paths"])


def check_simulate(cfg: dict, out_dir: Path) -> dict:
    path = out_dir / "paths.csv"
    ens = reference_ensemble(cfg)
    n_paths, n_times, d = ens.states.shape
    n_cells = n_paths * n_times * (1 + d)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    want_header = ["path_id", "t"] + [f"x_{i + 1}" for i in range(d)] + ["alive"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if header != want_header or data.shape != (n_paths * n_times, 3 + d):
        return {"correct": False, "out_of_tol": n_cells, "of": n_cells, "unit": "cells",
                "note": f"layout: header {header}, shape {data.shape}"}
    data = data.reshape(n_paths, n_times, 3 + d)
    alive = np.arange(n_times)[None, :] < ens.alive_until[:, None]
    layout_ok = (np.array_equal(data[..., 0], np.broadcast_to(np.arange(n_paths)[:, None],
                                                               (n_paths, n_times)))
                 and np.array_equal(data[..., -1], alive.astype(float)))
    got = np.concatenate([data[..., 1:2], data[..., 2:2 + d]], axis=2)
    want = np.concatenate([np.broadcast_to(ens.times[None, :, None], (n_paths, n_times, 1)),
                           ens.states], axis=2)
    same_nan = np.isnan(got) == np.isnan(want)
    exact = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        close = np.abs(got - want) <= CSV_WRONG * np.abs(want) + 1e-300
    close |= np.isnan(got) & np.isnan(want)
    return {
        "correct": bool(layout_ok and same_nan.all() and close.all()),
        "out_of_tol": int(np.sum(~exact)),
        "of": n_cells,
        "unit": "cells",
        "rule": "CSV value differs from the in-memory ensemble",
    }


# ---------------------------------------------------------------------------
# verify-cir: report consistency


def check_verify(cfg: dict, out_dir: Path, code, stdout: str) -> dict:
    report = json.loads((out_dir / "report.json").read_text())
    checks = report.get("checks", [])
    fields_ok = all({"check", "property", "statistic", "threshold", "pass"} <= set(c)
                    for c in checks)
    suites = report.get("suites")
    covered = {c.get("check") for c in checks}
    n_fail = sum(not c.get("pass") for c in checks)
    printed = [ln for ln in stdout.splitlines() if ln.startswith(("[PASS]", "[FAIL]"))]
    consistent = (fields_ok
                  and report.get("task") == "verify"
                  and report.get("all_pass") == (n_fail == 0)
                  and code == (0 if n_fail == 0 else 1)
                  and set(suites or ()) == covered
                  and sum(ln.startswith("[FAIL]") for ln in printed) == n_fail
                  and len(printed) == len(checks))
    return {
        "correct": bool(consistent and checks),
        "out_of_tol": n_fail,
        "of": len(checks),
        "unit": "checks",
        "rule": "check reports FAIL",
    }
