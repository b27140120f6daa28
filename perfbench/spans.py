"""Per-layer spans recorded around calls into affine_kit's public functions.

Tracing patches nothing in the package's source: `Tracer.installed()`
replaces each traced function by a recording wrapper wherever a module of
the package binds it (and the methods on `AffineParams`, and the entries of
the CLI's verify suite table), then puts the originals back.  A span is
(run, id, parent, name, start, end); ids grow in call order, so a parent's
id is below its children's.  A layer's self time is its spans' durations
minus the time their child spans cover.

A traced function that the package no longer has is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from affine_kit.state_space import CanonicalOrthantPlane, HalfLine

# (span name, module, attribute); a dotted attribute is a method.
TARGETS = (
    ("params.F_eval", "affine_kit.params", "AffineParams.F_eval"),
    ("params.R_eval", "affine_kit.params", "AffineParams.R_eval"),
    ("params.validate", "affine_kit.params", "AffineParams.validate"),
    ("transform.evaluate", "affine_kit.transform", "evaluate"),
    ("transform.evaluate_grid", "affine_kit.transform", "evaluate_grid"),
    ("transform.semiflow_residual", "affine_kit.transform", "semiflow_residual"),
    ("transform.fd_regularity", "affine_kit.transform", "fd_regularity"),
    ("transform.boundedness_probe", "affine_kit.transform", "boundedness_probe"),
    ("transform.cp_limit_check", "affine_kit.transform", "cp_limit_check"),
    ("transform.char_fn", "affine_kit.transform", "char_fn"),
    ("simulate.simulate_ensemble", "affine_kit.simulate", "simulate_ensemble"),
    ("simulate.simulate_parabola_ensemble", "affine_kit.simulate",
     "simulate_parabola_ensemble"),
    ("simulate.mc_char_fn", "affine_kit.simulate", "mc_char_fn"),
    ("simulate.martingale_L_test", "affine_kit.simulate", "martingale_L_test"),
    ("simulate.stopped_ensemble", "affine_kit.simulate", "stopped_ensemble"),
    ("simulate.characteristics_check", "affine_kit.simulate", "characteristics_check"),
    ("cli.load_config", "affine_kit.cli", "load_config"),
    ("cli.run_transform", "affine_kit.cli", "run_transform"),
    ("cli.run_simulate", "affine_kit.cli", "run_simulate"),
    ("cli.run_verify", "affine_kit.cli", "run_verify"),
)
SUITE_TABLE = ("affine_kit.cli", "_SUITES")
SUITES = ("semiflow", "regularity", "bounded", "cp_limit", "levy_structure",
          "affine_mc", "martingale", "characteristics")

EXPONENT = {"params.F_eval", "params.R_eval"}
INTEGRATIONS = {"transform.evaluate", "transform.evaluate_grid"}
PROBES = {"transform.semiflow_residual", "transform.fd_regularity",
          "transform.boundedness_probe", "transform.cp_limit_check", "transform.char_fn"}
ENSEMBLES = {"simulate.simulate_ensemble", "simulate.simulate_parabola_ensemble"}
ESTIMATORS = {"simulate.mc_char_fn", "simulate.martingale_L_test",
              "simulate.stopped_ensemble", "simulate.characteristics_check"}
WRITERS = {"cli.run_transform", "cli.run_simulate", "cli.run_verify"}
OBSERVE = "trace.observe"
# metric prefixes of the layers timed inside a task run
IN_RUN = ("params.", "transform.", "simulate.", "cli.")


def package_modules() -> list:
    """Every imported module of the affine_kit package."""
    return [mod for name, mod in list(sys.modules.items())
            if name == "affine_kit" or name.startswith("affine_kit.")]


class Tracer:
    """Spans of one traced task run, kept in memory."""

    def __init__(self, run: int = 0):
        self.run = run
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._next = 0

    def record(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.run, sid, parent, name, t0, t1))

    def _wrapper(self, name: str, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.record(name, fn, *args, **kwargs)
            if observe is not None:
                self.record(OBSERVE, observe, self.counters, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        undo = []
        try:
            for name, module, attr in TARGETS:
                mod = sys.modules.get(module)
                if mod is None:
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        continue
                    orig = vars(cls)[meth]
                    setattr(cls, meth, self._wrapper(name, orig, OBSERVERS.get(name)))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapped = self._wrapper(name, orig, OBSERVERS.get(name))
                for holder in package_modules():
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, key, wrapped)
                            undo.append((holder, key, orig))
            table = getattr(sys.modules.get(SUITE_TABLE[0]), SUITE_TABLE[1], {})
            for suite, orig in list(table.items()):
                table[suite] = self._wrapper(f"cli.suite.{suite}", orig, None)
                undo.append((table, suite, orig))
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                if isinstance(holder, dict):
                    holder[key] = orig
                else:
                    setattr(holder, key, orig)

    def dump(self, path, header: dict) -> None:
        """Write a header line, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- counters read from results --------------------------------------------


def _observe_evaluate(counters, _args, result):
    counters["steps"] += result.steps


def _observe_evaluate_grid(counters, _args, result):
    # every row of one sweep carries the sweep's step count
    if result:
        counters["steps"] += result[0].steps


def _observe_ensemble(counters, args, result):
    ens = result[0] if isinstance(result, tuple) else result
    n_paths, n_times, d = ens.states.shape
    counters["paths"] += n_paths
    counters["path_steps"] += n_paths * (n_times - 1)
    counters["killed"] += int(np.sum(ens.alive_until < n_times))
    nbytes = ens.states.nbytes + ens.alive_until.nbytes + ens.times.nbytes
    counters["ensemble_bytes"] = max(counters["ensemble_bytes"], nbytes)
    space = args[0].space if args and hasattr(args[0], "space") else None
    m = 1 if isinstance(space, HalfLine) else (
        space.m if isinstance(space, CanonicalOrthantPlane) else 0)
    alive = np.arange(1, n_times)[None, :] < ens.alive_until[:, None]
    counters["alive_path_steps"] += int(alive.sum())
    if m:
        # full truncation stores a clamped coordinate as exactly 0.0
        at_zero = (ens.states[:, 1:, :m] == 0.0).any(axis=2)
        counters["clamped_path_steps"] += int(np.sum(at_zero & alive))


OBSERVERS = {
    "transform.evaluate": _observe_evaluate,
    "transform.evaluate_grid": _observe_evaluate_grid,
    "simulate.simulate_ensemble": _observe_ensemble,
    "simulate.simulate_parabola_ensemble": _observe_ensemble,
}


# -- aggregation -------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times of one traced task run."""
    spans = sorted(tracer.spans, key=lambda s: s[1])
    covered: Counter = Counter()
    for _run, _sid, parent, _name, t0, t1 in spans:
        covered[parent] += t1 - t0
    in_transform: dict = {}
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    rhs_in_transform = 0
    for _run, sid, parent, name, t0, t1 in spans:
        in_transform[sid] = name in INTEGRATIONS or in_transform.get(parent, False)
        if name == "params.F_eval" and in_transform[sid]:
            rhs_in_transform += 1
        self_s[name] += (t1 - t0) - covered[sid]
        total_s[name] += t1 - t0
        calls[name] += 1

    def group(names, table):
        return sum(table[n] for n in names)

    c = tracer.counters
    ensemble_s = group(ENSEMBLES, self_s)
    out = {
        "params.exponent_calls": group(EXPONENT, calls),
        "params.exponent_s": group(EXPONENT, self_s),
        "params.validate_calls": calls["params.validate"],
        "params.validate_s": self_s["params.validate"],
        "transform.evaluate_calls": calls["transform.evaluate"],
        "transform.evaluate_s": self_s["transform.evaluate"],
        "transform.evaluate_grid_calls": calls["transform.evaluate_grid"],
        "transform.evaluate_grid_s": self_s["transform.evaluate_grid"],
        "transform.steps": c["steps"],
        "transform.rhs_per_step": rhs_in_transform / c["steps"] if c["steps"] else 0.0,
        "transform.probe_s": group(PROBES, self_s),
        "simulate.ensemble_calls": group(ENSEMBLES, calls),
        "simulate.ensemble_s": ensemble_s,
        "simulate.path_steps": c["path_steps"],
        "simulate.ns_per_path_step": (1e9 * ensemble_s / c["path_steps"]
                                      if c["path_steps"] else 0.0),
        "simulate.ensemble_mb": c["ensemble_bytes"] / 1e6,
        "simulate.killed_share": c["killed"] / c["paths"] if c["paths"] else 0.0,
        "simulate.clamped_share": (c["clamped_path_steps"] / c["alive_path_steps"]
                                   if c["alive_path_steps"] else 0.0),
        "simulate.estimator_s": group(ESTIMATORS, self_s),
        "cli.load_config_s": self_s["cli.load_config"],
        "cli.write_s": group(WRITERS, self_s),
    }
    for suite in SUITES:
        out[f"cli.suite_s.{suite}"] = total_s[f"cli.suite.{suite}"]
    return out
