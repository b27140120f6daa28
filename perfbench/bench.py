"""Measure one workload end to end, or per layer with tracing on.

End-to-end metrics (untraced run):

* ``setup_s``: fresh interpreter to validated config (``import
  affine_kit.cli`` plus ``load_config``), median over several interpreters,
  in seconds at the host speed where one pass of `calibrate` takes
  ``CAL_REF_S``: the median is scaled by ``CAL_REF_S`` over the run's mean
  pass time.  Raw set-up medians moved by up to 22% between sets of thirty
  runs of the same code, with the host's speed; scaled, by 1%.  The raw
  times are printed beside it.
* ``wall_norm``: mean wall time of a warm ``affine_kit.cli.main`` task run
  over the mean time of one pass of `calibrate`, the fixed reference
  computation timed after every task run, as a ratio.  On a shared 2-vCPU
  host the raw task time moves by up to 2x between runs of the same code
  (the fastest task run of ten 25-second runs spread by 20-38%); host
  slowdowns stretch task and reference alike, so their ratio holds still
  while a change to the program moves it.  A first, cold task run is left
  out.  The raw ``wall_s`` (median, quartiles, minimum and sample count) and
  the reference's times are printed beside it.
* ``peak_rss_mb``: peak resident memory of this process after the task runs,
  read before any output check allocates.

``out_of_tol`` and ``failed_share`` are printed with them; the latter is
also the ``failed``/``attempted`` pair of the result line.  The traced run
alternates traced and untraced task runs in one process and reports the
per-layer metrics of `spans` from its fastest traced task run, plus the
tracing overhead: fastest traced minus fastest untraced wall time.  No
metric of the traced run is gated, so it does not run the reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import calibrate
import spans
import workloads
from affine_kit import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_RUNS = 5
# seconds of one calibrate pass at the reference host speed; the unit setup_s
# is scaled to (a pass took 0.15-0.26 s on a shared 2-vCPU x86-64 host)
CAL_REF_S = 0.2
IMPORT_RUNS = 3
MIN_SAMPLES = 2
CHILD_TIMEOUT_S = 120

_SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import affine_kit.cli
affine_kit.cli.load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_time(cfg_path: Path) -> float:
    """Seconds from a fresh interpreter's first statement to a validated config."""
    out = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, str(cfg_path)],
                         cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def state_space_import_time() -> float:
    """Cumulative import time of affine_kit.state_space in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import affine_kit.cli"],
                         cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    for line in out.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "affine_kit.state_space":
            return int(fields[1]) * 1e-6
    raise RuntimeError("affine_kit.state_space missing from the import-time log")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "affine_kit_threads": os.environ.get("AFFINE_KIT_THREADS"),
        "machine": platform.machine(),
    }


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class TaskRunner:
    """Runs one task config through affine_kit.cli.main and tallies outcomes."""

    def __init__(self, workload: str, cfg: dict, cfg_path: Path, out_dir: Path):
        self.workload = workload
        self.cfg = cfg
        self.out_dir = out_dir
        self.argv = [cfg["task"], "--config", str(cfg_path), "--out", str(out_dir)]
        self.attempted = 0
        self.failed = 0
        self.digests: set = set()
        self.last_code = None
        self.last_stdout = ""

    def run(self, tracer: spans.Tracer | None = None) -> float:
        """One task run; returns its wall time in seconds."""
        main = cli.main
        if tracer is not None:
            def main(argv, _main=main):
                return tracer.record("cli.main", _main, argv)
        buf = io.StringIO()
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(self.argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        self.last_code, self.last_stdout = code, buf.getvalue()
        attempted, failed = workloads.operations(self.workload, self.cfg, self.out_dir, code)
        self.attempted += attempted
        self.failed += failed
        if code in (0, 1):
            self.digests.add(workloads.output_digest(self.out_dir))
        return wall

    def check(self) -> dict:
        """Judge the last run's outputs; every run must have written the same."""
        if self.last_code not in (0, 1):
            return {"correct": False, "out_of_tol": 0, "of": 0, "unit": "outputs",
                    "note": f"task exited with {self.last_code}"}
        if self.workload == "transform-svj":
            res = workloads.check_transform(self.cfg, self.out_dir, WORK)
        elif self.workload == "simulate-svj":
            res = workloads.check_simulate(self.cfg, self.out_dir)
        else:
            res = workloads.check_verify(self.cfg, self.out_dir, self.last_code,
                                         self.last_stdout)
        if len(self.digests) != 1:
            res["correct"] = False
            res["note"] = f"{len(self.digests)} distinct outputs across runs"
        return res

    def output_size(self) -> tuple:
        """(rows, bytes) written by the last run: CSV data rows or report checks."""
        rows = size = 0
        for path in workloads.output_files(self.out_dir):
            size += path.stat().st_size
            if path.suffix == ".csv":
                with open(path, "rb") as fh:
                    rows += sum(1 for _ in fh) - 1
            elif path.name == "report.json":
                rows += len(json.loads(path.read_text())["checks"])
        return rows, size


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    """Measure one workload; returns metrics, samples, checks and tallies."""
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-{seed}{'-small' if small else ''}"
    cfg = workloads.make_config(workload, seed, small)
    cfg_path = WORK / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    out_dir = WORK / f"out-{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)

    samples: dict = {}
    if trace:
        samples["state_space.import_s"] = [state_space_import_time()
                                           for _ in range(IMPORT_RUNS)]
    else:
        samples["setup_raw_s"] = [setup_time(cfg_path) for _ in range(SETUP_RUNS)]

    runner = TaskRunner(workload, cfg, cfg_path, out_dir)
    walls, traced_walls, passes = [], [], []
    fastest = None
    if not trace:
        runner.run()  # cold: first imports and caches, not timed
        passes.append(calibrate.run())
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(walls) < MIN_SAMPLES
           or (trace and len(traced_walls) < MIN_SAMPLES)):
        if trace and len(traced_walls) <= len(walls):
            tracer = spans.Tracer(run=len(traced_walls))
            with tracer.installed():
                traced_walls.append(runner.run(tracer))
            if traced_walls[-1] == min(traced_walls):
                fastest = tracer
        else:
            walls.append(runner.run())
            if not trace:
                passes.append(calibrate.run())
    rss = peak_rss_mb()
    samples["wall_s"] = walls

    check = runner.check()
    metrics = {}
    if trace:
        rows, size = runner.output_size()
        metrics.update(spans.layer_metrics(fastest))
        metrics["state_space.import_s"] = statistics.median(samples["state_space.import_s"])
        metrics["transform.max_err"] = check.get("max_err", 0.0)
        metrics["cli.rows_written"] = rows
        metrics["cli.bytes_written"] = size
        metrics["trace.wall_s"] = min(traced_walls)
        metrics["trace.overhead_s"] = min(traced_walls) - min(walls)
        samples["trace.wall_s"] = traced_walls
    else:
        metrics["setup_s"] = (CAL_REF_S * statistics.median(samples["setup_raw_s"])
                              / statistics.fmean(passes))
        metrics["wall_norm"] = statistics.fmean(walls) / statistics.fmean(passes)
        metrics["peak_rss_mb"] = rss
        samples["calibrate_s"] = passes
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "metrics": metrics,
        "samples": samples,
        "check": check,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "provenance": provenance(),
    }
    if trace:
        fastest.dump(WORK / f"spans-{tag}.jsonl",
                     {k: result[k] for k in ("workload", "seed", "provenance")})
    return result


def declared_metrics(trace: bool) -> list:
    spec = json.loads(SPEC.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def summary_lines(result: dict, declared: list) -> list:
    m = result["metrics"]
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"trace {int(result['trace'])}",
             "provenance " + json.dumps(result["provenance"], sort_keys=True)]
    for spec in declared:
        name = spec["name"]
        line = f"{name:34s} {m[name]:>14.6g} {spec['unit']}"
        vals = result["samples"].get(name)
        if vals:
            q1, q3 = quartiles(vals)
            line += (f"  {len(vals)} samples: min {min(vals):.4g}, q1 {q1:.4g}, "
                     f"median {statistics.median(vals):.4g}, q3 {q3:.4g}")
        if result["trace"] and spec["unit"] == "s" and name.startswith(spans.IN_RUN):
            line += f"  ({100 * m[name] / m['trace.wall_s']:.1f}% of traced wall)"
        lines.append(line)
    for name, label in (("setup_raw_s", "setup_raw_s"),
                        ("wall_s", "untraced wall_s" if result["trace"] else "wall_s"),
                        ("calibrate_s", "calibrate_s")):
        vals = result["samples"].get(name)
        if vals:
            q1, q3 = quartiles(vals)
            lines.append(f"{label:34s} {statistics.median(vals):>14.6g} s  {len(vals)} samples: "
                         f"min {min(vals):.4g}, q1 {q1:.4g}, q3 {q3:.4g}, "
                         f"mean {statistics.fmean(vals):.4g}")
    c = result["check"]
    lines.append(f"{'out_of_tol':34s} {c['out_of_tol']:>14d} {c['unit']} of {c['of']}"
                 f"  ({c.get('rule', c.get('note', ''))})")
    share = result["failed"] / result["attempted"]
    lines.append(f"{'failed_share':34s} {share:>14.6g} ratio  "
                 f"{result['failed']} of {result['attempted']} operations")
    lines.append(f"{'correct':34s} {str(c['correct']):>14s}  {c.get('note', '')}")
    return lines


def result_line(result: dict, declared: list) -> dict:
    return {
        "correct": bool(result["check"]["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {spec["name"]: {"value": float(result["metrics"][spec["name"]]),
                                   "unit": spec["unit"]} for spec in declared},
    }
