"""Benchmark entry point for affine-kit.

    python3 perfbench/run.py --workload transform-svj --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs from the repository root; reads the package from ./src and writes only
under ./.bench_work.  Prints a summary (every metric with its unit and
sample count, out_of_tol, failed_share, provenance), then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in BENCHMARK.json.  ``--workload all`` runs each workload in its own
process, so each peak_rss_mb is that workload's own.

BLAS is pinned to one thread and AFFINE_KIT_THREADS is removed from the
environment, so the package runs at its defaults.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    # before numpy is first imported, here or in a child process
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("AFFINE_KIT_THREADS", None)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "affine_kit" / "__init__.py").is_file():
        print(f"no affine_kit package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
        return status

    sys.path.insert(0, str(SRC))
    import affine_kit
    if SRC.resolve() not in Path(affine_kit.__file__).resolve().parents:
        print(f"affine_kit imported from {affine_kit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench

    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = bench.declared_metrics(bool(args.trace))
    print("\n".join(bench.summary_lines(result, declared)))
    print(json.dumps(bench.result_line(result, declared)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
