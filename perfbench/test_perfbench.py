"""Self-tests of the benchmark: configs, trace wrappers and smoke-sized runs."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from affine_kit import cli  # noqa: E402


def _bindings():
    """Identity of every attribute the tracer may replace."""
    out = {}
    for _name, module, attr in spans.TARGETS:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            out[(module, attr)] = vars(getattr(mod, cls_name))[meth]
    for mod in spans.package_modules():
        for key, val in vars(mod).items():
            if callable(val):
                out[(mod.__name__, key)] = val
    for suite, fn in cli._SUITES.items():
        out[("suite", suite)] = fn
    return out


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_are_deterministic_and_valid(tmp_path, workload, small):
    cfg = workloads.make_config(workload, 5, small)
    assert json.dumps(cfg) == json.dumps(workloads.make_config(workload, 5, small))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    run_cfg = cli.load_config(str(path))
    assert run_cfg.task == cfg["task"]


def test_transform_grid_follows_the_seed():
    a = workloads.make_config("transform-svj", 1)["grids"]["u"]
    b = workloads.make_config("transform-svj", 2)["grids"]["u"]
    assert len(a) == workloads.N_U and a != b


def test_every_traced_function_exists():
    for _name, module, attr in spans.TARGETS:
        mod = importlib.import_module(module)
        owner, _, leaf = attr.rpartition(".")
        assert hasattr(getattr(mod, owner) if owner else mod, leaf), attr
    assert set(cli._SUITES) == set(spans.SUITES)


def test_trace_wrappers_leave_the_package_unpatched(tmp_path):
    before = _bindings()
    cfg = workloads.make_config("verify-cir", 0, small=True)
    cfg["verify_suite"] = ["semiflow", "levy_structure"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    tracer = spans.Tracer()
    with tracer.installed():
        assert _bindings() != before
        tracer.record("cli.main", cli.main,
                      ["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert _bindings() == before
    metrics = spans.layer_metrics(tracer)
    assert metrics["transform.evaluate_calls"] > 0
    assert metrics["transform.rhs_per_step"] >= 6.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(bench, "MIN_SAMPLES", 1)
    monkeypatch.setattr(bench, "IMPORT_RUNS", 1)
    monkeypatch.setattr(bench, "SETUP_RUNS", 1)
    for trace in (False, True):
        result = bench.run_workload(workload, 3, seconds=0.0, trace=trace, small=True)
        declared = bench.declared_metrics(trace)
        line = bench.result_line(result, declared)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {spec["name"] for spec in declared}
        assert bench.summary_lines(result, declared)
    assert (tmp_path / f"spans-{workload}-3-small.jsonl").is_file()


def test_calibration_does_not_touch_the_package():
    out = subprocess.run([sys.executable, "-c",
                          "import sys, calibrate; t = calibrate.run(); "
                          "print(t > 0, 'affine_kit' in sys.modules)"],
                         cwd=HERE, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["True", "False"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                          workloads.WORKLOADS[0], "--seed", "0", "--seconds", "1",
                          "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
