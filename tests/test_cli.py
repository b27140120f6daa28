import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affine_kit import cli, presets, transform
from affine_kit.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    main,
)
from affine_kit.simulate import Ensemble, simulate_ensemble
from affine_kit.transform import evaluate_batch, evaluate_grid


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, task, payload, out="out", extra=()):
    cfg = write_config(tmp_path, f"{task}.json", payload)
    out_dir = tmp_path / out
    return main([task, "--config", cfg, "--out", str(out_dir), *extra]), out_dir


SMALL_MC = {"paths": 400, "steps": 50, "seed": 3, "T": 0.5}

# the stochastic-volatility tuple with jumps and killing of the svj fixture, as JSON
SVJ = {"space": {"kind": "orthant_plane", "m": 1, "n": 1},
       "params": {"alpha": [[[0.25, -0.35], [-0.35, 1.0]], [[0.0, 0.0], [0.0, 0.0]]],
                  "b": [0.08, 0.0], "beta": [[-2.0, -0.5], [0.0, 0.0]],
                  "c": 0.02, "gamma": [0.1, 0.0],
                  "m": [{"w": 0.5, "xi": [0.0, 0.1]}, {"w": 0.5, "xi": [0.0, -0.1]},
                        {"w": 0.3, "xi": [0.05, 0.0]}],
                  "mu": [[{"w": 2.0, "xi": [0.0, -0.2]}], []]},
       "grids": {"x": [[0.04, 0.0]]}}


class TestVerifyTask:
    def test_parabola_semiflow_passes(self, tmp_path):
        code, out_dir = run(tmp_path, "verify", {
            "task": "verify",
            "preset": "parabola",
            "verify_suite": ["semiflow"],
            "tolerances": {"semiflow_triples": 20},
        })
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["all_pass"] is True
        assert report["checks"][0]["check"] == "semiflow"
        assert report["checks"][0]["statistic"] <= 1e-7

    def test_brownian_full_suite_passes(self, tmp_path):
        code, out_dir = run(tmp_path, "verify", {
            "task": "verify",
            "preset": "brownian",
            "grids": {"t": [0.1, 0.25], "x": [[0.0, 0.0]]},
            "mc": {"paths": 4000, "steps": 100, "seed": 2, "T": 0.5},
            "tolerances": {"semiflow_triples": 25},
        })
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        names = {c["check"] for c in report["checks"]}
        assert names == {"semiflow", "regularity", "bounded", "cp_limit",
                         "levy_structure", "affine_mc", "martingale",
                         "characteristics"}
        assert all(c["pass"] for c in report["checks"])

    def test_explicit_params_without_preset(self, tmp_path):
        code, out_dir = run(tmp_path, "verify", {
            "task": "verify",
            "space": {"kind": "half_line"},
            "params": {"alpha": [[[1.0]]], "b": [1.0], "beta": [[-1.0]]},
            "verify_suite": ["regularity", "levy_structure"],
            "grids": {"u": [[[-1.0, 0.0]], [[0.0, 1.0]]], "x": [[1.0]]},
        })
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["preset"] is None

    def test_failing_check_returns_status_one(self, tmp_path):
        # an impossible variation threshold forces a legitimate check failure
        code, out_dir = run(tmp_path, "verify", {
            "task": "verify",
            "preset": "parabola",
            "verify_suite": ["bounded"],
            "tolerances": {"bounded_variation": 0.0},
        })
        assert code == EXIT_CHECK_FAILED
        report = json.loads((out_dir / "report.json").read_text())
        assert report["all_pass"] is False

    def test_report_is_reproducible_modulo_timestamp(self, tmp_path):
        payload = {
            "task": "verify",
            "preset": "cir",
            "verify_suite": ["semiflow", "regularity"],
            "tolerances": {"semiflow_triples": 10},
        }
        _, out_a = run(tmp_path, "verify", payload, out="a")
        _, out_b = run(tmp_path, "verify", payload, out="b")
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        del a["generated_at"], b["generated_at"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_semiflow_statistic_is_the_worst_one_triple_residual(self, tmp_path, monkeypatch):
        calls, batched = [], cli.semiflow_residual

        def recorded(p, t, s, u, tol):
            calls.append((p, t, s, u, tol))
            return batched(p, t, s, u, tol)

        monkeypatch.setattr(cli, "semiflow_residual", recorded)
        payload = {"task": "verify", "preset": "cir", "verify_suite": ["semiflow"],
                   "tolerances": {"semiflow_triples": 10}}
        code, out_dir = run(tmp_path, "verify", payload)
        assert code == EXIT_OK
        [(p, t, s, u, tol)] = calls
        assert len(t) == len(s) == len(u) == 10
        worst = max(transform.semiflow_residual(p, *triple, tol) for triple in zip(t, s, u))
        report = json.loads((out_dir / "report.json").read_text())
        assert report["checks"][0]["statistic"] == worst

    def test_seed_override_changes_report_seed(self, tmp_path):
        payload = {"task": "verify", "preset": "cir", "verify_suite": ["semiflow"],
                   "tolerances": {"semiflow_triples": 5}}
        code, out_dir = run(tmp_path, "verify", payload, extra=("--seed", "77"))
        assert code == EXIT_OK
        assert json.loads((out_dir / "report.json").read_text())["seed"] == 77


    def test_monte_carlo_checks_skip_conjugate_u(self, tmp_path):
        # on a real X the check at -i repeats the check at i
        code, out_dir = run(tmp_path, "verify", {
            "task": "verify", "preset": "cir",
            "verify_suite": ["affine_mc", "martingale"],
            "grids": {"t": [0.0, 0.1, 0.2], "u": [[[0.0, 1.0]], [[0.0, -1.0]], [[-0.5, 0.0]]]},
            "mc": {"paths": 2000, "steps": 40, "seed": 1}})
        assert code == EXIT_OK
        checks = json.loads((out_dir / "report.json").read_text())["checks"]
        # affine_mc: 2 times x 2 u; martingale: 2 (delta, n) pairs x 2 modes x 2 u
        assert [c["check"] for c in checks] == ["affine_mc"] * 4 + ["martingale"] * 8
        assert {json.dumps(c["detail"]["u"]) for c in checks} == {"[[0.0, 1.0]]",
                                                                  "[[-0.5, 0.0]]"}

    @pytest.mark.parametrize("preset, sampler", [("cir", "cir_exact"), ("brownian", "euler"),
                                                 ("parabola", "parabola_exact")])
    def test_monte_carlo_checks_name_their_sampler(self, tmp_path, preset, sampler):
        code, out_dir = run(tmp_path, "verify", {
            "task": "verify", "preset": preset,
            "verify_suite": ["affine_mc", "martingale", "characteristics"],
            "mc": {"paths": 200, "steps": 40, "seed": 1}})
        checks = json.loads((out_dir / "report.json").read_text())["checks"]
        assert {c["check"] for c in checks} == {"affine_mc", "martingale", "characteristics"}
        assert {c["detail"]["sampler"] for c in checks} == {sampler}

    def test_characteristics_skip_on_a_jump_tuple_is_not_a_failure(self, tmp_path, capsys):
        code, out_dir = run(tmp_path, "verify", {
            "task": "verify",
            "space": {"kind": "half_line"},
            "params": {"alpha": [[[1.0]]], "b": [1.0], "beta": [[-1.0]],
                       "mu": [[{"w": 0.5, "xi": [0.3]}]]},
            "verify_suite": ["characteristics"]})
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["suites"] == ["characteristics"] and report["all_pass"] is True
        [check] = report["checks"]
        assert check["check"] == "characteristics" and check["pass"] is True
        assert "not applicable" in check["detail"]["skipped"]
        assert "[SKIP] characteristics" in capsys.readouterr().out


class TestFalseAlarms:
    def test_cir_martingale_suite_fails_on_at_most_one_of_20_seeds(self, tmp_path):
        # the exact sampler leaves no discretization bias for 3 SE to flag
        path = write_config(tmp_path, "cir.json", {"task": "verify", "preset": "cir"})
        failing = [seed for seed in range(20) if not all(
            c["pass"] for c in cli._suite_martingale(cli.load_config(path, seed_override=seed)))]
        assert len(failing) <= 1, failing

    def test_svj_martingale_suite_fails_on_at_most_one_of_10_seeds(self, tmp_path):
        # Euler on the shared mc grid takes mc.steps * delta / mc.T steps per delta (80 and
        # 40 here); at one step per delta the suite failed on 9 of these 10 seeds from bias
        path = write_config(tmp_path, "svj.json", {"task": "verify", **SVJ,
                                                   "mc": {"paths": 4000}})
        failing = [seed for seed in range(10) if not all(
            c["pass"] for c in cli._suite_martingale(cli.load_config(path, seed_override=seed)))]
        assert len(failing) <= 1, failing


class TestOneEnsemble:
    """The Monte Carlo suites of a verify run read one ensemble on the mc grid."""

    def test_default_verify_draws_one_ensemble(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return simulate_ensemble(*args)
        monkeypatch.setattr(cli, "simulate_ensemble", counted)
        code, _ = run(tmp_path, "verify", {"task": "verify", "preset": "cir"})
        assert code == EXIT_OK
        [(params, x0, T, steps, seed, paths)] = calls
        assert (T, steps, seed, paths) == (0.5, 400, 0, 10000) and x0.tolist() == [1.0]

    @pytest.mark.parametrize("payload", [
        {"verify_suite": ["affine_mc"], "grids": {"t": [0.05000000001, 0.1]}},
        {"grids": {"t": [0.05, 0.13]}},
        {"tolerances": {"martingale_pairs": [[0.1, 6]]}},
        {"tolerances": {"martingale_pairs": [[0.03, 5]]}},
    ], ids=["affine_mc-near-miss", "affine_mc-off-grid", "martingale-past-T",
            "martingale-off-grid"])
    def test_a_read_time_off_the_mc_grid_fails_validation(self, tmp_path, capsys,
                                                          monkeypatch, payload):
        # mc grid linspace(0, 0.5, 41); rejected at load, before any suite runs
        monkeypatch.setattr(cli, "_SUITES", {})
        code, out_dir = run(tmp_path, "verify", {"task": "verify", "preset": "cir",
                                                 "mc": {"paths": 200, "steps": 40}, **payload})
        assert code == EXIT_VALIDATION_ERROR
        assert "not on the mc grid" in capsys.readouterr().err
        assert not (out_dir / "report.json").exists()

    def test_read_times_of_unselected_suites_are_not_checked(self, tmp_path):
        code, _ = run(tmp_path, "verify", {
            "task": "verify", "preset": "cir", "verify_suite": ["characteristics"],
            "grids": {"t": [0.13]}, "tolerances": {"martingale_pairs": [[0.03, 5]]},
            "mc": {"paths": 200, "steps": 40}})
        assert code == EXIT_OK


class TestErrorStatuses:
    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"task": nope}')
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE_ERROR

    def test_unknown_preset_is_parse_error(self, tmp_path):
        code, _ = run(tmp_path, "verify", {"task": "verify", "preset": "heston"})
        assert code == EXIT_PARSE_ERROR

    def test_unknown_suite_is_parse_error(self, tmp_path):
        code, _ = run(tmp_path, "verify", {"task": "verify", "preset": "cir",
                                           "verify_suite": ["everything"]})
        assert code == EXIT_PARSE_ERROR

    def test_u_outside_domain_is_validation_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "verify", {
            "task": "verify",
            "preset": "brownian",
            "grids": {"u": [[1.0, 0.0]]},
        })
        assert code == EXIT_VALIDATION_ERROR
        assert "support(u)=inf" in capsys.readouterr().err

    def test_x_grid_without_a_state_is_validation_error(self, tmp_path, capsys):
        # this used to end in an IndexError traceback and exit 1
        code, _ = run(tmp_path, "simulate", {"task": "simulate", "preset": "cir",
                                             "grids": {"x": []}})
        assert code == EXIT_VALIDATION_ERROR
        assert "grids.x" in capsys.readouterr().err

    def test_inadmissible_params_is_validation_error(self, tmp_path):
        code, _ = run(tmp_path, "verify", {
            "task": "verify",
            "space": {"kind": "full", "d": 1},
            "params": {"alpha": [[[1.0]]]},
        })
        assert code == EXIT_VALIDATION_ERROR

    @pytest.mark.parametrize("grids", [{}, {"grids": {"x": [[0.0]]}}],
                             ids=["default x0", "x0 = 0"])
    def test_jumps_that_leave_the_state_space_are_a_validation_error(
            self, tmp_path, capsys, grids):
        # the atom -1 of weight 2 leaves the half-line from every x < 1; this
        # used to exit 0 from x0 = 1 and 1 (eight Monte Carlo FAILs) from x0 = 0
        code, _ = run(tmp_path, "verify", {
            "task": "verify",
            "space": {"kind": "half_line"},
            "params": {"b": [1.0], "m": [{"w": 2.0, "xi": [-1.0]}]},
            **grids,
        })
        assert code == EXIT_VALIDATION_ERROR
        assert "jump_leaves_state_space" in capsys.readouterr().err

    def test_task_mismatch_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", {"task": "simulate", "preset": "cir"})
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION_ERROR

    @pytest.mark.parametrize("task", ["simulate", "verify"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**128)])
    def test_seed_outside_philox_range_is_validation_error(self, tmp_path, task, seed):
        # such a seed used to end in a numpy traceback and exit 1
        code, _ = run(tmp_path, task, {"task": task, "preset": "cir"},
                      extra=("--seed", seed))
        assert code == EXIT_VALIDATION_ERROR

    def test_largest_seed_and_integral_floats_run(self, tmp_path):
        code, _ = run(tmp_path, "simulate", {
            "task": "simulate", "preset": "cir",
            "mc": {"paths": 2.0, "steps": 1, "seed": 2**64 - 1}})
        assert code == EXIT_OK

    @pytest.mark.parametrize("key", ["seed", "paths", "steps"])
    @pytest.mark.parametrize("value", ["abc", "12", 1.5, True, None, [3]])
    def test_non_integer_mc_setting_is_parse_error(self, tmp_path, key, value):
        code, _ = run(tmp_path, "simulate", {"task": "simulate", "preset": "cir",
                                             "mc": {key: value}})
        assert code == EXIT_PARSE_ERROR

    @pytest.mark.parametrize("extra", [
        {"mc": {"T": "abc"}},
        {"tolerances": {"ode": "abc"}},
        {"grids": {"t": ["a"]}},
        {"grids": {"x": [[1.0, 2.0]]}},
        {"grids": 7},
    ], ids=["mc.T", "tolerances.ode", "grids.t", "grids.x", "grids"])
    def test_unreadable_config_value_is_parse_error(self, tmp_path, extra):
        # each of these used to end in a bare ValueError traceback and exit 1
        code, _ = run(tmp_path, "simulate", {"task": "simulate", "preset": "cir", **extra})
        assert code == EXIT_PARSE_ERROR

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_time_is_rejected(self, tmp_path, t):
        # both used to run: T=NaN wrote "nan" times and exit 0, t=inf "blow_up" rows
        code, _ = run(tmp_path, "transform", {"task": "transform", "preset": "cir",
                                              "grids": {"t": [0.1, t]}})
        assert code == EXIT_PARSE_ERROR
        code, _ = run(tmp_path, "simulate", {"task": "simulate", "preset": "cir",
                                             "mc": {"paths": 2, "steps": 2, "T": t}})
        assert code == EXIT_VALIDATION_ERROR

    def test_mc_that_is_not_an_object_is_parse_error(self, tmp_path):
        code, _ = run(tmp_path, "simulate", {"task": "simulate", "preset": "cir",
                                             "mc": [400]})
        assert code == EXIT_PARSE_ERROR

    @pytest.mark.parametrize("tol", ["0", "nan", "-1e-10", "inf"])
    def test_bad_ode_tolerance_is_validation_error(self, tmp_path, tol):
        # a NaN tolerance used to hang the integrator, 0 to end in a traceback
        code, _ = run(tmp_path, "transform", {"task": "transform", "preset": "cir"},
                      extra=(f"--tol={tol}",))
        assert code == EXIT_VALIDATION_ERROR

    @pytest.mark.parametrize("tolerances", [
        [1],
        {"semiflow": "abc"},
        {"semiflow_triples": "many"},
        {"regularity_h": 0.01},
        {"bounded_t": ["a"]},
        {"martingale_pairs": [[0.1]]},
        {"characteristics_rel": None},
        {"semiflow_triples": 1.5},
        {"semiflow_triples": True},
        {"martingale_pairs": [[0.1, 2.5]]},
    ], ids=["list", "semiflow", "semiflow_triples", "regularity_h", "bounded_t",
            "martingale_pairs", "characteristics_rel", "semiflow_triples-float",
            "semiflow_triples-bool", "martingale_pairs-float-n"])
    def test_unreadable_tolerances_are_parse_errors(self, tmp_path, tolerances):
        # these used to end in an AttributeError or ValueError traceback and exit
        # 1, or (the last three) to run truncated to an integer and exit 0
        code, _ = run(tmp_path, "verify", {"task": "verify", "preset": "cir",
                                           "tolerances": tolerances})
        assert code == EXIT_PARSE_ERROR

    @pytest.mark.parametrize("tolerances", [
        {"regularity_h": [1e-4, 1e-3, 1e-2]},
        {"bounded_t": [1e-3, 1e-2, 1e-1]},
        {"cp_t": [0.001, 0.01, 0.1]},
        {"martingale_pairs": [[0.1, 0]]},
        {"martingale_pairs": [[-0.1, 5]]},
        {"bounded_t": []},
        {"cp_t": [0.1]},
        {"semiflow_triples": 0},
        {"martingale_stop_radius": -1.0},
    ], ids=["regularity_h-increasing", "bounded_t-increasing", "cp_t-increasing",
            "martingale_pairs-n0", "martingale_pairs-negative-delta", "bounded_t-empty",
            "cp_t-single", "semiflow_triples-0", "martingale_stop_radius-negative"])
    def test_impossible_tolerances_are_validation_errors(self, tmp_path, capsys, tolerances):
        # these used to exit 1: a library ValueError traceback, or (one cp_t) a NaN statistic
        code, _ = run(tmp_path, "verify", {"task": "verify", "preset": "cir",
                                           "tolerances": tolerances})
        assert code == EXIT_VALIDATION_ERROR
        assert f"tolerances.{next(iter(tolerances))}" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["simulate", "verify"])
    def test_parabola_tuple_without_exact_sampler_is_validation_error(
            self, tmp_path, capsys, task):
        # a valid tuple on the parabola whose law is not that of (w, w^2)
        payload = {"task": task, "space": {"kind": "parabola"},
                   "params": {"a": [[4.0, 0.0], [0.0, 0.0]], "b": [0.0, 4.0],
                              "alpha": [[[0.0, 4.0], [4.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 16.0]]]},
                   "verify_suite": ["affine_mc"], "mc": {"paths": 4, "steps": 40}}
        code, _ = run(tmp_path, task, payload)
        assert code == EXIT_VALIDATION_ERROR
        assert "exact sampler" in capsys.readouterr().err


class TestTransformTask:
    def test_csv_layout_and_values(self, tmp_path):
        code, out_dir = run(tmp_path, "transform", {
            "task": "transform",
            "preset": "brownian",
            "grids": {"t": [0.0, 0.5], "u": [[[0.0, 1.0], [0.0, 1.0]]]},
        })
        assert code == EXIT_OK
        with open(out_dir / "transform.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert set(rows[0]) == {"t", "re_u1", "re_u2", "im_u1", "im_u2",
                                "re_phi", "im_phi", "re_psi1", "re_psi2",
                                "im_psi1", "im_psi2", "status"}
        assert rows[0]["status"] == "ok"
        assert float(rows[0]["re_phi"]) == 0.0
        # phi(0.5, (i,i)) = 0.5 * (i^2 + i^2)/2 = -0.5
        assert float(rows[1]["re_phi"]) == pytest.approx(-0.5, abs=1e-9)
        assert float(rows[1]["im_psi1"]) == pytest.approx(1.0, abs=1e-12)

    def test_csv_values_round_trip_exactly(self, tmp_path):
        t_grid = [0.0, 0.3, 0.7]
        u = [[0.0, 1.0], [0.0, -0.6]]
        code, out_dir = run(tmp_path, "transform", {
            "task": "transform",
            "preset": "brownian",
            "grids": {"t": t_grid, "u": [u]},
        })
        assert code == EXIT_OK
        with open(out_dir / "transform.csv") as fh:
            rows = list(csv.DictReader(fh))
        u_vec = np.array([complex(*c) for c in u])
        results = evaluate_grid(presets.get("brownian"), u_vec, t_grid, 1e-10)
        assert len(rows) == len(results)
        for row, res in zip(rows, results):
            want = {"t": res.t, "re_phi": res.phi.real, "im_phi": res.phi.imag}
            for i in range(2):
                want[f"re_u{i+1}"], want[f"im_u{i+1}"] = u_vec[i].real, u_vec[i].imag
                want[f"re_psi{i+1}"] = res.psi[i].real
                want[f"im_psi{i+1}"] = res.psi[i].imag
            assert {k: float(row[k]) for k in want} == {k: float(v) for k, v in want.items()}
            assert row["status"] == res.status


    def test_one_integration_for_every_u(self, tmp_path, monkeypatch):
        lanes = []
        integrate = transform._integrate

        def counted(p, y0, *args, **kwargs):
            lanes.append(len(y0))
            return integrate(p, y0, *args, **kwargs)

        monkeypatch.setattr(transform, "_integrate", counted)
        t_grid = [0.3, 0.0, 0.7]
        u_grid = [[[-0.5, 1.0]], [[0.0, -2.0]], [[-1.5, 0.3]]]
        code, out_dir = run(tmp_path, "transform", {
            "task": "transform", "preset": "cir", "grids": {"t": t_grid, "u": u_grid}})
        assert code == EXIT_OK
        assert lanes == [3]
        with open(out_dir / "transform.csv") as fh:
            rows = list(csv.DictReader(fh))
        U = np.array([[complex(*u[0])] for u in u_grid])
        b = evaluate_batch(presets.get("cir"), t_grid, U, 1e-10)
        assert len(rows) == 9
        for (i, j), row in zip(np.ndindex(3, 3), rows):
            want = {"t": b.t[i, j], "re_u1": U[i, 0].real, "im_u1": U[i, 0].imag,
                    "re_phi": b.phi[i, j].real, "im_phi": b.phi[i, j].imag,
                    "re_psi1": b.psi[i, j, 0].real, "im_psi1": b.psi[i, j, 0].imag}
            assert {k: float(row[k]) for k in want} == {k: float(v) for k, v in want.items()}
            assert row["status"] == b.status[i, j]

    def test_csv_bytes_match_a_csv_writer(self, tmp_path):
        t_grid, u_grid = [0.0, 0.25, 1e-5], [[[-0.5, 1.0]], [[0.0, -2.0]]]
        code, out_dir = run(tmp_path, "transform", {
            "task": "transform", "preset": "cir", "grids": {"t": t_grid, "u": u_grid}})
        assert code == EXIT_OK
        b = evaluate_batch(presets.get("cir"), t_grid, [[complex(*u[0])] for u in u_grid],
                           1e-10)
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["t", "re_u1", "im_u1", "re_phi", "im_phi", "re_psi1", "im_psi1",
                    "status"])
        for i, j in np.ndindex(b.t.shape):
            w.writerow([float(b.t[i, j]), float(b.u[i, 0].real), float(b.u[i, 0].imag),
                        float(b.phi[i, j].real), float(b.phi[i, j].imag),
                        float(b.psi[i, j, 0].real), float(b.psi[i, j, 0].imag),
                        b.status[i, j]])
        assert (out_dir / "transform.csv").read_bytes() == want.getvalue().encode()


class TestSimulateTask:
    def test_paths_csv(self, tmp_path):
        code, out_dir = run(tmp_path, "simulate", {
            "task": "simulate",
            "preset": "cir",
            "grids": {"x": [[1.0]]},
            "mc": {"paths": 3, "steps": 4, "seed": 5, "T": 1.0},
        })
        assert code == EXIT_OK
        with open(out_dir / "paths.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 5
        assert set(rows[0]) == {"path_id", "t", "x_1", "alive"}
        assert all(float(r["x_1"]) >= 0.0 for r in rows)
        assert {r["alive"] for r in rows} == {"1"}

    def test_paths_csv_round_trips_exactly(self, tmp_path):
        code, out_dir = run(tmp_path, "simulate", {
            "task": "simulate",
            "preset": "cir",
            "grids": {"x": [[1.0]]},
            "mc": {"paths": 4, "steps": 6, "seed": 11, "T": 0.7},
        })
        assert code == EXIT_OK
        with open(out_dir / "paths.csv") as fh:
            rows = list(csv.DictReader(fh))
        ens = simulate_ensemble(presets.get("cir"), np.array([1.0]), 0.7, 6, 11, 4)
        assert len(rows) == ens.n_paths * len(ens.times)
        got = np.array([[float(r["t"]), float(r["x_1"])] for r in rows])
        want = np.stack([np.tile(ens.times, ens.n_paths), ens.states[:, :, 0].ravel()],
                        axis=1)
        assert np.array_equal(got, want)

    def test_overflow_is_inf_and_killed_rows_are_nan(self, tmp_path, monkeypatch):
        # path 0 overflows at t=0.5 and is killed at t=1; path 1 overflows downwards
        ens = Ensemble(times=np.array([0.0, 0.5, 1.0]),
                       states=np.array([[[1.0], [np.inf], [np.nan]],
                                        [[1.0], [0.25], [-np.inf]]]),
                       alive_until=np.array([2, 3]))
        monkeypatch.setattr(cli, "simulate_ensemble", lambda *args: ens)
        code, out_dir = run(tmp_path, "simulate", {
            "task": "simulate",
            "preset": "cir",
            "grids": {"x": [[1.0]]},
            "mc": {"paths": 2, "steps": 2, "seed": 0, "T": 1.0},
        })
        assert code == EXIT_OK
        with open(out_dir / "paths.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["x_1"], r["alive"]) for r in rows] == [
            ("1.0", "1"), ("inf", "1"), ("nan", "0"),
            ("1.0", "1"), ("0.25", "1"), ("-inf", "1")]

    @pytest.mark.parametrize("preset,d", [("cir", 1), ("brownian", 2)])
    def test_paths_csv_bytes_match_a_csv_writer(self, tmp_path, monkeypatch, preset, d):
        # path 0 is killed at step 1, path 1 never dies, path 2 dies at the last step
        nan, inf = np.nan, np.inf
        x_1 = np.array([[1.0, nan, nan, nan], [inf, -inf, -0.0, 5e-324],
                        [1e300, 1e16, -2.5e-7, nan]])
        states = np.stack([x_1, -x_1], axis=-1)[..., :d]
        times = np.array([0.0, 0.1, 1 / 3, 1e16])
        ens = Ensemble(times=times, states=states, alive_until=np.array([1, 4, 3]))
        monkeypatch.setattr(cli, "simulate_ensemble", lambda *args: ens)
        code, out_dir = run(tmp_path, "simulate", {
            "task": "simulate", "preset": preset, "mc": {"paths": 3, "steps": 3}})
        assert code == EXIT_OK
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["path_id", "t"] + [f"x_{k+1}" for k in range(d)] + ["alive"])
        for i in range(3):
            for j, t in enumerate(times.tolist()):
                w.writerow([i, t, *states[i, j].tolist(), int(j < ens.alive_until[i])])
        assert (out_dir / "paths.csv").read_bytes() == want.getvalue().encode()

    def test_summary_counts_jump_cap_overflows_and_killed_paths(self, tmp_path, capsys):
        # rate 200 per unit time at dt = 0.1: most steps draw more jumps than the cap
        code, _ = run(tmp_path, "simulate", {
            "task": "simulate",
            "space": {"kind": "full", "d": 1},
            "params": {"a": [[1.0]], "b": [0.0], "c": 0.5,
                       "m": [{"w": 200.0, "xi": [0.01]}]},
            "grids": {"x": [[0.0]]},
            "mc": {"paths": 50, "steps": 10, "seed": 1, "T": 1.0},
        })
        assert code == EXIT_OK
        out = capsys.readouterr().out
        overflows = int(out.split("jump-cap overflows ")[1].split(",")[0])
        killed = float(out.split("killed share ")[1].split(")")[0])
        assert overflows > 0 and 0.0 < killed < 1.0

        code, _ = run(tmp_path, "simulate", {
            "task": "simulate", "preset": "cir", "grids": {"x": [[1.0]]},
            "mc": {"paths": 20, "steps": 10, "seed": 1, "T": 1.0}}, out="cir")
        assert code == EXIT_OK
        assert "jump-cap overflows 0, killed share 0)" in capsys.readouterr().out

    def test_summary_counts_euler_clamps(self, tmp_path, capsys):
        # sigma = 3 on the half-line: df = 4/9 < 1, so Euler draws it and clamps at 0
        code, _ = run(tmp_path, "simulate", {
            "task": "simulate", "space": {"kind": "half_line"},
            "params": {"alpha": [[[9.0]]], "b": [1.0], "beta": [[-1.0]]},
            "grids": {"x": [[0.04]]}, "mc": {"paths": 50, "steps": 10, "seed": 1, "T": 1.0}})
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert int(out.split("clamps ")[1].split(",")[0]) > 0

    def test_parabola_uses_exact_sampler(self, tmp_path):
        code, out_dir = run(tmp_path, "simulate", {
            "task": "simulate",
            "preset": "parabola",
            "grids": {"x": [[0.0, 0.0]]},
            "mc": {"paths": 2, "steps": 4, "seed": 5, "T": 1.0},
        })
        assert code == EXIT_OK
        with open(out_dir / "paths.csv") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert float(r["x_2"]) == pytest.approx(float(r["x_1"]) ** 2, abs=1e-12)


class TestCsvRows:
    """_csv_rows writes every cell as repr does, inside orjson's range and out of it."""
    TINY, HUGE = 1e-4, 1e16
    # cells formatted by orjson: +-0 and 1e-4 <= |x| < 1e16
    INSIDE = [0.0, -0.0, TINY, np.nextafter(TINY, 1.0), -TINY, np.nextafter(HUGE, 0.0),
              -np.nextafter(HUGE, 0.0), 1.0, -3.0, 100.0, 123456789.0, 2.0**53,
              0.1, 1 / 3, 2 / 3 * 1e15]
    # cells whose rows fall back to repr
    OUTSIDE = [np.nextafter(TINY, 0.0), -np.nextafter(TINY, 0.0), HUGE, -HUGE,
               np.nextafter(HUGE, np.inf), 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-300, 7.419e-05, 1e300, -1e300, 1e20, np.nan, np.inf, -np.inf]

    @pytest.mark.parametrize("n_cols", [1, 2, 3, 4])
    def test_cells_are_repr_bytes(self, n_cols):
        rng = np.random.default_rng(1800 + n_cols)
        num = 10.0 ** rng.uniform(-4.0, 15.9, (600, n_cols)) * rng.choice([-1.0, 1.0],
                                                                           (600, n_cols))
        num[:50] = np.round(num[:50])             # integer-valued floats, +-0 among them
        for k, v in enumerate(self.INSIDE + self.OUTSIDE):
            num[100 + k, k % n_cols] = v          # among ordinary cells
            num[200 + k] = v                      # and a row of nothing else
        assert cli._csv_rows(num) == [",".join(map(repr, row)).encode()
                                      for row in num.tolist()]

    def test_empty_matrix_has_no_rows(self):
        assert cli._csv_rows(np.empty((0, 3))) == []


class TestImportGraph:
    def test_no_task_imports_scipy(self, tmp_path):
        # scipy.stats alone took most of a second of every task's start-up
        configs = {
            "transform": {"task": "transform", **SVJ,
                          "grids": {"t": [0.1, 0.5],
                                    "u": [[[0.0, 0.0], [0.0, 1.0]], [[-0.5, 0.0], [0.0, 0.5]]]}},
            "simulate": {"task": "simulate", "preset": "cir",
                         "mc": {"paths": 20, "steps": 10}},
            "verify": {"task": "verify", "preset": "brownian",
                       "grids": {"t": [0.1, 0.25], "x": [[0.0, 0.0]]}, "mc": SMALL_MC,
                       "tolerances": {"semiflow_triples": 5}},
        }
        script = ["import sys", "from affine_kit import cli"]
        for task, payload in configs.items():
            path = write_config(tmp_path, f"{task}.json", payload)
            script.append(f"assert cli.main([{task!r}, '--config', {path!r}, "
                          f"'--out', {str(tmp_path / task)!r}]) == 0")
        script.append("print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", "\n".join(script)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"

    def test_setup_and_verify_load_no_orjson(self, tmp_path):
        # orjson formats CSV cells only; start-up and verify must not pay its import
        path = write_config(tmp_path, "verify.json", {
            "task": "verify", "preset": "cir", "mc": SMALL_MC,
            "tolerances": {"semiflow_triples": 5}})
        script = ["import sys", "from affine_kit import cli",
                  f"cli.load_config({path!r})",
                  "print(sorted(m for m in sys.modules if m.startswith('orjson')))",
                  f"assert cli.main(['verify', '--config', {path!r}, "
                  f"'--out', {str(tmp_path / 'out')!r}]) == 0",
                  "print(sorted(m for m in sys.modules if m.startswith('orjson')))"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", "\n".join(script)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "[]")
