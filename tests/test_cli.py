import csv
import io
import json

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

    def test_seed_override_changes_report_seed(self, tmp_path):
        payload = {"task": "verify", "preset": "cir", "verify_suite": ["semiflow"],
                   "tolerances": {"semiflow_triples": 5}}
        code, out_dir = run(tmp_path, "verify", payload, extra=("--seed", "77"))
        assert code == EXIT_OK
        assert json.loads((out_dir / "report.json").read_text())["seed"] == 77


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

    def test_inadmissible_params_is_validation_error(self, tmp_path):
        code, _ = run(tmp_path, "verify", {
            "task": "verify",
            "space": {"kind": "full", "d": 1},
            "params": {"alpha": [[[1.0]]]},
        })
        assert code == EXIT_VALIDATION_ERROR

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
    ], ids=["mc.T", "tolerances.ode", "grids.t", "grids.x"])
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
    ], ids=["list", "semiflow", "semiflow_triples", "regularity_h", "bounded_t",
            "martingale_pairs", "characteristics_rel"])
    def test_unreadable_tolerances_are_parse_errors(self, tmp_path, tolerances):
        # these used to end in an AttributeError or ValueError traceback and exit 1
        code, _ = run(tmp_path, "verify", {"task": "verify", "preset": "cir",
                                           "tolerances": tolerances})
        assert code == EXIT_PARSE_ERROR

    @pytest.mark.parametrize("task", ["simulate", "verify"])
    def test_parabola_tuple_without_exact_sampler_is_validation_error(
            self, tmp_path, capsys, task):
        # a valid tuple on the parabola whose law is not that of (w, w^2)
        payload = {"task": task, "space": {"kind": "parabola"},
                   "params": {"a": [[4.0, 0.0], [0.0, 0.0]], "b": [0.0, 4.0],
                              "alpha": [[[0.0, 4.0], [4.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 16.0]]]},
                   "verify_suite": ["affine_mc"], "mc": {"paths": 4, "steps": 8}}
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
                       alive_until=np.array([2, 3]), x0=np.array([1.0]))
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
        ens = Ensemble(times=times, states=states, alive_until=np.array([1, 4, 3]),
                       x0=states[0, 0])
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
