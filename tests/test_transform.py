import math

import numpy as np
import pytest

from affine_kit import transform
from affine_kit.params import AffineParams, LevyMeasure
from affine_kit.presets import brownian, cir, parabola
from affine_kit.state_space import FullSpace, random_u_in_domain
from affine_kit.transform import (
    BlowUpError,
    TransformDomainError,
    boundedness_probe,
    char_fn,
    closed_form_parabola,
    cp_limit_check,
    evaluate,
    evaluate_batch,
    evaluate_grid,
    fd_regularity,
    parabola_FR,
    semiflow_residual,
)
from conftest import jump_integral

CIR_KAPPA, CIR_THETA, CIR_SIGMA = 1.0, 1.0, 1.0


def cir_closed_form(t, u):
    """Independent oracle for the square-root diffusion transform.

    psi(t,u) = u e^{-kt} / (1 - (s^2 u / 2k)(1 - e^{-kt})) and
    phi(t,u) = -(2 k theta / s^2) log(...), valid on Re u <= 0 where the
    log argument stays in the right half-plane (principal branch).
    """
    k, th, s = CIR_KAPPA, CIR_THETA, CIR_SIGMA
    u = complex(u)
    g = 1.0 - (s ** 2 * u / (2 * k)) * (1.0 - math.exp(-k * t))
    psi = u * math.exp(-k * t) / g
    phi = -(2 * k * th / s ** 2) * np.log(g)
    return phi, psi


class TestEvaluate:
    def test_time_zero_is_exact(self, parabola):
        u = np.array([0.3 + 1j, -0.2 + 0.5j])
        r = evaluate(parabola, 0.0, u)
        assert r.phi == 0.0
        assert np.array_equal(r.psi, u)
        assert r.ok and r.steps == 0

    def test_brownian_constant_psi(self, brownian):
        # R = 0 forces psi = u; phi = t <u, u>/2 = -1 at u = (i, i), t = 1
        r = evaluate(brownian, 1.0, [1j, 1j])
        assert r.ok
        np.testing.assert_allclose(r.psi, [1j, 1j], atol=1e-14)
        assert r.phi == pytest.approx(-1.0, abs=1e-12)

    def test_matches_parabola_closed_form_on_grid(self, parabola):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            t = rng.uniform(0.01, 0.4)
            u = np.array([rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1),
                          rng.uniform(-2, -0.05) + 1j * rng.uniform(-1, 1)])
            phi_c, psi_c = closed_form_parabola(t, u)
            r = evaluate(parabola, t, u, tol=1e-10)
            assert r.ok
            worst = max(worst, abs(r.phi - phi_c),
                        float(np.max(np.abs(r.psi - psi_c))))
        assert worst < 1e-8

    def test_matches_cir_closed_form(self, cir):
        for u in (-1.0, -0.5 + 2.0j, 1.5j):
            for t in (0.1, 0.5, 2.0):
                phi_c, psi_c = cir_closed_form(t, u)
                r = evaluate(cir, t, [u], tol=1e-11)
                assert r.ok
                assert r.phi == pytest.approx(phi_c, abs=1e-8)
                assert r.psi[0] == pytest.approx(psi_c, abs=1e-8)

    def test_blow_up_is_located(self, parabola):
        # outside U the second Riccati component is dpsi2/dt = 2 psi2^2 from 1,
        # which explodes at t = 1/2
        r = evaluate(parabola, 0.6, [0.0, 1.0])
        assert r.status == "blow_up"
        assert r.blow_up_time == pytest.approx(0.5, abs=1e-3)
        assert r.blow_up_time > 0.0

    @pytest.mark.parametrize("name, u, pole", [
        *(("parabola", [0.0, u2], 1.0 / (2.0 * u2)) for u2 in (0.5, 1.0, 10.0)),
        *(("cir", [u], -math.log(1.0 - 2.0 * CIR_KAPPA / (CIR_SIGMA ** 2 * u)) / CIR_KAPPA)
          for u in (3.0, 5.0, 50.0)),
    ], ids=lambda v: repr(v) if isinstance(v, list) else None)
    def test_blow_up_time_meets_the_closed_form_pole(self, name, u, pole, request):
        # the guard retires the lane at its last accepted state, and
        # t + |psi_j| / |R_j(psi)| extrapolates from there to the pole
        b = evaluate_batch(request.getfixturevalue(name), [2.0 * pole], [u])
        assert b.status[0, 0] == "blow_up"
        assert b.t[0, 0] == b.blow_up_time[0]
        assert abs(b.blow_up_time[0] - pole) <= 1e-10 * pole

    def test_blow_up_time_stays_finite_where_the_largest_psi_is_constant(self):
        # R = (0, 2 psi2^2): psi1 = 9.9e7 stays the largest |psi| while psi2
        # passes the guard, and |psi1| / |R1| is infinite; the lane reports
        # its last accepted time instead
        p = AffineParams.zeros(FullSpace(2)).with_(
            alpha=np.array([np.zeros((2, 2)), [[0.0, 0.0], [0.0, 4.0]]]))
        b = evaluate_batch(p, [1.0], [[9.9e7, 1.0]])
        assert b.status[0, 0] == "blow_up"
        assert 0.5 - 1e-6 < b.blow_up_time[0] < 0.5

    def test_out_of_domain_input_is_flagged_but_computed(self, parabola):
        r = evaluate(parabola, 0.3, [0.0, 1.0])
        assert r.status == "domain_exit"
        phi_c, psi_c = closed_form_parabola(0.3, [0.0, 1.0])
        assert r.phi == pytest.approx(phi_c, abs=1e-8)
        np.testing.assert_allclose(r.psi, psi_c, atol=1e-8)

    def test_psi_stays_in_domain_when_ok(self, parabola, cir, brownian):
        rng = np.random.default_rng(3)
        for p in (parabola, cir, brownian):
            for _ in range(10):
                u = random_u_in_domain(p.space, rng)
                r = evaluate(p, rng.uniform(0.05, 0.8), u)
                if r.ok:
                    assert p.space.support(
                        np.where(np.abs(r.psi.real) < 1e-9, 0, r.psi.real)
                        + 1j * r.psi.imag) < math.inf

    def test_riccati_defect_shrinks_linearly(self, parabola):
        u = np.array([1.0, -1.0])
        base = evaluate(parabola, 0.2, u, tol=1e-12)
        prev = None
        for delta in (1e-4, 1e-5, 1e-6):
            ahead = evaluate(parabola, 0.2 + delta, u, tol=1e-12)
            defect = np.linalg.norm(
                ahead.psi - base.psi - delta * parabola.R_eval(base.psi)) / delta
            if prev is not None:
                assert defect < 0.2 * prev
            prev = defect
        assert prev < 1e-5

    def test_non_finite_stage_rejects_the_step(self):
        # jumps of size 30 in m and mu^1: at u = 0.5 a trial step's stages
        # overflow to inf and nan, which must reject the step, not accept a
        # nan state; the lane then blows up at its last finite state
        p = AffineParams.zeros(FullSpace(1)).with_(
            m_measure=LevyMeasure.from_atoms([(1.0, [30.0])]),
            mu_measures=(LevyMeasure.from_atoms([(1.0, [30.0])]),))
        b = evaluate_batch(p, [0.1, 1.0, 5.0], [[0.5]])
        assert np.isfinite(b.phi).all() and np.isfinite(b.psi).all()
        assert (b.status == "blow_up").all()
        assert 0.0 < b.blow_up_time[0] < 1e-6

    def test_rejects_negative_time_and_bad_tol(self, brownian):
        with pytest.raises(ValueError):
            evaluate(brownian, -0.1, [1j, 1j])
        with pytest.raises(ValueError):
            evaluate(brownian, 0.1, [1j, 1j], tol=0.0)
        # a NaN tolerance gave a NaN first step that never fell below the
        # step floor, so the sweep did not return
        with pytest.raises(ValueError):
            evaluate(brownian, 0.1, [1j, 1j], tol=float("nan"))


class TestEvaluateGrid:
    def test_matches_pointwise_evaluation(self, parabola):
        u = np.array([0.5 + 0.5j, -0.8 + 0.2j])
        ts = [0.0, 0.05, 0.21, 0.33, 0.4]
        grid = evaluate_grid(parabola, u, ts, tol=1e-10)
        for t, r in zip(ts, grid):
            single = evaluate(parabola, t, u, tol=1e-10)
            assert r.status == single.status == "ok"
            assert r.phi == pytest.approx(single.phi, abs=5e-9)
            np.testing.assert_allclose(r.psi, single.psi, atol=5e-9)

    def test_times_past_blow_up_are_marked(self, parabola):
        grid = evaluate_grid(parabola, [0.0, 1.0], [0.1, 0.3, 0.7, 0.9])
        statuses = [r.status for r in grid]
        assert statuses[2] == statuses[3] == "blow_up"
        assert grid[2].blow_up_time == pytest.approx(0.5, abs=1e-3)
        # pre-blow-up values are still delivered (flagged as out of domain)
        assert statuses[0] == statuses[1] == "domain_exit"

    def test_rows_meet_the_closed_form(self, parabola):
        ts = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
        for u in ([0.5 + 0.5j, -0.8 + 0.2j], [1j, -0.3], [0.3j, -1 + 0.5j]):
            grid = evaluate_grid(parabola, u, ts, tol=1e-10)
            for t, r in zip(ts, grid):
                phi_c, psi_c = closed_form_parabola(t, u)
                assert r.ok
                assert r.phi == pytest.approx(phi_c, rel=1e-9)
                assert r.psi == pytest.approx(psi_c, rel=1e-9)
                single = evaluate(parabola, t, u, tol=1e-10)
                row = evaluate_grid(parabola, u, [t], tol=1e-10)[0]
                assert (row.t, row.phi, row.status, row.steps) == (
                    single.t, single.phi, single.status, single.steps)
                assert np.array_equal(row.psi, single.psi)

    def test_intermediate_stops_land_exactly(self):
        # t + h can miss a stop by an ulp, and a step cut short by a nearby
        # stop is tiny; neither may trip the step-size floor that signals
        # blow-up
        p = AffineParams.zeros(FullSpace(dim=1))
        for ts in ([0.428, 1.0], [0.5, 0.5 + 1e-14, 1.0], [1e-14, 1.0]):
            grid = evaluate_grid(p, [0.5j], ts)
            assert [r.t for r in grid] == ts
            for r in grid:
                assert r.status == "ok"
                assert r.phi == 0
                assert np.array_equal(r.psi, [0.5j])


def assert_lane_matches(batch, i, rows, rtol=1e-13):
    """Lane i of a batch against the single-lane rows of the same u and times."""
    assert list(batch.status[i]) == [r.status for r in rows]
    assert all(r.steps == batch.steps[i] for r in rows)
    for j, r in enumerate(rows):
        assert batch.t[i, j] == pytest.approx(r.t, rel=rtol)
        if r.status == "blow_up":
            assert batch.blow_up_time[i] == pytest.approx(r.blow_up_time, rel=rtol)
        else:
            assert r.blow_up_time is None
        assert batch.phi[i, j] == pytest.approx(r.phi, rel=rtol)
        np.testing.assert_allclose(batch.psi[i, j], r.psi, rtol=rtol, atol=0)


class TestEvaluateBatch:
    # unsorted, with t = 0 and a repeated time
    TIMES = [0.4, 0.0, 0.1, 0.4, 0.25]

    @pytest.mark.parametrize("name", ["parabola", "cir", "brownian", "svj"])
    def test_each_lane_matches_its_own_grid(self, name, request):
        p = request.getfixturevalue(name)
        rng = np.random.default_rng(14)
        U = np.array([random_u_in_domain(p.space, rng) for _ in range(6)])
        batch = evaluate_batch(p, self.TIMES, U)
        assert batch.psi.shape == (6, 5, p.dim) and batch.steps.shape == (6,)
        assert np.array_equal(batch.u, U)
        assert (batch.phi[:, 1] == 0).all() and np.array_equal(batch.psi[:, 1], U)
        assert np.array_equal(batch.phi[:, 0], batch.phi[:, 3])
        for i, u in enumerate(U):
            assert_lane_matches(batch, i, evaluate_grid(p, u, self.TIMES))

    def test_lanes_keep_their_own_outcome(self, parabola):
        # lane 0 is an ordinary lane, lane 1 starts outside U and lives past
        # the grid (to t = 2.5), lanes 2 and 3 start outside U and blow up at
        # t = 1/2 and t = 1/4, lane 3 while the others are still stepping
        ts = [0.1, 2.0, 0.3, 0.45]
        U = np.array([[0.3j, -0.5 + 0.2j], [0.5, 0.2], [0.0, 1.0], [0.0, 2.0]])
        batch = evaluate_batch(parabola, ts, U)
        assert list(batch.status[0]) == ["ok"] * 4
        assert list(batch.status[1]) == ["domain_exit"] * 4
        assert list(batch.status[2]) == ["domain_exit", "blow_up", "domain_exit", "domain_exit"]
        assert list(batch.status[3]) == ["domain_exit", "blow_up", "blow_up", "blow_up"]
        assert batch.blow_up_time[2:] == pytest.approx([0.5, 0.25], abs=1e-3)
        assert batch.t[2, 1] == batch.blow_up_time[2]
        assert np.isnan(batch.blow_up_time[:2]).all()
        for i, u in enumerate(U):
            assert_lane_matches(batch, i, evaluate_grid(parabola, u, ts))
        alone = evaluate_batch(parabola, ts, U[:1])
        assert alone.steps[0] == batch.steps[0]
        np.testing.assert_allclose(alone.phi[0], batch.phi[0], rtol=1e-13, atol=0)
        np.testing.assert_allclose(alone.psi[0], batch.psi[0], rtol=1e-13, atol=0)

    def test_empty_batch(self, svj):
        batch = evaluate_batch(svj, [0.1, 0.2], np.empty((0, 2)))
        assert batch.t.shape == batch.phi.shape == batch.status.shape == (0, 2)
        assert batch.psi.shape == (0, 2, 2)
        assert batch.steps.shape == batch.rejected.shape == (0,)
        assert batch.blow_up_time.shape == (0,)

    def test_rejects_bad_tolerance_and_times(self, cir):
        for tol in (0.0, -1e-10, float("nan")):
            with pytest.raises(ValueError):
                evaluate_batch(cir, [0.1], [[-1.0]], tol=tol)
        for t in (float("nan"), -0.1, float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                evaluate_batch(cir, [0.1, t], [[-1.0]])


def assert_lane_equals(batch, i, rows):
    """Lane i of a batch is bit for bit the single-lane rows of its u and times."""
    assert all(r.steps == batch.steps[i] for r in rows)
    for j, r in enumerate(rows):
        assert (batch.t[i, j], batch.phi[i, j], batch.status[i, j]) == (r.t, r.phi, r.status)
        assert batch.psi[i, j].tobytes() == r.psi.tobytes()
        if r.status == "blow_up":
            assert batch.blow_up_time[i] == r.blow_up_time
    assert math.isnan(batch.blow_up_time[i]) == all(r.status != "blow_up" for r in rows)


class TestPerLaneStops:
    """evaluate_batch with an (N, n_t) grid: lane i stops at row i, and
    takes exactly the steps it takes alone."""

    # a t = 0 lane, a lane with t = 0 among its stops, unsorted rows, a
    # repeated time and a row that reaches past the others
    ROWS = [[0.0, 0.0, 0.0], [0.3, 0.0, 0.1], [0.05, 0.7, 0.05], [2.0, 0.5, 1.0],
            [0.01, 0.02, 0.03], [1.5, 1e-3, 0.4]]
    # per tuple: lane 3 blows up (where the tuple can) and lane 4 starts outside U
    BLOW_UP = {"parabola": [0.0, 2.0], "cir": [3.0]}
    OUTSIDE = {"parabola": [0.5, 0.2], "cir": [0.5], "brownian": [0.3, 1j], "svj": [0.5, 0.2j]}

    def lanes(self, p, name):
        rng = np.random.default_rng(21)
        U = np.array([random_u_in_domain(p.space, rng) for _ in self.ROWS])
        U[3] = self.BLOW_UP.get(name, U[3])
        U[4] = self.OUTSIDE[name]
        return U

    @pytest.mark.parametrize("name", ["parabola", "cir", "brownian", "svj"])
    def test_each_lane_equals_its_solo_sweep(self, name, request):
        p = request.getfixturevalue(name)
        U, rows = self.lanes(p, name), np.array(self.ROWS)
        batch = evaluate_batch(p, rows, U)
        for i, u in enumerate(U):
            assert_lane_equals(batch, i, evaluate_grid(p, u, rows[i]))
        assert batch.steps[0] == 0 and (batch.phi[0] == 0).all()
        assert (batch.status[4] == "domain_exit").all()
        if name in self.BLOW_UP:
            assert batch.status[3, 0] == "blow_up"      # its t = 2 stop

    @pytest.mark.parametrize("name", ["parabola", "cir", "brownian", "svj"])
    def test_one_stop_lanes_equal_evaluate(self, name, request):
        p = request.getfixturevalue(name)
        U = self.lanes(p, name)
        ts = np.array([0.0, 0.2, 0.05, 2.0, 0.2, 0.9])[:, None]
        batch = evaluate_batch(p, ts, U)
        for i, u in enumerate(U):
            assert_lane_equals(batch, i, [evaluate(p, ts[i, 0], u)])

    def test_shared_grid_is_the_broadcast_rows(self, svj):
        U = self.lanes(svj, "svj")
        ts = [0.4, 0.0, 0.1, 0.4, 0.25]
        shared, rows = evaluate_batch(svj, ts, U), evaluate_batch(svj, [ts] * len(U), U)
        for i in range(len(U)):
            assert_lane_equals(shared, i, rows.lane(i))

    def test_rejects_rows_that_do_not_match_the_lanes(self, cir):
        for t_grid in (np.full((3, 2), 0.1), np.full((1, 2), 0.1), np.full((2, 2, 1), 0.1)):
            with pytest.raises(ValueError):
                evaluate_batch(cir, t_grid, [[-1.0], [-0.5]])
        with pytest.raises(ValueError):
            evaluate_batch(cir, [[0.1], [-0.1]], [[-1.0], [-0.5]])


class TestOneExponentPass:
    def test_rhs_does_not_call_R_eval(self, svj, parabola, monkeypatch):
        rng = np.random.default_rng(5)
        runs = [(p, [0.3, 0.0, 1.0],
                 np.array([random_u_in_domain(p.space, rng) for _ in range(4)]))
                for p in (svj, parabola)]
        expected = [evaluate_batch(*run) for run in runs]

        def no_R_eval(self, u):
            raise AssertionError("the Riccati RHS called R_eval")

        monkeypatch.setattr(AffineParams, "R_eval", no_R_eval)
        for run, want in zip(runs, expected):
            got = evaluate_batch(*run)
            assert (got.status == "ok").all() and (got.steps > 0).all()
            assert got.phi.tobytes() == want.phi.tobytes()
            assert got.psi.tobytes() == want.psi.tobytes()

    def test_one_exponent_evaluation_per_rhs(self, svj, monkeypatch):
        calls = {"rhs": 0, "exponent": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(transform, "_rhs", counted(transform._rhs, "rhs"))
        monkeypatch.setattr(AffineParams, "_exponent",
                            counted(AffineParams._exponent, "exponent"))
        assert evaluate(svj, 0.5, [-0.4 + 1j, 0.7j]).ok
        assert calls["rhs"] > 6 and calls["exponent"] == calls["rhs"]

    @pytest.mark.parametrize("case", [
        ("svj", [-0.4 + 1j, 0.7j], [0.5, 0.1, 2.0]),
        ("parabola", [0.0, 1.0], [0.6]),        # blows up at t = 1/2
        ("cir", [3.0], [3.0]),                  # blows up at t = log 3
    ])
    def test_rhs_calls_count_accepted_and_rejected_steps(self, case, request, monkeypatch):
        name, u, ts = case
        p = request.getfixturevalue(name)
        calls = {"rhs": 0}
        rhs = transform._rhs

        def counted(*args, **kwargs):
            calls["rhs"] += 1
            return rhs(*args, **kwargs)

        monkeypatch.setattr(transform, "_rhs", counted)
        b = evaluate_batch(p, ts, [u])
        # 12 per step (11 stages and the FSAL f(y_new)), plus f(y0) and the
        # initial-step probe
        assert calls["rhs"] == 12 * (b.steps[0] + b.rejected[0]) + 2
        assert (b.rejected[0] > 0) == (name != "svj")


class TestProbeExponentPass:
    """fd_regularity and cp_limit_check read F(u) and R(u) from one exponent
    pass at their u, on top of the passes of their Riccati batch."""

    @pytest.mark.parametrize("name", ["svj", "parabola"])
    def test_one_pass_at_the_probed_u(self, name, request, monkeypatch):
        p = request.getfixturevalue(name)
        u = random_u_in_domain(p.space, np.random.default_rng(3))
        x = np.asarray(p.space.affine_basis()[-1], dtype=float)
        calls = {"rhs": 0, "exponent": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def no_R_eval(self, u):
            raise AssertionError("a probe called R_eval")

        monkeypatch.setattr(transform, "_rhs", counted(transform._rhs, "rhs"))
        monkeypatch.setattr(AffineParams, "_exponent",
                            counted(AffineParams._exponent, "exponent"))
        monkeypatch.setattr(AffineParams, "R_eval", no_R_eval)
        for probe in (lambda: fd_regularity(p, u, [1e-2, 1e-3, 1e-4]),
                      lambda: cp_limit_check(p, x, u, [0.1, 0.01])):
            calls.update(rhs=0, exponent=0)
            probe()
            assert calls["rhs"] > 6 and calls["exponent"] == calls["rhs"] + 1


class TestDop853:
    """The integrator's Dormand-Prince 8(5,3) tableau, its cost and its accuracy."""

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert len(transform._A) == 12 and len(transform._A[0]) == 0
        for i in range(1, 12):
            assert transform._A[i].tolist() == ref.A[i, :i].tolist(), i
        for got, want in ((transform._B, ref.B), (transform._E5, ref.E5),
                          (transform._E3, ref.E3)):
            assert got.tolist() == want.tolist()

    def test_order_conditions(self):
        from scipy.integrate._ivp.dop853_coefficients import C

        assert math.fsum(transform._B.real) == 1.0
        assert abs(math.fsum(transform._E5.real)) <= 1e-15
        assert abs(math.fsum(transform._E3.real)) <= 1e-15
        for i in range(1, 12):
            assert math.fsum(transform._A[i].real) == pytest.approx(C[i], abs=1e-14), i

    def test_svj_lanes_take_few_steps(self, svj):
        # the transform-svj workload's u distribution and horizons at tol 1e-10;
        # a 5th-order pair takes about 69 accepted steps per lane here, so the
        # bound fails if the integrator's order drops
        rng = np.random.default_rng(19)
        U = np.column_stack([-rng.uniform(0.0, 1.5, 64) + 1j * rng.uniform(-1.5, 1.5, 64),
                             1j * rng.uniform(-1.5, 1.5, 64)])
        b = evaluate_batch(svj, [0.05, 0.1, 0.25, 0.5, 1.0, 2.0], U, tol=1e-10)
        assert (b.status == "ok").all()
        # a proposal within 1.1 of its stop lands on it instead of leaving a
        # sliver step: 14.25 steps per lane, 14.78 when only h >= gap lands
        assert b.steps.mean() <= 14.5
        assert b.rejected.sum() == 0

    def test_retry_after_a_rejection_is_not_stretched(self, svj, monkeypatch):
        # lane 1 of the grid above: with a landing margin of 1.2 its retry
        # after a rejected 0.15 step proposes 0.1334, which 1.2 * 0.1334 >= 0.15
        # stretches back to the same step, rejected forever; MAX_STEPS counts
        # every attempt, so such a loop ends at 40 as a blow-up
        monkeypatch.setattr(transform, "MAX_STEPS", 40)
        b = evaluate_batch(svj, [0.05, 0.1, 0.25, 0.5, 1.0, 2.0],
                           [[-1.3888 + 0.2414j, 0.3221j]], tol=1e-10)
        assert (b.status == "ok").all()
        assert b.steps[0] + b.rejected[0] <= 40

    def test_cir_closed_form_on_random_points(self, cir):
        rng = np.random.default_rng(11)
        u = -rng.uniform(0.0, 2.0, 200) + 1j * rng.uniform(-3.0, 3.0, 200)
        t = rng.uniform(0.01, 3.0, 200)
        b = evaluate_batch(cir, t[:, None], u[:, None], tol=1e-10)
        assert (b.status == "ok").all()
        ref = np.array([cir_closed_form(ti, ui) for ti, ui in zip(t, u)])
        got = np.column_stack([b.phi[:, 0], b.psi[:, 0, 0]])
        # relative to 1 + |ref|, as the mixed atol = rtol = tol control bounds it
        assert (np.abs(got - ref) / (1.0 + np.abs(ref))).max() <= 1e-10


def riccati_reference(p: AffineParams, times, u) -> tuple:
    """(phi, psi) at the times from scipy's DOP853 on the real and imaginary
    parts of the Riccati system, the exponents written out from the tuple."""
    from scipy.integrate import solve_ivp

    d = p.dim

    def row(a, b, c, measure, psi):
        return 0.5 * psi @ a @ psi + b @ psi - c + jump_integral(measure, psi)

    def rhs(_t, y):
        psi = y[1:d + 1] + 1j * y[d + 2:]
        dz = np.array([row(p.a, p.b, p.c, p.m_measure, psi),
                       *(row(p.alpha[i], p.beta[i], p.gamma[i], p.mu_measures[i], psi)
                         for i in range(d))])
        return np.concatenate([dz.real, dz.imag])

    z0 = np.concatenate([[0.0], u])
    sol = solve_ivp(rhs, (0.0, max(times)), np.concatenate([z0.real, z0.imag]),
                    method="DOP853", t_eval=times, rtol=1e-12, atol=1e-12)
    assert sol.success
    z = sol.y[:d + 1] + 1j * sol.y[d + 1:]
    return z[0], z[1:].T


class TestJumpKillingReference:
    """The svj tuple (jumps in m and mu^1, killing in c and gamma) against a
    Riccati solution that does not use the exponent tables."""

    def test_matches_an_independent_riccati_solution(self, svj):
        rng = np.random.default_rng(8)
        U = np.column_stack([-rng.uniform(0.0, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8),
                             1j * rng.uniform(-1.5, 1.5, 8)])
        times = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
        batch = evaluate_batch(svj, times, U)
        assert (batch.status == "ok").all()
        for i, u in enumerate(U):
            phi, psi = riccati_reference(svj, times, u)
            np.testing.assert_array_less(np.abs(batch.phi[i] - phi), 1e-8 * (1 + np.abs(phi)))
            np.testing.assert_array_less(np.abs(batch.psi[i] - psi), 1e-8 * (1 + np.abs(psi)))


class TestCharFn:
    def test_time_zero_is_plain_exponential(self, parabola):
        x, u = [1.0, 1.0], np.array([0.2j, -0.4])
        assert char_fn(parabola, x, 0.0, u) == pytest.approx(np.exp(x @ u))

    def test_total_mass_without_killing(self, cir):
        assert char_fn(cir, [2.0], 1.5, [0.0]) == pytest.approx(1.0, abs=1e-10)

    def test_parabola_value_from_closed_form(self, parabola):
        # Phi(1, (i,0)) = e^{-1/2}; times e^{<x,u>} at x = (1,1)
        expected = np.exp(-0.5) * np.exp(1j)
        assert char_fn(parabola, [1.0, 1.0], 1.0, [1j, 0.0]) == pytest.approx(expected)

    def test_modulus_bounded_by_support(self, parabola, cir):
        rng = np.random.default_rng(4)
        for p, x in ((parabola, [1.0, 1.0]), (cir, [0.7])):
            for _ in range(10):
                u = random_u_in_domain(p.space, rng)
                val = char_fn(p, x, rng.uniform(0.05, 1.0), u)
                assert abs(val) <= math.exp(p.space.support(u)) + 1e-8

    def test_blow_up_propagates_with_estimate(self, parabola):
        with pytest.raises(BlowUpError) as exc:
            char_fn(parabola, [0.0, 0.0], 0.8, [0.0, 1.0])
        assert exc.value.t_estimate == pytest.approx(0.5, abs=1e-3)

    def test_domain_exit_raises(self, parabola):
        with pytest.raises(TransformDomainError):
            char_fn(parabola, [0.0, 0.0], 0.2, [0.0, 1.0])

    def test_rejects_state_outside_space(self, parabola):
        with pytest.raises(ValueError):
            char_fn(parabola, [1.0, 2.0], 0.1, [1j, 0.0])


class TestParabolaClosedForm:
    def test_time_zero(self):
        phi, psi = closed_form_parabola(0.0, [0.7 + 0.1j, -0.3])
        assert phi == 0.0
        np.testing.assert_allclose(psi, [0.7 + 0.1j, -0.3])

    def test_frozen_values(self):
        phi, psi = closed_form_parabola(0.5, [0.0, -1.0])
        assert phi == pytest.approx(-0.34657359027997264, abs=1e-15)
        np.testing.assert_allclose(psi, [0.0, -0.5], atol=1e-15)
        phi, psi = closed_form_parabola(0.25, [1.0, 0.0])
        assert phi == pytest.approx(0.125, abs=1e-15)
        np.testing.assert_allclose(psi, [1.0, 0.0], atol=1e-15)

    def test_exponential_matches_product_form(self):
        # e^{phi} must reproduce (1-2tu2)^{-1/2} exp(u1^2 t/(2(1-2tu2)))
        rng = np.random.default_rng(6)
        for _ in range(20):
            t = rng.uniform(0.0, 0.6)
            u = np.array([rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2),
                          rng.uniform(-2, -0.05) + 1j * rng.uniform(-2, 2)])
            w = 1 - 2 * t * u[1]
            expected = w ** -0.5 * np.exp(u[0] ** 2 * t / (2 * w))
            phi, _ = closed_form_parabola(t, u)
            assert np.exp(phi) == pytest.approx(expected, rel=1e-12)

    def test_pole_is_rejected(self):
        for t, u in ((0.5, [0.0, 1.0]), (0.6, [0.0, 1.0])):    # at the pole and past it
            with pytest.raises(ValueError):
                closed_form_parabola(t, u)

    def test_branch_continuation_beyond_principal_cut(self):
        # purely imaginary u2 with large |u2| t: winding accumulates continuously
        u = np.array([0.0, 4.0j])
        ts = np.linspace(0.0, 2.0, 400)
        phis = np.array([closed_form_parabola(t, u)[0] for t in ts])
        # continuous in t: no 2*pi jumps between neighbours
        assert np.max(np.abs(np.diff(phis.imag))) < 0.5


class TestParabolaFR:
    def test_values(self):
        F, R = parabola_FR([0.0, 0.0])
        assert F == 0.0 and not R.any()
        F, R = parabola_FR([1.0, 0.0])
        assert F == pytest.approx(0.5)
        np.testing.assert_allclose(R, [0.0, 0.0])
        F, R = parabola_FR([0.0, 1.0])
        assert F == pytest.approx(1.0)
        np.testing.assert_allclose(R, [0.0, 2.0])

    def test_matches_time_derivative_of_closed_form(self):
        # forward difference of the closed form is an independent derivative oracle
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
            F, R = parabola_FR(u)
            h = 1e-7
            phi_h, psi_h = closed_form_parabola(h, u)
            assert phi_h / h == pytest.approx(F, abs=1e-5)
            np.testing.assert_allclose((psi_h - u) / h, R, atol=1e-5)

    def test_agrees_with_preset_exponents(self, parabola):
        rng = np.random.default_rng(9)
        for _ in range(10):
            u = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
            F, R = parabola_FR(u)
            assert parabola.F_eval(u) == pytest.approx(F, rel=1e-13, abs=1e-13)
            np.testing.assert_allclose(parabola.R_eval(u), R, atol=1e-13)


class TestSemiflow:
    def test_zero_time_components_are_exact(self, parabola):
        assert semiflow_residual(parabola, 0.0, 0.25, [1.0, -1.0]) == 0.0
        assert semiflow_residual(parabola, 0.25, 0.0, [1.0, -1.0]) == 0.0

    def test_parabola_residual_small(self, parabola):
        tol = 1e-10
        assert semiflow_residual(parabola, 0.1, 0.1, [1.0, -1.0], tol) <= 10 * tol

    @pytest.mark.parametrize("make_u", [
        lambda rng: rng.uniform(-1, 1, 2) * 1j,
        lambda rng: np.array([rng.uniform(-1, 1), -rng.uniform(0.1, 1)]),
    ])
    def test_random_compositions(self, parabola, make_u):
        rng = np.random.default_rng(10)
        tol = 1e-10
        for _ in range(10):
            t, s = rng.uniform(0, 0.3, 2)
            u = make_u(rng)
            assert semiflow_residual(parabola, t, s, u, tol) <= 100 * tol

    def test_propagates_blow_up(self, parabola):
        with pytest.raises(BlowUpError):
            semiflow_residual(parabola, 0.4, 0.4, [0.0, 1.0])

    def test_triples_give_an_array_and_one_triple_a_float(self, parabola):
        t, s = [0.1, 0.0, 0.2], [0.1, 0.25, 0.05]
        U = [[1.0, -1.0], [1.0, -1.0], [0.5j, -0.3]]
        res = semiflow_residual(parabola, t, s, U)
        assert isinstance(res, np.ndarray) and res.shape == (3,) and res[1] == 0.0
        one = semiflow_residual(parabola, 0.1, 0.1, [1.0, -1.0])
        assert type(one) is float and one == res[0]

    def test_raises_for_the_first_failing_triple(self, parabola):
        # triple 0 passes; triple 1's lane (u, t + s) blows up at 1/4
        with pytest.raises(BlowUpError, match="near t = 0.25"):
            semiflow_residual(parabola, [0.1, 0.1], [0.1, 0.5], [[1.0, -1.0], [0.0, 2.0]])

    @pytest.mark.parametrize("order, error", [((0, 1), TransformDomainError),
                                              ((1, 0), BlowUpError)])
    def test_errors_come_back_in_triple_order(self, cir, order, error):
        # u = 0.5 lies outside U; u = 3 blows up at ln 3 < t + s = 1.4
        triples = [(0.1, 0.1, [0.5]), (0.7, 0.7, [3.0])]
        t, s, u = zip(*(triples[i] for i in order))
        with pytest.raises(error):
            semiflow_residual(cir, t, s, u)


class TestRegularity:
    def test_brownian_quotients_are_exact(self, brownian):
        probe = fd_regularity(brownian, [1j, 0.5j], [1e-2, 1e-3, 1e-4])
        assert probe.observed_order == math.inf
        assert probe.rel_error_est < 1e-12
        np.testing.assert_allclose(probe.F_quotients,
                                   np.full(3, brownian.F_eval([1j, 0.5j])), atol=1e-12)

    def test_parabola_recovers_generator(self, parabola):
        probe = fd_regularity(parabola, [1.0, -1.0], [1e-2, 1e-3, 1e-4])
        F, R = parabola_FR([1.0, -1.0])
        assert F == pytest.approx(-0.5)
        np.testing.assert_allclose(R, [-2.0, 2.0])
        assert probe.F_est == pytest.approx(F, abs=1e-5)
        np.testing.assert_allclose(probe.R_est, R, atol=1e-5)
        assert probe.observed_order >= 0.9
        assert probe.rel_error_est <= 1e-4

    def test_cir_self_consistent(self, cir):
        probe = fd_regularity(cir, [-1.0], [1e-2, 1e-3, 1e-4])
        assert probe.F_est == pytest.approx(cir.F_eval([-1.0]), abs=1e-6)
        assert probe.R_est[0] == pytest.approx(cir.R_eval([-1.0])[0], abs=1e-6)
        assert probe.errors[-1] < probe.errors[0]

    def test_requires_three_decreasing_steps(self, cir):
        with pytest.raises(ValueError):
            fd_regularity(cir, [-1.0], [1e-2, 1e-3])
        with pytest.raises(ValueError):
            fd_regularity(cir, [-1.0], [1e-3, 1e-2, 1e-4])


class TestBoundedness:
    def _imag_grid(self, d, n=12):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((n, d))
        return [1j * row / np.linalg.norm(row) for row in z]

    def test_zero_process_has_zero_suprema(self):
        p = AffineParams.zeros(FullSpace(dim=2))
        table = boundedness_probe(p, self._imag_grid(2), [1e-1, 1e-2, 1e-3])
        np.testing.assert_allclose(table.sup, 0.0, atol=1e-12)
        assert not table.divergence_suspected

    def test_brownian_supremum_is_constant(self, brownian):
        grid = self._imag_grid(2)
        table = boundedness_probe(brownian, grid, [1e-1, 1e-2, 1e-3, 1e-4])
        expected = max(abs(brownian.F_eval(u)) for u in grid)
        np.testing.assert_allclose(table.sup, expected, rtol=1e-6)

    def test_parabola_stays_bounded(self, parabola):
        table = boundedness_probe(parabola, self._imag_grid(2),
                                  [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        assert not table.divergence_suspected
        spread = table.sup[-3:].max() - table.sup[-3:].min()
        assert spread / table.sup[-1] < 0.01

    def test_rejects_grid_point_outside_domain(self, parabola):
        with pytest.raises(ValueError):
            boundedness_probe(parabola, [np.array([0.0, 1.0])], [1e-1, 1e-2])


class TestCpLimit:
    T_LIST = [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]

    def test_zero_frequency_is_degenerate(self, cir):
        table = cp_limit_check(cir, [1.0], [0.0], self.T_LIST)
        assert table.target == 0.0
        np.testing.assert_allclose(table.values, 0.0, atol=1e-9)

    def test_brownian_scalar_expansion(self, brownian):
        # D(t) = (e^{-t/2} - 1)/t -> -1/2 at u = (i, 0), x = 0
        table = cp_limit_check(brownian, [0.0, 0.0], [1j, 0.0], self.T_LIST)
        assert table.target == pytest.approx(-0.5)
        expected = (np.exp(-table.t / 2) - 1.0) / table.t
        np.testing.assert_allclose(table.values, expected, atol=1e-9)

    def test_parabola_limit_and_linear_decay(self, parabola):
        table = cp_limit_check(parabola, [1.0, 1.0], [0.0, -1.0], self.T_LIST)
        assert table.target == pytest.approx(1.0)
        # error shrinks linearly: log-log correlation ~ 1
        corr = np.corrcoef(np.log(table.t), np.log(table.errors))[0, 1]
        assert corr > 0.99
        assert table.errors[-1] < 0.05 * table.errors[0]


class TestProbeBatches:
    """Each probe folds its independent integrations into one batch, and
    its numbers are those of one evaluate() per (t, u), bit for bit."""

    @pytest.fixture
    def lanes(self, monkeypatch):
        """The lane count of every _integrate call."""
        seen, integrate = [], transform._integrate

        def counted(p, y0, *args):
            seen.append(len(y0))
            return integrate(p, y0, *args)

        monkeypatch.setattr(transform, "_integrate", counted)
        return seen

    @pytest.mark.parametrize("name", ["parabola", "cir", "brownian", "svj"])
    def test_semiflow_and_regularity(self, name, request, lanes):
        p = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        triples, wants = [], []
        for _ in range(5):
            t, s = rng.uniform(0.0, 0.3, 2)
            u = random_u_in_domain(p.space, rng)
            r_ts, r_t = evaluate(p, t + s, u), evaluate(p, t, u)
            r_s = evaluate(p, s, r_t.psi)
            want = max(abs(r_ts.phi - r_t.phi - r_s.phi),
                       float(np.linalg.norm(r_ts.psi - r_s.psi)))
            lanes.clear()
            assert semiflow_residual(p, t, s, u) == want
            assert lanes == [2, 1]
            triples.append((t, s, u))
            wants.append(want)
        # all first legs in one batch, then one second leg per triple
        lanes.clear()
        assert semiflow_residual(p, *zip(*triples)).tolist() == wants
        assert lanes == [2 * len(triples)] + [1] * len(triples)
        h = [1e-2, 1e-3, 1e-4]
        lanes.clear()
        probe = fd_regularity(p, u, h)
        assert lanes == [3]
        for i, hi in enumerate(h):
            r = evaluate(p, hi, u)
            assert probe.F_quotients[i] == r.phi / hi
            assert probe.R_quotients[i].tobytes() == (r.rho / hi).tobytes()

    @pytest.mark.parametrize("name, x", [("parabola", [1.0, 1.0]), ("cir", [0.7]),
                                         ("brownian", [0.2, -0.1]), ("svj", [0.04, 0.0])])
    def test_boundedness_and_cp_limit(self, name, x, request, lanes):
        p = request.getfixturevalue(name)
        rng = np.random.default_rng(6)
        grid = [random_u_in_domain(p.space, rng) for _ in range(7)]
        ts = [1e-1, 1e-2, 1e-3]
        table = boundedness_probe(p, grid, ts)
        for t, sup in zip(ts, table.sup):
            b = evaluate_batch(p, [t], grid)
            assert sup == np.max(np.abs(b.phi[:, 0]) / t
                                 + np.linalg.norm(b.psi[:, 0] - b.u, axis=1) / t)
        lanes.clear()
        cp = cp_limit_check(p, x, grid[0], ts)
        assert lanes == [6]
        for t, v in zip(ts, cp.values):
            ft_u, ft_0 = char_fn(p, x, t, grid[0]), char_fn(p, x, t, np.zeros(p.dim))
            assert v == (np.exp(-(np.asarray(x) @ grid[0])) * ft_u - ft_0) / t

    def test_batched_probes_raise_as_the_first_failing_evaluate(self, parabola, cir):
        # lane (u, t + s) blows up at 1/4 while lane (u, t) stays below it
        with pytest.raises(BlowUpError, match="near t = 0.25"):
            semiflow_residual(parabola, 0.1, 0.5, [0.0, 2.0])
        with pytest.raises(TransformDomainError):
            fd_regularity(cir, [0.5], [1e-2, 1e-3, 1e-4])
        with pytest.raises(BlowUpError, match="near t = 0.25"):
            cp_limit_check(parabola, [1.0, 1.0], [0.0, 2.0], [0.4, 0.3])
