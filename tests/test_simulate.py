import math

import numpy as np
import pytest

from affine_kit.params import AffineParams, LevyMeasure
from affine_kit.presets import brownian, cir, parabola
from affine_kit.simulate import (
    _JUMPS_PER_STEP_CAP,
    _psd_sqrt,
    characteristics_check,
    martingale_L_test,
    mc_char_fn,
    simulate_ensemble,
    simulate_parabola_ensemble,
    stopped_ensemble,
)
from affine_kit.state_space import CanonicalOrthantPlane, FullSpace, HalfLine
from affine_kit.transform import char_fn


def levy_jump_diffusion():
    """d=1 Levy process with two jump atoms: per-step law is sampled exactly."""
    return AffineParams.zeros(FullSpace(dim=1)).with_(
        a=np.array([[0.25]]),
        b=np.array([0.1]),
        m_measure=LevyMeasure.from_atoms([(0.5, [0.4]), (0.3, [-1.5])]),
    )


def cbi_with_killing():
    """Half-line process with state-scaled jumps and affine killing."""
    return AffineParams.zeros(HalfLine()).with_(
        alpha=np.array([[[0.25]]]),
        b=np.array([0.5]),
        beta=np.array([[-1.0]]),
        c=0.2,
        gamma=np.array([0.1]),
        mu_measures=(LevyMeasure.from_atoms([(0.8, [0.3])]),),
    )


def diagonal_plane():
    """R_+ x R tuple whose a and alpha^i are all diagonal."""
    return AffineParams.zeros(CanonicalOrthantPlane(1, 1)).with_(
        a=np.diag([0.0, 0.3]),
        alpha=np.array([np.diag([0.4, 0.9]), np.zeros((2, 2))]),
        b=np.array([0.5, 0.1]),
        beta=np.array([[-1.0, 0.2], [0.0, -0.3]]),
    )


def pinned_stream(seed, i):
    """The documented stream of path i."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, i, 0]))


def euler_reference(p, x0, T, n_steps, seed, n_paths):
    """Step-by-step Euler paths of a jump- and killing-free tuple, with every
    A(X) rooted by the batched eigh of _psd_sqrt."""
    d = p.dim
    dt = T / n_steps
    normals = np.stack([pinned_stream(seed, i).standard_normal((n_steps, d))
                        for i in range(n_paths)])
    orth = np.arange(d) < (p.space.m if isinstance(p.space, CanonicalOrthantPlane)
                           else int(isinstance(p.space, HalfLine)))
    X = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    out = [X]
    for k in range(n_steps):
        A = p.a + np.einsum("pi,ijk->pjk", X, p.alpha)
        noise = np.einsum("pjk,pk->pj", _psd_sqrt(A), normals[:, k, :])
        X = X + (p.b + X @ p.beta) * dt + math.sqrt(dt) * noise
        X[:, orth] = np.maximum(X[:, orth], 0.0)
        out.append(X)
    return np.stack(out, axis=1)


class TestEulerScheme:
    def test_zero_params_constant_path(self):
        p = AffineParams.zeros(FullSpace(dim=2))
        ens = simulate_ensemble(p, [0.3, -0.7], T=1.0, n_steps=16, seed=4, n_paths=1)
        np.testing.assert_array_equal(ens.states[0],
                                      np.tile([0.3, -0.7], (17, 1)))
        assert ens.alive_until[0] == 17

    def test_seed_determinism(self):
        p = brownian(2)
        a = simulate_ensemble(p, [0.0, 0.0], 1.0, 50, seed=9, n_paths=20)
        b = simulate_ensemble(p, [0.0, 0.0], 1.0, 50, seed=9, n_paths=20)
        np.testing.assert_array_equal(a.states, b.states)

    def test_paths_do_not_depend_on_ensemble_size(self):
        # counter-based substreams: path i is a function of (seed, i) only
        p = brownian(2)
        small = simulate_ensemble(p, [0.0, 0.0], 1.0, 20, seed=3, n_paths=4)
        large = simulate_ensemble(p, [0.0, 0.0], 1.0, 20, seed=3, n_paths=9)
        np.testing.assert_array_equal(small.states, large.states[:4])

    def test_brownian_terminal_mean(self):
        p = brownian(2)
        ens = simulate_ensemble(p, [0.0, 0.0], 1.0, 50, seed=21, n_paths=20000)
        term = ens.states[:, -1, :]
        se = term.std(axis=0, ddof=1) / math.sqrt(ens.n_paths)
        assert np.all(np.abs(term.mean(axis=0)) <= 3 * se)

    def test_cir_paths_stay_nonnegative(self):
        ens = simulate_ensemble(cir(), [0.04], 1.0, 200, seed=2, n_paths=500)
        assert np.nanmin(ens.states) >= 0.0

    def test_parabola_dispatches_to_exact_sampler(self):
        ens = simulate_ensemble(parabola(), [0.5, 0.25], 1.0, 10, seed=4, n_paths=3)
        exact = simulate_parabola_ensemble([0.5, 0.25], np.linspace(0.0, 1.0, 11), 4, 3)
        for name in ("times", "states", "alive_until", "x0"):
            assert getattr(ens, name).tobytes() == getattr(exact, name).tobytes()
        # a valid parabola tuple whose law is not that of (w, w^2): Var X_1(1) = 4
        alpha = np.zeros((2, 2, 2))
        alpha[0] = [[0.0, 4.0], [4.0, 0.0]]
        alpha[1] = [[0.0, 0.0], [0.0, 16.0]]
        scaled = parabola().with_(a=np.diag([4.0, 0.0]), alpha=alpha, b=np.array([0.0, 4.0]))
        assert scaled.validate().valid
        with pytest.raises(ValueError, match="exact sampler"):
            simulate_ensemble(scaled, [0.0, 0.0], 1.0, 10, seed=0, n_paths=2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_ensemble(brownian(1), [0.0], T=-1.0, n_steps=10, seed=0, n_paths=1)
        with pytest.raises(ValueError):
            simulate_ensemble(cir(), [-1.0], T=1.0, n_steps=10, seed=0, n_paths=1)

    def test_invalid_params_rejected(self):
        from affine_kit.presets import invalid_negative_diffusion
        with pytest.raises(ValueError, match="validation"):
            simulate_ensemble(invalid_negative_diffusion(), [0.0], 1.0, 10, seed=0,
                              n_paths=1)


class TestParabolaExact:
    def test_second_coordinate_is_exact_square(self):
        times = np.linspace(0.0, 1.0, 17)
        ens = simulate_parabola_ensemble([2.0, 4.0], times, seed=5, n_paths=100)
        np.testing.assert_array_equal(ens.states[:, :, 1],
                                      ens.states[:, :, 0] ** 2)

    def test_degenerate_grid(self):
        ens = simulate_parabola_ensemble([1.0, 1.0], [0.0], seed=0, n_paths=1)
        np.testing.assert_array_equal(ens.states[0], [[1.0, 1.0]])

    def test_brownian_mean(self):
        times = np.linspace(0.0, 1.0, 5)
        ens = simulate_parabola_ensemble([0.5, 0.25], times, seed=6, n_paths=20000)
        term = ens.states[:, -1, 0]
        se = term.std(ddof=1) / math.sqrt(len(term))
        assert abs(term.mean() - 0.5) <= 3 * se

    def test_off_curve_start_rejected(self):
        with pytest.raises(ValueError):
            simulate_parabola_ensemble([1.0, 2.0], [0.0, 0.5], seed=0, n_paths=1)


class TestMcCharFn:
    def test_time_zero_exact(self):
        times = np.linspace(0.0, 1.0, 3)
        ens = simulate_parabola_ensemble([1.0, 1.0], times, seed=7, n_paths=50)
        u = np.array([0.3j, -0.2])
        est = mc_char_fn(ens, 0.0, u)
        assert est.value == pytest.approx(np.exp([1.0, 1.0] @ u))
        assert est.std_error <= 1e-14  # identical samples up to summation roundoff

    def test_gaussian_characteristic_function(self):
        # E[e^{i B_1}] = e^{-1/2}
        times = np.linspace(0.0, 1.0, 5)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=12, n_paths=100000)
        est = mc_char_fn(ens, 1.0, [1j, 0.0])
        assert est.std_error <= 0.01
        assert est.consistent_with(math.exp(-0.5))

    def test_unit_mass_without_killing(self):
        ens = simulate_ensemble(brownian(1), [0.0], 0.5, 10, seed=1, n_paths=100)
        est = mc_char_fn(ens, 0.5, [0.0])
        assert est.value == 1.0 and est.std_error == 0.0

    def test_off_grid_time_rejected(self):
        ens = simulate_ensemble(brownian(1), [0.0], 1.0, 10, seed=1, n_paths=10)
        with pytest.raises(ValueError):
            mc_char_fn(ens, 0.123, [0.0])


class TestMartingale:
    def test_zero_steps_trivial(self, parabola):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=1, n_paths=100)
        est = martingale_L_test(parabola, ens, 0.1, 0, [0.0, -1.0])
        assert est.value == 1.0 and est.std_error == 0.0

    def test_zero_params_give_unit_functional(self):
        p = AffineParams.zeros(FullSpace(dim=1))
        ens = simulate_ensemble(p, [2.0], 1.0, 10, seed=1, n_paths=50)
        est = martingale_L_test(p, ens, 0.2, 5, [1j])
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("u", [[0.0, -1.0], [1j, 0.0], [0.5j, -0.5]])
    def test_parabola_unit_mean(self, parabola, u):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=13, n_paths=50000)
        est = martingale_L_test(parabola, ens, 0.1, 5, u)
        assert est.consistent_with(1.0), (est.value, est.std_error)

    def test_euler_brownian_unit_mean(self):
        p = brownian(1)
        ens = simulate_ensemble(p, [0.0], 0.5, 5, seed=14, n_paths=50000)
        est = martingale_L_test(p, ens, 0.1, 5, [1j])
        assert est.consistent_with(1.0)

    def test_stopped_at_unit_radius(self, parabola):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=15, n_paths=50000)
        est = martingale_L_test(parabola, stopped_ensemble(ens, 1.0), 0.1, 5,
                                [0.0, -1.0])
        assert est.consistent_with(1.0), (est.value, est.std_error)

    def test_zero_radius_freezes_everything(self, parabola):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=16, n_paths=200)
        frozen = stopped_ensemble(ens, 0.0)
        np.testing.assert_array_equal(frozen.states,
                                      np.broadcast_to(ens.states[:, :1, :],
                                                      ens.states.shape))
        est = martingale_L_test(parabola, frozen, 0.1, 5, [0.0, -1.0])
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert est.std_error == pytest.approx(0.0, abs=1e-14)

    def test_infinite_radius_is_identity(self, parabola):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=17, n_paths=500)
        same = stopped_ensemble(ens, math.inf)
        np.testing.assert_array_equal(same.states, ens.states)
        a = martingale_L_test(parabola, ens, 0.1, 5, [1j, 0.0])
        b = martingale_L_test(parabola, same, 0.1, 5, [1j, 0.0])
        assert a.value == b.value

    def test_misaligned_delta_rejected(self, parabola):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=1, n_paths=10)
        with pytest.raises(ValueError):
            martingale_L_test(parabola, ens, 0.15, 2, [1j, 0.0])


class TestKilling:
    def test_constant_rate_survival_is_exponential(self):
        # pure killing of a frozen state: survival e^{-ct}, exact in law
        c = 0.7
        p = AffineParams.zeros(FullSpace(dim=1)).with_(c=c)
        ens = simulate_ensemble(p, [1.0], 1.0, 50, seed=18, n_paths=40000)
        est = mc_char_fn(ens, 1.0, [0.0])
        assert est.consistent_with(math.exp(-c)), (est.value, est.std_error)

    def test_cir_killing_survival_matches_transform(self):
        p = cir().with_(c=0.3, gamma=np.array([0.2]))
        assert p.validate().valid
        ens = simulate_ensemble(p, [1.0], 1.0, 400, seed=19, n_paths=20000)
        est = mc_char_fn(ens, 1.0, [0.0])
        ref = char_fn(p, [1.0], 1.0, [0.0])
        assert est.consistent_with(ref), (est.value, ref, est.std_error)

    def test_cemetery_is_absorbing(self):
        p = AffineParams.zeros(FullSpace(dim=1)).with_(c=2.0)
        ens = simulate_ensemble(p, [1.0], 1.0, 20, seed=20, n_paths=300)
        assert (ens.alive_until <= 21).any(), "some path should die at rate 2"
        for i in range(ens.n_paths):
            au = ens.alive_until[i]
            if au <= 20:
                assert np.isnan(ens.states[i, au:, :]).all()
                assert not np.isnan(ens.states[i, :au, :]).any()

    def test_killed_paths_contribute_zero(self):
        p = AffineParams.zeros(FullSpace(dim=1)).with_(c=50.0)
        ens = simulate_ensemble(p, [1.0], 1.0, 20, seed=21, n_paths=200)
        est = mc_char_fn(ens, 1.0, [1j])
        assert abs(est.value) < 0.05


class TestJumps:
    def test_levy_process_matches_transform(self):
        p = levy_jump_diffusion()
        ens = simulate_ensemble(p, [0.0], 1.0, 200, seed=22, n_paths=30000)
        for u in ([0.7j], [1.2j], [-0.4 + 0.3j]):
            if p.space.support(u) == math.inf:
                continue
            est = mc_char_fn(ens, 1.0, u)
            ref = char_fn(p, [0.0], 1.0, u)
            assert est.consistent_with(ref), (u, est.value, ref, est.std_error)

    def test_state_scaled_jumps_with_killing(self):
        p = cbi_with_killing()
        assert p.validate().valid
        ens = simulate_ensemble(p, [1.0], 0.5, 500, seed=23, n_paths=30000)
        for u in ([0.9j], [0.0], [-0.5]):
            est = mc_char_fn(ens, 0.5, u)
            ref = char_fn(p, [1.0], 0.5, u)
            assert est.consistent_with(ref, tol=2e-3), (u, est.value, ref, est.std_error)


class TestCharacteristicsCheck:
    def test_zero_process(self):
        p = AffineParams.zeros(FullSpace(dim=1))
        ens = simulate_ensemble(p, [1.0], 1.0, 10, seed=1, n_paths=100)
        rep = characteristics_check(ens, p)
        assert rep.mean_rel_error == 0.0
        assert rep.ensemble_rel_error == 0.0

    def test_brownian_quadratic_variation(self):
        p = brownian(1)
        ens = simulate_ensemble(p, [0.0], 1.0, 1000, seed=24, n_paths=2000)
        rep = characteristics_check(ens, p)
        # realized QV of BM over [0,1]: per-path noise O(n_steps^{-1/2})
        assert rep.ensemble_rel_error < 0.01
        assert rep.mean_rel_error < 3 * math.sqrt(2 / 1000)
        assert rep.max_drift_z <= 3.0

    def test_parabola_exact_paths(self, parabola):
        times = np.linspace(0.0, 1.0, 1001)
        ens = simulate_parabola_ensemble([1.0, 1.0], times, seed=25, n_paths=2000)
        rep = characteristics_check(ens, parabola)
        assert rep.ensemble_rel_error < 0.02
        assert rep.max_drift_z <= 3.0

    def test_rejects_jumps_and_killing(self):
        p = levy_jump_diffusion()
        ens = simulate_ensemble(p, [0.0], 0.5, 10, seed=1, n_paths=50)
        with pytest.raises(ValueError, match="jump"):
            characteristics_check(ens, p)
        pk = AffineParams.zeros(FullSpace(dim=1)).with_(c=0.1)
        ens2 = simulate_ensemble(pk, [0.0], 0.5, 10, seed=1, n_paths=50)
        with pytest.raises(ValueError, match="killing"):
            characteristics_check(ens2, pk)


class TestPathStreams:
    """Path i reads the stream of Generator(Philox(key=seed, counter=[0, 0, i, 0])):
    its normals, then its jump uniforms, then its kill clock."""

    @pytest.mark.parametrize("make, x0", [(cbi_with_killing, [1.0]),
                                          (levy_jump_diffusion, [0.0]),
                                          (None, [0.04, 0.0])],
                             ids=["cbi_with_killing", "levy_jump_diffusion", "svj"])
    def test_jump_and_kill_paths_do_not_depend_on_ensemble_size(self, make, x0, svj):
        # 37 steps: a path's draws are not a whole number of 4-word Philox blocks
        p = make() if make else svj
        small = simulate_ensemble(p, x0, 1.0, 37, seed=3, n_paths=3)
        large = simulate_ensemble(p, x0, 1.0, 37, seed=3, n_paths=8)
        np.testing.assert_array_equal(small.states, large.states[:3])
        np.testing.assert_array_equal(small.alive_until, large.alive_until[:3])

    def test_parabola_paths_do_not_depend_on_ensemble_size(self):
        times = np.linspace(0.0, 1.0, 8)
        small = simulate_parabola_ensemble([0.5, 0.25], times, seed=3, n_paths=3)
        large = simulate_parabola_ensemble([0.5, 0.25], times, seed=3, n_paths=8)
        np.testing.assert_array_equal(small.states, large.states[:3])

    def test_each_path_reads_its_own_counter_block(self):
        # unit diffusion, two atoms outside the unit ball (no compensating
        # drift) and constant killing: every draw shows in the path
        seed, n_steps, c, dt = 11, 20, 1.0, 1.0 / 20
        atoms = [(1.0, -2.5), (2.0, 1.5)]      # the atom table's order: by location
        p = AffineParams.zeros(FullSpace(dim=1)).with_(
            a=np.array([[1.0]]), c=c,
            m_measure=LevyMeasure.from_atoms([(w, [xi]) for w, xi in atoms]))
        ens = simulate_ensemble(p, [0.0], 1.0, n_steps, seed=seed, n_paths=6)
        lam = sum(w for w, _ in atoms) * dt
        for i in range(ens.n_paths):
            rng = pinned_stream(seed, i)
            z = rng.standard_normal(n_steps)
            u = rng.random((n_steps, 1 + _JUMPS_PER_STEP_CAP))
            clock = rng.standard_exponential()
            want = np.full(n_steps + 1, np.nan)
            want[0] = x = hazard = 0.0
            alive_until = n_steps + 1
            for k in range(n_steps):
                hazard += c * dt
                if hazard >= clock:
                    alive_until = k + 1
                    break
                x = x + math.sqrt(dt) * z[k]
                count, pk = 0, math.exp(-lam)
                cdf = pk
                for j in range(1, _JUMPS_PER_STEP_CAP + 1):
                    if u[k, 0] > cdf:
                        count = j
                    pk = pk * lam / j
                    cdf += pk
                for j in range(count):
                    x += atoms[0][1] if u[k, 1 + j] * lam / dt <= atoms[0][0] else atoms[1][1]
                want[k + 1] = x
            assert ens.alive_until[i] == alive_until
            np.testing.assert_array_equal(ens.states[i, :, 0], want)

    def test_parabola_path_reads_its_own_counter_block(self):
        seed, times = 8, np.linspace(0.0, 1.0, 10)   # 9 draws: a part-used block
        ens = simulate_parabola_ensemble([0.5, 0.25], times, seed=seed, n_paths=4)
        for i in range(ens.n_paths):
            z = pinned_stream(seed, i).standard_normal(len(times) - 1)
            w = 0.5 + np.concatenate([[0.0], np.cumsum(np.sqrt(np.diff(times)) * z)])
            np.testing.assert_array_equal(ens.states[i], np.stack([w, w * w], axis=1))


class TestDiffusionRoot:
    """The closed-form root of a diagonal A(X) gives the floats of the eigh root."""

    @pytest.mark.parametrize("make, x0", [(cir, [0.04]), (diagonal_plane, [0.1, 0.0])],
                             ids=["cir", "diagonal_plane"])
    def test_diagonal_tuples_match_the_eigh_reference(self, make, x0):
        p = make()
        ens = simulate_ensemble(p, x0, 1.0, 60, seed=5, n_paths=300)
        np.testing.assert_array_equal(ens.states, euler_reference(p, x0, 1.0, 60, 5, 300))

    def test_off_diagonal_tuple_matches_the_eigh_reference(self, svj):
        # the svj diffusion (off-diagonal alpha^1) without its jumps and killing
        p = svj.with_(c=0.0, gamma=np.zeros(2), m_measure=LevyMeasure.empty(2),
                      mu_measures=(LevyMeasure.empty(2),) * 2)
        ens = simulate_ensemble(p, [0.04, 0.0], 1.0, 60, seed=5, n_paths=300)
        np.testing.assert_array_equal(ens.states,
                                      euler_reference(p, [0.04, 0.0], 1.0, 60, 5, 300))

    def test_tiny_negative_diagonal_clamps_to_zero(self):
        # A(0) = -1e-12 passes validation; its root is 0, as the eigh clamp gives
        p = AffineParams.zeros(HalfLine()).with_(
            a=np.array([[-1e-12]]), alpha=np.array([[[0.25]]]), b=np.array([0.3]))
        ens = simulate_ensemble(p, [0.0], 1.0, 10, seed=1, n_paths=20)
        np.testing.assert_array_equal(ens.states[:, 1, 0], 0.3 * 0.1)
        np.testing.assert_array_equal(ens.states, euler_reference(p, [0.0], 1.0, 10, 1, 20))


def recount_jump_overflows(p, ens, seed):
    """Live path-steps whose Poisson uniform lies above P(N <= cap), with the
    per-step rate summed from the measures at the step's start state."""
    n_steps = len(ens.times) - 1
    dt = ens.times[1] - ens.times[0]
    mu_mass = np.array([mu.weights.sum() for mu in p.mu_measures])
    total = 0
    for i in range(ens.n_paths):
        rng = pinned_stream(seed, i)
        rng.standard_normal((n_steps, p.dim))
        u = rng.random((n_steps, 1 + _JUMPS_PER_STEP_CAP))[:, 0]
        for k in range(min(n_steps, ens.alive_until[i] - 1)):
            lam = (p.m_measure.weights.sum() + ens.states[i, k] @ mu_mass) * dt
            cdf = math.exp(-lam) * sum(lam ** j / math.factorial(j)
                                       for j in range(_JUMPS_PER_STEP_CAP + 1))
            total += u[k] > cdf
    return total


class TestJumpOverflows:
    def test_high_rate_tuple_overflows(self):
        p = AffineParams.zeros(FullSpace(dim=1)).with_(
            m_measure=LevyMeasure.from_atoms([(40.0, [0.2])]))
        ens = simulate_ensemble(p, [0.0], 1.0, 10, seed=4, n_paths=200)
        assert ens.jump_overflows > 0
        assert ens.jump_overflows == recount_jump_overflows(p, ens, 4)

    def test_svj_matches_recount(self, svj):
        ens = simulate_ensemble(svj, [0.04, 0.0], 1.0, 100, seed=6, n_paths=100)
        assert ens.jump_overflows == recount_jump_overflows(svj, ens, 6)

    def test_jump_free_and_parabola_ensembles_have_none(self):
        assert simulate_ensemble(cir(), [0.04], 1.0, 10, seed=1, n_paths=5).jump_overflows == 0
        assert simulate_parabola_ensemble([0.0, 0.0], [0.0, 1.0], 1, 5).jump_overflows == 0

    @pytest.mark.parametrize("radius", [0.5, math.inf])
    def test_stopped_ensemble_carries_the_count(self, radius):
        p = AffineParams.zeros(FullSpace(dim=1)).with_(
            m_measure=LevyMeasure.from_atoms([(40.0, [0.2])]))
        ens = simulate_ensemble(p, [0.0], 1.0, 10, seed=4, n_paths=50)
        assert stopped_ensemble(ens, radius).jump_overflows == ens.jump_overflows > 0
