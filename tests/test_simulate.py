import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from affine_kit import simulate
from affine_kit.params import AffineParams, LevyMeasure
from affine_kit.presets import brownian, cir, parabola
from affine_kit.simulate import (
    Ensemble,
    McEstimate,
    SamplerError,
    _BLOCK,
    _OUTCOME_FLOOR,
    _cir_exact,
    _psd_sqrt,
    characteristics_check,
    martingale_L_test,
    mc_char_fn,
    simulate_ensemble,
    simulate_parabola_ensemble,
    stopped_ensemble,
)
from affine_kit.state_space import CanonicalOrthantPlane, FullSpace, HalfLine
from affine_kit.transform import TransformDomainError, char_fn, evaluate_batch
from conftest import consistent_with, invalid_negative_diffusion


def L_test(p, ens, delta, n, u):
    """martingale_L_test at one u on the references the verify suite passes it:
    phi(delta, u) and psi(delta, u) from an ok row of evaluate_batch, else that
    row's error."""
    b = evaluate_batch(p, [[delta]], [u]).require_ok()
    (est,) = martingale_L_test(ens, delta, n, [u], b.phi[0], b.psi[0])
    return est


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


def pinned_stream(seed, n_paths, key, *draws):
    """The documented draws of paths 0..n_paths-1, one array per
    (method, shape, *args) of draws: block k reads
    Generator(SFC64(SeedSequence(seed, spawn_key=(k, *key)))) and makes each
    draw, in order and whole, time-major: method(*args, size=(*shape, _BLOCK)).
    Path i is column i % _BLOCK of block i // _BLOCK's draws.  Each array is
    returned path-major and C-contiguous, (n_paths, *shape): einsum's bits
    depend on strides."""
    out = [[] for _ in draws]
    for k in range((n_paths + _BLOCK - 1) // _BLOCK):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            seed, spawn_key=(k, *key))))
        for arrays, (method, shape, *args) in zip(out, draws):
            arrays.append(np.moveaxis(getattr(rng, method)(*args, size=(*shape, _BLOCK)), -1, 0))
    return [np.ascontiguousarray(np.concatenate(arrays)[:n_paths]) for arrays in out]


def eigh_root(mats):
    """Symmetric PSD root from a batched eigh, negative eigenvalues clamped to 0:
    an oracle independent of _psd_sqrt."""
    w, v = np.linalg.eigh(mats)
    return np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(np.maximum(w, 0.0)), v)


def drawn_jumps(u, p0, lam, w):
    """The atoms, in jump order, of one path-step with N >= 1, scalar by
    scalar: n rises from 1 while u > P(N <= n) and that level still moves;
    v = (u - P(N < n))/max(p_N, _OUTCOME_FLOOR) lam, each jump picks the
    first atom whose cumulative weight is >= v, clipped into [5e-324, lam],
    and v becomes (v - weight below the atom)/w_atom lam."""
    n, lo, pn = 1, p0, p0 * lam
    while u > lo + pn and lo + pn > lo:
        n, lo, pn = n + 1, lo + pn, pn * lam / (n + 1)
    v = (u - lo) / max(pn, _OUTCOME_FLOOR) * lam
    below = np.concatenate([[0.0], np.cumsum(w)])
    atoms = []
    for _ in range(n):
        v = min(max(v, 5e-324), lam)
        atoms.append(a := int(np.argmax(v <= below[1:])))
        v = (v - below[a]) / w[a] * lam
    return atoms


def euler_reference(p, x0, T, n_steps, seed, n_paths, root=_psd_sqrt):
    """Step-by-step Euler ensemble in the sampler's documented order, every
    path stepped on every step, from the tables of p times dt.

    Draws (pinned_stream): from spawn_key (k,), a path's kill clock if p
    kills, then its normals; from (k, 1), its jump uniform per step if p has
    atoms.  The drift is the net drift B - int h dnu, (b - (W * small) @ L)
    dt + sum_i x_i (row 1+i of it).  If at most one of the rows a,
    alpha^1..alpha^d is nonzero, A_r, the noise is sqrt(max(x_r dt, 0))
    (R_r z) with R_r = root(A_r), or sqrt(dt) (R_0 z) for r = 0; otherwise
    it is root(a dt + sum_i x_i (alpha^i dt)) z.  With w = max(W(X) dt, 0)
    and lam = w_1 + w_2 + ... in atom order, a path whose uniform exceeds
    exp(-lam) jumps by drawn_jumps' atoms, one after the other.  A path is
    alive after a step while sum max(C(X) dt, 0) < its clock; alive_until
    counts 1 plus its live steps, and its cells from there on are nan.
    Clamps count the live cells of the orthant coordinates moved up to 0."""
    d = p.dim
    dt = T / n_steps
    *clocks, z = pinned_stream(seed, n_paths, (), *[("standard_exponential", ())] * p.has_killing,
                               ("standard_normal", (n_steps, d)))
    clocks = clocks[0] if p.has_killing else np.full(n_paths, np.inf)
    [uniforms] = pinned_stream(seed, n_paths, (1,), ("random", (n_steps,)))
    orth = np.arange(d) < (p.space.m if isinstance(p.space, CanonicalOrthantPlane)
                           else int(isinstance(p.space, HalfLine)))
    rows = [r for r, A_r in enumerate([p.a, *p.alpha]) if A_r.any()] or [0]
    if len(rows) == 1:
        r = rows[0]
        z = np.einsum("jk,pik->pij", root(p.a if r == 0 else p.alpha[r - 1]), z)
        if r == 0:
            z *= math.sqrt(dt)
    net_drift = (p.B - (p.W * p.small) @ p.L) * dt
    X = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    out = [X]
    hazard, lived = np.zeros(n_paths), np.ones(n_paths, dtype=np.int64)
    clamps = 0
    for k in range(n_steps):
        drift, rate, weights = net_drift[0], p.c * dt, p.W[0] * dt
        for i in range(d):
            drift = drift + X[:, i, None] * net_drift[1 + i]
            rate = rate + X[:, i] * (p.gamma[i] * dt)
            weights = weights + X[:, i, None] * (p.W[1 + i] * dt)
        hazard += np.maximum(rate, 0.0)
        alive = hazard < clocks
        lived += alive
        if len(rows) > 1:
            A = p.a * dt
            for i in range(d):
                A = A + X[:, i, None, None] * (p.alpha[i] * dt)
            noise = np.einsum("pjk,pk->pj", root(A), z[:, k])
        elif r:
            noise = np.sqrt(np.maximum(X[:, r - 1, None] * dt, 0.0)) * z[:, k]
        else:
            noise = z[:, k]
        X = X + drift + noise
        if p.has_jumps:
            w = np.maximum(weights, 0.0)
            lam = w[:, 0]
            for j in range(1, len(p.L)):
                lam = lam + w[:, j]
            p0 = np.exp(-lam)
            for i in np.flatnonzero(uniforms[:, k] > p0):
                for a in drawn_jumps(uniforms[i, k], p0[i], lam[i], w[i]):
                    X[i] += p.L[a]
        clamps += int(np.count_nonzero((X[:, orth] < 0.0) & alive[:, None]))
        X[:, orth] = np.maximum(X[:, orth], 0.0)
        out.append(X)
    states = np.stack(out, axis=1)
    for i in np.flatnonzero(lived <= n_steps):
        states[i, lived[i]:] = np.nan
    return Ensemble(times=np.linspace(0.0, T, n_steps + 1), states=states, alive_until=lived,
                    clamps=clamps)


def high_rate_jumps():
    """d=1 tuple with one atom of rate 40: at dt = 0.1 its Poisson count is
    often 4 or more."""
    return AffineParams.zeros(FullSpace(dim=1)).with_(
        m_measure=LevyMeasure.from_atoms([(40.0, [0.2])]))


def textbook_euler(p, x0, T, n_steps, seed, n_paths, root=_psd_sqrt):
    """The textbook Euler step X + (b + X beta) dt + sqrt(dt) root(A(X)) z of a
    jump- and killing-free tuple, with full truncation."""
    d = p.dim
    dt = T / n_steps
    [normals] = pinned_stream(seed, n_paths, (), ("standard_normal", (n_steps, d)))
    orth = np.arange(d) < (p.space.m if isinstance(p.space, CanonicalOrthantPlane)
                           else int(isinstance(p.space, HalfLine)))
    X = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    out = [X]
    for k in range(n_steps):
        A = p.a + np.einsum("pi,ijk->pjk", X, p.alpha)
        noise = np.einsum("pjk,pk->pj", root(A), normals[:, k, :])
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
        # block substreams: path i is a function of (seed, i) only
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
        for name in ("times", "states", "alive_until"):
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
        assert consistent_with(est, math.exp(-0.5))

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
        est = L_test(parabola, ens, 0.1, 0, [0.0, -1.0])
        assert est.value == 1.0 and est.std_error == 0.0

    def test_every_u_in_one_call_equals_one_call_per_u(self, parabola):
        times = np.linspace(0.0, 0.5, 11)
        ens = stopped_ensemble(
            simulate_parabola_ensemble([0.5, 0.25], times, seed=18, n_paths=3000), 1.0)
        us = [[0.0, -1.0], [1j, 0.0], [0.5j, -0.5]]
        b = evaluate_batch(parabola, [[0.1]] * 3, us).require_ok()
        phi, psi = b.phi[:, 0], b.psi[:, 0]
        one_by_one = [martingale_L_test(ens, 0.1, 5, [u], phi[j:j + 1], psi[j:j + 1])[0]
                      for j, u in enumerate(us)]
        assert martingale_L_test(ens, 0.1, 5, us, phi, psi) == one_by_one
        assert martingale_L_test(ens, 0.1, 0, us, phi, psi) == [McEstimate(1.0, 0.0)] * 3

    def test_zero_params_give_unit_functional(self):
        p = AffineParams.zeros(FullSpace(dim=1))
        ens = simulate_ensemble(p, [2.0], 1.0, 10, seed=1, n_paths=50)
        est = L_test(p, ens, 0.2, 5, [1j])
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("u", [[0.0, -1.0], [1j, 0.0], [0.5j, -0.5]])
    def test_parabola_unit_mean(self, parabola, u):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=13, n_paths=50000)
        est = L_test(parabola, ens, 0.1, 5, u)
        assert consistent_with(est, 1.0), (est.value, est.std_error)

    def test_euler_brownian_unit_mean(self):
        p = brownian(1)
        ens = simulate_ensemble(p, [0.0], 0.5, 5, seed=14, n_paths=50000)
        est = L_test(p, ens, 0.1, 5, [1j])
        assert consistent_with(est, 1.0)

    def test_stopped_at_unit_radius(self, parabola):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=15, n_paths=50000)
        est = L_test(parabola, stopped_ensemble(ens, 1.0), 0.1, 5, [0.0, -1.0])
        assert consistent_with(est, 1.0), (est.value, est.std_error)

    def test_zero_radius_freezes_everything(self, parabola):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=16, n_paths=200)
        frozen = stopped_ensemble(ens, 0.0)
        est = L_test(parabola, frozen, 0.1, 5, [0.0, -1.0])
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert est.std_error == pytest.approx(0.0, abs=1e-14)

    def test_infinite_radius_is_identity(self, parabola):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=17, n_paths=500)
        same = stopped_ensemble(ens, math.inf)
        np.testing.assert_array_equal(same.states, ens.states)
        a = L_test(parabola, ens, 0.1, 5, [1j, 0.0])
        b = L_test(parabola, same, 0.1, 5, [1j, 0.0])
        assert a.value == b.value

    def test_domain_exit_is_reported_as_char_fn_reports_it(self, parabola):
        # u = (0, 1) lies outside U on the parabola: a domain exit, not a blow-up at delta
        times = np.linspace(0.0, 0.4, 3)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=1, n_paths=10)
        with pytest.raises(TransformDomainError):
            char_fn(parabola, [0.0, 0.0], 0.2, [0.0, 1.0])
        with pytest.raises(TransformDomainError):
            L_test(parabola, ens, 0.2, 2, [0.0, 1.0])

    def test_misaligned_delta_rejected(self, parabola):
        times = np.linspace(0.0, 0.5, 6)
        ens = simulate_parabola_ensemble([0.0, 0.0], times, seed=1, n_paths=10)
        with pytest.raises(ValueError):
            L_test(parabola, ens, 0.15, 2, [1j, 0.0])


class TestKilling:
    def test_constant_rate_survival_is_exponential(self):
        # pure killing of a frozen state: survival e^{-ct}, exact in law
        c = 0.7
        p = AffineParams.zeros(FullSpace(dim=1)).with_(c=c)
        ens = simulate_ensemble(p, [1.0], 1.0, 50, seed=18, n_paths=40000)
        est = mc_char_fn(ens, 1.0, [0.0])
        assert consistent_with(est, math.exp(-c)), (est.value, est.std_error)

    def test_cir_killing_survival_matches_transform(self):
        p = cir().with_(c=0.3, gamma=np.array([0.2]))
        assert p.validate().valid
        ens = simulate_ensemble(p, [1.0], 1.0, 400, seed=19, n_paths=20000)
        est = mc_char_fn(ens, 1.0, [0.0])
        ref = char_fn(p, [1.0], 1.0, [0.0])
        assert consistent_with(est, ref), (est.value, ref, est.std_error)

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

    def test_svj_alive_until_matches_a_recount(self, svj):
        # alive_until is the first k with sum_{j<k} max(c + gamma.X_j, 0) dt >= the
        # path's clock, read from the stored states; its cells are nan from there on
        seed, n_steps, dt = 7, 200, 1.0 / 200
        ens = simulate_ensemble(svj, [0.04, 0.0], 1.0, n_steps, seed=seed, n_paths=400)
        assert 0 < np.count_nonzero(ens.alive_until <= n_steps) < ens.n_paths
        [clocks] = pinned_stream(seed, ens.n_paths, (), ("standard_exponential", ()))
        for i in range(ens.n_paths):
            clock, hazard, want = clocks[i], 0.0, n_steps + 1
            for k in range(1, n_steps + 1):
                hazard += max(svj.c + svj.gamma @ ens.states[i, k - 1], 0.0) * dt
                if hazard >= clock:
                    want = k
                    break
            assert ens.alive_until[i] == want
            assert np.isnan(ens.states[i, want:]).all()
            assert not np.isnan(ens.states[i, :want]).any()


class TestJumps:
    def test_levy_process_matches_transform(self):
        p = levy_jump_diffusion()
        ens = simulate_ensemble(p, [0.0], 1.0, 200, seed=22, n_paths=30000)
        for u in ([0.7j], [1.2j], [-0.4 + 0.3j]):
            if p.space.support(u) == math.inf:
                continue
            est = mc_char_fn(ens, 1.0, u)
            ref = char_fn(p, [0.0], 1.0, u)
            assert consistent_with(est, ref), (u, est.value, ref, est.std_error)

    def test_state_scaled_jumps_with_killing(self):
        p = cbi_with_killing()
        assert p.validate().valid
        ens = simulate_ensemble(p, [1.0], 0.5, 500, seed=23, n_paths=30000)
        for u in ([0.9j], [0.0], [-0.5]):
            est = mc_char_fn(ens, 0.5, u)
            ref = char_fn(p, [1.0], 0.5, u)
            assert consistent_with(est, ref, tol=2e-3), (u, est.value, ref, est.std_error)


class TestCharacteristicsCheck:
    def test_zero_process(self):
        p = AffineParams.zeros(FullSpace(dim=1))
        ens = simulate_ensemble(p, [1.0], 1.0, 10, seed=1, n_paths=100)
        rep = characteristics_check(ens, p)
        assert rep.ensemble_rel_error == 0.0

    def test_brownian_quadratic_variation(self):
        p = brownian(1)
        ens = simulate_ensemble(p, [0.0], 1.0, 1000, seed=24, n_paths=2000)
        rep = characteristics_check(ens, p)
        # realized QV of BM over [0,1]: per-path noise O(n_steps^{-1/2})
        assert rep.ensemble_rel_error < 0.01
        assert rep.max_drift_z <= 3.0

    def test_parabola_exact_paths(self, parabola):
        times = np.linspace(0.0, 1.0, 1001)
        ens = simulate_parabola_ensemble([1.0, 1.0], times, seed=25, n_paths=2000)
        rep = characteristics_check(ens, parabola)
        assert rep.ensemble_rel_error < 0.02
        assert rep.max_drift_z <= 3.0

    def test_reads_the_ensemble_in_chunks(self):
        # a whole np.diff of the states would be as large as the states
        p = cir()
        ens = simulate_ensemble(p, [1.0], 1.0, 400, seed=3, n_paths=2000)
        characteristics_check(ens, p)
        tracemalloc.start()
        try:
            characteristics_check(ens, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ens.states.nbytes / 4, peak / ens.states.nbytes

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
    """Path i reads its column of block i // _BLOCK's whole-block draws: its
    kill clock, then its normals, and from the second generator its jump
    uniforms (pinned_stream)."""

    @pytest.mark.parametrize("make, x0", [(cbi_with_killing, [1.0]),
                                          (levy_jump_diffusion, [0.0]),
                                          (None, [0.04, 0.0])],
                             ids=["cbi_with_killing", "levy_jump_diffusion", "svj"])
    def test_jump_and_kill_paths_do_not_depend_on_ensemble_size(self, make, x0, svj):
        # 3 and 8 paths: both ensembles draw the same whole first block
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
        w = [atoms[0][0] * dt, atoms[1][0] * dt]
        lam = w[0] + w[1]
        clocks, normals = pinned_stream(seed, ens.n_paths, (), ("standard_exponential", ()),
                                        ("standard_normal", (n_steps, 1)))
        [uniforms] = pinned_stream(seed, ens.n_paths, (1,), ("random", (n_steps,)))
        jumped = 0
        for i in range(ens.n_paths):
            z, u, clock = normals[i, :, 0], uniforms[i], clocks[i]
            want = np.full(n_steps + 1, np.nan)
            want[0] = x = hazard = 0.0
            alive_until = n_steps + 1
            for k in range(n_steps):
                hazard += c * dt
                if hazard >= clock:
                    alive_until = k + 1
                    break
                x = x + math.sqrt(dt) * z[k]
                p0 = math.exp(-lam)
                if u[k] > p0:   # sequential inverse CDF of the count, then v recycled per atom
                    count, lo, pn = 1, p0, p0 * lam
                    while u[k] > lo + pn and lo + pn > lo:
                        count, lo, pn = count + 1, lo + pn, pn * lam / (count + 1)
                    v = (u[k] - lo) / pn * lam
                    for _ in range(count):
                        v = min(max(v, 5e-324), lam)
                        a = 0 if v <= w[0] else 1
                        x += atoms[a][1]
                        v = (v - (0.0 if a == 0 else w[0])) / w[a] * lam
                    jumped += count
                want[k + 1] = x
            assert ens.alive_until[i] == alive_until
            np.testing.assert_array_equal(ens.states[i, :, 0], want)
        assert jumped > 0

    def test_parabola_path_reads_its_own_counter_block(self):
        seed, times = 8, np.linspace(0.0, 1.0, 10)
        ens = simulate_parabola_ensemble([0.5, 0.25], times, seed=seed, n_paths=4)
        [normals] = pinned_stream(seed, ens.n_paths, (), ("standard_normal", (len(times) - 1,)))
        for i, z in enumerate(normals):
            w = np.cumsum([0.5, *np.sqrt(np.diff(times)) * z])
            np.testing.assert_array_equal(ens.states[i], np.stack([w, w * w], axis=1))


class TestTimeMajorLayout:
    """Every sampler writes one C-contiguous (n_times, d, n_paths) buffer, and
    Ensemble.states is its (n_paths, n_times, d) view; the readers give the
    same numbers on a path-major copy of the states."""

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("make, x0", [
        (cir, [0.5]), (parabola, [0.5, 0.25]), ("svj", [0.04, 0.0]),
        ("single_factor", [0.04, 0.0])], ids=["cir", "parabola", "svj", "single_factor"])
    def test_readers_agree_on_a_path_major_copy(self, monkeypatch, cpus, make, x0, svj):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        p = svj if make == "svj" else svj_diffusion(svj) if make == "single_factor" else make()
        ens = simulate_ensemble(p, x0, 1.0, 40, seed=6, n_paths=2 * _BLOCK + 9)
        assert ens.states.transpose(1, 2, 0).flags.c_contiguous
        flat = replace(ens, states=np.ascontiguousarray(ens.states))
        assert not ens.states.flags.c_contiguous
        U = np.array([[0.7j] * p.dim, [-0.3 + 0.2j] + [0.4j] * (p.dim - 1)])
        for t in (0.5, 1.0):
            for u in U:
                assert mc_char_fn(flat, t, u) == mc_char_fn(ens, t, u)
        phi, psi = np.array([-0.01 + 0.02j, 0.03j]), 0.9 * U
        for r in (None, 0.3):
            a, b = (e if r is None else stopped_ensemble(e, r) for e in (ens, flat))
            assert martingale_L_test(b, 0.25, 4, U, phi, psi) == \
                martingale_L_test(a, 0.25, 4, U, phi, psi)
        if not (p.has_jumps or p.has_killing):
            want, got = characteristics_check(flat, p), characteristics_check(ens, p)
            assert got.ensemble_rel_error == pytest.approx(want.ensemble_rel_error, rel=1e-12)
            assert got.max_drift_z == pytest.approx(want.max_drift_z, rel=1e-12)


def svj_diffusion(svj):
    """The svj tuple's diffusion (off-diagonal alpha^1) without its jumps and killing."""
    return svj.with_(c=0.0, gamma=np.zeros(2), m_measure=LevyMeasure.empty(2),
                     mu_measures=(LevyMeasure.empty(2),) * 2)


def plane_3d():
    """R_+ x R^2 tuple whose a and alpha^1 have off-diagonal entries: the
    eigh branch of _psd_sqrt."""
    return AffineParams.zeros(CanonicalOrthantPlane(1, 2)).with_(
        a=np.array([[0.0, 0.0, 0.0], [0.0, 0.2, 0.05], [0.0, 0.05, 0.1]]),
        alpha=np.array([[[0.25, -0.1, 0.05], [-0.1, 1.0, 0.3], [0.05, 0.3, 0.8]],
                        np.zeros((3, 3)), np.zeros((3, 3))]),
        b=np.array([0.5, 0.0, 0.1]),
        beta=np.array([[-1.0, 0.2, 0.0], [0.0, -0.3, 0.0], [0.0, 0.0, -0.5]]),
    )


def tiny_negative_diagonal():
    """Half-line tuple with a = -1e-12 and alpha = 0.25: two nonzero rows of A."""
    return AffineParams.zeros(HalfLine()).with_(
        a=np.array([[-1e-12]]), alpha=np.array([[[0.25]]]), b=np.array([0.3]))


def spectral_norm(mats):
    return np.linalg.norm(mats, ord=2, axis=(-2, -1))


class TestDiffusionRoot:
    """The Euler step roots A(X) with _psd_sqrt (closed form for d <= 2, eigh
    for d >= 3), or a single factor's A_r once; the sampler and
    euler_reference give the same floats, the sampler stays within rounding
    of the textbook step, and _psd_sqrt agrees with the independent eigh_root
    oracle."""

    # cir(sigma=3.0) has df = 4b/sigma^2 < 1, so Euler, not the exact sampler, draws it
    @pytest.mark.parametrize("make, x0", [(lambda: cir(sigma=3.0), [0.04]),
                                          (diagonal_plane, [0.1, 0.0])],
                             ids=["cir", "diagonal_plane"])
    def test_diagonal_tuples_match_the_eigh_reference(self, make, x0):
        p = make()
        ens = simulate_ensemble(p, x0, 1.0, 60, seed=5, n_paths=300)
        np.testing.assert_array_equal(ens.states, euler_reference(p, x0, 1.0, 60, 5, 300).states)

    def test_off_diagonal_tuple_matches_the_eigh_reference(self, svj):
        p = svj_diffusion(svj)
        ens = simulate_ensemble(p, [0.04, 0.0], 1.0, 60, seed=5, n_paths=300)
        np.testing.assert_array_equal(ens.states,
                                      euler_reference(p, [0.04, 0.0], 1.0, 60, 5, 300).states)

    def test_tiny_negative_diagonal_clamps_to_zero(self):
        # A(0) = -1e-12 passes validation; its root is 0, as a clamped eigh gives
        p = tiny_negative_diagonal()
        ens = simulate_ensemble(p, [0.0], 1.0, 10, seed=1, n_paths=20)
        np.testing.assert_array_equal(ens.states[:, 1, 0], 0.3 * 0.1)
        np.testing.assert_array_equal(ens.states, euler_reference(p, [0.0], 1.0, 10, 1, 20).states)

    def test_spd_2x2_roots_match_eigh_across_scales(self):
        rng = np.random.default_rng(11)
        for scale in np.logspace(-10, 5, 16):
            g = rng.standard_normal((200, 2, 2))
            mats = scale * (g @ g.transpose(0, 2, 1))
            err = np.abs(_psd_sqrt(mats) - eigh_root(mats)).max(axis=(1, 2))
            assert np.all(err <= 1e-12 * np.sqrt(spectral_norm(mats))), scale

    def test_rank_one_and_zero_2x2_roots_square_back(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((300, 2)) * np.logspace(-5, 3, 300)[:, None]
        mats = np.concatenate([np.einsum("pi,pj->pij", v, v), np.zeros((3, 2, 2))])
        root = _psd_sqrt(mats)
        np.testing.assert_array_equal(root, root.transpose(0, 2, 1))
        np.testing.assert_array_equal(root[-3:], 0.0)
        err = np.abs(root @ root - mats).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * spectral_norm(mats))

    def test_slightly_indefinite_2x2_roots_match_the_clamped_eigh_root(self):
        # rank one shifted by -1e-12 |M|: det < 0, as rounding in A(X) can give
        rng = np.random.default_rng(13)
        v = rng.standard_normal((300, 2)) * np.logspace(-5, 3, 300)[:, None]
        mats = np.einsum("pi,pj->pij", v, v)
        norm = spectral_norm(mats)
        mats = mats - 1e-12 * norm[:, None, None] * np.eye(2)
        err = np.abs(_psd_sqrt(mats) - eigh_root(mats)).max(axis=(1, 2))
        assert np.all(err <= 1e-11 * np.sqrt(norm))

    def test_1x1_root_is_the_clamped_sqrt(self):
        a = np.array([4.0, 0.25, 0.0, -0.0, -1e-12, 3e-300, 1e300]).reshape(-1, 1, 1)
        np.testing.assert_array_equal(_psd_sqrt(a), np.sqrt(np.maximum(a, 0.0)))

    def test_svj_diffusion_matches_an_eigh_rooted_reference(self, svj):
        p = svj_diffusion(svj)
        ens = simulate_ensemble(p, [0.04, 0.0], 1.0, 60, seed=5, n_paths=300)
        ref = euler_reference(p, [0.04, 0.0], 1.0, 60, 5, 300, root=eigh_root).states
        assert np.all(np.abs(ens.states - ref) <= 1e-13 * (1.0 + np.abs(ref)))

    def test_2d_step_makes_no_lapack_call(self, svj, monkeypatch):
        # the full svj tuple, jumps and killing included, with eigh disabled
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called in a d = 2 Euler step")
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        ens = simulate_ensemble(svj, [0.04, 0.0], 1.0, 40, seed=2, n_paths=50)
        assert np.isfinite(ens.states[:, 0]).all()

    def test_3d_off_diagonal_tuple_keeps_the_eigh_root(self):
        p = plane_3d()
        assert p.validate().valid
        ens = simulate_ensemble(p, [0.2, 0.0, 0.0], 1.0, 40, seed=4, n_paths=100)
        ref = euler_reference(p, [0.2, 0.0, 0.0], 1.0, 40, 4, 100).states
        np.testing.assert_array_equal(ens.states, ref)
        np.testing.assert_array_equal(
            ref, euler_reference(p, [0.2, 0.0, 0.0], 1.0, 40, 4, 100, root=eigh_root).states)

    @pytest.mark.parametrize("root", [_psd_sqrt, eigh_root], ids=["psd_sqrt", "eigh_root"])
    @pytest.mark.parametrize("make, x0", [
        (lambda: cir(sigma=3.0), [0.04]), (diagonal_plane, [0.1, 0.0]),
        ("svj", [0.04, 0.0]), (tiny_negative_diagonal, [0.0]), (plane_3d, [0.2, 0.0, 0.0])],
        ids=["cir", "diagonal_plane", "svj_diffusion", "tiny_negative", "plane_3d"])
    def test_sampler_matches_the_textbook_step(self, make, x0, root, svj):
        p = svj_diffusion(svj) if make == "svj" else make()
        ens = simulate_ensemble(p, x0, 1.0, 60, seed=5, n_paths=300)
        ref = textbook_euler(p, x0, 1.0, 60, 5, 300, root=root)
        assert np.all(np.abs(ens.states - ref) <= 1e-14 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize("make, x0, want", [
        ("svj", [0.04, 0.0], [(2, 2)]),                     # alpha^1 alone: rooted once
        (plane_3d, [0.2, 0.0, 0.0], [(100, 3, 3)] * 40)],   # a and alpha^1: every step
        ids=["svj", "plane_3d"])
    def test_a_single_factor_is_rooted_once_any_other_tuple_every_step(
            self, make, x0, want, svj, monkeypatch):
        calls = []
        monkeypatch.setattr(simulate, "_psd_sqrt", lambda m: calls.append(m.shape) or _psd_sqrt(m))
        simulate_ensemble(svj if make == "svj" else make(), x0, 1.0, 40, seed=4, n_paths=100)
        assert calls == want


class TestEulerMatchesTheReference:
    """Every bit of an Euler ensemble, jumps, killing and clamps included, is
    that of euler_reference's path-major step, whatever the sampler's layout."""

    @staticmethod
    def assert_byte_equal(p, x0, n_steps, seed, n_paths):
        ens = simulate_ensemble(p, x0, 1.0, n_steps, seed=seed, n_paths=n_paths)
        ref = euler_reference(p, x0, 1.0, n_steps, seed, n_paths)
        assert ens.states.tobytes() == ref.states.tobytes()
        assert ens.alive_until.tobytes() == ref.alive_until.tobytes()
        assert ens.clamps == ref.clamps
        return ref

    @pytest.mark.parametrize("n_paths", [1, 255, 257])
    def test_svj(self, svj, n_paths):
        ref = self.assert_byte_equal(svj, [0.04, 0.0], 200, 3, n_paths)
        if n_paths > 1:     # the oracle covers every branch: jumps, deaths and clamps
            assert np.count_nonzero(ref.alive_until <= 200) > 0
            assert ref.clamps > 0
            assert np.isnan(ref.states).any()

    @pytest.mark.parametrize("n_paths", [1, 255, 257])
    def test_high_rate_tuple(self, n_paths):
        # lam dt = 4: some steps make more than 3 jumps of 0.2 each, none is capped
        ref = self.assert_byte_equal(high_rate_jumps(), [0.0], 10, 4, n_paths)
        assert np.abs(np.diff(ref.states, axis=1)).max() > 3.5 * 0.2 or n_paths == 1

    @pytest.mark.parametrize("make, x0", [
        ("single_factor", [0.04, 0.0]), (plane_3d, [0.2, 0.0, 0.0]),
        (lambda: brownian(2), [0.0, 0.0]), (cbi_with_killing, [1.0]),
        (levy_jump_diffusion, [0.0]), (lambda: square_root(1.0, 1.0, 9.0).with_(c=1.0), [0.04]),
        (lambda: high_rate_jumps().with_(c=2.0), [0.0])],
        ids=["single_factor", "plane_3d", "brownian2", "cbi_with_killing", "levy",
             "clamped_square_root", "high_rate_killed"])
    def test_other_euler_tuples(self, make, x0, svj):
        p = svj_diffusion(svj) if make == "single_factor" else make()
        self.assert_byte_equal(p, x0, 40, 6, 257)


class TestUncappedJumps:
    """Euler's jump count is Poisson(lam dt) with no cap, its atoms a
    categorical draw per jump from one recycled uniform, and a live outcome
    finer than float64 resolves raises SamplerError."""

    def test_atom_counts_are_independent_poisson(self):
        # three atoms at 2 e_j (outside the unit ball: no compensating drift), lam dt = 4.5
        # over one step: the joint law of the per-atom counts, each binned 0, 1, 2, >= 3,
        # against that of independent Poisson(w_j dt) counts
        weights = (1.0, 1.5, 2.0)
        p = AffineParams.zeros(FullSpace(dim=3)).with_(m_measure=LevyMeasure.from_atoms(
            [(wt, 2.0 * e) for wt, e in zip(weights, np.eye(3))]))
        ens = simulate_ensemble(p, np.zeros(3), 1.0, 1, seed=0, n_paths=20000)
        counts = np.rint(ens.states[:, 1] / 2.0).astype(np.int64)
        np.testing.assert_array_equal(2.0 * counts, ens.states[:, 1])
        observed = np.bincount(np.minimum(counts, 3) @ [16, 4, 1], minlength=64)
        laws = [np.append(stats.poisson.pmf([0, 1, 2], wt), stats.poisson.sf(2, wt))
                for wt in weights]
        expected = np.einsum("i,j,k->ijk", *laws).ravel() * len(counts)
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize("atoms", [[(800.0, [0.01])],
                                       [(50.0, [0.01]), (50.0, [-0.01])]],
                             ids=["one_atom_800", "two_atoms_100"])
    def test_an_outcome_float64_cannot_resolve_raises(self, atoms):
        # exp(-800) is 0; about 100 picks between two atoms use up v's 53 bits
        p = AffineParams.zeros(FullSpace(dim=1)).with_(m_measure=LevyMeasure.from_atoms(atoms))
        with pytest.raises(SamplerError, match=r"step 1 of 1 .*refine mc\.steps"):
            simulate_ensemble(p, [0.0], 1.0, 1, seed=0, n_paths=10)
        # a finer grid resolves it; so does death, as dead paths are never checked
        simulate_ensemble(p, [0.0], 1.0, 800, seed=0, n_paths=10)
        dead = simulate_ensemble(p.with_(c=100.0), [0.0], 1.0, 1, seed=0, n_paths=10)
        assert dead.alive_until.tolist() == [1] * 10

    @pytest.mark.parametrize("radius", [0.5, math.inf])
    def test_stopped_ensemble_carries_the_clamps(self, radius):
        # cir(sigma=3.0) has df < 1: Euler draws it and clamps at 0
        ens = simulate_ensemble(cir(sigma=3.0), [0.04], 1.0, 10, seed=4, n_paths=50)
        assert stopped_ensemble(ens, radius).clamps == ens.clamps > 0


def square_root(b, kappa, sigma2):
    """dX = (b - kappa X)dt + sqrt(sigma2 X) dW on the half-line; df = 4b/sigma2."""
    return AffineParams.zeros(HalfLine()).with_(
        alpha=np.array([[[sigma2]]]), b=np.array([b]), beta=np.array([[-kappa]]))


def square_root_moments(x0, t, b, kappa, sigma2):
    """Closed-form mean and variance of the square-root diffusion at t."""
    e = math.exp(-kappa * t)
    g = t if kappa == 0.0 else -math.expm1(-kappa * t) / kappa      # (1 - e)/kappa
    return x0 * e + b * g, sigma2 * (x0 * e * g + b * g * g / 2.0)


def block_reference(seed, x0, times, b, kappa, sigma2, n_paths):
    """Path by path: path i reads its Z (n,) from spawn_key (k,) and its G (n,)
    from (k, 1) (pinned_stream), and steps X' = c [(Z + sqrt(X e^{-kappa h}/c))^2 + 2G]."""
    h = np.diff(times)
    n = len(h)
    decay = np.exp(-kappa * h)
    c = -sigma2 * np.expm1(-kappa * h) / (4.0 * kappa)
    out = np.empty((n_paths, n + 1))
    [Z] = pinned_stream(seed, n_paths, (), ("standard_normal", (n,)))
    [G] = pinned_stream(seed, n_paths, (1,),
                        ("standard_gamma", (n,), 0.5 * (4.0 * b / sigma2 - 1.0)))
    for i, (z, g) in enumerate(zip(Z, G)):
        out[i, 0] = x = x0
        for j in range(n):
            w = z[j] + math.sqrt(x * (decay[j] / c[j]))
            x = c[j] * (w * w + 2.0 * g[j])     # w * w, as np.square rounds; w ** 2 may not
            out[i, j + 1] = x
    return out


class TestClamps:
    """Euler counts the live cells its full truncation moves back to 0."""

    @pytest.mark.parametrize("killing", [0.0, 1.0])
    def test_half_line_tuple_with_large_sigma_clamps(self, killing):
        # df = 4/9 < 1: Euler draws it, and a coarse step often lands below 0
        p = square_root(1.0, 1.0, 9.0).with_(c=killing)
        ens = simulate_ensemble(p, [0.04], 1.0, 10, seed=3, n_paths=200)
        assert ens.sampler == "euler"
        # a clamped cell is stored as exactly 0.0, and a killed path's cells as nan
        assert ens.clamps == np.count_nonzero(ens.states[:, 1:] == 0.0) > 0
        assert stopped_ensemble(ens, 0.5).clamps == ens.clamps

    def test_exact_samplers_record_none(self):
        assert simulate_ensemble(cir(), [0.04], 1.0, 10, seed=1, n_paths=5).clamps == 0
        assert simulate_parabola_ensemble([0.0, 0.0], [0.0, 1.0], 1, 5).clamps == 0


class TestCirExact:
    """Square-root tuples with df = 4b/sigma^2 >= 1 get exact transitions,
    drawn in block substreams of _BLOCK paths; the rest stays on Euler."""

    @pytest.mark.parametrize("b, kappa, sigma2", [(1.0, 1.0, 1.0), (0.25, 1.0, 1.0),
                                                  (0.5, 0.0, 1.0), (0.8, -0.5, 0.4),
                                                  (2.0, 3.0, 4.0)],
                             ids=["preset", "df1", "kappa0", "kappa_negative", "fast"])
    def test_moments_match_the_closed_form_over_seeds(self, b, kappa, sigma2):
        p, x0, n = square_root(b, kappa, sigma2), 0.3, 4000
        pooled = []
        for seed in range(8):
            ens = simulate_ensemble(p, [x0], 1.0, 4, seed=seed, n_paths=n)
            assert ens.sampler == "cir_exact"
            pooled.append(ens.states[:, 1:, 0])
        pooled.append(np.concatenate(pooled))
        for x in pooled:
            for j, t in enumerate(ens.times[1:]):
                mean, var = square_root_moments(x0, t, b, kappa, sigma2)
                xj = x[:, j]
                dev = xj - xj.mean()
                z_mean = (xj.mean() - mean) / math.sqrt(var / len(xj))
                z_var = (xj.var(ddof=1) - var) / math.sqrt(
                    (np.mean(dev ** 4) - xj.var() ** 2) / len(xj))
                # 4 SE per seed, 3 SE on the pooled 32000 paths
                assert max(abs(z_mean), abs(z_var)) <= (3.0 if len(xj) > n else 4.0), \
                    (t, z_mean, z_var)

    def test_one_transition_is_a_scaled_noncentral_chi_square(self):
        b, kappa, sigma2, x0, T = 0.5, 1.5, 0.8, 0.2, 0.7
        ens = simulate_ensemble(square_root(b, kappa, sigma2), [x0], T, 1, seed=3,
                                n_paths=20000)
        c = sigma2 * -math.expm1(-kappa * T) / (4.0 * kappa)
        law = stats.ncx2(4.0 * b / sigma2, x0 * math.exp(-kappa * T) / c)
        assert stats.kstest(ens.states[:, 1, 0] / c, law.cdf).pvalue > 0.01

    def test_many_steps_across_blocks_keep_the_exact_law(self):
        # exact transitions compose, so X_T after 25 steps has the one-step law over T:
        # a block that reused another block's stream would show here
        b, kappa, sigma2, x0, T = 0.5, 1.5, 0.8, 0.2, 0.7
        ens = simulate_ensemble(square_root(b, kappa, sigma2), [x0], T, 25, seed=3,
                                n_paths=3 * _BLOCK + 17)
        c = sigma2 * -math.expm1(-kappa * T) / (4.0 * kappa)
        law = stats.ncx2(4.0 * b / sigma2, x0 * math.exp(-kappa * T) / c)
        assert stats.kstest(ens.states[:, -1, 0] / c, law.cdf).pvalue > 0.01

    def test_paths_are_a_prefix_across_a_block_boundary(self):
        p = cir()
        small = simulate_ensemble(p, [0.5], 1.0, 7, seed=2, n_paths=300)
        large = simulate_ensemble(p, [0.5], 1.0, 7, seed=2, n_paths=600)
        assert small.states.tobytes() == large.states[:300].tobytes()
        # the second block reads a stream of its own
        assert not np.array_equal(large.states[:44], large.states[_BLOCK:_BLOCK + 44])

    def test_each_path_reads_its_blocks_counter(self):
        b, kappa, sigma2, seed = 0.5, 1.2, 0.6, 9
        times = np.array([0.0, 0.1, 0.35, 1.0])
        ens = _cir_exact(np.array([0.4]), times, seed, 300, kappa, sigma2, 4.0 * b / sigma2)
        ref = block_reference(seed, 0.4, times, b, kappa, sigma2, 300)
        np.testing.assert_array_equal(ens.states[:, :, 0], ref)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_holds_little_beyond_its_states(self, monkeypatch, cpus):
        # G of one _STEPS chunk and one chunk's draws per run, not a second states-sized array
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        n_paths, n_steps = 2600, 200
        states = 8 * n_paths * (n_steps + 1)
        simulate_ensemble(cir(), [0.5], 1.0, n_steps, seed=1, n_paths=n_paths)
        tracemalloc.start()
        try:
            simulate_ensemble(cir(), [0.5], 1.0, n_steps, seed=1, n_paths=n_paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - states <= cpus * 2 * 2**20, (peak - states) / 2**20

    def test_exact_sampling_covers_df_at_least_one(self):
        # df = 4, 1 (exactly) and 24
        for p in (cir(), square_root(0.25, 1.0, 1.0), square_root(3.0, 0.0, 0.5)):
            ens = simulate_ensemble(p, [0.0], 1.0, 5, seed=1, n_paths=10)
            assert ens.sampler == "cir_exact"
            assert np.all(ens.states >= 0.0) and ens.alive_until.tolist() == [6] * 10
        euler = [cir(sigma=3.0),                                  # df = 4/9
                 square_root(0.2499, 1.0, 1.0),                   # df just below 1
                 cir().with_(c=0.3, gamma=np.array([0.2])),       # killing
                 cbi_with_killing()]                              # jumps
        for p in euler:
            assert simulate_ensemble(p, [1.0], 1.0, 5, seed=1, n_paths=10).sampler == "euler"


class TestThreadedBlocks:
    """Every sampler draws whole blocks and steps one run of blocks per CPU in
    the process's affinity, each run on its own thread; the bytes are those of
    the path-by-path references and do not depend on the number of runs."""

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("n_paths", [1, 255, 257, 2600])
    def test_equals_the_block_reference(self, monkeypatch, cpus, n_paths):
        # 3 CPUs on any host: 2600 paths are 11 blocks, more than the workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        b, kappa, sigma2, seed = 0.5, 1.2, 0.6, 4
        times = np.array([0.0, 0.25, 0.5, 1.0])
        ens = _cir_exact(np.array([0.4]), times, seed, n_paths, kappa, sigma2,
                         4.0 * b / sigma2)
        ref = block_reference(seed, 0.4, times, b, kappa, sigma2, n_paths)
        assert ens.states[:, :, 0].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("make, x0", [
        (cir, [0.5]), (parabola, [0.5, 0.25]), ("svj", [0.04, 0.0]),
        ("single_factor", [0.04, 0.0]), (plane_3d, [0.2, 0.0, 0.0])],
        ids=["cir", "parabola", "svj", "single_factor", "plane_3d"])
    def test_every_sampler_gives_equal_bytes_at_1_2_and_3_cpus(self, monkeypatch, make, x0,
                                                               svj):
        # svj: jumps, killing and clamps; single_factor: svj's non-diagonal alpha^1
        # alone, rooted once; plane_3d: a batched eigh root every step.  4 blocks
        p = svj if make == "svj" else svj_diffusion(svj) if make == "single_factor" else make()
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                                raising=False)
            ens = simulate_ensemble(p, x0, 1.0, 30, seed=5, n_paths=3 * _BLOCK + 17)
            runs.append((ens.states.tobytes(), ens.alive_until.tobytes(), ens.clamps))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("make, x0", [(parabola, [0.5, 0.25]), ("svj", [0.04, 0.0])],
                             ids=["parabola", "svj"])
    def test_paths_are_a_prefix_across_a_block_boundary(self, make, x0, svj):
        p = svj if make == "svj" else make()
        small = simulate_ensemble(p, x0, 1.0, 20, seed=2, n_paths=300)
        large = simulate_ensemble(p, x0, 1.0, 20, seed=2, n_paths=600)
        assert small.states.tobytes() == large.states[:300].tobytes()
        assert small.alive_until.tobytes() == large.alive_until[:300].tobytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("make, x0", [
        (cir, [0.4]), (parabola, [0.5, 0.25]), ("svj", [0.04, 0.0]),
        ("single_factor", [0.04, 0.0]), (plane_3d, [0.2, 0.0, 0.0]),
        (lambda: cir(sigma=3.0), [0.04])],
        ids=["cir", "parabola", "svj", "svj_diffusion", "plane_3d", "cir_sigma3"])
    def test_bytes_do_not_depend_on_the_chunk_length(self, monkeypatch, cpus, make, x0, svj):
        # row chunks of a generator's draws are its whole draws, and every running state
        # steps on across a chunk boundary; svj has jumps, deaths and clamps, and
        # cir(sigma=3.0) has df < 1, so Euler draws it and clamps
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        p = svj if make == "svj" else svj_diffusion(svj) if make == "single_factor" else make()
        seed, n_steps, n_paths = 8, 23, 2 * _BLOCK + 9
        runs = set()
        for steps in (1, 7, n_steps, n_steps + 5):
            monkeypatch.setattr(simulate, "_STEPS", steps)
            ens = simulate_ensemble(p, x0, 1.0, n_steps, seed=seed, n_paths=n_paths)
            runs.add((ens.states.tobytes(), ens.alive_until.tobytes(), ens.clamps))
        if ens.sampler == "cir_exact":
            ref = block_reference(seed, x0[0], ens.times, p.b[0], -p.beta[0, 0],
                                  p.alpha[0, 0, 0], n_paths)[:, :, None]
            ref = Ensemble(ens.times, ref, ens.alive_until, sampler="cir_exact")
        elif ens.sampler == "parabola_exact":
            [z] = pinned_stream(seed, n_paths, (), ("standard_normal", (n_steps,)))
            w = np.cumsum(np.hstack([np.full((n_paths, 1), x0[0]),
                                     np.sqrt(np.diff(ens.times)) * z]), axis=1)
            ref = Ensemble(ens.times, np.stack([w, w * w], axis=2), ens.alive_until)
        else:
            ref = euler_reference(p, x0, 1.0, n_steps, seed, n_paths)
            if make == "svj":
                assert ref.clamps > 0
                assert np.count_nonzero(ref.alive_until <= n_steps) > 0
        assert runs == {(ref.states.tobytes(), ref.alive_until.tobytes(), ref.clamps)}

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_euler_holds_little_beyond_its_documented_arrays(self, monkeypatch, cpus, svj):
        # at most 2 MB besides one chunk's normals and jump uniforms, the kill clocks and
        # hazards, the states and alive_until: whole-grid draws would not fit
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        n_paths, n_steps = 2600, 200
        chunk = min(simulate._STEPS, n_steps)
        documented = 8 * (chunk * n_paths * (2 + 1) + 2 * n_paths
                          + n_paths * (n_steps + 1) * 2 + n_paths)
        simulate_ensemble(svj, [0.04, 0.0], 1.0, n_steps, seed=1, n_paths=n_paths)
        tracemalloc.start()
        try:
            simulate_ensemble(svj, [0.04, 0.0], 1.0, n_steps, seed=1, n_paths=n_paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - documented <= 2 * 2**20, (peak - documented) / 2**20

    def test_no_thread_outlives_the_call(self, monkeypatch, svj):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        before = threading.active_count()
        for p, x0, sampler in ((cir(), [0.5], "cir_exact"),
                               (parabola(), [0.5, 0.25], "parabola_exact"),
                               (svj, [0.04, 0.0], "euler")):
            ens = simulate_ensemble(p, x0, 1.0, 10, seed=1, n_paths=3 * _BLOCK)
            assert ens.sampler == sampler
            assert threading.active_count() == before
