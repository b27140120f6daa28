import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_kit.params import AdmissibilityError, AffineParams, LevyMeasure, jump_integral
from affine_kit.presets import (
    brownian,
    cir,
    invalid_negative_diffusion,
    invalid_negative_jump_weight,
    parabola,
)
from affine_kit.state_space import FullSpace, HalfLine


def random_params(seed: int, with_jumps: bool = True) -> AffineParams:
    """Unconstrained random tuple on R^2 (evaluator tests only, not admissible)."""
    rng = np.random.default_rng(seed)
    d = 2
    sym = lambda m: 0.5 * (m + m.T)
    p = AffineParams.zeros(FullSpace(dim=d))
    m = LevyMeasure.from_atoms(
        [(rng.uniform(0, 1), rng.uniform(-2, 2, size=d)) for _ in range(3)]) \
        if with_jumps else LevyMeasure.empty(d)
    mus = tuple(
        LevyMeasure.from_atoms(
            [(rng.uniform(-1, 1), rng.uniform(-2, 2, size=d)) for _ in range(2)])
        for _ in range(d)) if with_jumps else tuple(LevyMeasure.empty(d) for _ in range(d))
    return p.with_(
        a=sym(rng.standard_normal((d, d))),
        alpha=np.stack([sym(rng.standard_normal((d, d))) for _ in range(d)]),
        b=rng.standard_normal(d),
        beta=rng.standard_normal((d, d)),
        c=rng.standard_normal(),
        gamma=rng.standard_normal(d),
        m_measure=m,
        mu_measures=mus,
    )


class TestLevyMeasure:
    def test_rejects_zero_location(self):
        with pytest.raises(ValueError):
            LevyMeasure.from_atoms([(1.0, [0.0, 0.0])])


class TestJumpIntegral:
    def test_empty_measure(self):
        assert jump_integral(LevyMeasure.empty(3), [1j, 0, 0]) == 0.0

    def test_vanishes_at_zero(self):
        m = LevyMeasure.from_atoms([(1.0, [2.0])])
        assert jump_integral(m, [0.0]) == 0.0

    def test_scalar_atom_inside_unit_ball(self):
        # single atom at 0.5 with weight 1: e^{0.5} - 1 - 0.5
        m = LevyMeasure.from_atoms([(1.0, [0.5])])
        expected = math.exp(0.5) - 1.5
        assert expected == pytest.approx(0.148721270700128, abs=1e-12)
        assert jump_integral(m, [1.0]) == pytest.approx(expected, rel=1e-15)

    def test_atom_outside_unit_ball_not_compensated(self):
        m = LevyMeasure.from_atoms([(1.0, [2.0])])
        u = 0.3 + 0.4j
        assert jump_integral(m, [u]) == pytest.approx(np.exp(2 * u) - 1.0, rel=1e-14)


class TestCharacteristics:
    def test_all_zero(self):
        p = AffineParams.zeros(FullSpace(dim=2))
        A, B, C, nu = p.characteristics_at([1.0, -3.0])
        assert not A.any() and not B.any() and C == 0.0 and len(nu) == 0

    def test_cir_substitution(self):
        sigma, kappa, theta = 0.7, 1.3, 0.9
        p = cir(kappa=kappa, theta=theta, sigma=sigma)
        A, B, C, _ = p.characteristics_at([2.0])
        assert A[0, 0] == pytest.approx(2 * sigma ** 2)
        assert B[0] == pytest.approx(kappa * theta - 2 * kappa)
        assert C == 0.0

    def test_jump_atoms_merge_by_location(self):
        p = AffineParams.zeros(HalfLine()).with_(
            m_measure=LevyMeasure.from_atoms([(1.0, [1.0])]),
            mu_measures=(LevyMeasure.from_atoms([(0.5, [1.0])]),),
        )
        _, _, _, nu = p.characteristics_at([2.0])
        assert len(nu) == 1
        assert nu.weights[0] == pytest.approx(2.0)
        assert nu.locations[0] == pytest.approx([1.0])

    def test_rejects_state_outside_space(self):
        with pytest.raises(AdmissibilityError):
            cir().characteristics_at([-1.0])

    def test_rejects_negative_merged_weight(self):
        with pytest.raises(AdmissibilityError):
            invalid_negative_jump_weight().characteristics_at([1.0])

    @given(lam=st.floats(min_value=0.0, max_value=1.0))
    @settings(deadline=None, max_examples=30)
    def test_affine_in_the_state(self, lam):
        p = random_params(3)
        x, y = np.array([0.4, -1.2]), np.array([-0.7, 2.0])
        z = lam * x + (1 - lam) * y
        Az, Bz, Cz, _ = p.characteristics_at(z, check=False)
        Ax, Bx, Cx, _ = p.characteristics_at(x, check=False)
        Ay, By, Cy, _ = p.characteristics_at(y, check=False)
        np.testing.assert_allclose(Az, lam * Ax + (1 - lam) * Ay, atol=1e-12)
        np.testing.assert_allclose(Bz, lam * Bx + (1 - lam) * By, atol=1e-12)
        assert Cz == pytest.approx(lam * Cx + (1 - lam) * Cy, abs=1e-12)


class TestExponents:
    def test_zero_params_vanish(self):
        p = AffineParams.zeros(FullSpace(dim=2))
        assert p.F_eval([1j, 2j]) == 0.0
        assert not p.R_eval([1j, 2j]).any()

    def test_killing_constants_at_zero(self):
        # F(0) = -c and R(0) = -gamma: the zero-argument exponent is pure killing
        p = random_params(11)
        zero = np.zeros(2)
        assert p.F_eval(zero) == pytest.approx(-p.c, rel=1e-14)
        np.testing.assert_allclose(p.R_eval(zero), -p.gamma, atol=1e-14)

    def test_quadratic_term(self):
        p = brownian(2)
        assert p.F_eval([1.0, 0.0]) == pytest.approx(0.5)

    def test_cir_exponent_shape(self):
        sigma, kappa = 0.6, 1.1
        p = cir(kappa=kappa, theta=0.8, sigma=sigma)
        for u in (-1.0, -0.3 + 0.9j, 2.4j):
            expected = 0.5 * sigma ** 2 * u ** 2 - kappa * u
            assert p.R_eval([u])[0] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_exponent_assembles_from_characteristics(self, seed):
        # F(u) + <R(u), x> must equal the exponent built from (A, B, C, nu)(x)
        p = random_params(seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=2)
            u = rng.standard_normal(2) * 0.5 + 1j * rng.standard_normal(2)
            A, B, C, nu = p.characteristics_at(x, check=False)
            lhs = p.F_eval(u) + p.R_eval(u) @ x
            rhs = 0.5 * (u @ A @ u) + B @ u - C + jump_integral(nu, u)
            scale = 1.0 + abs(lhs) + abs(rhs)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_each_row_reads_its_own_jump_measure(self):
        # m and mu^1 share the atom (0.3, -0.4); mu^1 alone has (1.5, 0.5),
        # outside the unit ball; mu^2 is empty
        rng = np.random.default_rng(21)
        sym = lambda m: 0.5 * (m + m.T)
        a = sym(rng.standard_normal((2, 2)))
        alpha = np.stack([sym(rng.standard_normal((2, 2))) for _ in range(2)])
        b, beta = rng.standard_normal(2), rng.standard_normal((2, 2))
        c, gamma = 0.3, rng.standard_normal(2)
        m = LevyMeasure.from_atoms([(0.7, [0.3, -0.4]), (0.2, [-0.6, 0.1])])
        mus = (LevyMeasure.from_atoms([(-0.4, [0.3, -0.4]), (0.9, [1.5, 0.5])]),
               LevyMeasure.empty(2))
        p = AffineParams.zeros(FullSpace(dim=2)).with_(
            a=a, alpha=alpha, b=b, beta=beta, c=c, gamma=gamma,
            m_measure=m, mu_measures=mus)
        for _ in range(5):
            u = rng.standard_normal(2) * 0.5 + 1j * rng.standard_normal(2)
            F = 0.5 * (u @ a @ u) + b @ u - c + jump_integral(m, u)
            assert p.F_eval(u) == pytest.approx(F, rel=1e-14)
            R = p.R_eval(u)
            for i in range(2):
                Ri = (0.5 * (u @ alpha[i] @ u) + beta[i] @ u - gamma[i]
                      + jump_integral(mus[i], u))
                assert R[i] == pytest.approx(Ri, rel=1e-14)

    def test_zero_weight_adds_nothing_where_exp_overflows(self):
        # at u = -800 the mu^1 atom at -1 overflows exp; m has weight 0 there
        p = AffineParams.zeros(HalfLine()).with_(
            m_measure=LevyMeasure.from_atoms([(1.0, 0.5)]),
            mu_measures=(LevyMeasure.from_atoms([(2.0, -1.0)]),))
        with np.errstate(over="ignore"):
            assert p.F_eval([-800.0]) == 399.0

    @pytest.mark.parametrize("make", [brownian, cir, parabola])
    def test_real_part_maximized_at_zero_frequency(self, make):
        # Re(F(iy) + <x, R(iy)>) <= F(0) + <x, R(0)> for admissible params
        p = make()
        rng = np.random.default_rng(17)
        basis = p.space.affine_basis()
        for x in basis:
            base = (p.F_eval(np.zeros(p.dim)) + x @ p.R_eval(np.zeros(p.dim))).real
            for _ in range(30):
                y = rng.standard_normal(p.dim) * 2.0
                val = (p.F_eval(1j * y) + x @ p.R_eval(1j * y)).real
                assert val <= base + 1e-12


class TestValidate:
    @pytest.mark.parametrize("make", [brownian, cir, parabola])
    def test_presets_are_admissible(self, make):
        report = make().validate()
        assert report.valid, str(report)

    def test_zero_params_valid(self):
        assert AffineParams.zeros(FullSpace(dim=1)).validate().valid

    def test_statedependent_diffusion_on_half_line(self):
        p = AffineParams.zeros(HalfLine()).with_(
            alpha=np.array([[[1.0]]]), b=np.array([1.0]))
        assert p.validate().valid

    def test_negative_diffusion_direction_is_flagged(self):
        report = invalid_negative_diffusion().validate()
        assert not report.valid
        bad = [v for v in report.violations if v.kind == "diffusion_not_psd"]
        assert bad and all(v.x[0] < 0 for v in bad)

    def test_negative_jump_weight_is_flagged(self):
        report = invalid_negative_jump_weight().validate()
        assert not report.valid
        kinds = {v.kind for v in report.violations}
        assert "negative_jump_weight" in kinds

    def test_negative_killing_rate_is_flagged(self):
        p = AffineParams.zeros(HalfLine()).with_(c=-0.5)
        report = p.validate()
        assert not report.valid
        assert any(v.kind == "negative_killing_rate" for v in report.violations)

    def test_report_records_sign_convention(self):
        report = brownian().validate()
        assert any("killing rate" in n for n in report.notes)

    def test_base_measure_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            AffineParams.zeros(HalfLine()).with_(
                m_measure=LevyMeasure.from_atoms([(-1.0, [1.0])]))
