import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_kit.params import AffineParams, LevyMeasure
from affine_kit.presets import brownian, cir, parabola
from affine_kit.state_space import CanonicalOrthantPlane, FullSpace, HalfLine, Parabola
from conftest import invalid_negative_diffusion, invalid_negative_jump_weight, jump_integral


def random_params(seed: int, with_jumps: bool = True, d: int = 2) -> AffineParams:
    """Unconstrained random tuple on R^d (evaluator tests only, not admissible)."""
    rng = np.random.default_rng(seed)
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


def table_characteristics(p: AffineParams, x):
    """(A(x), B(x), C(x), w(x)) read from the tables as (1, x) @ table, as
    validate and the Euler sampler read them; w(x) holds the weights at p.L."""
    xt = np.concatenate(([1.0], np.asarray(x, dtype=float)))
    return np.tensordot(xt, p.A, axes=1), xt @ p.B, float(xt @ p.C), xt @ p.W


def field_characteristics(p: AffineParams, x):
    """(A(x), B(x), C(x), nu(x)) built from the tuple's fields, with
    nu(x) = m + sum_i x_i mu^i as one signed atomic measure."""
    x = np.asarray(x, dtype=float)
    measures = (p.m_measure, *p.mu_measures)
    scale = np.concatenate(([1.0], x))
    nu = LevyMeasure(np.concatenate([s * m.weights for s, m in zip(scale, measures)]),
                     np.vstack([m.locations for m in measures]))
    return (p.a + np.einsum("i,ijk->jk", x, p.alpha), p.b + x @ p.beta,
            p.c + x @ p.gamma, nu)


def jump_free_2d() -> AffineParams:
    """A 2-d tuple with diffusion, drift and killing but no jumps."""
    return AffineParams.zeros(FullSpace(dim=2)).with_(
        a=np.diag([0.3, 0.2]), b=np.array([0.1, -0.2]), c=0.05,
        alpha=np.array([[[0.5, 0.0], [0.0, 0.1]], np.zeros((2, 2))]),
        beta=np.array([[-1.0, 0.3], [0.0, 0.0]]), gamma=np.array([0.1, 0.0]))


def parabola_weight_tuple() -> AffineParams:
    """A parabola tuple whose merged weight at the atom (1, 0) is 1 - 2y at (y, y^2)."""
    return AffineParams.zeros(Parabola()).with_(
        m_measure=LevyMeasure.from_atoms([(1.0, [1.0, 0.0])]),
        mu_measures=(LevyMeasure.from_atoms([(-2.0, [1.0, 0.0])]), LevyMeasure.empty(2)))


def jump_reference(p: AffineParams, jump_free: AffineParams, U):
    """(F, R_1, R_2) of p at the rows of U, as jump_free's plus the weights times
    exp(z) - 1 - where(small, z, 0), z = <U, L_j>, computed out of place: W @ terms
    on a finite lane, the nonzero weights alone on a lane where exp overflows.
    Also returns the mask of the finite lanes."""
    R_free = np.empty_like(U)
    want = np.column_stack([jump_free.F_eval(U, R_out=R_free), R_free])
    with np.errstate(over="ignore", invalid="ignore"):
        z = U[:, 0, None] * p.L[:, 0] + U[:, 1, None] * p.L[:, 1]
        terms = np.exp(z) - 1.0 - np.where(p.small, z, 0.0)
        fin = np.isfinite(terms).all(axis=-1)
        want[fin] += (p.W.astype(complex) @ terms[fin, :, None])[..., 0]
        for part in ("real", "imag"):   # no 0 * inf: a zero weight adds nothing
            masked = np.where(p.W != 0.0, getattr(terms[~fin], part)[:, None, :], 0.0)
            getattr(want, part)[~fin] += (p.W * masked).sum(axis=-1)
    return want, fin


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
        A, B, C, w = table_characteristics(p, [1.0, -3.0])
        assert not A.any() and not B.any() and C == 0.0 and w.shape == (0,)
        assert p.L.shape == (0, 2) and p.W.shape == (3, 0)

    def test_cir_substitution(self):
        sigma, kappa, theta = 0.7, 1.3, 0.9
        p = cir(kappa=kappa, theta=theta, sigma=sigma)
        A, B, C, _ = table_characteristics(p, [2.0])
        assert A[0, 0] == pytest.approx(2 * sigma ** 2)
        assert B[0] == pytest.approx(kappa * theta - 2 * kappa)
        assert C == 0.0

    def test_jump_atoms_merge_by_location(self):
        p = AffineParams.zeros(HalfLine()).with_(
            m_measure=LevyMeasure.from_atoms([(1.0, [1.0])]),
            mu_measures=(LevyMeasure.from_atoms([(0.5, [1.0])]),),
        )
        np.testing.assert_array_equal(p.L, [[1.0]])
        np.testing.assert_array_equal(p.W, [[1.0], [0.5]])
        _, _, _, w = table_characteristics(p, [2.0])
        assert w[0] == pytest.approx(2.0)

    @given(lam=st.floats(min_value=0.0, max_value=1.0))
    @settings(deadline=None, max_examples=30)
    def test_affine_in_the_state(self, lam):
        p = random_params(3)
        x, y = np.array([0.4, -1.2]), np.array([-0.7, 2.0])
        z = lam * x + (1 - lam) * y
        for cz, cx, cy in zip(*(table_characteristics(p, s) for s in (z, x, y))):
            np.testing.assert_allclose(cz, lam * cx + (1 - lam) * cy, atol=1e-12)


class TestNonFiniteEntries:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", ["a", "alpha", "b", "beta", "c", "gamma",
                                       "atom weight", "atom location"])
    def test_is_rejected(self, entry, value):
        # each used to build a tuple (a NaN a as "not symmetric"), and a NaN b
        # or beta passed validate()
        kw = {"a": {"a": np.array([[value]])},
              "alpha": {"alpha": np.array([[[value]]])},
              "b": {"b": np.array([value])},
              "beta": {"beta": np.array([[value]])},
              "c": {"c": value},
              "gamma": {"gamma": np.array([value])},
              "atom weight": {"mu_measures": (LevyMeasure.from_atoms([(value, 1.0)]),)},
              "atom location": {"m_measure": LevyMeasure.from_atoms([(1.0, value)])}}[entry]
        with pytest.raises(ValueError, match="must be finite"):
            AffineParams.zeros(HalfLine()).with_(**kw)


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
            A, B, C, nu = field_characteristics(p, x)
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

    @pytest.mark.parametrize("name", ["brownian", "cir", "parabola", "svj"])
    def test_batched_exponents_equal_row_by_row(self, name, request):
        p = request.getfixturevalue(name)
        rng = np.random.default_rng(31)
        U = rng.standard_normal((3, 4, p.dim)) * 0.7 + 1j * rng.standard_normal((3, 4, p.dim))
        F, R = p.F_eval(U), p.R_eval(U)
        assert F.shape == (3, 4) and R.shape == (3, 4, p.dim)
        np.testing.assert_allclose(p.F_eval(U[1]), F[1], rtol=1e-14, atol=0)
        np.testing.assert_allclose(p.R_eval(U[1]), R[1], rtol=1e-14, atol=0)
        for idx in np.ndindex(3, 4):
            assert F[idx] == pytest.approx(p.F_eval(U[idx]), rel=1e-14)
            np.testing.assert_allclose(R[idx], p.R_eval(U[idx]), rtol=1e-14, atol=0)
        # R_out: one pass over all rows gives F and writes R, batched and at one point
        for u in (U, U[2, 1]):
            R_out = np.full(u.shape, np.nan, dtype=complex)
            F_fused = p.F_eval(u, R_out=R_out)
            assert type(F_fused) is (complex if u.ndim == 1 else np.ndarray)
            np.testing.assert_array_equal(F_fused, p.F_eval(u), strict=True)
            np.testing.assert_array_equal(R_out, p.R_eval(u), strict=True)

    def test_zero_weight_is_masked_per_row_of_a_batch(self):
        # the row [-800] overflows exp at the mu^1 atom, where m has weight 0;
        # the other rows do not overflow anywhere
        p = AffineParams.zeros(HalfLine()).with_(
            m_measure=LevyMeasure.from_atoms([(1.0, 0.5)]),
            mu_measures=(LevyMeasure.from_atoms([(2.0, -1.0)]),))
        U = np.array([[0.3 + 1j], [-800.0], [-1.0]])
        R_out = np.empty_like(U)
        with np.errstate(over="ignore", invalid="ignore"):
            F, R = p.F_eval(U), p.R_eval(U)
            F_fused = p.F_eval(U, R_out=R_out)
        assert F[1] == 399.0
        assert np.isinf(R[1, 0].real)
        np.testing.assert_array_equal(F_fused, F)
        np.testing.assert_array_equal(R_out, R)
        for row, u in zip(F[[0, 2]], U[[0, 2]]):
            assert row == pytest.approx(p.F_eval(u), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
    def test_a_lane_does_not_depend_on_the_batch_size(self, svj, n):
        # BLAS picks other kernels for other row counts (gemv at one row), so
        # only a product per lane keeps each lane's bits those of its own call;
        # the dense tuples put nonzero entries on every coordinate of every table
        rng = np.random.default_rng(n)
        for p in (svj, random_params(5, d=2), random_params(6, d=3)):
            d = p.dim
            U = rng.standard_normal((n, d)) * 2.0 + 3j * rng.standard_normal((n, d))
            R = np.empty_like(U)
            FR = np.empty((n, 2, d + 1), dtype=complex)[:, 1]  # strided, as a Riccati stage
            F_fused, F = p.F_eval(U, R_out=R), p.F_eval(U)
            FR[:, 0] = p.F_eval(U, R_out=FR[:, 1:])
            for i, u in enumerate(U):
                r = np.empty(d, dtype=complex)
                assert p.F_eval(u, R_out=r) == F_fused[i] and (r == R[i]).all()
                assert p.F_eval(u) == F[i]
                assert FR[i, 0] == F_fused[i] and (FR[i, 1:] == R[i]).all()

    def test_overflow_masks_zero_weights_lane_by_lane(self):
        # lane 1 overflows exp at the mu^1 atom (0, -1), whose weight is 0 in the
        # F and R_2 rows; only over= is ignored, so a 0 * inf would raise here
        jump_free = jump_free_2d()
        p = jump_free.with_(
            m_measure=LevyMeasure.from_atoms(
                [(0.5, [0.0, 0.1]), (0.3, [0.05, 0.0]), (0.7, [-0.2, 0.3]), (0.2, [0.4, -0.1])]),
            mu_measures=(LevyMeasure.from_atoms([(2.0, [0.0, -1.0])]),
                         LevyMeasure.from_atoms([(0.4, [0.3, 0.0]), (0.6, [0.0, 0.1])])))
        rng = np.random.default_rng(4)
        U = rng.standard_normal((9, 2)) * 2.0 + 3j * rng.standard_normal((9, 2))
        U[1] = [0.2 + 1j, -800.0]
        R = np.empty_like(U)
        with np.errstate(over="ignore"):
            F_fused, F = p.F_eval(U, R_out=R), p.F_eval(U)
        ref, fin = jump_reference(p, jump_free, U)
        assert fin.tolist() == [i != 1 for i in range(len(U))]
        assert F_fused[1] == F[1] == ref[1, 0] and R[1, 1] == ref[1, 2]
        assert R[1, 0].real == np.inf
        for i in np.delete(np.arange(len(U)), 1):    # the other lanes keep their own bits
            r = np.empty(2, dtype=complex)
            assert p.F_eval(U[i], R_out=r) == F_fused[i] and (r == R[i]).all()
            assert p.F_eval(U[i]) == F[i]
            np.testing.assert_allclose(np.append(F_fused[i], R[i]), ref[i], rtol=1e-14)

    @pytest.mark.parametrize("atoms", [
        [[0.0, 0.1], [0.05, 0.0], [-0.2, 0.3]],     # all in the unit ball
        [[0.0, 0.1], [1.5, 0.0], [-0.2, 0.3]],      # some in it
        [[0.0, 1.1], [1.5, 0.0], [-2.0, 0.3]],      # none in it
    ], ids=["all-small", "mixed", "none-small"])
    @pytest.mark.parametrize("overflow", [False, True])
    def test_jump_terms_equal_the_truncated_formula_bit_for_bit(self, atoms, overflow):
        # every lane of F and R, with the atom set all in, partly in and all
        # outside the unit ball, equals the out-of-place reference bit for bit
        jump_free = jump_free_2d()
        p = jump_free.with_(
            m_measure=LevyMeasure.from_atoms([(0.5, atoms[0]), (0.3, atoms[1])]),
            mu_measures=(LevyMeasure.from_atoms([(2.0, atoms[2]), (0.4, atoms[0])]),
                         LevyMeasure.empty(2)))
        rng = np.random.default_rng(7)
        U = rng.standard_normal((9, 2)) * 2.0 + 3j * rng.standard_normal((9, 2))
        if overflow:
            U[4] = [9000.0, 9000.0]     # exp(z) overflows at each atom with L_1 + L_2 >= 0.1
        R = np.empty_like(U)
        with np.errstate(over="ignore", invalid="ignore"):
            got = np.column_stack([p.F_eval(U, R_out=R), R])
        want, fin = jump_reference(p, jump_free, U)
        assert fin.all() != overflow
        np.testing.assert_array_equal(got, want, strict=True)

    def test_single_point_keeps_return_types(self, svj):
        F, R = svj.F_eval([-0.3 + 1j, 0.5j]), svj.R_eval([-0.3 + 1j, 0.5j])
        assert type(F) is complex
        assert isinstance(R, np.ndarray) and R.shape == (2,)

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


QUARTERS = st.sampled_from([k / 4.0 for k in range(-4, 5)])


@st.composite
def orthant_tuples(draw):
    """A tuple on R_+^m x R^n, m + n <= 3, of entries in multiples of 0.25 in
    [-1, 1] and 0-2 atoms, admissible or not."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0 if m else 1, 3 - m))
    d = m + n

    def vec(k):    # each table is zero or drawn whole, so that some tuples pass
        return np.array(draw(st.lists(QUARTERS, min_size=k, max_size=k))) * draw(st.booleans())

    def sym():
        upper = np.triu(vec(d * d).reshape(d, d))
        return upper + np.triu(upper, 1).T

    locs = np.array([draw(st.lists(QUARTERS, min_size=d, max_size=d).filter(any))
                     for _ in range(draw(st.integers(0, 2)))]).reshape(-1, d)
    W = np.array([vec(len(locs)) for _ in range(d + 1)]).reshape(d + 1, len(locs))
    return AffineParams(
        space=CanonicalOrthantPlane(m, n), a=sym(), alpha=np.array([sym() for _ in range(d)]),
        b=vec(d), beta=vec(d * d).reshape(d, d), c=float(vec(1)[0]), gamma=vec(d),
        m_measure=LevyMeasure(np.abs(W[0]), locs),
        mu_measures=tuple(LevyMeasure(W[1 + i], locs) for i in range(d)))


def failures(p, x) -> set:
    """The kinds of admissibility condition that fail at the state x of D."""
    xt = np.concatenate([[1.0], x])
    A, rate, w = np.tensordot(xt, p.A, axes=1), xt @ p.C, xt @ p.W
    out = set()
    if np.linalg.eigvalsh(A)[0] < -1e-10 * (1.0 + np.abs(A).max()):
        out.add("diffusion_not_psd")
    if rate < -1e-12:
        out.add("negative_killing_rate")
    if (w < -1e-12).any():
        out.add("negative_jump_weight")
    if ((w > 1e-12) & ~p.space.contains(x + p.L)).any():
        out.add("jump_leaves_state_space")
    return out


class TestValidate:
    @pytest.mark.parametrize("name", ["brownian", "cir", "parabola", "svj"])
    def test_presets_are_admissible(self, name, request):
        # svj: jumps in both coordinates, none of which leaves R_+ x R
        report = request.getfixturevalue(name).validate()
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

    def test_jump_that_leaves_the_half_line_is_flagged(self):
        # b = 1 and m = 2 delta_{-1}: from every x < 1 the atom jumps below 0
        p = AffineParams.zeros(HalfLine()).with_(
            b=np.array([1.0]), m_measure=LevyMeasure.from_atoms([(2.0, -1.0)]))
        (v,) = p.validate().violations
        assert (v.kind, v.x.tolist(), v.value) == ("jump_leaves_state_space", [0.0], 2.0)
        assert v.detail.startswith("at x = [0.]")

    def test_the_same_jump_on_the_full_line_is_valid(self):
        p = AffineParams.zeros(FullSpace(dim=1)).with_(
            b=np.array([1.0]), m_measure=LevyMeasure.from_atoms([(2.0, -1.0)]))
        assert p.validate().valid

    def test_an_atom_of_zero_weight_may_leave(self):
        # mu^1 = 2 delta_{-1}: weight 2x, zero at x = 0, but it grows along r = 1
        # and the jump leaves from every 0 < x < 1
        p = AffineParams.zeros(HalfLine()).with_(
            mu_measures=(LevyMeasure.from_atoms([(2.0, -1.0)]),))
        (v,) = p.validate().violations
        assert (v.kind, v.x.tolist(), v.value) == ("jump_leaves_state_space", [1.0], 2.0)
        assert v.detail.startswith("along r = [1.]") and "from x = [0.]" in v.detail

    def test_landing_is_checked_per_coordinate(self):
        # on R_+ x R only the first coordinate must stay >= 0
        space = CanonicalOrthantPlane(1, 1)
        free = AffineParams.zeros(space).with_(
            m_measure=LevyMeasure.from_atoms([(1.0, [0.5, -3.0])]))
        assert free.validate().valid
        leaving = free.with_(m_measure=LevyMeasure.from_atoms([(1.0, [-0.5, 3.0])]))
        assert {v.kind for v in leaving.validate().violations} == {"jump_leaves_state_space"}

    @pytest.mark.parametrize("name", ["A", "C", "w", "full-line A"])
    def test_sign_conditions_hold_on_all_of_d(self, name):
        # each tuple passes at every state with coordinates in [-5, 5] and fails past it
        half = AffineParams.zeros(HalfLine())
        p, kind, r = {
            "A": (half.with_(a=np.eye(1), alpha=np.array([[[-0.1]]])),
                  "diffusion_not_psd", [1.0]),
            "C": (half.with_(c=1.0, gamma=np.array([-0.1])), "negative_killing_rate", [1.0]),
            "w": (half.with_(m_measure=LevyMeasure.from_atoms([(1.0, 1.0)]),
                             mu_measures=(LevyMeasure.from_atoms([(-0.1, 1.0)]),)),
                  "negative_jump_weight", [1.0]),
            "full-line A": (AffineParams.zeros(FullSpace(1)).with_(
                a=np.array([[100.0]]), alpha=np.array([[[1.0]]])), "diffusion_not_psd", [-1.0]),
        }[name]
        report = p.validate()
        assert [(v.kind, v.x.tolist()) for v in report.violations] == [(kind, r)]
        assert report.violations[0].detail.startswith(f"along r = {np.array(r)}")
        assert f"{kind}: along r" in str(report)

    @pytest.mark.parametrize("case", [
        "A at x", "A along r", "C at x", "C along r", "w at x", "w along r"])
    def test_each_sign_violation_is_pinned(self, case):
        # the first violation of each kind: witness, value and detail text, at a state
        # (the parabola's (1, 1) for w, since m >= 0 at the origin) and along a ray
        half = AffineParams.zeros(HalfLine())
        p, kind, x, value, detail = {
            "A at x": (half.with_(a=-np.eye(1)), "diffusion_not_psd", [0.0], -1.0,
                       "at x = [0.]: min eigenvalue of A(x) is -1.000e+00"),
            "A along r": (half.with_(a=np.eye(1), alpha=np.array([[[-0.1]]])),
                          "diffusion_not_psd", [1.0], -0.1,
                          "along r = [1.]: min eigenvalue of dA/dr is -1.000e-01"),
            "C at x": (half.with_(c=-0.5), "negative_killing_rate", [0.0], -0.5,
                       "at x = [0.]: killing rate C(x) is -5.000e-01"),
            "C along r": (half.with_(c=1.0, gamma=np.array([-0.1])), "negative_killing_rate",
                          [1.0], -0.1, "along r = [1.]: killing rate dC/dr is -1.000e-01"),
            "w at x": (parabola_weight_tuple(), "negative_jump_weight", [1.0, 1.0], -1.0,
                       "at x = [1. 1.]: merged jump weight w(x) is -1.000e+00"),
            "w along r": (half.with_(m_measure=LevyMeasure.from_atoms([(1.0, 1.0)]),
                                     mu_measures=(LevyMeasure.from_atoms([(-0.1, 1.0)]),)),
                          "negative_jump_weight", [1.0], -0.1,
                          "along r = [1.]: merged jump weight dw/dr is -1.000e-01"),
        }[case]
        report = p.validate()
        v = next(v for v in report.violations if v.kind == kind)
        assert (v.x.tolist(), v.value, v.detail) == (x, value, detail)
        assert type(v.value) is float
        assert f"  - {kind}: {detail}" in str(report)

    def test_a_rows_violations_follow_the_sign_table_then_landing(self):
        # A = -I and C = -0.5 at every state; w = 1 - 2y, whose atom leaves D from (0, 0)
        p = parabola_weight_tuple().with_(a=-np.eye(2), c=-0.5)
        assert [(v.kind, v.x.tolist()) for v in p.validate().violations[:6]] == [
            ("diffusion_not_psd", [0.0, 0.0]), ("negative_killing_rate", [0.0, 0.0]),
            ("jump_leaves_state_space", [0.0, 0.0]), ("diffusion_not_psd", [1.0, 1.0]),
            ("negative_killing_rate", [1.0, 1.0]), ("negative_jump_weight", [1.0, 1.0])]

    @given(p=orthant_tuples())
    @settings(deadline=None, max_examples=150, derandomize=True)
    def test_validate_is_sound_on_the_orthant_plane(self, p):
        report = p.validate()
        kinds = {v.kind for v in report.violations}
        if report.valid:
            # coordinates of magnitude 1e-3 to 1e3, log-uniform: near 0, where
            # jumps leave, and far out, where the slopes dominate
            rng = np.random.default_rng(0)
            states = 10.0 ** rng.uniform(-3.0, 3.0, size=(100, p.dim))
            states[:, p.space.m :] *= rng.choice([-1.0, 1.0], size=(100, p.space.n))
            for x in states:
                assert not failures(p, x)
        for v in report.violations:
            if v.detail.startswith("at x"):
                assert v.kind in failures(p, v.x)
            elif v.kind != "jump_leaves_state_space":
                assert v.kind in failures(p, 1e4 * v.x)
            else:
                # the atom leaves D from near 0, where its weight grows along r,
                # unless that weight is already negative at 0
                assert v.kind in failures(p, 1e-3 * v.x) or "negative_jump_weight" in kinds

    def test_base_measure_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            AffineParams.zeros(HalfLine()).with_(
                m_measure=LevyMeasure.from_atoms([(-1.0, [1.0])]))
