import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from affine_kit.state_space import (
    CanonicalOrthantPlane,
    FullSpace,
    HalfLine,
    Parabola,
    _halton,
    random_u_in_domain,
    space_from_config,
)

ALL_SPACES = [
    FullSpace(dim=2),
    HalfLine(),
    CanonicalOrthantPlane(1, 1),
    CanonicalOrthantPlane(2, 0),
    Parabola(),
]


def brute_force_support(space, u, n=200001, radius=50.0):
    """Independent oracle: maximize Re<u, x> over a dense sample of D."""
    if isinstance(space, Parabola):
        y = np.linspace(-radius, radius, n)
        pts = np.column_stack([y, y * y])
    elif isinstance(space, HalfLine):
        pts = np.linspace(0, radius, n).reshape(-1, 1)
    elif isinstance(space, CanonicalOrthantPlane):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-radius, radius, size=(n, space.dim))
        pts[:, : space.m] = np.abs(pts[:, : space.m])
    else:
        rng = np.random.default_rng(0)
        pts = rng.uniform(-radius, radius, size=(n, space.dim))
    return float(np.max(pts @ np.asarray(u, dtype=complex).real))


class TestContains:
    def test_full_space_contains_everything(self):
        assert FullSpace(dim=2).contains([3.0, -4.0])

    def test_parabola_point(self):
        assert Parabola().contains([2.0, 4.0])
        assert not Parabola().contains([2.0, 4.1])

    def test_orthant_rejects_negative_constrained_coord(self):
        assert not CanonicalOrthantPlane(1, 1).contains([-1.0, 0.0])
        assert CanonicalOrthantPlane(1, 1).contains([0.0, -7.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FullSpace(dim=2).contains([1.0])


class TestSupport:
    def test_orthant_mixed(self):
        # maximize -x1 over x1 >= 0 (sup 0) with imaginary second component
        space = CanonicalOrthantPlane(1, 1)
        assert space.support([-1.0, 2.0j]) == 0.0
        assert space.support([0.5, 0.0]) == math.inf
        assert space.support([-1.0, 1e-9]) == math.inf

    def test_parabola_maximum_of_quadratic(self):
        # sup of y - y^2 is 1/4, attained at y = 1/2
        space = Parabola()
        assert space.support([1.0, -1.0]) == pytest.approx(0.25, abs=1e-15)
        oracle = brute_force_support(space, [1.0, -1.0], radius=5.0)
        assert oracle <= 0.25 + 1e-6
        assert oracle == pytest.approx(0.25, abs=1e-6)

    def test_parabola_unbounded_directions(self):
        space = Parabola()
        assert space.support([0.0, 1.0]) == math.inf
        assert space.support([1.0, 0.0]) == math.inf
        assert space.support([0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("space", ALL_SPACES)
    def test_purely_imaginary_has_level_zero(self, space):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = 1j * rng.standard_normal(space.dim)
            assert space.support(u) == 0.0

    @pytest.mark.parametrize("space", ALL_SPACES)
    def test_support_dominates_sampled_inner_products(self, space):
        rng = np.random.default_rng(7)
        for _ in range(25):
            u = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            lvl = space.support(u)
            if lvl < math.inf:
                assert brute_force_support(space, u, n=20001) <= lvl + 1e-6

    @given(lam=st.floats(min_value=0.01, max_value=100.0))
    @settings(deadline=None, max_examples=40)
    def test_positive_homogeneity(self, lam):
        space = Parabola()
        for u in ([1.0, -1.0], [0.5 + 1j, -0.25 + 2j], [0.0, 0.0], [1j, 1j]):
            lvl = space.support(u)
            if lvl < math.inf:
                assert space.support(lam * np.asarray(u, dtype=complex)) == pytest.approx(
                    lam * lvl, rel=1e-12, abs=1e-12)


class TestAffineBasis:
    @pytest.mark.parametrize("space", ALL_SPACES)
    def test_points_lie_in_space_and_affinely_span(self, space):
        basis = space.affine_basis()
        assert basis.shape == (space.dim + 1, space.dim)
        for x in basis:
            assert space.contains(x)
        diffs = basis[1:] - basis[0]
        assert np.linalg.matrix_rank(diffs) == space.dim

    def test_full_space_1d(self):
        basis = FullSpace(dim=1).affine_basis()
        assert sorted(b[0] for b in basis) == [0.0, 1.0]

    def test_parabola_basis(self):
        assert np.array_equal(Parabola().affine_basis(),
                              [[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])


class TestSamplingAndConfig:
    @pytest.mark.parametrize("space", ALL_SPACES)
    def test_samples_lie_in_space(self, space):
        for x in space.sample_points(50):
            assert space.contains(x)

    def test_space_from_config_round_trip(self):
        assert space_from_config({"kind": "full", "d": 3}).dim == 3
        assert isinstance(space_from_config({"kind": "parabola"}), Parabola)
        s = space_from_config({"kind": "orthant_plane", "m": 1, "n": 2})
        assert (s.m, s.n, s.dim) == (1, 2, 3)
        with pytest.raises(ValueError):
            space_from_config({"kind": "dodecahedron"})


class TestHalton:
    """The radical-inverse Halton points equal scipy's unscrambled engine bitwise."""

    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("n", [0, 1, 7, 64, 1000])
    def test_equals_scipy_halton(self, d, n):
        assert np.array_equal(_halton(n, d), qmc.Halton(d=d, scramble=False).random(n))

    @pytest.mark.parametrize("space", [FullSpace(2), HalfLine(), CanonicalOrthantPlane(1, 2),
                                       Parabola()])
    def test_sample_points_equal_the_scipy_formula(self, space):
        radius = 5.0
        if isinstance(space, Parabola):
            y = (2.0 * qmc.Halton(d=1, scramble=False).random(64)[:, 0] - 1.0) * radius
            want = np.column_stack([y, y * y])
        else:
            h = qmc.Halton(d=space.dim, scramble=False).random(64)
            want = (2.0 * h - 1.0) * radius
            want[:, : space.m] = h[:, : space.m] * radius
        assert np.array_equal(space.sample_points(64), want)


CONTRACT_SPACES = [FullSpace(1), FullSpace(2), HalfLine(), CanonicalOrthantPlane(1, 1),
                   CanonicalOrthantPlane(2, 0), Parabola()]


class TestArrayContract:
    @pytest.mark.parametrize("space", CONTRACT_SPACES, ids=repr)
    def test_arrays_match_row_by_row_answers(self, space):
        rng = np.random.default_rng(11)
        # signed zeros, the smallest subnormal, points in and just outside the
        # tol bands (the parabola's corner band among them) and plain values
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12, 2e-11, -2e-11, 1.0, -1.0, -2.5]
        n = 600
        U = (rng.choice(special, size=(n, space.dim))
             + 1j * rng.choice([0.0, -0.0, 1.0, -3.0], size=(n, space.dim)))
        tols = rng.choice([0.0, 1e-12, 1e-11, 1e-9], size=n)
        with np.errstate(over="ignore"):    # p^2 / 4q overflows to inf, row by row as well
            sup, member = space.support(U), space.in_domain(U, tol=tols)
            member0 = space.in_domain(U)
            for k, u in enumerate(U):
                s = space.support(u)
                assert type(s) is float
                assert s == sup[k] and math.copysign(1.0, s) == math.copysign(1.0, sup[k])
                for got, want in ((member[k], space.in_domain(u, tol=tols[k])),
                                  (member0[k], space.in_domain(u))):
                    assert type(want) is bool and got == want
        assert sup.shape == member.shape == (n,) and member.dtype == bool
        # leading axes beyond one and a scalar tol broadcast the same way
        np.testing.assert_array_equal(space.in_domain(U.reshape(20, 30, -1), tol=1e-11),
                                      space.in_domain(U, tol=1e-11).reshape(20, 30))
        # contains on the same values as points, non-finite ones too; on the
        # parabola half the rows lie on the curve up to a relative offset
        points = rng.choice(special + [math.nan, math.inf, -math.inf], size=(n, space.dim))
        if isinstance(space, Parabola):
            y = points[::2, 0]
            offset = rng.choice([0.0, 5e-13, -5e-13, 2e-12, -2e-12], size=len(y))
            with np.errstate(invalid="ignore"):
                points[::2, 1] = y * y * (1.0 + offset)
        with np.errstate(invalid="ignore"):     # inf - inf on the parabola, row by row as well
            inside = space.contains(points)
            for k, x in enumerate(points):
                want = space.contains(x)
                assert type(want) is bool and inside[k] == want
            np.testing.assert_array_equal(space.contains(points.reshape(20, 30, -1)),
                                          inside.reshape(20, 30))
        assert inside.shape == (n,) and inside.dtype == bool
        assert inside.any() and (isinstance(space, FullSpace) or not inside.all())

    @pytest.mark.parametrize("space,orthant", [
        (HalfLine(), CanonicalOrthantPlane(1, 0)),
        (FullSpace(1), CanonicalOrthantPlane(0, 1)),
        (FullSpace(3), CanonicalOrthantPlane(0, 3)),
    ], ids=["HalfLine", "FullSpace(1)", "FullSpace(3)"])
    def test_named_spaces_are_orthant_planes(self, space, orthant):
        rng = np.random.default_rng(2)
        U = rng.standard_normal((50, space.dim)) * rng.integers(0, 2, (50, space.dim)) + 1j
        assert np.array_equal(space.support(U), orthant.support(U))
        for x in rng.standard_normal((50, space.dim)):
            assert space.contains(x) == orthant.contains(x)
        assert np.array_equal(space.affine_basis(), orthant.affine_basis())
        assert np.array_equal(space.sample_points(40), orthant.sample_points(40))
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(20):
            assert np.array_equal(random_u_in_domain(space, r1), random_u_in_domain(orthant, r2))
        with pytest.raises(ValueError):
            HalfLine(dim=2)
