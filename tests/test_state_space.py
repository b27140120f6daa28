import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from affine_kit import cli
from affine_kit.state_space import (
    CanonicalOrthantPlane,
    FullSpace,
    HalfLine,
    Parabola,
    random_u_in_domain,
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

    @pytest.mark.parametrize("space", [FullSpace(2), HalfLine(), CanonicalOrthantPlane(1, 1),
                                       Parabola()], ids=repr)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_coordinate_is_not_a_state(self, space, bad):
        # FullSpace held every such point, the half-line inf and the parabola (inf, 0)
        for k in range(space.dim):
            x = space.affine_basis()[-1].copy()
            x[k] = bad
            assert not space.contains(x)
            assert not space.contains(x[None]).any()

    @pytest.mark.parametrize("space", [FullSpace(2), HalfLine(), CanonicalOrthantPlane(1, 1),
                                       Parabola()], ids=repr)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                     complex(0.0, math.inf), complex(0.0, -math.inf)])
    def test_a_non_finite_part_is_not_in_u(self, space, bad):
        # the imaginary parts were never read, and the half-line held u = -inf
        u = np.zeros(space.dim, dtype=complex)
        assert space.in_domain(u) is True
        for k in range(space.dim):
            v = u.copy()
            v[k] = bad
            assert space.in_domain(v, tol=1e-11) is False
            assert not space.in_domain(v[None]).any()

    def test_parabola_rejects_a_y_squared_past_the_largest_float(self):
        # y^2 overflowed to inf, and so did the band around it: (1e200, 0) was a state
        assert not Parabola().contains([1e200, 0.0])
        assert Parabola().contains([1e150, 1e300])


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


class TestParabolaDomain:
    # signed zeros, subnormals, both sides of the tol bands and plain values
    GRID = [0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12, 2e-11, -2e-11, 1.0, -1.0, 1e8, -1e8]
    TOLS = [0.0, 1e-12, 1e-11, 1e-9]

    @staticmethod
    def expected(p, q, tol):
        """q < 0 with finite p is inside U, also where p^2 / 4|q| is past the
        largest float; within the corner band |p|, |q| <= tol a point is
        inside; every other point is outside."""
        return bool((q < 0.0 and math.isfinite(p)) or (abs(p) <= tol and abs(q) <= tol))

    def test_band_on_a_grid(self):
        space = Parabola()
        pq = np.array(list(itertools.product(self.GRID, repeat=2)))
        U = pq + 1j * np.array([0.5, -1.0])
        for tol in self.TOLS:
            want = [self.expected(p, q, tol) for p, q in pq.tolist()]
            assert space.in_domain(U, tol=tol).tolist() == want, tol
        tols = np.resize(self.TOLS, len(U))     # one tol per row
        assert space.in_domain(U, tol=tols).tolist() == [
            self.expected(p, q, tol) for (p, q), tol in zip(pq.tolist(), tols.tolist())]

    def test_zeroing_does_not_drop_a_negative_q(self):
        space = Parabola()
        # q < 0 with |p| > tol is inside; 0 < q <= tol with |p| > tol is outside
        assert space.in_domain([1.0, -1e-12], tol=1e-11)
        assert space.in_domain([-2e-11, -1e-12], tol=1e-11)
        assert not space.in_domain([1.0, 1e-12], tol=1e-11)
        assert not space.in_domain([2e-11, 1e-12], tol=1e-11)
        # inside the corner band q may be positive
        assert space.in_domain([1e-12, 1e-12], tol=1e-11)


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
        rows = space.generators()
        states, directions = rows[rows[:, 0] == 1.0, 1:], rows[rows[:, 0] == 0.0, 1:]
        assert len(states) + len(directions) == len(rows) and len(states)
        for x in states:
            assert space.contains(x)
            for r in directions:    # D is unbounded along each direction row
                assert space.contains(x + 1e3 * r)

    def test_space_from_config_round_trip(self):
        # the JSON reader belongs to the CLI, which alone knows the config format
        space_from_config = cli._space_from_config
        assert space_from_config({"kind": "full", "d": 3}).dim == 3
        assert isinstance(space_from_config({"kind": "parabola"}), Parabola)
        s = space_from_config({"kind": "orthant_plane", "m": 1, "n": 2})
        assert (s.m, s.n, s.dim) == (1, 2, 3)
        with pytest.raises(ValueError):
            space_from_config({"kind": "dodecahedron"})


class TestGenerators:
    @pytest.mark.parametrize("space", [FullSpace(2), HalfLine(), CanonicalOrthantPlane(1, 2),
                                       Parabola()])
    def test_rows_follow_the_layout(self, space):
        rows = space.generators()
        if isinstance(space, Parabola):
            # the affine basis and the 64 states of the unscrambled Halton sequence in y
            y = (2.0 * qmc.Halton(d=1, scramble=False).random(64)[:, 0] - 1.0) * 5.0
            want = np.vstack([space.affine_basis(), np.column_stack([y, y * y])])
            assert (rows[:, 0] == 1.0).all()
            assert sorted(map(tuple, rows[:, 1:])) == sorted(map(tuple, want))
        else:
            # the vertex 0, a ray e_i for each i < m and both of +-e_j for j >= m
            eye = np.eye(space.dim + 1)
            want = np.vstack([eye, -eye[space.m + 1:]])
            assert np.array_equal(rows, want)
            assert len(rows) == 1 + space.m + 2 * space.n


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
        assert np.array_equal(space.generators(), orthant.generators())
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(20):
            assert np.array_equal(random_u_in_domain(space, r1), random_u_in_domain(orthant, r2))
        with pytest.raises(ValueError):
            HalfLine(dim=2)
