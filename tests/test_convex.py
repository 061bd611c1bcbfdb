import numpy as np
import pytest

from polarfact.convex import (
    ConvexPotential,
    DualPair,
    conjugate_many,
    fenchel_conjugate,
    fenchel_gap,
    fenchel_gap_many,
)
from polarfact.errors import DimensionMismatchError
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.transport import build_cost, solve_mk


def sites(coords, prefix="y"):
    coords = np.asarray(coords, float)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    return DiscreteMeasure.uniform(coords.shape[0], coords=coords, prefix=prefix)


def quadratic_potential(coords):
    Y = sites(coords)
    return ConvexPotential(Y, 0.5 * np.sum(Y.coords**2, axis=1))


class TestFenchelConjugate:
    def test_quadratic_at_support_point(self):
        psi = quadratic_potential([0.0, 1.0])
        # max(1*0 - 0, 1*1 - 0.5) = 0.5
        assert fenchel_conjugate(psi, [1.0]) == pytest.approx(0.5)

    def test_query_zero_gives_minus_min(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            Y = sites(rng.normal(size=(6, 2)))
            psi = ConvexPotential(Y, rng.normal(size=6))
            assert fenchel_conjugate(psi, [0.0, 0.0]) == pytest.approx(
                -float(np.min(psi.psi_values))
            )

    def test_two_point_enumeration(self):
        psi = ConvexPotential(sites([0.0, 1.0]), [0.0, 0.5])
        # enumerate: max(2*0 - 0, 2*1 - 0.5) = 1.5
        assert fenchel_conjugate(psi, [2.0]) == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        psi = quadratic_potential([0.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            fenchel_conjugate(psi, [1.0, 2.0])

    def test_convexity_in_query(self):
        rng = np.random.default_rng(42)
        Y = sites(rng.normal(size=(8, 3)))
        psi = ConvexPotential(Y, rng.normal(size=8))
        for _ in range(200):
            a, b = rng.normal(size=3), rng.normal(size=3)
            t = rng.uniform()
            lhs = fenchel_conjugate(psi, t * a + (1 - t) * b)
            rhs = t * fenchel_conjugate(psi, a) + (1 - t) * fenchel_conjugate(psi, b)
            assert lhs <= rhs + 1e-9

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        Y = sites(rng.normal(size=(5, 2)))
        psi = ConvexPotential(Y, rng.normal(size=5))
        queries = rng.normal(size=(20, 2))
        batch = conjugate_many(psi, queries)
        for q, v in zip(queries, batch):
            # one kernel: the scalar form is a one-row batch, to the bit
            assert fenchel_conjugate(psi, q) == conjugate_many(psi, [q])[0]
            # numpy hands a one-row product to BLAS gemv and a longer one to
            # gemm, whose kernels may round a dot product differently
            assert v == pytest.approx(fenchel_conjugate(psi, q), rel=1e-12, abs=1e-12)


class TestFenchelGap:
    def test_quadratic_gradient_pair(self):
        psi = quadratic_potential([0.0, 1.0])
        assert fenchel_gap(psi, [1.0], 1) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_off_pair(self):
        psi = quadratic_potential([0.0, 1.0])
        # 0.5 + 0 - 0 = 0.5
        assert fenchel_gap(psi, [1.0], 0) == pytest.approx(0.5)

    def test_zero_at_argmax_site(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            Y = sites(rng.normal(size=(7, 2)))
            psi = ConvexPotential(Y, rng.normal(size=7))
            v = rng.normal(size=2)
            j = int(np.argmax(Y.coords @ v - psi.psi_values))
            assert fenchel_gap(psi, v, j) == 0.0

    def test_nonnegative_always(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            Y = sites(rng.normal(size=(n, 3)))
            psi = ConvexPotential(Y, rng.normal(size=n))
            v = rng.normal(size=3)
            j = int(rng.integers(0, n))
            assert fenchel_gap(psi, v, j) >= -1e-12

    def test_scalar_is_a_one_row_batch(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            Y = sites(rng.normal(size=(9, d)))
            psi = ConvexPotential(Y, rng.normal(size=9))
            for v in rng.normal(size=(20, d)):
                j = int(rng.integers(0, 9))
                assert fenchel_gap(psi, v, j) == fenchel_gap_many(psi, [v], [j])[0]

    @pytest.mark.parametrize("j", [-1, -2, 2, 7])
    def test_site_index_out_of_range(self, j):
        # a negative index must not wrap to the last sites
        psi = quadratic_potential([0.0, 1.0])
        with pytest.raises(IndexError):
            fenchel_gap(psi, [1.0], j)
        with pytest.raises(IndexError):
            fenchel_gap_many(psi, [[1.0]], [j])
        with pytest.raises(IndexError):
            fenchel_gap_many(psi, [[0.0], [1.0]], [0, j])

    def test_constant_shift(self):
        rng = np.random.default_rng(8)
        Y = sites(rng.normal(size=(6, 2)))
        base = rng.normal(size=6)
        psi = ConvexPotential(Y, base)
        shifted = ConvexPotential(Y, base + 2.5)
        for _ in range(20):
            v = rng.normal(size=2)
            j = int(rng.integers(0, 6))
            assert fenchel_conjugate(shifted, v) == pytest.approx(
                fenchel_conjugate(psi, v) - 2.5, abs=1e-12
            )
            assert fenchel_gap(shifted, v, j) == pytest.approx(
                fenchel_gap(psi, v, j), abs=1e-12
            )


class TestDualPair:
    @staticmethod
    def solved_3x3():
        Y = sites([0.0, 1.0, 3.0])
        u = SampledMap(DiscreteMeasure.uniform(3), [[2.0], [0.5], [-1.0]])
        cost = build_cost(u, Y)
        return solve_mk(cost, u.domain, Y)[1], cost

    @pytest.mark.parametrize("short", ["phi_c", "phi"])
    def test_potential_of_the_wrong_length_rejected(self, short):
        # numpy would broadcast a length-1 potential across the cost
        duals, cost = self.solved_3x3()
        sides = {"phi_c": duals.phi_c, "phi": duals.phi, short: np.zeros(1)}
        with pytest.raises(DimensionMismatchError):
            DualPair(sides["phi_c"], sides["phi"], cost)

    def test_cost_is_required(self):
        duals, _ = self.solved_3x3()
        with pytest.raises(TypeError):
            DualPair(duals.phi_c, duals.phi)
