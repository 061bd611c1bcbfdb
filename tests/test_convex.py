import numpy as np
import pytest

from polarfact.convex import (
    ConvexPotential,
    conjugate_many,
    fenchel_conjugate,
    fenchel_gap,
)
from polarfact.errors import DimensionMismatchError
from polarfact.measures import DiscreteMeasure


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
            # batch path reduces dot products in a different order
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
