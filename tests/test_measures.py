import numpy as np
import pytest

from polarfact.errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    NegativeWeightError,
    UnequalMassError,
    UnknownLabelError,
)
from polarfact.measures import (
    DiscreteMeasure,
    SampledMap,
    equimeasurable,
    pushforward,
    validate,
    value_law,
)


def abstract(weights, prefix="x"):
    return DiscreteMeasure(
        tuple(f"{prefix}{i}" for i in range(len(weights))), np.asarray(weights, float)
    )


class TestValidate:
    def test_well_formed(self):
        m = DiscreteMeasure(("a", "b"), [0.5, 0.5])
        assert validate(m) == 1.0

    def test_negative_weight(self):
        m = DiscreteMeasure(("a", "b"), [0.5, -0.1])
        with pytest.raises(NegativeWeightError):
            validate(m)

    def test_zero_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            validate(DiscreteMeasure(("a", "b"), [0.5, 0.0]))

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            validate(DiscreteMeasure(("a", "a"), [0.5, 0.5]))

    def test_dimension_mismatch_on_construction(self):
        # one 3-vector among 2-vectors cannot even form a coords array
        with pytest.raises((DimensionMismatchError, ValueError)):
            m = DiscreteMeasure(
                ("a", "b"),
                [0.5, 0.5],
                coords=np.array([[0.0, 1.0], [0.0, 1.0, 2.0]], dtype=object),
            )
            validate(m)

    def test_empty_support_rejected(self):
        with pytest.raises(NegativeWeightError):
            validate(DiscreteMeasure((), []))


class TestValueLaw:
    @pytest.mark.parametrize("cluster_tol", [float("nan"), float("inf"), -1e-3])
    def test_non_finite_or_negative_cluster_tol_rejected(self, cluster_tol):
        X = abstract([0.5, 0.5])
        with pytest.raises(ValueError):
            value_law(SampledMap(X, [[1.0], [0.0]]), cluster_tol)

    def test_distinct_values(self):
        X = abstract([0.5, 0.5])
        law = value_law(SampledMap(X, [[1.0], [0.0]]))
        assert law.n_atoms == 2
        np.testing.assert_array_equal(law.values, [[0.0], [1.0]])
        np.testing.assert_allclose(law.masses, [0.5, 0.5])

    def test_constant_map(self):
        X = abstract([0.5, 0.5])
        law = value_law(SampledMap(X, [[1.0], [1.0]]))
        assert law.n_atoms == 1
        assert law.masses[0] == pytest.approx(1.0)

    def test_clustering_merges_close_values(self):
        eps = 1e-6
        X = abstract([0.5, 0.5])
        law = value_law(SampledMap(X, [[1.0], [1.0 + eps]]), cluster_tol=1e-3)
        assert law.n_atoms == 1
        assert law.masses[0] == pytest.approx(1.0)

    def test_masses_sum_to_total(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(1, 30)
            X = abstract(rng.uniform(0.1, 2.0, n))
            vals = rng.integers(0, 4, (n, 2)).astype(float)
            law = value_law(SampledMap(X, vals))
            assert law.total_mass == pytest.approx(X.total_mass, rel=1e-12)

    def test_order_independence(self):
        X = abstract([0.25, 0.5, 0.25])
        vals = np.array([[2.0], [1.0], [2.0]])
        perm = [2, 0, 1]
        Xp = abstract(np.asarray([0.25, 0.5, 0.25])[perm])
        law_a = value_law(SampledMap(X, vals))
        law_b = value_law(SampledMap(Xp, vals[perm]))
        assert law_a.matches(law_b)


class TestEquimeasurable:
    def test_permuted_values(self):
        X = abstract([0.5, 0.5])
        f = SampledMap(X, [[1.0], [0.0]])
        g = SampledMap(abstract([0.5, 0.5], "y"), [[0.0], [1.0]])
        assert equimeasurable(f, g)

    def test_different_laws(self):
        X = abstract([0.5, 0.5])
        f = SampledMap(X, [[1.0], [0.0]])
        g = SampledMap(X, [[1.0], [1.0]])
        assert not equimeasurable(f, g)

    def test_refined_domain_same_law(self):
        # masses 1/2 on 2 points vs 1/4 on 4 points: both laws are
        # {(0, 1/2), (1, 1/2)} by direct computation of each pushforward
        f = SampledMap(abstract([0.5, 0.5]), [[1.0], [0.0]])
        g = SampledMap(abstract([0.25] * 4, "y"), [[1.0], [1.0], [0.0], [0.0]])
        assert equimeasurable(f, g)

    def test_dimension_mismatch(self):
        f = SampledMap(abstract([1.0]), [[1.0]])
        g = SampledMap(abstract([1.0]), [[1.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            equimeasurable(f, g)

    def test_unequal_mass(self):
        f = SampledMap(abstract([1.0]), [[1.0]])
        g = SampledMap(abstract([2.0]), [[1.0]])
        with pytest.raises(UnequalMassError):
            equimeasurable(f, g)

    def test_reflexive_and_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            f = SampledMap(abstract(rng.uniform(0.1, 1.0, n)), rng.integers(0, 3, (n, 2)))
            assert equimeasurable(f, f)
            m = int(rng.integers(1, 12))
            g = SampledMap(
                DiscreteMeasure(tuple(f"y{i}" for i in range(m)), np.full(m, f.domain.total_mass / m)),
                rng.integers(0, 3, (m, 2)),
            )
            assert equimeasurable(f, g) == equimeasurable(g, f)

    def test_permutation_invariance_on_uniform_domain(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            n = 8
            X = DiscreteMeasure.uniform(n)
            vals = rng.normal(size=(n, 2))
            sigma = np.random.default_rng(seed).permutation(n)
            f = SampledMap(X, vals)
            g = SampledMap(X, vals[sigma])
            assert equimeasurable(f, g)


class TestPushforward:
    def test_identity(self):
        m = abstract([0.3, 0.7])
        img = pushforward(m, {"x0": "x0", "x1": "x1"}, m)
        assert img.labels == m.labels
        np.testing.assert_allclose(img.weights, m.weights)

    def test_constant_assignment(self):
        m = abstract([0.3, 0.7])
        img = pushforward(m, {"x0": "x1", "x1": "x1"}, m)
        assert img.labels == ("x1",)
        assert img.weights[0] == pytest.approx(1.0)

    def test_swap_preserves_uniform(self):
        m = abstract([0.5, 0.5])
        img = pushforward(m, {"x0": "x1", "x1": "x0"}, m)
        np.testing.assert_allclose(img.weights, [0.5, 0.5])

    def test_total_mass_exact_on_dyadic_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, k = int(rng.integers(1, 20)), int(rng.integers(1, 6))
            src = abstract(rng.integers(1, 64, n) / 64.0)
            tgt = abstract(np.ones(k), prefix="t")
            assignment = {f"x{i}": f"t{int(rng.integers(0, k))}" for i in range(n)}
            img = pushforward(src, assignment, tgt)
            assert img.total_mass == src.total_mass

    def test_total_mass_preserved_general(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n, k = int(rng.integers(1, 20)), int(rng.integers(1, 6))
            src = abstract(rng.uniform(0.01, 1.0, n))
            tgt = abstract(np.ones(k), prefix="t")
            assignment = {f"x{i}": f"t{int(rng.integers(0, k))}" for i in range(n)}
            img = pushforward(src, assignment, tgt)
            assert img.total_mass == pytest.approx(src.total_mass, rel=1e-14)

    def test_partial_assignment_rejected(self):
        m = abstract([0.5, 0.5])
        with pytest.raises(UnknownLabelError):
            pushforward(m, {"x0": "x0"}, m)

    def test_unknown_target_rejected(self):
        m = abstract([0.5, 0.5])
        with pytest.raises(UnknownLabelError):
            pushforward(m, {"x0": "zz", "x1": "x0"}, m)
