import numpy as np
import pytest

from polarfact.errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    NegativeWeightError,
    UnequalMassError,
)
from polarfact.measures import (
    DiscreteMeasure,
    SampledMap,
    equimeasurable,
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

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 2, 3), ()])
    def test_coordinates_of_other_rank_rejected(self, shape):
        with pytest.raises(DimensionMismatchError, match="coordinates must be 1-D or 2-D"):
            DiscreteMeasure(("a", "b"), [0.5, 0.5], np.zeros(shape))

    def test_empty_support_rejected(self):
        with pytest.raises(NegativeWeightError):
            validate(DiscreteMeasure((), []))


class TestIndexOf:
    def test_position_of_each_label(self):
        m = abstract([0.25, 0.25, 0.5])
        assert [m.index_of(label) for label in m.labels] == [0, 1, 2]

    def test_unknown_label_raises_key_error(self):
        m = abstract([0.5, 0.5])
        with pytest.raises(KeyError):
            m.index_of("y0")

    def test_sets_no_attribute_on_the_measure(self):
        m = abstract([0.5, 0.5])
        before = dict(vars(m))
        m.index_of("x1")
        assert vars(m).keys() == before.keys()


class TestValueLaw:
    @pytest.mark.parametrize("cluster_tol", [float("nan"), float("inf"), -1e-3])
    def test_non_finite_or_negative_cluster_tol_rejected(self, cluster_tol):
        X = abstract([0.5, 0.5])
        with pytest.raises(ValueError):
            value_law(SampledMap(X, [[1.0], [0.0]]), cluster_tol)

    @pytest.mark.parametrize("cluster_tol, scale", [(1e-310, 1.0), (5e-324, 1.0), (1e-300, 1e9)])
    def test_cluster_tol_that_overflows_the_values_rejected(self, cluster_tol, scale):
        # values / cluster_tol overflowed to inf, and every value snapped
        # into one atom, with an overflow warning
        X = abstract([1 / 3] * 3)
        low, high = (SampledMap(X, scale * np.array([[1.0], [2.0], [3.0]]) + shift)
                     for shift in (0.0, 4.0 * scale))
        with pytest.raises(ValueError, match="too small"):
            value_law(low, cluster_tol)
        with pytest.raises(ValueError, match="too small"):
            equimeasurable(low, high, cluster_tol)

    def test_subnormal_cluster_tol_without_overflow_kept(self):
        X = abstract([1 / 3] * 3)
        law = value_law(SampledMap(X, [[1e-300], [2e-300], [3e-300]]), 1e-310)
        assert law.n_atoms == 3

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


class TestLawContent:
    """value_law is a function of content: each call computes a fresh law."""

    @staticmethod
    def fresh_map(values, weights):
        return SampledMap(abstract(np.asarray(weights, float)), np.asarray(values, float))

    def test_equal_content_gives_equal_distinct_laws(self):
        a = self.fresh_map([[3.0], [1.0], [3.0]], [0.25, 0.5, 0.25])
        b = self.fresh_map([[3.0], [1.0], [3.0]], [0.25, 0.5, 0.25])
        law_a, law_b = value_law(a), value_law(b)
        assert law_b is not law_a
        np.testing.assert_array_equal(law_b.values, law_a.values)
        np.testing.assert_array_equal(law_b.masses, law_a.masses)
        assert law_b.members == law_a.members
        # no array is shared with the other law, a later call or the map
        law_b.masses[0] = 9.0
        law_b.values[0, 0] = 9.0
        np.testing.assert_array_equal(value_law(b).masses, [0.5, 0.5])
        np.testing.assert_array_equal(law_a.values, [[1.0], [3.0]])
        np.testing.assert_array_equal(b.values, [[3.0], [1.0], [3.0]])

    def test_shape_with_equal_bytes_is_a_new_law(self):
        flat = self.fresh_map([[1.0], [2.0], [3.0], [4.0]], [0.25] * 4)
        paired = self.fresh_map([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])
        assert flat.values.tobytes() == paired.values.tobytes()
        law_flat, law_paired = value_law(flat), value_law(paired)
        assert law_paired is not law_flat
        assert law_flat.values.shape == (4, 1)
        assert law_paired.values.shape == (2, 2)

    def test_empty_maps_of_two_dimensions_get_their_own_laws(self):
        # both maps have empty values and weights: only the shape tells them apart
        one, two = self.fresh_map(np.empty((0, 1)), []), self.fresh_map(np.empty((0, 2)), [])
        assert value_law(one).values.shape == (0, 1)
        assert value_law(two).values.shape == (0, 2)

    def test_weights_are_part_of_the_key(self):
        a = self.fresh_map([[1.0], [2.0]], [0.5, 0.5])
        b = self.fresh_map([[1.0], [2.0]], [0.25, 0.75])
        law_a, law_b = value_law(a), value_law(b)
        assert law_b is not law_a
        np.testing.assert_array_equal(law_b.masses, [0.25, 0.75])

    def test_cluster_tol_is_part_of_the_key(self):
        a = self.fresh_map([[1.0], [1.0 + 1e-6]], [0.5, 0.5])
        exact, clustered = value_law(a), value_law(a, cluster_tol=1e-3)
        assert clustered is not exact
        assert (exact.n_atoms, clustered.n_atoms) == (2, 1)
        assert clustered.cluster_tol == 1e-3

    def test_inputs_stay_writable_and_in_place_changes_are_seen(self):
        u = self.fresh_map([[2.0], [1.0]], [0.5, 0.5])
        before = value_law(u)
        u.values[0, 0] = 1.0
        u.domain.weights[1] = 0.25
        after = value_law(u)
        assert after is not before
        assert after.n_atoms == 1
        assert after.masses[0] == 0.75
        np.testing.assert_array_equal(before.values, [[1.0], [2.0]])


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

