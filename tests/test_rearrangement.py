import numpy as np
import pytest

from polarfact.convex import fenchel_gap
from polarfact.errors import (
    MultiCarrierAtomError,
    SplitAtomError,
    UnknownHeavyAtomError,
)
from polarfact.measures import DiscreteMeasure, SampledMap, equimeasurable, value_law
from polarfact.rearrangement import (
    HeavyAtoms,
    RefinedDomain,
    construct_m_to_1,
    monotone_rearrangement,
    multiplicity_report,
    restrict_to_value_set,
)


def uniform(n, total=1.0, coords=None, prefix="x"):
    return DiscreteMeasure.uniform(n, total, coords=coords, prefix=prefix)


def line_sites(values, weights=None, prefix="y"):
    arr = np.asarray(values, float).reshape(-1, 1)
    if weights is None:
        return uniform(arr.shape[0], coords=arr, prefix=prefix)
    return DiscreteMeasure(
        tuple(f"{prefix}{j}" for j in range(arr.shape[0])), np.asarray(weights), arr
    )


class TestRefinedDomain:
    def test_structure(self):
        base = DiscreteMeasure(("a", "b"), [0.25, 0.75])
        ref = RefinedDomain(base, 3)
        assert ref.measure.size == 6
        assert ref.measure.total_mass == pytest.approx(1.0)
        assert ref.measure.labels[:2] == ("a#1", "b#1")
        assert ref.measure.labels[-2:] == ("a#3", "b#3")
        np.testing.assert_allclose(
            ref.measure.weights, [0.25 / 3, 0.75 / 3] * 3
        )

    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            RefinedDomain(DiscreteMeasure(("a",), [1.0]), 0)


class TestConstructMTo1:
    def test_two_values_m2(self):
        v = SampledMap(uniform(2), [[0.0], [1.0]])
        u = construct_m_to_1(v, 2)
        assert u.domain.size == 4
        np.testing.assert_allclose(u.domain.weights, [0.25] * 4)
        # block-major layout: each block carries both values once
        np.testing.assert_array_equal(u.values.ravel(), [0.0, 1.0, 0.0, 1.0])
        assert equimeasurable(u, v)

    def test_m1_is_identity_up_to_relabelling(self):
        rng = np.random.default_rng(0)
        v = SampledMap(uniform(5), rng.normal(size=(5, 2)))
        u = construct_m_to_1(v, 1)
        assert u.domain.size == 5
        assert equimeasurable(u, v)

    def test_heavy_atom_preserved(self):
        # heavy atom of mass 1/2 on two carriers plus two light atoms, m = 3
        dom = DiscreteMeasure(("a", "b", "c", "d"), [0.25, 0.25, 0.25, 0.25])
        v = SampledMap(dom, [[5.0], [5.0], [1.0], [2.0]])
        u = construct_m_to_1(v, 3, heavy=HeavyAtoms([[5.0]]))
        assert equimeasurable(u, v)
        law = value_law(u)
        by_value = {float(law.values[k][0]): k for k in range(law.n_atoms)}
        assert law.masses[by_value[5.0]] == pytest.approx(0.5)
        assert len(law.members[by_value[1.0]]) == 3
        assert len(law.members[by_value[2.0]]) == 3
        assert law.masses[by_value[1.0]] == pytest.approx(0.25)

    def test_non_uniform_single_carrier_weights(self):
        dom = DiscreteMeasure(("a", "b", "c"), [0.5, 0.25, 0.25])
        v = SampledMap(dom, [[3.0], [1.0], [2.0]])
        for m in (1, 2, 4):
            u = construct_m_to_1(v, m)
            assert equimeasurable(u, v)
            rep = multiplicity_report(u)
            assert rep.is_almost_m_to_1(m)

    def test_multi_carrier_light_atom_rejected(self):
        v = SampledMap(uniform(3), [[1.0], [1.0], [0.0]])
        with pytest.raises(MultiCarrierAtomError):
            construct_m_to_1(v, 2)

    def test_unknown_heavy_rejected(self):
        v = SampledMap(uniform(2), [[0.0], [1.0]])
        with pytest.raises(UnknownHeavyAtomError):
            construct_m_to_1(v, 2, heavy=HeavyAtoms([[7.0]]))

    def test_zero_m_rejected(self):
        v = SampledMap(uniform(2), [[0.0], [1.0]])
        with pytest.raises(ValueError):
            construct_m_to_1(v, 0)


class TestMultiplicityReport:
    def test_injective_map(self):
        u = SampledMap(uniform(4), [[0.0], [1.0], [2.0], [3.0]])
        rep = multiplicity_report(u)
        assert rep.almost_injective
        assert rep.m_to_1 == 1
        assert rep.max_light_count == 1

    def test_construct_output_is_m_to_1(self):
        v = SampledMap(uniform(3), [[0.0], [1.0], [2.0]])
        u = construct_m_to_1(v, 2)
        rep = multiplicity_report(u)
        assert rep.is_almost_m_to_1(2)
        assert rep.m_to_1 == 2
        assert not rep.almost_injective

    def test_heavy_excluded_from_flags(self):
        dom = DiscreteMeasure(("a", "b", "c"), [0.4, 0.4, 0.2])
        u = SampledMap(dom, [[9.0], [9.0], [1.0]])
        rep = multiplicity_report(u, heavy=HeavyAtoms([[9.0]]))
        assert rep.almost_injective
        assert rep.max_light_count == 1

    def test_grid_gradient_counts(self):
        # gradient of |y1| + y2^2/2 on an N x N grid without the y1 = 0 axis:
        # values are (sign(y1), y2), so each value is carried by N/2 points
        N = 8
        ticks = np.linspace(-1.0, 1.0, N)
        g1, g2 = np.meshgrid(ticks, ticks, indexing="ij")
        coords = np.column_stack([g1.ravel(), g2.ravel()])
        grid = uniform(N * N, total=4.0, coords=coords, prefix="g")
        u = SampledMap(grid, np.column_stack([np.sign(coords[:, 0]), coords[:, 1]]))
        rep = multiplicity_report(u)
        assert rep.n_atoms == 2 * N
        assert rep.m_to_1 == N // 2
        np.testing.assert_allclose(rep.masses, 4.0 / (2 * N))


class TestRestrictToValueSet:
    def test_superset_box_keeps_everything(self):
        u = SampledMap(uniform(3), [[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]])
        sub = restrict_to_value_set(u, ([-5.0, -5.0], [5.0, 5.0]))
        assert sub.domain.size == 3
        np.testing.assert_array_equal(sub.values, u.values)

    def test_disjoint_box_is_empty_with_warning(self):
        u = SampledMap(uniform(2), [[0.0], [1.0]])
        with pytest.warns(UserWarning):
            sub = restrict_to_value_set(u, ([5.0], [6.0]))
        assert sub.domain.size == 0

    def test_boundary_included(self):
        u = SampledMap(uniform(2), [[0.0], [1.0]])
        sub = restrict_to_value_set(u, ([1.0], [2.0]))
        assert sub.domain.size == 1
        assert sub.domain.labels == ("x1",)

    def test_half_plane_on_sign_classes(self):
        N = 8
        ticks = np.linspace(-1.0, 1.0, N)
        g1, g2 = np.meshgrid(ticks, ticks, indexing="ij")
        coords = np.column_stack([g1.ravel(), g2.ravel()])
        grid = uniform(N * N, total=4.0, coords=coords, prefix="g")
        u = SampledMap(grid, np.column_stack([np.sign(coords[:, 0]), coords[:, 1]]))
        pos = restrict_to_value_set(u, ([0.5, -2.0], [2.0, 2.0]))
        assert pos.domain.size == N * N // 2

    def test_degenerate_box_rejected(self):
        u = SampledMap(uniform(2), [[0.0], [1.0]])
        with pytest.raises(ValueError):
            restrict_to_value_set(u, ([1.0], [0.0]))


class TestMonotoneRearrangement:
    def test_one_dimensional_sorting_pair(self):
        # brute force over both assignments: pairing 1->0, 2->1 costs 1,
        # pairing 2->0, 1->1 costs 2, so the increasing pairing wins
        u = SampledMap(uniform(2), [[2.0], [1.0]])
        Y = line_sites([0.0, 1.0])
        u_sharp, psi = monotone_rearrangement(u, Y)
        np.testing.assert_array_equal(u_sharp.values.ravel(), [1.0, 2.0])
        assert equimeasurable(u_sharp, u)
        for j in range(2):
            assert fenchel_gap(psi, u_sharp.values[j], j) <= 1e-8

    def test_sorting_oracle_random_1d(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            n = int(rng.integers(2, 30))
            vals = rng.normal(size=n)
            sites = np.sort(rng.normal(size=n))
            u = SampledMap(uniform(n), vals.reshape(-1, 1))
            Y = line_sites(sites)
            u_sharp, psi = monotone_rearrangement(u, Y)
            np.testing.assert_allclose(u_sharp.values.ravel(), np.sort(vals))
            gaps = [fenchel_gap(psi, u_sharp.values[j], j) for j in range(n)]
            assert max(gaps) <= 1e-8

    def test_fixed_point(self):
        rng = np.random.default_rng(5)
        coords = np.sort(rng.normal(size=6)).reshape(-1, 1)
        Y = line_sites(coords.ravel())
        grad = np.tanh(coords)  # increasing, so already monotone on the line
        u = SampledMap(Y, grad)
        u_sharp, _ = monotone_rearrangement(u, Y)
        np.testing.assert_allclose(u_sharp.values, grad)

    def test_constant_map(self):
        u = SampledMap(uniform(3), [[2.5], [2.5], [2.5]])
        Y = line_sites([0.0, 1.0, 2.0])
        u_sharp, psi = monotone_rearrangement(u, Y)
        np.testing.assert_array_equal(u_sharp.values.ravel(), [2.5] * 3)
        for j in range(3):
            assert fenchel_gap(psi, u_sharp.values[j], j) <= 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        vals = rng.normal(size=(7, 2))
        u = SampledMap(uniform(7), vals)
        Y = uniform(7, coords=rng.normal(size=(7, 2)), prefix="y")
        u_sharp, _ = monotone_rearrangement(u, Y)
        again, _ = monotone_rearrangement(u_sharp, Y)
        np.testing.assert_array_equal(again.values, u_sharp.values)

    def test_split_atom_strict(self):
        # atoms of mass 1/2 cannot tile three sites of mass 1/3
        u = SampledMap(uniform(2), [[0.0], [1.0]])
        Y = line_sites([0.0, 0.5, 1.0])
        with pytest.raises(SplitAtomError):
            monotone_rearrangement(u, Y)

    def test_split_atom_refine_mode(self):
        u = SampledMap(uniform(2), [[0.0], [1.0]])
        Y = line_sites([0.0, 0.5, 1.0])
        u_sharp, psi = monotone_rearrangement(u, Y, mode="refine")
        assert u_sharp.domain.total_mass == pytest.approx(1.0)
        assert equimeasurable(u_sharp, u)
        gaps = [
            fenchel_gap(psi, u_sharp.values[j], j) for j in range(u_sharp.domain.size)
        ]
        assert max(gaps) <= 1e-8

    def test_refine_mode_on_random_target_weights(self):
        # sites with random positive weights split most value atoms; the
        # refined sites must each carry one atom and stay certified
        n_refined = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = 22
            u = SampledMap(uniform(n), rng.uniform(-1, 1, (n, 1)))
            weights = rng.uniform(0.5, 1.5, n)
            Y = line_sites(np.sort(rng.uniform(-1, 1, n)), weights / weights.sum())
            try:
                monotone_rearrangement(u, Y)
            except SplitAtomError:
                n_refined += 1
            u_sharp, psi = monotone_rearrangement(u, Y, mode="refine")
            assert equimeasurable(u_sharp, u)
            gaps = [fenchel_gap(psi, u_sharp.values[j], j) for j in range(u_sharp.domain.size)]
            assert max(gaps) <= 1e-8
            order = np.lexsort((u_sharp.values[:, 0], u_sharp.domain.coords[:, 0]))
            assert np.all(np.diff(u_sharp.values[order, 0]) >= 0)
        assert n_refined >= 8

    def test_2d_instance_certificates(self):
        rng = np.random.default_rng(31)
        n = 12
        u = SampledMap(uniform(n), rng.normal(size=(n, 2)))
        Y = uniform(n, coords=rng.normal(size=(n, 2)), prefix="y")
        u_sharp, psi = monotone_rearrangement(u, Y)
        assert equimeasurable(u_sharp, u)
        gaps = [fenchel_gap(psi, u_sharp.values[j], j) for j in range(n)]
        assert max(gaps) <= 1e-8

    @pytest.mark.parametrize(
        "values, sites, expected",
        [
            ([2.0, 0.0, 1.0], [2.0, 0.5, 0.5], [2.0, 0.0, 1.0]),
            ([1.0, 0.0, 1.0, 3.0], [0.5, 3.0, 0.5, 0.5], [0.0, 3.0, 1.0, 1.0]),
        ],
    )
    def test_strict_mode_tied_sites_take_values_in_stable_order(self, values, sites, expected):
        # sites at one coordinate are filled in label order, lowest value first
        u = SampledMap(uniform(len(values)), np.reshape(values, (-1, 1)))
        Y = line_sites(sites)
        u_sharp, psi = monotone_rearrangement(u, Y)
        np.testing.assert_array_equal(u_sharp.values.ravel(), expected)
        gaps = [fenchel_gap(psi, u_sharp.values[j], j) for j in range(Y.size)]
        assert max(gaps) <= 1e-8

    def test_one_dimensional_solve_makes_no_pivots_at_n_2000(self, caplog):
        rng = np.random.default_rng(41)
        n = 2000
        u = SampledMap(uniform(n), rng.uniform(-1, 1, (n, 1)))
        Y = line_sites(rng.uniform(-1, 1, n))
        with caplog.at_level("DEBUG", logger="polarfact"):
            u_sharp, _ = monotone_rearrangement(u, Y)
        (record,) = [r for r in caplog.records if r.name == "polarfact"]
        assert ": 0 pivots" in record.getMessage()
        assert "north-west corner on sorted supports" in record.getMessage()
        np.testing.assert_array_equal(
            u_sharp.values[np.argsort(Y.coords[:, 0]), 0], np.sort(u.values[:, 0])
        )
