"""The whole-array atom layer against the per-point loops it replaced.

Each reference below is the earlier loop implementation, kept verbatim in
behaviour: ``value_law`` grouped points in a dict and summed each atom with
``np.sum``, ``construct_m_to_1`` used two Python ``sorted`` calls and
filled the blocks one cell at a time, and the dominant cell of a row or
column was found by scanning the plan triplets.  The array versions must
give byte-identical results on a seeded corpus.
"""

import numpy as np
import pytest

from polarfact.errors import MultiCarrierAtomError, UnknownHeavyAtomError
from polarfact.measures import (
    DiscreteMeasure,
    SampledMap,
    ValueLaw,
    _lex_order,
    _snap,
    equimeasurable,
    value_law,
)
from polarfact.rearrangement import HeavyAtoms, RefinedDomain, construct_m_to_1
from polarfact.tolerances import masses_close
from polarfact.transport import TransportPlan

CLUSTER_TOLS = (0.0, 1e-3, 0.5)


# -- references ---------------------------------------------------------------


def reference_value_law(map, cluster_tol=0.0):
    vals = map.values
    keyed = _snap(vals, cluster_tol)
    groups = {}
    for i in range(vals.shape[0]):
        groups.setdefault(tuple(keyed[i]), []).append(i)
    reps, masses, members = [], [], []
    w = map.domain.weights
    for idx in groups.values():
        sub = vals[idx]
        reps.append(sub[_lex_order(sub)[0]])
        masses.append(float(np.sum(w[idx])))
        members.append(tuple(idx))
    reps = np.asarray(reps)
    order = _lex_order(reps)
    return ValueLaw(
        values=reps[order],
        masses=np.asarray(masses)[order],
        cluster_tol=cluster_tol,
        members=tuple(tuple(members[k]) for k in order),
    )


def reference_matches(a, b, mass_rtol=1e-9):
    if a.n_atoms != b.n_atoms or a.values.shape[1] != b.values.shape[1]:
        return False
    tol = max(a.cluster_tol, b.cluster_tol)
    if not np.array_equal(_snap(a.values, tol), _snap(b.values, tol)):
        return False
    return all(
        masses_close(float(x), float(y), mass_rtol) for x, y in zip(a.masses, b.masses)
    )


def reference_atom_indices(heavy, law):
    hit = set()
    for k in range(heavy.n_designations):
        v = heavy.values[k]
        if v.shape[0] != law.values.shape[1]:
            raise AssertionError("the corpus has no dimension mismatches")
        close = np.max(np.abs(law.values - v[None, :]), axis=1) <= heavy.match_tolerance
        idx = np.nonzero(close)[0]
        if idx.size == 0:
            raise UnknownHeavyAtomError(f"no atom matches heavy value {v.tolist()}")
        hit.update(int(i) for i in idx)
    return frozenset(hit)


def reference_construct_m_to_1(v, m, heavy, cluster_tol=0.0):
    law = reference_value_law(v, cluster_tol)
    heavy_idx = reference_atom_indices(heavy, law)
    light_idx = [k for k in range(law.n_atoms) if k not in heavy_idx]
    for k in light_idx:
        if len(law.members[k]) != 1:
            raise MultiCarrierAtomError(
                f"non-heavy value {law.values[k].tolist()} has "
                f"{len(law.members[k])} carriers; designate it heavy"
            )
    refined = RefinedDomain(v.domain, m)
    n_parent = v.domain.size
    values = np.empty((m * n_parent, v.codomain_dimension))
    heavy_parents = set()
    for k in heavy_idx:
        heavy_parents.update(law.members[k])
    for p in heavy_parents:
        for j in range(m):
            values[j * n_parent + p] = v.values[p]
    light_carriers = sorted(
        (law.members[k][0] for k in light_idx),
        key=lambda p: (v.domain.weights[p], v.domain.labels[p]),
    )
    atom_order = sorted(light_idx, key=lambda k: (law.masses[k], tuple(law.values[k])))
    for j in range(m):
        for p, k in zip(light_carriers, atom_order):
            values[j * n_parent + p] = law.values[k]
    return SampledMap(refined.measure, values)


def reference_dominant_by_row(plan):
    best_col = np.full(plan.mu.size, -1, dtype=int)
    best_mass = np.zeros(plan.mu.size)
    for i, j, t in zip(plan.rows, plan.cols, plan.masses):
        if t > best_mass[i]:
            best_mass[i] = t
            best_col[i] = j
    return best_col, best_mass


def reference_dominant_by_col(plan):
    best_row = np.full(plan.nu.size, -1, dtype=int)
    best_mass = np.zeros(plan.nu.size)
    for i, j, t in zip(plan.rows, plan.cols, plan.masses):
        if t > best_mass[j]:
            best_mass[j] = t
            best_row[j] = i
    return best_row, best_mass


# -- corpus -------------------------------------------------------------------


def _domain(rng, n):
    """n points with weights from a small set (many ties) or random, and
    labels whose string order differs from their index order."""
    if rng.random() < 0.5:
        weights = rng.choice([0.25, 0.5, 1.0, 2.0], n)
    else:
        weights = rng.uniform(0.01, 3.0, n) * 10.0 ** rng.integers(-3, 4, n)
    labels = tuple(f"p{k}" for k in rng.permutation(n))
    return DiscreteMeasure(labels, weights)


def _values(rng, n, d, kind):
    if kind == "integer":
        return rng.integers(-3, 4, (n, d)).astype(float)
    if kind == "signed-zero":
        vals = rng.integers(-1, 2, (n, d)).astype(float)
        vals[vals == 0.0] = rng.choice([0.0, -0.0], int(np.sum(vals == 0.0)))
        return vals
    if kind == "near":
        # clusters of values within 1e-4 of a few centres, so cluster_tol
        # 1e-3 and 0.5 merge them in different ways
        centres = rng.uniform(-2.0, 2.0, (max(1, n // 6), d))
        return centres[rng.integers(0, centres.shape[0], n)] + rng.uniform(-1e-4, 1e-4, (n, d))
    return rng.normal(size=(n, d))


def _group_sizes_map(rng, d, sizes):
    """A map whose exact-value groups have the given sizes, shuffled."""
    n = int(sum(sizes))
    distinct = rng.normal(size=(len(sizes), d))
    vals = np.repeat(distinct, sizes, axis=0)[rng.permutation(n)]
    return SampledMap(_domain(rng, n), vals)


def law_corpus():
    rng = np.random.default_rng(20261018)
    maps = []
    for d in (1, 2, 3):
        for kind in ("integer", "signed-zero", "near", "generic"):
            for _ in range(12):
                n = int(rng.integers(1, 60))
                maps.append(SampledMap(_domain(rng, n), _values(rng, n, d, kind)))
        maps.append(_group_sizes_map(rng, d, rng.integers(1, 8, 10)))
        maps.append(_group_sizes_map(rng, d, rng.integers(8, 129, 3)))
        maps.append(_group_sizes_map(rng, d, [129, 200, 1, 7, 8]))
    return maps


def assert_laws_identical(new, old):
    assert new.cluster_tol == old.cluster_tol
    assert new.values.dtype == old.values.dtype and new.values.shape == old.values.shape
    assert new.values.tobytes() == old.values.tobytes()
    assert new.masses.dtype == old.masses.dtype and new.masses.shape == old.masses.shape
    assert new.masses.tobytes() == old.masses.tobytes()
    assert new.members == old.members
    assert all(type(i) is int for ms in new.members for i in ms)


# -- tests --------------------------------------------------------------------


class TestValueLawReference:
    @pytest.mark.parametrize("cluster_tol", CLUSTER_TOLS)
    def test_byte_identical_on_corpus(self, cluster_tol):
        for u in law_corpus():
            assert_laws_identical(value_law(u, cluster_tol), reference_value_law(u, cluster_tol))

    def test_corpus_covers_every_summation_path(self):
        sizes = set()
        for u in law_corpus():
            sizes.update(len(ms) for ms in value_law(u).members)
        assert any(s < 8 for s in sizes)
        assert any(8 <= s <= 128 for s in sizes)
        assert any(s > 128 for s in sizes)

    def test_signed_zeros_form_one_atom(self):
        X = DiscreteMeasure(("a", "b", "c"), [0.25, 0.5, 0.25])
        law = value_law(SampledMap(X, [[0.0, -0.0], [-0.0, 0.0], [1.0, 0.0]]))
        assert law.n_atoms == 2
        assert law.members == ((0, 1), (2,))
        # the representative is the lowest index among equal values
        assert np.signbit(law.values[0]).tolist() == [False, True]

    def test_clustered_atoms_are_ordered_by_representative(self):
        # snapped keys (0, 1) and (0, 0) order one way, representatives
        # (0.1, 1.0) and (0.2, 0.0) the other
        X = DiscreteMeasure(("a", "b"), [0.5, 0.5])
        law = value_law(SampledMap(X, [[0.2, 0.0], [0.1, 1.0]]), cluster_tol=0.5)
        np.testing.assert_array_equal(law.values, [[0.1, 1.0], [0.2, 0.0]])
        assert law.members == ((1,), (0,))

    def test_matches_agrees_with_loop(self):
        rng = np.random.default_rng(5)
        for u in law_corpus()[::3]:
            law = value_law(u)
            for scale in (0.0, 1e-12, 1e-9, 1e-6):
                noise = 1.0 + scale * rng.uniform(-1.0, 1.0, law.n_atoms)
                other = ValueLaw(law.values, law.masses * noise, 0.0)
                assert law.matches(other) == reference_matches(law, other)


    def test_masses_at_the_tolerance_boundary(self):
        # |a - b| equals mass_rtol * max(|a|, |b|) exactly: still a match
        rtol = 2.0**-30
        a = ValueLaw(np.array([[0.0]]), np.array([0.5]), 0.0)
        b = ValueLaw(np.array([[0.0]]), np.array([0.5 - 0.5 * rtol]), 0.0)
        assert a.matches(b, rtol) and reference_matches(a, b, rtol)
        assert not a.matches(b, rtol / 2) and not reference_matches(a, b, rtol / 2)

    def test_zero_mass_atoms(self):
        # weights outside a valid measure: atoms whose masses sum to zero
        X = DiscreteMeasure(("a", "b", "c", "d"), [-0.0, 1.0, -1.0, -0.0])
        u = SampledMap(X, [[0.0], [1.0], [1.0], [2.0]])
        assert_laws_identical(value_law(u), reference_value_law(u))


class TestEmptyLaw:
    def test_empty_map_gives_empty_law(self):
        empty = SampledMap(DiscreteMeasure((), []), np.empty((0, 2)))
        law = value_law(empty)
        assert law.values.shape == (0, 2)
        assert law.masses.shape == (0,)
        assert law.members == ()
        assert law.n_atoms == 0 and law.total_mass == 0.0

    def test_empty_maps_are_equimeasurable(self):
        f = SampledMap(DiscreteMeasure((), []), np.empty((0, 1)))
        g = SampledMap(DiscreteMeasure((), []), np.empty((0, 1)))
        assert equimeasurable(f, g)
        assert not equimeasurable(f, SampledMap(DiscreteMeasure(("a",), [0.0]), [[1.0]]))


def _heavy_cases(rng):
    """(map, heavy designations) pairs: repeated values are designated
    heavy, the rest are distinct, with exact and widened designations."""
    for d in (1, 2, 3):
        for _ in range(20):
            n_light = int(rng.integers(0, 25))
            n_heavy = int(rng.integers(0, 4))
            light = np.unique(rng.integers(-50, 50, (n_light, d)).astype(float), axis=0)
            light = light[rng.permutation(light.shape[0])]
            heavy_vals = 100.0 + rng.integers(0, 10, (n_heavy, d)).astype(float)
            heavy_vals = np.unique(heavy_vals, axis=0)
            carriers = rng.integers(2, 6, heavy_vals.shape[0])
            vals = np.vstack([light, np.repeat(heavy_vals, carriers, axis=0)])
            if vals.shape[0] == 0:
                continue
            vals = vals[rng.permutation(vals.shape[0])]
            u = SampledMap(_domain(rng, vals.shape[0]), vals)
            yield u, HeavyAtoms(heavy_vals, 0.0)
            # designations off by 0.3 with tolerance 1.5: each may cover
            # the heavy value and light neighbours
            if heavy_vals.shape[0]:
                yield u, HeavyAtoms(heavy_vals + 0.3, 1.5)
            yield u, HeavyAtoms(np.vstack([heavy_vals, light[:2]]) if light.size else heavy_vals, 0.0)


class TestConstructMTo1Reference:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_byte_identical_on_corpus(self, m):
        rng = np.random.default_rng(m)
        n_cases = 0
        for u, heavy in _heavy_cases(rng):
            law = value_law(u)
            assert heavy.atom_indices(law) == reference_atom_indices(heavy, law)
            new = construct_m_to_1(u, m, heavy)
            old = reference_construct_m_to_1(u, m, heavy)
            assert new.domain.labels == old.domain.labels
            assert new.domain.weights.tobytes() == old.domain.weights.tobytes()
            assert new.values.tobytes() == old.values.tobytes()
            n_cases += 1
        assert n_cases > 100

    def test_same_errors(self):
        X = DiscreteMeasure(("a", "b", "c", "d"), [0.25] * 4)
        u = SampledMap(X, [[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        cases = [
            HeavyAtoms.none(),                                      # two multi-carrier atoms
            HeavyAtoms([[2.0, 0.0]]),                               # one left
            HeavyAtoms([[1.0, 0.0], [5.0, 0.0], [6.0, 0.0]]),       # second designation misses
            HeavyAtoms([[1.1, 0.0], [2.1, 0.0]], match_tolerance=0.05),
        ]
        for heavy in cases:
            with pytest.raises((MultiCarrierAtomError, UnknownHeavyAtomError)) as new:
                construct_m_to_1(u, 2, heavy)
            with pytest.raises((MultiCarrierAtomError, UnknownHeavyAtomError)) as old:
                reference_construct_m_to_1(u, 2, heavy)
            assert type(new.value) is type(old.value)
            assert str(new.value) == str(old.value)

    def test_weight_ties_break_by_label_string(self):
        # equal weights: the carriers order by label as strings, so "p10"
        # comes before "p2"
        X = DiscreteMeasure(("p2", "p10", "p1"), [1.0, 1.0, 1.0])
        v = SampledMap(X, [[3.0], [1.0], [2.0]])
        u = construct_m_to_1(v, 1)
        np.testing.assert_array_equal(u.values.ravel(), [3.0, 2.0, 1.0])
        assert u.values.tobytes() == reference_construct_m_to_1(v, 1, HeavyAtoms.none()).values.tobytes()


class TestDominantPartners:
    def _plans(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            k = int(rng.integers(0, 3 * max(m, n)))
            rows = rng.integers(0, m, k)
            cols = rng.integers(0, n, k)
            # masses from a small set, so rows and columns often hold
            # several cells of the same largest mass
            masses = rng.choice([0.125, 0.25, 0.5], k)
            # cells without positive mass are never dominant
            masses[rng.random(k) < 0.1] = rng.choice([0.0, -0.0, -0.5])
            mu = DiscreteMeasure(tuple(f"x{i}" for i in range(m)), np.ones(m))
            nu = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), np.ones(n))
            yield TransportPlan(rows, cols, masses, mu, nu)

    def test_matches_both_loops(self):
        for plan in self._plans():
            for per, reference in (("row", reference_dominant_by_row), ("col", reference_dominant_by_col)):
                partner, mass = plan.dominant_partners(per)
                ref_partner, ref_mass = reference(plan)
                np.testing.assert_array_equal(partner, ref_partner)
                assert mass.tobytes() == ref_mass.tobytes()

    def test_first_of_equal_masses_wins(self):
        mu = DiscreteMeasure(("a", "b"), [1.0, 1.0])
        nu = DiscreteMeasure(("c", "d", "e"), [1.0, 1.0, 1.0])
        plan = TransportPlan([0, 0, 1, 0], [2, 1, 1, 0], [0.5, 0.5, 0.5, 0.25], mu, nu)
        partner, mass = plan.dominant_partners("row")
        np.testing.assert_array_equal(partner, [2, 1])
        partner, mass = plan.dominant_partners("col")
        np.testing.assert_array_equal(partner, [0, 0, 0])
        np.testing.assert_array_equal(mass, [0.25, 0.5, 0.5])

    def test_unreached_and_bad_axis(self):
        mu = DiscreteMeasure(("a", "b"), [1.0, 1.0])
        plan = TransportPlan([0], [0], [1.0], mu, mu)
        partner, mass = plan.dominant_partners("col")
        np.testing.assert_array_equal(partner, [0, -1])
        np.testing.assert_array_equal(mass, [1.0, 0.0])
        with pytest.raises(ValueError):
            plan.dominant_partners("diagonal")
