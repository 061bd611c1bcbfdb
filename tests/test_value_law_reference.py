"""The value-law kernel against the code it replaced.

``reference_value_law`` keeps the earlier ``value_law`` body verbatim in
behaviour: one stable ``lexsort`` by (snapped value, value), the clusters
ranked by ``_lex_order`` of their representatives at every ``cluster_tol``
(0 included), a rank scatter, a stable argsort of the points by atom, and
``np.sum`` for atoms of 8 or more members.  ``value_law`` must return
byte-equal values, masses and members on hypothesis-drawn maps (under the
deterministic profile of ``conftest.py``) and on a few pinned ones.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from polarfact.measures import (  # noqa: E402
    DiscreteMeasure,
    SampledMap,
    ValueLaw,
    _lex_order,
    _snap,
    value_law,
)

CLUSTER_TOLS = (0.0, 1e-3, 0.1, 0.5)


def reference_value_law(map, cluster_tol=0.0):
    vals = map.values
    n, d = vals.shape
    if n == 0:
        return ValueLaw(np.empty((0, d)), np.empty(0), cluster_tol, ())
    keyed = _snap(vals, cluster_tol)
    columns = tuple(vals[:, k] for k in reversed(range(d)))
    if cluster_tol != 0.0:
        columns += tuple(keyed[:, k] for k in reversed(range(d)))
    order = np.lexsort(columns)
    sorted_keys = keyed[order]
    starts = np.ones(n, dtype=bool)
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=starts[1:])
    reps = vals[order[starts]]
    n_atoms = reps.shape[0]
    atom_order = _lex_order(reps)
    rank = np.empty(n_atoms, dtype=np.intp)
    rank[atom_order] = np.arange(n_atoms)
    atom = np.empty(n, dtype=np.intp)
    atom[order] = rank[np.cumsum(starts) - 1]

    w = map.domain.weights
    masses = np.bincount(atom, weights=w, minlength=n_atoms)
    counts = np.bincount(atom, minlength=n_atoms)
    by_atom = np.argsort(atom, kind="stable")
    ends = np.cumsum(counts)
    for k in np.nonzero(counts >= 8)[0]:
        masses[k] = np.sum(w[by_atom[ends[k] - counts[k]:ends[k]]])
    flat = by_atom.tolist()
    bounds = [0] + ends.tolist()
    return ValueLaw(
        values=reps[atom_order],
        masses=masses,
        cluster_tol=cluster_tol,
        members=tuple(tuple(flat[s:e]) for s, e in zip(bounds[:-1], bounds[1:])),
    )


def sampled_map(values, weights):
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    domain = DiscreteMeasure(tuple(f"x{i}" for i in range(weights.size)), weights)
    return SampledMap(domain, values)


def assert_byte_equal(law, ref):
    assert law.values.shape == ref.values.shape
    assert law.values.tobytes() == ref.values.tobytes()
    assert law.masses.shape == ref.masses.shape
    assert law.masses.tobytes() == ref.masses.tobytes()
    # repr tells a Python int from a numpy integer
    assert repr(law.members) == repr(ref.members)
    assert law.cluster_tol == ref.cluster_tol


# a small pool makes duplicates, and it holds both zeros
POOL = (-0.0, 0.0, 1.0, -1.0, 0.25, 0.2501, 0.5, -2.0, 3.0)


@st.composite
def maps(draw, min_points=0, max_points=40, pool=POOL, any_float=True):
    d = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(min_points, max_points))
    coordinate = st.sampled_from(pool)
    if any_float:
        coordinate = st.one_of(coordinate, st.floats(-4.0, 4.0, allow_nan=False))
    values = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                           min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return sampled_map(np.reshape(values, (n, d)), weights)


@hypothesis.given(map=maps(), cluster_tol=st.sampled_from(CLUSTER_TOLS))
def test_law_matches_reference(map, cluster_tol):
    assert_byte_equal(value_law(map, cluster_tol), reference_value_law(map, cluster_tol))


@hypothesis.given(
    map=maps(min_points=8, max_points=60, pool=(-0.0, 0.0, 1.0, 0.5), any_float=False),
    cluster_tol=st.sampled_from(CLUSTER_TOLS),
)
def test_crowded_atoms_match_reference(map, cluster_tol):
    # three distinct pool values per coordinate and at least 8 points: most
    # examples hold an atom of 8 or more members, whose mass takes numpy's
    # pairwise sum
    assert_byte_equal(value_law(map, cluster_tol), reference_value_law(map, cluster_tol))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("cluster_tol", CLUSTER_TOLS)
def test_empty_map(d, cluster_tol):
    map = sampled_map(np.empty((0, d)), np.empty(0))
    law = value_law(map, cluster_tol)
    assert law.values.shape == (0, d)
    assert_byte_equal(law, reference_value_law(map, cluster_tol))


@pytest.mark.parametrize("cluster_tol", CLUSTER_TOLS)
def test_pairwise_sum_atom(cluster_tol):
    # 1 + 17·1e-16 summed in sequence rounds every small term away; the
    # pairwise sum adds them among themselves first
    rng = np.random.default_rng(3)
    n = 18
    values = np.where(rng.random(n) < 0.5, -0.0, 0.0)[:, None]
    weights = np.array([1.0] + [1e-16] * (n - 1))
    map = sampled_map(values, weights)
    law = value_law(map, cluster_tol)
    assert law.n_atoms == 1
    assert law.masses[0] == np.sum(weights) != 1.0
    assert_byte_equal(law, reference_value_law(map, cluster_tol))


@pytest.mark.parametrize("cluster_tol", CLUSTER_TOLS)
def test_signed_zeros_and_duplicates(cluster_tol):
    values = [[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 2.0]]
    map = sampled_map(values, [0.1, 0.2, 0.3, 0.15, 0.05, 0.2])
    law = value_law(map, cluster_tol)
    # each representative is the value at the lowest domain index of its atom
    assert np.signbit(law.values[law.members.index((0, 1, 3)), 0]) == False  # noqa: E712
    assert_byte_equal(law, reference_value_law(map, cluster_tol))
