"""One-dimensional solves taken off the sorted staircase.

A 1-D solve starts from the north-west corner basis of the sorted
supports.  When pricing accepts it, the solver returns it without a basis
tree: its duals come from one sweep along the staircase, its plan from the
staircase's positive cells, and strictification ranks its support
components as run lengths along it (``_chain_ranks``) whenever the
zero-slack cells allow.  ``TreeSimplex`` solves the same starts the way the
general simplex does, with a tree, a search of it for the duals and
Kosaraju's ranks; both must give byte-identical plans and duals.
"""

import numpy as np
import pytest

from polarfact import transport
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.rearrangement import monotone_rearrangement
from polarfact.transport import _ranks, _Simplex, build_cost, solve_mk

from test_reduced_costs import staircase_1d
from test_strictify_reference import distinct_1d, random_case
from test_strong_feasibility import instance_1d


class TreeSimplex(_Simplex):
    """Builds the tree of a staircase start at once and recomputes its
    duals from it; the plan then comes from the tree and the ranks from
    ``_ranks``."""

    def _staircase_duals(self):
        self._build_tree(list(zip(*(a.tolist() for a in self.staircase))))
        self.staircase = None
        self._recompute_duals()


class CountingSimplex(_Simplex):
    trees_built = 0

    def _build_tree(self, edges):
        self.trees_built += 1
        super()._build_tree(edges)


def zero_weights_1d(seed):
    """Distinct values and sites with one weightless point on each side:
    a zero cell of the staircase may then share one node with both of its
    neighbours, and its other node joins no run."""
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(3, 30, 2))
    wa, wb = np.ones(m), np.ones(n)
    wa[rng.integers(0, m)] = 0.0
    wb[rng.integers(0, n)] = 0.0
    X = DiscreteMeasure(tuple(f"x{i}" for i in range(m)), wa / wa.sum())
    Y = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), wb / wb.sum(),
                        rng.uniform(-1, 1, (n, 1)))
    return SampledMap(X, rng.uniform(-1, 1, (m, 1))), Y


def weighted_runs_1d(seed):
    """Distinct values and sites with integer weights, m != n: each value's
    weight is split into one to three site weights, so the cumulative
    sums of both sides meet exactly at every value."""
    rng = np.random.default_rng(seed)
    wa = rng.integers(1, 4, int(rng.integers(3, 30))).astype(float)
    wb = np.concatenate([np.diff(np.sort(np.concatenate(
        [[0.0, w], rng.choice(np.arange(1.0, w), int(rng.integers(0, w)), replace=False)])))
        for w in wa.tolist()])
    X = DiscreteMeasure(tuple(f"x{i}" for i in range(wa.size)), wa)
    Y = DiscreteMeasure(tuple(f"y{j}" for j in range(wb.size)), wb,
                        rng.uniform(-1, 1, (wb.size, 1)))
    return SampledMap(X, rng.uniform(-1, 1, (wa.size, 1))), Y


CORPORA = {
    # unsorted values and sites with ties, uniform
    "staircase_1d": [lambda s=s: staircase_1d(s, 10 + 10 * (s % 8)) for s in range(24)],
    # distinct values and sites, uniform n = 44 or split targets
    "distinct_1d": [lambda s=s: distinct_1d(s) for s in range(40)],
    # weighted, m != n, with and without ties
    "weighted": [lambda s=s: random_case(s, 12 + s, 40 - s, 1, True, 4 if s % 2 else None)
                 for s in range(20)],
    "weighted_runs": [lambda s=s: weighted_runs_1d(s) for s in range(30)],
    # integer weights and coordinates in [-3, 3], m != n
    "integer_ties": [lambda s=s: instance_1d(s) for s in range(40)],
    "zero_weights": [lambda s=s: zero_weights_1d(s) for s in range(30)],
}


def fingerprint(u, Y):
    plan, duals = solve_mk(build_cost(u, Y), u.domain, Y)
    return b"".join(a.tobytes() for a in (plan.rows, plan.cols, plan.masses,
                                          duals.phi_c, duals.phi))


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_staircase_path_matches_tree_path(corpus, monkeypatch):
    unpivoted = 0
    for make in CORPORA[corpus]:
        u, Y = make()
        cost = build_cost(u, Y)
        unpivoted += _Simplex(cost.entries, u.domain.weights, Y.weights,
                              cost.tol).solve(cost.order) == 0
        staircase = fingerprint(u, Y)
        with monkeypatch.context() as mp:
            mp.setattr(transport, "_Simplex", TreeSimplex)
            tree = fingerprint(u, Y)
        assert staircase == tree
    # the sorted start is optimal up to rounding, so nearly every solve
    # returns the staircase itself
    assert unpivoted >= 0.9 * len(CORPORA[corpus])


def test_no_tree_without_a_pivot():
    u, Y = distinct_1d(0)
    cost = build_cost(u, Y)
    rows, cols = cost.order
    sx = CountingSimplex(cost.entries, u.domain.weights, Y.weights, cost.tol)
    assert sx.solve(cost.order) == 0
    assert sx.trees_built == 0 and sx.staircase is not None
    # a start that pricing refuses gets its tree before the first pivot
    sx = CountingSimplex(cost.entries, u.domain.weights, Y.weights, cost.tol)
    assert sx.solve((rows[::-1], cols)) > 0
    assert sx.trees_built == 1 and sx.staircase is None


def kosaraju_ranks(staircase, tight):
    """``_ranks`` on the digraph ``_strictify_duals`` builds for the
    staircase's positive cells and the tight cells."""
    m, n = tight.shape
    rows, cols, masses = staircase
    positive = masses > 0.0
    r, c = rows[positive], m + cols[positive]
    cells = np.flatnonzero(tight)
    return _ranks(m + n, (np.concatenate([cells // n, r, c]),
                          np.concatenate([m + cells % n, c, r])))


@pytest.fixture
def chain_calls(monkeypatch):
    """Every ``_chain_ranks`` call: its ranks (None where it declined),
    ``_ranks`` on the same graph, and whether the tight cells outnumber the
    staircase."""
    calls = []
    chain_ranks = transport._chain_ranks

    def recorded(staircase, tight):
        rank = chain_ranks(staircase, tight)
        extra = np.count_nonzero(tight) > sum(tight.shape) - 1
        calls.append((rank, kosaraju_ranks(staircase, tight), extra))
        return rank

    monkeypatch.setattr(transport, "_chain_ranks", recorded)
    return calls


def test_chain_ranks_equal_kosaraju(chain_calls):
    for corpus in CORPORA.values():
        for make in corpus:
            u, Y = make()
            solve_mk(build_cost(u, Y), u.domain, Y)
    taken = [(rank, reference) for rank, reference, _ in chain_calls if rank is not None]
    for rank, reference in taken:
        assert rank.dtype == reference.dtype
        assert np.array_equal(rank, reference)
    # both paths run, and the ranks reach past 1
    assert len(taken) >= 50 and len(chain_calls) - len(taken) >= 50
    assert max(int(rank.max()) for rank, _ in taken) >= 2


def test_chain_path_taken_on_uniform_monotone_instances(chain_calls):
    for seed in range(0, 40, 2):  # uniform targets, n = 44
        u, Y = distinct_1d(seed)
        assert u.domain.size == 44
        monotone_rearrangement(u, Y)
    assert len(chain_calls) == 20
    assert all(rank is not None for rank, _, _ in chain_calls)


def test_chain_path_not_taken_when_ties_add_zero_slack_cells(chain_calls):
    for make in CORPORA["staircase_1d"]:
        u, Y = make()
        solve_mk(build_cost(u, Y), u.domain, Y)
    declined = [extra for rank, _, extra in chain_calls if rank is None]
    assert sum(declined) > 0
    assert not any(extra for rank, _, extra in chain_calls if rank is not None)
