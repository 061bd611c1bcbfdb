"""Dual strictification against the code it replaced.

``reference_strictify`` keeps the earlier ``_strictify_duals`` verbatim in
behaviour: support components from a union-find over the plan's cells,
relabelled by ``np.unique``, the slack recomputed as an m x n matrix, its
minimum per pair of components scattered into a K x K matrix by
``np.minimum.at``, and the components ranked by the earlier numpy-indexed
Tarjan.  ``solve_mk`` must return byte-equal duals on a seeded corpus.
"""

import functools

import numpy as np
import pytest

from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import GALLERY_NAMES, gallery_instance
from polarfact.transport import _Simplex, build_cost, solve_mk


def reference_scc(n_nodes, edges):
    adj = [[] for _ in range(n_nodes)]
    for p, q in edges:
        adj[p].append(q)
    index = np.full(n_nodes, -1, dtype=int)
    lowlink = np.zeros(n_nodes, dtype=int)
    on_stack = np.zeros(n_nodes, dtype=bool)
    comp = np.full(n_nodes, -1, dtype=int)
    stack = []
    counter = 0
    n_comp = 0
    for root in range(n_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return comp


def reference_strictify(C, rows, cols, alpha, beta, zero_tol, seen):
    """The earlier ``_strictify_duals``; records in ``seen`` the number of
    components, the largest strongly connected set of them and whether
    any pair bound the step size."""
    m, n = C.shape
    parent = list(range(m + n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(rows, cols):
        ra, rb = find(int(i)), find(m + int(j))
        if ra != rb:
            parent[ra] = rb
    comp_row = np.array([find(i) for i in range(m)])
    comp_col = np.array([find(m + j) for j in range(n)])
    uniq, inv = np.unique(np.concatenate([comp_row, comp_col]), return_inverse=True)
    comp_row = inv[:m]
    comp_col = inv[m:]
    K = uniq.shape[0]
    seen["K"] = K
    if K == 1:
        return alpha, beta

    slack = C - alpha[:, None] - beta[None, :]
    S = np.full((K, K), np.inf)
    np.minimum.at(
        S,
        (
            np.broadcast_to(comp_row[:, None], (m, n)),
            np.broadcast_to(comp_col[None, :], (m, n)),
        ),
        slack,
    )
    off_diag = ~np.eye(K, dtype=bool)
    zero_edges = list(zip(*np.nonzero((S <= zero_tol) & off_diag)))
    scc = reference_scc(K, zero_edges)
    seen["largest_scc"] = int(np.bincount(scc).max())
    cross = sorted(
        ((int(scc[p]), int(scc[q])) for p, q in zero_edges if scc[p] != scc[q]), reverse=True
    )
    rank = [0] * K
    for s, t in cross:
        rank[t] = max(rank[t], rank[s] + 1)
    comp_rank = np.asarray(rank, dtype=int)[scc]
    rank_drop = comp_rank[:, None] - comp_rank[None, :]
    binding = (rank_drop > 0) & np.isfinite(S) & off_diag
    seen["binding"] = bool(np.any(binding))
    if np.any(binding):
        gamma = 0.5 * float(np.min(S[binding] / rank_drop[binding]))
    else:
        gamma = 1.0
    if gamma <= 0.0:
        return alpha, beta
    delta = gamma * comp_rank
    delta = delta - delta[comp_col[0]]
    return alpha + delta[comp_row], beta - delta[comp_col]


# -- corpus ---------------------------------------------------------------------


def _measure(prefix, weights, coords=None):
    weights = np.asarray(weights, float)
    return DiscreteMeasure(tuple(f"{prefix}{k}" for k in range(weights.size)), weights, coords)


def _weights(rng, n, weighted):
    w = rng.uniform(0.5, 1.5, n) if weighted else np.ones(n)
    return w / w.sum()


def random_case(seed, m, n, dim=2, weighted=False, grid=None):
    """Seeded instance with m values and n sites in dimension dim; with
    ``grid``, every coordinate is an integer in [-grid, grid]."""
    rng = np.random.default_rng(seed)
    if grid is None:
        values, sites = rng.normal(size=(m, dim)), rng.normal(size=(n, dim))
    else:
        values = rng.integers(-grid, grid + 1, (m, dim)).astype(float)
        sites = rng.integers(-grid, grid + 1, (n, dim)).astype(float)
    u = SampledMap(_measure("x", _weights(rng, m, weighted)), values)
    return u, _measure("y", _weights(rng, n, weighted), sites)


def split_targets(seed, n):
    """1-D staircase onto sites whose weights sum to each value's mass in
    turn, so the monotone plan sends every site to a single value."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 4, n)
    parts = rng.uniform(0.5, 1.5, counts.sum())
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    weights = parts / np.repeat(np.add.reduceat(parts, starts), counts) / n
    u = SampledMap(_measure("x", np.full(n, 1.0 / n)), rng.uniform(-1, 1, (n, 1)))
    sites = np.sort(rng.uniform(-1, 1, weights.size))[:, None]
    return u, _measure("y", weights / weights.sum(), sites)


def zero_weight_row(seed, m, n):
    """Weighted 2-D instance whose first source point has weight 0 (a
    library caller may skip ``validate``)."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, m)
    w[0] = 0.0
    u = SampledMap(_measure("x", w / w.sum()), rng.normal(size=(m, 2)))
    return u, _measure("y", _weights(rng, n, True), rng.normal(size=(n, 2)))


CORPUS = {
    **{f"1d-ties-{s}-{m}x{n}": (random_case, (s, m, n, 1, w, 4)) for s, m, n, w in
       [(1, 12, 12, False), (2, 30, 30, False), (3, 24, 36, False), (4, 44, 44, True)]},
    **{f"1d-distinct-{s}-{m}x{n}": (random_case, (s, m, n, 1, w)) for s, m, n, w in
       [(5, 20, 20, False), (6, 44, 44, False), (7, 33, 21, True)]},
    **{f"1d-split-{s}-{n}": (split_targets, (s, n)) for s, n in [(8, 10), (9, 22), (10, 40)]},
    **{f"uniform-{s}-{m}x{n}": (random_case, (s, m, n)) for s, m, n in
       [(11, 8, 8), (12, 20, 20), (13, 40, 40), (14, 17, 34)]},
    **{f"weighted-{s}-{m}x{n}": (random_case, (s, m, n, 2, True)) for s, m, n in
       [(21, 8, 8), (22, 40, 40), (23, 31, 17)]},
    **{f"grid{g}-{s}-{m}x{n}": (random_case, (s, m, n, 2, s == 34, g)) for s, m, n, g in
       [(31, 20, 20, 1), (32, 30, 30, 2), (33, 24, 18, 1), (34, 40, 40, 3)]},
    **{f"gallery-{name}-{N}": (gallery_instance, (name, N, 3)) for name in GALLERY_NAMES
       for N in (4, 6, 8)},
    "uniform-41-20x20-3d": (random_case, (41, 20, 20, 3)),
    "zero-weight-row-51-12x15": (zero_weight_row, (51, 12, 15)),
}


def corpus_instance(name):
    make, args = CORPUS[name]
    u, Y = make(*args)[:2]
    return u, Y, build_cost(u, Y)


@functools.lru_cache(maxsize=None)
def strictified(name):
    """The reference's duals on the solver's final basis, what it saw on
    the way, and the duals ``solve_mk`` returns."""
    u, Y, cost = corpus_instance(name)
    sx = _Simplex(cost.entries, u.domain.weights, Y.weights)
    sx.solve(cost.order)
    rows, cols, _ = sx.plan_triplets()
    seen = {}
    ref = reference_strictify(
        cost.entries, rows, cols, sx.alpha.copy(), sx.beta.copy(), sx.tol, seen
    )
    _, duals = solve_mk(cost, u.domain, Y)
    return ref, (duals.phi_c, duals.phi), seen


class TestStrictifyReference:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_byte_equal_duals(self, name):
        (ref_alpha, ref_beta), (phi_c, phi), _ = strictified(name)
        assert phi_c.dtype == ref_alpha.dtype and phi.dtype == ref_beta.dtype
        assert phi_c.tobytes() == ref_alpha.tobytes()
        assert phi.tobytes() == ref_beta.tobytes()

    def test_corpus_reaches_every_branch(self):
        seen = [strictified(name)[2] for name in sorted(CORPUS)]
        # several support components, so duals move at all, on most of the
        # corpus; non-degenerate weighted bases have one
        assert sum(s["K"] > 1 for s in seen) >= 0.75 * len(CORPUS)
        assert any(s["K"] == 1 for s in seen)
        # zero-slack cycles between components, which share a rank
        assert any(s.get("largest_scc", 0) >= 2 for s in seen)
        # components that no pair bounds take the unit step
        assert any(s.get("binding") is False for s in seen)
        assert any(s.get("binding") is True for s in seen)

    def test_zero_weight_row_is_its_own_component(self):
        u, Y, cost = corpus_instance("zero-weight-row-51-12x15")
        sx = _Simplex(cost.entries, u.domain.weights, Y.weights)
        sx.solve(cost.order)
        comp, n_comp = sx.support_components()
        m = u.domain.size
        # the weightless row carries no mass, so no column shares its label
        assert comp[0] not in comp[m:]
        assert n_comp == np.unique(comp).size


# -- properties of the strictified dual face -----------------------------------


def reduced_costs(cost, duals):
    return cost.entries - duals.phi_c[:, None] - duals.phi[None, :]


class TestStrictDualFace:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_feasible_and_gauge_fixed(self, name):
        u, Y, cost = corpus_instance(name)
        _, duals = solve_mk(cost, u.domain, Y)
        tol = _Simplex(cost.entries, u.domain.weights, Y.weights).tol
        assert reduced_costs(cost, duals).min() >= -tol
        assert duals.phi[0] == 0.0

    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_zero_reduced_costs_are_the_support_when_the_optimum_is_unique(self, N):
        # an injective gradient has a unique optimal plan, so by strict
        # complementarity (Goldman & Tucker 1956) a relative-interior dual
        # prices every other cell strictly positive
        u, Y, _ = gallery_instance("injective-control", N, 3)
        cost = build_cost(u, Y)
        plan, duals = solve_mk(cost, u.domain, Y)
        tight = np.argwhere(reduced_costs(cost, duals) <= 1e-8)
        support = np.column_stack([plan.rows, plan.cols])
        assert np.array_equal(tight, support)


def distinct_1d(seed):
    """Distinct values and sites on a line: uniform targets for even seeds,
    split targets for odd ones."""
    if seed % 2:
        return split_targets(1000 + seed, 22)
    rng = np.random.default_rng(1000 + seed)
    n = 44
    u = SampledMap(_measure("x", np.full(n, 1.0 / n)), rng.uniform(-1, 1, (n, 1)))
    return u, _measure("y", np.full(n, 1.0 / n), rng.uniform(-1, 1, (n, 1)))


class TestOneDimensionalOracle:
    def test_components_are_runs_and_zero_slack_joins_neighbours(self):
        cross_edges = 0
        for seed in range(120):
            u, Y = distinct_1d(seed)
            cost = build_cost(u, Y)
            sx = _Simplex(cost.entries, u.domain.weights, Y.weights)
            sx.solve(cost.order)
            comp, n_comp = sx.support_components()
            m = u.domain.size
            rows, cols = cost.order
            # along the sorted values and along the sorted sites, each
            # component is one run, and the runs come in the same order
            runs = []
            for labels in (comp[rows], comp[m + cols]):
                starts = np.flatnonzero(np.diff(labels, prepend=-1))
                runs.append(labels[starts].tolist())
            assert runs[0] == runs[1]
            assert sorted(runs[0]) == list(range(n_comp))
            position = np.empty(n_comp, dtype=int)
            position[runs[0]] = np.arange(n_comp)
            # the zero-slack graph the duals are strictified along links
            # only components that are neighbours in that order
            i, j = np.nonzero(sx._reduced <= sx.tol)
            p, q = comp[i], comp[m + j]
            gap = np.abs(position[p] - position[q])[p != q]
            assert np.all(gap == 1)
            cross_edges += gap.size
        assert cross_edges > 0
