"""The transportation simplex against the per-pivot code it replaced.

``ReferenceSimplex`` keeps the per-pivot style of the earlier
``_initial_basis``, ``_entering``, ``_pivot`` and ``_recompute_duals``: the
start basis masks each row with ``np.where``, pricing builds its broadcast
views on every call, a pivot climbs both ends of the entering cell one
node at a time, recomputes the entering cell's reduced cost and shifts the
duals of the moved subtree through ``np.where``.  It breaks start ties as
in the perturbed problem and lets Cunningham's leaving cell go, as the
solver does.  The current solver must take the same pivots and return
bit-identical plans and duals on a seeded corpus.
"""

import functools

import numpy as np
import pytest

from polarfact import transport
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import GALLERY_NAMES, gallery_instance
from polarfact.transport import _Simplex, build_cost, solve_mk


class ReferenceSimplex(_Simplex):
    """The per-pivot code; counts pivots whose leaving cell was chosen
    among two or more minus cells at theta."""

    tied_pivots = 0

    def _initial_basis(self) -> list:
        edges = []
        ra = self.a.copy()
        rb = self.b.copy()
        # eps-counts of the perturbed supplies a_i + eps and demands b_j - eps,
        # with b_0 + (m+n-1) eps balancing them at column 0
        ea = np.ones(self.m, dtype=int)
        eb = np.full(self.n, -1)
        eb[0] = self.m + self.n - 1
        col_active = np.ones(self.n, dtype=bool)
        n_active = self.n
        for i in range(self.m):
            last_row = i == self.m - 1
            while True:
                masked = np.where(col_active, self.C[i], np.inf)
                j = int(np.argmin(masked))
                if last_row:
                    if n_active > 1:
                        t = max(float(rb[j]), 0.0)
                        edges.append((i, j, t))
                        ra[i] -= t
                        rb[j] = 0.0
                        col_active[j] = False
                        n_active -= 1
                        continue
                    edges.append((i, j, max(float(ra[i]), 0.0)))
                    return edges
                t = float(min(ra[i], rb[j]))
                column_first = rb[j] < ra[i] or (rb[j] == ra[i] and eb[j] < ea[i])
                if column_first and n_active > 1:
                    edges.append((i, j, t))
                    ra[i] -= t
                    ea[i] -= eb[j]
                    rb[j] = 0.0
                    col_active[j] = False
                    n_active -= 1
                else:
                    edges.append((i, j, t))
                    rb[j] -= t
                    eb[j] -= ea[i]
                    ra[i] = 0.0
                    break
        return edges

    def _recompute_duals(self) -> None:
        C, alpha, beta, m = self.C, self.alpha, self.beta, self.m
        beta[0] = 0.0
        stack = [m]
        while stack:
            node = stack.pop()
            for nxt in self.children[node]:
                if nxt < m:
                    alpha[nxt] = C[nxt, node - m] - beta[node - m]
                else:
                    beta[nxt - m] = C[node, nxt - m] - alpha[node]
                stack.append(nxt)

    def _entering(self):
        reduced = self._reduced
        np.subtract(self.C, self.alpha[:, None], out=reduced)
        np.subtract(reduced, self.beta[None, :], out=reduced)
        flat = reduced.ravel()
        k = int(np.argmin(flat))
        if flat[k] >= -self.tol:
            return None
        return divmod(k, self.n)

    def _pivot(self, ei: int, ej: int) -> float:
        m = self.m
        parent, depth, children, flow = self.parent, self.depth, self.children, self.flow
        u, v = ei, m + ej
        minus, plus = [], []
        while u != v:
            if depth[u] >= depth[v]:
                (minus if u < m else plus).append(u)
                u = parent[u]
            else:
                (minus if v >= m else plus).append(v)
                v = parent[v]
        theta = min(map(flow.__getitem__, minus))
        # rows lose mass on the side of ei, columns on the side of ej; both
        # lists run from the entering cell up to the apex
        tied_rows = [w for w in minus if w < m and flow[w] == theta]
        tied_cols = [w for w in minus if w >= m and flow[w] == theta]
        self.tied_pivots += len(tied_rows) + len(tied_cols) > 1
        # the last tied cell met walking from the apex down to ei, across
        # (ei, ej) and up from ej
        q = tied_cols[-1] if tied_cols else tied_rows[0]
        for w in plus:
            flow[w] += theta
        for w in minus:
            f = flow[w] - theta
            flow[w] = 0.0 if f < 0.0 else f
        delta = float(self.C[ei, ej] - self.alpha[ei] - self.beta[ej])
        a, b = (ei, m + ej) if q < m else (m + ej, ei)
        children[parent[q]].remove(q)
        node, new_parent, new_flow = a, b, theta
        while True:
            old_parent, old_flow = parent[node], flow[node]
            parent[node], flow[node] = new_parent, new_flow
            children[new_parent].append(node)
            if node == q:
                break
            children[old_parent].remove(node)
            node, new_parent, new_flow = old_parent, node, old_flow
        depth[a] = depth[b] + 1
        moved = [a]
        for node in moved:
            below = children[node]
            d = depth[node] + 1
            for nxt in below:
                depth[nxt] = d
            moved.extend(below)
        moved = np.array(moved)
        shift = delta if a == ei else -delta
        self.pot[moved] += np.where(moved < m, shift, -shift)
        return float(theta)


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


CORPUS = {
    **{f"uniform-{s}-{k}x{k}": (random_case, (s, k, k)) for s, k in
       [(1, 6), (2, 12), (3, 20), (4, 30), (5, 40), (6, 40)]},
    **{f"weighted-{s}-{k}x{k}": (random_case, (s, k, k, 2, True)) for s, k in
       [(11, 6), (12, 12), (13, 20), (14, 30), (15, 40), (16, 40)]},
    **{f"uniform-{s}-{m}x{n}": (random_case, (s, m, n)) for s, m, n in
       [(21, 10, 25), (22, 25, 10), (23, 17, 31), (24, 36, 12)]},
    **{f"weighted-{s}-{m}x{n}": (random_case, (s, m, n, 2, True)) for s, m, n in
       [(31, 10, 25), (32, 25, 10), (33, 17, 31), (34, 36, 12)]},
    **{f"grid{g}-uniform-{s}-{m}x{n}": (random_case, (s, m, n, 2, False, g)) for s, m, n, g in
       [(41, 20, 20, 1), (42, 30, 30, 2), (43, 24, 18, 1), (44, 40, 40, 3)]},
    **{f"grid{g}-weighted-{s}-{m}x{n}": (random_case, (s, m, n, 2, True, g)) for s, m, n, g in
       [(51, 20, 20, 1), (52, 30, 30, 2), (53, 18, 24, 2), (54, 40, 40, 3)]},
    **{f"gallery-{name}-{N}": (gallery_instance, (name, N, 3)) for name in GALLERY_NAMES
       for N in (4, 6, 8)},
    "uniform-61-20x20-3d": (random_case, (61, 20, 20, 3)),
    "weighted-62-16x24-3d": (random_case, (62, 16, 24, 3, True)),
}


def corpus_instance(name):
    make, args = CORPUS[name]
    u, Y = make(*args)[:2]
    return u, Y, build_cost(u, Y)


@functools.lru_cache(maxsize=None)
def solved(cls, name):
    """Pivot counts, final tree state and the solve_mk result of one corpus
    instance under the given simplex class."""
    u, Y, cost = corpus_instance(name)
    sx = cls(cost.entries, u.domain.weights, Y.weights, cost.tol)
    pivots = sx.solve(cost.order)
    counts = (pivots, sx.degenerate_pivots)
    state = (list(sx.parent), list(sx.depth), list(sx.flow), sx.pot.tobytes())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_Simplex", cls)
        plan, duals = solve_mk(cost, u.domain, Y)
    result = (plan.rows, plan.cols, plan.masses, duals.phi_c, duals.phi)
    return counts, state, result, getattr(sx, "tied_pivots", None)


def assert_same_solve(ref, cur):
    ref_counts, ref_state, ref_result, _ = ref
    cur_counts, cur_state, cur_result, _ = cur
    assert cur_counts == ref_counts
    assert cur_state == ref_state
    for expected, got in zip(ref_result, cur_result):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestSimplexReference:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_same_pivots_plan_and_duals(self, name):
        assert_same_solve(solved(ReferenceSimplex, name), solved(_Simplex, name))

    def test_corpus_exercises_tied_leaving_cells(self):
        # pivots whose theta is reached by two or more minus cells choose
        # the leaving cell by its place on the cycle
        for name in ("grid2-uniform-42-30x30", "gallery-m-to-1-flat-8"):
            assert solved(ReferenceSimplex, name)[3] > 0

    def test_corpus_pivots(self):
        # a corpus the start basis already solves would compare no pivots
        assert all(solved(_Simplex, name)[0][0] > 0 for name in CORPUS)
