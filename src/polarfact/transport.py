"""Exact solution of the discrete quadratic-cost transport problem.

The solver is a transportation simplex on the dense cost matrix: it keeps a
spanning-tree basis of |X| + |Y| - 1 cells, prices all cells against duals
propagated through the tree, and pivots until no reduced cost is negative.
Entering cells are chosen by the most-negative rule with lexicographic
tie-breaking; long runs of degenerate pivots switch to Bland's rule (first
negative cell in lexicographic order), which cannot cycle.  Every choice is
a deterministic function of the input, so identical instances produce
bit-identical plans and duals.

The basis tree is stored as parent, depth and child indices rooted at the
first target site (Kelly & O'Neill 1991).  A pivot finds its cycle by
climbing both ends of the entering cell to their lowest common ancestor,
cuts the subtree under the leaving cell, re-hangs it from the entering
cell by reversing the parent pointers on the way, and shifts the duals of
that subtree alone.  Each pivot then costs the length of its cycle plus
the size of the subtree that moves, not a search of the whole tree.

In one dimension sorting is the solver.  ``build_cost`` records the stable
sort orders of the values and of the sites, and the simplex then starts
from the north-west corner basis of the sorted supports: quadratic cost on
sorted points is a Monge array, so that staircase is an optimal basis
(Hoffman 1963) and its duals price every cell non-negative.  Pricing still
certifies it, and a reduced cost that rounding leaves below the tolerance
is pivoted away as usual.  Other instances start from the row-minimum
basis.  Pivot counts, degenerate pivots, switches to Bland's rule and the
start used are logged at DEBUG level on the ``polarfact`` logger.

Duals are rooted at the first target site (phi(y_1) = 0) and recomputed
exactly from the final tree, so complementary slackness holds to float
precision on the support and the duality gap of the returned pair is zero
up to accumulation error.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .convex import ConvexPotential, DualPair, fenchel_gap_many
from .errors import (
    DimensionMismatchError,
    MarginalMismatchError,
    NumericalFailureError,
    OracleScopeExceededError,
    UnequalMassError,
)
from .measures import MASS_RTOL, DiscreteMeasure, SampledMap

_log = logging.getLogger("polarfact")


@dataclass(frozen=True)
class CostMatrix:
    """Dense |X| x |Y| matrix of costs |u(x_i) - y_j|^2 / 2.

    ``order`` holds the stable sort orders of the values and of the sites
    when both lie on a line (set by ``build_cost``), else None.
    """

    entries: np.ndarray
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    order: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.shape != (self.mu.size, self.nu.size):
            raise DimensionMismatchError(
                f"cost shape {e.shape} vs measures ({self.mu.size}, {self.nu.size})"
            )

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class TransportPlan:
    """Sparse joint measure on X x Y given as (row, col, mass) triplets."""

    rows: np.ndarray
    cols: np.ndarray
    masses: np.ndarray
    mu: DiscreteMeasure
    nu: DiscreteMeasure

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=int).reshape(-1))
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=int).reshape(-1))
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float).reshape(-1))
        if not (self.rows.shape == self.cols.shape == self.masses.shape):
            raise MarginalMismatchError("triplet arrays disagree in length")

    @property
    def n_triplets(self) -> int:
        return self.masses.shape[0]

    @property
    def triplets(self):
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.masses.tolist()))

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.masses, minlength=self.mu.size)

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.cols, weights=self.masses, minlength=self.nu.size)

    def validate(self, rtol: float = MASS_RTOL) -> None:
        """Check both marginals against the declared measures."""
        if self.n_triplets and np.any(self.masses <= 0):
            raise MarginalMismatchError("plan masses must be > 0")
        scale = max(1.0, self.mu.total_mass)
        if np.max(np.abs(self.row_sums() - self.mu.weights), initial=0.0) > rtol * scale:
            raise MarginalMismatchError("row sums do not match the source weights")
        if np.max(np.abs(self.col_sums() - self.nu.weights), initial=0.0) > rtol * scale:
            raise MarginalMismatchError("column sums do not match the target weights")

    def support_per_row(self) -> np.ndarray:
        return np.bincount(self.rows, minlength=self.mu.size)


def _measures_agree(a: DiscreteMeasure, b: DiscreteMeasure) -> bool:
    return a is b or (
        a.size == b.size
        and a.labels == b.labels
        and np.array_equal(a.weights, b.weights)
    )


def _pairwise_cost_blocked(values: np.ndarray, sites: np.ndarray, block: int = 256) -> np.ndarray:
    m = values.shape[0]
    out = np.empty((m, sites.shape[0]))
    for start in range(0, m, block):
        chunk = values[start : start + block]
        diff = chunk[:, None, :] - sites[None, :, :]
        out[start : start + block] = 0.5 * np.einsum("ijk,ijk->ij", diff, diff)
    return out


def build_cost(u: SampledMap, Y: DiscreteMeasure) -> CostMatrix:
    """Quadratic cost between the sampled values of u and the sites of Y."""
    if Y.coords is None:
        raise DimensionMismatchError("target measure must carry coordinates")
    if u.codomain_dimension != Y.coords.shape[1]:
        raise DimensionMismatchError(
            f"map codomain {u.codomain_dimension} vs target dimension {Y.coords.shape[1]}"
        )
    mu_total, nu_total = u.domain.total_mass, Y.total_mass
    if abs(mu_total - nu_total) > MASS_RTOL * max(1.0, mu_total, nu_total):
        raise UnequalMassError(f"total masses differ: {mu_total!r} vs {nu_total!r}")
    entries = _pairwise_cost_blocked(u.values, Y.coords)
    order = None
    if Y.coords.shape[1] == 1:
        order = (
            np.argsort(u.values[:, 0], kind="stable"),
            np.argsort(Y.coords[:, 0], kind="stable"),
        )
    return CostMatrix(entries, u.domain, Y, order)


def objective(plan: TransportPlan, cost: CostMatrix) -> float:
    """I(plan) = sum of mass * cost over the plan's triplets."""
    if not (_measures_agree(plan.mu, cost.mu) and _measures_agree(plan.nu, cost.nu)):
        raise MarginalMismatchError("plan marginals do not reference the cost's measures")
    if plan.n_triplets == 0:
        return 0.0
    return float(np.dot(plan.masses, cost.entries[plan.rows, plan.cols]))


def duality_certificate(plan: TransportPlan, duals: DualPair, cost: CostMatrix) -> dict:
    """Primal value, dual value and their gap for a solved instance."""
    primal = objective(plan, cost)
    dual = duals.dual_value(plan.mu.weights, plan.nu.weights)
    return {"I": primal, "dual_value": dual, "gap": primal - dual}


# ---------------------------------------------------------------------------
# dual interiorization
# ---------------------------------------------------------------------------

def _scc(n_nodes: int, edges) -> np.ndarray:
    """Strongly connected components (iterative Tarjan); returns labels."""
    adj = [[] for _ in range(n_nodes)]
    for p, q in edges:
        adj[p].append(q)
    index = np.full(n_nodes, -1, dtype=int)
    lowlink = np.zeros(n_nodes, dtype=int)
    on_stack = np.zeros(n_nodes, dtype=bool)
    comp = np.full(n_nodes, -1, dtype=int)
    stack: list = []
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


def _strictify_duals(C, rows, cols, alpha, beta, zero_tol):
    """Open positive slack between support components where the optimal face
    allows it, keeping feasibility, support tightness and the gauge.

    The simplex returns a vertex of the dual face, which leaves degenerate
    basic cells at zero reduced cost even when the minimiser is unique.
    Shifting each connected component of the support graph by a potential
    keeps all support cells tight; ranking the components along the
    condensation of the zero-slack graph makes every slack that is not
    forced tight strictly positive.
    """
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

    scc = _scc(K, zero_edges)
    n_scc = int(scc.max()) + 1
    # longest-path ranks over the condensation: delta must grow along edges
    indeg = np.zeros(n_scc, dtype=int)
    cond_adj = [set() for _ in range(n_scc)]
    for p, q in zero_edges:
        if scc[p] != scc[q] and scc[q] not in cond_adj[scc[p]]:
            cond_adj[scc[p]].add(scc[q])
            indeg[scc[q]] += 1
    rank = np.zeros(n_scc, dtype=int)
    ready = deque(sorted(np.nonzero(indeg == 0)[0].tolist()))
    while ready:
        s = ready.popleft()
        for t in sorted(cond_adj[s]):
            rank[t] = max(rank[t], rank[s] + 1)
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    comp_rank = rank[scc]
    # only pairs whose shift goes against the slack constrain the step size:
    # gamma * (rank_p - rank_q) <= S[p, q] wherever rank_p > rank_q
    rank_drop = comp_rank[:, None] - comp_rank[None, :]
    binding = (rank_drop > 0) & np.isfinite(S) & off_diag
    if np.any(binding):
        gamma = 0.5 * float(np.min(S[binding] / rank_drop[binding]))
    else:
        gamma = 1.0
    if gamma <= 0.0:
        return alpha, beta
    delta = gamma * comp_rank
    delta = delta - delta[comp_col[0]]  # keep phi(y_1) = 0
    return alpha + delta[comp_row], beta - delta[comp_col]


# ---------------------------------------------------------------------------
# transportation simplex
# ---------------------------------------------------------------------------

class _Simplex:
    """Spanning-tree simplex for the balanced transportation problem.

    Tree nodes are rows 0..m-1 and columns m..m+n-1.  The basis tree is
    rooted at the first column (node m): ``parent[v]`` and ``depth[v]``
    place node v in it, ``children[v]`` lists the nodes hanging below v,
    and ``flow[v]`` is the mass on the basic cell joining v to its parent.
    """

    def __init__(self, C: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.C = C
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.m, self.n = C.shape
        # alpha and beta are views of one vector, so a pivot shifts the
        # duals of both sides in one update
        self.pot = np.zeros(self.m + self.n)
        self.alpha = self.pot[: self.m]
        self.beta = self.pot[self.m :]
        self.tol = 1e-11 * max(1.0, float(np.max(np.abs(C)))) if C.size else 1e-11
        self.degenerate_pivots = 0
        self.bland_switches = 0
        self._reduced = np.empty(C.shape)

    def _cell(self, v: int) -> tuple:
        """The basic cell joining node v to its parent."""
        p = self.parent[v]
        return (v, p - self.m) if v < self.m else (p, v - self.m)

    # -- initial basis ---------------------------------------------------------
    def _initial_basis(self) -> list:
        """Row-minimum start: each row fills its cheapest active columns.

        Every allocation crosses out exactly one line, so the m+n-1 chosen
        cells are acyclic and span all rows and columns.  Returns them as
        (row, column, mass) triplets.
        """
        edges = []
        ra = self.a.copy()
        rb = self.b.copy()
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
                if rb[j] < ra[i] and n_active > 1:
                    edges.append((i, j, t))
                    ra[i] -= t
                    rb[j] = 0.0
                    col_active[j] = False
                    n_active -= 1
                else:
                    # row exhausted (ties also close the row; the column
                    # stays active and receives a zero basic cell later)
                    edges.append((i, j, t))
                    rb[j] -= t
                    ra[i] = 0.0
                    break
        return edges

    def _build_tree(self, edges) -> None:
        """Root the basis given as (row, column, mass) triplets at node m."""
        m, size = self.m, self.m + self.n
        adj = [[] for _ in range(size)]
        for i, j, mass in edges:
            adj[i].append((m + j, mass))
            adj[m + j].append((i, mass))
        self.parent = parent = [-1] * size
        self.depth = depth = [0] * size
        self.flow = flow = [0.0] * size
        self.children = children = [[] for _ in range(size)]
        reached = 1
        stack = [m]
        while stack:
            node = stack.pop()
            for nxt, mass in adj[node]:
                if nxt != m and parent[nxt] < 0:
                    parent[nxt] = node
                    depth[nxt] = depth[node] + 1
                    flow[nxt] = mass
                    children[node].append(nxt)
                    stack.append(nxt)
                    reached += 1
        # m + n - 1 cells that reach every node form a spanning tree
        if len(edges) != size - 1 or reached != size:
            raise NumericalFailureError("basis tree does not span the instance")

    # -- duals -----------------------------------------------------------------
    def _recompute_duals(self) -> None:
        """Exact duals from the tree, rooted at the first column (beta_0 = 0)."""
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

    # -- pivoting ----------------------------------------------------------------
    def _entering(self, bland: bool):
        reduced = self._reduced
        np.subtract(self.C, self.alpha[:, None], out=reduced)
        np.subtract(reduced, self.beta[None, :], out=reduced)
        flat = reduced.ravel()
        if bland:
            hit = np.flatnonzero(flat < -self.tol)
            if hit.size == 0:
                return None
            k = int(hit[0])
        else:
            k = int(np.argmin(flat))
            if flat[k] >= -self.tol:
                return None
        return divmod(k, self.n)

    def _pivot(self, ei: int, ej: int) -> float:
        m = self.m
        parent, depth, children, flow = self.parent, self.depth, self.children, self.flow
        # the cycle closed by (ei, ej) is the tree path between its ends:
        # climb both to their lowest common ancestor, listing each node
        # passed for the cell joining it to its parent
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
        _, q = min((self._cell(w), w) for w in minus if flow[w] == theta)
        for w in plus:
            flow[w] += theta
        for w in minus:
            f = flow[w] - theta
            flow[w] = 0.0 if f < 0.0 else f
        delta = float(self.C[ei, ej] - self.alpha[ei] - self.beta[ej])
        # dropping the leaving cell cuts off the subtree under q; it holds
        # ei when q is a row (rows are cut on the way up), else column ej
        a, b = (ei, m + ej) if q < m else (m + ej, ei)
        children[parent[q]].remove(q)
        # hang it below b by the entering cell, reversing parents from a to q
        node, new_parent, new_flow = a, b, theta
        while True:
            old_parent, old_flow = parent[node], flow[node]
            parent[node], flow[node] = new_parent, new_flow
            children[new_parent].append(node)
            if node == q:
                break
            children[old_parent].remove(node)
            node, new_parent, new_flow = old_parent, node, old_flow
        # reset depths below a and shift the duals of the side that moved,
        # the one without the root, so that (ei, ej) prices to zero
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

    def solve(self, order=None) -> int:
        """Pivot to optimality from the north-west corner basis of the
        supports permuted by ``order`` (row and column permutations), or
        from the row-minimum basis without one; returns the pivot count.
        Either start is accepted only once pricing finds no negative
        reduced cost."""
        if order is None:
            start = self._initial_basis()
        else:
            # the m+n-1 staircase cells, zero cells kept, span all nodes
            rows, cols = order
            cells = _northwest_cells(self.a[rows], self.b[cols])
            start = [(int(rows[i]), int(cols[j]), t) for i, j, t in cells]
        self._build_tree(start)
        self._recompute_duals()
        fresh = True  # the duals are a recompute from the current tree
        bland = False
        degenerate_run = 0
        bland_trigger = 3 * (self.m + self.n) + 50
        degeneracy_scale = 1e-14 * max(1.0, float(np.max(self.a, initial=0.0)))
        hard_cap = 200 * (self.m + self.n) + 2 * self.m * self.n + 10_000
        pivots = 0
        while True:
            cell = self._entering(bland)
            if cell is None:
                if fresh:
                    return pivots
                # re-price against freshly recomputed duals before accepting
                self._recompute_duals()
                fresh = True
                continue
            theta = self._pivot(*cell)
            fresh = False
            pivots += 1
            if theta <= degeneracy_scale:
                self.degenerate_pivots += 1
                degenerate_run += 1
                if degenerate_run > bland_trigger and not bland:
                    bland = True
                    self.bland_switches += 1
            else:
                degenerate_run = 0
                bland = False
            if pivots > hard_cap:
                raise NumericalFailureError(f"pivot safeguard exceeded after {pivots} pivots")

    def plan_triplets(self):
        """Rows, columns and masses of the basic cells with positive mass,
        in row-major order."""
        cells = sorted(
            self._cell(v) + (self.flow[v],)
            for v in range(self.m + self.n)
            if v != self.m and self.flow[v] > 0.0
        )
        rows = np.array([c[0] for c in cells], dtype=int)
        cols = np.array([c[1] for c in cells], dtype=int)
        return rows, cols, np.array([c[2] for c in cells], dtype=float)


def solve_mk(cost: CostMatrix, mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Minimise sum(mass * cost) over plans with marginals (mu, nu).

    Returns a basic optimal plan together with the dual pair recovered by
    complementary slackness, normalised so the target potential vanishes at
    the first site.
    """
    if not (_measures_agree(mu, cost.mu) and _measures_agree(nu, cost.nu)):
        raise MarginalMismatchError("measures do not match the cost matrix")
    total_mu, total_nu = mu.total_mass, nu.total_mass
    if abs(total_mu - total_nu) > MASS_RTOL * max(1.0, total_mu, total_nu):
        raise UnequalMassError(f"total masses differ: {total_mu!r} vs {total_nu!r}")
    sx = _Simplex(cost.entries, mu.weights, nu.weights)
    pivots = sx.solve(cost.order)
    _log.debug(
        "solve_mk %dx%d: %d pivots, %d degenerate, %d Bland switches from the %s start",
        sx.m, sx.n, pivots, sx.degenerate_pivots, sx.bland_switches,
        "row-minimum" if cost.order is None else "north-west corner on sorted supports",
    )
    rows, cols, masses = sx.plan_triplets()
    plan = TransportPlan(rows, cols, masses, mu, nu)
    alpha, beta = _strictify_duals(
        cost.entries, rows, cols, sx.alpha.copy(), sx.beta.copy(), sx.tol
    )
    duals = DualPair(alpha, beta, cost)
    cert = duality_certificate(plan, duals, cost)
    if abs(cert["gap"]) > MASS_RTOL * (1.0 + abs(cert["I"])):
        raise NumericalFailureError(f"duality gap {cert['gap']!r} exceeds tolerance")
    return plan, duals


def brute_force_mk(cost: CostMatrix, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact optimum by permutation enumeration (uniform square instances only).

    For uniform marginals some permutation matrix scaled by the point mass is
    optimal, so scanning all |X|! assignments gives an independent oracle.
    """
    m, n = cost.shape
    if m != n or m > 8:
        raise OracleScopeExceededError(f"oracle limited to square instances <= 8, got {m}x{n}")
    w = mu.weights
    v = nu.weights
    if not (np.allclose(w, w[0], rtol=1e-12, atol=0) and np.allclose(v, v[0], rtol=1e-12, atol=0)):
        raise OracleScopeExceededError("oracle requires uniform weights on both sides")
    if abs(w[0] - v[0]) > 1e-12 * max(1.0, abs(w[0])):
        raise OracleScopeExceededError("oracle requires equal uniform weights")
    perms = np.array(list(permutations(range(n))), dtype=int)
    totals = cost.entries[np.arange(n)[None, :], perms].sum(axis=1)
    return float(w[0] * totals.min())


def shifted_objective(plan: TransportPlan, psi: ConvexPotential, u: SampledMap) -> float:
    """Plan-weighted sum of Fenchel gaps; equals I plus a marginal-only shift."""
    if plan.mu.size != u.domain.size:
        raise MarginalMismatchError("plan source does not match the map's domain")
    if plan.nu.size != psi.support.size:
        raise MarginalMismatchError("plan target does not match the potential's support")
    if plan.n_triplets == 0:
        return 0.0
    gaps = fenchel_gap_many(psi, u.values[plan.rows], plan.cols)
    return float(np.dot(plan.masses, gaps))


def _northwest_cells(a: np.ndarray, b: np.ndarray):
    m, n = a.shape[0], b.shape[0]
    ra, rb = a.astype(float).copy(), b.astype(float).copy()
    i = j = 0
    cells = []
    while True:
        t = float(min(ra[i], rb[j]))
        cells.append((i, j, t))
        ra[i] -= t
        rb[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1
    return cells


def random_plan(mu: DiscreteMeasure, nu: DiscreteMeasure, seed: int) -> TransportPlan:
    """Feasible plan from a north-west fill over seeded shuffled index orders."""
    total_mu, total_nu = mu.total_mass, nu.total_mass
    if abs(total_mu - total_nu) > MASS_RTOL * max(1.0, total_mu, total_nu):
        raise UnequalMassError(f"total masses differ: {total_mu!r} vs {total_nu!r}")
    rng = np.random.default_rng(seed)
    rp = rng.permutation(mu.size)
    cp = rng.permutation(nu.size)
    cells = _northwest_cells(mu.weights[rp], nu.weights[cp])
    rows = np.array([int(rp[i]) for i, _, t in cells if t > 0], dtype=int)
    cols = np.array([int(cp[j]) for _, j, t in cells if t > 0], dtype=int)
    masses = np.array([t for _, _, t in cells if t > 0])
    return TransportPlan(rows, cols, masses, mu, nu)


def worst_cycle_violation(
    plan: TransportPlan,
    cost: CostMatrix,
    n_samples: int = 1000,
    max_len: int = 5,
    seed: int = 0,
) -> float:
    """Largest violation of cyclical monotonicity over sampled support cycles.

    Samples cycles (x_1,y_1),...,(x_k,y_k) of support pairs and compares the
    diagonal cost sum against the one with targets rotated by one position;
    a return <= 0 certifies every sampled cycle.
    """
    k_support = plan.n_triplets
    if k_support < 2:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    c = cost.entries
    for _ in range(n_samples):
        k = min(int(rng.integers(2, max_len + 1)), k_support)
        pick = rng.choice(k_support, size=k, replace=False)
        r = plan.rows[pick]
        y = plan.cols[pick]
        violation = float(np.sum(c[r, y]) - np.sum(c[r, np.roll(y, -1)]))
        worst = max(worst, violation)
    return worst
