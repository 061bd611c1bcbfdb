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
        if not np.isfinite(e).all():
            # |u(x) - y|^2 / 2 overflows for coordinates beyond about 1e154
            raise DimensionMismatchError("non-finite cost entry: coordinates too large to square")

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
        if not np.all(np.isfinite(self.masses)):
            raise MarginalMismatchError("plan masses must be finite")
        scale = max(1.0, self.mu.total_mass)
        if np.max(np.abs(self.row_sums() - self.mu.weights), initial=0.0) > rtol * scale:
            raise MarginalMismatchError("row sums do not match the source weights")
        if np.max(np.abs(self.col_sums() - self.nu.weights), initial=0.0) > rtol * scale:
            raise MarginalMismatchError("column sums do not match the target weights")

    def support_per_row(self) -> np.ndarray:
        return np.bincount(self.rows, minlength=self.mu.size)

    def dominant_partners(self, per: str):
        """Dominant partner of each row (``per="row"``) or column (``"col"``).

        The dominant cell of a row or column is its first triplet, in plan
        order, with the strictly largest positive mass.  Returns the partner
        index of that cell and its mass per row or column; -1 and 0.0 where
        no triplet has positive mass.
        """
        if per == "row":
            keys, partners, n = self.rows, self.cols, self.mu.size
        elif per == "col":
            keys, partners, n = self.cols, self.rows, self.nu.size
        else:
            raise ValueError(f"per must be 'row' or 'col', got {per!r}")
        masses = np.where(self.masses > 0.0, self.masses, 0.0)
        best_mass = np.zeros(n)
        np.maximum.at(best_mass, keys, masses)
        hit = np.nonzero((masses > 0.0) & (masses == best_mass[keys]))[0]
        first = np.full(n, self.n_triplets)
        np.minimum.at(first, keys[hit], hit)
        found = first < self.n_triplets
        partner = np.full(n, -1, dtype=int)
        partner[found] = partners[first[found]]
        return partner, best_mass


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
    index = [-1] * n_nodes
    lowlink = [0] * n_nodes
    on_stack = [False] * n_nodes
    comp = [-1] * n_nodes
    stack: list = []
    counter = 0
    n_comp = 0
    for root in range(n_nodes):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        if not adj[root]:  # no way out: a component of its own
            comp[root] = n_comp
            n_comp += 1
            continue
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, out = work[-1]
            for w in out:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
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
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
    return np.asarray(comp, dtype=int)


def _condensation_ranks(n_nodes: int, edges) -> np.ndarray:
    """Rank of each node's strongly connected component: the length of the
    longest path that ends at the component in the condensation.

    ``_scc`` numbers components in reverse topological order, so every
    edge between components runs from a higher number to a lower one;
    relaxing those edges by descending source fixes each rank before it
    is read.
    """
    scc = _scc(n_nodes, edges)
    label = scc.tolist()
    cross = sorted({(label[p], label[q]) for p, q in edges if label[p] != label[q]}, reverse=True)
    rank = [0] * n_nodes
    for s, t in cross:
        if rank[s] + 1 > rank[t]:
            rank[t] = rank[s] + 1
    return np.asarray(rank, dtype=int)[scc]


_GAMMA_BLOCK = 1 << 14  # cells per row block of the step-size scan


def _strictify_duals(comp, n_comp, slack, alpha, beta, zero_tol):
    """Open positive slack between support components where the optimal face
    allows it, keeping feasibility, support tightness and the gauge.

    The simplex returns a vertex of the dual face, which leaves degenerate
    basic cells at zero reduced cost even when the minimiser is unique.
    Shifting each connected component of the support graph by a potential
    keeps all support cells tight; ranking the components along the
    condensation of the zero-slack graph makes every slack that is not
    forced tight strictly positive.

    ``comp`` labels the rows and then the columns by support component,
    ``n_comp`` of them, and ``slack`` holds the reduced costs
    (C - alpha) - beta of the duals given.
    """
    if n_comp == 1:
        return alpha, beta
    m, n = slack.shape
    comp_row, comp_col = comp[:m], comp[m:]
    # zero-slack pairs of components, read off the tight cells
    tight = np.flatnonzero(slack <= zero_tol)
    p, q = comp_row[tight // n], comp_col[tight % n]
    cross = p != q
    zero_edges = set(zip(p[cross].tolist(), q[cross].tolist()))
    comp_rank = _condensation_ranks(n_comp, zero_edges)
    # only cells whose shift goes against the slack constrain the step size:
    # gamma * (rank of row - rank of column) <= slack wherever that drop is
    # > 0.  Such a cell is never tight (the column of a tight cell outranks
    # its row or shares its rank), so with slacks raised to zero_tol > 0 and
    # drops clipped at 0 the quotient is exact there and +inf elsewhere.
    # Row blocks keep the temporaries in cache.
    rank_row = comp_rank[comp_row].astype(float)
    rank_col = comp_rank[comp_col].astype(float)
    step = max(1, _GAMMA_BLOCK // n)
    drop = np.empty((min(step, m), n))
    ratio = np.empty_like(drop)
    bound = np.inf
    with np.errstate(divide="ignore"):
        for start in range(0, m, step):
            stop = min(start + step, m)
            d, r = drop[: stop - start], ratio[: stop - start]
            np.subtract(rank_row[start:stop, None], rank_col, out=d)
            np.maximum(d, 0.0, out=d)
            np.maximum(slack[start:stop], zero_tol, out=r)
            np.divide(r, d, out=r)
            bound = min(bound, float(r.min()))
    gamma = 0.5 * bound if bound < np.inf else 1.0
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
        # pricing writes the reduced costs into one buffer through views
        # made once here, and a pivot shifts duals item by item through a
        # memoryview of pot
        self._reduced = np.empty(C.shape)
        self._reduced_flat = self._reduced.reshape(-1)
        self._alpha_col = self.alpha[:, None]
        self._beta_row = self.beta[None, :]
        self._pot_items = memoryview(self.pot)

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
        ra = self.a.tolist()
        rb = self.b.tolist()
        # 0 on active columns and +inf on crossed-out ones: added to a row
        # of finite costs, its argmin is the cheapest active column
        closed = np.zeros(self.n)
        n_active = self.n
        for i in range(self.m):
            last_row = i == self.m - 1
            row = self.C[i]
            while True:
                j = int((row + closed).argmin())
                if last_row:
                    if n_active > 1:
                        t = max(rb[j], 0.0)
                        edges.append((i, j, t))
                        ra[i] -= t
                        rb[j] = 0.0
                        closed[j] = np.inf
                        n_active -= 1
                        continue
                    edges.append((i, j, max(ra[i], 0.0)))
                    return edges
                t = min(ra[i], rb[j])
                if rb[j] < ra[i] and n_active > 1:
                    edges.append((i, j, t))
                    ra[i] -= t
                    rb[j] = 0.0
                    closed[j] = np.inf
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
        C, m = self.C, self.m
        pot = [0.0] * (m + self.n)
        stack = [m]
        while stack:
            node = stack.pop()
            for nxt in self.children[node]:
                if nxt < m:
                    pot[nxt] = C.item(nxt, node - m) - pot[node]
                else:
                    pot[nxt] = C.item(node, nxt - m) - pot[node]
                stack.append(nxt)
        self.pot[:] = pot

    # -- pivoting ----------------------------------------------------------------
    def _entering(self, bland: bool):
        """Price every cell against the current duals and return the
        entering cell, or None when no reduced cost is below -tol.  The
        entering cell's reduced cost is kept for ``_pivot``."""
        reduced, flat = self._reduced, self._reduced_flat
        np.subtract(self.C, self._alpha_col, out=reduced)
        np.subtract(reduced, self._beta_row, out=reduced)
        if bland:
            hit = np.flatnonzero(flat < -self.tol)
            if hit.size == 0:
                return None
            k = int(hit[0])
        else:
            k = int(flat.argmin())
        cost = flat.item(k)
        if cost >= -self.tol:
            return None
        self._entering_cost = cost
        return divmod(k, self.n)

    def _pivot(self, ei: int, ej: int) -> float:
        """Pivot the cell (ei, ej) last returned by ``_entering`` into the
        basis; returns theta, the mass it receives."""
        m = self.m
        parent, depth, children, flow = self.parent, self.depth, self.children, self.flow
        # the cycle closed by (ei, ej) is the tree path between its ends:
        # climb both to their lowest common ancestor, listing each node
        # passed for the cell joining it to its parent.  Rows and columns
        # alternate on each side, and the cells that lose mass are those of
        # every other node from ei and from column ej, both included.
        u, v = ei, m + ej
        du, dv = depth[u], depth[v]
        up, vp = [], []
        while du > dv:
            up.append(u)
            u = parent[u]
            du -= 1
        while dv > du:
            vp.append(v)
            v = parent[v]
            dv -= 1
        while u != v:
            up.append(u)
            u = parent[u]
            vp.append(v)
            v = parent[v]
        minus = up[::2] + vp[::2]
        flows = [flow[w] for w in minus]
        theta = min(flows)
        if flows.count(theta) == 1:
            q = minus[flows.index(theta)]
        else:
            # each row of the cycle has one cell that loses mass, so the
            # lexicographically first tied cell is the one with the least row
            _, q = min((w if w < m else parent[w], w) for w, f in zip(minus, flows) if f == theta)
        if theta:  # a degenerate pivot moves no mass
            for w in up[1::2] + vp[1::2]:
                flow[w] += theta
            for w, f in zip(minus, flows):
                f -= theta
                flow[w] = 0.0 if f < 0.0 else f
        delta = self._entering_cost
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
        rs = delta if a == ei else -delta  # rows move by rs, columns by -rs
        pot = self._pot_items
        depth[a] = depth[b] + 1
        pot[a] += delta  # a is row ei (rs = delta) or column ej (-rs = delta)
        moved = [a]
        for node in moved:
            below = children[node]
            if below:
                d = depth[node] + 1
                s = -rs if node < m else rs
                for nxt in below:
                    depth[nxt] = d
                    pot[nxt] += s
                moved += below
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
            rows, cols = order[0].tolist(), order[1].tolist()
            cells = _northwest_cells(self.a[order[0]], self.b[order[1]])
            start = [(rows[i], cols[j], t) for i, j, t in cells]
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
        m = self.m
        parent = np.array(self.parent)
        flow = np.array(self.flow, dtype=float)
        flow[m] = 0.0  # the root has no cell
        node = np.flatnonzero(flow > 0.0)
        up = parent[node]
        is_row = node < m
        rows = np.where(is_row, node, up)
        cols = np.where(is_row, up, node) - m
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], flow[node[order]]

    def support_components(self):
        """Connected components of the plan's support, from one pass over
        the basis tree: a node shares its parent's component when the cell
        joining them carries mass, and opens a new one otherwise.  Returns
        the labels of the rows and then the columns, and their number."""
        flow, children = self.flow, self.children
        comp = [0] * (self.m + self.n)
        n_comp = 1
        stack = [self.m]
        while stack:
            node = stack.pop()
            label = comp[node]
            for nxt in children[node]:
                if flow[nxt] > 0.0:
                    comp[nxt] = label
                else:
                    comp[nxt] = n_comp
                    n_comp += 1
                stack.append(nxt)
        return np.asarray(comp, dtype=int), n_comp


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
    # solve returns right after a pricing pass on these duals, so the
    # pricing buffer holds their reduced costs
    comp, n_comp = sx.support_components()
    alpha, beta = _strictify_duals(
        comp, n_comp, sx._reduced, sx.alpha.copy(), sx.beta.copy(), sx.tol
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
    ra, rb = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    i = j = 0
    cells = []
    while True:
        t = min(ra[i], rb[j])
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
