import hashlib
from collections import deque

import numpy as np
import pytest

from polarfact.convex import ConvexPotential
from polarfact.errors import (
    DimensionMismatchError,
    MarginalMismatchError,
    OracleScopeExceededError,
    UnequalMassError,
)
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import gallery_instance
from polarfact.transport import (
    CostMatrix,
    TransportPlan,
    _Simplex,
    _condensation_ranks,
    _scc,
    brute_force_mk,
    build_cost,
    duality_certificate,
    objective,
    random_plan,
    shifted_objective,
    solve_mk,
    worst_cycle_violation,
)


def uniform(n, total=1.0, coords=None, prefix="x"):
    return DiscreteMeasure.uniform(n, total, coords=coords, prefix=prefix)


def line_sites(values, prefix="y"):
    arr = np.asarray(values, float).reshape(-1, 1)
    return uniform(arr.shape[0], coords=arr, prefix=prefix)


def random_instance(rng, m, n, dim=2, uniform_weights=True):
    """Random quadratic-cost instance with balanced masses."""
    coords = rng.normal(size=(n, dim))
    if uniform_weights:
        Y = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), np.full(n, 1.0 / n), coords)
        X = DiscreteMeasure(tuple(f"x{i}" for i in range(m)), np.full(m, 1.0 / m))
    else:
        wb = rng.integers(1, 9, n).astype(float)
        wa = rng.integers(1, 9, m).astype(float)
        wa *= wb.sum() / wa.sum()
        Y = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), wb, coords)
        X = DiscreteMeasure(tuple(f"x{i}" for i in range(m)), wa)
    u = SampledMap(X, rng.normal(size=(m, dim)))
    return u, Y


class TestBuildCost:
    def test_hand_instance(self):
        X = uniform(2)
        u = SampledMap(X, [[1.0], [0.0]])
        Y = line_sites([0.0, 1.0])
        cost = build_cost(u, Y)
        np.testing.assert_allclose(cost.entries, [[0.5, 0.0], [0.0, 0.5]])

    def test_zero_diagonal_when_paired(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(5, 3))
        Y = uniform(5, coords=coords, prefix="y")
        u = SampledMap(uniform(5), coords)
        cost = build_cost(u, Y)
        assert np.all(np.diag(cost.entries) == 0.0)
        assert np.all(cost.entries >= 0.0)

    def test_two_dimensional_value(self):
        u = SampledMap(uniform(1), [[1.0, 0.0]])
        Y = uniform(1, coords=[[0.0, 0.0]], prefix="y")
        assert build_cost(u, Y).entries[0, 0] == pytest.approx(0.5)

    def test_unequal_mass_rejected(self):
        u = SampledMap(uniform(2, total=2.0), [[1.0], [0.0]])
        with pytest.raises(UnequalMassError):
            build_cost(u, line_sites([0.0, 1.0]))

    def test_overflowing_cost_rejected(self):
        # 1e200 squared overflows to inf; pricing against an infinite cost
        # once ran into the pivot safeguard instead of reporting the input
        u = SampledMap(uniform(2), [[0.0], [1.0]])
        with pytest.raises(DimensionMismatchError, match="non-finite cost"):
            build_cost(u, line_sites([0.0, 1e200]))
        for bad in (np.inf, np.nan):
            with pytest.raises(DimensionMismatchError, match="non-finite cost"):
                CostMatrix([[0.0, bad], [1.0, 0.0]], uniform(2), line_sites([0.0, 1.0]))


class TestCostRelabelling:
    def test_symmetric_under_simultaneous_relabelling(self):
        rng = np.random.default_rng(2)
        u, Y = random_instance(rng, 5, 6)
        base = build_cost(u, Y).entries
        rp, cp = rng.permutation(5), rng.permutation(6)
        u2 = SampledMap(
            DiscreteMeasure(
                tuple(u.domain.labels[i] for i in rp), u.domain.weights[rp]
            ),
            u.values[rp],
        )
        Y2 = DiscreteMeasure(
            tuple(Y.labels[j] for j in cp), Y.weights[cp], Y.coords[cp]
        )
        np.testing.assert_array_equal(build_cost(u2, Y2).entries, base[np.ix_(rp, cp)])


class TestObjective:
    def test_zero_cost_diagonal_plan(self):
        X, Y = uniform(2), line_sites([0.0, 1.0])
        cost = CostMatrix([[0.0, 1.0], [1.0, 0.0]], X, Y)
        plan = TransportPlan([0, 1], [0, 1], [0.5, 0.5], X, Y)
        assert objective(plan, cost) == 0.0

    def test_independent_product_plan(self):
        X, Y = uniform(2), line_sites([0.0, 1.0])
        cost = CostMatrix([[0.5, 0.0], [0.0, 0.5]], X, Y)
        plan = TransportPlan([0, 0, 1, 1], [0, 1, 0, 1], [0.25] * 4, X, Y)
        # direct sum: .25*.5 + .25*0 + .25*0 + .25*.5
        assert objective(plan, cost) == pytest.approx(0.25)

    def test_rectangle_swap_rule(self):
        rng = np.random.default_rng(1)
        X, Y = uniform(2), line_sites([0.3, 0.9])
        c = rng.uniform(size=(2, 2))
        cost = CostMatrix(c, X, Y)
        eps = 0.1
        base = TransportPlan([0, 0, 1, 1], [0, 1, 0, 1], [0.25] * 4, X, Y)
        swapped = TransportPlan(
            [0, 0, 1, 1], [0, 1, 0, 1], [0.25 - eps, 0.25 + eps, 0.25 + eps, 0.25 - eps], X, Y
        )
        delta = objective(swapped, cost) - objective(base, cost)
        assert delta == pytest.approx(eps * (c[0, 1] + c[1, 0] - c[0, 0] - c[1, 1]))

    def test_marginal_mismatch(self):
        X, Y = uniform(2), line_sites([0.0, 1.0])
        other = uniform(3, prefix="z")
        cost = CostMatrix(np.zeros((2, 2)), X, Y)
        plan = TransportPlan([0], [0], [1.0], other, Y)
        with pytest.raises(MarginalMismatchError):
            objective(plan, cost)


class TestPlanValidate:
    def test_nan_mass_rejected(self):
        X, Y = uniform(2), line_sites([0.0, 1.0])
        plan = TransportPlan([0, 1], [0, 1], [0.5, np.nan], X, Y)
        with pytest.raises(MarginalMismatchError, match="finite"):
            plan.validate()

    def test_non_positive_mass_keeps_its_message(self):
        X, Y = uniform(2), line_sites([0.0, 1.0])
        plan = TransportPlan([0, 1], [0, 1], [0.5, 0.0], X, Y)
        with pytest.raises(MarginalMismatchError, match="> 0"):
            plan.validate()


class TestBruteForce:
    def test_single_cell(self):
        X, Y = uniform(1), line_sites([0.0])
        cost = CostMatrix([[0.7]], X, Y)
        assert brute_force_mk(cost, X, Y) == pytest.approx(0.7)

    def test_two_by_two_swap(self):
        X, Y = uniform(2), line_sites([0.0, 1.0])
        cost = CostMatrix([[0.5, 0.0], [0.0, 0.5]], X, Y)
        assert brute_force_mk(cost, X, Y) == 0.0

    def test_constant_costs(self):
        X, Y = uniform(3), line_sites([0.0, 1.0, 2.0])
        cost = CostMatrix(np.full((3, 3), 2.0), X, Y)
        assert brute_force_mk(cost, X, Y) == pytest.approx(2.0 * X.total_mass)

    def test_scope_rejects_non_uniform(self):
        X = DiscreteMeasure(("x0", "x1"), [0.25, 0.75])
        Y = line_sites([0.0, 1.0])
        cost = CostMatrix(np.zeros((2, 2)), X, Y)
        with pytest.raises(OracleScopeExceededError):
            brute_force_mk(cost, X, Y)

    def test_scope_rejects_large(self):
        X, Y = uniform(9), uniform(9, coords=np.zeros((9, 1)), prefix="y")
        cost = CostMatrix(np.zeros((9, 9)), X, Y)
        with pytest.raises(OracleScopeExceededError):
            brute_force_mk(cost, X, Y)


class TestSolveMK:
    def test_zero_cost_antidiagonal(self):
        X, Y = uniform(2), line_sites([0.0, 1.0])
        cost = CostMatrix([[0.5, 0.0], [0.0, 0.5]], X, Y)
        plan, duals = solve_mk(cost, X, Y)
        assert objective(plan, cost) == 0.0
        assert sorted(plan.triplets) == [(0, 1, 0.5), (1, 0, 0.5)]

    def test_zero_cost_diagonal(self):
        X, Y = uniform(2), line_sites([0.0, 1.0])
        cost = CostMatrix([[0.0, 1.0], [1.0, 0.0]], X, Y)
        plan, _ = solve_mk(cost, X, Y)
        assert objective(plan, cost) == 0.0
        assert sorted(plan.triplets) == [(0, 0, 0.5), (1, 1, 0.5)]

    def test_matches_oracle_random_6x6(self):
        rng = np.random.default_rng(123)
        u, Y = random_instance(rng, 6, 6)
        cost = build_cost(u, Y)
        plan, _ = solve_mk(cost, u.domain, Y)
        assert objective(plan, cost) == pytest.approx(
            brute_force_mk(cost, u.domain, Y), rel=1e-9, abs=1e-12
        )

    def test_dual_certificate_properties(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            u, Y = random_instance(rng, m, n, uniform_weights=False)
            cost = build_cost(u, Y)
            plan, duals = solve_mk(cost, u.domain, Y)
            plan.validate()
            assert plan.n_triplets <= m + n - 1
            cert = duality_certificate(plan, duals, cost)
            assert abs(cert["gap"]) <= 1e-9 * (1 + abs(cert["I"]))
            # feasibility everywhere, tightness on support
            assert duals.max_feasibility_violation() <= 1e-9
            slack = cost.entries[plan.rows, plan.cols] - duals.phi_c[plan.rows] - duals.phi[plan.cols]
            assert np.max(np.abs(slack)) <= 1e-9
            # gauge: target potential vanishes at the first site
            assert duals.phi[0] == 0.0
            # the LP duals form a c-concave conjugate pair
            assert duals.c_concavity_gap() <= 1e-9

    def test_deterministic_output(self):
        rng = np.random.default_rng(99)
        u, Y = random_instance(rng, 7, 9, uniform_weights=False)
        cost = build_cost(u, Y)
        p1, d1 = solve_mk(cost, u.domain, Y)
        p2, d2 = solve_mk(cost, u.domain, Y)
        assert p1.triplets == p2.triplets
        assert np.array_equal(d1.phi, d2.phi) and np.array_equal(d1.phi_c, d2.phi_c)

    def test_unequal_mass_rejected(self):
        X = uniform(2, total=2.0)
        Y = line_sites([0.0, 1.0])
        cost = CostMatrix(np.zeros((2, 2)), X, Y)
        with pytest.raises(UnequalMassError):
            solve_mk(cost, X, Y)

    def test_optimum_below_random_plans(self):
        rng = np.random.default_rng(11)
        u, Y = random_instance(rng, 5, 8)
        cost = build_cost(u, Y)
        plan, _ = solve_mk(cost, u.domain, Y)
        best = objective(plan, cost)
        for seed in range(100):
            assert best <= objective(random_plan(u.domain, Y, seed), cost) + 1e-12

    def test_cyclical_monotonicity_of_support(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            u, Y = random_instance(rng, 10, 10, uniform_weights=False)
            cost = build_cost(u, Y)
            plan, _ = solve_mk(cost, u.domain, Y)
            assert worst_cycle_violation(plan, cost, 1000, 5, seed=trial) <= 1e-9


def one_d_split_instance(rng, n):
    """1-D map with distinct values onto sites of random positive weights,
    so the optimal plan splits sites between values."""
    u = SampledMap(uniform(n), rng.uniform(-1, 1, (n, 1)))
    w = rng.uniform(0.5, 1.5, n)
    Y = DiscreteMeasure(
        tuple(f"y{j}" for j in range(n)), w / w.sum(), np.sort(rng.uniform(-1, 1, n))[:, None]
    )
    return u, Y


def simplex_instance(name):
    """Cost matrix and marginals of a named seeded instance."""
    if name.startswith("gallery-"):
        u, Y, _ = gallery_instance(name[len("gallery-"):], 8, seed=3)
    else:
        kind, seed, m, n = name.split("-")
        rng = np.random.default_rng(int(seed))
        if kind == "1d":
            u, Y = one_d_split_instance(rng, int(m))
        else:
            u, Y = random_instance(rng, int(m), int(n), uniform_weights=kind == "uniform")
    return build_cost(u, Y).entries, u.domain.weights, Y.weights


def integer_grid_instance(seed, m, n):
    """Cost matrix and uniform marginals of 2-D values and sites with
    integer coordinates in [-2, 2]: many equal costs and tied pivots."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 3, (m, 2)).astype(float)
    sites = rng.integers(-2, 3, (n, 2)).astype(float)
    u = SampledMap(uniform(m), values)
    Y = uniform(n, coords=sites, prefix="y")
    return build_cost(u, Y).entries, u.domain.weights, Y.weights


def reference_pivot(basis, m, ei, ej):
    """Apply one pivot to a {cell: mass} basis the plain way: search the
    tree path from row ei to column ej, take the alternate cells from ei as
    the ones losing mass, and let the lexicographically first cell with the
    least mass leave.  Returns theta."""
    adj = {}
    for i, j in basis:
        adj.setdefault(i, []).append(m + j)
        adj.setdefault(m + j, []).append(i)
    prev = {ei: None}
    queue = deque([ei])
    while queue:
        node = queue.popleft()
        for nxt in adj[node]:
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    path = [m + ej]
    while path[-1] != ei:
        path.append(prev[path[-1]])
    path.reverse()
    cells = [(p, q - m) if p < m else (q, p - m) for p, q in zip(path, path[1:])]
    minus, plus = cells[0::2], cells[1::2]
    theta = min(basis[c] for c in minus)
    leaving = min(c for c in minus if basis[c] == theta)
    for c in plus:
        basis[c] += theta
    for c in minus:
        basis[c] = max(basis[c] - theta, 0.0)
    del basis[leaving]
    basis[ei, ej] = theta
    return theta


class CheckedSimplex(_Simplex):
    """Checks the tree after every pivot against a {cell: mass} basis
    pivoted by reference_pivot."""

    def _build_tree(self, edges):
        self.basis = {(i, j): t for i, j, t in edges}
        self.checked = 0
        super()._build_tree(edges)
        self.check_tree()

    def _pivot(self, ei, ej):
        theta = super()._pivot(ei, ej)
        assert theta == reference_pivot(self.basis, self.m, ei, ej)
        self.check_tree()
        self.check_duals()
        self.checked += 1
        return theta

    def check_tree(self):
        m, size = self.m, self.m + self.n
        assert self.parent[m] == -1 and self.depth[m] == 0
        for v in range(size):
            if v != m:
                # depths fall by one towards the parent, so every chain of
                # parents ends at the only parentless node, the root
                assert self.depth[v] == self.depth[self.parent[v]] + 1
            assert sorted(self.children[v]) == [w for w in range(size) if self.parent[w] == v]
        edges = {self._cell(v): self.flow[v] for v in range(size) if v != m}
        assert edges == self.basis

    def check_duals(self):
        kept = self.pot.copy()
        self._recompute_duals()
        scale = float(np.max(np.abs(self.C)))
        assert np.max(np.abs(self.pot - kept)) <= 1e-9 * scale
        self.pot[:] = kept  # the solve goes on from the shifted duals


class TestSimplexTree:
    @pytest.mark.parametrize(
        "name", ["uniform-11-30-30", "weighted-12-20-26", "gallery-flat-segment", "1d-13-22-22"]
    )
    def test_tree_invariants_after_every_pivot(self, name):
        sx = CheckedSimplex(*simplex_instance(name))
        pivots = sx.solve()
        assert pivots == sx.checked > 0

    @pytest.mark.parametrize(
        "name", ["gallery-m-to-1-flat", "gallery-injective-control", "grid-7-30-30"]
    )
    def test_tree_invariants_on_instances_with_ties(self, name):
        # degenerate bases whose cycles often reach theta at several cells,
        # so the leaving cell is picked among ties
        if name.startswith("grid"):
            C, a, b = integer_grid_instance(*(int(s) for s in name.split("-")[1:]))
        else:
            C, a, b = simplex_instance(name)
        sx = CheckedSimplex(C, a, b)
        pivots = sx.solve()
        assert pivots == sx.checked > 0
        assert sx.degenerate_pivots > 0

    def test_duals_are_exact_tree_duals_at_the_end(self):
        sx = _Simplex(*simplex_instance("weighted-12-20-26"))
        sx.solve()
        final = sx.pot.copy()
        sx._recompute_duals()
        assert np.array_equal(sx.pot, final)

    # Pivot counts and plan supports recorded with the breadth-first-search
    # tree of the original solver; a change of pivot rule or tree update that
    # alters any pivot shows here.  Each support is pinned by its cell count
    # and a SHA-256 prefix of its int64 rows followed by its int64 columns.
    PINNED = {
        "uniform-101-40-40": (78, 40, '028ac456610269ae'),
        "uniform-102-25-35": (66, 59, '35923215210a9b14'),
        "weighted-103-40-40": (89, 79, '9486632cfd433ce2'),
        "weighted-104-30-20": (40, 49, 'cce902df5f421ae6'),
        "gallery-m-to-1-flat": (89, 64, 'b13befc618156f21'),
        "1d-105-44-44": (134, 87, '22b5f78ea026d584'),
    }

    @staticmethod
    def pivots_and_support(name):
        C, a, b = simplex_instance(name)
        pivots = _Simplex(C, a, b).solve()
        mu = DiscreteMeasure(tuple(f"x{i}" for i in range(a.size)), a)
        nu = DiscreteMeasure(tuple(f"y{j}" for j in range(b.size)), b)
        plan, _ = solve_mk(CostMatrix(C, mu, nu), mu, nu)
        cells = np.concatenate([plan.rows, plan.cols]).astype("<i8")
        return pivots, plan.n_triplets, hashlib.sha256(cells.tobytes()).hexdigest()[:16]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_pivot_sequence(self, name):
        assert self.pivots_and_support(name) == self.PINNED[name]

    def test_solve_statistics_logged(self, caplog):
        rng = np.random.default_rng(5)
        u, Y = random_instance(rng, 8, 8)
        cost = build_cost(u, Y)
        pivots = _Simplex(cost.entries, u.domain.weights, Y.weights).solve()
        with caplog.at_level("DEBUG", logger="polarfact"):
            result = solve_mk(cost, u.domain, Y)
        assert len(result) == 2
        (record,) = [r for r in caplog.records if r.name == "polarfact"]
        assert record.levelname == "DEBUG"
        assert f"{pivots} pivots" in record.getMessage()
        assert "degenerate" in record.getMessage() and "Bland switches" in record.getMessage()


def one_d_instance(rng, k):
    """Seeded 1-D instance of sizes 1..120; odd k gives integer values and
    sites with many ties, even k distinct ones.  Each side has uniform or
    random positive weights, independently."""
    m, n = (int(s) for s in rng.integers(1, 121, 2))
    if k % 2:
        values, sites = rng.integers(-5, 6, m), rng.integers(-5, 6, n)
    else:
        values, sites = rng.uniform(-1, 1, m), rng.uniform(-1, 1, n)
    wa = rng.uniform(0.5, 1.5, m) if rng.random() < 0.5 else np.ones(m)
    wb = rng.uniform(0.5, 1.5, n) if rng.random() < 0.5 else np.ones(n)
    X = DiscreteMeasure(tuple(f"x{i}" for i in range(m)), wa / wa.sum())
    Y = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), wb / wb.sum(), sites[:, None])
    return SampledMap(X, values[:, None]), Y


def dense_plan(plan):
    P = np.zeros((plan.mu.size, plan.nu.size))
    P[plan.rows, plan.cols] = plan.masses
    return P


class TestNorthWestStart:
    def test_cost_records_sort_orders_in_one_dimension_only(self):
        u = SampledMap(uniform(3), np.array([[2.0], [0.0], [2.0]]))
        Y = line_sites([1.0, -1.0, 1.0])
        rows, cols = build_cost(u, Y).order
        assert rows.tolist() == [1, 0, 2] and cols.tolist() == [1, 0, 2]
        u2, Y2 = random_instance(np.random.default_rng(0), 4, 4)
        assert build_cost(u2, Y2).order is None

    def test_matches_row_minimum_start_on_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        checked_plans = 0
        for k in range(200):
            u, Y = one_d_instance(rng, k)
            cost = build_cost(u, Y)
            assert _Simplex(cost.entries, u.domain.weights, Y.weights).solve(cost.order) == 0
            plan, duals = solve_mk(cost, u.domain, Y)
            plain = CostMatrix(cost.entries, cost.mu, cost.nu)
            ref_plan, _ = solve_mk(plain, u.domain, Y)
            I, ref_I = objective(plan, cost), objective(ref_plan, plain)
            assert abs(I - ref_I) <= 1e-12 * max(abs(ref_I), 1e-300)
            assert duals.max_feasibility_violation() <= 1e-12
            if k % 2 == 0:
                # distinct values and sites: the optimal plan is unique
                diff = np.abs(dense_plan(plan) - dense_plan(ref_plan))
                assert np.max(diff) <= 1e-12
                checked_plans += 1
        assert checked_plans == 100

    def test_reversed_order_is_only_a_start(self):
        rng = np.random.default_rng(9)
        u = SampledMap(uniform(30), rng.uniform(-1, 1, (30, 1)))
        Y = line_sites(rng.uniform(-1, 1, 30))
        cost = build_cost(u, Y)
        rows, cols = cost.order
        reversed_order = (rows[::-1], cols)
        sx = _Simplex(cost.entries, u.domain.weights, Y.weights)
        assert sx.solve(reversed_order) > 0
        reduced = cost.entries - sx.alpha[:, None] - sx.beta[None, :]
        assert reduced.min() >= -sx.tol
        plan, duals = solve_mk(CostMatrix(cost.entries, cost.mu, cost.nu, reversed_order), u.domain, Y)
        sorted_plan, _ = solve_mk(cost, u.domain, Y)
        cert = duality_certificate(plan, duals, cost)
        assert abs(cert["gap"]) <= 1e-12
        assert cert["I"] == pytest.approx(objective(sorted_plan, cost), rel=1e-12)

    def test_start_named_in_log(self, caplog):
        u = SampledMap(uniform(5), np.array([[3.0], [1.0], [4.0], [1.0], [5.0]]))
        Y = line_sites([2.0, 7.0, 1.0, 8.0, 2.0])
        u2, Y2 = random_instance(np.random.default_rng(5), 8, 8)
        with caplog.at_level("DEBUG", logger="polarfact"):
            solve_mk(build_cost(u, Y), u.domain, Y)
            solve_mk(build_cost(u2, Y2), u2.domain, Y2)
        one_d, two_d = (r.getMessage() for r in caplog.records if r.name == "polarfact")
        assert "north-west corner on sorted supports" in one_d and ": 0 pivots" in one_d
        assert "row-minimum" in two_d


class TestShiftedObjective:
    def test_zero_on_gap_free_support(self):
        coords = np.array([[0.0], [1.0]])
        Y = uniform(2, coords=coords, prefix="y")
        psi = ConvexPotential(Y, 0.5 * coords[:, 0] ** 2)
        u = SampledMap(uniform(2), coords)  # u values are the sites themselves
        plan = TransportPlan([0, 1], [0, 1], [0.5, 0.5], u.domain, Y)
        assert shifted_objective(plan, psi, u) == pytest.approx(0.0, abs=1e-15)

    def test_difference_to_objective_is_plan_independent(self):
        rng = np.random.default_rng(21)
        u, Y = random_instance(rng, 6, 7)
        cost = build_cost(u, Y)
        psi = ConvexPotential(Y, rng.normal(size=7))
        shifts = []
        for seed in range(100):
            plan = random_plan(u.domain, Y, seed)
            shifts.append(shifted_objective(plan, psi, u) - objective(plan, cost))
        i_scale = 1.0 + abs(objective(random_plan(u.domain, Y, 0), cost))
        assert max(shifts) - min(shifts) <= 1e-9 * i_scale

    def test_equals_objective_for_half_square_norm_on_matched_values(self):
        # u values sit on the support, so both marginal shift terms vanish
        rng = np.random.default_rng(22)
        coords = rng.normal(size=(6, 2))
        Y = uniform(6, coords=coords, prefix="y")
        psi = ConvexPotential(Y, 0.5 * np.sum(coords**2, axis=1))
        u = SampledMap(uniform(6), coords[rng.permutation(6)])
        cost = build_cost(u, Y)
        for seed in range(20):
            plan = random_plan(u.domain, Y, seed)
            assert shifted_objective(plan, psi, u) == pytest.approx(
                objective(plan, cost), rel=1e-9, abs=1e-12
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        u, Y = random_instance(rng, 4, 4)
        psi = ConvexPotential(Y, rng.normal(size=4))
        for seed in range(50):
            assert shifted_objective(random_plan(u.domain, Y, seed), psi, u) >= -1e-9


class TestRandomPlan:
    def test_deterministic_per_seed(self):
        X, Y = uniform(4), line_sites([0.0, 1.0, 2.0])
        Y = DiscreteMeasure(Y.labels, np.array([0.5, 0.25, 0.25]), Y.coords)
        p1 = random_plan(X, Y, 42)
        p2 = random_plan(X, Y, 42)
        assert p1.triplets == p2.triplets

    def test_marginals_exact_for_1000_seeds(self):
        X = uniform(4)
        Y = DiscreteMeasure(("y0", "y1"), [0.5, 0.5], [[0.0], [1.0]])
        for seed in range(1000):
            plan = random_plan(X, Y, seed)
            np.testing.assert_array_equal(plan.row_sums(), X.weights)
            np.testing.assert_array_equal(plan.col_sums(), Y.weights)

    def test_single_cell_space(self):
        X = uniform(1)
        Y = uniform(1, coords=[[0.0]], prefix="y")
        plan = random_plan(X, Y, 0)
        assert plan.triplets == [(0, 0, 1.0)]

    def test_unequal_mass_rejected(self):
        with pytest.raises(UnequalMassError):
            random_plan(uniform(2, total=2.0), uniform(2, coords=[[0.0], [1.0]]), 0)


def kahn_condensation_ranks(n_nodes, edges):
    """Reference ranking: longest paths over the condensation by Kahn's
    queue, the form strictification used before its one-pass ranking."""
    scc = _scc(n_nodes, edges)
    n_scc = int(scc.max()) + 1
    indeg = np.zeros(n_scc, dtype=int)
    cond_adj = [set() for _ in range(n_scc)]
    for p, q in edges:
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
    return rank[scc]


def random_digraph(rng):
    n = int(rng.integers(2, 40))
    # about 0.5 to 3 edges per node: many components, some cycles
    adj = rng.uniform(size=(n, n)) < rng.uniform(0.5, 3.0) / n
    np.fill_diagonal(adj, False)
    return n, list(zip(*np.nonzero(adj)))


class TestCondensationRanks:
    def test_matches_kahn_reference_on_random_graphs(self):
        rng = np.random.default_rng(1972)
        for _ in range(1000):
            n, edges = random_digraph(rng)
            np.testing.assert_array_equal(
                _condensation_ranks(n, edges), kahn_condensation_ranks(n, edges)
            )

    def test_scc_numbers_components_in_reverse_topological_order(self):
        rng = np.random.default_rng(1973)
        for _ in range(300):
            n, edges = random_digraph(rng)
            scc = _scc(n, edges)
            assert all(scc[p] >= scc[q] for p, q in edges)

    def test_chain_and_cycle(self):
        # 0 -> 1 -> 2 with 2 <-> 3 in one component, and 4 isolated
        edges = [(0, 1), (1, 2), (2, 3), (3, 2)]
        np.testing.assert_array_equal(_condensation_ranks(5, edges), [0, 1, 2, 2, 0])
