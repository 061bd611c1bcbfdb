"""Optimal values against scipy, an oracle independent of the simplex.

Uniform square instances are assignment problems: the optimal value is
the point mass times the least assignment cost (Birkhoff), which
``linear_sum_assignment`` finds exactly, up to 400 x 400 and on integer
grids of up to 300 x 300 with many tied costs.  Weighted instances go to
``linprog`` with the HiGHS solver.  The bounds, 1e-9 and 1e-7 relative, are
the ones the benchmark's own scipy checks use.  scipy is a test dependency
only.
"""

import numpy as np
import pytest

from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.transport import build_cost, objective, solve_mk

optimize = pytest.importorskip("scipy.optimize")


def measure(prefix, weights, coords=None):
    weights = np.asarray(weights, float)
    return DiscreteMeasure(tuple(f"{prefix}{k}" for k in range(weights.size)), weights, coords)


def solved_value(u, Y):
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    return cost, objective(plan, cost)


@pytest.mark.parametrize(
    "seed, n, grid",
    [(1, 20, None), (2, 50, None), (3, 100, None), (4, 200, None), (9, 400, None),
     (5, 30, 1), (6, 60, 2), (7, 120, 2), (8, 200, 3), (10, 300, 3)],
)
def test_uniform_instances_match_linear_sum_assignment(seed, n, grid):
    rng = np.random.default_rng(seed)
    if grid is None:
        values, sites = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    else:
        values = rng.integers(-grid, grid + 1, (n, 2)).astype(float)
        sites = rng.integers(-grid, grid + 1, (n, 2)).astype(float)
    w = np.full(n, 1.0 / n)
    u, Y = SampledMap(measure("x", w), values), measure("y", w, sites)
    cost, I = solved_value(u, Y)
    r, c = optimize.linear_sum_assignment(cost.entries)
    best = float(cost.entries[r, c].sum()) / n
    assert abs(I - best) <= 1e-9 * max(abs(best), 1e-300)


@pytest.mark.parametrize(
    "seed, m, n", [(11, 5, 7), (12, 12, 9), (13, 20, 20), (14, 25, 40), (15, 40, 25)]
)
def test_weighted_instances_match_linprog(seed, m, n):
    rng = np.random.default_rng(seed)
    wa, wb = rng.uniform(0.5, 1.5, m), rng.uniform(0.5, 1.5, n)
    u = SampledMap(measure("x", wa / wa.sum()), rng.normal(size=(m, 2)))
    Y = measure("y", wb / wb.sum(), rng.normal(size=(n, 2)))
    cost, I = solved_value(u, Y)
    # x[i * n + j] is the mass on cell (i, j): row sums, then column sums
    rows = np.kron(np.eye(m), np.ones((1, n)))
    cols = np.kron(np.ones((1, m)), np.eye(n))
    res = optimize.linprog(
        cost.entries.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([u.domain.weights, Y.weights]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    assert abs(I - res.fun) <= 1e-7 * max(abs(res.fun), 1e-300)
