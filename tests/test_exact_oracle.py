"""An exact-arithmetic optimality oracle (ROADMAP item 6).

Take phi from ``solve_mk`` and its exact c-transform
phi'_i = min_j (C_ij - phi_j) over the exact float values of C.  The pair
(phi', phi) is feasible by construction, so sum_i w_i phi'_i + sum_j v_j phi_j
is an exact lower bound on the optimum of the float cost matrix, and the
plan's exact primal value minus that bound bounds its suboptimality.  The
oracle uses no tolerance and does not rely on the solver's duals being
feasible.

Coordinate scales are powers of two, which scale C exactly, so every scale
must read a gap of exactly 0.  A pricing tolerance with a floor of 1 in
place of a bound relative to max|C| left plans up to 70% of max|C| above
the optimum at 2^-20.
"""

from fractions import Fraction

import pytest

from polarfact.transport import build_cost, solve_mk
from test_scale_sweep import random_2d_instance


def exact_gap(plan, duals, cost):
    """Exact primal value minus the exact dual bound of (phi', phi)."""
    C = [[Fraction(c) for c in row] for row in cost.entries.tolist()]
    phi = [Fraction(p) for p in duals.phi.tolist()]
    phi_c = [min(c - p for c, p in zip(row, phi)) for row in C]
    bound = sum(Fraction(w) * p for w, p in zip(plan.mu.weights.tolist(), phi_c))
    bound += sum(Fraction(v) * p for v, p in zip(plan.nu.weights.tolist(), phi))
    primal = sum(
        Fraction(t) * C[i][j]
        for i, j, t in zip(plan.rows.tolist(), plan.cols.tolist(), plan.masses.tolist())
    )
    return primal - bound


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [-20, -17, -14, 0, 14, 20])
def test_optimal_at_power_of_two_scale(k, seed):
    u, Y = random_2d_instance(seed, 2.0**k, 0.0)
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    assert exact_gap(plan, duals, cost) == 0
