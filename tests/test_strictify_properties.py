"""Random-instance properties of the strictified duals.

Generic random instances have a unique optimal plan, so by strict
complementarity (Goldman & Tucker 1956) the duals ``solve_mk`` returns,
which lie in the relative interior of the optimal dual face, price every
cell off the plan's support strictly positive.  Examples come from the
deterministic hypothesis profile of ``conftest.py``.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from polarfact.measures import DiscreteMeasure, SampledMap  # noqa: E402
from polarfact.transport import _Simplex, build_cost, solve_mk  # noqa: E402


def _measure(prefix, weights, coords=None):
    return DiscreteMeasure(tuple(f"{prefix}{k}" for k in range(weights.size)), weights, coords)


def random_instance(seed, m, n, weighted):
    rng = np.random.default_rng(seed)
    wa = rng.uniform(0.5, 1.5, m) if weighted else np.ones(m)
    wb = rng.uniform(0.5, 1.5, n) if weighted else np.ones(n)
    u = SampledMap(_measure("x", wa / wa.sum()), rng.normal(size=(m, 2)))
    return u, _measure("y", wb / wb.sum(), rng.normal(size=(n, 2)))


@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 24),
    n=st.integers(2, 24),
    weighted=st.booleans(),
)
def test_zero_reduced_costs_are_exactly_the_support(seed, m, n, weighted):
    u, Y = random_instance(seed, m, n, weighted)
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    reduced = cost.entries - duals.phi_c[:, None] - duals.phi[None, :]
    assert reduced.min() >= -cost.tol
    assert duals.phi[0] == 0.0
    tight = np.argwhere(reduced <= 1e-8)
    assert np.array_equal(tight, np.column_stack([plan.rows, plan.cols]))
