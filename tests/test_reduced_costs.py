"""The reduced-cost kernel and the simplex's pricing buffer are one matrix.

``solve_mk`` hands ``_Simplex._reduced`` to strictification as the reduced
costs of the final duals, and every certificate of solver output reads
``DualPair.reduced_costs()``.  Both are (C - alpha) - beta with the same two
subtractions in the same order, so on the simplex's own duals they agree
byte for byte (ROADMAP item 1's invariant to keep).

The buffer holds the reduced costs of the current duals after every
pricing pass, not only at return: a partial pass recomputes only the rows
and columns whose duals the last pivot moved, and must leave the buffer
byte-equal to a fresh full pass.
"""

from functools import partial

import numpy as np
import pytest

from polarfact.convex import DualPair
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import GALLERY_NAMES, gallery_instance
from polarfact.transport import _Simplex, build_cost


def _measure(prefix, weights, coords=None):
    return DiscreteMeasure(tuple(f"{prefix}{k}" for k in range(weights.size)), weights, coords)


def random_2d(seed, m, n, weighted):
    rng = np.random.default_rng(seed)
    wa = rng.uniform(0.1, 1.1, m) if weighted else np.ones(m)
    wb = rng.uniform(0.1, 1.1, n) if weighted else np.ones(n)
    u = SampledMap(_measure("x", wa / wa.sum()), rng.normal(size=(m, 2)))
    return u, _measure("y", wb / wb.sum(), rng.normal(size=(n, 2)))


def staircase_1d(seed, n):
    """Unsorted 1-D values and sites with ties, solved from the north-west start."""
    rng = np.random.default_rng(seed)
    u = SampledMap(_measure("x", np.full(n, 1.0 / n)), rng.integers(-5, 6, n) / 3.0)
    return u, _measure("y", np.full(n, 1.0 / n), rng.integers(-5, 6, (n, 1)) / 7.0)


def gallery_8(name):
    u, Y, _ = gallery_instance(name, 8)
    return u, Y


class ExactBufferSimplex(_Simplex):
    """Compares the pricing buffer with a fresh full pass after each pricing."""

    def _entering(self):
        cell = super()._entering()
        fresh = (self.C - self.alpha[:, None]) - self.beta[None, :]
        assert self._reduced.tobytes() == fresh.tobytes()
        return cell


# large enough that uniform pivots move few nodes and take the partial pass
LARGE = {"uniform-120": partial(random_2d, 120, 120, 120, False),
         "weighted-120": partial(random_2d, 121, 120, 120, True)}

INSTANCES = {
    **{f"uniform-{s}": partial(random_2d, s, 20 + 5 * s, 20 + 5 * s, False) for s in range(6)},
    **{f"weighted-{s}": partial(random_2d, s, 15 + 4 * s, 25 + 3 * s, True) for s in range(6)},
    **{f"staircase-{s}": partial(staircase_1d, s, 10 + 10 * s) for s in range(8)},
    **{name: partial(gallery_8, name) for name in GALLERY_NAMES},
    **LARGE,
}


@pytest.mark.parametrize("key", list(INSTANCES))
def test_pricing_buffer_is_the_kernel(key):
    u, Y = INSTANCES[key]()
    cost = build_cost(u, Y)
    sx = ExactBufferSimplex(cost.entries, u.domain.weights, Y.weights)
    sx.solve(cost.order)
    reduced = DualPair(sx.alpha, sx.beta, cost).reduced_costs()
    assert reduced.tobytes() == sx._reduced.tobytes()
    assert sx.full_passes >= 1
    if key in LARGE:
        assert sx.partial_passes >= 1


def test_dual_recompute_forces_a_full_pass():
    u, Y = LARGE["uniform-120"]()
    cost = build_cost(u, Y)
    sx = ExactBufferSimplex(cost.entries, u.domain.weights, Y.weights)
    sx._build_tree(sx._initial_basis())
    sx._recompute_duals()
    sx._pivot(*sx._entering())
    assert 16 * len(sx._moved) <= sx.m + sx.n  # a partial pass would follow
    sx._recompute_duals()
    sx._entering()
    assert (sx.full_passes, sx.partial_passes) == (2, 0)
