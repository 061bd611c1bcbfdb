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

Each derived quantity has one owner: a ``CostMatrix`` computes its
``solver_tol`` once, as ``cost.tol``, and a ``DualPair`` builds its reduced
costs once and hands the same read-only array to every certificate.
"""

import sys
from functools import partial

import numpy as np
import pytest

from polarfact import tolerances
from polarfact.cli import main
from polarfact.convex import DualPair
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import GALLERY_NAMES, gallery_instance, polar_factorize
from polarfact.rearrangement import monotone_rearrangement
from polarfact.transport import _Simplex, build_cost, solve_mk


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
    sx = ExactBufferSimplex(cost.entries, u.domain.weights, Y.weights, cost.tol)
    sx.solve(cost.order)
    reduced = DualPair(sx.alpha, sx.beta, cost).reduced_costs()
    assert reduced.tobytes() == sx._reduced.tobytes()
    assert sx.full_passes >= 1
    if key in LARGE:
        assert sx.partial_passes >= 1


def test_dual_recompute_forces_a_full_pass():
    u, Y = LARGE["uniform-120"]()
    cost = build_cost(u, Y)
    sx = ExactBufferSimplex(cost.entries, u.domain.weights, Y.weights, cost.tol)
    sx._build_tree(sx._initial_basis())
    sx._recompute_duals()
    sx._pivot(*sx._entering())
    assert 16 * len(sx._moved) <= sx.m + sx.n  # a partial pass would follow
    sx._recompute_duals()
    sx._entering()
    assert (sx.full_passes, sx.partial_passes) == (2, 0)


@pytest.fixture
def derivations(monkeypatch):
    """Counts calls of ``solver_tol``, under every name a polarfact module
    binds it to, and distinct arrays returned by ``reduced_costs``."""
    counts = {"tol": 0, "reduced": []}
    solver_tol, reduced_costs = tolerances.solver_tol, DualPair.reduced_costs

    def counted_tol(C):
        counts["tol"] += 1
        return solver_tol(C)

    def counted_reduced(self):
        r = reduced_costs(self)
        if not any(r is seen for seen in counts["reduced"]):
            counts["reduced"].append(r)
        return r

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "polarfact" and hasattr(module, "solver_tol"):
            monkeypatch.setattr(module, "solver_tol", counted_tol)
    monkeypatch.setattr(DualPair, "reduced_costs", counted_reduced)
    return lambda: (counts["tol"], len(counts["reduced"]))


def test_factorize_scans_its_cost_once_and_builds_r_once(derivations):
    u, Y = gallery_8("flat-segment")
    polar_factorize(u, Y)
    assert derivations() == (1, 1)


def test_strict_monotone_scans_its_cost_once_and_builds_r_once(derivations):
    u, Y = staircase_1d(3, 40)
    monotone_rearrangement(u, Y)
    assert derivations() == (1, 1)


def test_gallery_scans_each_cost_once_and_builds_r_per_dual_pair(derivations, tmp_path):
    # cmd_gallery builds a second cost for degeneracy_report, which takes
    # its reduced costs on that cost
    assert main(["gallery", "--name", "flat-segment", "--grid", "4",
                 "--out", str(tmp_path)]) == 0
    assert derivations() == (2, 2)


def test_cost_tolerance_is_solver_tol_of_its_entries():
    u, Y = random_2d(0, 7, 9, True)
    cost = build_cost(u, Y)
    assert cost.tol == tolerances.solver_tol(cost.entries)


def test_dual_arrays_and_reduced_costs_are_read_only_copies():
    u, Y = random_2d(1, 6, 8, True)
    cost = build_cost(u, Y)
    _, duals = solve_mk(cost, u.domain, Y)
    reduced = duals.reduced_costs()
    assert duals.reduced_costs() is reduced
    for a in (duals.phi_c, duals.phi, reduced):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    alpha = duals.phi_c.copy()
    pair = DualPair(alpha, duals.phi, cost)
    alpha[0] += 1.0  # the pair holds its own copy
    assert pair.reduced_costs().tobytes() == reduced.tobytes()
