"""The reduced-cost kernel and the simplex's pricing buffer are one matrix.

``solve_mk`` hands ``_Simplex._reduced`` to strictification as the reduced
costs of the final duals, and ``DualPair.reduced_costs()`` builds them for a
dual pair.  Both are (C - alpha) - beta with the same two subtractions in
the same order, so on the simplex's own duals they agree byte for byte
(ROADMAP item 1's invariant to keep).

The buffer holds the reduced costs of the current duals after every
pricing pass, not only at return: a partial pass recomputes only the rows
and columns whose duals the last pivot moved, and must leave the buffer
byte-equal to a fresh full pass.

Each derived quantity has one owner: a ``CostMatrix`` computes its
``solver_tol`` once, as ``cost.tol``, and a ``DualPair`` builds its reduced
costs R once, at construction, for their row minima ``row_min``, and keeps
no R.  Every certificate of solver output reads ``row_min`` and R at the
support cells, ``reduced_at``, both bit-equal to what a full R gives, so a
``PolarResult`` holds one m x n array, its cost's entries.
"""

import gc
import sys
from functools import partial

import numpy as np
import pytest

from polarfact import convex, tolerances
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
    """Counts calls of ``solver_tol`` and of the m x n reduced-cost kernel
    ``convex._reduced_costs``, under every name a polarfact module binds
    them to."""
    counts = {"solver_tol": 0, "_reduced_costs": 0}
    kernels = {"solver_tol": tolerances.solver_tol, "_reduced_costs": convex._reduced_costs}

    def counted(name):
        def call(*args):
            counts[name] += 1
            return kernels[name](*args)
        return call

    for mod_name, module in list(sys.modules.items()):
        for name in kernels:
            if mod_name.split(".")[0] == "polarfact" and hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name))
    return lambda: (counts["solver_tol"], counts["_reduced_costs"])


def test_factorize_scans_its_cost_once_and_builds_r_once(derivations):
    u, Y = gallery_8("flat-segment")
    polar_factorize(u, Y)
    assert derivations() == (1, 1)


def test_strict_monotone_scans_its_cost_once_and_builds_r_once(derivations):
    u, Y = staircase_1d(3, 40)
    monotone_rearrangement(u, Y)
    assert derivations() == (1, 1)


def test_gallery_scans_each_cost_once_and_builds_r_per_dual_pair(derivations, tmp_path):
    # cmd_gallery builds a second cost for degeneracy_report, which builds
    # its reduced costs once on that cost
    assert main(["gallery", "--name", "flat-segment", "--grid", "4",
                 "--out", str(tmp_path)]) == 0
    assert derivations() == (2, 2)


def test_cost_tolerance_is_solver_tol_of_its_entries():
    u, Y = random_2d(0, 7, 9, True)
    cost = build_cost(u, Y)
    assert cost.tol == tolerances.solver_tol(cost.entries)


def test_dual_arrays_and_row_minima_are_read_only_copies():
    u, Y = random_2d(1, 6, 8, True)
    cost = build_cost(u, Y)
    _, duals = solve_mk(cost, u.domain, Y)
    reduced = duals.reduced_costs()
    for a in (duals.phi_c, duals.phi, duals.row_min):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    alpha = duals.phi_c.copy()
    pair = DualPair(alpha, duals.phi, cost)
    alpha[0] += 1.0  # the pair holds its own copy
    assert pair.reduced_costs().tobytes() == reduced.tobytes()
    assert pair.row_min.tobytes() == duals.row_min.tobytes()
    assert duals.reduced_costs() is not reduced  # built anew, not kept


@pytest.mark.parametrize("key", list(INSTANCES))
def test_row_minima_and_support_reader_match_the_full_matrix(key):
    u, Y = INSTANCES[key]()
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    reduced = duals.reduced_costs()
    assert duals.row_min.tobytes() == reduced.min(axis=1).tobytes()
    rows, cols = (a.reshape(-1) for a in np.indices(cost.shape))
    assert duals.reduced_at(rows, cols).tobytes() == reduced[rows, cols].tobytes()
    assert duals.reduced_at(plan.rows, plan.cols).tobytes() == reduced[plan.rows, plan.cols].tobytes()


def _large_arrays(root, size):
    """Every distinct ndarray of at least ``size`` elements reachable from
    ``root`` through ``gc.get_referents`` and array bases, not entering
    modules, classes or functions (which reach the whole interpreter)."""
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, type(sys), type(gc.collect))):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.size >= size:
                found.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        stack.extend(gc.get_referents(obj))
    return found


def test_polar_result_holds_one_m_by_n_array_its_cost_entries():
    rng = np.random.default_rng(0)
    n = 300
    u = SampledMap(_measure("x", np.full(n, 1.0 / n)), rng.normal(size=(n, 1)))
    Y = _measure("y", np.full(n, 1.0 / n), rng.normal(size=(n, 1)))
    result = polar_factorize(u, Y)
    held = _large_arrays(result, n * n)
    assert len(held) == 1 and held[0] is result.duals.cost_ref.entries
