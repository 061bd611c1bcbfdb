"""Every basis tree of the simplex is strongly feasible.

A tree rooted at column 0 is strongly feasible when every basic cell with
zero flow joins a row to its parent, a column: positive flow can then be
sent from any node to the root.  Both starts break ties so that they begin
from such a tree, and Cunningham's leaving rule keeps it through every
pivot, which is what rules out cycling.  These tests record every tree of
a solve, the start and each pivot's, on instances full of ties.
"""

import numpy as np
import pytest

from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import GALLERY_NAMES, gallery_instance
from polarfact.transport import _northwest_cells, _Simplex, build_cost


class RecordingSimplex(_Simplex):
    """Records, for the start tree and the tree after each pivot, the zero
    cells that hang a column below a row, and the number of zero cells."""

    def _build_tree(self, edges):
        super()._build_tree(edges)
        self.trees = [self.zero_cells()]

    def _pivot(self, ei, ej):
        theta = super()._pivot(ei, ej)
        self.trees.append(self.zero_cells())
        return theta

    def zero_cells(self):
        m = self.m
        zero = [v for v in range(m + self.n) if v != m and self.flow[v] == 0.0]
        return [self._cell(v) for v in zero if v >= m], len(zero)


def staircase_zero_cells(staircase):
    """For a staircase start, which gets no tree unless it pivots, the zero
    cells that hang a column below a row, and the number of zero cells.
    Each cell hangs the node that it does not share with its neighbour
    toward the first cell in column 0 below the node that it does."""
    rows, cols, masses = (a.tolist() for a in staircase)
    first = cols.index(0)
    hanging, zero = [], 0
    for k, (i, j, t) in enumerate(zip(rows, cols, masses)):
        if t == 0.0:
            zero += 1
            # the first cell in column 0 hangs its row below the root
            if k != first and rows[k - 1 if k > first else k + 1] == i:
                hanging.append((i, j))
    return hanging, zero


def solve_recorded(cost, order=None):
    sx = RecordingSimplex(cost.entries, cost.mu.weights, cost.nu.weights, cost.tol)
    sx.solve(order)
    if sx.staircase is not None:  # no pivot: the start is the only tree
        return [staircase_zero_cells(sx.staircase)]
    return sx.trees


def assert_strongly_feasible(trees):
    bad = [(k, cells) for k, (cells, _) in enumerate(trees) if cells]
    assert bad == [], f"{len(bad)} of {len(trees)} trees hang a zero cell below a row"


def measure(prefix, weights, coords=None):
    weights = np.asarray(weights, float)
    return DiscreteMeasure(tuple(f"{prefix}{k}" for k in range(weights.size)), weights, coords)


def instance_2d(seed, m, n, kind):
    """Uniform or integer-weighted 2-D instance with normal coordinates, or
    a uniform one with integer coordinates in [-2, 2] (``grid``)."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        values = rng.integers(-2, 3, (m, 2)).astype(float)
        sites = rng.integers(-2, 3, (n, 2)).astype(float)
    else:
        values, sites = rng.normal(size=(m, 2)), rng.normal(size=(n, 2))
    if kind == "weighted":
        wa = rng.integers(1, 5, m).astype(float)
        wb = integer_partition(rng, wa.sum(), n)
    else:
        wa, wb = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    return SampledMap(measure("x", wa), values), measure("y", wb, sites)


def integer_partition(rng, total, n):
    """n positive integer weights summing to total (total >= n): sums of
    them meet the other side's exactly, so the start ties often."""
    cuts = np.sort(rng.choice(np.arange(1, int(total)), n - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])).astype(float)


def instance_1d(seed):
    """1-D instance with integer values and sites in [-3, 3], unsorted, and
    integer weights: many equal costs and many exact ties in the start."""
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(2, 25, 2))
    wa = rng.integers(1, 4, m).astype(float)
    n = min(n, int(wa.sum()))
    wb = integer_partition(rng, wa.sum(), n) if n > 1 else np.array([wa.sum()])
    values = rng.integers(-3, 4, (m, 1)).astype(float)
    sites = rng.integers(-3, 4, (n, 1)).astype(float)
    return SampledMap(measure("x", wa), values), measure("y", wb, sites)


class TestRowMinimumStart:
    @pytest.mark.parametrize("kind", ["uniform", "weighted", "grid"])
    def test_every_tree_on_random_instances(self, kind):
        degenerate = 0
        for seed in range(12):
            m, n = (40, 40) if seed % 3 == 0 else (25 + seed, 37 - seed)
            u, Y = instance_2d(seed, m, n, kind)
            trees = solve_recorded(build_cost(u, Y))
            assert_strongly_feasible(trees)
            degenerate += sum(count > 0 for _, count in trees)
        # the property says nothing about trees without zero cells
        assert degenerate > 0

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_every_tree_on_gallery_instances(self, name):
        for N in (4, 6, 8):
            for seed in range(3):
                u, Y, _ = gallery_instance(name, N, seed)
                cost = build_cost(u, Y)
                assert cost.order is None
                trees = solve_recorded(cost)
                assert_strongly_feasible(trees)
                assert any(count for _, count in trees)


class TestNorthWestStart:
    @pytest.mark.parametrize("reverse", [False, True], ids=["sorted", "reversed"])
    def test_every_tree_on_unsorted_sites_with_ties(self, reverse):
        column_0_moved = pivots = 0
        for seed in range(100):
            u, Y = instance_1d(seed)
            cost = build_cost(u, Y)
            rows, cols = cost.order
            column_0_moved += cols[0] != 0
            trees = solve_recorded(cost, (rows[::-1], cols) if reverse else (rows, cols))
            assert_strongly_feasible(trees)
            pivots += len(trees) - 1
        # column 0 stands after other columns in most orders, which is
        # where a tie advances the column rather than the row
        assert column_0_moved > 50
        assert pivots > 0 if reverse else pivots == 0

    def test_staircase_zero_cells_match_its_tree(self):
        # the direct reading of a staircase agrees with the tree built from
        # it, also where ties are broken at the wrong place for column 0
        hanging = zero = 0
        for seed in range(100):
            u, Y = instance_1d(seed)
            cost = build_cost(u, Y)
            rows, cols = cost.order
            a, b = u.domain.weights[rows], Y.weights[cols]
            for root in {0, cols.size - 1, int(np.flatnonzero(cols == 0)[0])}:
                i, j, t = (np.array(x) for x in zip(*_northwest_cells(a, b, root)))
                staircase = (rows[i], cols[j], t)
                sx = RecordingSimplex(cost.entries, u.domain.weights, Y.weights, cost.tol)
                sx._build_tree(list(zip(*(x.tolist() for x in staircase))))
                direct = staircase_zero_cells(staircase)
                assert sorted(direct[0]) == sorted(sx.trees[0][0])
                assert direct[1] == sx.trees[0][1]
                hanging += len(direct[0])
                zero += direct[1]
        assert 0 < hanging < zero
