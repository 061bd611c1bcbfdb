"""Exact power-of-two scale properties of the solve and the gallery observables.

Multiplying every coordinate by 2^k multiplies every cost by 4^k without
rounding, and multiplying every mass by 2^k scales the marginals the same
way.  Every test the simplex makes is relative (to max|C| or to the
masses), so it must take the same pivot path: the same rows, columns and
(scaled) masses, and an optimum I scaled by exactly 4^k or 2^k.  The
classification and both degeneracy indices of the gallery must not move.
"""

import numpy as np
import pytest

from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import GALLERY_NAMES, degeneracy_report, gallery_instance, polar_factorize
from polarfact.transport import build_cost, objective, solve_mk

POWERS = (-20, -3, 5, 20)
# (dimension, points per side)
SHAPES = ((1, 7), (2, 12), (2, 30))


def instance(dim, n, weighted, seed):
    """Standard-normal values, then sites; weighted sides draw U(0.1, 1.1)
    weights with the target rescaled to the source's total."""
    rng = np.random.default_rng(seed)
    values, sites = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
    if weighted:
        w, v = rng.uniform(0.1, 1.1, n), rng.uniform(0.1, 1.1, n)
        v = v * (w.sum() / v.sum())
    else:
        w = v = np.full(n, 1.0 / n)
    return values, w, sites, v


def solve(values, w, sites, v):
    X = DiscreteMeasure(tuple(f"x{i}" for i in range(w.size)), w)
    Y = DiscreteMeasure(tuple(f"y{j}" for j in range(v.size)), v, sites)
    cost = build_cost(SampledMap(X, values), Y)
    plan, _ = solve_mk(cost, X, Y)
    return plan, objective(plan, cost)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("dim, n", SHAPES)
@pytest.mark.parametrize("k", POWERS)
def test_coordinate_scale_scales_I_by_four_to_the_k(k, dim, n, weighted, seed):
    values, w, sites, v = instance(dim, n, weighted, seed)
    plan, I = solve(values, w, sites, v)
    scaled, I_scaled = solve(values * 2.0**k, w, sites * 2.0**k, v)
    np.testing.assert_array_equal(scaled.rows, plan.rows)
    np.testing.assert_array_equal(scaled.cols, plan.cols)
    np.testing.assert_array_equal(scaled.masses, plan.masses)
    assert I_scaled == I * 4.0**k


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("dim, n", SHAPES)
@pytest.mark.parametrize("k", POWERS)
def test_mass_scale_scales_I_by_two_to_the_k(k, dim, n, weighted, seed):
    values, w, sites, v = instance(dim, n, weighted, seed)
    plan, I = solve(values, w, sites, v)
    scaled, I_scaled = solve(values, w * 2.0**k, sites, v * 2.0**k)
    np.testing.assert_array_equal(scaled.rows, plan.rows)
    np.testing.assert_array_equal(scaled.cols, plan.cols)
    np.testing.assert_array_equal(scaled.masses, plan.masses * 2.0**k)
    assert I_scaled == I * 2.0**k


def gallery_observables(name, coord_scale=1.0, mass_scale=1.0):
    u, Y, _ = gallery_instance(name, 8)
    X = DiscreteMeasure(u.domain.labels, u.domain.weights * mass_scale)
    u = SampledMap(X, u.values * coord_scale)
    Y = DiscreteMeasure(Y.labels, Y.weights * mass_scale, Y.coords * coord_scale)
    result = polar_factorize(u, Y)
    report = degeneracy_report(result.plan, result.duals, build_cost(u, Y))
    return result.classification, report.degeneracy_index, report.split_index


@pytest.mark.parametrize("k", [-20, 20])
@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_gallery_observables_survive_power_of_two_scales(name, k):
    unscaled = gallery_observables(name)
    assert gallery_observables(name, coord_scale=2.0**k) == unscaled
    assert gallery_observables(name, mass_scale=2.0**k) == unscaled
