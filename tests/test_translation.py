"""Translation leaves every result unchanged (ROADMAP items 5 and 6).

Values and sites lie on a 2^-8 grid in [0, 1), so adding a shift of 2^k
(k <= 24) to both is exact, and the cost |u - y|^2/2 is bit-equal to the
unshifted one.  The solver then returns the same plan and duals, and a
certificate that holds no |y|^2 term returns the same values.
"""

import numpy as np
import pytest

from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import polar_factorize
from polarfact.rearrangement import monotone_rearrangement

SHIFTS = [2.0**k for k in (0, 10, 20, 24)]
SEEDS = range(10)
N = 30


def grid_points(rng, dim):
    """N distinct points of the 2^-8 grid in [0, 1)^dim."""
    flat = rng.choice(256**dim, size=N, replace=False)
    return np.stack(np.unravel_index(flat, (256,) * dim), axis=1) / 256.0


def instance(seed, dim, shift):
    rng = np.random.default_rng(seed)
    values, sites = grid_points(rng, dim), grid_points(rng, dim)
    X = DiscreteMeasure.uniform(N, prefix="x")
    Y = DiscreteMeasure.uniform(N, coords=sites + shift, prefix="y")
    return SampledMap(X, values + shift), Y


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_polar_factorize_invariant_under_translation(seed, shift):
    base = polar_factorize(*instance(seed, 2, 0.0))
    moved = polar_factorize(*instance(seed, 2, shift))
    for a, b in [
        (base.plan.rows, moved.plan.rows),
        (base.plan.cols, moved.plan.cols),
        (base.plan.masses, moved.plan.masses),
        (base.duals.phi_c, moved.duals.phi_c),
        (base.duals.phi, moved.duals.phi),
    ]:
        assert a.tobytes() == b.tobytes()
    assert moved.classification == base.classification
    assert moved.max_gap == base.max_gap
    assert moved.conjugate_identity_error == base.conjugate_identity_error


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_monotone_rearrangement_invariant_under_translation(seed, shift):
    base, _ = monotone_rearrangement(*instance(seed, 1, 0.0))
    moved, _ = monotone_rearrangement(*instance(seed, 1, shift))
    assert moved.domain.labels == base.domain.labels
    assert np.array_equal(moved.values, base.values + shift)
