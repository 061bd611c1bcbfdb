"""Certificates under a change of scale and offset (ROADMAP item 4).

The cost matrix and the plan do not depend on the units, but today's
certificates do: at x1e4 and x1e6 the conjugate identity misses its
absolute tolerance, at an offset of +1e6 the inclusion certificate fails,
and coordinates near 1e153 cancel the dual value to 0.  Those cases are
strict xfails, so they fail the run as soon as certification becomes
scale-invariant and the marks must then be removed; the scales that pass
today are ordinary tests.
"""

import numpy as np
import pytest

from polarfact.errors import NumericalFailureError
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import DEFAULT_TOL, polar_factorize
from polarfact.transport import build_cost, solve_mk

SCALE_DEFECT = pytest.mark.xfail(
    strict=True,
    raises=NumericalFailureError,
    reason="ROADMAP item 4: certificates are not invariant under scale and offset",
)

# (coordinate scale, coordinate offset)
PASSING = {"x1e2": (1e2, 0.0), "x1e-4": (1e-4, 0.0), "+1e3": (1.0, 1e3)}
FAILING = {"x1e4": (1e4, 0.0), "x1e6": (1e6, 0.0), "+1e6": (1.0, 1e6)}
SEEDS = range(10)


def random_2d_instance(seed, scale, offset, n=60):
    """Uniform n x n instance with values and sites drawn from [0, 1)^2,
    then scaled and shifted alike."""
    rng = np.random.default_rng(seed)
    w = np.full(n, 1.0 / n)
    X = DiscreteMeasure(tuple(f"x{i}" for i in range(n)), w)
    Y = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), w, rng.random((n, 2)) * scale + offset)
    return SampledMap(X, rng.random((n, 2)) * scale + offset), Y


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(PASSING))
def test_certified_at_scale(name, seed):
    u, Y = random_2d_instance(seed, *PASSING[name])
    result = polar_factorize(u, Y)
    assert result.max_gap <= DEFAULT_TOL


@SCALE_DEFECT
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(FAILING))
def test_certified_at_extreme_scale(name, seed):
    u, Y = random_2d_instance(seed, *FAILING[name])
    polar_factorize(u, Y)


@SCALE_DEFECT
def test_extreme_finite_1d_instance_certified():
    """Optimum 1/6, but duals near 1e306 cancel the dual value to 0."""
    X = DiscreteMeasure.uniform(3, prefix="x")
    Y = DiscreteMeasure.uniform(3, coords=np.array([[1e153], [-1e153], [1.0]]), prefix="y")
    u = SampledMap(X, np.array([-1e153, 0.0, 1e153]))
    plan, _ = solve_mk(build_cost(u, Y), X, Y)
    assert plan.n_triplets == 3
