"""The paper's observables on the gallery, pinned across grid sizes.

For each family, N in {4, 6, 8, 12, 16, 24} and seeds 0-2, ``polar_factorize``
and ``degeneracy_report`` must give the recorded classification,
degeneracy index and split index exactly, and the optimal cost I to
``SOLVER_RTOL`` relative.  A solver change that takes another pivot path
may move a plan with several optima; it may not move these.  N=24 is
``slow``: its nine instances take about 4 s.

flat-segment and m-to-1-flat push the same law onto the same grid, so
their optimum is the cost of the gradient map's own assignment,
sum_j nu_j (1 - |y_j1|)^2 / 2, which depends on N only.
"""

from fractions import Fraction

import pytest

from polarfact.polar import (
    FACTORISATION,
    GALLERY_NAMES,
    INCLUSION_ONLY,
    degeneracy_report,
    gallery_instance,
    polar_factorize,
)
from polarfact.tolerances import SOLVER_RTOL
from polarfact.transport import build_cost, objective

GRIDS = (4, 6, 8, 12, 16, pytest.param(24, marks=pytest.mark.slow))
SEEDS = range(3)

FLAT_I = {4: Fraction(4, 9), 6: Fraction(8, 15), 8: Fraction(4, 7), 12: Fraction(20, 33),
          16: Fraction(28, 45), 24: Fraction(44, 69)}

# (N, seed) -> I of injective-control, whose plan is unique
INJECTIVE_I = {
    (4, 0): 0.24473979020984193, (4, 1): 0.49176753900475717, (4, 2): 0.12048976799300476,
    (6, 0): 0.19398836722959192, (6, 1): 0.3961453535033416, (6, 2): 0.09295435852559471,
    (8, 0): 0.17261445691366747, (8, 1): 0.3557499661216532, (8, 2): 0.08139984978301618,
    (12, 0): 0.153607513520454, (12, 1): 0.319640920373943, (12, 2): 0.07120098518378147,
    (16, 0): 0.14491592256446986, (16, 1): 0.3030449164000458, (16, 2): 0.06657205388237333,
    (24, 0): 0.13672575629820877, (24, 1): 0.2873460776194914, (24, 2): 0.06223541891131649,
}


def golden(name, N, seed):
    """(classification, degeneracy index, split index, I) recorded for an instance."""
    if name == "injective-control":
        return FACTORISATION, 0.0, 0.0, INJECTIVE_I[N, seed]
    if name == "m-to-1-flat" and N > 4:
        # each of the 4N source points carries the mass of N/4 sites, so
        # from N=6 on every row splits
        return INCLUSION_ONLY, 1.0, 1.0, float(FLAT_I[N])
    return FACTORISATION, 1.0, 0.0, float(FLAT_I[N])


def observables(name, N, seed):
    u, Y, _ = gallery_instance(name, N, seed)
    result = polar_factorize(u, Y)
    cost = build_cost(u, Y)
    report = degeneracy_report(result.plan, result.duals, cost)
    return result.classification, report.degeneracy_index, report.split_index, objective(result.plan, cost)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_gallery_observables(name, N, seed):
    classification, degeneracy, split, I = observables(name, N, seed)
    want_class, want_degeneracy, want_split, want_I = golden(name, N, seed)
    assert (classification, degeneracy, split) == (want_class, want_degeneracy, want_split)
    assert I == pytest.approx(want_I, rel=SOLVER_RTOL, abs=0.0)
