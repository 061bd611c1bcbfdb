import math

import numpy as np
import pytest

from polarfact.errors import UnequalMassError
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.tolerances import (
    RTOL,
    SOLVER_RTOL,
    check_balanced,
    dominant,
    gap_vanishes,
    masses_close,
)
from polarfact.transport import build_cost

NAN = math.nan


class TestPredicates:
    def test_nan_never_passes(self):
        assert not masses_close(NAN, 1.0) and not masses_close(1.0, NAN)
        assert not gap_vanishes(NAN, 1.0) and not gap_vanishes(0.0, NAN)
        assert not gap_vanishes(np.array([0.0, NAN]), 1.0).all()
        assert not dominant(np.array([NAN]), np.array([1.0]))[0]
        with pytest.raises(UnequalMassError):
            check_balanced(NAN, 1.0)

    def test_bounds_are_inclusive(self):
        # relative to the magnitude of its terms, either sign, with no floor
        bound = SOLVER_RTOL * 4.0
        assert gap_vanishes(bound, 4.0) and gap_vanishes(-bound, 4.0)
        assert not gap_vanishes(np.nextafter(bound, 1.0), 4.0)
        assert gap_vanishes(0.0, 0.0) and not gap_vanishes(2**-1074, 0.0)
        pair = gap_vanishes(np.array([bound, 2 * bound]), np.array([4.0, 4.0]))
        assert list(pair) == [True, False]
        assert masses_close(1.0, 1.0 + RTOL / 2) and not masses_close(1.0, 1.0 + 2 * RTOL)
        assert dominant(np.array([1.0 - RTOL]), np.array([1.0]))[0]

    def test_check_balanced_names_both_totals(self):
        check_balanced(1.0, 1.0 + RTOL / 2)
        with pytest.raises(UnequalMassError, match=r"total masses differ: 1.0 vs 1.5"):
            check_balanced(1.0, 1.5)


def test_nan_total_mass_is_not_balanced():
    # an unvalidated measure with a NaN weight used to pass the balance check
    X = DiscreteMeasure(("x0", "x1"), [0.5, NAN])
    Y = DiscreteMeasure(("y0", "y1"), [0.5, 0.5], [[0.0], [1.0]])
    with pytest.raises(UnequalMassError):
        build_cost(SampledMap(X, [[0.0], [1.0]]), Y)
