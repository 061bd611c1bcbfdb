import math

import numpy as np
import pytest

from polarfact.errors import UnequalMassError
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.tolerances import (
    RTOL,
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
        assert not dominant(np.array([NAN]), np.array([1.0]))[0]
        with pytest.raises(UnequalMassError):
            check_balanced(NAN, 1.0)

    def test_bounds_are_inclusive(self):
        assert gap_vanishes(RTOL * 3.0, 2.0) and not gap_vanishes(RTOL * 3.1, 2.0)
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
