"""Tests of the op-time scaling: run with

    python3 -m pytest perfbench/test_speed.py -q

from the root of a source checkout.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import EXPONENT, NOMINAL_S, WINDOW_S, Speed  # noqa: E402


def _speed(readings):
    """Readings taken at times 0, 1, 2, ... seconds."""
    s = Speed()
    s.readings = list(readings)
    s.at = [float(k) for k in range(len(readings))]
    return s


def test_nominal_speed_leaves_times_unchanged():
    assert _speed([NOMINAL_S] * 3).factor(1.0, 1.1) == pytest.approx(1.0)


def test_factor_follows_the_median_of_the_readings_around_the_op():
    assert WINDOW_S == 1.0
    slow = _speed([NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S, 9 * NOMINAL_S, NOMINAL_S, NOMINAL_S])
    # readings at 1, 2 and 3 s lie within 1 s of an op from 2.0 to 2.1 s
    assert slow.factor(2.0, 2.1) == pytest.approx(0.5**EXPONENT)
    # readings at 4 and 5 s only
    assert slow.factor(5.0, 5.5) == pytest.approx(1.0)
    assert _speed([0.5 * NOMINAL_S] * 2).factor(0.0, 0.1) > 1.0


def test_an_op_far_from_every_reading_takes_the_nearest():
    assert _speed([NOMINAL_S, 2 * NOMINAL_S]).factor(9.0, 9.5) == pytest.approx(0.5**EXPONENT)


def test_mark_times_the_reference_kernel():
    s = Speed()
    s.mark()
    assert len(s.readings) == 1 and s.readings[0] > 0
    assert not s.due()
