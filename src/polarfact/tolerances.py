"""The tolerance policy: every threshold a result is compared against.

Predicates are written ``value <= bound``, so a NaN never passes.
"""

from __future__ import annotations

import numpy as np

from .errors import UnequalMassError

RTOL = 1e-9  # relative: masses, duality gaps, objective values
EXACT_RTOL = 1e-12  # relative: masses that only rounding may separate
DEFAULT_TOL = 1e-8  # absolute: the Fenchel gaps verify takes of a psi read from a file
DOMINANT_FRACTION = 1.0 - RTOL  # share of its row's or site's mass a dominant cell carries


def masses_close(a, b, rtol: float = RTOL):
    """Elementwise: |a - b| is within ``rtol`` of the larger of |a|, |b|."""
    return np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))


def sums_match(sums: np.ndarray, weights: np.ndarray, total: float) -> bool:
    """True when every marginal sum reproduces its weight, relative to the
    total mass."""
    return bool(np.max(np.abs(sums - weights), initial=0.0) <= RTOL * total)


def check_balanced(total_a: float, total_b: float, rtol: float = RTOL) -> None:
    if not masses_close(total_a, total_b, rtol):
        raise UnequalMassError(f"total masses differ: {total_a!r} vs {total_b!r}")


def gap_vanishes(gap: float, value: float) -> bool:
    """True when a gap is zero relative to the value it was taken from."""
    return abs(gap) <= RTOL * (1.0 + abs(value))


def within_optimum(value: float, optimum: float) -> bool:
    """True when an objective value does not exceed the optimum beyond rounding."""
    return value <= optimum + RTOL * (1.0 + abs(optimum))


def dominant(mass, total):
    return mass >= DOMINANT_FRACTION * total


def solver_tol(C: np.ndarray) -> float:
    """The simplex's pricing and zero-slack tolerance, and the bound on the
    gaps read from its duals' reduced costs; relative to max|C|."""
    return 1e-11 * float(np.max(np.abs(C))) if C.size else 0.0

