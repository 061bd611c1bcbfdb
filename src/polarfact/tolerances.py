"""The tolerance policy: every threshold a result is compared against.

Masses are compared relative to their own size.  Anything computed from
costs or potentials is judged at ``SOLVER_RTOL`` relative to the
magnitudes of the terms it was computed from: the simplex's tests on C by
``solver_tol``, and every gap by ``gap_vanishes``.  No bound has a floor.
Predicates are written ``value <= bound``, so a NaN never passes.
"""

from __future__ import annotations

import numpy as np

from .errors import UnequalMassError

RTOL = 1e-9  # relative: masses
SOLVER_RTOL = 1e-11  # relative: anything computed from costs or potentials
EXACT_RTOL = 1e-12  # relative: masses that only rounding may separate
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


def gap_vanishes(gap, magnitude):
    """True where a gap is zero relative to the magnitude of the terms it
    was summed from; elementwise on arrays."""
    return np.abs(gap) <= SOLVER_RTOL * magnitude


def dominant(mass, total):
    return mass >= DOMINANT_FRACTION * total


def solver_tol(C: np.ndarray) -> float:
    """The simplex's pricing and zero-slack tolerance, and the bound on the
    gaps read from its duals' reduced costs; relative to max|C|."""
    return SOLVER_RTOL * float(np.max(np.abs(C))) if C.size else 0.0

