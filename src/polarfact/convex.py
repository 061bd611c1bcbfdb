"""Discrete Legendre-Fenchel conjugacy, c-concave dual pairs and Fenchel-gap certificates.

A potential is represented by its samples on a finite site set Y in R^n; the
implied global function is the one that is +inf off the support, so its
conjugate is a finite max over sites.  The quadratic transport cost
c(v, y) = |v - y|^2 / 2 links the two conjugacies: a function phi on Y is
c-concave exactly when psi(y) = |y|^2/2 - phi(y) is (the restriction of) a
convex function, and the c-transform of phi is |v|^2/2 - psi*(v).

Every conjugate and Fenchel gap, here and in ``transport``, is read from one
score kernel, ``_scores``; a one-point call is a one-row batch of it.
All reductions scan sites in index order, so results are bit-identical for
identical inputs; ties resolve to the lowest site index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .measures import DiscreteMeasure


@dataclass(frozen=True)
class ConvexPotential:
    """Samples of a convex potential on the support of a measure in R^n."""

    support: DiscreteMeasure
    psi_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.psi_values, dtype=float).reshape(-1)
        object.__setattr__(self, "psi_values", v)
        if self.support.coords is None:
            raise DimensionMismatchError("potential support must carry coordinates")
        if v.shape[0] != self.support.size:
            raise DimensionMismatchError(
                f"{v.shape[0]} potential samples for {self.support.size} sites"
            )
        if not np.all(np.isfinite(v)):
            raise DimensionMismatchError("potential samples must be finite")

    @property
    def dimension(self) -> int:
        return self.support.coords.shape[1]


def _reduced_costs(entries: np.ndarray, phi_c: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(c - phi_c) - phi in the simplex's pricing order: a new m x n array."""
    r = entries - phi_c[:, None]
    r -= phi
    return r


@dataclass(frozen=True)
class DualPair:
    """A conjugate c-concave pair: phi_c sampled on X, phi sampled on Y.

    ``cost_ref`` is the cost matrix the pair is conjugate for (any object
    with an ``entries`` array of shape (|X|, |Y|)).  phi_c, phi and the row
    minima ``row_min`` of R = (c - phi_c) - phi are read-only; R is not kept.
    """

    phi_c: np.ndarray
    phi: np.ndarray
    cost_ref: object
    row_min: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("phi_c", "phi"):
            v = np.array(getattr(self, name), dtype=float).reshape(-1)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if (self.phi_c.size, self.phi.size) != self.cost_ref.entries.shape:
            raise DimensionMismatchError(f"potentials of sizes ({self.phi_c.size}, "
                                         f"{self.phi.size}) for cost {self.cost_ref.entries.shape}")
        object.__setattr__(self, "row_min", self.reduced_costs().min(axis=1))
        self.row_min.flags.writeable = False

    def reduced_costs(self) -> np.ndarray:
        """R = (c - phi_c) - phi, built anew on each call."""
        return _reduced_costs(self.cost_ref.entries, self.phi_c, self.phi)

    def reduced_at(self, rows, cols) -> np.ndarray:
        """R at the cells (rows, cols), bit-equal to those entries of ``reduced_costs()``."""
        return (self.cost_ref.entries[rows, cols] - self.phi_c[rows]) - self.phi[cols]

    def max_feasibility_violation(self) -> float:
        """max over (i, j) of phi_c[i] + phi[j] - c[i, j]; <= 0 means feasible."""
        return float(-np.min(self.row_min))

    def c_concavity_gap(self) -> float:
        """Sup-norm distance between phi and its double c-transform."""
        c = self.cost_ref.entries
        phi_c = np.min(c - self.phi[None, :], axis=1)
        phi_cc = np.min(c - phi_c[:, None], axis=0)
        return float(np.max(np.abs(phi_cc - self.phi)))

    def dual_value(self, mu_weights: np.ndarray, nu_weights: np.ndarray) -> float:
        return float(mu_weights @ self.phi_c + nu_weights @ self.phi)


def _scores(psi: ConvexPotential, queries) -> np.ndarray:
    """Scores q_k . y_j - psi_j of a (k, n) array of queries, one row each:
    the one kernel every conjugate and Fenchel gap is read from."""
    q = np.asarray(queries, dtype=float)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    if q.shape[1] != psi.dimension:
        raise DimensionMismatchError(f"queries have dimension {q.shape[1]}, support {psi.dimension}")
    return q @ psi.support.coords.T - psi.psi_values[None, :]


def fenchel_conjugate(psi: ConvexPotential, query) -> float:
    """psi*(query) = max_j (query . y_j - psi_j) over the support sites."""
    return float(conjugate_many(psi, np.reshape(query, (1, -1)))[0])


def conjugate_many(psi: ConvexPotential, queries: np.ndarray) -> np.ndarray:
    """Vectorised conjugate for a (k, n) array of query points."""
    return np.max(_scores(psi, queries), axis=1)


def fenchel_gap(psi: ConvexPotential, u_value, y_index: int) -> float:
    """psi*(u_value) + psi(y_j) - u_value . y_j at site index ``y_index``; a
    gap below tolerance puts u_value in the discrete subdifferential at y_j."""
    return float(fenchel_gap_many(psi, np.reshape(u_value, (1, -1)), [y_index])[0])


def fenchel_gap_many(psi: ConvexPotential, u_values: np.ndarray, y_indices: np.ndarray) -> np.ndarray:
    """Vectorised gaps for paired (u_value, site) samples, each the max of
    its row of scores minus its entry at the site: >= 0 in float arithmetic."""
    scores = _scores(psi, u_values)
    idx = np.asarray(y_indices, dtype=int).reshape(-1)
    outside = (idx < 0) | (idx >= psi.support.size)
    if np.any(outside):
        raise IndexError(f"site index {int(idx[outside][0])} out of range")
    return np.max(scores, axis=1) - scores[np.arange(scores.shape[0]), idx]
