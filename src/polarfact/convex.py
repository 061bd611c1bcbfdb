"""Discrete Legendre-Fenchel conjugacy, c-concave dual pairs and Fenchel-gap certificates.

A potential is represented by its samples on a finite site set Y in R^n; the
implied global function is the one that is +inf off the support, so its
conjugate is a finite max over sites.  The quadratic transport cost
c(v, y) = |v - y|^2 / 2 links the two conjugacies: a function phi on Y is
c-concave exactly when psi(y) = |y|^2/2 - phi(y) is (the restriction of) a
convex function, and the c-transform of phi is |v|^2/2 - psi*(v).

All reductions scan sites in index order, so results are bit-identical for
identical inputs; ties resolve to the lowest site index.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class DualPair:
    """A conjugate c-concave pair: phi_c sampled on X, phi sampled on Y.

    ``cost_ref`` is the cost matrix the pair is conjugate for (any object
    with an ``entries`` array of shape (|X|, |Y|)).
    """

    phi_c: np.ndarray
    phi: np.ndarray
    cost_ref: object = None

    def __post_init__(self):
        object.__setattr__(self, "phi_c", np.asarray(self.phi_c, dtype=float).reshape(-1))
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float).reshape(-1))

    def max_feasibility_violation(self) -> float:
        """max over (i, j) of phi_c[i] + phi[j] - c[i, j]; <= 0 means feasible."""
        c = self.cost_ref.entries
        return float(np.max(self.phi_c[:, None] + self.phi[None, :] - c))

    def c_concavity_gap(self) -> float:
        """Sup-norm distance between phi and its double c-transform."""
        c = self.cost_ref.entries
        phi_c = np.min(c - self.phi[None, :], axis=1)
        phi_cc = np.min(c - phi_c[:, None], axis=0)
        return float(np.max(np.abs(phi_cc - self.phi)))

    def dual_value(self, mu_weights: np.ndarray, nu_weights: np.ndarray) -> float:
        return float(mu_weights @ self.phi_c + nu_weights @ self.phi)


def _check_query(query: np.ndarray, dim: int) -> np.ndarray:
    q = np.asarray(query, dtype=float).reshape(-1)
    if q.shape[0] != dim:
        raise DimensionMismatchError(f"query has dimension {q.shape[0]}, support {dim}")
    return q


def conjugate_scores(psi: ConvexPotential, query) -> np.ndarray:
    """Per-site scores query . y_j - psi_j whose max is the conjugate."""
    q = _check_query(query, psi.dimension)
    return psi.support.coords @ q - psi.psi_values


def fenchel_conjugate(psi: ConvexPotential, query) -> float:
    """psi*(query) = max_j (query . y_j - psi_j) over the support sites."""
    return float(np.max(conjugate_scores(psi, query)))


def conjugate_many(psi: ConvexPotential, queries: np.ndarray) -> np.ndarray:
    """Vectorised conjugate for a (k, n) array of query points."""
    q = np.asarray(queries, dtype=float)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    if q.shape[1] != psi.dimension:
        raise DimensionMismatchError(
            f"queries have dimension {q.shape[1]}, support {psi.dimension}"
        )
    return np.max(q @ psi.support.coords.T - psi.psi_values[None, :], axis=1)


def fenchel_gap(psi: ConvexPotential, u_value, y_index: int) -> float:
    """psi*(u_value) + psi(y_j) - u_value . y_j at site index ``y_index``.

    Computed as max(scores) - scores[y_index] over the shared score array,
    so the result is >= 0 in exact float arithmetic.  A gap below tolerance
    certifies that u_value lies in the discrete subdifferential at y_j.
    """
    scores = conjugate_scores(psi, u_value)
    if not 0 <= y_index < scores.shape[0]:
        raise IndexError(f"site index {y_index} out of range")
    return float(np.max(scores) - scores[y_index])


def fenchel_gap_many(psi: ConvexPotential, u_values: np.ndarray, y_indices: np.ndarray) -> np.ndarray:
    """Vectorised gaps for paired (u_value, site) samples."""
    q = np.asarray(u_values, dtype=float)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    scores = q @ psi.support.coords.T - psi.psi_values[None, :]
    idx = np.asarray(y_indices, dtype=int)
    return np.max(scores, axis=1) - scores[np.arange(q.shape[0]), idx]
