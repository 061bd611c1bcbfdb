"""Finite weighted point sets, value laws and equimeasurability.

A :class:`DiscreteMeasure` stands in for a finite measure space: a list of
labelled sites, each with a strictly positive mass and (optionally) a
coordinate vector when the space sits in R^n.  A :class:`SampledMap` attaches
one R^n value per site of such a measure.  The law of a map is the multiset
of (value, mass) pairs it pushes forward; two maps are equimeasurable exactly
when their laws coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DuplicateLabelError, NegativeWeightError
from .tolerances import EXACT_RTOL, RTOL, check_balanced, masses_close

ABSTRACT = "abstract"


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite weighted point set.

    Parameters
    ----------
    labels : tuple of str
        Unique site labels.
    weights : array, shape (N,)
        Strictly positive masses.
    coords : array, shape (N, n), or None
        Site coordinates; None for an abstract (domain-only) space.
    """

    labels: tuple
    weights: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        object.__setattr__(self, "weights", w)
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.ndim not in (1, 2):
                raise DimensionMismatchError(f"coordinates must be 1-D or 2-D, got {c.ndim}-D")
            if c.ndim == 1:
                c = c.reshape(-1, 1)
            object.__setattr__(self, "coords", c)
        if len(self.labels) != self.size:
            raise DimensionMismatchError(
                f"{len(self.labels)} labels for {self.size} weights"
            )
        if self.coords is not None and self.coords.shape[0] != self.size:
            raise DimensionMismatchError(
                f"{self.coords.shape[0]} coordinate rows for {self.size} points"
            )

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def dimension(self):
        """Ambient dimension, or ``"abstract"`` for coordinate-free spaces."""
        return ABSTRACT if self.coords is None else self.coords.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(label) from None

    @classmethod
    def uniform(cls, n_points: int, total: float = 1.0, coords=None, prefix: str = "p"):
        """Uniform measure on n labelled points of total mass ``total``."""
        labels = tuple(f"{prefix}{k}" for k in range(n_points))
        weights = np.full(n_points, total / n_points)
        return cls(labels, weights, coords)


def validate(measure: DiscreteMeasure) -> float:
    """Check every measure invariant; return the total mass.

    Raises NegativeWeightError, DuplicateLabelError or DimensionMismatchError
    on the first violated invariant.  Empty supports are rejected: a measure
    must carry positive finite mass.
    """
    w = measure.weights
    if w.size == 0:
        raise NegativeWeightError("measure has empty support (total mass 0)")
    if not np.all(np.isfinite(w)):
        raise NegativeWeightError("non-finite weight")
    bad = np.nonzero(w <= 0.0)[0]
    if bad.size:
        raise NegativeWeightError(
            f"weight {w[bad[0]]!r} at point {measure.labels[bad[0]]!r} is not > 0"
        )
    if len(set(measure.labels)) != measure.size:
        seen = set()
        for l in measure.labels:
            if l in seen:
                raise DuplicateLabelError(f"label {l!r} appears more than once")
            seen.add(l)
    if measure.coords is not None and not np.all(np.isfinite(measure.coords)):
        raise DimensionMismatchError("non-finite coordinate")
    total = measure.total_mass
    if not np.isfinite(total) or total <= 0.0:
        raise NegativeWeightError(f"total mass {total!r} is not finite and positive")
    return total


@dataclass(frozen=True)
class SampledMap:
    """Values of a vector-valued map at the support points of a measure."""

    domain: DiscreteMeasure
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2):
            raise DimensionMismatchError(f"map values must be 1-D or 2-D, got {v.ndim}-D")
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.domain.size:
            raise DimensionMismatchError(
                f"{v.shape[0]} values for {self.domain.size} domain points"
            )
        if not np.all(np.isfinite(v)):
            raise DimensionMismatchError("map values must be finite")

    @property
    def codomain_dimension(self) -> int:
        return self.values.shape[1]

    @property
    def size(self) -> int:
        return self.domain.size


@dataclass(frozen=True)
class ValueLaw:
    """Pushforward law of a map: distinct values with their masses.

    Atoms are ordered lexicographically by value, so two laws built from
    the same data compare positionally.
    """

    values: np.ndarray        # (K, n), atom representatives
    masses: np.ndarray        # (K,)
    cluster_tol: float
    members: tuple = field(default=(), compare=False)  # per-atom domain indices

    @property
    def n_atoms(self) -> int:
        return self.masses.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def matches(self, other: "ValueLaw", mass_rtol: float = RTOL) -> bool:
        """True when both laws hold the same (value, mass) atoms.

        Values are compared through the shared snapping grid (exactly when
        both laws used cluster_tol 0), masses at ``mass_rtol`` relative.
        """
        if self.n_atoms != other.n_atoms:
            return False
        if self.values.shape[1] != other.values.shape[1]:
            return False
        tol = max(self.cluster_tol, other.cluster_tol)
        a = _snap(self.values, tol)
        b = _snap(other.values, tol)
        if not np.array_equal(a, b):
            return False
        return bool(np.all(masses_close(self.masses, other.masses, mass_rtol)))


def _snap(values: np.ndarray, cluster_tol: float) -> np.ndarray:
    """Round each coordinate to the nearest multiple of cluster_tol (identity at 0)."""
    if cluster_tol == 0.0:
        return values
    return np.round(values / cluster_tol) * cluster_tol


def _lex_order(values: np.ndarray) -> np.ndarray:
    # lexicographic by first coordinate, then second, ...
    return np.lexsort(tuple(values[:, k] for k in reversed(range(values.shape[1]))))


def value_law(map: SampledMap, cluster_tol: float = 0.0) -> ValueLaw:
    """Cluster the map's values and return the induced (value, mass) atoms.

    cluster_tol = 0 groups exact duplicates (-0.0 and 0.0 are one value);
    otherwise values are snapped to the grid of spacing cluster_tol and
    grouped per cell.  One stable sort by (snapped value, value) makes each
    cluster a run whose first member is its representative: the
    lexicographically smallest value, at the lowest domain index among
    equal ones, so the result does not depend on the order of the domain.
    Atoms are ordered by representative and list their members in
    ascending domain index.  An atom's mass is ``np.sum`` of its members'
    weights in that order: a sequential sum below 8 members, numpy's
    pairwise sum from 8 on.  Atom masses always sum to the domain's total
    mass; an empty map has the empty law.

    Each call computes a fresh law that shares no array with the map or
    with any other call; a caller that needs the law twice keeps it.
    """
    if not np.isfinite(cluster_tol):
        raise ValueError("cluster_tol must be finite")
    if cluster_tol < 0:
        raise ValueError("cluster_tol must be >= 0")
    vals, w = map.values, map.domain.weights
    if cluster_tol and float(np.max(np.abs(vals), initial=0.0)) / cluster_tol == np.inf:
        raise ValueError(f"cluster_tol {cluster_tol!r} is too small: values / cluster_tol overflow")
    return _compute_law(vals, w, cluster_tol)


def _compute_law(vals: np.ndarray, w: np.ndarray, cluster_tol: float) -> ValueLaw:
    n, d = vals.shape
    if n == 0:
        return ValueLaw(np.empty((0, d)), np.empty(0), cluster_tol, ())
    keyed = _snap(vals, cluster_tol)
    columns = tuple(vals[:, k] for k in reversed(range(d)))
    if cluster_tol != 0.0:
        columns += tuple(keyed[:, k] for k in reversed(range(d)))
    order = np.lexsort(columns)
    sorted_keys = keyed[order]
    starts = np.ones(n, dtype=bool)
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=starts[1:])
    reps = vals[order[starts]]
    n_atoms = reps.shape[0]
    if cluster_tol == 0.0:
        # the runs are the atoms, already ranked by representative and
        # listing their members in ascending domain index; atom and
        # weights follow the sorted points
        by_atom = order
        atom = np.cumsum(starts) - 1
        weights = w[order]
    else:
        # snapping keeps each coordinate's order but not the lexicographic
        # order of whole vectors, so the clusters are ranked by
        # representative; atom and weights follow the domain points
        atom_order = _lex_order(reps)
        reps = reps[atom_order]
        rank = np.empty(n_atoms, dtype=np.intp)
        rank[atom_order] = np.arange(n_atoms)
        atom = np.empty(n, dtype=np.intp)
        atom[order] = rank[np.cumsum(starts) - 1]
        by_atom = np.argsort(atom, kind="stable")
        weights = w

    # either way bincount adds each atom's weights in ascending domain index
    masses = np.bincount(atom, weights=weights, minlength=n_atoms)
    counts = np.bincount(atom, minlength=n_atoms)
    ends = np.cumsum(counts)
    # bincount sums in sequence, as np.sum does below 8 terms; from 8 on
    # np.sum adds pairwise, so those atoms are summed by np.sum itself
    for k in np.nonzero(counts >= 8)[0]:
        masses[k] = np.sum(w[by_atom[ends[k] - counts[k]:ends[k]]])
    flat = by_atom.tolist()
    if n_atoms == n:
        members = tuple(zip(flat))  # one point per atom
    else:
        bounds = [0] + ends.tolist()
        members = tuple(tuple(flat[s:e]) for s, e in zip(bounds[:-1], bounds[1:]))
    return ValueLaw(reps, masses, cluster_tol, members)


def equimeasurable(f: SampledMap, g: SampledMap, cluster_tol: float = 0.0) -> bool:
    """True iff f and g push their domain measures to the same value law."""
    _check_comparable(f, g)
    return value_law(f, cluster_tol).matches(value_law(g, cluster_tol))


def _check_comparable(f: SampledMap, g: SampledMap) -> None:
    """Raise unless f and g share their codomain dimension and total mass."""
    if f.codomain_dimension != g.codomain_dimension:
        raise DimensionMismatchError(
            f"codomain dimensions differ: {f.codomain_dimension} vs {g.codomain_dimension}"
        )
    check_balanced(f.domain.total_mass, g.domain.total_mass, EXACT_RTOL)

