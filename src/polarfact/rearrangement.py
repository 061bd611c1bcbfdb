"""Monotone rearrangement, block refinements and level-set multiplicity.

The monotone rearrangement of a sampled map u onto a target measure Y is
computed by transporting the value law of u onto Y at quadratic cost: the
optimal assignment sorts values against sites (in one dimension this is
literally sorting), and the recovered duals yield the convex potential
psi(y) = |y|^2/2 - phi(y) whose discrete subdifferential contains the
assigned value at every site.

The block construction refines a domain by an integer factor m and
redistributes non-heavy values so each is attained exactly m times, once
per block, while preserving the value law exactly.  Heavy values stand in
for level sets of positive measure and are left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convex import ConvexPotential
from .errors import (
    DimensionMismatchError,
    MultiCarrierAtomError,
    NumericalFailureError,
    SplitAtomError,
    UnknownHeavyAtomError,
)
from .measures import (
    DiscreteMeasure,
    SampledMap,
    ValueLaw,
    value_law,
)
from .tolerances import dominant, masses_close
from .transport import build_cost, inclusion_gap, solve_mk


@dataclass(frozen=True)
class HeavyAtoms:
    """Designated values standing in for positive-measure level sets."""

    values: np.ndarray
    match_tolerance: float = 0.0

    def __post_init__(self):
        if not self.match_tolerance >= 0:
            raise ValueError(f"match_tolerance must be >= 0, got {self.match_tolerance!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2):
            raise DimensionMismatchError(f"heavy values must be 1-D or 2-D, got {v.ndim}-D")
        if v.size == 0:
            v = v.reshape(0, 1)
        elif v.ndim == 1:
            v = v.reshape(1, -1)
        object.__setattr__(self, "values", v)

    @classmethod
    def none(cls) -> "HeavyAtoms":
        return cls(np.empty((0, 1)))

    @property
    def n_designations(self) -> int:
        return self.values.shape[0]

    def atom_indices(self, law: ValueLaw) -> frozenset:
        """Indices of the law's atoms matched by the designations.

        Every designation must match at least one atom; a designation may
        match several when the tolerance overlaps them.
        """
        n_designations, dim = self.values.shape
        if n_designations == 0:
            return frozenset()
        if dim != law.values.shape[1]:
            raise DimensionMismatchError(
                f"heavy value has dimension {dim}, law {law.values.shape[1]}"
            )
        # close[k, a]: designation k is within the tolerance of atom a in
        # every coordinate
        close = np.ones((n_designations, law.n_atoms), dtype=bool)
        for c in range(dim):
            close &= (
                np.abs(law.values[None, :, c] - self.values[:, None, c])
                <= self.match_tolerance
            )
        unmatched = np.nonzero(~close.any(axis=1))[0]
        if unmatched.size:
            v = self.values[unmatched[0]]
            raise UnknownHeavyAtomError(f"no atom matches heavy value {v.tolist()}")
        return frozenset(np.nonzero(close.any(axis=0))[0].tolist())


@dataclass(frozen=True)
class RefinedDomain:
    """A domain split into m equal-mass blocks of children per parent.

    Children are laid out block-major: block j holds one child per parent,
    labelled ``<parent>#<j>`` with j in 1..m, each of weight parent/m.
    """

    parent: DiscreteMeasure
    split_factor: int
    measure: DiscreteMeasure = field(init=False)

    def __post_init__(self):
        if self.split_factor < 1:
            raise ValueError(f"split factor must be >= 1, got {self.split_factor}")
        p = self.parent
        m = self.split_factor
        labels = tuple(
            f"{lbl}#{j}" for j in range(1, m + 1) for lbl in p.labels
        )
        weights = np.tile(p.weights / m, m)
        coords = None if p.coords is None else np.tile(p.coords, (m, 1))
        object.__setattr__(self, "measure", DiscreteMeasure(labels, weights, coords))


def construct_m_to_1(
    v: SampledMap, m: int, heavy=None, cluster_tol: float = 0.0
) -> SampledMap:
    """Rearrange v on an m-fold refined domain so every non-heavy value is
    attained exactly m times, once per block.

    Heavy values are copied to all m children of their carriers, so their
    masses are untouched.  Every non-heavy atom must have a single carrier
    point (multi-carrier atoms model positive-measure level sets and must be
    designated heavy).  Within each block, atoms sorted by (mass, value) are
    paired with children sorted by (parent weight, parent label); the two
    weight sequences coincide, so the output law equals the input law
    exactly.
    """
    return _m_to_1(v, value_law(v, cluster_tol), m, heavy)


def _m_to_1(v: SampledMap, law: ValueLaw, m: int, heavy) -> SampledMap:
    """``construct_m_to_1`` on v's value law ``law``."""
    if m < 1:
        raise ValueError(f"refinement factor must be >= 1, got {m}")
    heavy_idx = (HeavyAtoms.none() if heavy is None else heavy).atom_indices(law)
    counts = np.fromiter(map(len, law.members), dtype=np.intp, count=law.n_atoms)
    is_heavy = np.zeros(law.n_atoms, dtype=bool)
    is_heavy[list(heavy_idx)] = True
    light_idx = np.nonzero(~is_heavy)[0]
    multi = light_idx[counts[light_idx] != 1]
    if multi.size:
        k = multi[0]
        raise MultiCarrierAtomError(
            f"non-heavy value {law.values[k].tolist()} has "
            f"{counts[k]} carriers; designate it heavy"
        )
    refined = RefinedDomain(v.domain, m)
    n_parent = v.domain.size
    dim = v.codomain_dimension
    values = np.empty((m, n_parent, dim))

    # heavy carriers (and their children) keep their own values
    heavy_parents = [p for k in heavy_idx for p in law.members[k]]
    values[:, heavy_parents] = v.values[heavy_parents]

    # stable sorts: carriers by (parent weight, parent label), with labels
    # kept as Python strings so they compare as str; atoms by (mass, value),
    # where the law's atoms are already in value order
    carriers = np.array([law.members[k][0] for k in light_idx], dtype=np.intp)
    labels = np.array([v.domain.labels[p] for p in carriers], dtype=object)
    carriers = carriers[np.lexsort((labels, v.domain.weights[carriers]))]
    atoms = light_idx[np.argsort(law.masses[light_idx], kind="stable")]
    values[:, carriers] = law.values[atoms]
    return SampledMap(refined.measure, values.reshape(m * n_parent, dim))


@dataclass(frozen=True)
class MultiplicityReport:
    """Per-value-atom masses and carrier counts, with heavy designations."""

    values: np.ndarray
    masses: np.ndarray
    point_counts: np.ndarray
    heavy_indices: frozenset

    @property
    def n_atoms(self) -> int:
        return self.masses.shape[0]

    @property
    def light_counts(self) -> np.ndarray:
        light = [k for k in range(self.n_atoms) if k not in self.heavy_indices]
        return self.point_counts[light]

    @property
    def almost_injective(self) -> bool:
        counts = self.light_counts
        return bool(np.all(counts == 1)) if counts.size else True

    @property
    def m_to_1(self):
        """Common carrier count of the non-heavy atoms, or None."""
        counts = self.light_counts
        if counts.size == 0:
            return None
        first = int(counts[0])
        return first if bool(np.all(counts == first)) else None

    def is_almost_m_to_1(self, m: int) -> bool:
        counts = self.light_counts
        return bool(np.all(counts == m)) if counts.size else True

    @property
    def max_light_count(self) -> int:
        counts = self.light_counts
        return int(np.max(counts)) if counts.size else 0

    def rows(self):
        return [
            {
                "value": self.values[k].tolist(),
                "mass": float(self.masses[k]),
                "point_count": int(self.point_counts[k]),
                "heavy": k in self.heavy_indices,
            }
            for k in range(self.n_atoms)
        ]


def multiplicity_report(u: SampledMap, heavy=None, cluster_tol: float = 0.0) -> MultiplicityReport:
    """Count carriers per value atom and summarise the level-set structure."""
    return _report(value_law(u, cluster_tol), heavy)


def _report(law: ValueLaw, heavy) -> MultiplicityReport:
    """``multiplicity_report`` on a map's value law ``law``."""
    heavy_idx = (HeavyAtoms.none() if heavy is None else heavy).atom_indices(law)
    counts = np.array([len(ms) for ms in law.members], dtype=int)
    return MultiplicityReport(law.values, law.masses, counts, heavy_idx)


def monotone_rearrangement(
    u: SampledMap,
    Y: DiscreteMeasure,
    cluster_tol: float = 0.0,
    mode: str = "strict",
):
    """Monotone rearrangement of u on Y with its certifying convex potential.

    Transports the value law of u onto (Y, nu) at cost |y - v|^2/2.  In
    strict mode every site must be assigned a single value atom by the basic
    optimal plan, otherwise SplitAtomError is raised; in refine mode the
    offending sites are subdivided proportionally to the plan, each child
    takes the atom of its plan cell, and the instance is re-solved once for
    the certifying potential.

    Returns (u_sharp, psi) with u_sharp equimeasurable with u and a Fenchel
    gap <= the cost's tol at every site, read off the last solve's reduced costs.
    """
    if mode not in ("strict", "refine"):
        raise ValueError(f"unknown mode {mode!r}")
    law = value_law(u, cluster_tol)
    atoms = DiscreteMeasure(
        tuple(f"atom{k}" for k in range(law.n_atoms)), law.masses, law.values
    )
    atom_map = SampledMap(atoms, law.values)

    target = Y
    plan, duals = solve_mk(build_cost(atom_map, target), atoms, target)
    best_row, best_mass = plan.dominant_partners("col")
    split = np.nonzero((best_row < 0) | ~dominant(best_mass, target.weights))[0].tolist()
    if split:
        if mode == "strict":
            raise SplitAtomError(
                f"{len(split)} target sites split across several value atoms "
                f"(first: {target.labels[split[0]]!r}); re-run in refine mode"
            )
        target, best_row = _refine_split_sites(plan, target, split, best_row)
        # the refined assignment keeps the first plan's cost, so it is optimal
        # for the refined target; the re-solve supplies an independent dual
        # that certifies it through the Fenchel gaps below
        _, duals = solve_mk(build_cost(atom_map, target), atoms, target)

    values = law.values[best_row]
    psi_vals = 0.5 * np.sum(target.coords * target.coords, axis=1) - duals.phi
    psi = ConvexPotential(target, psi_vals)
    u_sharp = SampledMap(target, values)

    inclusion_gap(duals, best_row, np.arange(target.size))
    # u_sharp takes atom best_row[j] at site j, so its law is the law of u
    # when every atom receives its own mass
    hit = np.bincount(best_row, weights=target.weights, minlength=law.n_atoms)
    if not np.all(masses_close(hit, law.masses)):
        raise NumericalFailureError("rearrangement output is not equimeasurable with input")
    return u_sharp, psi


def _refine_split_sites(plan, target: DiscreteMeasure, split, best_row):
    """Subdivide each split site into one child per incoming plan cell.

    Returns the refined target and its assignment: each child takes the row
    of its plan cell, every other site keeps its row in ``best_row``.
    """
    split_set = set(split)
    incoming = {j: [] for j in split_set}
    for i, j, t in zip(plan.rows, plan.cols, plan.masses):
        if j in split_set:
            incoming[int(j)].append((int(i), float(t)))
    labels, weights, coords, rows = [], [], [], []
    for j in range(target.size):
        if j in split_set:
            for t_idx, (i, t) in enumerate(incoming[j], start=1):
                labels.append(f"{target.labels[j]}#{t_idx}")
                weights.append(t)
                coords.append(target.coords[j])
                rows.append(i)
        else:
            labels.append(target.labels[j])
            weights.append(float(target.weights[j]))
            coords.append(target.coords[j])
            rows.append(int(best_row[j]))
    refined = DiscreteMeasure(tuple(labels), np.asarray(weights), np.asarray(coords))
    return refined, np.asarray(rows, dtype=int)
