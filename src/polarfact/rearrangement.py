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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .convex import ConvexPotential, fenchel_gap_many
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
from .transport import build_cost, solve_mk

# A target site counts as assigned to a single atom when its dominant plan
# cell carries at least this fraction of the site's mass.
DOMINANT_FRACTION = 1.0 - 1e-9

CERTIFICATE_GAP_TOL = 1e-8


@dataclass(frozen=True)
class HeavyAtoms:
    """Designated values standing in for positive-measure level sets."""

    values: np.ndarray
    match_tolerance: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
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
        hit = set()
        for k in range(self.n_designations):
            v = self.values[k]
            if v.shape[0] != law.values.shape[1]:
                raise DimensionMismatchError(
                    f"heavy value has dimension {v.shape[0]}, law {law.values.shape[1]}"
                )
            close = np.max(np.abs(law.values - v[None, :]), axis=1) <= self.match_tolerance
            idx = np.nonzero(close)[0]
            if idx.size == 0:
                raise UnknownHeavyAtomError(f"no atom matches heavy value {v.tolist()}")
            hit.update(int(i) for i in idx)
        return frozenset(hit)


def _coerce_heavy(heavy) -> HeavyAtoms:
    if heavy is None:
        return HeavyAtoms.none()
    if isinstance(heavy, HeavyAtoms):
        return heavy
    vals = list(heavy)
    if not vals:
        return HeavyAtoms.none()
    return HeavyAtoms(np.asarray(vals, dtype=float))


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

    def block_indices(self, j: int) -> np.ndarray:
        """Child indices of block j (1-based), one per parent, in parent order."""
        n = self.parent.size
        return np.arange((j - 1) * n, j * n)


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
    if m < 1:
        raise ValueError(f"refinement factor must be >= 1, got {m}")
    law = value_law(v, cluster_tol)
    heavy_idx = _coerce_heavy(heavy).atom_indices(law)
    light_idx = [k for k in range(law.n_atoms) if k not in heavy_idx]
    for k in light_idx:
        if len(law.members[k]) != 1:
            raise MultiCarrierAtomError(
                f"non-heavy value {law.values[k].tolist()} has "
                f"{len(law.members[k])} carriers; designate it heavy"
            )
    refined = RefinedDomain(v.domain, m)
    n_parent = v.domain.size
    values = np.empty((m * n_parent, v.codomain_dimension))

    # heavy carriers (and their children) keep their own values
    heavy_parents = set()
    for k in heavy_idx:
        heavy_parents.update(law.members[k])
    for p in heavy_parents:
        for j in range(m):
            values[j * n_parent + p] = v.values[p]

    light_carriers = sorted(
        (law.members[k][0] for k in light_idx),
        key=lambda p: (v.domain.weights[p], v.domain.labels[p]),
    )
    atom_order = sorted(
        light_idx,
        key=lambda k: (law.masses[k], tuple(law.values[k])),
    )
    for j in range(m):
        for p, k in zip(light_carriers, atom_order):
            values[j * n_parent + p] = law.values[k]
    return SampledMap(refined.measure, values)


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
    law = value_law(u, cluster_tol)
    heavy_idx = _coerce_heavy(heavy).atom_indices(law)
    counts = np.array([len(ms) for ms in law.members], dtype=int)
    return MultiplicityReport(law.values, law.masses, counts, heavy_idx)


def restrict_to_value_set(u: SampledMap, box) -> SampledMap:
    """Sub-map carried by the points whose value lies in a closed box.

    ``box`` is a (lower, upper) pair of vectors.  An empty restriction is
    returned (with a warning) rather than raised.
    """
    lo = np.asarray(box[0], dtype=float).reshape(-1)
    hi = np.asarray(box[1], dtype=float).reshape(-1)
    if lo.shape[0] != u.codomain_dimension or hi.shape[0] != u.codomain_dimension:
        raise DimensionMismatchError("box dimension does not match the map's codomain")
    if np.any(hi < lo):
        raise ValueError("degenerate box: upper corner below lower corner")
    inside = np.all((u.values >= lo) & (u.values <= hi), axis=1)
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        warnings.warn("value-set restriction is empty", stacklevel=2)
    dom = u.domain
    sub = DiscreteMeasure(
        tuple(dom.labels[i] for i in idx),
        dom.weights[idx],
        None if dom.coords is None else dom.coords[idx],
    )
    return SampledMap(sub, u.values[idx])


def _dominant_assignment(plan, nu_weights):
    """Per-column dominant row, or the list of genuinely split columns."""
    n = nu_weights.shape[0]
    best_row = np.full(n, -1, dtype=int)
    best_mass = np.zeros(n)
    col_mass = np.zeros(n)
    for i, j, t in zip(plan.rows, plan.cols, plan.masses):
        col_mass[j] += t
        if t > best_mass[j]:
            best_mass[j] = t
            best_row[j] = i
    split = [
        j
        for j in range(n)
        if best_row[j] < 0 or best_mass[j] < DOMINANT_FRACTION * nu_weights[j]
    ]
    return best_row, split


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

    Returns (u_sharp, psi) with u_sharp equimeasurable with u and
    fenchel_gap(psi, u_sharp(y), y) <= 1e-8 at every site.
    """
    if mode not in ("strict", "refine"):
        raise ValueError(f"unknown mode {mode!r}")
    law = value_law(u, cluster_tol)
    atoms = DiscreteMeasure(
        tuple(f"atom{k}" for k in range(law.n_atoms)), law.masses, law.values
    )
    atom_map = SampledMap(atoms, law.values)

    target = Y
    plan, duals = _solve_law_transport(atom_map, target)
    best_row, split = _dominant_assignment(plan, target.weights)
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
        _, duals = _solve_law_transport(atom_map, target)

    values = law.values[best_row]
    psi_vals = 0.5 * np.sum(target.coords * target.coords, axis=1) - duals.phi
    psi = ConvexPotential(target, psi_vals)
    u_sharp = SampledMap(target, values)

    gaps = fenchel_gap_many(psi, values, np.arange(target.size))
    if float(np.max(gaps)) > CERTIFICATE_GAP_TOL:
        raise NumericalFailureError(
            f"subdifferential certificate failed: max gap {float(np.max(gaps))!r}"
        )
    if not value_law(u_sharp, cluster_tol).matches(law):
        raise NumericalFailureError("rearrangement output is not equimeasurable with input")
    return u_sharp, psi


def _solve_law_transport(atom_map: SampledMap, target: DiscreteMeasure):
    cost = build_cost(atom_map, target)
    return solve_mk(cost, atom_map.domain, target)


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
