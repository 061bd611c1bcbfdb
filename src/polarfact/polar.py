"""Polar factorisation / polar inclusion pipeline and degeneracy diagnostics.

The pipeline solves the quadratic transport problem between a sampled map u
and a target measure Y, certifies u(x) in the discrete subdifferential of
psi(y) = |y|^2/2 - phi(y) for every support pair of the optimal plan from
the duals' reduced costs, and returns psi, formed from the target dual.
When every source point sends its whole mass to a single target (and
coincident targets receive a single value), the plan is the graph of a
measure-preserving map s and u factors exactly as u = u_sharp o s;
otherwise the plan itself is the inclusion witness.

A finite instance always has an optimal plan, so the continuum
non-existence phenomenon cannot occur verbatim here; its discrete shadow is
the degeneracy index (mass fraction of sources with several zero-reduced-
cost targets) and the split index (sources whose optimal mass actually
splits), produced by :func:`degeneracy_report` and exercised by the
instance gallery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import ConvexPotential, DualPair, _reduced_costs
from .errors import (
    CertificateMissingError,
    InclusionNotCertifiedError,
    NotMeasurePreservingError,
    NumericalFailureError,
    UnknownGalleryNameError,
    UnknownLabelError,
)
from .measures import DiscreteMeasure, SampledMap, value_law
from .rearrangement import HeavyAtoms, construct_m_to_1
from .tolerances import dominant, gap_vanishes, sums_match
from .transport import (
    CostMatrix,
    TransportPlan,
    _support_gaps,
    build_cost,
    duality_certificate,
    inclusion_gap,
    objective,
    slackness_gap,
    solve_mk,
)

FACTORISATION = "Factorisation"
INCLUSION_ONLY = "InclusionOnly"

GALLERY_NAMES = ("flat-segment", "m-to-1-flat", "injective-control")


def plan_from_map(
    s: dict, mu: DiscreteMeasure, nu: DiscreteMeasure, check: bool = True
) -> TransportPlan:
    """Pushforward plan of a label-to-label map: triplets (i, s(i), mu_i).

    With ``check`` (the default) the column sums must reproduce nu, i.e. the
    map must be measure-preserving; the worst column discrepancy is reported
    otherwise.
    """
    rows = np.arange(mu.size)
    cols = np.empty(mu.size, dtype=int)
    index = {label: j for j, label in enumerate(nu.labels)}
    for i, label in enumerate(mu.labels):
        if label not in s:
            raise UnknownLabelError(f"map is not total: {label!r} missing")
        try:
            cols[i] = index[s[label]]
        except KeyError:
            raise UnknownLabelError(f"target label {s[label]!r} not in target measure") from None
    plan = TransportPlan(rows, cols, mu.weights.copy(), mu, nu)
    if check:
        sums = plan.col_sums()
        if not sums_match(sums, nu.weights, nu.total_mass):
            worst = int(np.argmax(np.abs(sums - nu.weights)))
            raise NotMeasurePreservingError(
                f"column {nu.labels[worst]!r} receives {sums[worst]!r} "
                f"instead of {nu.weights[worst]!r}"
            )
    return plan


def verify_polar_inclusion(plan: TransportPlan, psi: ConvexPotential, u: SampledMap):
    """Check u(x) in the subdifferential of psi at y on the plan's support.

    Returns (certified, max_gap): the largest Fenchel gap over support
    triplets and whether every gap vanishes relative to the magnitude of
    the two scores u(x) . y - psi(y) it subtracts.
    """
    gaps, magnitude = _support_gaps(plan, psi, u)
    return bool(np.all(gap_vanishes(gaps, magnitude))), float(np.max(gaps, initial=0.0))


@dataclass(frozen=True)
class PolarResult:
    """Outcome of the factorisation pipeline on one instance."""

    plan: TransportPlan
    duals: DualPair
    psi: ConvexPotential
    max_gap: float
    classification: str
    factor_map: dict | None
    u_sharp: SampledMap | None
    conjugate_identity_error: float
    row_residues: np.ndarray
    certificate: dict

    @property
    def is_factorisation(self) -> bool:
        return self.classification == FACTORISATION


def polar_factorize(u: SampledMap, Y: DiscreteMeasure) -> PolarResult:
    """Solve, certify the subdifferential inclusion, and extract a factor map
    when the optimal plan is the graph of one.

    Both certificates read the duals' reduced costs R, which hold no |y|^2
    term: a support cell's Fenchel gap is its R above its row minimum, and
    the conjugate identity asks each row minimum to be 0.  Both hold at any
    optimum, so each is judged by the solver's own tolerance, ``cost.tol``,
    and a failure is a solver defect, not a property of the instance.
    """
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    psi = ConvexPotential(Y, 0.5 * np.sum(Y.coords * Y.coords, axis=1) - duals.phi)

    max_gap = inclusion_gap(duals, plan.rows, plan.cols)
    # psi*(u_i) = |u_i|^2/2 - phi_c_i - min_k R_ik: row minima are the identity's residuals
    identity_err = float(np.max(np.abs(duals.row_min)))
    if not identity_err <= cost.tol:
        raise NumericalFailureError(
            f"conjugate identity violated by {identity_err!r} at some source point"
        )

    classification, factor_map, u_sharp, residues = _classify(plan, u, Y)
    if classification == FACTORISATION:
        if not value_law(u_sharp).matches(value_law(u)):
            raise NumericalFailureError("factor output is not equimeasurable with input")
    return PolarResult(
        plan=plan,
        duals=duals,
        psi=psi,
        max_gap=max_gap,
        classification=classification,
        factor_map=factor_map,
        u_sharp=u_sharp,
        conjugate_identity_error=identity_err,
        row_residues=residues,
        certificate=duality_certificate(plan, duals, cost),
    )


def _classify(plan: TransportPlan, u: SampledMap, Y: DiscreteMeasure):
    """Factorisation when each row is deterministic and coincident targets
    receive a single value; InclusionOnly otherwise."""
    m = plan.mu.size
    best_col, best_mass = plan.dominant_partners("row")
    residues = plan.mu.weights - best_mass
    deterministic = np.all(dominant(best_mass, plan.mu.weights))
    if not deterministic:
        return INCLUSION_ONLY, None, None, residues

    # each site takes the value of the first row sent to it; a later row
    # with another value would need a second value there: no factoring map
    first = np.full(Y.size, m)
    np.minimum.at(first, best_col, np.arange(m))
    if np.any(first == m):
        return INCLUSION_ONLY, None, None, residues
    target_vals = u.values[first]
    if not np.array_equal(target_vals[best_col], u.values):
        return INCLUSION_ONLY, None, None, residues
    factor_map = {plan.mu.labels[i]: Y.labels[best_col[i]] for i in range(m)}
    return FACTORISATION, factor_map, SampledMap(Y, target_vals), residues


def verify_optimality_of_inclusion(pi: TransportPlan, psi: ConvexPotential, u: SampledMap) -> bool:
    """Confirm against the optimum of ``solve_mk`` that a certified
    inclusion plan is optimal, and that its gap-weighted objective vanishes.

    The gaps are judged as by ``verify_polar_inclusion`` and J(pi) against
    their plan-weighted magnitudes.  I(pi) may exceed I* only by a gap that
    vanishes against I(pi) + I*, the costs (all >= 0) both plans pay: C is
    exact under translation, so this catches a suboptimal plan at any
    offset and scale.  Inside ``transport.reusing_solves`` the optimum may
    be the block's solution of the same instance, certified again here.
    """
    gaps, magnitude = _support_gaps(pi, psi, u)
    if not np.all(gap_vanishes(gaps, magnitude)):
        raise InclusionNotCertifiedError(
            f"inclusion gap {float(np.max(gaps))!r} exceeds its tolerance"
        )
    cost = build_cost(u, pi.nu)
    opt_plan, _ = solve_mk(cost, pi.mu, pi.nu)
    i_pi, i_opt = objective(pi, cost), objective(opt_plan, cost)
    if not gap_vanishes(max(i_pi - i_opt, 0.0), i_pi + i_opt):
        return False
    # J(pi), the plan-weighted gap sum of ``shifted_objective``
    return bool(gap_vanishes(float(np.dot(pi.masses, gaps)), float(np.dot(pi.masses, magnitude))))


@dataclass(frozen=True)
class DegeneracyReport:
    """Zero-reduced-cost multiplicity per source row and its mass indices."""

    zero_column_counts: np.ndarray
    degeneracy_index: float
    split_index: float
    tol: float  # the zero test applied to reduced costs


def degeneracy_report(plan: TransportPlan, duals: DualPair, cost: CostMatrix) -> DegeneracyReport:
    """Mass fraction of rows with several optimal targets (degeneracy) and
    with genuinely split plan mass (split); split <= degeneracy always.

    A target is optimal for a row when its reduced cost is zero by the
    solver's own test, ``|reduced| <= cost.tol``.  Requires the
    zero-duality-gap certificate of the pair, as ``solve_mk`` takes it,
    since reduced costs are only meaningful against optimal duals.
    """
    reduced = _reduced_costs(cost.entries, duals.phi_c, duals.phi)
    gap = slackness_gap(plan, reduced[plan.rows, plan.cols])
    if not gap_vanishes(gap, objective(plan, cost)):
        raise CertificateMissingError(f"duality gap {gap!r} is not certified zero")
    zero_counts = np.sum(np.abs(reduced) <= cost.tol, axis=1).astype(int)
    w = plan.mu.weights
    total = plan.mu.total_mass
    degeneracy = float(np.sum(w[zero_counts >= 2]) / total)
    split = float(np.sum(w[plan.support_per_row() >= 2]) / total)
    return DegeneracyReport(zero_counts, degeneracy, split, cost.tol)


# ---------------------------------------------------------------------------
# instance gallery
# ---------------------------------------------------------------------------

def _square_grid(N: int, total: float = 4.0, prefix: str = "g") -> DiscreteMeasure:
    ticks = np.linspace(-1.0, 1.0, N)
    g1, g2 = np.meshgrid(ticks, ticks, indexing="ij")
    coords = np.column_stack([g1.ravel(), g2.ravel()])
    labels = tuple(f"{prefix}{a}_{b}" for a in range(N) for b in range(N))
    return DiscreteMeasure(labels, np.full(N * N, total / (N * N)), coords)


def _shuffled_source(values: np.ndarray, weights: np.ndarray, seed: int) -> SampledMap:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(values.shape[0])
    X = DiscreteMeasure(
        tuple(f"x{k}" for k in range(values.shape[0])), weights[perm]
    )
    return SampledMap(X, values[perm])


def gallery_instance(name: str, N: int, seed: int = 0):
    """Deterministic benchmark instances: (u, Y, heavy designations).

    flat-segment
        Y is the N x N grid on [-1, 1]^2 (even N keeps the grid off the
        y1 = 0 axis); the map is the gradient of |y1| + y2^2/2, whose value
        (sign(y1), y2) is shared by the N/2 grid points of a half-row, at a
        per-value mass of (N/2) * 4/N^2 that vanishes as N grows.
    m-to-1-flat
        The flat-segment gradient reduced to one carrier per value and then
        block-refined with factor 2: every value attained exactly twice,
        exactly equimeasurable with the gradient map.
    injective-control
        The gradient of a seeded strictly convex potential
        sum_d (a_d y_d^2/2 + eps y_d^4/4), injective on the grid, so the
        optimal plan is unique and row-deterministic.
    """
    if name not in GALLERY_NAMES:
        raise UnknownGalleryNameError(
            f"unknown gallery name {name!r}; expected one of {GALLERY_NAMES}"
        )
    if N < 2:
        raise ValueError(f"grid size must be >= 2, got {N}")
    if name in ("flat-segment", "m-to-1-flat") and N % 2 != 0:
        raise ValueError(f"{name} requires an even grid size to avoid the y1 = 0 axis")

    if name == "injective-control":
        Y = _square_grid(N)
        rng = np.random.default_rng(seed)
        a = rng.uniform(1.0, 1.5, size=2)
        eps = 0.1
        grad = a[None, :] * Y.coords + eps * Y.coords**3
        u = _shuffled_source(grad, Y.weights, seed)
        return u, Y, HeavyAtoms.none()

    Y = _square_grid(N)
    grad = np.column_stack([np.sign(Y.coords[:, 0]), Y.coords[:, 1]])

    if name == "flat-segment":
        u = _shuffled_source(grad, Y.weights, seed)
        return u, Y, HeavyAtoms.none()

    # m-to-1-flat: one carrier per distinct gradient value, then refine by 2
    law = value_law(SampledMap(Y, grad))
    base = DiscreteMeasure(
        tuple(f"v{k}" for k in range(law.n_atoms)), law.masses
    )
    v = SampledMap(base, law.values)
    u = construct_m_to_1(v, 2)
    return u, Y, HeavyAtoms.none()
