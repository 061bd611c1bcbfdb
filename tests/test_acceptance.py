"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from polarfact.convex import ConvexPotential, conjugate_many
from polarfact.measures import (
    DiscreteMeasure,
    SampledMap,
    equimeasurable,
    value_law,
)
from polarfact.polar import (
    FACTORISATION,
    degeneracy_report,
    gallery_instance,
    plan_from_map,
    polar_factorize,
    verify_optimality_of_inclusion,
    verify_polar_inclusion,
)
from polarfact.rearrangement import (
    HeavyAtoms,
    construct_m_to_1,
    monotone_rearrangement,
    multiplicity_report,
)
from polarfact.transport import (
    brute_force_mk,
    build_cost,
    duality_certificate,
    objective,
    random_plan,
    shifted_objective,
    solve_mk,
    worst_cycle_violation,
)


def _report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def _random_quadratic_instance(rng, m, n, dim=2, uniform_weights=True):
    coords = rng.normal(size=(n, dim))
    if uniform_weights:
        wa = np.full(m, 1.0 / m)
        wb = np.full(n, 1.0 / n)
    else:
        wa = rng.integers(1, 9, m).astype(float)
        wb = rng.integers(1, 9, n).astype(float)
        wa *= wb.sum() / wa.sum()
    X = DiscreteMeasure(tuple(f"x{i}" for i in range(m)), wa)
    Y = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), wb, coords)
    return SampledMap(X, rng.normal(size=(m, dim))), Y


@pytest.fixture(scope="module")
def solved_suite():
    """Shared pool of solved instances used by several criteria."""
    instances = []
    rng = np.random.default_rng(2024)
    for trial in range(24):
        m = int(rng.integers(2, 14))
        n = int(rng.integers(2, 14))
        u, Y = _random_quadratic_instance(
            rng, m, n, dim=int(rng.integers(1, 4)), uniform_weights=bool(trial % 2)
        )
        cost = build_cost(u, Y)
        plan, duals = solve_mk(cost, u.domain, Y)
        instances.append((u, Y, cost, plan, duals))
    return instances


class TestAcceptance:
    def test_criterion_1_oracle_equivalence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(200):
            n = 2 + trial % 7  # cycles through 2..8
            u, Y = _random_quadratic_instance(rng, n, n, dim=int(rng.integers(1, 4)))
            cost = build_cost(u, Y)
            plan, _ = solve_mk(cost, u.domain, Y)
            lp = objective(plan, cost)
            oracle = brute_force_mk(cost, u.domain, Y)
            worst = max(worst, abs(lp - oracle) / (1.0 + abs(oracle)))
        elapsed = time.perf_counter() - start
        _report(
            1,
            worst <= 1e-9 and elapsed < 30.0,
            f"200 instances, worst relative deviation {worst:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_2_duality_certificate(self):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        worst = 0.0
        sizes = [(5, 9), (30, 50), (80, 80), (120, 60), (200, 200), (500, 500)]
        for k, (m, n) in enumerate(sizes):
            u, Y = _random_quadratic_instance(rng, m, n, uniform_weights=(k == 0))
            cost = build_cost(u, Y)
            plan, duals = solve_mk(cost, u.domain, Y)
            plan.validate()
            cert = duality_certificate(plan, duals, cost)
            worst = max(worst, abs(cert["gap"]) / (1.0 + abs(cert["I"])))
        elapsed = time.perf_counter() - start
        _report(
            2,
            worst <= 1e-9 and elapsed < 60.0,
            f"sizes up to 500x500 incl. non-uniform, worst relative gap {worst:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_3_inclusion_implies_optimality(self):
        rng = np.random.default_rng(13)
        checked = 0
        for trial in range(50):
            n = int(rng.integers(3, 13))
            dim = int(rng.integers(1, 4))
            coords = rng.normal(size=(n, dim))
            w = rng.integers(1, 7, n) / 8.0
            Y = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), w, coords)
            D = rng.uniform(0.5, 2.0, dim)
            c0 = rng.normal(size=dim)
            psi = ConvexPotential(Y, 0.5 * (coords**2 @ D) + coords @ c0)
            sigma = rng.permutation(n)
            X = DiscreteMeasure(tuple(f"x{i}" for i in range(n)), w[sigma])
            u = SampledMap(X, (coords * D[None, :] + c0[None, :])[sigma])
            s = {f"x{i}": Y.labels[sigma[i]] for i in range(n)}
            pi = plan_from_map(s, X, Y)
            assert verify_optimality_of_inclusion(pi, psi, u)
            cost = build_cost(u, Y)
            i_pi = objective(pi, cost)
            best_random = min(
                objective(random_plan(X, Y, seed), cost) for seed in range(1000)
            )
            assert i_pi <= best_random + 1e-9 * (1.0 + abs(i_pi))
            checked += 1
        _report(3, checked == 50, f"{checked} constructed plans optimal, each beating 1000 random plans")

    def test_criterion_4_duals_give_certified_potential(self, solved_suite):
        worst_gap = 0.0
        worst_identity = 0.0
        for u, Y, cost, plan, duals in solved_suite:
            psi = ConvexPotential(Y, 0.5 * np.sum(Y.coords**2, axis=1) - duals.phi)
            ok, gap = verify_polar_inclusion(plan, psi, u)
            assert ok
            worst_gap = max(worst_gap, gap)
            conj = conjugate_many(psi, u.values)
            identity = np.max(
                np.abs(conj - (0.5 * np.sum(u.values**2, axis=1) - duals.phi_c))
            )
            worst_identity = max(worst_identity, float(identity))
        ok = worst_gap <= 1e-8 and worst_identity <= 1e-8
        _report(
            4,
            ok,
            f"{len(solved_suite)} solves: max inclusion gap {worst_gap:.2e}, "
            f"max conjugate-identity error {worst_identity:.2e}",
        )

    def test_criterion_5_objective_shift_constant(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for trial in range(20):
            m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            u, Y = _random_quadratic_instance(rng, m, n)
            cost = build_cost(u, Y)
            psi = ConvexPotential(Y, rng.normal(size=n))
            shifts = []
            scale = 1.0
            for seed in range(100):
                plan = random_plan(u.domain, Y, seed)
                i_val = objective(plan, cost)
                shifts.append(shifted_objective(plan, psi, u) - i_val)
                scale = max(scale, 1.0 + abs(i_val))
            spread = (max(shifts) - min(shifts)) / scale
            worst = max(worst, spread)
        _report(5, worst <= 1e-9, f"20 instances x 100 plans, worst relative spread {worst:.2e}")

    def test_criterion_6_block_construction(self):
        rng = np.random.default_rng(19)
        cases = 0
        # weights are multiples of 60/1024, so every split factor in 1..5
        # divides them into exact binary rationals and sums stay exact
        def dyadic_weight():
            return float(rng.integers(1, 9)) * 60.0 / 1024.0

        for trial in range(8):
            n_light = int(rng.integers(1, 6))
            n_heavy = int(rng.integers(0, 3))
            labels, weights, values = [], [], []
            k = 0
            heavy_vals = []
            for _ in range(n_light):
                labels.append(f"p{k}")
                weights.append(dyadic_weight())
                values.append([float(k), 0.0])
                k += 1
            for h in range(n_heavy):
                carriers = int(rng.integers(2, 4))
                hv = [100.0 + h, 1.0]
                heavy_vals.append(hv)
                for _ in range(carriers):
                    labels.append(f"p{k}")
                    weights.append(dyadic_weight())
                    values.append(hv)
                    k += 1
            dom = DiscreteMeasure(tuple(labels), np.asarray(weights))
            v = SampledMap(dom, np.asarray(values))
            heavy = HeavyAtoms(np.asarray(heavy_vals)) if heavy_vals else HeavyAtoms.none()
            heavy_mass_in = {
                tuple(hv): float(
                    sum(w for w, val in zip(weights, values) if val == hv)
                )
                for hv in heavy_vals
            }
            for m in range(1, 6):
                u = construct_m_to_1(v, m, heavy)
                assert equimeasurable(u, v)
                rep = multiplicity_report(u, heavy)
                assert rep.is_almost_m_to_1(m)
                law = value_law(u)
                for hv, mass in heavy_mass_in.items():
                    idx = np.nonzero(
                        np.all(law.values == np.asarray(hv)[None, :], axis=1)
                    )[0]
                    assert law.masses[idx[0]] == mass  # exact dyadic sums
                cases += 1
        _report(6, cases == 40, f"{cases} (instance, m) pairs law-exact and m-to-1")

    def test_criterion_7_monotone_rearrangement(self):
        rng = np.random.default_rng(23)
        sorted_ok = 0
        for trial in range(15):
            n = int(rng.integers(2, 25))
            vals = rng.normal(size=n)
            u = SampledMap(DiscreteMeasure.uniform(n), vals.reshape(-1, 1))
            Y = DiscreteMeasure.uniform(
                n, coords=np.sort(rng.normal(size=n)).reshape(-1, 1), prefix="y"
            )
            u_sharp, psi = monotone_rearrangement(u, Y)
            np.testing.assert_allclose(u_sharp.values.ravel(), np.sort(vals))
            sorted_ok += 1
        worst_gap = 0.0
        for trial in range(10):
            n = int(rng.integers(3, 20))
            u = SampledMap(DiscreteMeasure.uniform(n), rng.normal(size=(n, 2)))
            Y = DiscreteMeasure.uniform(n, coords=rng.normal(size=(n, 2)), prefix="y")
            u_sharp, psi = monotone_rearrangement(u, Y)
            assert equimeasurable(u_sharp, u)
            from polarfact.convex import fenchel_gap_many

            gaps = fenchel_gap_many(psi, u_sharp.values, np.arange(n))
            worst_gap = max(worst_gap, float(np.max(gaps)))
            again, _ = monotone_rearrangement(u_sharp, Y)
            np.testing.assert_array_equal(again.values, u_sharp.values)
        _report(
            7,
            sorted_ok == 15 and worst_gap <= 1e-8,
            f"15 sorting oracles, certificates <= {worst_gap:.2e}, idempotent",
        )

    def test_criterion_8_gallery_regression(self):
        for N in (8, 16):
            u, Y, _ = gallery_instance("injective-control", N, seed=0)
            result = polar_factorize(u, Y)
            cost = build_cost(u, Y)
            rep = degeneracy_report(result.plan, result.duals, cost)
            assert result.classification == FACTORISATION
            assert rep.degeneracy_index == 0.0
            assert rep.split_index <= rep.degeneracy_index + 1e-12
        u, Y, heavy = gallery_instance("flat-segment", 8, seed=0)
        mult = multiplicity_report(u, heavy)
        assert mult.m_to_1 == 4
        result = polar_factorize(u, Y)
        cost = build_cost(u, Y)
        rep = degeneracy_report(result.plan, result.duals, cost)
        assert rep.split_index <= rep.degeneracy_index + 1e-12
        _report(8, True, "injective-control clean at N in {8,16}; flat-segment counts N/2")

    def test_criterion_9_cyclical_monotonicity(self, solved_suite):
        worst = -np.inf
        cycles = 0
        for u, Y, cost, plan, duals in solved_suite:
            violation = worst_cycle_violation(plan, cost, n_samples=1000, max_len=5, seed=99)
            worst = max(worst, violation)
            cycles += 1000
        _report(
            9,
            worst <= 1e-9,
            f"{cycles} sampled cycles across {len(solved_suite)} plans, worst violation {worst:.2e}",
        )
