import numpy as np
import pytest

from polarfact.convex import ConvexPotential
from polarfact.errors import (
    CertificateMissingError,
    InclusionNotCertifiedError,
    MarginalMismatchError,
    NotMeasurePreservingError,
    UnknownGalleryNameError,
    UnknownLabelError,
)
from polarfact.measures import DiscreteMeasure, SampledMap, equimeasurable
from polarfact.polar import (
    FACTORISATION,
    INCLUSION_ONLY,
    degeneracy_report,
    gallery_instance,
    plan_from_map,
    polar_factorize,
    verify_optimality_of_inclusion,
    verify_polar_inclusion,
)
from polarfact.rearrangement import multiplicity_report
from polarfact.transport import (
    TransportPlan,
    brute_force_mk,
    build_cost,
    duality_certificate,
    objective,
    random_plan,
    shifted_objective,
    solve_mk,
)


def uniform(n, total=1.0, coords=None, prefix="x"):
    return DiscreteMeasure.uniform(n, total, coords=coords, prefix=prefix)


def gradient_pairing_instance(rng, n, dim=2, non_uniform=False):
    """Instance where u(x) is by construction a subgradient at s(x).

    psi samples a smooth strictly convex quadratic F on random sites;
    u(x_i) = grad F(y_sigma(i)), which lies in the discrete subdifferential
    at y_sigma(i) because F(y_k) >= F(y_j) + grad F(y_j) . (y_k - y_j).
    """
    coords = rng.normal(size=(n, dim))
    if non_uniform:
        wy = rng.integers(1, 7, n) / 8.0
    else:
        wy = np.full(n, 1.0 / n)
    Y = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), wy, coords)
    D = rng.uniform(0.5, 2.0, dim)
    c = rng.normal(size=dim)
    psi = ConvexPotential(Y, 0.5 * (coords**2 @ D) + coords @ c)
    grad = coords * D[None, :] + c[None, :]
    sigma = rng.permutation(n)
    X = DiscreteMeasure(tuple(f"x{i}" for i in range(n)), wy[sigma])
    u = SampledMap(X, grad[sigma])
    s = {f"x{i}": Y.labels[sigma[i]] for i in range(n)}
    return u, Y, psi, s


class TestPlanFromMap:
    def test_identity_diagonal(self):
        m = uniform(3)
        Y = uniform(3, coords=np.zeros((3, 1)), prefix="x")
        plan = plan_from_map({f"x{i}": f"x{i}" for i in range(3)}, m, Y)
        assert plan.triplets == [(0, 0, 1 / 3), (1, 1, 1 / 3), (2, 2, 1 / 3)]

    def test_constant_map_overloads_column(self):
        m = uniform(2)
        Y = uniform(2, coords=[[0.0], [1.0]], prefix="y")
        with pytest.raises(NotMeasurePreservingError):
            plan_from_map({"x0": "y0", "x1": "y0"}, m, Y)

    def test_swap_antidiagonal(self):
        m = uniform(2)
        Y = uniform(2, coords=[[0.0], [1.0]], prefix="y")
        plan = plan_from_map({"x0": "y1", "x1": "y0"}, m, Y)
        assert plan.triplets == [(0, 1, 0.5), (1, 0, 0.5)]
        plan.validate()

    def test_check_can_be_waived(self):
        m = uniform(2)
        Y = uniform(2, coords=[[0.0], [1.0]], prefix="y")
        plan = plan_from_map({"x0": "y0", "x1": "y0"}, m, Y, check=False)
        assert plan.col_sums()[0] == pytest.approx(1.0)

    def test_partial_map_rejected(self):
        m = uniform(2)
        Y = uniform(2, coords=[[0.0], [1.0]], prefix="y")
        with pytest.raises(UnknownLabelError, match="'x1' missing"):
            plan_from_map({"x0": "y0"}, m, Y, check=False)

    def test_sets_no_attribute_on_the_target_measure(self):
        m = uniform(2)
        Y = uniform(2, coords=[[0.0], [1.0]], prefix="y")
        before = dict(vars(Y))
        plan = plan_from_map({"x0": "y1", "x1": "y0"}, m, Y)
        assert plan.cols.tolist() == [1, 0] and vars(Y).keys() == before.keys()

    def test_unknown_target_rejected(self):
        m = uniform(2)
        Y = uniform(2, coords=[[0.0], [1.0]], prefix="y")
        with pytest.raises(UnknownLabelError, match="'zz' not in target"):
            plan_from_map({"x0": "zz", "x1": "y0"}, m, Y, check=False)


class TestVerifyPolarInclusion:
    def test_solved_zero_cost_instance(self):
        coords = np.array([[0.0], [1.0]])
        Y = uniform(2, coords=coords, prefix="y")
        u = SampledMap(uniform(2), coords)
        cost = build_cost(u, Y)
        plan, duals = solve_mk(cost, u.domain, Y)
        psi = ConvexPotential(Y, 0.5 * coords[:, 0] ** 2 - duals.phi)
        ok, gap = verify_polar_inclusion(plan, psi, u)
        assert ok and gap == pytest.approx(0.0, abs=1e-15)

    def test_gradient_pairing_certifies(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            u, Y, psi, s = gradient_pairing_instance(rng, int(rng.integers(2, 12)))
            plan = plan_from_map(s, u.domain, Y)
            ok, gap = verify_polar_inclusion(plan, psi, u)
            assert ok
            assert gap <= 1e-10

    def test_single_site_perturbation_breaks_certificate(self):
        # duplicate site: raising psi at one copy leaves the other copy's
        # score as the conjugate max, so the gap at the raised copy is 0.1
        coords = np.array([[0.5], [0.5], [-1.0]])
        Y = uniform(3, coords=coords, prefix="y")
        u = SampledMap(uniform(3), coords)
        psi_vals = 0.5 * coords[:, 0] ** 2
        plan = plan_from_map({"x0": "y0", "x1": "y1", "x2": "y2"}, u.domain, Y)
        ok, _ = verify_polar_inclusion(plan, ConvexPotential(Y, psi_vals), u)
        assert ok
        perturbed = psi_vals.copy()
        perturbed[0] += 0.1
        tol = 1e-8
        ok, gap = verify_polar_inclusion(plan, ConvexPotential(Y, perturbed), u)
        assert not ok
        assert gap >= 0.1 - tol

    def test_negative_index_refused(self):
        # row -2 would wrap to x0 and score the tight cell (x0, y0)
        coords = np.array([[0.0], [1.0]])
        Y = uniform(2, coords=coords, prefix="y")
        u = SampledMap(uniform(2), coords)
        psi = ConvexPotential(Y, 0.5 * coords[:, 0] ** 2)
        plan = TransportPlan([-2, 1], [0, 1], [0.5, 0.5], u.domain, Y)
        for check in (verify_polar_inclusion, shifted_objective, verify_optimality_of_inclusion):
            with pytest.raises(MarginalMismatchError, match="row index -2"):
                check(plan, psi, u)


class TestPolarFactorize:
    def test_sorting_permutation_1d(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 8):
            vals = np.sort(rng.normal(size=n))[rng.permutation(n)]
            u = SampledMap(uniform(n), vals.reshape(-1, 1))
            Y = uniform(n, coords=np.sort(rng.normal(size=n)).reshape(-1, 1), prefix="y")
            result = polar_factorize(u, Y)
            assert result.classification == FACTORISATION
            # the factor map sends the k-th smallest value to the k-th site
            order_u = np.argsort(vals)
            expected = {f"x{i}": f"y{int(np.argsort(order_u)[i])}" for i in range(n)}
            assert result.factor_map == expected
            cost = build_cost(u, Y)
            assert objective(result.plan, cost) == pytest.approx(
                brute_force_mk(cost, u.domain, Y), rel=1e-9, abs=1e-12
            )

    def test_fixed_point_gradient_samples(self):
        rng = np.random.default_rng(9)
        coords = rng.normal(size=(6, 2))
        Y = uniform(6, coords=coords, prefix="y")
        grad = 1.5 * coords + 0.2 * coords**3
        u = SampledMap(DiscreteMeasure(Y.labels, Y.weights), grad)
        result = polar_factorize(u, Y)
        assert result.classification == FACTORISATION
        assert result.factor_map == {lbl: lbl for lbl in Y.labels}
        assert result.max_gap <= 1e-10
        np.testing.assert_array_equal(result.u_sharp.values, grad)

    def test_split_forcing_instance(self):
        X = DiscreteMeasure(("x0", "x1"), [1 / 3, 2 / 3])
        Y = DiscreteMeasure(
            ("y0", "y1", "y2"), [1 / 3, 1 / 3, 1 / 3], [[0.0], [1.0], [2.0]]
        )
        u = SampledMap(X, [[0.0], [2.0]])
        result = polar_factorize(u, Y)
        assert result.classification == INCLUSION_ONLY
        assert result.factor_map is None
        ok, _ = verify_polar_inclusion(result.plan, result.psi, u)
        assert ok

    def test_factorisation_invariants(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            u, Y, _, _ = gradient_pairing_instance(rng, int(rng.integers(3, 10)))
            result = polar_factorize(u, Y)
            assert result.classification == FACTORISATION
            rebuilt = plan_from_map(result.factor_map, u.domain, Y)
            assert sorted(rebuilt.triplets) == sorted(
                (i, j, m) for i, j, m in result.plan.triplets
            )
            assert equimeasurable(result.u_sharp, u)
            # u(x) equals u_sharp(s(x)) exactly on every support row
            for i, lbl in enumerate(u.domain.labels):
                j = Y.index_of(result.factor_map[lbl])
                np.testing.assert_array_equal(u.values[i], result.u_sharp.values[j])
            assert shifted_objective(result.plan, result.psi, u) <= 1e-9

    def test_gallery_flat_segment_certifies_either_way(self):
        u, Y, _ = gallery_instance("flat-segment", 16, seed=1)
        result = polar_factorize(u, Y)
        ok, _ = verify_polar_inclusion(result.plan, result.psi, u)
        assert ok
        cost = build_cost(u, Y)
        rep = degeneracy_report(result.plan, result.duals, cost)
        if result.classification == FACTORISATION:
            assert rep.degeneracy_index > 0.0
        assert rep.split_index <= rep.degeneracy_index + 1e-12


class TestVerifyOptimality:
    def test_gradient_pairing_plan_is_optimal(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            u, Y, psi, s = gradient_pairing_instance(
                rng, int(rng.integers(2, 10)), non_uniform=bool(trial % 2)
            )
            pi = plan_from_map(s, u.domain, Y)
            assert verify_optimality_of_inclusion(pi, psi, u)

    def test_solver_output_self_consistent(self):
        rng = np.random.default_rng(13)
        u, Y, _, _ = gradient_pairing_instance(rng, 7)
        result = polar_factorize(u, Y)
        assert verify_optimality_of_inclusion(result.plan, result.psi, u)

    def test_random_plan_fails_precondition(self):
        rng = np.random.default_rng(14)
        u, Y, _, _ = gradient_pairing_instance(rng, 8)
        result = polar_factorize(u, Y)
        rejected = 0
        for seed in range(20):
            pi = random_plan(u.domain, Y, seed)
            ok, gap = verify_polar_inclusion(pi, result.psi, u)
            if not ok:
                rejected += 1
                with pytest.raises(InclusionNotCertifiedError):
                    verify_optimality_of_inclusion(pi, result.psi, u)
        assert rejected > 0


class TestGallery:
    def test_unknown_name(self):
        with pytest.raises(UnknownGalleryNameError):
            gallery_instance("no-such-instance", 8)

    def test_odd_grid_rejected_for_flat(self):
        with pytest.raises(ValueError):
            gallery_instance("flat-segment", 7)
        with pytest.raises(ValueError):
            gallery_instance("m-to-1-flat", 7)

    def test_flat_segment_multiplicity(self):
        N = 8
        u, Y, heavy = gallery_instance("flat-segment", N)
        rep = multiplicity_report(u, heavy)
        assert rep.n_atoms == 2 * N
        assert rep.m_to_1 == N // 2
        np.testing.assert_allclose(rep.masses, (N // 2) * (4.0 / N**2))

    def test_m_to_1_flat_properties(self):
        N = 8
        u, Y, heavy = gallery_instance("m-to-1-flat", N)
        grad = np.column_stack([np.sign(Y.coords[:, 0]), Y.coords[:, 1]])
        u_sharp = SampledMap(Y, grad)
        assert equimeasurable(u, u_sharp)
        rep = multiplicity_report(u, heavy)
        assert rep.is_almost_m_to_1(2)
        assert rep.m_to_1 == 2

    def test_injective_control_factorises_cleanly(self):
        for N in (8, 16):
            u, Y, _ = gallery_instance("injective-control", N, seed=0)
            result = polar_factorize(u, Y)
            assert result.classification == FACTORISATION
            cost = build_cost(u, Y)
            rep = degeneracy_report(result.plan, result.duals, cost)
            assert rep.degeneracy_index == 0.0
            assert rep.split_index == 0.0

    def test_deterministic_per_name_grid_seed(self):
        a_u, a_Y, _ = gallery_instance("flat-segment", 8, seed=3)
        b_u, b_Y, _ = gallery_instance("flat-segment", 8, seed=3)
        np.testing.assert_array_equal(a_u.values, b_u.values)
        assert a_u.domain.labels == b_u.domain.labels
        np.testing.assert_array_equal(a_Y.coords, b_Y.coords)


class TestGalleryRegression:
    # frozen baseline from the first recorded run; the pipeline is
    # deterministic so these values must reproduce bit-for-bit
    BASELINE = {8: (1.0, 0.0), 16: (1.0, 0.0), 32: (1.0, 0.0)}

    def _indices(self, N):
        u, Y, _ = gallery_instance("flat-segment", N, seed=0)
        result = polar_factorize(u, Y)
        rep = degeneracy_report(result.plan, result.duals, build_cost(u, Y))
        return rep.degeneracy_index, rep.split_index

    def test_flat_segment_baseline_small(self):
        seen = [self._indices(N) for N in (8, 16)]
        for (deg, split), N in zip(seen, (8, 16)):
            assert (deg, split) == self.BASELINE[N]
        degs = [d for d, _ in seen]
        assert degs == sorted(degs)  # nondecreasing in N

    @pytest.mark.slow
    def test_flat_segment_baseline_n32(self):
        assert self._indices(32) == self.BASELINE[32]

    def test_m_to_1_flat_is_inclusion_only(self):
        u, Y, _ = gallery_instance("m-to-1-flat", 8)
        result = polar_factorize(u, Y)
        # rows carry mass 1/N but sites only 4/N^2, so rows must split
        assert result.classification == INCLUSION_ONLY
        ok, gap = verify_polar_inclusion(result.plan, result.psi, u)
        assert ok and gap <= 1e-8
        assert verify_optimality_of_inclusion(result.plan, result.psi, u)


class TestDegeneracyReport:
    def test_split_never_exceeds_degeneracy(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            n = int(rng.integers(3, 12))
            coords = rng.normal(size=(n, 2))
            Y = DiscreteMeasure(tuple(f"y{j}" for j in range(n)), np.full(n, 1.0 / n), coords)
            X = DiscreteMeasure(tuple(f"x{i}" for i in range(n)), np.full(n, 1.0 / n))
            u = SampledMap(X, rng.normal(size=(n, 2)))
            cost = build_cost(u, Y)
            plan, duals = solve_mk(cost, X, Y)
            rep = degeneracy_report(plan, duals, cost)
            assert rep.split_index <= rep.degeneracy_index + 1e-12

    def test_requires_certificate(self):
        coords = np.array([[0.0], [1.0]])
        Y = uniform(2, coords=coords, prefix="y")
        u = SampledMap(uniform(2), [[1.0], [0.0]])
        cost = build_cost(u, Y)
        plan, duals = solve_mk(cost, u.domain, Y)
        from polarfact.convex import DualPair

        broken = DualPair(duals.phi_c - 1.0, duals.phi, cost)
        with pytest.raises(CertificateMissingError):
            degeneracy_report(plan, broken, cost)
