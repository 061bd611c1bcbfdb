"""Certificates judged on the scale of what they measure (ROADMAP items 4 and 5).

The inclusion gaps and the conjugate identity are read from the solver's
own reduced costs, so they are judged by its ``solver_tol``, relative to
max|C|.  An absolute bound of 1e-8 turned residuals of about 1e-17 of
max|C| into certification failures once max|C| passed 1e3; the exact
oracle of ``test_exact_oracle`` confirms the plans are optimal.  Masses are
judged relative to themselves, with no floor of 1, so a change of mass
scale by 2^k changes no verdict.
"""

from fractions import Fraction

import numpy as np
import pytest

from polarfact import io
from polarfact.cli import main
from polarfact.errors import NotMeasurePreservingError, UnequalMassError
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import plan_from_map, polar_factorize
from polarfact.rearrangement import monotone_rearrangement
from polarfact.tolerances import check_balanced
from polarfact.transport import build_cost, solve_mk
from test_exact_oracle import exact_gap
from test_scale_sweep import random_2d_instance


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [17, 20])
def test_factorize_certified_at_large_coordinate_scale(k, seed):
    u, Y = random_2d_instance(seed, 2.0**k, 0.0)
    result = polar_factorize(u, Y)
    assert exact_gap(result.plan, result.duals, build_cost(u, Y)) == 0


def offset_1d_instance(seed, n=30):
    """Values U[0, 1) + 2^20 against sorted sites U[0, 1): max|C| is near 2^39."""
    rng = np.random.default_rng(seed)
    X = DiscreteMeasure.uniform(n, prefix="x")
    u = SampledMap(X, rng.random(n) + 2.0**20)
    Y = DiscreteMeasure.uniform(n, coords=np.sort(rng.random(n)), prefix="y")
    return u, Y


@pytest.mark.parametrize("seed", range(5))
def test_factorize_certified_far_from_the_sites(seed):
    u, Y = offset_1d_instance(seed)
    result = polar_factorize(u, Y)
    assert result.is_factorisation
    # uniform masses of 1/30 miss their marginals by rounding, so the exact
    # gap is not 0, but it stays below one ulp of max|C|
    cost = build_cost(u, Y)
    ulp = Fraction(float(np.spacing(np.max(cost.entries))))
    assert abs(exact_gap(result.plan, result.duals, cost)) <= ulp


@pytest.mark.parametrize("seed", range(5))
def test_monotone_certified_far_from_the_sites(seed):
    u, Y = offset_1d_instance(seed)
    u_sharp, _ = monotone_rearrangement(u, Y)
    # sorted sites take the values in sorted order
    np.testing.assert_array_equal(u_sharp.values[:, 0], np.sort(u.values[:, 0]))


@pytest.mark.parametrize("command", ["factorize", "monotone"])
@pytest.mark.parametrize("seed", range(5))
def test_cli_certifies_far_from_the_sites(tmp_path, capsys, seed, command):
    u, Y = offset_1d_instance(seed)
    u_path, y_path = str(tmp_path / "u.json"), str(tmp_path / "Y.json")
    io.write_text(u_path, io.dumps(io.sampled_map_to_dict(u)))
    io.write_text(y_path, io.dumps(io.measure_to_dict(Y)))
    assert main([command, "--u", u_path, "--Y", y_path, "--out", str(tmp_path / "out.json")]) == 0
    assert capsys.readouterr().err == ""


MASS_SCALES = [2.0**k for k in (-30, -20, 0, 20)]


@pytest.mark.parametrize("scale", MASS_SCALES)
def test_unequal_totals_refused_at_every_mass_scale(scale):
    with pytest.raises(UnequalMassError):
        check_balanced(scale, 2 * scale)


@pytest.mark.parametrize("scale", MASS_SCALES)
def test_all_to_one_map_refused_at_every_mass_scale(scale):
    mu = DiscreteMeasure.uniform(2, total=scale, prefix="x")
    nu = DiscreteMeasure.uniform(2, total=scale, coords=[[0.0], [1.0]], prefix="y")
    with pytest.raises(NotMeasurePreservingError):
        plan_from_map({"x0": "y0", "x1": "y0"}, mu, nu)


@pytest.mark.parametrize("scale", MASS_SCALES)
def test_solve_commutes_with_mass_scale(scale):
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 1.1, 40)
    v = rng.uniform(0.1, 1.1, 40)
    v *= w.sum() / v.sum()
    values, sites = rng.normal(size=(40, 2)), rng.normal(size=(40, 2))

    def solve(s):
        X = DiscreteMeasure(tuple(f"x{i}" for i in range(40)), w * s)
        Y = DiscreteMeasure(tuple(f"y{j}" for j in range(40)), v * s, sites)
        return solve_mk(build_cost(SampledMap(X, values), Y), X, Y)

    (plan, duals), (base, base_duals) = solve(scale), solve(1.0)
    np.testing.assert_array_equal(plan.rows, base.rows)
    np.testing.assert_array_equal(plan.cols, base.cols)
    np.testing.assert_array_equal(plan.masses, base.masses * scale)
    np.testing.assert_array_equal(duals.phi_c, base_duals.phi_c)
    np.testing.assert_array_equal(duals.phi, base_duals.phi)
