"""An exact-arithmetic optimality oracle (ROADMAP item 6).

Take phi from ``solve_mk`` and its exact c-transform
phi'_i = min_j (C_ij - phi_j) over the exact float values of C.  The pair
(phi', phi) is feasible by construction, so sum_i w_i phi'_i + sum_j v_j phi_j
is an exact lower bound on the optimum of the float cost matrix, and the
plan's exact primal value minus that bound bounds its suboptimality.  The
oracle uses no tolerance and does not rely on the solver's duals being
feasible.

Coordinate scales are powers of two, which scale C exactly, so every scale
must read a gap of exactly 0.  A pricing tolerance with a floor of 1 in
place of a bound relative to max|C| left plans up to 70% of max|C| above
the optimum at 2^-20.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from polarfact import io
from polarfact.cli import main
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.transport import build_cost, objective, solve_mk
from test_cli import measure_doc, write
from test_scale_sweep import random_2d_instance


def exact_gap(plan, duals, cost):
    """Exact primal value minus the exact dual bound of (phi', phi)."""
    C = [[Fraction(c) for c in row] for row in cost.entries.tolist()]
    phi = [Fraction(p) for p in duals.phi.tolist()]
    phi_c = [min(c - p for c, p in zip(row, phi)) for row in C]
    bound = sum(Fraction(w) * p for w, p in zip(plan.mu.weights.tolist(), phi_c))
    bound += sum(Fraction(v) * p for v, p in zip(plan.nu.weights.tolist(), phi))
    primal = sum(
        Fraction(t) * C[i][j]
        for i, j, t in zip(plan.rows.tolist(), plan.cols.tolist(), plan.masses.tolist())
    )
    return primal - bound


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [-20, -17, -14, 0, 14, 20])
def test_optimal_at_power_of_two_scale(k, seed):
    u, Y = random_2d_instance(seed, 2.0**k, 0.0)
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    assert exact_gap(plan, duals, cost) == 0


def verify_case(tmp_path, coords, values, move):
    """Factorize the uniform 1-D instance with these target coordinates and
    map values, verify the result, rearrange the optimal plan's columns by
    ``move`` (a function of the column list), and verify the moved plan
    against the factorize result's psi.

    Returns verify's exit codes on the factorize result and on the moved
    plan, and the moved plan's exact suboptimality: its exact primal value
    minus that of an optimal plan whose exact gap is 0.
    """
    n = len(coords)
    u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
    write(u_path, json.dumps({"measure": measure_doc([1 / n] * n, prefix="x"), "values": values}))
    write(y_path, json.dumps(measure_doc([1 / n] * n, coords)))
    result = tmp_path / "result.json"
    assert main(["factorize", "--u", str(u_path), "--Y", str(y_path), "--out", str(result)]) == 0
    own = main(["verify", "--u", str(u_path), "--Y", str(y_path),
                "--plan", str(result), "--psi", str(result)])
    triplets = json.loads(result.read_text())["plan"]["triplets"]
    for t, j in zip(triplets, move([t["j"] for t in triplets])):
        t["j"] = j
    plan_path = tmp_path / "moved.json"
    write(plan_path, json.dumps({"triplets": triplets}))
    code = main(["verify", "--u", str(u_path), "--Y", str(y_path),
                 "--plan", str(plan_path), "--psi", str(result)])

    u, Y = io.read_sampled_map(str(u_path)), io.read_measure(str(y_path))
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    # a zero exact gap makes the dual bound the exact optimum
    assert exact_gap(plan, duals, cost) == 0
    moved = io.read_plan(str(plan_path), u.domain, Y)
    return own, code, exact_gap(moved, duals, cost)


def shuffled_verify_case(tmp_path, scale, offset=0.0):
    """``verify_case`` on TestVerify's 5-point 1-D instance with coordinates
    and values times ``scale`` plus ``offset``, the plan's columns rolled by
    one."""
    rng = np.random.default_rng(4)
    coords = (scale * rng.normal(size=(5, 1)) + offset).tolist()
    values = (scale * rng.normal(size=(5, 1)) + offset).tolist()
    return verify_case(tmp_path, coords, values, lambda cols: cols[1:] + cols[:1])


@pytest.mark.parametrize("k", range(-20, 21))
def test_verify_rejects_a_suboptimal_plan_at_power_of_two_scale(tmp_path, capsys, k):
    own, code, suboptimality = shuffled_verify_case(tmp_path, 2.0**k)
    assert own == 0, capsys.readouterr().err
    assert suboptimality > 0
    assert code != 0, capsys.readouterr().err


# psi ~ |y|^2/2 then carries rounding on the scale of the offset squared,
# which can exceed the rolled plan's Fenchel gaps, while C, taken in
# difference form, stays exact: the objective check must catch the plan
@pytest.mark.parametrize("offset", [1e2, 1e4, 1e6])
@pytest.mark.parametrize("k", [-20, 0, 20])
def test_verify_judges_by_the_exact_oracle_at_an_offset(tmp_path, capsys, k, offset):
    own, code, suboptimality = shuffled_verify_case(tmp_path, 2.0**k, offset)
    assert own == 0, capsys.readouterr().err
    assert suboptimality > 0
    assert code != 0, capsys.readouterr().err


# one far point makes max|C| and the largest scores about 5e11, far above
# the Fenchel gaps (about 0.5) and the excess (1/3) of the plan that swaps
# the two near points: each gap and the excess must be judged on the terms
# they were computed from, not on the largest entry of the matrix
def test_verify_judges_a_mixed_scale_instance_by_the_exact_oracle(tmp_path, capsys):
    sites = [[0.0], [1.0], [1e6]]
    own, code, suboptimality = verify_case(
        tmp_path, sites, sites, lambda cols: [cols[1], cols[0]] + cols[2:])
    assert own == 0, capsys.readouterr().err
    assert suboptimality > 0
    assert code != 0, capsys.readouterr().err


def test_extreme_weighted_1d_instance_is_exactly_optimal():
    """Weights that differ from 1/3 in the last bit force 1.1e-16 of mass
    onto a cost of 5e305, so I = 5.55e289, while the duals reach 5e305.
    Their dual value, summed over the weights, cancels to 3.9e289, but the
    reduced costs of the support cells, which ``solve_mk`` judges against
    I, are 0, and the exact oracle agrees: the plan is optimal."""
    w = [1 / 3, 1 / 3, 0.3333333333333334]
    X = DiscreteMeasure(("x0", "x1", "x2"), w)
    Y = DiscreteMeasure(("y0", "y1", "y2"), w, [[1e153], [-1e153], [1.0]])
    cost = build_cost(SampledMap(X, [[-1e153], [0.0], [1e153]]), Y)
    plan, duals = solve_mk(cost, X, Y)
    assert objective(plan, cost) == pytest.approx(5.551115123125783e289)
    assert exact_gap(plan, duals, cost) == 0
