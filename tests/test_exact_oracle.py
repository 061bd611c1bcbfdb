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
from polarfact.transport import build_cost, solve_mk
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


# verify judges the inclusion gap and the objective by absolute or
# unit-floored bounds, so below these scales it certifies a suboptimal plan
# (ROADMAP item 4)
VERIFY_CERTIFIES_SUBOPTIMAL = range(-20, -15)


def shuffled_verify_case(tmp_path, scale):
    """TestVerify's 5-point 1-D instance with coordinates and values times
    ``scale``: factorize it, roll the optimal plan's columns by one, and
    verify the rolled plan against the factorize result's psi.

    Returns verify's exit code and the rolled plan's exact suboptimality:
    its exact primal value minus that of an optimal plan whose exact gap is 0.
    """
    rng = np.random.default_rng(4)
    n = 5
    coords = (scale * rng.normal(size=(n, 1))).tolist()
    values = (scale * rng.normal(size=(n, 1))).tolist()
    u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
    write(u_path, json.dumps({"measure": measure_doc([1 / n] * n, prefix="x"), "values": values}))
    write(y_path, json.dumps(measure_doc([1 / n] * n, coords)))
    result = tmp_path / "result.json"
    assert main(["factorize", "--u", str(u_path), "--Y", str(y_path), "--out", str(result)]) == 0
    triplets = json.loads(result.read_text())["plan"]["triplets"]
    cols = [t["j"] for t in triplets]
    for t, j in zip(triplets, cols[1:] + cols[:1]):
        t["j"] = j
    plan_path = tmp_path / "rolled.json"
    write(plan_path, json.dumps({"triplets": triplets}))
    code = main(["verify", "--u", str(u_path), "--Y", str(y_path),
                 "--plan", str(plan_path), "--psi", str(result)])

    u, Y = io.read_sampled_map(str(u_path)), io.read_measure(str(y_path))
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    # a zero exact gap makes the dual bound the exact optimum
    assert exact_gap(plan, duals, cost) == 0
    rolled = io.read_plan(str(plan_path), u.domain, Y)
    return code, exact_gap(rolled, duals, cost)


@pytest.mark.parametrize("k", [
    pytest.param(k, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 4: verify certifies a suboptimal plan at small scales"))
    if k in VERIFY_CERTIFIES_SUBOPTIMAL else k
    for k in range(-20, 21)
])
def test_verify_rejects_a_suboptimal_plan_at_power_of_two_scale(tmp_path, capsys, k):
    code, suboptimality = shuffled_verify_case(tmp_path, 2.0**k)
    assert suboptimality > 0
    assert code != 0, capsys.readouterr().err
