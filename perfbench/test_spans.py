"""Tests of the benchmark's tracing: run with

    python3 -m pytest perfbench/test_spans.py -q

from the root of a source checkout.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

run._import_library()

from spans import FUNCTIONS, Tracer, bindings, bound_wrappers, is_wrapper  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from polarfact.errors import SplitAtomError  # noqa: E402


def _original(name):
    mod, fn = name.split(".")
    return getattr(sys.modules[f"polarfact.{mod}"], fn)


def test_install_rebinds_every_binding_and_uninstall_restores_them():
    originals = {name: _original(name) for name in FUNCTIONS}
    before = {name: bindings(fn) for name, fn in originals.items()}
    # solve_mk and build_cost are imported by name into several modules
    assert len(before["transport.solve_mk"]) >= 4
    tracer = Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            assert bindings(fn) == [], f"{name} still bound unwrapped"
            for mod, attr in before[name]:
                assert is_wrapper(getattr(mod, attr))
    finally:
        tracer.uninstall()
    assert bound_wrappers() == []
    for name, fn in originals.items():
        assert bindings(fn) == before[name]


def test_untraced_ops_run_without_wrappers(tmp_path):
    workload = WORKLOADS["random-2d"](0, str(tmp_path))
    seen = []
    op = workload.op

    def checked_op(instance):
        seen.append(bound_wrappers())
        return op(instance)

    workload.op = checked_op
    loop = run.Loop(workload)
    loop.for_seconds(1e-9)
    assert seen and all(found == [] for found in seen)
    assert loop.failed == 0


@pytest.mark.parametrize(
    "workload, n_ops, solves, cost_builds",
    [
        ("random-2d", 2, 2, 2),
        ("gallery-cli", 3, 12, 15),  # verify solves twice: 4 solves, 5 cost builds per op
        ("monotone-1d", 2, 2, 2),  # both cases run strict mode: one solve
    ],
)
def test_traced_counts_per_op(tmp_path, workload, n_ops, solves, cost_builds):
    w = WORKLOADS[workload](0, str(tmp_path))
    loop = run.Loop(w)
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(n_ops):
            loop.run_op(i, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["calls"]["transport.solve_mk"] == solves
    assert summary["calls"]["transport.build_cost"] == cost_builds
    assert loop.unexpected == []
    assert 0.9 < summary["coverage_frac"] <= 1.0
    assert bound_wrappers() == []


def test_refine_probe_solves_twice_and_counts_the_known_defect(tmp_path):
    w = WORKLOADS["monotone-1d"](0, str(tmp_path))
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        w.op(w.probe[0], mode="refine")
    except SplitAtomError as e:
        assert "still split" in str(e)
    finally:
        tracer.end_op()
        tracer.uninstall()
    assert tracer.summary()["calls"]["transport.solve_mk"] == 2
    assert w.finish() == []
    assert 0 <= w.probe_defects <= w.probes
