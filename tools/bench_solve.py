"""Time the transport solve of two source trees against each other.

    python3 tools/bench_solve.py OLD_SRC NEW_SRC [OUT]

Loads the ``polarfact`` package of each tree under its own module name and
times, alternating old and new in this one process:

- ``build_cost`` + ``solve_mk`` on random 2-D instances of 80, 400 and 800
  points per side, uniform and weighted, drawn from ``default_rng(0)``:
  standard-normal values, then standard-normal sites; weighted instances
  then draw both sides' weights from U(0.1, 1.1) and rescale the target to
  the source's total, uniform ones give every point 1/n;
- ``polar_factorize`` on the flat-segment and injective-control gallery
  instances at N=24 (576 points per side).

Every pair of calls must return byte-identical plans and duals, or the run
stops with an error.  The medians, their ratio, the pivot counts of the new
tree's solver (with its full and partial pricing passes, when it counts
them) and the layer the change is meant to move go to OUT (default
``BENCH_pricing.json``).  BLAS is held to one thread.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import hashlib
import importlib.util
import json
import platform
import statistics
import sys
import time

import numpy as np

SIZES = (80, 400, 800)
REPEATS = {80: 21, 400: 5, 800: 3}
GALLERY = ("flat-segment", "injective-control")
GALLERY_N = 24
GALLERY_REPEATS = 3
LAYER = "pricing"


def load(src: str, alias: str):
    """The polarfact package under ``src``, imported as ``alias``."""
    pkg = os.path.join(os.path.abspath(src), "polarfact")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def source_digest(lib) -> str:
    with open(lib.transport.__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def random_2d(lib, n: int, weighted: bool):
    rng = np.random.default_rng(0)
    values, sites = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    if weighted:
        wa, wb = rng.uniform(0.1, 1.1, n), rng.uniform(0.1, 1.1, n)
        wa = wa / wa.sum()
        wb = wb * (wa.sum() / wb.sum())
    else:
        wa = wb = np.full(n, 1.0 / n)
    measure = lib.DiscreteMeasure
    X = measure(tuple(f"x{i}" for i in range(n)), wa)
    Y = measure(tuple(f"y{j}" for j in range(n)), wb, sites)
    return lib.SampledMap(X, values), Y


def fingerprint(plan, duals) -> bytes:
    return b"".join(a.tobytes() for a in (plan.rows, plan.cols, plan.masses,
                                          duals.phi_c, duals.phi))


def solve_op(lib, u, Y):
    cost = lib.build_cost(u, Y)
    return fingerprint(*lib.solve_mk(cost, u.domain, Y))


def factorize_op(lib, u, Y):
    result = lib.polar_factorize(u, Y)
    return fingerprint(result.plan, result.duals)


def pivot_counts(lib, u, Y) -> dict:
    cost = lib.build_cost(u, Y)
    sx = lib.transport._Simplex(cost.entries, u.domain.weights, Y.weights)
    counts = {"pivots": sx.solve(cost.order), "degenerate": sx.degenerate_pivots}
    for key in ("full_passes", "partial_passes"):
        if hasattr(sx, key):
            counts[key] = getattr(sx, key)
    return counts


def paired(name, repeats, ops) -> dict:
    """Alternate the old and new op, check their outputs agree, report medians."""
    times = {"old": [], "new": []}
    for r in range(repeats):
        order = ("old", "new") if r % 2 == 0 else ("new", "old")
        out = {}
        for side in order:
            t0 = time.perf_counter()
            out[side] = ops[side]()
            times[side].append(time.perf_counter() - t0)
        if out["old"] != out["new"]:
            raise SystemExit(f"{name}: plans or duals differ between the trees")
    old, new = statistics.median(times["old"]), statistics.median(times["new"])
    print(f"{name}: old {old:.4f} s, new {new:.4f} s, ratio {new / old:.3f}", flush=True)
    return {"old_s": old, "new_s": new, "ratio": new / old, "repeats": repeats}


def main(argv) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    out_path = argv[3] if len(argv) == 4 else "BENCH_pricing.json"
    libs = {"old": load(argv[1], "polarfact_old"), "new": load(argv[2], "polarfact_new")}
    results = {}
    for n in SIZES:
        for weighted in (False, True):
            name = f"{'weighted' if weighted else 'uniform'} {n}x{n} build_cost+solve_mk"
            inst = {s: random_2d(libs[s], n, weighted) for s in libs}
            ops = {s: (lambda s=s: solve_op(libs[s], *inst[s])) for s in libs}
            results[name] = {**paired(name, REPEATS[n], ops),
                             **pivot_counts(libs["new"], *inst["new"])}
    for family in GALLERY:
        name = f"polar_factorize {family} N={GALLERY_N}"
        inst = {s: libs[s].gallery_instance(family, GALLERY_N)[:2] for s in libs}
        ops = {s: (lambda s=s: factorize_op(libs[s], *inst[s])) for s in libs}
        results[name] = {**paired(name, GALLERY_REPEATS, ops),
                         **pivot_counts(libs["new"], *inst["new"])}
    record = {
        "layer": LAYER,
        "harness": "tools/bench_solve.py: paired medians in one process, old and new alternating",
        # the trees, named by the digest of their solver module
        "old_transport_sha256": source_digest(libs["old"]),
        "new_transport_sha256": source_digest(libs["new"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "results": results,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
