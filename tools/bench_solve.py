"""Time the solve, value-law, CLI-pipeline, certificate or 1-D staircase layer of two source trees.

    python3 tools/bench_solve.py [--suite pricing|value_law|solve_cache|certificates|staircase] OLD_SRC NEW_SRC [OUT]

Loads the ``polarfact`` package of each tree under its own module name and
times, alternating old and new in this one process.  The ``pricing`` suite
(the default) times:

- ``build_cost`` + ``solve_mk`` on random 2-D instances of 80, 400 and 800
  points per side, uniform and weighted, drawn from ``default_rng(0)``:
  standard-normal values, then standard-normal sites; weighted instances
  then draw both sides' weights from U(0.1, 1.1) and rescale the target to
  the source's total, uniform ones give every point 1/n;
- ``polar_factorize`` on the flat-segment and injective-control gallery
  instances at N=24 (576 points per side).

Every pair of calls must return byte-identical plans and duals, or the run
stops with an error.  The pivot counts of the new tree's solver (with its
full and partial pricing passes, when it counts them) go with its medians.

The ``value_law`` suite times the monotone-1d pipeline: strict
``monotone_rearrangement``, then ``value_law`` of its output, the heavy
designation of its shared values, ``construct_m_to_1(., 3)`` and
``multiplicity_report``, over a batch of instances per repeat: the first
uniform-target (n=44) and split-target (n=22) instances of perfbench's
monotone-1d workload at seed 0.  Each pair must return byte-identical
rearranged values, potentials and block values.

The ``solve_cache`` suite times the gallery-cli pipeline: in-process
``gallery``, ``factorize`` and ``verify`` at N=8 on the three gallery
families at gallery seeds 0-3, twelve instances per repeat, each tree
writing into its own temporary directory.  Each pair must give the same
exit codes and byte-identical files, and each tree's simplex
computations per instance go with the medians.

The ``certificates`` suite times ``polar_factorize`` and strict
``monotone_rearrangement`` on one 1-D instance of 2,000 points per side
with uniform weights, drawn from ``default_rng(0)``: standard-normal values,
then standard-normal sites.  Each pair must return byte-identical plans,
duals and potentials (for the rearrangement: rearranged values and
potential).  From one untimed call per tree, the tracemalloc peak and the
traced memory the returned result still holds go with the medians.

The ``staircase`` suite times the one-dimensional solves that start from
the north-west corner of the sorted supports: the ``value_law`` suite's
monotone-1d batches, then the ``certificates`` suite's calls, with the
same checks.

The medians, their ratio and the layer the change is meant to move go to
OUT (default ``BENCH_<suite>.json``).  BLAS is held to one thread.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

SIZES = (80, 400, 800)
REPEATS = {80: 21, 400: 5, 800: 3}
GALLERY = ("flat-segment", "injective-control")
GALLERY_N = 24
GALLERY_REPEATS = 3
MONOTONE_SIZES = {"uniform": 44, "split": 22}
MONOTONE_SEED = 0
MONOTONE_BATCH = 60
MONOTONE_REPEATS = 21
BLOCK_FACTOR = 3
PIPELINE_GRID = 8
PIPELINE_SEEDS = range(4)
PIPELINE_REPEATS = 11
CERTIFICATES_N = 2000
CERTIFICATES_REPEATS = 11
LAYERS = {"pricing": "pricing", "value_law": "measures.value_law",
          "solve_cache": "transport.solve_mk", "certificates": "certificates",
          "staircase": "initial basis, dual strictification"}


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


def source_digest(module) -> str:
    with open(module.__file__, "rb") as fh:
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


def uniform_1d(lib, n: int):
    rng = np.random.default_rng(0)
    values, sites = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
    w = np.full(n, 1.0 / n)
    X = lib.DiscreteMeasure(tuple(f"x{i}" for i in range(n)), w)
    Y = lib.DiscreteMeasure(tuple(f"y{j}" for j in range(n)), w, sites)
    return lib.SampledMap(X, values), Y


def monotone_1d(lib, i: int):
    """Instance i of perfbench's monotone-1d workload: even i have a uniform
    target, odd i a split one."""
    rng = np.random.default_rng([MONOTONE_SEED, i])
    if i % 2 == 0:
        n = MONOTONE_SIZES["uniform"]
        weights = np.full(n, 1.0 / n)
    else:
        n = MONOTONE_SIZES["split"]
        # site weights that sum to each value's mass in turn
        counts = rng.integers(1, 4, n)
        parts = rng.uniform(0.5, 1.5, counts.sum())
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        weights = parts / np.repeat(np.add.reduceat(parts, starts), counts) / n

    def measure(prefix, w, coords=None):
        return lib.DiscreteMeasure(tuple(f"{prefix}{k}" for k in range(len(w))), w, coords)

    u = lib.SampledMap(measure("x", np.full(n, 1.0 / n)), rng.uniform(-1, 1, n))
    sites = np.sort(rng.uniform(-1, 1, weights.size))[:, None]
    return u, measure("y", weights / weights.sum(), sites)


def monotone_op(lib, batch) -> bytes:
    out = []
    for u, Y in batch:
        u_sharp, psi = lib.monotone_rearrangement(u, Y)
        law = lib.value_law(u_sharp)
        shared = [law.values[k] for k in range(law.n_atoms) if len(law.members[k]) > 1]
        heavy = lib.HeavyAtoms(np.asarray(shared)) if shared else None
        block = lib.construct_m_to_1(u_sharp, BLOCK_FACTOR, heavy)
        report = lib.multiplicity_report(block, heavy)
        out += [u_sharp.values, psi.psi_values, block.values, report.masses, report.point_counts]
    return b"".join(a.tobytes() for a in out)


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
    sx = lib.transport._Simplex(cost.entries, u.domain.weights, Y.weights, cost.tol)
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
            raise SystemExit(f"{name}: outputs differ between the trees")
    old, new = statistics.median(times["old"]), statistics.median(times["new"])
    print(f"{name}: old {old:.4f} s, new {new:.4f} s, ratio {new / old:.3f}", flush=True)
    return {"old_s": old, "new_s": new, "ratio": new / old, "repeats": repeats}


def pricing_suite(libs) -> dict:
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
    return results


def value_law_suite(libs) -> dict:
    # a batch of distinct instances per repeat, so no repeat finds the laws
    # of the one before it in a law cache
    results = {}
    for parity, (case, n) in enumerate(MONOTONE_SIZES.items()):
        name = f"monotone-1d {case} n={n}, {MONOTONE_BATCH} ops"
        indices = range(parity, 2 * MONOTONE_BATCH, 2)
        batch = {s: [monotone_1d(libs[s], i) for i in indices] for s in libs}
        ops = {s: (lambda s=s: monotone_op(libs[s], batch[s])) for s in libs}
        results[name] = paired(name, MONOTONE_REPEATS, ops)
    return results


def pipeline_op(lib, out_root: str) -> bytes:
    """gallery, factorize and verify on every pipeline instance; returns
    the exit codes and the bytes of every file written, in order."""
    cli = importlib.import_module(lib.__name__ + ".cli")
    out = []
    for seed in PIPELINE_SEEDS:
        for family in lib.polar.GALLERY_NAMES:
            d = os.path.join(out_root, f"{family}-{seed}")
            u, Y, fac = (os.path.join(d, f) for f in ("u.json", "Y.json", "factorize.json"))
            with contextlib.redirect_stderr(io.StringIO()):
                codes = (
                    cli.main(["gallery", "--name", family, "--grid", str(PIPELINE_GRID),
                              "--seed", str(seed), "--out", d]),
                    cli.main(["factorize", "--u", u, "--Y", Y, "--out", fac]),
                    cli.main(["verify", "--u", u, "--Y", Y, "--plan", fac, "--psi", fac,
                              "--out", os.path.join(d, "verify.json")]),
                )
            out.append(repr(codes).encode())
            for name in sorted(os.listdir(d)):
                with open(os.path.join(d, name), "rb") as fh:
                    out += [name.encode(), fh.read()]
    return b"\0".join(out)


def simplex_runs(lib, out_root: str) -> float:
    """Simplex computations per pipeline instance, from one untimed op."""
    simplex = lib.transport._Simplex
    solve, runs = simplex.solve, []

    def counted(self, order=None):
        runs.append(1)
        return solve(self, order)

    simplex.solve = counted
    try:
        pipeline_op(lib, out_root)
    finally:
        simplex.solve = solve
    return len(runs) / (len(PIPELINE_SEEDS) * len(lib.polar.GALLERY_NAMES))


def solve_cache_suite(libs) -> dict:
    name = (f"gallery+factorize+verify N={PIPELINE_GRID}, "
            f"{len(PIPELINE_SEEDS) * 3} instances")
    with tempfile.TemporaryDirectory() as tmp:
        roots = {s: os.path.join(tmp, s) for s in libs}
        ops = {s: (lambda s=s: pipeline_op(libs[s], roots[s])) for s in libs}
        result = paired(name, PIPELINE_REPEATS, ops)
        result["simplex_runs_per_instance"] = {s: simplex_runs(libs[s], roots[s]) for s in libs}
    return {name: result}


def traced_mb(call) -> dict:
    """Tracemalloc peak of one call, and the traced memory its result holds."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return {"peak_mb": peak / 2**20, "held_mb": held / 2**20}


# the certified calls, each with the bytes of its plan, duals and potential
# (monotone_rearrangement, strict by default, returns u_sharp and psi)
CERTIFIED_CALLS = {
    "polar_factorize": lambda r: fingerprint(r.plan, r.duals) + r.psi.psi_values.tobytes(),
    "monotone_rearrangement": lambda r: r[0].values.tobytes() + r[1].psi_values.tobytes(),
}


def certificates_suite(libs) -> dict:
    results = {}
    inst = {s: uniform_1d(libs[s], CERTIFICATES_N) for s in libs}
    for func, digest in CERTIFIED_CALLS.items():
        name = f"{func} 1-D uniform n={CERTIFICATES_N}"
        calls = {s: (lambda s=s: getattr(libs[s], func)(*inst[s])) for s in libs}
        ops = {s: (lambda s=s: digest(calls[s]())) for s in libs}
        results[name] = {**paired(name, CERTIFICATES_REPEATS, ops),
                         **{f"{s}_tracemalloc": traced_mb(calls[s]) for s in libs}}
    return results


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=sorted(LAYERS), default="pricing")
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("out", nargs="?")
    args = parser.parse_args(argv[1:])
    out_path = args.out or f"BENCH_{args.suite}.json"
    libs = {"old": load(args.old_src, "polarfact_old"),
            "new": load(args.new_src, "polarfact_new")}
    if args.suite == "pricing":
        results, module = pricing_suite(libs), "transport"
    elif args.suite == "value_law":
        results, module = value_law_suite(libs), "measures"
    elif args.suite == "certificates":
        results, module = certificates_suite(libs), "convex"
    elif args.suite == "staircase":
        results, module = {**value_law_suite(libs), **certificates_suite(libs)}, "transport"
    else:
        results, module = solve_cache_suite(libs), "transport"
    record = {
        "layer": LAYERS[args.suite],
        "harness": "tools/bench_solve.py: paired medians in one process, old and new alternating",
        # the trees, named by the digest of the module that holds the layer
        f"old_{module}_sha256": source_digest(getattr(libs["old"], module)),
        f"new_{module}_sha256": source_digest(getattr(libs["new"], module)),
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
