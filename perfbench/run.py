"""polarfact benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload random-2d --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The line before it is a JSON record with the
environment, the op counts behind each statistic and the full per-function
span table.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# One BLAS thread, set before numpy is first imported, so runs do not
# depend on how many cores the machine has free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from speed import NOMINAL_S, Speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 11

# Self times reported as per-layer metrics: the functions that run on every
# workload, so none of these reads a constant 0.  The record carries the
# self time of every traced function.
LAYER_SELF_TIMES = (
    "transport.build_cost",
    "transport.solve_mk",
    "transport.duality_certificate",
    "transport.objective",
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: build the workload, print the monotonic clock and exit.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "polarfact", "__init__.py")):
        sys.exit(f"error: no polarfact sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import polarfact

    if not os.path.abspath(polarfact.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: polarfact imported from {polarfact.__file__}, not {SRC}")
    sys.path.insert(0, HERE)


def _pin_to_one_cpu() -> dict:
    """Keep this process (and the interpreters it starts) on one CPU: a
    process left free to move between CPUs ran the same solves up to 1.5x
    slower, for the whole run."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return {"allowed": cpus, "pinned": cpus[0]}


def _setup_seconds(workload: str, seed: int) -> tuple:
    """Set-up time of a fresh process: from starting the interpreter to
    the moment it would run its first op, having imported the library,
    built the workload's instances from the seed and made its temp dir.
    ``time.monotonic`` is one clock for all processes on Linux.  Returns
    the set-up time and the perf_counter times the probe started and
    ended."""
    start = time.perf_counter()
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--setup-probe"],
        capture_output=True, text=True, check=True,
    )
    return float(out.stdout.split()[-1]) - t0, start, time.perf_counter()


class Loop:
    """Closed loop: one caller, the next op starts when the last one ends.
    Op ``k`` runs instance ``k % batch``, so instances repeat in order."""

    def __init__(self, workload):
        self.workload = workload
        self.times: list = []  # wall time of every untraced op
        self.spans: list = []  # (start, end) perf_counter of every untraced op
        self.traced: list = []  # wall time of every traced op
        self.failed = 0
        self.unexpected: list = []  # what went wrong in each failed op
        self.speed = Speed()  # reference readings between ops, untimed

    def run_op(self, i: int, tracer=None) -> float:
        w = self.workload
        args = w.inputs(i)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = w.op(args)
            exc = None
        except Exception as e:  # an op that raises is a failed op
            exc = e
        t1 = time.perf_counter()
        dt = t1 - t0
        if tracer is not None:
            tracer.end_op()
            self.traced.append(dt)
        else:
            self.times.append(dt)
            self.spans.append((t0, t1))
        if exc is not None:
            self.failed += 1
            self.unexpected.append(f"op {i}: {type(exc).__name__}: {exc}")
            return dt
        try:
            problems = w.check(i, out)
        except Exception as e:
            problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            self.unexpected.extend(f"op {i}: {p}" for p in problems)
        return dt

    def for_seconds(self, seconds: float, every=None) -> int:
        """Run untraced ops until their wall time reaches ``seconds``;
        returns the number of ops.  ``every(busy)`` is called, untimed,
        after each op with the op wall time so far."""
        busy = 0.0
        self.speed.mark()
        while busy < seconds:
            busy += self.run_op(len(self.times) % self.workload.batch)
            if every is not None:
                every(busy)
            if self.speed.due():
                self.speed.mark()
        self.speed.mark()
        return len(self.times)

    def traced_ops(self, n_ops: int, tracer) -> int:
        """Run the first ``n_ops`` instances twice each, untraced and
        traced, the order alternating from one instance to the next;
        returns the number of ops traced."""
        for k in range(n_ops):
            i = k % self.workload.batch
            for traced in (False, True) if k % 2 == 0 else (True, False):
                if not traced:
                    self.run_op(i)
                    continue
                tracer.install()
                try:
                    self.run_op(i, tracer)
                finally:
                    tracer.uninstall()
        return n_ops


def _tail(times):
    """The time at the highest percentile with at least 10 times beyond it."""
    s = sorted(times)
    n = len(s)
    k = max(n - 11, 0)
    return s[k], {"percentile": 100.0 * k / (n - 1) if n > 1 else 100.0,
                  "beyond": n - 1 - k, "count": n}


def _environment(load_start, cpus) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus": cpus,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _end_to_end(loop, n_ops: int, setups: list, peak_mb: float, record: dict) -> dict:
    """Each op and set-up time scaled to nominal machine speed by the
    reference readings around it (speed.py); the record keeps the
    wall-clock figures."""
    speed = loop.speed
    factors = [speed.factor(start, end) for start, end in loop.spans]
    times = [t * f for t, f in zip(loop.times, factors)]
    setup_times = [s * speed.factor(start, end) for s, start, end in setups]
    raw_setups = [s for s, _, _ in setups]
    tail, record["op_s.tail"] = _tail(times)
    record["distinct_instances"] = min(n_ops, loop.workload.batch)
    record["fail_frac"] = loop.failed / n_ops
    record["speed"] = {"factor_p50": statistics.median(factors), "factor_min": min(factors),
                       "factor_max": max(factors), "readings": len(speed.readings),
                       "nominal_reference_s": NOMINAL_S}
    record["wall_clock"] = {"setup_s": statistics.median(raw_setups),
                            "ops_per_s": n_ops / sum(loop.times),
                            "op_s.p50": statistics.median(loop.times),
                            "op_s.tail": _tail(loop.times)[0]}
    record["setup"]["fresh_process_s"] = raw_setups
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n_ops / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
        "ok_frac": (n_ops - loop.failed) / n_ops,
        "peak_rss_mb": peak_mb,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def _per_layer(loop, n_ops: int, tracer, workload, record: dict) -> dict:
    from spans import FUNCTIONS, LAYERS
    from workloads import GALLERY_FAMILIES

    summary = tracer.summary()
    traced_s = sum(loop.traced)
    untraced_s = sum(loop.times)
    record["spans"] = {
        "untraced_s": untraced_s, "traced_s": traced_s, "ops_each": n_ops,
        "self_s": summary["self_s"], "calls": summary["calls"],
        "array_bytes": summary["array_bytes"],
    }
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = _metric(summary["calls"][name], "count")
    for name in LAYER_SELF_TIMES:
        out[f"{name}.self_s"] = _metric(summary["self_s"][name], "s")
    for mod in LAYERS:
        out[f"{mod}.errors"] = _metric(summary["errors"][mod], "count")
    for key, value in summary["counters"].items():
        out[key] = _metric(value, "bytes" if key.startswith("io.") else "count")
    observed = getattr(workload, "observables", {})
    for family in GALLERY_FAMILIES:
        obs = observed.get(family, {})  # -1: the workload runs no gallery instance
        for key in ("factorisation", "degeneracy_index", "split_index"):
            out[f"polar.{family}.{key}"] = _metric(obs.get(key, -1), "ratio")
    # -1: the workload runs no refine-mode probe
    probe = getattr(workload, "probe_defects", -1)
    out["rearrangement.refine_probe.split_errors"] = _metric(probe, "count")
    out["trace.coverage_frac"] = _metric(summary["coverage_frac"], "ratio")
    out["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    load_start = os.getloadavg()
    cpus = _pin_to_one_cpu()
    _import_library()

    from spans import Tracer, bound_wrappers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be > 0")

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        in_process_setup_s = time.perf_counter() - PROCESS_T0
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "inputs": workload.describe(),
                  "closed_loop": {"clients": 1, "distinct_instances": workload.batch}}
        loop = Loop(workload)
        if args.trace:
            tracer = Tracer()
            n_ops = loop.traced_ops(workload.trace_ops, tracer)
            finish_problems = workload.finish()
            metrics = _per_layer(loop, n_ops, tracer, workload, record)
        else:
            # Fresh-process set-ups are spread evenly over the run, so their
            # median does not hang on one slow moment of the machine.
            setups = []

            def probe(busy):
                if len(setups) < SETUP_REPEATS and busy >= len(setups) * args.seconds / SETUP_REPEATS:
                    setups.append(_setup_seconds(args.workload, args.seed))

            n_ops = loop.for_seconds(args.seconds, every=probe)
            peak_mb = _peak_rss_mb()
            while len(setups) < SETUP_REPEATS:
                setups.append(_setup_seconds(args.workload, args.seed))
            record["setup"] = {"in_process_s": in_process_setup_s}
            metrics = _end_to_end(loop, n_ops, setups, peak_mb, record)
            finish_problems = workload.finish()
        wrappers = bound_wrappers()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)

    unexpected = loop.unexpected + finish_problems
    if wrappers:
        unexpected.append(f"tracer wrappers left bound: {wrappers}")
    record.update(workload.record())
    record["unexpected_failures"] = unexpected[:20]
    record["environment"] = _environment(load_start, cpus)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": not unexpected, "attempted": len(loop.times) + len(loop.traced),
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
