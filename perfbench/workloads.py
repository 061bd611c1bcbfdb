"""The three closed-loop workloads.

A workload makes ``batch`` instances from the seed during set-up; a run
cycles through them in order, and a traced run takes the first
``trace_ops``.  For instance ``i``, ``inputs(i)`` hands over its inputs
(untimed, the same for the same seed and ``i``), ``op`` runs the library
on them (timed) and ``check`` checks the outputs (untimed); ``finish``
checks the whole run.  ``op`` returns what ``check`` needs; a
raised exception is a failed op.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io as _stdio
import json
import os

import numpy as np

# Library functions are called through their modules so that the tracer's
# rebinding of module attributes sees every call.
from polarfact import cli, convex, measures, polar, rearrangement, transport
from polarfact.errors import SplitAtomError
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.rearrangement import HeavyAtoms

GALLERY_FAMILIES = polar.GALLERY_NAMES


@functools.lru_cache(maxsize=None)
def _labels(prefix: str, n: int) -> tuple:
    return tuple(f"{prefix}{k}" for k in range(n))


def _measure(prefix: str, weights, coords=None) -> DiscreteMeasure:
    return DiscreteMeasure(_labels(prefix, len(weights)), weights, coords)


def _weights(rng, n: int, weighted: bool) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, n) if weighted else np.ones(n)
    return w / w.sum()


class Random2D:
    """build_cost + solve_mk on random 2-D instances, alternating uniform
    weights (the degenerate assignment case) and random positive weights.

    The standard deviation of op time over instances is 27% of the mean,
    and the tail percentile of a run is set by its slowest few instances,
    so the batch is larger than a 30 s run's op count: each op of a run
    solves an instance of its own.

    The scipy oracle checks every uniform instance that ran, and the first
    ``linprog_instances`` weighted ones: ``linprog`` takes about 70 ms per
    instance, and checking all of them would add 30 s to a run.  Every op's
    plan is certified optimal by its dual certificate in ``check``.
    """

    name = "random-2d"
    size = 80
    batch = 1200
    trace_ops = 56
    linprog_instances = 64

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.instances = []
        for k in range(self.batch):
            weighted = k % 2 == 1
            n = self.size
            u = SampledMap(_measure("x", _weights(rng, n, weighted)), rng.uniform(-1, 1, (n, 2)))
            Y = _measure("y", _weights(rng, n, weighted), rng.uniform(-1, 1, (n, 2)))
            self.instances.append((u, Y, weighted))
        self.values: dict = {}  # instance -> I of the first solve
        self.digests: dict = {}  # instance -> plan digest of the first solve
        self.oracle_used: dict = {}

    def describe(self) -> dict:
        return {"size": f"{self.size}x{self.size}", "dimension": 2, "distinct_instances": self.batch,
                "cases": ["uniform weights", "random positive weights"],
                "linprog_instances": self.linprog_instances}

    def inputs(self, i: int):
        return self.instances[i]

    def op(self, instance):
        u, Y, _ = instance
        cost = transport.build_cost(u, Y)
        plan, duals = transport.solve_mk(cost, u.domain, Y)
        return cost, plan, duals

    def check(self, i: int, out) -> list:
        cost, plan, duals = out
        problems = []
        plan.validate()
        # primal and dual values recomputed here rather than taken from the
        # library's own certificate, which is part of what is checked
        primal = float(np.dot(plan.masses, cost.entries[plan.rows, plan.cols]))
        dual = duals.dual_value(plan.mu.weights, plan.nu.weights)
        if abs(primal - dual) > 1e-9 * (1.0 + abs(primal)):
            problems.append(f"duality gap {primal - dual!r}")
        solver_tol = 1e-11 * max(1.0, float(np.max(np.abs(cost.entries))))
        if duals.max_feasibility_violation() > solver_tol:
            problems.append(f"dual infeasible by {duals.max_feasibility_violation()!r}")
        digest = hashlib.sha256(
            plan.rows.tobytes() + plan.cols.tobytes() + plan.masses.tobytes()
        ).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            problems.append("repeat solve of one instance gave a different plan")
        self.values.setdefault(i, primal)
        return problems

    def finish(self) -> list:
        """Compare the optima of the instances that ran with scipy, when
        present: every uniform one, and the first weighted ones."""
        try:
            from scipy.optimize import linear_sum_assignment, linprog
            from scipy.sparse import coo_matrix
        except ImportError:
            self.oracle_used = {"certificate-only": len(self.values)}
            return []
        problems = []
        used = {"linear_sum_assignment": 0, "linprog-highs": 0, "weighted_unchecked": 0}
        for k, value in sorted(self.values.items()):
            u, Y, weighted = self.instances[k]
            if weighted and used["linprog-highs"] == self.linprog_instances:
                used["weighted_unchecked"] += 1
                continue
            C = 0.5 * np.sum((u.values[:, None, :] - Y.coords[None, :, :]) ** 2, axis=2)
            m, n = C.shape
            if weighted:
                cells = np.arange(m * n)
                A = coo_matrix(
                    (np.ones(2 * m * n), (np.concatenate([cells // n, m + cells % n]), np.concatenate([cells, cells]))),
                    shape=(m + n, m * n),
                )
                res = linprog(C.ravel(), A_eq=A, b_eq=np.concatenate([u.domain.weights, Y.weights]),
                              bounds=(0, None), method="highs")
                if res.status != 0:
                    problems.append(f"instance {k}: linprog failed: {res.message}")
                    continue
                oracle, rtol = float(res.fun), 1e-7
                used["linprog-highs"] += 1
            else:
                r, c = linear_sum_assignment(C)
                oracle, rtol = float(C[r, c].sum() / m), 1e-9
                used["linear_sum_assignment"] += 1
            if abs(value - oracle) > rtol * (1.0 + abs(oracle)):
                problems.append(f"instance {k}: I = {value!r} but oracle = {oracle!r}")
        self.oracle_used = used
        return problems

    def record(self) -> dict:
        return {"oracle": self.oracle_used}


class GalleryCLI:
    """In-process ``polarfact gallery``, ``factorize`` and ``verify`` on one
    gallery instance per op: the three families, each at ``seeds`` gallery
    seeds drawn from the workload seed."""

    name = "gallery-cli"
    grid = 8
    seeds = 24
    batch = 3 * seeds
    trace_ops = 3 * seeds
    expected = {
        "flat-segment": ((0, 0, 0), "Factorisation"),
        "m-to-1-flat": ((0, 10, 0), "InclusionOnly"),
        "injective-control": ((0, 0, 0), "Factorisation"),
    }

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.gallery_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, self.seeds)]
        self.dirs = {}
        for family in GALLERY_FAMILIES:
            for s in self.gallery_seeds:
                self.dirs[family, s] = os.path.join(workdir, f"{family}-{s}")
                os.makedirs(self.dirs[family, s], exist_ok=True)
        self.factorize_digest: dict = {}
        self.per_seed: dict = {}  # family -> gallery seed -> observables

    def describe(self) -> dict:
        return {"grid": self.grid, "size": f"{self.grid**2}x{self.grid**2}",
                "families": list(GALLERY_FAMILIES), "gallery_seeds": self.gallery_seeds}

    def inputs(self, i: int):
        return GALLERY_FAMILIES[i % 3], self.gallery_seeds[i // 3]

    def op(self, instance):
        family, seed = instance
        d = self.dirs[instance]
        u, Y, fac = (os.path.join(d, f) for f in ("u.json", "Y.json", "factorize.json"))
        messages = _stdio.StringIO()
        with contextlib.redirect_stderr(messages):
            codes = (
                cli.main(["gallery", "--name", family, "--grid", str(self.grid),
                          "--seed", str(seed), "--out", d]),
                cli.main(["factorize", "--u", u, "--Y", Y, "--out", fac]),
                cli.main(["verify", "--u", u, "--Y", Y, "--plan", fac, "--psi", fac,
                          "--out", os.path.join(d, "verify.json")]),
            )
        return instance, codes, messages.getvalue()

    def check(self, i: int, out) -> list:
        (family, seed), codes, messages = out
        want_codes, want_class = self.expected[family]
        if codes != want_codes:
            return [f"{family}: exit codes {codes}, expected {want_codes}: {messages.strip()[-300:]}"]
        d = self.dirs[family, seed]
        with open(os.path.join(d, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(d, "verify.json")) as fh:
            verify = json.load(fh)
        with open(os.path.join(d, "factorize.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        problems = []
        if report["classification"] != want_class:
            problems.append(f"{family}: classification {report['classification']}")
        if report["split_index"] > report["degeneracy_index"]:
            problems.append(f"{family}: split index above degeneracy index")
        if not (verify.get("inclusion_certified") and verify.get("optimality_certified")):
            problems.append(f"{family}: verify did not certify inclusion and optimality")
        if self.factorize_digest.setdefault((family, seed), digest) != digest:
            problems.append(f"{family}: factorize output differs between repeats")
        self.per_seed.setdefault(family, {})[seed] = (
            report["classification"] == "Factorisation",
            report["degeneracy_index"],
            report["split_index"],
        )
        return problems

    @property
    def observables(self) -> dict:
        """Per family, the mean over its gallery seeds of the factorisation
        flag, the degeneracy index and the split index."""
        out = {}
        for family, by_seed in self.per_seed.items():
            flags, degeneracy, split = zip(*by_seed.values())
            out[family] = {"factorisation": float(np.mean(flags)),
                           "degeneracy_index": float(np.mean(degeneracy)),
                           "split_index": float(np.mean(split)),
                           "seeds": len(by_seed)}
        return out

    def finish(self) -> list:
        return []

    def record(self) -> dict:
        return {"observables": self.observables}


class Monotone1D:
    """monotone_rearrangement of 1-D maps with distinct values, in strict
    mode, alternating two targets: uniform weights with one site per value
    (an injective rearrangement), and random positive weights that cut each
    value's mass into one to three sites (a many-to-one rearrangement).
    Each result is then block-refined (m = 3).

    Refine mode is not among the timed ops: on targets with random positive
    weights it raises SplitAtomError ("still split after one refinement")
    on most instances, a known library defect, and a benchmark op must not
    fail.  ``finish`` runs a fixed probe of refine-mode instances made from
    the seed, untimed, and counts the ones that hit the defect.

    The op time of a 1-D instance varies thirtyfold with its simplex pivot
    count, so the batch is larger than a 30 s run's op count: each op of a
    run solves an instance of its own, and the tail percentile is set by
    many instances, not by repeats of the few slowest of a smaller batch.
    """

    name = "monotone-1d"
    sizes = {"uniform": 44, "split": 22, "refine-probe": 22}
    batch = 3600
    trace_ops = 320
    probes = 8
    m = 3
    DEFECT = "SplitAtomError: refine mode reports sites still split after one refinement"

    def __init__(self, seed: int, workdir: str):
        self.instances = [self._instance(seed, i) for i in range(self.batch)]
        self.probe = [self._refine_instance(seed, k) for k in range(self.probes)]
        self.probe_defects = 0

    def describe(self) -> dict:
        return {"sizes": self.sizes, "dimension": 1, "distinct_instances": self.batch,
                "cases": ["strict mode, uniform target, one site per value",
                          "strict mode, random positive target weights, 1-3 sites per value"],
                "block_factor": self.m, "refine_probe_instances": self.probes}

    def _instance(self, seed: int, i: int):
        rng = np.random.default_rng([seed, i])
        if i % 2 == 0:
            n = self.sizes["uniform"]
            weights = np.full(n, 1.0 / n)
        else:
            # site weights that sum to each value's mass in turn, so the
            # monotone plan sends every site to a single value
            n = self.sizes["split"]
            counts = rng.integers(1, 4, n)
            parts = rng.uniform(0.5, 1.5, counts.sum())
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            weights = parts / np.repeat(np.add.reduceat(parts, starts), counts) / n
        u = SampledMap(_measure("x", np.full(n, 1.0 / n)), rng.uniform(-1, 1, n))
        sites = np.sort(rng.uniform(-1, 1, weights.size))[:, None]
        return u, _measure("y", weights / weights.sum(), sites)

    def _refine_instance(self, seed: int, k: int):
        rng = np.random.default_rng([seed, self.batch + k])
        n = self.sizes["refine-probe"]
        u = SampledMap(_measure("x", np.full(n, 1.0 / n)), rng.uniform(-1, 1, n))
        return u, _measure("y", _weights(rng, n, True), np.sort(rng.uniform(-1, 1, n))[:, None])

    def inputs(self, i: int):
        return self.instances[i]

    def op(self, instance, mode="strict"):
        u, Y = instance
        u_sharp, psi = rearrangement.monotone_rearrangement(u, Y, mode=mode)
        law = measures.value_law(u_sharp)
        shared = [law.values[k] for k in range(law.n_atoms) if len(law.members[k]) > 1]
        heavy = HeavyAtoms(np.asarray(shared)) if shared else None
        block = rearrangement.construct_m_to_1(u_sharp, self.m, heavy)
        report = rearrangement.multiplicity_report(block, heavy)
        return u, u_sharp, psi, block, report

    def check(self, i: int, out) -> list:
        u, u_sharp, psi, block, report = out
        values = u_sharp.values[:, 0]
        coords = u_sharp.domain.coords[:, 0]
        order = np.lexsort((values, coords))
        problems = []
        if np.any(np.diff(values[order]) < 0):
            problems.append("values decrease along the sorted sites")
        if not measures.equimeasurable(u_sharp, u):
            problems.append("rearrangement is not equimeasurable with the input")
        gap = float(np.max(convex.fenchel_gap_many(psi, u_sharp.values, np.arange(u_sharp.size))))
        if gap > 1e-8:
            problems.append(f"Fenchel gap {gap!r}")
        if not report.is_almost_m_to_1(self.m):
            problems.append("block output is not almost 3-to-1")
        if not measures.equimeasurable(block, u_sharp):
            problems.append("block output is not equimeasurable with its input")
        return problems

    def finish(self) -> list:
        """The refine-mode probe: an instance that hits the known defect is
        counted; any other exception or a wrong output is a problem."""
        problems = []
        self.probe_defects = 0
        for k, instance in enumerate(self.probe):
            try:
                out = self.op(instance, mode="refine")
            except SplitAtomError as e:
                if "still split" in str(e):
                    self.probe_defects += 1
                    continue
                problems.append(f"refine probe {k}: {type(e).__name__}: {e}")
                continue
            except Exception as e:
                problems.append(f"refine probe {k}: {type(e).__name__}: {e}")
                continue
            problems.extend(f"refine probe {k}: {p}" for p in self.check(k, out))
        return problems

    def record(self) -> dict:
        return {"refine_probe": {"instances": self.probes, "defect": self.DEFECT,
                                 "defect_instances": self.probe_defects}}


WORKLOADS = {w.name: w for w in (Random2D, GalleryCLI, Monotone1D)}
