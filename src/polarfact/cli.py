"""Command-line front end with a scriptable exit-code taxonomy.

Exit codes separate tool failures from mathematically negative results:
0 success, 2 validation failure, 3 certification failure (an internal
invariant breach), 4 inclusion certificate fails, 5 optimality re-check
fails, 10 negative classification (inclusion without factorisation, or a
split target site in strict mode).  Identical invocations write
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import io
from .convex import fenchel_gap_many
from .errors import NumericalFailureError, PolarfactError, SplitAtomError
from .measures import equimeasurable, validate
from .polar import (
    degeneracy_report,
    gallery_instance,
    polar_factorize,
    verify_optimality_of_inclusion,
    verify_polar_inclusion,
)
from .rearrangement import (
    HeavyAtoms,
    construct_m_to_1,
    monotone_rearrangement,
    multiplicity_report,
)
from .transport import (
    brute_force_mk,
    build_cost,
    duality_certificate,
    objective,
    reusing_solves,
    solve_mk,
)
from .tolerances import DEFAULT_TOL, gap_vanishes

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_INCLUSION = 4
EXIT_OPTIMALITY = 5
EXIT_NEGATIVE = 10

DEFAULT_TOL_ENV = "POLARFACT_TOL"


def _validate(args: argparse.Namespace) -> None:
    """Resolve ``--tol`` (flag, then environment, then default) in place and
    check the tolerances the command has; ``--format`` is checked by argparse."""
    if "tol" in vars(args):
        if args.tol is None:
            env = os.environ.get(DEFAULT_TOL_ENV)
            args.tol = float(env) if env else DEFAULT_TOL
        if not args.tol > 0:
            raise ValueError(f"tolerance must be > 0, got {args.tol!r}")
        if not math.isfinite(args.tol):
            raise ValueError(f"tolerance must be finite, got {args.tol!r}")
    if "cluster_tol" in vars(args):
        if not math.isfinite(args.cluster_tol):
            raise ValueError(f"cluster tolerance must be finite, got {args.cluster_tol!r}")
        if args.cluster_tol < 0:
            raise ValueError(f"cluster tolerance must be >= 0, got {args.cluster_tol!r}")


def _emit(args: argparse.Namespace, doc, csv_text: str, table_text: str, path=None) -> None:
    """Render doc in the chosen format to ``path``, else ``--out``, else stdout."""
    if args.format == "json":
        rendered = io.dumps(doc)
    else:
        rendered = csv_text if args.format == "csv" else table_text
    path = path or args.out
    if path:
        io.write_text(path, rendered)
    else:
        sys.stdout.write(rendered)


def _read_instance(args: argparse.Namespace):
    u = io.read_sampled_map(args.u_path)
    Y = io.read_measure(args.y_path)
    validate(u.domain)
    validate(Y)
    return u, Y


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args: argparse.Namespace) -> int:
    u, Y = _read_instance(args)
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    cert = duality_certificate(plan, duals, cost)
    if args.oracle:
        oracle = brute_force_mk(cost, u.domain, Y)
        if not gap_vanishes(cert["I"] - oracle, oracle):
            print(
                f"certification failure: I={cert['I']!r} but oracle={oracle!r}",
                file=sys.stderr,
            )
            return EXIT_CERTIFICATE
    doc = io.plan_to_dict(plan, cert)
    doc["phi_c"] = duals.phi_c
    doc["phi"] = duals.phi
    summary = (
        f"I = {cert['I']:.12g}\ndual value = {cert['dual_value']:.12g}\n"
        f"gap = {cert['gap']:.3e}\ntriplets = {plan.n_triplets}\n"
    )
    _emit(args, doc, io.plan_to_csv(plan), summary)
    return EXIT_OK


def cmd_factorize(args: argparse.Namespace) -> int:
    u, Y = _read_instance(args)
    result = polar_factorize(u, Y)
    doc = {
        "classification": result.classification,
        "plan": io.plan_to_dict(result.plan),
        "psi": result.psi.psi_values,
        "phi_c": result.duals.phi_c,
        "phi": result.duals.phi,
        "max_gap": result.max_gap,
        "conjugate_identity_error": result.conjugate_identity_error,
        "factor_map": result.factor_map,
        "u_sharp": None if result.u_sharp is None else result.u_sharp.values,
        "row_residues": result.row_residues,
        "certificate": result.certificate,
    }
    summary = (
        f"classification = {result.classification}\n"
        f"max inclusion gap = {result.max_gap:.3e}\n"
        f"I = {result.certificate['I']:.12g}\n"
        f"duality gap = {result.certificate['gap']:.3e}\n"
    )
    _emit(args, doc, io.plan_to_csv(result.plan), summary)
    return EXIT_OK if result.is_factorisation else EXIT_NEGATIVE


def cmd_rearrange(args: argparse.Namespace) -> int:
    v = io.read_sampled_map(args.u_path)
    validate(v.domain)
    heavy = HeavyAtoms.none() if args.heavy_path is None else io.read_heavy(args.heavy_path)
    u = construct_m_to_1(v, args.m, heavy, args.cluster_tol)
    if not equimeasurable(u, v, args.cluster_tol):
        print("certification failure: output is not equimeasurable", file=sys.stderr)
        return EXIT_CERTIFICATE
    report = multiplicity_report(u, heavy, args.cluster_tol)
    doc = {
        "map": io.sampled_map_to_dict(u),
        "report": io.multiplicity_report_to_dict(report),
    }
    columns = ["value", "mass", "point_count", "heavy"]
    rows = [
        {**row, "value": json.dumps(row["value"])} for row in report.rows()
    ]
    _emit(args, doc, io.rows_to_csv(rows, columns), io.rows_to_table(rows, columns))
    return EXIT_OK


def cmd_monotone(args: argparse.Namespace) -> int:
    u, Y = _read_instance(args)
    mode = "refine" if args.refine_split else "strict"
    u_sharp, psi = monotone_rearrangement(u, Y, args.cluster_tol, mode=mode)
    gaps = fenchel_gap_many(psi, u_sharp.values, np.arange(u_sharp.domain.size))
    doc = {
        "map": io.sampled_map_to_dict(u_sharp),
        "psi": psi.psi_values,
        "max_gap": float(np.max(gaps)),
    }
    summary = f"sites = {u_sharp.domain.size}\nmax gap = {float(np.max(gaps)):.3e}\n"
    rows = [
        {"label": lbl, "value": json.dumps(u_sharp.values[k].tolist())}
        for k, lbl in enumerate(u_sharp.domain.labels)
    ]
    _emit(args, doc, io.rows_to_csv(rows, ["label", "value"]), summary)
    return EXIT_OK


def cmd_gallery(args: argparse.Namespace) -> int:
    u, Y, heavy = gallery_instance(args.name, args.grid, args.seed)
    result = polar_factorize(u, Y)
    cost = build_cost(u, Y)
    deg = degeneracy_report(result.plan, result.duals, cost)
    mult = multiplicity_report(u, heavy, args.cluster_tol)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    io.write_text(os.path.join(out_dir, "u.json"), io.dumps(io.sampled_map_to_dict(u)))
    io.write_text(os.path.join(out_dir, "Y.json"), io.dumps(io.measure_to_dict(Y)))
    io.write_text(os.path.join(out_dir, "heavy.json"), io.dumps(io.heavy_to_dict(heavy)))
    report = {
        "name": args.name,
        "grid": args.grid,
        "seed": args.seed,
        "classification": result.classification,
        "certificate": result.certificate,
        "max_gap": result.max_gap,
        "degeneracy_index": deg.degeneracy_index,
        "split_index": deg.split_index,
        "zero_column_counts": deg.zero_column_counts,
        "multiplicity": io.multiplicity_report_to_dict(mult),
    }
    ext = {"json": "json", "csv": "csv", "text": "txt"}[args.format]
    rows = [
        {"key": k, "value": json.dumps(v) if isinstance(v, (dict, list)) else v}
        for k, v in report.items()
        if k not in ("multiplicity", "zero_column_counts")
    ]
    _emit(args, report, io.rows_to_csv(rows, ["key", "value"]),
          io.rows_to_table(rows, ["key", "value"]), os.path.join(out_dir, f"report.{ext}"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    u, Y = _read_instance(args)
    plan = io.read_plan(args.plan_path, u.domain, Y)
    plan.validate()
    psi = io.read_potential(args.psi_path, Y)
    certified, max_gap = verify_polar_inclusion(plan, psi, u, args.tol)
    cost = build_cost(u, Y)
    i_plan = objective(plan, cost)
    doc = {"max_gap": max_gap, "I": i_plan, "inclusion_certified": certified}
    if not certified:
        print(f"inclusion fails: max gap = {max_gap:.6e} > tol = {args.tol:.1e}", file=sys.stderr)
        _emit_verify(args, doc)
        return EXIT_INCLUSION
    # verify_optimality_of_inclusion solves this instance again: one
    # simplex serves both calls, and each certifies what it gets
    with reusing_solves():
        opt_plan, _ = solve_mk(cost, u.domain, Y)
        i_opt = objective(opt_plan, cost)
        doc["optimum"] = i_opt
        doc["delta"] = i_plan - i_opt
        optimal = verify_optimality_of_inclusion(plan, psi, u, args.tol)
    doc["optimality_certified"] = optimal
    print(f"max gap = {max_gap:.6e}; I - optimum = {i_plan - i_opt:.6e}", file=sys.stderr)
    _emit_verify(args, doc)
    return EXIT_OK if optimal else EXIT_OPTIMALITY


def _emit_verify(args: argparse.Namespace, doc: dict) -> None:
    rows = [{"key": k, "value": v} for k, v in doc.items()]
    _emit(args, doc, io.rows_to_csv(rows, ["key", "value"]), io.rows_to_table(rows, ["key", "value"]))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use."""
    p = argparse.ArgumentParser(
        prog="polarfact",
        description="Exact discrete transport, monotone rearrangements, "
        "polar factorisations and polar inclusions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, u=False, y=False, cluster_tol=False):
        if u:
            sp.add_argument("--u", required=True, dest="u_path", metavar="FILE",
                            help="sampled map (JSON)")
        if y:
            sp.add_argument("--Y", required=True, dest="y_path", metavar="FILE",
                            help="target measure (JSON or CSV)")
        if cluster_tol:
            sp.add_argument("--cluster-tol", type=float, default=0.0, dest="cluster_tol",
                            help="value clustering tolerance (default 0: exact duplicates)")
        sp.add_argument("--out", default=None, metavar="PATH")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")

    sp = sub.add_parser("solve", help="solve the transport problem and certify duality")
    common(sp, u=True, y=True)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the permutation oracle (uniform, <= 8 points)")

    sp = sub.add_parser("factorize", help="polar factorisation / inclusion pipeline")
    common(sp, u=True, y=True)

    sp = sub.add_parser("rearrange", help="block construction attaining each value m times")
    common(sp, u=True, cluster_tol=True)
    sp.add_argument("--m", type=int, required=True, help="refinement factor (>= 1)")
    sp.add_argument("--heavy", default=None, dest="heavy_path", metavar="FILE",
                    help="heavy value designations (JSON)")

    sp = sub.add_parser("monotone", help="monotone rearrangement onto a target measure")
    common(sp, u=True, y=True, cluster_tol=True)
    sp.add_argument("--refine-split", action="store_true", dest="refine_split",
                    help="subdivide split target sites and re-solve once")

    sp = sub.add_parser("gallery", help="generate a benchmark instance and run the pipeline")
    common(sp, cluster_tol=True)
    sp.add_argument("--name", required=True, help="flat-segment | m-to-1-flat | injective-control")
    sp.add_argument("--grid", type=int, required=True, metavar="N")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify", help="re-verify an inclusion certificate and optimality")
    common(sp, u=True, y=True)
    sp.add_argument("--tol", type=float, default=None,
                    help=f"Fenchel-gap tolerance of the psi file (default {DEFAULT_TOL:g}, "
                    f"env {DEFAULT_TOL_ENV})")
    sp.add_argument("--plan", required=True, dest="plan_path", metavar="FILE")
    sp.add_argument("--psi", required=True, dest="psi_path", metavar="FILE")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _validate(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    # looked up at each call, so a rebound module attribute is the one called
    handlers = {
        "solve": cmd_solve,
        "factorize": cmd_factorize,
        "rearrange": cmd_rearrange,
        "monotone": cmd_monotone,
        "gallery": cmd_gallery,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalFailureError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except SplitAtomError as exc:
        print(f"negative result: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except PolarfactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
