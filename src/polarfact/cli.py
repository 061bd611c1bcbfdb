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
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import io
from .errors import NumericalFailureError, PolarfactError, SplitAtomError
from .measures import equimeasurable, validate
from .polar import (
    FACTORISATION,
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
    solve_mk,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_INCLUSION = 4
EXIT_OPTIMALITY = 5
EXIT_NEGATIVE = 10

DEFAULT_TOL_ENV = "POLARFACT_TOL"


@dataclass(frozen=True)
class RunConfig:
    command: str
    u_path: str | None = None
    y_path: str | None = None
    plan_path: str | None = None
    psi_path: str | None = None
    heavy_path: str | None = None
    tol: float = 1e-8
    cluster_tol: float = 0.0
    seed: int = 0
    m: int | None = None
    name: str | None = None
    grid: int | None = None
    oracle: bool = False
    refine_split: bool = False
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tol!r}")
        if self.cluster_tol < 0:
            raise ValueError(f"cluster tolerance must be >= 0, got {self.cluster_tol!r}")
        if self.format not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.format!r}")


def _resolve_tol(arg_tol):
    if arg_tol is not None:
        return arg_tol
    env = os.environ.get(DEFAULT_TOL_ENV)
    return float(env) if env else 1e-8


def _emit(cfg: RunConfig, doc, csv_text: str, table_text: str) -> None:
    rendered = {
        "json": lambda: io.dumps(doc),
        "csv": lambda: csv_text,
        "text": lambda: table_text,
    }[cfg.format]()
    if cfg.out:
        io.write_text(cfg.out, rendered)
    else:
        sys.stdout.write(rendered)


def _read_instance(cfg: RunConfig):
    u = io.read_sampled_map(cfg.u_path)
    Y = io.read_measure(cfg.y_path)
    validate(u.domain)
    validate(Y)
    return u, Y


def _heavy_from_config(cfg: RunConfig) -> HeavyAtoms:
    if cfg.heavy_path is None:
        return HeavyAtoms.none()
    return io.read_heavy(cfg.heavy_path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    u, Y = _read_instance(cfg)
    cost = build_cost(u, Y)
    plan, duals = solve_mk(cost, u.domain, Y)
    cert = duality_certificate(plan, duals, cost)
    if cfg.oracle:
        oracle = brute_force_mk(cost, u.domain, Y)
        if abs(cert["I"] - oracle) > 1e-9 * (1.0 + abs(oracle)):
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
    _emit(cfg, doc, io.plan_to_csv(plan), summary)
    certified = abs(cert["gap"]) <= 1e-9 * (1.0 + abs(cert["I"]))
    return EXIT_OK if certified else EXIT_CERTIFICATE


def cmd_factorize(cfg: RunConfig) -> int:
    u, Y = _read_instance(cfg)
    result = polar_factorize(u, Y, cfg.tol)
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
    _emit(cfg, doc, io.plan_to_csv(result.plan), summary)
    return EXIT_OK if result.is_factorisation else EXIT_NEGATIVE


def cmd_rearrange(cfg: RunConfig) -> int:
    v = io.read_sampled_map(cfg.u_path)
    validate(v.domain)
    heavy = _heavy_from_config(cfg)
    u = construct_m_to_1(v, cfg.m, heavy, cfg.cluster_tol)
    if not equimeasurable(u, v, cfg.cluster_tol):
        print("certification failure: output is not equimeasurable", file=sys.stderr)
        return EXIT_CERTIFICATE
    report = multiplicity_report(u, heavy, cfg.cluster_tol)
    doc = {
        "map": io.sampled_map_to_dict(u),
        "report": io.multiplicity_report_to_dict(report),
    }
    columns = ["value", "mass", "point_count", "heavy"]
    rows = [
        {**row, "value": json.dumps(row["value"])} for row in report.rows()
    ]
    _emit(cfg, doc, io.rows_to_csv(rows, columns), io.rows_to_table(rows, columns))
    return EXIT_OK


def cmd_monotone(cfg: RunConfig) -> int:
    u, Y = _read_instance(cfg)
    mode = "refine" if cfg.refine_split else "strict"
    u_sharp, psi = monotone_rearrangement(u, Y, cfg.cluster_tol, mode=mode)
    from .convex import fenchel_gap_many

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
    _emit(cfg, doc, io.rows_to_csv(rows, ["label", "value"]), summary)
    return EXIT_OK


def cmd_gallery(cfg: RunConfig) -> int:
    u, Y, heavy = gallery_instance(cfg.name, cfg.grid, cfg.seed)
    result = polar_factorize(u, Y, cfg.tol)
    cost = build_cost(u, Y)
    deg = degeneracy_report(result.plan, result.duals, cost, cfg.tol)
    mult = multiplicity_report(u, heavy, cfg.cluster_tol)
    out_dir = cfg.out or "."
    os.makedirs(out_dir, exist_ok=True)
    io.write_text(os.path.join(out_dir, "u.json"), io.dumps(io.sampled_map_to_dict(u)))
    io.write_text(os.path.join(out_dir, "Y.json"), io.dumps(io.measure_to_dict(Y)))
    io.write_text(os.path.join(out_dir, "heavy.json"), io.dumps(io.heavy_to_dict(heavy)))
    report = {
        "name": cfg.name,
        "grid": cfg.grid,
        "seed": cfg.seed,
        "classification": result.classification,
        "certificate": result.certificate,
        "max_gap": result.max_gap,
        "degeneracy_index": deg.degeneracy_index,
        "split_index": deg.split_index,
        "zero_column_counts": deg.zero_column_counts,
        "multiplicity": io.multiplicity_report_to_dict(mult),
    }
    ext = {"json": "json", "csv": "csv", "text": "txt"}[cfg.format]
    rows = [
        {"key": k, "value": json.dumps(v) if isinstance(v, (dict, list)) else v}
        for k, v in report.items()
        if k not in ("multiplicity", "zero_column_counts")
    ]
    rendered = {
        "json": lambda: io.dumps(report),
        "csv": lambda: io.rows_to_csv(rows, ["key", "value"]),
        "text": lambda: io.rows_to_table(rows, ["key", "value"]),
    }[cfg.format]()
    io.write_text(os.path.join(out_dir, f"report.{ext}"), rendered)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    u, Y = _read_instance(cfg)
    plan = io.read_plan(cfg.plan_path, u.domain, Y)
    plan.validate()
    psi = io.read_potential(cfg.psi_path, Y)
    certified, max_gap = verify_polar_inclusion(plan, psi, u, cfg.tol)
    cost = build_cost(u, Y)
    i_plan = objective(plan, cost)
    doc = {"max_gap": max_gap, "I": i_plan, "inclusion_certified": certified}
    if not certified:
        print(f"inclusion fails: max gap = {max_gap:.6e} > tol = {cfg.tol:.1e}", file=sys.stderr)
        _emit_verify(cfg, doc)
        return EXIT_INCLUSION
    opt_plan, _ = solve_mk(cost, u.domain, Y)
    i_opt = objective(opt_plan, cost)
    doc["optimum"] = i_opt
    doc["delta"] = i_plan - i_opt
    optimal = verify_optimality_of_inclusion(plan, psi, u, cfg.tol)
    doc["optimality_certified"] = optimal
    print(f"max gap = {max_gap:.6e}; I - optimum = {i_plan - i_opt:.6e}", file=sys.stderr)
    _emit_verify(cfg, doc)
    return EXIT_OK if optimal else EXIT_OPTIMALITY


def _emit_verify(cfg: RunConfig, doc: dict) -> None:
    rows = [{"key": k, "value": v} for k, v in doc.items()]
    _emit(cfg, doc, io.rows_to_csv(rows, ["key", "value"]), io.rows_to_table(rows, ["key", "value"]))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polarfact",
        description="Exact discrete transport, monotone rearrangements, "
        "polar factorisations and polar inclusions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, u=False, y=False):
        if u:
            sp.add_argument("--u", required=True, dest="u_path", metavar="FILE",
                            help="sampled map (JSON)")
        if y:
            sp.add_argument("--Y", required=True, dest="y_path", metavar="FILE",
                            help="target measure (JSON or CSV)")
        sp.add_argument("--tol", type=float, default=None,
                        help=f"certificate tolerance (default 1e-8, env {DEFAULT_TOL_ENV})")
        sp.add_argument("--cluster-tol", type=float, default=0.0, dest="cluster_tol",
                        help="value clustering tolerance (default 0: exact duplicates)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, metavar="PATH")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")

    sp = sub.add_parser("solve", help="solve the transport problem and certify duality")
    common(sp, u=True, y=True)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the permutation oracle (uniform, <= 8 points)")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("factorize", help="polar factorisation / inclusion pipeline")
    common(sp, u=True, y=True)
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("rearrange", help="block construction attaining each value m times")
    common(sp, u=True)
    sp.add_argument("--m", type=int, required=True, help="refinement factor (>= 1)")
    sp.add_argument("--heavy", default=None, dest="heavy_path", metavar="FILE",
                    help="heavy value designations (JSON)")
    sp.set_defaults(func=cmd_rearrange)

    sp = sub.add_parser("monotone", help="monotone rearrangement onto a target measure")
    common(sp, u=True, y=True)
    sp.add_argument("--refine-split", action="store_true", dest="refine_split",
                    help="subdivide split target sites and re-solve once")
    sp.set_defaults(func=cmd_monotone)

    sp = sub.add_parser("gallery", help="generate a benchmark instance and run the pipeline")
    common(sp)
    sp.add_argument("--name", required=True, help="flat-segment | m-to-1-flat | injective-control")
    sp.add_argument("--grid", type=int, required=True, metavar="N")
    sp.set_defaults(func=cmd_gallery)

    sp = sub.add_parser("verify", help="re-verify an inclusion certificate and optimality")
    common(sp, u=True, y=True)
    sp.add_argument("--plan", required=True, dest="plan_path", metavar="FILE")
    sp.add_argument("--psi", required=True, dest="psi_path", metavar="FILE")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            u_path=getattr(args, "u_path", None),
            y_path=getattr(args, "y_path", None),
            plan_path=getattr(args, "plan_path", None),
            psi_path=getattr(args, "psi_path", None),
            heavy_path=getattr(args, "heavy_path", None),
            tol=_resolve_tol(args.tol),
            cluster_tol=args.cluster_tol,
            seed=args.seed,
            m=getattr(args, "m", None),
            name=getattr(args, "name", None),
            grid=getattr(args, "grid", None),
            oracle=getattr(args, "oracle", False),
            refine_split=getattr(args, "refine_split", False),
            out=args.out,
            format=args.format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        return args.func(cfg)
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
