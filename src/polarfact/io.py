"""File formats: JSON documents for every artifact, CSV import for measures.

All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly; documents are built with a fixed key order, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
from io import StringIO

import numpy as np

from .convex import ConvexPotential
from .errors import DimensionMismatchError
from .measures import ABSTRACT, DiscreteMeasure, SampledMap
from .rearrangement import HeavyAtoms, MultiplicityReport
from .transport import TransportPlan


# ---------------------------------------------------------------------------
# deterministic JSON with exact float round-trips
# ---------------------------------------------------------------------------

def _render(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialise non-finite float {x!r}")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, val) in enumerate(obj.items()):
            if k:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _render(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for k, val in enumerate(seq):
            if k:
                out.append(", ")
            _render(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialise to JSON text with exact float round-trips."""
    out: list = []
    _render(obj, out)
    out.append("\n")
    return "".join(out)


def write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _number(value, what: str) -> float:
    """A JSON number as a float; booleans and numeric strings are refused."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(value, what: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack.extend(item)
        else:
            _number(item, what)
    return np.asarray(value, dtype=float)


# ---------------------------------------------------------------------------
# measures and maps
# ---------------------------------------------------------------------------

def measure_to_dict(measure: DiscreteMeasure) -> dict:
    points = []
    for k, label in enumerate(measure.labels):
        points.append(
            {
                "label": label,
                "coords": None if measure.coords is None else measure.coords[k],
                "weight": float(measure.weights[k]),
            }
        )
    return {"dimension": measure.dimension, "points": points}


def measure_from_dict(doc: dict) -> DiscreteMeasure:
    if not isinstance(doc, dict) or "points" not in doc:
        raise ValueError("measure document must be an object with a 'points' list")
    dim = doc.get("dimension", ABSTRACT)
    labels, weights, coords = [], [], []
    for pt in doc["points"]:
        labels.append(str(pt["label"]))
        weights.append(_number(pt["weight"], "weight"))
        coords.append(pt.get("coords"))
    has_coords = any(c is not None for c in coords)
    arr = None
    if has_coords:
        if any(c is None for c in coords):
            raise DimensionMismatchError("mixed coordinate and coordinate-free points")
        arr = _numbers(coords, "coordinate")
        if dim != ABSTRACT and arr.shape[1] != int(dim):
            raise DimensionMismatchError(
                f"declared dimension {dim} but points have {arr.shape[1]} coordinates"
            )
    elif dim != ABSTRACT:
        raise DimensionMismatchError(
            f"declared dimension {dim} but points carry no coordinates"
        )
    return DiscreteMeasure(tuple(labels), np.asarray(weights, dtype=float), arr)


def read_measure_csv(path: str) -> DiscreteMeasure:
    """CSV import: columns label, coord_1..coord_n, weight (header row).

    Raises ValueError on a missing or different header, or on a row whose
    field count differs from the header's; blank lines are skipped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        n_coords = len(header) - 2
        expected = ["label", *(f"coord_{k}" for k in range(1, n_coords + 1)), "weight"]
        if header != expected:
            raise ValueError(
                f"{path}: CSV header must be label,coord_1,...,coord_n,weight; got {header}"
            )
        labels, weights, coords = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"the header has {len(header)}"
                )
            labels.append(row[0])
            weights.append(float(row[-1]))
            if n_coords:
                coords.append([float(x) for x in row[1 : 1 + n_coords]])
    return DiscreteMeasure(
        tuple(labels),
        np.asarray(weights, dtype=float),
        np.asarray(coords, dtype=float) if n_coords else None,
    )


def read_measure(path: str) -> DiscreteMeasure:
    if path.endswith(".csv"):
        return read_measure_csv(path)
    return measure_from_dict(load_json(path))


def sampled_map_to_dict(map: SampledMap) -> dict:
    return {"measure": measure_to_dict(map.domain), "values": map.values}


def sampled_map_from_dict(doc: dict, base_dir: str = ".") -> SampledMap:
    if not isinstance(doc, dict) or "values" not in doc or "measure" not in doc:
        raise ValueError("map document needs 'measure' and 'values'")
    ref = doc["measure"]
    if isinstance(ref, str):
        measure = read_measure(os.path.join(base_dir, ref))
    else:
        measure = measure_from_dict(ref)
    return SampledMap(measure, _numbers(doc["values"], "map value"))


def read_sampled_map(path: str) -> SampledMap:
    return sampled_map_from_dict(load_json(path), base_dir=os.path.dirname(path) or ".")


# ---------------------------------------------------------------------------
# potentials, plans, heavy designations
# ---------------------------------------------------------------------------

def read_potential(path: str, support: DiscreteMeasure) -> ConvexPotential:
    doc = load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("psi")
    if doc is None:
        raise ValueError("potential file holds neither an array nor a 'psi' field")
    return ConvexPotential(support, _numbers(doc, "psi"))


def plan_to_dict(plan: TransportPlan, certificate: dict | None = None) -> dict:
    doc = {
        "triplets": [
            {"i": int(i), "j": int(j), "mass": float(t)} for i, j, t in plan.triplets
        ]
    }
    if certificate is not None:
        doc["certificate"] = {
            "I": float(certificate["I"]),
            "dual_value": float(certificate["dual_value"]),
            "gap": float(certificate["gap"]),
        }
    return doc


def read_plan(path: str, mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    doc = load_json(path)
    if isinstance(doc, dict) and "plan" in doc:
        doc = doc["plan"]
    if not isinstance(doc, dict) or "triplets" not in doc:
        raise ValueError("plan file holds no 'triplets' list")
    trip = doc["triplets"]
    rows = np.array([_plan_index(t, "i") for t in trip], dtype=int)
    cols = np.array([_plan_index(t, "j") for t in trip], dtype=int)
    masses = np.array([_number(t["mass"], "plan mass") for t in trip], dtype=float)
    return TransportPlan(rows, cols, masses, mu, nu)


def _plan_index(triplet: dict, key: str) -> int:
    value = triplet[key]
    if type(value) is not int:
        raise ValueError(f"plan index {key!r} must be an integer, got {value!r}")
    return value


def read_heavy(path: str) -> HeavyAtoms:
    doc = load_json(path)
    if isinstance(doc, list):
        values, tol = doc, 0.0
    else:
        values = doc.get("values", [])
        tol = _number(doc.get("match_tolerance", 0.0), "match_tolerance")
    if not values:
        return HeavyAtoms.none()
    return HeavyAtoms(_numbers(values, "heavy value"), tol)


def heavy_to_dict(heavy: HeavyAtoms) -> dict:
    return {"match_tolerance": float(heavy.match_tolerance), "values": heavy.values}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def multiplicity_report_to_dict(report: MultiplicityReport) -> dict:
    return {
        "atoms": report.rows(),
        "almost_injective": report.almost_injective,
        "m_to_1": report.m_to_1,
        "max_light_count": report.max_light_count,
    }


# ---------------------------------------------------------------------------
# tabular renderings
# ---------------------------------------------------------------------------

def plan_to_csv(plan: TransportPlan) -> str:
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "j", "mass"])
    for i, j, t in plan.triplets:
        writer.writerow([i, j, format(t, ".17g")])
    return buf.getvalue()


def rows_to_csv(rows: list, columns: list) -> str:
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            [
                format(row[c], ".17g") if isinstance(row[c], float) else row[c]
                for c in columns
            ]
        )
    return buf.getvalue()


def rows_to_table(rows: list, columns: list) -> str:
    cells = [[str(c) for c in columns]]
    for row in rows:
        cells.append(
            [
                format(row[c], ".6g") if isinstance(row[c], float) else str(row[c])
                for c in columns
            ]
        )
    widths = [max(len(line[k]) for line in cells) for k in range(len(columns))]
    lines = []
    for idx, line in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(line)))
        if idx == 0:
            lines.append("  ".join("-" * widths[k] for k in range(len(columns))))
    return "\n".join(lines) + "\n"
