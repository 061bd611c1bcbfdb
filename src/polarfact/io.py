"""File formats: JSON documents for every artifact, CSV import for measures.

JSON goes through ``json.dumps`` and CSV through ``csv.DictWriter``; both
write a float as its shortest repr, which reads back as the same IEEE double.
Documents are built with a fixed key order, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
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

def _plain(obj):
    """numpy arrays and scalars as the Python values ``json`` can write."""
    if isinstance(obj, (np.ndarray, np.integer, np.floating)):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialise to JSON text with exact float round-trips."""
    return json.dumps(obj, default=_plain, allow_nan=False) + "\n"


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
    if dim != ABSTRACT and type(dim) is not int:
        raise ValueError(f"dimension must be an integer or {ABSTRACT!r}, got {dim!r}")
    labels, weights, coords = [], [], []
    for pt in doc["points"]:
        labels.append(str(pt["label"]))
        weights.append(_number(pt["weight"], "weight"))
        c = pt.get("coords")
        if c is not None and type(c) is not list:
            raise ValueError(f"coords must be a list of numbers, got {c!r}")
        if c is not None and (not c or any(type(x) is list for x in c)):
            raise DimensionMismatchError(
                f"point {labels[-1]!r}: coords must be a non-empty flat list, got {c!r}"
            )
        coords.append(c)
    has_coords = any(c is not None for c in coords)
    arr = None
    if has_coords:
        if any(c is None for c in coords):
            raise DimensionMismatchError("mixed coordinate and coordinate-free points")
        for label, c in zip(labels, coords):
            if len(c) != len(coords[0]):
                raise DimensionMismatchError(
                    f"point {label!r} has {len(c)} coordinates, "
                    f"point {labels[0]!r} has {len(coords[0])}"
                )
        arr = _numbers(coords, "coordinate")
        if dim != ABSTRACT and arr.shape[1] != dim:
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
    elif not isinstance(doc, dict):
        raise ValueError(f"heavy file must hold a list or an object, got {doc!r}")
    else:
        values = doc.get("values", [])
        tol = _number(doc.get("match_tolerance", 0.0), "match_tolerance")
    # an empty designation list still has its tolerance checked
    return HeavyAtoms(_numbers(values, "heavy value") if values else np.empty((0, 1)), tol)


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
    return rows_to_csv(
        [{"i": i, "j": j, "mass": t} for i, j, t in plan.triplets], ["i", "j", "mass"]
    )


def rows_to_csv(rows: list, columns: list) -> str:
    buf = StringIO()
    writer = csv.DictWriter(buf, columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
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
