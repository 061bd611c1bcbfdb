"""Spans around the public functions of each polarfact module.

The tracer rebinds every listed function at every module namespace that
holds it (a function imported with ``from .transport import solve_mk`` is
bound in the importing module too), so calls made from inside the library
are traced as well as calls made by the benchmark.  ``uninstall`` puts the
original objects back.  Nothing here changes the library's files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

# Layers are the package modules; each lists the public functions traced.
LAYERS = {
    "measures": ("validate", "value_law", "equimeasurable"),
    "transport": ("build_cost", "solve_mk", "duality_certificate", "objective"),
    "convex": ("conjugate_many", "fenchel_gap_many"),
    "polar": (
        "gallery_instance",
        "polar_factorize",
        "verify_polar_inclusion",
        "verify_optimality_of_inclusion",
        "degeneracy_report",
    ),
    "rearrangement": ("monotone_rearrangement", "construct_m_to_1", "multiplicity_report"),
    "io": ("read_sampled_map", "read_measure", "read_plan", "read_potential", "dumps", "write_text"),
    "cli": ("main", "cmd_gallery", "cmd_factorize", "cmd_verify"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

_READERS = {"io.read_sampled_map", "io.read_measure", "io.read_plan", "io.read_potential"}


def library_modules():
    """The imported polarfact package and its submodules."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "polarfact" or name.startswith("polarfact."))
    ]


def bindings(original):
    """(module, attribute) pairs whose value is ``original``."""
    return [
        (mod, attr)
        for mod in library_modules()
        for attr, value in vars(mod).items()
        if value is original
    ]


def is_wrapper(obj) -> bool:
    return getattr(obj, "__perfbench_span__", None) is not None


def bound_wrappers() -> list:
    """Names of the tracer wrappers still bound anywhere in the library."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in library_modules()
        for attr, value in vars(mod).items()
        if is_wrapper(value)
    ]


class Tracer:
    """Collects spans and counters while installed.

    A span is (op, name, start, end, parent, raised); its self time is its
    duration minus the durations of its direct children.  Spans are kept
    in memory and summarised by :meth:`summary`.
    """

    def __init__(self):
        self.spans: list = []
        self.op_windows: list = []  # (op, start, end) of each traced op
        self.counters = {
            "transport.cells": 0,
            "transport.triplets": 0,
            "io.bytes_written": 0,
            "io.bytes_read": 0,
        }
        self.array_bytes: dict = {}  # "m x n" -> computed bytes of one float64 array
        self._stack: list = []
        self._op = -1
        self._saved: list = []  # (module, attr, original)

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name in FUNCTIONS:
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"polarfact.{mod_name}"), fn_name)
            wrapper = self._wrap(name, original)
            for mod, attr in bindings(original):
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def _wrap(self, name: str, original):
        spans, stack, tracer = self.spans, self._stack, self
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            raised = False
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (tracer._op, name, start, end, parent, raised)
            if tracer._op >= 0:
                arguments = list(signature.bind(*args, **kwargs).arguments.values())
                tracer._count(name, arguments, result)
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def _count(self, name: str, arguments: list, result) -> None:
        """Counters of one call; ``arguments`` are in parameter order."""
        c = self.counters
        if name == "transport.solve_mk":
            m, n = arguments[0].shape
            c["transport.cells"] += m * n
            c["transport.triplets"] += int(result[0].n_triplets)
            self.array_bytes[f"{m}x{n}"] = 8 * m * n
        elif name == "io.write_text":
            c["io.bytes_written"] += len(arguments[1].encode())
        elif name in _READERS:
            c["io.bytes_read"] += os.path.getsize(arguments[0])

    # -- ops ---------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self._op = op
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self.op_windows.append((self._op, self._op_start, time.perf_counter()))
        self._op = -1

    # -- summary -------------------------------------------------------------
    def summary(self) -> dict:
        """Per-function calls and self time, per-module errors, counters and
        the share of op wall time covered by top-level spans.  Spans and
        counts made outside an op (output checks) are left out."""
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        errors = dict.fromkeys(LAYERS, 0)
        child_s = [0.0] * len(self.spans)
        covered = 0.0
        for idx, (op, name, start, end, parent, raised) in enumerate(self.spans):
            duration = end - start
            if parent >= 0:
                child_s[parent] += duration
            elif op >= 0:
                covered += duration
        for idx, (op, name, start, end, parent, raised) in enumerate(self.spans):
            if op < 0:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child_s[idx]
            if raised:
                errors[name.split(".")[0]] += 1
        op_wall = sum(end - start for _, start, end in self.op_windows)
        return {
            "calls": calls,
            "self_s": self_s,
            "errors": errors,
            "counters": dict(self.counters),
            "array_bytes": dict(self.array_bytes),
            "op_wall_s": op_wall,
            "coverage_frac": covered / op_wall if op_wall > 0 else 0.0,
        }
