"""Spans around calls into the package's modules, recorded from outside the package.

Each traced function is replaced by a wrapper in the namespace where its
caller looks it up (``solver.max_plus_matmul`` is what ``solve_sylvester``
calls, ``oracle.max_plus_matmul`` what ``oracle_solve`` calls).  A span holds
its name, layer, parent span, start, end, the semiring-op count it covered
and a few per-call counts; spans stay in memory until the run writes them out.
A function the package no longer has is listed in ``missing`` and never traced.
"""

import importlib
from time import perf_counter

import numpy as np

LAYERS = ("instance_io", "cli", "solver", "matrix", "oracle")

# (module, name looked up there, span name, layer of the code that runs)
PATCHES = (
    ("cli", "main", "cli.main", "cli"),
    ("cli", "load_matrix", "instance_io.load", "instance_io"),
    ("cli", "format_matrix", "instance_io.format", "instance_io"),
    ("cli", "solve_sylvester", "solver.solve", "solver"),
    ("cli", "solve_linear", "solver.solve", "solver"),
    ("cli", "two_sided_instance", "solver.two_sided_instance", "solver"),
    ("cli", "oracle_solve", "oracle.solve", "oracle"),
    ("instance_io", "generate_instance", "instance_io.generate", "instance_io"),
    ("instance_io", "write_instance", "instance_io.write", "instance_io"),
    ("instance_io", "load_matrix", "instance_io.load", "instance_io"),
    ("instance_io", "parse_matrix", "instance_io.parse", "instance_io"),
    ("instance_io", "format_matrix", "instance_io.format", "instance_io"),
    ("solver", "solve_sylvester", "solver.solve", "solver"),
    ("solver", "sylvester_principal_solution", "solver.principal", "solver"),
    ("solver", "linear_principal_solution", "solver.principal", "solver"),
    ("solver", "sylvester_apply", "solver.apply", "solver"),
    ("solver", "effective_tolerance", "solver.tolerance", "solver"),
    ("solver", "matrix_mismatches", "solver.scan", "solver"),
    ("solver", "max_plus_matmul", "matrix.matmul", "matrix"),
    ("solver", "min_plus_matmul", "matrix.matmul", "matrix"),
    ("solver", "max_plus_matadd", "matrix.matadd", "matrix"),
    ("solver", "min_plus_matadd", "matrix.matadd", "matrix"),
    ("solver", "conjugate", "matrix.conjugate", "matrix"),
    ("oracle", "oracle_solve", "oracle.solve", "oracle"),
    ("oracle", "kron_reformulate", "oracle.reformulate", "oracle"),
    ("oracle", "linear_principal_solution", "oracle.linear", "oracle"),
    ("oracle", "effective_tolerance", "solver.tolerance", "solver"),
    ("oracle", "matrix_mismatches", "oracle.scan", "solver"),
    ("oracle", "max_plus_matmul", "matrix.matmul", "matrix"),
    ("oracle", "max_plus_matadd", "matrix.matadd", "matrix"),
    ("oracle", "kron_max", "matrix.kron", "matrix"),
)


def is_unit(M) -> bool:
    """True for a max-plus or min-plus unit matrix (zero diagonal, one infinity elsewhere)."""
    d = M.data
    n = d.shape[0]
    if d.shape != (n, n) or d[0, 0] != 0.0:
        return False
    if n == 1:
        return True
    off = d[0, 1]
    return bool(np.isinf(off) and (np.diagonal(d) == 0.0).all() and np.count_nonzero(d == off) == n * n - n)


def _matmul_name(args):
    return "matrix.matvec" if args[1].cols == 1 else "matrix.matmul"


def _matmul_extra(args, result):
    return {"unit": is_unit(args[0]) or is_unit(args[1])}


def _scan_extra(args, result):
    return {"mismatch_cells": len(result[0])}


def _parse_extra(args, result):
    return {"bytes": len(args[0])}


_EXTRAS = {"matrix.matmul": _matmul_extra, "solver.scan": _scan_extra, "instance_io.parse": _parse_extra}


class Span:
    __slots__ = ("name", "layer", "parent", "request", "start", "end", "ops", "extra")


class Tracer:
    """Installs wrappers on demand and keeps every span they record."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.missing = []
        self.missing_layers = set()
        self._stack = []
        self._patches = []
        try:
            counter = importlib.import_module("maxplus_sylvester.opcount").semiring_ops
            self._ops = lambda: counter.total
        except (ImportError, AttributeError):
            self.missing.append("opcount.semiring_ops")
            self.missing_layers.add("opcount")
            self._ops = lambda: 0
        modules = {}
        for module_name, attr, span_name, layer in PATCHES:
            if module_name not in modules:
                try:
                    modules[module_name] = importlib.import_module(f"maxplus_sylvester.{module_name}")
                except ImportError:
                    modules[module_name] = None
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                self.missing_layers.add(layer)
                continue
            self._patches.append((module, attr, original, self._wrap(original, span_name, layer)))

    def _wrap(self, fn, span_name, layer):
        name_of = _matmul_name if span_name == "matrix.matmul" else None
        extra_of = _EXTRAS.get(span_name)
        spans, stack, ops = self.spans, self._stack, self._ops

        def traced(*args, **kwargs):
            span = Span()
            span.name = name_of(args) if name_of else span_name
            span.layer = layer
            span.parent = stack[-1] if stack else None
            span.request = self.request
            span.extra = None
            stack.append(span)
            ops_before = ops()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.ops = ops() - ops_before
                stack.pop()
                spans.append(span)
            span.extra = extra_of(args, result) if extra_of else None
            return result

        return traced

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


def self_times(spans):
    """Map each span to its duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + (s.end - s.start)
    return {id(s): (s.end - s.start) - child.get(id(s), 0.0) for s in spans}


def spans_to_records(spans):
    """Plain dicts for the trace file; parents become indices into the same list."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        {
            "name": s.name,
            "layer": s.layer,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "request": s.request,
            "start": s.start,
            "end": s.end,
            "ops": s.ops,
            **(s.extra or {}),
        }
        for s in spans
    ]
