"""Outside-in tracing of tangentgraph's layers.

The benchmark wraps the names one module calls in another (for example
``radius.component`` or ``ParamImmersion.eval_chart``) and records one
span per call: name, start, end, parent span and verdict id.  Nothing in
the package changes; every wrapped attribute is put back when the traced
block ends.  A name that a later refactor removed is skipped, and the
layers it fed are reported as unmeasured instead of failing the run.

Self time of a span is its duration minus the time its child spans cover.
Spans nest strictly (the package is single-threaded), so the children of
a span never overlap and their durations simply add up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array
from collections import Counter

import numpy as np


def _rows(result, trailing: int) -> int:
    """Number of stacked rows in a batched array result."""
    shape = np.shape(result)
    return int(np.prod(shape[:len(shape) - trailing], dtype=np.int64))


def _count_witness(tracer, result):
    tracer.counts["radius.witnesses"] += 1


def _count_cells(tracer, result):
    tracer.counts["extractor.flood.cells"] += result.total_cells


def _count_nodes(tracer, result):
    tracer.counts["extractor.extract.nodes"] += len(result.status)


def _count_solve(tracer, result):
    status = np.asarray(result[0])
    tracer.counts["extractor.solve.rows"] += status.size
    tracer.counts["extractor.solve.ok"] += int((status == tracer.solve_ok).sum())


def _count_contains(tracer, result):
    tracer.counts["extractor.contains.rows"] += len(result)


def _count_eval(tracer, result):
    tracer.counts["zoo.eval.rows"] += _rows(result, 1)


def _count_jac(tracer, result):
    tracer.counts["zoo.jac.rows"] += _rows(result, 2)
    if tracer.open_depth["extractor.solve"]:
        tracer.counts["extractor.solve.jac_calls"] += 1


# (owner, attribute, layer, counter).  The owner is a module path or a
# "module:Class" path; the layer names the span and the metric prefix.
# Counters read the call's return value, after the wrapped call returns.
WRAPS = (
    ("tangentgraph.theorems", "max_radius", "radius.bracket", None),
    ("tangentgraph.radius", "_check_property", "radius.probe", None),
    ("tangentgraph.radius", "component", "extractor.component", _count_witness),
    ("tangentgraph.theorems", "component", "extractor.component", None),
    ("tangentgraph.extractor", "_flood", "extractor.flood", _count_cells),
    ("tangentgraph.radius", "_extract_on_region", "extractor.extract", _count_nodes),
    ("tangentgraph.theorems", "_extract_on_region", "extractor.extract", _count_nodes),
    ("tangentgraph.radius", "norms", "extractor.norms", None),
    ("tangentgraph.theorems", "norms", "extractor.norms", None),
    ("tangentgraph.radius", "second_sheet_present", "extractor.sheet", None),
    ("tangentgraph.extractor", "_mark_multi_sheet", "extractor.sheet", None),
    ("tangentgraph.extractor", "_solve_batch", "extractor.solve", _count_solve),
    ("tangentgraph.theorems", "_solve_batch", "extractor.solve", _count_solve),
    ("tangentgraph.extractor:ComponentRegion", "contains", "extractor.contains",
     _count_contains),
    ("tangentgraph.zoo:ParamImmersion", "eval_chart", "zoo.eval", _count_eval),
    ("tangentgraph.zoo:ParamImmersion", "jacobian_chart", "zoo.jac", _count_jac),
    ("tangentgraph.extractor:FrameContext", "at", "geometry.frame", None),
    ("tangentgraph.theorems", "tangent_space", "geometry.frame", None),
    ("tangentgraph.theorems", "graph_matrix_from_probes", "geometry.probe_cert",
     None),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Spans and counts of traced verdicts, kept in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_verdict = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, layer, start, child time]
        self.open_depth = Counter()  # layer -> spans of it now open
        self.self_s = Counter()  # layer -> seconds
        self.calls = Counter()  # layer -> spans
        self.counts = Counter()  # counter name -> total
        self.verdict = -1
        self.missing = []  # "owner.attribute" names that no longer exist
        extractor = importlib.import_module("tangentgraph.extractor")
        self.solve_ok = getattr(extractor, "_SOLVE_OK", 0)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, layer: str):
        index = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(self._name_id(layer))
        self.span_parent.append(parent)
        self.span_verdict.append(self.verdict)
        self.span_end.append(0.0)
        self.open_depth[layer] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([index, layer, start, 0.0])

    def exit(self):
        end = time.perf_counter()
        index, layer, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        self.open_depth[layer] -= 1
        if self._stack:
            self._stack[-1][3] += duration

    @contextlib.contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def _wrapped(self, fn, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(self, result)
                return result
            finally:
                self.exit()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in WRAPS for the duration of the block."""
        saved = []
        try:
            for owner_path, attr, layer, counter in WRAPS:
                owner = _resolve(owner_path)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    name = f"{owner_path}.{attr}"
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                if isinstance(original, classmethod):
                    wrapper = classmethod(
                        self._wrapped(original.__func__, layer, counter))
                else:
                    wrapper = self._wrapped(original, layer, counter)
                setattr(owner, attr, wrapper)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def unmeasured_layers(self) -> list:
        """Layers fed by at least one name that could not be wrapped."""
        layers = []
        for owner_path, attr, layer, _ in WRAPS:
            if f"{owner_path}.{attr}" in self.missing and layer not in layers:
                layers.append(layer)
        return layers

    def save(self, path, extra: dict):
        """Write every span, with the name table and run details, to path."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            verdict=np.frombuffer(self.span_verdict, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            info=np.array(json.dumps(extra)),
        )
