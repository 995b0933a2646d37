"""Per-layer tracing of twosheet from outside the package.

`Tracer.install` replaces the public functions and methods listed in TARGETS by
wrappers that record one span per call: (name, start, end, parent, op).  Every
twosheet module that imported a target by name gets the wrapper too, so calls
between modules are traced as well as calls from the benchmark.  Spans stay in
memory until `write` dumps them; `uninstall` restores the originals.

A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# (module, attribute, span name); "Class.method" patches the method on the class.
TARGETS = [
    ("expressions", "Expression.__call__", "expressions.Expression"),
    ("geometry", "SpacetimeModel.frame_components", "geometry.frame_components"),
    ("geometry", "SpacetimeModel.weight", "geometry.weight"),
    ("geometry", "SpacetimeModel.frame_matrices", "geometry.frame_matrices"),
    ("geometry", "is_causally_related", "geometry.is_causally_related"),
    ("geometry", "max_weighted_length", "geometry.max_weighted_length"),
    ("geometry", "single_source_field", "geometry.single_source_field"),
    ("geometry", "cumulative_weighted_length", "geometry.cumulative_weighted_length"),
    ("cone", "certification_grid", "cone.certification_grid"),
    ("cone", "witness_element", "cone.witness_element"),
    ("cone", "ordering_gap", "cone.ordering_gap"),
    ("causality", "decide", "causality.decide"),
    ("causality", "future_cone", "causality.future_cone"),
    ("cli", "main", "cli.main"),
    ("modelfile", "load", "modelfile.load"),
    ("oracle", "sample_causal_elements", "oracle.sample_causal_elements"),
    ("oracle", "mc_check", "oracle.mc_check"),
    ("clifford", "make_representation", "clifford.make_representation"),
]

# Spans whose calls move points: the points argument sits at this position.
POINTS_ARG = {"expressions.Expression": 1, "geometry.frame_components": 1}

# Per-layer metrics, each with its unit and direction.  Values are 0 where the
# layer does not run in the traced workload.
PER_LAYER = [
    ("expressions.Expression.calls", "count", "lower"),
    ("expressions.Expression.points_per_call", "points", "higher"),
    ("expressions.Expression.self_s", "s", "lower"),
    ("geometry.frame_components.calls", "count", "lower"),
    ("geometry.frame_components.points_per_call", "points", "higher"),
    ("geometry.frame_components.self_s", "s", "lower"),
    ("geometry.weight.self_s", "s", "lower"),
    ("geometry.frame_matrices.calls", "count", "lower"),
    ("geometry.frame_matrices.self_s", "s", "lower"),
    ("geometry.is_causally_related.calls", "count", "lower"),
    ("geometry.is_causally_related.self_s", "s", "lower"),
    ("geometry.max_weighted_length.calls", "count", "lower"),
    ("geometry.max_weighted_length.self_s", "s", "lower"),
    ("geometry.single_source_field.calls", "count", "lower"),
    ("geometry.single_source_field.self_s", "s", "lower"),
    ("geometry.cumulative_weighted_length.self_s", "s", "lower"),
    ("cone.witness_element.calls", "count", "lower"),
    ("cone.witness_element.self_s", "s", "lower"),
    ("cone.ordering_gap.calls", "count", "lower"),
    ("cone.certification_grid.points", "points", "lower"),
    ("causality.decide.calls", "count", "lower"),
    ("causality.decide.self_s", "s", "lower"),
    ("causality.decide.marginal_ratio", "1", "lower"),
    ("causality.decide.related_ratio", "1", "higher"),
    ("causality.future_cone.calls", "count", "lower"),
    ("causality.future_cone.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("modelfile.load.calls", "count", "lower"),
    ("modelfile.load.self_s", "s", "lower"),
    ("oracle.sample_causal_elements.calls", "count", "lower"),
    ("oracle.sample_causal_elements.self_s", "s", "lower"),
    ("oracle.sample.kept_ratio", "1", "higher"),
    ("oracle.sample.shrink_p50", "1", "higher"),
    ("clifford.make_representation.self_s", "s", "lower"),
    ("oracle.mc_check.calls", "count", "lower"),
    ("oracle.mc_check.self_s", "s", "lower"),
    ("oracle.mc_check.element_evals", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _points(arg) -> int:
    shape = np.shape(arg)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _out_path(argv) -> Optional[str]:
    argv = list(argv or [])
    for i, a in enumerate(argv[:-1]):
        if a == "--out":
            return argv[i + 1]
    return None


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.points: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.shrinks: List[float] = []
        self.op = -1
        self._stack: List[int] = []
        self._patched: list = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for mod_name, attr, span in TARGETS:
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        point_arg = POINTS_ARG.get(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            if point_arg is not None:
                self.points[name] += _points(args[point_arg])
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op]
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- counters read from arguments and results -------------------------

    def _after_causality_decide(self, result, args, kwargs):
        self.counters["decide.related"] += bool(result.related)
        self.counters["decide.marginal"] += bool(result.marginal)

    def _after_oracle_sample_causal_elements(self, result, args, kwargs):
        count = args[1] if len(args) > 1 else kwargs["count"]
        self.counters["sample.requested"] += int(count)
        self.counters["sample.kept"] += len(result)
        self.shrinks.extend(float(el.construction["shrink"]) for el in result)

    def _after_oracle_mc_check(self, result, args, kwargs):
        elements = args[2] if len(args) > 2 else kwargs["elements"]
        self.counters["mc_check.element_evals"] += len(elements)

    def _after_cone_certification_grid(self, result, args, kwargs):
        self.counters["certification_grid.points"] += len(result)

    def _after_cli_main(self, result, args, kwargs):
        out = _out_path(args[0] if args else kwargs.get("argv"))
        if out is not None and os.path.exists(out):
            self.counters["cli.output_bytes"] += os.path.getsize(out)

    # -- aggregation ----------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """calls and self time per span name."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (end - start) - child[i]
        return totals

    def metrics(self, overhead_s: float) -> Dict[str, float]:
        totals = self.layer_totals()
        c = self.counters
        out: Dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if layer in totals and field in ("calls", "self_s"):
                out[metric] = totals[layer][field]
            elif field == "points_per_call":
                calls = totals[layer]["calls"] if layer in totals else 0
                out[metric] = self.points[layer] / calls if calls else 0.0
            else:
                out[metric] = 0.0
        decides = totals["causality.decide"]["calls"] if "causality.decide" in totals else 0
        if decides:
            out["causality.decide.marginal_ratio"] = c["decide.marginal"] / decides
            out["causality.decide.related_ratio"] = c["decide.related"] / decides
        out["cli.output_bytes"] = c["cli.output_bytes"]
        if c["sample.requested"]:
            out["oracle.sample.kept_ratio"] = c["sample.kept"] / c["sample.requested"]
        if self.shrinks:
            out["oracle.sample.shrink_p50"] = float(np.median(self.shrinks))
        out["cone.certification_grid.points"] = c["certification_grid.points"]
        out["oracle.mc_check.element_evals"] = c["mc_check.element_evals"]
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: str) -> None:
        """Dump every span as gzipped CSV: name,start,end,parent,op.

        Times are seconds from the first span's start.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op\n")
            fh.writelines(f"{name},{start - origin:.7f},{end - origin:.7f},{parent},{op}\n"
                          for name, start, end, parent, op in self.spans)
