"""Span tracing for the traced benchmark run.

The program is not instrumented. The tracer wraps the public entry points
of each ``cpm`` module from outside, for the duration of one traced
repetition: a wrapper records a span (layer, start, end, parent) in
preallocation-free arrays and bumps the counters named for that boundary.
Functions imported by name into other modules (``from .srcmodel import
unit_from_raws``) are patched in every ``cpm`` module that holds them, so a
pass calling its own imported copy is traced as well.

A layer's self time is the time its spans cover minus the time covered by
their direct child spans. Spans stay in memory until the repetition ends and
are reduced to per-layer self time then, so no I/O or aggregation happens
inside a traced repetition.
"""

from __future__ import annotations

import heapq
import sys
import time
import types
from array import array

# Layer names, in report order. "bench" is the benchmark's own code: the
# repetition root and callbacks it hands to the program. It is not reported.
LAYERS = (
    "srcmodel", "rewrite", "ext_redundancy", "ext_reflective", "ext_cyclic",
    "pipeline", "cli", "interp", "core", "redundant", "tom", "context",
    "context.array", "events", "scenarios",
)

COUNTERS = (
    "srcmodel.lines_tokenized", "srcmodel.tokenize_line.calls",
    "rewrite.rewrite_line.calls", "rewrite.changed_lines",
    "interp.eval_expr.calls",
    "redundant.read.calls", "redundant.write.calls", "redundant.repairs",
    "tom.fires", "tom.heap_pops",
    "context.sensor_update.calls", "context.guard_evals", "context.guard_fires",
    "context.anext.calls", "events.logged",
)


class Tracer:
    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS + ("bench",))}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._layer = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._patches = self._build_patches()

    # -- recording -----------------------------------------------------------

    def span(self, layer, fn, count=None, after=None):
        """Wrap ``fn`` so each call records a span of ``layer``; ``count``
        names a counter bumped per call, ``after(result, args)`` may bump
        others from the call's result."""
        lid = self.layer_ids[layer]
        layers, parents, starts, ends = self._layer, self._parent, self._start, self._end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            if count is not None:
                counts[count] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Count calls without a span, for boundaries too hot or too small to time."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def traced(self, fn, *args):
        """Run ``fn(*args)`` under the patches as one root span; returns
        (result, wall seconds of the root span, per-layer self seconds,
        counter deltas)."""
        before = dict(self.counts)
        root = self.span("bench", fn)
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            result = root(*args)
        finally:
            for owner, attr, old, _ in self._patches:
                setattr(owner, attr, old)
        wall = (self._end[0] - self._start[0]) / 1e9
        selfs = self._self_times()
        return result, wall, selfs, {k: v - before[k] for k, v in self.counts.items()}

    def _self_times(self):
        own = [0] * len(self._start)
        for i, (p, s, e) in enumerate(zip(self._parent, self._start, self._end)):
            d = e - s
            own[i] += d
            if p >= 0:
                own[p] -= d
        totals = [0] * len(self.layer_ids)
        for lid, ns in zip(self._layer, own):
            totals[lid] += ns
        for arr in (self._layer, self._parent, self._start, self._end):
            del arr[:]
        return {name: totals[i] / 1e9 for name, i in self.layer_ids.items() if name != "bench"}

    # -- where the spans go ------------------------------------------------

    def _build_patches(self):
        from cpm import cli, interp, pipeline, rewrite, srcmodel
        from cpm import ext_cyclic, ext_redundancy, ext_reflective
        from cpm import scenarios
        from cpm.runtime import context, core, events, redundant, tom

        modules = [m for name, m in sys.modules.items() if name == "cpm" or name.startswith("cpm.")]
        patches = []
        counts = self.counts

        def everywhere(fn, wrapper):
            # the defining module and every module that imported the name
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, attr, fn, wrapper))

        def function(layer, module, name, **kw):
            fn = getattr(module, name)
            everywhere(fn, self.span(layer, fn, **kw))

        def method(layer, cls, name, wrap=None, **kw):
            fn = cls.__dict__[name]
            patches.append((cls, name, fn, wrap(fn) if wrap else self.span(layer, fn, **kw)))

        def public_methods(layer, cls):
            for name, fn in vars(cls).items():
                if isinstance(fn, types.FunctionType) and not name.startswith("_"):
                    method(layer, cls, name)

        def add(name, n):
            counts[name] += n

        # source model and passes
        function("srcmodel", srcmodel, "unit_from_raws",
                 after=lambda unit, a: add("srcmodel.lines_tokenized", len(unit.lines)))
        function("srcmodel", srcmodel, "load_unit")
        function("srcmodel", srcmodel, "render")
        function("srcmodel", srcmodel, "tokenize_line", count="srcmodel.tokenize_line.calls",
                 after=lambda toks, a: add("srcmodel.lines_tokenized", 1))
        function("rewrite", rewrite, "rewrite_line", count="rewrite.rewrite_line.calls",
                 after=lambda raw, a: add("rewrite.changed_lines", raw != a[0]))
        for name in ("scan_redundant", "lower_accesses"):
            function("ext_redundancy", ext_redundancy, name)
        for name in ("scan_context", "lower_context_accesses", "lower_array_accesses"):
            function("ext_reflective", ext_reflective, name)
        for name in ("scan_cyclic", "lower_cycle_member"):
            function("ext_cyclic", ext_cyclic, name)
        for name in ("compose", "run"):
            function("pipeline", pipeline, name)
        method("pipeline", pipeline.ExtensionPass, "transform")
        function("cli", cli, "main")

        # interpreter and runtime
        public_methods("interp", interp.AbiInterpreter)
        method("interp", interp.AbiInterpreter, "eval_expr", count="interp.eval_expr.calls")
        public_methods("core", core.Runtime)

        def voted_read(fn):
            traced = self.span("redundant", fn, count="redundant.read.calls")

            def read(rs):
                if len(set(rs.replicas)) > 1:
                    counts["redundant.repairs"] += 1
                return traced(rs)

            return read

        public_methods("redundant", redundant.ReplicaSet)
        method("redundant", redundant.ReplicaSet, "read", wrap=voted_read)
        method("redundant", redundant.ReplicaSet, "write", count="redundant.write.calls")

        public_methods("tom", tom.TOM)
        for name in ("advance", "poll"):
            method("tom", tom.TOM, name, after=lambda fired, a: add("tom.fires", len(fired)))
        heap = types.SimpleNamespace(**vars(heapq))
        heap.heappop = self.counter("tom.heap_pops", heapq.heappop)
        patches.append((tom, "heapq", heapq, heap))

        public_methods("context", context.ContextRegistry)
        method("context", context.ContextRegistry, "sensor_update", count="context.sensor_update.calls",
               after=lambda fired, a: add("context.guard_fires", len(fired)))
        method("context", context.ContextRegistry, "_eval",
               wrap=lambda fn: self.counter("context.guard_evals", fn))
        public_methods("context.array", context.ReflectiveArray)
        method("context.array", context.ReflectiveArray, "anext", count="context.anext.calls")
        method("events", events.EventLog, "log", count="events.logged")

        # scenario closures run as timeout actions and actuator callbacks, so
        # they are wrapped where the scenario hands them to the runtime
        def callback(fn):
            module = getattr(fn, "__module__", "") or ""
            return self.span("scenarios" if module.startswith("cpm.scenarios") else "bench", fn)

        def bind_actuator(fn):
            traced = self.span("context", fn)
            return lambda registry, name, cb: traced(registry, name, callback(cb))

        method("context", context.ContextRegistry, "bind_actuator", wrap=bind_actuator)

        def timeout_object(*args, **kwargs):
            to = tom.TimeoutObject(*args, **kwargs)
            if to.action is not None:
                to.action = callback(to.action)
            return to

        for mod in modules:
            if mod.__name__.startswith("cpm.scenarios.") and getattr(mod, "TimeoutObject", None) is tom.TimeoutObject:
                patches.append((mod, "TimeoutObject", tom.TimeoutObject, timeout_object))
        for name in ("run_wdt", "run_switchboard"):
            function("scenarios", scenarios, name)

        # a later patch of the same attribute replaces an earlier one
        final = {}
        for owner, attr, old, new in patches:
            key = (id(owner), attr)
            final[key] = (owner, attr, final[key][2] if key in final else old, new)
        return list(final.values())
