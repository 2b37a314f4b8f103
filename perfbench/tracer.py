"""Span recorder for the traced run, installed from outside the package.

Wrappers replace module attributes (every binding of the same function
object across the package's modules, so names re-bound by ``from ...
import`` are caught too), methods and cached properties. Each span records
its name, start, end, parent span and invocation id in flat arrays kept in
memory; ``dump`` writes them once, at the end. A generator is one span
whose busy time is the sum of its ``next()`` calls; spans opened inside a
``next()`` are its children. Self time is a span's busy time minus that of
its children.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

FUNCTION, GENERATOR, PROPERTY = "function", "generator", "property"


def _count_len(key):
    def count(counts, result):
        counts[key] += len(result)

    return count


def _count_tight(counts, verdict):
    counts["dividing.tight"] += bool(verdict.tight)


def _count_config_graph(counts, graph):
    counts["transitions.configurations"] += graph.total_configurations
    counts["transitions.tight"] += len(graph.vertices)
    counts["transitions.graph_edges"] += len(graph.edges)
    counts["transitions.components"] += graph.component_count()


# (module, attribute, kind, counter); the span is named "<module>.<attribute>"
TARGETS = (
    ("plane_graph", "parse_graph", FUNCTION, None),
    ("plane_graph", "validate_bipartite_plane", FUNCTION, None),
    ("plane_graph", "ensure_bicoloured", FUNCTION, None),
    ("fkt", "parse_universe", FUNCTION, None),
    ("trinity", "build_trinity", FUNCTION, None),
    ("trinity", "Trinity.violet_graph", PROPERTY, None),
    ("trinity", "Trinity.emerald_graph", PROPERTY, None),
    ("trinity", "Trinity.directed_dual", FUNCTION, None),
    ("trees", "bareiss_determinant", FUNCTION, None),
    ("trees", "spanning_tree_count", FUNCTION, None),
    ("trees", "enumerate_spanning_trees", GENERATOR, "trees.spanning_trees"),
    ("trees", "count_arborescences", FUNCTION, None),
    ("trees", "enumerate_arborescences", FUNCTION, _count_len("trees.arborescences")),
    ("trees", "magic_number", FUNCTION, None),
    ("hypertrees", "trinity_hypergraph", FUNCTION, None),
    ("hypertrees", "enumerate_hypertrees", FUNCTION, _count_len("hypertrees.found")),
    ("hypertrees", "translate_offset", FUNCTION, None),
    ("dividing", "enumerate_chord_diagrams", FUNCTION, _count_len("dividing.chord_diagrams")),
    ("dividing", "is_tight", FUNCTION, _count_tight),
    ("dividing", "euler_vector", FUNCTION, None),
    ("dividing", "is_tree_hugging", FUNCTION, None),
    ("dividing", "tree_hugging", FUNCTION, None),
    ("transitions", "build_configuration_graph", FUNCTION, _count_config_graph),
    ("transitions", "classify_components", FUNCTION, None),
    ("fkt", "enumerate_states", FUNCTION, _count_len("fkt.states")),
    ("fkt", "transpositions", FUNCTION, None),
    ("fkt", "clock_graph", FUNCTION, None),
    ("fkt", "states_vs_configurations", FUNCTION, None),
    ("fkt", "universe_dual_graph", FUNCTION, None),
)

# the span the benchmark opens around each cli.main call
INVOCATION = "cli.invocation"

# a span's layer is its module, except that parsing a universe counts as loading input
LAYER_OF = {"fkt.parse_universe": "plane_graph"}
LAYERS = ("plane_graph", "trinity", "trees", "hypertrees", "dividing", "transitions", "fkt")


def layer_of(name):
    return LAYER_OF.get(name, name.split(".", 1)[0])


class Recorder:
    """Spans in flat arrays, plus counters and the verify stage timers."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.name = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.counts = Counter()
        self.stage_seconds = Counter()
        self.current_invocation = -1
        self._stack = [-1]

    def open(self, name):
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(index)
        self.parent.append(self._stack[-1])
        self.invocation.append(self.current_invocation)
        now = perf_counter()
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        return sid

    def call(self, name, fn, args, kwargs):
        sid = self.open(name)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            now = perf_counter()
            self.end[sid] = now
            self.busy[sid] = now - self.start[sid]

    def iterate(self, name, gen, count_key):
        sid = self.open(name)
        n = 0
        try:
            while True:
                self._stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    self._stack.pop()
                    self.busy[sid] += t1 - t0
                    self.end[sid] = t1
                n += 1
                yield item
        finally:
            self.counts[count_key] += n
            gen.close()

    # -- analysis ---------------------------------------------------------------

    def self_times(self):
        own = array("d", self.busy)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.busy[sid]
        return own

    def by_name(self):
        """{span name: (calls, self seconds)}."""
        own = self.self_times()
        calls = Counter()
        seconds = Counter()
        for sid, index in enumerate(self.name):
            calls[index] += 1
            seconds[index] += own[sid]
        return {self.names[i]: (calls[i], seconds[i]) for i in calls}

    def dump(self, path, invocations):
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "invocations": invocations,
            "spans": {
                "name": list(self.name),
                "parent": list(self.parent),
                "invocation": list(self.invocation),
                "start": [round(t - t0, 7) for t in self.start],
                "end": [round(t - t0, 7) for t in self.end],
                "busy": [round(t, 7) for t in self.busy],
            },
            "counts": dict(self.counts),
            "stage_seconds": dict(self.stage_seconds),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- installation -------------------------------------------------------------


def _wrap_function(rec, name, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = rec.call(name, fn, args, kwargs)
        if count is not None:
            count(rec.counts, result)
        return result

    return traced


def _wrap_generator(rec, name, fn, count_key):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.iterate(name, fn(*args, **kwargs), count_key)

    return traced


def _wrap_stage_timers(rec, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        suite = fn(*args, **kwargs)
        rec.stage_seconds.update(suite.seconds)
        return suite

    return traced


class Tracer:
    """Installs and removes the wrappers on one imported ``trinities`` package."""

    def __init__(self, package):
        self.package = package
        self.missing = []
        self._patches = []  # (owner, attribute, original, replacement)
        self.recorder = Recorder()
        modules = [m for n, m in sys.modules.items() if n == "trinities" or n.startswith("trinities.")]
        rec = self.recorder
        for module_name, attr, kind, count in TARGETS:
            module = getattr(package, module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__.get(member) if owner_name else getattr(module, member, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            name = f"{module_name}.{attr}"
            if kind == PROPERTY:
                replacement = functools.cached_property(
                    _wrap_function(rec, name, original.func, count)
                )
                replacement.__set_name__(owner, member)
                self._patches.append((owner, member, original, replacement))
                continue
            wrap = _wrap_generator if kind == GENERATOR else _wrap_function
            replacement = wrap(rec, name, original, count)
            if owner_name:
                self._patches.append((owner, member, original, replacement))
                continue
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, key, original, replacement))
        cli = package.cli
        original = cli.run_verification
        self._patches.append((cli, "run_verification", original, _wrap_stage_timers(rec, original)))

    def install(self):
        for owner, attr, _original, replacement in self._patches:
            setattr(owner, attr, replacement)

    def remove(self):
        for owner, attr, original, _replacement in self._patches:
            setattr(owner, attr, original)
