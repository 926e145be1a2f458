"""In-memory span tracing of the library's public functions, built from
the benchmark's own files.

``Tracer.install`` wraps every public function and class method of the
traced modules and rebinds the wrapper at every binding site it can find:
module attributes (including names imported by other modules, such as
``probes.dyn_ball_via_formula``), the ``pseudodyn`` package namespace,
dictionaries such as ``probes.STATEMENTS``, and function-valued fields of
dataclass instances such as ``probes.DEFAULT_OPS``.  While the tracer is
enabled each wrapped call appends one span (name, start, end, parent, op)
to flat arrays; nothing is written until ``dump``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("model", "space", "pseudogroup", "dynamics", "measure", "equicont",
           "morphism", "probes", "shift", "cli")

# Element-level classes and O(1) accessors: called per map or per point in
# inner loops, where a span would cost more than the work it measures.
LEAF_CLASSES = {"PartialMap", "ShiftPoint", "Cylinder", "BernoulliSpec"}
ACCESSORS = {"index", "label", "d", "full_set", "complement", "labels_of",
             "ball_mask", "maps_at", "weight", "apply", "unapply", "apply_set",
             "to_jsonable"}

# Span names the issue's per-layer metrics use for class methods.
ALIASES = {
    ("space", "FiniteMetricSpace", "__init__"): "space.metric_init",
    ("space", "FiniteMetricSpace", "distance_grid"): "space.distance_grid",
    ("pseudogroup", "WordClosure", "constraint_table"): "pseudogroup.constraint_table",
    ("pseudogroup", "GeneratingSystem", "build"): "pseudogroup.build",
    ("probes", None, "shrink_genome"): "probes.shrink",
}

# Caching methods that only delegate to a module function of the same name;
# the module function carries the span, so a cache hit records no call.
DELEGATES = {("pseudogroup", "GeneratingSystem", "word_closure"),
             ("pseudogroup", "GeneratingSystem", "germ_relation"),
             ("pseudogroup", "GeneratingSystem", "separation_radius")}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.excluded: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self._tables: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, k: int, keep_tables: bool):
        self.op = k
        if not keep_tables:
            self._tables.clear()

    def wrap(self, name: str, module: str, fn):
        tracer = self
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.s_name)
            tracer.s_name.append(nid)
            tracer.s_parent.append(stack[-1] if stack else -1)
            tracer.s_op.append(tracer.op)
            tracer.s_end.append(0.0)
            stack.append(idx)
            start = perf()
            tracer.s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.s_end[idx] = perf()
                stack.pop()
                tracer.raised[module] += 1
                raise
            tracer.s_end[idx] = perf()
            stack.pop()
            tracer.counts[name + ".calls"] += 1
            if hook is not None:
                h0 = perf()
                hook(tracer, args, kwargs, result)
                if stack:
                    tracer.excluded[stack[-1]] += perf() - h0
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap the public API of ``package``'s traced modules in place."""
        mods = {m: sys.modules[f"{package.__name__}.{m}"] for m in MODULES}
        replace: dict[int, object] = {}

        statements = getattr(mods["probes"], "STATEMENTS", {})
        for key, fn in list(statements.items()):
            replace[id(fn)] = self.wrap(f"probes.stmt.{key}", "probes", fn)
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or id(obj) in replace:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = ALIASES.get((mname, None, attr), f"{mname}.{attr}")
                    replace[id(obj)] = self.wrap(name, mname, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(mname, obj)
        for mod in list(sys.modules.values()):
            if mod is not None and (mod.__name__ == package.__name__
                                    or mod.__name__.startswith(package.__name__ + ".")):
                _rebind(vars(mod), replace)

    def _wrap_class(self, mname: str, cls):
        if cls.__name__ in LEAF_CLASSES:
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and (mname, cls.__name__, attr) not in ALIASES:
                continue
            if attr in ACCESSORS or (mname, cls.__name__, attr) in DELEGATES:
                continue
            name = ALIASES.get((mname, cls.__name__, attr),
                               f"{mname}.{cls.__name__}.{attr}")
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(name, mname, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, mname, raw))

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.s_name)
        child = [0.0] * n
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += self.s_end[i] - self.s_start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            dur = self.s_end[i] - self.s_start[i]
            out[self.names[self.s_name[i]]] += dur - child[i] - self.excluded.get(i, 0.0)
        return out

    def dump(self, path: str):
        doc = {"names": self.names, "columns": ["name", "start", "end", "parent", "op"],
               "name": self.s_name.tolist(), "start": self.s_start.tolist(),
               "end": self.s_end.tolist(), "parent": self.s_parent.tolist(),
               "op": self.s_op.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rebind(namespace: dict, replace: dict):
    for key, obj in list(namespace.items()):
        if id(obj) in replace:
            namespace[key] = replace[id(obj)]
        elif isinstance(obj, dict):
            _rebind(obj, replace)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                val = getattr(obj, f.name)
                if id(val) in replace:
                    object.__setattr__(obj, f.name, replace[id(val)])


# -- work counters read at layer boundaries --------------------------------------


def _closure_work(tracer, prefix, closure, natural):
    levels = closure.level_maps
    level1 = len(levels[0])
    total = len(levels[-1])
    composed = total if natural else len(levels[-2]) if len(levels) > 1 else 0
    tracer.counts[prefix + ".maps"] += total
    tracer.counts[prefix + ".compositions"] += level1 * composed
    tracer.counts[prefix + ".added"] += total - level1


def _hook_word_closure(tracer, args, kwargs, result):
    n_max = args[1] if len(args) > 1 else kwargs.get("n_max", "auto")
    _closure_work(tracer, "pseudogroup.word_closure", result, n_max == "auto")


def _hook_closure_with(tracer, args, kwargs, result):
    _closure_work(tracer, "probes.closure_with", result, True)


def _hook_constraint_table(tracer, args, kwargs, result):
    if id(result) in tracer._tables:
        tracer.counts["pseudogroup.constraint_table.hits"] += 1
        return
    tracer._tables[id(result)] = result
    closure, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    level = min(n, closure.stable_index)
    cells = 0
    for g in closure.level_maps[level - 1]:
        k = g.dom_mask.bit_count()
        cells += k * (k - 1) // 2
    tracer.counts["pseudogroup.constraint_table.cells"] += cells


def _hook_metric_init(tracer, args, kwargs, result):
    tracer.counts["space.metric_init.points"] += args[0].n


def _hook_separated_count(tracer, args, kwargs, result):
    tracer.counts["dynamics.separated_count.exact"] += int(result.exact)
    tracer.counts["dynamics.separated_count.bound_gap"] += result.upper - result.lower


HOOKS = {
    "pseudogroup.word_closure": _hook_word_closure,
    "probes.closure_with": _hook_closure_with,
    "pseudogroup.constraint_table": _hook_constraint_table,
    "space.metric_init": _hook_metric_init,
    "dynamics.separated_count": _hook_separated_count,
}
