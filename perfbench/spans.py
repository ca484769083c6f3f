"""Per-layer tracing from outside the program.

The tracer wraps the public functions and methods of the seven submodlab
modules (the layers) and records a span at each call: its name, its parent
span and its duration. Spans are aggregated per instance by call path,
so each instance keeps a small tree of (name, count, total time, time
covered by child spans) nodes in memory; the trees are written out when the
run ends. The value and marginal lookups are too frequent to time without
swamping the run, so they are only counted, on the span that made them.

No file under src/ is touched: module-level functions are replaced in every
submodlab module that holds them by name (algorithms and verify keep their
own references to `contract`, `brute_force_opt_set`, ...), and methods are
replaced on each class that defines them.
"""

from __future__ import annotations

import fnmatch
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("oracles", "matroids", "continuous", "algorithms", "verify",
          "serialization", "cli")

# methods that get a span wherever a layer class defines them
TIMED_METHODS = ("table", "value", "indep_mask", "indep", "grad",
                 "value_many", "member", "member_many", "lmo", "choices",
                 "final_value")
COUNTED_METHODS = ("value_mask", "marginal_mask")


def _grid_extra(args, kwargs):
    f = args[0]
    resolution = args[2] if len(args) > 2 else kwargs["resolution"]
    points = (int(math.floor(1.0 / resolution + 1e-9)) + 1) ** f.n
    # the grid kernel materializes every point as n float64 coordinates
    return {"points": points, "bytes": points * f.n * 8}


# extra work counts taken before a call, from its arguments
BEFORE = {
    "oracles.*.table": lambda a, k: {"builds": int(a[0]._table is None)},
    "verify.brute_force_opt_set": lambda a, k: {"masks": 1 << a[0].n},
    "verify.grid_opt": _grid_extra,
    "continuous.*.value_many": lambda a, k: {"points": len(a[1])},
}
# extra work counts taken after a call, from its result
AFTER = {
    "serialization.save": lambda r: {"bytes": r.stat().st_size},
}

FIVE_ALGORITHMS = ["algorithms.masked_frank_wolfe", "algorithms.frank_wolfe",
                   "algorithms.multipass_greedy",
                   "algorithms.random_greedy_dummies",
                   "algorithms.random_greedy_intersection"]

# name -> (unit, kind, span patterns[, parent pattern])
# kind: "count" (calls), "self" (self time, see Tracer.self_time),
# "lookups" (counted lookups), or "extra:<key>" (work counts above)
LAYER_METRICS = {
    "oracles.table_s": ("s", "self", ["oracles.*.table"]),
    "oracles.table_builds": ("count", "extra:builds",
                             ["oracles.*.table"]),
    "oracles.lookups": ("count", "lookups", ["*"]),
    "oracles.ratios_s": ("s", "self",
                         ["oracles.measure_ratios",
                          "oracles.submodularity_ratio",
                          "oracles.monotonicity_ratio"]),
    "matroids.indep_calls": ("count", "count",
                             ["matroids.*.indep_mask"]),
    "matroids.indep_s": ("s", "self",
                         ["matroids.*.indep_mask", "matroids.*.indep"]),
    "matroids.mwci_calls": ("count", "count",
                            ["matroids.max_weight_common_independent"]),
    "matroids.mwci_s": ("s", "self",
                        ["matroids.max_weight_common_independent"]),
    "matroids.contract_calls": ("count", "count",
                                ["matroids.contract"]),
    "matroids.greedy_s": ("s", "self",
                          ["matroids.psystem_greedy_marginal",
                           "matroids.matroid_greedy"]),
    "continuous.value_calls": ("count", "count",
                               ["continuous.*.value"]),
    "continuous.grad_calls": ("count", "count",
                              ["continuous.*.grad"]),
    "continuous.eval_s": ("s", "self",
                          ["continuous.*.value", "continuous.*.grad"]),
    "continuous.value_many_points": ("count", "extra:points",
                                     ["continuous.*.value_many"]),
    "continuous.value_many_s": ("s", "self",
                                ["continuous.*.value_many"]),
    "continuous.member_many_s": ("s", "self",
                                 ["continuous.*.member_many"]),
    "continuous.lmo_calls": ("count", "count",
                             ["continuous.*.lmo"]),
    "continuous.lmo_s": ("s", "self",
                         ["continuous.lmo", "continuous.*.lmo"]),
    "continuous.weak_dr_gamma_s": ("s", "self",
                                   ["continuous.weak_dr_gamma"]),
    "algorithms.choices_calls": ("count", "count",
                                 ["algorithms.*.choices"]),
    "algorithms.choices_s": ("s", "self",
                             ["algorithms.*.choices"]),
    "algorithms.final_value_calls": ("count", "count",
                                     ["algorithms.*.final_value"]),
    "algorithms.run_s": ("s", "self", FIVE_ALGORITHMS),
    "verify.expectation_s": ("s", "self",
                             ["verify.expected_value_exact"]),
    "verify.tree_nodes": ("count", "count",
                          ["algorithms.*.choices"],
                          "verify.expected_value_exact"),
    "verify.tree_leaves": ("count", "count",
                           ["algorithms.*.final_value"],
                           "verify.expected_value_exact"),
    "verify.bruteforce_s": ("s", "self",
                            ["verify.brute_force_opt_set"]),
    "verify.bruteforce_masks": ("count", "extra:masks",
                                ["verify.brute_force_opt_set"]),
    "verify.grid_s": ("s", "self", ["verify.grid_opt"]),
    "verify.grid_points": ("count", "extra:points",
                           ["verify.grid_opt"]),
    "verify.grid_bytes_computed": ("B", "extra:bytes",
                                   ["verify.grid_opt"]),
    "serialization.save_s": ("s", "self", ["serialization.save"]),
    "serialization.load_s": ("s", "self",
                             ["serialization.load",
                              "serialization.load_doc"]),
    "serialization.bytes_written": ("B", "extra:bytes",
                                    ["serialization.save"]),
    "cli.self_s": ("s", "self", ["cli.main"]),
    "cli.commands": ("count", "count", ["cli.main"]),
}


class Span:
    """One call path within one instance, aggregated over its calls."""

    __slots__ = ("name", "layer", "parent", "children", "count", "total",
                 "child_total", "lookups", "extra")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.children: dict[str, Span] = {}
        self.count = 0
        self.total = 0.0
        self.child_total = 0.0
        self.lookups = 0
        self.extra: dict[str, int] = {}

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


def _matches(name: str, patterns) -> bool:
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


class Tracer:
    def __init__(self):
        self.outside = Span("bench.outside", None)
        self.stack = [self.outside]
        self.instances: list[tuple[str, Span]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def instance(self, instance_id: str):
        """Root span of one instance; its spans share the instance id."""
        root = Span("bench.instance", None)
        self.instances.append((instance_id, root))
        self.stack.append(root)
        t0 = time.perf_counter()
        try:
            yield root
        finally:
            root.total += time.perf_counter() - t0
            root.count += 1
            self.stack.pop()

    def _timed(self, name: str, fn):
        stack = self.stack
        perf = time.perf_counter
        before = next((h for p, h in BEFORE.items()
                       if fnmatch.fnmatchcase(name, p)), None)
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Span(name, parent)
            extra = before(args, kwargs) if before is not None else None
            stack.append(node)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                node.count += 1
                node.total += dt
                parent.child_total += dt
            if after is not None:
                extra = after(result)
            if extra:
                for key, value in extra.items():
                    node.extra[key] = node.extra.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack[-1].lookups += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap every layer's public functions and span-worthy methods."""
        modules = [sys.modules[f"submodlab.{layer}"] for layer in LAYERS]
        holders = [m for key, m in list(sys.modules.items())
                   if key == "submodlab" or key.startswith("submodlab.")]
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapper = self._timed(f"{layer}.{name}", obj)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, attr, wrapper)
                elif inspect.isclass(obj):
                    for meth in TIMED_METHODS + COUNTED_METHODS:
                        fn = obj.__dict__.get(meth)
                        if not inspect.isfunction(fn):
                            continue
                        wrapper = self._counted(fn) if meth in \
                            COUNTED_METHODS else \
                            self._timed(f"{layer}.{name}.{meth}", fn)
                        self._patch(obj, meth, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------

    def _nodes(self):
        for _, root in self.instances:
            yield from root.walk()

    def self_time(self, patterns) -> float:
        """Self time of the matching spans: each span's duration minus the
        time its child spans cover, where child spans of the same layer
        (calls the layer makes to itself) count as the layer's own work."""
        total = 0.0

        def walk(node: Span, inside: str | None) -> None:
            nonlocal total
            hit = node.layer == inside or _matches(node.name, patterns)
            if hit:
                total += node.total - node.child_total
            for child in node.children.values():
                walk(child, node.layer if hit else None)

        for _, root in self.instances:
            walk(root, None)
        return total

    def metric(self, name: str):
        _, kind, patterns, *parent = LAYER_METRICS[name]
        if kind == "self":
            return self.self_time(patterns)
        nodes = [n for n in self._nodes() if _matches(n.name, patterns)
                 and (not parent or (n.parent is not None
                                     and n.parent.name == parent[0]))]
        if kind == "count":
            return sum(n.count for n in nodes)
        if kind == "lookups":
            return sum(n.lookups for n in nodes)
        key = kind.split(":", 1)[1]
        return sum(n.extra.get(key, 0) for n in nodes)

    def metrics(self) -> dict:
        return {name: self.metric(name) for name in LAYER_METRICS}

    def dump(self, path: Path) -> None:
        """Write every span tree: one flat node list per instance, with
        parent links by index."""
        out = []
        for instance_id, root in self.instances:
            nodes, index = [], {}
            for node in root.walk():
                index[id(node)] = len(nodes)
                nodes.append({
                    "name": node.name,
                    "parent": index.get(id(node.parent)),
                    "count": node.count,
                    "total_s": node.total,
                    "self_s": node.total - node.child_total,
                    "lookups": node.lookups,
                    "extra": node.extra,
                })
            out.append({"instance": instance_id, "spans": nodes})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(out) + "\n")
