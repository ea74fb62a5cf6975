"""Per-layer tracing of ``fanifolds`` from outside the package.

``Tracer.install(pkg)`` wraps, at runtime and in this process only, the
public functions and the public methods of the public classes of each layer
module (see ``run.LAYERS``).  Every call of a wrapped function is a span:
its name, its op, its parent span, its start and its end.  Spans stay in
memory until ``write`` saves them at the end of the run.  A span's self time
is its duration minus the time its child spans cover.

Leaf arithmetic that runs once per vector or lattice point (``SKIPPED``) is
not wrapped: a span there would cost more than the work it measures.  Its
time counts as self time of the span that called it.

A few counters are taken at the same boundaries: cones built, the arrow
quotient cache's hits and lookups, bytes parsed and written, and the census
points found against the box points its degree spans.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from functools import cached_property
from time import perf_counter

SKIPPED = {
    "lattice": {
        "vec", "mat", "dot", "vec_add", "vec_sub", "vec_scale", "mat_vec",
        "mat_mul", "transpose", "content", "primitivize", "identity_matrix",
        "zero_vector", "mat_shape",
    },
    "cones": {"Cone.contains", "Cone.contains_cone"},
    "fanifold": {
        "Fanifold.stratum", "Stratum.plain_fan", "Stratum.is_stacky",
        "Stratum.lattice_rank", "Stratum.chi",
    },
    "bmodel": {
        "ToricDiagram.apply", "ToricDiagram.preimage",
        "ToricDiagram.object_cone", "ToricDiagram.object_rank",
    },
}

OP_SPAN = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.calls: list[int] = [0]
        self.self_s: list[float] = [0.0]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self.op_labels: list[str] = []
        self._stack: list[list] = []
        self.span_op = array.array("i")
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def span(self, nid: int, fn, args, kwargs):
        stack = self._stack
        idx = len(self.span_start)
        self.span_op.append(self.op)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def run_op(self, label: str, fn):
        """One op as a root span; every span under it carries its id."""
        self.op += 1
        self.op_labels.append(label)
        return self.span(0, fn, (), {})

    def _wrap(self, fn, name: str, before=None, after=None):
        nid = self._name_id(name)
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            out = span(nid, fn, args, kwargs)
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- installing --------------------------------------------------------

    def install(self, pkg, layers) -> None:
        """Wrap every layer module's public callables, then rebind the names
        every ``fanifolds`` module imported, so intra-package calls go through
        the wrappers too."""
        hooks = self._hooks()
        replaced: dict[int, object] = {}
        for layer in layers:
            mod = sys.modules[f"{pkg.__name__}.{layer}"]
            skip = SKIPPED.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and name not in skip:
                    before, after = hooks.get(f"{layer}.{name}", (None, None))
                    wrapped = self._wrap(obj, f"{layer}.{name}", before, after)
                    replaced[id(obj)] = wrapped
                    setattr(mod, name, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj, skip, hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == pkg.__name__ or mod_name.startswith(pkg.__name__ + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def _install_class(self, layer: str, cls, skip, hooks) -> None:
        for attr, obj in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            name = f"{layer}.{qual}"
            if qual in skip:
                continue
            before, after = hooks.get(name, (None, None))
            if attr == "__init__" and name in hooks:
                setattr(cls, attr, self._count_only(obj, before))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, name, before, after))
            elif isinstance(obj, cached_property):
                obj.func = self._wrap(obj.func, name, before, after)
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(
                    cls, attr,
                    property(self._wrap(obj.fget, name), obj.fset, obj.fdel, obj.__doc__),
                )
            elif isinstance(obj, (staticmethod, classmethod)):
                setattr(cls, attr, type(obj)(self._wrap(obj.__func__, name)))

    @staticmethod
    def _count_only(fn, before):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)

        return counted

    def _hooks(self) -> dict:
        counts = self.counts

        def cone_built(args):
            counts["cones.built"] += 1

        def fq_lookup(args):
            phi, arrow = args[0], args[1]
            counts["fanifold.fq_cache.lookups"] += 1
            if (arrow.source, arrow.cone_index) in phi._fq_cache:
                counts["fanifold.fq_cache.hits"] += 1

        def bytes_in(args):
            counts["files.bytes_in"] += len(args[0].encode("utf-8"))

        def bytes_out(args, out):
            counts["mesh.bytes_out"] += len(out.encode("utf-8"))

        def census_points(args, census):
            diagram, degree = args[0], args[1]
            counts["bmodel.census.points"] += sum(census.support_sizes.values())
            counts["bmodel.census.box_points"] += sum(
                (2 * degree + 1) ** diagram.object_rank(i)
                for i in range(len(diagram.objects))
            )

        return {
            "cones.Cone.__init__": (cone_built, None),
            "fanifold.Fanifold.arrow_quotient": (fq_lookup, None),
            "files.loads": (bytes_in, None),
            "mesh.export_mesh": (None, bytes_out),
            "bmodel.limit_census": (None, census_points),
        }

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        return {
            n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s) if c
        }

    def write(self, path: str) -> None:
        """All spans, one JSON line per op: [name, parent, start, end]."""
        by_op: dict[int, list] = defaultdict(list)
        for i in range(len(self.span_start)):
            by_op[self.span_op[i]].append(
                [self.span_name[i], self.span_parent[i],
                 round(self.span_start[i], 7), round(self.span_end[i], 7)]
            )
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "span": ["name", "parent", "start", "end"]}) + "\n")
            for op, label in enumerate(self.op_labels):
                fh.write(json.dumps({"op": op, "label": label, "spans": by_op.get(op, [])}) + "\n")
