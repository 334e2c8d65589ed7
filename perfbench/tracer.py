"""Spans around sepstar's functions, installed from outside the package.

sepstar's modules import each other's functions by name (``from
.graphs import canonical_cert``), so a function is replaced at every
binding site: in the globals of every loaded ``sepstar`` module and
among the values of their module-level dicts (monoids keeps its
oracles in one).

A span records its id, its parent span, the task it belongs to (the
spans of one task share that id), the function and its start and end.
Spans stay in memory until :meth:`Tracer.dump`.  Self time is a span's
duration minus the time its child spans cover; it is summed per
function and per task kind as the spans close.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

SPAN_FIELDS = ("span", "parent", "task", "name", "start_ns", "end_ns")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: dict[tuple[int, str], int] = {}
        self.counts: dict[str, int] = {}
        self.spans = array("q")
        self.stack = [0]  # open span ids; 0 is the root
        self.covered = [0]  # per open span, the time its children took
        self.next_id = 1
        self.task = 0
        self.kind = ""
        self._task_spans: dict[str, object] = {}

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_ns.append(0)
        return len(self.names) - 1

    def span(self, name: str, fn):
        """Wrap fn so that every call records a span named `name`."""
        nid = self._register(name)
        stack, covered, spans = self.stack, self.covered, self.spans
        calls, total, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            covered.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - covered.pop()
                covered[-1] += dur
                calls[nid] += 1
                total[nid] += dur
                key = (nid, tracer.kind)
                self_ns[key] = self_ns.get(key, 0) + own
                spans.extend((sid, parent, tracer.task, nid, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn):
        """Wrap fn so that every call adds one to ``counts[key]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def yields(self, key: str, fn):
        """Wrap a generator function, counting the items it yields."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                yield item

        return wrapper

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def run_task(self, kind: str, thunk):
        """Run one benchmark task as the root span of a new trace."""
        wrapped = self._task_spans.get(kind)
        if wrapped is None:
            wrapped = self._task_spans[kind] = self.span(f"bench.{kind}", lambda t: t())
        self.task += 1
        self.kind = kind
        return wrapped(thunk)

    def self_s(self, names, kinds=None) -> float:
        wanted = {i for i, n in enumerate(self.names) if n in names}
        return sum(
            ns for (nid, kind), ns in self.self_ns.items()
            if nid in wanted and (kinds is None or kind in kinds)
        ) / 1e9

    def total_s(self, name: str) -> float:
        return sum(t for n, t in zip(self.names, self.total_ns) if n == name) / 1e9

    def calls_of(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def dump(self, prefix: str) -> None:
        """Write the spans (native int64 records) and their name table."""
        with open(prefix + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            count = len(self.spans) // len(SPAN_FIELDS)
            json.dump({"fields": SPAN_FIELDS, "names": self.names, "spans": count}, fh)


def install(tracer: Tracer, package: str, hooks: dict) -> None:
    """Wrap the package's public functions at every binding site.

    Public functions get spans and generator functions get a yield
    counter.  ``hooks`` maps ``layer.function`` to a function that
    takes the original and returns the callable to wrap instead; a
    hooked private function is installed without a span.
    """
    modules = [
        m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")
    ]
    replace = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            hook = hooks.get(name)
            if attr.startswith("_"):
                if hook is not None:
                    replace[id(obj)] = (obj, hook(obj))
            elif inspect.isgeneratorfunction(obj):
                replace[id(obj)] = (obj, tracer.yields(f"{name}.yielded", obj))
            else:
                replace[id(obj)] = (obj, tracer.span(name, hook(obj) if hook else obj))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    hit = replace.get(id(value))
                    if hit is not None and hit[0] is value:
                        obj[key] = hit[1]
