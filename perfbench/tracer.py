"""Timing spans around the public functions of mukaikit, installed from outside.

``Tracer.install`` wraps every public module-level function and every
public method of a public class of each layer module, then rebinds the
wrappers in every ``mukaikit`` namespace that holds the original (names
imported with ``from .lattice import pairing`` and the package
re-exports). No library file changes.

A span is ``(id, parent id, query id, name index, start ns, end ns)``;
spans stay in memory and are written when the run ends. Parents come from
a per-thread stack, so a span opened in a pool thread is a root of its own.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("exactlin", "shortvec", "lattice", "mukai", "twisted", "surface", "walls",
          "moduli", "config", "serialize", "cli")

# Functions whose returned list lengths are work counters.
SIZED = {
    "shortvec.short_vectors": "shortvec.short_vectors.hits",
    "walls.walls_through_class": "walls.returned",
    "walls.walls_crossing_segment": "walls.returned",
}


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.names: list[str] = []
        self.sizes: dict[str, int] = defaultdict(int)
        self.query = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter_ns
        sized = SIZED.get(name)
        sizes = self.sizes
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.query, index, start, end))
            if sized is not None:
                sizes[sized] += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> int:
        """Wrap the public functions of every loaded layer module."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"mukaikit.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _is_function(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif isinstance(obj, type):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mukaikit" or name.startswith("mukaikit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        return len(self.names)

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(obj, f"{prefix}.{attr}"))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(obj.__func__, f"{prefix}.{attr}")))

    def dump(self, path: Path) -> None:
        """Write the spans as tab-separated ``id parent query name start end`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, query, index, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{query}\t{self.names[index]}\t{start}\t{end}\n")


def self_times(spans, name_of) -> tuple[dict[str, int], dict[str, int]]:
    """Calls and self time (ns) per span name.

    Self time is a span's duration minus the durations of its direct
    children; children on one thread nest and do not overlap.
    """
    child_ns: dict[tuple, int] = defaultdict(int)
    for sid, parent, query, _, start, end in spans:
        if parent:
            child_ns[(query, parent)] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for sid, parent, query, index, start, end in spans:
        name = name_of(index)
        calls[name] += 1
        self_ns[name] += end - start - child_ns[(query, sid)]
    return calls, self_ns


def read_child_spans(path: Path, query: int, names: dict[str, int], out: list) -> dict:
    """Append the spans of one traced CLI child under ``query``.

    Returns the child's trailer: ``import_ns``, ``run_ns`` and ``sizes``.
    """
    trailer = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                trailer = json.loads(line[1:])
                continue
            sid, parent, _, name, start, end = line.rstrip("\n").split("\t")
            index = names.setdefault(name, len(names))
            out.append((int(sid), int(parent), query, index, int(start), int(end)))
    return trailer
