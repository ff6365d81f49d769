"""Spans recorded from outside the program, around calls into its modules.

`install` wraps every public function of the listed `outerspatial` modules
in every module namespace that binds it (so `decider`'s imported
`nesting_forest` is wrapped as well as `embedding`'s own), records one span
per call and keeps the spans in flat arrays until the run ends.  Self time
is a span's duration minus the time its child spans cover.

The pairwise crossing test and the cycle-side split run hundreds of
thousands of times per pass; they are counted rather than spanned, so their
time stays in the self time of `nesting_forest`, the stage that calls them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

MODULES = ("fileformat", "complexes", "embedding", "surface", "decider", "oracle", "cli")

# Private functions that name a stage of their own.
EXTRA = {("surface", "_component_is_closed_surface"): "surface.closed_surface"}

COUNTED = {"embedding.cycles_cross", "embedding.cycle_sides"}


class Tracer:
    """Span store: parallel arrays of name id, start, end, parent and operation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.counts: list[int] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        self.counts.append(0)

        def counted(*args, **kwargs):
            if self.active:
                self.counts[nid] += 1
            return fn(*args, **kwargs)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            stack = self._stack
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        wrapper = counted if span_name in COUNTED else traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of MODULES wherever they are bound."""
        wrappers: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"outerspatial.{short}")
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # its work runs after the call returns
                span = EXTRA.get((short, attr))
                if span is None and attr.startswith("_"):
                    continue
                wrappers[id(obj)] = self.wrap(span or f"{short}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "outerspatial" and not modname.startswith("outerspatial."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in self._installed:
            setattr(module, attr, obj)
        self._installed.clear()

    def self_times(self) -> array:
        """Per span: duration minus the durations of its direct children."""
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, stem: Path) -> None:
        """Spans as `<stem>.json` (layout) plus `<stem>.bin` (raw arrays)."""
        fields = (("name", self.name), ("start", self.start), ("end", self.end),
                  ("parent", self.parent), ("op", self.op))
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        layout = {"count": len(self), "names": self.names, "calls_counted": self.counts,
                  "fields": [[name, arr.typecode, arr.itemsize] for name, arr in fields]}
        stem.with_suffix(".json").write_text(json.dumps(layout) + "\n")
