"""Span tracing of surfbraid's public API, installed from outside the package.

``Tracer.install`` wraps, in each layer module, every public function, the
constructor (``__init__``), the public methods and the arithmetic operators
of every public class, then rebinds names that other modules took with
``from ... import`` (``bieberbach.order`` is ``torsion.order``) so calls
between modules are caught as well.  One span is kept per wrapped call:
name, start, end, parent span and operation id, in flat arrays that are
written out when the run ends.  Spans get their index on entry, so a
parent's index is always below its children's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("permutations", "core", "words", "torsion", "bieberbach",
          "intmatrix", "intpoly", "invariants", "nonorientable", "cli")
OPERATORS = ("__init__", "__mul__", "__pow__", "__add__", "__sub__", "__neg__", "__divmod__")
NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [NO_PARENT]
        self.current_op = 0
        self.counters: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str, observe=None):
        nid = self._name_id(name)
        span_name, parent, op, start, end, stack, counters = (
            self.span_name, self.parent, self.op, self.start, self.end, self.stack, self.counters)

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                key, amount = observe
                counters[key] += amount(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, target, attr: str, value) -> None:
        self._restore.append((target, attr, target.__dict__[attr] if isinstance(target, type)
                              else getattr(target, attr)))
        setattr(target, attr, value)

    def install(self, observers: dict | None = None) -> None:
        """Wrap every layer module of the imported surfbraid package.

        ``observers`` maps a span name such as ``"words.normalize"`` to a
        pair ``(counter, amount)``: each call adds ``amount(args, result)``
        to ``self.counters[counter]``.
        """
        observers = observers or {}
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"surfbraid.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if callable(obj) and not inspect.isclass(obj):  # functions, lru_cache wrappers
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(obj, name, observers.get(name))
                    replaced[id(obj)] = wrapped
                    self._set(module, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, observers)
        for modname, module in list(sys.modules.items()):
            if modname == "surfbraid" or modname.startswith("surfbraid."):
                for attr, obj in list(vars(module).items()):
                    wrapped = replaced.get(id(obj))
                    if wrapped is not None and obj is not wrapped:
                        self._set(module, attr, wrapped)

    def _wrap_class(self, layer: str, cls: type, observers: dict) -> None:
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name, observers.get(name))))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name, observers.get(name))))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name, observers.get(name)))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # --- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_name)

    def summary(self) -> dict:
        """Calls and self time per layer and per span name.

        Self time is a span's duration minus the durations of its direct
        children; every span is attributed to the layer that owns the
        wrapped function (the text before the first dot of its name).
        """
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p != NO_PARENT:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        by_name = {name: {"calls": calls[k], "self_s": self_s[k]} for k, name in enumerate(self.names)}
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, rec in by_name.items():
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += rec["calls"]
            layer["self_s"] += rec["self_s"]
        return {"layers": layers, "by_name": by_name}

    def calls_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside some span called ``ancestor``."""
        target, outer = self.name_ids.get(name), self.name_ids.get(ancestor)
        if target is None or outer is None:
            return 0
        inside = bytearray(len(self.span_name))
        count = 0
        parent = self.parent
        for i, nid in enumerate(self.span_name):
            p = parent[i]
            if p != NO_PARENT and (inside[p] or self.span_name[p] == outer):
                inside[i] = 1
                if nid == target:
                    count += 1
        return count

    def write(self, directory: Path, stem: str, extra: dict) -> Path:
        """Spans go to ``<stem>.spans`` as five consecutive arrays in the
        machine's byte order (name id i32, parent i32, op i32, start f64,
        end f64), and a JSON index with the names and ``extra`` to
        ``<stem>.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans", "wb") as fh:
            for arr in (self.span_name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)
        index = dict(extra, span_count=len(self), names=self.names, byteorder=sys.byteorder,
                     fields=["name:i32", "parent:i32", "op:i32", "start:f64", "end:f64"])
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(index, indent=1, sort_keys=True))
        return path
