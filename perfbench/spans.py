"""Span recorder that times calls into kwaring's layers from outside the library.

The recorder replaces a function or method with a wrapper at every place a
caller looks it up: each module attribute that names the function (so both
``kwaring.decomp.verify`` and the ``verify`` that ``kwaring.cli`` imported)
and each class attribute that holds it (so ``RingElement.__rmul__``, an alias
of ``__mul__``).  While the recorder is active a wrapped call appends one
span: layer name, start, end, the span that was open when it began, and the
operation it belongs to.  Spans stay in flat in-memory arrays until the run
ends; a layer's self time is the duration of its spans minus the durations of
their direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict = {}
        self.active = False
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    # -- installing wrappers ---------------------------------------------------

    def _wrap(self, name, fn, measure):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.start)
            stack = rec._stack
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.op_id.append(rec.op)
            rec.start.append(0)
            rec.end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1
            if measure is not None:
                measure(rec, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_function(self, name, original, measure=None):
        """Wrap every attribute bound to ``original`` in the modules of its package."""
        package = original.__module__.split(".")[0]
        owners = [
            mod for mod_name, mod in sorted(sys.modules.items())
            if mod is not None
            and (mod_name == package or mod_name.startswith(package + "."))
        ]
        wrapper = self._wrap(name, original, measure)
        found = 0
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    found += 1
        if not found:
            raise LookupError(f"{name}: no module attribute holds {original!r}")

    def wrap_method(self, name, cls, attr, measure=None):
        """Wrap a method under every class attribute that aliases it."""
        original = cls.__dict__[attr]
        wrapper = self._wrap(name, original, measure)
        for alias, value in list(vars(cls).items()):
            if value is original:
                self._patched.append((cls, alias, original))
                setattr(cls, alias, wrapper)

    def unpatch(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- results ---------------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def layers(self) -> dict:
        """Per layer name: call count, total and self time in nanoseconds."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        total = np.bincount(a["name_id"], weights=dur, minlength=n)
        self_ns = np.bincount(a["name_id"], weights=dur - child, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_ns": int(total[i]),
                   "self_ns": int(self_ns[i])}
            for i, name in enumerate(self.names)
        }

    def call_counts(self) -> dict:
        counts = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                             minlength=len(self.names))
        out = {name: int(counts[i]) for i, name in enumerate(self.names)}
        out.update(self.counters)
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
