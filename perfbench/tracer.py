"""Span tracer that wraps the package's public functions from outside.

`Tracer.install` replaces every binding of each traced function object in
the loaded `kolmorep` modules, so calls made through names imported with
`from .x import f` are caught as well as calls through the defining module.
Each call becomes a span (name, start, end, parent, op id) kept in compact
in-memory columns; aggregates (calls, self time, inclusive time, per-call
counters) are kept for every call even after the span store is full.
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import wraps

import numpy as np

# Traced functions: "module.function" -> metric key. Several functions can
# share one key, which then reports them as a group.
SERIALIZE_PARSE = ("matrix", "vector", "weights", "suite", "distribution", "space", "queries")
SERIALIZE_EMIT = ("matrix", "vector", "weights", "suite", "distribution", "space", "censored_space", "estimates")

TRACED = {
    "simplex.solve_zero_one_feasibility": "simplex.solve_zero_one_feasibility",
    "polytope.membership": "polytope.membership",
    "polytope.evaluate": "polytope.evaluate",
    "quantum.born": "quantum.born",
    "quantum.commutes": "quantum.commutes",
    "rational.rationalize": "rational.rationalize",
    "rational.parse_rational": "rational.parse_rational",
    "censorship.compute_compatibility": "censorship.compute_compatibility",
    "censorship.validate_distribution": "censorship.validate_distribution",
    "censorship.context_space": "censorship.context_space",
    "censorship.build_censored_space": "censorship.build_censored_space",
    "censorship.verify_censorship": "censorship.verify_censorship",
    "censorship.effective_probability": "censorship.effective_probability",
    "orsay.build_suite": "orsay.build_suite",
    "orsay.naked_vector": "orsay.naked_vector",
    "orsay.effective_vector": "orsay.effective_vector",
    "orsay.tables": "orsay.tables",
    "simulation.run": "simulation.run",
    "simulation.estimate": "simulation.estimate",
    "serialize.records_to_csv": "serialize.records_to_csv",
    "ch.ch_evaluate": "ch.ch_evaluate",
    "cli.main": "cli.main",
    **{f"serialize.{k}_from_json": "serialize.parse" for k in SERIALIZE_PARSE},
    **{f"serialize.{k}_to_json": "serialize.emit" for k in SERIALIZE_EMIT},
}

# Per-call counters read off a traced function's return value.
COUNTERS = {
    "censorship.verify_censorship": lambda report: report.checked,
    "simulation.run": len,
}

# A membership call with no simplex call beneath it was decided by quick separation.
QUICK = ("polytope.membership", "simplex.solve_zero_one_feasibility")

PACKAGE = "kolmorep"
MAX_SPANS = 1_000_000


class Tracer:
    """Collects spans and per-key aggregates; `clock` returns nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns, max_spans: int = MAX_SPANS) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.keys = sorted(set(TRACED.values()))
        index = {k: i for i, k in enumerate(self.keys)}
        self._index = index
        size = len(self.keys)
        self.calls = [0] * size
        self.self_ns = [0] * size
        self.incl_ns = [0] * size
        self.counts = [0] * size
        self.quick = 0
        self._quick_key = index[QUICK[0]]
        self._quick_bit = 1 << index[QUICK[1]]
        self._stack = []  # frames: [span id, child ns, descendant key mask]
        self.op_id = -1
        # span columns
        self.names = array("h")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.absent = []
        self._bindings = None

    def wrap(self, fn, key: str):
        """Return a wrapper recording one span per call of `fn` under `key`."""
        k = self._index[key]
        bit = 1 << k
        counter = COUNTERS.get(key)
        stack = self._stack
        clock = self.clock

        @wraps(fn)
        def traced(*args, **kwargs):
            span = -1
            if len(self.names) < self.max_spans:
                span = len(self.names)
                self.names.append(k)
                self.starts.append(0)
                self.ends.append(0)
                self.parents.append(stack[-1][0] if stack else -1)
                self.ops.append(self.op_id)
            frame = [span, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(k, bit, frame, start, end)
            if counter is not None:
                self.counts[k] += counter(result)
            return result

        return traced

    def _close(self, k: int, bit: int, frame: list, start: int, end: int) -> None:
        dur = end - start
        self.calls[k] += 1
        self.self_ns[k] += dur - frame[1]
        self.incl_ns[k] += dur
        if k == self._quick_key and not frame[2] & self._quick_bit:
            self.quick += 1
        if frame[0] >= 0:
            self.starts[frame[0]] = start
            self.ends[frame[0]] = end
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dur
            parent[2] |= frame[2] | bit

    def install(self) -> None:
        """Wrap every binding of each traced function in the loaded kolmorep modules.

        Bindings are looked up on the first call only, so installing and
        removing the wrappers around single ops costs a few attribute writes.
        """
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for mod, attr, _fn, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _wrapper in self._bindings or ():
            setattr(mod, attr, fn)

    def _find_bindings(self) -> list:
        modules = [m for name, m in sorted(sys.modules.items()) if m and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        bindings = []
        for qualname, key in TRACED.items():
            mod_name, func_name = qualname.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, func_name, None) if home else None
            if fn is None:
                self.absent.append(qualname)
                continue
            wrapper = self.wrap(fn, key)
            for mod in modules:
                bindings += [(mod, attr, fn, wrapper) for attr, value in vars(mod).items() if value is fn]
        return bindings

    def inclusive_ns(self, key: str) -> int:
        return self.incl_ns[self._index[key]]

    def covered_ns(self) -> int:
        """Time spent inside top-level spans: the wall the named layers account for."""
        return sum(self.self_ns)

    def aggregates(self) -> dict:
        return {
            key: {
                "calls": self.calls[i],
                "self_ns": self.self_ns[i],
                "incl_ns": self.incl_ns[i],
                "count": self.counts[i],
            }
            for i, key in enumerate(self.keys)
        }

    def save_spans(self, path) -> int:
        """Write the span columns as one .npz file; returns the span count."""
        np.savez(
            path,
            names=np.array(self.keys),
            name=np.frombuffer(self.names, dtype=np.int16),
            start=np.frombuffer(self.starts, dtype=np.int64),
            end=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            op=np.frombuffer(self.ops, dtype=np.int64),
        )
        return len(self.names)


def self_times(spans) -> dict:
    """Self time per name from (name, start, end, parent) tuples, parents by index.

    The reference for the live arithmetic in `Tracer`: a span's self time is
    its duration minus the durations of its direct children (spans on one
    thread nest, so children never overlap).
    """
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] = out.get(name, 0) + (end - start) - child[i]
    return out
