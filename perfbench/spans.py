"""Host-time spans recorded around calls into the library's layers.

The benchmark does not instrument the library itself.  In a traced
run it replaces a handful of public functions and methods -- at the
places the library looks them up -- with wrappers that record one span
per call, and restores the originals afterwards.  Every span belongs to
a *root*: one call the benchmark makes into the system (``op.*``) or
one construction of the system (``setup``).  Calls made outside a root
(the oracle, input generation, the Figure 2 baseline) pass straight
through and are not recorded.

Spans live in flat typed arrays (name, start, end, parent, op id).  The
two per-message boundaries, ``Network.submit`` and payload sizing, run
about a million times in a traced serving run and take about a
microsecond each, so they are *leaves*: their seconds and calls are
summed per parent span instead of stored one by one.  That keeps the
trace file viewable and the tracing overhead down.
:meth:`SpanRecorder.write_chrome` writes the spans once at the end as a
Chrome ``trace_event`` file that Perfetto and ``chrome://tracing`` open,
with each span's leaf sums in its ``args``.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

#: Layers a span name can belong to; its prefix up to the first dot.
#: Root spans (``op.*``, ``setup``) count as ``other``: their self time
#: is glue code in ``repro.core.driver`` and the service front end.
LAYERS = ("points", "kmachine", "core", "serve", "dyn")


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYERS else "other"


class SpanRecorder:
    """In-memory span store with a single-threaded open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.ops = 0
        #: (parent span, leaf name id) -> [seconds, calls]
        self.leaves: dict[tuple[int, int], list] = {}
        #: messages submitted per (op id, destination rank), inside roots
        self.ingress: Counter[tuple[int, int]] = Counter()

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op[stack[0]] if stack else self.ops)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def open_root(self, name: str) -> int:
        """Open a root span; spans opened until it closes share its op id."""
        if self.stack:
            raise RuntimeError(f"root {name!r} opened inside another root")
        return self.open(self.intern(name))

    def close_root(self, index: int) -> None:
        self.close(index)
        self.ops += 1

    # -- accounting ------------------------------------------------------
    def _durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count.

        A span's self time is its duration minus the durations of its
        direct children and leaves; children never overlap on one
        thread.  Leaves have no children, so their self time is their
        whole time.
        """
        dur = self._durations()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        count = len(self.names)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        leaf_s = np.zeros(count)
        leaf_calls = np.zeros(count, dtype=np.int64)
        for (index, name_id), (seconds, calls) in self.leaves.items():
            children[index] += seconds
            leaf_s[name_id] += seconds
            leaf_calls[name_id] += calls
        self_s = dur - children
        inclusive = np.bincount(names, weights=dur, minlength=count) + leaf_s
        exclusive = np.bincount(names, weights=self_s, minlength=count) + leaf_s
        calls = np.bincount(names, minlength=count) + leaf_calls
        return {
            name: {
                "s": float(inclusive[i]),
                "self_s": float(exclusive[i]),
                "calls": int(calls[i]),
            }
            for i, name in enumerate(self.names)
        }

    def wall_s(self) -> float:
        """Seconds inside roots: the traced wall time of the workload."""
        roots = np.frombuffer(self.parent, dtype=np.int32) < 0
        return float(self._durations()[roots].sum())

    def write_chrome(self, path: Path) -> None:
        """Write every span as a complete ("X") Chrome trace event."""
        t0 = self.start[0] if len(self.start) else 0.0
        dur = self._durations()
        leaves: dict[int, dict[str, dict]] = {}
        for (index, name_id), (seconds, calls) in self.leaves.items():
            leaves.setdefault(index, {})[self.names[name_id]] = {
                "s": seconds,
                "calls": calls,
            }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i in range(len(self.start)):
                name = self.names[self.name_id[i]]
                event = {
                    "name": name,
                    "cat": layer_of(name),
                    "ph": "X",
                    "ts": round((self.start[i] - t0) * 1e6, 3),
                    "dur": round(float(dur[i]) * 1e6, 3),
                    "pid": 0,
                    "tid": 0,
                    "args": {"op": self.op[i], **leaves.get(i, {})},
                }
                fh.write(("," if i else "") + json.dumps(event) + "\n")
            fh.write("]}\n")


def _wrap(recorder: SpanRecorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    name_id = recorder.intern(name)
    stack = recorder.stack

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not stack:
            return fn(*args, **kwargs)
        index = recorder.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _wrap_leaf(recorder: SpanRecorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    name_id = recorder.intern(name)
    stack = recorder.stack
    leaves = recorder.leaves
    ingress = recorder.ingress
    count_destinations = name == "kmachine.network.submit"

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not stack:
            return fn(*args, **kwargs)
        if count_destinations:
            ingress[recorder.ops, args[1].dst] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            entry = leaves.get((stack[-1], name_id))
            if entry is None:
                leaves[stack[-1], name_id] = [took, 1]
            else:
                entry[0] += took
                entry[1] += 1

    return wrapper


#: span names recorded as leaves (see the module docstring)
LEAVES = ("kmachine.network.submit", "kmachine.sizing.payload_bits")


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced layer boundary.

    Module-level functions are patched in the modules that call them,
    because those modules imported the function by name.
    """
    import repro.core.driver as driver
    import repro.core.knn as knn
    import repro.serve.session as session
    from repro.kmachine.network import Network
    from repro.kmachine.simulator import Simulator
    from repro.kmachine.sizing import SizingPolicy
    from repro.serve.cache import ResultCache
    from repro.serve.scheduler import AdmissionQueue, MicroBatcher

    return [
        (driver, "make_dataset", "points.make_dataset"),
        (session, "make_dataset", "points.make_dataset"),
        (driver, "shard_dataset", "points.shard_dataset"),
        (session, "shard_dataset", "points.shard_dataset"),
        (Simulator, "run", "kmachine.simulator"),
        (Simulator, "run_episode", "kmachine.simulator"),
        (Network, "submit", "kmachine.network.submit"),
        (Network, "step", "kmachine.network.step"),
        (SizingPolicy, "measure", "kmachine.sizing.payload_bits"),
        (knn, "local_candidates", "core.local_candidates"),
        (session.ClusterSession, "run_batch", "serve.session.run_batch"),
        (ResultCache, "exact_get", "serve.cache"),
        (ResultCache, "warm_suggest", "serve.cache"),
        (ResultCache, "store", "serve.cache"),
        (ResultCache, "advance_epoch", "serve.cache"),
        (AdmissionQueue, "push", "serve.scheduler"),
        (MicroBatcher, "ready", "serve.scheduler"),
        (MicroBatcher, "select", "serve.scheduler"),
        (session.ClusterSession, "insert", "dyn.insert"),
        (session.ClusterSession, "delete", "dyn.delete"),
        (session.ClusterSession, "rebalance", "dyn.rebalance"),
    ]


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the layer wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            wrap = _wrap_leaf if name in LEAVES else _wrap
            setattr(owner, attr, wrap(recorder, name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
