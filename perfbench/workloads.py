"""The benchmark's three workloads, their inputs and their oracle checks.

Every workload is a closed loop with one client: the next call into the
system is made only after the previous one returned.  All inputs come
from ``--seed`` and are generated before timing starts, as a fixed set
of repetitions (one ``distributed_knn`` call, or one replay or churn
stream on a fresh service); nothing carries over between repetitions.
A run serves the whole set in passes until ``--seconds`` have gone by,
at least twice, so every repetition is *replayed*: served again from
scratch on the same inputs, which the system answers identically, call
for call.

Time is charged only inside calls into the system (:class:`Harness`),
never to the client's bookkeeping or to the brute-force oracle, which
runs between calls.  A query's host latency is the system time that
elapsed from the start of its ``submit`` call until the ``poll`` that
first returned its answer: the sum of the calls in between.

Host times keep each call's fastest replay, because a tenant sharing
the host only ever slows a call down; a repetition's busy time and its
queries' latencies are sums of those fastest calls.  The replays of a
repetition are a pass apart, several seconds, so a short slow spell of
the host rarely covers them all.  Longer spells, of a minute and more,
slow every call, so each replay is first rescaled by the host-speed
probe run just before it (``probe.py``).  Counts (rounds, messages) come from the first pass, so
they are exact for a seed and do not depend on the host.

* ``knn-paper-1d`` -- the paper's user call: Figure 2 input, one fresh
  query and seed per ``distributed_knn`` call on the raw array.
* ``serve-mixed`` -- ``benchmarks/bench_serve.py``'s bursty + drift +
  uniform replay on a fresh resident service per repetition, arrival
  times on the service's logical clock.
* ``serve-churn`` -- ``benchmarks/bench_dyn.py``'s skewed-start churn
  stream (p_insert 0.15, p_delete 0.25), driven op by op.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.core.driver import distributed_knn
from repro.dyn.churn import make_churn
from repro.kmachine.timing import CostModel
from repro.points import paper_workload
from repro.points.dataset import Shard
from repro.points.generators import PAPER_VALUE_HIGH
from repro.points.metrics import get_metric
from repro.sequential.brute import brute_force_knn, brute_force_knn_ids
from repro.serve import KNNService, QueueFullError, Workload, make_workload

from probe import host_scale
from spans import SpanRecorder

EUCLIDEAN = get_metric("euclidean")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`SMOKE` shrinks them for the benchmark's own test."""

    paper_k: int = 32
    paper_per_machine: int = 2**14
    paper_l: int = 1024
    #: untimed calls before the loop; their median is ``setup_s``
    paper_setups: int = 5
    #: repetitions of each workload, served once per pass; a pass takes
    #: about 10 s, so a 50 s run replays each repetition several times
    paper_reps: int = 16
    mixed_reps: int = 24
    churn_reps: int = 16
    mixed_n: int = 4000
    mixed_counts: tuple[int, int, int] = (80, 80, 40)
    churn_n: int = 1200
    churn_ops: int = 260


FULL = Sizes()
SMOKE = Sizes(
    paper_k=4,
    paper_per_machine=256,
    paper_l=16,
    paper_setups=2,
    paper_reps=2,
    mixed_reps=2,
    churn_reps=2,
    mixed_n=300,
    mixed_counts=(8, 8, 4),
    churn_n=200,
    churn_ops=30,
)


@dataclass
class Phase:
    """What one timed phase, or one replay, did: op counts, samples and layer counters."""

    ops: int = 0
    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    refused: int = 0
    busy_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    # -- one replay: its calls ----------------------------------------------
    #: host seconds of each call into the system, in call order
    call_s: list[float] = field(default_factory=list)
    #: (first call, one past the last call) of each answered query
    query_calls: list[tuple[int, int]] = field(default_factory=list)
    # -- per repetition, from each call's fastest scaled replay -------------
    #: ops per busy second
    rep_rates: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    #: query latency percentiles (50, 90) of each repetition of several queries
    rep_query_s: list[tuple[float, float]] = field(default_factory=list)
    #: host-speed scale of each replay (``probe.host_scale``)
    scales: list[float] = field(default_factory=list)
    # -- first replay of each repetition ------------------------------------
    first_ops: int = 0
    latency_rounds: list[float] = field(default_factory=list)
    modelled_ms: list[float] = field(default_factory=list)
    rounds: int = 0
    messages: int = 0
    # -- per-layer readings ------------------------------------------------
    comm_ms: list[float] = field(default_factory=list)
    compute_ms: list[float] = field(default_factory=list)
    fig2_ratio: list[float] = field(default_factory=list)
    #: ``knn-paper-1d``: (query index, modelled seconds) of each timed call
    served: list[tuple[int, float]] = field(default_factory=list)
    records: list[Any] = field(default_factory=list)
    mutations: list[Any] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.refused

    def absorb(self, replay: "Phase") -> None:
        """Count a replay's ops; every replay's count toward the totals."""
        self.ops += replay.ops
        self.attempted += replay.attempted
        self.wrong += replay.wrong
        self.errors += replay.errors
        self.refused += replay.refused
        self.busy_s += replay.busy_s

    def add(self, rep: "Replays") -> None:
        """Fold in one repetition: fastest host times, first-replay counts."""
        first = rep.first
        edges = np.concatenate([[0.0], np.cumsum(rep.call_s)])
        if edges[-1] > 0:
            self.rep_rates.append(first.ops / edges[-1])
        self.setup_s.extend(rep.setup_s)
        query_s = [edges[end] - edges[start] for start, end in first.query_calls]
        self.query_s.extend(query_s)
        if len(query_s) > 1:
            self.rep_query_s.append(tuple(np.percentile(query_s, (50, 90))))
        self.first_ops += first.ops
        self.rounds += first.rounds
        self.messages += first.messages
        for name in (
            "latency_rounds", "modelled_ms", "comm_ms", "compute_ms",
            "served", "records", "mutations",
        ):
            getattr(self, name).extend(getattr(first, name))


class Replays:
    """One repetition's replays: the first, and each call's fastest scaled time."""

    def __init__(self, first: Phase, scale: float) -> None:
        self.first = first
        self.call_s = np.asarray(first.call_s) * scale
        self.setup_s = [t * scale for t in first.setup_s]

    def update(self, replay: Phase, scale: float) -> None:
        # A failed op can cut a replay short; then its calls do not pair up.
        if len(replay.call_s) == len(self.call_s):
            np.minimum(self.call_s, np.asarray(replay.call_s) * scale, out=self.call_s)
        self.setup_s = [min(a, t * scale) for a, t in zip(self.setup_s, replay.setup_s)]


class Harness:
    """Times every call into the system; one root span each when traced."""

    def __init__(self, phase: Phase, recorder: SpanRecorder | None = None) -> None:
        self.phase = phase
        self.recorder = recorder

    @property
    def calls(self) -> int:
        """Calls into the system so far (set-up calls aside)."""
        return len(self.phase.call_s)

    def _timed(self, name: str, fn: Callable[..., Any], args, kwargs, sink: list | None) -> Any:
        rec = self.recorder
        index = rec.open_root(name) if rec is not None else -1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            if rec is not None:
                rec.close_root(index)
            if sink is None:
                self.phase.busy_s += took
                self.phase.call_s.append(took)
            else:
                sink.append(took)

    def call(self, name: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        return self._timed(name, fn, args, kwargs, None)

    def setup(self, fn: Callable[..., Any], *args, **kwargs) -> Any:
        return self._timed("setup", fn, args, kwargs, self.phase.setup_s)


def _report_error(what: str) -> None:
    print(f"error in {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class _Workload:
    """The client loop over a fixed set of pre-generated repetitions."""

    name = ""
    #: repetitions in one pass
    reps = 0

    def run(self, harness: Harness, seconds: float, passes: int = 1) -> None:
        """Serve passes over the repetitions until ``seconds`` have passed.

        Serves at least ``passes`` whole passes; the last one may stop
        part way.  Each replay of a repetition follows one probe of the
        host's speed.
        """
        phase = harness.phase
        start, scale = Phase(), host_scale()
        self._begin(Harness(start, harness.recorder))
        phase.absorb(start)
        phase.setup_s.extend(t * scale for t in start.setup_s)
        reps: list[Replays] = []
        deadline = perf_counter() + seconds
        done = 0
        while done < passes or perf_counter() < deadline:
            for item in range(self.reps):
                scale = host_scale()
                replay = Phase()
                self._rep(Harness(replay, harness.recorder), item)
                phase.absorb(replay)
                phase.scales.append(scale)
                if done == 0:
                    reps.append(Replays(replay, scale))
                else:
                    reps[item].update(replay, scale)
                if done >= passes and perf_counter() >= deadline:
                    break
            done += 1
        for rep in reps:
            phase.add(rep)
        self._end(harness)

    def _begin(self, harness: Harness) -> None:
        pass

    def _rep(self, harness: Harness, item: int) -> None:
        raise NotImplementedError

    def _end(self, harness: Harness) -> None:
        pass


class PaperQuery(_Workload):
    """``knn-paper-1d``: Figure 2's one-shot query, k=32, n/k=2^14, l=1024."""

    name = "knn-paper-1d"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        dataset, first = paper_workload(rng, sizes.paper_k, sizes.paper_per_machine)
        self.values = dataset.points[:, 0].copy()
        self.queries = np.concatenate(
            [[first], rng.integers(0, PAPER_VALUE_HIGH, sizes.paper_reps - 1)]
        ).astype(np.float64)
        self.seeds = rng.integers(0, 2**31 - 1, sizes.paper_reps)
        self.sizes = sizes
        self.reps = sizes.paper_reps
        self.setup_done = False
        # Only the distances are kept: a result also holds every shard.
        self.answers: list[tuple[int, np.ndarray]] = []

    def _call(self, i: int, algorithm: str = "sampled") -> Any:
        return distributed_knn(
            self.values,
            self.queries[i],
            self.sizes.paper_l,
            self.sizes.paper_k,
            seed=int(self.seeds[i]),
            algorithm=algorithm,
            measure_compute=True,
            cost_model=CostModel(),
        )

    def _attempt(self, harness: Harness, i: int, timed: bool) -> Any:
        phase = harness.phase
        phase.attempted += 1
        try:
            if timed:
                return harness.call("op.distributed_knn", self._call, i)
            return harness.setup(self._call, i)
        except Exception:
            phase.errors += 1
            _report_error(f"{self.name} call {i}")
            return None

    def _begin(self, harness: Harness) -> None:
        """The first calls of the process are its set-up."""
        if self.setup_done:
            return
        self.setup_done = True
        for call in range(self.sizes.paper_setups):
            item = call % self.reps
            result = self._attempt(harness, item, timed=False)
            if result is not None:
                self.answers.append((item, result.distances))

    def _rep(self, harness: Harness, i: int) -> None:
        phase = harness.phase
        start = harness.calls
        result = self._attempt(harness, i, timed=True)
        if result is None:
            return
        self.answers.append((i, result.distances))
        m = result.metrics
        phase.ops += 1
        phase.query_calls.append((start, harness.calls))
        phase.latency_rounds.append(m.rounds)
        phase.modelled_ms.append(m.simulated_seconds * 1e3)
        phase.rounds += m.rounds
        phase.messages += m.messages
        phase.comm_ms.append(m.comm_seconds * 1e3)
        phase.compute_ms.append(m.compute_seconds * 1e3)
        phase.served.append((i, m.simulated_seconds))

    def _end(self, harness: Harness) -> None:
        for i, distances in self.answers:
            if not np.array_equal(distances, self._oracle(i)):
                harness.phase.wrong += 1
        self.answers.clear()

    def fig2(self, phase: Phase, seconds: float) -> None:
        """Serve ``phase``'s queries again with the simple method, untimed.

        Appends modelled simple ÷ sampled seconds per query to
        ``phase.fig2_ratio``, for at most about ``seconds``.
        """
        deadline = perf_counter() + seconds
        for i, sampled in dict(phase.served).items():
            simple = self._call(i, algorithm="simple").metrics
            phase.fig2_ratio.append(simple.simulated_seconds / sampled)
            if perf_counter() >= deadline:
                break

    def _oracle(self, i: int) -> np.ndarray:
        """The brute-force top-l distances for query ``i``.

        Ids are drawn inside each call, so answers are compared by
        distance, which is tie-safe.  The oracle runs on the points no
        farther than the l-th smallest distance, which hold every answer
        and its ties; that keeps the check cheap next to a call even when
        calls get much faster.
        """
        l = self.sizes.paper_l
        gaps = np.abs(self.values - self.queries[i])
        cut = np.partition(gaps, l - 1)[l - 1]
        near = np.flatnonzero(gaps <= cut)
        oracle = Shard(points=self.values[near], ids=near)
        _, want = brute_force_knn(oracle, np.array([self.queries[i]]), l)
        return want


class _Serving(_Workload):
    """Shared client loop of the two serving workloads."""

    def __init__(self, sizes: Sizes) -> None:
        super().__init__()
        self.sizes = sizes
        #: the inputs of each repetition
        self.inputs: list[tuple] = []

    def _start(self, harness: Harness, rep: tuple) -> Any:
        """Construct the service (timed as set-up) and snapshot its corpus."""
        service = harness.setup(self._service, rep)
        session = service.session
        self._base = (session.rounds, session.metrics.messages)
        self.mirror_points = session.dataset.points.copy()
        self.mirror_ids = session.dataset.ids.copy()
        self.pending: dict[int, tuple[float, np.ndarray]] = {}
        return service

    def _finish(self, harness: Harness, service: Any) -> None:
        self._flush(harness, service)
        session = service.session
        rounds, messages = self._base
        phase = harness.phase
        phase.rounds += session.rounds - rounds
        phase.messages += session.metrics.messages - messages
        # set-up episodes too (the skewed start's first rebalance), as
        # the traced run's set-up spans count toward the layers
        phase.mutations.extend(session.mutations)
        service.close()

    def _op(self, harness: Harness, name: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """One counted op; returns ``None`` when it failed."""
        phase = harness.phase
        phase.attempted += 1
        try:
            out = harness.call(name, fn, *args, **kwargs)
        except QueueFullError:
            phase.refused += 1
            return None
        except Exception:
            phase.errors += 1
            _report_error(f"{self.name} {name}")
            return None
        phase.ops += 1
        return out

    def _submit(self, harness: Harness, service: Any, query: np.ndarray, **kw) -> None:
        start = harness.calls
        qid = self._op(harness, "op.submit", service.submit, query, **kw)
        if qid is not None:
            self.pending[qid] = (start, query)
        self._poll(harness, service)

    def _poll(self, harness: Harness, service: Any) -> None:
        """Poll every outstanding query; verify the ones answered."""
        phase = harness.phase
        for qid in list(self.pending):
            answer = harness.call("op.poll", service.poll, qid)
            if answer is None:
                continue
            start, query = self.pending.pop(qid)
            phase.query_calls.append((start, harness.calls))
            phase.latency_rounds.append(answer.record.latency_rounds)
            phase.records.append(answer.record)
            if {int(i) for i in answer.ids} != self._oracle(query, service.session.l):
                phase.wrong += 1

    def _oracle(self, query: np.ndarray, l: int) -> set[int]:
        """The brute-force l-NN ids of ``query`` in the mirror.

        As for ``knn-paper-1d``, the oracle runs on the points no
        farther than the l-th smallest distance, which hold every answer
        and its ties: that keeps the check cheap next to the calls.
        """
        gaps = EUCLIDEAN.distances(self.mirror_points, query)
        near = np.flatnonzero(gaps <= np.partition(gaps, l - 1)[l - 1])
        oracle = Shard(points=self.mirror_points[near], ids=self.mirror_ids[near])
        return brute_force_knn_ids(oracle, query, l)

    def _flush(self, harness: Harness, service: Any) -> None:
        harness.call("op.flush", service.flush)
        self._poll(harness, service)
        for _ in self.pending:
            harness.phase.errors += 1  # never answered
        self.pending.clear()


def _mixed_workload(rng: np.random.Generator, counts: tuple[int, int, int]) -> Workload:
    bursty, drift, uniform = counts
    seeds = rng.integers(0, 2**31 - 1, 3)
    events = (
        list(make_workload("bursty", bursty, 3, seed=int(seeds[0]), burst_gap=6.0))
        + list(make_workload("drift", drift, 3, seed=int(seeds[1]), dt=0.6))
        + list(make_workload("uniform", uniform, 3, seed=int(seeds[2]), rate=0.8))
    )
    return Workload(events=sorted(events, key=lambda e: e.time), kind="mixed")


class ServeMixed(_Serving):
    """``serve-mixed``: k=4, l=8, n=4000, 3-D, window 8, max_batch 16."""

    name = "serve-mixed"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(sizes)
        rng = np.random.default_rng(seed)
        self.reps = sizes.mixed_reps
        self.inputs = [
            (
                int(rng.integers(0, 2**31 - 1)),
                rng.uniform(0.0, 1.0, (sizes.mixed_n, 3)),
                _mixed_workload(rng, sizes.mixed_counts),
            )
            for _ in range(self.reps)
        ]

    @staticmethod
    def _service(rep: tuple) -> KNNService:
        seed, corpus, _ = rep
        return KNNService(corpus, 8, 4, seed=seed, window=8.0, max_batch=16)

    def _rep(self, harness: Harness, item: int) -> None:
        rep = self.inputs[item]
        service = self._start(harness, rep)
        for event in rep[2]:
            self._submit(harness, service, event.query, at=event.time, deadline=event.deadline)
        self._finish(harness, service)


class ServeChurn(_Serving):
    """``serve-churn``: k=4, l=8, n=1200, skewed start, window 4, max_batch 8."""

    name = "serve-churn"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(sizes)
        rng = np.random.default_rng(seed)
        self.reps = sizes.churn_reps
        for _ in range(self.reps):
            service_seed, stream_seed = (int(s) for s in rng.integers(0, 2**31 - 1, 2))
            corpus = rng.uniform(0.0, 1.0, (sizes.churn_n, 3))
            stream = make_churn(
                sizes.churn_ops, 3, seed=stream_seed, p_insert=0.15, p_delete=0.25
            )
            # Which live point a delete removes, as a fraction of the
            # live count at that moment.
            victims = rng.uniform(0.0, 1.0, len(stream))
            self.inputs.append((service_seed, corpus, stream, victims))

    @staticmethod
    def _service(rep: tuple) -> KNNService:
        seed, corpus, _, _ = rep
        return KNNService(
            corpus,
            8,
            4,
            seed=seed,
            window=4.0,
            max_batch=8,
            partitioner="skewed",
            balance_threshold=2.0,
        )

    def _rep(self, harness: Harness, item: int) -> None:
        rep = self.inputs[item]
        service = self._start(harness, rep)
        l = service.session.l
        for op, victim in zip(rep[2], rep[3]):
            if op.kind == "query":
                self._submit(harness, service, op.point)
                continue
            if op.kind == "delete" and len(self.mirror_ids) <= l:
                continue  # keep the corpus well-posed, as run_churn does
            # Answer and verify pending queries while the mirror still
            # matches their epoch; the service would flush them anyway.
            self._flush(harness, service)
            if op.kind == "insert":
                ids = self._op(harness, "op.insert", service.insert, op.point)
                if ids is not None:
                    self.mirror_points = np.vstack([self.mirror_points, op.point[None, :]])
                    self.mirror_ids = np.concatenate([self.mirror_ids, ids])
            else:
                target = int(self.mirror_ids[int(victim * len(self.mirror_ids))])
                if self._op(harness, "op.delete", service.delete, [target]) is not None:
                    keep = self.mirror_ids != target
                    self.mirror_points = self.mirror_points[keep]
                    self.mirror_ids = self.mirror_ids[keep]
        self._finish(harness, service)


WORKLOADS = {w.name: w for w in (PaperQuery, ServeMixed, ServeChurn)}
