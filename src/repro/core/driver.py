"""One-call user API: distributed selection and ℓ-NN on simulated machines.

These helpers wrap the full pipeline — dataset wrapping, partitioning
onto ``k`` machines, simulator construction with a paper-faithful
bandwidth, protocol execution, and result assembly — behind two
functions:

>>> import numpy as np
>>> from repro.core.driver import distributed_select, distributed_knn
>>> rng = np.random.default_rng(0)
>>> values = rng.uniform(0, 100, 10_000)
>>> result = distributed_select(values, l=10, k=8, seed=1)
>>> len(result.values)
10
>>> pts = rng.uniform(0, 1, (5_000, 8))
>>> res = distributed_knn(pts, query=pts[0], l=5, k=8, seed=1)
>>> res.ids.shape
(5,)

Bandwidth default: the model says ``B = Θ(log n)`` bits — i.e. a
constant number of (value, id)-sized words per round.  We default to
:data:`DEFAULT_BANDWIDTH_BITS`, sized so that exactly one protocol
query message (opcode + two keys) fits per link per round; this is
the tightest setting under which all protocols here advance one
protocol step per round, and it is what makes the simple method's
Θ(ℓ)-round transfer visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, Sized

import numpy as np

from ..kmachine.byz import (
    ByzBudget,
    ByzConfig,
    aggregate_suspicions,
    blame_attempt,
    verify_answer,
)
from ..kmachine.errors import KMachineError
from ..kmachine.faults import ByzantinePlan, FaultPlan
from ..kmachine.machine import Program
from ..kmachine.metrics import Metrics
from ..kmachine.reliable import ReliabilityConfig
from ..kmachine.simulator import SimulationResult, Simulator
from ..kmachine.timing import CostModel
from ..kmachine.tracing import Tracer
from ..points.dataset import Dataset, make_dataset
from ..points.ids import Keyed, key_order
from ..points.metrics import Metric, get_metric
from ..points.partition import shard_dataset
from .binary_search import BinarySearchKNNProgram
from .knn import KNNOutput, KNNProgram
from .saukas_song import SaukasSongKNNProgram
from .selection import SelectionProgram, SelectionStats
from .simple import SimpleKNNProgram

__all__ = [
    "DEFAULT_BANDWIDTH_BITS",
    "RecoveryInfo",
    "SelectResult",
    "KNNResult",
    "distributed_select",
    "distributed_knn",
    "knn_program_for",
    "ALGORITHMS",
]

#: One Algorithm-1 query message — an opcode string plus two (value,
#: id) keys plus the header — rounded up to a power of two.
DEFAULT_BANDWIDTH_BITS = 512

#: Protocol registry for :func:`distributed_knn`'s ``algorithm=`` knob.
ALGORITHMS = ("sampled", "unpruned", "simple", "saukas_song", "binary_search")


def _attempt_seed(seed: int | None, attempt: int) -> int | None:
    """Deterministic per-attempt simulator seed.

    Attempt 1 reproduces the historical ``seed + 1`` exactly (so
    fault-free runs are byte-identical to the unsupervised driver);
    retries derive fresh-but-reproducible seeds so a re-run does not
    replay the randomness that just failed.
    """
    if seed is None:
        return None
    if attempt == 1:
        return seed + 1
    return int(
        np.random.SeedSequence([seed, 0x5E1F, attempt]).generate_state(1)[0]
        & 0x7FFFFFFF
    )


#: Execution backends for the drivers' ``backend=`` switch.
BACKENDS = ("sim", "net")


def _build_simulator(
    backend: str, net_options: Any, persistent: bool = False, **kwargs
) -> Any:
    """Construct the executor for ``backend`` (drivers and sessions).

    ``"sim"`` is the in-process :class:`Simulator`; ``"net"`` the TCP
    backend (:class:`repro.runtime.net.NetSimulator`), which shares
    the constructor surface and raises ``ValueError`` for the features
    it cannot host (Byzantine plans, the unreliable layer, tracing,
    observers) rather than silently diverging.  Imported lazily so the
    common path never touches the runtime package.  ``persistent``
    keeps a net cluster resident across episodes, as the simulator's
    retained contexts always are.
    """
    if backend == "net":
        from ..runtime.net import NetSimulator

        return NetSimulator(persistent=persistent, options=net_options, **kwargs)
    if backend != "sim":
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    if net_options is not None:
        raise ValueError('net_options only applies to backend="net"')
    return Simulator(**kwargs)


class _Supervisor:
    """Attempt-loop bookkeeping for :func:`_supervise`.

    The driver is the durable ingest layer: it holds the *full*
    dataset, so after a failed attempt it re-shards everything across
    the surviving machines and restarts the protocol.  Exactness of
    the final answer therefore survives crash-stop failures — no data
    dies with a machine.  Tracks the survivor set (original ranks),
    both plans renumbered onto it (fired crashes must not re-fire),
    merged metrics across attempts, and the :class:`RecoveryInfo` trail.
    """

    def __init__(
        self,
        k: int,
        faults: FaultPlan | None,
        byzantine: ByzantinePlan | None,
    ) -> None:
        self.survivors = list(range(k))
        self.plan = faults.restricted_to(k) if faults is not None else None
        self.byz_plan = byzantine.restricted_to(k) if byzantine is not None else None
        self.recovery = RecoveryInfo(attempts=0)
        self.metrics: Metrics | None = None

    @property
    def k_eff(self) -> int:
        return len(self.survivors)

    def charge(self, attempt_metrics: Metrics) -> None:
        """Merge one attempt's (possibly partial) metrics into the total."""
        self.recovery.attempts += 1
        self.metrics = (
            attempt_metrics
            if self.metrics is None
            else self.metrics.merge(attempt_metrics)
        )

    def record_failure(
        self, sim: Simulator, err: str, suspects: Iterable[int] = ()
    ) -> None:
        """Account a failed attempt: drop crashed ranks, quarantine
        Byzantine ``suspects`` (local ranks), renumber both plans onto
        the survivors (fired crashes drop out with their machines).

        Excluding a falsely-accused *honest* machine costs capacity
        only, never data — the driver re-shards the full dataset over
        whoever remains."""
        self.recovery.errors.append(f"attempt {self.recovery.attempts}: {err}")
        fired_local = sorted(sim.crashed_ranks)
        sus_local = sorted(
            r for r in set(suspects)
            if 0 <= r < self.k_eff and r not in sim.crashed_ranks
        )
        self.recovery.crashed.extend(self.survivors[r] for r in fired_local)
        self.recovery.excluded.extend(self.survivors[r] for r in sus_local)
        gone = set(fired_local) | set(sus_local)
        keep_local = [i for i in range(self.k_eff) if i not in gone]
        self.survivors = [self.survivors[i] for i in keep_local]
        if self.plan is not None:
            self.plan = self.plan.remap(keep_local)
        if self.byz_plan is not None:
            self.byz_plan = self.byz_plan.remap(keep_local)

    def give_up(
        self, what: str, err: str, caught: KMachineError | None
    ) -> KMachineError:
        """The error to raise when no attempts remain: the final
        attempt's own exception when it raised, else one naming ``err``."""
        if caught is not None:
            return caught
        return KMachineError(
            f"{what} failed after {self.recovery.attempts} attempts: {err}"
        )


def _supervise(
    what: str,
    k: int,
    seed: int | None,
    rng: np.random.Generator,
    *,
    program: Callable[[str, ByzConfig | None, bool], Program],
    inputs: Callable[[int, np.random.Generator], list],
    answer: Callable[[Any], tuple[Sized, SelectionStats | None]],
    want: tuple[int, int],
    degrade: bool,
    election: str,
    faults: FaultPlan | None,
    byzantine: ByzantinePlan | None,
    defense: ByzBudget | None,
    byz_timeout: int | None,
    reliable: ReliabilityConfig | bool,
    max_attempts: int,
    attempt_max_rounds: int | None,
    **sim_options: Any,
) -> tuple[SimulationResult, Metrics, RecoveryInfo | None]:
    """Run one protocol, retrying failed attempts: the drivers' one engine.

    A run is *supervised* when a fault plan, the reliable layer or a
    Byzantine defense (``defense``) is requested; an unsupervised run
    gets one attempt whose exceptions propagate.  Each attempt derives
    its seed and shard RNG (attempt 1 replays the historical stream),
    its election mode (re-elections by minimum id, or ``f``-tolerantly
    under a defense), its :class:`ByzConfig` for the surviving machines,
    and a fresh simulator.  A failed attempt — an exception, incomplete
    outputs, or an answer the trusted :func:`verify_answer` rejects —
    fences crashed machines and :func:`blame_attempt`'s suspects, and
    is retried over the survivors.  With ``degrade`` (and no defense),
    an exhausted budget buys one last attempt of the simple method.

    Per-call hooks: ``program(election, byz, degraded)`` builds the
    attempt's protocol, ``inputs(k, rng)`` its shards, and
    ``answer(output)`` returns one machine's answer keys and selection
    statistics, whose sizes must total within ``want = (lo, hi)``.
    ``sim_options`` (``backend``, ``net_options``, bandwidth and
    observability knobs) pass through to :func:`_build_simulator`.
    """
    supervised = faults is not None or bool(reliable) or defense is not None
    budget = 1
    if supervised:
        budget = max(max_attempts, defense.attempts) if defense else max_attempts
        if budget < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    sup = _Supervisor(k, faults, byzantine)
    caught: KMachineError | None = None
    last_fail_leader: int | None = None  # original rank
    while True:
        attempt = sup.recovery.attempts + 1
        if sup.k_eff < 1:
            raise sup.give_up(what, "every machine crashed", caught)
        shard_rng = rng  # attempt 1 preserves the historical stream
        election_mode = election
        if attempt > 1:
            shard_rng = np.random.default_rng(_attempt_seed(seed, attempt))
            if election == "fixed":
                election_mode = "min_id" if defense is None else "f_tolerant"
        byz_cfg = None if defense is None else defense.config(sup.k_eff, byz_timeout)
        sim = _build_simulator(
            k=sup.k_eff,
            program=program(election_mode, byz_cfg, sup.recovery.degraded),
            inputs=inputs(sup.k_eff, shard_rng),
            seed=_attempt_seed(seed, attempt),
            max_rounds=attempt_max_rounds if attempt_max_rounds is not None else 1_000_000,
            faults=sup.plan,
            byzantine=sup.byz_plan,
            reliable=reliable or None,
            **sim_options,
        )
        err: str | None = None
        caught = None
        result: SimulationResult | None = None
        if supervised:
            try:
                result = sim.run()
            except KMachineError as exc:
                caught = exc
                err = f"{type(exc).__name__}: {exc}"
        else:
            result = sim.run()
        leader: int | None = None
        mismatch: list[int] = []
        if result is not None and any(out is None for out in result.outputs):
            err = "incomplete outputs (machine crashed after peers finished)"
        elif result is not None and defense is not None:
            outputs = result.outputs
            leader = next((r for r, out in enumerate(outputs) if out.is_leader), None)
            shaped = [answer(out) for out in outputs]
            stats = None if leader is None else shaped[leader][1]
            verdict = verify_answer(
                [out.boundary for out in outputs],
                [len(keys) for keys, _ in shaped],
                None if stats is None else stats.accepted_counts,
                *want,
            )
            if not verdict.ok:
                err, mismatch = verdict.reason, verdict.mismatch
        sup.charge(sim.metrics)
        if err is None:
            return result, sup.metrics, sup.recovery if supervised else None
        suspects: tuple[int, ...] = ()
        if byz_cfg is not None and sup.k_eff > 1:
            suspects = blame_attempt(
                caught,
                mismatch,
                aggregate_suspicions(sim.contexts),
                byz_cfg.f,
                leader,
                (
                    sup.survivors.index(last_fail_leader)
                    if last_fail_leader in sup.survivors
                    else None
                ),
            )
            last_fail_leader = None if leader is None else sup.survivors[leader]
        sup.record_failure(sim, err, suspects=suspects)
        if sup.recovery.attempts >= budget:
            if not degrade or defense is not None or sup.recovery.degraded:
                raise sup.give_up(what, err, caught)
            # Graceful degradation: Algorithm 2's sampling pipeline
            # keeps failing — grant the simple method one last shot.
            # Disabled under Byzantine supervision: the simple method
            # has no hardened variant.
            sup.recovery.degraded = True
            budget += 1


@dataclass
class RecoveryInfo:
    """What the supervised drivers did to survive injected faults.

    Attached to results when :func:`distributed_select` /
    :func:`distributed_knn` ran with a fault plan (or the reliable
    layer).  ``attempts`` counts protocol runs, including the final
    successful one; ``crashed`` lists the crashed machines' *original*
    ranks in crash order; ``degraded`` marks the graceful-degradation
    fallback to the simple method; ``errors`` records why each failed
    attempt was abandoned.
    """

    attempts: int = 1
    crashed: list[int] = field(default_factory=list)
    #: Original ranks quarantined as Byzantine suspects (may include
    #: falsely-accused honest machines — a capacity loss, never a
    #: correctness loss).
    excluded: list[int] = field(default_factory=list)
    degraded: bool = False
    errors: list[str] = field(default_factory=list)


@dataclass
class SelectResult:
    """Assembled output of :func:`distributed_select`.

    ``values``/``ids`` are the globally ℓ smallest, ascending by
    (value, id); ``metrics`` is the run's round/message accounting;
    ``stats`` the leader's iteration statistics.  ``recovery`` is
    populated on supervised (fault-injected) runs and covers every
    attempt; ``metrics`` then includes the cost of failed attempts.
    """

    values: np.ndarray
    ids: np.ndarray
    boundary: Keyed
    metrics: Metrics
    stats: SelectionStats
    raw: SimulationResult
    recovery: RecoveryInfo | None = None


@dataclass
class KNNResult:
    """Assembled output of :func:`distributed_knn`.

    ``ids``/``distances``/``points``/``labels`` are the global ℓ-NN
    answer gathered from all machines, ascending by (distance, id).
    ``leader_output`` retains the leader's :class:`KNNOutput` (with
    sampling statistics); ``metrics`` the communication accounting.
    """

    ids: np.ndarray
    distances: np.ndarray
    points: np.ndarray
    labels: np.ndarray | None
    boundary: Keyed
    metrics: Metrics
    leader_output: KNNOutput
    raw: SimulationResult
    recovery: RecoveryInfo | None = None


def _select_inputs(dataset: Dataset, k: int, rng, partitioner: str) -> list[np.ndarray]:
    shards = shard_dataset(dataset, k, rng, partitioner)
    inputs = []
    for shard in shards:
        keys = np.empty(len(shard), dtype=[("value", "f8"), ("id", "i8")])
        keys["value"] = shard.points[:, 0]
        keys["id"] = shard.ids
        inputs.append(keys[key_order(keys)])
    return inputs


def distributed_select(
    values: Sequence[float] | np.ndarray,
    l: int,
    k: int,
    *,
    seed: int | None = None,
    bandwidth_bits: int | None = DEFAULT_BANDWIDTH_BITS,
    election: str = "fixed",
    partitioner: str = "random",
    measure_compute: bool = False,
    cost_model: CostModel | None = None,
    slack: float = 0.0,
    faults: FaultPlan | None = None,
    byzantine: ByzantinePlan | None = None,
    byzantine_f: int | None = None,
    reliable: ReliabilityConfig | bool = False,
    max_attempts: int = 3,
    attempt_max_rounds: int | None = None,
    timeout_rounds: int | None = None,
    timeline: bool = False,
    trace: bool | Tracer = False,
    spans: bool = False,
    observers: Iterable[Any] | None = None,
    profile: bool = False,
    backend: str = "sim",
    net_options: Any = None,
) -> SelectResult:
    """Find the ℓ smallest of ``values`` with Algorithm 1 on k machines.

    ``values`` is any 1-D numeric array; IDs are assigned internally
    (ties broken the paper's way).  ``partitioner`` picks the
    adversary (see :mod:`repro.points.partition`).  ``slack > 0``
    switches to the approximate early-stopping variant (see
    :func:`repro.core.selection.selection_subroutine`): the result
    then contains all ℓ true smallest plus up to ``slack·ℓ`` extras.

    Fault tolerance: with ``faults`` (a
    :class:`~repro.kmachine.faults.FaultPlan`) and/or ``reliable``
    (``True`` or a :class:`~repro.kmachine.reliable.ReliabilityConfig`)
    the run is *supervised*: a failed attempt — leader or worker
    crash, exhausted retransmissions, a timeout (``timeout_rounds``
    per receive, ``attempt_max_rounds`` per attempt) — is retried up
    to ``max_attempts`` times.  Each retry drops the crashed machines,
    re-shards the **full** value set over the survivors (the driver is
    the durable ingest layer, so the answer stays exact) and
    re-elects the leader by minimum ID.  ``result.recovery`` records
    the trail; ``result.metrics`` sums all attempts.

    Byzantine tolerance: with ``byzantine`` (a
    :class:`~repro.kmachine.faults.ByzantinePlan` of lying machines)
    and/or ``byzantine_f`` (the defense budget ``f``; defaults to the
    plan's liar count) the protocol runs its quorum-hardened variant
    (see :mod:`repro.kmachine.byz`), the driver verifies the
    answer-exactness invariant after every attempt, and failed
    attempts quarantine the implicated machines before re-sharding and
    re-electing ``f``-tolerantly.  ``max_attempts`` is raised to at
    least ``2f + 2``.  For ``f < k/3`` the returned answer is never
    wrong — a corrupted attempt is always detected and retried.

    Observability: ``timeline``/``trace``/``spans``/``observers``/
    ``profile`` pass straight through to the :class:`Simulator` (see
    its docs and :mod:`repro.obs`); the recorded spans and tracer ride
    on ``result.raw``, and a profiled run's per-link counters feed
    :mod:`repro.obs.profile`.

    Backends: ``backend="net"`` executes every attempt on the TCP
    runtime (:class:`repro.runtime.net.NetSimulator`, one OS process
    per machine, peers exchanging outboxes over a clique of sockets)
    with transport knobs from ``net_options`` (a
    :class:`repro.runtime.net.NetOptions` or kwargs dict).  Protocol
    randomness matches the simulator seed-for-seed, so the answer is
    identical; crash-stop fault plans still drive the supervised
    recovery path, while probabilistic faults, Byzantine plans, the
    reliable layer, tracing and observers require the default
    ``backend="sim"``.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if not 0 <= l <= arr.size:
        raise ValueError(f"l={l} outside [0, {arr.size}]")
    rng = np.random.default_rng(seed)
    dataset = make_dataset(arr, rng=rng)
    lo = min(l, arr.size)
    hi = lo if slack <= 0 else min(arr.size, l + int(math.ceil(slack * l)))
    result, metrics, recovery = _supervise(
        "selection", k, seed, rng,
        program=lambda election_mode, byz, _degraded: SelectionProgram(
            l, election=election_mode, slack=slack,
            timeout_rounds=timeout_rounds, byz=byz,
        ),
        inputs=lambda k_eff, shard_rng: _select_inputs(
            dataset, k_eff, shard_rng, partitioner
        ),
        answer=lambda out: (out.selected, out.stats),
        want=(lo, hi),
        degrade=False,
        election=election,
        faults=faults,
        byzantine=byzantine,
        defense=ByzBudget.requested(byzantine, byzantine_f),
        byz_timeout=timeout_rounds,
        reliable=reliable,
        max_attempts=max_attempts,
        attempt_max_rounds=attempt_max_rounds,
        backend=backend,
        net_options=net_options,
        bandwidth_bits=bandwidth_bits,
        measure_compute=measure_compute,
        cost_model=cost_model,
        timeline=timeline,
        trace=trace,
        spans=spans,
        observers=observers,
        profile=profile,
    )
    merged = np.concatenate([out.selected for out in result.outputs])
    merged = merged[key_order(merged)]
    leader_out = next(out for out in result.outputs if out.is_leader)
    return SelectResult(
        values=merged["value"].copy(),
        ids=merged["id"].copy(),
        boundary=leader_out.boundary,
        metrics=metrics,
        stats=leader_out.stats,
        raw=result,
        recovery=recovery,
    )


def knn_program_for(
    algorithm: str,
    query: np.ndarray,
    l: int,
    metric: Metric | str,
    election: str = "fixed",
    **knobs,
) -> Program:
    """Construct the KNN protocol program named by ``algorithm``.

    ``sampled`` is the paper's Algorithm 2; ``unpruned`` is Algorithm 2
    without the sampling stage (the O(log ℓ + log k) variant);
    ``simple``, ``saukas_song`` and ``binary_search`` are the
    baselines.  Extra ``knobs`` (``sample_factor``, ``cutoff_factor``,
    ``safe_mode``) only apply to the sampled variants.
    """
    if algorithm == "sampled":
        return KNNProgram(query, l, metric, election, **knobs)
    if algorithm == "unpruned":
        return KNNProgram(query, l, metric, election, prune=False, **knobs)
    if algorithm == "simple":
        return SimpleKNNProgram(query, l, metric, election)
    if algorithm == "saukas_song":
        return SaukasSongKNNProgram(query, l, metric, election)
    if algorithm == "binary_search":
        return BinarySearchKNNProgram(query, l, metric, election)
    raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")


def distributed_knn(
    points: np.ndarray | Dataset,
    query: np.ndarray | float,
    l: int,
    k: int,
    *,
    labels: np.ndarray | None = None,
    metric: Metric | str = "euclidean",
    algorithm: str = "sampled",
    seed: int | None = None,
    bandwidth_bits: int | None = DEFAULT_BANDWIDTH_BITS,
    election: str = "fixed",
    partitioner: str = "random",
    measure_compute: bool = False,
    cost_model: CostModel | None = None,
    faults: FaultPlan | None = None,
    byzantine: ByzantinePlan | None = None,
    byzantine_f: int | None = None,
    reliable: ReliabilityConfig | bool = False,
    max_attempts: int = 3,
    attempt_max_rounds: int | None = None,
    timeline: bool = False,
    trace: bool | Tracer = False,
    spans: bool = False,
    observers: Iterable[Any] | None = None,
    profile: bool = False,
    backend: str = "sim",
    net_options: Any = None,
    **knobs,
) -> KNNResult:
    """Answer one ℓ-NN query over ``points`` sharded onto k machines.

    The primary public entry point.  ``points`` may be a raw array
    (IDs assigned internally, optional ``labels``) or a prepared
    :class:`~repro.points.dataset.Dataset`.

    Fault tolerance: with ``faults`` and/or ``reliable`` the run is
    supervised exactly like :func:`distributed_select` — failed
    attempts (crashes, exhausted retransmissions, timeouts) drop the
    crashed machines, re-shard the full dataset over the survivors,
    re-elect the leader by minimum ID and retry, so the answer stays
    the exact ℓ-NN.  When all ``max_attempts`` runs of Algorithm 2
    fail, the driver *degrades gracefully*: one final attempt runs the
    simple method (no sampling stage — fewer protocol phases to
    disrupt) before giving up.  ``result.recovery`` records attempts,
    crashes, degradation and per-attempt errors; ``result.metrics``
    sums every attempt.

    Byzantine tolerance: ``byzantine``/``byzantine_f`` work exactly as
    in :func:`distributed_select` — hardened protocol, trusted answer
    verification after every attempt, quarantine of implicated
    machines, ``f``-tolerant re-election, ``max_attempts`` raised to
    ``≥ 2f + 2``.  Graceful degradation to the simple method is
    *disabled* under Byzantine supervision (the simple method has no
    hardened variant, so degrading would trade a detected failure for
    a potentially silent wrong answer), and only the ``sampled`` and
    ``unpruned`` algorithms support hardening.

    Observability: ``timeline``/``trace``/``spans``/``observers``/
    ``profile`` pass straight through to the :class:`Simulator` (see
    its docs and :mod:`repro.obs`); the recorded spans and tracer ride
    on ``result.raw``, and a profiled run's per-link counters feed
    :mod:`repro.obs.profile`.

    Backends: ``backend="net"`` runs every attempt on the TCP runtime
    exactly as described for :func:`distributed_select` — identical
    answers (same seed ⇒ same protocol randomness), crash-stop fault
    plans supported, everything needing payload visibility
    (probabilistic faults, Byzantine, reliable layer, trace,
    observers) restricted to ``backend="sim"``.
    """
    rng = np.random.default_rng(seed)
    dataset = (
        points
        if isinstance(points, Dataset)
        else make_dataset(np.asarray(points), labels=labels, rng=rng)
    )
    if not 1 <= l <= len(dataset):
        raise ValueError(f"l={l} outside [1, {len(dataset)}]")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    defense = ByzBudget.requested(byzantine, byzantine_f)
    if defense is not None:
        if algorithm not in ("sampled", "unpruned"):
            raise ValueError(
                f"byzantine hardening supports algorithms 'sampled' and "
                f"'unpruned', not {algorithm!r}"
            )
        if knobs.get("safe_mode") is False:
            raise ValueError("byzantine hardening requires safe_mode=True")
    metric_obj = get_metric(metric)
    query_arr = np.atleast_1d(np.asarray(query, dtype=np.float64))

    def program(
        election_mode: str, byz: ByzConfig | None, degraded: bool
    ) -> Program:
        current = "simple" if degraded else algorithm
        if current not in ("sampled", "unpruned"):
            return knn_program_for(current, query_arr, l, metric_obj, election_mode)
        hardening = {} if byz is None else {"byz": byz}
        return knn_program_for(
            current, query_arr, l, metric_obj, election_mode,
            **knobs, **hardening,
        )

    result, metrics, recovery = _supervise(
        "knn", k, seed, rng,
        program=program,
        inputs=lambda k_eff, shard_rng: shard_dataset(
            dataset, k_eff, shard_rng, partitioner,
            metric=metric_obj, query=query_arr,
        ),
        answer=lambda out: (out.ids, out.selection_stats),
        want=(l, l),
        degrade=algorithm != "simple",
        election=election,
        faults=faults,
        byzantine=byzantine,
        defense=defense,
        byz_timeout=knobs.get("timeout_rounds") or None,
        reliable=reliable,
        max_attempts=max_attempts,
        attempt_max_rounds=attempt_max_rounds,
        backend=backend,
        net_options=net_options,
        bandwidth_bits=bandwidth_bits,
        measure_compute=measure_compute,
        cost_model=cost_model,
        timeline=timeline,
        trace=trace,
        spans=spans,
        observers=observers,
        profile=profile,
    )
    outputs: list[KNNOutput] = result.outputs
    table = np.empty(
        sum(len(o.ids) for o in outputs), dtype=[("value", "f8"), ("id", "i8")]
    )
    offset = 0
    rows = []
    labels_parts = []
    for out in outputs:
        n = len(out.ids)
        table["value"][offset : offset + n] = out.distances
        table["id"][offset : offset + n] = out.ids
        rows.append(out.points)
        if out.labels is not None:
            labels_parts.append(out.labels)
        offset += n
    order = key_order(table)
    all_points = np.concatenate(rows) if rows else np.empty((0, dataset.dim))
    all_labels = np.concatenate(labels_parts) if labels_parts else None
    leader_out = next(out for out in outputs if out.is_leader)
    return KNNResult(
        ids=table["id"][order].copy(),
        distances=table["value"][order].copy(),
        points=all_points[order],
        labels=None if all_labels is None else all_labels[order],
        boundary=leader_out.boundary,
        metrics=metrics,
        leader_output=leader_out,
        raw=result,
        recovery=recovery,
    )
