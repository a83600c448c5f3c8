"""Byzantine defense primitives for k-machine protocols.

The fault layer (:mod:`repro.kmachine.faults`) models *honest*
failures; :class:`~repro.kmachine.faults.ByzantinePlan` adds lying
machines whose NICs equivocate counts, forge key values, scale load
reports or selectively drop traffic.  This module is the defense side:
the quorum and robust-reduction building blocks that
:mod:`repro.core.selection`, :mod:`repro.core.knn`,
:mod:`repro.core.leader` and :mod:`repro.dyn` compose behind a
``byzantine_f`` knob.

Threat model (see DESIGN.md §11)
--------------------------------
Up to ``f < k/3`` machines lie on the wire; they still run honest
program code, so their *local* state (shard contents, per-machine
result objects) is trustworthy to the control plane.  The synchronous
clique gives authenticated point-to-point channels: a receiver always
knows the true ``src`` of a message, so a liar cannot impersonate an
honest machine — it can only misreport values and relay them
inconsistently.

Defense layers
--------------
1.  **Quorum-verified gathers** (:func:`gather_quorum` /
    :func:`serve_gather`): every worker broadcasts its leader-bound
    report and peers relay what they heard as :class:`Echo` envelopes.
    The leader resolves each origin by plurality; with ``f < k/3``,
    dissent above ``f`` on one origin proves that origin equivocated.
2.  **Confirmed broadcasts** (:func:`confirmed_broadcast` /
    :func:`receive_confirmed`): workers cross-echo a leader broadcast
    and adopt the plurality value when it has ``>= W - f`` support
    (``W`` = number of live workers), correcting per-recipient lies by
    a Byzantine leader and aborting with suspicion on wider splits.
3.  **Robust reductions** (:func:`median_of_reports`,
    :func:`robust_loads`): median-anchored clipping bounds the damage
    a lying load/report scalar can do to placement decisions.
4.  **Suspicion tracking + blame attribution**
    (:class:`SuspicionTracker`, :func:`aggregate_suspicions`,
    :func:`attribute_blame`, :func:`blame_attempt`): protocol-level
    accusations are aggregated by the recovery drivers, which compare
    wire claims against realised per-machine outputs and exclude at
    most ``f`` suspects per failed attempt (falling back to the leader
    when attribution is ambiguous — a lying leader can frame workers,
    but it cannot survive two consecutive failed attempts).

None of these layers is trusted for *correctness* of the ℓ-NN answer.
Correctness rides on an end-to-end invariant checked by the trusted
driver/session (:func:`verify_answer`): every honest machine adopted
the same boundary, and the assembled answer has exactly ``min(ℓ, n)``
elements whose per-machine sizes match the leader's accepted
bookkeeping.  Any lie that would corrupt the answer trips the
invariant, and the attempt is retried with the suspects excluded.
The drivers (:mod:`repro.core.driver`) and the serving session
(:mod:`repro.serve.session`) share this trusted-side policy —
:class:`ByzBudget`, :func:`verify_answer`, :func:`blame_attempt` —
so a one-shot query and a served one are judged by the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Collection,
    Generator,
    Iterable,
    Mapping,
    NamedTuple,
    Sequence,
)

import numpy as np

from .errors import FaultError
from .machine import MachineContext
from .schema import Echo, SuspicionNotice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import ByzantinePlan

__all__ = [
    "ByzantineError",
    "ByzBudget",
    "ByzConfig",
    "Verdict",
    "SuspicionTracker",
    "suspicions",
    "aggregate_suspicions",
    "attribute_blame",
    "blame_attempt",
    "verify_answer",
    "recv_from",
    "recv_upto",
    "serve_gather",
    "gather_quorum",
    "confirmed_broadcast",
    "receive_confirmed",
    "confirm_value",
    "median_of_reports",
    "robust_loads",
    "selection_iteration_cap",
]

#: Cap on stored accusation reasons per suspect (counts keep growing).
_MAX_REASONS = 16


class ByzantineError(FaultError):
    """A protocol aborted because quorum evidence implicates a liar.

    Subclasses :class:`~repro.kmachine.errors.FaultError` so the
    simulator re-raises it unwrapped and the recovery drivers can
    catch it alongside crash faults.  ``suspects`` carries the ranks
    the aborting machine accuses; the driver cross-checks them against
    aggregated suspicion before excluding anyone.
    """

    def __init__(self, message: str, suspects: Iterable[int] = ()) -> None:
        super().__init__(message)
        self.suspects: tuple[int, ...] = tuple(sorted(set(suspects)))


@dataclass(frozen=True)
class ByzConfig:
    """Byzantine hardening knobs threaded through a protocol run.

    ``f`` is the tolerated number of liars (``f = 0`` disables every
    hardened path — callers must branch to the plain protocol for
    zero overhead).  ``quarantined`` ranks still execute programs (the
    simulator has no way to unplug them) but are excluded from quorums,
    elections, pivot supply and placement decisions.
    """

    f: int
    quarantined: frozenset[int] = frozenset()
    timeout_rounds: int = 32

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError(f"byzantine f must be >= 0, got {self.f}")
        if self.timeout_rounds <= 0:
            raise ValueError("timeout_rounds must be positive")
        object.__setattr__(self, "quarantined", frozenset(self.quarantined))

    @property
    def confirm_timeout_rounds(self) -> int:
        """Wait budget for cross-confirmation echoes: peers may lag a
        full gather timeout behind before they echo."""
        return 2 * self.timeout_rounds + 4

    @property
    def op_timeout_rounds(self) -> int:
        """Wait budget for the next leader op: an honest leader can
        legitimately stall a direct-gather timeout plus an echo-gather
        timeout between ops when a liar goes silent."""
        return 4 * self.timeout_rounds + 8

    def op_budget(self, k: int) -> int:
        """Worker patience for the next leader op in a ``k``-machine run.

        Between two consecutive ops an honest leader may legitimately
        spend a pivot fetch plus a direct-gather timeout plus an
        *arrival-extended* echo gather — a silent liar that trickles
        its surviving echoes can stretch the latter to
        ``timeout + 2·k(k−1)`` rounds (each of up to ``k(k−1)``
        arrivals buys two more rounds of leader patience, see
        :func:`recv_upto`).  Accusing the leader any earlier convicts
        an honest machine for the liar's delays.
        """
        return 4 * self.timeout_rounds + 2 * k * (k - 1) + 8

    def validate(self, k: int) -> None:
        """Check the ``f < k/3`` quorum precondition for a ``k``-machine run."""
        if self.f > 0 and k < 3 * self.f + 1:
            raise ValueError(
                f"byzantine_f={self.f} needs k >= {3 * self.f + 1} machines, got {k}"
            )

    def live(self, k: int, *exclude: int) -> list[int]:
        """Non-quarantined ranks of a ``k``-machine run, minus ``exclude``."""
        skip = self.quarantined.union(exclude)
        return [r for r in range(k) if r not in skip]

    def workers(self, k: int, leader: int) -> list[int]:
        """Live ranks excluding the leader."""
        return self.live(k, leader)


@dataclass
class SuspicionTracker:
    """Per-machine accusation ledger.

    Accusations are *evidence*, not verdicts: a single tracker can be
    poisoned by a lying leader accusing honest workers, so exclusion
    decisions aggregate trackers across machines and cross-check
    against realised outputs (:func:`attribute_blame`).
    """

    counts: dict[int, int] = field(default_factory=dict)
    reasons: dict[int, list[str]] = field(default_factory=dict)

    def accuse(self, rank: int, reason: str) -> None:
        """Record one accusation against ``rank``."""
        self.counts[rank] = self.counts.get(rank, 0) + 1
        log = self.reasons.setdefault(rank, [])
        if len(log) < _MAX_REASONS:
            log.append(reason)

    def fold_notice(self, notice: SuspicionNotice) -> None:
        """Fold a broadcast :class:`SuspicionNotice` into the ledger."""
        self.accuse(int(notice.suspect), f"notice: {notice.reason}")

    def suspects(self) -> list[int]:
        """Accused ranks, most-accused first (ties by rank)."""
        return sorted(self.counts, key=lambda r: (-self.counts[r], r))


def suspicions(ctx: MachineContext) -> SuspicionTracker:
    """The context's suspicion tracker, created on first use.

    Attached lazily so the plain (``f = 0``) path never pays for it.
    """
    tracker = getattr(ctx, "_byz_suspicions", None)
    if tracker is None:
        tracker = SuspicionTracker()
        # byz-owned annotation on the context, not a simulator
        # internal: attached via setattr to mirror the getattr read.
        setattr(ctx, "_byz_suspicions", tracker)
    return tracker


def aggregate_suspicions(
    contexts: Iterable[MachineContext], exclude: frozenset[int] | set[int] = frozenset()
) -> dict[int, int]:
    """Sum accusation weights across machine contexts.

    The control plane (driver / session) calls this after a failed
    attempt; contexts are trusted because even a liar's *local* state
    is produced by honest code.
    """
    weights: dict[int, int] = {}
    for ctx in contexts:
        tracker = getattr(ctx, "_byz_suspicions", None)
        if tracker is None:
            continue
        for rank, count in tracker.counts.items():
            if rank in exclude:
                continue
            weights[rank] = weights.get(rank, 0) + count
    return weights


def attribute_blame(
    *,
    mismatch: Iterable[int],
    weights: Mapping[int, int],
    f: int,
    leader: int | None,
    repeat_offender: bool = False,
) -> tuple[int, ...]:
    """Decide whom a failed attempt should exclude.

    Layered rule: trust output-vs-claim ``mismatch`` ranks when there
    are between 1 and ``f`` of them (a liar cannot fake an honest
    machine's realised output); otherwise fall back to the heaviest
    aggregated suspicions; otherwise — and whenever more than ``f``
    machines are implicated, which no ``f``-liar adversary can cause
    against an honest leader — blame the leader, whose NIC is the only
    single point that can frame many workers at once.
    ``repeat_offender`` adds the leader unconditionally (same leader
    presided over two consecutive failures).  With ``leader=None``
    (not known) the leader fallbacks blame nobody.
    """
    cap = max(1, f)
    suspects = set(mismatch)
    if not suspects and weights:
        ranked = sorted(weights, key=lambda r: (-weights[r], r))
        suspects = set(ranked[:cap])
    fallback = set() if leader is None else {leader}
    if not suspects or len(suspects) > cap:
        suspects = fallback
    if repeat_offender:
        suspects |= fallback
    return tuple(sorted(suspects))


def blame_attempt(
    error: BaseException | None,
    mismatch: Iterable[int],
    weights: Mapping[int, int],
    f: int,
    leader: int | None,
    last_fail_leader: int | None,
    fenced: Collection[int] = frozenset(),
) -> tuple[int, ...]:
    """Whom one failed attempt fences: the drivers' and sessions' one rule.

    ``leader`` presided over the attempt (``None`` when unknown, e.g.
    the attempt raised before any output named it) and
    ``last_fail_leader`` over the previous failed attempt; a leader
    that presides over two failures in a row is a repeat offender.
    ``fenced`` ranks are already out and are never blamed again.

    1. The aborting machine's explicit ``ByzantineError.suspects``,
       minus fenced ranks, when 1 to ``f + 1`` remain — few enough
       that an ``f``-liar adversary framed at most one honest machine.
       A repeat-offender leader joins them: otherwise a lying leader
       could deflect blame onto one honest target per attempt forever.
    2. Otherwise output-vs-claim ``mismatch`` and aggregated suspicion
       ``weights`` via :func:`attribute_blame`.
    3. With no evidence at all the attempt is retried without exclusion
       — unless it raised under a known leader, which is then blamed.
       Re-election and a fresh seed reshuffle the protocol, and the
       trusted answer check never accepts a corrupted run, so an empty
       verdict costs attempts only.
    """
    repeat = leader is not None and leader == last_fail_leader
    if isinstance(error, ByzantineError):
        explicit = {r for r in error.suspects if r not in fenced}
        if 0 < len(explicit) <= f + 1:
            if repeat and leader is not None:
                explicit.add(leader)
            return tuple(sorted(explicit))
    mismatch = [r for r in mismatch if r not in fenced]
    weights = {r: w for r, w in weights.items() if r not in fenced}
    if not mismatch and not weights and (error is None or leader is None):
        return ()
    return attribute_blame(
        mismatch=mismatch,
        weights=weights,
        f=f,
        leader=leader,
        repeat_offender=repeat,
    )


class Verdict(NamedTuple):
    """Outcome of :func:`verify_answer`."""

    ok: bool
    #: ranks whose realised output contradicts the majority boundary or
    #: the leader's accepted tally
    mismatch: list[int]
    #: why the answer was rejected (empty when ``ok``)
    reason: str = ""


def verify_answer(
    boundaries: Sequence[Any | None],
    sizes: Sequence[int],
    accepted: Sequence[int] | None,
    lo: int,
    hi: int,
) -> Verdict:
    """Trusted-side exactness check of one assembled answer.

    ``boundaries[r]``/``sizes[r]`` are machine ``r``'s believed
    boundary key (``None`` for a machine that contributed nothing:
    crashed or fenced) and its output size; ``accepted`` is the
    leader's per-machine accepted tally.  Every machine — liars
    included, because the adversary sits on the NIC while the program
    code is honest — outputs precisely its local keys at or below its
    believed boundary.  If all contributors agree on one boundary, the
    union of outputs is the downward-closed set of every key ≤
    boundary; if its size lands in ``[lo, hi]`` it therefore contains
    the ℓ globally smallest keys.  Any lie that corrupts the answer
    must break one of those two conditions, and the broken condition
    names its suspects: minority boundary groups, or ranks whose
    realised size contradicts the tally — evidence a liar cannot fake
    on behalf of an honest machine.
    """
    groups: dict[tuple[float, int], list[int]] = {}
    for rank, boundary in enumerate(boundaries):
        if boundary is not None:
            key = (float(boundary.value), int(boundary.id))
            groups.setdefault(key, []).append(rank)
    mismatch: set[int] = set()
    problems: list[str] = []
    if len(groups) > 1:
        majority = max(groups.values(), key=len)
        for ranks in groups.values():
            if ranks is not majority:
                mismatch.update(ranks)
        problems.append(f"boundary disagreement across {len(groups)} values")
    total = sum(sizes)
    if not lo <= total <= hi:
        problems.append(f"assembled {total} keys, want [{lo}, {hi}]")
        if accepted is not None and len(accepted) == len(sizes):
            mismatch.update(
                rank
                for rank, boundary in enumerate(boundaries)
                if boundary is not None and int(accepted[rank]) != sizes[rank]
            )
    if not problems:
        return Verdict(True, [])
    return Verdict(
        False, sorted(mismatch), "byzantine corruption: " + "; ".join(problems)
    )


@dataclass(frozen=True)
class ByzBudget:
    """A caller's Byzantine defense request, resolved once.

    The prologue the drivers and the session share: whether a defense
    was asked for at all, the requested ``f``, the attempt budget and
    the per-run hardening config.
    """

    #: the requested defense budget: ``byzantine_f``, else the plan's
    #: liar count
    f: int

    @classmethod
    def requested(
        cls, plan: "ByzantinePlan | None", f: int | None
    ) -> "ByzBudget | None":
        """The request behind a ``byzantine=``/``byzantine_f=`` pair;
        ``None`` when neither a plan nor a positive ``f`` was given."""
        if f is None:
            return None if plan is None else cls(plan.f)
        return cls(f) if f > 0 or plan is not None else None

    @property
    def attempts(self) -> int:
        """Attempt budget: every failed attempt fences at least one
        machine, and ``f`` liars plus the ambiguous-blame slack can
        absorb at most ``2f + 1`` failures."""
        return 2 * self.f + 2

    def config(self, k: int, timeout_rounds: int | None = None) -> ByzConfig:
        """Hardening for a ``k``-machine run, with ``f`` clamped to the
        ``k >= 3f + 1`` quorum bound (as hard as the quorum math allows)."""
        return ByzConfig(
            f=min(self.f, max(0, (k - 1) // 3)),
            timeout_rounds=32 if timeout_rounds is None else timeout_rounds,
        )


# ----------------------------------------------------------------------
# Receive primitives tolerant of silence and stray traffic
# ----------------------------------------------------------------------

def recv_from(
    ctx: MachineContext,
    tag: str,
    srcs: Iterable[int],
    timeout_rounds: int,
) -> Generator[None, None, dict[int, Any]]:
    """Collect one payload from each of ``srcs``, tolerating silence.

    Unlike ``ctx.recv`` this never raises on missing or surplus
    traffic: it returns whatever arrived within ``timeout_rounds``
    (first message per source wins; messages from other sources on the
    same tag — e.g. a quarantined machine still chattering — are
    consumed and dropped).
    """
    want = set(srcs)
    got: dict[int, Any] = {}

    def pump() -> None:
        for msg in ctx.take(tag):
            if msg.src in want and msg.src not in got:
                got[msg.src] = msg.payload

    pump()
    waited = 0
    while len(got) < len(want) and waited < timeout_rounds:
        yield
        waited += 1
        pump()
    return got


def recv_upto(
    ctx: MachineContext,
    tag: str,
    expected: int,
    timeout_rounds: int,
    allowed: set[int] | None = None,
) -> Generator[None, None, list[Any]]:
    """Collect up to ``expected`` messages on ``tag``, tolerating silence.

    ``timeout_rounds`` is a *stall* budget: it resets whenever a round
    delivers at least one accepted message, so a bandwidth-limited
    multi-round gather is never cut off mid-stream — only a genuine
    silence of ``timeout_rounds`` consecutive empty rounds ends the
    wait.  The total wait is additionally capped at
    ``timeout_rounds + 2·len(got)``: every arrival buys two more
    rounds of patience, which a genuine stream (≥ one message every
    other round) sustains indefinitely, while an adversary trickling
    one message per ``timeout − 1`` rounds is cut after
    ``O(timeout + expected)`` rounds instead of stretching the gather
    without bound.  Returns the raw
    :class:`~repro.kmachine.message.Message` objects (callers need
    ``src`` for attribution), filtered to ``allowed`` sources when
    given.
    """
    got: list[Any] = []

    def pump() -> int:
        before = len(got)
        for msg in ctx.take(tag):
            if allowed is None or msg.src in allowed:
                got.append(msg)
        return len(got) - before

    pump()
    stalled = 0
    waited = 0
    while (
        len(got) < expected
        and stalled < timeout_rounds
        and waited < timeout_rounds + 2 * len(got)
    ):
        yield
        waited += 1
        stalled = 0 if pump() > 0 else stalled + 1
    return got


# ----------------------------------------------------------------------
# Quorum-verified gather (worker reports -> leader)
# ----------------------------------------------------------------------

def _freeze(value: Any) -> Any:
    """A hashable tally key for a payload (repr fallback for odd types)."""
    try:
        hash(value)
    except TypeError:
        return ("__repr__", repr(value))
    return value


def serve_gather(
    ctx: MachineContext,
    leader: int,
    cfg: ByzConfig,
    t_val: str,
    t_echo: str,
    payload: Any,
) -> Generator[None, None, None]:
    """Worker side of one quorum-verified gather.

    Broadcasts the report (the leader takes its copy directly), then
    relays every live peer's report to the leader as :class:`Echo`
    envelopes.  The redundancy is what lets the leader detect a peer
    that told it one count and the rest of the cluster another.
    """
    peers = [r for r in cfg.workers(ctx.k, leader) if r != ctx.rank]
    ctx.broadcast(t_val, payload)
    yield
    heard = yield from recv_from(ctx, t_val, peers, cfg.timeout_rounds)
    # lint: bound[k] — one echo per live peer
    for src, value in heard.items():
        ctx.send(leader, t_echo, Echo(origin=src, value=value))
    yield


def gather_quorum(
    ctx: MachineContext,
    cfg: ByzConfig,
    t_val: str,
    t_echo: str,
    tracker: SuspicionTracker,
) -> Generator[None, None, dict[int, Any]]:
    """Leader side of one quorum-verified gather.

    Resolves each live worker's report by plurality over its direct
    copy plus peer echoes.  Dissent of at most ``f`` observations is
    pinned on the dissenting *relayers*; wider dissent proves the
    *origin* equivocated its broadcast (no ``f``-liar relay set could
    produce it).  A fully silent origin resolves to ``None``.
    """
    workers = cfg.workers(ctx.k, ctx.rank)
    m = len(workers)
    direct = yield from recv_from(ctx, t_val, workers, cfg.timeout_rounds)
    echoes = yield from recv_upto(
        ctx, t_echo, m * (m - 1), cfg.timeout_rounds, allowed=set(workers)
    )
    observations: dict[int, list[tuple[int, Any]]] = {j: [] for j in workers}
    for j, value in direct.items():
        observations[j].append((j, value))
    for msg in echoes:
        env = msg.payload
        if not isinstance(env, Echo):
            continue
        j = int(env.origin)
        if j not in observations:
            continue
        if any(reporter == msg.src for reporter, _ in observations[j]):
            continue
        observations[j].append((msg.src, env.value))

    resolved: dict[int, Any] = {}
    for j in workers:
        obs = observations[j]
        if not obs:
            tracker.accuse(j, f"silent in gather {t_val}")
            resolved[j] = None
            continue
        tally: dict[Any, list[tuple[int, Any]]] = {}
        for reporter, value in obs:
            tally.setdefault(_freeze(value), []).append((reporter, value))
        best = max(tally, key=lambda key: (len(tally[key]), key == _freeze(direct.get(j))))
        supporters = tally[best]
        dissent = len(obs) - len(supporters)
        if dissent > cfg.f:
            tracker.accuse(j, f"equivocation in gather {t_val}")
        elif dissent:
            backers = {reporter for reporter, _ in supporters}
            for reporter, _ in obs:
                if reporter not in backers:
                    tracker.accuse(reporter, f"echo dissent in gather {t_val}")
        if j in direct and _freeze(direct[j]) != best:
            tracker.accuse(j, f"two-faced report in gather {t_val}")
        resolved[j] = supporters[0][1]
    return resolved


# ----------------------------------------------------------------------
# Confirmed broadcast (leader value -> all workers, cross-checked)
# ----------------------------------------------------------------------

def confirmed_broadcast(
    ctx: MachineContext, cfg: ByzConfig, t_out: str, payload: Any
) -> Generator[None, None, None]:
    """Leader side of a confirmed broadcast (workers cross-echo it)."""
    ctx.broadcast(t_out, payload)
    yield


def receive_confirmed(
    ctx: MachineContext,
    leader: int,
    cfg: ByzConfig,
    t_out: str,
    t_echo: str,
    tracker: SuspicionTracker,
    wait_rounds: int | None = None,
) -> Generator[None, None, Any]:
    """Worker side of a confirmed broadcast: adopt the quorum value.

    Every worker re-broadcasts what it heard to its live peers and
    adopts the plurality value once it has ``>= W - f`` support among
    ``W`` live workers.  A Byzantine leader equivocating to at most
    ``f`` recipients is silently corrected (the victims adopt the
    majority value and accuse the leader); a wider split cannot reach
    the threshold and aborts with the leader as suspect.
    """
    budget = cfg.timeout_rounds if wait_rounds is None else wait_rounds
    got = yield from recv_from(ctx, t_out, [leader], budget)
    if leader not in got:
        tracker.accuse(leader, f"silent broadcast {t_out}")
        raise ByzantineError(
            f"machine {ctx.rank}: leader {leader} silent on {t_out}",
            suspects=(leader,),
        )
    adopted = yield from confirm_value(
        ctx, leader, cfg, got[leader], t_echo, tracker
    )
    return adopted


def confirm_value(
    ctx: MachineContext,
    leader: int,
    cfg: ByzConfig,
    own: Any,
    t_echo: str,
    tracker: SuspicionTracker,
) -> Generator[None, None, Any]:
    """Cross-echo a value already received from the leader and adopt
    the quorum value (the confirmation half of
    :func:`receive_confirmed`, for protocols that learn the value
    through their own op stream).

    Exits as soon as one value accumulates a *decisive* quorum
    (``P − f`` of ``P`` participants): with ``k ≥ 3f + 1`` no
    competing value can ever catch up, so waiting for the stragglers'
    echoes buys nothing — and matters for liveness, because a silent
    liar would otherwise stall every honest worker for the full
    confirm budget while the leader races ahead into the next
    protocol phase.
    """
    peers = [r for r in cfg.workers(ctx.k, leader) if r != ctx.rank]
    ctx.send_to_many(peers, t_echo, Echo(origin=ctx.rank, value=own))
    yield
    peer_set = set(peers)
    threshold = max(1, len(peers) + 1 - cfg.f)
    views: dict[int, Any] = {ctx.rank: own}
    tally: dict[Any, list[tuple[int, Any]]] = {_freeze(own): [(ctx.rank, own)]}

    def pump() -> None:
        for msg in ctx.take(t_echo):
            if msg.src not in peer_set or msg.src in views:
                continue
            env = msg.payload
            if not isinstance(env, Echo):
                tracker.accuse(msg.src, f"malformed confirm echo {t_echo}")
                continue
            views[msg.src] = env.value
            tally.setdefault(_freeze(env.value), []).append((msg.src, env.value))

    def decisive() -> Any | None:
        for key, supporters in tally.items():
            if len(supporters) >= threshold:
                return key
        return None

    pump()
    waited = 0
    best = decisive()
    while best is None and len(views) < len(peers) + 1 and waited < cfg.confirm_timeout_rounds:
        yield
        waited += 1
        pump()
        best = decisive()
    if best is None:
        best = max(tally, key=lambda key: (len(tally[key]), key == _freeze(own)))
    supporters = tally[best]
    if len(supporters) < threshold:
        tracker.accuse(leader, f"equivocating broadcast {t_echo}")
        raise ByzantineError(
            f"machine {ctx.rank}: no {threshold}-quorum confirming {t_echo}",
            suspects=(leader,),
        )
    backers = {reporter for reporter, _ in supporters}
    for reporter in views:
        if reporter not in backers:
            tracker.accuse(reporter, f"dissent on broadcast {t_echo}")
    if _freeze(own) != best:
        tracker.accuse(leader, f"equivocated to me on {t_echo}")
    return supporters[0][1]


# ----------------------------------------------------------------------
# Robust reductions and termination bounds
# ----------------------------------------------------------------------

def median_of_reports(values: Iterable[float]) -> float:
    """Median of a report vector (0.0 when empty) — liar-resistant
    for any minority of arbitrary values."""
    arr = np.asarray(list(values), dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return 0.0
    return float(np.median(arr))


def robust_loads(loads: Iterable[float], f: int = 0) -> np.ndarray:
    """Median-anchored clipping of per-machine load reports.

    Negative / non-finite reports snap to 0 and anything above
    ``3 * median`` is clipped down, so an inflated or deflated report
    can skew a placement decision by at most a constant factor — it
    can no longer absorb or repel the whole update stream.
    """
    arr = np.asarray(list(loads), dtype=float).copy()
    arr[~np.isfinite(arr)] = 0.0
    arr = np.maximum(arr, 0.0)
    if arr.size:
        ceiling = 3.0 * max(median_of_reports(arr), 1.0)
        arr = np.minimum(arr, ceiling)
    return np.rint(arr).astype(np.int64)


def selection_iteration_cap(initial_count: int, k: int) -> int:
    """Hard iteration budget for hardened selection.

    Honest runs shrink the active multiset by an expected constant
    factor per iteration (``3 log_{3/2} s`` iterations whp); liars can
    waste iterations by forging pivots or stalling counts but each
    such machine is struck from the pivot supply after two stalls, so
    a generous affine-in-``k`` margin on top of the honest bound is
    enough.  Exceeding the cap is itself Byzantine evidence.
    """
    s0 = max(int(initial_count), 2)
    honest = 3.0 * (np.log(s0) / np.log(1.5))
    return int(np.ceil(honest)) + 2 * k + 16
