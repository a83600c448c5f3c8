"""Deterministic fault injection for the k-machine simulator.

The paper's k-machine model assumes a perfectly reliable synchronous
clique.  Real congested-clique deployments do not get that luxury:
links drop, duplicate, corrupt and reorder messages, links blink in
and out, and machines crash.  This module lets a simulation *declare*
such an environment and replays it bit-for-bit reproducibly:

* :class:`FaultPlan` — a declarative, immutable schedule: per-link (or
  global) drop/duplicate/corrupt/reorder probabilities, transient
  :class:`Outage` windows, and crash-stop :class:`Crash` events.
* :class:`FaultInjector` — the runtime companion.  It owns a private
  RNG seeded from ``plan.seed`` (independent of every machine stream),
  is consulted by :meth:`repro.kmachine.network.Network.submit` for
  each message, and by the :class:`~repro.kmachine.simulator.Simulator`
  round loop for crash events.  Because submissions happen in a fixed
  deterministic order (rank order, FIFO outboxes), two runs with the
  same ``(seed, FaultPlan)`` make identical fault decisions — the
  property the fault property tests pin down.

Fault semantics
---------------
drop
    The message silently never enters the link queue.
duplicate
    A second identical copy is enqueued right behind the original
    (consuming bandwidth; an unprotected protocol sees it twice).
corrupt
    The payload is replaced by :class:`CorruptedPayload` wrapping the
    original — the simulation analogue of flipped bits.  The reliable
    layer detects this (checksum) and recovers via retransmission;
    unprotected protocols receive garbage.
reorder
    The freshly enqueued message swaps places with the message queued
    just before it on the same link (a minimal, deterministic FIFO
    violation).  With ``reorder == 0`` per-link FIFO order is
    preserved exactly.
outage
    Messages submitted on a covered link during ``[start, end)`` are
    dropped wholesale.
crash (crash-stop)
    At the start of round ``round`` the machine stops executing
    forever.  In-flight traffic to/from it is purged and accounted in
    :class:`~repro.kmachine.metrics.Metrics`; with
    ``notify_crashes=True`` (default) every surviving machine learns of
    the crash at the start of the *next* round — the synchronous
    model's perfect failure detector, implementable with one round of
    heartbeat timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .message import Message

__all__ = [
    "LinkFaults",
    "Outage",
    "Crash",
    "CorruptedPayload",
    "FaultPlan",
    "FaultInjector",
    "Liar",
    "ByzantinePlan",
    "BYZ_STRATEGIES",
]

#: Salt mixed into the injector's seed sequence so the fault stream can
#: never collide with machine RNG streams spawned from the same seed.
_INJECTOR_SALT = 0xFA_17

#: Salt for the Byzantine tamper stream — independent of both the
#: honest-fault stream and every machine RNG stream.
_BYZ_SALT = 0xB1_2A


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {p}")


@dataclass(frozen=True)
class LinkFaults:
    """Per-link fault probabilities (each independently rolled per message)."""

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt", "reorder"):
            _check_prob(name, getattr(self, name))

    @property
    def trivial(self) -> bool:
        """True when every probability is zero."""
        return self.drop == self.duplicate == self.corrupt == self.reorder == 0.0


@dataclass(frozen=True)
class Outage:
    """A transient link outage: traffic dropped during ``[start, end)``.

    ``symmetric=True`` (default) covers both directions of the
    ``(a, b)`` link, matching a physical cable/switch failure.
    """

    a: int
    b: int
    start: int
    end: int
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"outage window [{self.start}, {self.end}) is empty or negative")
        if self.a == self.b:
            raise ValueError("an outage needs two distinct endpoints")

    def covers(self, src: int, dst: int, round_idx: int) -> bool:
        """Whether a ``src -> dst`` message in ``round_idx`` is blacked out."""
        if not self.start <= round_idx < self.end:
            return False
        if (src, dst) == (self.a, self.b):
            return True
        return self.symmetric and (src, dst) == (self.b, self.a)


@dataclass(frozen=True)
class Crash:
    """Crash-stop failure: machine ``rank`` halts at the start of ``round``."""

    rank: int
    round: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"crash rank must be >= 0, got {self.rank}")
        if self.round < 0:
            raise ValueError(f"crash round must be >= 0, got {self.round}")


@dataclass(frozen=True)
class CorruptedPayload:
    """Marker wrapping a payload mangled in transit.

    The wrapper (rather than literal bit flips) keeps corruption
    deterministic and inspectable; its wire size equals the original's
    so bandwidth accounting is unchanged.  The reliable layer treats it
    as a failed checksum; unprotected protocols choke on it — which is
    the point.
    """

    original: Any


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seed-reproducible fault schedule for one simulation.

    Parameters
    ----------
    seed:
        Root seed of the injector's private RNG stream.
    drop / duplicate / corrupt / reorder:
        Default per-message fault probabilities applied to every link.
    links:
        Per-directed-link overrides: ``{(src, dst): LinkFaults(...)}``.
        A listed link uses its override *instead of* the defaults.
    outages:
        Transient link outages.
    crashes:
        Crash-stop events.  At most one per rank; a crash scheduled for
        an already-halted machine is a no-op.
    notify_crashes:
        Deliver crash notifications to survivors one round after each
        crash (the synchronous failure detector).  With ``False``,
        survivors can only detect crashes by timeout (the simulator's
        ``max_rounds`` deadlock guard).
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0
    links: Mapping[tuple[int, int], LinkFaults] = field(default_factory=dict)
    outages: tuple[Outage, ...] = ()
    crashes: tuple[Crash, ...] = ()
    notify_crashes: bool = True

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt", "reorder"):
            _check_prob(name, getattr(self, name))
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "links", dict(self.links))
        ranks = [c.rank for c in self.crashes]
        if len(set(ranks)) != len(ranks):
            raise ValueError("at most one crash event per rank")

    # ------------------------------------------------------------------
    def for_link(self, src: int, dst: int) -> LinkFaults:
        """The fault probabilities governing the ``src -> dst`` link."""
        override = self.links.get((src, dst))
        if override is not None:
            return override
        return LinkFaults(self.drop, self.duplicate, self.corrupt, self.reorder)

    @property
    def trivial(self) -> bool:
        """True when the plan can never produce a fault."""
        return (
            self.drop == self.duplicate == self.corrupt == self.reorder == 0.0
            and all(lf.trivial for lf in self.links.values())
            and not self.outages
            and not self.crashes
        )

    def without_crashes(self, fired: tuple[int, ...] | list[int] = ()) -> "FaultPlan":
        """A copy with the given crash *ranks* removed (all, if empty).

        Used by the recovery drivers: a crash that already fired in a
        failed attempt must not re-fire when the protocol is restarted
        among the survivors.
        """
        if not fired:
            remaining: tuple[Crash, ...] = ()
        else:
            remaining = tuple(c for c in self.crashes if c.rank not in set(fired))
        return replace(self, crashes=remaining)

    def restricted_to(self, k: int) -> "FaultPlan":
        """A copy valid for a ``k``-machine run: events addressing ranks
        ``>= k`` (crashes, outages, link overrides) are dropped."""
        return self.remap(range(k))

    def remap(self, survivors: Sequence[int]) -> "FaultPlan":
        """Renumber every rank-addressed event onto a survivor sub-cluster.

        ``survivors`` lists the ranks retained, in the order they become
        ranks ``0..len(survivors)-1`` of the restarted run; events that
        address a machine not retained are dropped.  The recovery
        drivers use this between attempts, so a planned event keeps
        hitting the machine it named, never a survivor that inherited
        its position.
        """
        position = {orig: new for new, orig in enumerate(survivors)}
        return replace(
            self,
            crashes=tuple(
                replace(c, rank=position[c.rank])
                for c in self.crashes
                if c.rank in position
            ),
            outages=tuple(
                replace(o, a=position[o.a], b=position[o.b])
                for o in self.outages
                if o.a in position and o.b in position
            ),
            links={
                (position[src], position[dst]): lf
                for (src, dst), lf in self.links.items()
                if src in position and dst in position
            },
        )


#: Tamper strategies a :class:`Liar` may adopt.  Each mangles a
#: different slice of the control plane:
#:
#: ``equivocate``
#:     Integer reports (selection counts, load reports, votes, echo
#:     relays) are perturbed *per recipient*, so different machines
#:     hear different values for the same logical broadcast.
#: ``forge``
#:     ``(value, id)`` wire keys (pivots, splitters, thresholds,
#:     boundaries) are replaced by fabricated values; bare integers
#:     (election ids) are forged small enough to win min-id elections.
#: ``inflate`` / ``deflate``
#:     Integer reports are scaled up / down consistently — the lying
#:     load-reporter and count-padder of the issue.
#: ``silence``
#:     A deterministic ~55% of outgoing messages are dropped
#:     (selective denial of service; distinct from a crash because the
#:     machine keeps participating whenever convenient).
BYZ_STRATEGIES = ("equivocate", "forge", "inflate", "deflate", "silence")


@dataclass(frozen=True)
class Liar:
    """One Byzantine machine: ``rank`` plus the strategy its NIC runs.

    The adversary model is a *lying network interface*: the machine
    executes honest program code, but everything it sends may be
    tampered on the way out.  This keeps plans declarative and
    seed-reproducible while still producing equivocation (per-recipient
    tampering of a logical broadcast) — and it means local state kept
    by a liar (its shard, its per-machine output) stays honest, which
    is what lets the defense layer attribute blame by comparing wire
    claims against realised outputs.
    """

    rank: int
    strategy: str = "equivocate"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"liar rank must be >= 0, got {self.rank}")
        if self.strategy not in BYZ_STRATEGIES:
            raise ValueError(
                f"unknown Byzantine strategy {self.strategy!r}; "
                f"expected one of {BYZ_STRATEGIES}"
            )


@dataclass(frozen=True)
class ByzantinePlan:
    """Declarative, seed-reproducible schedule of lying machines.

    Composes with :class:`FaultPlan` inside the same
    :class:`FaultInjector`: tampering happens first (the NIC mangles
    the message at the source), then the honest fault dice
    (drop/duplicate/corrupt/outage) roll on whatever survives.  Two
    runs with the same ``(seed, plan, submission sequence)`` tamper
    identically.
    """

    seed: int = 0
    liars: tuple[Liar, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "liars", tuple(self.liars))
        ranks = [liar.rank for liar in self.liars]
        if len(set(ranks)) != len(ranks):
            raise ValueError("at most one Liar per rank")

    # ------------------------------------------------------------------
    @property
    def f(self) -> int:
        """Number of Byzantine machines in the plan."""
        return len(self.liars)

    @property
    def ranks(self) -> frozenset[int]:
        """The lying ranks."""
        return frozenset(liar.rank for liar in self.liars)

    @property
    def trivial(self) -> bool:
        """True when the plan contains no liars."""
        return not self.liars

    def strategy_of(self, rank: int) -> str | None:
        """The strategy run by ``rank``'s NIC, or ``None`` if honest."""
        for liar in self.liars:
            if liar.rank == rank:
                return liar.strategy
        return None

    # ------------------------------------------------------------------
    def without_liars(self, ranks: tuple[int, ...] | list[int] | set[int]) -> "ByzantinePlan":
        """A copy with the given lying ranks removed.

        The Byzantine analogue of :meth:`FaultPlan.without_crashes`:
        once a recovery driver has excluded a machine, its liar entry
        must not follow the survivors into the retry.
        """
        gone = set(ranks)
        return replace(
            self, liars=tuple(l for l in self.liars if l.rank not in gone)
        )

    def restricted_to(self, k: int) -> "ByzantinePlan":
        """A copy valid for a ``k``-machine run (liars at ranks ``>= k`` dropped)."""
        return replace(self, liars=tuple(l for l in self.liars if l.rank < k))

    def remap(self, survivors: list[int] | tuple[int, ...]) -> "ByzantinePlan":
        """Renumber liar ranks onto a survivor sub-cluster.

        ``survivors`` lists the *original* ranks retained, in the order
        they become ranks ``0..len(survivors)-1`` of the restarted run.
        Liars not among the survivors are dropped; the twin of
        :meth:`FaultPlan.remap`, applied by the recovery drivers
        between attempts.
        """
        position = {orig: new for new, orig in enumerate(survivors)}
        kept = tuple(
            replace(l, rank=position[l.rank])
            for l in self.liars
            if l.rank in position
        )
        return replace(self, liars=kept)


def _is_wire_key(obj: Any) -> bool:
    """A ``(value, id)`` key tuple as produced by ``encode_key``."""
    return (
        isinstance(obj, tuple)
        and len(obj) == 2
        and isinstance(obj[0], (float, np.floating))
        and isinstance(obj[1], (int, np.integer))
        and not isinstance(obj[1], bool)
    )


def _is_plain_int(obj: Any) -> bool:
    return isinstance(obj, (int, np.integer)) and not isinstance(obj, bool)


class FaultInjector:
    """Runtime fault engine: rolls the plan's dice, deterministically.

    Wire-up (done by the simulator): ``network.fault_injector = self``
    and :meth:`bind` with the run's metrics and tracer.  The injector
    can also be attached to a bare :class:`~repro.kmachine.network.
    Network` in tests.
    """

    def __init__(
        self, plan: FaultPlan, byzantine: "ByzantinePlan | None" = None
    ) -> None:
        self.plan = plan
        self.byzantine = byzantine
        self.rng = np.random.default_rng(
            np.random.SeedSequence([_INJECTOR_SALT, int(plan.seed)])
        )
        byz_seed = 0 if byzantine is None else int(byzantine.seed)
        self.byz_rng = np.random.default_rng(
            np.random.SeedSequence([_BYZ_SALT, byz_seed])
        )
        self.round = 0
        self.crashed: set[int] = set()
        self._metrics = None
        self._tracer = None

    # ------------------------------------------------------------------
    def bind(self, metrics, tracer) -> None:
        """(Simulator hook) attach the run's accounting sinks."""
        self._metrics = metrics
        self._tracer = tracer

    def begin_round(self, round_idx: int) -> None:
        """(Simulator hook) advance the injector's round clock."""
        self.round = round_idx

    def crashes_due(self, round_idx: int) -> list[int]:
        """Ranks whose crash event fires at ``round_idx`` (ascending)."""
        return sorted(
            c.rank
            for c in self.plan.crashes
            if c.round == round_idx and c.rank not in self.crashed
        )

    def mark_crashed(self, rank: int) -> None:
        """Record that ``rank`` is down; its traffic is dropped from now on."""
        self.crashed.add(rank)

    # ------------------------------------------------------------------
    def on_submit(self, msg: Message) -> list[Message]:
        """Decide a submitted message's fate; returns the copies to enqueue.

        Empty list = dropped.  Two entries = duplicated.  Payloads may
        be replaced by :class:`CorruptedPayload`.  Every decision draws
        from the injector's private RNG in submission order, so the
        outcome is a pure function of ``(plan, submission sequence)``.
        """
        if msg.src in self.crashed or msg.dst in self.crashed:
            self._account("crash_drops", msg, "fault-crash-drop")
            return []
        if self.byzantine is not None:
            strategy = self.byzantine.strategy_of(msg.src)
            if strategy is not None:
                msg = self._tamper(msg, strategy)
                if msg is None:
                    return []
        for outage in self.plan.outages:
            if outage.covers(msg.src, msg.dst, self.round):
                self._account("outage_drops", msg, "fault-outage-drop")
                return []
        lf = self.plan.for_link(msg.src, msg.dst)
        if lf.trivial:
            return [msg]
        if lf.drop > 0.0 and self.rng.random() < lf.drop:
            self._account("fault_drops", msg, "fault-drop")
            return []
        if lf.corrupt > 0.0 and self.rng.random() < lf.corrupt:
            msg = replace(msg, payload=CorruptedPayload(msg.payload))
            self._account("fault_corruptions", msg, "fault-corrupt")
        out = [msg]
        if lf.duplicate > 0.0 and self.rng.random() < lf.duplicate:
            out.append(msg)
            self._account("fault_duplicates", msg, "fault-duplicate")
        return out

    def wants_reorder(self, src: int, dst: int) -> bool:
        """Roll the reorder die for a message just enqueued on a link."""
        lf = self.plan.for_link(src, dst)
        if lf.reorder <= 0.0:
            return False
        if self.rng.random() < lf.reorder:
            self._bump("fault_reorders")
            if self._tracer is not None and self._tracer.enabled:
                self._tracer.record(self.round, "fault-reorder", machine=src, dst=dst)
            return True
        return False

    def account_purge(self, msg: Message, rank: int) -> None:
        """Account one in-flight message purged because ``rank`` crashed."""
        self._account("crash_drops", msg, "fault-crash-drop")

    # ------------------------------------------------------------------
    # Byzantine tamper engine
    #
    # Strategies operate on payload *shape*, not protocol knowledge:
    # the NIC recognises bare integers (load reports, election ids,
    # survivor counts), pure-integer report tuples (update acks),
    # opcode tuples ``(str, ...)`` (selection traffic), ``(value, id)``
    # wire keys (pivots / thresholds / boundaries) and echo/vote
    # envelopes — and leaves bulk data envelopes (PointBatch,
    # UpdatePlan) untouched except under ``silence``.  Every mutation
    # draws from the dedicated ``byz_rng`` in submission order, so the
    # lies are a pure function of ``(ByzantinePlan, submission
    # sequence)``.
    def _tamper(self, msg: Message, strategy: str) -> Message | None:
        if strategy == "silence":
            if self.byz_rng.random() < 0.55:
                self._account("byz_silenced", msg, "byz-silence")
                return None
            return msg
        new_payload = self._tamper_payload(msg.payload, strategy, msg.dst)
        if new_payload is msg.payload:
            return msg
        self._account("byz_tampered", msg, f"byz-{strategy}")
        return replace(msg, payload=new_payload)

    def _tamper_payload(self, payload: Any, strategy: str, dst: int) -> Any:
        # Envelopes: lie about the relayed value / vote, keep identity
        # fields (tampering those is modelled as dissent and pinned on
        # the relayer by the quorum resolution).
        cls_name = type(payload).__name__
        if cls_name == "Echo":
            inner = self._tamper_payload(payload.value, strategy, dst)
            if inner is payload.value:
                return payload
            return type(payload)(origin=payload.origin, value=inner)
        if cls_name == "VoteEnvelope":
            if strategy in ("equivocate", "inflate", "deflate"):
                return type(payload)(
                    voter=payload.voter,
                    choice=self._lie_int(int(payload.choice), strategy, dst),
                    term=payload.term,
                )
            return payload
        if _is_plain_int(payload):
            if strategy == "forge":
                # Forged identity scalar: small enough to win any
                # min-id election, stable so the lie is consistent.
                return -abs(int(payload)) // 2 - 1
            return self._lie_int(int(payload), strategy, dst)
        if _is_wire_key(payload):
            if strategy == "forge":
                return self._forge_key(payload)
            return payload
        if isinstance(payload, tuple) and payload:
            if all(_is_plain_int(x) for x in payload):
                return tuple(
                    self._lie_int(int(x), strategy, dst) for x in payload
                )
            if isinstance(payload[0], str):
                return self._tamper_op_tuple(payload, strategy, dst)
        return payload

    def _tamper_op_tuple(self, payload: tuple, strategy: str, dst: int) -> tuple:
        changed = False
        out: list[Any] = [payload[0]]
        for elem in payload[1:]:
            if _is_plain_int(elem) and strategy in (
                "equivocate",
                "inflate",
                "deflate",
            ):
                elem = self._lie_int(int(elem), strategy, dst)
                changed = True
            elif _is_wire_key(elem) and strategy == "forge":
                if self.byz_rng.random() < 0.7:
                    elem = self._forge_key(elem)
                    changed = True
            out.append(elem)
        return tuple(out) if changed else payload

    def _lie_int(self, value: int, strategy: str, dst: int) -> int:
        if strategy == "equivocate":
            # Different recipients hear different values for the same
            # logical broadcast; the offset depends on the destination.
            offset = int(self.byz_rng.integers(1, 4)) + (dst % 3)
            sign = 1 if (dst + int(self.byz_rng.integers(0, 2))) % 2 else -1
            return max(0, value + sign * offset)
        if strategy == "inflate":
            return value * 3 + 7
        # deflate
        return max(0, value // 4 - 1)

    def _forge_key(self, wire: tuple) -> tuple:
        value = float(wire[0])
        span = abs(value) + 1.0
        forged = value + float(self.byz_rng.uniform(-2.0, 2.0)) * span
        return (forged, int(wire[1]))

    # ------------------------------------------------------------------
    def _bump(self, counter: str) -> None:
        if self._metrics is not None:
            setattr(self._metrics, counter, getattr(self._metrics, counter) + 1)

    def _account(self, counter: str, msg: Message, kind: str) -> None:
        self._bump(counter)
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.record(
                self.round, kind, machine=msg.src, dst=msg.dst, tag=msg.tag
            )
