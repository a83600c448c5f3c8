"""Bandwidth-constrained complete network for the k-machine model.

The model's topology is a clique: every pair of machines shares a
bidirectional link of bandwidth ``B`` bits per round.  We model each
direction of a link as an independent FIFO queue drained at ``B`` bits
per round, which makes the cost of bulk transfers *mechanical*: a
protocol that ships ``ℓ`` (id, distance) pairs from one machine to the
leader pays ``Θ(ℓ)`` rounds on that link — exactly the separation the
paper draws between the simple method and Algorithm 2.

Three bandwidth policies are supported:

``queue`` (default)
    Excess traffic waits in the link FIFO; rounds keep elapsing while
    queues drain.  This is the paper's model.
``strict``
    Enqueueing more than ``B`` bits on a link in one round raises
    :class:`~repro.kmachine.errors.BandwidthExceededError`.  Useful to
    *prove* a protocol respects the per-round budget.
``unbounded``
    No bandwidth constraint (every message arrives next round).  Useful
    for isolating algorithmic round complexity from transfer cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Literal

from .errors import BandwidthExceededError
from .message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultInjector

__all__ = ["Network", "LinkStats", "BandwidthPolicy"]

BandwidthPolicy = Literal["queue", "strict", "unbounded"]


@dataclass
class LinkStats:
    """Cumulative statistics for one directed link.

    ``dropped`` counts messages discarded on this link for any reason:
    injected faults (drop/outage), crash purges, or
    :meth:`Network.drop_all` on abnormal termination.
    """

    messages: int = 0
    bits: int = 0
    max_queue_messages: int = 0
    max_queue_bits: int = 0
    busy_rounds: int = 0
    dropped: int = 0


class _Link:
    """One directed link's FIFO plus its running bit counters.

    ``bits`` is the total not yet transmitted across the queue and
    ``head_sent`` the bits of ``queue[0]`` already on the wire, so the
    head's remaining bits are ``queue[0].bits - head_sent``.  ``stats``
    is the link's entry in :attr:`Network.link_stats`, held here so
    the per-message path does one dict lookup.
    """

    __slots__ = ("queue", "bits", "head_sent", "stats")

    def __init__(self, stats: LinkStats) -> None:
        self.queue: deque[Message] = deque()
        self.bits = 0
        self.head_sent = 0
        self.stats = stats


class Network:
    """The k-machine clique with per-link FIFO queues.

    Parameters
    ----------
    k:
        Number of machines.
    bandwidth_bits:
        Link capacity ``B`` in bits per round, or ``None`` for the
        ``unbounded`` policy.  The paper's default is ``B = Θ(log n)``;
        helpers in :mod:`repro.core.driver` choose a concrete value
        sized so one (id, distance) pair fits in a round.
    policy:
        One of ``"queue"``, ``"strict"``, ``"unbounded"``.
    """

    def __init__(
        self,
        k: int,
        bandwidth_bits: int | None = None,
        policy: BandwidthPolicy = "queue",
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if policy not in ("queue", "strict", "unbounded"):
            raise ValueError(f"unknown bandwidth policy {policy!r}")
        if policy != "unbounded" and bandwidth_bits is not None and bandwidth_bits <= 0:
            raise ValueError("bandwidth_bits must be positive")
        if bandwidth_bits is None:
            policy = "unbounded"
        self.k = k
        self.bandwidth_bits = bandwidth_bits
        self.policy: BandwidthPolicy = policy
        #: optional fault engine consulted on every submission (set by
        #: the simulator when a FaultPlan is active, or directly in tests)
        self.fault_injector: FaultInjector | None = None
        self._links: dict[tuple[int, int], _Link] = {}
        #: running totals over every link, kept exact by each mutation
        self._in_flight = 0
        self._queued_bits = 0
        self._submitted_this_round: dict[tuple[int, int], int] = {}
        self.link_stats: dict[tuple[int, int], LinkStats] = {}
        self.total_messages = 0
        self.total_bits = 0
        #: bits delivered on the busiest link in the most recent step
        self.last_step_max_link_bits = 0
        self.last_step_delivered = 0
        #: messages landed at the busiest receiver in the most recent step
        self.last_step_max_dst_messages = 0
        #: when True, :meth:`step` additionally records which link and
        #: which receiver were the busiest (cost-model profiler support)
        self.record_link_detail = False
        #: per-link bits transmitted in the most recent step (detail mode)
        self.last_step_link_bits: dict[tuple[int, int], int] = {}
        #: the link that transmitted ``last_step_max_link_bits``
        #: (ties → lowest (src, dst); ``None`` outside detail mode)
        self.last_step_top_link: tuple[int, int] | None = None
        #: the receiver that landed ``last_step_max_dst_messages``
        #: (ties → lowest rank; ``None`` outside detail mode)
        self.last_step_top_dst: int | None = None

    # ------------------------------------------------------------------
    def submit(self, msg: Message) -> None:
        """Accept a message sent during the current round.

        Under ``strict`` policy, raises if the sender has already used
        the link's per-round budget.  When a fault injector is
        attached, the message may be dropped, duplicated, corrupted or
        reordered before (or instead of) entering the link queue; the
        strict budget is charged for the *sender's* submission only —
        injected duplicates are the network's fault, not the
        protocol's.
        """
        key = (msg.src, msg.dst)
        if self.policy == "strict":
            used = self._submitted_this_round.get(key, 0)
            if used + msg.bits > self.bandwidth_bits:  # type: ignore[operator]
                raise BandwidthExceededError(
                    f"link {msg.src}->{msg.dst}: {used} + {msg.bits} bits exceeds "
                    f"B={self.bandwidth_bits} in one round (tag={msg.tag!r})"
                )
            self._submitted_this_round[key] = used + msg.bits
        if self.fault_injector is None:
            self._enqueue(msg)
            return
        copies = self.fault_injector.on_submit(msg)
        if not copies:
            self.link_stats.setdefault(key, LinkStats()).dropped += 1
            return
        for copy in copies:
            self._enqueue(copy)

    def _enqueue(self, msg: Message) -> None:
        key = (msg.src, msg.dst)
        link = self._links.get(key)
        if link is None:
            stats = self.link_stats.get(key)
            if stats is None:
                stats = self.link_stats[key] = LinkStats()
            link = self._links[key] = _Link(stats)
        queue = link.queue
        queue.append(msg)
        if (
            self.fault_injector is not None
            and len(queue) >= 2
            # never displace a partially-transmitted head
            and not (len(queue) == 2 and link.head_sent)
            and self.fault_injector.wants_reorder(msg.src, msg.dst)
        ):
            queue[-1], queue[-2] = queue[-2], queue[-1]
        bits = msg.bits
        link.bits += bits
        stats = link.stats
        stats.messages += 1
        stats.bits += bits
        if len(queue) > stats.max_queue_messages:
            stats.max_queue_messages = len(queue)
        if link.bits > stats.max_queue_bits:
            stats.max_queue_bits = link.bits
        self._in_flight += 1
        self._queued_bits += bits
        self.total_messages += 1
        self.total_bits += bits

    def step(self) -> dict[int, list[Message]]:
        """Advance one round: drain every link and return deliveries.

        Returns a mapping ``dst rank -> messages arriving at the start
        of the next round``, in FIFO order per link and ascending
        source order across links (deterministic delivery order).
        """
        self._submitted_this_round.clear()
        detail = self.record_link_detail
        deliveries: dict[int, list[Message]] = {}
        link_bits_map: dict[tuple[int, int], int] = {}
        top_link: tuple[int, int] | None = None
        max_link_bits = 0
        delivered = 0
        bandwidth = self.bandwidth_bits if self.policy != "unbounded" else None
        for key in sorted(key for key, link in self._links.items() if link.queue):
            link = self._links[key]
            queue = link.queue
            link.stats.busy_rounds += 1
            budget = bandwidth
            sent = link.head_sent
            link_bits = 0
            while queue:
                head = queue[0]
                remaining = head.bits - sent
                if budget is None:
                    take = remaining
                else:
                    if budget <= 0:
                        break
                    take = min(budget, remaining)
                    budget -= take
                link_bits += take
                if take == remaining:
                    queue.popleft()
                    deliveries.setdefault(head.dst, []).append(head)
                    delivered += 1
                    sent = 0
                else:
                    sent += take
                    break  # head still partially transmitted; link saturated
            link.head_sent = sent
            link.bits -= link_bits
            self._queued_bits -= link_bits
            if link_bits > max_link_bits:
                max_link_bits = link_bits
                top_link = key
            if detail and link_bits > 0:
                link_bits_map[key] = link_bits
        self._in_flight -= delivered
        self.last_step_max_link_bits = max_link_bits
        self.last_step_delivered = delivered
        max_dst = 0
        top_dst: int | None = None
        for dst in sorted(deliveries):
            count = len(deliveries[dst])
            if count > max_dst:
                max_dst = count
                top_dst = dst
        self.last_step_max_dst_messages = max_dst
        if detail:
            self.last_step_link_bits = link_bits_map
            self.last_step_top_link = top_link
            self.last_step_top_dst = top_dst
        return deliveries

    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Number of messages still queued on some link."""
        return self._in_flight

    def queued_bits(self) -> int:
        """Total remaining bits queued across all links."""
        return self._queued_bits

    def busiest_links(self, top: int = 5) -> list[tuple[tuple[int, int], LinkStats]]:
        """The ``top`` links by cumulative bits (debugging/benchmark aid)."""
        ranked = sorted(
            self.link_stats.items(), key=lambda kv: kv[1].bits, reverse=True
        )
        return ranked[:top]

    def purge_machine(self, rank: int) -> list[Message]:
        """Remove every queued message to or from ``rank`` (crash-stop).

        Returns the purged messages (concrete list, link order) and
        records them as drops in the affected links' :class:`LinkStats`.
        """
        return self._discard(key for key in self._links if rank in key)

    def drop_all(self) -> list[Message]:
        """Discard all queued messages (used on abnormal termination).

        Returns the concrete list of dropped messages, records them in
        each link's :class:`LinkStats`, and resets the strict-policy
        per-round budget so a reused network starts from a clean slate.
        """
        self._submitted_this_round.clear()
        return self._discard(self._links)

    def _discard(self, keys: Iterable[tuple[int, int]]) -> list[Message]:
        """Empty the links ``keys`` in sorted order, counting drops."""
        dropped: list[Message] = []
        for key in sorted(keys):
            link = self._links[key]
            if not link.queue:
                continue
            dropped.extend(link.queue)
            link.stats.dropped += len(link.queue)
            self._in_flight -= len(link.queue)
            self._queued_bits -= link.bits
            link.queue.clear()
            link.bits = 0
            link.head_sent = 0
        return dropped
