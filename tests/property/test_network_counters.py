"""The network's running counters against the loop they replaced.

:class:`~repro.kmachine.network.Network` keeps per-link and global
counters (queued bits, in-flight messages, the head's sent bits)
instead of re-summing its queues.  ``ReferenceNetwork`` below is the
earlier implementation — one remaining-bits cell per queued message,
every total recomputed from the queues — kept as the reference.
Random sequences of submit/step/purge/drop-all, with and without link
faults and under every bandwidth policy, must give the same
deliveries, the same totals, the same remaining bits per queued
message and the same :class:`LinkStats`.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmachine import BandwidthExceededError, FaultInjector, FaultPlan, Message
from repro.kmachine.network import LinkStats, Network

K = 3
BANDWIDTH = 100


class ReferenceNetwork:
    """Per-message remaining bits; totals summed over the queues."""

    def __init__(self, policy: str, injector: FaultInjector | None) -> None:
        self.bandwidth = None if policy == "unbounded" else BANDWIDTH
        self.strict = policy == "strict"
        self.injector = injector
        self.queues: dict[tuple[int, int], deque[list]] = {}
        self.link_stats: dict[tuple[int, int], LinkStats] = {}
        self.submitted: dict[tuple[int, int], int] = {}

    def submit(self, msg: Message) -> None:
        key = (msg.src, msg.dst)
        if self.strict:
            used = self.submitted.get(key, 0)
            if used + msg.bits > self.bandwidth:
                raise BandwidthExceededError("over budget")
            self.submitted[key] = used + msg.bits
        copies = [msg] if self.injector is None else self.injector.on_submit(msg)
        if not copies:
            self.link_stats.setdefault(key, LinkStats()).dropped += 1
        for copy in copies:
            self._enqueue(copy)

    def _enqueue(self, msg: Message) -> None:
        key = (msg.src, msg.dst)
        queue = self.queues.setdefault(key, deque())
        queue.append([msg, msg.bits])
        if (
            self.injector is not None
            and len(queue) >= 2
            and not (len(queue) == 2 and queue[0][1] != queue[0][0].bits)
            and self.injector.wants_reorder(msg.src, msg.dst)
        ):
            queue[-1], queue[-2] = queue[-2], queue[-1]
        stats = self.link_stats.setdefault(key, LinkStats())
        stats.messages += 1
        stats.bits += msg.bits
        stats.max_queue_messages = max(stats.max_queue_messages, len(queue))
        stats.max_queue_bits = max(stats.max_queue_bits, sum(c[1] for c in queue))

    def step(self) -> dict[int, list[Message]]:
        self.submitted.clear()
        deliveries: dict[int, list[Message]] = {}
        for key in sorted(self.queues):
            queue = self.queues[key]
            if not queue:
                continue
            self.link_stats[key].busy_rounds += 1
            budget = self.bandwidth
            while queue:
                cell = queue[0]
                if budget is None:
                    take = cell[1]
                else:
                    if budget <= 0:
                        break
                    take = min(budget, cell[1])
                    budget -= take
                cell[1] -= take
                if cell[1] == 0:
                    queue.popleft()
                    deliveries.setdefault(cell[0].dst, []).append(cell[0])
                else:
                    break
        return deliveries

    def in_flight(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def queued_bits(self) -> int:
        return sum(c[1] for q in self.queues.values() for c in q)

    def purge_machine(self, rank: int) -> list[Message]:
        return self._discard(key for key in self.queues if rank in key)

    def drop_all(self) -> list[Message]:
        self.submitted.clear()
        return self._discard(list(self.queues))

    def _discard(self, keys) -> list[Message]:
        dropped: list[Message] = []
        for key in sorted(keys):
            queue = self.queues[key]
            if queue:
                dropped.extend(c[0] for c in queue)
                self.link_stats.setdefault(key, LinkStats()).dropped += len(queue)
                queue.clear()
        return dropped


def queue_state(network: Network) -> dict:
    """Each non-empty link's queue as ``(message, remaining bits)`` pairs,
    rebuilt from the messages and the head's sent-bits count."""
    state = {}
    for key, link in network._links.items():
        if link.queue:
            remaining = [m.bits for m in link.queue]
            remaining[0] -= link.head_sent
            assert link.bits == sum(remaining)
            state[key] = list(zip(link.queue, remaining))
    return state


links = st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)).filter(
    lambda sd: sd[0] != sd[1]
)
submits = st.tuples(st.just("submit"), links, st.integers(1, 3 * BANDWIDTH))
steps = st.tuples(st.just("step"))
# submit and step three times as often as the queue-emptying operations,
# so multi-round partial transmissions are common
operations = st.lists(
    st.one_of(
        submits, submits, submits, steps, steps, steps,
        st.tuples(st.just("purge"), st.integers(0, K - 1)),
        st.tuples(st.just("drop_all")),
    ),
    max_size=60,
)
fault_plans = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 2**16),
        drop=st.sampled_from([0.0, 0.2]),
        duplicate=st.sampled_from([0.0, 0.3]),
        reorder=st.sampled_from([0.0, 0.5]),
    ),
)


@pytest.mark.parametrize("policy", ["queue", "strict", "unbounded"])
@settings(max_examples=25, deadline=None)
@given(ops=operations, plan=fault_plans)
def test_counters_match_the_recomputed_queues(policy, ops, plan):
    network = Network(K, bandwidth_bits=BANDWIDTH, policy=policy)
    if plan is not None:
        network.fault_injector = FaultInjector(plan)
    reference = ReferenceNetwork(policy, None if plan is None else FaultInjector(plan))
    for index, op in enumerate(ops):
        if op[0] == "submit":
            (src, dst), bits = op[1], op[2]
            msg = Message(src=src, dst=dst, tag=f"t{index}", payload=index, bits=bits)
            outcomes = []
            for net in (network, reference):
                try:
                    net.submit(msg)
                    outcomes.append(None)
                except BandwidthExceededError:
                    outcomes.append("refused")
            assert outcomes[0] == outcomes[1]
        elif op[0] == "step":
            assert network.step() == reference.step()
        elif op[0] == "purge":
            assert network.purge_machine(op[1]) == reference.purge_machine(op[1])
        else:
            assert network.drop_all() == reference.drop_all()
        assert network.in_flight() == reference.in_flight()
        assert network.queued_bits() == reference.queued_bits()
        assert queue_state(network) == {
            key: [(c[0], c[1]) for c in queue]
            for key, queue in reference.queues.items()
            if queue
        }
        assert {
            key: dataclasses.asdict(stats) for key, stats in network.link_stats.items()
        } == {key: dataclasses.asdict(stats) for key, stats in reference.link_stats.items()}
