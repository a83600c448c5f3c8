"""Per-round send accounting: profiled and plain runs count the same.

The simulator accounts each round's sends with one
:meth:`~repro.kmachine.metrics.Metrics.record_sends` call, which fills
the per-link maps only in profiled runs.  Message, bit and per-tag
totals must not depend on profiling — including under drops, crashes,
retransmissions and a failed attempt folded into the result — and
the per-link maps of a profiled run must sum to the totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import distributed_knn
from repro.kmachine import Crash, FaultPlan, ReliabilityConfig, Simulator
from repro.kmachine.errors import BandwidthExceededError
from repro.kmachine.machine import FunctionProgram
from repro.kmachine.message import Message
from repro.kmachine.metrics import Metrics
from repro.points.dataset import make_dataset

K = 4
N = 240
L = 9


def _problem(seed: int):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(N, 3))
    query = rng.uniform(0.0, 1.0, size=3)
    return make_dataset(points, rng=rng), query


PLANS = {
    "fault-free": {},
    "drops+leader-crash": {
        "faults": FaultPlan(seed=3, drop=0.1, crashes=(Crash(rank=0, round=6),)),
        "reliable": ReliabilityConfig(ack_timeout_rounds=4, max_retries=12),
    },
}


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_profile_does_not_change_send_totals(plan):
    dataset, query = _problem(3)
    runs = {
        profile: distributed_knn(
            dataset, query, l=L, k=K, seed=3, profile=profile, **PLANS[plan]
        )
        for profile in (False, True)
    }
    plain, profiled = runs[False].metrics, runs[True].metrics
    np.testing.assert_array_equal(runs[False].ids, runs[True].ids)
    assert plain.messages > 0
    assert (plain.messages, plain.bits) == (profiled.messages, profiled.bits)
    assert plain.per_tag_messages == profiled.per_tag_messages
    assert plain.per_tag_bits == profiled.per_tag_bits
    assert sum(plain.per_tag_messages.values()) == plain.messages
    assert sum(plain.per_tag_bits.values()) == plain.bits
    assert plain.per_link_messages == {}
    assert sum(profiled.per_link_messages.values()) == profiled.messages
    assert sum(profiled.per_link_bits.values()) == profiled.bits
    if plan == "fault-free":
        # independent count: what the machines themselves sent
        for run in runs.values():
            sent = sum(ctx.sent_messages for ctx in run.raw.contexts)
            assert sent == run.metrics.messages
    else:
        assert runs[True].recovery.attempts >= 2
        assert profiled.retransmissions > 0


def test_sends_accepted_before_a_failing_submit_are_accounted():
    def burst(ctx):
        if ctx.rank == 0:
            ctx.send(1, "t", 1)
            ctx.send(1, "t", 2)  # over the strict per-round budget
        yield

    sim = Simulator(
        k=2, program=FunctionProgram(burst), bandwidth_bits=100, policy="strict"
    )
    with pytest.raises(BandwidthExceededError):
        sim.run()
    assert sim.metrics.messages == 1
    assert sim.metrics.per_tag_messages == {"t": 1}


def test_record_sends_equals_record_send_per_message():
    msgs = [
        Message(0, 1, "a", None, 65),
        Message(1, 0, "b", (1.0, 2), 192),
        Message(0, 1, "a", 3, 129),
        Message(2, 1, "a", 3, 129),
    ]
    for links in (False, True):
        batched, single = Metrics(), Metrics()
        assert batched.record_sends(msgs, links=links) == sum(m.bits for m in msgs)
        assert batched.record_sends([], links=links) == 0
        for m in msgs:
            if links:
                single.record_send(m.tag, m.bits, src=m.src, dst=m.dst)
            else:
                single.record_send(m.tag, m.bits)
        assert batched.to_dict() == single.to_dict()
