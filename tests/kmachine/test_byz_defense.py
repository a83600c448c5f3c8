"""Unit tests for the Byzantine defense library (`repro.kmachine.byz`).

Covers the pure pieces (config math, blame attribution, robust
reductions) and the quorum primitives run on a real simulator with a
hand-scripted liar program — the adversary here is written *into the
program*, not injected by the NIC layer, so each test controls the
exact lie the defense must survive.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.dyn.balance import trimmed_ratio
from repro.kmachine import FunctionProgram, Simulator
from repro.kmachine.byz import (
    ByzBudget,
    ByzConfig,
    ByzantineError,
    SuspicionTracker,
    aggregate_suspicions,
    attribute_blame,
    blame_attempt,
    confirm_value,
    confirmed_broadcast,
    gather_quorum,
    median_of_reports,
    receive_confirmed,
    recv_from,
    recv_upto,
    robust_loads,
    selection_iteration_cap,
    serve_gather,
    suspicions,
    verify_answer,
)
from repro.kmachine.errors import FaultError
from repro.kmachine.faults import ByzantinePlan, Liar
from repro.points.ids import Keyed
from repro.kmachine.schema import Echo, SuspicionNotice


# -- config math --------------------------------------------------------

def test_config_validates_quorum_precondition() -> None:
    ByzConfig(f=0).validate(1)  # f = 0 imposes nothing
    ByzConfig(f=2).validate(7)
    with pytest.raises(ValueError, match="needs k >= 7"):
        ByzConfig(f=2).validate(6)
    with pytest.raises(ValueError, match="f must be >= 0"):
        ByzConfig(f=-1)


def test_config_live_and_workers_respect_quarantine() -> None:
    cfg = ByzConfig(f=1, quarantined=frozenset({2}))
    assert cfg.live(5) == [0, 1, 3, 4]
    assert cfg.live(5, 4) == [0, 1, 3]
    assert cfg.workers(5, leader=0) == [1, 3, 4]


def test_op_budget_scales_with_k_and_dominates_simple_timeouts() -> None:
    cfg = ByzConfig(f=1, timeout_rounds=8)
    assert cfg.confirm_timeout_rounds == 2 * 8 + 4
    assert cfg.op_timeout_rounds == 4 * 8 + 8
    # the arrival-extended echo gather term: 2·k(k−1)
    assert cfg.op_budget(7) == 4 * 8 + 2 * 7 * 6 + 8
    assert cfg.op_budget(7) > cfg.op_timeout_rounds
    assert cfg.op_budget(10) > cfg.op_budget(7)


def test_byzantine_error_carries_suspects() -> None:
    err = ByzantineError("boom", suspects=(3, 1, 3))
    assert isinstance(err, FaultError)
    assert err.suspects == (1, 3)


# -- suspicion ledger ---------------------------------------------------

def test_tracker_orders_by_weight_then_rank() -> None:
    t = SuspicionTracker()
    t.accuse(4, "a")
    t.accuse(2, "b")
    t.accuse(2, "c")
    t.fold_notice(SuspicionNotice(suspect=1, reason="relayed"))
    assert t.suspects() == [2, 1, 4]
    assert t.counts[2] == 2
    assert any("relayed" in r for r in t.reasons[1])


def test_aggregate_suspicions_sums_across_contexts_and_excludes() -> None:
    a, b = SuspicionTracker(), SuspicionTracker()
    a.accuse(3, "x")
    a.accuse(3, "y")
    b.accuse(3, "z")
    b.accuse(0, "w")
    contexts = [
        SimpleNamespace(_byz_suspicions=a),
        SimpleNamespace(_byz_suspicions=b),
        SimpleNamespace(),  # never accused anyone: no tracker attribute
    ]
    assert aggregate_suspicions(contexts) == {3: 3, 0: 1}
    assert aggregate_suspicions(contexts, exclude={3}) == {0: 1}


def test_attribute_blame_layers() -> None:
    # 1 <= |mismatch| <= f: trust the realised-output evidence
    assert attribute_blame(
        mismatch=[2], weights={5: 9}, f=2, leader=0
    ) == (2,)
    # no mismatch: heaviest suspicions, capped at f
    assert attribute_blame(
        mismatch=[], weights={5: 9, 1: 9, 4: 1}, f=2, leader=0
    ) == (1, 5)
    # over-wide implication: only a lying leader can frame that many
    assert attribute_blame(
        mismatch=[1, 2, 3], weights={}, f=1, leader=0
    ) == (0,)
    # nothing at all: the leader presided over the failure
    assert attribute_blame(mismatch=[], weights={}, f=1, leader=6) == (6,)
    # repeat offender adds the leader on top of the evidence
    assert attribute_blame(
        mismatch=[2], weights={}, f=2, leader=0, repeat_offender=True
    ) == (0, 2)
    # an unknown leader is never a fallback target
    assert attribute_blame(mismatch=[], weights={}, f=1, leader=None) == ()
    assert attribute_blame(
        mismatch=[2], weights={}, f=2, leader=None, repeat_offender=True
    ) == (2,)


def test_blame_attempt_explicit_suspects() -> None:
    err = ByzantineError("abort", suspects=(3,))
    # few enough explicit suspects: trusted as-is
    assert blame_attempt(err, [], {}, f=1, leader=0, last_fail_leader=None) == (3,)
    # the same leader presided over the previous failure: fenced too
    assert blame_attempt(err, [], {}, f=1, leader=0, last_fail_leader=0) == (0, 3)
    # unknown leader: no repeat-offender clause
    assert blame_attempt(err, [], {}, f=1, leader=None, last_fail_leader=0) == (3,)
    # fenced ranks are filtered *before* the f + 1 cap ...
    wide = ByzantineError("abort", suspects=(1, 2, 3))
    assert blame_attempt(
        wide, [], {}, f=1, leader=0, last_fail_leader=None, fenced={1}
    ) == (2, 3)
    # ... and an all-fenced list falls through to the evidence layers
    assert blame_attempt(
        err, [], {5: 2}, f=1, leader=0, last_fail_leader=None, fenced={3}
    ) == (5,)


def test_blame_attempt_without_explicit_suspects() -> None:
    # an answer-check failure with no evidence: retry without exclusion
    assert blame_attempt(None, [], {}, f=1, leader=0, last_fail_leader=None) == ()
    # a raised attempt with no evidence blames the known leader ...
    boom = FaultError("timeout")
    assert blame_attempt(boom, [], {}, f=1, leader=4, last_fail_leader=None) == (4,)
    # ... but nobody when the leader is unknown
    assert blame_attempt(boom, [], {}, f=1, leader=None, last_fail_leader=2) == ()
    # fenced ranks never carry weight again
    assert blame_attempt(
        None, [1], {2: 5}, f=1, leader=0, last_fail_leader=None, fenced={1}
    ) == (2,)


def test_verify_answer() -> None:
    b, other = Keyed(0.5, 7), Keyed(0.9, 3)
    assert verify_answer([b, b, b], [2, 1, 1], [2, 1, 1], 4, 4) == (True, [], "")
    # a minority boundary pins its ranks
    verdict = verify_answer([b, other, b], [2, 1, 1], None, 4, 4)
    assert not verdict.ok and verdict.mismatch == [1]
    assert verdict.reason == (
        "byzantine corruption: boundary disagreement across 2 values"
    )
    # a wrong total pins ranks whose size contradicts the leader's tally
    verdict = verify_answer([b, b, b], [2, 3, 1], [2, 1, 1], 4, 4)
    assert verdict == (
        False, [1], "byzantine corruption: assembled 6 keys, want [4, 4]"
    )
    # non-contributing (fenced) ranks are skipped, slack widens [lo, hi]
    assert verify_answer([b, None, b], [2, 0, 3], [2, 9, 3], 4, 6).ok


def test_byz_budget_prologue() -> None:
    assert ByzBudget.requested(None, None) is None
    assert ByzBudget.requested(None, 0) is None
    plan = ByzantinePlan(seed=1, liars=(Liar(2, "forge"),))
    assert ByzBudget.requested(plan, None) == ByzBudget(1)
    # an explicit f wins over the plan's liar count, even f = 0
    assert ByzBudget.requested(plan, 0) == ByzBudget(0)
    assert ByzBudget.requested(None, 2).attempts == 6
    # f is clamped to the k >= 3f + 1 quorum bound per run
    cfg = ByzBudget(5).config(7, timeout_rounds=6)
    assert (cfg.f, cfg.timeout_rounds) == (2, 6)
    assert ByzBudget(1).config(4).timeout_rounds == 32


# -- robust reductions --------------------------------------------------

def test_median_of_reports_ignores_non_finite() -> None:
    assert median_of_reports([1.0, 2.0, float("inf"), 3.0]) == 2.0
    assert median_of_reports([]) == 0.0


def test_robust_loads_clips_at_three_medians() -> None:
    loads = robust_loads([100, 100, 100, 10_000, -5, float("nan")], f=1)
    assert loads.dtype == np.int64
    assert loads[3] == 300  # clipped to 3x median
    assert loads[4] == 0 and loads[5] == 0


def test_trimmed_ratio_drops_inflated_lies() -> None:
    loads = [100, 100, 100, 100_000]
    assert trimmed_ratio(loads, f=0) > 2.0  # max/mean blown up by the lie
    assert trimmed_ratio(loads, f=1) == pytest.approx(1.0)
    assert trimmed_ratio([5, 5], f=2) == 0.0


def test_selection_iteration_cap_dominates_honest_bound() -> None:
    cap = selection_iteration_cap(10_000, k=8)
    honest = 3.0 * np.log(10_000) / np.log(1.5)
    assert cap >= honest + 2 * 8
    assert selection_iteration_cap(0, 4) >= 2 * 4 + 16


# -- receive primitives on a real simulator -----------------------------

def _run(program_fn, k, **sim_kwargs):
    sim = Simulator(k=k, program=FunctionProgram(program_fn), **sim_kwargs)
    return sim.run().outputs


def test_recv_from_tolerates_silence_and_strays() -> None:
    def body(ctx):
        if ctx.rank == 0:
            got = yield from recv_from(ctx, "t", [1, 2, 3], timeout_rounds=4)
            return got
        if ctx.rank == 1:
            ctx.send(0, "t", "one")
        # rank 2 stays silent; rank 3 isn't in existence (k = 3)
        yield
        return None

    outputs = _run(body, 3)
    assert outputs[0] == {1: "one"}


def test_recv_upto_cuts_adversarial_trickle() -> None:
    """One message every timeout-1 rounds: the arrival-extended cap
    ends the gather in O(timeout + received), not unbounded."""
    timeout = 4

    def body(ctx):
        if ctx.rank == 0:
            start = ctx.round
            got = yield from recv_upto(ctx, "t", 100, timeout)
            return (len(got), ctx.round - start)
        for i in range(30):
            if i % (timeout - 1) == 0:
                ctx.send(0, "t", i)
            yield
        return None

    received, waited = _run(body, 2)[0]
    assert received < 30
    assert waited <= timeout + 2 * received + 1


def test_gather_quorum_detects_equivocation() -> None:
    """Origin 1 tells the leader 10 and everyone else 99: plurality
    resolves to the honest-majority view and rank 1 is accused."""
    cfg = ByzConfig(f=1, timeout_rounds=4)

    def body(ctx):
        tracker = suspicions(ctx)
        if ctx.rank == 0:
            resolved = yield from gather_quorum(ctx, cfg, "v", "e", tracker)
            return (resolved, tracker.suspects())
        if ctx.rank == 1:  # equivocator: per-recipient values
            ctx.send(0, "v", 10)
            for dst in (2, 3, 4):
                ctx.send(dst, "v", 99)
            yield
            heard = yield from recv_from(ctx, "v", [2, 3, 4], cfg.timeout_rounds)
            for src, value in heard.items():
                ctx.send(0, "e", Echo(origin=src, value=value))
            yield
            return None
        yield from serve_gather(ctx, 0, cfg, "v", "e", ctx.rank * 100)
        return None

    resolved, suspects = _run(body, 5)[0]
    assert resolved[2] == 200 and resolved[3] == 300 and resolved[4] == 400
    assert resolved[1] == 99  # the value the honest majority observed
    assert 1 in suspects


def test_confirmed_broadcast_corrects_equivocating_leader() -> None:
    """Leader sends 7 to one victim and 5 to the rest: every honest
    worker adopts the quorum value 5 and the victim accuses the leader."""
    cfg = ByzConfig(f=1, timeout_rounds=4)

    def body(ctx):
        tracker = suspicions(ctx)
        if ctx.rank == 0:
            for dst in range(1, ctx.k):
                ctx.send(dst, "out", 7 if dst == 1 else 5)
            yield
            return None
        adopted = yield from receive_confirmed(
            ctx, 0, cfg, "out", "echo", tracker
        )
        return (adopted, tracker.suspects())

    outputs = _run(body, 5)
    for rank in range(1, 5):
        adopted, suspects = outputs[rank]
        assert adopted == 5
    assert 0 in outputs[1][1]  # the victim blames the leader


def test_confirm_value_aborts_on_wide_split() -> None:
    """No value can reach a W−f quorum: the confirm fails with the
    leader as suspect instead of silently adopting a minority view."""
    cfg = ByzConfig(f=1, timeout_rounds=4)

    def body(ctx):
        tracker = suspicions(ctx)
        if ctx.rank == 0:
            yield from confirmed_broadcast(ctx, cfg, "out", None)
            return None
        try:
            yield from confirm_value(
                ctx, 0, cfg, ctx.rank * 1000, "echo", tracker
            )
        except ByzantineError as err:
            return err.suspects
        return "adopted"

    outputs = _run(body, 5)
    for rank in range(1, 5):
        assert outputs[rank] == (0,)
