"""Parking a blocked receive must be invisible to the model.

A generator blocked in :meth:`MachineContext.recv` yields a
:class:`~repro.kmachine.machine.Wait`; the simulator and the serving
batch program leave it parked until :meth:`MachineContext.ready`.
The reference schedule is the old one — resume every generator every
round — obtained here by patching ``ready`` to always return ``True``.
Every answer and every model count (rounds, messages, bits, per-tag
and per-round traffic) must be identical under both schedules.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.driver import distributed_knn
from repro.kmachine import (
    Crash,
    FaultPlan,
    FunctionProgram,
    MachineContext,
    ProtocolError,
    ReliabilityConfig,
    Simulator,
)
from repro.kmachine.faults import ByzantinePlan, Liar
from repro.points.dataset import make_dataset
from repro.sequential.brute import brute_force_knn_ids
from repro.serve.session import ClusterSession, QueryJob

K = 4
L = 8


def _resume_every_round(self, wait):
    return True


def both_schedules(run):
    """``(real, reference)`` results of ``run()`` under both schedules,
    plus how many resumes the real schedule skipped."""
    skipped = 0
    real_ready = MachineContext.ready

    def counting_ready(self, wait):
        nonlocal skipped
        ok = real_ready(self, wait)
        skipped += not ok
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MachineContext, "ready", counting_ready)
        real = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MachineContext, "ready", _resume_every_round)
        reference = run()
    return real, reference, skipped


def model_counts(metrics) -> dict:
    """Every deterministic field of a :class:`Metrics` (host seconds out)."""
    counts = dataclasses.asdict(metrics)
    del counts["compute_seconds"]
    for record in counts["timeline"]:
        del record["compute_seconds"]
    return counts


def problem(seed: int, n: int = 400):
    rng = np.random.default_rng(seed)
    dataset = make_dataset(rng.uniform(0.0, 1.0, size=(n, 2)), rng=rng)
    return dataset, rng.uniform(0.0, 1.0, size=2)


def knn_fingerprint(res) -> tuple:
    recovery = None if res.recovery is None else dataclasses.asdict(res.recovery)
    return (
        res.ids.tolist(),
        res.distances.tolist(),
        model_counts(res.metrics),
        recovery,
    )


@pytest.mark.parametrize("seed", [3, 8])
def test_distributed_knn_identical(seed):
    dataset, query = problem(seed)
    real, ref, skipped = both_schedules(
        lambda: knn_fingerprint(
            distributed_knn(dataset, query, L, K, seed=seed, timeline=True)
        )
    )
    assert real == ref
    assert set(real[0]) == brute_force_knn_ids(dataset, query, L)
    assert skipped > 0  # the real schedule did park receives


def _session_fingerprint(session, answers) -> tuple:
    return (
        [
            (a.qid, a.ids.tolist(), a.distances.tolist(), a.complete_round, a.messages)
            for a in answers
        ],
        model_counts(session.metrics),
    )


def test_serve_batch_identical():
    dataset, _ = problem(5, n=600)
    rng = np.random.default_rng(12)
    queries = rng.uniform(0.0, 1.0, size=(10, 2))

    def run():
        session = ClusterSession(dataset, L, K, seed=5, timeline=True)
        answers = session.run_batch(
            [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
        )
        return _session_fingerprint(session, answers)

    real, ref, skipped = both_schedules(run)
    assert real == ref
    assert skipped > 0


def test_dyn_updates_identical():
    rng = np.random.default_rng(13)
    inserts = rng.uniform(0.0, 1.0, size=(40, 2))
    queries = rng.uniform(0.0, 1.0, size=(8, 2))

    def run():
        dataset, _ = problem(6, n=500)  # sessions mutate their dataset
        session = ClusterSession(
            dataset, L, K, seed=6, partitioner="skewed", timeline=True
        )
        session.insert(inserts)
        session.delete(session.dataset.ids[::9])
        session.rebalance()
        answers = session.run_batch(
            [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
        )
        return (
            _session_fingerprint(session, answers),
            sorted(int(i) for i in session.dataset.ids),
            list(session.loads),
            [m.kind for m in session.mutations],
        )

    real, ref, _ = both_schedules(run)
    assert real == ref


def test_reliable_crash_recovery_identical():
    dataset, query = problem(9, n=240)
    plan = FaultPlan(seed=9, drop=0.1, crashes=(Crash(rank=0, round=6),))
    config = ReliabilityConfig(ack_timeout_rounds=4, max_retries=12)
    real, ref, _ = both_schedules(
        lambda: knn_fingerprint(
            distributed_knn(
                dataset, query, L, K, seed=9, faults=plan, reliable=config,
                timeline=True,
            )
        )
    )
    assert real == ref
    assert real[3]["crashed"] == [0]


def test_byzantine_identical():
    dataset, query = problem(10)
    plan = ByzantinePlan(seed=1, liars=(Liar(2, "forge"),))
    real, ref, _ = both_schedules(
        lambda: knn_fingerprint(
            distributed_knn(
                dataset, query, L, K, seed=10, byzantine=plan, byzantine_f=1,
                timeout_rounds=8, timeline=True,
            )
        )
    )
    assert real == ref
    assert set(real[0]) == brute_force_knn_ids(dataset, query, L)


def test_parked_recv_times_out_in_the_same_round():
    """A receive parked while other tags keep arriving still expires at
    ``start + max_rounds``, under both schedules."""

    def program(ctx):
        if ctx.rank == 1:
            for _ in range(6):
                ctx.send(0, "noise", ctx.round)
                yield
            return None
        yield  # start the receive in round 1
        start = ctx.round
        try:
            yield from ctx.recv("never", 1, max_rounds=3)
        except ProtocolError as exc:
            return (start, ctx.round, str(exc))
        return None

    def run():
        result = Simulator(k=2, program=FunctionProgram(program), seed=0).run()
        return result.outputs[0], model_counts(result.metrics)

    real, ref, skipped = both_schedules(run)
    assert real == ref
    (start, expired, message), _ = real
    assert expired == start + 3
    assert "waited 3 rounds" in message
    assert skipped > 0
