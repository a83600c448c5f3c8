"""The one recovery engine: drivers and sessions under the same policy.

Both supervised drivers run one attempt loop (``core/driver.py``'s
``_supervise``), and the drivers and :class:`ClusterSession` judge
failed attempts with the same trusted-side rules from
:mod:`repro.kmachine.byz` (``verify_answer``, ``blame_attempt``).
These tests pin the behaviour that the shared engine settles:

* **leader deflection** — a liar sitting at the presiding leader's
  rank can frame honest workers, but under every strategy both paths
  still return the exact answer within ``2f + 2`` attempts, and the
  session's repeat-offender clause fences the lying leader itself;
* **give-up error** — when no attempts remain, the error raised is the
  *final* attempt's failure, never a stale one from an earlier attempt.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.driver as driver
from repro.core.driver import distributed_knn, distributed_select
from repro.kmachine.errors import KMachineError
from repro.kmachine.faults import BYZ_STRATEGIES, ByzantinePlan, FaultPlan, Liar
from repro.kmachine.metrics import Metrics
from repro.serve.session import ClusterSession, QueryJob

L = 8
TIMEOUT = 8
#: the fixed election seats rank 0 on attempt 1 and in the session
LEADER = 0


def _exact(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    return np.sort(np.sqrt(((points - query) ** 2).sum(axis=1)))[:L]


@pytest.mark.parametrize("k,seed", [(4, 0), (7, 5)])
@pytest.mark.parametrize("strategy", BYZ_STRATEGIES)
def test_liar_at_the_leader_cannot_deflect_blame(strategy, k, seed) -> None:
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, (200, 2))
    queries = rng.uniform(0.0, 1.0, (2, 2))
    plan = ByzantinePlan(seed=seed, liars=(Liar(LEADER, strategy),))
    budget = 2 * plan.f + 2

    result = distributed_knn(
        points, queries[0], L, k,
        seed=seed, byzantine=plan, timeout_rounds=TIMEOUT,
    )
    np.testing.assert_allclose(result.distances, _exact(points, queries[0]))
    assert result.recovery is not None
    assert result.recovery.attempts <= budget

    session = ClusterSession(
        points, L, k,
        seed=seed, byzantine=plan, byzantine_timeout_rounds=TIMEOUT,
    )
    assert session.leader == LEADER
    before = session.batches  # every attempt is one batch episode
    answers = session.run_batch(
        [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
    )
    for answer, query in zip(answers, queries):
        np.testing.assert_allclose(
            answer.distances, _exact(session.dataset.points, query)
        )
    assert session.batches - before <= budget
    assert LEADER in session.quarantined
    assert session.leader != LEADER


class _ScriptedSim:
    """Stands in for a simulator: ``run`` raises or returns ``outcome``."""

    def __init__(self, outcome: object) -> None:
        self.outcome = outcome
        self.metrics = Metrics()
        self.crashed_ranks: set[int] = set()
        self.contexts: list = []

    def run(self) -> object:
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


@pytest.mark.parametrize("call", ["select", "knn"])
def test_give_up_raises_the_final_attempts_failure(monkeypatch, call) -> None:
    """Attempt 1 raises, attempt 2 returns incomplete outputs: the error
    must report attempt 2, not re-raise attempt 1's exception."""
    script = iter(
        [
            KMachineError("first attempt blew up"),
            SimpleNamespace(outputs=[None, None]),
            SimpleNamespace(outputs=[None, None]),  # knn's degraded attempt
        ]
    )
    monkeypatch.setattr(
        driver, "_build_simulator", lambda *a, **kw: _ScriptedSim(next(script))
    )
    values = np.arange(40, dtype=float)
    with pytest.raises(KMachineError) as excinfo:
        if call == "select":
            distributed_select(
                values, 3, 2, seed=1, faults=FaultPlan(), max_attempts=2
            )
        else:
            distributed_knn(
                values.reshape(-1, 1), 0.0, 3, 2,
                seed=1, faults=FaultPlan(), max_attempts=2,
            )
    assert "incomplete outputs" in str(excinfo.value)
    assert "blew up" not in str(excinfo.value)
