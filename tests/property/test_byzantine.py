"""Property tests for the Byzantine layer: exact and terminating, always.

Hypothesis draws a random adversary — up to ``⌊(k−1)/3⌋`` liars at
random ranks, each with an independent random strategy — and drives it
through the supervised drivers and a live churning session.  The
properties every draw must satisfy:

* **exactness** — the returned answer equals brute force, bit for bit;
  lying may cost attempts and messages but never correctness;
* **termination** — the run completes within its attempt/round budgets
  (the test finishing at all is the witness; the attempt ceiling is
  asserted explicitly);
* **agreement** — a one-shot driver query and the same query served by
  a resident session return identical ids and distances.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import distributed_knn, distributed_select
from repro.kmachine.faults import BYZ_STRATEGIES, ByzantinePlan, Liar
from repro.serve.session import ClusterSession, QueryJob


@st.composite
def adversaries(draw, k_min=4, k_max=8):
    """(k, ByzantinePlan) with a legal adversary: f ≤ ⌊(k−1)/3⌋ liars."""
    k = draw(st.integers(k_min, k_max))
    f_cap = (k - 1) // 3
    f = draw(st.integers(1, max(1, f_cap)))
    ranks = draw(
        st.lists(st.integers(0, k - 1), min_size=f, max_size=f, unique=True)
    )
    liars = tuple(
        Liar(r, draw(st.sampled_from(BYZ_STRATEGIES))) for r in ranks
    )
    return k, ByzantinePlan(seed=draw(st.integers(0, 2**16)), liars=liars)


@given(adv=adversaries(), seed=st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_selection_exact_under_random_adversary(adv, seed) -> None:
    k, plan = adv
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, 160)
    l = int(rng.integers(1, 20))
    result = distributed_select(
        values, l, k,
        seed=seed,
        byzantine=plan,
        byzantine_f=plan.f,
        timeout_rounds=6,
    )
    np.testing.assert_allclose(np.sort(result.values), np.sort(values)[:l])
    attempts = 1 if result.recovery is None else result.recovery.attempts
    assert attempts <= 2 * plan.f + 2


@given(adv=adversaries(), seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_knn_exact_under_random_adversary(adv, seed) -> None:
    k, plan = adv
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, (150, 2))
    query = rng.uniform(0.0, 1.0, 2)
    l = int(rng.integers(1, 16))
    result = distributed_knn(
        points, query, l, k,
        seed=seed,
        byzantine=plan,
        byzantine_f=plan.f,
        timeout_rounds=6,
    )
    d = np.sqrt(((points - query) ** 2).sum(axis=1))
    np.testing.assert_allclose(np.sort(result.distances), np.sort(d)[:l])
    attempts = 1 if result.recovery is None else result.recovery.attempts
    assert attempts <= 2 * plan.f + 2
    # Differential: the same draw served by a resident session (same
    # seed, hence the same ids) must give the driver's answer exactly.
    session = ClusterSession(
        points, l, k,
        seed=seed,
        byzantine=plan,
        byzantine_f=plan.f,
        byzantine_timeout_rounds=6,
    )
    (served,) = session.run_batch([QueryJob(qid=0, query=query)])
    np.testing.assert_array_equal(served.ids, result.ids)
    np.testing.assert_array_equal(served.distances, result.distances)


@given(adv=adversaries(k_min=5, k_max=7), seed=st.integers(0, 2**10))
@settings(max_examples=5, deadline=None)
def test_churning_session_exact_under_random_adversary(adv, seed) -> None:
    """Serve → mutate → serve on a live session with liars resident."""
    k, plan = adv
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, (200, 2))
    l = 8
    session = ClusterSession(
        points, l, k,
        seed=seed,
        byzantine=plan,
        byzantine_timeout_rounds=6,
    )
    for batch in range(2):
        queries = rng.uniform(0.0, 1.0, (2, 2))
        jobs = [
            QueryJob(qid=batch * 2 + j, query=queries[j]) for j in range(2)
        ]
        answers = session.run_batch(jobs)
        for job, ans in zip(jobs, answers):
            d = np.sqrt(
                ((session.dataset.points - job.query) ** 2).sum(axis=1)
            )
            np.testing.assert_allclose(np.sort(ans.distances), np.sort(d)[:l])
        if batch == 0:
            new_ids = session.insert(rng.uniform(0.0, 1.0, (5, 2)))
            session.delete(new_ids[:2])
            live = session.dataset.ids
            session.delete(live[rng.integers(0, len(live), 2)])
    # the mirror and the shards agree after every mutation
    assert sum(session.loads) == len(session.dataset)
