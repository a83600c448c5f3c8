"""``KeyIndex`` and ``key_order`` against the code they replaced.

``reference_rank_leq`` and ``reference_uniform_in_range`` are the
searchsorted + id-block helpers Algorithm 1 ran on structured arrays
before rank queries became bisects over a value list.  Every answer,
and every RNG draw, must be the same: the protocols' counts, pivots
and prefix cuts decide rounds and messages.  ``key_order`` must match
the structured ``order=("value", "id")`` sort it replaced, signed
zeros included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.points.ids import MINUS_INF_KEY, PLUS_INF_KEY, KeyIndex, Keyed, key_order

_KEY_DTYPE = [("value", "f8"), ("id", "i8")]

#: few distinct values, so tie blocks are long; -0.0 and 0.0 compare equal
VALUES = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.75]


def reference_rank_leq(keys: np.ndarray, bound: Keyed) -> int:
    """|{x : x <= bound}| on a sorted structured array (old helper)."""
    if len(keys) == 0:
        return 0
    if bound.value == np.inf:
        return len(keys)
    if bound.value == -np.inf:
        return 0
    values = keys["value"]
    left = int(np.searchsorted(values, bound.value, side="left"))
    right = int(np.searchsorted(values, bound.value, side="right"))
    if left == right:
        return left
    ids = keys["id"][left:right]
    return left + int(np.searchsorted(np.sort(ids), bound.id, side="right"))


def reference_uniform_in_range(
    keys: np.ndarray, lo: Keyed, hi: Keyed, rng: np.random.Generator
) -> Keyed:
    """A uniform random key in ``(lo, hi]`` (old helper)."""
    start = reference_rank_leq(keys, lo)
    stop = reference_rank_leq(keys, hi)
    if stop <= start:
        raise ValueError("no points in range; leader accounting is wrong")
    idx = start + int(rng.integers(0, stop - start))
    row = keys[start:stop][idx - start]
    return Keyed(float(row["value"]), int(row["id"]))


def brute_rank(pairs: list[tuple[float, int]], bound: Keyed) -> int:
    return sum(1 for pair in pairs if pair <= (bound.value, bound.id))


@st.composite
def tables(draw, max_size: int = 300) -> np.ndarray:
    """An unsorted ``(value, id)`` table with unique ids and many ties."""
    values = draw(st.lists(st.sampled_from(VALUES), max_size=max_size))
    ids = draw(
        st.lists(
            st.integers(1, 10 * max_size),
            min_size=len(values),
            max_size=len(values),
            unique=True,
        )
    )
    table = np.empty(len(values), dtype=_KEY_DTYPE)
    table["value"] = values
    table["id"] = ids
    return table


@st.composite
def indexed(draw) -> tuple[np.ndarray, list[Keyed]]:
    """A sorted key array plus bounds at, between and beyond its keys."""
    table = draw(tables())
    keys = table[key_order(table)]
    bounds = [MINUS_INF_KEY, PLUS_INF_KEY, Keyed(-9.0, 5), Keyed(9.0, 5)]
    for value, id_ in keys.tolist()[:40]:
        bounds += [Keyed(value, id_), Keyed(value, id_ - 1), Keyed(value, id_ + 1)]
    bounds += [Keyed(v + 0.25, 0) for v in VALUES]
    bounds += [Keyed(v, draw(st.integers(0, 3000))) for v in VALUES]
    return keys, bounds


@settings(max_examples=50, deadline=None)
@given(indexed())
def test_rank_count_prefix_extremes_match_reference(case):
    keys, bounds = case
    index = KeyIndex(keys)
    pairs = [(float(v), int(i)) for v, i in keys.tolist()]
    for bound in bounds:
        want = reference_rank_leq(keys, bound)
        assert index.rank(bound) == want == brute_rank(pairs, bound)
        np.testing.assert_array_equal(index.prefix(bound), keys[:want])
    for lo, hi in zip(bounds, bounds[1:] + bounds[:1]):
        want = reference_rank_leq(keys, hi) - reference_rank_leq(keys, lo)
        assert index.count(lo, hi) == want
        assert want == brute_rank(pairs, hi) - brute_rank(pairs, lo)
    n, kmin, kmax = index.extremes()
    assert n == len(pairs)
    if pairs:
        assert kmin.as_tuple() == min(pairs)
        assert kmax.as_tuple() == max(pairs)
    else:
        assert (kmin, kmax) == (PLUS_INF_KEY, MINUS_INF_KEY)


@settings(max_examples=50, deadline=None)
@given(indexed(), st.integers(0, 2**32 - 1))
def test_uniform_draws_like_reference(case, seed):
    keys, bounds = case
    index = KeyIndex(keys)
    for lo, hi in zip(bounds, bounds[1:] + bounds[:1]):
        ours_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        try:
            want = reference_uniform_in_range(keys, lo, hi, ref_rng)
        except ValueError:
            with pytest.raises(ValueError):
                index.uniform(lo, hi, ours_rng)
            continue
        assert index.uniform(lo, hi, ours_rng) == want
        # exactly one draw each: the streams stay in step
        assert ours_rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


def test_uniform_on_empty_index_raises():
    index = KeyIndex(np.empty(0, dtype=_KEY_DTYPE))
    with pytest.raises(ValueError):
        index.uniform(MINUS_INF_KEY, PLUS_INF_KEY, np.random.default_rng(0))


@settings(max_examples=50, deadline=None)
@given(tables())
def test_key_order_matches_structured_argsort(table):
    np.testing.assert_array_equal(
        key_order(table), np.argsort(table, order=("value", "id"))
    )


def test_key_order_ties_signed_zeros_by_id():
    table = np.array(
        [(0.0, 7), (-0.0, 3), (0.0, 1), (-1.0, 9), (-0.0, 2)], dtype=_KEY_DTYPE
    )
    order = key_order(table)
    np.testing.assert_array_equal(order, np.argsort(table, order=("value", "id")))
    assert table["id"][order].tolist() == [9, 1, 2, 3, 7]


def test_infinite_values_rank_by_id():
    """Keys valued ±inf still order by id (the old helper counted every
    key for any bound valued +inf, so a pivot at an infinite key made no
    progress and Algorithm 1 ran until ``max_rounds``)."""
    table = np.array(
        [(np.inf, 4), (1.0, 2), (np.inf, 9), (-np.inf, 3)], dtype=_KEY_DTYPE
    )
    index = KeyIndex(table[key_order(table)])
    pairs = [(float(v), int(i)) for v, i in table.tolist()]
    for bound in [Keyed(np.inf, 4), Keyed(np.inf, 5), Keyed(-np.inf, 3),
                  MINUS_INF_KEY, PLUS_INF_KEY]:
        assert index.rank(bound) == brute_rank(pairs, bound)


def test_selection_with_infinite_values_terminates_exactly():
    from repro.core.driver import distributed_select

    values = np.random.default_rng(0).random(200)
    values[[5, 6]] = np.inf
    result = distributed_select(values, l=199, k=4, seed=0, attempt_max_rounds=2000)
    assert len(result.values) == 199
    assert int(np.isinf(result.values).sum()) == 1
