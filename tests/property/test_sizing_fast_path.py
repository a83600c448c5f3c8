"""Payload sizing's exact-type fast path against the general chain.

``reference_measure`` is the isinstance chain :func:`repro.kmachine.
sizing._measure` ran for every object before it gained a fast path on
exact ``tuple``/``list``/``int``/``float``/``str``.  Bit counts are
the model's bandwidth charge, so every payload shape the protocols can
send — subclasses, NumPy scalars and arrays, slotted and registered
wire dataclasses included — must cost exactly what it did.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmachine.reliable import Envelope
from repro.kmachine.sizing import DEFAULT_POLICY, SizingPolicy
from repro.points.ids import Keyed


def reference_measure(obj: Any, policy: SizingPolicy) -> int:
    if obj is None:
        return 1
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return 1
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return policy.word_bits
    if isinstance(obj, complex):
        return 2 * policy.word_bits
    if isinstance(obj, str):
        return 8 * len(obj)
    if isinstance(obj, bytes):
        return 8 * len(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.bool_:
            return int(obj.size)
        return int(obj.size) * policy.word_bits
    if isinstance(obj, dict):
        return sum(
            reference_measure(k, policy) + reference_measure(v, policy)
            for k, v in obj.items()
        )
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(reference_measure(item, policy) for item in obj)
    if hasattr(obj, "__dict__") and obj.__dict__:
        return reference_measure(obj.__dict__, policy)
    if getattr(obj, "__slots__", None):
        return sum(
            reference_measure(getattr(obj, name), policy)
            for name in obj.__slots__
            if hasattr(obj, name)
        )
    return policy.word_bits


class Phase(IntEnum):
    SAMPLE = 1
    SELECT = 2


class Pair(NamedTuple):
    first: Any
    second: Any


class TaggedTuple(tuple):
    pass


class TaggedList(list):
    pass


class TaggedStr(str):
    pass


ints = st.integers(-(2**62), 2**62)
floats = st.floats(allow_nan=False)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    ints,
    ints.map(np.int64),
    floats,
    floats.map(np.float64),
    st.text(max_size=6),
    st.text(max_size=6).map(TaggedStr),
    st.binary(max_size=6),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.sampled_from(list(Phase)),
    st.builds(Keyed, floats, st.integers(1, 2**40)),
    st.integers(0, 5).map(lambda n: np.arange(n, dtype=np.int64)),
    st.integers(0, 5).map(lambda n: np.zeros(n, dtype=bool)),
    st.integers(0, 5).map(lambda n: np.ones((n, 2))),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(TaggedTuple),
        st.lists(children, max_size=4).map(TaggedList),
        st.builds(Pair, children, children),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
        st.builds(Envelope, st.integers(0, 99), st.integers(0, 2**32 - 1), children),
    )


payloads = st.recursive(leaves, containers, max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(payload=payloads, word_bits=st.sampled_from([64, 32]))
def test_fast_path_matches_the_general_chain(payload, word_bits):
    policy = DEFAULT_POLICY if word_bits == 64 else SizingPolicy(word_bits=word_bits)
    assert policy.measure(payload) == reference_measure(payload, policy)
