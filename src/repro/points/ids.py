"""Random unique point identifiers and tie-breaking keys.

Section 2 of the paper handles two practical issues with one trick:

* high-dimensional points are never shipped over the network — only a
  compact *ID* plus the scalar distance to the query travels; and
* non-distinct points (equal distances) are disambiguated by breaking
  ties on IDs.

IDs are drawn uniformly from ``[1, n^3]``, which makes all ``n`` IDs
distinct with probability at least ``1 - 1/n`` (birthday bound).  This
module draws the IDs, verifies uniqueness (re-drawing on the rare
collision, so the library is Las Vegas where the paper is content with
w.h.p.), and defines the lexicographic ``(value, id)`` key used by
every comparison in the selection protocols.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable

import numpy as np

__all__ = [
    "draw_unique_ids",
    "id_space",
    "Keyed",
    "KeyIndex",
    "key_order",
    "keyed_array",
    "MINUS_INF_KEY",
    "PLUS_INF_KEY",
]


def id_space(n_total: int) -> int:
    """Upper bound (inclusive) of the ID space for ``n_total`` points.

    The paper uses ``n^3``; we floor it at 2^20 (tiny test inputs still
    get a comfortable collision probability) and cap it at 2^62 so IDs
    stay valid ``int64`` — for n beyond 2^20 the collision probability
    at the cap is still below n²/2^62 ≤ 2^-22.
    """
    return min(max(int(n_total) ** 3, 1 << 20), 1 << 62)


def draw_unique_ids(
    rng: np.random.Generator, count: int, n_total: int | None = None, max_redraws: int = 64
) -> np.ndarray:
    """Draw ``count`` distinct random IDs from ``[1, id_space(n_total)]``.

    Parameters
    ----------
    rng:
        Source of randomness (a machine's private stream, or an
        experiment-level stream when IDs are assigned centrally).
    count:
        Number of IDs required.
    n_total:
        Global number of points (defaults to ``count``); sets the ID
        space so the w.h.p. guarantee is relative to the *global* n,
        matching the paper even when each machine draws only its own.
    max_redraws:
        Collision retries before falling back to offset-distinct IDs.

    Returns
    -------
    ``int64`` array of ``count`` distinct IDs.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    hi = id_space(n_total if n_total is not None else count)
    for _ in range(max_redraws):
        ids = rng.integers(1, hi + 1, size=count, dtype=np.int64)
        if _all_distinct(ids):
            return ids
    # Astronomically unlikely; construct distinct IDs deterministically.
    base = rng.integers(1, hi - count, dtype=np.int64)
    return base + np.arange(count, dtype=np.int64)


def _all_distinct(ids: np.ndarray) -> bool:
    """Whether ``ids`` holds no repeated value.

    Sorts and compares neighbours; for large int64 arrays this is far
    cheaper than the hash-based ``np.unique``.
    """
    ordered = np.sort(ids)
    return not bool(np.any(ordered[1:] == ordered[:-1]))


class Keyed:
    """A comparison key ``(value, id)`` with lexicographic order.

    This is *the* element type of the selection protocols: all points
    are reduced to a distance ``value`` plus a unique ``id``, and every
    comparison (pivot ordering, range counting, min/max) happens on
    the pair, so duplicate distances never produce ambiguous answers.

    Implemented as a lightweight immutable pair rather than a tuple so
    message sizing charges exactly two words and reprs stay readable.
    """

    __slots__ = ("value", "id")

    def __init__(self, value: float, id: int) -> None:
        self.value = float(value)
        self.id = int(id)

    def as_tuple(self) -> tuple[float, int]:
        """The underlying ``(value, id)`` pair."""
        return (self.value, self.id)

    def __lt__(self, other: "Keyed") -> bool:
        return (self.value, self.id) < (other.value, other.id)

    def __le__(self, other: "Keyed") -> bool:
        return (self.value, self.id) <= (other.value, other.id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Keyed) and self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"Keyed({self.value!r}, id={self.id})"


#: Sentinels bounding every legal key (ids are >= 1, values finite).
MINUS_INF_KEY = Keyed(-np.inf, 0)
PLUS_INF_KEY = Keyed(np.inf, np.iinfo(np.int64).max)


def key_order(keys: np.ndarray) -> np.ndarray:
    """Indices that sort a ``(value, id)`` table lexicographically.

    ``np.lexsort`` on the two columns is several times faster than
    sorting the structured array by its fields, and yields the same
    order whenever ids are unique within the table, which every
    protocol table guarantees.
    """
    return np.lexsort((keys["id"], keys["value"]))


def keyed_array(values: Iterable[float], ids: Iterable[int]) -> np.ndarray:
    """Build a structured array of ``(value, id)`` rows sorted lexicographically.

    The protocols keep per-machine candidate sets in this layout and
    answer rank queries on it through a :class:`KeyIndex`.
    Fields: ``value`` (f8), ``id`` (i8); rows in :func:`key_order`.
    """
    vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                      dtype=np.float64)
    idarr = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids,
                       dtype=np.int64)
    if vals.shape != idarr.shape:
        raise ValueError(f"values shape {vals.shape} != ids shape {idarr.shape}")
    out = np.empty(vals.shape[0], dtype=[("value", "f8"), ("id", "i8")])
    out["value"] = vals
    out["id"] = idarr
    return out[key_order(out)]


class KeyIndex:
    """Rank queries over one machine's sorted keys.

    Built once per protocol run from a structured ``(value, id)`` array
    already in :func:`key_order`.  The protocols ask O(log n) questions
    of a handful of keys each, so every query is a ``bisect`` over a
    Python list of the values — a NumPy call on a small array costs more
    in dispatch than the search itself.  Ids are consulted only inside a
    block of equal values.
    """

    __slots__ = ("array", "values", "ids")

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.values: list[float] = array["value"].tolist()
        self.ids: np.ndarray = array["id"]

    def __len__(self) -> int:
        return len(self.values)

    def at(self, i: int) -> Keyed:
        """The key in row ``i``."""
        return Keyed(self.values[i], int(self.ids[i]))

    def rank(self, bound: Keyed) -> int:
        """|{x : x <= bound}|."""
        values = self.values
        value = bound.value
        r = bisect_right(values, value)
        if r and values[r - 1] == value:
            left = bisect_left(values, value, 0, r)
            return left + int(np.searchsorted(self.ids[left:r], bound.id, side="right"))
        return r

    def count(self, lo: Keyed, hi: Keyed) -> int:
        """|{x : lo < x <= hi}|."""
        return self.rank(hi) - self.rank(lo)

    def prefix(self, bound: Keyed) -> np.ndarray:
        """The rows ``<= bound``, as a view of the array."""
        return self.array[: self.rank(bound)]

    def extremes(self) -> tuple[int, Keyed, Keyed]:
        """Count plus (min, max) keys, with sentinels when empty."""
        n = len(self.values)
        if n == 0:
            return 0, PLUS_INF_KEY, MINUS_INF_KEY
        return n, self.at(0), self.at(n - 1)

    def uniform(self, lo: Keyed, hi: Keyed, rng: np.random.Generator) -> Keyed:
        """A uniform random key strictly above ``lo`` and at most ``hi``.

        Draws exactly one ``rng.integers(0, count)``; raises
        ``ValueError`` when the range holds no key.
        """
        start = self.rank(lo)
        stop = self.rank(hi)
        if stop <= start:
            raise ValueError("no points in range; leader accounting is wrong")
        return self.at(start + int(rng.integers(0, stop - start)))
