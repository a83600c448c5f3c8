"""Host-speed probe: a fixed slice of work that never changes.

The benchmark shares its host with other tenants, and the host's speed
drifts in regimes that last a minute or more: every call, the fastest
ones too, then takes up to about 1.8x longer.  No statistic within a
run can see past a regime that spans the whole run, so host times are
rescaled by how fast this probe runs just before each replay::

    scaled seconds = host seconds * REFERENCE_S / probe seconds

The probe is the benchmark's own code, a mix of interpreter work and
small numpy calls like the library's, and it does not import the
library: a change to the library moves the scaled times, a change of
host speed moves the probe too, though only in part: the library's
calls slow down somewhat more than the probe does (``RESULTS.md``).
Scaled times read as seconds on a host whose probe takes
:data:`REFERENCE_S`.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: the probe's fastest time on the host ``RESULTS.md`` was measured on
#: (2 vCPUs of a 2.1 GHz Xeon), in seconds
REFERENCE_S = 0.0055

_POINTS = np.linspace(0.0, 1.0, 4000).reshape(1000, 4)[::-1].copy()


class _Box:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _step(box: _Box, table: dict, i: int) -> int:
    table[i & 255] = box.a + i
    return box.b + table.get((i * 7) & 255, 0)


def probe_once() -> float:
    """Host seconds of one pass of the fixed work."""
    start = perf_counter()
    box, table, acc, out = _Box(1, 2), {}, 0, []
    for i in range(3000):
        acc += _step(box, table, i)
        out.append((i, acc))
    query = _POINTS[0]
    for i in range(150):
        gaps = ((_POINTS - query) ** 2).sum(axis=1)
        near = np.argpartition(gaps, 8)[:8]
        query = _POINTS[near[i % 8]]
        np.concatenate([near, near]).sort()
    return perf_counter() - start


def host_scale(passes: int = 5) -> float:
    """``REFERENCE_S`` over the fastest of ``passes`` probe passes."""
    return REFERENCE_S / min(probe_once() for _ in range(passes))
