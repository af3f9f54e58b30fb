"""Instrumented counting of activation floats allocated by attention operators.

Memory contracts in this package are stated over *counted* floats, not OS
process measurements. Every array an autodiff node allocates is registered
with the active counters (views into a parent's array are not), and the
standalone numpy baselines register their intermediates with :func:`track`;
a baseline registers each logical activation, even when it computes several
of them into one reused buffer. The reported number is the cumulative total
of floats registered during one forward pass: the footprint of retaining
every activation, not the resident peak at any instant. This makes the
measurement deterministic and independent of allocator behavior, while
still exposing the quadratic explicit-score cost of softmax attention versus
the linear cost of the second-moment operators.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

_local = threading.local()


def _stack() -> list["AllocationCounter"]:
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


class AllocationCounter:
    """Accumulates the number of floats registered while it is active."""

    def __init__(self) -> None:
        self.total_floats = 0
        self.arrays = 0

    def add(self, count: int) -> None:
        self.total_floats += int(count)
        self.arrays += 1

    @property
    def peak_floats(self) -> int:
        """Cumulative count of floats registered in the region, not a resident peak.

        Arrays freed during the region stay counted, so this bounds the
        resident peak from above; the name is kept for the CSV column.
        """
        return self.total_floats


@contextmanager
def count_floats() -> Iterator[AllocationCounter]:
    """Activate a counter for the duration of the block."""
    counter = AllocationCounter()
    _stack().append(counter)
    try:
        yield counter
    finally:
        _stack().remove(counter)


def counting() -> bool:
    """Whether any counter is active on this thread."""
    return bool(_stack())


def track(arr: np.ndarray) -> np.ndarray:
    """Register an allocated array with every active counter and return it."""
    stack = _stack()
    if stack:
        size = arr.size
        for counter in stack:
            counter.add(size)
    return arr
