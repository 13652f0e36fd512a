"""The priority queue of location-perturbation pairs.

The sketch needs four operations on the queue ``L``:

- ``pop``: take the front pair;
- ``remove``: delete an arbitrary pair (eager front-checking);
- ``push_back``: move a pair that is already queued to the back;
- ``first_at_location``: the *next* pair in queue order at a given
  location (the "closest pair with respect to the perturbation").

The queue holds pair *indices* (:mod:`repro.core.pairs`).  Its state is
a flat list of insertion stamps, one per index, ``-1`` meaning "not
queued", and a lazy-deletion binary heap of single ints
``stamp * n + index`` (``n`` bounds every index), so heap order is stamp
order.  ``pop`` and ``push_back`` are O(log n), ``remove`` is O(1), and
``first_at_location`` scans the location's eight stamps.  A copy is two
list copies.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from repro.core.pairs import location_pairs


class PairQueue:
    """An ordered set of pair indices with reordering support."""

    def __init__(self, order: Sequence[int]):
        # every location of the largest index has a stamp, so a location
        # scan never leaves the list
        size = location_pairs(max(order)).stop if order else 0
        stamps = [-1] * size
        for stamp, index in enumerate(order):
            if index < 0:
                raise ValueError(f"negative pair index {index}")
            if stamps[index] >= 0:
                raise ValueError(f"duplicate pair {index}")
            stamps[index] = stamp
        self._size = size
        self._stamps = stamps
        # stamps ascend along ``order``, so the list is already a heap
        self._heap = [stamp * size + index for stamp, index in enumerate(order)]
        self._counter = len(order)
        self._len = len(order)

    def copy(self) -> "PairQueue":
        """An independent queue in the same state, without re-sorting.

        Pops, reorderings and removals on either queue never affect the
        other.
        """
        clone = PairQueue.__new__(PairQueue)
        clone._size = self._size
        clone._stamps = self._stamps.copy()
        clone._heap = self._heap.copy()
        clone._counter = self._counter
        clone._len = self._len
        return clone

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self._size and self._stamps[index] >= 0

    def __bool__(self) -> bool:
        return self._len > 0

    def first_at_location(self, index: int) -> Optional[int]:
        """The earliest-queued pair at ``index``'s location, or ``None``.

        This realizes the paper's "closest pair with respect to the
        perturbation": the next pair in ``L`` whose location is ``l``.
        ``index`` itself need not be queued.
        """
        if not 0 <= index < self._size:
            return None
        stamps = self._stamps
        best = None
        best_stamp = self._counter
        for other in location_pairs(index):
            stamp = stamps[other]
            if 0 <= stamp < best_stamp:
                best, best_stamp = other, stamp
        return best

    def to_list(self) -> List[int]:
        """All queued pairs in queue order (O(n log n); for inspection)."""
        return [
            index
            for _, index in sorted(
                (stamp, index)
                for index, stamp in enumerate(self._stamps)
                if stamp >= 0
            )
        ]

    def peek(self, count: int) -> List[int]:
        """The next ``count`` pairs in pop order, without removing them.

        Batched stepping uses this to speculate on upcoming queue
        entries.  Works on a copy of the heap with the same lazy-deletion
        filter as :meth:`pop`, so stale entries are skipped but remain
        in the real heap.
        """
        heap = self._heap.copy()
        stamps, size = self._stamps, self._size
        front: List[int] = []
        while heap and len(front) < count:
            stamp, index = divmod(heapq.heappop(heap), size)
            if stamps[index] == stamp:
                front.append(index)
        return front

    # -- mutations ---------------------------------------------------------------

    def pop(self) -> int:
        """Remove and return the front pair."""
        heap, stamps, size = self._heap, self._stamps, self._size
        while heap:
            stamp, index = divmod(heapq.heappop(heap), size)
            if stamps[index] == stamp:
                stamps[index] = -1
                self._len -= 1
                return index
        raise IndexError("pop from empty PairQueue")

    def remove(self, index: int) -> None:
        """Delete pair ``index`` from the queue (it must be present)."""
        if index not in self:
            raise KeyError(f"pair {index} not in queue")
        self._stamps[index] = -1
        self._len -= 1

    def push_back(self, index: int) -> None:
        """Move the already-queued pair ``index`` to the back of the queue."""
        if index not in self:
            raise KeyError(f"pair {index} not in queue")
        self._stamps[index] = self._counter
        heapq.heappush(self._heap, self._counter * self._size + index)
        self._counter += 1
