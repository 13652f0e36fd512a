"""The priority queue of location-perturbation pairs.

The sketch needs four operations on the queue ``L``:

- ``pop``: take the front pair;
- ``remove``: delete an arbitrary pair (eager front-checking);
- ``push_back``: move a pair that is already queued to the back;
- ``first_at_location``: the *next* pair in queue order at a given
  location (the "closest pair with respect to the perturbation").

The implementation is a lazy-deletion binary heap over monotonically
increasing insertion stamps: ``pop`` and ``push_back`` are O(log n),
``remove`` is O(1), and ``first_at_location`` is O(8) because at most
eight pairs share a location.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.pairs import Pair


class PairQueue:
    """An ordered multiset of :class:`Pair` with reordering support."""

    def __init__(self, ordered_pairs: Iterable[Pair]):
        self._stamp: Dict[Pair, int] = {}
        self._heap: List[Tuple[int, Pair]] = []
        self._by_location: Dict[Tuple[int, int], Set[int]] = {}
        counter = 0
        for pair in ordered_pairs:
            if pair in self._stamp:
                raise ValueError(f"duplicate pair {pair}")
            self._stamp[pair] = counter
            self._heap.append((counter, pair))
            self._by_location.setdefault(pair.location, set()).add(pair.corner)
            counter += 1
        self._counter = counter
        # the input is already sorted by construction, so the list is a heap

    def copy(self) -> "PairQueue":
        """An independent queue in the same state, without re-sorting.

        Pops, reorderings and removals on either queue never affect the
        other; the immutable :class:`Pair` objects are shared.
        """
        clone = PairQueue.__new__(PairQueue)
        clone._stamp = dict(self._stamp)
        clone._heap = list(self._heap)
        clone._by_location = {
            location: set(corners)
            for location, corners in self._by_location.items()
        }
        clone._counter = self._counter
        return clone

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._stamp)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._stamp

    def __bool__(self) -> bool:
        return bool(self._stamp)

    def corners_at(self, location: Tuple[int, int]) -> Set[int]:
        """Corner indices still queued at ``location`` (a copy)."""
        return set(self._by_location.get(location, ()))

    def first_at_location(self, location: Tuple[int, int]) -> Optional[Pair]:
        """The earliest-queued pair at ``location``, or ``None``.

        This realizes the paper's "closest pair with respect to the
        perturbation": the next pair in ``L`` whose location is ``l``.
        """
        corners = self._by_location.get(location)
        if not corners:
            return None
        best_pair = None
        best_stamp = None
        for corner in corners:
            pair = Pair(location[0], location[1], corner)
            stamp = self._stamp[pair]
            if best_stamp is None or stamp < best_stamp:
                best_stamp = stamp
                best_pair = pair
        return best_pair

    def to_list(self) -> List[Pair]:
        """All queued pairs in queue order (O(n log n); for inspection)."""
        return [pair for _, pair in sorted((self._stamp[p], p) for p in self._stamp)]

    def peek(self, count: int) -> List[Pair]:
        """The next ``count`` pairs in pop order, without removing them.

        Batched stepping uses this to speculate on upcoming queue
        entries.  Works on a copy of the heap with the same lazy-deletion
        filter as :meth:`pop`, so stale entries are skipped but remain
        in the real heap.
        """
        heap = list(self._heap)
        front: List[Pair] = []
        while heap and len(front) < count:
            stamp, pair = heapq.heappop(heap)
            if self._stamp.get(pair) == stamp:
                front.append(pair)
        return front

    # -- mutations ---------------------------------------------------------------

    def pop(self) -> Pair:
        """Remove and return the front pair."""
        while self._heap:
            stamp, pair = heapq.heappop(self._heap)
            if self._stamp.get(pair) == stamp:
                self._forget(pair)
                return pair
        raise IndexError("pop from empty PairQueue")

    def remove(self, pair: Pair) -> None:
        """Delete ``pair`` from the queue (it must be present)."""
        if pair not in self._stamp:
            raise KeyError(f"{pair} not in queue")
        self._forget(pair)

    def push_back(self, pair: Pair) -> None:
        """Move an already-queued ``pair`` to the back of the queue."""
        if pair not in self._stamp:
            raise KeyError(f"{pair} not in queue")
        self._stamp[pair] = self._counter
        heapq.heappush(self._heap, (self._counter, pair))
        self._counter += 1

    def _forget(self, pair: Pair) -> None:
        del self._stamp[pair]
        corners = self._by_location[pair.location]
        corners.discard(pair.corner)
        if not corners:
            del self._by_location[pair.location]
