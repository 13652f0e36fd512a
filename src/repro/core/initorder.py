"""The initial ordering of the pair queue (Appendix A).

The queue starts with all ``8 * d1 * d2`` pairs, sorted by:

1. *primary*: the per-location rank of the corner by descending L1
   distance from the image's original pixel there -- the first
   ``d1 * d2`` pairs carry each location's farthest corner, the next
   ``d1 * d2`` the second farthest, and so on;
2. *secondary*: ascending Linf distance of the location from the image
   center (center-out);
3. deterministic tie-breaks: row-major location order, then corner index
   -- that is, pair index order (:mod:`repro.core.pairs`).

:func:`initial_indices` sorts once, into pair indices; the sketch's
queue (:func:`initial_queue`) and the :class:`~repro.core.pairs.Pair`
list of :func:`initial_order` are both views of that one sort.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.geometry import NUM_CORNERS, center_distances
from repro.core.pairqueue import PairQueue
from repro.core.pairs import Pair, pair_at


def initial_indices(image: np.ndarray) -> List[int]:
    """The sketch's initial queue contents for ``image`` (H, W, 3), as
    pair indices."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"image must be (H, W, 3), got {image.shape}")
    center_dist = center_distances(image.shape[:2])

    # (d1, d2, 8) L1 distances from each original pixel to each corner,
    # then per-location descending rank of each corner.
    corners = np.array(
        [[(k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1] for k in range(NUM_CORNERS)],
        dtype=np.float64,
    )
    distances = np.abs(image[:, :, None, :] - corners[None, None, :, :]).sum(axis=3)
    order_by_distance = np.argsort(-distances, axis=2, kind="stable")
    rank = np.empty_like(order_by_distance)
    ranks_range = np.arange(NUM_CORNERS)
    np.put_along_axis(rank, order_by_distance, ranks_range[None, None, :], axis=2)

    # sort keys: (rank, center distance, pair index); the flattened
    # (d1, d2, 8) arrays are in pair index order
    rank_flat = rank.reshape(-1)
    center3 = np.repeat(center_dist.reshape(-1), NUM_CORNERS)
    index = np.arange(rank_flat.size)
    return np.lexsort((index, center3, rank_flat)).tolist()


def initial_queue(image: np.ndarray) -> PairQueue:
    """A :class:`~repro.core.pairqueue.PairQueue` of
    :func:`initial_indices`: the sketch's queue before its first pop."""
    return PairQueue(initial_indices(image))


def initial_order(image: np.ndarray) -> List[Pair]:
    """The sketch's initial queue contents for ``image``, as
    :class:`~repro.core.pairs.Pair` objects (for inspection)."""
    shape = image.shape[:2]
    return [pair_at(index, shape) for index in initial_indices(image)]
