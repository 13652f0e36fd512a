"""Tests for the initial queue ordering (Appendix A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.geometry import center_distance, corner_ranking
from repro.core.initorder import initial_indices, initial_order, initial_queue
from repro.core.pairs import pair_at


def rank_of(pair, image):
    """The descending-distance rank of the pair's corner at its location."""
    ranking = corner_ranking(image[pair.row, pair.col])
    return int(np.where(ranking == pair.corner)[0][0])


class TestInitialOrder:
    def test_complete_and_unique(self):
        image = np.random.default_rng(0).uniform(size=(4, 5, 3))
        order = initial_order(image)
        assert len(order) == 8 * 4 * 5
        assert len(set(order)) == len(order)

    def test_pairs_and_queue_are_views_of_the_indices(self):
        image = np.random.default_rng(4).uniform(size=(3, 5, 3))
        indices = initial_indices(image)
        assert initial_order(image) == [pair_at(index, (3, 5)) for index in indices]
        queue = initial_queue(image)
        assert [queue.pop() for _ in indices] == indices

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            initial_order(np.zeros((4, 4)))

    def test_primary_key_is_corner_rank(self):
        image = np.random.default_rng(1).uniform(size=(3, 3, 3))
        order = initial_order(image)
        ranks = [rank_of(pair, image) for pair in order]
        assert ranks == sorted(ranks)
        # each rank block contains exactly d1*d2 pairs
        for rank in range(8):
            assert ranks.count(rank) == 9

    def test_secondary_key_is_center_distance(self):
        image = np.random.default_rng(2).uniform(size=(5, 5, 3))
        order = initial_order(image)
        shape = (5, 5)
        for block_start in range(0, len(order), 25):
            block = order[block_start : block_start + 25]
            distances = [center_distance(pair.location, shape) for pair in block]
            assert distances == sorted(distances)

    def test_first_pair_is_farthest_corner_at_center(self):
        # on an odd grid the exact center comes first, with its farthest corner
        image = np.zeros((3, 3, 3))  # black image: farthest corner is white (7)
        order = initial_order(image)
        first = order[0]
        assert first.location == (1, 1)
        assert first.corner == 7

    def test_each_location_appears_once_per_block(self):
        image = np.random.default_rng(3).uniform(size=(4, 4, 3))
        order = initial_order(image)
        for block_start in range(0, len(order), 16):
            block = order[block_start : block_start + 16]
            locations = [pair.location for pair in block]
            assert len(set(locations)) == 16

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            np.float64,
            (3, 4, 3),
            elements=st.floats(0, 1, allow_nan=False),
        )
    )
    def test_property_primary_then_secondary(self, image):
        order = initial_order(image)
        keys = [
            (rank_of(pair, image), center_distance(pair.location, (3, 4)))
            for pair in order
        ]
        assert keys == sorted(keys)
