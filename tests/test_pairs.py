"""Tests for location-perturbation pairs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.geometry import RGB_CORNERS, location_distance
from repro.core.pairs import (
    Pair,
    all_pairs,
    index_of,
    location_neighbors,
    location_pairs,
    pair_at,
    pair_count,
    perturb,
)


class TestPair:
    def test_perturbation_matches_corner(self):
        pair = Pair(1, 2, 5)
        assert np.array_equal(pair.perturbation, RGB_CORNERS[5])

    def test_location_property(self):
        assert Pair(3, 4, 0).location == (3, 4)

    def test_rejects_bad_corner(self):
        with pytest.raises(ValueError):
            Pair(0, 0, 8)
        with pytest.raises(ValueError):
            Pair(0, 0, -1)

    def test_rejects_negative_location(self):
        with pytest.raises(ValueError):
            Pair(-1, 0, 0)

    def test_hashable_and_equal(self):
        assert Pair(1, 2, 3) == Pair(1, 2, 3)
        assert len({Pair(1, 2, 3), Pair(1, 2, 3), Pair(1, 2, 4)}) == 2

    def test_apply_writes_one_pixel(self):
        image = np.full((4, 4, 3), 0.5)
        pair = Pair(2, 1, 7)
        perturbed = pair.apply(image)
        assert np.array_equal(perturbed[2, 1], np.ones(3))
        # everything else untouched, original unmodified
        mask = np.ones((4, 4), dtype=bool)
        mask[2, 1] = False
        assert np.array_equal(perturbed[mask], image[mask])
        assert np.array_equal(image[2, 1], np.full(3, 0.5))

    def test_apply_out_of_bounds(self):
        image = np.zeros((3, 3, 3))
        with pytest.raises(ValueError):
            Pair(3, 0, 0).apply(image)


class TestAllPairs:
    def test_count(self):
        pairs = list(all_pairs((3, 5)))
        assert len(pairs) == 8 * 3 * 5
        assert len(set(pairs)) == len(pairs)

    def test_covers_every_location_and_corner(self):
        pairs = set(all_pairs((2, 2)))
        for row in range(2):
            for col in range(2):
                for corner in range(8):
                    assert Pair(row, col, corner) in pairs


class TestLocationNeighbors:
    def test_interior_has_eight(self):
        neighbors = location_neighbors(Pair(2, 2, 3), (5, 5))
        assert len(neighbors) == 8
        for neighbor in neighbors:
            assert location_distance(neighbor.location, (2, 2)) == 1
            assert neighbor.corner == 3

    def test_corner_has_three(self):
        neighbors = location_neighbors(Pair(0, 0, 1), (5, 5))
        assert len(neighbors) == 3
        assert {n.location for n in neighbors} == {(0, 1), (1, 0), (1, 1)}

    def test_edge_has_five(self):
        neighbors = location_neighbors(Pair(0, 2, 0), (5, 5))
        assert len(neighbors) == 5

    @given(
        st.integers(2, 10),
        st.integers(2, 10),
        st.data(),
    )
    def test_neighbors_within_image_same_corner(self, d1, d2, data):
        row = data.draw(st.integers(0, d1 - 1))
        col = data.draw(st.integers(0, d2 - 1))
        corner = data.draw(st.integers(0, 7))
        pair = Pair(row, col, corner)
        neighbors = location_neighbors(pair, (d1, d2))
        assert neighbors, "every pixel has at least one neighbor on a 2x2+ grid"
        for neighbor in neighbors:
            assert 0 <= neighbor.row < d1
            assert 0 <= neighbor.col < d2
            assert neighbor.corner == corner
            assert location_distance(neighbor.location, pair.location) == 1
        assert pair not in neighbors


class TestIndexEncoding:
    @given(st.integers(1, 7), st.integers(1, 7))
    def test_index_order_is_row_major_then_corner(self, d1, d2):
        shape = (d1, d2)
        pairs = [pair_at(index, shape) for index in range(pair_count(shape))]
        assert pairs == sorted(pairs) == list(all_pairs(shape))
        assert [index_of(pair, shape) for pair in pairs] == list(range(len(pairs)))

    def test_index_of_rejects_pairs_outside_the_image(self):
        with pytest.raises(ValueError):
            index_of(Pair(0, 3, 0), (4, 3))

    def test_location_pairs_share_the_location(self):
        shape = (3, 5)
        for index in range(pair_count(shape)):
            same = [pair_at(other, shape) for other in location_pairs(index)]
            assert [pair.corner for pair in same] == list(range(8))
            assert {pair.location for pair in same} == {pair_at(index, shape).location}

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_perturb_is_apply(self, d1, d2, data):
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        image = np.random.default_rng(d1 * 7 + d2).random((d1, d2, 3)).astype(dtype)
        if data.draw(st.booleans(), label="non-contiguous image"):
            image = image[:, ::-1]
        index = data.draw(st.integers(0, pair_count((d1, d2)) - 1))
        perturbed = perturb(image, index)
        expected = pair_at(index, (d1, d2)).apply(image)
        assert perturbed.dtype == expected.dtype
        assert perturbed.tobytes() == expected.tobytes()
