"""Tests for the priority pair queue, including a property-based model check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.initorder import initial_indices
from repro.core.pairqueue import PairQueue
from repro.core.pairs import Pair, index_of, pair_at, pair_count

SHAPE = (4, 4)


def ix(row, col, corner):
    """The index of a pair of a ``SHAPE`` image."""
    return index_of(Pair(row, col, corner), SHAPE)


def small_queue():
    return PairQueue([ix(0, 0, 0), ix(0, 1, 0), ix(1, 0, 2), ix(0, 0, 5), ix(1, 1, 7)])


class TestBasics:
    def test_pop_order_is_insertion_order(self):
        queue = small_queue()
        popped = [queue.pop() for _ in range(5)]
        assert popped == [
            ix(0, 0, 0),
            ix(0, 1, 0),
            ix(1, 0, 2),
            ix(0, 0, 5),
            ix(1, 1, 7),
        ]

    def test_len_and_contains(self):
        queue = small_queue()
        assert len(queue) == 5
        assert ix(1, 0, 2) in queue
        assert ix(3, 3, 0) not in queue
        assert ix(0, 0, 1) not in queue
        assert -1 not in queue
        queue.pop()
        assert len(queue) == 4
        assert ix(0, 0, 0) not in queue

    def test_pop_empty_raises(self):
        queue = PairQueue([])
        assert not queue
        with pytest.raises(IndexError):
            queue.pop()

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            PairQueue([ix(0, 0, 0), ix(0, 0, 0)])


class TestRemove:
    def test_remove_middle(self):
        queue = small_queue()
        queue.remove(ix(1, 0, 2))
        assert ix(1, 0, 2) not in queue
        popped = [queue.pop() for _ in range(4)]
        assert ix(1, 0, 2) not in popped

    def test_remove_absent_raises(self):
        queue = small_queue()
        for absent in (ix(3, 3, 4), ix(0, 0, 1), -1):
            with pytest.raises(KeyError):
                queue.remove(absent)
        assert len(queue) == 5

    def test_remove_then_pop_skips_lazily_deleted(self):
        queue = small_queue()
        queue.remove(ix(0, 0, 0))  # the front element
        assert queue.pop() == ix(0, 1, 0)


class TestPushBack:
    def test_push_back_moves_to_end(self):
        queue = small_queue()
        queue.push_back(ix(0, 0, 0))
        popped = [queue.pop() for _ in range(5)]
        assert popped[-1] == ix(0, 0, 0)
        assert popped[0] == ix(0, 1, 0)

    def test_push_back_twice_keeps_single_copy(self):
        queue = small_queue()
        queue.push_back(ix(0, 1, 0))
        queue.push_back(ix(0, 1, 0))
        assert len(queue) == 5
        popped = [queue.pop() for _ in range(5)]
        assert popped.count(ix(0, 1, 0)) == 1
        assert popped[-1] == ix(0, 1, 0)

    def test_push_back_absent_raises(self):
        queue = small_queue()
        with pytest.raises(KeyError):
            queue.push_back(ix(3, 3, 4))

    def test_relative_order_of_two_push_backs(self):
        queue = small_queue()
        queue.push_back(ix(1, 0, 2))
        queue.push_back(ix(0, 0, 0))
        popped = [queue.pop() for _ in range(5)]
        assert popped[-2:] == [ix(1, 0, 2), ix(0, 0, 0)]


class TestFirstAtLocation:
    def test_returns_earliest_at_location(self):
        queue = small_queue()
        # any pair at the location names it, queued or not
        assert queue.first_at_location(ix(0, 0, 0)) == ix(0, 0, 0)
        assert queue.first_at_location(ix(0, 0, 3)) == ix(0, 0, 0)

    def test_respects_push_back(self):
        queue = small_queue()
        queue.push_back(ix(0, 0, 0))
        assert queue.first_at_location(ix(0, 0, 0)) == ix(0, 0, 5)

    def test_empty_location(self):
        queue = small_queue()
        assert queue.first_at_location(ix(3, 3, 0)) is None
        queue.remove(ix(1, 1, 7))
        assert queue.first_at_location(ix(1, 1, 7)) is None


class TestCopy:
    def test_copy_is_independent(self):
        queue = small_queue()
        queue.push_back(ix(0, 0, 0))
        before = queue.to_list()
        clone = queue.copy()
        assert clone.to_list() == before
        clone.pop()
        clone.remove(ix(1, 1, 7))
        clone.push_back(ix(1, 0, 2))
        assert clone.to_list() == [ix(0, 0, 5), ix(0, 0, 0), ix(1, 0, 2)]
        assert queue.to_list() == before
        assert queue.first_at_location(ix(1, 1, 0)) == ix(1, 1, 7)
        assert [queue.pop() for _ in range(len(before))] == before

    def test_copies_pop_like_fresh_queues(self):
        indices = list(range(pair_count((3, 3))))
        template = PairQueue(indices)
        for _ in range(2):
            clone = template.copy()
            assert [clone.pop() for _ in range(len(indices))] == indices
        assert len(template) == len(indices)


class TestModelCheck:
    """Compare the heap implementation against a naive list model."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_against_list_model(self, data):
        d1 = data.draw(st.integers(1, 4), label="d1")
        d2 = data.draw(st.integers(1, 4).filter(lambda d: d != d1), label="d2")
        shape = (d1, d2)
        seed = data.draw(st.integers(0, 2**16), label="image seed")
        image = np.random.default_rng(seed).random((d1, d2, 3))
        order = initial_indices(image)
        # each run is a queue and the list model it must track; a copy
        # starts a second run from the state it was copied in
        runs = [(PairQueue(order), list(order))]
        for _ in range(data.draw(st.integers(0, 80))):
            queue, model = runs[data.draw(st.integers(0, len(runs) - 1))]
            op = data.draw(st.sampled_from(
                ["pop", "remove", "push_back", "first", "peek", "copy"]
            ))
            if op == "copy":
                runs.append((queue.copy(), list(model)))
            elif op == "peek":
                count = data.draw(st.integers(0, len(order) + 2))
                assert queue.peek(count) == model[:count]
            elif op == "first":
                index = data.draw(st.integers(0, pair_count(shape) - 1))
                location = pair_at(index, shape).location
                expected = next(
                    (
                        queued
                        for queued in model
                        if pair_at(queued, shape).location == location
                    ),
                    None,
                )
                assert queue.first_at_location(index) == expected
            elif not model:
                continue
            elif op == "pop":
                assert queue.pop() == model.pop(0)
            elif op == "remove":
                victim = data.draw(st.sampled_from(model))
                queue.remove(victim)
                model.remove(victim)
            else:
                chosen = data.draw(st.sampled_from(model))
                queue.push_back(chosen)
                model.remove(chosen)
                model.append(chosen)
            assert len(queue) == len(model)
        for queue, model in runs:
            assert queue.to_list() == model
            assert [queue.pop() for _ in range(len(model))] == model
            assert not queue
