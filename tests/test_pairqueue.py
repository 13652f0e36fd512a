"""Tests for the priority pair queue, including a property-based model check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairqueue import PairQueue
from repro.core.pairs import Pair, all_pairs


def small_queue():
    return PairQueue(
        [Pair(0, 0, 0), Pair(0, 1, 0), Pair(1, 0, 2), Pair(0, 0, 5), Pair(1, 1, 7)]
    )


class TestBasics:
    def test_pop_order_is_insertion_order(self):
        queue = small_queue()
        popped = [queue.pop() for _ in range(5)]
        assert popped == [
            Pair(0, 0, 0),
            Pair(0, 1, 0),
            Pair(1, 0, 2),
            Pair(0, 0, 5),
            Pair(1, 1, 7),
        ]

    def test_len_and_contains(self):
        queue = small_queue()
        assert len(queue) == 5
        assert Pair(1, 0, 2) in queue
        assert Pair(4, 4, 0) not in queue
        queue.pop()
        assert len(queue) == 4
        assert Pair(0, 0, 0) not in queue

    def test_pop_empty_raises(self):
        queue = PairQueue([])
        assert not queue
        with pytest.raises(IndexError):
            queue.pop()

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            PairQueue([Pair(0, 0, 0), Pair(0, 0, 0)])


class TestRemove:
    def test_remove_middle(self):
        queue = small_queue()
        queue.remove(Pair(1, 0, 2))
        assert Pair(1, 0, 2) not in queue
        popped = [queue.pop() for _ in range(4)]
        assert Pair(1, 0, 2) not in popped

    def test_remove_absent_raises(self):
        queue = small_queue()
        with pytest.raises(KeyError):
            queue.remove(Pair(4, 4, 4))

    def test_remove_then_pop_skips_lazily_deleted(self):
        queue = small_queue()
        queue.remove(Pair(0, 0, 0))  # the front element
        assert queue.pop() == Pair(0, 1, 0)


class TestPushBack:
    def test_push_back_moves_to_end(self):
        queue = small_queue()
        queue.push_back(Pair(0, 0, 0))
        popped = [queue.pop() for _ in range(5)]
        assert popped[-1] == Pair(0, 0, 0)
        assert popped[0] == Pair(0, 1, 0)

    def test_push_back_twice_keeps_single_copy(self):
        queue = small_queue()
        queue.push_back(Pair(0, 1, 0))
        queue.push_back(Pair(0, 1, 0))
        assert len(queue) == 5
        popped = [queue.pop() for _ in range(5)]
        assert popped.count(Pair(0, 1, 0)) == 1
        assert popped[-1] == Pair(0, 1, 0)

    def test_push_back_absent_raises(self):
        queue = small_queue()
        with pytest.raises(KeyError):
            queue.push_back(Pair(4, 4, 4))

    def test_relative_order_of_two_push_backs(self):
        queue = small_queue()
        queue.push_back(Pair(1, 0, 2))
        queue.push_back(Pair(0, 0, 0))
        popped = [queue.pop() for _ in range(5)]
        assert popped[-2:] == [Pair(1, 0, 2), Pair(0, 0, 0)]


class TestFirstAtLocation:
    def test_returns_earliest_at_location(self):
        queue = small_queue()
        assert queue.first_at_location((0, 0)) == Pair(0, 0, 0)

    def test_respects_push_back(self):
        queue = small_queue()
        queue.push_back(Pair(0, 0, 0))
        assert queue.first_at_location((0, 0)) == Pair(0, 0, 5)

    def test_empty_location(self):
        queue = small_queue()
        assert queue.first_at_location((3, 3)) is None
        queue.remove(Pair(1, 1, 7))
        assert queue.first_at_location((1, 1)) is None

    def test_corners_at(self):
        queue = small_queue()
        assert queue.corners_at((0, 0)) == {0, 5}
        queue.pop()
        assert queue.corners_at((0, 0)) == {5}


class TestCopy:
    def test_copy_is_independent(self):
        queue = small_queue()
        queue.push_back(Pair(0, 0, 0))
        before = queue.to_list()
        clone = queue.copy()
        assert clone.to_list() == before
        clone.pop()
        clone.remove(Pair(1, 1, 7))
        clone.push_back(Pair(1, 0, 2))
        assert clone.to_list() == [Pair(0, 0, 5), Pair(0, 0, 0), Pair(1, 0, 2)]
        assert queue.to_list() == before
        assert queue.corners_at((1, 1)) == {7}
        assert [queue.pop() for _ in range(len(before))] == before

    def test_copies_pop_like_fresh_queues(self):
        pairs = list(all_pairs((3, 3)))
        template = PairQueue(pairs)
        for _ in range(2):
            clone = template.copy()
            assert [clone.pop() for _ in range(len(pairs))] == pairs
        assert len(template) == len(pairs)


class TestModelCheck:
    """Compare the heap implementation against a naive list model."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_against_list_model(self, data):
        pairs = list(all_pairs((2, 3)))
        queue = PairQueue(pairs)
        model = list(pairs)
        for _ in range(data.draw(st.integers(0, 60))):
            if not model:
                break
            op = data.draw(st.sampled_from(["pop", "remove", "push_back", "first"]))
            if op == "pop":
                assert queue.pop() == model.pop(0)
            elif op == "remove":
                victim = data.draw(st.sampled_from(model))
                queue.remove(victim)
                model.remove(victim)
            elif op == "push_back":
                chosen = data.draw(st.sampled_from(model))
                queue.push_back(chosen)
                model.remove(chosen)
                model.append(chosen)
            else:
                location = data.draw(
                    st.tuples(st.integers(0, 1), st.integers(0, 2))
                )
                expected = next(
                    (pair for pair in model if pair.location == location), None
                )
                assert queue.first_at_location(location) == expected
            assert len(queue) == len(model)
        assert queue.to_list() == model
