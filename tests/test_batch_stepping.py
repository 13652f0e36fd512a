"""Tests for batch-native attack stepping (DESIGN §14).

Batched stepping is a pure execution optimization: an attack may pose a
speculative :class:`~repro.core.stepping.QueryBatch` answered by one
vectorized forward pass, but answers are consumed in scalar order and
every consumption is charged against the budget exactly as a scalar
submit would be.  Everything observable -- the result, the query count,
the consumption-order trace, the budget-exhaustion point -- must be
bit-identical to the scalar protocol.  The exhaustive grid lives in
``tests/testkit/test_batch_equivalence.py``; this file covers the
protocol primitives and each generator's truncation behaviour directly.
"""

import numpy as np
import pytest

from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.random_search import UniformRandomAttack, UniformRandomConfig
from repro.attacks.sketch_attack import SketchAttack
from repro.attacks.su_opa import SuOPA, SuOPAConfig
from repro.classifier.blackbox import QueryBudgetExceeded
from repro.core.dsl.parser import parse_program
from repro.core.stepping import (
    Query,
    QueryBatch,
    StepCounter,
    drive_steps,
    resolve_batch_window,
)
from repro.serve.broker import BrokerStopped, MicroBatchBroker
from repro.serve.sessions import SessionManager
from repro.testkit.differential import result_fingerprint
from repro.testkit.trace import TraceRecorder

REORDERING_PROGRAM = parse_program(
    """
    [B1] score_diff(N(x), N(x[l<-p]), c_x) < 0.05
    [B2] max(x[l]) > 0.5
    [B3] score_diff(N(x), N(x[l<-p]), c_x) > 0.1
    [B4] center(l) < 2
    """
)


def _attacks():
    return [
        SketchAttack(REORDERING_PROGRAM),
        FixedSketchAttack(),
        UniformRandomAttack(UniformRandomConfig(seed=3)),
        SuOPA(SuOPAConfig(population_size=6, max_generations=3, seed=3)),
    ]


@pytest.fixture
def image(toy_shape):
    return np.linspace(0, 1, int(np.prod(toy_shape))).reshape(toy_shape)


def _run(attack, classifier, image, true_class, budget, batch_size):
    recorder = TraceRecorder(clean_image=image)
    result = drive_steps(
        attack.steps(image, true_class, budget=budget, batch_size=batch_size),
        classifier,
        observer=recorder,
    )
    return result, recorder.events


class TestProtocolPrimitives:
    def test_resolve_batch_window(self):
        assert resolve_batch_window(None) == 0
        assert resolve_batch_window(0) == 0
        assert resolve_batch_window(7) == 7
        with pytest.raises(ValueError):
            resolve_batch_window(-1)

    def test_query_batch_note_drives_observer(self):
        queries = tuple(Query(np.full((2, 2, 3), v)) for v in (0.1, 0.2))
        batch = QueryBatch(queries)
        assert len(batch) == 2
        seen = []
        batch.observer = lambda query, scores: seen.append(
            (query, float(scores[0]))
        )
        batch.note(queries[0], np.array([1.0]))
        batch.note(queries[1], np.array([2.0]))
        assert batch.consumed == 2
        assert seen == [(queries[0], 1.0), (queries[1], 2.0)]

    def test_charge_counts_like_submit(self):
        counter = StepCounter(budget=2)
        counter.charge()
        counter.charge()
        assert counter.count == 2
        assert counter.allowance == 0
        with pytest.raises(QueryBudgetExceeded) as info:
            counter.charge()
        assert info.value.budget == 2
        assert counter.count == 2  # refused charge not counted

    def test_allowance(self):
        assert StepCounter(budget=None).allowance is None
        counter = StepCounter(budget=3)
        assert counter.allowance == 3
        counter.submit(np.zeros((2, 2, 3)))
        assert counter.allowance == 2


class TestBatchedEquivalence:
    """Batched stepping == scalar stepping, bit for bit."""

    @pytest.mark.parametrize("attack", _attacks(), ids=lambda a: a.name)
    @pytest.mark.parametrize("window", [1, 3, 8])
    def test_same_result_and_trace(
        self, attack, window, linear_classifier, image
    ):
        true_class = int(np.argmax(linear_classifier(image)))
        scalar, scalar_trace = _run(
            attack, linear_classifier, image, true_class, 300, 0
        )
        batched, batched_trace = _run(
            attack, linear_classifier, image, true_class, 300, window
        )
        assert result_fingerprint(batched) == result_fingerprint(scalar)
        assert [e.to_dict() for e in batched_trace] == [
            e.to_dict() for e in scalar_trace
        ]

    @pytest.mark.parametrize("attack", _attacks(), ids=lambda a: a.name)
    @pytest.mark.parametrize("budget", [0, 1, 2, 5, 7, 16])
    def test_budget_truncation_matches_scalar(
        self, attack, budget, linear_classifier, image
    ):
        """A batch must stop charging at the exact query where the
        scalar path raises, never counting speculative tails."""
        true_class = int(np.argmax(linear_classifier(image)))
        scalar, scalar_trace = _run(
            attack, linear_classifier, image, true_class, budget, 0
        )
        batched, batched_trace = _run(
            attack, linear_classifier, image, true_class, budget, 5
        )
        assert result_fingerprint(batched) == result_fingerprint(scalar)
        assert batched.queries <= budget
        assert [e.to_dict() for e in batched_trace] == [
            e.to_dict() for e in scalar_trace
        ]

    def test_attack_entrypoint_honours_batch_size_attr(
        self, linear_classifier, image
    ):
        """Setting ``attack.batch_size`` (what the engine's
        ``step_batch`` plumbing does) batches the plain attack() call
        without changing its result."""
        true_class = int(np.argmax(linear_classifier(image)))
        scalar = FixedSketchAttack().attack(
            linear_classifier, image, true_class, budget=100
        )
        batched_attack = FixedSketchAttack()
        batched_attack.batch_size = 6
        batched = batched_attack.attack(
            linear_classifier, image, true_class, budget=100
        )
        assert result_fingerprint(batched) == result_fingerprint(scalar)


class TestSketchSpeculation:
    def test_no_pair_posed_twice(self, linear_classifier, image):
        """Speculative prefetching must never re-pose a pair: every
        counted image in the posed stream is unique."""
        attack = SketchAttack(REORDERING_PROGRAM)
        true_class = int(np.argmax(linear_classifier(image)))
        steps = attack.steps(image, true_class, budget=200, batch_size=4)
        posed = []
        try:
            request = next(steps)
            while True:
                if isinstance(request, QueryBatch):
                    posed.extend(
                        q.image.tobytes() for q in request.queries if q.counted
                    )
                    answers = np.stack(
                        [linear_classifier(q.image) for q in request.queries]
                    )
                    request = steps.send(answers)
                else:
                    if request.counted:
                        posed.append(request.image.tobytes())
                    request = steps.send(linear_classifier(request.image))
        except StopIteration:
            pass
        assert len(posed) == len(set(posed))

    def test_batches_actually_form(self, linear_classifier, image):
        attack = SketchAttack(REORDERING_PROGRAM)
        true_class = int(np.argmax(linear_classifier(image)))
        steps = attack.steps(image, true_class, budget=200, batch_size=4)
        multi = 0
        try:
            request = next(steps)
            while True:
                if isinstance(request, QueryBatch):
                    if len(request) > 1:
                        multi += 1
                    answers = np.stack(
                        [linear_classifier(q.image) for q in request.queries]
                    )
                    request = steps.send(answers)
                else:
                    request = steps.send(linear_classifier(request.image))
        except StopIteration:
            pass
        assert multi > 0  # the window is not silently degenerating to 1


class TestSessionAccounting:
    """Batched sessions count queries at consumption time and still
    satisfy ``session.queries == result.queries``."""

    @pytest.mark.parametrize("driver", ["cooperative", "threaded"])
    def test_batched_session_matches_scalar(
        self, driver, linear_classifier, image
    ):
        true_class = int(np.argmax(linear_classifier(image)))
        attack = UniformRandomAttack(UniformRandomConfig(seed=5))
        scalar, _ = _run(attack, linear_classifier, image, true_class, 60, 0)

        broker = MicroBatchBroker(linear_classifier)
        manager = SessionManager(broker, max_workers=1)
        try:
            session = manager.create(
                UniformRandomAttack(UniformRandomConfig(seed=5)),
                image,
                true_class,
                budget=60,
                batch_size=7,
            )
            if driver == "cooperative":
                manager.run_cooperative([session])
            else:
                broker.start()
                manager.drive(session)
        finally:
            manager.shutdown()
            broker.stop()
        assert session.result is not None
        assert result_fingerprint(session.result) == result_fingerprint(scalar)
        assert session.queries == session.result.queries


class TestSubmitMany:
    def test_dedups_and_counts_each_member(self, linear_classifier, toy_shape):
        calls = []

        def spy(image):
            calls.append(1)
            return linear_classifier(image)

        broker = MicroBatchBroker(spy).start()
        try:
            image = np.linspace(0, 1, int(np.prod(toy_shape))).reshape(toy_shape)
            rows = broker.submit_many([image, image, image])
            assert len(rows) == 3
            assert len(calls) == 1  # three logical queries, one forward
            stats = broker.stats()
            assert stats["submitted"] == 3
            assert stats["coalesced_duplicates"] == 2
        finally:
            broker.stop()

    def test_requires_running(self, linear_classifier, toy_shape):
        broker = MicroBatchBroker(linear_classifier)
        image = np.zeros(toy_shape)
        with pytest.raises(BrokerStopped):
            broker.submit_many([image])

    def test_empty_batch(self, linear_classifier):
        assert MicroBatchBroker(linear_classifier).submit_many([]) == []
