"""Tests for the execution engine: pool, faults, and determinism.

Task functions used under multiprocessing live at module level so they
pickle under both the ``fork`` and ``spawn`` start methods.
"""

import os
import time

import numpy as np
import pytest

from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.attacks.base import AttackResult, OnePixelAttack
from repro.classifier.toy import LinearPixelClassifier, make_toy_images
from repro.core.dsl.printer import format_program
from repro.core.stepping import Query
from repro.core.synthesis.oppsla import Oppsla, OppslaConfig
from repro.core.synthesis.score import evaluate_program
from repro.core.dsl.grammar import Grammar
from repro.eval.runner import attack_dataset
from repro.runtime import (
    FaultPolicy,
    RunLog,
    WorkerPool,
    task_seed,
)


def _square(x):
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _exit_on_two(x):
    if x == 2:
        os._exit(13)  # hard crash: no exception machinery, no report
    return x


def _hang_on_one(x):
    if x == 1:
        time.sleep(60)
    return x


class _SucceedOnRetry:
    """Fails until a marker file exists, then succeeds.

    The marker survives worker restarts, so with ``retries >= 1`` the
    second attempt (on any worker) goes through.
    """

    def __init__(self, marker_path):
        self.marker_path = marker_path

    def __call__(self, x):
        if not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as handle:
                handle.write("attempted")
            raise RuntimeError("first attempt always fails")
        return x + 100


class _HangingAttack(OnePixelAttack):
    """Hangs forever on one designated class; trivial failure otherwise."""

    def __init__(self, hang_class):
        self.hang_class = hang_class

    def steps(
        self, image, true_class, budget=None, target_class=None, batch_size=None
    ):
        if true_class == self.hang_class:
            time.sleep(60)
        yield Query(image)
        return AttackResult(success=False, queries=1)


def _results_signature(summary):
    """Comparable per-image tuples (arrays compared by value)."""
    return [
        (
            r.success,
            r.queries,
            r.location,
            None if r.perturbation is None else r.perturbation.tobytes(),
            r.adversarial_class,
            r.error,
        )
        for r in summary.results
    ]


@pytest.fixture
def toy_setup():
    shape = (6, 6, 3)
    classifier = LinearPixelClassifier(shape, 3, seed=1, temperature=0.05)
    images = make_toy_images(10, shape, seed=2)
    pairs = [(image, int(np.argmax(classifier(image)))) for image in images]
    return classifier, pairs


class TestWorkerPoolBasics:
    def test_preserves_order(self):
        pool = WorkerPool(workers=3)
        outcomes = pool.map(_square, list(range(20)))
        assert [o.index for o in outcomes] == list(range(20))
        assert [o.value for o in outcomes] == [x * x for x in range(20)]
        assert all(o.ok for o in outcomes)

    def test_inline_matches_processes(self):
        inline = WorkerPool(workers=0).map_values(_square, range(12))
        procs = WorkerPool(workers=2).map_values(_square, range(12))
        assert inline == procs

    def test_empty_payloads(self):
        assert WorkerPool(workers=2).map(_square, []) == []
        assert WorkerPool(workers=0).map(_square, []) == []

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=-1)

    def test_task_seed_deterministic_and_distinct(self):
        seeds = [task_seed(7, index) for index in range(100)]
        assert seeds == [task_seed(7, index) for index in range(100)]
        assert len(set(seeds)) == 100
        assert task_seed(8, 0) != task_seed(7, 0)


class TestFaultContainment:
    def test_exception_contained(self):
        log = RunLog()
        pool = WorkerPool(workers=2, run_log=log)
        outcomes = pool.map(_boom_on_three, range(6))
        bad = outcomes[3]
        assert not bad.ok
        assert bad.error.kind == "exception"
        assert bad.error.type == "ValueError"
        assert "boom" in bad.error.message
        assert [o.ok for o in outcomes] == [True, True, True, False, True, True]
        ends = log.of_type("task_end")
        assert sum(1 for e in ends if not e["ok"]) == 1

    def test_inline_exception_contained(self):
        outcomes = WorkerPool(workers=0).map(_boom_on_three, range(5))
        assert not outcomes[3].ok
        assert outcomes[3].error.type == "ValueError"
        with pytest.raises(RuntimeError, match="ValueError"):
            outcomes[3].unwrap()

    def test_worker_crash_contained_and_logged(self):
        log = RunLog()
        pool = WorkerPool(workers=2, run_log=log)
        outcomes = pool.map(_exit_on_two, range(6))
        assert not outcomes[2].ok
        assert outcomes[2].error.kind == "crash"
        assert [o.ok for o in outcomes if o.index != 2] == [True] * 5
        assert log.counts().get("worker_crash", 0) >= 1
        assert log.counts().get("worker_restart", 0) >= 1

    def test_timeout_kills_hung_worker(self):
        log = RunLog()
        pool = WorkerPool(
            workers=2, policy=FaultPolicy(timeout=0.5), run_log=log
        )
        started = time.monotonic()
        outcomes = pool.map(_hang_on_one, range(5))
        wall = time.monotonic() - started
        assert wall < 30  # far below the 60s sleep: the worker was killed
        assert not outcomes[1].ok
        assert outcomes[1].error.kind == "timeout"
        assert [o.ok for o in outcomes if o.index != 1] == [True] * 4
        assert log.counts().get("task_timeout", 0) == 1

    def test_retry_succeeds_on_second_attempt(self, tmp_path):
        marker = str(tmp_path / "marker")
        log = RunLog()
        pool = WorkerPool(
            workers=1,
            policy=FaultPolicy(retries=2, backoff=0.01),
            run_log=log,
        )
        outcomes = pool.map(_SucceedOnRetry(marker), [5])
        assert outcomes[0].ok
        assert outcomes[0].value == 105
        assert outcomes[0].attempts == 2
        assert log.counts().get("task_retry", 0) == 1

    def test_retries_exhausted(self):
        pool = WorkerPool(workers=1, policy=FaultPolicy(retries=1, backoff=0.01))
        outcomes = pool.map(_boom_on_three, [3])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2


class TestFaultPolicy:
    def test_backoff_schedule(self):
        policy = FaultPolicy(retries=3, backoff=0.1, backoff_factor=2.0)
        assert policy.max_attempts == 4
        assert policy.retry_delay(1) == pytest.approx(0.1)
        assert policy.retry_delay(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_factor=0.5)


class TestAttackDatasetDeterminism:
    def test_parallel_matches_sequential_fixed_sketch(self, toy_setup):
        classifier, pairs = toy_setup
        attack = FixedSketchAttack()
        sequential = attack_dataset(attack, classifier, pairs, budget=200)
        parallel = attack_dataset(
            attack,
            classifier,
            pairs,
            budget=200,
            executor=WorkerPool(workers=4),
        )
        assert _results_signature(sequential) == _results_signature(parallel)
        # wall-clock keys are measurements and legitimately differ
        assert sequential.to_dict(include_timing=False) == parallel.to_dict(
            include_timing=False
        )

    def test_parallel_matches_sequential_seeded_sparse_rs(self, toy_setup):
        classifier, pairs = toy_setup
        attack = SparseRS(SparseRSConfig(seed=11, max_steps=100))
        sequential = attack_dataset(attack, classifier, pairs, budget=80)
        parallel = attack_dataset(
            attack,
            classifier,
            pairs,
            budget=80,
            executor=WorkerPool(workers=4),
        )
        assert _results_signature(sequential) == _results_signature(parallel)

    def test_cache_does_not_change_results(self, toy_setup):
        classifier, pairs = toy_setup
        attack = FixedSketchAttack()
        plain = attack_dataset(attack, classifier, pairs, budget=200)
        cached = attack_dataset(
            attack, classifier, pairs, budget=200, cache_size=1024
        )
        assert _results_signature(plain) == _results_signature(cached)


class TestSynthesisDeterminism:
    def test_parallel_candidate_evaluation_matches_sequential(self, toy_setup):
        classifier, pairs = toy_setup
        grammar = Grammar((6, 6))
        program = grammar.random_program(np.random.default_rng(9))
        sequential = evaluate_program(
            program, classifier, pairs, per_image_budget=60
        )
        parallel = evaluate_program(
            program,
            classifier,
            pairs,
            per_image_budget=60,
            executor=WorkerPool(workers=4),
        )
        assert sequential.avg_queries == parallel.avg_queries
        assert sequential.successes == parallel.successes
        assert sequential.total_queries == parallel.total_queries
        assert [
            (r.success, r.queries) for r in sequential.results
        ] == [(r.success, r.queries) for r in parallel.results]

    def test_parallel_oppsla_matches_sequential(self, toy_setup):
        classifier, pairs = toy_setup
        config = OppslaConfig(max_iterations=4, per_image_budget=50, seed=3)
        sequential = Oppsla(config).synthesize(classifier, pairs[:5])
        parallel = Oppsla(config).synthesize(
            classifier, pairs[:5], executor=WorkerPool(workers=4)
        )
        assert format_program(sequential.best_program) == format_program(
            parallel.best_program
        )
        assert sequential.total_queries == parallel.total_queries
        assert (
            sequential.best_evaluation.avg_queries
            == parallel.best_evaluation.avg_queries
        )


class TestDegradedRuns:
    def test_hanging_attack_degrades_not_kills(self, toy_setup, tmp_path):
        classifier, pairs = toy_setup
        hang_class = pairs[2][1]
        attack = _HangingAttack(hang_class)
        log_path = str(tmp_path / "run.jsonl")
        log = RunLog(log_path)
        pool = WorkerPool(
            workers=2, policy=FaultPolicy(timeout=0.5), run_log=log
        )
        summary = attack_dataset(
            attack, classifier, pairs, budget=64, executor=pool
        )
        log.close()
        assert summary.total_images == len(pairs)
        degraded = [r for r in summary.results if r.error is not None]
        assert degraded, "expected at least one degraded result"
        assert all(r.queries == 64 and not r.success for r in degraded)
        assert all("timeout" in r.error for r in degraded)
        # the JSONL file records both the fault and the degraded result
        events = RunLog.read(log_path)
        types = {event["event"] for event in events}
        assert "task_timeout" in types
        assert "worker_restart" in types
        degraded_events = [
            e
            for e in events
            if e["event"] == "attack_result" and e.get("error") is not None
        ]
        assert degraded_events
        assert summary.error_counts()
        assert summary.to_dict()["errors"]
