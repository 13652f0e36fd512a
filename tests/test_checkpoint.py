"""Checkpoint/resume: the store, campaign resume, MH resume, torn tails.

The central claims under test (ISSUE 5 acceptance criteria):

- a killed-and-resumed attack campaign produces an
  :class:`~repro.eval.runner.AttackRunSummary` bit-identical to an
  uninterrupted run;
- a resumed MH synthesis chain reproduces the exact accepted-program
  sequence of an uninterrupted chain;
- crash residue (a torn final JSONL line) degrades to re-executing one
  unit, never to an error or to corrupted state.
"""

import json
import os

import numpy as np
import pytest

from repro.attacks.base import AttackResult
from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.classifier.toy import SmoothLinearClassifier
from repro.core.synthesis.mh import latest_chain_snapshot
from repro.core.synthesis.oppsla import Oppsla, OppslaConfig
from repro.eval.runner import attack_dataset, resume_campaign
from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointMismatch,
    CheckpointStore,
    campaign_manifest,
    campaign_record,
    decode_attack_result,
    encode_attack_result,
    encode_rng_state,
    load_campaign,
    restore_rng_state,
)
from repro.runtime.events import RunLog
from repro.runtime.faults import FaultPolicy
from repro.runtime.pool import WorkerPool, task_seed
from repro.testkit.faults import FaultSchedule, FlakyClassifier, InjectedFault
from repro.testkit.kill import summary_fingerprint, toy_campaign


# ----------------------------------------------------------------------
# the store itself
# ----------------------------------------------------------------------


class TestCheckpointStore:
    def test_append_and_read_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.append({"kind": "a", "n": 1})
        store.append({"kind": "b", "n": 2})
        records, truncated = store.records()
        assert records == [{"kind": "a", "n": 1}, {"kind": "b", "n": 2}]
        assert truncated is False

    def test_fresh_store_is_empty(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.records() == ([], False)
        assert store.manifest() is None

    def test_torn_tail_is_dropped_and_flagged(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.append({"n": 1})
        store.append({"n": 2})
        store.close()
        with open(store.records_path, "a") as handle:
            handle.write('{"n": 3, "tru')  # crash mid-append
        records, truncated = store.records()
        assert records == [{"n": 1}, {"n": 2}]
        assert truncated is True

    def test_append_repairs_torn_tail(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.append({"n": 1})
        store.close()
        with open(store.records_path, "a") as handle:
            handle.write('{"n": 2, "tru')
        store = CheckpointStore(str(tmp_path))
        store.append({"n": 3})
        records, truncated = store.records()
        assert records == [{"n": 1}, {"n": 3}]
        assert truncated is False

    def test_mid_file_corruption_raises(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with open(store.records_path, "w") as handle:
            handle.write('{"n": 1}\nnot json at all\n{"n": 3}\n')
        with pytest.raises(CheckpointError, match="corrupt record"):
            store.records()

    def test_manifest_reconcile_fresh_then_match(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        manifest = {"kind": "test", "seed": 7}
        assert store.reconcile_manifest(manifest) == manifest
        assert store.reconcile_manifest(manifest) == manifest

    def test_manifest_mismatch_names_differing_fields(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.reconcile_manifest({"kind": "test", "seed": 7, "budget": 10})
        with pytest.raises(CheckpointMismatch, match="budget, seed"):
            store.reconcile_manifest({"kind": "test", "seed": 8, "budget": 11})

    def test_clear_records(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.append({"n": 1})
        store.clear_records()
        assert store.records() == ([], False)
        store.append({"n": 2})
        assert store.records() == ([{"n": 2}], False)

    def test_context_manager_closes_handle(self, tmp_path):
        with CheckpointStore(str(tmp_path)) as store:
            store.append({"n": 1})
        assert store._handle is None


class TestCodecs:
    def test_attack_result_roundtrip_is_lossless(self):
        result = AttackResult(
            success=True,
            queries=37,
            location=(2, 3),
            perturbation=np.array([1.0, 0.0, 1.0]),
            adversarial_class=2,
        )
        decoded = decode_attack_result(
            json.loads(json.dumps(encode_attack_result(result)))
        )
        assert decoded.success == result.success
        assert decoded.queries == result.queries
        assert decoded.location == result.location
        assert np.array_equal(decoded.perturbation, result.perturbation)
        assert decoded.adversarial_class == result.adversarial_class
        assert decoded.error is None

    def test_failed_result_roundtrip(self):
        result = AttackResult(success=False, queries=64, error="timeout:Injected")
        decoded = decode_attack_result(encode_attack_result(result))
        assert decoded.success is False
        assert decoded.perturbation is None
        assert decoded.error == "timeout:Injected"

    def test_rng_state_roundtrip_continues_stream_bit_identically(self):
        rng = np.random.default_rng(5)
        rng.uniform(size=100)
        state = json.loads(json.dumps(encode_rng_state(rng)))
        expected = rng.uniform(size=50).tolist()
        fresh = np.random.default_rng(0)
        restore_rng_state(fresh, state)
        assert fresh.uniform(size=50).tolist() == expected

    def test_restore_refuses_wrong_bit_generator(self):
        rng = np.random.default_rng(0)
        state = encode_rng_state(rng)
        state["bit_generator"] = "MT19937"
        with pytest.raises(CheckpointMismatch, match="MT19937"):
            restore_rng_state(np.random.default_rng(0), state)


# ----------------------------------------------------------------------
# campaign resume: bit-identical summaries across cut points
# ----------------------------------------------------------------------


def _truncate_records(directory: str, keep_lines: int, torn_tail: str = ""):
    """Simulate a crash by keeping only the first ``keep_lines`` records."""
    path = os.path.join(directory, "records.jsonl")
    with open(path) as handle:
        lines = handle.readlines()
    with open(path, "w") as handle:
        handle.writelines(lines[:keep_lines])
        handle.write(torn_tail)


class TestCampaignResume:
    @pytest.fixture(scope="class")
    def golden(self):
        return summary_fingerprint(toy_campaign())

    @pytest.mark.parametrize("cut", [0, 1, 5, 11])
    def test_resume_is_bit_identical_at_every_cut_point(
        self, tmp_path, golden, cut
    ):
        toy_campaign(checkpoint=str(tmp_path))
        _truncate_records(str(tmp_path), cut)
        resumed = toy_campaign(checkpoint=str(tmp_path))
        assert summary_fingerprint(resumed) == golden

    def test_resume_after_torn_tail_is_bit_identical(self, tmp_path, golden):
        toy_campaign(checkpoint=str(tmp_path))
        _truncate_records(str(tmp_path), 4, torn_tail='{"kind": "attack_res')
        resumed = toy_campaign(checkpoint=str(tmp_path))
        assert summary_fingerprint(resumed) == golden

    def test_completed_campaign_reruns_for_free(self, tmp_path, golden):
        first = toy_campaign(checkpoint=str(tmp_path))

        def exploding(image):  # no queries may be re-posed
            raise AssertionError("resume of a complete campaign queried")

        from repro.eval.runner import attack_dataset as run

        classifier = SmoothLinearClassifier(
            image_shape=(8, 8, 3), num_classes=4, seed=0
        )
        rng = np.random.default_rng(0)
        pairs = []
        while len(pairs) < 12:
            image = rng.uniform(0.0, 1.0, size=(8, 8, 3))
            pairs.append((image, int(np.argmax(classifier(image)))))
        resumed = run(
            FixedSketchAttack(),
            exploding,
            pairs,
            budget=64,
            checkpoint=str(tmp_path),
            base_seed=0,
        )
        assert summary_fingerprint(resumed) == summary_fingerprint(first)

    @pytest.mark.parametrize("die_at_query", [60, 150, 400])
    def test_crash_mid_campaign_then_resume(self, tmp_path, golden, die_at_query):
        """A backend that dies partway through leaves a usable store."""
        classifier = SmoothLinearClassifier(
            image_shape=(8, 8, 3), num_classes=4, seed=0
        )
        rng = np.random.default_rng(0)
        pairs = []
        while len(pairs) < 12:
            image = rng.uniform(0.0, 1.0, size=(8, 8, 3))
            pairs.append((image, int(np.argmax(classifier(image)))))

        flaky = FlakyClassifier(classifier, FaultSchedule.at(die_at_query))
        with pytest.raises(InjectedFault):
            attack_dataset(
                FixedSketchAttack(),
                flaky,
                pairs,
                budget=64,
                checkpoint=str(tmp_path),
                base_seed=0,
            )
        _, partial, _, _, _ = load_campaign(CheckpointStore(str(tmp_path)))
        assert 0 < len(partial) < 12
        resumed = toy_campaign(checkpoint=str(tmp_path))
        assert summary_fingerprint(resumed) == golden

    def test_resume_emits_replayed_telemetry(self, tmp_path):
        toy_campaign(checkpoint=str(tmp_path))
        _truncate_records(str(tmp_path), 5)
        log = RunLog()
        classifier = SmoothLinearClassifier(
            image_shape=(8, 8, 3), num_classes=4, seed=0
        )
        rng = np.random.default_rng(0)
        pairs = []
        while len(pairs) < 12:
            image = rng.uniform(0.0, 1.0, size=(8, 8, 3))
            pairs.append((image, int(np.argmax(classifier(image)))))
        attack_dataset(
            FixedSketchAttack(),
            classifier,
            pairs,
            budget=64,
            run_log=log,
            checkpoint=str(tmp_path),
            base_seed=0,
        )
        (resume_event,) = log.of_type("campaign_resume")
        assert resume_event["completed"] == 5
        assert resume_event["remaining"] == 7
        assert resume_event["replayed_queries"] == 0
        results = log.of_type("attack_result")
        assert len(results) == 12
        assert sum(1 for e in results if e.get("replayed")) == 5

    def test_resume_under_executor_path(self, tmp_path, golden):
        toy_campaign(checkpoint=str(tmp_path))
        _truncate_records(str(tmp_path), 6)
        classifier = SmoothLinearClassifier(
            image_shape=(8, 8, 3), num_classes=4, seed=0
        )
        rng = np.random.default_rng(0)
        pairs = []
        while len(pairs) < 12:
            image = rng.uniform(0.0, 1.0, size=(8, 8, 3))
            pairs.append((image, int(np.argmax(classifier(image)))))
        pool = WorkerPool(workers=0)  # inline execution, executor code path
        resumed = attack_dataset(
            FixedSketchAttack(),
            classifier,
            pairs,
            budget=64,
            executor=pool,
            checkpoint=str(tmp_path),
            base_seed=0,
        )
        assert summary_fingerprint(resumed) == golden

    def test_wrong_budget_refuses_resume(self, tmp_path):
        toy_campaign(checkpoint=str(tmp_path), budget=64)
        with pytest.raises(CheckpointMismatch, match="budget"):
            toy_campaign(checkpoint=str(tmp_path), budget=32)

    def test_wrong_base_seed_refuses_resume(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write_manifest(campaign_manifest("Sketch+False", 12, 64, 0))
        # a record whose seed was derived from a different base seed
        store.append(
            campaign_record(
                3, task_seed(99, 3), AttackResult(success=False, queries=64)
            )
        )
        with pytest.raises(CheckpointMismatch, match="re-derive"):
            resume_campaign(store, "Sketch+False", 12, 64, 0)

    def test_out_of_range_index_refuses_resume(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write_manifest(campaign_manifest("Sketch+False", 12, 64, 0))
        store.append(
            campaign_record(
                40, task_seed(0, 40), AttackResult(success=False, queries=64)
            )
        )
        with pytest.raises(CheckpointMismatch, match="outside"):
            resume_campaign(store, "Sketch+False", 12, 64, 0)


# ----------------------------------------------------------------------
# MH chain resume: identical accepted-program sequences
# ----------------------------------------------------------------------


def _chain_fingerprint(result):
    return {
        "accepted": [
            (entry.iteration, entry.program.to_dict(), entry.cumulative_queries)
            for entry in result.trace.accepted
        ],
        "final": result.final_program.to_dict(),
        "best": result.best_program.to_dict(),
        "total_queries": result.total_queries,
        "iterations": result.trace.iterations,
    }


class TestSynthesisResume:
    @pytest.fixture(scope="class")
    def synthesis_setup(self):
        classifier = SmoothLinearClassifier(
            image_shape=(6, 6, 3), num_classes=3, seed=1
        )
        rng = np.random.default_rng(1)
        pairs = []
        while len(pairs) < 4:
            image = rng.uniform(0.0, 1.0, size=(6, 6, 3))
            pairs.append((image, int(np.argmax(classifier(image)))))
        config = OppslaConfig(max_iterations=8, per_image_budget=64, seed=3)
        return classifier, pairs, config

    @pytest.fixture(scope="class")
    def golden_chain(self, synthesis_setup):
        classifier, pairs, config = synthesis_setup
        return _chain_fingerprint(Oppsla(config).synthesize(classifier, pairs))

    def test_checkpointing_does_not_perturb_the_chain(
        self, tmp_path, synthesis_setup, golden_chain
    ):
        classifier, pairs, config = synthesis_setup
        result = Oppsla(config).synthesize(
            classifier, pairs, checkpoint=str(tmp_path), checkpoint_interval=3
        )
        assert _chain_fingerprint(result) == golden_chain

    @pytest.mark.parametrize("keep_snapshots", [1, 2, 3])
    def test_resumed_chain_reproduces_accepted_sequence(
        self, tmp_path, synthesis_setup, golden_chain, keep_snapshots
    ):
        classifier, pairs, config = synthesis_setup
        Oppsla(config).synthesize(
            classifier, pairs, checkpoint=str(tmp_path), checkpoint_interval=2
        )
        # keep an early prefix of snapshots == crash partway through
        _truncate_records(str(tmp_path), keep_snapshots)
        resumed = Oppsla(config).synthesize(
            classifier,
            pairs,
            checkpoint=str(tmp_path),
            resume=True,
            checkpoint_interval=2,
        )
        assert _chain_fingerprint(resumed) == golden_chain

    def test_resume_after_torn_snapshot_falls_back(
        self, tmp_path, synthesis_setup, golden_chain
    ):
        classifier, pairs, config = synthesis_setup
        Oppsla(config).synthesize(
            classifier, pairs, checkpoint=str(tmp_path), checkpoint_interval=2
        )
        _truncate_records(str(tmp_path), 2, torn_tail='{"kind": "chain_snap')
        resumed = Oppsla(config).synthesize(
            classifier,
            pairs,
            checkpoint=str(tmp_path),
            resume=True,
            checkpoint_interval=2,
        )
        assert _chain_fingerprint(resumed) == golden_chain

    def test_dirty_store_without_resume_is_refused(
        self, tmp_path, synthesis_setup
    ):
        classifier, pairs, config = synthesis_setup
        Oppsla(config).synthesize(classifier, pairs, checkpoint=str(tmp_path))
        with pytest.raises(CheckpointError, match="resume=True"):
            Oppsla(config).synthesize(classifier, pairs, checkpoint=str(tmp_path))

    def test_other_training_images_are_refused(self, tmp_path, synthesis_setup):
        """Regression: the manifest pinned only the number of training
        images, so resuming on four other images returned the first
        run's chain without error."""
        classifier, pairs, config = synthesis_setup
        Oppsla(config).synthesize(classifier, pairs, checkpoint=str(tmp_path))
        rng = np.random.default_rng(2)
        others = []
        for _ in range(len(pairs)):
            image = rng.uniform(0.0, 1.0, size=(6, 6, 3))
            others.append((image, int(np.argmax(classifier(image)))))
        relabelled = [(pairs[0][0], (pairs[0][1] + 1) % 3)] + pairs[1:]
        for changed in (others, relabelled):
            with pytest.raises(CheckpointMismatch, match="training_set"):
                Oppsla(config).synthesize(
                    classifier, changed, checkpoint=str(tmp_path), resume=True
                )

    def test_config_mismatch_is_refused(self, tmp_path, synthesis_setup):
        classifier, pairs, config = synthesis_setup
        Oppsla(config).synthesize(classifier, pairs, checkpoint=str(tmp_path))
        other = OppslaConfig(max_iterations=8, per_image_budget=64, seed=4)
        with pytest.raises(CheckpointMismatch):
            Oppsla(other).synthesize(
                classifier, pairs, checkpoint=str(tmp_path), resume=True
            )

    def test_latest_snapshot_tracks_progress(self, tmp_path, synthesis_setup):
        classifier, pairs, config = synthesis_setup
        Oppsla(config).synthesize(
            classifier, pairs, checkpoint=str(tmp_path), checkpoint_interval=2
        )
        snapshot = latest_chain_snapshot(CheckpointStore(str(tmp_path)))
        assert snapshot["iteration"] == config.max_iterations


# ----------------------------------------------------------------------
# satellites: RunLog torn tail, FaultPolicy jitter
# ----------------------------------------------------------------------


class TestRunLogTruncation:
    def test_truncated_final_line_becomes_event(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("task_start", index=0)
            log.emit("task_end", index=0)
        with open(path, "a") as handle:
            handle.write('{"ts": 1.0, "event": "task_sta')
        events = RunLog.read(path)
        assert [e["event"] for e in events] == [
            "task_start",
            "task_end",
            "log_truncated",
        ]
        assert events[-1]["line"] == 3

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('{"event": "a"}\ngarbage\n{"event": "b"}\n')
        with pytest.raises(json.JSONDecodeError):
            RunLog.read(path)

    def test_clean_log_reads_unchanged(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("only", n=1)
        events = RunLog.read(path)
        assert len(events) == 1 and events[0]["event"] == "only"


class TestFaultPolicyJitter:
    def test_defaults_preserve_exact_exponential_schedule(self):
        policy = FaultPolicy(backoff=0.1, backoff_factor=2.0)
        assert policy.retry_delay(1) == pytest.approx(0.1)
        assert policy.retry_delay(2) == pytest.approx(0.2)
        assert policy.retry_delay(3) == pytest.approx(0.4)

    def test_max_delay_caps_the_schedule(self):
        policy = FaultPolicy(backoff=0.1, backoff_factor=10.0, max_delay=0.5)
        assert policy.retry_delay(1) == pytest.approx(0.1)
        assert policy.retry_delay(2) == pytest.approx(0.5)
        assert policy.retry_delay(5) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = FaultPolicy(backoff=1.0, jitter=0.5, jitter_seed=7)
        first = policy.retry_delay(1, index=3)
        assert first == policy.retry_delay(1, index=3)  # replayable
        assert 0.5 <= first <= 1.0

    def test_jitter_decorrelates_tasks_and_attempts(self):
        policy = FaultPolicy(backoff=1.0, jitter=0.9, jitter_seed=0)
        delays = {
            policy.retry_delay(attempt, index=index)
            for attempt in (1, 2)
            for index in range(5)
        }
        assert len(delays) == 10

    def test_jitter_applies_after_the_cap(self):
        policy = FaultPolicy(
            backoff=1.0, backoff_factor=10.0, jitter=0.5, max_delay=2.0
        )
        for attempt in (2, 3, 4):
            assert policy.retry_delay(attempt, index=0) <= 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jitter": -0.1},
            {"jitter": 1.5},
            {"max_delay": 0.0},
            {"max_delay": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)


# ----------------------------------------------------------------------
# the full SIGKILL harness (subprocess; slow)
# ----------------------------------------------------------------------


@pytest.mark.slow
class TestKillAndResume:
    @pytest.mark.parametrize("kill_after", [1, 4])
    def test_sigkill_mid_campaign_resumes_bit_identically(
        self, tmp_path, kill_after
    ):
        from repro.testkit.kill import kill_and_resume_campaign

        outcome = kill_and_resume_campaign(
            str(tmp_path), kill_after=kill_after, delay=0.03
        )
        assert outcome["records_at_kill"] >= kill_after
        assert outcome["identical"], (
            outcome["golden"],
            outcome["resumed"],
        )
