"""Differential oracles: the acceptance sweep and its negative controls.

The sweep proving all execution paths bit-identical is only trustworthy
if it *fails* when a path is broken, so alongside the 20-seed acceptance
run this file deliberately breaks the broker in two ways (lagged scores,
cross-session batch reversal) and asserts the oracle catches both.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.attacks.base import AttackResult
from repro.serve.broker import BatchPolicy, MicroBatchBroker
from repro.serve.sessions import SessionManager
from repro.testkit.differential import (
    PATHS,
    Axis,
    Cell,
    ReorderingBroker,
    network_runner,
    result_fingerprint,
    results_equal,
    toy_case,
    toy_runner,
)
from repro.testkit.trace import diff_events


class TestFingerprint:
    def test_none_is_distinct_from_any_result(self):
        result = AttackResult(success=False, queries=0)
        assert not results_equal(None, result)
        assert results_equal(None, None)

    def test_perturbation_bytes_matter(self):
        a = AttackResult(
            success=True,
            queries=3,
            location=(1, 2),
            perturbation=np.array([0.1, 0.2, 0.3]),
            adversarial_class=1,
        )
        b = AttackResult(
            success=True,
            queries=3,
            location=(1, 2),
            perturbation=np.array([0.1, 0.2, 0.30000001]),
            adversarial_class=1,
        )
        assert not results_equal(a, b)
        assert results_equal(a, AttackResult(**a.__dict__))

    def test_query_count_matters(self):
        a = AttackResult(success=False, queries=10)
        b = AttackResult(success=False, queries=11)
        assert result_fingerprint(a) != result_fingerprint(b)


class TestRunnerValidation:
    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            toy_runner(axes=("direct", "warp-drive"))
        with pytest.raises(ValueError):
            Axis("warp-drive")
        with pytest.raises(ValueError):
            Axis("stepped", park="cancel")  # only a served session parks

    def test_cell_label_reads_well(self):
        assert Cell(3, "served+cache").label() == "seed=3 served+cache"


class TestAcceptanceSweep:
    def test_full_sweep_is_divergence_free(self):
        """The acceptance criterion: >=20 seeds x all 4 paths x cache
        on/off, zero divergences, bit-identical results everywhere."""
        runner = toy_runner(seeds=range(20))
        report = runner.run()
        assert report.ok, report.describe()
        assert report.cells_run == 20 * len(PATHS) == 160
        assert "zero divergences" in report.describe()


class TestNetworkSweep:
    """The sweep against a real (tiny) repro.nn classifier: the unfrozen
    eval path must stay bit-identical across all execution paths, and
    the frozen float64 fast path must replay it cell by cell (same
    result, same trace of images and scores)."""

    def test_unfrozen_sweep_is_divergence_free(self):
        report = network_runner(seeds=range(4)).run()
        assert report.ok, report.describe()

    def test_frozen_sweep_is_divergence_free(self):
        report = network_runner(seeds=range(4), frozen=True).run()
        assert report.ok, report.describe()

    def test_frozen_matches_unfrozen_per_seed(self):
        """A frozen float64 network scores the eval path's bits, so every
        cell lands on the same result through the same queries."""
        plain = network_runner(seeds=range(4))
        frozen = network_runner(seeds=range(4), frozen=True)
        for seed in range(4):
            for axis in PATHS:
                cell = Cell(seed, axis)
                a, b = plain.run_cell(cell), frozen.run_cell(cell)
                assert results_equal(a.result, b.result), cell.label()
                assert diff_events(a.events, b.events) is None, cell.label()

    @pytest.mark.slow
    def test_frozen_acceptance_sweep(self):
        """Nightly-scale frozen sweep: 20 seeds x 4 paths x cache on/off,
        all bit-identical to each other under the fast path."""
        report = network_runner(seeds=range(20), frozen=True).run()
        assert report.ok, report.describe()
        assert report.cells_run == 20 * len(PATHS)


class _LaggedBroker(MicroBatchBroker):
    """A deliberately broken broker: each flush is answered with the
    *previous* flush's scores (off-by-one misrouting).  Visible even at
    batch size 1, unlike a batch-order bug."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lagged = None

    def evaluate(self, images):
        fresh = super().evaluate(images)
        if self._lagged is None or len(self._lagged) != len(fresh):
            self._lagged = fresh
            return fresh
        served, self._lagged = self._lagged, fresh
        return served


class TestNegativeControls:
    def test_lagged_broker_is_caught_and_localized(self):
        lagged = replace(
            PATHS["served"],
            broker=lambda classifier, cache: _LaggedBroker(classifier, cache=cache),
        )
        runner = toy_runner(
            seeds=range(4), table={"stepped": PATHS["stepped"], "served": lagged}
        )
        report = runner.run()
        assert not report.ok, "the oracle must catch a misrouting broker"
        localized = [d for d in report.divergences if d.first_query is not None]
        assert localized, "divergences should name the first diverging query"
        assert localized[0].first_query["index"] >= 1
        assert "first diverging query" in report.describe()

    def _two_session_results(self, broker_cls):
        """Seeds 0 and 2 (the sketch attack and CornerSearch) served
        concurrently by ``drive`` over one broker whose flushes wait for
        both sessions' queries."""
        case = toy_case()
        cases = [case(seed) for seed in (0, 2)]
        broker = broker_cls(
            cases[0].classifier, policy=BatchPolicy(max_batch_size=2, max_wait=0.05)
        ).start()
        manager = SessionManager(broker, max_workers=2)
        try:
            sessions = [
                manager.create(c.attack, c.image, c.true_class, budget=40)
                for c in cases
            ]
            for future in [manager.start(session) for session in sessions]:
                future.result(timeout=60)
        finally:
            manager.shutdown()
            broker.stop()
        direct = [
            c.attack.attack(c.classifier, c.image, c.true_class, budget=40)
            for c in map(case, (0, 2))
        ]
        return [session.result for session in sessions], direct

    def test_reversing_broker_crosses_session_wires(self):
        """With two concurrent sessions a flush holds one query of each,
        so reversing it hands each session the other's scores."""
        served, direct = self._two_session_results(ReorderingBroker)
        assert not all(
            results_equal(s, d) for s, d in zip(served, direct)
        ), "a batch-reversing broker must not produce identical results"

    def test_honest_broker_control(self):
        """The same two-session drive through the real broker matches the
        direct path exactly -- so the reversal test fails for the right
        reason."""
        served, direct = self._two_session_results(MicroBatchBroker)
        for s, d in zip(served, direct):
            assert results_equal(s, d)


class TestPooledWithProcesses:
    @pytest.mark.slow
    def test_pooled_path_with_real_workers(self):
        """Process-backed pooled execution (the nightly configuration)
        stays bit-identical too; slow because of process startup."""
        report = toy_runner(
            seeds=range(2), axes=("pooled", "pooled+cache"), pool_workers=2
        ).run()
        assert report.ok, report.describe()
