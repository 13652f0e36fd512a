"""Differential oracles: the acceptance sweep and its negative controls.

The sweep proving all execution paths bit-identical is only trustworthy
if it *fails* when a path is broken, so alongside the 20-seed acceptance
run this file deliberately breaks the broker in two ways (lagged scores,
cross-session batch reversal) and asserts the oracle catches both.
"""

import numpy as np
import pytest

from repro.attacks.base import AttackResult
from repro.serve.broker import MicroBatchBroker
from repro.serve.sessions import SessionManager
from repro.testkit.differential import (
    DEFAULT_PATHS,
    Cell,
    DifferentialRunner,
    network_runner,
    result_fingerprint,
    results_equal,
    toy_runner,
)


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
            toy_runner(paths=("direct", "warp-drive"))

    def test_cell_label_reads_well(self):
        assert Cell(3, "served", True).label() == "seed=3 path=served cache"


class TestAcceptanceSweep:
    def test_full_sweep_is_divergence_free(self):
        """The acceptance criterion: >=20 seeds x all 4 paths x cache
        on/off, zero divergences, bit-identical results everywhere."""
        runner = toy_runner(seeds=range(20))
        report = runner.run()
        assert report.ok, report.describe()
        expected = 20 * len(DEFAULT_PATHS) * 2
        assert report.cells_run == expected
        assert "zero divergences" in report.describe()


class TestNetworkSweep:
    """The sweep against a real (tiny) repro.nn classifier: the unfrozen
    eval path must stay bit-identical across all execution paths, and
    the frozen inference fast path must be *decision-identical* to it
    seed by seed (same success, queries, location, perturbation)."""

    def test_unfrozen_sweep_is_divergence_free(self):
        report = network_runner(seeds=range(4)).run()
        assert report.ok, report.describe()

    def test_frozen_sweep_is_divergence_free(self):
        report = network_runner(seeds=range(4), frozen=True).run()
        assert report.ok, report.describe()

    def test_frozen_matches_unfrozen_per_seed(self):
        """Folding may reassociate floating point, but every attack must
        land on the same result: the scores stay ordering-identical."""
        plain = network_runner(seeds=range(4))
        frozen = network_runner(seeds=range(4), frozen=True)
        for seed in range(4):
            cell = Cell(seed, "stepped", False)
            a, _ = plain.run_cell(cell)
            b, _ = frozen.run_cell(cell)
            assert results_equal(a, b), f"seed {seed}: frozen diverged"

    @pytest.mark.slow
    def test_frozen_acceptance_sweep(self):
        """Nightly-scale frozen sweep: 20 seeds x 4 paths x cache on/off,
        all bit-identical to each other under the fast path."""
        report = network_runner(seeds=range(20), frozen=True).run()
        assert report.ok, report.describe()
        assert report.cells_run == 20 * len(DEFAULT_PATHS) * 2


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


class _ReversingBroker(MicroBatchBroker):
    """A deliberately broken broker: answers within a flush are returned
    in reverse order, crossing wires between concurrent sessions."""

    def evaluate(self, images):
        return super().evaluate(list(images))[::-1]


class TestNegativeControls:
    def test_lagged_broker_is_caught_and_localized(self):
        runner = toy_runner(
            seeds=range(4),
            paths=("served",),
            cache_modes=(False,),
            broker_factory=lambda classifier, cache: _LaggedBroker(
                classifier, cache=cache
            ),
        )
        report = runner.run()
        assert not report.ok, "the oracle must catch a misrouting broker"
        localized = [d for d in report.divergences if d.first_query is not None]
        assert localized, "divergences should name the first diverging query"
        assert localized[0].first_query["index"] >= 1
        assert "first diverging query" in report.describe()

    def _two_session_results(self, broker_cls):
        runner = toy_runner()
        cases = [runner.case_factory(seed) for seed in (0, 2)]
        classifier = runner.classifier_factory(0)
        broker = broker_cls(classifier)
        manager = SessionManager(broker, max_workers=1)
        try:
            sessions = [
                manager.create(runner.attack_factory(seed), image, true_class, budget=40)
                for seed, (image, true_class) in zip((0, 2), cases)
            ]
            manager.run_cooperative(sessions)
        finally:
            manager.shutdown()
        direct = [
            runner.attack_factory(seed).attack(
                runner.classifier_factory(seed), image, true_class, budget=40
            )
            for seed, (image, true_class) in zip((0, 2), cases)
        ]
        return [session.result for session in sessions], direct

    def test_reversing_broker_crosses_session_wires(self):
        """With two concurrent sessions the cooperative batch has size 2,
        so reversing a flush hands each session the other's scores."""
        served, direct = self._two_session_results(_ReversingBroker)
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
            seeds=range(2), paths=("pooled",), pool_workers=2
        ).run()
        assert report.ok, report.describe()
