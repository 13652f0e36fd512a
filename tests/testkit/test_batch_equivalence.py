"""Tests for the differential oracle's batch table (:data:`BATCH`).

The quick sweep (small seed grid, all four execution modes) is tier-1;
the acceptance-grade 20-seed sweep is marked ``slow`` and runs nightly.
The negative control proves the oracle has teeth: a broker that
reorders batched answers MUST be reported, with the first diverging
query localized.
"""

from dataclasses import replace

import pytest

from repro.testkit.differential import (
    BATCH,
    Cell,
    ReorderingBroker,
    toy_batch_runner,
)


def _reordering(classifier, cache):
    return ReorderingBroker(classifier, cache=cache)


#: The batch table's served mode, over the reordering broker.
REORDERING = {
    name: replace(BATCH[name], broker=_reordering)
    for name in ("served+cache/scalar", "served+cache")
}


class TestQuickSweep:
    def test_all_modes_bit_identical(self):
        report = toy_batch_runner(seeds=range(6)).run()
        assert report.ok, report.describe()
        # 6 seeds x 4 modes x {scalar, batched}
        assert report.cells_run == 6 * len(BATCH) == 48

    def test_window_one_and_large_window(self):
        """Degenerate (window=1) and oversized (window > budget)
        speculation both stay bit-identical."""
        for window in (1, 64):
            report = toy_batch_runner(
                seeds=range(3), axes=("stepped", "stepped+cache"), window=window
            ).run()
            assert report.ok, report.describe()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            toy_batch_runner(seeds=[0], axes=("warp",))

    def test_non_positive_window_rejected(self):
        with pytest.raises(ValueError):
            toy_batch_runner(seeds=[0], window=0)


class TestNegativeControl:
    def test_reordering_broker_is_caught(self):
        """A broker that reverses multi-query batches must diverge, and
        the report must localize the first diverging query."""
        report = toy_batch_runner(seeds=range(6), table=REORDERING).run()
        assert not report.ok
        divergence = report.divergences[0]
        assert divergence.cell.axis == "served+cache"  # the batched row
        assert divergence.first_query is not None
        assert "divergence" in divergence.describe()

    def test_reordering_broker_passes_scalar(self):
        """The same broken broker is invisible to scalar stepping --
        exactly why the batched oracle must exist."""
        runner = toy_batch_runner(seeds=range(3), table=REORDERING)
        for seed in range(3):
            run = runner.run_cell(Cell(seed, "served+cache/scalar"))
            assert run.result is not None
            assert run.session.queries == run.result.queries


@pytest.mark.slow
class TestAcceptanceSweep:
    def test_twenty_seed_sweep(self):
        report = toy_batch_runner(seeds=range(20)).run()
        assert report.ok, report.describe()

    def test_tight_budget_sweep(self):
        """Mid-batch truncation across every mode: a budget far below
        what the attacks want forces the exhaustion path everywhere."""
        report = toy_batch_runner(seeds=range(10), budget=7).run()
        assert report.ok, report.describe()
