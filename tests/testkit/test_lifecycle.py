"""The differential oracle's lifecycle table, and proof that it has teeth."""

import json

import pytest

from repro.attacks.corner_search import CornerSearch, CornerSearchConfig
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.testkit.differential import (
    LIFECYCLE,
    Axis,
    Cell,
    DifferentialRunner,
    FlightDroppingBroker,
    cancel_during_flight,
    results_equal,
    toy_lifecycle_runner,
)
from repro.testkit.kill import HARD_IMAGE_SEEDS, cancelled_result_exact


class TestSweep:
    def test_single_seed_sweep_is_clean(self):
        report = toy_lifecycle_runner(seeds=(1,)).run()
        assert report.ok, report.describe()
        # 1 seed x cache {off, on} x {scalar, batched} x {cancel, expire}
        assert report.cells_run == len(LIFECYCLE) == 8
        assert "zero divergences" in report.describe()

    @pytest.mark.parametrize(
        "attack_factory",
        [
            lambda seed: SparseRS(SparseRSConfig(seed=seed)),
            lambda seed: CornerSearch(CornerSearchConfig(seed=seed)),
        ],
        ids=["sparse-rs", "corner-search"],
    )
    def test_sparse_rs_and_corner_search_park_to_budget_k(self, attack_factory):
        """A cancelled or expired Sparse-RS / CornerSearch session carries
        the budget-k result, not an empty one."""
        report = toy_lifecycle_runner(attack_factory=attack_factory).run()
        assert report.ok, report.describe()
        # 4 seeds x cache {off, on} x {scalar, batched} x {cancel, expire}
        assert report.cells_run == 32

    def test_parked_cell_matches_budget_k_exactly(self):
        """Seed 8's observer sets the verdict once 7 + 8 % 40 = 15
        queries are charged; ``drive`` parks the session at the next
        boundary with a result bit-identical to the budget-k run."""
        runner = toy_lifecycle_runner(seeds=(8,))
        parked = runner.run_cell(Cell(8, "served/batched/expire")).session
        assert parked.state == "expired"
        assert parked.queries >= 15
        assert parked.result is not None
        assert parked.result.queries == parked.queries
        reference = runner.budget_k(8, parked.queries)
        assert sum(event.counted for event in reference.events) == parked.queries
        assert reference.result.success is False
        assert results_equal(parked.result, reference.result)

    def test_unknown_axes_rejected(self):
        with pytest.raises(ValueError):
            toy_lifecycle_runner(seeds=(1,), axes=("served/scalar/teleport",))
        with pytest.raises(ValueError):
            Axis("served", park="maybe")
        with pytest.raises(ValueError):
            toy_lifecycle_runner(seeds=(1,), window=0)

    def test_oracle_catches_a_lying_park(self):
        """A park that misreports its count must surface as a divergence."""
        runner = toy_lifecycle_runner(seeds=(1,), axes=("served/scalar/cancel",))

        def lying_park(cell):
            run = DifferentialRunner.run_cell(runner, cell)
            run.session.queries += 1  # off-by-one accounting bug
            return run

        runner.run_cell = lying_park
        report = runner.run()
        assert not report.ok
        assert "diverged" in report.describe()


class TestCancelledResultExact:
    """The cluster harness compares a cancelled session's whole wire
    result, not just its count, with the budget-k run."""

    def _wire(self):
        seed = HARD_IMAGE_SEEDS[0]
        runner = toy_lifecycle_runner(seeds=(seed,))
        session = runner.run_cell(Cell(seed, "served/scalar/cancel")).session
        assert session.state == "cancelled"
        return seed, json.loads(json.dumps(session.to_dict()["result"]))

    def test_honest_payload_passes(self):
        seed, wire = self._wire()
        assert cancelled_result_exact(wire, seed)

    @pytest.mark.parametrize(
        "field, value",
        [("success", True), ("location", [0, 0])],
        ids=["success", "location"],
    )
    def test_right_count_wrong_content_is_refused(self, field, value):
        seed, wire = self._wire()
        assert wire[field] != value
        assert not cancelled_result_exact({**wire, field: value}, seed)

    def test_missing_result_is_refused(self):
        assert not cancelled_result_exact(None, HARD_IMAGE_SEEDS[0])


@pytest.mark.slow
class TestCancelDuringFlight:
    def test_cobatched_survivor_settles_with_golden_count(self):
        verdict = cancel_during_flight()
        assert verdict["settled"], verdict
        assert verdict["survivor_queries"] == verdict["survivor_golden"]
        assert verdict["cancelled_state"] == "cancelled"
        assert verdict["cancelled_exact"], verdict

    def test_flight_dropping_broker_is_caught(self):
        """Negative control: a broker that drops flights after a
        cancellation must poison the co-batched session visibly."""
        verdict = cancel_during_flight(
            broker_cls=FlightDroppingBroker, drop_on_cancel=True
        )
        assert not verdict["settled"], verdict
