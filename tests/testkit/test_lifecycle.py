"""The lifecycle equivalence oracle, and proof that it has teeth."""

import pytest

from repro.attacks.corner_search import CornerSearch, CornerSearchConfig
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.testkit.lifecycle import (
    FlightDroppingBroker,
    LifecycleCell,
    LifecycleEquivalenceRunner,
    cancel_during_flight,
    toy_lifecycle_runner,
)


class TestSweep:
    def test_single_seed_sweep_is_clean(self):
        report = toy_lifecycle_runner(seeds=(1,)).run()
        assert report.ok, report.describe()
        # 1 seed x {direct, broker} x {scalar, batched} x {cancel, expire}
        assert report.cells_run == 8
        assert "zero divergences" in report.describe()

    @pytest.mark.parametrize(
        "attack_factory",
        [
            lambda seed: SparseRS(SparseRSConfig(seed=seed)),
            lambda seed: CornerSearch(CornerSearchConfig(seed=seed)),
        ],
        ids=["sparse-rs", "corner-search"],
    )
    def test_scalar_only_attacks_park_to_budget_k(self, attack_factory):
        """A cancelled or expired Sparse-RS / CornerSearch session carries
        the budget-k result, not an empty one."""
        report = toy_lifecycle_runner(attack_factory=attack_factory).run()
        assert report.ok, report.describe()
        # 4 seeds x {direct, broker} x {scalar, batched} x {cancel, expire}
        assert report.cells_run == 32

    def test_parked_cell_matches_budget_k_exactly(self):
        runner = toy_lifecycle_runner(seeds=(8,))
        cell = LifecycleCell(
            seed=8, path="direct", batched=True, kind="expire", k_target=12
        )
        parked = runner.run_parked(cell)
        assert parked.state == "expired"
        assert parked.queries >= 12
        assert parked.result is not None
        assert parked.result.queries == parked.queries
        golden = runner.run_golden(8, parked.queries)
        assert golden.queries == parked.queries
        assert golden.result.success is False

    def test_unknown_axes_rejected(self):
        with pytest.raises(ValueError):
            toy_lifecycle_runner(seeds=(1,), paths=("direct", "teleport"))
        with pytest.raises(ValueError):
            toy_lifecycle_runner(seeds=(1,), kinds=("cancel", "maybe"))
        with pytest.raises(ValueError):
            toy_lifecycle_runner(seeds=(1,), window=0)

    def test_oracle_catches_a_lying_park(self):
        """A park that misreports its count must surface as a divergence."""
        runner = toy_lifecycle_runner(seeds=(1,), kinds=("cancel",),
                                      paths=("direct",))
        original = LifecycleEquivalenceRunner.run_parked

        def lying_park(self, cell):
            session = original(self, cell)
            session.queries += 1  # off-by-one accounting bug
            return session

        runner.run_parked = lying_park.__get__(runner)
        report = runner.run()
        assert not report.ok
        assert "diverged" in report.describe()


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
