"""repro.testkit: the verification harness for the execution stack.

Built to make aggressive refactoring of the runtime and serving layers
cheap to validate (see DESIGN §9):

- :mod:`~repro.testkit.differential` -- the differential oracle: one
  runner over tables of execution paths (direct, stepped, pooled and
  served; scalar and batched; parked sessions), every cell
  bit-identical to its reference, the first diverging query localized;
- :mod:`~repro.testkit.sharedcache` -- the oracle's shared-L2 table and
  the live two-replica cache smoke;
- :mod:`~repro.testkit.trace` -- golden-trace record/replay: capture
  every query event of an attack run, replay it with zero model forward
  passes, localize the first diverging query;
- :mod:`~repro.testkit.faults` -- deterministic fault-injection
  classifier wrappers (flaky, slow, score-corrupting) driven by seeded
  schedules;
- :mod:`~repro.testkit.matrix` -- the fault matrix proving every fault
  kind degrades gracefully on every execution path;
- :mod:`~repro.testkit.kill` -- the kill-and-resume harnesses: SIGKILL
  a checkpointed campaign or cluster worker mid-run, resume, and assert
  the outcome is bit-identical to an uninterrupted run;
- :mod:`~repro.testkit.generators` -- hypothesis strategies for images,
  budgets, and DSL programs (present only when hypothesis is installed).

The exports below resolve on first use, so ``python -m
repro.testkit.kill`` and ``python -m repro.testkit.sharedcache`` run
their module once, as ``__main__``, instead of importing it first.
"""

import importlib

_EXPORTS = {
    "Axis": "repro.testkit.differential",
    "BATCH": "repro.testkit.differential",
    "Case": "repro.testkit.differential",
    "Cell": "repro.testkit.differential",
    "DifferentialReport": "repro.testkit.differential",
    "DifferentialRunner": "repro.testkit.differential",
    "Divergence": "repro.testkit.differential",
    "FlightDroppingBroker": "repro.testkit.differential",
    "LIFECYCLE": "repro.testkit.differential",
    "PATHS": "repro.testkit.differential",
    "ReorderingBroker": "repro.testkit.differential",
    "Run": "repro.testkit.differential",
    "cancel_during_flight": "repro.testkit.differential",
    "network_runner": "repro.testkit.differential",
    "result_fingerprint": "repro.testkit.differential",
    "results_equal": "repro.testkit.differential",
    "rotating_attack": "repro.testkit.differential",
    "tiny_network_classifier": "repro.testkit.differential",
    "toy_batch_runner": "repro.testkit.differential",
    "toy_lifecycle_runner": "repro.testkit.differential",
    "toy_runner": "repro.testkit.differential",
    "CorruptScoresClassifier": "repro.testkit.faults",
    "FaultSchedule": "repro.testkit.faults",
    "FlakyClassifier": "repro.testkit.faults",
    "InjectedFault": "repro.testkit.faults",
    "InjectedTimeout": "repro.testkit.faults",
    "SlowClassifier": "repro.testkit.faults",
    "kill_and_resume_campaign": "repro.testkit.kill",
    "kill_and_resume_matrix": "repro.testkit.kill",
    "matrix_fingerprint": "repro.testkit.kill",
    "summary_fingerprint": "repro.testkit.kill",
    "toy_campaign": "repro.testkit.kill",
    "toy_matrix_spec": "repro.testkit.kill",
    "DEFAULT_KINDS": "repro.testkit.matrix",
    "DEFAULT_MATRIX_PATHS": "repro.testkit.matrix",
    "FaultCell": "repro.testkit.matrix",
    "run_fault_matrix": "repro.testkit.matrix",
    "InMemorySharedCache": "repro.testkit.sharedcache",
    "L2_MODES": "repro.testkit.sharedcache",
    "live_shared_cache_smoke": "repro.testkit.sharedcache",
    "shared_cache_sweep": "repro.testkit.sharedcache",
    "tiered_broker_factory": "repro.testkit.sharedcache",
    "ReplayClassifier": "repro.testkit.trace",
    "TraceEvent": "repro.testkit.trace",
    "TraceMismatch": "repro.testkit.trace",
    "TraceRecorder": "repro.testkit.trace",
    "TraceVerifier": "repro.testkit.trace",
    "diff_events": "repro.testkit.trace",
    "load_trace": "repro.testkit.trace",
    "pixel_diff": "repro.testkit.trace",
    "replay": "repro.testkit.trace",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
