"""Running an attack over a whole test set and summarizing the outcome.

Every experiment in the paper reduces to "attack each correctly-classified
test image under a budget and aggregate the query counts", so this module
is the shared backbone of Figures 3-4 and Tables 1-2.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.runtime.checkpoint import (
    CheckpointMismatch,
    CheckpointStore,
    as_store,
    campaign_manifest,
    campaign_record,
    load_campaign,
)
from repro.runtime.events import NullRunLog, RunLog, ensure_log
from repro.runtime.pool import WorkerPool, task_seed
from repro.runtime.tasks import AttackTaskResult, AttackTaskRunner

Classifier = Callable[[np.ndarray], np.ndarray]
TestPair = Tuple[np.ndarray, int]


def _json_safe(value: float) -> Optional[float]:
    """Map the infinities our metrics use for "undefined" to ``None``."""
    if math.isinf(value):
        return None
    return value


#: ``to_dict`` keys that carry wall-clock measurements.  Everything else
#: in the dict is a deterministic function of the attack results, so
#: determinism consumers (kill-and-resume fingerprints, differential
#: oracles, golden reports) compare ``to_dict(include_timing=False)``.
TIMING_KEYS = ("attack_seconds", "total_seconds", "avg_seconds_per_image")


@dataclass
class AttackRunSummary:
    """Aggregated results of one attack over one test set.

    ``image_seconds`` holds per-image attack wall time keyed by dataset
    index (missing for images whose timing is unknown, e.g. degraded
    pool tasks); ``total_seconds`` is the wall time of the whole dataset
    run including engine overhead.  Both are measurements, not functions
    of the results -- see :data:`TIMING_KEYS`.
    """

    attack_name: str
    results: List[AttackResult]
    budget: Optional[int]
    image_seconds: Dict[int, float] = field(default_factory=dict)
    total_seconds: Optional[float] = None

    @property
    def total_images(self) -> int:
        return len(self.results)

    @property
    def successes(self) -> int:
        return sum(1 for result in self.results if result.success)

    @property
    def success_rate(self) -> float:
        if not self.results:
            return 0.0
        return self.successes / len(self.results)

    def success_rate_at(self, max_queries: int) -> float:
        """Fraction of images attacked successfully within ``max_queries``.

        This is the quantity Figure 3 plots: an attack run with a large
        budget yields the whole success-rate-versus-budget curve, because
        an image successful at q queries is successful at any q' >= q.
        """
        if not self.results:
            return 0.0
        hits = sum(
            1
            for result in self.results
            if result.success and result.queries <= max_queries
        )
        return hits / len(self.results)

    def success_queries(self) -> List[int]:
        return [result.queries for result in self.results if result.success]

    @property
    def avg_queries(self) -> float:
        """Mean queries over successful attacks (the paper's Avg. #Queries)."""
        queries = self.success_queries()
        if not queries:
            return float("inf")
        return sum(queries) / len(queries)

    @property
    def median_queries(self) -> float:
        queries = self.success_queries()
        if not queries:
            return float("inf")
        return float(statistics.median(queries))

    @property
    def penalized_avg_queries(self) -> float:
        """Mean queries over *all* images, failures at their actual cost.

        Unlike :attr:`avg_queries` (the paper's successes-only metric),
        this is comparable across attacks with *different* success sets:
        an attack that fails often pays the full budget on each failure
        instead of silently dropping those images from its average.  With
        small test sets this is the statistically robust ranking metric.
        """
        if not self.results:
            return float("inf")
        return sum(result.queries for result in self.results) / len(self.results)

    def curve(self, thresholds: Sequence[int]) -> List[float]:
        """Success rate at each query threshold."""
        return [self.success_rate_at(threshold) for threshold in thresholds]

    @property
    def total_queries(self) -> int:
        return sum(result.queries for result in self.results)

    def error_counts(self) -> dict:
        """How many degraded results carry each error tag."""
        counts: dict = {}
        for result in self.results:
            if result.error is not None:
                counts[result.error] = counts.get(result.error, 0) + 1
        return counts

    @property
    def attack_seconds(self) -> Optional[float]:
        """Summed per-image attack wall time; ``None`` when untimed."""
        if not self.image_seconds:
            return None
        return sum(self.image_seconds.values())

    @property
    def avg_seconds_per_image(self) -> Optional[float]:
        """Mean per-image attack wall time over the timed images."""
        if not self.image_seconds:
            return None
        return self.attack_seconds / len(self.image_seconds)

    def to_dict(self, include_timing: bool = True) -> dict:
        """JSON-safe aggregate view (``inf`` averages become ``None``).

        This is the serialization contract shared by
        :class:`~repro.runtime.events.RunLog` events and
        ``benchmarks/collect_results.py``; per-image results are reduced
        to aggregates so the dict stays log-line sized.

        ``include_timing=False`` drops the wall-clock keys
        (:data:`TIMING_KEYS`), leaving a dict that is a deterministic
        function of the results alone -- the form determinism tests and
        resumed-vs-golden comparisons must use, because two runs of the
        same campaign never agree on wall time.
        """
        payload = {
            "attack": self.attack_name,
            "budget": self.budget,
            "total_images": self.total_images,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "avg_queries": _json_safe(self.avg_queries),
            "median_queries": _json_safe(self.median_queries),
            "penalized_avg_queries": _json_safe(self.penalized_avg_queries),
            "total_queries": self.total_queries,
            "errors": self.error_counts(),
        }
        if include_timing:
            payload["attack_seconds"] = self.attack_seconds
            payload["total_seconds"] = self.total_seconds
            payload["avg_seconds_per_image"] = self.avg_seconds_per_image
        return payload


def degraded_result(error_tag: Optional[str], budget: Optional[int]) -> AttackResult:
    """A budget-exhausted failure standing in for a faulted attack.

    This is the single definition of how a lost or faulted attack is
    accounted: a failed :class:`AttackResult` charged the full budget
    (the attacker paid for the queries whether or not an answer came
    back) and tagged with the fault.  The execution engine uses it for
    worker faults and :mod:`repro.testkit` reuses it so fault-injection
    runs degrade with exactly the production semantics.
    """
    return AttackResult(
        success=False,
        queries=budget if budget is not None else 0,
        error=error_tag if error_tag is not None else "unknown",
    )


def _degraded_result(outcome, budget: Optional[int]) -> AttackResult:
    """:func:`degraded_result` for one failed pool ``TaskOutcome``."""
    return degraded_result(
        outcome.error.tag if outcome.error is not None else None, budget
    )


def resume_campaign(
    store: CheckpointStore,
    attack_name: str,
    total_images: int,
    budget: Optional[int],
    base_seed: int,
) -> "Tuple[dict, dict, bool]":
    """Reconcile a checkpoint with this run; completed results by index.

    Writes the manifest on a fresh store and verifies it on an old one
    (:class:`CheckpointMismatch` on disagreement).  Every recorded unit's
    seed is re-derived via :func:`~repro.runtime.pool.task_seed` and
    checked against the record, so a checkpoint written under a
    different ``base_seed`` -- whose units would not reproduce the same
    randomness -- cannot be silently resumed.  Returns the completed
    ``{index: AttackResult}`` map, the recorded ``{index: seconds}``
    timings, and whether a torn tail was dropped.
    """
    store.reconcile_manifest(
        campaign_manifest(attack_name, total_images, budget, base_seed)
    )
    _, completed, seeds, seconds, truncated = load_campaign(store)
    for index, seed in seeds.items():
        if index < 0 or index >= total_images:
            raise CheckpointMismatch(
                f"checkpoint records image index {index}, outside the "
                f"{total_images}-image campaign"
            )
        if seed != task_seed(base_seed, index):
            raise CheckpointMismatch(
                f"checkpoint seed for image {index} does not re-derive from "
                f"base_seed={base_seed}; refusing to resume"
            )
    return completed, seconds, truncated


def attack_dataset(
    attack: OnePixelAttack,
    classifier: Classifier,
    test_pairs: Sequence[TestPair],
    budget: Optional[int] = None,
    executor: Optional[WorkerPool] = None,
    run_log: Optional[RunLog] = None,
    cache_size: Optional[int] = None,
    checkpoint: Optional[CheckpointStore] = None,
    base_seed: int = 0,
    step_batch: Optional[int] = None,
) -> AttackRunSummary:
    """Attack every (image, true_class) pair and collect the results.

    Each image is one call of an
    :class:`~repro.runtime.tasks.AttackTaskRunner`: in this process
    without an executor, shipped to the pool's workers with one.  Both
    paths settle the same per-image envelopes, so they record, time and
    count cache hits alike.

    Parameters
    ----------
    executor:
        A :class:`~repro.runtime.pool.WorkerPool` to fan the per-image
        attacks out across processes.  Results are returned in dataset
        order and are bit-identical to the sequential path; a task lost
        to a worker fault is recorded as a failed
        :class:`AttackResult` at full budget with an error tag.
    run_log:
        Structured telemetry sink; defaults to the executor's log.
    cache_size:
        If set, wrap the classifier in a bounded LRU
        :class:`~repro.runtime.cache.CachedClassifier` *inside* the
        attack's counting boundary -- repeated forward passes are served
        from memory while reported query counts stay paper-faithful
        (see :mod:`repro.runtime.cache`).  ``0`` and ``None`` both mean
        "no cache"; negative sizes raise here rather than inside a
        worker.  A zoo classifier keeps a cache of its scalar answers
        of its own, beneath this one.  With a cache, one ``cache_stats``
        event (``hits``, ``misses``, ``hit_rate``) sums the run's
        per-image counts on either path.
    checkpoint:
        A :class:`~repro.runtime.checkpoint.CheckpointStore` (or a
        directory path) recording each completed per-image result as a
        durable record.  When the store already holds records from an
        interrupted run of the *same* campaign, those units are skipped
        and their recorded results merged back in dataset order, so the
        resumed summary is bit-identical to an uninterrupted run (each
        per-image attack re-derives its randomness from its own seed,
        never from position in the run).  Restored units are re-emitted
        to ``run_log`` as ``attack_result`` events tagged
        ``replayed=True`` so downstream telemetry readers still see one
        event per image.
    base_seed:
        Campaign-level seed recorded per unit via
        :func:`~repro.runtime.pool.task_seed` and verified on resume.
    step_batch:
        Batch-native stepping window applied to the attack (``None``
        keeps the attack's own default, ``0`` pins the legacy scalar
        protocol, ``N > 0`` speculates up to N queries per forward
        pass).  Query counts and the consumed query order are identical
        on every path.  Scores are bit-identical only for classifiers
        scored per image: a network's native batch forward differs from
        its scalar forward in the last ulps (DESIGN §17).
        The win is latency.
    """
    # built before the checkpoint is touched: a negative cache size
    # raises here, before any write
    runner = AttackTaskRunner(
        attack,
        classifier,
        budget=budget,
        cache_size=cache_size,
        step_batch=step_batch,
    )
    if run_log is None and executor is not None:
        if not isinstance(executor.run_log, NullRunLog):
            run_log = executor.run_log
    log = ensure_log(run_log)

    run_started = time.perf_counter()
    store = as_store(checkpoint)
    completed: dict = {}
    image_seconds: Dict[int, float] = {}
    if store is not None:
        completed, image_seconds, truncated = resume_campaign(
            store, attack.name, len(test_pairs), budget, base_seed
        )
        if completed or truncated:
            log.emit(
                "campaign_resume",
                attack=attack.name,
                total=len(test_pairs),
                completed=len(completed),
                remaining=len(test_pairs) - len(completed),
                truncated=truncated,
                replayed_queries=0,
            )
            for index in sorted(completed):
                restored = completed[index]
                log.emit(
                    "attack_result",
                    index=index,
                    success=restored.success,
                    queries=restored.queries,
                    error=restored.error,
                    replayed=True,
                )
    pending = [index for index in range(len(test_pairs)) if index not in completed]

    if executor is None:
        envelopes = ((index, runner(test_pairs[index])) for index in pending)
    else:
        outcomes = executor.map(
            runner,
            [test_pairs[index] for index in pending],
            task_name=f"attack:{attack.name}",
        )
        envelopes = (
            (
                pending[outcome.index],
                outcome.value
                if outcome.ok
                else AttackTaskResult(_degraded_result(outcome, budget)),
            )
            for outcome in outcomes
        )
    hits = misses = 0
    for index, envelope in envelopes:
        result, seconds = envelope.result, envelope.seconds
        # Write-ahead of the in-memory merge: the unit is durable before
        # the run acknowledges it.  In-process the generator runs one
        # image per step, so a crash between images loses nothing; under
        # an executor the records are written when ``executor.map``
        # returns, so a crash mid-map re-runs that map's images.
        if store is not None:
            store.append(
                campaign_record(
                    index, task_seed(base_seed, index), result, seconds=seconds
                )
            )
        completed[index] = result
        if seconds is not None:
            image_seconds[index] = seconds
        hits += envelope.cache_hits
        misses += envelope.cache_misses
        log.emit(
            "attack_result",
            index=index,
            success=result.success,
            queries=result.queries,
            error=result.error,
            seconds=seconds,
        )
    cache_stats = None
    if runner.cache_size is not None:
        total = hits + misses
        cache_stats = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }
        log.emit("cache_stats", **cache_stats)

    results = [completed[index] for index in range(len(test_pairs))]
    summary = AttackRunSummary(
        attack_name=attack.name,
        results=results,
        budget=budget,
        image_seconds=image_seconds,
        total_seconds=time.perf_counter() - run_started,
    )
    log.emit("attack_summary", cache=cache_stats, **summary.to_dict())
    return summary
