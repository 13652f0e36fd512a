"""Differential lifecycle oracle: cancelled/expired == budget-k.

Session lifecycle control (DESIGN §16) parks a session at a query
boundary by throwing
:class:`~repro.classifier.blackbox.QueryBudgetExceeded` into its attack
generator -- the *same* exception, at the same program point, a
:class:`~repro.core.stepping.StepCounter` raises when a budget runs
dry.  The fidelity claim is therefore differential: a session cancelled
or expired after ``k`` charged queries must report **exactly** ``k``
and carry an :class:`~repro.attacks.base.AttackResult` bit-identical to
a fresh budget-``k`` scalar run of the same attack (same degraded
result, same perturbation state, same error).  This module checks that
claim the way :mod:`repro.testkit.batching` checks batch equivalence:
exhaustively, over a grid of

``seeds x {scalar, batched} stepping x {direct, broker} paths x
{cancel, expire} verdicts``

using the HARD_IMAGE_SEEDS cases (deterministic 288-query runs that
never succeed, so the park point is never racing a success).  The
cluster path of the same invariant is exercised end-to-end by
:func:`repro.testkit.kill.cancel_and_kill_cluster`, which DELETEs a
session on a real tier and compares the parked count against a local
budget-``k`` run.

:func:`cancel_during_flight` covers the concurrency half of the
tentpole: cancellation racing a mid-flight ``submit_many`` batch must
leave co-batched sessions untouched (they still finish with their
golden query counts).  :class:`FlightDroppingBroker` is its negative
control -- a broker that abandons flights after a cancellation MUST be
caught as poisoning, or the check has no teeth.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stepping import QueryBatch
from repro.runtime.cache import QueryCache
from repro.serve.broker import BrokerStopped, MicroBatchBroker
from repro.serve.sessions import (
    CANCELLED,
    DONE,
    EXPIRED,
    AttackSession,
    SessionManager,
)
from repro.testkit.differential import DEFAULT_CACHE_SIZE, result_fingerprint

#: Drive paths the parked session is swept through.
PATH_DIRECT = "direct"
PATH_BROKER = "broker"
DEFAULT_LIFECYCLE_PATHS = (PATH_DIRECT, PATH_BROKER)

#: Park verdicts under test.
KIND_CANCEL = "cancel"
KIND_EXPIRE = "expire"
DEFAULT_LIFECYCLE_KINDS = (KIND_CANCEL, KIND_EXPIRE)


@dataclass(frozen=True)
class LifecycleCell:
    """One point of the sweep grid."""

    seed: int
    path: str
    batched: bool
    kind: str
    k_target: int

    def label(self) -> str:
        stepping = "batched" if self.batched else "scalar"
        return (
            f"seed={self.seed} path={self.path} {stepping} "
            f"{self.kind}@{self.k_target}"
        )


@dataclass
class LifecycleDivergence:
    """One parked cell that disagreed with its budget-k golden run."""

    cell: LifecycleCell
    golden: Tuple
    observed: Tuple
    detail: Optional[str] = None

    def describe(self) -> str:
        lines = [
            f"lifecycle divergence at {self.cell.label()}:",
            f"  budget-k golden: {self.golden}",
            f"  parked session:  {self.observed}",
        ]
        if self.detail is not None:
            lines.append(f"  detail: {self.detail}")
        return "\n".join(lines)


@dataclass
class LifecycleReport:
    """Everything a sweep learned."""

    cells_run: int = 0
    seeds: int = 0
    divergences: List[LifecycleDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        if self.ok:
            return (
                f"lifecycle sweep OK: {self.cells_run} cells over "
                f"{self.seeds} seeds, zero divergences"
            )
        body = "\n".join(d.describe() for d in self.divergences)
        return (
            f"lifecycle sweep FAILED: {len(self.divergences)} of "
            f"{self.cells_run} cells diverged\n{body}"
        )


class _DirectScorer:
    """The bare-classifier drive path (no broker, no threads)."""

    def __init__(self, classifier):
        self.classifier = classifier

    def submit(self, image: np.ndarray) -> np.ndarray:
        return self.classifier(image)

    def submit_many(self, images: Sequence[np.ndarray]) -> List[np.ndarray]:
        return [self.classifier(image) for image in images]

    def close(self) -> None:
        pass


class _BrokerScorer:
    """The serving drive path: a started micro-batch broker."""

    def __init__(self, classifier, cache_size: int):
        self.broker = MicroBatchBroker(
            classifier, cache=QueryCache(cache_size)
        )
        self.broker.start()

    def submit(self, image: np.ndarray) -> np.ndarray:
        return self.broker.submit(image)

    def submit_many(self, images: Sequence[np.ndarray]) -> List[np.ndarray]:
        return self.broker.submit_many(images)

    def close(self) -> None:
        self.broker.stop()


class LifecycleEquivalenceRunner:
    """Sweep the park-at-boundary invariant across the lifecycle grid.

    Each cell drives an :class:`AttackSession` with the same boundary
    checks as :meth:`SessionManager.drive`, triggers its verdict
    (``cancel``: the DELETE flag; ``expire``: a deadline already in the
    past) once at least ``k_target`` queries are charged, parks it, and
    compares the parked result fingerprint against a fresh scalar
    session of the same attack driven under ``budget=k`` where ``k`` is
    the exact charged count at the park boundary.  The factories follow
    :class:`~repro.testkit.batching.BatchEquivalenceRunner`.
    """

    def __init__(
        self,
        attack_factory: Callable[[int], object],
        classifier_factory: Callable[[int], Callable],
        case_factory: Callable[[int], np.ndarray],
        seeds: Iterable[int],
        k_target: Callable[[int], int] = lambda seed: 7 + (seed % 40),
        budget: Optional[int] = None,
        paths: Sequence[str] = DEFAULT_LIFECYCLE_PATHS,
        kinds: Sequence[str] = DEFAULT_LIFECYCLE_KINDS,
        window: int = 5,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        unknown = set(paths) - set(DEFAULT_LIFECYCLE_PATHS)
        if unknown:
            raise ValueError(f"unknown drive paths: {sorted(unknown)}")
        unknown = set(kinds) - set(DEFAULT_LIFECYCLE_KINDS)
        if unknown:
            raise ValueError(f"unknown park kinds: {sorted(unknown)}")
        if window <= 0:
            raise ValueError("window must be a positive batch size")
        self.attack_factory = attack_factory
        self.classifier_factory = classifier_factory
        self.case_factory = case_factory
        self.seeds = list(seeds)
        self.k_target = k_target
        self.budget = budget
        self.paths = tuple(paths)
        self.kinds = tuple(kinds)
        self.window = window
        self.cache_size = cache_size

    # -- cell execution ------------------------------------------------------

    def _case(self, seed: int):
        classifier = self.classifier_factory(seed)
        image = np.asarray(self.case_factory(seed))
        true_class = int(np.argmax(classifier(image)))
        return classifier, image, true_class

    def run_parked(self, cell: LifecycleCell) -> AttackSession:
        """Drive one session to its park boundary and park it there."""
        classifier, image, true_class = self._case(cell.seed)
        session = AttackSession(
            f"lc-{cell.seed}",
            self.attack_factory(cell.seed),
            image,
            true_class,
            budget=self.budget,
            batch_size=self.window if cell.batched else 0,
        )
        scorer = (
            _BrokerScorer(classifier, self.cache_size)
            if cell.path == PATH_BROKER
            else _DirectScorer(classifier)
        )
        try:
            request = session.start()
            while request is not None:
                # the same per-boundary check SessionManager.drive runs
                if session.queries >= cell.k_target:
                    if cell.kind == KIND_CANCEL:
                        session.request_cancel()
                    else:
                        session.deadline_at = time.monotonic() - 1.0
                    verdict = session.lifecycle_verdict()
                    session.park(verdict)
                    break
                if isinstance(request, QueryBatch):
                    scores = scorer.submit_many(request.images())
                else:
                    scores = scorer.submit(request.image)
                request = session.advance(scores)
        finally:
            scorer.close()
        return session

    def run_golden(self, seed: int, k: int) -> AttackSession:
        """A fresh scalar session of the same attack under ``budget=k``."""
        classifier, image, true_class = self._case(seed)
        session = AttackSession(
            f"golden-{seed}",
            self.attack_factory(seed),
            image,
            true_class,
            budget=k,
            batch_size=0,
        )
        request = session.start()
        while request is not None:
            request = session.advance(classifier(request.image))
        return session

    # -- the sweep -----------------------------------------------------------

    def run(self) -> LifecycleReport:
        report = LifecycleReport(seeds=len(self.seeds))
        expected_state = {KIND_CANCEL: CANCELLED, KIND_EXPIRE: EXPIRED}
        for seed in self.seeds:
            for path in self.paths:
                for batched in (False, True):
                    for kind in self.kinds:
                        cell = LifecycleCell(
                            seed=seed,
                            path=path,
                            batched=batched,
                            kind=kind,
                            k_target=self.k_target(seed),
                        )
                        report.cells_run += 1
                        parked = self.run_parked(cell)
                        problems = []
                        if parked.state != expected_state[kind]:
                            problems.append(
                                f"parked into {parked.state!r}, expected "
                                f"{expected_state[kind]!r}"
                            )
                        observed_k = parked.queries
                        if (
                            parked.result is not None
                            and parked.result.queries != observed_k
                        ):
                            problems.append(
                                f"session counted {observed_k} queries but "
                                f"its result reports {parked.result.queries}"
                            )
                        golden = self.run_golden(seed, observed_k)
                        golden_print = result_fingerprint(golden.result)
                        observed_print = result_fingerprint(parked.result)
                        if golden.queries != observed_k:
                            problems.append(
                                f"budget-{observed_k} golden charged "
                                f"{golden.queries} queries"
                            )
                        if observed_print == golden_print and not problems:
                            continue
                        report.divergences.append(
                            LifecycleDivergence(
                                cell=cell,
                                golden=golden_print,
                                observed=observed_print,
                                detail=(
                                    "; ".join(problems) if problems else None
                                ),
                            )
                        )
        return report


def toy_lifecycle_runner(
    seeds: Iterable[int] = (1, 8, 20, 26),
    budget: int = 100000,
    attack_factory: Optional[Callable[[int], object]] = None,
    **kwargs,
) -> LifecycleEquivalenceRunner:
    """The standard lifecycle sweep used by CI and the nightly.

    Every seed names a HARD_IMAGE_SEEDS case: a 6x6 image the
    fixed-sketch attack deterministically probes for 288 queries against
    the seed-1 three-class toy model without ever succeeding -- so every
    park boundary is reachable and never racing a success at exactly
    ``k`` (the one inherently ambiguous boundary, documented in
    :meth:`~repro.serve.sessions.AttackSession.park`).

    ``attack_factory`` (``seed -> attack``) defaults to the fixed
    sketch.  Any attack that only writes RGB corners -- Sparse-RS,
    CornerSearch -- keeps that guarantee, since these images resist all
    288 corner pairs.
    """
    from repro.attacks.fixed_sketch import FixedSketchAttack
    from repro.classifier.toy import SmoothLinearClassifier

    def classifier_factory(seed: int):
        return SmoothLinearClassifier(
            image_shape=(6, 6, 3), num_classes=3, seed=1
        )

    def case_factory(seed: int):
        return np.random.default_rng(seed).random((6, 6, 3))

    return LifecycleEquivalenceRunner(
        attack_factory or (lambda seed: FixedSketchAttack()),
        classifier_factory,
        case_factory,
        seeds=seeds,
        budget=budget,
        **kwargs,
    )


# ----------------------------------------------------------------------
# cancellation racing a mid-flight broker batch
# ----------------------------------------------------------------------


class FlightDroppingBroker(MicroBatchBroker):
    """Negative control: abandon every flight once :attr:`drop` is set.

    Models the bug class the co-batch settlement check exists to catch:
    a cancellation path that tears down broker work other sessions are
    riding on.  After ``drop.set()`` every evaluation raises, so any
    co-batched session fails instead of settling -- a harness that does
    not flag that as poisoning is not checking anything.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.drop = threading.Event()

    def evaluate(self, images):
        if self.drop.is_set():
            raise BrokerStopped("flight dropped after cancellation")
        return super().evaluate(images)


def cancel_during_flight(
    broker_cls=MicroBatchBroker,
    drop_on_cancel: bool = False,
    progress_queries: int = 5,
    timeout: float = 60.0,
) -> Dict:
    """Cancel one of two co-batched sessions mid-flight; both must settle.

    Two deterministic HARD_IMAGE_SEEDS sessions (288 golden queries
    each) run concurrently over one broker with a latency-padded
    classifier, so their queries genuinely co-batch.  Once session A has
    charged at least ``progress_queries``, it is cancelled (and, for the
    negative control, the broker starts dropping flights).  Returns::

        {
            "cancelled_state":   A's terminal state,
            "cancelled_queries": A's charged count at the park boundary,
            "cancelled_exact":   A's parked result == budget-k golden,
            "survivor_state":    B's terminal state,
            "survivor_queries":  B's final count,
            "survivor_golden":   288,
            "settled":           B finished with the golden count,
        }

    The positive check asserts ``settled`` and ``cancelled_exact``; the
    negative control (``broker_cls=FlightDroppingBroker,
    drop_on_cancel=True``) asserts ``settled`` is False.
    """
    from repro.classifier.toy import SmoothLinearClassifier
    from repro.serve.server import PerImageLatencyClassifier
    from repro.testkit.kill import HARD_IMAGE_SEEDS

    classifier = PerImageLatencyClassifier(
        SmoothLinearClassifier(image_shape=(6, 6, 3), num_classes=3, seed=1),
        latency=0.002,
    )
    broker = broker_cls(classifier, cache=None)
    broker.start()
    manager = SessionManager(broker, max_workers=4)
    try:
        from repro.attacks.fixed_sketch import FixedSketchAttack

        sessions = []
        for image_seed in HARD_IMAGE_SEEDS[:2]:
            image = np.random.default_rng(image_seed).random((6, 6, 3))
            sessions.append(
                manager.create(
                    FixedSketchAttack(),
                    image,
                    int(np.argmax(classifier(image))),
                    budget=100000,
                )
            )
        victim, survivor = sessions
        futures = [manager.start(session) for session in sessions]
        deadline = time.monotonic() + timeout
        while victim.queries < progress_queries:
            if time.monotonic() > deadline:
                raise TimeoutError("victim session made no progress")
            time.sleep(0.005)
        victim.request_cancel()
        if drop_on_cancel and hasattr(broker, "drop"):
            broker.drop.set()
        for future in futures:
            future.result(timeout=timeout)
    finally:
        manager.shutdown()
        broker.stop()

    cancelled_exact = False
    if victim.result is not None:
        golden = toy_lifecycle_runner().run_golden(
            HARD_IMAGE_SEEDS[0], victim.queries
        )
        cancelled_exact = result_fingerprint(
            victim.result
        ) == result_fingerprint(golden.result)
    survivor_queries = (
        survivor.result.queries if survivor.result is not None else None
    )
    return {
        "cancelled_state": victim.state,
        "cancelled_queries": victim.queries,
        "cancelled_exact": cancelled_exact,
        "survivor_state": survivor.state,
        "survivor_queries": survivor_queries,
        "survivor_golden": 288,
        "settled": survivor.state == DONE and survivor_queries == 288,
    }
