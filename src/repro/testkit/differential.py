"""Differential oracles: prove the execution paths bit-identical.

The repo runs every attack through several supposedly equivalent paths:

- ``direct``  -- the classic ``attack(classifier, ...)`` call;
- ``stepped`` -- the generator protocol driven by
  :func:`~repro.core.stepping.drive_steps`;
- ``pooled``  -- the :class:`~repro.runtime.pool.WorkerPool` engine via
  :class:`~repro.runtime.tasks.AttackTaskRunner`;
- ``served``  -- an :class:`~repro.serve.sessions.AttackSession` over a
  :class:`~repro.serve.broker.MicroBatchBroker`.

Their equivalence is the foundation the query-count reproduction stands
on (a silent divergence in counting or queue ordering corrupts the
paper's headline metric), so :class:`DifferentialRunner` checks it
*exhaustively*: a sweep over N seeds x paths x {cache on, cache off}
asserting a bit-identical :class:`~repro.attacks.base.AttackResult` in
every cell, and -- because "the final result differs" is a terrible
debugging starting point -- reporting the **first diverging query
event** (via golden traces) whenever a cell disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import AttackResult
from repro.core.stepping import drive_steps
from repro.runtime.cache import CachedClassifier, QueryCache
from repro.runtime.pool import WorkerPool
from repro.runtime.tasks import AttackTaskRunner
from repro.serve.broker import MicroBatchBroker
from repro.serve.sessions import SessionManager
from repro.testkit.trace import TraceEvent, TraceRecorder, diff_events

#: All execution paths the oracle knows how to drive.
PATH_DIRECT = "direct"
PATH_STEPPED = "stepped"
PATH_POOLED = "pooled"
PATH_SERVED = "served"
DEFAULT_PATHS = (PATH_DIRECT, PATH_STEPPED, PATH_POOLED, PATH_SERVED)

#: Default in-cell query cache size (big enough never to evict in tests,
#: so cached cells exercise hits rather than churn).
DEFAULT_CACHE_SIZE = 1024


def result_fingerprint(result: Optional[AttackResult]) -> Tuple:
    """An exact, hashable identity of an :class:`AttackResult`.

    Arrays are reduced to ``(dtype, shape, bytes)`` so comparison is
    bit-for-bit, not approximate.  ``None`` (a path that produced no
    result, e.g. a failed session) fingerprints distinctly.
    """
    if result is None:
        return ("<no result>",)
    if result.perturbation is None:
        perturbation = None
    else:
        array = np.asarray(result.perturbation)
        perturbation = (str(array.dtype), array.shape, array.tobytes())
    return (
        result.success,
        result.queries,
        None if result.location is None else tuple(result.location),
        perturbation,
        result.adversarial_class,
        result.error,
    )


def results_equal(a: Optional[AttackResult], b: Optional[AttackResult]) -> bool:
    """Bit-identical equality of two attack results."""
    return result_fingerprint(a) == result_fingerprint(b)


@dataclass(frozen=True)
class Cell:
    """One point of the sweep grid."""

    seed: int
    path: str
    cached: bool

    def label(self) -> str:
        cache = "cache" if self.cached else "nocache"
        return f"seed={self.seed} path={self.path} {cache}"


@dataclass
class Divergence:
    """One cell that disagreed with its seed's baseline."""

    cell: Cell
    baseline: Tuple
    observed: Tuple
    first_query: Optional[Dict] = None  # from trace.diff_events, if traceable

    def describe(self) -> str:
        lines = [
            f"divergence at {self.cell.label()}:",
            f"  baseline result: {self.baseline}",
            f"  observed result: {self.observed}",
        ]
        if self.first_query is not None:
            lines.append(f"  first diverging query: {self.first_query}")
        return "\n".join(lines)


@dataclass
class DifferentialReport:
    """Everything a sweep learned."""

    cells_run: int = 0
    seeds: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        if self.ok:
            return (
                f"differential sweep OK: {self.cells_run} cells over "
                f"{self.seeds} seeds, zero divergences"
            )
        body = "\n".join(d.describe() for d in self.divergences)
        return (
            f"differential sweep FAILED: {len(self.divergences)} of "
            f"{self.cells_run} cells diverged\n{body}"
        )


class _TracingClassifier:
    """Forward queries, reporting ``(image, scores)`` to a recorder.

    The classifier-level trace hook for paths that do not expose the
    steppable protocol to the oracle (``direct``, inline ``pooled``):
    every logical query is recorded as counted, which is fine for
    divergence *localization* (digests and scores are compared, counted
    flags are not -- see :func:`~repro.testkit.trace.diff_events`).
    """

    def __init__(self, classifier, recorder: TraceRecorder):
        self._classifier = classifier
        self._recorder = recorder

    def __call__(self, image: np.ndarray) -> np.ndarray:
        scores = self._classifier(image)
        self._recorder(image, scores)
        return scores


class DifferentialRunner:
    """Sweep seeds x execution paths x cache modes and compare results.

    Parameters
    ----------
    attack_factory:
        ``seed -> OnePixelAttack``.  Called once per cell so no attack
        instance state can leak between cells.
    classifier_factory:
        ``seed -> classifier``.  Must return a *deterministic*
        classifier; a fresh instance per cell keeps cells independent.
    case_factory:
        ``seed -> (image, true_class)``.
    seeds:
        The seed sweep; acceptance-grade runs use at least 20.
    budget:
        Query budget applied in every cell.
    paths / cache_modes:
        The grid axes; defaults cover all four paths, cache off and on.
    pool_workers:
        Worker processes for the ``pooled`` path.  The default ``0``
        runs the engine inline (same code path minus process transport)
        which is what CI sweeps use for speed; nightly runs set 2.
    broker_factory:
        ``(classifier, cache) -> MicroBatchBroker`` override for the
        ``served`` path.  Exists so negative tests can substitute a
        deliberately broken broker and prove the oracle catches it.
    """

    def __init__(
        self,
        attack_factory: Callable[[int], object],
        classifier_factory: Callable[[int], Callable],
        case_factory: Callable[[int], Tuple[np.ndarray, int]],
        seeds: Iterable[int],
        budget: Optional[int] = None,
        paths: Sequence[str] = DEFAULT_PATHS,
        cache_modes: Sequence[bool] = (False, True),
        pool_workers: int = 0,
        broker_factory: Optional[Callable] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        unknown = set(paths) - set(DEFAULT_PATHS)
        if unknown:
            raise ValueError(f"unknown execution paths: {sorted(unknown)}")
        self.attack_factory = attack_factory
        self.classifier_factory = classifier_factory
        self.case_factory = case_factory
        self.seeds = list(seeds)
        self.budget = budget
        self.paths = tuple(paths)
        self.cache_modes = tuple(cache_modes)
        self.pool_workers = pool_workers
        self.broker_factory = broker_factory
        self.cache_size = cache_size

    # -- cell execution ----------------------------------------------------

    def run_cell(
        self, cell: Cell
    ) -> Tuple[Optional[AttackResult], List[TraceEvent]]:
        """Execute one grid cell: ``(result, trace_events)``.

        Public so targeted tests can compare single cells *across*
        runners -- e.g. the inference-fast-path acceptance test runs the
        stepped baseline of a frozen-classifier runner against the same
        cell of an unfrozen runner and asserts decision-identity.
        """
        return self._run_cell(cell)

    def _run_cell(
        self, cell: Cell
    ) -> Tuple[Optional[AttackResult], List[TraceEvent]]:
        attack = self.attack_factory(cell.seed)
        classifier = self.classifier_factory(cell.seed)
        image, true_class = self.case_factory(cell.seed)
        recorder = TraceRecorder(clean_image=image)

        if cell.path == PATH_SERVED:
            return self._run_served(cell, attack, classifier, image, true_class)

        if cell.cached and cell.path in (PATH_DIRECT, PATH_STEPPED):
            # inside the attack's counting boundary, like the engine does
            classifier = CachedClassifier(classifier, maxsize=self.cache_size)

        if cell.path == PATH_DIRECT:
            traced = _TracingClassifier(classifier, recorder)
            result = attack.attack(traced, image, true_class, budget=self.budget)
        elif cell.path == PATH_STEPPED:
            result = drive_steps(
                attack.steps(image, true_class, budget=self.budget),
                classifier,
                observer=recorder,
            )
        elif cell.path == PATH_POOLED:
            result = self._run_pooled(
                cell, attack, classifier, image, true_class, recorder
            )
        else:  # pragma: no cover - guarded in __init__
            raise ValueError(f"unknown path {cell.path}")
        return result, recorder.events

    def _run_pooled(self, cell, attack, classifier, image, true_class, recorder):
        if self.pool_workers == 0:
            # inline engine: the tracing wrapper stays in-process
            classifier = _TracingClassifier(classifier, recorder)
        runner = AttackTaskRunner(
            attack,
            classifier,
            budget=self.budget,
            cache_size=self.cache_size if cell.cached else None,
        )
        pool = WorkerPool(workers=self.pool_workers)
        outcomes = pool.map(
            runner, [(image, true_class)], task_name=f"diff:{cell.label()}"
        )
        outcome = outcomes[0]
        if not outcome.ok:
            return None
        return outcome.value.result

    def _run_served(self, cell, attack, classifier, image, true_class):
        cache = QueryCache(self.cache_size) if cell.cached else None
        if self.broker_factory is not None:
            broker = self.broker_factory(classifier, cache)
        else:
            broker = MicroBatchBroker(classifier, cache=cache)
        recorder = TraceRecorder(clean_image=image)
        manager = SessionManager(broker, max_workers=1)
        try:
            session = manager.create(
                attack, image, true_class, budget=self.budget, observer=recorder
            )
            manager.run_cooperative([session])
        finally:
            manager.shutdown()
        return session.result, recorder.events

    # -- the sweep ---------------------------------------------------------

    def run(self) -> DifferentialReport:
        """Execute the full grid; every cell is compared to its seed's
        baseline (the uncached ``stepped`` path, the thinnest driver)."""
        report = DifferentialReport(seeds=len(self.seeds))
        for seed in self.seeds:
            baseline_cell = Cell(seed=seed, path=PATH_STEPPED, cached=False)
            baseline_result, baseline_trace = self._run_cell(baseline_cell)
            report.cells_run += 1
            baseline_print = result_fingerprint(baseline_result)
            for path in self.paths:
                for cached in self.cache_modes:
                    cell = Cell(seed=seed, path=path, cached=cached)
                    if cell == baseline_cell:
                        continue
                    result, trace = self._run_cell(cell)
                    report.cells_run += 1
                    observed = result_fingerprint(result)
                    if observed == baseline_print:
                        continue
                    first = None
                    if trace:
                        first = diff_events(baseline_trace, trace)
                    report.divergences.append(
                        Divergence(
                            cell=cell,
                            baseline=baseline_print,
                            observed=observed,
                            first_query=first,
                        )
                    )
        return report


def _rotating_attack_factory():
    """``seed -> attack``: rotates by ``seed % 4`` over the sketch attack,
    the uniform-random baseline, CornerSearch and Sparse-RS (the last
    three seeded with ``seed``), so sweeps cover every attack generator,
    score-driven and RNG-driven, speculating and scalar-only."""
    from repro.attacks.corner_search import CornerSearch, CornerSearchConfig
    from repro.attacks.random_search import UniformRandomAttack, UniformRandomConfig
    from repro.attacks.sketch_attack import SketchAttack
    from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
    from repro.core.dsl.parser import parse_program

    program = parse_program(
        """
        [B1] score_diff(N(x), N(x[l<-p]), c_x) < 0.05
        [B2] max(x[l]) > 0.5
        [B3] score_diff(N(x), N(x[l<-p]), c_x) > 0.1
        [B4] center(l) < 2
        """
    )

    def attack_factory(seed: int):
        kind = seed % 4
        if kind == 0:
            return SketchAttack(program)
        if kind == 1:
            return UniformRandomAttack(UniformRandomConfig(seed=seed))
        if kind == 2:
            return CornerSearch(CornerSearchConfig(seed=seed))
        return SparseRS(SparseRSConfig(seed=seed))

    return attack_factory


def toy_runner(
    seeds: Iterable[int] = range(20),
    budget: int = 40,
    shape: Tuple[int, int, int] = (5, 5, 3),
    num_classes: int = 3,
    **kwargs,
) -> DifferentialRunner:
    """The standard toy-classifier sweep used by CI and the nightly job.

    Rotates over the paper's sketch attack, the uniform-random baseline,
    CornerSearch and Sparse-RS by seed, over smooth toy images on a
    fragile linear classifier, so the sweep covers every attack
    generator.  Any keyword argument of :class:`DifferentialRunner` can
    be overridden.
    """
    from repro.classifier.toy import LinearPixelClassifier, make_toy_images

    attack_factory = _rotating_attack_factory()

    def classifier_factory(seed: int):
        return LinearPixelClassifier(
            shape, num_classes=num_classes, seed=7, temperature=0.05
        )

    def case_factory(seed: int):
        image = make_toy_images(1, shape, seed=seed)[0]
        true_class = int(np.argmax(classifier_factory(seed)(image)))
        return image, true_class

    return DifferentialRunner(
        attack_factory,
        classifier_factory,
        case_factory,
        seeds=seeds,
        budget=budget,
        **kwargs,
    )


def tiny_network_classifier(
    image_size: int = 8,
    num_classes: int = 3,
    frozen: bool = False,
    dtype=None,
    seed: int = 7,
):
    """A deterministic conv+BN :class:`NetworkClassifier` for sweeps.

    Builds a minimal Conv-BN-ReLU-pool network, warms the batch-norm
    running statistics with a few fixed training batches (so freeze-time
    folding has non-trivial scale/shift to fold), and switches to eval
    mode.  ``frozen=True`` returns it on the inference fast path --
    batch norms folded into the convolutions, backward caches skipped.
    Every call with the same arguments yields a bit-identical
    classifier, which is what lets differential cells stay independent
    yet comparable.
    """
    from repro.classifier.blackbox import NetworkClassifier
    from repro.nn import (
        BatchNorm2d,
        Conv2d,
        GlobalAvgPool2d,
        Linear,
        MaxPool2d,
        ReLU,
        Sequential,
    )

    rng = np.random.default_rng(seed)
    model = Sequential(
        Conv2d(3, 8, 3, padding=1, rng=rng),
        BatchNorm2d(8),
        ReLU(),
        MaxPool2d(2),
        Conv2d(8, 8, 3, padding=1, rng=rng),
        BatchNorm2d(8),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(8, num_classes, rng=rng),
    )
    model.train()
    warmup = np.random.default_rng(seed + 1)
    for _ in range(3):
        model(warmup.normal(0.45, 0.25, size=(8, 3, image_size, image_size)))
    model.eval()
    return NetworkClassifier(model, dtype=dtype, freeze=frozen)


def network_runner(
    seeds: Iterable[int] = range(8),
    budget: int = 24,
    image_size: int = 8,
    num_classes: int = 3,
    frozen: bool = False,
    dtype=None,
    **kwargs,
) -> DifferentialRunner:
    """A differential sweep against a real (tiny) convolutional network.

    The toy sweep (:func:`toy_runner`) exercises the execution paths;
    this one additionally exercises the :mod:`repro.nn` forward stack
    behind :class:`~repro.classifier.blackbox.NetworkClassifier` --
    including, with ``frozen=True``, the inference fast path (folded
    batch norms, reused im2col workspaces, skipped backward caches).
    A frozen sweep must still be internally bit-identical across every
    path x cache cell: freezing changes *how* scores are computed, not
    the determinism of a given classifier instance.  Cross-checking a
    frozen sweep against an unfrozen one is decision-level only; see
    the fast-path acceptance tests.
    """
    from repro.classifier.toy import make_toy_images

    attack_factory = _rotating_attack_factory()

    def classifier_factory(seed: int):
        return tiny_network_classifier(
            image_size=image_size,
            num_classes=num_classes,
            frozen=frozen,
            dtype=dtype,
        )

    shape = (image_size, image_size, 3)

    def case_factory(seed: int):
        image = make_toy_images(1, shape, seed=seed)[0]
        true_class = int(np.argmax(classifier_factory(seed)(image)))
        return image, true_class

    return DifferentialRunner(
        attack_factory,
        classifier_factory,
        case_factory,
        seeds=seeds,
        budget=budget,
        **kwargs,
    )
