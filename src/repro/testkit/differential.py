"""The differential oracle: every execution path charges what its reference charges.

The paper's headline metric is queries per attack, so every way the repo
runs an attack must end in an :class:`~repro.attacks.base.AttackResult`
bit-identical to its scalar reference: same success, query count, pixel
and perturbation bytes.  :class:`DifferentialRunner` checks that claim
with one machine:

- a **case** (``seed -> Case``): a classifier, an image, its true class
  and a fresh attack;
- a **table** of named :class:`Axis` rows, each running the case its own
  way -- ``direct`` (``attack(classifier, ...)``), ``stepped``
  (:func:`~repro.core.stepping.drive_steps`), ``pooled`` (the
  :class:`~repro.runtime.pool.WorkerPool` engine) or ``served`` (an
  :class:`~repro.serve.sessions.AttackSession` run by the production
  :meth:`~repro.serve.sessions.SessionManager.drive` over a started
  :class:`~repro.serve.broker.MicroBatchBroker`) -- with a query cache or
  not, scalar or batched, parked by a cancel or expiry verdict or not;
- a **reference** per row: another row of the table, or for a parked row
  the scalar budget-``k`` run;
- **one check**: result fingerprints, counted flags wherever both traces
  carry them, session accounting (``session.queries ==
  result.queries``) and, for parked rows, the terminal state and the
  budget-``k`` charge.  A diverging cell names its first diverging query
  (:func:`~repro.testkit.trace.diff_events`).

The tables are :data:`PATHS` (every execution path against the uncached
``stepped`` run; :func:`toy_runner`, :func:`network_runner`),
:data:`BATCH` (each mode batched against its scalar twin;
:func:`toy_batch_runner`), :data:`LIFECYCLE` (sessions parked after
``k`` charged queries against budget-``k`` runs;
:func:`toy_lifecycle_runner`) and the shared-L2 table of
:func:`repro.testkit.sharedcache.shared_cache_sweep`.  A new execution
path is a new row.

:class:`ReorderingBroker` and :class:`FlightDroppingBroker` are negative
controls: checks run over them must fail, or the oracle has no teeth.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import AttackResult
from repro.core.stepping import drive_steps
from repro.runtime.cache import CachedClassifier, QueryCache
from repro.runtime.pool import WorkerPool
from repro.runtime.tasks import AttackTaskRunner
from repro.serve.broker import BatchPolicy, BrokerStopped, MicroBatchBroker
from repro.serve.sessions import (
    CANCELLED,
    DONE,
    EXPIRED,
    AttackSession,
    SessionManager,
)
from repro.testkit.trace import TraceEvent, TraceRecorder, diff_events

#: In-cell query cache size: big enough never to evict in a sweep, so
#: cached cells exercise hits rather than churn.
CACHE_SIZE = 1024

#: Default speculative window of batched rows; not a divisor of common
#: budgets, so truncated tail batches are exercised.
DEFAULT_WINDOW = 5

#: The execution paths a row can take.
PATH_NAMES = ("direct", "stepped", "pooled", "served")

#: Park verdicts and the terminal state each must leave a session in.
PARKED = {"cancel": CANCELLED, "expire": EXPIRED}


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
class Case:
    """One seed's job: a classifier, an image, its true class, an attack."""

    classifier: Callable
    image: np.ndarray
    true_class: int
    attack: object

    @classmethod
    def of(cls, classifier, image, attack) -> "Case":
        """The case attacking ``classifier``'s own decision on ``image``."""
        image = np.asarray(image)
        return cls(classifier, image, int(np.argmax(classifier(image))), attack)


@dataclass(frozen=True)
class Axis:
    """A row of a sweep table: one way to run a case.

    ``path`` is one of :data:`PATH_NAMES`; ``cached`` puts a query cache
    inside the counting boundary; ``batched`` steps with the runner's
    speculative window instead of scalar.  ``park`` (a :data:`PARKED`
    verdict) has a served session's observer set that verdict once
    ``7 + seed % 40`` queries are charged, so ``drive`` parks the session
    at its next query boundary.  ``classifier`` (``image -> model``)
    attacks another model, and ``broker`` (``(classifier, cache) ->
    broker``) serves through another broker.  ``reference`` names the row
    this one must match; a row without one is a reference row, except a
    parked row, whose reference is the scalar budget-``k`` run.
    """

    path: str
    cached: bool = False
    batched: bool = False
    park: Optional[str] = None
    classifier: Optional[Callable] = None
    broker: Optional[Callable] = None
    reference: Optional[str] = None

    def __post_init__(self):
        if self.path not in PATH_NAMES:
            raise ValueError(f"unknown execution path {self.path!r}")
        if self.park is not None and (self.park not in PARKED or self.path != "served"):
            raise ValueError(f"cannot park a {self.path} run by {self.park!r}")


@dataclass(frozen=True)
class Cell:
    """One point of a sweep: a seed run one named way."""

    seed: int
    axis: str

    def label(self) -> str:
        return f"seed={self.seed} {self.axis}"


@dataclass
class Run:
    """What one cell produced."""

    result: Optional[AttackResult]
    events: List[TraceEvent]
    #: A served cell's session, whose own count must match its result's.
    session: Optional[AttackSession] = None
    #: ``False`` when the trace was taken below the counting boundary,
    #: where a classifier hook records every query as counted.
    stepwise: bool = True


@dataclass
class Divergence:
    """One cell that disagreed with its reference."""

    cell: Cell
    reference: Tuple
    observed: Tuple
    first_query: Optional[Dict] = None  # from trace.diff_events
    detail: Optional[str] = None  # counted flags, accounting, park state

    def describe(self) -> str:
        lines = [
            f"divergence at {self.cell.label()}:",
            f"  reference result: {self.reference}",
            f"  observed result:  {self.observed}",
        ]
        if self.first_query is not None:
            lines.append(f"  first diverging query: {self.first_query}")
        if self.detail is not None:
            lines.append(f"  detail: {self.detail}")
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
                f"sweep OK: {self.cells_run} cells over {self.seeds} seeds, "
                "zero divergences"
            )
        body = "\n".join(d.describe() for d in self.divergences)
        return (
            f"sweep FAILED: {len(self.divergences)} of {self.cells_run} "
            f"cells diverged\n{body}"
        )


class _TracingClassifier:
    """Forward queries, reporting ``(image, scores)`` to a recorder.

    The trace hook of rows that never show the oracle their steps
    (``direct``, inline ``pooled``): such traces localize divergences,
    but record every query as counted.
    """

    def __init__(self, classifier, recorder: TraceRecorder):
        self._classifier = classifier
        self._recorder = recorder

    def __call__(self, image: np.ndarray) -> np.ndarray:
        scores = self._classifier(image)
        self._recorder(image, scores)
        return scores


def one_session_broker(classifier, cache) -> MicroBatchBroker:
    """The served rows' broker: it serves one session at a time, so each
    query flushes at once instead of waiting out ``max_wait``."""
    return MicroBatchBroker(
        classifier, policy=BatchPolicy(max_batch_size=1), cache=cache
    )


class DifferentialRunner:
    """Run the selected rows of a table for every seed; check every cell.

    Parameters
    ----------
    case:
        ``seed -> Case``, called once per cell so no attack or model
        state leaks between cells.
    seeds:
        The seed sweep.
    table:
        ``name -> Axis``, each reference row before the rows naming it.
    axes:
        Names of the rows to run (default: all); their reference rows
        run too.
    budget:
        The query budget of every cell.
    window:
        The speculative batch size of batched rows.
    pool_workers:
        Worker processes of ``pooled`` rows; ``0`` runs the engine
        inline (the same code minus process transport), as CI does; the
        nightly sweep sets 2.
    """

    def __init__(
        self,
        case: Callable[[int], Case],
        seeds: Iterable[int],
        table: Mapping[str, Axis],
        axes: Optional[Sequence[str]] = None,
        budget: Optional[int] = None,
        window: int = DEFAULT_WINDOW,
        pool_workers: int = 0,
    ):
        names = list(table) if axes is None else list(axes)
        unknown = set(names) - set(table)
        if unknown:
            raise ValueError(f"unknown axes: {sorted(unknown)}")
        if window <= 0:
            raise ValueError("window must be a positive batch size")
        wanted = set(names) | {table[name].reference for name in names}
        self.axes = [name for name in table if name in wanted]
        self.case = case
        self.seeds = list(seeds)
        self.table = table
        self.budget = budget
        self.window = window
        self.pool_workers = pool_workers

    # -- cells ---------------------------------------------------------------

    def run_cell(self, cell: Cell) -> Run:
        """Run one cell.  Public so a test can compare single cells across
        runners, e.g. a frozen network's against an unfrozen one's."""
        return self._run(cell, self.table[cell.axis], self.budget)

    def budget_k(self, seed: int, k: int) -> Run:
        """The scalar budget-``k`` run of ``seed``'s case: the reference of
        a session parked after ``k`` charged queries."""
        return self._run(Cell(seed, f"budget-{k}"), Axis("stepped"), k)

    def _run(self, cell: Cell, axis: Axis, budget: Optional[int]) -> Run:
        case = self.case(cell.seed)
        if axis.classifier is not None:
            case = Case.of(axis.classifier(case.image), case.image, case.attack)
        recorder = TraceRecorder(clean_image=case.image)
        window = self.window if axis.batched else 0
        if axis.path == "served":
            return self._served(cell, axis, case, budget, window, recorder)
        classifier = case.classifier
        if axis.cached and axis.path != "pooled":
            # inside the attack's counting boundary, like the engine does
            classifier = CachedClassifier(classifier, maxsize=CACHE_SIZE)
        if axis.path == "stepped":
            steps = case.attack.steps(
                case.image, case.true_class, budget=budget, batch_size=window
            )
            result = drive_steps(steps, classifier, observer=recorder)
            return Run(result, recorder.events)
        traced = _TracingClassifier(classifier, recorder)
        if axis.path == "direct":
            result = case.attack.attack(
                traced, case.image, case.true_class, budget=budget
            )
        else:
            task = AttackTaskRunner(
                case.attack,
                # a worker process cannot report back to this recorder
                classifier if self.pool_workers else traced,
                budget=budget,
                cache_size=CACHE_SIZE if axis.cached else None,
            )
            outcome = WorkerPool(workers=self.pool_workers).map(
                task, [(case.image, case.true_class)], task_name=f"diff:{cell.label()}"
            )[0]
            result = outcome.value.result if outcome.ok else None
        return Run(result, recorder.events, stepwise=False)

    def _served(self, cell, axis, case, budget, window, recorder) -> Run:
        cache = QueryCache(CACHE_SIZE) if axis.cached else None
        broker = (axis.broker or one_session_broker)(case.classifier, cache)
        manager = SessionManager(broker.start(), max_workers=1)

        def observe(query, scores):
            recorder(query, scores)
            if axis.park is not None and session.queries >= 7 + cell.seed % 40:
                if axis.park == "cancel":
                    session.request_cancel()
                else:
                    session.deadline_at = time.monotonic() - 1.0

        session = manager.create(
            case.attack,
            case.image,
            case.true_class,
            budget=budget,
            observer=observe,
            batch_size=window,
        )
        try:
            manager.drive(session)
        finally:
            manager.shutdown()
            broker.stop()
        return Run(session.result, recorder.events, session)

    # -- the sweep -----------------------------------------------------------

    def run(self) -> DifferentialReport:
        """Run every selected cell of every seed against its reference."""
        report = DifferentialReport(seeds=len(self.seeds))
        for seed in self.seeds:
            runs: Dict[str, Run] = {}
            for name in self.axes:
                cell, axis = Cell(seed, name), self.table[name]
                runs[name] = run = self.run_cell(cell)
                report.cells_run += 1
                if axis.park is not None:
                    reference = self.budget_k(seed, run.session.queries)
                elif axis.reference is not None:
                    reference = runs[axis.reference]
                else:
                    continue
                divergence = _check(cell, axis, run, reference)
                if divergence is not None:
                    report.divergences.append(divergence)
        return report


def _accounting(run: Run) -> List[str]:
    session, result = run.session, run.result
    if session is None or result is None or session.queries == result.queries:
        return []
    return [
        f"session counted {session.queries} queries, "
        f"result reports {result.queries}"
    ]


def _check(cell: Cell, axis: Axis, run: Run, reference: Run) -> Optional[Divergence]:
    """The one check: ``None`` when ``run`` matches ``reference``."""
    problems = [f"reference {p}" for p in _accounting(reference)]
    problems += _accounting(run)
    if axis.park is not None:
        state, k = run.session.state, run.session.queries
        if state != PARKED[axis.park]:
            problems.append(f"parked into {state!r}, expected {PARKED[axis.park]!r}")
        charged = sum(event.counted for event in reference.events)
        if charged != k:
            problems.append(f"budget-{k} reference charged {charged} queries")
    elif run.stepwise and reference.stepwise:
        if [e.counted for e in run.events] != [e.counted for e in reference.events]:
            problems.append("counted flags differ from the reference trace")
    expected = result_fingerprint(reference.result)
    observed = result_fingerprint(run.result)
    if observed == expected and not problems:
        return None
    return Divergence(
        cell,
        expected,
        observed,
        first_query=diff_events(reference.events, run.events) if run.events else None,
        detail="; ".join(problems) or None,
    )


# ----------------------------------------------------------------------
# the tables
# ----------------------------------------------------------------------


def _frozen_network(image: np.ndarray):
    return tiny_network_classifier(image_size=image.shape[0], frozen=True)


def _batch_twins(modes: Mapping[str, Axis]) -> Dict[str, Axis]:
    table: Dict[str, Axis] = {}
    for name, axis in modes.items():
        table[f"{name}/scalar"] = axis
        table[name] = replace(axis, batched=True, reference=f"{name}/scalar")
    return table


#: Every execution path, cache off and on, against the uncached stepped run.
PATHS = {
    "stepped": Axis("stepped"),
    "direct": Axis("direct", reference="stepped"),
    "direct+cache": Axis("direct", cached=True, reference="stepped"),
    "stepped+cache": Axis("stepped", cached=True, reference="stepped"),
    "pooled": Axis("pooled", reference="stepped"),
    "pooled+cache": Axis("pooled", cached=True, reference="stepped"),
    "served": Axis("served", reference="stepped"),
    "served+cache": Axis("served", cached=True, reference="stepped"),
}

#: Each mode batched (the row named after the mode) against the same mode
#: stepped scalar (``<mode>/scalar``): the bare model, a served session
#: over a cached broker, a frozen network's native batch forward, and a
#: cached model.
BATCH = _batch_twins(
    {
        "stepped": Axis("stepped"),
        "served+cache": Axis("served", cached=True),
        "frozen": Axis("stepped", classifier=_frozen_network),
        "stepped+cache": Axis("stepped", cached=True),
    }
)

#: Served sessions parked by each verdict, cache off and on, scalar and
#: batched, each against its scalar budget-k run.
LIFECYCLE = {
    f"{name}/{'batched' if batched else 'scalar'}/{park}": Axis(
        "served", cached=name.endswith("+cache"), batched=batched, park=park
    )
    for name in ("served", "served+cache")
    for batched in (False, True)
    for park in PARKED
}

_SKETCH_PROGRAM = """
    [B1] score_diff(N(x), N(x[l<-p]), c_x) < 0.05
    [B2] max(x[l]) > 0.5
    [B3] score_diff(N(x), N(x[l<-p]), c_x) > 0.1
    [B4] center(l) < 2
"""

#: The attack rotations of the toy sweeps: seed ``s`` runs
#: ``rotation[s % len(rotation)]``.
PATH_ROTATION = ("sketch", "uniform", "corner-search", "sparse-rs")
BATCH_ROTATION = ("sketch", "uniform", "su-opa", "sparse-rs")


def rotating_attack(seed: int, rotation: Sequence[str] = PATH_ROTATION):
    """A fresh attack for ``seed``, picked from ``rotation`` by
    ``seed % len(rotation)`` and seeded with ``seed``.

    The sketch attack runs a reordering program, so speculation gets
    invalidated mid-run; the rotations cover every attack generator,
    score-driven and RNG-driven.  Every generator but CornerSearch
    speculates when given a window; Sparse-RS and SU-OPA rebuild stale
    speculation from the same draws.
    """
    from repro.attacks.corner_search import CornerSearch, CornerSearchConfig
    from repro.attacks.random_search import UniformRandomAttack, UniformRandomConfig
    from repro.attacks.sketch_attack import SketchAttack
    from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
    from repro.attacks.su_opa import SuOPA, SuOPAConfig
    from repro.core.dsl.parser import parse_program

    attacks = {
        "sketch": lambda: SketchAttack(parse_program(_SKETCH_PROGRAM)),
        "uniform": lambda: UniformRandomAttack(UniformRandomConfig(seed=seed)),
        "corner-search": lambda: CornerSearch(CornerSearchConfig(seed=seed)),
        "sparse-rs": lambda: SparseRS(SparseRSConfig(seed=seed)),
        "su-opa": lambda: SuOPA(
            SuOPAConfig(population_size=6, max_generations=3, seed=seed)
        ),
    }
    return attacks[rotation[seed % len(rotation)]]()


def toy_case(shape=(5, 5, 3), num_classes=3, rotation=PATH_ROTATION):
    """``seed -> Case``: a smooth toy image on a fragile linear classifier,
    attacked by :func:`rotating_attack`."""
    from repro.classifier.toy import LinearPixelClassifier, make_toy_images

    def case(seed: int) -> Case:
        return Case.of(
            LinearPixelClassifier(
                shape, num_classes=num_classes, seed=7, temperature=0.05
            ),
            make_toy_images(1, shape, seed=seed)[0],
            rotating_attack(seed, rotation),
        )

    return case


def toy_runner(
    seeds: Iterable[int] = range(20),
    budget: int = 40,
    shape: Tuple[int, int, int] = (5, 5, 3),
    num_classes: int = 3,
    **kwargs,
) -> DifferentialRunner:
    """The :data:`PATHS` sweep CI and the nightly job run on toy cases.

    Any :class:`DifferentialRunner` keyword (``table`` included) can be
    overridden.
    """
    kwargs.setdefault("table", PATHS)
    return DifferentialRunner(
        toy_case(shape, num_classes), seeds, budget=budget, **kwargs
    )


def toy_batch_runner(
    seeds: Iterable[int] = range(20),
    budget: int = 40,
    shape: Tuple[int, int, int] = (5, 5, 3),
    num_classes: int = 3,
    **kwargs,
) -> DifferentialRunner:
    """The :data:`BATCH` sweep CI and the nightly job run on toy cases,
    rotating the four speculating generators (sketch, uniform random,
    SU-OPA, Sparse-RS); the ``frozen`` rows attack a frozen tiny network
    instead."""
    kwargs.setdefault("table", BATCH)
    return DifferentialRunner(
        toy_case(shape, num_classes, BATCH_ROTATION), seeds, budget=budget, **kwargs
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
    running statistics with a few fixed training batches (so batch norm
    has a non-trivial scale/shift), and switches to eval mode.
    ``frozen=True`` returns it on the inference fast path: at float64
    with the eval path's scores bit for bit, at ``dtype=numpy.float32``
    with its batch norms folded into the convolutions.  Every call with
    the same arguments yields a bit-identical classifier, which is what
    lets differential cells stay independent yet comparable.
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
    """The :data:`PATHS` sweep against a real (tiny) convolutional network.

    Besides the execution paths, this exercises the :mod:`repro.nn`
    forward stack behind
    :class:`~repro.classifier.blackbox.NetworkClassifier` -- with
    ``frozen=True``, the inference fast path (a planned step list over
    one scratch pool, skipped backward caches).  A frozen sweep must be
    bit-identical across every cell, and at float64 each of its cells
    equals the same cell of the unfrozen sweep, trace included (CI
    compares them with :meth:`DifferentialRunner.run_cell`).
    """
    from repro.classifier.toy import make_toy_images

    def case(seed: int) -> Case:
        return Case.of(
            tiny_network_classifier(
                image_size=image_size,
                num_classes=num_classes,
                frozen=frozen,
                dtype=dtype,
            ),
            make_toy_images(1, (image_size, image_size, 3), seed=seed)[0],
            rotating_attack(seed),
        )

    kwargs.setdefault("table", PATHS)
    return DifferentialRunner(case, seeds, budget=budget, **kwargs)


def toy_lifecycle_runner(
    seeds: Iterable[int] = (1, 8, 20, 26),
    budget: int = 100000,
    attack_factory: Optional[Callable[[int], object]] = None,
    **kwargs,
) -> DifferentialRunner:
    """The :data:`LIFECYCLE` sweep CI runs.

    Every seed names a HARD_IMAGE_SEEDS case: a 6x6 image the fixed
    sketch probes for 288 queries against the seed-1 three-class toy
    model without ever succeeding, so every park boundary is reachable
    and never races a success at exactly ``k`` (the one ambiguous
    boundary, documented in
    :meth:`~repro.serve.sessions.AttackSession.park`).

    ``attack_factory`` (``seed -> attack``) defaults to the fixed sketch.
    Any attack that only writes RGB corners -- Sparse-RS, CornerSearch --
    keeps that guarantee, since these images resist all 288 corner
    pairs.
    """
    from repro.attacks.fixed_sketch import FixedSketchAttack
    from repro.classifier.toy import SmoothLinearClassifier

    make_attack = attack_factory or (lambda seed: FixedSketchAttack())

    def case(seed: int) -> Case:
        return Case.of(
            SmoothLinearClassifier(image_shape=(6, 6, 3), num_classes=3, seed=1),
            np.random.default_rng(seed).random((6, 6, 3)),
            make_attack(seed),
        )

    kwargs.setdefault("table", LIFECYCLE)
    return DifferentialRunner(case, seeds, budget=budget, **kwargs)


# ----------------------------------------------------------------------
# negative-control brokers
# ----------------------------------------------------------------------


class ReorderingBroker(MicroBatchBroker):
    """Negative control: silently reverses every multi-query batch.

    A single-query batch passes through untouched, so scalar stepping
    over this broker stays correct -- exactly the bug class the batched
    rows exist to catch (answers attributed to the wrong speculative
    member).
    """

    def evaluate(self, images):
        rows = super().evaluate(images)
        if len(rows) > 1:
            return list(reversed(rows))
        return rows


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
            "cancelled_exact":   A's parked result == budget-k reference,
            "survivor_state":    B's terminal state,
            "survivor_queries":  B's final count,
            "survivor_golden":   288,
            "settled":           B finished with the golden count,
        }

    The positive check asserts ``settled`` and ``cancelled_exact``; the
    negative control (``broker_cls=FlightDroppingBroker,
    drop_on_cancel=True``) asserts ``settled`` is False.
    """
    from repro.attacks.fixed_sketch import FixedSketchAttack
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
        reference = toy_lifecycle_runner().budget_k(
            HARD_IMAGE_SEEDS[0], victim.queries
        )
        cancelled_exact = results_equal(victim.result, reference.result)
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
