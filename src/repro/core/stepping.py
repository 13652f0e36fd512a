"""The steppable attack protocol.

An attack exposed as a *generator* decouples its search logic from how
classifier queries are executed.  The protocol is small:

- the generator **yields** :class:`Query` objects (the perturbed image to
  score, or the clean image and a pair index that build it, plus whether
  the submission counts against the paper's query accounting);
- the caller **sends** back the classifier's score vector;
- the generator **returns** the final result (``StopIteration.value``).

Budget enforcement and query counting live *inside* the generator (via
:class:`StepCounter`, with :class:`~repro.classifier.blackbox.
CountingClassifier`'s count-before-execute semantics), so who performs
the forward pass never changes what is counted.  That inversion is what
lets the serving layer coalesce queries from many concurrent sessions
into batched model evaluations (:mod:`repro.serve.broker`).

Every attack implements
:meth:`~repro.attacks.base.OnePixelAttack.steps` as a generator; the
classic ``attack()`` call is :func:`drive_steps` over it.

Generators may also yield a :class:`QueryBatch` -- several queries
answered by one vectorized forward pass.  Batches are *speculative*:
they are posed before any of their answers have been seen, so paper
accounting moves from pose time to **consumption time**.  The generator
charges :meth:`StepCounter.charge` for each member as it actually reads
that member's answer, and notifies the batch's ``observer`` in the same
order, so the observed query stream and every count are identical to the
scalar path by construction (see DESIGN §14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Tuple, Union

import numpy as np

from repro.classifier.blackbox import (
    QueryBudgetExceeded,
    _validated_budget,
    batch_scores,
)
from repro.core.pairs import perturb

Classifier = Callable[[np.ndarray], np.ndarray]


class Query:
    """One classifier submission requested by a steppable attack.

    ``counted`` is ``False`` only for threat-model inputs the paper does
    not charge to the attacker -- e.g. the sketch scoring the clean image
    it was handed.  Executors must answer every query either way; the
    flag only drives accounting (session query counts, budgets).

    A *keyed* query (:meth:`keyed`) carries a pair index ``key`` and the
    ``clean`` image in place of a built image: :attr:`image` is
    :func:`~repro.core.pairs.perturb` of the two, built on its first
    read and kept, so every read returns the same array and its bits
    are those of ``Pair.apply``.  An executor that answers by
    ``(clean image, key)`` -- a synthesis
    :class:`~repro.core.synthesis.score.TrainingSet`, from its per-image
    tables -- builds the image only to score a pair it has not seen;
    every other executor reads :attr:`image` as before.  The sketch
    poses every pair this way; ``key`` is ``None`` for a query built
    from an image.
    """

    __slots__ = ("counted", "key", "clean", "_image")

    def __init__(self, image: np.ndarray, counted: bool = True):
        self._image = image
        self.counted = counted
        self.key: Optional[int] = None
        self.clean: Optional[np.ndarray] = None

    @classmethod
    def keyed(cls, clean: np.ndarray, key: int) -> "Query":
        """The counted query for pair ``key`` of ``clean``."""
        query = cls.__new__(cls)
        query._image = None
        query.counted = True
        query.key = key
        query.clean = clean
        return query

    @property
    def image(self) -> np.ndarray:
        """The image to score (a keyed query builds it on first read)."""
        image = self._image
        if image is None:
            image = self._image = perturb(self.clean, self.key)
        return image


#: Observer signature shared by drivers and batches: called as
#: ``observer(query, scores)`` once per *consumed* query.
StepObserver = Callable[["Query", np.ndarray], None]


@dataclass
class QueryBatch:
    """Several queries answered by one vectorized forward pass.

    A batch is *speculative*: the generator poses queries it has not yet
    decided to consume (upcoming queue entries, a whole DE generation),
    and the executor answers all of them at once with ``scores[i]``
    belonging to ``queries[i]``.  Because answers arrive before the
    generator has charged anything, accounting happens at consumption:

    - the driver sets :attr:`observer` **before** sending the answers
      back, so the generator can notify per consumed member;
    - the generator calls :meth:`note` exactly when it reads a member's
      answer -- after :meth:`StepCounter.charge` succeeded -- keeping the
      observed stream in scalar consumption order;
    - members whose answers are never read (budget truncation, early
      success, stale speculation) are never charged and never observed.

    ``consumed`` therefore counts how many members were actually used;
    ``len(batch) - consumed`` is the speculation waste for that batch.
    """

    queries: Tuple[Query, ...]
    consumed: int = 0
    observer: Optional[StepObserver] = None

    def __len__(self) -> int:
        return len(self.queries)

    def images(self) -> List[np.ndarray]:
        """The member images, in pose order, for a vectorized scorer."""
        return [query.image for query in self.queries]

    def note(self, query: Query, scores: np.ndarray) -> None:
        """Record the consumption of one member (in scalar order)."""
        self.consumed += 1
        if self.observer is not None:
            self.observer(query, scores)


#: What a steppable attack may yield: one query, or a speculative batch.
StepRequest = Union[Query, QueryBatch]

#: The protocol type: yields queries (or batches), receives score
#: vectors (or score matrices), returns the attack's result object.
AttackSteps = Generator[StepRequest, np.ndarray, object]


def resolve_batch_window(batch_size: Optional[int]) -> int:
    """Normalize a ``batch_size`` request into an effective window.

    ``None`` or ``0`` means scalar.  A window of 1 is legal (batches of
    one query) but pointless, so callers normally pass 0 instead.
    """
    if batch_size is None:
        return 0
    window = int(batch_size)
    if window < 0:
        raise ValueError(f"batch_size must be >= 0, got {batch_size}")
    return window


@dataclass
class StepCounter:
    """In-generator query accounting with the classic budget semantics.

    Mirrors :class:`~repro.classifier.blackbox.CountingClassifier`: the
    check happens *before* the submission, so the ``budget + 1``-th
    counted query raises :class:`QueryBudgetExceeded` instead of being
    posed, and ``count`` equals the budget when the exception fires.
    """

    budget: Optional[int] = None
    count: int = field(default=0)

    def __post_init__(self):
        self.budget = _validated_budget(self.budget)

    def submit(self, image: np.ndarray) -> Query:
        """Account for one counted submission and build its query.

        Generators write ``scores = yield counter.submit(perturbed)``:
        the count is taken *before* the query executes, exactly like
        ``CountingClassifier.__call__``.
        """
        if self.budget is not None and self.count >= self.budget:
            raise QueryBudgetExceeded(self.budget)
        self.count += 1
        return Query(image)

    def charge(self) -> None:
        """Account for one *consumed* batch member.

        Identical check-then-increment to :meth:`submit`, but without
        building a query: batched generators pose speculatively and
        charge at the moment they read an answer, so the ``k``-th charge
        corresponds exactly to the ``k``-th scalar submission.  Calling
        ``charge()`` with zero allowance raises at precisely the point
        the scalar path would have stopped.
        """
        if self.budget is not None and self.count >= self.budget:
            raise QueryBudgetExceeded(self.budget)
        self.count += 1

    @property
    def allowance(self) -> Optional[int]:
        """Counted queries still permitted (``None`` when unbudgeted)."""
        if self.budget is None:
            return None
        return max(self.budget - self.count, 0)


def drive_steps(
    steps: AttackSteps,
    classifier: Classifier,
    observer=None,
    answer: Optional[Callable[[Query], np.ndarray]] = None,
):
    """Run a steppable attack to completion against a plain classifier.

    This is the synchronous driver behind
    :meth:`~repro.attacks.base.OnePixelAttack.attack`: every yielded
    query is answered immediately, by ``answer(query)``, which defaults
    to ``classifier(query.image)``.  A caller that can answer a keyed
    query (:meth:`Query.keyed`) without its image passes its own
    ``answer``; a synthesis
    :class:`~repro.core.synthesis.score.TrainingSet` answers from its
    per-image tables indexed by pair index, so a table hit builds no
    image.  Answers must be what ``classifier(query.image)`` returns.

    ``observer``, if given, is called as ``observer(query, scores)``
    after each submission is answered and before the generator resumes,
    so it sees every counted query, whoever answered it.  This is the
    trace hook :class:`repro.testkit.trace.TraceRecorder` uses to
    capture golden query traces; observers must not mutate either
    argument (reading ``query.image`` builds a keyed query's image).

    A yielded :class:`QueryBatch` is answered by one
    :func:`~repro.classifier.blackbox.batch_scores` call on
    ``classifier``.  The observer
    is installed on the batch *before* the answers are sent, and the
    generator notifies it per member as each answer is consumed -- so
    the observed stream stays in exact scalar order even though the
    forward passes were vectorized.
    """
    if answer is None:

        def answer(query: Query) -> np.ndarray:
            return classifier(query.image)

    try:
        request = next(steps)
        while True:
            if isinstance(request, QueryBatch):
                request.observer = observer
                answers = np.asarray(
                    batch_scores(classifier, request.images()),
                    dtype=np.float64,
                )
                request = steps.send(answers)
                continue
            scores = answer(request)
            if observer is not None:
                observer(request, scores)
            request = steps.send(scores)
    except StopIteration as stop:
        return stop.value
