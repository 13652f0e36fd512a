"""Golden-trace record and replay for attack runs.

The paper's headline metric is the number of classifier queries, so the
sequence of queries an attack poses *is* its observable behaviour.  A
**golden trace** captures that sequence once -- every query event the
steppable protocol (:mod:`repro.core.stepping`) produces, as
``(image digest, location, perturbation, scores, counted)`` -- into a
canonical JSONL file.  From then on:

- :class:`ReplayClassifier` serves the recorded scores back in order,
  verifying each submitted image against the recorded digest, so attack
  *logic* can be regression-tested with **zero model forward passes**
  (and any drift in query order is caught at the exact diverging query
  instead of as a mysteriously different final result);
- :func:`diff_events` localizes the first divergence between two traces,
  which is how the differential oracle explains a failed equivalence
  sweep.

Golden file format (one JSON object per line):

- line 1 -- header: ``{"format": "repro-golden-trace", "version": 1,
  "attack": ..., "true_class": ..., "budget": ...}``;
- every further line -- one event: ``{"index": 1-based query index,
  "digest": hex SHA-1 of the submitted image, "counted": bool,
  "location": [row, col] | null, "perturbation": [r, g, b] | null,
  "scores": [...]}``.

``location``/``perturbation`` are derived by diffing the submitted image
against the clean image: for one-pixel attacks every counted submission
differs from the clean image in exactly one pixel, and the clean probe
(``counted=false``) differs in none.  Multi-pixel submissions record
``null`` -- the digest still pins them exactly.

Regenerate goldens by re-running the recorder (see DESIGN §9); a golden
only needs regenerating when the *attack logic* intentionally changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stepping import Query, drive_steps
from repro.runtime.cache import image_digest


class TraceMismatch(AssertionError):
    """Replayed execution diverged from the golden trace.

    Carries the 1-based query ``index`` of the first divergence so test
    failures point at the exact query, not just the final result.
    """

    def __init__(self, index: int, message: str):
        super().__init__(f"query {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class TraceEvent:
    """One recorded query event."""

    index: int  # 1-based position in the query stream
    digest: str  # hex SHA-1 of the submitted image
    counted: bool
    scores: Tuple[float, ...]
    location: Optional[Tuple[int, int]] = None
    perturbation: Optional[Tuple[float, ...]] = None

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "digest": self.digest,
            "counted": self.counted,
            "location": None if self.location is None else list(self.location),
            "perturbation": (
                None if self.perturbation is None else list(self.perturbation)
            ),
            "scores": list(self.scores),
        }

    @staticmethod
    def from_dict(payload: Dict) -> "TraceEvent":
        return TraceEvent(
            index=int(payload["index"]),
            digest=str(payload["digest"]),
            counted=bool(payload["counted"]),
            scores=tuple(float(s) for s in payload["scores"]),
            location=(
                None
                if payload.get("location") is None
                else tuple(int(v) for v in payload["location"])
            ),
            perturbation=(
                None
                if payload.get("perturbation") is None
                else tuple(float(v) for v in payload["perturbation"])
            ),
        )


def pixel_diff(
    clean: np.ndarray, submitted: np.ndarray
) -> Tuple[Optional[Tuple[int, int]], Optional[Tuple[float, ...]]]:
    """The single changed pixel between two images, if there is one.

    Returns ``(location, written value)`` when exactly one pixel
    differs, ``(None, None)`` otherwise (identical images -- the clean
    probe -- or multi-pixel writes).
    """
    if clean.shape != submitted.shape:
        return None, None
    changed = np.argwhere((clean != submitted).any(axis=2))
    if len(changed) != 1:
        return None, None
    row, col = (int(v) for v in changed[0])
    return (row, col), tuple(float(v) for v in submitted[row, col])


class TraceRecorder:
    """Capture every query event of a driven attack into a trace.

    Usable two ways:

    - :meth:`record` drives ``attack.steps`` to completion against a
      real classifier (via :func:`~repro.core.stepping.drive_steps`)
      and captures the full event stream;
    - as a bare ``observer(query, scores)`` callback, pluggable into
      :func:`~repro.core.stepping.drive_steps` or an
      :class:`~repro.serve.sessions.AttackSession`, for tracing
      executions the recorder does not itself drive.
    """

    def __init__(self, clean_image: Optional[np.ndarray] = None):
        self.clean_image = clean_image
        self.events: List[TraceEvent] = []
        self.header: Dict = {"format": "repro-golden-trace", "version": 1}

    # -- observer interface ------------------------------------------------

    def __call__(self, query, scores) -> None:
        """Record one answered query (observer-callback form).

        Accepts either a :class:`~repro.core.stepping.Query` or a bare
        image array (a classifier-level hook passes images).
        """
        if isinstance(query, Query):
            image, counted = query.image, query.counted
        else:
            image, counted = np.asarray(query), True
        location = perturbation = None
        if self.clean_image is not None:
            location, perturbation = pixel_diff(self.clean_image, image)
        self.events.append(
            TraceEvent(
                index=len(self.events) + 1,
                digest=image_digest(image).hex(),
                counted=counted,
                scores=tuple(float(s) for s in np.asarray(scores).ravel()),
                location=location,
                perturbation=perturbation,
            )
        )

    # -- recording driver --------------------------------------------------

    def record(
        self,
        attack,
        classifier,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        batch_size: Optional[int] = None,
    ):
        """Run ``attack`` once, capturing its golden trace; returns the result.

        ``batch_size`` records through batch-native stepping.  Batched
        observers fire per *consumed* member in scalar order, so the
        captured trace is identical to a scalar recording of the same
        attack -- scalar-recorded goldens replay batched and vice versa.
        """
        self.clean_image = image
        self.events = []
        self.header.update(
            attack=getattr(attack, "name", type(attack).__name__),
            true_class=int(true_class),
            budget=budget,
        )
        kwargs = {}
        if batch_size is not None:
            kwargs["batch_size"] = batch_size
        return drive_steps(
            attack.steps(
                image, true_class, budget=budget, target_class=target_class,
                **kwargs,
            ),
            classifier,
            observer=self,
        )

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Write the canonical golden JSONL file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.header, sort_keys=True) + "\n")
            for event in self.events:
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")


def load_trace(path) -> Tuple[Dict, List[TraceEvent]]:
    """Read a golden file back as ``(header, events)``."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"empty golden trace: {path}")
    header = json.loads(lines[0])
    if header.get("format") != "repro-golden-trace":
        raise ValueError(f"{path} is not a golden trace (bad header)")
    return header, [TraceEvent.from_dict(json.loads(line)) for line in lines[1:]]


class ReplayClassifier:
    """Serve a recorded trace's scores back, verifying every submission.

    Strictly sequential: the ``k``-th call must submit an image whose
    digest matches the ``k``-th recorded event, else
    :class:`TraceMismatch` pinpoints the divergence.  Calling past the
    end of the trace is likewise a mismatch (the replayed logic posed
    *more* queries than the golden run).  No model is ever touched.

    Batched submissions (:meth:`batch`) are served by digest lookup
    instead: a speculative batch legitimately poses members in a
    different order than the golden run consumed them, and may pose
    members the golden run never consumed at all (those are answered
    with NaN fillers).  Verification of a batched replay therefore
    lives in the consumption-order :class:`TraceVerifier` observer, not
    here; the classifier remembers each batch's digests so a mismatch
    can be localized to the posing batch member.
    """

    def __init__(self, events: Sequence[TraceEvent]):
        self.events = list(events)
        self.position = 0  # events served so far (scalar path)
        self.last_batch: List[str] = []  # digests of the last posed batch
        self._by_digest: Optional[Dict[str, np.ndarray]] = None

    @property
    def remaining(self) -> int:
        return len(self.events) - self.position

    def __call__(self, image: np.ndarray) -> np.ndarray:
        index = self.position + 1
        if self.position >= len(self.events):
            raise TraceMismatch(
                index, f"trace exhausted after {len(self.events)} events"
            )
        event = self.events[self.position]
        digest = image_digest(image).hex()
        if digest != event.digest:
            raise TraceMismatch(
                index,
                f"submitted image {digest[:12]} != recorded {event.digest[:12]}",
            )
        self.position += 1
        return np.array(event.scores, dtype=np.float64)

    def batch(self, images) -> np.ndarray:
        """Serve one speculative batch by digest (see class docstring).

        Duplicate digests across events are safe: a deterministic
        classifier gives the same scores for the same image, so first
        occurrence wins.
        """
        if self._by_digest is None:
            self._by_digest = {}
            for event in self.events:
                self._by_digest.setdefault(
                    event.digest, np.array(event.scores, dtype=np.float64)
                )
        width = len(self.events[0].scores) if self.events else 1
        rows: List[np.ndarray] = []
        self.last_batch = []
        for image in list(images):
            digest = image_digest(np.asarray(image)).hex()
            self.last_batch.append(digest)
            scores = self._by_digest.get(digest)
            if scores is None:
                # a speculative member the golden run never consumed --
                # harmless unless the replay tries to consume it, which
                # the TraceVerifier then reports as a NaN-scores event
                rows.append(np.full(width, np.nan))
            else:
                rows.append(scores.copy())
        return np.stack(rows) if rows else np.zeros((0, width))


class TraceVerifier:
    """Consumption-order observer checking a replay against its golden.

    Plugged into :func:`~repro.core.stepping.drive_steps` (or a
    session), it receives every *consumed* query in scalar order --
    batched or not -- and asserts the digest and scores of the ``k``-th
    consumption match the ``k``-th recorded event.  When the replay
    runs batched, a mismatch is additionally localized to the member of
    the last posed batch that produced the offending image.
    """

    def __init__(
        self,
        events: Sequence[TraceEvent],
        classifier: Optional[ReplayClassifier] = None,
    ):
        self.events = list(events)
        self.classifier = classifier
        self.cursor = 0  # events verified so far

    def _locate(self, digest: str) -> str:
        if self.classifier is not None and digest in self.classifier.last_batch:
            member = self.classifier.last_batch.index(digest)
            return f" (batch member {member} of the last posed batch)"
        return ""

    def __call__(self, query, scores) -> None:
        index = self.cursor + 1
        image = query.image if isinstance(query, Query) else np.asarray(query)
        digest = image_digest(image).hex()
        if self.cursor >= len(self.events):
            raise TraceMismatch(
                index,
                f"trace exhausted after {len(self.events)} events; replay "
                f"consumed extra query {digest[:12]}" + self._locate(digest),
            )
        event = self.events[self.cursor]
        if digest != event.digest:
            raise TraceMismatch(
                index,
                f"consumed image {digest[:12]} != recorded "
                f"{event.digest[:12]}" + self._locate(digest),
            )
        got = tuple(float(s) for s in np.asarray(scores).ravel())
        if got != event.scores:
            detail = (
                "speculative member missing from the golden trace"
                if any(np.isnan(got))
                else f"scores {got} != recorded {event.scores}"
            )
            raise TraceMismatch(index, detail + self._locate(digest))
        self.cursor += 1


def replay(
    attack,
    events: Sequence[TraceEvent],
    image: np.ndarray,
    true_class: int,
    budget: Optional[int] = None,
    target_class: Optional[int] = None,
    batch_size: Optional[int] = None,
):
    """Re-run ``attack`` against a recorded trace; returns its result.

    Raises :class:`TraceMismatch` at the first query that differs from
    the golden run.  A clean replay whose result equals the recorded
    run's proves the attack logic unchanged, at zero forward passes.

    ``batch_size`` replays through batch-native stepping: the recorded
    consumption-order trace answers the speculative batches by digest,
    and a :class:`TraceVerifier` re-checks every consumption in order.
    Because batched observers fire in scalar consumption order, a
    scalar-recorded golden replays batched and a batch-recorded golden
    replays scalar, interchangeably.
    """
    classifier = ReplayClassifier(events)
    if batch_size:
        verifier = TraceVerifier(events, classifier)
        result = drive_steps(
            attack.steps(
                image, true_class, budget=budget, target_class=target_class,
                batch_size=batch_size,
            ),
            classifier,
            observer=verifier,
        )
        if verifier.cursor != len(events):
            raise TraceMismatch(
                verifier.cursor + 1,
                f"replay ended with {len(events) - verifier.cursor} recorded "
                "events never consumed",
            )
        return result
    result = drive_steps(
        attack.steps(image, true_class, budget=budget, target_class=target_class),
        classifier,
    )
    if classifier.remaining:
        raise TraceMismatch(
            classifier.position + 1,
            f"replay ended with {classifier.remaining} recorded events unserved",
        )
    return result


def diff_events(
    baseline: Sequence[TraceEvent], other: Sequence[TraceEvent]
) -> Optional[Dict]:
    """The first query event where two traces diverge, or ``None``.

    Compares image digests and scores (the cross-path invariants;
    ``counted`` flags legitimately differ between a steps-level
    observer and a classifier-level hook, which records every query as
    counted, so they are reported but not compared).
    """
    for position, (a, b) in enumerate(zip(baseline, other)):
        if a.digest != b.digest or a.scores != b.scores:
            return {
                "index": position + 1,
                "baseline": a.to_dict(),
                "other": b.to_dict(),
            }
    if len(baseline) != len(other):
        shorter = min(len(baseline), len(other))
        longer = baseline if len(baseline) > len(other) else other
        return {
            "index": shorter + 1,
            "baseline": longer[shorter].to_dict() if longer is baseline else None,
            "other": longer[shorter].to_dict() if longer is other else None,
        }
    return None
