"""Execute a campaign matrix cell by cell, durably and resumably.

The runner turns a validated :class:`~repro.campaign.spec.CampaignSpec`
into completed cells on top of the primitives the repo already trusts:

- each cell is one :func:`~repro.eval.runner.attack_dataset` run with
  its own :class:`~repro.runtime.checkpoint.CheckpointStore` under
  ``<root>/cells/<cell_id>/``, so a kill mid-cell resumes *within* the
  cell at per-image granularity (PR 5 semantics, unchanged);
- the campaign root is itself a checkpoint store: ``manifest.json``
  pins ``(campaign id, spec fingerprint)`` and ``records.jsonl``
  appends one durable record per *completed* cell, so a kill between
  cells skips the finished ones entirely on resume;
- per-cell summaries merge recorded per-image timings, so a resumed
  campaign reports the original latency of units that completed before
  the kill instead of zeros.

Determinism contract: every cell re-derives its randomness from
``(campaign seed, cell id)`` alone (see :func:`~repro.campaign.spec.cell_seeds`),
so a SIGKILLed-and-resumed campaign produces per-image results --
and therefore the deterministic report -- bit-identical to an
uninterrupted run.  Wall-clock fields are measurements and are excluded
from that comparison (:data:`repro.eval.runner.TIMING_KEYS`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.attacks.base import OnePixelAttack
from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.random_search import UniformRandomAttack, UniformRandomConfig
from repro.attacks.sketch_attack import SketchAttack
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.attacks.su_opa import SuOPA, SuOPAConfig
from repro.campaign.bench import git_revision
from repro.campaign.spec import (
    PROGRAM_PREFIX,
    TOY_DATASET,
    CampaignSpec,
    CellSpec,
    SpecError,
)
from repro.campaign.store import ResultsStore, make_record
from repro.classifier.toy import (
    LatencyClassifier,
    LinearPixelClassifier,
    SmoothLinearClassifier,
)
from repro.eval.runner import AttackRunSummary, attack_dataset
from repro.runtime.checkpoint import (
    RECORDS_NAME,
    CheckpointStore,
    cell_record,
    load_matrix,
    matrix_manifest,
)
from repro.runtime.events import RunLog, ensure_log

Progress = Callable[[str], None]


# ----------------------------------------------------------------------
# cell inputs: model + dataset + attack from a CellSpec
# ----------------------------------------------------------------------


def build_attack(cell: CellSpec) -> OnePixelAttack:
    """Instantiate the cell's attack; its seed derives from the cell."""
    config = dict(cell.attack_config)
    kind = cell.attack
    try:
        if kind == "fixed":
            if config:
                raise SpecError(
                    f"attack 'fixed' takes no configuration, got {sorted(config)}"
                )
            return FixedSketchAttack()
        if kind == "random":
            config.setdefault("seed", cell.base_seed)
            return UniformRandomAttack(UniformRandomConfig(**config))
        if kind == "sparse-rs":
            config.setdefault("seed", cell.base_seed)
            return SparseRS(SparseRSConfig(**config))
        if kind == "su-opa":
            config.setdefault("seed", cell.base_seed)
            return SuOPA(SuOPAConfig(**config))
        if kind.startswith(PROGRAM_PREFIX):
            from repro.core.synthesis.oppsla import SynthesisResult

            path = kind[len(PROGRAM_PREFIX):]
            return SketchAttack(SynthesisResult.load_program(path))
    except TypeError as exc:
        raise SpecError(f"invalid [attack.{kind}] configuration: {exc}") from exc
    raise SpecError(f"unknown attack kind {kind!r}")  # pragma: no cover


def build_toy_model(cell: CellSpec):
    """``(classifier, latency)`` from the cell's model settings.

    ``latency`` (seconds per query, default 0) simulates a remote
    oracle; the runner wraps the classifier in a
    :class:`~repro.classifier.toy.LatencyClassifier` *after* dataset
    labeling, so scores -- and therefore results -- are unchanged.  The
    kill-and-resume harness leans on it to land a SIGKILL mid-matrix.
    """
    config = dict(cell.model_config)
    height = config.pop("height", 8)
    width = config.pop("width", 8)
    classes = config.pop("classes", 4)
    latency = config.pop("latency", 0.0)
    if not isinstance(latency, (int, float)) or latency < 0:
        raise SpecError(
            f"[model.{cell.model}] latency must be a non-negative number"
        )
    config.setdefault("seed", 0)
    shape = (height, width, 3)
    builders = {
        "toy-smooth": SmoothLinearClassifier,
        "toy-linear": LinearPixelClassifier,
    }
    builder = builders[cell.model]
    try:
        return builder(shape, num_classes=classes, **config), float(latency)
    except TypeError as exc:
        raise SpecError(
            f"invalid [model.{cell.model}] configuration: {exc}"
        ) from exc


def toy_pairs(classifier, cell: CellSpec) -> List[Tuple[np.ndarray, int]]:
    """``images`` synthetic test pairs labeled by the classifier itself.

    Derived from ``cell.data_seed`` only, so the dataset is identical on
    every (re)run of the cell regardless of execution order.
    """
    rng = np.random.default_rng(cell.data_seed)
    pairs = []
    while len(pairs) < cell.images:
        image = rng.uniform(0.0, 1.0, size=classifier.image_shape)
        pairs.append((image, int(np.argmax(classifier(image)))))
    return pairs


def build_cell_inputs(cell: CellSpec, zoo_cache_dir: Optional[str] = None):
    """``(classifier, test_pairs)`` for one cell.

    Toy cells are self-contained (classifier + synthetic dataset from
    the cell seeds); zoo cells train-or-load the registered architecture
    through the shared :class:`~repro.models.zoo.ModelZoo` cache.
    """
    if cell.dataset == TOY_DATASET:
        classifier, latency = build_toy_model(cell)
        pairs = toy_pairs(classifier, cell)
        if latency > 0:
            classifier = LatencyClassifier(classifier, latency)
        return classifier, pairs

    from repro.models.zoo import ModelZoo, ZooConfig

    config = dict(cell.model_config)
    kwargs = dict(
        dataset=cell.dataset,
        image_size=config.pop("image_size", 16),
        train_per_class=config.pop("train_per_class", 200),
        epochs=config.pop("epochs", 5),
        seed=config.pop("seed", 0),
    )
    if config:
        raise SpecError(
            f"unknown [model.{cell.model}] keys for a zoo model: "
            f"{sorted(config)}"
        )
    if zoo_cache_dir:
        kwargs["cache_dir"] = zoo_cache_dir
    zoo = ModelZoo(ZooConfig(**kwargs))
    trained = zoo.get(cell.model)
    pairs = zoo.correctly_classified(
        cell.model, split="test", limit=cell.images
    ).pairs()
    return trained.classifier, pairs


# ----------------------------------------------------------------------
# the run itself
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellOutcome:
    """One cell's durable record, plus whether it was replayed."""

    cell: CellSpec
    record: Dict
    replayed: bool

    @property
    def cell_id(self) -> str:
        return self.cell.cell_id

    @property
    def summary(self) -> Dict:
        return self.record["summary"]


@dataclass(frozen=True)
class CampaignRun:
    """A completed (or fully-resumed) campaign: spec plus cell records."""

    spec: CampaignSpec
    outcomes: List[CellOutcome]

    def records(self) -> List[Dict]:
        return [outcome.record for outcome in self.outcomes]

    def outcome(self, cell_id: str) -> CellOutcome:
        for outcome in self.outcomes:
            if outcome.cell_id == cell_id:
                return outcome
        raise KeyError(cell_id)


def cell_payload(
    cell: CellSpec,
    summary: AttackRunSummary,
    cache: Optional[Dict],
    git_rev: str,
    timestamp: float,
) -> Dict:
    """The durable record body for one freshly completed cell.

    ``summary``/``per_image`` are deterministic re-runs of the cell;
    ``timing``/``cache``/``git_rev``/``timestamp`` are measurements of
    *this* execution.  Reports select accordingly.
    """
    return {
        "spec": cell.to_dict(),
        "summary": summary.to_dict(include_timing=False),
        "per_image": [
            [result.success, result.queries, result.error]
            for result in summary.results
        ],
        "timing": {
            "attack_seconds": summary.attack_seconds,
            "total_seconds": summary.total_seconds,
            "avg_seconds_per_image": summary.avg_seconds_per_image,
        },
        "cache": cache,
        "git_rev": git_rev,
        "timestamp": timestamp,
    }


def cell_directory(root: str, cell_id: str) -> str:
    return os.path.join(root, "cells", cell_id)


def run_campaign(
    spec: CampaignSpec,
    root: str,
    executor=None,
    run_log: Optional[RunLog] = None,
    results_store: Optional[ResultsStore] = None,
    progress: Optional[Progress] = None,
    zoo_cache_dir: Optional[str] = None,
) -> CampaignRun:
    """Run (or resume) every cell of ``spec`` under ``root``.

    Kill-safe at two granularities: completed cells are skipped via the
    root store's durable records; the in-flight cell resumes from its
    own per-image checkpoint.  ``results_store`` additionally appends
    each *freshly executed* cell to the long-lived trendline store
    (replayed cells were already recorded by the run that completed
    them).
    """
    log = ensure_log(run_log)
    notify = progress if progress is not None else lambda message: None
    cells = spec.expand()
    root_store = CheckpointStore(root)
    root_store.reconcile_manifest(
        matrix_manifest(
            spec.campaign_id, spec.fingerprint(), len(cells), spec.to_dict()
        )
    )
    _, done, truncated = load_matrix(root_store)
    if done or truncated:
        notify(
            f"# resumed campaign {spec.campaign_id}: "
            f"{len(done)}/{len(cells)} cells already complete"
        )
    log.emit(
        "campaign_start",
        campaign=spec.campaign_id,
        cells=len(cells),
        completed=len(done),
        truncated=truncated,
    )

    git_rev = git_revision()
    outcomes: List[CellOutcome] = []
    for position, cell in enumerate(cells, start=1):
        identity = cell.cell_id
        if identity in done:
            record = done[identity]
            notify(
                f"[{position}/{len(cells)}] {identity}: replayed "
                f"(success {record['summary']['success_rate']:.1%})"
            )
            log.emit("campaign_cell", cell=identity, replayed=True)
            outcomes.append(CellOutcome(cell=cell, record=record, replayed=True))
            continue

        notify(f"[{position}/{len(cells)}] {identity}: running...")
        classifier, pairs = build_cell_inputs(cell, zoo_cache_dir=zoo_cache_dir)
        attack = build_attack(cell)
        cell_log = RunLog()  # in-memory: captures this cell's cache stats
        summary = attack_dataset(
            attack,
            classifier,
            pairs,
            budget=cell.budget,
            executor=executor,
            run_log=cell_log,
            cache_size=cell.cache_size,
            checkpoint=CheckpointStore(cell_directory(root, identity)),
            base_seed=cell.base_seed,
        )
        cache_events = cell_log.of_type("cache_stats")
        cache = cache_events[-1] if cache_events else None
        if cache is not None:
            cache = {
                key: value
                for key, value in cache.items()
                if key in ("hits", "misses", "hit_rate")
            }
        payload = cell_payload(cell, summary, cache, git_rev, time.time())
        # Durable before acknowledged: the cell joins records.jsonl
        # first, so a crash right here re-runs (and re-records) at most
        # this one cell -- whose per-image checkpoint makes even that
        # re-run a replay.
        record = cell_record(identity, payload)
        root_store.append(record)
        if results_store is not None:
            results_store.append(
                make_record(
                    spec.campaign_id,
                    identity,
                    {**payload["summary"], **payload["timing"]},
                    git_rev=git_rev,
                    timestamp=payload["timestamp"],
                    extra={"cache": cache},
                )
            )
        notify(
            f"[{position}/{len(cells)}] {identity}: success "
            f"{summary.success_rate:.1%}, median queries "
            f"{summary.median_queries:g}"
        )
        log.emit(
            "campaign_cell",
            cell=identity,
            replayed=False,
            **summary.to_dict(),
        )
        outcomes.append(CellOutcome(cell=cell, record=record, replayed=False))

    log.emit(
        "campaign_end",
        campaign=spec.campaign_id,
        cells=len(cells),
        replayed=sum(1 for outcome in outcomes if outcome.replayed),
    )
    return CampaignRun(spec=spec, outcomes=outcomes)


def campaign_status(
    spec: CampaignSpec, root: str
) -> List[Tuple[CellSpec, str]]:
    """``(cell, state)`` per cell: ``done``, ``partial`` or ``pending``.

    ``partial`` means the cell's own checkpoint holds some per-image
    records but the cell never completed -- the state a kill mid-cell
    leaves behind.
    """
    root_store = CheckpointStore(root)
    _, done, _ = load_matrix(root_store)
    states = []
    for cell in spec.expand():
        if cell.cell_id in done:
            states.append((cell, "done"))
            continue
        records_path = os.path.join(
            cell_directory(root, cell.cell_id), RECORDS_NAME
        )
        partial = False
        try:
            with open(records_path, "rb") as handle:
                partial = handle.read().count(b"\n") > 0
        except FileNotFoundError:
            partial = False
        states.append((cell, "partial" if partial else "pending"))
    return states


def loaded_spec(root: str) -> CampaignSpec:
    """Rebuild the spec a campaign root was created from (its manifest)."""
    manifest = CheckpointStore(root).manifest()
    if manifest is None or "spec" not in manifest:
        raise SpecError(
            f"{root} holds no campaign manifest; run `repro campaign run` first"
        )
    return CampaignSpec.from_dict(manifest["spec"])
