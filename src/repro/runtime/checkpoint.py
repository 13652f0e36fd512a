"""Durable checkpoint store: crash-safe progress for long runs.

The expensive phases of this system -- full-dataset attack campaigns and
the Metropolis-Hastings synthesis loop -- run for hours, and before this
module a worker crash, OOM kill, or SIGTERM lost the entire run: the
runtime contained *per-task* faults (:class:`~repro.runtime.faults.FaultPolicy`)
but not *process-level* failure.  A :class:`CheckpointStore` closes that
gap with the classic write-ahead layout:

- ``manifest.json`` -- one atomically-replaced JSON document pinning the
  run's identity (attack name, budget, seed, dataset size...).  Resume
  refuses to mix checkpoints across incompatible runs
  (:class:`CheckpointMismatch`) instead of silently merging them.
- ``records.jsonl`` -- an append-only JSONL file of per-unit records
  (one completed :class:`~repro.attacks.base.AttackResult`, one chain
  snapshot, one persisted serve session).  Every append is flushed and
  ``fsync``'d before the caller proceeds, so a record either exists
  completely or not at all -- except for the final line, which a crash
  can tear mid-write.  :meth:`CheckpointStore.records` therefore drops a
  torn tail line (reporting it via the ``truncated`` flag) rather than
  raising, and :meth:`CheckpointStore.append` repairs a torn tail before
  writing so the file never accumulates garbage.

Consumers re-derive any per-unit randomness from
:func:`~repro.runtime.pool.task_seed` (recorded per unit and verified on
resume), which is what makes a resumed run bit-identical to an
uninterrupted one.  See :func:`repro.eval.runner.attack_dataset`,
:meth:`repro.core.synthesis.mh.MetropolisHastings.run`, and
:meth:`repro.serve.server.AttackServer.drain_and_stop` for the three
consumers.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.attacks.base import AttackResult
from repro.core.pairs import Pair
from repro.core.sketch import SketchResult

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"


class CheckpointError(RuntimeError):
    """A checkpoint directory is unusable (corrupt beyond a torn tail)."""


class CheckpointMismatch(CheckpointError):
    """A checkpoint belongs to a different run than the one resuming.

    Raised instead of silently merging incompatible runs -- e.g. resuming
    an attack campaign with a different budget, base seed, or dataset
    size than the one that wrote the records.
    """


def _fsync_directory(path: str) -> None:
    """Flush directory metadata so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class CheckpointStore:
    """A write-ahead, atomic-rename checkpoint directory.

    Parameters
    ----------
    directory:
        Where ``manifest.json`` and ``records.jsonl`` live; created on
        first use.
    sync:
        ``fsync`` every append and manifest write (the default).  Tests
        that hammer the store may pass ``False``; production consumers
        should not.

    Thread-safe: appends are serialized under one lock, so concurrent
    session-driving threads can persist through a shared store.
    """

    def __init__(self, directory: str, sync: bool = True):
        self.directory = str(directory)
        self._sync = sync
        self._lock = threading.Lock()
        self._handle = None
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    @property
    def records_path(self) -> str:
        return os.path.join(self.directory, RECORDS_NAME)

    def write_manifest(self, payload: Dict) -> None:
        """Atomically replace the manifest (temp file + rename + fsync).

        A crash mid-write leaves either the old manifest or the new one,
        never a torn hybrid -- the rename is the commit point.
        """
        temp_path = self.manifest_path + ".tmp"
        with open(temp_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.flush()
            if self._sync:
                os.fsync(handle.fileno())
        os.replace(temp_path, self.manifest_path)
        if self._sync:
            _fsync_directory(self.directory)

    def manifest(self) -> Optional[Dict]:
        """The manifest, or ``None`` when the store is fresh."""
        try:
            with open(self.manifest_path) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"corrupt manifest at {self.manifest_path}: {exc}"
            ) from exc

    def reconcile_manifest(self, expected: Dict) -> Dict:
        """Write ``expected`` on a fresh store; verify it on an old one.

        Returns the manifest in force.  Raises :class:`CheckpointMismatch`
        when an existing manifest disagrees with ``expected`` on any key,
        which is the guard against resuming the wrong run.
        """
        existing = self.manifest()
        if existing is None:
            self.write_manifest(expected)
            return expected
        if existing != expected:
            differing = sorted(
                key
                for key in set(existing) | set(expected)
                if existing.get(key) != expected.get(key)
            )
            raise CheckpointMismatch(
                f"checkpoint at {self.directory} belongs to a different run "
                f"(fields differ: {', '.join(differing)}); refusing to resume"
            )
        return existing

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def append(self, record: Dict) -> None:
        """Durably append one record; returns only once it is on disk."""
        line = json.dumps(record)
        with self._lock:
            handle = self._open_for_append()
            handle.write(line + "\n")
            handle.flush()
            if self._sync:
                os.fsync(handle.fileno())

    def _open_for_append(self):
        if self._handle is not None:
            return self._handle
        # Repair a torn tail before appending: a crash mid-write leaves a
        # partial final line with no newline, and appending after it
        # would weld two records into one unparseable line.  Truncate
        # back to the last complete line instead; the lost unit is simply
        # re-executed on resume.
        if os.path.exists(self.records_path):
            with open(self.records_path, "rb+") as raw:
                raw.seek(0, os.SEEK_END)
                size = raw.tell()
                if size > 0:
                    raw.seek(-1, os.SEEK_END)
                    if raw.read(1) != b"\n":
                        raw.seek(0)
                        data = raw.read()
                        keep = data.rfind(b"\n") + 1
                        raw.truncate(keep)
        self._handle = open(self.records_path, "a")
        return self._handle

    def records(self) -> Tuple[List[Dict], bool]:
        """All complete records, plus whether a torn tail was dropped.

        A final line that fails to parse is treated as the residue of a
        crash mid-append and skipped; a malformed line anywhere *else*
        means the file was corrupted by something other than a crash and
        raises :class:`CheckpointError`.
        """
        try:
            with open(self.records_path) as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return [], False
        numbered = [
            (number, line.strip())
            for number, line in enumerate(lines, start=1)
            if line.strip()
        ]
        records: List[Dict] = []
        truncated = False
        for position, (number, line) in enumerate(numbered):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if position == len(numbered) - 1:
                    truncated = True
                    break
                raise CheckpointError(
                    f"corrupt record at {self.records_path}:{number}: {exc}"
                ) from exc
        return records, truncated

    def clear_records(self, keep: Iterable[Dict] = ()) -> None:
        """Atomically replace the record file with ``keep`` (default: none).

        ``keep`` is written to a temp file before the rename, so a crash
        leaves either the old records or the compacted ones, never a
        window in which a kept record exists nowhere on disk.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            temp_path = self.records_path + ".tmp"
            with open(temp_path, "w") as handle:
                for record in keep:
                    handle.write(json.dumps(record) + "\n")
                handle.flush()
                if self._sync:
                    os.fsync(handle.fileno())
            os.replace(temp_path, self.records_path)
            if self._sync:
                _fsync_directory(self.directory)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def as_store(
    checkpoint: Union[None, str, "os.PathLike", CheckpointStore]
) -> Optional[CheckpointStore]:
    """Accept a directory path or a ready store at API boundaries."""
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(str(checkpoint))


# ----------------------------------------------------------------------
# codecs: the JSON shapes records carry
# ----------------------------------------------------------------------


def encode_attack_result(result: AttackResult) -> Dict:
    """JSON-safe encoding of one :class:`AttackResult`, lossless."""
    return {
        "success": result.success,
        "queries": result.queries,
        "location": list(result.location) if result.location is not None else None,
        "perturbation": (
            None
            if result.perturbation is None
            else np.asarray(result.perturbation, dtype=np.float64).tolist()
        ),
        "adversarial_class": result.adversarial_class,
        "error": result.error,
    }


def decode_attack_result(payload: Dict) -> AttackResult:
    location = payload.get("location")
    perturbation = payload.get("perturbation")
    return AttackResult(
        success=payload["success"],
        queries=payload["queries"],
        location=tuple(location) if location is not None else None,
        perturbation=(
            np.asarray(perturbation, dtype=np.float64)
            if perturbation is not None
            else None
        ),
        adversarial_class=payload.get("adversarial_class"),
        error=payload.get("error"),
    )


def encode_sketch_result(result: SketchResult) -> Dict:
    """Encode one per-image sketch outcome.

    ``adversarial_image`` is deliberately dropped: it is derivable from
    the pair plus the clean image, and carrying full images would bloat
    every chain snapshot by the training-set size.
    """
    pair = result.pair
    return {
        "success": result.success,
        "queries": result.queries,
        "pair": [pair.row, pair.col, pair.corner] if pair is not None else None,
        "adversarial_class": result.adversarial_class,
    }


def decode_sketch_result(payload: Dict) -> SketchResult:
    pair = payload.get("pair")
    return SketchResult(
        success=payload["success"],
        queries=payload["queries"],
        pair=Pair(*pair) if pair is not None else None,
        adversarial_class=payload.get("adversarial_class"),
    )


def encode_rng_state(rng: np.random.Generator) -> Dict:
    """The bit generator's full state, JSON-safe.

    ``numpy`` exposes the state as nested dicts of Python ints (PCG64's
    128-bit counters are arbitrary-precision ints), so ``json`` round-
    trips it exactly; restoring it continues the stream bit-identically.
    """
    return json.loads(json.dumps(rng.bit_generator.state))


def restore_rng_state(rng: np.random.Generator, state: Dict) -> None:
    """Rewind ``rng`` to a recorded state (in place)."""
    expected = type(rng.bit_generator).__name__
    recorded = state.get("bit_generator")
    if recorded != expected:
        raise CheckpointMismatch(
            f"checkpoint recorded a {recorded} bit generator, "
            f"but the resuming run uses {expected}"
        )
    rng.bit_generator.state = state


# ----------------------------------------------------------------------
# attack-campaign records
# ----------------------------------------------------------------------

CAMPAIGN_RECORD = "attack_result"


def campaign_manifest(
    attack_name: str,
    total_images: int,
    budget: Optional[int],
    base_seed: int,
) -> Dict:
    """The identity an attack campaign pins in its manifest."""
    return {
        "kind": "attack_campaign",
        "attack": attack_name,
        "images": total_images,
        "budget": budget,
        "base_seed": base_seed,
    }


def campaign_record(
    index: int, seed: int, result: AttackResult, seconds: Optional[float] = None
) -> Dict:
    """One durable per-image unit; ``seconds`` is its measured wall time.

    Timing rides along so a resumed campaign restores the *original*
    per-image latency of completed units instead of reporting zero --
    the perf trendline stays meaningful across kills.
    """
    record = {
        "kind": CAMPAIGN_RECORD,
        "index": index,
        "seed": seed,
        "result": encode_attack_result(result),
    }
    if seconds is not None:
        record["seconds"] = seconds
    return record


def load_campaign(
    store: CheckpointStore,
) -> Tuple[
    Optional[Dict],
    Dict[int, AttackResult],
    Dict[int, int],
    Dict[int, float],
    bool,
]:
    """Read a campaign checkpoint back.

    Returns ``(manifest, results_by_index, seeds_by_index,
    seconds_by_index, truncated)``.  Later records win on duplicate
    indices (a unit re-executed after a torn tail overwrites the dropped
    original).  Records written before timing existed simply have no
    entry in the seconds map.
    """
    records, truncated = store.records()
    results: Dict[int, AttackResult] = {}
    seeds: Dict[int, int] = {}
    seconds: Dict[int, float] = {}
    for record in records:
        if record.get("kind") != CAMPAIGN_RECORD:
            continue
        index = int(record["index"])
        results[index] = decode_attack_result(record["result"])
        seeds[index] = int(record["seed"])
        if record.get("seconds") is not None:
            seconds[index] = float(record["seconds"])
        else:
            seconds.pop(index, None)
    return store.manifest(), results, seeds, seconds, truncated


# ----------------------------------------------------------------------
# serve-session records (a serve drain, the cluster router's ledger)
# ----------------------------------------------------------------------


def open_sessions_from_records(records: List[Dict]) -> Dict[str, Dict]:
    """Session records -> the still-open ones, by id.

    Later ``session`` records win on duplicate ids (a rebalance
    re-appends the spec it re-submitted; a later drain re-persists a
    session), and a ``session_done`` marker anywhere closes its id.  A
    serve checkpoint carries no markers, so every session it persisted
    is open; the router's ledger closes each session as it settles.
    """
    sessions: Dict[str, Dict] = {}
    finished = set()
    for record in records:
        kind = record.get("kind")
        if kind == "session":
            sessions[record["id"]] = record
        elif kind == "session_done":
            finished.add(record["id"])
    return {
        session_id: record
        for session_id, record in sessions.items()
        if session_id not in finished
    }


# ----------------------------------------------------------------------
# campaign-matrix records (repro.campaign)
# ----------------------------------------------------------------------

MATRIX_MANIFEST_KIND = "campaign_matrix"
CELL_RECORD = "cell_result"


def matrix_manifest(
    campaign_id: str, fingerprint: str, total_cells: int, spec: Dict
) -> Dict:
    """The identity a campaign *matrix* pins in its root manifest.

    Same contract as :func:`campaign_manifest` one level up: the
    fingerprint covers the canonical spec, so a matrix checkpoint cannot
    be resumed under an edited spec (``CheckpointMismatch`` instead of a
    silent merge of incompatible cells).
    """
    return {
        "kind": MATRIX_MANIFEST_KIND,
        "campaign": campaign_id,
        "fingerprint": fingerprint,
        "cells": total_cells,
        "spec": spec,
    }


def cell_record(cell_id: str, payload: Dict) -> Dict:
    """One durable completed-cell unit in a matrix checkpoint."""
    return {"kind": CELL_RECORD, "cell": cell_id, **payload}


def load_matrix(store: CheckpointStore) -> Tuple[Optional[Dict], Dict[str, Dict], bool]:
    """Read a matrix checkpoint back: ``(manifest, cells_by_id, truncated)``.

    Later records win on duplicate cell ids, mirroring
    :func:`load_campaign`'s torn-tail semantics.
    """
    records, truncated = store.records()
    cells: Dict[str, Dict] = {}
    for record in records:
        if record.get("kind") != CELL_RECORD:
            continue
        cells[str(record["cell"])] = record
    return store.manifest(), cells, truncated
