"""Declarative campaign specs: the experiment matrix as data.

The paper's evaluation is itself a cross-product -- Figure 3 and
Tables 1-2 sweep {models x attacks x datasets x query budgets} -- and a
:class:`CampaignSpec` is that cross-product written down as a TOML or
JSON document instead of an ad-hoc script::

    [campaign]
    id = "toy-2x2"
    seed = 7
    images = 6
    budget = 64

    [matrix]
    datasets = ["toy"]
    models = ["toy-smooth", "toy-linear"]
    attacks = ["fixed", "random"]
    budgets = [64]            # optional; defaults to [campaign.budget]

    [model.toy-smooth]        # optional per-model settings
    height = 8
    width = 8
    classes = 4

    [attack.random]           # optional per-attack settings (merged
    # into the attack's config dataclass; seeds derive from the cell)

    [overrides]               # optional run-wide execution settings
    cache_size = 16

Everything downstream is a pure function of the spec:

- :meth:`CampaignSpec.expand` produces the cell list in a deterministic
  order, each cell carrying a **stable id** (a readable slug of its
  coordinates) and a base seed derived from
  ``SeedSequence([campaign.seed, crc32(cell_id)])`` -- so a cell's
  randomness depends only on the campaign seed and the cell's identity,
  never on its position in the matrix or on which other cells exist.
  Adding a row to the matrix does not change any existing cell's seed.
- :meth:`CampaignSpec.fingerprint` hashes the canonical spec, which is
  what the matrix checkpoint manifest pins: a checkpoint written under
  an edited spec refuses to resume instead of silently mixing cells.

Validation happens at load time (:class:`SpecError` with the offending
field named), not deep inside the runner.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.models.registry import ARCHITECTURES

#: Models runnable without the CNN zoo: deterministic toy classifiers.
TOY_MODELS = ("toy-smooth", "toy-linear")
#: Datasets: synthetic toy images, or the zoo's cached CIFAR/ImageNet-likes.
TOY_DATASET = "toy"
ZOO_DATASETS = ("cifar", "imagenet")
#: Attack kinds the runner knows how to build (see campaign.runner).
ATTACK_KINDS = ("fixed", "random", "sparse-rs", "su-opa")
PROGRAM_PREFIX = "program:"


class SpecError(ValueError):
    """A campaign spec is malformed; the message names the field."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _string_list(value, field_name: str) -> Tuple[str, ...]:
    _require(
        isinstance(value, (list, tuple)) and len(value) > 0,
        f"{field_name} must be a non-empty list",
    )
    for item in value:
        _require(
            isinstance(item, str) and item,
            f"{field_name} entries must be non-empty strings, got {item!r}",
        )
    _require(
        len(set(value)) == len(value),
        f"{field_name} entries must be unique (duplicates would produce "
        f"colliding cell ids)",
    )
    return tuple(value)


def _valid_attack(kind: str) -> bool:
    if kind in ATTACK_KINDS:
        return True
    return kind.startswith(PROGRAM_PREFIX) and len(kind) > len(PROGRAM_PREFIX)


def _slug(text: str) -> str:
    """A filesystem- and report-safe token for one axis value."""
    safe = []
    for char in text:
        safe.append(char if char.isalnum() or char in "-_." else "_")
    return "".join(safe)


@dataclass(frozen=True)
class CellSpec:
    """One fully-resolved cell of the matrix: everything a run needs.

    ``base_seed`` feeds :func:`~repro.runtime.pool.task_seed` (per-image
    attack randomness, verified on resume); ``data_seed`` generates the
    cell's toy dataset.  Both derive from the campaign seed and the cell
    id alone, so they are stable under matrix edits elsewhere.
    """

    campaign_id: str
    dataset: str
    model: str
    attack: str
    budget: int
    images: int
    base_seed: int
    data_seed: int
    model_config: Mapping = field(default_factory=dict)
    attack_config: Mapping = field(default_factory=dict)
    cache_size: Optional[int] = None

    @property
    def cell_id(self) -> str:
        return cell_id(self.dataset, self.model, self.attack, self.budget)

    def to_dict(self) -> Dict:
        return {
            "cell": self.cell_id,
            "dataset": self.dataset,
            "model": self.model,
            "attack": self.attack,
            "budget": self.budget,
            "images": self.images,
            "base_seed": self.base_seed,
        }


def cell_id(dataset: str, model: str, attack: str, budget: int) -> str:
    """The stable identity of one matrix coordinate."""
    return f"{_slug(dataset)}.{_slug(model)}.{_slug(attack)}.b{budget}"


def cell_seeds(campaign_seed: int, identity: str) -> Tuple[int, int]:
    """``(base_seed, data_seed)`` for a cell, from its id alone.

    ``crc32`` keys the entropy by the cell's *identity* (not its
    position), and :class:`numpy.random.SeedSequence` turns the pair
    into two well-mixed independent streams.
    """
    sequence = np.random.SeedSequence(
        [campaign_seed, zlib.crc32(identity.encode("utf-8"))]
    )
    state = sequence.generate_state(2)
    return int(state[0]), int(state[1])


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: identity, matrix axes, and overrides."""

    campaign_id: str
    seed: int
    images: int
    budget: int
    datasets: Tuple[str, ...]
    models: Tuple[str, ...]
    attacks: Tuple[str, ...]
    budgets: Tuple[int, ...]
    model_config: Mapping[str, Mapping] = field(default_factory=dict)
    attack_config: Mapping[str, Mapping] = field(default_factory=dict)
    cache_size: Optional[int] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CampaignSpec":
        """Build and validate a spec from its document form."""
        _require(isinstance(payload, Mapping), "spec must be a table/object")
        unknown = set(payload) - {"campaign", "matrix", "model", "attack", "overrides"}
        _require(not unknown, f"unknown top-level sections: {sorted(unknown)}")

        campaign = payload.get("campaign")
        _require(
            isinstance(campaign, Mapping), "missing required [campaign] section"
        )
        campaign_id = campaign.get("id")
        _require(
            isinstance(campaign_id, str) and campaign_id,
            "campaign.id must be a non-empty string",
        )
        _require(
            campaign_id == _slug(campaign_id),
            f"campaign.id {campaign_id!r} may only contain alphanumerics, "
            f"'-', '_' and '.' (it names files and BENCH metrics)",
        )
        seed = campaign.get("seed", 0)
        _require(
            isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            "campaign.seed must be a non-negative integer",
        )
        images = campaign.get("images")
        _require(
            isinstance(images, int) and not isinstance(images, bool) and images > 0,
            "campaign.images must be a positive integer",
        )
        budget = campaign.get("budget")
        _require(
            isinstance(budget, int) and not isinstance(budget, bool) and budget > 0,
            "campaign.budget must be a positive integer",
        )

        matrix = payload.get("matrix")
        _require(isinstance(matrix, Mapping), "missing required [matrix] section")
        models = _string_list(matrix.get("models"), "matrix.models")
        attacks = _string_list(matrix.get("attacks"), "matrix.attacks")
        datasets = matrix.get("datasets", [TOY_DATASET])
        datasets = _string_list(datasets, "matrix.datasets")
        budgets = matrix.get("budgets", [budget])
        _require(
            isinstance(budgets, (list, tuple)) and len(budgets) > 0,
            "matrix.budgets must be a non-empty list",
        )
        for value in budgets:
            _require(
                isinstance(value, int)
                and not isinstance(value, bool)
                and value > 0,
                f"matrix.budgets entries must be positive integers, got {value!r}",
            )
        _require(
            len(set(budgets)) == len(budgets),
            "matrix.budgets entries must be unique",
        )

        for dataset in datasets:
            _require(
                dataset == TOY_DATASET or dataset in ZOO_DATASETS,
                f"unknown dataset {dataset!r}; known: "
                f"{[TOY_DATASET, *ZOO_DATASETS]}",
            )
        for model in models:
            _require(
                model in TOY_MODELS or model in ARCHITECTURES,
                f"unknown model {model!r}; known: "
                f"{sorted(TOY_MODELS) + sorted(ARCHITECTURES)}",
            )
        for dataset in datasets:
            for model in models:
                toy_model = model in TOY_MODELS
                toy_dataset = dataset == TOY_DATASET
                _require(
                    toy_model == toy_dataset,
                    f"model {model!r} cannot run on dataset {dataset!r}: toy "
                    f"models pair with the 'toy' dataset, registry "
                    f"architectures with 'cifar'/'imagenet'",
                )
        for attack in attacks:
            _require(
                _valid_attack(attack),
                f"unknown attack {attack!r}; known: {list(ATTACK_KINDS)} or "
                f"'program:<path>'",
            )

        model_config = payload.get("model", {})
        _require(
            isinstance(model_config, Mapping),
            "[model.*] sections must be tables",
        )
        for name in model_config:
            _require(
                name in models,
                f"[model.{name}] configures a model absent from matrix.models",
            )
        attack_config = payload.get("attack", {})
        _require(
            isinstance(attack_config, Mapping),
            "[attack.*] sections must be tables",
        )
        for name in attack_config:
            _require(
                name in attacks,
                f"[attack.{name}] configures an attack absent from "
                f"matrix.attacks",
            )

        overrides = payload.get("overrides", {})
        _require(isinstance(overrides, Mapping), "[overrides] must be a table")
        unknown = set(overrides) - {"cache_size"}
        _require(not unknown, f"unknown overrides: {sorted(unknown)}")
        cache_size = overrides.get("cache_size")
        if cache_size is not None:
            _require(
                isinstance(cache_size, int)
                and not isinstance(cache_size, bool)
                and cache_size >= 0,
                "overrides.cache_size must be a non-negative integer",
            )

        return cls(
            campaign_id=campaign_id,
            seed=seed,
            images=images,
            budget=budget,
            datasets=datasets,
            models=models,
            attacks=attacks,
            budgets=tuple(budgets),
            model_config={k: dict(v) for k, v in model_config.items()},
            attack_config={k: dict(v) for k, v in attack_config.items()},
            cache_size=cache_size,
        )

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        """Parse a ``.toml`` or ``.json`` spec file."""
        extension = os.path.splitext(path)[1].lower()
        if extension == ".toml":
            try:
                import tomllib
            except ImportError as exc:  # Python < 3.11
                raise SpecError(
                    "TOML specs need Python >= 3.11 (tomllib); rewrite the "
                    "spec as JSON or upgrade the interpreter"
                ) from exc
            with open(path, "rb") as handle:
                try:
                    payload = tomllib.load(handle)
                except tomllib.TOMLDecodeError as exc:
                    raise SpecError(f"invalid TOML in {path}: {exc}") from exc
        elif extension == ".json":
            with open(path) as handle:
                try:
                    payload = json.load(handle)
                except json.JSONDecodeError as exc:
                    raise SpecError(f"invalid JSON in {path}: {exc}") from exc
        else:
            raise SpecError(
                f"unsupported spec extension {extension!r} (use .toml or .json)"
            )
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """The canonical document form (round-trips via ``from_dict``)."""
        return {
            "campaign": {
                "id": self.campaign_id,
                "seed": self.seed,
                "images": self.images,
                "budget": self.budget,
            },
            "matrix": {
                "datasets": list(self.datasets),
                "models": list(self.models),
                "attacks": list(self.attacks),
                "budgets": list(self.budgets),
            },
            "model": {k: dict(v) for k, v in sorted(self.model_config.items())},
            "attack": {k: dict(v) for k, v in sorted(self.attack_config.items())},
            "overrides": {"cache_size": self.cache_size},
        }

    def fingerprint(self) -> str:
        """SHA-256 of the canonical spec; pins checkpoint identity."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------

    def expand(self) -> List[CellSpec]:
        """The matrix cross-product in deterministic (listed) order.

        Cell ids are guaranteed unique (axis entries are unique and the
        id embeds every coordinate), and each cell's seeds depend only
        on ``(campaign.seed, cell_id)`` -- see :func:`cell_seeds`.
        """
        cells: List[CellSpec] = []
        for dataset, model, attack, budget in itertools.product(
            self.datasets, self.models, self.attacks, self.budgets
        ):
            identity = cell_id(dataset, model, attack, budget)
            base_seed, data_seed = cell_seeds(self.seed, identity)
            cells.append(
                CellSpec(
                    campaign_id=self.campaign_id,
                    dataset=dataset,
                    model=model,
                    attack=attack,
                    budget=budget,
                    images=self.images,
                    base_seed=base_seed,
                    data_seed=data_seed,
                    model_config=dict(self.model_config.get(model, {})),
                    attack_config=dict(self.attack_config.get(attack, {})),
                    cache_size=self.cache_size,
                )
            )
        return cells
