"""Adapter presenting a sketch program as a :class:`OnePixelAttack`."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.core.dsl.ast import Program
from repro.core.sketch import OnePixelSketch
from repro.core.stepping import AttackSteps


class SketchAttack(OnePixelAttack):
    """A synthesized (or hand-written) adversarial program as an attack."""

    def __init__(self, program: Program, label: str = "OPPSLA"):
        self.program = program
        self.sketch = OnePixelSketch(program)
        self._label = label

    @property
    def name(self) -> str:
        return self._label

    def steps(
        self,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> AttackSteps:
        self._validate(image)
        if batch_size is None:
            batch_size = self.batch_size
        result = yield from self.sketch.steps(
            image,
            true_class,
            budget=budget,
            target_class=target_class,
            batch_size=batch_size,
        )
        if result.success:
            return AttackResult(
                success=True,
                queries=result.queries,
                location=result.pair.location,
                perturbation=result.pair.perturbation,
                adversarial_class=result.adversarial_class,
            )
        return AttackResult(success=False, queries=result.queries)
