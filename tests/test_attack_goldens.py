"""Committed golden traces for the sketch and the Sparse-RS and CornerSearch
baselines.

Each file under ``tests/data/goldens/`` is a
:mod:`repro.testkit.trace` golden: the full query stream one attack run
posed (digests, pixel writes, scores), plus the run's setup and result
in the header.  Replaying a golden answers every query from the file, so
these tests pin the attacks' query logic at zero forward passes: any
change to which images are posed, in what order, or to when the budget
stops the run fails at the first diverging query.  Replays run both
scalar and through batch-native stepping (``batch_size=8``).

The goldens cover, per attack, a success, a budget-exhausted run and a
targeted run on small toy images.  The sketch has two such triples: one
for the fixed prioritization (the all-false program) and one for
hand-picked programs under which each of B1-B4 fires, so its push-backs
and eager checks are pinned too.  A sketch golden's header also carries
the run's :class:`~repro.core.instrumentation.SketchStats` counters,
which a replay must reproduce.  Regenerate them only when the attack
logic changes on purpose::

    PYTHONPATH=src python tests/test_attack_goldens.py
"""

import functools
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.attacks.corner_search import CornerSearch, CornerSearchConfig
from repro.attacks.sketch_attack import SketchAttack
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.classifier.toy import LinearPixelClassifier, make_toy_images
from repro.core.dsl.ast import Program
from repro.core.dsl.parser import parse_program
from repro.core.instrumentation import SketchStats
from repro.core.sketch import OnePixelSketch
from repro.core.stepping import drive_steps
from repro.runtime.checkpoint import decode_attack_result, encode_attack_result
from repro.testkit.differential import result_fingerprint
from repro.testkit.trace import TraceRecorder, load_trace, replay

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "goldens")

SHAPE = (5, 5, 3)
IMAGES = make_toy_images(12, SHAPE, seed=2)

#: The sketch cases' programs.  Each hand-picked one fires every one of
#: B1-B4 on its case, and between them they use every function of the
#: condition language on both pixel references.
PROGRAMS = {
    "false": Program.constant(False),
    "drop": parse_program("""
        [B1] score_diff(N(x), N(x[l<-p]), c_x) < 0.01
        [B2] max(x[l]) > 0.5
        [B3] score_diff(N(x), N(x[l<-p]), c_x) > 0.02
        [B4] center(l) < 1.5
    """),
    "pixels": parse_program("""
        [B1] avg(p) > 0.5
        [B2] min(x[l]) < 0.3
        [B3] center(l) > 1.5
        [B4] max(p) < 0.5
    """),
    "mixed": parse_program("""
        [B1] center(l) < 1
        [B2] avg(x[l]) > 0.4
        [B3] min(p) > 0.5
        [B4] score_diff(N(x), N(x[l<-p]), c_x) > 0.05
    """),
}

ATTACKS = {
    "sparse-rs": lambda seed: SparseRS(SparseRSConfig(seed=seed)),
    "corner-search": lambda seed: CornerSearch(CornerSearchConfig(seed=seed)),
    "sketch": lambda program: SketchAttack(PROGRAMS[program]),
}

#: name -> (attack, attack seed or sketch program, image index,
#: target class, budget)
CASES = {
    "sparse_rs_success": ("sparse-rs", 4, 11, None, 60),
    "sparse_rs_exhausted": ("sparse-rs", 3, 0, None, 30),
    "sparse_rs_targeted": ("sparse-rs", 5, 8, 0, 60),
    "corner_search_success": ("corner-search", 2, 4, None, 60),
    "corner_search_exhausted": ("corner-search", 3, 0, None, 30),
    "corner_search_targeted": ("corner-search", 6, 11, 1, 60),
    "sketch_false_success": ("sketch", "false", 5, None, 60),
    "sketch_false_exhausted": ("sketch", "false", 0, None, 30),
    "sketch_false_targeted": ("sketch", "false", 11, 1, 60),
    "sketch_program_success": ("sketch", "drop", 10, None, 100),
    "sketch_program_exhausted": ("sketch", "pixels", 0, None, 30),
    "sketch_program_targeted": ("sketch", "mixed", 3, 1, 60),
}
SKETCH_CASES = sorted(name for name in CASES if CASES[name][0] == "sketch")


def _classifier():
    return LinearPixelClassifier(SHAPE, num_classes=3, seed=1, temperature=0.05)


def _case(name):
    attack_name, seed, index, target_class, budget = CASES[name]
    image = IMAGES[index]
    true_class = int(np.argmax(_classifier()(image)))
    return ATTACKS[attack_name](seed), image, true_class, target_class, budget


def _path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.jsonl")


def _counting_sketch(name, stats):
    """The case's sketch as a steppable attack that counts into ``stats``."""
    sketch = OnePixelSketch(PROGRAMS[CASES[name][1]])
    return SimpleNamespace(steps=functools.partial(sketch.steps, stats=stats))


@pytest.mark.parametrize("batch_size", [None, 8], ids=["scalar", "batched"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replays_exactly(name, batch_size):
    attack, image, true_class, target_class, budget = _case(name)
    header, events = load_trace(_path(name))
    assert header["true_class"] == true_class
    assert header["target_class"] == target_class
    assert header["budget"] == budget
    result = replay(
        attack, events, image, true_class, budget=budget,
        target_class=target_class, batch_size=batch_size,
    )
    recorded = decode_attack_result(header["result"])
    assert result_fingerprint(result) == result_fingerprint(recorded)
    assert sum(event.counted for event in events) == result.queries


@pytest.mark.parametrize("batch_size", [None, 8], ids=["scalar", "batched"])
@pytest.mark.parametrize("name", SKETCH_CASES)
def test_sketch_golden_counters(name, batch_size):
    """A replayed sketch fires its conditions, pushes back and eagerly
    checks exactly as often as the recorded run."""
    _, image, true_class, target_class, budget = _case(name)
    header, events = load_trace(_path(name))
    stats = SketchStats()
    replay(
        _counting_sketch(name, stats), events, image, true_class,
        budget=budget, target_class=target_class, batch_size=batch_size,
    )
    assert stats.to_dict() == header["stats"]


def test_sketch_goldens_fire_every_condition():
    for name in SKETCH_CASES:
        fired = load_trace(_path(name))[0]["stats"]["condition_fired"]
        if CASES[name][1] == "false":
            assert not any(fired.values()), name
        else:
            assert all(fired.values()), name


def test_goldens_cover_success_exhaustion_and_targeting():
    for prefix in ("sparse_rs", "corner_search", "sketch_false", "sketch_program"):
        results = {
            kind: load_trace(_path(f"{prefix}_{kind}"))[0]
            for kind in ("success", "exhausted", "targeted")
        }
        assert results["success"]["result"]["success"]
        exhausted = results["exhausted"]
        assert not exhausted["result"]["success"]
        assert exhausted["result"]["queries"] == exhausted["budget"]
        targeted = results["targeted"]
        assert targeted["result"]["success"]
        assert (
            targeted["result"]["adversarial_class"] == targeted["target_class"]
        )


def record_goldens():
    """Re-record every golden against the toy classifier."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(CASES):
        attack, image, true_class, target_class, budget = _case(name)
        recorder = TraceRecorder()
        result = recorder.record(
            attack, _classifier(), image, true_class, budget=budget,
            target_class=target_class,
        )
        recorder.header.update(
            target_class=target_class, result=encode_attack_result(result)
        )
        if name in SKETCH_CASES:
            stats = SketchStats()
            drive_steps(
                _counting_sketch(name, stats).steps(
                    image, true_class, budget=budget, target_class=target_class
                ),
                _classifier(),
            )
            recorder.header.update(stats=stats.to_dict())
        recorder.save(_path(name))
        print(f"{name}: {len(recorder.events)} queries, "
              f"success={result.success}")


if __name__ == "__main__":
    record_goldens()
