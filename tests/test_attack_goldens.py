"""Committed golden traces for the Sparse-RS and CornerSearch baselines.

Each file under ``tests/data/goldens/`` is a
:mod:`repro.testkit.trace` golden: the full query stream one attack run
posed (digests, pixel writes, scores), plus the run's setup and result
in the header.  Replaying a golden answers every query from the file, so
these tests pin the attacks' query logic at zero forward passes: any
change to which images are posed, in what order, or to when the budget
stops the run fails at the first diverging query.  Replays run both
scalar and through batch-native stepping (``batch_size=8``).

The goldens cover, per attack, a success, a budget-exhausted run and a
targeted run on small toy images.  Regenerate them only when the attack
logic changes on purpose::

    PYTHONPATH=src python tests/test_attack_goldens.py
"""

import os

import numpy as np
import pytest

from repro.attacks.corner_search import CornerSearch, CornerSearchConfig
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.classifier.toy import LinearPixelClassifier, make_toy_images
from repro.runtime.checkpoint import decode_attack_result, encode_attack_result
from repro.testkit.differential import result_fingerprint
from repro.testkit.trace import TraceRecorder, load_trace, replay

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "goldens")

SHAPE = (5, 5, 3)
IMAGES = make_toy_images(12, SHAPE, seed=2)

ATTACKS = {
    "sparse-rs": lambda seed: SparseRS(SparseRSConfig(seed=seed)),
    "corner-search": lambda seed: CornerSearch(CornerSearchConfig(seed=seed)),
}

#: name -> (attack, attack seed, image index, target class, budget)
CASES = {
    "sparse_rs_success": ("sparse-rs", 4, 11, None, 60),
    "sparse_rs_exhausted": ("sparse-rs", 3, 0, None, 30),
    "sparse_rs_targeted": ("sparse-rs", 5, 8, 0, 60),
    "corner_search_success": ("corner-search", 2, 4, None, 60),
    "corner_search_exhausted": ("corner-search", 3, 0, None, 30),
    "corner_search_targeted": ("corner-search", 6, 11, 1, 60),
}


def _classifier():
    return LinearPixelClassifier(SHAPE, num_classes=3, seed=1, temperature=0.05)


def _case(name):
    attack_name, seed, index, target_class, budget = CASES[name]
    image = IMAGES[index]
    true_class = int(np.argmax(_classifier()(image)))
    return ATTACKS[attack_name](seed), image, true_class, target_class, budget


def _path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.jsonl")


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


def test_goldens_cover_success_exhaustion_and_targeting():
    for attack_name in ATTACKS:
        prefix = attack_name.replace("-", "_")
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
        recorder.save(_path(name))
        print(f"{name}: {len(recorder.events)} queries, "
              f"success={result.success}")


if __name__ == "__main__":
    record_goldens()
