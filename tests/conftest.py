"""Shared fixtures for the test suite.

All classifier-dependent tests use the toy classifiers from
:mod:`repro.classifier.toy` so the suite stays fast; end-to-end tests
against trained CNNs live in ``tests/test_integration_zoo.py`` and use a
session-scoped cached model.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.classifier.toy import (
    LinearPixelClassifier,
    MarginRampClassifier,
    SinglePixelBackdoorClassifier,
    make_toy_images,
)

TOY_SHAPE = (6, 6, 3)

# Hypothesis profiles.  Tier-1 runs use the default; the nightly workflow
# sets HYPOTHESIS_PROFILE=nightly, which stateful tests such as
# tests/test_router_model.py read to run many more, longer programs.
settings.register_profile(
    "nightly", max_examples=400, stateful_step_count=60, deadline=None
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def toy_shape():
    return TOY_SHAPE


@pytest.fixture
def linear_classifier():
    """A fragile linear classifier over 6x6 images; many are attackable."""
    return LinearPixelClassifier(TOY_SHAPE, num_classes=3, seed=1, temperature=0.05)


@pytest.fixture
def backdoor_classifier():
    """Predicts class 0 unless pixel (2, 3) is exactly white."""
    return SinglePixelBackdoorClassifier(
        TOY_SHAPE, trigger_location=(2, 3), trigger_value=np.ones(3)
    )


@pytest.fixture
def margin_classifier():
    """Flips when pixel (1, 1) becomes bright enough."""
    return MarginRampClassifier(TOY_SHAPE, weak_location=(1, 1), threshold=2.5)


@pytest.fixture
def toy_images():
    """Twelve random smooth 6x6 images."""
    return make_toy_images(12, TOY_SHAPE, seed=2)


@pytest.fixture
def toy_pairs(linear_classifier, toy_images):
    """(image, predicted class) pairs for the linear classifier."""
    return [
        (image, int(np.argmax(linear_classifier(image)))) for image in toy_images
    ]
