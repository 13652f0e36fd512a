"""Distance metrics and the RGB-corner perturbation space (Section 3.1).

The paper adopts Sparse-RS's insight that almost all successful one-pixel
adversarial examples use a perturbation at one of the eight corners of the
RGB color cube, so the perturbation space is ``{0, 1}^3`` per location.

Two metrics order the space:

- location distance: ``Linf`` over the (row, col) grid;
- pixel distance: ``L1`` over RGB values.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

#: The eight corners of the RGB cube, indexed 0..7; corner ``k`` has
#: channel ``c`` equal to bit ``c`` of ``k`` (r = bit 0, g = bit 1, b = bit 2).
RGB_CORNERS = np.array(
    [[(k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1] for k in range(8)],
    dtype=np.float64,
)

NUM_CORNERS = 8


def pixel_distance(p1: np.ndarray, p2: np.ndarray) -> float:
    """L1 distance between two RGB pixels."""
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if p1.shape != (3,) or p2.shape != (3,):
        raise ValueError("pixels must be RGB triples")
    return float(np.abs(p1 - p2).sum())


def location_distance(l1: Tuple[int, int], l2: Tuple[int, int]) -> int:
    """Linf (Chebyshev) distance between two pixel locations."""
    return max(abs(l1[0] - l2[0]), abs(l1[1] - l2[1]))


def corner_distances(pixel: np.ndarray) -> np.ndarray:
    """L1 distance from ``pixel`` to each of the eight RGB corners."""
    pixel = np.asarray(pixel, dtype=np.float64)
    if pixel.shape != (3,):
        raise ValueError("pixel must be an RGB triple")
    return np.abs(RGB_CORNERS - pixel).sum(axis=1)


def corner_ranking(pixel: np.ndarray) -> np.ndarray:
    """Corner indices ordered from farthest to closest to ``pixel``.

    Position ``r`` of the result is the index of the ``r``-th farthest
    corner (ties broken by corner index, so the ranking is deterministic).
    """
    distances = corner_distances(pixel)
    # argsort ascending on negated distance = descending; stable sort keeps
    # corner-index order among ties.
    return np.argsort(-distances, kind="stable")


def image_center(shape: Tuple[int, int]) -> Tuple[float, float]:
    """The (possibly fractional) center of a ``(d1, d2)`` grid."""
    d1, d2 = shape
    if d1 <= 0 or d2 <= 0:
        raise ValueError("image dimensions must be positive")
    return ((d1 - 1) / 2.0, (d2 - 1) / 2.0)


def center_distance(location: Tuple[int, int], shape: Tuple[int, int]) -> float:
    """Linf distance of ``location`` from the image center.

    This is the quantity the DSL's ``center(l)`` function computes.
    """
    ci, cj = image_center(shape)
    return max(abs(location[0] - ci), abs(location[1] - cj))


@functools.lru_cache(maxsize=None)
def center_distances(shape: Tuple[int, int]) -> np.ndarray:
    """:func:`center_distance` of every location, as a read-only
    ``(d1, d2)`` array (the same values, bit for bit)."""
    d1, d2 = shape
    ci, cj = image_center(shape)
    rows = np.arange(d1)[:, None]
    cols = np.arange(d2)[None, :]
    distances = np.maximum(np.abs(rows - ci), np.abs(cols - cj))
    distances.flags.writeable = False
    return distances


def max_center_distance(shape: Tuple[int, int]) -> float:
    """The largest value :func:`center_distance` can take on ``shape``."""
    ci, cj = image_center(shape)
    return max(ci, cj)
