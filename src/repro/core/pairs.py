"""Location-perturbation pairs, the atoms of the sketch's search space.

A candidate adversarial example is fully described by *where* to perturb
(a pixel location) and *what value* to write (one of the eight RGB-cube
corners, referenced by index so pairs stay hashable).

Inside the sketch a pair is an int, its *index*: the pair
``(row, col, corner)`` of a ``(d1, d2)`` image is
``(row * d2 + col) * 8 + corner``.  Index order is row-major location
order, then corner order, and a location's eight pairs are consecutive.
This module owns that encoding -- no other module computes it -- and the
conversion to and from :class:`Pair`, which the sketch builds only for a
result or for inspection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.core.geometry import NUM_CORNERS, RGB_CORNERS


@dataclass(frozen=True, order=True)
class Pair:
    """An immutable (location, corner) pair.

    ``corner`` indexes :data:`repro.core.geometry.RGB_CORNERS`; the actual
    RGB perturbation value is :attr:`perturbation`.
    """

    row: int
    col: int
    corner: int

    def __post_init__(self):
        if not 0 <= self.corner < NUM_CORNERS:
            raise ValueError(f"corner index must be in [0, 8), got {self.corner}")
        if self.row < 0 or self.col < 0:
            raise ValueError("location indices must be non-negative")

    @property
    def location(self) -> Tuple[int, int]:
        return (self.row, self.col)

    @property
    def perturbation(self) -> np.ndarray:
        """The RGB value this pair writes at its location."""
        return RGB_CORNERS[self.corner]

    def apply(self, image: np.ndarray) -> np.ndarray:
        """Return ``image[l <- p]``: a copy with this pair's pixel written."""
        if self.row >= image.shape[0] or self.col >= image.shape[1]:
            raise ValueError(
                f"pair location {self.location} outside image {image.shape[:2]}"
            )
        perturbed = image.copy()
        perturbed[self.row, self.col] = self.perturbation
        return perturbed


def pair_count(shape: Tuple[int, int]) -> int:
    """The number of pairs of a ``(d1, d2)`` image: ``8 * d1 * d2``."""
    d1, d2 = shape
    return NUM_CORNERS * d1 * d2


def index_of(pair: Pair, shape: Tuple[int, int]) -> int:
    """The index of ``pair`` in a ``(d1, d2)`` image."""
    d1, d2 = shape
    if pair.row >= d1 or pair.col >= d2:
        raise ValueError(f"pair location {pair.location} outside image {shape}")
    return (pair.row * d2 + pair.col) * NUM_CORNERS + pair.corner


def pair_at(index: int, shape: Tuple[int, int]) -> Pair:
    """The :class:`Pair` at ``index`` of a ``(d1, d2)`` image."""
    location, corner = divmod(index, NUM_CORNERS)
    row, col = divmod(location, shape[1])
    return Pair(row, col, corner)


def all_pairs(shape: Tuple[int, int]) -> Iterator[Pair]:
    """Every (location, corner) pair of a ``(d1, d2)`` image, in index order."""
    for index in range(pair_count(shape)):
        yield pair_at(index, shape)


def perturb(image: np.ndarray, index: int) -> np.ndarray:
    """``image[l <- p]`` for the pair at ``index``: a copy, one pixel written.

    The same image, bit for bit, as :meth:`Pair.apply` of that pair.
    """
    location, corner = divmod(index, NUM_CORNERS)
    perturbed = image.copy()
    perturbed.reshape(-1, 3)[location] = RGB_CORNERS[corner]
    return perturbed


def location_pairs(index: int) -> range:
    """The indices of the eight pairs at ``index``'s location."""
    start = index - index % NUM_CORNERS
    return range(start, start + NUM_CORNERS)


@functools.lru_cache(maxsize=None)
def pair_features(shape: Tuple[int, int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(locations, corners)``: each pair index's row-major location
    number (``row * d2 + col``) and corner index, as tuples to index."""
    locations, corners = np.divmod(np.arange(pair_count(shape)), NUM_CORNERS)
    return tuple(locations.tolist()), tuple(corners.tolist())


@functools.lru_cache(maxsize=None)
def neighbor_table(shape: Tuple[int, int]) -> Tuple[Tuple[int, ...], ...]:
    """Each pair index's closest pairs w.r.t. location.

    Entry ``i`` holds the indices of the (up to eight) pairs at Linf
    distance 1 from pair ``i``'s location with the identical corner,
    clipped to the image, scanning row offsets -1, 0, 1 and within each
    column offsets -1, 0, 1.  This is the sketch's one neighbour rule.
    """
    d1, d2 = shape
    table = []
    for row in range(d1):
        for col in range(d2):
            around = [
                (r * d2 + c) * NUM_CORNERS
                for r in (row - 1, row, row + 1)
                for c in (col - 1, col, col + 1)
                if (r, c) != (row, col) and 0 <= r < d1 and 0 <= c < d2
            ]
            table.extend(
                tuple(base + corner for base in around)
                for corner in range(NUM_CORNERS)
            )
    return tuple(table)


def location_neighbors(pair: Pair, shape: Tuple[int, int]) -> List[Pair]:
    """The closest pairs w.r.t. location: Linf distance 1, same perturbation.

    These are the (up to eight) spatial neighbours of ``pair``'s location,
    carrying the identical corner perturbation, clipped to the image: the
    :class:`Pair` view of :func:`neighbor_table`.
    """
    return [
        pair_at(index, shape)
        for index in neighbor_table(tuple(shape))[index_of(pair, shape)]
    ]
