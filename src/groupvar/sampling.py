"""Seeded generators for sections, variations, and multipliers.

Everything draws through a caller-supplied numpy Generator and visits
vertices and faces in sorted id order, so a seed pins the output exactly.
Reduced sections and variations skip the far corner, which adheres to no
face; it holds the identity or zero.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .complexes import TriangulatedGrid
from .core import Multiplier, Section, Variation
from .liegroup import random_skew
from .reduction import UnreducedField, reduced_fiber

__all__ = [
    "random_unreduced_field",
    "random_section",
    "random_variation",
    "random_multiplier",
    "random_gauge_field",
]


def _pair_draws(grid: TriangulatedGrid, n: int, rng, scale: float) -> np.ndarray:
    """(V, 2, n, n) skew draws, vertex after vertex, u before v; the far
    corner (the last id) draws nothing and holds zero."""
    values = np.zeros((len(grid.vertices), 2, n, n))
    values[:-1] = random_skew(n, rng, scale, (len(grid.vertices) - 1, 2))
    return values


def random_unreduced_field(grid: TriangulatedGrid, n: int,
                           rng: np.random.Generator,
                           scale: float = 0.4) -> UnreducedField:
    """exp(scale * xi) at every vertex (scipy's Pade ``expm``)."""
    xi = random_skew(n, rng, scale, (len(grid.vertices),))
    return UnreducedField(scipy.linalg.expm(xi))


def random_section(grid: TriangulatedGrid, n: int, rng: np.random.Generator,
                   scale: float = 0.5) -> Section:
    """A generic pair-field section; not flat except by accident."""
    xi = _pair_draws(grid, n, rng, scale)
    return Section(reduced_fiber(n), scipy.linalg.expm(xi))


def random_variation(grid: TriangulatedGrid, n: int, rng: np.random.Generator,
                     scale: float = 1.0) -> Variation:
    return Variation(reduced_fiber(n), _pair_draws(grid, n, rng, scale))


def random_multiplier(grid: TriangulatedGrid, n: int, rng: np.random.Generator,
                      scale: float = 1.0) -> Multiplier:
    return Multiplier(random_skew(n, rng, scale, (len(grid.faces),)))


def random_gauge_field(grid: TriangulatedGrid, n: int, rng: np.random.Generator,
                       scale: float = 1.0) -> np.ndarray:
    """A (V, n, n) skew array, one draw per vertex."""
    return random_skew(n, rng, scale, (len(grid.vertices),))
