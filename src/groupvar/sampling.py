"""Seeded generators for sections, variations, and multipliers.

Everything draws through a caller-supplied numpy Generator and visits
vertices and faces in sorted id order, so a seed pins the output exactly.
Each generator returns a fresh read-only array: (V, n, n) for a vertex
field, (V, 2, n, n) for a reduced section or variation, (F, n, n) for a
multiplier.  Reduced sections and variations skip the far corner, which
adheres to no face; it holds the identity or zero.
"""

from __future__ import annotations

import numpy as np

from .complexes import TriangulatedGrid
from .liegroup import exp_skew, random_skew, read_only

__all__ = [
    "random_unreduced_field",
    "random_section",
    "random_variation",
    "random_multiplier",
]


def random_unreduced_field(grid: TriangulatedGrid, n: int,
                           rng: np.random.Generator,
                           scale: float = 0.4) -> np.ndarray:
    """exp(scale * xi) at every vertex (closed form, ``exp_skew``)."""
    xi = random_skew(n, rng, scale, (len(grid.vertices),))
    return read_only(exp_skew(xi))


def random_section(grid: TriangulatedGrid, n: int, rng: np.random.Generator,
                   scale: float = 0.5) -> np.ndarray:
    """A generic pair-field section, not flat except by accident: the
    exponential of ``random_variation(grid, n, rng, scale)``, so stacked
    callers can draw the logs and exponentiate many at once."""
    return read_only(exp_skew(random_variation(grid, n, rng, scale)))


def random_variation(grid: TriangulatedGrid, n: int, rng: np.random.Generator,
                     scale: float = 1.0) -> np.ndarray:
    """(V, 2, n, n) skew draws, vertex after vertex, u before v; the far
    corner (the last id) draws nothing and holds zero."""
    values = np.zeros((len(grid.vertices), 2, n, n))
    values[:-1] = random_skew(n, rng, scale, (len(grid.vertices) - 1, 2))
    return read_only(values)


def random_multiplier(grid: TriangulatedGrid, n: int, rng: np.random.Generator,
                      scale: float = 1.0) -> np.ndarray:
    return read_only(random_skew(n, rng, scale, (len(grid.faces),)))
