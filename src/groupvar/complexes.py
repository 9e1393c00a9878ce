"""Finite cellular complexes, reduced to the vertex-face incidence.

Only vertices and top-dimensional faces are materialized: every formula in
the discrete theory indexes on (vertex, face) pairs, so intermediate cells
never need to exist.  Vertices and faces are ids 0..V-1 and 0..F-1, and the
whole incidence lives in int arrays: the (F, k) adherence array and, per
face set, its rows and their transpose, the stars, in compressed sparse row
(CSR) form (Saad, *Iterative Methods for Sparse Linear Systems*, 2003).  A
complex is immutable after construction and safe for concurrent reads.

The triangulated grid built here is a finite window of the standard
triangulation of the plane.  Vertices on the window boundary have part of
their spherical neighborhood outside the window; they are flagged as having
a truncated star and can therefore never be interior to any face set, which
is exactly how the infinite-plane classification restricts to the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .liegroup import read_only

__all__ = [
    "CellComplex",
    "TriangulatedGrid",
    "FaceSet",
    "VertexClass",
    "triangulated_grid",
    "classify_vertices",
]


class CellComplex:
    """Vertex-face incidence with per-face ordered adherence lists.

    ``adherence`` is an (F, k) int array: row f lists the k distinct
    vertices adherent to face f, in order.  It is kept as the read-only
    ``adherence_array``, whose rows each face set gathers once, and
    ``vertices`` and ``faces`` list the ids 0..V-1 and 0..F-1 as read-only
    int arrays.  The star of every vertex, the exact transpose, is read
    from the stars of the complex's whole face set.  ``vertex_count`` may
    add isolated vertices beyond the adherent ones (a grid window has one
    such corner).  ``truncated_star`` lists vertices whose ambient star is
    only partially materialized; they are kept as a boolean mask.
    """

    def __init__(self, adherence, vertex_count: int = 0, truncated_star=()):
        array = np.array(adherence, dtype=int)
        if array.ndim != 2 or array.shape[1] == 0:
            raise ValueError("adherence must be an (F, k) array of vertex ids, k >= 1")
        ordered = np.sort(array, axis=1)
        repeated = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if repeated.size:
            raise ValueError(f"face {repeated[0]} has duplicate adherent vertices")
        count = max(vertex_count, int(array.max(initial=-1)) + 1)
        self._truncated = np.zeros(count, dtype=bool)
        self._truncated[np.asarray(truncated_star, dtype=int)] = True
        self.adherence_array = read_only(array)
        self.vertices = read_only(np.arange(count))
        self.faces = read_only(np.arange(len(array)))
        self._whole = FaceSet(self, self.faces)

    def adherence(self, face: int) -> tuple[int, ...]:
        return tuple(self.adherence_array[face].tolist())

    def star(self, vertex: int) -> np.ndarray:
        """Faces having the vertex adherent (its spherical neighborhood), a
        sorted read-only int array."""
        pairs, ptr = self._whole.stars
        k = self.adherence_array.shape[1]
        return read_only(pairs[ptr[vertex]:ptr[vertex + 1]] // k)


class FaceSet:
    """A finite subset of the faces of a complex: the one domain argument of
    the calculus.

    ``faces`` is any int array-like of face ids, in any order and with
    repeats; ValueError for an id outside 0..F-1.  ``face_ids`` holds the
    distinct ids sorted, and ``adherence`` their rows of the complex's
    adherence, (F', k), gathered once (the complex's own array when the set
    holds every face); both are read-only int arrays.
    ``stars``, built on first use, is the transpose of ``adherence`` in CSR
    form: the flat [face, slot] indices into it vertex after vertex, each
    vertex's faces in id order, and the V + 1 vertex pointers.
    """

    def __init__(self, complex: CellComplex, faces):
        ids = np.asarray(faces, dtype=int)
        outside = ids[(ids < 0) | (ids >= len(complex.faces))]
        if outside.size:
            raise ValueError(f"face {outside[0]} is not a face of the complex")
        # a mask, not np.unique, which imports numpy.ma on its first call
        chosen = np.zeros(len(complex.faces), dtype=bool)
        chosen[ids] = True
        self.complex = complex
        self.face_ids = read_only(np.flatnonzero(chosen))
        self.adherence = (complex.adherence_array if chosen.all()
                          else read_only(complex.adherence_array[self.face_ids]))

    @cached_property
    def stars(self) -> tuple[np.ndarray, np.ndarray]:
        flat = self.adherence.ravel()
        ptr = np.zeros(len(self.complex.vertices) + 1, dtype=int)
        np.cumsum(np.bincount(flat, minlength=len(ptr) - 1), out=ptr[1:])
        # flat index f k + slot grows with f, so a stable sort lists each
        # vertex's faces in increasing id order
        return read_only(np.argsort(flat, kind="stable")), read_only(ptr)

    @cached_property
    def _vertex_class(self) -> VertexClass:
        c = self.complex
        # faces of each vertex's star that lie in the set, and in the complex
        inside, whole = (np.diff(s.stars[1]) for s in (self, c._whole))
        adherent = inside > 0
        interior = adherent & ~c._truncated & (inside == whole)
        return VertexClass(read_only(np.flatnonzero(interior)),
                           read_only(np.flatnonzero(adherent & ~interior)))


@dataclass(frozen=True, eq=False)
class VertexClass:
    """Interior / frontier split of the adherent vertices of a face set,
    each a sorted read-only int array of vertex ids."""

    interior: np.ndarray
    frontier: np.ndarray


def classify_vertices(faceset: FaceSet) -> VertexClass:
    """Split the adherent vertices into interior and frontier, in the face
    set's own complex.

    A vertex is interior when its whole spherical neighborhood lies in the
    face set; a vertex whose star is truncated by the materialized window
    always counts as frontier, since its ambient star cannot be contained in
    any window face set.  The split compares the star sizes of the face
    set's ``stars`` with those of the whole complex's, once per face set.
    """
    return faceset._vertex_class


class TriangulatedGrid(CellComplex):
    """W x H window of the triangulated plane.

    Vertices are (i, j) with 0 <= i <= W, 0 <= j <= H, stored row-major as
    id = j * (W + 1) + i.  Faces are the triangles with ordered adherence
    [(i, j), (i+1, j), (i, j+1)] for 0 <= i < W, 0 <= j < H, stored row-major
    as id = j * W + i.  The layout is fixed so file dumps reproduce bit-exactly.
    The window is not periodic; all boundary behavior comes from the
    interior / frontier classification.
    """

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        self.width = width
        self.height = height
        corner = np.arange(height)[:, None] * (width + 1) + np.arange(width)
        adherence = np.stack([corner, corner + 1, corner + width + 1], axis=-1)
        j, i = np.divmod(np.arange((width + 1) * (height + 1)), width + 1)
        edge = (i == 0) | (j == 0) | (i == width) | (j == height)
        super().__init__(adherence.reshape(-1, 3), vertex_count=len(edge),
                         truncated_star=np.flatnonzero(edge))

    def vertex_id(self, i: int, j: int) -> int:
        if not (0 <= i <= self.width and 0 <= j <= self.height):
            raise ValueError(f"vertex ({i}, {j}) outside the window")
        return j * (self.width + 1) + i

    def vertex_ij(self, vertex: int) -> tuple[int, int]:
        j, i = divmod(vertex, self.width + 1)
        if not (0 <= i <= self.width and 0 <= j <= self.height):
            raise ValueError(f"vertex id {vertex} outside the window")
        return i, j

    def face_id(self, i: int, j: int) -> int:
        if not (0 <= i < self.width and 0 <= j < self.height):
            raise ValueError(f"face ({i}, {j}) outside the window")
        return j * self.width + i

    def face_ij(self, face: int) -> tuple[int, int]:
        j, i = divmod(face, self.width)
        if not (0 <= i < self.width and 0 <= j < self.height):
            raise ValueError(f"face id {face} outside the window")
        return i, j

    def full_faceset(self) -> FaceSet:
        """The face set of the whole window; one instance, shared."""
        return self._whole


@cache
def triangulated_grid(width: int, height: int) -> TriangulatedGrid:
    """The W x H triangulated window of the plane: one shared grid per
    (W, H) in a process, which nothing mutates."""
    return TriangulatedGrid(width, height)
