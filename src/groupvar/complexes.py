"""Finite cellular complexes, reduced to the vertex-face incidence.

Only vertices and top-dimensional faces are materialized: every formula in
the discrete theory indexes on (vertex, face) pairs, so intermediate cells
never need to exist.  A complex is immutable after construction and safe for
concurrent reads.

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

    ``adherence`` maps each face id, 0 to F-1, to the ordered tuple of its
    adherent vertex ids; every face has the same number k of them, so the
    whole incidence is one read-only (F, k) int array, ``adherence_array``,
    which the calculus gathers jets through.  ``star`` is the exact
    transpose.  ``vertices`` may add isolated vertices beyond the adherent
    ones (a grid window has one such corner).  ``truncated_star`` lists
    vertices whose ambient star is only partially materialized.
    """

    def __init__(self, adherence, vertices=(), truncated_star=()):
        if sorted(adherence) != list(range(len(adherence))):
            raise ValueError("face ids must be 0, 1, ..., F-1")
        rows = []
        for face in range(len(adherence)):
            verts = tuple(int(v) for v in adherence[face])
            if len(verts) == 0:
                raise ValueError(f"face {face} has no adherent vertices")
            if len(set(verts)) != len(verts):
                raise ValueError(f"face {face} has duplicate adherent vertices")
            rows.append(verts)
        if len({len(verts) for verts in rows}) > 1:
            raise ValueError("every face needs the same number of adherent vertices")
        star = {}
        for face, verts in enumerate(rows):
            for v in verts:
                star.setdefault(v, set()).add(face)
        k = len(rows[0]) if rows else 0
        self._array = np.array(rows, dtype=int).reshape(len(rows), k)
        self._array.flags.writeable = False
        self._star = {v: frozenset(fs) for v, fs in star.items()}
        self._faces = tuple(range(len(rows)))
        self._vertices = tuple(sorted(set(star) | {int(v) for v in vertices}))
        self._truncated = frozenset(int(v) for v in truncated_star)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def faces(self) -> tuple[int, ...]:
        return self._faces

    def adherence(self, face: int) -> tuple[int, ...]:
        return tuple(self._array[face].tolist())

    @property
    def adherence_array(self) -> np.ndarray:
        """Adherent vertex ids of every face, a read-only (F, k) int array."""
        return self._array

    def star(self, vertex: int) -> frozenset[int]:
        """Faces having the vertex adherent (its spherical neighborhood)."""
        return self._star.get(vertex, frozenset())

    def star_is_truncated(self, vertex: int) -> bool:
        return vertex in self._truncated

    def has_face(self, face: int) -> bool:
        return 0 <= face < len(self._faces)

    def export_text(self) -> str:
        """One record per face: face id followed by its adherent vertex ids."""
        lines = [f"face {f} : " + " ".join(str(v) for v in verts)
                 for f, verts in enumerate(self._array.tolist())]
        return "\n".join(lines) + "\n"


class FaceSet:
    """A finite subset of faces together with its adherent vertex set."""

    def __init__(self, complex: CellComplex, faces):
        faces = frozenset(int(f) for f in faces)
        for f in faces:
            if not complex.has_face(f):
                raise ValueError(f"face {f} is not a face of the complex")
        self.complex = complex
        self.faces = faces

    @cached_property
    def face_ids(self) -> np.ndarray:
        """The faces in increasing id order, a read-only int array."""
        ids = np.array(sorted(self.faces), dtype=int)
        ids.flags.writeable = False
        return ids

    @cached_property
    def adherent_vertices(self) -> frozenset[int]:
        return frozenset(self.complex.adherence_array[self.face_ids].ravel().tolist())

    @cached_property
    def _vertex_class(self) -> VertexClass:
        c = self.complex
        interior = frozenset(v for v in self.adherent_vertices
                             if not c.star_is_truncated(v) and c.star(v) <= self.faces)
        return VertexClass(interior, self.adherent_vertices - interior)

    def __contains__(self, face: int) -> bool:
        return face in self.faces

    def __len__(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class VertexClass:
    """Interior / frontier split of the adherent vertices of a face set."""

    interior: frozenset[int]
    frontier: frozenset[int]


def classify_vertices(complex: CellComplex, faceset: FaceSet) -> VertexClass:
    """Split the adherent vertices into interior and frontier.

    A vertex is interior when its whole spherical neighborhood lies in the
    face set; a vertex whose star is truncated by the materialized window
    always counts as frontier, since its ambient star cannot be contained in
    any window face set.  The split is computed once per face set.
    """
    if faceset.complex is not complex:
        faceset = FaceSet(complex, faceset.faces)
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
        adherence = {
            j * width + i: (self._vid(i, j), self._vid(i + 1, j), self._vid(i, j + 1))
            for j in range(height)
            for i in range(width)
        }
        truncated = [
            self._vid(i, j)
            for j in range(height + 1)
            for i in range(width + 1)
            if i == 0 or j == 0 or i == width or j == height
        ]
        super().__init__(adherence, vertices=range((width + 1) * (height + 1)),
                         truncated_star=truncated)
        self._full = FaceSet(self, self.faces)

    def _vid(self, i: int, j: int) -> int:
        return j * (self.width + 1) + i

    def vertex_id(self, i: int, j: int) -> int:
        if not (0 <= i <= self.width and 0 <= j <= self.height):
            raise ValueError(f"vertex ({i}, {j}) outside the window")
        return self._vid(i, j)

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
        return self._full


@cache
def triangulated_grid(width: int, height: int) -> TriangulatedGrid:
    """The W x H triangulated window of the plane: one shared grid per
    (W, H) in a process, which nothing mutates."""
    return TriangulatedGrid(width, height)
