import numpy as np
import pytest

from groupvar import core
from groupvar.complexes import (
    CellComplex,
    FaceSet,
    TriangulatedGrid,
    classify_vertices,
    triangulated_grid,
)


def ambient_interior(grid, face_ids):
    """Independent classification oracle, straight from the definitions.

    A vertex of the plane has the three ambient faces at (i, j), (i-1, j),
    (i, j-1); it is interior to a face subset exactly when all three belong
    to it.  Faces outside the window can never belong, so membership checks
    against the window's face ids suffice.
    """
    chosen = set(face_ids)
    interior = set()
    for j in range(grid.height + 1):
        for i in range(grid.width + 1):
            star = [(i, j), (i - 1, j), (i, j - 1)]
            ok = True
            for (a, b) in star:
                inside = 0 <= a < grid.width and 0 <= b < grid.height
                if not inside or grid.face_id(a, b) not in chosen:
                    ok = False
            if ok:
                interior.add(grid.vertex_id(i, j))
    return interior


def frozenset_classification(grid, faces):
    """The set-based classification that the array one replaced, kept as an
    oracle: a dict of per-vertex frozenset stars built face by face, the
    frozenset of truncated-star window edge vertices, and a subset test per
    adherent vertex.  Returns the (interior, frontier) frozensets."""
    width, height = grid.width, grid.height
    adherence = {
        j * width + i: (grid.vertex_id(i, j), grid.vertex_id(i + 1, j),
                        grid.vertex_id(i, j + 1))
        for j in range(height)
        for i in range(width)
    }
    truncated = frozenset(
        grid.vertex_id(i, j)
        for j in range(height + 1)
        for i in range(width + 1)
        if i == 0 or j == 0 or i == width or j == height
    )
    star = {}
    for face, verts in adherence.items():
        for v in verts:
            star.setdefault(v, set()).add(face)
    star = {v: frozenset(fs) for v, fs in star.items()}
    faces = frozenset(int(f) for f in faces)
    adherent = frozenset(v for f in faces for v in adherence[f])
    interior = frozenset(v for v in adherent
                         if v not in truncated and star.get(v, frozenset()) <= faces)
    return interior, adherent - interior


def adherent_vertices(faceset):
    return set(faceset.complex.adherence_array[faceset.face_ids].ravel().tolist())


def test_single_cell_grid():
    grid = triangulated_grid(1, 1)
    assert len(grid.vertices) == 4
    assert len(grid.faces) == 1
    assert grid.star(grid.vertex_id(0, 0)).tolist() == [grid.face_id(0, 0)]


def test_grid_counts():
    for w, h in ((1, 1), (2, 3), (4, 4), (6, 2)):
        grid = triangulated_grid(w, h)
        assert len(grid.vertices) == (w + 1) * (h + 1)
        assert len(grid.faces) == w * h


def test_adherence_order_and_star_stencil():
    grid = triangulated_grid(3, 3)
    f = grid.face_id(1, 2)
    assert grid.adherence(f) == (grid.vertex_id(1, 2), grid.vertex_id(2, 2),
                                 grid.vertex_id(1, 3))
    v = grid.vertex_id(2, 2)
    stencil = {grid.face_id(2, 2), grid.face_id(1, 2), grid.face_id(2, 1)}
    assert set(grid.star(v).tolist()) <= stencil
    assert set(grid.star(v).tolist()) == stencil


def test_full_faceset_classification_2x2():
    grid = triangulated_grid(2, 2)
    fs = grid.full_faceset()
    adherent = adherent_vertices(fs)
    assert len(adherent) == 8
    assert grid.vertex_id(2, 2) not in adherent
    klass = classify_vertices(fs)
    assert set(klass.interior.tolist()) == {grid.vertex_id(1, 1)}
    assert set(klass.interior.tolist()) | set(klass.frontier.tolist()) == adherent


def test_full_faceset_classification_3x3():
    grid = triangulated_grid(3, 3)
    klass = classify_vertices(grid.full_faceset())
    expected = {grid.vertex_id(i, j) for i in (1, 2) for j in (1, 2)}
    assert set(klass.interior.tolist()) == expected


def test_full_faceset_interior_count_4x4():
    grid = triangulated_grid(4, 4)
    klass = classify_vertices(grid.full_faceset())
    assert len(klass.interior) == 9


def test_full_faceset_and_its_classes_are_shared():
    grid = triangulated_grid(3, 3)
    fs = grid.full_faceset()
    assert grid.full_faceset() is fs
    assert np.shares_memory(fs.adherence, grid.adherence_array)
    assert classify_vertices(fs) is classify_vertices(fs)


def test_star_and_the_whole_face_set_stars_are_built_once(monkeypatch):
    """CellComplex.star reads the stars of the complex's one whole face set,
    which its classification shares: one sort per complex, and one more per
    other face set classified."""
    sorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(a) or argsort(*a, **k))
    grid = TriangulatedGrid(3, 3)
    fs = grid.full_faceset()
    classify_vertices(fs)
    stars = [grid.star(v) for v in grid.vertices]
    assert fs.stars is fs.stars and len(sorts) == 1
    assert stars[grid.vertex_id(1, 1)].tolist() == [1, 3, 4]
    assert not any(star.flags.writeable for star in stars)
    classify_vertices(FaceSet(grid, [1, 3, 4]))
    assert len(sorts) == 2


def test_empty_faceset():
    grid = triangulated_grid(2, 2)
    klass = classify_vertices(FaceSet(grid, []))
    assert set(klass.interior.tolist()) == set()
    assert set(klass.frontier.tolist()) == set()


def test_one_face_subset_classification():
    grid = triangulated_grid(2, 2)
    klass = classify_vertices(FaceSet(grid, [grid.face_id(0, 0)]))
    assert set(klass.interior.tolist()) == set()
    assert set(klass.frontier.tolist()) == {grid.vertex_id(0, 0), grid.vertex_id(1, 0),
                                            grid.vertex_id(0, 1)}


@pytest.mark.parametrize("w,h,seed", [(3, 3, 0), (4, 4, 1), (5, 3, 2)])
def test_classification_matches_enumeration_oracle(w, h, seed):
    grid = triangulated_grid(w, h)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        k = int(rng.integers(0, len(grid.faces) + 1))
        chosen = list(rng.choice(grid.faces, size=k, replace=False))
        fs = FaceSet(grid, chosen)
        klass = classify_vertices(fs)
        interior, frontier = set(klass.interior.tolist()), set(klass.frontier.tolist())
        assert interior == ambient_interior(grid, chosen)
        assert interior | frontier == adherent_vertices(fs)
        assert not (interior & frontier)


def test_full_interior_count_formula():
    for w, h in ((2, 2), (3, 5), (6, 6)):
        grid = triangulated_grid(w, h)
        klass = classify_vertices(grid.full_faceset())
        assert len(klass.interior) == (w - 1) * (h - 1)


def test_star_adherence_transpose():
    grid = triangulated_grid(3, 2)
    rebuilt_star = {}
    for f in grid.faces:
        for v in grid.adherence(f):
            rebuilt_star.setdefault(v, set()).add(f)
    for v in grid.vertices:
        assert set(grid.star(v).tolist()) == rebuilt_star.get(v, set())
    rebuilt_adh = {}
    for v in grid.vertices:
        for f in grid.star(v).tolist():
            rebuilt_adh.setdefault(f, set()).add(v)
    for f in grid.faces:
        assert rebuilt_adh[f] == set(grid.adherence(f))


def test_invalid_dimensions():
    for w, h in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError):
            triangulated_grid(w, h)


@pytest.mark.parametrize("face", [-1, 4, 99])
def test_faceset_rejects_face_ids_outside_the_complex(face):
    """The face set, the domain of every jet, checks its ids once: -1, F
    and an id far past F raise."""
    grid = triangulated_grid(2, 2)
    with pytest.raises(ValueError, match=f"face {face} is not a face of the complex"):
        FaceSet(grid, [0, face])


def test_adherence_validation():
    with pytest.raises(ValueError):
        CellComplex(np.zeros((1, 0), dtype=int))
    with pytest.raises(ValueError):
        CellComplex([[1, 1, 2]])
    with pytest.raises(ValueError):
        CellComplex([[0, 1, 2], [2, 3]])


def test_id_layout_roundtrip():
    grid = triangulated_grid(4, 3)
    for j in range(4):
        for i in range(5):
            assert grid.vertex_ij(grid.vertex_id(i, j)) == (i, j)
    for j in range(3):
        for i in range(4):
            assert grid.face_ij(grid.face_id(i, j)) == (i, j)
    with pytest.raises(ValueError):
        grid.vertex_id(5, 0)
    with pytest.raises(ValueError):
        grid.face_id(0, 3)
    for bad in (-1, 20):
        with pytest.raises(ValueError, match=f"^vertex id {bad} outside the window$"):
            grid.vertex_ij(bad)
    for bad in (-1, 12):
        with pytest.raises(ValueError, match=f"^face id {bad} outside the window$"):
            grid.face_ij(bad)


WINDOWS = [(1, 1), (1, 7), (7, 1), (1, 16), (16, 1), (2, 5), (4, 4), (9, 6), (16, 16)]


@pytest.mark.parametrize("w,h", WINDOWS)
def test_classification_matches_frozenset_oracle(w, h):
    """Random face subsets, the empty and the full set: the bincount
    classification gives the sets of the frozenset one and of the ambient
    definition, as sorted read-only int arrays.  A 1 x N or N x 1 window has
    no interior vertex."""
    grid = triangulated_grid(w, h)
    rng = np.random.default_rng(w * 100 + h)
    subsets = [[], list(grid.faces)]
    for _ in range(12):
        k = int(rng.integers(0, len(grid.faces) + 1))
        subsets.append(rng.choice(len(grid.faces), size=k, replace=False).tolist())
    for chosen in subsets:
        klass = classify_vertices(FaceSet(grid, chosen))
        interior, frontier = frozenset_classification(grid, chosen)
        assert set(klass.interior.tolist()) == interior
        assert interior == ambient_interior(grid, chosen)
        assert set(klass.frontier.tolist()) == frontier
        for ids in (klass.interior, klass.frontier):
            assert ids.dtype.kind == "i" and not ids.flags.writeable
            assert np.array_equal(ids, np.unique(ids))
        if min(w, h) == 1:
            assert klass.interior.size == 0


def test_star_is_the_csr_transpose_of_a_generic_complex():
    """On a random complex with k = 4 and an isolated vertex, every star is
    the sorted list of faces adherent to the vertex; vertex ids run to
    ``vertex_count`` and a truncated star keeps a vertex out of the
    interior."""
    rng = np.random.default_rng(5)
    adherence = np.array([rng.choice(9, size=4, replace=False) for _ in range(12)])
    complex = CellComplex(adherence, vertex_count=11, truncated_star=[3])
    assert complex.vertices.tolist() == list(range(11))
    assert np.array_equal(complex.adherence_array, adherence)
    for v in range(11):
        expected = [f for f in range(12) if v in adherence[f].tolist()]
        assert complex.star(v).tolist() == expected
    klass = classify_vertices(FaceSet(complex, range(12)))
    assert set(klass.interior.tolist()) == set(range(9)) - {3}
    assert klass.frontier.tolist() == [3]


@pytest.mark.parametrize("complex", [
    triangulated_grid(3, 2),
    CellComplex([[0, 4, 2, 7], [5, 1, 3, 0], [6, 2, 4, 1], [3, 7, 6, 5], [2, 0, 5, 6]],
                vertex_count=9),
], ids=["grid", "cell complex"])
def test_faceset_gathers_adherence_once_and_jets_through_it(complex):
    """The full set, every face shuffled with repeats, a subset given
    unsorted with a repeat, and the empty set: ``adherence`` is the
    read-only gather of the complex's rows at the sorted face ids (for a set
    of every face, the complex's own array, no copy), jet_at on values with
    a leading instance axis is the gather through it, and values one vertex
    short of an adherent vertex raise."""
    rng = np.random.default_rng(3)
    last = len(complex.faces) - 1
    values = rng.normal(size=(2, len(complex.vertices), 1, 3, 3))
    shuffled = rng.permutation(np.repeat(complex.faces, 2))
    for faces in (complex.faces, shuffled, [last, 1, last], []):
        faceset = FaceSet(complex, faces)
        expected = complex.adherence_array[faceset.face_ids]
        every = len(faceset.face_ids) == len(complex.faces)
        assert np.shares_memory(faceset.adherence, complex.adherence_array) == every
        assert not faceset.adherence.flags.writeable
        assert np.array_equal(faceset.adherence, expected)
        assert faceset.adherence.shape == (len(faceset.face_ids), expected.shape[1])
        assert np.array_equal(core.jet_at(values, faceset), values[:, expected])
        if len(faceset.face_ids):
            with pytest.raises(ValueError, match="section undefined at vertex"):
                core.jet_at(values[:, :faceset.adherence.max()], faceset)
