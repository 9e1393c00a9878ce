import numpy as np
import pytest

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


def test_single_cell_grid():
    grid = triangulated_grid(1, 1)
    assert len(grid.vertices) == 4
    assert len(grid.faces) == 1
    assert grid.star(grid.vertex_id(0, 0)) == {grid.face_id(0, 0)}


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
    assert grid.star(v) <= stencil
    assert grid.star(v) == stencil


def test_full_faceset_classification_2x2():
    grid = triangulated_grid(2, 2)
    fs = grid.full_faceset()
    assert len(fs.adherent_vertices) == 8
    assert grid.vertex_id(2, 2) not in fs.adherent_vertices
    klass = classify_vertices(grid, fs)
    assert klass.interior == {grid.vertex_id(1, 1)}
    assert klass.interior | klass.frontier == fs.adherent_vertices


def test_full_faceset_classification_3x3():
    grid = triangulated_grid(3, 3)
    klass = classify_vertices(grid, grid.full_faceset())
    expected = {grid.vertex_id(i, j) for i in (1, 2) for j in (1, 2)}
    assert klass.interior == expected


def test_full_faceset_interior_count_4x4():
    grid = triangulated_grid(4, 4)
    klass = classify_vertices(grid, grid.full_faceset())
    assert len(klass.interior) == 9


def test_full_faceset_and_its_classes_are_shared():
    grid = triangulated_grid(3, 3)
    fs = grid.full_faceset()
    assert grid.full_faceset() is fs
    assert classify_vertices(grid, fs) is classify_vertices(grid, fs)
    # against another complex the face set is validated and classified anew
    assert classify_vertices(TriangulatedGrid(3, 3), fs) == classify_vertices(grid, fs)
    with pytest.raises(ValueError):
        classify_vertices(triangulated_grid(2, 2), fs)


def test_empty_faceset():
    grid = triangulated_grid(2, 2)
    klass = classify_vertices(grid, FaceSet(grid, []))
    assert klass.interior == frozenset()
    assert klass.frontier == frozenset()


def test_one_face_subset_classification():
    grid = triangulated_grid(2, 2)
    klass = classify_vertices(grid, FaceSet(grid, [grid.face_id(0, 0)]))
    assert klass.interior == frozenset()
    assert klass.frontier == {grid.vertex_id(0, 0), grid.vertex_id(1, 0),
                              grid.vertex_id(0, 1)}


@pytest.mark.parametrize("w,h,seed", [(3, 3, 0), (4, 4, 1), (5, 3, 2)])
def test_classification_matches_enumeration_oracle(w, h, seed):
    grid = triangulated_grid(w, h)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        k = int(rng.integers(0, len(grid.faces) + 1))
        chosen = list(rng.choice(grid.faces, size=k, replace=False))
        fs = FaceSet(grid, chosen)
        klass = classify_vertices(grid, fs)
        assert klass.interior == ambient_interior(grid, chosen)
        assert klass.interior | klass.frontier == fs.adherent_vertices
        assert not (klass.interior & klass.frontier)


def test_full_interior_count_formula():
    for w, h in ((2, 2), (3, 5), (6, 6)):
        grid = triangulated_grid(w, h)
        klass = classify_vertices(grid, grid.full_faceset())
        assert len(klass.interior) == (w - 1) * (h - 1)


def test_star_adherence_transpose():
    grid = triangulated_grid(3, 2)
    rebuilt_star = {}
    for f in grid.faces:
        for v in grid.adherence(f):
            rebuilt_star.setdefault(v, set()).add(f)
    for v in grid.vertices:
        assert grid.star(v) == frozenset(rebuilt_star.get(v, set()))
    rebuilt_adh = {}
    for v in grid.vertices:
        for f in grid.star(v):
            rebuilt_adh.setdefault(f, set()).add(v)
    for f in grid.faces:
        assert rebuilt_adh[f] == set(grid.adherence(f))


def test_invalid_dimensions():
    for w, h in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError):
            triangulated_grid(w, h)


def test_foreign_face_rejected():
    grid = triangulated_grid(2, 2)
    with pytest.raises(ValueError):
        FaceSet(grid, [99])


def test_adherence_validation():
    with pytest.raises(ValueError):
        CellComplex({0: []})
    with pytest.raises(ValueError):
        CellComplex({0: [1, 1, 2]})


def test_export_text_deterministic():
    grid = triangulated_grid(2, 2)
    text = grid.export_text()
    assert text == TriangulatedGrid(2, 2).export_text()
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "face 0 : 0 1 3"


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
