"""The second code path of the reduced (Euler-Poincare) trace equations.

``reduction.euler_poincare_residual`` assembles the general four-term
residual from the density's differentials; the oracle below reads the trace
density's equations off the section directly, one vertex at a time.
"""

from __future__ import annotations

import numpy as np

from groupvar.complexes import FaceSet, TriangulatedGrid, classify_vertices


def ep_symmetric_defect(grid: TriangulatedGrid, y: np.ndarray, i: int, j: int,
                        faceset: FaceSet | None = None) -> np.ndarray:
    """Skew defect M - M^T of M = u_ij + v_ij - u_{i-1,j} - v_{i,j-1}.

    Zero exactly when the reduced trace equations hold at (i, j).  Equals
    minus twice the general four-term residual in the trace pairing
    representation (that residual is (M^T - M) / 2).
    """
    if faceset is None:
        faceset = grid.full_faceset()
    klass = classify_vertices(faceset)
    if grid.vertex_id(i, j) not in klass.interior:
        raise ValueError(f"vertex ({i}, {j}) is not interior to the face set")
    u, v = y[grid.vertex_id(i, j)]
    u_w, _ = y[grid.vertex_id(i - 1, j)]
    _, v_s = y[grid.vertex_id(i, j - 1)]
    m = u + v - u_w - v_s
    return m - m.T
