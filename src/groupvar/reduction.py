"""Reduction machinery on the triangulated window.

A field g on the vertices reduces to the pair field (u, v) of forward
differences u_ij = g_ij^{-1} g_{i+1,j}, v_ij = g_ij^{-1} g_{i,j+1}.  Reduced
sections are flat exactly when every plaquette holonomy
u_ij v_{i+1,j} u_{i,j+1}^{-1} v_ij^{-1} is the identity, which is also the
condition for path-independent reconstruction.

Window bookkeeping: the u component of a right-column vertex and the v
component of a top-row vertex reference data outside the window, and the
far corner (W, H) adheres to no face.  No face formula on the window ever
reads them, so reduction normalizes those slots and the far corner to the
identity and variations leave them at zero.

Fields, sections and multipliers hold one array each, indexed by vertex or
face id, so each window equation has one definition, as slices over the
view of that array indexed [j, i]: (H+1, W+1, 2, n, n) for a reduced
section.  Window functions return stacks indexed [j, i] per face and
[j-1, i-1] per interior vertex.  Multiplier recovery is a column recurrence
from the east, and reconstruction propagates one row (column) at a time
over the whole window; both are deterministic.  Nothing here checks group
membership: the arrays come from a checked solver configuration, the file
loaders or products of such data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import TriangulatedGrid
from .core import (
    ConstraintMap,
    FiberSignature,
    LagrangianDensity,
    Multiplier,
    Section,
    Variation,
    _freeze_matrix_values,
    jet_at,
)
from .defaults import CONS_TOL, EP_TOL, TOL_ADMISSIBLE
from .errors import (
    HolonomyError,
    InadmissibleSectionError,
    PreconditionError,
    RecoveryConflictError,
)
from .liegroup import (
    adjoint,
    adjoint_matrix,
    block_norms,
    coadjoint,
    max_norm,
)

__all__ = [
    "UnreducedField",
    "PlaquetteConstraint",
    "reduced_fiber",
    "reduce_field",
    "plaquette_holonomy",
    "plaquette_cartan_forms",
    "euler_poincare_residual",
    "reconstruction_report",
    "ReconstructionReport",
    "reduced_variation",
    "multiplier_system_residual",
    "recover_multipliers",
    "RecoveryReport",
    "multiplier_elimination_check",
    "EliminationDefects",
]


@dataclass(frozen=True)
class UnreducedField:
    """Group element per vertex of the working window: a read-only (V, n, n)
    array indexed by vertex id."""

    values: np.ndarray

    __post_init__ = _freeze_matrix_values


def reduced_fiber(n: int) -> FiberSignature:
    return FiberSignature(components=2, n=n)


# ---------------------------------------------------------------------------
# stacked matrix kernels; the coadjoint actions are liegroup's stacked
# ``coadjoint`` (g^T mu g) and its inverse ``adjoint`` (g mu g^T)


def _t(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _holonomy(u, v, v_right, u_up) -> np.ndarray:
    """Plaquette holonomy u v_right u_up^{-1} v^{-1}, blockwise."""
    return u @ v_right @ _t(u_up) @ _t(v)


def _window_holonomy(p: np.ndarray) -> np.ndarray:
    """Holonomy of every face of a pair stack, (H, W, n, n) indexed [j, i]."""
    return _holonomy(p[:-1, :-1, 0], p[:-1, :-1, 1], p[:-1, 1:, 1], p[1:, :-1, 0])


def _on_window(grid: TriangulatedGrid, values: np.ndarray) -> np.ndarray:
    """Per-vertex (V, ...) or per-face (F, ...) values as a view indexed [j, i]."""
    extra = int(len(values) == len(grid.vertices))
    return values.reshape(grid.height + extra, grid.width + extra, *values.shape[1:])


def _partials(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
              y: Section, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left-log partials of every face Lagrangian at its base corner, and their
    right translates g mu g^T; both (H, W, 2, n, n) indexed [j, i].

    Assumes the density reads only the base-corner fiber, which is the shape
    of every reduced Lagrangian on this window.
    """
    mu = _on_window(grid, lagrangian.vertex_differential(
        grid, jet_at(y, grid, grid.full_faceset().face_ids), 0))
    return mu, adjoint(p[:-1, :-1], mu)


def _reduced_residual(mu: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Four-term reduced residual at every interior vertex, [j-1, i-1]."""
    return right[1:, 1:, 0] - mu[1:, :-1, 0] + right[1:, 1:, 1] - mu[:-1, 1:, 1]


def _system(p: np.ndarray, right: np.ndarray, lam: np.ndarray):
    """The two multiplier equations wherever the window holds their faces.

    The first, Ad*_{u^-1} mu_u + lam - Ad*_{v_s} lam_s, at vertices (i, j)
    with 0 <= i < W, 1 <= j < H, indexed [j-1, i]; the second,
    Ad*_{v^-1} mu_v - lam + Ad*_{u_w} lam_w, at 1 <= i < W, 0 <= j < H,
    indexed [j, i-1].
    """
    first = right[1:, :, 0] + lam[1:] - coadjoint(p[:-2, :-1, 1], lam[:-1])
    second = right[:, 1:, 1] - lam[:, 1:] + coadjoint(p[:-1, :-2, 0], lam[:, :-1])
    return first, second


def _interior_system(p: np.ndarray, right: np.ndarray, lam: np.ndarray):
    """Both multiplier equations at the interior vertices, [j-1, i-1]."""
    first, second = _system(p, right, lam)
    return first[:, 1:], second[1:]


class PlaquetteConstraint(ConstraintMap):
    """Holonomy of the plaquette attached to a face, valued in SO(n).

    The jet slots follow the grid adherence order: base corner, right
    neighbor, upper neighbor.  The per-vertex Cartan forms below are the
    exact left-log blocks of the holonomy differential at any jet, i.e. the
    decomposition holds off the flat set too; restricted to flat jets they
    reduce to right-translation and adjoint formulas of the base factors.
    """

    def __init__(self, n: int):
        super().__init__(reduced_fiber(n))

    def value(self, complex, jets: np.ndarray) -> np.ndarray:
        return _holonomy(jets[:, 0, 0], jets[:, 0, 1], jets[:, 1, 1], jets[:, 2, 0])

    def cartan_form(self, complex, jets: np.ndarray, slot: int) -> np.ndarray:
        # the u and v blocks are signed conjugations xi -> s P xi P^T
        v = jets[:, 0, 1]
        vu = v @ jets[:, 2, 0]
        if slot == 0:
            blocks = [adjoint_matrix(vu @ _t(jets[:, 1, 1])), -adjoint_matrix(v)]
        elif slot in (1, 2):
            conj = adjoint_matrix(vu)
            blocks = [np.zeros_like(conj), conj] if slot == 1 \
                else [-conj, np.zeros_like(conj)]
        else:
            raise ValueError(
                f"plaquette faces have three adherent vertices, slot {slot}")
        return np.concatenate(blocks, axis=-1)


# ---------------------------------------------------------------------------
# reduction and reconstruction


def reduce_field(grid: TriangulatedGrid, g: UnreducedField) -> Section:
    """Forward-difference pair field of g; flat by construction.

    Defined on every window vertex that is adherent to some face.  Slots that
    would need data outside the window (u on the right column, v on the top
    row) are set to the identity and never enter any face formula.
    """
    x = _on_window(grid, g.values)
    n = x.shape[-1]
    p = np.empty(x.shape[:2] + (2, n, n))
    p[...] = np.eye(n)
    p[:, :-1, 0] = _t(x[:, :-1]) @ x[:, 1:]
    p[:-1, :, 1] = _t(x[:-1]) @ x[1:]
    return Section(reduced_fiber(n), p.reshape(-1, 2, n, n))


def plaquette_holonomy(grid: TriangulatedGrid, y: Section) -> np.ndarray:
    """Holonomies u_ij v_{i+1,j} u_{i,j+1}^{-1} v_ij^{-1} of all faces, (H, W, n, n)."""
    return _window_holonomy(_on_window(grid, y.values))


def plaquette_cartan_forms(grid: TriangulatedGrid, y: Section, i: int, j: int,
                           tol: float = TOL_ADMISSIBLE
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three per-vertex derivative blocks of the holonomy at a flat face,
    each a (d, 2d) Cartan form matrix.

    Ordered like the adherence list: base corner, right neighbor, upper
    neighbor.  The closed forms assume the holonomy is the identity, so a
    face beyond ``tol`` from flat is rejected.
    """
    constraint = PlaquetteConstraint(y.fiber.n)
    jets = jet_at(y, grid, [grid.face_id(i, j)])
    hol = constraint.value(grid, jets)[0]
    defect = float(np.linalg.norm(hol - np.eye(y.fiber.n)))
    if not defect <= tol:
        raise InadmissibleSectionError(
            f"face ({i}, {j}) has holonomy defect {defect:.3e} > {tol:.1e}")
    return tuple(constraint.cartan_form(grid, jets, slot)[0] for slot in range(3))


def euler_poincare_residual(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                            y: Section) -> np.ndarray:
    """Four-term reduced critical-point residual at every interior vertex.

    Right-translated differentials at (i, j) minus left-translated ones at
    the west and south neighbors, assembled in the trace-pairing
    representation; zero exactly where the reduced equations hold.  Shape
    (H-1, W-1, n, n), indexed [j-1, i-1].
    """
    p = _on_window(grid, y.values)
    return _reduced_residual(*_partials(lagrangian, grid, y, p))


@dataclass(frozen=True)
class ReconstructionReport:
    field: UnreducedField
    max_plaquette_defect: float
    worst_face: int | None
    path_agreement: float


def reconstruction_report(grid: TriangulatedGrid, y: Section, seed: np.ndarray,
                          tol: float = TOL_ADMISSIBLE) -> ReconstructionReport:
    """Rebuild the vertex field from (u, v) and a seed, an (n, n) group
    matrix, at the origin corner.

    Every plaquette holonomy is re-verified first; the field is then
    propagated along the bottom row and up one whole row at a time, and
    checked against an independent propagation up the left column and east
    one whole column at a time.  Seeds differ by a constant left factor in
    the result.
    """
    p = _on_window(grid, y.values)
    n = y.fiber.n
    defects = block_norms(_window_holonomy(p) - np.eye(n)).ravel()
    worst = max_norm(defects)
    # the first face in id order with the largest defect, or the first NaN
    worst_face = int(np.argmax(defects)) if worst != 0.0 else None
    if not worst <= tol:
        raise HolonomyError(worst_face, worst)

    u, v = p[..., 0, :, :], p[..., 1, :, :]
    rows = np.empty(p.shape[:2] + (n, n))
    cols = np.empty_like(rows)
    rows[0, 0] = cols[0, 0] = seed
    for i in range(grid.width):
        rows[0, i + 1] = rows[0, i] @ u[0, i]
    for j in range(grid.height):
        rows[j + 1] = rows[j] @ v[j]
    for j in range(grid.height):
        cols[j + 1, 0] = cols[j, 0] @ v[j, 0]
    for i in range(grid.width):
        cols[:, i + 1] = cols[:, i] @ u[:, i]

    agreement = max_norm(block_norms(rows - cols))
    return ReconstructionReport(UnreducedField(rows.reshape(-1, n, n)),
                                worst, worst_face, agreement)


def reduced_variation(grid: TriangulatedGrid, g: UnreducedField,
                      theta: np.ndarray) -> Variation:
    """Push a vertex gauge field through reduction, in left-log coordinates.

    ``theta`` is a (V, n, n) skew array indexed by vertex id.  The u entry at
    (i, j) is theta(i+1, j) - Ad_{u^{-1}} theta(i, j) and the v entry is
    theta(i, j+1) - Ad_{v^{-1}} theta(i, j); these are exactly the
    variations of the forward differences under g -> g exp(t theta), so they
    are tangent to the flat set along any flat section.  The edge slots and
    the far corner stay zero.
    """
    p = _on_window(grid, reduce_field(grid, g).values)
    t = _on_window(grid, theta)
    xi = np.zeros(p.shape)
    # Ad_{g^{-1}} is the coadjoint formula g^T xi g
    xi[:, :-1, 0] = t[:, 1:] - coadjoint(p[:, :-1, 0], t[:, :-1])
    xi[:-1, :, 1] = t[1:] - coadjoint(p[:-1, :, 1], t[:-1])
    return Variation(reduced_fiber(p.shape[-1]), xi.reshape(-1, *xi.shape[2:]))


# ---------------------------------------------------------------------------
# multiplier system


def multiplier_system_residual(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                               y: Section, lam: Multiplier
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Left-hand sides of the two multiplier equations at every interior vertex.

    Both vanish exactly where (y, lam) solves the extended critical-pair
    system.  Each has shape (H-1, W-1, n, n), indexed [j-1, i-1].
    """
    p = _on_window(grid, y.values)
    _, right = _partials(lagrangian, grid, y, p)
    return _interior_system(p, right, _on_window(grid, lam.values))


@dataclass(frozen=True)
class RecoveryReport:
    """``max_system_residual`` is the largest block norm of the
    :func:`multiplier_system_residual` arrays of the recovered multiplier,
    computed from the same Lagrangian partials as the recovery."""

    seed_face: int
    max_discrepancy: float
    compared_faces: tuple[int, ...]
    unconstrained_faces: tuple[int, ...]
    max_system_residual: float


def recover_multipliers(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                        y: Section, seed: np.ndarray,
                        ep_tol: float = EP_TOL, cons_tol: float = CONS_TOL,
                        adm_tol: float = TOL_ADMISSIBLE
                        ) -> tuple[Multiplier, RecoveryReport]:
    """Solve the multiplier system by a column recurrence from the max-corner face.

    Preconditions (checked): y is flat and its reduced residual is below
    ``ep_tol`` at every interior vertex; the first offending vertex in sweep
    order (decreasing lexicographic (i, j)) is reported.  At interior vertex
    (i, j) the first equation determines the south face,
    lam_s = Ad*_{v_s}^{-1}(Ad*_{u^-1} mu_u + lam), and the second the west
    face, lam_w = Ad*_{u_w}^{-1}(lam - Ad*_{v^-1} mu_v).  The east interior
    column i = W-1 is filled top to bottom from the seed by the south
    recurrence; every column i then fills column i-1 above row 0 in one
    batched west step.  The south values of the columns 1 <= i < W-1 above
    row 0 are thus reached along two paths: they are compared, never
    averaged, and a discrepancy beyond ``cons_tol`` raises at the first face
    the sweep would compare (east column first, then top row first).  The
    south value of row 0 is stored.  Existence is only local in general, so
    the consistency data is part of the contract.

    The origin-corner face is touched by no interior vertex's equations; it
    is reported and set to zero.  Any seed value, a skew (n, n) array, may be
    placed at the max-corner face, and different seeds produce different
    valid multipliers.
    """
    width, height = grid.width, grid.height
    if width < 2 or height < 2:
        raise PreconditionError("window has no interior vertices")
    p = _on_window(grid, y.values)
    mu, right = _partials(lagrangian, grid, y, p)
    ep = block_norms(_reduced_residual(mu, right))
    for i in range(width - 1, 0, -1):
        for j in range(height - 1, 0, -1):
            if not ep[j - 1, i - 1] <= ep_tol:
                raise PreconditionError(f"reduced residual {ep[j - 1, i - 1]:.3e} "
                                        f"> {ep_tol:.1e} at ({i}, {j})")
    n = y.fiber.n
    worst_hol = max_norm(block_norms(_window_holonomy(p) - np.eye(n)))
    if not worst_hol <= adm_tol:
        raise PreconditionError(
            f"section is not flat, worst holonomy defect {worst_hol:.3e}")

    u, v = p[..., 0, :, :], p[..., 1, :, :]
    lam = np.zeros((height, width, n, n))
    lam[-1, -1] = seed
    for j in range(height - 1, 0, -1):
        lam[j - 1, -1] = adjoint(v[j - 1, -2], right[j, -1, 0] + lam[j, -1])
    max_disc = 0.0
    for i in range(width - 1, 0, -1):
        if i < width - 1:
            south = adjoint(v[:-2, i], right[1:, i, 0] + lam[1:, i])
            disc = block_norms(lam[1:-1, i] - south[1:])
            over = np.flatnonzero(~(disc <= cons_tol))
            if over.size:
                k = int(over[-1]) + 1
                raise RecoveryConflictError(grid.face_id(i, k), float(disc[k - 1]))
            max_disc = max_norm(max_disc, disc)
            lam[0, i] = south[0]
        lam[1:, i - 1] = adjoint(u[1:-1, i - 1], lam[1:, i] - right[1:, i, 1])

    compared = tuple(grid.face_id(i, k) for k in range(1, height - 1)
                     for i in range(1, width - 1))
    residual = max_norm(*map(block_norms, _interior_system(p, right, lam)))
    report = RecoveryReport(grid.face_id(width - 1, height - 1), max_disc,
                            compared, (grid.face_id(0, 0),), residual)
    return Multiplier(lam.reshape(-1, n, n)), report


@dataclass(frozen=True)
class EliminationDefects:
    """Per-vertex defects of the multiplier elimination identity.

    Both fields are (H-1, W-1) arrays of norms indexed [j-1, i-1].
    ``ep_combination`` is the norm of the fixed four-term coadjoint
    combination of the system residuals, which algebraically equals the
    reduced residual plus the cancellation term.  ``cancellation`` measures
    how far the two composed coadjoint actions are from agreeing on the
    corner multiplier; flatness of the section makes it vanish.
    """

    ep_combination: np.ndarray
    cancellation: np.ndarray


def multiplier_elimination_check(lagrangian: LagrangianDensity,
                                 grid: TriangulatedGrid, y: Section,
                                 lam: Multiplier) -> EliminationDefects:
    p = _on_window(grid, y.values)
    _, right = _partials(lagrangian, grid, y, p)
    m = _on_window(grid, lam.values)
    first, second = _system(p, right, m)
    u_w, v_s = p[1:-1, :-2, 0], p[:-2, 1:-1, 1]
    combo = first[:, 1:] - coadjoint(u_w, first[:, :-1]) \
        + second[1:] - coadjoint(v_s, second[:-1])
    one_way = coadjoint(v_s, coadjoint(p[:-2, :-2, 0], m[:-1, :-1]))
    other_way = coadjoint(u_w, coadjoint(p[:-2, :-2, 1], m[:-1, :-1]))
    return EliminationDefects(block_norms(combo), block_norms(one_way - other_way))
