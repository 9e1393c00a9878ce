"""Reduction machinery on the triangulated window.

A field g on the vertices reduces to the pair field (u, v) of forward
differences u_ij = g_ij^{-1} g_{i+1,j}, v_ij = g_ij^{-1} g_{i,j+1}.  Reduced
sections are flat exactly when every plaquette holonomy
u_ij v_{i+1,j} u_{i,j+1}^{-1} v_ij^{-1} is the identity, which is also the
condition for path-independent reconstruction.

Window bookkeeping: the u component of a right-column vertex and the v
component of a top-row vertex reference data outside the window.  No face
formula on the window ever reads them, so reduction normalizes those slots
to the identity and variations leave them at zero.

reduce, the residual evaluations and the elimination check are pure and can
run face- or vertex-parallel; reconstruction and multiplier recovery are
inherently sequential sweeps and are deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import FaceSet, TriangulatedGrid, classify_vertices
from .core import (
    CartanForm,
    ConstraintMap,
    FiberSignature,
    Jet1,
    LagrangianDensity,
    Multiplier,
    Section,
    Variation,
)
from .defaults import CONS_TOL, EP_TOL, TOL_ADMISSIBLE
from .errors import (
    HolonomyError,
    InadmissibleSectionError,
    PreconditionError,
    RecoveryConflictError,
)
from .liegroup import (
    AlgebraElement,
    CoAlgebraElement,
    GroupElement,
    adjoint,
    coadjoint,
    coadjoint_inverse,
    skew_basis,
    skew_to_coords,
)

__all__ = [
    "UnreducedField",
    "GaugeField",
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
    "left_log_differentials",
]


@dataclass
class UnreducedField:
    """Group element per vertex of the working window."""

    values: dict[int, GroupElement]

    def at(self, vertex: int) -> GroupElement:
        try:
            return self.values[vertex]
        except KeyError:
            raise ValueError(f"field undefined at vertex {vertex}") from None


@dataclass
class GaugeField:
    """Algebra element per vertex; missing vertices count as zero."""

    n: int
    values: dict[int, AlgebraElement]

    def at(self, vertex: int) -> AlgebraElement:
        got = self.values.get(vertex)
        if got is not None:
            return got
        return AlgebraElement(np.zeros((self.n, self.n)))


def reduced_fiber(n: int) -> FiberSignature:
    return FiberSignature(components=2, n=n)


def _uv(y: Section, grid: TriangulatedGrid, i: int, j: int):
    u, v = y.values[grid.vertex_id(i, j)]
    return u.matrix, v.matrix


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

    def value(self, complex, jet: Jet1) -> GroupElement:
        u = jet.values[0][0].matrix
        v = jet.values[0][1].matrix
        v_right = jet.values[1][1].matrix
        u_up = jet.values[2][0].matrix
        return GroupElement(u @ v_right @ u_up.T @ v.T)

    def cartan_form(self, complex, jet: Jet1, slot: int) -> CartanForm:
        n = self.fiber.n
        v = jet.values[0][1].matrix
        v_right = jet.values[1][1].matrix
        u_up = jet.values[2][0].matrix
        vu = v @ u_up
        if slot == 0:
            p = vu @ v_right.T
            return _conjugation_form(n, [(1.0, p)], [(-1.0, v)])
        if slot == 1:
            return _conjugation_form(n, [], [(1.0, vu)])
        if slot == 2:
            return _conjugation_form(n, [(-1.0, vu)], [])
        raise ValueError(f"plaquette faces have three adherent vertices, slot {slot}")


def _conjugation_form(n: int, terms_u, terms_v) -> CartanForm:
    """Cartan form whose component maps are signed conjugations xi -> s P xi P^T."""
    basis = skew_basis(n)
    cols = []
    for terms in (terms_u, terms_v):
        for e in basis:
            total = np.zeros((n, n))
            for sign, p in terms:
                total = total + sign * (p @ e.matrix @ p.T)
            cols.append(skew_to_coords(total))
    return CartanForm(n, 2, np.column_stack(cols))


# ---------------------------------------------------------------------------
# reduction and reconstruction


def reduce_field(grid: TriangulatedGrid, g: UnreducedField) -> Section:
    """Forward-difference pair field of g; flat by construction.

    Defined on every window vertex that is adherent to some face.  Slots that
    would need data outside the window (u on the right column, v on the top
    row) are set to the identity and never enter any face formula.
    """
    n = next(iter(g.values.values())).n
    eye = GroupElement(np.eye(n))
    values = {}
    for j in range(grid.height + 1):
        for i in range(grid.width + 1):
            if i == grid.width and j == grid.height:
                continue
            base = g.at(grid.vertex_id(i, j)).matrix
            if i < grid.width:
                u = GroupElement(base.T @ g.at(grid.vertex_id(i + 1, j)).matrix)
            else:
                u = eye
            if j < grid.height:
                v = GroupElement(base.T @ g.at(grid.vertex_id(i, j + 1)).matrix)
            else:
                v = eye
            values[grid.vertex_id(i, j)] = (u, v)
    return Section(reduced_fiber(n), values)


def plaquette_holonomy(grid: TriangulatedGrid, y: Section, i: int, j: int) -> GroupElement:
    """The holonomy u_ij v_{i+1,j} u_{i,j+1}^{-1} v_ij^{-1} of face (i, j)."""
    grid.face_id(i, j)
    u, v = _uv(y, grid, i, j)
    _, v_right = _uv(y, grid, i + 1, j)
    u_up, _ = _uv(y, grid, i, j + 1)
    return GroupElement(u @ v_right @ u_up.T @ v.T)


def plaquette_cartan_forms(grid: TriangulatedGrid, y: Section, i: int, j: int,
                           tol: float = TOL_ADMISSIBLE) -> tuple[CartanForm, CartanForm, CartanForm]:
    """The three per-vertex derivative blocks of the holonomy at a flat face.

    Ordered like the adherence list: base corner, right neighbor, upper
    neighbor.  The closed forms assume the holonomy is the identity, so a
    face beyond ``tol`` from flat is rejected.
    """
    n = y.fiber.n
    hol = plaquette_holonomy(grid, y, i, j)
    defect = float(np.linalg.norm(hol.matrix - np.eye(n)))
    if defect > tol:
        raise InadmissibleSectionError(
            f"face ({i}, {j}) has holonomy defect {defect:.3e} > {tol:.1e}")
    constraint = PlaquetteConstraint(n)
    face = grid.face_id(i, j)
    jet = Jet1(face, tuple(y.values[v] for v in grid.adherence(face)))
    return tuple(constraint.cartan_form(grid, jet, slot) for slot in range(3))


def left_log_differentials(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                           y: Section, i: int, j: int) -> tuple[CoAlgebraElement, CoAlgebraElement]:
    """Left-log partials of the face Lagrangian at the base corner of face (i, j).

    Assumes the density reads only the base-corner fiber, which is the shape
    of every reduced Lagrangian on this window.
    """
    face = grid.face_id(i, j)
    jet = Jet1(face, tuple(y.values[v] for v in grid.adherence(face)))
    return lagrangian.vertex_differential(grid, jet, 0)


def _require_interior_ij(grid: TriangulatedGrid, faceset: FaceSet, i: int, j: int):
    klass = classify_vertices(grid, faceset)
    if grid.vertex_id(i, j) not in klass.interior:
        raise ValueError(f"vertex ({i}, {j}) is not interior to the face set")


def euler_poincare_residual(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                            y: Section, i: int, j: int,
                            faceset: FaceSet | None = None) -> CoAlgebraElement:
    """Four-term reduced critical-point residual at an interior vertex.

    Right-translated differentials at (i, j) minus left-translated ones at
    the west and south neighbors, assembled in the trace-pairing
    representation; zero exactly when the reduced equations hold there.
    """
    if faceset is None:
        faceset = grid.full_faceset()
    _require_interior_ij(grid, faceset, i, j)
    mu_u, mu_v = left_log_differentials(lagrangian, grid, y, i, j)
    mu_u_w, _ = left_log_differentials(lagrangian, grid, y, i - 1, j)
    _, mu_v_s = left_log_differentials(lagrangian, grid, y, i, j - 1)
    u, v = _uv(y, grid, i, j)
    right_u = coadjoint_inverse(GroupElement(u), mu_u)
    right_v = coadjoint_inverse(GroupElement(v), mu_v)
    return right_u - mu_u_w + right_v - mu_v_s


@dataclass(frozen=True)
class ReconstructionReport:
    field: UnreducedField
    max_plaquette_defect: float
    worst_face: int | None
    path_agreement: float


def reconstruction_report(grid: TriangulatedGrid, y: Section, seed: GroupElement,
                          tol: float = TOL_ADMISSIBLE) -> ReconstructionReport:
    """Rebuild the vertex field from (u, v) and a seed at the origin corner.

    Every plaquette holonomy is re-verified first; the field is then
    propagated row-major and checked against an independent column-major
    propagation.  Seeds differ by a constant left factor in the result.
    """
    n = y.fiber.n
    eye = np.eye(n)
    worst_face = None
    worst = 0.0
    for j in range(grid.height):
        for i in range(grid.width):
            defect = float(np.linalg.norm(
                plaquette_holonomy(grid, y, i, j).matrix - eye))
            if defect > worst:
                worst = defect
                worst_face = grid.face_id(i, j)
    if worst > tol:
        raise HolonomyError(worst_face, worst)

    def u_of(i, j):
        return y.values[grid.vertex_id(i, j)][0].matrix

    def v_of(i, j):
        return y.values[grid.vertex_id(i, j)][1].matrix

    rows = {grid.vertex_id(0, 0): seed.matrix}
    for i in range(grid.width):
        rows[grid.vertex_id(i + 1, 0)] = rows[grid.vertex_id(i, 0)] @ u_of(i, 0)
    for j in range(grid.height):
        for i in range(grid.width + 1):
            rows[grid.vertex_id(i, j + 1)] = rows[grid.vertex_id(i, j)] @ v_of(i, j)

    cols = {grid.vertex_id(0, 0): seed.matrix}
    for j in range(grid.height):
        cols[grid.vertex_id(0, j + 1)] = cols[grid.vertex_id(0, j)] @ v_of(0, j)
    for i in range(grid.width):
        for j in range(grid.height + 1):
            cols[grid.vertex_id(i + 1, j)] = cols[grid.vertex_id(i, j)] @ u_of(i, j)

    agreement = max(
        float(np.linalg.norm(rows[vid] - cols[vid])) for vid in rows)
    field = UnreducedField({vid: GroupElement(m) for vid, m in sorted(rows.items())})
    return ReconstructionReport(field, worst, worst_face, agreement)


def reduced_variation(grid: TriangulatedGrid, g: UnreducedField,
                      theta: GaugeField) -> Variation:
    """Push a vertex gauge field through reduction, in left-log coordinates.

    The u entry at (i, j) is theta(i+1, j) - Ad_{u^{-1}} theta(i, j) and the
    v entry is theta(i, j+1) - Ad_{v^{-1}} theta(i, j); these are exactly the
    variations of the forward differences under g -> g exp(t theta), so they
    are tangent to the flat set along any flat section.
    """
    y = reduce_field(grid, g)
    n = y.fiber.n
    zero = AlgebraElement(np.zeros((n, n)))
    values = {}
    for vid, (u, v) in y.values.items():
        i, j = grid.vertex_ij(vid)
        here = theta.at(vid)
        if i < grid.width:
            xi_u = theta.at(grid.vertex_id(i + 1, j)) \
                - adjoint(u.inverse(), here)
        else:
            xi_u = zero
        if j < grid.height:
            xi_v = theta.at(grid.vertex_id(i, j + 1)) \
                - adjoint(v.inverse(), here)
        else:
            xi_v = zero
        values[vid] = (xi_u, xi_v)
    return Variation(y.fiber, values)


# ---------------------------------------------------------------------------
# multiplier system


def _system_first(lagrangian, grid, y, lam: Multiplier, i, j) -> CoAlgebraElement:
    """First multiplier equation at (i, j); reads the face there and its south."""
    mu_u, _ = left_log_differentials(lagrangian, grid, y, i, j)
    u, _ = _uv(y, grid, i, j)
    right_u = coadjoint_inverse(GroupElement(u), mu_u)
    _, v_s = _uv(y, grid, i, j - 1)
    lam_here = lam.at(grid.face_id(i, j))
    lam_s = lam.at(grid.face_id(i, j - 1))
    return right_u + lam_here - coadjoint(GroupElement(v_s), lam_s)


def _system_second(lagrangian, grid, y, lam: Multiplier, i, j) -> CoAlgebraElement:
    """Second multiplier equation at (i, j); reads the face there and its west."""
    _, mu_v = left_log_differentials(lagrangian, grid, y, i, j)
    _, v = _uv(y, grid, i, j)
    right_v = coadjoint_inverse(GroupElement(v), mu_v)
    u_w, _ = _uv(y, grid, i - 1, j)
    lam_here = lam.at(grid.face_id(i, j))
    lam_w = lam.at(grid.face_id(i - 1, j))
    return right_v - lam_here + coadjoint(GroupElement(u_w), lam_w)


def multiplier_system_residual(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                               y: Section, lam: Multiplier, i: int, j: int,
                               faceset: FaceSet | None = None
                               ) -> tuple[CoAlgebraElement, CoAlgebraElement]:
    """Left-hand sides of the two multiplier equations at an interior vertex.

    Both vanish exactly when (y, lam) solves the extended critical-pair
    system there.
    """
    if faceset is None:
        faceset = grid.full_faceset()
    _require_interior_ij(grid, faceset, i, j)
    return (_system_first(lagrangian, grid, y, lam, i, j),
            _system_second(lagrangian, grid, y, lam, i, j))


@dataclass(frozen=True)
class RecoveryReport:
    seed_face: int
    max_discrepancy: float
    compared_faces: tuple[int, ...]
    unconstrained_faces: tuple[int, ...]


def recover_multipliers(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                        y: Section, seed: CoAlgebraElement,
                        ep_tol: float = EP_TOL, cons_tol: float = CONS_TOL,
                        adm_tol: float = TOL_ADMISSIBLE
                        ) -> tuple[Multiplier, RecoveryReport]:
    """Solve the multiplier system by a sweep from the max-corner face.

    Preconditions (checked): y is flat and its reduced residual is below
    ``ep_tol`` at every interior vertex.  The sweep visits interior vertices
    in decreasing lexicographic order; each determines its west and south
    star faces through the two coadjoint isomorphisms.  Faces reachable along
    two sweep paths are compared, never averaged: a discrepancy beyond
    ``cons_tol`` raises, smaller ones are reported.  Existence is only local
    in general, so the consistency data is part of the contract.

    Faces never touched by any interior vertex's equations (the origin-corner
    face on a full window) are reported and set to zero; any seed value may
    be placed at the max-corner face, and different seeds produce different
    valid multipliers.
    """
    faceset = grid.full_faceset()
    klass = classify_vertices(grid, faceset)
    interior_ij = sorted(
        (grid.vertex_ij(v) for v in klass.interior), reverse=True)
    if not interior_ij:
        raise PreconditionError("window has no interior vertices")
    for i, j in interior_ij:
        res = euler_poincare_residual(lagrangian, grid, y, i, j, faceset)
        if res.norm() > ep_tol:
            raise PreconditionError(
                f"reduced residual {res.norm():.3e} > {ep_tol:.1e} at ({i}, {j})")
    worst_hol = max(
        float(np.linalg.norm(plaquette_holonomy(grid, y, i, j).matrix - np.eye(y.fiber.n)))
        for j in range(grid.height) for i in range(grid.width))
    if worst_hol > adm_tol:
        raise PreconditionError(
            f"section is not flat, worst holonomy defect {worst_hol:.3e}")

    seed_face = grid.face_id(grid.width - 1, grid.height - 1)
    values: dict[int, CoAlgebraElement] = {seed_face: seed}
    max_disc = 0.0
    compared = []

    def assign(face, value):
        nonlocal max_disc
        if face in values:
            disc = (values[face] - value).norm()
            compared.append(face)
            if disc > cons_tol:
                raise RecoveryConflictError(face, disc)
            max_disc = max(max_disc, disc)
        else:
            values[face] = value

    for i, j in interior_ij:
        face = grid.face_id(i, j)
        if face not in values:
            raise PreconditionError(
                f"sweep reached ({i}, {j}) before face {face} was determined")
        lam_here = values[face]
        mu_u, mu_v = left_log_differentials(lagrangian, grid, y, i, j)
        u, v = _uv(y, grid, i, j)
        right_u = coadjoint_inverse(GroupElement(u), mu_u)
        right_v = coadjoint_inverse(GroupElement(v), mu_v)
        u_w, _ = _uv(y, grid, i - 1, j)
        _, v_s = _uv(y, grid, i, j - 1)
        # first equation solved for the south face, second for the west face
        south = coadjoint_inverse(GroupElement(v_s), right_u + lam_here)
        west = coadjoint_inverse(GroupElement(u_w), lam_here - right_v)
        assign(grid.face_id(i, j - 1), south)
        assign(grid.face_id(i - 1, j), west)

    n = y.fiber.n
    unconstrained = tuple(f for f in grid.faces if f not in values)
    for f in unconstrained:
        values[f] = CoAlgebraElement(np.zeros((n, n)))
    report = RecoveryReport(seed_face, max_disc, tuple(sorted(compared)),
                            unconstrained)
    return Multiplier(values), report


@dataclass(frozen=True)
class EliminationDefects:
    """Per-vertex defects of the multiplier elimination identity.

    ``ep_combination`` is the norm of the fixed four-term coadjoint
    combination of the system residuals, which algebraically equals the
    reduced residual plus the cancellation term.  ``cancellation`` measures
    how far the two composed coadjoint actions are from agreeing on the
    corner multiplier; flatness of the section makes it vanish.
    """

    ep_combination: float
    cancellation: float


def multiplier_elimination_check(lagrangian: LagrangianDensity,
                                 grid: TriangulatedGrid, y: Section,
                                 lam: Multiplier, i: int, j: int
                                 ) -> EliminationDefects:
    first = _system_first(lagrangian, grid, y, lam, i, j)
    second = _system_second(lagrangian, grid, y, lam, i, j)
    first_w = _system_first(lagrangian, grid, y, lam, i - 1, j)
    second_s = _system_second(lagrangian, grid, y, lam, i, j - 1)
    u_w, _ = _uv(y, grid, i - 1, j)
    _, v_s = _uv(y, grid, i, j - 1)
    combo = first - coadjoint(GroupElement(u_w), first_w) \
        + second - coadjoint(GroupElement(v_s), second_s)

    u_sw, v_sw = _uv(y, grid, i - 1, j - 1)
    lam_sw = lam.at(grid.face_id(i - 1, j - 1))
    one_way = coadjoint(GroupElement(v_s),
                        coadjoint(GroupElement(u_sw), lam_sw))
    other_way = coadjoint(GroupElement(u_w),
                          coadjoint(GroupElement(v_sw), lam_sw))
    return EliminationDefects(combo.norm(), (one_way - other_way).norm())
