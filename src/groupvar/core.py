"""Sections, variations, and the variational calculus on a face set.

Fibers are finite products of SO(n) copies.  A section, a variation and a
multiplier each hold one read-only float array indexed by vertex or face id,
(V, c, n, n), (V, c, n, n) and (F, n, n); a jet is the gather
``y.values[adherence]``.  Variations are stored in left logarithmic
coordinates: the entry xi at a vertex component with value g is the tangent
of t -> g exp(t xi).  Per-vertex differentials of face-local quantities (the
Cartan 1-forms of a Lagrangian or of a constraint) are the currency of
everything here: the action differential splits into an interior
Euler-Lagrange part and a frontier boundary part by regrouping exactly those
forms, and that resummation identity is the master property this module is
tested against.

Nothing here checks group membership: values enter through the solver
configuration or the file loaders, which check them once with
``liegroup.group_array``; everything derived from them is trusted.  All
operations are pure and the arrays read-only, so sections and multipliers are
never mutated and any face- or vertex-parallel scheduling of sums is legal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import CellComplex, FaceSet, VertexClass, classify_vertices
from .defaults import H_JACOBI, H_LAGRANGIAN, TOL_ADMISSIBLE, RANK_TOL
from .liegroup import (
    algebra_dim,
    block_dot,
    block_norms,
    coords_to_skew,
    exp_skew,
    max_norm,
    read_only,
    skew_part,
    skew_to_coords,
    step_matrices,
)

__all__ = [
    "FiberSignature",
    "Section",
    "Variation",
    "Multiplier",
    "LagrangianDensity",
    "ConstraintMap",
    "AdmissibilityReport",
    "RegularityReport",
    "ELResidual",
    "NoetherReport",
    "action",
    "constraint_values",
    "admissibility_report",
    "constraint_derivative",
    "regularity_report",
    "euler_lagrange_form",
    "extended_residual",
    "el_residual_vector",
    "variational_split",
    "noether_boundary_sum",
    "jacobi_residual",
    "multisymplectic_defect",
    "jet_at",
    "section_exp",
    "multiplier_shift",
    "zero_variation",
    "apply_differential",
    "form_apply",
    "form_transpose",
]


@dataclass(frozen=True)
class FiberSignature:
    """Number of group copies per vertex fiber and the group size."""

    components: int
    n: int

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("fiber needs at least one group component")
        if self.n < 2:
            raise ValueError("group size must be at least 2")


def _freeze_fiber_values(self):
    """Hold ``values`` as a read-only (V, c, n, n) array."""
    f = self.fiber
    object.__setattr__(self, "values",
                       read_only(self.values, (f.components, f.n, f.n)))


def _freeze_matrix_values(self):
    """Hold ``values`` as a read-only (count, n, n) array."""
    n = np.shape(self.values)[-1]
    object.__setattr__(self, "values", read_only(self.values, (n, n)))


@dataclass(frozen=True)
class Section:
    """Fiber values per vertex: a read-only (V, c, n, n) array indexed by
    vertex id, one group element per fiber component."""

    fiber: FiberSignature
    values: np.ndarray

    __post_init__ = _freeze_fiber_values


@dataclass(frozen=True)
class Variation:
    """Left-log variation: a read-only (V, c, n, n) array of algebra elements
    indexed by vertex id, zero wherever nothing is set."""

    fiber: FiberSignature
    values: np.ndarray

    __post_init__ = _freeze_fiber_values


@dataclass(frozen=True)
class Multiplier:
    """Coalgebra-valued function on faces: a read-only (F, n, n) array
    indexed by face id."""

    values: np.ndarray

    __post_init__ = _freeze_matrix_values

    def at(self, faces) -> np.ndarray:
        """Values on a face id or an int array of them; ValueError for a face
        outside the array."""
        faces = np.asarray(faces, dtype=int)
        missing = faces[(faces < 0) | (faces >= len(self.values))]
        if missing.size:
            raise ValueError(f"multiplier missing on face {missing.flat[0]}")
        return self.values[faces]


_FD_BLOCK = 256  # jets per value call in the finite-difference defaults


def jet_at(y: Section, complex: CellComplex, faces) -> np.ndarray:
    """Jets of y over a face id or an int array of them: the gather
    ``y.values[adherence_array[faces]]``, of shape faces.shape + (k, c, n, n),
    slots in adherence order; ValueError for a face id outside 0..F-1."""
    faces = np.asarray(faces, dtype=int)
    outside = faces[(faces < 0) | (faces >= len(complex.faces))]
    if outside.size:
        raise ValueError(f"face {outside.flat[0]} is not a face of the complex")
    vertices = complex.adherence_array[faces]
    if vertices.size and vertices.max() >= len(y.values):
        raise ValueError(f"section undefined at vertex {vertices.max()}, "
                         f"adherent to a requested face")
    return y.values[vertices]


def _fd_differences(value, complex: CellComplex, jets: np.ndarray, slot: int,
                   h: float) -> np.ndarray:
    """Central differences of ``value`` for the default differentials,
    shaped (P, c, d) + value shape.

    Entry [p, m, e] is the value at jet p with component m of the slot moved
    from g to g exp(h E_e), minus the same with g exp(-h E_e).  ``value`` is
    called once per block of ``_FD_BLOCK`` jets, so the moved stack stays
    bounded on large windows (about 12 MB for n = 5 with two components).
    """
    count, k, c, n, _ = jets.shape
    steps = step_matrices(n, h)
    blocks = []
    for start in range(0, max(count, 1), _FD_BLOCK):
        block = jets[start:start + _FD_BLOCK]
        moved = np.broadcast_to(block[:, None, None, None],
                                (len(block), 2, c, len(steps)) + jets.shape[1:]).copy()
        for m in range(c):
            g = block[:, slot, m, None]
            moved[:, 0, m, :, slot, m] = g @ steps
            moved[:, 1, m, :, slot, m] = g @ steps.swapaxes(-1, -2)
        values = value(complex, moved.reshape(-1, k, c, n, n))
        values = values.reshape(moved.shape[:4] + values.shape[1:])
        blocks.append(values[:, 0] - values[:, 1])
    return np.concatenate(blocks)


def apply_differential(theta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate per-vertex differentials (..., c, n, n) on variation entries
    (..., c, n, n) through the trace pairing, summed over the components."""
    return block_dot(theta, xi).sum(axis=-1)


def form_apply(forms: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The algebra elements (..., n, n) that Cartan forms (..., d, c d)
    assign to variation entries (..., c, n, n)."""
    coords = skew_to_coords(xi)
    coords = coords.reshape(coords.shape[:-2] + (coords.shape[-2] * coords.shape[-1],))
    return coords_to_skew((forms @ coords[..., None])[..., 0], xi.shape[-1])


def form_transpose(forms: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The covectors nu (..., c, n, n) with
    <nu, xi> = <lam, form_apply(forms, xi)> for multiplier values lam
    (..., n, n)."""
    n = lam.shape[-1]
    back = (forms.swapaxes(-1, -2) @ skew_to_coords(lam)[..., None])[..., 0]
    d = algebra_dim(n)
    return coords_to_skew(back.reshape(back.shape[:-1] + (back.shape[-1] // d, d)), n)


class LagrangianDensity:
    """Per-face smooth functions with per-vertex differentials, on jet stacks.

    Subclasses implement :meth:`value`, which receives a (P, k, c, n, n)
    stack of jets (from :func:`jet_at`) and returns the (P,) values.  The
    differential defaults to central finite differences along exponential
    curves, all 2 c d directions of a block of jets in one :meth:`value`
    call; analytic overrides should reimplement :meth:`vertex_differential`.
    """

    def __init__(self, fiber: FiberSignature, fd_step: float = H_LAGRANGIAN):
        self.fiber = fiber
        self.fd_step = fd_step

    def value(self, complex: CellComplex, jets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def vertex_differential(self, complex: CellComplex, jets: np.ndarray,
                            slot: int) -> np.ndarray:
        """Differentials in the selected vertex slot, a (P, c, n, n) stack.

        They act on left-log variation entries through the pairing, see
        :func:`apply_differential`.
        """
        h = self.fd_step
        coeffs = _fd_differences(self.value, complex, jets, slot, h) / (2.0 * h)
        # coefficient against basis vector E equals <mu, E> = 2 mu_kl
        return coords_to_skew(coeffs / 2.0, self.fiber.n)


class ConstraintMap:
    """Group-valued face-local constraint with per-vertex Cartan forms.

    Subclasses implement :meth:`value`, which maps a (P, k, c, n, n) jet
    stack to the (P, n, n) group matrices.  :meth:`cartan_form` returns, per
    jet, the form of one vertex slot: the linear map from that vertex's
    variation components to the algebra, as a (d, c d) matrix over the skew
    basis, so a stack is (P, d, c d) (see :func:`form_apply` and
    :func:`form_transpose`).  The default differentiates the left-translated
    constraint by central finite differences, one :meth:`value` call per
    block of jets; analytic constraints override it.  The decomposition
    of the full differential into per-vertex forms is unique here because
    each form acts on a disjoint block of variables.
    """

    def __init__(self, fiber: FiberSignature, fd_step: float = H_LAGRANGIAN):
        self.fiber = fiber
        self.fd_step = fd_step

    def value(self, complex: CellComplex, jets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cartan_form(self, complex: CellComplex, jets: np.ndarray,
                    slot: int) -> np.ndarray:
        h = self.fd_step
        n = self.fiber.n
        base_inv = self.value(complex, jets).swapaxes(-1, -2)[:, None]
        diff = _fd_differences(self.value, complex, jets, slot, h).reshape(
            len(jets), self.fiber.components * algebra_dim(n), n, n)
        deriv = base_inv @ diff / (2.0 * h)
        return skew_to_coords(skew_part(deriv)).swapaxes(-1, -2)


def _per_slot(method, complex: CellComplex, jets: np.ndarray) -> np.ndarray:
    """A per-slot density or constraint method on a (P, k, ...) jet stack,
    one call per slot, stacked [jet, slot]."""
    return np.stack([method(complex, jets, slot) for slot in range(jets.shape[1])],
                    axis=1)


def _sequential_sum(terms: np.ndarray) -> float:
    """Sum in the given order, one term at a time; 0.0 when empty."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


# ---------------------------------------------------------------------------
# action and admissibility


def action(lagrangian: LagrangianDensity, y: Section, faceset: FaceSet) -> float:
    """Sum of the face Lagrangians over the face set, in face-id order."""
    complex = faceset.complex
    jets = jet_at(y, complex, faceset.face_ids)
    return _sequential_sum(lagrangian.value(complex, jets))


def constraint_values(constraint: ConstraintMap, y: Section,
                      faceset: FaceSet) -> np.ndarray:
    """Constraint values, (F, n, n) indexed by face id like a
    :class:`Multiplier`, the identity on faces outside ``faceset``;
    identity everywhere means admissible."""
    complex = faceset.complex
    out = np.tile(np.eye(constraint.fiber.n), (len(complex.faces), 1, 1))
    faces = faceset.face_ids
    out[faces] = constraint.value(complex, jet_at(y, complex, faces))
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    max_residual: float
    worst_face: int | None
    tol: float


def admissibility_report(constraint: ConstraintMap, y: Section, faceset: FaceSet,
                         tol: float = TOL_ADMISSIBLE) -> AdmissibilityReport:
    """Max Frobenius distance of the constraint values from the identity; the
    first face in id order that attains it (a NaN counts as the largest)."""
    faces = faceset.face_ids
    res = block_norms(constraint_values(constraint, y, faceset)[faces]
                      - np.eye(constraint.fiber.n))
    worst_res = max_norm(res)
    worst = None if worst_res == 0.0 else int(faces[np.argmax(res)])
    return AdmissibilityReport(worst_res <= tol, worst_res, worst, tol)


def constraint_derivative(constraint: ConstraintMap, y: Section, dy: Variation,
                          faceset: FaceSet) -> np.ndarray:
    """Left-translated constraint differential as the form sum, (F, n, n)
    indexed by face id like a :class:`Multiplier`, zero on faces outside
    ``faceset``.

    Vanishes exactly on admissible variations; for variations generated by
    gauge fields along admissible sections this is the tangency statement the
    reduction module tests.
    """
    complex = faceset.complex
    n = constraint.fiber.n
    faces = faceset.face_ids
    forms = _per_slot(constraint.cartan_form, complex, jet_at(y, complex, faces))
    out = np.zeros((len(complex.faces), n, n))
    xi = dy.values[complex.adherence_array[faces]]
    out[faces] = form_apply(forms, xi).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# regularity


@dataclass(frozen=True)
class RegularityReport:
    """Numerical rank data for the assembled constraint differential.

    ``sigma_min`` is the smallest singular value after dropping face blocks
    that no variable vertex touches (those rows are structurally zero on a
    finite window and are listed in ``unreachable_faces``).
    ``sigma_min_full`` keeps every row.  ``regular`` requires the map to be
    structurally onto and numerically full rank.
    """

    rows: int
    cols: int
    sigma_min: float
    sigma_min_full: float
    unreachable_faces: tuple[int, ...]
    structurally_surjective: bool
    regular: bool
    rank_tol: float


def regularity_report(constraint: ConstraintMap, y: Section, faceset: FaceSet,
                      boundary_fixed: bool = True,
                      rank_tol: float = RANK_TOL) -> RegularityReport:
    """Assemble the constraint differential as a matrix and measure its rank.

    Rows are per-face algebra coordinates; columns are the variation
    coordinates of the variable vertices (interior ones when the boundary is
    fixed, every adherent vertex otherwise).
    """
    complex = faceset.complex
    d = algebra_dim(constraint.fiber.n)
    klass = classify_vertices(complex, faceset)
    variable = np.array(sorted(klass.interior if boundary_fixed
                               else faceset.adherent_vertices), dtype=int)
    faces = faceset.face_ids
    vertices = complex.adherence_array[faces]
    forms = _per_slot(constraint.cartan_form, complex, jet_at(y, complex, faces))
    column = np.full(len(y.values), -1)
    column[variable] = np.arange(len(variable))
    column = column[vertices]
    # blocks[face, :, variable vertex, :] holds the (d, c d) form of that pair
    blocks = np.zeros((len(faces), d, len(variable), forms.shape[-1]))
    fi, slot = np.nonzero(column >= 0)
    blocks[fi, :, column[fi, slot]] = forms[fi, slot]
    rows, cols = len(faces) * d, blocks.shape[2] * blocks.shape[3]
    matrix = blocks.reshape(rows, cols)
    reachable = (column >= 0).any(axis=1)
    unreachable = tuple(faces[~reachable].tolist())

    def smallest_sv(m):
        if m.shape[0] == 0 or m.shape[1] == 0:
            return 0.0
        return float(np.linalg.svd(m, compute_uv=False)[-1])

    keep = np.repeat(reachable, d)
    sigma_reachable = smallest_sv(matrix[keep]) if keep.any() else 0.0
    sigma_full = smallest_sv(matrix)
    structurally = rows <= cols and not unreachable
    return RegularityReport(
        rows=rows,
        cols=cols,
        sigma_min=sigma_reachable,
        sigma_min_full=sigma_full,
        unreachable_faces=unreachable,
        structurally_surjective=structurally,
        regular=structurally and sigma_reachable > rank_tol,
        rank_tol=rank_tol,
    )


# ---------------------------------------------------------------------------
# Euler-Lagrange machinery


def _require_interior(klass: VertexClass, vertex: int):
    if vertex not in klass.interior:
        raise ValueError(f"vertex {vertex} is not interior to the face set")


def _star_faces(complex: CellComplex, vertex: int) -> np.ndarray:
    return np.array(sorted(complex.star(vertex)), dtype=int)


def _vertex_major(vertices: np.ndarray, chosen) -> np.ndarray:
    """Flat [face, slot] indices of the (vertex, face) pairs whose vertex is
    in ``chosen``: vertex after vertex in id order, each vertex's faces in id
    order (``vertices`` is the (F', k) adherence of faces in id order)."""
    flat = vertices.ravel()
    picked = np.flatnonzero(np.isin(flat, list(chosen)))
    return picked[np.argsort(flat[picked], kind="stable")]


def _vertex_sums(covectors: np.ndarray, vertices: np.ndarray,
                 chosen: np.ndarray) -> np.ndarray:
    """Per-vertex sums of pair covectors (F', k, ...) over the sorted
    ``chosen`` vertices, each over its faces in id order: (len(chosen), ...)."""
    order = _vertex_major(vertices, chosen)
    out = np.zeros((len(chosen),) + covectors.shape[2:])
    np.add.at(out, np.searchsorted(chosen, vertices.ravel()[order]),
              covectors.reshape(-1, *covectors.shape[2:])[order])
    return out


def _face_forms(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                y: Section, complex: CellComplex, faces: np.ndarray):
    """For faces in id order: their adherent vertices (F', k), and the
    Lagrangian differential theta (F', k, c, n, n) and Cartan form A
    (F', k, d, c d) of every (face, slot) pair, each evaluated once."""
    jets = jet_at(y, complex, faces)
    return (complex.adherence_array[faces],
            _per_slot(lagrangian.vertex_differential, complex, jets),
            _per_slot(constraint.cartan_form, complex, jets))


def _extended_covectors(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                        y: Section, lam: Multiplier, complex: CellComplex,
                        faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adherent vertices (F', k) of the faces and the extended Cartan form
    theta + A^T lam of every (face, slot) pair, (F', k, c, n, n)."""
    vertices, theta, forms = _face_forms(lagrangian, constraint, y, complex, faces)
    return vertices, theta + form_transpose(forms, lam.at(faces)[:, None])


def euler_lagrange_form(lagrangian: LagrangianDensity, y: Section,
                        faceset: FaceSet, vertex: int) -> np.ndarray:
    """Euler-Lagrange 1-form at an interior vertex.

    The vertex partial of every face Lagrangian in the star, summed.  This is
    the definition that makes the variational split below an exact
    resummation.  Returns the (c, n, n) coalgebra stack.
    """
    complex = faceset.complex
    _require_interior(classify_vertices(complex, faceset), vertex)
    faces = _star_faces(complex, vertex)
    jets = jet_at(y, complex, faces)
    theta = _per_slot(lagrangian.vertex_differential, complex, jets)
    return _vertex_sums(theta, complex.adherence_array[faces], np.array([vertex]))[0]


@dataclass(frozen=True)
class ELResidual:
    """Extended Euler-Lagrange residual at one interior vertex.

    ``components`` is the (c, n, n) coalgebra stack, ``coords`` the value of
    the residual functional on each skew basis vector of each fiber
    component; ``norm`` is its Euclidean norm.
    """

    components: np.ndarray
    coords: np.ndarray
    norm: float


def extended_residual(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                      y: Section, lam: Multiplier, faceset: FaceSet,
                      vertex: int) -> ELResidual:
    """Euler-Lagrange form plus the multiplier-paired constraint forms.

    Zero at every interior vertex exactly when (y, lam) solves the extended
    critical-section equations.
    """
    complex = faceset.complex
    _require_interior(classify_vertices(complex, faceset), vertex)
    faces = _star_faces(complex, vertex)
    vertices, covectors = _extended_covectors(lagrangian, constraint, y, lam,
                                              complex, faces)
    total = _vertex_sums(covectors, vertices, np.array([vertex]))[0]
    # value on basis vector E_kl is <mu, E_kl> = 2 mu_kl
    coords = (2.0 * skew_to_coords(total)).ravel()
    return ELResidual(total, coords, float(np.linalg.norm(coords)))


def el_residual_vector(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                       y: Section, lam: Multiplier, faceset: FaceSet) -> np.ndarray:
    """Concatenated residual coordinates over all interior vertices (sorted)."""
    interior = np.array(sorted(classify_vertices(faceset.complex, faceset).interior),
                        dtype=int)
    if not interior.size:
        return np.zeros(0)
    vertices, covectors = _extended_covectors(lagrangian, constraint, y, lam,
                                              faceset.complex, faceset.face_ids)
    return (2.0 * skew_to_coords(_vertex_sums(covectors, vertices, interior))).ravel()


# ---------------------------------------------------------------------------
# variation formula, Noether sum, Jacobi and multisymplectic checks


def _pair_terms(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                y: Section, lam: Multiplier, dy: Variation, faceset: FaceSet):
    """The extended Cartan form of every (vertex, face) pair applied to dy,
    each evaluated once.

    Returns, indexed [face, slot] with the faces in id order: the adherent
    vertices (F', k), the Lagrangian terms <theta, xi> (F', k), the
    constraint terms A xi (F', k, n, n), and the pair terms
    <theta, xi> + <lam, A xi> (F', k) that every sum below adds up.
    """
    faces = faceset.face_ids
    vertices, theta, forms = _face_forms(lagrangian, constraint, y,
                                         faceset.complex, faces)
    xi = dy.values[vertices]
    dl = apply_differential(theta, xi)
    dphi = form_apply(forms, xi)
    return vertices, dl, dphi, dl + block_dot(lam.at(faces)[:, None], dphi)


def _vertex_major_sum(vertices: np.ndarray, terms: np.ndarray, *groups) -> float:
    """The pair terms of the vertex groups, one group after another, each
    vertex-major (see :func:`_vertex_major`), summed in that order."""
    order = np.concatenate([_vertex_major(vertices, g) for g in groups])
    return _sequential_sum(terms.ravel()[order])


def _paired_sum(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                y: Section, lam: Multiplier, dy: Variation, faceset: FaceSet,
                chosen) -> float:
    """Extended Cartan forms applied to dy, summed over the (vertex, face)
    pairs of the chosen vertices, vertex-major."""
    vertices, _, _, terms = _pair_terms(lagrangian, constraint, y, lam, dy, faceset)
    return _vertex_major_sum(vertices, terms, chosen)


def variational_split(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                      y: Section, lam: Multiplier, dy: Variation,
                      faceset: FaceSet) -> tuple[float, float]:
    """Both sides of the variation formula.

    Left: the face-by-face sum of the Lagrangian differential plus the
    multiplier-paired constraint differential, each in per-vertex form sum.
    Right: the same terms regrouped per vertex, interior Euler-Lagrange part
    plus frontier boundary part.  Both sides add up one array of pair terms,
    face-major on the left and interior-then-frontier vertex-major on the
    right.  The identity is a finite resummation, so the two must agree to
    round-off for arbitrary inputs.
    """
    klass = classify_vertices(faceset.complex, faceset)
    vertices, _, _, terms = _pair_terms(lagrangian, constraint, y, lam, dy, faceset)
    return (_sequential_sum(terms.ravel()),
            _vertex_major_sum(vertices, terms, klass.interior, klass.frontier))


@dataclass(frozen=True)
class NoetherReport:
    """Boundary sum of the extended Cartan forms on a symmetry field.

    ``symmetry_ok`` records whether the field actually left the Lagrangian
    and the constraint invariant along the section, within ``tol``; the sum
    is returned either way and is only predicted to vanish when the check
    passes and (y, lam) is critical.
    """

    boundary_sum: float
    lagrangian_defect: float
    constraint_defect: float
    symmetry_ok: bool
    tol: float


def noether_boundary_sum(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                         y: Section, lam: Multiplier, d: Variation,
                         faceset: FaceSet, symmetry_tol: float = 1e-9) -> NoetherReport:
    """Evaluate the conservation boundary sum for a candidate symmetry field.

    The invariance conditions are checked along the section only; this is
    what the vanishing statement actually uses, and it is weaker than
    invariance on the whole jet space.  A failed check flags the report
    instead of raising.
    """
    frontier = classify_vertices(faceset.complex, faceset).frontier
    vertices, dl, dphi, terms = _pair_terms(lagrangian, constraint, y, lam, d, faceset)
    lag_defect = max_norm(np.abs(dl.sum(axis=1)))
    con_defect = max_norm(block_norms(dphi.sum(axis=1)))
    total = _vertex_major_sum(vertices, terms, frontier)
    ok = lag_defect <= symmetry_tol and con_defect <= symmetry_tol
    return NoetherReport(total, lag_defect, con_defect, ok, symmetry_tol)


def section_exp(y: Section, dy: Variation, t: float) -> Section:
    """Flow the section along a variation: every component g -> g exp(t xi)."""
    return Section(y.fiber, y.values @ exp_skew(t * dy.values))


def multiplier_shift(lam: Multiplier, dlam: Multiplier, t: float) -> Multiplier:
    return Multiplier(lam.values + t * dlam.values)


def zero_variation(fiber: FiberSignature, complex: CellComplex) -> Variation:
    """The zero variation over every vertex of the complex."""
    return Variation(fiber, np.zeros((max(complex.vertices) + 1, fiber.components,
                                      fiber.n, fiber.n)))


def jacobi_residual(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                    y: Section, lam: Multiplier, dy: Variation, dlam: Multiplier,
                    faceset: FaceSet, step: float = H_JACOBI) -> float:
    """Directional derivative norm of the extended residual along (dy, dlam).

    Central finite differences with the documented step; a Jacobi field along
    a critical pair annihilates the linearized residual, so the value is of
    the order of the finite-difference error for true Jacobi fields.
    """
    plus = el_residual_vector(lagrangian, constraint, section_exp(y, dy, step),
                              multiplier_shift(lam, dlam, step), faceset)
    minus = el_residual_vector(lagrangian, constraint, section_exp(y, dy, -step),
                               multiplier_shift(lam, dlam, -step), faceset)
    return float(np.linalg.norm((plus - minus) / (2.0 * step)))


def _commutator_variation(d1: Variation, d2: Variation) -> Variation:
    """Bracket of the left-invariant extensions: pointwise matrix commutator."""
    x, z = d1.values, d2.values
    return Variation(d1.fiber, skew_part(x @ z - z @ x))


def multisymplectic_defect(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                           y: Section, lam: Multiplier,
                           d1: Variation, dlam1: Multiplier,
                           d2: Variation, dlam2: Multiplier,
                           faceset: FaceSet, step: float = H_JACOBI) -> float:
    """Exterior derivative of the boundary Cartan form on two fields.

    Uses d omega(X, Y) = X(omega(Y)) - Y(omega(X)) - omega([X, Y]) with the
    fields extended left-invariantly (constant left-log coordinates, constant
    multiplier part), the flows realized by exponential curves, and the
    bracket therefore the pointwise commutator.  Vanishes on two Jacobi
    fields along a critical pair, up to finite-difference error.
    """
    frontier = classify_vertices(faceset.complex, faceset).frontier

    def omega_at(flow_dy, flow_dlam, t, probe_dy):
        yt = section_exp(y, flow_dy, t)
        lamt = multiplier_shift(lam, flow_dlam, t)
        return _paired_sum(lagrangian, constraint, yt, lamt, probe_dy, faceset,
                           frontier)

    x_of_y = (omega_at(d1, dlam1, step, d2) - omega_at(d1, dlam1, -step, d2)) \
        / (2.0 * step)
    y_of_x = (omega_at(d2, dlam2, step, d1) - omega_at(d2, dlam2, -step, d1)) \
        / (2.0 * step)
    bracket = _paired_sum(lagrangian, constraint, y, lam,
                          _commutator_variation(d1, d2), faceset, frontier)
    return x_of_y - y_of_x - bracket
