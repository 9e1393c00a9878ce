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

Nothing here checks group membership: values enter through
``GroupElement`` or the file loaders, which check them once, and everything
derived from them is trusted.  All operations are pure; the arrays are
read-only, so sections and multipliers are never mutated and any face- or
vertex-parallel scheduling of the sums is legal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .complexes import CellComplex, FaceSet, VertexClass, classify_vertices
from .defaults import H_JACOBI, H_LAGRANGIAN, TOL_ADMISSIBLE, RANK_TOL
from .liegroup import (
    algebra_dim,
    coords_to_skew,
    read_only,
    skew_basis,
    skew_part,
    skew_to_coords,
)

__all__ = [
    "FiberSignature",
    "Section",
    "Variation",
    "Multiplier",
    "Jet1",
    "LagrangianDensity",
    "ConstraintMap",
    "CartanForm",
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

    def at(self, face: int) -> np.ndarray:
        if not 0 <= face < len(self.values):
            raise ValueError(f"multiplier missing on face {face}")
        return self.values[face]


@dataclass(frozen=True)
class Jet1:
    """Fiber values over one face, a (k, c, n, n) array ordered like the
    face's adherence list."""

    face: int
    values: np.ndarray


def jet_at(y: Section, complex: CellComplex, face: int) -> Jet1:
    adherence = complex.adherence(face)
    if max(adherence) >= len(y.values):
        raise ValueError(f"section undefined at vertex {max(adherence)} "
                         f"adherent to face {face}")
    return Jet1(face, y.values[list(adherence)])


def _fd_pairs(jet: Jet1, slot: int, h: float):
    """Central-difference jet pairs for the default differentials.

    For each fiber component k of the slot and each skew basis direction E,
    in that order, the jets with the component g moved to g exp(hE) and to
    g exp(-hE).
    """
    fiber = jet.values[slot]
    steps = scipy.linalg.expm(h * skew_basis(fiber.shape[-1]))
    for k, g in enumerate(fiber):
        for step in steps:
            plus, minus = jet.values.copy(), jet.values.copy()
            plus[slot, k] = g @ step
            minus[slot, k] = g @ step.T
            yield Jet1(jet.face, plus), Jet1(jet.face, minus)


def apply_differential(theta: np.ndarray, xi: np.ndarray) -> float:
    """Evaluate a per-vertex differential (c, n, n) on a variation entry
    (c, n, n) through the trace pairing, component after component."""
    return sum(float(np.trace(mu.T @ x)) for mu, x in zip(theta, xi))


class LagrangianDensity:
    """Per-face smooth functions with per-vertex differentials.

    Subclasses implement :meth:`value`.  The differential defaults to central
    finite differences along exponential curves; analytic overrides should
    reimplement :meth:`vertex_differential`.
    """

    def __init__(self, fiber: FiberSignature, fd_step: float = H_LAGRANGIAN):
        self.fiber = fiber
        self.fd_step = fd_step

    def value(self, complex: CellComplex, jet: Jet1) -> float:
        raise NotImplementedError

    def vertex_differential(self, complex: CellComplex, jet: Jet1,
                            slot: int) -> np.ndarray:
        """Differential in the selected vertex slot, a (c, n, n) coalgebra stack.

        It acts on a left-log variation entry through the pairing, see
        :func:`apply_differential`.
        """
        h = self.fd_step
        coeffs = np.array([
            (self.value(complex, plus) - self.value(complex, minus)) / (2.0 * h)
            for plus, minus in _fd_pairs(jet, slot, h)])
        # coefficient against basis vector E equals <mu, E> = 2 mu_kl
        return coords_to_skew(coeffs.reshape(self.fiber.components, -1) / 2.0,
                              self.fiber.n)


class CartanForm:
    """A linear map from one vertex's variation components to the algebra.

    Stored as a matrix over the skew basis, shape (dim g, components * dim g),
    so it can be applied, transposed against a multiplier, and stacked into
    the regularity matrix uniformly.
    """

    __slots__ = ("n", "components", "matrix")

    def __init__(self, n: int, components: int, matrix: np.ndarray):
        d = algebra_dim(n)
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (d, components * d):
            raise ValueError(f"expected shape {(d, components * d)}, "
                             f"got {matrix.shape}")
        self.n = n
        self.components = components
        self.matrix = matrix

    def apply(self, xi: np.ndarray) -> np.ndarray:
        """The algebra element (n, n) that the form assigns to xi (c, n, n)."""
        return coords_to_skew(self.matrix @ skew_to_coords(xi).ravel(), self.n)

    def pair_transpose(self, lam: np.ndarray) -> np.ndarray:
        """The (c, n, n) coalgebra stack nu with <nu, xi> = <lam, apply(xi)>."""
        back = self.matrix.T @ skew_to_coords(lam)
        return coords_to_skew(back.reshape(self.components, -1), self.n)


class ConstraintMap:
    """Group-valued face-local constraint with per-vertex Cartan forms.

    Subclasses implement :meth:`value`, which returns the (n, n) group
    matrix.  The default :meth:`cartan_form` differentiates the
    left-translated constraint by central finite differences; analytic
    constraints override it.  The decomposition of the full differential into
    per-vertex forms is unique here because each form acts on a disjoint
    block of variables.
    """

    def __init__(self, fiber: FiberSignature, fd_step: float = H_LAGRANGIAN):
        self.fiber = fiber
        self.fd_step = fd_step

    def value(self, complex: CellComplex, jet: Jet1) -> np.ndarray:
        raise NotImplementedError

    def cartan_form(self, complex: CellComplex, jet: Jet1, slot: int) -> CartanForm:
        h = self.fd_step
        base_inv = self.value(complex, jet).T
        cols = []
        for plus, minus in _fd_pairs(jet, slot, h):
            v_plus = self.value(complex, plus)
            v_minus = self.value(complex, minus)
            deriv = base_inv @ (v_plus - v_minus) / (2.0 * h)
            cols.append(skew_to_coords(skew_part(deriv)))
        return CartanForm(self.fiber.n, self.fiber.components, np.column_stack(cols))


# ---------------------------------------------------------------------------
# action and admissibility


def action(lagrangian: LagrangianDensity, y: Section, faceset: FaceSet) -> float:
    """Sum of the face Lagrangians over the face set."""
    complex = faceset.complex
    return float(sum(
        lagrangian.value(complex, jet_at(y, complex, f))
        for f in sorted(faceset.faces)
    ))


def constraint_values(constraint: ConstraintMap, y: Section,
                      faceset: FaceSet) -> np.ndarray:
    """Constraint values, (F, n, n) indexed by face id like a
    :class:`Multiplier`, the identity on faces outside ``faceset``;
    identity everywhere means admissible."""
    complex = faceset.complex
    out = np.tile(np.eye(constraint.fiber.n), (len(complex.faces), 1, 1))
    for f in faceset.faces:
        out[f] = constraint.value(complex, jet_at(y, complex, f))
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    max_residual: float
    worst_face: int | None
    tol: float


def admissibility_report(constraint: ConstraintMap, y: Section, faceset: FaceSet,
                         tol: float = TOL_ADMISSIBLE) -> AdmissibilityReport:
    """Max Frobenius distance of the constraint values from the identity."""
    n = constraint.fiber.n
    eye = np.eye(n)
    worst = None
    worst_res = 0.0
    values = constraint_values(constraint, y, faceset)
    for f in sorted(faceset.faces):
        res = float(np.linalg.norm(values[f] - eye))
        if res > worst_res:
            worst_res = res
            worst = f
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
    out = np.zeros((len(complex.faces), n, n))
    for f in sorted(faceset.faces):
        jet = jet_at(y, complex, f)
        for slot, v in enumerate(complex.adherence(f)):
            form = constraint.cartan_form(complex, jet, slot)
            out[f] = out[f] + form.apply(dy.values[v])
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
    n = constraint.fiber.n
    c = constraint.fiber.components
    d = algebra_dim(n)
    klass = classify_vertices(complex, faceset)
    variable = sorted(klass.interior) if boundary_fixed \
        else sorted(faceset.adherent_vertices)
    col_of = {v: i * c * d for i, v in enumerate(variable)}
    faces = sorted(faceset.faces)
    rows = len(faces) * d
    cols = len(variable) * c * d
    matrix = np.zeros((rows, cols))
    reachable = []
    for fi, f in enumerate(faces):
        jet = jet_at(y, complex, f)
        touched = False
        for slot, v in enumerate(complex.adherence(f)):
            if v not in col_of:
                continue
            form = constraint.cartan_form(complex, jet, slot)
            matrix[fi * d:(fi + 1) * d, col_of[v]:col_of[v] + c * d] = form.matrix
            touched = True
        if touched:
            reachable.append(fi)
    unreachable = tuple(faces[fi] for fi in range(len(faces)) if fi not in reachable)

    def smallest_sv(m):
        if m.shape[0] == 0 or m.shape[1] == 0:
            return 0.0
        return float(np.linalg.svd(m, compute_uv=False)[-1])

    keep = np.concatenate([np.arange(fi * d, (fi + 1) * d) for fi in reachable]) \
        if reachable else np.array([], dtype=int)
    sigma_reachable = smallest_sv(matrix[keep, :]) if keep.size else 0.0
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


def euler_lagrange_form(lagrangian: LagrangianDensity, y: Section,
                        faceset: FaceSet, vertex: int) -> np.ndarray:
    """Euler-Lagrange 1-form at an interior vertex.

    The vertex partial of every face Lagrangian in the star, summed.  This is
    the definition that makes the variational split below an exact
    resummation.  Returns the (c, n, n) coalgebra stack.
    """
    complex = faceset.complex
    _require_interior(classify_vertices(complex, faceset), vertex)
    fib = lagrangian.fiber
    total = np.zeros((fib.components, fib.n, fib.n))
    for f in sorted(complex.star(vertex)):
        jet = jet_at(y, complex, f)
        slot = complex.adherence(f).index(vertex)
        total = total + lagrangian.vertex_differential(complex, jet, slot)
    return total


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
    fib = lagrangian.fiber
    total = np.zeros((fib.components, fib.n, fib.n))
    for f in sorted(complex.star(vertex)):
        jet = jet_at(y, complex, f)
        slot = complex.adherence(f).index(vertex)
        theta = lagrangian.vertex_differential(complex, jet, slot)
        nu = constraint.cartan_form(complex, jet, slot).pair_transpose(lam.at(f))
        total = total + theta + nu
    # value on basis vector E_kl is <mu, E_kl> = 2 mu_kl
    coords = (2.0 * skew_to_coords(total)).ravel()
    return ELResidual(total, coords, float(np.linalg.norm(coords)))


def el_residual_vector(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                       y: Section, lam: Multiplier, faceset: FaceSet) -> np.ndarray:
    """Concatenated residual coordinates over all interior vertices (sorted)."""
    klass = classify_vertices(faceset.complex, faceset)
    interior = sorted(klass.interior)
    if not interior:
        return np.zeros(0)
    return np.concatenate([
        extended_residual(lagrangian, constraint, y, lam, faceset, v).coords
        for v in interior
    ])


# ---------------------------------------------------------------------------
# variation formula, Noether sum, Jacobi and multisymplectic checks


def _pairs(faceset: FaceSet, vertices) -> list[tuple[int, int]]:
    """(vertex, face) pairs: each vertex, sorted, with its sorted star faces."""
    complex = faceset.complex
    return [(v, f) for v in sorted(vertices)
            for f in sorted(complex.star(v) & faceset.faces)]


def _paired_sum(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                y: Section, lam: Multiplier, dy: Variation,
                complex: CellComplex, pairs) -> float:
    """Extended Cartan forms applied to dy, summed over (vertex, face) pairs.

    Each pair contributes the Lagrangian differential and then the
    multiplier-paired constraint form at the vertex's slot in the face, in
    the order given; the split, Noether and two-form sums differ only in the
    pair list.
    """
    total = 0.0
    for v, f in pairs:
        jet = jet_at(y, complex, f)
        slot = complex.adherence(f).index(v)
        xi = dy.values[v]
        total += apply_differential(
            lagrangian.vertex_differential(complex, jet, slot), xi)
        total += float(np.trace(
            lam.at(f).T @ constraint.cartan_form(complex, jet, slot).apply(xi)))
    return total


def variational_split(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                      y: Section, lam: Multiplier, dy: Variation,
                      faceset: FaceSet) -> tuple[float, float]:
    """Both sides of the variation formula.

    Left: the face-by-face sum of the Lagrangian differential plus the
    multiplier-paired constraint differential, each in per-vertex form sum.
    Right: the same terms regrouped per vertex, interior Euler-Lagrange part
    plus frontier boundary part.  The identity is a finite resummation, so
    the two must agree to round-off for arbitrary inputs.
    """
    complex = faceset.complex
    klass = classify_vertices(complex, faceset)
    face_major = [(v, f) for f in sorted(faceset.faces)
                  for v in complex.adherence(f)]
    lhs = _paired_sum(lagrangian, constraint, y, lam, dy, complex, face_major)
    rhs = _paired_sum(lagrangian, constraint, y, lam, dy, complex,
                      _pairs(faceset, klass.interior)
                      + _pairs(faceset, klass.frontier))
    return lhs, rhs


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
    complex = faceset.complex
    lag_defect = 0.0
    con_defect = 0.0
    for f in sorted(faceset.faces):
        jet = jet_at(y, complex, f)
        dl = 0.0
        dphi = np.zeros((constraint.fiber.n, constraint.fiber.n))
        for slot, v in enumerate(complex.adherence(f)):
            xi = d.values[v]
            dl += apply_differential(
                lagrangian.vertex_differential(complex, jet, slot), xi)
            dphi = dphi + constraint.cartan_form(complex, jet, slot).apply(xi)
        lag_defect = max(lag_defect, abs(dl))
        con_defect = max(con_defect, float(np.linalg.norm(dphi)))

    total = _paired_sum(lagrangian, constraint, y, lam, d, complex,
                        _pairs(faceset, classify_vertices(complex, faceset).frontier))
    ok = lag_defect <= symmetry_tol and con_defect <= symmetry_tol
    return NoetherReport(total, lag_defect, con_defect, ok, symmetry_tol)


def section_exp(y: Section, dy: Variation, t: float) -> Section:
    """Flow the section along a variation: every component g -> g exp(t xi)."""
    return Section(y.fiber, y.values @ scipy.linalg.expm(t * dy.values))


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
    complex = faceset.complex
    pairs = _pairs(faceset, classify_vertices(complex, faceset).frontier)

    def omega_at(flow_dy, flow_dlam, t, probe_dy):
        yt = section_exp(y, flow_dy, t)
        lamt = multiplier_shift(lam, flow_dlam, t)
        return _paired_sum(lagrangian, constraint, yt, lamt, probe_dy,
                           complex, pairs)

    x_of_y = (omega_at(d1, dlam1, step, d2) - omega_at(d1, dlam1, -step, d2)) \
        / (2.0 * step)
    y_of_x = (omega_at(d2, dlam2, step, d1) - omega_at(d2, dlam2, -step, d1)) \
        / (2.0 * step)
    bracket = _paired_sum(lagrangian, constraint, y, lam,
                          _commutator_variation(d1, d2), complex, pairs)
    return x_of_y - y_of_x - bracket
