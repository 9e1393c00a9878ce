"""Sections, variations, and the variational calculus on a face set.

Fibers are finite products of SO(n) copies.  Variations are stored in left
logarithmic coordinates: the entry xi at a vertex component with value g is
the tangent of t -> g exp(t xi).  Per-vertex differentials of face-local
quantities (the Cartan 1-forms of a Lagrangian or of a constraint) are the
currency of everything here: the action differential splits into an interior
Euler-Lagrange part and a frontier boundary part by regrouping exactly those
forms, and that resummation identity is the master property this module is
tested against.

All operations are pure; sections and multipliers are never mutated, so any
face- or vertex-parallel scheduling of the sums is legal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liegroup as lg
from .complexes import CellComplex, FaceSet, VertexClass, classify_vertices
from .defaults import H_JACOBI, H_LAGRANGIAN, TOL_ADMISSIBLE, RANK_TOL
from .liegroup import (
    AlgebraElement,
    CoAlgebraElement,
    GroupElement,
    algebra_dim,
    coords_to_skew,
    pairing,
    skew_basis,
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


@dataclass
class Section:
    """Map vertex id -> tuple of group elements, one per fiber component."""

    fiber: FiberSignature
    values: dict[int, tuple[GroupElement, ...]]

    def __post_init__(self):
        for v, fib in self.values.items():
            if len(fib) != self.fiber.components:
                raise ValueError(f"vertex {v} carries {len(fib)} components, "
                                 f"expected {self.fiber.components}")

    def at(self, vertex: int) -> tuple[GroupElement, ...]:
        return self.values[vertex]


@dataclass
class Variation:
    """Left-log variation: vertex id -> tuple of algebra elements.

    Vertices absent from ``values`` count as zero, which keeps single-vertex
    variations cheap to build.
    """

    fiber: FiberSignature
    values: dict[int, tuple[AlgebraElement, ...]]

    def at(self, vertex: int) -> tuple[AlgebraElement, ...]:
        got = self.values.get(vertex)
        if got is not None:
            return got
        zero = AlgebraElement(np.zeros((self.fiber.n, self.fiber.n)))
        return tuple(zero for _ in range(self.fiber.components))


@dataclass
class Multiplier:
    """Coalgebra-valued function on faces."""

    values: dict[int, CoAlgebraElement]

    def at(self, face: int) -> CoAlgebraElement:
        try:
            return self.values[face]
        except KeyError:
            raise ValueError(f"multiplier missing on face {face}") from None


@dataclass(frozen=True)
class Jet1:
    """Fiber values over one face, ordered like the face's adherence list."""

    face: int
    values: tuple[tuple[GroupElement, ...], ...]


def jet_at(y: Section, complex: CellComplex, face: int) -> Jet1:
    try:
        values = tuple(y.values[v] for v in complex.adherence(face))
    except KeyError as exc:
        raise ValueError(f"section undefined at vertex {exc.args[0]} "
                         f"adherent to face {face}") from None
    return Jet1(face, values)


def _jet_replace(jet: Jet1, slot: int, fiber: tuple[GroupElement, ...]) -> Jet1:
    values = list(jet.values)
    values[slot] = fiber
    return Jet1(jet.face, tuple(values))


def apply_differential(theta: tuple[CoAlgebraElement, ...],
                       xi: tuple[AlgebraElement, ...]) -> float:
    """Evaluate a per-vertex differential on a variation entry."""
    return sum(pairing(mu, x) for mu, x in zip(theta, xi))


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
                            slot: int) -> tuple[CoAlgebraElement, ...]:
        """Differential in the selected vertex slot, as a coalgebra tuple.

        The tuple acts on a left-log variation entry through the pairing,
        see :func:`apply_differential`.
        """
        n = self.fiber.n
        h = self.fd_step
        basis = skew_basis(n)
        out = []
        fiber = jet.values[slot]
        for k, g in enumerate(fiber):
            coeffs = np.zeros(algebra_dim(n))
            for b, e in enumerate(basis):
                step = lg.exp(h * e).matrix
                plus = list(fiber)
                plus[k] = GroupElement(g.matrix @ step)
                minus = list(fiber)
                minus[k] = GroupElement(g.matrix @ step.T)
                f_plus = self.value(complex, _jet_replace(jet, slot, tuple(plus)))
                f_minus = self.value(complex, _jet_replace(jet, slot, tuple(minus)))
                coeffs[b] = (f_plus - f_minus) / (2.0 * h)
            # coefficient against basis vector E equals <mu, E> = 2 mu_kl
            out.append(CoAlgebraElement(coords_to_skew(coeffs / 2.0, n)))
        return tuple(out)


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

    def apply(self, xi: tuple[AlgebraElement, ...]) -> AlgebraElement:
        stacked = np.concatenate([skew_to_coords(x.matrix) for x in xi])
        return AlgebraElement(coords_to_skew(self.matrix @ stacked, self.n))

    def pair_transpose(self, lam: CoAlgebraElement) -> tuple[CoAlgebraElement, ...]:
        """The coalgebra tuple nu with <nu, xi> = <lam, apply(xi)>."""
        d = algebra_dim(self.n)
        lam_coords = skew_to_coords(lam.matrix)
        back = self.matrix.T @ lam_coords
        return tuple(
            CoAlgebraElement(coords_to_skew(back[k * d:(k + 1) * d], self.n))
            for k in range(self.components)
        )


class ConstraintMap:
    """Group-valued face-local constraint with per-vertex Cartan forms.

    Subclasses implement :meth:`value`.  The default :meth:`cartan_form`
    differentiates the left-translated constraint by central finite
    differences; analytic constraints override it.  The decomposition of the
    full differential into per-vertex forms is unique here because each form
    acts on a disjoint block of variables.
    """

    def __init__(self, fiber: FiberSignature, fd_step: float = H_LAGRANGIAN):
        self.fiber = fiber
        self.fd_step = fd_step

    def value(self, complex: CellComplex, jet: Jet1) -> GroupElement:
        raise NotImplementedError

    def cartan_form(self, complex: CellComplex, jet: Jet1, slot: int) -> CartanForm:
        n = self.fiber.n
        c = self.fiber.components
        h = self.fd_step
        base = self.value(complex, jet).matrix
        base_inv = base.T
        basis = skew_basis(n)
        fiber = jet.values[slot]
        cols = []
        for k, g in enumerate(fiber):
            for e in basis:
                step = lg.exp(h * e).matrix
                plus = list(fiber)
                plus[k] = GroupElement(g.matrix @ step)
                minus = list(fiber)
                minus[k] = GroupElement(g.matrix @ step.T)
                v_plus = self.value(complex, _jet_replace(jet, slot, tuple(plus))).matrix
                v_minus = self.value(complex, _jet_replace(jet, slot, tuple(minus))).matrix
                deriv = base_inv @ (v_plus - v_minus) / (2.0 * h)
                cols.append(skew_to_coords((deriv - deriv.T) / 2.0))
        return CartanForm(n, c, np.column_stack(cols))


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
                      faceset: FaceSet) -> dict[int, GroupElement]:
    """Per-face constraint values; identity everywhere means admissible."""
    complex = faceset.complex
    return {f: constraint.value(complex, jet_at(y, complex, f))
            for f in sorted(faceset.faces)}


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
    for f, g in constraint_values(constraint, y, faceset).items():
        res = float(np.linalg.norm(g.matrix - eye))
        if res > worst_res:
            worst_res = res
            worst = f
    return AdmissibilityReport(worst_res <= tol, worst_res, worst, tol)


def constraint_derivative(constraint: ConstraintMap, y: Section, dy: Variation,
                          faceset: FaceSet) -> dict[int, AlgebraElement]:
    """Left-translated constraint differential per face, as the form sum.

    Vanishes exactly on admissible variations; for variations generated by
    gauge fields along admissible sections this is the tangency statement the
    reduction module tests.
    """
    complex = faceset.complex
    out = {}
    for f in sorted(faceset.faces):
        jet = jet_at(y, complex, f)
        total = np.zeros((constraint.fiber.n, constraint.fiber.n))
        for slot, v in enumerate(complex.adherence(f)):
            form = constraint.cartan_form(complex, jet, slot)
            total = total + form.apply(dy.at(v)).matrix
        out[f] = AlgebraElement(total)
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
                        faceset: FaceSet, vertex: int) -> tuple[CoAlgebraElement, ...]:
    """Euler-Lagrange 1-form at an interior vertex.

    The vertex partial of every face Lagrangian in the star, summed.  This is
    the definition that makes the variational split below an exact
    resummation.
    """
    complex = faceset.complex
    _require_interior(classify_vertices(complex, faceset), vertex)
    n = lagrangian.fiber.n
    c = lagrangian.fiber.components
    total = [np.zeros((n, n)) for _ in range(c)]
    for f in sorted(complex.star(vertex)):
        jet = jet_at(y, complex, f)
        slot = complex.adherence(f).index(vertex)
        theta = lagrangian.vertex_differential(complex, jet, slot)
        for k in range(c):
            total[k] = total[k] + theta[k].matrix
    return tuple(CoAlgebraElement(m) for m in total)


@dataclass(frozen=True)
class ELResidual:
    """Extended Euler-Lagrange residual at one interior vertex.

    ``coords`` holds the value of the residual functional on each skew basis
    vector of each fiber component; ``norm`` is its Euclidean norm.
    """

    components: tuple[CoAlgebraElement, ...]
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
    n = lagrangian.fiber.n
    c = lagrangian.fiber.components
    total = [np.zeros((n, n)) for _ in range(c)]
    for f in sorted(complex.star(vertex)):
        jet = jet_at(y, complex, f)
        slot = complex.adherence(f).index(vertex)
        theta = lagrangian.vertex_differential(complex, jet, slot)
        nu = constraint.cartan_form(complex, jet, slot).pair_transpose(lam.at(f))
        for k in range(c):
            total[k] = total[k] + theta[k].matrix + nu[k].matrix
    components = tuple(CoAlgebraElement(m) for m in total)
    # value on basis vector E_kl is <mu, E_kl> = 2 mu_kl
    coords = np.concatenate([2.0 * skew_to_coords(m.matrix) for m in components])
    return ELResidual(components, coords, float(np.linalg.norm(coords)))


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
        xi = dy.at(v)
        total += apply_differential(
            lagrangian.vertex_differential(complex, jet, slot), xi)
        total += pairing(lam.at(f),
                         constraint.cartan_form(complex, jet, slot).apply(xi))
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
            xi = d.at(v)
            dl += apply_differential(
                lagrangian.vertex_differential(complex, jet, slot), xi)
            dphi = dphi + constraint.cartan_form(complex, jet, slot).apply(xi).matrix
        lag_defect = max(lag_defect, abs(dl))
        con_defect = max(con_defect, float(np.linalg.norm(dphi)))

    total = _paired_sum(lagrangian, constraint, y, lam, d, complex,
                        _pairs(faceset, classify_vertices(complex, faceset).frontier))
    ok = lag_defect <= symmetry_tol and con_defect <= symmetry_tol
    return NoetherReport(total, lag_defect, con_defect, ok, symmetry_tol)


def section_exp(y: Section, dy: Variation, t: float) -> Section:
    """Flow the section along a variation: every component g -> g exp(t xi)."""
    values = {}
    for v, fib in y.values.items():
        xi = dy.values.get(v)
        if xi is None or t == 0.0:
            values[v] = fib
        else:
            values[v] = tuple(
                GroupElement(g.matrix @ lg.exp(t * x).matrix)
                for g, x in zip(fib, xi)
            )
    return Section(y.fiber, values)


def multiplier_shift(lam: Multiplier, dlam: Multiplier, t: float) -> Multiplier:
    values = dict(lam.values)
    for f, mu in dlam.values.items():
        values[f] = values[f] + t * mu if f in values else t * mu
    return Multiplier(values)


def zero_variation(fiber: FiberSignature) -> Variation:
    return Variation(fiber, {})


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
    values = {}
    for v in set(d1.values) | set(d2.values):
        a = d1.at(v)
        b = d2.at(v)
        values[v] = tuple(
            AlgebraElement(x.matrix @ z.matrix - z.matrix @ x.matrix)
            for x, z in zip(a, b)
        )
    return Variation(d1.fiber, values)


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
