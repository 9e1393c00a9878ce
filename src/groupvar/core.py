"""Sections, variations, and the variational calculus on a face set.

Fibers are finite products of c copies of SO(n).  A section, a variation
and a multiplier are each one float array indexed by vertex or face id,
(V, c, n, n), (V, c, n, n) and (F, n, n), and every function reads c and n
from the shapes.  Every function takes its domain as one face set
(:class:`~groupvar.complexes.FaceSet`), and a jet is the gather
``y[faceset.adherence]``.  Variations are stored in left logarithmic
coordinates: the entry xi at a vertex component with value g is the
tangent of t -> g exp(t xi).  Per-vertex differentials of face-local
quantities (the Cartan 1-forms of a Lagrangian or of a constraint) are the
currency of everything here: the action differential splits into an
interior Euler-Lagrange part and a frontier boundary part by regrouping
exactly those forms, and that resummation identity is the master property
this module is tested against.

Nothing here checks group membership: values enter through the solver's
boundary or the file loaders, which check them once with
``liegroup.group_array``; everything derived from them is trusted.  All
operations are pure and never write to their inputs, and the arrays the
library returns are read-only, so any face- or vertex-parallel scheduling of
sums is legal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import FaceSet, classify_vertices
from .defaults import H_JACOBI, H_LAGRANGIAN, SYMMETRY_TOL, TOL_ADMISSIBLE
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
    "LagrangianDensity",
    "ConstraintMap",
    "AdmissibilityReport",
    "RegularityReport",
    "NoetherReport",
    "action",
    "constraint_values",
    "admissibility_report",
    "constraint_derivative",
    "regularity_report",
    "extended_residual",
    "variational_split",
    "noether_boundary_sum",
    "jacobi_residual",
    "multisymplectic_defect",
    "multisymplectic_check",
    "jet_at",
    "section_exp",
    "apply_differential",
    "form_apply",
    "form_transpose",
]


def _face_values(values: np.ndarray, faceset: FaceSet) -> np.ndarray:
    """The multiplier values (..., F, n, n) on the faces of a face set, in
    face-id order: (..., F', n, n); ValueError when the values stop short of
    one of its faces."""
    faces = faceset.face_ids
    missing = faces[faces >= values.shape[-3]]
    if missing.size:
        raise ValueError(f"multiplier missing on face {missing[0]}")
    return values[..., faces, :, :]


_BLOCK_BYTES = 1 << 20  # float64 working bytes per block of jets or instances


def _block_size(floats_per_item: int) -> int:
    """Items per block when each holds ``floats_per_item`` float64 values:
    as many as fit in ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // (8 * floats_per_item))


def jet_at(values: np.ndarray, faceset: FaceSet) -> np.ndarray:
    """Jets over the faces of a face set, in face-id order, from section
    values (..., V, c, n, n) with any leading instance axes: the gather
    ``values[..., faceset.adherence]``, of shape ... + (F', k, c, n, n),
    slots in adherence order; ValueError when the values stop short of a
    vertex adherent to one of its faces."""
    vertices = faceset.adherence
    if vertices.size and vertices.max() >= values.shape[-4]:
        raise ValueError(f"section undefined at vertex {vertices.max()}, "
                         f"adherent to a requested face")
    return values[..., vertices, :, :, :]


def _fd_differences(value, jets: np.ndarray) -> np.ndarray:
    """Central differences of ``value`` for the default differentials,
    shaped (P, k, c, d) + value shape.

    Entry [p, s, m, e] is the value at jet p with component m of slot s
    moved from g to g exp(h E_e), minus the same with g exp(-h E_e), h =
    ``H_LAGRANGIAN``.  The jets go in blocks of at most ``_BLOCK_BYTES`` of
    moved stack: each block is repeated once per basis direction, and for
    each slot, component and sign that entry of every copy is moved in
    place, ``value`` is called on the stack, and g is written back, so
    ``value`` runs 2 k c times per block on d copies of each jet.  The plus
    values are copied out before the stack moves again, since ``value`` may
    return a view of its input.
    """
    count, k, c, n, _ = jets.shape
    steps = step_matrices(n, H_LAGRANGIAN)
    d = len(steps)
    size = _block_size(d * k * c * n * n)
    out = None
    for start in range(0, max(count, 1), size):
        block = jets[start:start + size]
        stack = np.repeat(block, d, axis=0)
        moved = stack.reshape((len(block), d) + jets.shape[1:])
        for slot, m in np.ndindex(k, c):
            g = block[:, None, slot, m]
            for sign, turn in enumerate((steps, steps.swapaxes(-1, -2))):
                moved[:, :, slot, m] = g @ turn
                values = value(stack)
                values = values.reshape((len(block), d) + values.shape[1:])
                if out is None:
                    out = np.empty((count, k, c) + values.shape[1:])
                if sign:
                    out[start:start + len(block), slot, m] -= values
                else:
                    out[start:start + len(block), slot, m] = values
            moved[:, :, slot, m] = g
    return out


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

    Subclasses implement ``value(jets)``, which receives a (P, k, c, n, n)
    stack of jets (from :func:`jet_at` on a face set, or any stack of k
    vertex fibers) and returns the (P,) values; a density reads nothing but
    its jets, never the complex or the face ids.  The differential
    ``vertex_differential(jets)`` defaults to central finite differences
    along exponential curves with step ``H_LAGRANGIAN``, d directions of a
    block of jets per :meth:`value` call (see :func:`_fd_differences`);
    analytic overrides should reimplement it.
    """

    def value(self, jets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def vertex_differential(self, jets: np.ndarray) -> np.ndarray:
        """Differentials in every vertex slot, a (P, k, c, n, n) stack.

        They act on left-log variation entries through the pairing, see
        :func:`apply_differential`.
        """
        coeffs = _fd_differences(self.value, jets) / (2.0 * H_LAGRANGIAN)
        # coefficient against basis vector E equals <mu, E> = 2 mu_kl
        return coords_to_skew(coeffs / 2.0, jets.shape[-1])


class ConstraintMap:
    """Group-valued face-local constraint with per-vertex Cartan forms.

    Subclasses implement ``value(jets)``, which maps a (P, k, c, n, n) jet
    stack to the (P, n, n) group matrices; like a density, it reads nothing
    but its jets.  ``cartan_form(jets)`` returns, per jet and vertex slot,
    the form of that slot: the linear map from that vertex's variation
    components to the algebra, as a (d, c d) matrix over the skew basis, so
    a stack is (P, k, d, c d) (see :func:`form_apply` and
    :func:`form_transpose`).  The default differentiates the left-translated
    constraint by central finite differences with step ``H_LAGRANGIAN``,
    2 k c :meth:`value` calls per block of jets; analytic constraints
    override it.  The decomposition of the full differential into per-vertex
    forms is unique here because each form acts on a disjoint block of
    variables.
    """

    def value(self, jets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cartan_form(self, jets: np.ndarray) -> np.ndarray:
        count, k, c, n, _ = jets.shape
        base_inv = self.value(jets).swapaxes(-1, -2)[:, None, None]
        deriv = base_inv @ _fd_differences(self.value, jets).reshape(
            count, k, c * algebra_dim(n), n, n)
        deriv /= 2.0 * H_LAGRANGIAN
        # the skew part's upper entries (X_kl - X_lk) / 2, no full-size copy
        upper = skew_to_coords(deriv) - skew_to_coords(deriv.swapaxes(-1, -2))
        return (upper / 2.0).swapaxes(-1, -2)


def _sequential_sums(terms: np.ndarray) -> np.ndarray:
    """Sums along the last axis in the given order, one term at a time; 0.0
    where that axis is empty."""
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:-1])
    return np.cumsum(terms, axis=-1)[..., -1]


# ---------------------------------------------------------------------------
# action and admissibility


def action(lagrangian: LagrangianDensity, y: np.ndarray, faceset: FaceSet) -> float:
    """Sum of the face Lagrangians over the face set, in face-id order."""
    jets = jet_at(y, faceset)
    return float(_sequential_sums(lagrangian.value(jets)))


def constraint_values(constraint: ConstraintMap, y: np.ndarray,
                      faceset: FaceSet) -> np.ndarray:
    """Constraint values, (F, n, n) indexed by face id like a multiplier,
    the identity on faces outside ``faceset``; identity everywhere means
    admissible."""
    out = np.tile(np.eye(y.shape[-1]), (len(faceset.complex.faces), 1, 1))
    out[faceset.face_ids] = constraint.value(jet_at(y, faceset))
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    max_residual: float
    worst_face: int | None
    tol: float


def admissibility_report(constraint: ConstraintMap, y: np.ndarray, faceset: FaceSet,
                         tol: float = TOL_ADMISSIBLE) -> AdmissibilityReport:
    """Max Frobenius distance of the constraint values from the identity; the
    first face in id order that attains it (a NaN counts as the largest)."""
    faces = faceset.face_ids
    res = block_norms(constraint_values(constraint, y, faceset)[faces]
                      - np.eye(y.shape[-1]))
    worst_res = max_norm(res)
    worst = None if worst_res == 0.0 else int(faces[np.argmax(res)])
    return AdmissibilityReport(worst_res <= tol, worst_res, worst, tol)


def constraint_derivative(constraint: ConstraintMap, y: np.ndarray, dy: np.ndarray,
                          faceset: FaceSet) -> np.ndarray:
    """Left-translated constraint differential as the form sum, (F, n, n)
    indexed by face id like a multiplier, zero on faces outside
    ``faceset``.

    Vanishes exactly on admissible variations; for variations generated by
    gauge fields along admissible sections this is the tangency statement the
    reduction module tests.
    """
    n = y.shape[-1]
    forms = constraint.cartan_form(jet_at(y, faceset))
    out = np.zeros((len(faceset.complex.faces), n, n))
    out[faceset.face_ids] = form_apply(forms, dy[faceset.adherence]).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# regularity


@dataclass(frozen=True)
class RegularityReport:
    """Numerical rank data for the assembled constraint differential.

    ``sigma_min`` is the smallest singular value after dropping face blocks
    that no variable vertex touches (those rows are structurally zero on a
    finite window and are listed in ``unreachable_faces``).  The map can
    only be onto when no face is unreachable and ``rows <= cols``; ``verify
    regularity`` then gates ``sigma_min`` against ``RANK_TOL``.
    """

    rows: int
    cols: int
    sigma_min: float
    unreachable_faces: tuple[int, ...]


def regularity_report(constraint: ConstraintMap, y: np.ndarray, faceset: FaceSet,
                      boundary_fixed: bool = True) -> RegularityReport:
    """Assemble the constraint differential as a matrix and measure its rank.

    Rows are per-face algebra coordinates; columns are the variation
    coordinates of the variable vertices (interior ones when the boundary is
    fixed, every adherent vertex otherwise).
    """
    d = algebra_dim(y.shape[-1])
    klass = classify_vertices(faceset)
    variable = klass.interior if boundary_fixed \
        else np.sort(np.concatenate([klass.interior, klass.frontier]))
    faces = faceset.face_ids
    forms = constraint.cartan_form(jet_at(y, faceset))
    column = np.full(len(y), -1)
    column[variable] = np.arange(len(variable))
    column = column[faceset.adherence]
    reachable = (column >= 0).any(axis=1)
    unreachable = tuple(faces[~reachable].tolist())
    kept = np.flatnonzero(reachable)
    # blocks[i, :, variable vertex, :] holds the (d, c d) form of that vertex
    # and reachable face i; an unreachable face's rows would be zero
    blocks = np.zeros((len(kept), d, len(variable), forms.shape[-1]))
    fi, slot = np.nonzero(column[kept] >= 0)
    blocks[fi, :, column[kept[fi], slot]] = forms[kept[fi], slot]
    rows, cols = len(faces) * d, len(variable) * forms.shape[-1]
    # the row count is explicit: reshape(-1, 0) fails on an empty face set
    matrix = blocks.reshape(len(kept) * d, cols)
    sigma = float(np.linalg.svd(matrix, compute_uv=False)[-1]) if matrix.size else 0.0
    return RegularityReport(rows, cols, sigma, unreachable)


# ---------------------------------------------------------------------------
# Euler-Lagrange machinery


def _vertex_major(faceset: FaceSet, chosen) -> np.ndarray:
    """Flat [face, slot] indices into ``faceset.adherence`` of the pairs of
    the ``chosen`` vertices: their segments of the face set's stars, vertex
    after vertex in id order, each vertex's faces in id order."""
    pairs, ptr = faceset.stars
    mask = np.zeros(len(ptr) - 1, bool)
    mask[chosen] = True
    return pairs[np.repeat(mask, np.diff(ptr))]


def _face_forms(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                ys: np.ndarray, lams: np.ndarray, faceset: FaceSet):
    """The per-point part of the calculus on a face set for B (section,
    multiplier) points, ys (B, V, c, n, n) and lams (B, F, n, n): indexed
    [point, face, slot], the Lagrangian differential theta
    (B, F', k, c, n, n) and Cartan form A (B, F', k, d, c d) of every pair,
    from one density and one constraint call on all B F' jets, and
    the multipliers (B, F', 1, n, n)."""
    jets = jet_at(ys, faceset)
    flat = jets.reshape((-1,) + jets.shape[2:])
    theta = lagrangian.vertex_differential(flat)
    forms = constraint.cartan_form(flat)
    return (theta.reshape(jets.shape), forms.reshape(jets.shape[:3] + forms.shape[2:]),
            _face_values(lams, faceset)[:, :, None])


def _residual_sums(point, faceset: FaceSet, chosen: np.ndarray) -> np.ndarray:
    """Per point of a :func:`_face_forms` stack, the extended Cartan forms
    theta + A^T lam summed per sorted ``chosen`` vertex, each over its faces
    in id order: (B, len(chosen), c, n, n)."""
    theta, forms, lam = point
    covectors = theta + form_transpose(forms, lam)
    covectors = covectors.reshape(len(theta), -1, *theta.shape[3:])
    segment_ids = np.repeat(np.arange(len(chosen)), np.diff(faceset.stars[1])[chosen])
    out = np.zeros((len(covectors), len(chosen)) + covectors.shape[2:])
    np.add.at(out, (slice(None), segment_ids),
              covectors[:, _vertex_major(faceset, chosen)])
    return out


def extended_residual(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                      y: np.ndarray, lam: np.ndarray, faceset: FaceSet) -> np.ndarray:
    """Euler-Lagrange form plus the multiplier-paired constraint forms at
    every interior vertex: the (I, c, n, n) coalgebra components at the
    sorted interior vertices, each the sum over its star in face-id order.

    Zero exactly when (y, lam) solves the extended critical-section
    equations; with a zero multiplier it is the Euler-Lagrange form.  The
    value on basis vector E_kl is <mu, E_kl> = 2 mu_kl.
    """
    point = _face_forms(lagrangian, constraint, y[None], lam[None], faceset)
    return _residual_sums(point, faceset, classify_vertices(faceset).interior)[0]


# ---------------------------------------------------------------------------
# variation formula, Noether sum, Jacobi and multisymplectic checks


def _probe_terms(point, dys: np.ndarray, vertices: np.ndarray):
    """The per-probe part: a :func:`_face_forms` stack of B points applied to
    variations dys (B or 1, V, c, n, n).  Returns, indexed [point, face,
    slot], the terms <theta, xi> (B, F', k), A xi (B, F', k, n, n) and the
    pair terms <theta, xi> + <lam, A xi> (B, F', k) every sum below adds."""
    theta, forms, lam = point
    xi = dys[:, vertices]
    dl = apply_differential(theta, xi)
    dphi = form_apply(forms, xi)
    return dl, dphi, dl + block_dot(lam, dphi)


def _vertex_major_sums(faceset: FaceSet, terms: np.ndarray, *groups) -> np.ndarray:
    """Per instance, the pair terms (B, F', k) of the vertex groups, one
    group after another, each vertex-major (see :func:`_vertex_major`),
    summed in that order: (B,)."""
    order = np.concatenate([_vertex_major(faceset, g) for g in groups])
    return _sequential_sums(terms.reshape(len(terms), -1)[:, order])


def variational_split(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                      ys: np.ndarray, lams: np.ndarray, dys: np.ndarray,
                      faceset: FaceSet) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the variation formula for a stack of B instances.

    ``ys`` holds B section value arrays (B, V, c, n, n), ``lams`` B
    multiplier value arrays (B, F, n, n) and ``dys`` B variation value arrays
    (B, V, c, n, n).  Left: the face-by-face sum of the Lagrangian
    differential plus the multiplier-paired constraint differential, each in
    per-vertex form sum.  Right: the same terms regrouped per vertex,
    interior Euler-Lagrange part plus frontier boundary part.  Both sides add
    up one array of pair terms per instance, face-major on the left and
    interior-then-frontier vertex-major on the right.  The identity is a
    finite resummation, so the two must agree to round-off for arbitrary
    inputs.  Returns the (B,) left and right sides; instance b gets the
    values it gets on its own, as a stack of one, bit for bit.
    """
    klass = classify_vertices(faceset)
    terms = _probe_terms(_face_forms(lagrangian, constraint, ys, lams, faceset), dys,
                         faceset.adherence)[2]
    return (_sequential_sums(terms.reshape(len(terms), -1)),
            _vertex_major_sums(faceset, terms, klass.interior, klass.frontier))


@dataclass(frozen=True)
class NoetherReport:
    """Boundary sum of the extended Cartan forms on a symmetry field.

    ``symmetry_ok`` records whether the field actually left the Lagrangian
    and the constraint invariant along the section, within ``SYMMETRY_TOL``;
    the sum is returned either way and is only predicted to vanish when the
    check passes and (y, lam) is critical.
    """

    boundary_sum: float
    lagrangian_defect: float
    constraint_defect: float
    symmetry_ok: bool


def noether_boundary_sum(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                         y: np.ndarray, lam: np.ndarray, d: np.ndarray,
                         faceset: FaceSet) -> NoetherReport:
    """Evaluate the conservation boundary sum for a candidate symmetry field.

    The invariance conditions are checked along the section only; this is
    what the vanishing statement actually uses, and it is weaker than
    invariance on the whole jet space.  A failed check flags the report
    instead of raising.
    """
    frontier = classify_vertices(faceset).frontier
    dl, dphi, terms = _probe_terms(
        _face_forms(lagrangian, constraint, y[None], lam[None], faceset), d[None],
        faceset.adherence)
    lag_defect = max_norm(np.abs(dl[0].sum(axis=1)))
    con_defect = max_norm(block_norms(dphi[0].sum(axis=1)))
    total = float(_vertex_major_sums(faceset, terms, frontier)[0])
    ok = lag_defect <= SYMMETRY_TOL and con_defect <= SYMMETRY_TOL
    return NoetherReport(total, lag_defect, con_defect, ok)


def section_exp(y: np.ndarray, dy: np.ndarray, t: float) -> np.ndarray:
    """Flow the section along a variation: every component g -> g exp(t xi)."""
    return read_only(y @ exp_skew(t * dy))


def _flows(y: np.ndarray, lam: np.ndarray, fields):
    """The section values (P, V, c, n, n) and multiplier values (P, F, n, n)
    at (y exp(t d), lam + t dlam), the former as :func:`section_exp` gives it,
    for each field (d, dlam) and t = ``H_JACOBI``, -``H_JACOBI`` in turn,
    then at (y, lam) itself."""
    flows = [(t * d, lam + t * dlam)
             for d, dlam in fields for t in (H_JACOBI, -H_JACOBI)]
    ys = y @ exp_skew(np.array([xi for xi, _ in flows]))
    return np.concatenate([ys, y[None]]), np.array([m for _, m in flows] + [lam])


def _jacobi_norms(point, faceset: FaceSet, interior: np.ndarray) -> list[float]:
    """Central-difference norms of the extended residual over the interior,
    one per consecutive pair of points (flowed by +``H_JACOBI``, then by
    -``H_JACOBI``)."""
    coords = 2.0 * skew_to_coords(_residual_sums(point, faceset, interior))
    coords = coords.reshape(len(coords), -1)
    return [float(np.linalg.norm((plus - minus) / (2.0 * H_JACOBI)))
            for plus, minus in zip(coords[0::2], coords[1::2])]


def jacobi_residual(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                    y: np.ndarray, lam: np.ndarray, dy: np.ndarray, dlam: np.ndarray,
                    faceset: FaceSet) -> float:
    """Directional derivative norm of the extended residual along (dy, dlam).

    Central finite differences with step ``H_JACOBI``; a Jacobi field along
    a critical pair annihilates the linearized residual, so the value is of
    the order of the finite-difference error for true Jacobi fields.
    """
    ys, lams = _flows(y, lam, ((dy, dlam),))
    point = _face_forms(lagrangian, constraint, ys[:2], lams[:2], faceset)
    return _jacobi_norms(point, faceset, classify_vertices(faceset).interior)[0]


def multisymplectic_defect(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                           y: np.ndarray, lam: np.ndarray,
                           d1: np.ndarray, dlam1: np.ndarray,
                           d2: np.ndarray, dlam2: np.ndarray,
                           faceset: FaceSet) -> float:
    """Exterior derivative of the boundary Cartan form on two fields.

    Uses d omega(X, Y) = X(omega(Y)) - Y(omega(X)) - omega([X, Y]) with the
    fields extended left-invariantly (constant left-log coordinates, constant
    multiplier part), the flows realized by exponential curves, and the
    bracket therefore the pointwise commutator.  Vanishes on two Jacobi
    fields along a critical pair, up to finite-difference error.
    """
    return multisymplectic_check(lagrangian, constraint, y, lam, d1, dlam1, d2,
                                 dlam2, faceset)[2]


def multisymplectic_check(lagrangian: LagrangianDensity, constraint: ConstraintMap,
                          y: np.ndarray, lam: np.ndarray,
                          d1: np.ndarray, dlam1: np.ndarray,
                          d2: np.ndarray, dlam2: np.ndarray,
                          faceset: FaceSet) -> tuple[float, float, float]:
    """:func:`jacobi_residual` along (d1, dlam1) and along (d2, dlam2), then
    :func:`multisymplectic_defect` on (d1, d2), from one evaluation of the
    forms at each of the five points (y exp(+-h d_i), lam +- h dlam_i),
    h = ``H_JACOBI``, and (y, lam)."""
    klass = classify_vertices(faceset)
    ys, lams = _flows(y, lam, ((d1, dlam1), (d2, dlam2)))
    point = _face_forms(lagrangian, constraint, ys, lams, faceset)
    jacobi = _jacobi_norms(tuple(a[:4] for a in point), faceset, klass.interior)
    # omega, the frontier sum of the pair terms, at the flows of d1 probed by
    # d2, at the flows of d2 probed by d1, and at (y, lam) probed by the
    # bracket of the left-invariant extensions, the commutator
    omega = np.concatenate([
        _vertex_major_sums(faceset, _probe_terms(tuple(a[at] for a in point), dy[None],
                                                 faceset.adherence)[2], klass.frontier)
        for dy, at in ((d2, slice(0, 2)), (d1, slice(2, 4)),
                       (skew_part(d1 @ d2 - d2 @ d1), slice(4, 5)))])
    # d omega(X, Y) = X(omega(Y)) - Y(omega(X)) - omega([X, Y]) from omega at
    # the flows of X probed by Y, at those of Y probed by X, and at the base
    # point probed by the bracket
    h = H_JACOBI
    return (*jacobi, float((omega[0] - omega[1]) / (2.0 * h)
                           - (omega[2] - omega[3]) / (2.0 * h) - omega[4]))
