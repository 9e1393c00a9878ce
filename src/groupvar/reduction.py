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

A vertex field is one (V, n, n) array, a reduced section or variation one
(V, 2, n, n) array and a multiplier one (F, n, n) array, indexed by vertex
or face id, so each window equation has one definition, as slices over the
view of that array indexed [j, i]: (H+1, W+1, 2, n, n) for a reduced
section.  The fields, sections, variations and multipliers returned here
are fresh read-only arrays.  Window functions return stacks indexed [j, i]
per face and [j-1, i-1] per interior vertex.  The multiplier sweep is a
column recurrence from the east, and reconstruction propagates one row
(column) at a time over the whole window; both are deterministic.  Nothing
here checks group membership: the arrays come from a solver
boundary, the file loaders (both checked) or products of such data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import TriangulatedGrid
from .core import ConstraintMap, LagrangianDensity, extended_residual
from .defaults import CONS_TOL, EP_TOL, TOL_ADMISSIBLE
from .errors import (
    HolonomyError,
    PreconditionError,
    RecoveryConflictError,
)
from .liegroup import (
    adjoint,
    adjoint_matrix,
    block_norms,
    coadjoint,
    max_norm,
    read_only,
)

__all__ = [
    "PlaquetteConstraint",
    "reduce_field",
    "plaquette_holonomy",
    "euler_poincare_residual",
    "reconstruction_report",
    "ReconstructionReport",
    "reduced_variation",
    "multiplier_system_residual",
    "multiplier_sweep",
    "recover_multipliers",
    "RecoveryReport",
    "multiplier_elimination_check",
    "EliminationDefects",
]


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


def _partials(lagrangian: LagrangianDensity,
              p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left-log partials of every face Lagrangian at its base corner, and their
    right translates g mu g^T; both (H, W, 2, n, n) indexed [j, i].

    Assumes the density reads only the base-corner fiber, which is the shape
    of every reduced Lagrangian on this window, so its jets carry that slot
    alone and a finite-difference differential moves no other.
    """
    base = p[:-1, :-1]
    mu = lagrangian.vertex_differential(
        base.reshape(-1, 1, *base.shape[2:]))[:, 0].reshape(base.shape)
    return mu, adjoint(base, mu)


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


class PlaquetteConstraint(ConstraintMap):
    """Holonomy of the plaquette attached to a face, valued in SO(n).

    The jet slots follow the grid adherence order: base corner, right
    neighbor, upper neighbor.  The per-vertex Cartan forms below are the
    exact left-log blocks of the holonomy differential at any jet, i.e. the
    decomposition holds off the flat set too; restricted to flat jets they
    reduce to right-translation and adjoint formulas of the base factors.
    """

    def value(self, jets: np.ndarray) -> np.ndarray:
        return _holonomy(jets[:, 0, 0], jets[:, 0, 1], jets[:, 1, 1], jets[:, 2, 0])

    def cartan_form(self, jets: np.ndarray) -> np.ndarray:
        # the u and v blocks are signed conjugations xi -> s P xi P^T
        v = jets[:, 0, 1]
        vu = v @ jets[:, 2, 0]
        conj = adjoint_matrix(vu)
        d = conj.shape[-1]
        out = np.zeros((len(jets), 3, d, 2 * d))
        out[:, 0, :, :d] = adjoint_matrix(vu @ _t(jets[:, 1, 1]))
        out[:, 0, :, d:] = -adjoint_matrix(v)
        out[:, 1, :, d:] = conj
        out[:, 2, :, :d] = -conj
        return out


# ---------------------------------------------------------------------------
# reduction and reconstruction


def reduce_field(grid: TriangulatedGrid, g: np.ndarray) -> np.ndarray:
    """Forward-difference pair field of g; flat by construction.

    Defined on every window vertex that is adherent to some face.  Slots that
    would need data outside the window (u on the right column, v on the top
    row) are set to the identity and never enter any face formula.
    """
    x = _on_window(grid, g)
    n = x.shape[-1]
    p = np.empty(x.shape[:2] + (2, n, n))
    p[:, -1, 0] = p[-1, :, 1] = np.eye(n)
    np.matmul(_t(x[:, :-1]), x[:, 1:], out=p[:, :-1, 0])
    np.matmul(_t(x[:-1]), x[1:], out=p[:-1, :, 1])
    return read_only(p.reshape(-1, 2, n, n))


def plaquette_holonomy(grid: TriangulatedGrid, y: np.ndarray) -> np.ndarray:
    """Holonomies u_ij v_{i+1,j} u_{i,j+1}^{-1} v_ij^{-1} of all faces, (H, W, n, n)."""
    return _window_holonomy(_on_window(grid, y))


def euler_poincare_residual(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                            y: np.ndarray) -> np.ndarray:
    """Four-term reduced critical-point residual at every interior vertex.

    Right-translated differentials at (i, j) minus left-translated ones at
    the west and south neighbors, assembled in the trace-pairing
    representation; zero exactly where the reduced equations hold.  Shape
    (H-1, W-1, n, n), indexed [j-1, i-1].
    """
    return _reduced_residual(*_partials(lagrangian, _on_window(grid, y)))


@dataclass(frozen=True)
class ReconstructionReport:
    field: np.ndarray
    max_plaquette_defect: float
    path_agreement: float


def reconstruction_report(grid: TriangulatedGrid, y: np.ndarray, seed: np.ndarray,
                          tol: float = TOL_ADMISSIBLE) -> ReconstructionReport:
    """Rebuild the vertex field from (u, v) and a seed, an (n, n) group
    matrix, at the origin corner.

    Every plaquette holonomy is re-verified first; the field is then
    propagated along the bottom row and up one whole row at a time, and
    checked against an independent propagation up the left column and east
    one whole column at a time.  Seeds differ by a constant left factor in
    the result; the rebuilt (V, n, n) field is ``field``.
    """
    p = _on_window(grid, y)
    n = y.shape[-1]
    defects = block_norms(_window_holonomy(p) - np.eye(n)).ravel()
    worst = max_norm(defects)
    if not worst <= tol:
        # the first face in id order with the largest defect, or the first NaN
        face = int(np.argmax(defects))
        raise HolonomyError(face, worst, grid.face_ij(face))

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
    return ReconstructionReport(read_only(rows.reshape(-1, n, n)), worst, agreement)


def reduced_variation(grid: TriangulatedGrid, y: np.ndarray,
                      theta: np.ndarray) -> np.ndarray:
    """Push a vertex gauge field through reduction at the section ``y`` of a
    field g, in left-log coordinates.

    ``theta`` is a (V, n, n) skew array indexed by vertex id.  The u entry at
    (i, j) is theta(i+1, j) - Ad_{u^{-1}} theta(i, j) and the v entry is
    theta(i, j+1) - Ad_{v^{-1}} theta(i, j); these are exactly the
    variations of the forward differences under g -> g exp(t theta), so they
    are tangent to the flat set along any flat section.  The edge slots and
    the far corner stay zero.
    """
    p = _on_window(grid, y)
    t = _on_window(grid, theta)
    xi = np.zeros(p.shape)
    # Ad_{g^{-1}} is the coadjoint formula g^T xi g
    xi[:, :-1, 0] = t[:, 1:] - coadjoint(p[:, :-1, 0], t[:, :-1])
    xi[:-1, :, 1] = t[1:] - coadjoint(p[:-1, :, 1], t[:-1])
    return read_only(xi.reshape(-1, *xi.shape[2:]))


# ---------------------------------------------------------------------------
# multiplier system


def multiplier_system_residual(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                               y: np.ndarray, lam: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Left-hand sides of the two multiplier equations at every interior vertex.

    Both vanish exactly where (y, lam) solves the extended critical-pair
    system.  Each has shape (H-1, W-1, n, n), indexed [j-1, i-1].
    """
    p = _on_window(grid, y)
    first, second = _system(p, _partials(lagrangian, p)[1], _on_window(grid, lam))
    return first[:, 1:], second[1:]


def _first_over(x: np.ndarray, tol: float) -> tuple[int, int] | None:
    """(i, j) of the first entry of x, indexed [j-1, i-1], above ``tol`` or
    NaN in sweep order (decreasing lexicographic (i, j)), or None."""
    bad = np.flatnonzero(~(x.T[::-1, ::-1] <= tol))  # row-major is the sweep order
    if bad.size:
        a, b = divmod(int(bad[0]), x.shape[0])
        return x.shape[1] - a, x.shape[0] - b
    return None


def multiplier_sweep(grid: TriangulatedGrid, y: np.ndarray, first: np.ndarray,
                     second: np.ndarray, seed: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The multiplier lam, ``seed`` at the max-corner face, that solves
    first + lam - Ad*_{v_s} lam_s = 0 and second - lam + Ad*_{u_w} lam_w = 0
    along y, for (H-1, W-1, n, n) stacks indexed [j-1, i-1]; linear in
    (first, second, seed).  The east interior column i = W-1 is filled top
    to bottom from the seed by the first equation (south faces); each
    column i then fills column i-1 above row 0 by the second (west faces)
    in one batched step.  The south values of the columns 1 <= i < W-1 are
    stored in row 0 and compared above it, never averaged.  Returns lam,
    read-only (F, n, n) and zero at the origin-corner face, which no
    interior equation touches, and the (H-2, W-2) path discrepancies."""
    p = _on_window(grid, y)
    u, v = p[..., 0, :, :], p[..., 1, :, :]
    height, width, n = grid.height, grid.width, y.shape[-1]
    lam = np.zeros((height, width, n, n))
    lam[-1, -1] = seed
    for j in range(height - 1, 0, -1):
        lam[j - 1, -1] = adjoint(v[j - 1, -2], first[j - 1, -1] + lam[j, -1])
    disc = np.zeros((height - 2, width - 2))
    for i in range(width - 1, 0, -1):
        if i < width - 1:
            south = adjoint(v[:-2, i], first[:, i - 1] + lam[1:, i])
            disc[:, i - 1] = block_norms(lam[1:-1, i] - south[1:])
            lam[0, i] = south[0]
        lam[1:, i - 1] = adjoint(u[1:-1, i - 1], lam[1:, i] - second[:, i - 1])
    return read_only(lam.reshape(-1, n, n)), disc


@dataclass(frozen=True)
class RecoveryReport:
    """``max_sweep_discrepancy`` is the largest one of the sweep's two paths;
    ``max_system_residual`` the largest block norm of the paper's equation,
    :func:`core.extended_residual` of y and lam on the full face set, which
    shares no evaluation with the sweep.  The fields are the keys of
    ``recovery_report.txt``, in this order."""

    max_sweep_discrepancy: float
    max_system_residual: float


def recover_multipliers(lagrangian: LagrangianDensity, grid: TriangulatedGrid,
                        y: np.ndarray, seed: np.ndarray,
                        ep_tol: float = EP_TOL, cons_tol: float = CONS_TOL,
                        adm_tol: float = TOL_ADMISSIBLE
                        ) -> tuple[np.ndarray, RecoveryReport]:
    """Solve the multiplier system along y by :func:`multiplier_sweep` from
    ``seed``, a skew (n, n) array; different seeds give different valid
    multipliers.  Preconditions (checked): y is flat and its reduced
    residual is below ``ep_tol`` at every interior vertex; the first
    offending vertex in sweep order (decreasing lexicographic (i, j)) is
    reported.  A seed that overflows the sweep raises ValueError; otherwise
    the first face the sweep compares (east column first, then top row
    first) whose path discrepancy exceeds ``cons_tol`` max(1, |lam|), |lam|
    the largest block norm of lam, is reported: the round-off grows with lam,
    and existence is only local in general, so consistency is in the contract."""
    if grid.width < 2 or grid.height < 2:
        raise PreconditionError("window has no interior vertices")
    p = _on_window(grid, y)
    mu, right = _partials(lagrangian, p)
    ep = block_norms(_reduced_residual(mu, right))
    if bad := _first_over(ep, ep_tol):
        i, j = bad
        raise PreconditionError(f"reduced residual {ep[j - 1, i - 1]:.3e} "
                                f"> {ep_tol:.1e} at ({i}, {j})")
    worst_hol = max_norm(block_norms(_window_holonomy(p) - np.eye(y.shape[-1])))
    if not worst_hol <= adm_tol:
        raise PreconditionError(
            f"section is not flat, worst holonomy defect {worst_hol:.3e}")

    with np.errstate(over="ignore", invalid="ignore"):
        lam, disc = multiplier_sweep(grid, y, right[1:, 1:, 0], right[1:, 1:, 1], seed)
        scale = max_norm(block_norms(lam))
    if not scale < np.inf:
        raise ValueError(f"seed entries up to {np.abs(seed).max():.3e} overflow "
                         "the multiplier sweep")
    if bad := _first_over(disc, cons_tol * max(1.0, scale)):
        i, j = bad
        raise RecoveryConflictError(grid.face_id(i, j), float(disc[j - 1, i - 1]))
    residual = extended_residual(lagrangian, PlaquetteConstraint(), y, lam,
                                 grid.full_faceset())
    return lam, RecoveryReport(max_norm(disc), max_norm(block_norms(residual)))


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
                                 grid: TriangulatedGrid, y: np.ndarray,
                                 lam: np.ndarray) -> EliminationDefects:
    p = _on_window(grid, y)
    _, right = _partials(lagrangian, p)
    m = _on_window(grid, lam)
    first, second = _system(p, right, m)
    u_w, v_s = p[1:-1, :-2, 0], p[:-2, 1:-1, 1]
    combo = first[:, 1:] - coadjoint(u_w, first[:, :-1]) \
        + second[1:] - coadjoint(v_s, second[:-1])
    one_way = coadjoint(v_s, coadjoint(p[:-2, :-2, 0], m[:-1, :-1]))
    other_way = coadjoint(u_w, coadjoint(p[:-2, :-2, 1], m[:-1, :-1]))
    return EliminationDefects(block_norms(combo), block_norms(one_way - other_way))
