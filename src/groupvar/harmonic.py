"""Discrete harmonic maps of the plane window into SO(n).

The density is the trace of both forward differences.  Near the identity
tr(u) = n - ||u - I||_F^2 / 2, so stationary sections of the trace action
with boundary data close to the identity are exactly the minimizers of the
discrete Dirichlet energy, and that energy is what the solver minimizes: the
critical points coincide, the sought interpolant is a constrained maximizer
of the trace action, and a trust-region Newton method, which lets the energy
rise by no more than round-off, keeps the iteration near the branch selected
by the boundary blend initializer.  "Critical" throughout means stationary;
reports claim no minimality of anything.

The gradient and Hessian read each accepted field's one ``reduce_field``.
The multisymplectic scenario takes a solved field, its section and
multiplier and measures them: it neither solves, recovers nor judges.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import liegroup as lg
from .complexes import TriangulatedGrid, classify_vertices
# harmonic calls no noether_boundary_sum: perfbench's span test reads this
# binding to check that a span wraps every module's binding of its target
from .core import (  # noqa: F401
    LagrangianDensity,
    multisymplectic_check,
    noether_boundary_sum,
)
from .defaults import G_TOL, H_JACOBI
from .errors import ConvergenceError, MembershipError, PreconditionError
from .liegroup import (
    block_dot,
    block_norms,
    coadjoint,
    group_array,
    max_norm,
    random_skew,
    read_only,
)
from .reduction import (
    PlaquetteConstraint,
    euler_poincare_residual,
    multiplier_sweep,
    multiplier_system_residual,
    plaquette_holonomy,
    reduce_field,
    reduced_variation,
)

__all__ = [
    "TraceLagrangian",
    "SolveReport",
    "solve_unreduced",
    "dirichlet_energy",
    "identity_boundary",
    "random_boundary",
    "conjugation_symmetry_field",
    "run_multisymplectic_scenario",
]


class TraceLagrangian(LagrangianDensity):
    """Density tr(u) + tr(v) on the base corner of each face.

    Values lie in [-2n, 2n] since |tr| <= n on SO(n).  The differential is
    analytic: in the trace pairing the left-log partial in each slot is the
    skew part of the transposed argument, (g^T - g) / 2.
    """

    def value(self, jets: np.ndarray) -> np.ndarray:
        return np.trace(jets[:, 0, 0], axis1=-2, axis2=-1) \
            + np.trace(jets[:, 0, 1], axis1=-2, axis2=-1)

    def vertex_differential(self, jets: np.ndarray) -> np.ndarray:
        out = np.zeros(jets.shape)
        uv = jets[:, 0]
        out[:, 0] = (uv.swapaxes(-1, -2) - uv) / 2.0
        return out


# ---------------------------------------------------------------------------
# solver
#
# The iterate is one (H+1, W+1, n, n) array g indexed [j, i]: flattening the
# first two axes gives vertex ids, and g[1:-1, 1:-1] is the interior.  Scalar
# reductions run in vertex-id order, one term at a time.


@dataclass
class SolveReport:
    """Post-hoc diagnostics of a converged solve (a solve that does not
    converge raises ``ConvergenceError``).

    ``section`` is the read-only (V, 2, n, n) reduced section of the
    returned field, which the last gradient read; the residual fields are
    recomputed from it with the public residual operations.  ``history`` has
    one record for the start and one per accepted step: iteration, objective
    (the Dirichlet energy), trace action (2n per face minus the energy;
    ``final_action`` is the last row's), max per-vertex gradient norm and
    the step's coordinate norm.  The counters are deterministic: trust-region steps
    (``iterations``), the rejected ones among them (``backtracks``),
    evaluations of the interior gradient (``residual_evaluations``: one at
    the start and one per accepted step) and Hessian-vector products
    (``hessian_products``).  The fields but ``section`` and ``history`` are
    the keys of ``solve_report.txt``, in this order.
    """

    iterations: int
    backtracks: int
    residual_evaluations: int
    hessian_products: int
    final_action: float
    final_energy: float
    max_gradient: float
    max_ep_residual: float
    max_constraint_residual: float
    section: np.ndarray
    history: list[dict] = field(default_factory=list)


def dirichlet_energy(g: np.ndarray) -> float:
    """Sum over faces of 2n - tr(u) - tr(v); nonnegative, zero iff constant.

    ``g`` is a vertex field as an (H+1, W+1, n, n) array indexed [j, i],
    summed one face at a time in face-id order.
    """
    n = g.shape[-1]
    base = g[:-1, :-1]
    terms = 2.0 * n - block_dot(base, g[:-1, 1:]) - block_dot(base, g[1:, :-1])
    return float(np.cumsum(terms.ravel())[-1])


def _record(iteration: int, phase: str, g: np.ndarray, energy: float,
            worst: float, step: float) -> dict:
    """One history row; the action is 2n per face minus the energy."""
    faces = (g.shape[0] - 1) * (g.shape[1] - 1)
    return {"iteration": iteration, "phase": phase, "objective": energy,
            "action": 2.0 * g.shape[-1] * faces - energy,
            "max_gradient": worst, "step": step}


def _interior_gradients(p: np.ndarray):
    """Energy gradient blocks of the interior vertices and their norms, read
    from the window's reduced section p, shaped (H+1, W+1, 2, n, n).

    Blocks are in left-log coordinates, one per interior vertex, shaped like
    p[1:-1, 1:-1, 0].  The block at (i, j) is the skew part transposed,
    (M^T - M) / 2 with M = u_ij + v_ij - u_{i-1,j} - v_{i,j-1}, which is also
    the reduced residual of the trace equations there; its negation is the
    action gradient.
    """
    u, v = p[..., 0, :, :], p[..., 1, :, :]
    m = u[1:-1, 1:-1] + v[1:-1, 1:-1] - u[1:-1, :-2] - v[:-2, 1:-1]
    grads = (m.swapaxes(-1, -2) - m) / 2.0
    return grads, block_norms(grads)


def _retract(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Exponential retraction g_ij exp(xi_ij) of every interior vertex."""
    out = g.copy()
    out[1:-1, 1:-1] = g[1:-1, 1:-1] @ lg.exp_skew(xi)
    return out


def _residual(grid: TriangulatedGrid, g: np.ndarray):
    """Upper-triangle gradient entries, shaped (interior rows, interior columns,
    d), the largest block norm and the (V, 2, n, n) ``reduce_field`` of g they read.
    Along g exp(t X) the energy changes at the rate 2 f . x, x the coordinates of X."""
    y = reduce_field(grid, g.reshape(-1, *g.shape[2:]))
    grads, norms = _interior_gradients(y.reshape(g.shape[:2] + y.shape[1:]))
    return lg.skew_to_coords(grads), max_norm(norms), y


# Interiors with at most this many unknowns (vertices times d) hold the
# trust-region model as dense matrices, one matrix product per Hessian or
# preconditioner application; larger ones apply the block columns.  The bound
# is no longer their crossover, but rough 6x6 windows still solve faster dense,
# and moving it would move the bytes of the windows it moves (README, "Solver").
_DENSE_UNKNOWNS = 256
_EPS = np.finfo(float).eps


@functools.cache
def _trace_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only, C-contiguous (n^2, d^2) factors: P flattened times column
    (a, b) is -tr(E_a P E_b) / 4, tr(E_a P E_b) / 2 or tr(E_b P E_a) / 2
    over the skew basis E.  Each column holds at most two nonzero entries,
    +-1 scaled, so each product is exact to one rounding in any order."""
    basis = lg.skew_basis(n)
    table = (basis[:, None] @ basis).reshape(len(basis), len(basis), n * n)
    return tuple(read_only(np.ascontiguousarray((factor * t).reshape(-1, n * n).T))
                 for factor, t in ((-0.25, table), (0.5, table),
                                   (0.5, table.swapaxes(0, 1))))


def _stencil(rows: int, cols: int) -> np.ndarray:
    """(rows cols, 5) vertex-major index of each interior vertex and of its
    east, west, north and south neighbours; a neighbour on the frontier is
    rows cols, the index of one coordinate appended as zero."""
    ids = np.full((rows + 2, cols + 2), rows * cols)
    ids[1:-1, 1:-1] = np.arange(rows * cols).reshape(rows, cols)
    return np.stack((ids[1:-1, 1:-1], ids[1:-1, 2:], ids[1:-1, :-2],
                     ids[2:, 1:-1], ids[:-2, 1:-1]), axis=-1).reshape(-1, 5)


def _hessian(p: np.ndarray) -> np.ndarray:
    """H, half the Hessian of the energy pulled back by the retraction, in
    the coordinates of ``_residual`` (along g exp(X) the energy is
    E + 2 (f . x + x . H x / 2) + O(|x|^3)), as one (5d, d) block column
    per interior vertex, vertex-major: the transposed blocks of its row of H
    at its ``_stencil`` members, zero where they face the frontier.  It reads
    the section p as ``_interior_gradients`` does.

    With A_E = u_ij, A_N = v_ij, S = A_E + A_N + u_{i-1,j} + v_{i,j-1} and
    the skew basis E: centre[a, b] = -tr(E_a E_b (S + S^T)) / 4, which for
    the symmetric S + S^T is -tr(E_a (S + S^T) E_b) / 4 and exactly
    symmetric in (a, b); east[a, b] = tr(E_a A_E E_b) / 2 and north[a, b] =
    tr(E_a A_N E_b) / 2; west and south are the transposed east and north
    blocks of the neighbours.  So a column holds centre, east^T, east_W,
    north^T and north_S, each one product with ``_trace_tables`` in place.
    """
    u, v = p[..., 0, :, :], p[..., 1, :, :]
    east, north = u[1:-1, 1:-1], v[1:-1, 1:-1]
    s = east + north + u[1:-1, :-2] + v[:-2, 1:-1]
    (rows, cols, n), d = east.shape[:3], lg.algebra_dim(p.shape[-1])
    centre, plain, swapped = _trace_tables(n)
    out = np.empty((rows, cols, 5, d * d))
    np.matmul((s + s.swapaxes(-1, -2)).reshape(rows, cols, n * n), centre,
              out=out[:, :, 0])
    east = east[:, :-1].reshape(rows, cols - 1, n * n)
    north = north[:-1].reshape(rows - 1, cols, n * n)
    np.matmul(east, swapped, out=out[:, :-1, 1])
    np.matmul(east, plain, out=out[:, 1:, 2])
    np.matmul(north, swapped, out=out[:-1, :, 3])
    np.matmul(north, plain, out=out[1:, :, 4])
    out[:, -1, 1] = out[:, 0, 2] = out[-1, :, 3] = out[0, :, 4] = 0.0
    return out.reshape(rows * cols, 5 * d, d)


def _stencil_product(stencil, columns, v: np.ndarray) -> np.ndarray:
    """H v for coordinates v shaped like ``_residual``'s and ``_hessian``'s
    columns: one gather of the zero-padded v and one batched matmul."""
    padded = np.concatenate((v.reshape(len(stencil), -1), np.zeros((1, v.shape[-1]))))
    gathered = np.take(padded, stencil, axis=0).reshape(len(stencil), 1, -1)
    return (gathered @ columns).reshape(v.shape)


def _sines(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal, symmetric sine matrix Q of size m and the eigenvalues
    2 - 2 cos(pi k / (m + 1)) of the 1-D Dirichlet second difference it
    diagonalises."""
    k = np.arange(1, m + 1)
    q = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    return q, 2.0 - 2.0 * np.cos(np.pi * k / (m + 1))


def _laplacian_solver(rows: int, cols: int):
    """Solver of L z = r for the 5-point Dirichlet Laplacian L of the
    interior, applied to each coordinate of (rows, cols, d) arrays r and z,
    each as a (rows, cols) matrix; L is H at a constant field.

    The orthonormal sine matrices Q diagonalise L in each direction, so
    z = Q_r ((Q_r r Q_c) / lambda) Q_c with lambda_ab = 4 - 2 cos(pi a /
    (rows + 1)) - 2 cos(pi b / (cols + 1)): plain matrix products.
    """
    (q_r, l_r), (q_c, l_c) = _sines(rows), _sines(cols)
    eigenvalues = l_r[:, None] + l_c

    def solve(r: np.ndarray) -> np.ndarray:
        x = r.transpose(2, 0, 1)
        return (q_r @ ((q_r @ x @ q_c) / eigenvalues) @ q_c).transpose(1, 2, 0)
    return solve


def _truncated_cg(product, precondition, f: np.ndarray, radius: float, target: float):
    """Steihaug-Toint truncated CG on the model f . p + p . H p / 2 in the
    trust region p . L p <= radius^2, with ``product(v)`` = H v and
    ``precondition(r)`` = L^-1 r on arrays shaped like f.

    Stops when the model gradient r falls to |r| <= ``target``, at the
    boundary, or along a direction of nonpositive curvature, which it
    follows to the boundary (at infinite radius it stops there).  Returns
    the step, its model value, whether it ends on the boundary, and the
    Hessian products spent, none for f = 0 (Steihaug 1983; Toint 1981;
    Absil, Baker & Gallivan 2007).  The norms |p|_L^2, p . L d and |d|_L^2
    are updated by their recurrences, with no product by L.
    """
    p = np.zeros_like(f)
    r = f
    z = precondition(r)
    d = -z
    rz = np.vdot(r, z)
    if rz == 0.0:
        return p, 0.0, False, 0
    pmp, pmd, dmd = 0.0, 0.0, rz
    model = 0.0
    for k in range(1, f.size + 1):
        hd = product(d)
        dhd = np.vdot(d, hd)
        # nonpositive curvature, or a CG step that would leave the region:
        # go to the boundary along d
        alpha = rz / dhd if dhd > 0.0 else np.inf
        if dhd <= 0.0 or pmp + (2.0 * pmd + alpha * dmd) * alpha >= radius * radius:
            if radius == np.inf:
                return p, model, True, k
            tau = (np.sqrt(pmd * pmd + dmd * (radius * radius - pmp)) - pmd) / dmd
            model += tau * np.vdot(r, d) + tau * tau * dhd / 2.0
            return p + tau * d, model, True, k
        model += alpha * np.vdot(r, d) + alpha * alpha * dhd / 2.0
        p, r = p + alpha * d, r + alpha * hd
        pmp += (2.0 * pmd + alpha * dmd) * alpha
        if np.sqrt(np.vdot(r, r)) <= target:
            break
        z = precondition(r)
        rz, rz_old = np.vdot(r, z), rz
        beta = rz / rz_old
        pmd = beta * (pmd + alpha * dmd)
        dmd = rz + beta * beta * dmd
        d = beta * d - z
    return p, model, False, k


def _model(shape: tuple[int, int, int]):
    """The trust-region model of a window whose ``_residual`` coordinates
    have ``shape`` (rows, cols, d): a function of the section ``_residual``
    returns that returns ``product(v)`` = H v for H = ``_hessian`` of it,
    ``precondition(r)`` = L^-1 r, and the shape both act on.

    The form is chosen by the unknown count alone.  Both forms build the
    one ``_laplacian_solver``.  Up to ``_DENSE_UNKNOWNS`` both operators are
    matrix products on flat vectors: the solve applied once to the unit
    vectors, and the model's one dense H, reused for every step: each call
    scatters the block columns into it, so a call's product acts with the
    latest call's H.  Above, they are ``_stencil_product`` and the solve.
    """
    rows, cols, d = shape
    size = rows * cols * d
    window = (rows + 2, cols + 2)
    stencil = _stencil(rows, cols)
    solve = _laplacian_solver(rows, cols)
    if size > _DENSE_UNKNOWNS:
        def stencilled(y: np.ndarray):
            columns = _hessian(y.reshape(window + y.shape[1:]))
            return functools.partial(_stencil_product, stencil, columns), solve, shape
        return stencilled
    # H = H^T: entry (b, a) of column p at stencil member q is H[q d + b, p d + a]
    index = (((stencil[..., None] * d + np.arange(d))[..., None]) * size
             + np.arange(size).reshape(-1, 1, 1, d)).ravel()
    dense = np.zeros((size + d, size))  # a frontier q writes d spare rows
    vertices = rows * cols  # not reshape(-1): a window may have no interior vertex
    inverse = solve(np.eye(vertices).reshape(vertices, rows, cols).transpose(1, 2, 0)
                    ).reshape(vertices, vertices)

    def precondition(r: np.ndarray) -> np.ndarray:
        return (inverse @ r.reshape(vertices, d)).ravel()

    def flat(y: np.ndarray):
        dense.ravel()[index] = _hessian(y.reshape(window + y.shape[1:])).ravel()
        return dense[:size].__matmul__, precondition, (size,)
    return flat


def _newton_polish(grid: TriangulatedGrid, g: np.ndarray, g_tol: float,
                   max_iterations: int):
    """Riemannian trust-region Newton on the Dirichlet energy (Absil, Baker &
    Gallivan, FoCM 2007), from ``g`` until the gradient max-norm meets
    ``g_tol``, and then one step more.

    Each step solves the call's one ``_model`` by ``_truncated_cg``,
    preconditioned by the Laplacian solve, in the trust region of that
    norm, and retracts it.  With the agreement ratio rho of actual to
    predicted energy decrease, both offset by 1e3 eps max(1, |E|) so that
    decrements at round-off read as agreement, the radius shrinks by 4
    below 0.25 and doubles above 0.75 when the step reached the boundary,
    up to pi sqrt(interior vertices), from an eighth of that; the step is
    taken above 0.1, so the energy never rises by more than the offset.
    The step after the one that first meets ``g_tol`` carries the gradient
    to round-off; a start that already meets it takes no step.  At most
    ``max_iterations`` steps, accepted or rejected, are tried, and the loop
    gives up after an accepted step that predicted a decrease below the
    offset and did not lower the gradient max-norm.
    Returns the iterate, its section, its history rows (the start and each
    accepted step) and the report counters.
    """
    n = g.shape[-1]
    energy = dirichlet_energy(g)
    f, worst, y = _residual(grid, g)
    history = [_record(0, "start", g, energy, worst, 0.0)]
    counters = {"iterations": 0, "backtracks": 0, "hessian_products": 0}
    operators = _model(f.shape)
    radius_max = np.pi * np.sqrt(f.shape[0] * f.shape[1])
    radius = radius_max / 8.0
    previous, model_at_g, stalled = worst, None, False
    while counters["iterations"] < max_iterations and not stalled \
            and (worst > g_tol or previous > g_tol):
        counters["iterations"] += 1
        if model_at_g is None:
            model_at_g = operators(y)
        product, precondition, shape = model_at_g
        norm = np.sqrt(np.vdot(f, f))
        p, model, at_boundary, spent = _truncated_cg(
            product, precondition, f.reshape(shape), radius, norm * min(norm, 0.1))
        counters["hessian_products"] += spent
        trial = _retract(g, lg.coords_to_skew(p.reshape(f.shape), n))
        trial_energy = dirichlet_energy(trial)
        offset = 1e3 * _EPS * max(1.0, abs(energy))
        rho = (energy - trial_energy + offset) / (offset - 2.0 * model)
        if rho < 0.25:
            radius /= 4.0
        elif rho > 0.75 and at_boundary:
            radius = min(2.0 * radius, radius_max)
        if not rho > 0.1:
            counters["backtracks"] += 1
            continue
        previous, model_at_g = worst, None
        g, energy = trial, trial_energy
        f, worst, y = _residual(grid, g)
        # a step whose predicted decrease is round-off and which did not
        # lower the gradient: g_tol is out of the arithmetic's reach
        stalled = -2.0 * model <= offset and not worst < previous
        history.append(_record(counters["iterations"], "newton", g, energy,
                               worst, float(np.linalg.norm(p))))
    return g, y, history, counters


def _blend_initializer(g: np.ndarray) -> np.ndarray:
    """Bilinear chordal blend of the four boundary edges, projected back.

    Reads the boundary rows and columns of ``g`` and returns the interior
    block.  The projection is ``liegroup.polar_factor``, as
    ``project_to_group`` takes it; it falls back to the identity where that
    is undefined, i.e. where not det > 0.
    """
    height, width = g.shape[0] - 1, g.shape[1] - 1
    s = (np.arange(1, width) / width)[:, None, None]
    t = (np.arange(1, height) / height)[:, None, None, None]
    blend = (
        (1.0 - t) * g[0, 1:-1]
        + t * g[-1, 1:-1]
        + (1.0 - s) * g[1:-1, :1]
        + s * g[1:-1, -1:]
    ) / 2.0
    defined = (np.linalg.det(blend) > 0.0)[..., None, None]
    return np.where(defined, lg.polar_factor(blend), np.eye(g.shape[-1]))


def solve_unreduced(grid: TriangulatedGrid, boundary: np.ndarray,
                    g_tol: float = G_TOL, max_iterations: int = 5000
                    ) -> tuple[np.ndarray, SolveReport]:
    """Find a vertex field, stationary for the trace action, with fixed boundary.

    ``boundary`` is a (V, n, n) vertex field of the window: the solver keeps
    its frontier and far corner and overwrites its interior.  It passes
    ``liegroup.group_array`` first, so a malformed block, interior ones
    included, raises ValueError.

    Riemannian trust-region Newton on the Dirichlet energy with exponential
    retraction (``_newton_polish``), from the boundary blend; the gradient
    and Hessian blocks are closed-form in the trace differentials, no finite
    differences in the loop.  Convergence means every interior gradient
    block has Frobenius norm at most ``g_tol``; the solver takes one more
    step after it first meets it, which carries the gradient to round-off,
    and tries at most ``max_iterations`` trust-region steps, accepted or
    rejected.  The reduced section of the result then satisfies the reduced
    critical equations to the same level and is flat by construction.
    Returns the read-only (V, n, n) field and its report; raises
    ``ConvergenceError`` otherwise.
    """
    boundary = group_array(boundary)
    n = boundary.shape[-1]
    blocks = (len(grid.vertices), n, n)
    if boundary.shape != blocks:
        raise ValueError(f"boundary has shape {boundary.shape}, "
                         f"the window needs {blocks}")
    g = boundary.reshape(grid.height + 1, grid.width + 1, n, n).copy()
    g[1:-1, 1:-1] = _blend_initializer(g)

    g, y, history, counters = _newton_polish(grid, g, g_tol, max_iterations)
    last = history[-1]
    if not last["max_gradient"] <= g_tol:
        raise ConvergenceError(
            f"gradient norm {last['max_gradient']:.3e} > {g_tol:.1e} "
            f"after {counters['iterations']} iterations", history)

    ep = block_norms(euler_poincare_residual(TraceLagrangian(), grid, y))
    flat = block_norms(plaquette_holonomy(grid, y) - np.eye(n))
    return read_only(g.reshape(-1, n, n)), SolveReport(
        **counters,
        residual_evaluations=len(history),
        final_action=last["action"],
        final_energy=last["objective"],
        max_gradient=last["max_gradient"],
        max_ep_residual=max_norm(ep),
        max_constraint_residual=max_norm(flat),
        section=y,
        history=history,
    )


# ---------------------------------------------------------------------------
# boundary data


def identity_boundary(grid: TriangulatedGrid, n: int) -> np.ndarray:
    """The identity at every vertex, a read-only (V, n, n) array."""
    return read_only(np.tile(np.eye(n), (len(grid.vertices), 1, 1)))


def random_boundary(grid: TriangulatedGrid, n: int, seed: int,
                    scale: float = 0.1) -> np.ndarray:
    """Geodesic perturbations of the identity at every frontier vertex, a
    read-only (V, n, n) array.

    Each frontier vertex gets exp(scale * xi) with the basis coordinates of
    xi drawn uniformly from [-1, 1] under the given seed, in sorted id order
    so the draw is reproducible.  The far corner, which adheres to no face
    and only feeds an edge slot of the reduced section, repeats the value
    at (W, H-1), which keeps the construction equivariant under constant
    left translation; interior vertices hold the identity.  A scale whose
    exponentials overflow raises ValueError naming it.
    """
    rng = np.random.default_rng(seed)
    frontier = classify_vertices(grid.full_faceset()).frontier
    values = np.tile(np.eye(n), (len(grid.vertices), 1, 1))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values[frontier] = lg.exp(random_skew(n, rng, scale, (len(frontier),)))
    except MembershipError as error:
        raise ValueError(f"scale {scale!r} draws a boundary matrix that {error.reason}")
    values[-1] = values[grid.vertex_id(grid.width, grid.height - 1)]
    return read_only(values)


# ---------------------------------------------------------------------------
# symmetry field and the multisymplectic scenario


def conjugation_symmetry_field(y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The variation that conjugates every fiber value by the flow of xi.

    Left-log entries xi - Ad_{g^{-1}} xi for each component value g; this is
    the reduction of the right-translation flow upstairs.  ``xi`` is a skew
    (n, n) array.  The trace density is exactly invariant along it (the
    derivative is a commutator trace) and the holonomy is conjugated, hence
    fixed along flat sections.
    """
    return read_only(xi - coadjoint(y, xi))


def _jacobi_gauges(grid: TriangulatedGrid, g: np.ndarray, y: np.ndarray, bumps):
    """Yields per bump the (V, n, n) gauge of the Jacobi field at the stationary
    (H+1, W+1, n, n) field g with section y: eta at the bumped vertices, zero
    on the rest of the frontier, x with H x = -df/deta inside; f is linear in
    each neighbour, so df/deta is f at g_b + g_b eta minus f at g.  CG at infinite
    radius to 1e-12 |df/deta|; nonpositive curvature raises PreconditionError."""
    n = g.shape[-1]
    f = lg.skew_to_coords(_interior_gradients(y.reshape(g.shape[:2] + y.shape[1:]))[0])
    product, precondition, shape = _model(f.shape)(y)
    for bump in bumps:
        vids = list(bump)
        etas = np.array(list(bump.values()), dtype=float).reshape(-1, n, n)
        moved = g.reshape(-1, n, n).copy()
        moved[vids] += moved[vids] @ etas
        rhs = (_residual(grid, moved.reshape(g.shape))[0] - f).reshape(shape)
        x, _, saddle, _ = _truncated_cg(product, precondition, rhs, np.inf,
                                        1e-12 * np.sqrt(np.vdot(rhs, rhs)))
        if saddle:
            raise PreconditionError("nonpositive curvature: the solution is no strict "
                                    "minimum, so its Jacobi fields are not unique")
        theta = np.zeros(g.shape)
        theta[1:-1, 1:-1] = lg.coords_to_skew(x.reshape(f.shape), n)
        theta.reshape(-1, n, n)[vids] = etas
        yield theta.reshape(-1, n, n)


def run_multisymplectic_scenario(grid: TriangulatedGrid, g: np.ndarray, y0: np.ndarray,
                                 lam0: np.ndarray, bump1: dict[int, np.ndarray],
                                 bump2: dict[int, np.ndarray]
                                 ) -> tuple[float, float, float]:
    """Both Jacobi residuals and the boundary two-form defect on the Jacobi
    fields of two boundary bumps, at the solved (V, n, n) field ``g``, its
    section ``y0`` (``SolveReport.section``) and the multiplier ``lam0``.

    A bump maps frontier vertices to skew (n, n) arrays eta, moving them
    along g exp(t eta); a vertex off the frontier raises ValueError.  Each
    field is ``reduced_variation`` at y0 of a gauge theta from
    ``_jacobi_gauges`` and dlam, the linearised multiplier:
    ``multiplier_sweep`` at y0 from the zero seed, on the central difference
    (step ``H_JACOBI``) of the multiplier system at (g exp(+-t theta), lam0).
    Returns the three values of ``multisymplectic_check``; the bounds are the
    caller's."""
    n = g.shape[-1]
    lagrangian = TraceLagrangian()
    faceset = grid.full_faceset()
    frontier = classify_vertices(faceset).frontier
    for vid in (*bump1, *bump2):
        if vid not in frontier:
            raise ValueError(f"bump vertex {vid} is not a frontier vertex")

    fields = []
    for theta in _jacobi_gauges(grid, g.reshape(grid.height + 1, grid.width + 1, n, n),
                                y0, (bump1, bump2)):
        plus, minus = (multiplier_system_residual(
            lagrangian, grid, reduce_field(grid, g @ lg.exp_skew(t * theta)), lam0)
            for t in (H_JACOBI, -H_JACOBI))
        difference = np.subtract(plus, minus) / (2.0 * H_JACOBI)
        dlam, _ = multiplier_sweep(grid, y0, *difference, np.zeros((n, n)))
        fields += [reduced_variation(grid, y0, theta), dlam]

    return multisymplectic_check(lagrangian, PlaquetteConstraint(), y0, lam0,
                                 *fields, faceset)
