"""Discrete harmonic maps of the plane window into SO(n).

The density is the trace of both forward differences.  Near the identity
tr(u) = n - ||u - I||_F^2 / 2, so stationary sections of the trace action
with boundary data close to the identity are exactly the minimizers of the
discrete Dirichlet energy, and that energy is what the solver descends: the
critical points coincide, the sought interpolant is a constrained maximizer
of the trace action, and descending the energy keeps the iteration on the
branch selected by the boundary blend initializer.  "Critical" throughout
means stationary; reports claim no minimality of anything.

Gradient assembly is vertex-parallel within an iteration; scenario runs
(base plus perturbed solves) are independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import liegroup as lg
from .complexes import FaceSet, TriangulatedGrid, classify_vertices
from .core import (
    LagrangianDensity,
    Multiplier,
    Section,
    Variation,
    action,
    noether_boundary_sum,
    jacobi_residual,
    multisymplectic_defect,
    NoetherReport,
)
from .defaults import G_TOL, H_JACOBI
from .errors import ConvergenceError
from .liegroup import (
    block_dot,
    block_norms,
    coadjoint,
    group_array,
    log_near_identity,
    max_norm,
    random_skew,
    skew_part,
)
from .reduction import (
    PlaquetteConstraint,
    UnreducedField,
    euler_poincare_residual,
    plaquette_holonomy,
    recover_multipliers,
    reduce_field,
    reduced_fiber,
)

__all__ = [
    "TraceLagrangian",
    "ep_symmetric_defect",
    "SolverConfig",
    "SolveReport",
    "solve_unreduced",
    "dirichlet_energy",
    "trace_action",
    "identity_boundary",
    "random_boundary",
    "conjugation_symmetry_field",
    "run_noether_scenario",
    "NoetherScenarioReport",
    "run_multisymplectic_scenario",
    "MultisymplecticScenarioReport",
]


class TraceLagrangian(LagrangianDensity):
    """Density tr(u) + tr(v) on the base corner of each face.

    Values lie in [-2n, 2n] since |tr| <= n on SO(n).  The differential is
    analytic: in the trace pairing the left-log partial in each slot is the
    skew part of the transposed argument, (g^T - g) / 2.
    """

    def __init__(self, n: int):
        super().__init__(reduced_fiber(n))

    def value(self, complex, jets: np.ndarray) -> np.ndarray:
        return np.trace(jets[:, 0, 0], axis1=-2, axis2=-1) \
            + np.trace(jets[:, 0, 1], axis1=-2, axis2=-1)

    def vertex_differential(self, complex, jets: np.ndarray, slot: int) -> np.ndarray:
        uv = jets[:, 0]
        if slot != 0:
            return np.zeros(uv.shape)
        return (uv.swapaxes(-1, -2) - uv) / 2.0


def ep_symmetric_defect(grid: TriangulatedGrid, y: Section, i: int, j: int,
                        faceset: FaceSet | None = None) -> np.ndarray:
    """Skew defect M - M^T of M = u_ij + v_ij - u_{i-1,j} - v_{i,j-1}.

    Zero exactly when the reduced trace equations hold at (i, j).  Equals
    minus twice the general four-term residual in the trace pairing
    representation (that residual is (M^T - M) / 2).
    """
    if faceset is None:
        faceset = grid.full_faceset()
    klass = classify_vertices(grid, faceset)
    if grid.vertex_id(i, j) not in klass.interior:
        raise ValueError(f"vertex ({i}, {j}) is not interior to the face set")
    u, v = y.values[grid.vertex_id(i, j)]
    u_w, _ = y.values[grid.vertex_id(i - 1, j)]
    _, v_s = y.values[grid.vertex_id(i, j - 1)]
    m = u + v - u_w - v_s
    return m - m.T


# ---------------------------------------------------------------------------
# solver
#
# The iterate is one (H+1, W+1, n, n) array g indexed [j, i]: flattening the
# first two axes gives vertex ids, and g[1:-1, 1:-1] is the interior.  Scalar
# reductions run in vertex-id order, one term at a time.


# Armijo descent: sufficient-decrease constant, initial (and largest) step,
# backtracking shrink factor, growth after an accepted step, trials per
# iteration (even: ``_descend`` tries them in pairs).
_ARMIJO_C1 = 1e-4
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_STEP_GROW = 2.0
_MAX_BACKTRACKS = 60
# Newton polish: gradient level where it takes over, and step budget.
_NEWTON_SWITCH = 1e-3
_MAX_NEWTON = 40


@dataclass
class SolverConfig:
    """Options and boundary data for the stationary-point solver.

    ``boundary`` is a vertex field of the window: the solver keeps its
    frontier and far corner and overwrites its interior.  It, and
    ``initializer`` when given, pass ``liegroup.group_array`` here, so a
    malformed block raises ValueError.  The gradient target applies per
    interior vertex.  Backtracking descent alone cannot certify decrease once
    the energy decrement falls under the round-off floor of the energy sum,
    so a Newton polish on the analytic gradient (closed-form band Jacobian)
    takes over below a fixed gradient level.  ``max_iterations`` bounds
    descent and Newton steps together.  ``initializer`` is a field to
    warm-start the interior from; None means the boundary blend.
    """

    boundary: UnreducedField
    g_tol: float = G_TOL
    max_iterations: int = 5000
    initializer: UnreducedField | None = None

    def __post_init__(self):
        self.boundary = UnreducedField(group_array(self.boundary.values))
        if self.initializer is not None:
            self.initializer = UnreducedField(group_array(self.initializer.values))


@dataclass
class SolveReport:
    """Post-hoc solver diagnostics.

    Residual fields are recomputed from the returned field with the public
    residual operations, not taken from solver internals: ``section`` is its
    reduced section, ``per_vertex_ep`` the (H-1, W-1) array of reduced
    residual norms indexed [j-1, i-1].  ``history`` has
    one record per accepted iterate: iteration, objective (the descended
    energy), trace action, max per-vertex gradient norm, accepted step.
    The counters are deterministic: descent iterations, Newton steps,
    rejected trial steps of either phase (``backtracks``), and evaluations
    of the interior gradient (``residual_evaluations``): one at the start,
    one per accepted descent iterate, one at the start of the Newton polish
    and one per Newton trial step; the Newton Jacobian costs none.
    """

    converged: bool
    descent_iterations: int
    newton_steps: int
    backtracks: int
    residual_evaluations: int
    final_action: float
    final_energy: float
    max_gradient: float
    max_ep_residual: float
    max_constraint_residual: float
    section: Section
    per_vertex_ep: np.ndarray
    history: list[dict] = field(default_factory=list)
    g_tol: float = G_TOL

    @property
    def iterations(self) -> int:
        """Descent iterations plus Newton steps."""
        return self.descent_iterations + self.newton_steps


def dirichlet_energy(g: np.ndarray) -> float:
    """Sum over faces of 2n - tr(u) - tr(v); nonnegative, zero iff constant.

    ``g`` is a vertex field as an (H+1, W+1, n, n) array indexed [j, i].
    """
    return float(_energies(g))


def _energies(g: np.ndarray) -> np.ndarray:
    """Dirichlet energy of every field in a (..., H+1, W+1, n, n) stack,
    each summed one face at a time in face-id order."""
    n = g.shape[-1]
    base = g[..., :-1, :-1, :, :]
    terms = 2.0 * n - block_dot(base, g[..., :-1, 1:, :, :]) \
        - block_dot(base, g[..., 1:, :-1, :, :])
    return np.cumsum(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)[..., -1]


def trace_action(grid: TriangulatedGrid, g: UnreducedField) -> float:
    """Trace action of the reduced pair field of g."""
    n = g.values.shape[-1]
    return 2.0 * n * grid.width * grid.height - dirichlet_energy(
        g.values.reshape(grid.height + 1, grid.width + 1, n, n))


def _record(iteration: int, phase: str, g: np.ndarray, energy: float,
            worst: float, step: float) -> dict:
    """One history row; the action is 2n per face minus the energy."""
    faces = (g.shape[0] - 1) * (g.shape[1] - 1)
    return {"iteration": iteration, "phase": phase, "objective": energy,
            "action": 2.0 * g.shape[-1] * faces - energy,
            "max_gradient": worst, "step": step}


def _interior_gradients(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energy gradient blocks of the interior vertices and their norms.

    Blocks are in left-log coordinates, one per interior vertex, shaped like
    g[1:-1, 1:-1].  The block at (i, j) is the skew part transposed,
    (M^T - M) / 2 with M = u_ij + v_ij - u_{i-1,j} - v_{i,j-1}, which is also
    the reduced residual of the trace equations there; its negation is the
    action gradient.
    """
    c = g[1:-1, 1:-1]
    ct = c.swapaxes(-1, -2)
    m = ct @ g[1:-1, 2:] + ct @ g[2:, 1:-1] \
        - g[1:-1, :-2].swapaxes(-1, -2) @ c \
        - g[:-2, 1:-1].swapaxes(-1, -2) @ c
    grads = (m.swapaxes(-1, -2) - m) / 2.0
    return grads, block_norms(grads)


def _retract(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Exponential retraction g_ij exp(xi_ij) of every interior vertex.

    Axes of ``xi`` in front of the interior shape stack several
    retractions of the same ``g``; each field of the stack is contiguous.
    """
    out = np.broadcast_to(g, xi.shape[:-4] + g.shape).copy()
    out[..., 1:-1, 1:-1, :, :] = g[1:-1, 1:-1] @ lg.exp_skew(xi)
    return out


def _residual(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Stacked upper-triangle gradient entries and the largest block norm."""
    grads, norms = _interior_gradients(g)
    return lg.skew_to_coords(grads).ravel(), max_norm(norms)


def _band_jacobian(g: np.ndarray) -> np.ndarray:
    """Jacobian of ``_residual`` in LAPACK band storage, in closed form.

    The gradient block at (i, j) is -skew(M) with M = A - B,
    A = c^T (g_E + g_N), B = (g_W^T + g_S^T) c and c = g_ij.  Moving one
    stencil member g -> g exp(t X) along a skew basis element X changes M by
    -X A - B X (centre), c^T g_E X (east), c^T g_N X (north), X g_W^T c
    (west) or X g_S^T c (south); minus the skew part of that, in coordinates,
    is one column of the (d x d) block.  Unknowns are ordered vertex-major,
    so the half-bandwidth is (interior width + 1) * d - 1, and entry
    [bandwidth + r - col, col] holds the derivative of residual entry r in
    the direction of unknown col, as ``scipy.linalg.solve_banded`` expects.
    """
    basis = lg.skew_basis(g.shape[-1])
    d = len(basis)
    c = g[1:-1, 1:-1, None]
    ct = c.swapaxes(-1, -2)
    east, north = ct @ g[1:-1, 2:, None], ct @ g[2:, 1:-1, None]
    west = g[1:-1, :-2, None].swapaxes(-1, -2) @ c
    south = g[:-2, 1:-1, None].swapaxes(-1, -2) @ c
    moves = {(0, 0): -basis @ (east + north) - (west + south) @ basis,
             (0, 1): east @ basis, (1, 0): north @ basis,
             (0, -1): basis @ west, (-1, 0): basis @ south}
    shape = c.shape[:2]
    bandwidth = (shape[1] + 1) * d - 1
    ab = np.zeros((2 * bandwidth + 1, shape[0] * shape[1] * d))
    jj, ii = np.indices(shape)
    k = np.arange(d)
    for (dj, di), dm in moves.items():
        # blocks[j, i, r, b]: residual entry r at (i, j), direction b
        blocks = lg.skew_to_coords(-skew_part(dm)).swapaxes(-1, -2)
        inside = (0 <= jj + dj) & (jj + dj < shape[0]) \
            & (0 <= ii + di) & (ii + di < shape[1])
        rows = (jj * shape[1] + ii)[inside][:, None, None] * d + k[:, None]
        cols = ((jj + dj) * shape[1] + ii + di)[inside][:, None, None] * d + k
        ab[bandwidth + rows - cols, cols] = blocks[inside]
    return ab


def _newton_polish(g: np.ndarray, g_tol: float, iteration0: int, budget: int):
    """Drive the stationarity system to g_tol by at most ``budget`` Newton steps.

    The residual is the stacked analytic gradient; its Jacobian is assembled
    in closed form (``_band_jacobian``) and solved by a banded LU
    factorisation, so a step costs no gradient evaluation beyond its trials.
    Steps are halved until the gradient max-norm decreases, so this phase is
    monotone in the gradient rather than in the energy (whose decrements are
    below round-off here).  A singular band factor ends the polish like a
    failed halving sequence.  Returns the iterate, its gradient max-norm, one
    history row per step, and the residual evaluations and rejected trial
    steps spent.
    """
    n = g.shape[-1]

    def retract(x, delta):
        coords = delta.reshape(x.shape[0] - 2, x.shape[1] - 2, -1)
        return _retract(x, lg.coords_to_skew(coords, n))

    history = []
    f0, worst = _residual(g)
    evaluations, backtracks = 1, 0
    for it in range(budget):
        if worst <= g_tol:
            break
        jac = _band_jacobian(g)
        bandwidth = len(jac) // 2
        try:
            delta = scipy.linalg.solve_banded((bandwidth, bandwidth), jac, -f0)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(8):
            trial = retract(g, scale * delta)
            f_trial, worst_trial = _residual(trial)
            evaluations += 1
            if worst_trial < worst:
                g, f0, worst = trial, f_trial, worst_trial
                break
            backtracks += 1
            scale *= 0.5
        else:
            break
        history.append(_record(iteration0 + it + 1, "newton", g,
                               dirichlet_energy(g), worst, scale))
    return g, worst, history, evaluations, backtracks


def _descend(g: np.ndarray, g_tol: float, max_iterations: int):
    """Armijo descent on the Dirichlet energy down to g_tol or the Newton switch.

    Each iteration tries step, step / 2, step / 4, ... until one gives
    sufficient decrease, at most ``_MAX_BACKTRACKS`` trials; the step then
    doubles, capped at ``_STEP_INIT``.  The trials go in pairs: both steps of
    a pair are retracted and their energies summed in one stacked call, and
    the first that passes is taken, so the iterates, steps and counters are
    those of trying one step at a time.  A pair fits the usual iteration, in
    which the doubled step is rejected and the one before it accepted.
    Returns the iterate, its energy and gradient max-norm, one history row
    per accepted iterate (and one for the start), the iterations begun, the
    rejected trials and the gradient evaluations.
    """
    energy = dirichlet_energy(g)
    step = _STEP_INIT
    iteration = backtracks = 0
    grads, norms = _interior_gradients(g)
    evaluations = 1
    worst = max_norm(norms)
    history = [_record(0, "descent", g, energy, worst, 0.0)]
    while iteration < max_iterations:
        if worst <= g_tol or worst <= _NEWTON_SWITCH:
            break
        iteration += 1
        slope = np.cumsum(norms.ravel() ** 2)[-1]
        for _ in range(_MAX_BACKTRACKS // 2):
            steps = np.array([step, step * _STEP_SHRINK])
            trials = _retract(g, -steps[:, None, None, None, None] * grads)
            energies = _energies(trials)
            passed = np.flatnonzero(energies <= energy - _ARMIJO_C1 * steps * slope)
            if passed.size:
                k = int(passed[0])
                backtracks += k
                break
            backtracks += 2
            step = steps[1] * _STEP_SHRINK
        else:
            break
        g, energy, step = trials[k], float(energies[k]), float(steps[k])
        grads, norms = _interior_gradients(g)
        evaluations += 1
        worst = max_norm(norms)
        history.append(_record(iteration, "descent", g, energy, worst, step))
        step = min(_STEP_INIT, step * _STEP_GROW)
    return g, energy, worst, history, iteration, backtracks, evaluations


def _blend_initializer(g: np.ndarray) -> np.ndarray:
    """Bilinear chordal blend of the four boundary edges, projected back.

    Reads the boundary rows and columns of ``g`` and returns the interior
    block.  The projection is the polar factor w vh of the batched SVD
    w diag(s) vh, as ``project_to_group`` computes it per matrix; it falls
    back to the identity where that is undefined, i.e. where not det > 0.
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
    w, _, vh = np.linalg.svd(blend)
    defined = (np.linalg.det(blend) > 0.0)[..., None, None]
    return np.where(defined, w @ vh, np.eye(g.shape[-1]))


def solve_unreduced(grid: TriangulatedGrid, config: SolverConfig
                    ) -> tuple[UnreducedField, SolveReport]:
    """Find a vertex field, stationary for the trace action, with fixed boundary.

    Riemannian gradient descent on the Dirichlet energy with Armijo
    backtracking and exponential retraction; the gradient blocks are the skew
    parts of the analytic trace differentials, no finite differences in the
    loop.  Convergence means every interior gradient block has Frobenius norm
    at most ``g_tol``; the reduced section of the result then satisfies the
    reduced critical equations to the same level and is flat by construction.
    """
    faceset = grid.full_faceset()
    n = config.boundary.values.shape[-1]
    blocks = (len(grid.vertices), n, n)
    for name, f in (("boundary", config.boundary),
                    ("initializer", config.initializer)):
        if f is not None and f.values.shape != blocks:
            raise ValueError(f"{name} has shape {f.values.shape}, the window "
                             f"needs {blocks}")
    shape = (grid.height + 1, grid.width + 1, n, n)
    g = config.boundary.values.reshape(shape).copy()
    if config.initializer is None:
        g[1:-1, 1:-1] = _blend_initializer(g)
    else:
        g[1:-1, 1:-1] = config.initializer.values.reshape(shape)[1:-1, 1:-1]

    g, energy, worst, history, iteration, backtracks, evaluations = _descend(
        g, config.g_tol, config.max_iterations)
    descent_iterations, newton = iteration, []
    if worst > config.g_tol:
        g, worst, newton, newton_evaluations, newton_backtracks = _newton_polish(
            g, config.g_tol, iteration,
            min(_MAX_NEWTON, config.max_iterations - iteration))
        history.extend(newton)
        iteration += len(newton)
        evaluations += newton_evaluations
        backtracks += newton_backtracks
        energy = dirichlet_energy(g)
    converged = worst <= config.g_tol

    field_ = UnreducedField(g.reshape(-1, n, n))
    if not converged:
        raise ConvergenceError(
            f"gradient norm {worst:.3e} > {config.g_tol:.1e} "
            f"after {iteration} iterations", history)

    lagrangian = TraceLagrangian(n)
    y = reduce_field(grid, field_)
    ep = block_norms(euler_poincare_residual(lagrangian, grid, y))
    flat = block_norms(plaquette_holonomy(grid, y) - np.eye(n))
    report = SolveReport(
        converged=converged,
        descent_iterations=descent_iterations,
        newton_steps=len(newton),
        backtracks=backtracks,
        residual_evaluations=evaluations,
        final_action=action(lagrangian, y, faceset),
        final_energy=energy,
        max_gradient=worst,
        max_ep_residual=max_norm(ep),
        max_constraint_residual=max_norm(flat),
        section=y,
        per_vertex_ep=ep,
        history=history,
        g_tol=config.g_tol,
    )
    return field_, report


# ---------------------------------------------------------------------------
# boundary data


def identity_boundary(grid: TriangulatedGrid, n: int) -> UnreducedField:
    """The identity at every vertex."""
    return UnreducedField(np.tile(np.eye(n), (len(grid.vertices), 1, 1)))


def random_boundary(grid: TriangulatedGrid, n: int, seed: int,
                    scale: float = 0.1) -> UnreducedField:
    """Geodesic perturbations of the identity at every frontier vertex.

    Each frontier vertex gets exp(scale * xi) with the basis coordinates of
    xi drawn uniformly from [-1, 1] under the given seed, in sorted id order
    so the draw is reproducible.  The far corner, which adheres to no face
    and only feeds an edge slot of the reduced section, repeats the value
    at (W, H-1), which keeps the construction equivariant under constant
    left translation; interior vertices hold the identity.
    """
    rng = np.random.default_rng(seed)
    frontier = sorted(classify_vertices(grid, grid.full_faceset()).frontier)
    values = np.tile(np.eye(n), (len(grid.vertices), 1, 1))
    values[frontier] = lg.exp(random_skew(n, rng, scale, (len(frontier),)))
    values[-1] = values[grid.vertex_id(grid.width, grid.height - 1)]
    return UnreducedField(values)


# ---------------------------------------------------------------------------
# symmetry field and scenarios


def conjugation_symmetry_field(y: Section, xi: np.ndarray) -> Variation:
    """Variation that conjugates every fiber value by the flow of xi.

    Left-log entries xi - Ad_{g^{-1}} xi for each component value g; this is
    the reduction of the right-translation flow upstairs.  ``xi`` is a skew
    (n, n) array.  The trace density is exactly invariant along it (the
    derivative is a commutator trace) and the holonomy is conjugated, hence
    fixed along flat sections.
    """
    return Variation(y.fiber, xi - coadjoint(y.values, xi))


@dataclass(frozen=True)
class NoetherScenarioReport:
    solve: SolveReport
    noether: NoetherReport
    boundary_sum: float
    threshold: float
    passed: bool


def run_noether_scenario(grid: TriangulatedGrid, config: SolverConfig,
                         xi: np.ndarray,
                         symmetry_field: Variation | None = None,
                         tol_factor: float = 1e-8) -> NoetherScenarioReport:
    """Solve, recover multipliers, and evaluate the conservation boundary sum.

    With the conjugation field the sum is predicted to vanish to
    ``tol_factor * (1 + |action|)``.  Passing an explicit ``symmetry_field``
    (for negative controls) overrides the conjugation construction.
    """
    n = xi.shape[-1]
    lagrangian = TraceLagrangian(n)
    faceset = grid.full_faceset()
    _, solve_report = solve_unreduced(grid, config)
    y = solve_report.section
    lam, _ = recover_multipliers(lagrangian, grid, y, np.zeros((n, n)))
    d = symmetry_field if symmetry_field is not None \
        else conjugation_symmetry_field(y, xi)
    noether = noether_boundary_sum(lagrangian, PlaquetteConstraint(n), y, lam,
                                   d, faceset)
    threshold = tol_factor * (1.0 + abs(solve_report.final_action))
    passed = noether.symmetry_ok and abs(noether.boundary_sum) <= threshold
    return NoetherScenarioReport(solve_report, noether,
                                 noether.boundary_sum, threshold, passed)


@dataclass(frozen=True)
class MultisymplecticScenarioReport:
    jacobi_residual_1: float
    jacobi_residual_2: float
    defect: float
    defect_swapped: float
    defect_repeated: float
    threshold: float
    passed: bool


def _difference_quotient(y0: Section, y1: Section, h: float) -> Variation:
    rel = y0.values.swapaxes(-1, -2) @ y1.values
    return Variation(y0.fiber, log_near_identity(rel) * (1.0 / h))


def _multiplier_quotient(l0: Multiplier, l1: Multiplier, h: float) -> Multiplier:
    return Multiplier((l1.values - l0.values) * (1.0 / h))


def run_multisymplectic_scenario(grid: TriangulatedGrid, config: SolverConfig,
                                 bump1: dict[int, np.ndarray],
                                 bump2: dict[int, np.ndarray],
                                 step: float = H_JACOBI,
                                 jacobi_tol: float = 1e-4,
                                 defect_tol: float = 1e-4
                                 ) -> MultisymplecticScenarioReport:
    """Boundary two-form defect on two finite-difference Jacobi fields.

    Solves the base problem plus one boundary-perturbed problem per bump
    (a skew (n, n) array eta per frontier vertex, perturbation
    g -> g exp(step * eta), multipliers recovered with the same zero seed),
    forms the difference-quotient fields, verifies they pass the Jacobi
    check, and evaluates the two-form.  Perturbed solves warm-start
    from the base solution so all three sit on the same branch.
    """
    n = config.boundary.values.shape[-1]
    lagrangian = TraceLagrangian(n)
    constraint = PlaquetteConstraint(n)
    faceset = grid.full_faceset()
    frontier = classify_vertices(grid, faceset).frontier
    zero_seed = np.zeros((n, n))

    base_field, base_report = solve_unreduced(grid, config)
    y0 = base_report.section
    lam0, _ = recover_multipliers(lagrangian, grid, y0, zero_seed)

    def perturbed(bump):
        boundary = config.boundary.values.copy()
        for vid, eta in bump.items():
            if vid not in frontier:
                raise ValueError(f"bump vertex {vid} is not a frontier vertex")
            boundary[vid] = boundary[vid] @ lg.exp(step * eta)
        _, report = solve_unreduced(grid, replace(
            config, boundary=UnreducedField(boundary), initializer=base_field))
        y = report.section
        lam, _ = recover_multipliers(lagrangian, grid, y, zero_seed)
        return y, lam

    y1, lam1 = perturbed(bump1)
    y2, lam2 = perturbed(bump2)
    d1 = _difference_quotient(y0, y1, step)
    dlam1 = _multiplier_quotient(lam0, lam1, step)
    d2 = _difference_quotient(y0, y2, step)
    dlam2 = _multiplier_quotient(lam0, lam2, step)

    jr1 = jacobi_residual(lagrangian, constraint, y0, lam0, d1, dlam1, faceset, step)
    jr2 = jacobi_residual(lagrangian, constraint, y0, lam0, d2, dlam2, faceset, step)
    defect = multisymplectic_defect(lagrangian, constraint, y0, lam0,
                                    d1, dlam1, d2, dlam2, faceset, step)
    swapped = multisymplectic_defect(lagrangian, constraint, y0, lam0,
                                     d2, dlam2, d1, dlam1, faceset, step)
    repeated = multisymplectic_defect(lagrangian, constraint, y0, lam0,
                                      d1, dlam1, d1, dlam1, faceset, step)
    passed = jr1 <= jacobi_tol and jr2 <= jacobi_tol and abs(defect) <= defect_tol
    return MultisymplecticScenarioReport(jr1, jr2, defect, swapped, repeated,
                                         defect_tol, passed)
