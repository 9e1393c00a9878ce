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
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import liegroup as lg
from .complexes import FaceSet, TriangulatedGrid, classify_vertices
from .core import (
    Jet1,
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
    AlgebraElement,
    CoAlgebraElement,
    GroupElement,
    block_dot,
    block_norms,
    coadjoint_inverse,
    log_near_identity,
    random_algebra,
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
    "trace_differentials",
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

    def value(self, complex, jet: Jet1) -> float:
        u, v = jet.values[0]
        return float(np.trace(u) + np.trace(v))

    def vertex_differential(self, complex, jet: Jet1, slot: int) -> np.ndarray:
        uv = jet.values[0]
        if slot != 0:
            return np.zeros(uv.shape)
        return (uv.swapaxes(-1, -2) - uv) / 2.0


def trace_differentials(u: GroupElement, v: GroupElement
                        ) -> tuple[CoAlgebraElement, CoAlgebraElement,
                                   CoAlgebraElement, CoAlgebraElement]:
    """Right and left translated differentials of the trace density.

    Returned in the order: right-translated in u, left-translated in u,
    right-translated in v, left-translated in v.  The left-translated form is
    the skew part of the transposed argument; the right-translated one is its
    inverse coadjoint image, which for the trace density coincides with it.
    """
    left_u = CoAlgebraElement((u.matrix.T - u.matrix) / 2.0)
    left_v = CoAlgebraElement((v.matrix.T - v.matrix) / 2.0)
    right_u = coadjoint_inverse(u, left_u)
    right_v = coadjoint_inverse(v, left_v)
    return right_u, left_u, right_v, left_v


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
# backtracking shrink factor, growth after an accepted step, backtracks per
# iteration.
_ARMIJO_C1 = 1e-4
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_STEP_GROW = 2.0
_MAX_BACKTRACKS = 60
# Newton polish: gradient level where it takes over, step budget, and the
# finite-difference step of its Jacobian.
_NEWTON_SWITCH = 1e-3
_MAX_NEWTON = 40
_NEWTON_FD_STEP = 1e-6


@dataclass
class SolverConfig:
    """Options and boundary data for the stationary-point solver.

    ``boundary`` must give a group element for every frontier vertex of the
    window.  The gradient target applies per interior vertex.  Backtracking
    descent alone cannot certify decrease once the energy decrement falls
    under the round-off floor of the energy sum, so a Newton polish on the
    analytic gradient (finite-difference Jacobian) takes over below a fixed
    gradient level.  ``max_iterations`` bounds descent and Newton steps
    together.  ``initializer`` is a field to warm-start the interior from;
    None means the boundary blend.
    """

    boundary: dict[int, GroupElement]
    g_tol: float = G_TOL
    max_iterations: int = 5000
    initializer: UnreducedField | None = None


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
    of the interior gradient (``residual_evaluations``).
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


def _max_norm(norms: np.ndarray) -> float:
    """Largest of a stack of norms; 0.0 when it is empty."""
    return max([0.0, *norms.ravel().tolist()])


def dirichlet_energy(g: np.ndarray) -> float:
    """Sum over faces of 2n - tr(u) - tr(v); nonnegative, zero iff constant.

    ``g`` is a vertex field as an (H+1, W+1, n, n) array indexed [j, i].
    """
    n = g.shape[-1]
    base = g[:-1, :-1]
    terms = 2.0 * n - block_dot(base, g[:-1, 1:]) - block_dot(base, g[1:, :-1])
    return float(np.cumsum(terms)[-1])


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
    """Exponential retraction g_ij exp(xi_ij) of every interior vertex."""
    out = g.copy()
    out[1:-1, 1:-1] = g[1:-1, 1:-1] @ lg.exp_skew(xi)
    return out


def _residual(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Stacked upper-triangle gradient entries and the largest block norm."""
    grads, norms = _interior_gradients(g)
    upper = np.triu_indices(g.shape[-1], 1)
    return grads[(..., *upper)].ravel(), _max_norm(norms)


class _JacobianLayout(NamedTuple):
    """What ``_band_jacobian`` needs besides the iterate; built once per polish.

    ``colours`` holds, per non-empty colour, its vertices as block indices,
    the residual entries of the rows they reach, and the band rows and
    columns of those entries for the first skew direction.
    """

    bandwidth: int
    steps: list[np.ndarray]
    colours: list[tuple]


def _jacobian_layout(g: np.ndarray) -> _JacobianLayout:
    """Colouring and band-storage indices for the residual Jacobian of g.

    Interior vertex (i, j) gets colour (i + 2j) mod 5, so the five vertices
    of every 5-point stencil have five different colours, and the residual at
    a vertex reads only its stencil.  Perturbing all vertices of one colour
    at once therefore yields, in each row, the column of the unique stencil
    vertex of that colour (Curtis, Powell & Reid 1974).  Unknowns are ordered
    vertex-major, so the half-bandwidth is (interior width + 1) * d - 1.
    """
    n = g.shape[-1]
    d = n * (n - 1) // 2
    shape = (g.shape[0] - 2, g.shape[1] - 2)
    bandwidth = (shape[1] + 1) * d - 1
    jj, ii = np.indices(shape)
    ids = np.arange(jj.size).reshape(shape)
    colour = (ii + 2 * jj) % 5
    rows, cols = [], []
    for dj, di in ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)):
        inside = (0 <= jj + dj) & (jj + dj < shape[0]) \
            & (0 <= ii + di) & (ii + di < shape[1])
        rows.append(ids[inside])
        cols.append(ids[jj[inside] + dj, ii[inside] + di])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    colours = []
    for c in range(5):
        members = np.nonzero(colour == c)
        if members[0].size == 0:
            continue
        reached = colour.ravel()[cols] == c
        entries = rows[reached][:, None] * d + np.arange(d)
        first = cols[reached][:, None] * d
        colours.append((members, entries, bandwidth + entries - first, first))
    steps = scipy.linalg.expm(_NEWTON_FD_STEP * lg.skew_basis(n))
    return _JacobianLayout(bandwidth, steps, colours)


def _band_jacobian(g: np.ndarray, layout: _JacobianLayout) -> np.ndarray:
    """Central-difference Jacobian of ``_residual`` in LAPACK band storage.

    Two residual evaluations per colour and skew direction, whatever the
    window size.  The iterate is perturbed in place and restored.  Entry
    [bandwidth + r - c, c] holds the derivative of residual entry r in the
    direction of unknown c, as ``scipy.linalg.solve_banded`` expects.
    """
    h = _NEWTON_FD_STEP
    block = g[1:-1, 1:-1]
    size = block.shape[0] * block.shape[1] * len(layout.steps)
    ab = np.zeros((2 * layout.bandwidth + 1, size))
    for members, entries, band, first in layout.colours:
        center = block[members]
        for k, step in enumerate(layout.steps):
            block[members] = center @ step
            plus = _residual(g)[0]
            block[members] = center @ step.T
            ab[band - k, first + k] = ((plus - _residual(g)[0]) / (2.0 * h))[entries]
        block[members] = center
    return ab


def _newton_polish(g: np.ndarray, g_tol: float, iteration0: int, budget: int):
    """Drive the stationarity system to g_tol by at most ``budget`` Newton steps.

    The residual is the stacked analytic gradient; its Jacobian comes from
    coloured central differences (``_band_jacobian``) and is solved by a
    banded LU factorisation.  Steps are halved until the gradient max-norm
    decreases, so this phase is monotone in the gradient rather than in the
    energy (whose decrements are below round-off here).  A singular band
    factor ends the polish like a failed halving sequence.  Returns the
    iterate, its gradient max-norm, one history row per step, and the
    residual evaluations and rejected trial steps spent.
    """
    n = g.shape[-1]
    upper = np.triu_indices(n, 1)
    lower = upper[::-1]
    layout = _jacobian_layout(g)
    per_jacobian = 2 * len(layout.colours) * len(layout.steps)

    def retract(x, delta):
        coords = delta.reshape(x.shape[0] - 2, x.shape[1] - 2, -1)
        xi = np.zeros(coords.shape[:2] + (n, n))
        xi[(..., *upper)] = coords
        xi[(..., *lower)] = -coords
        return _retract(x, xi)

    history = []
    f0, worst = _residual(g)
    evaluations, backtracks = 1, 0
    for it in range(budget):
        if worst <= g_tol:
            break
        jac = _band_jacobian(g, layout)
        evaluations += per_jacobian
        try:
            delta = scipy.linalg.solve_banded(
                (layout.bandwidth, layout.bandwidth), jac, -f0)
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
    klass = classify_vertices(grid, faceset)
    frontier = sorted(klass.frontier)
    missing = [v for v in frontier if v not in config.boundary]
    if missing:
        raise ValueError(f"boundary data missing at vertices {missing[:4]}")
    interior = sorted(klass.interior)
    n = next(iter(config.boundary.values())).n

    g = np.empty((grid.height + 1, grid.width + 1, n, n))
    by_vertex = g.reshape(-1, n, n)
    by_vertex[frontier] = [config.boundary[v].matrix for v in frontier]
    # the far corner adheres to no face and only feeds the edge slots of the
    # reduced section; defaulting it to the boundary value below keeps the
    # whole construction equivariant under constant left translation
    corner_el = config.boundary.get(grid.vertex_id(grid.width, grid.height))
    g[-1, -1] = corner_el.matrix if corner_el is not None else g[-2, -1]
    if config.initializer is None:
        g[1:-1, 1:-1] = _blend_initializer(g)
    else:
        by_vertex[interior] = config.initializer.values[interior]

    energy = dirichlet_energy(g)
    step = _STEP_INIT
    iteration = backtracks = 0
    grads, norms = _interior_gradients(g)
    evaluations = 1
    worst = _max_norm(norms)
    history = [_record(0, "descent", g, energy, worst, 0.0)]
    while iteration < config.max_iterations:
        if worst <= config.g_tol or worst <= _NEWTON_SWITCH:
            break
        iteration += 1
        slope = np.cumsum(norms.ravel() ** 2)[-1]
        for _ in range(_MAX_BACKTRACKS):
            trial = _retract(g, -step * grads)
            trial_energy = dirichlet_energy(trial)
            if trial_energy <= energy - _ARMIJO_C1 * step * slope:
                break
            backtracks += 1
            step *= _STEP_SHRINK
        else:
            break
        g, energy = trial, trial_energy
        grads, norms = _interior_gradients(g)
        evaluations += 1
        worst = _max_norm(norms)
        history.append(_record(iteration, "descent", g, energy, worst, step))
        step = min(_STEP_INIT, step * _STEP_GROW)

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
        max_ep_residual=_max_norm(ep),
        max_constraint_residual=_max_norm(flat),
        section=y,
        per_vertex_ep=ep,
        history=history,
        g_tol=config.g_tol,
    )
    return field_, report


# ---------------------------------------------------------------------------
# boundary data


def identity_boundary(grid: TriangulatedGrid, n: int) -> dict[int, GroupElement]:
    klass = classify_vertices(grid, grid.full_faceset())
    eye = GroupElement(np.eye(n))
    return {v: eye for v in sorted(klass.frontier)}


def random_boundary(grid: TriangulatedGrid, n: int, seed: int,
                    scale: float = 0.1) -> dict[int, GroupElement]:
    """Geodesic perturbations of the identity at every frontier vertex.

    Each vertex gets exp(scale * xi) with the basis coordinates of xi drawn
    uniformly from [-1, 1] under the given seed; vertices are visited in
    sorted id order so the draw is reproducible.
    """
    rng = np.random.default_rng(seed)
    klass = classify_vertices(grid, grid.full_faceset())
    return {v: lg.exp(random_algebra(n, rng, scale))
            for v in sorted(klass.frontier)}


# ---------------------------------------------------------------------------
# symmetry field and scenarios


def conjugation_symmetry_field(y: Section, xi: AlgebraElement) -> Variation:
    """Variation that conjugates every fiber value by the flow of xi.

    Left-log entries xi - Ad_{g^{-1}} xi for each component value g; this is
    the reduction of the right-translation flow upstairs.  The trace density
    is exactly invariant along it (the derivative is a commutator trace) and
    the holonomy is conjugated, hence fixed along flat sections.
    """
    g = y.values
    return Variation(y.fiber, xi.matrix - skew_part(g.swapaxes(-1, -2) @ xi.matrix @ g))


@dataclass(frozen=True)
class NoetherScenarioReport:
    solve: SolveReport
    noether: NoetherReport
    boundary_sum: float
    threshold: float
    passed: bool


def run_noether_scenario(grid: TriangulatedGrid, config: SolverConfig,
                         xi: AlgebraElement,
                         symmetry_field: Variation | None = None,
                         tol_factor: float = 1e-8) -> NoetherScenarioReport:
    """Solve, recover multipliers, and evaluate the conservation boundary sum.

    With the conjugation field the sum is predicted to vanish to
    ``tol_factor * (1 + |action|)``.  Passing an explicit ``symmetry_field``
    (for negative controls) overrides the conjugation construction.
    """
    n = xi.n
    lagrangian = TraceLagrangian(n)
    faceset = grid.full_faceset()
    _, solve_report = solve_unreduced(grid, config)
    y = solve_report.section
    zero_seed = CoAlgebraElement(np.zeros((n, n)))
    lam, _ = recover_multipliers(lagrangian, grid, y, zero_seed)
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
                                 bump1: dict[int, AlgebraElement],
                                 bump2: dict[int, AlgebraElement],
                                 step: float = H_JACOBI,
                                 jacobi_tol: float = 1e-4,
                                 defect_tol: float = 1e-4
                                 ) -> MultisymplecticScenarioReport:
    """Boundary two-form defect on two finite-difference Jacobi fields.

    Solves the base problem plus one boundary-perturbed problem per bump
    (perturbation g -> g exp(step * eta), multipliers recovered with the same
    zero seed), forms the difference-quotient fields, verifies they pass the
    Jacobi check, and evaluates the two-form.  Perturbed solves warm-start
    from the base solution so all three sit on the same branch.
    """
    n = next(iter(config.boundary.values())).n
    lagrangian = TraceLagrangian(n)
    constraint = PlaquetteConstraint(n)
    faceset = grid.full_faceset()
    zero_seed = CoAlgebraElement(np.zeros((n, n)))

    base_field, base_report = solve_unreduced(grid, config)
    y0 = base_report.section
    lam0, _ = recover_multipliers(lagrangian, grid, y0, zero_seed)

    def perturbed(bump):
        boundary = dict(config.boundary)
        for vid, eta in bump.items():
            if vid not in boundary:
                raise ValueError(f"bump vertex {vid} is not a frontier vertex")
            boundary[vid] = GroupElement(
                boundary[vid].matrix @ lg.exp(step * eta).matrix)
        _, report = solve_unreduced(
            grid, replace(config, boundary=boundary, initializer=base_field))
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
