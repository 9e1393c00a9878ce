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

from dataclasses import dataclass, field

import numpy as np

from . import liegroup as lg
from .complexes import FaceSet, TriangulatedGrid, classify_vertices
from .core import (
    Jet1,
    LagrangianDensity,
    Multiplier,
    Section,
    Variation,
    action,
    admissibility_report,
    noether_boundary_sum,
    jacobi_residual,
    multisymplectic_defect,
    NoetherReport,
)
from .defaults import G_TOL, H_JACOBI
from .errors import ConvergenceError, DomainError
from .liegroup import (
    AlgebraElement,
    CoAlgebraElement,
    GroupElement,
    adjoint,
    coadjoint_inverse,
    log_near_identity,
    project_to_group,
    random_algebra,
)
from .reduction import (
    PlaquetteConstraint,
    UnreducedField,
    euler_poincare_residual,
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
        return float(np.trace(u.matrix) + np.trace(v.matrix))

    def vertex_differential(self, complex, jet: Jet1, slot: int):
        n = self.fiber.n
        if slot != 0:
            zero = CoAlgebraElement(np.zeros((n, n)))
            return (zero, zero)
        u, v = jet.values[0]
        return (
            CoAlgebraElement((u.matrix.T - u.matrix) / 2.0),
            CoAlgebraElement((v.matrix.T - v.matrix) / 2.0),
        )


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
    m = u.matrix + v.matrix - u_w.matrix - v_s.matrix
    return m - m.T


# ---------------------------------------------------------------------------
# solver


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
    gradient level unless ``newton_refine`` is off.  ``initializer`` is a
    field to warm-start the interior from; None means the boundary blend.
    """

    boundary: dict[int, GroupElement]
    g_tol: float = G_TOL
    max_iterations: int = 5000
    initializer: UnreducedField | None = None
    newton_refine: bool = True


@dataclass
class SolveReport:
    """Post-hoc solver diagnostics.

    Residual fields are recomputed from the returned field with the public
    residual operations, not taken from solver internals.  ``history`` has
    one record per accepted iterate: iteration, objective (the descended
    energy), trace action, max per-vertex gradient norm, accepted step.
    """

    converged: bool
    iterations: int
    final_action: float
    final_energy: float
    max_gradient: float
    max_ep_residual: float
    max_constraint_residual: float
    per_vertex_ep: dict[tuple[int, int], float] = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)
    g_tol: float = G_TOL


def dirichlet_energy(grid: TriangulatedGrid, values: dict[int, np.ndarray],
                     n: int) -> float:
    """Sum over faces of 2n - tr(u) - tr(v); nonnegative, zero iff constant."""
    total = 0.0
    for j in range(grid.height):
        for i in range(grid.width):
            g = values[grid.vertex_id(i, j)]
            total += 2.0 * n \
                - float(np.vdot(g, values[grid.vertex_id(i + 1, j)])) \
                - float(np.vdot(g, values[grid.vertex_id(i, j + 1)]))
    return total


def trace_action(grid: TriangulatedGrid, g: UnreducedField) -> float:
    """Trace action of the reduced pair field of g."""
    n = next(iter(g.values.values())).n
    values = {vid: el.matrix for vid, el in g.values.items()}
    return 2.0 * n * grid.width * grid.height - dirichlet_energy(grid, values, n)


def _interior_gradients(grid: TriangulatedGrid, values: dict[int, np.ndarray],
                        interior_ij) -> tuple[dict, float]:
    """Energy gradient block per interior vertex, in left-log coordinates.

    The block at (i, j) is the skew part transposed, (M^T - M) / 2 with
    M = u_ij + v_ij - u_{i-1,j} - v_{i,j-1}, which is also the reduced
    residual of the trace equations there; its negation is the action
    gradient.
    """
    grads = {}
    worst = 0.0
    for i, j in interior_ij:
        g = values[grid.vertex_id(i, j)]
        m = g.T @ values[grid.vertex_id(i + 1, j)] \
            + g.T @ values[grid.vertex_id(i, j + 1)] \
            - values[grid.vertex_id(i - 1, j)].T @ g \
            - values[grid.vertex_id(i, j - 1)].T @ g
        grad = (m.T - m) / 2.0
        grads[(i, j)] = grad
        worst = max(worst, float(np.linalg.norm(grad)))
    return grads, worst


def _newton_polish(grid: TriangulatedGrid, values: dict[int, np.ndarray],
                   interior_ij, g_tol: float, n: int, n_faces: int,
                   iteration0: int):
    """Drive the stationarity system to g_tol by damped Newton steps.

    The residual is the stacked analytic gradient; its Jacobian is assembled
    column by column with central differences.  Steps are halved until the
    gradient max-norm decreases, so this phase is monotone in the gradient
    rather than in the energy (whose decrements are below round-off here).
    """
    from .liegroup import skew_basis, skew_to_coords, coords_to_skew, algebra_dim

    d = algebra_dim(n)
    basis = skew_basis(n)
    m_block = len(interior_ij) * d

    def residual(vals):
        grads, worst = _interior_gradients(grid, vals, interior_ij)
        stacked = np.concatenate([skew_to_coords(grads[ij]) for ij in interior_ij])
        return stacked, worst

    def retract(vals, delta):
        out = dict(vals)
        for idx, (i, j) in enumerate(interior_ij):
            xi = coords_to_skew(delta[idx * d:(idx + 1) * d], n)
            vid = grid.vertex_id(i, j)
            out[vid] = vals[vid] @ lg.exp(AlgebraElement(xi)).matrix
        return out

    history = []
    f0, worst = residual(values)
    h = _NEWTON_FD_STEP
    for it in range(_MAX_NEWTON):
        if worst <= g_tol:
            break
        jac = np.empty((m_block, m_block))
        col = 0
        for idx, (i, j) in enumerate(interior_ij):
            vid = grid.vertex_id(i, j)
            for e in basis:
                step = lg.exp(AlgebraElement(h * e.matrix)).matrix
                plus = dict(values)
                plus[vid] = values[vid] @ step
                minus = dict(values)
                minus[vid] = values[vid] @ step.T
                jac[:, col] = (residual(plus)[0] - residual(minus)[0]) / (2.0 * h)
                col += 1
        delta, *_ = np.linalg.lstsq(jac, -f0, rcond=None)
        accepted = False
        scale = 1.0
        for _ in range(8):
            trial = retract(values, scale * delta)
            f_trial, worst_trial = residual(trial)
            if worst_trial < worst:
                values = trial
                f0, worst = f_trial, worst_trial
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        energy = dirichlet_energy(grid, values, n)
        history.append({"iteration": iteration0 + it + 1, "phase": "newton",
                        "objective": energy,
                        "action": 2.0 * n * n_faces - energy,
                        "max_gradient": worst, "step": scale})
    return values, worst, history


def _blend_initializer(grid: TriangulatedGrid, boundary: dict[int, GroupElement],
                       interior_ij) -> dict[int, np.ndarray]:
    """Bilinear chordal blend of the four boundary edges, projected back.

    Falls back to the identity where the projection is undefined.
    """
    n = next(iter(boundary.values())).n
    out = {}
    for i, j in interior_ij:
        s = i / grid.width
        t = j / grid.height
        blend = (
            (1.0 - t) * boundary[grid.vertex_id(i, 0)].matrix
            + t * boundary[grid.vertex_id(i, grid.height)].matrix
            + (1.0 - s) * boundary[grid.vertex_id(0, j)].matrix
            + s * boundary[grid.vertex_id(grid.width, j)].matrix
        ) / 2.0
        try:
            out[grid.vertex_id(i, j)] = project_to_group(blend).matrix
        except DomainError:
            out[grid.vertex_id(i, j)] = np.eye(n)
    return out


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
    interior_ij = [grid.vertex_ij(v) for v in interior]
    n = next(iter(config.boundary.values())).n

    values: dict[int, np.ndarray] = {v: config.boundary[v].matrix for v in frontier}
    # the far corner adheres to no face and only feeds the edge slots of the
    # reduced section; defaulting it to the boundary value below keeps the
    # whole construction equivariant under constant left translation
    corner = grid.vertex_id(grid.width, grid.height)
    corner_el = config.boundary.get(corner)
    values[corner] = corner_el.matrix if corner_el is not None \
        else values[grid.vertex_id(grid.width, grid.height - 1)]
    if config.initializer is None:
        values.update(_blend_initializer(grid, config.boundary, interior_ij))
    else:
        values.update({grid.vertex_id(i, j):
                       config.initializer.at(grid.vertex_id(i, j)).matrix
                       for i, j in interior_ij})

    def gradients():
        return _interior_gradients(grid, values, interior_ij)

    energy = dirichlet_energy(grid, values, n)
    history = []
    step = _STEP_INIT
    converged = False
    iteration = 0
    grads, worst = gradients()
    history.append({"iteration": 0, "phase": "descent", "objective": energy,
                    "action": 2.0 * n * len(faceset) - energy,
                    "max_gradient": worst, "step": 0.0})
    switch = _NEWTON_SWITCH if config.newton_refine else 0.0
    while iteration < config.max_iterations:
        if worst <= config.g_tol or worst <= switch:
            break
        iteration += 1
        slope = sum(float(np.linalg.norm(g) ** 2) for g in grads.values())
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = dict(values)
            for (i, j), grad in grads.items():
                vid = grid.vertex_id(i, j)
                trial[vid] = values[vid] @ lg.exp(AlgebraElement(-step * grad)).matrix
            trial_energy = dirichlet_energy(grid, trial, n)
            if trial_energy <= energy - _ARMIJO_C1 * step * slope:
                accepted = True
                break
            step *= _STEP_SHRINK
        if not accepted:
            break
        values = trial
        energy = trial_energy
        grads, worst = gradients()
        history.append({"iteration": iteration, "phase": "descent",
                        "objective": energy,
                        "action": 2.0 * n * len(faceset) - energy,
                        "max_gradient": worst, "step": step})
        step = min(_STEP_INIT, step * _STEP_GROW)

    if config.newton_refine and worst > config.g_tol:
        values, worst, extra = _newton_polish(
            grid, values, interior_ij, config.g_tol, n, len(faceset), iteration)
        history.extend(extra)
        iteration += len(extra)
        energy = dirichlet_energy(grid, values, n)
    converged = worst <= config.g_tol

    field_ = UnreducedField({vid: GroupElement(m) for vid, m in sorted(values.items())})
    if not converged:
        raise ConvergenceError(
            f"gradient norm {worst:.3e} > {config.g_tol:.1e} "
            f"after {iteration} iterations", history)

    lagrangian = TraceLagrangian(n)
    y = reduce_field(grid, field_)
    per_vertex = {}
    for i, j in interior_ij:
        per_vertex[(i, j)] = euler_poincare_residual(
            lagrangian, grid, y, i, j, faceset).norm()
    adm = admissibility_report(PlaquetteConstraint(n), y, faceset)
    report = SolveReport(
        converged=converged,
        iterations=iteration,
        final_action=action(lagrangian, y, faceset),
        final_energy=energy,
        max_gradient=worst,
        max_ep_residual=max(per_vertex.values()) if per_vertex else 0.0,
        max_constraint_residual=adm.max_residual,
        per_vertex_ep=per_vertex,
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
    values = {}
    for v, fib in y.values.items():
        values[v] = tuple(xi - adjoint(g.inverse(), xi) for g in fib)
    return Variation(y.fiber, values)


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
    field_, solve_report = solve_unreduced(grid, config)
    y = reduce_field(grid, field_)
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
    values = {}
    for v, fib0 in y0.values.items():
        fib1 = y1.values[v]
        values[v] = tuple(
            (1.0 / h) * log_near_identity(GroupElement(a.matrix.T @ b.matrix))
            for a, b in zip(fib0, fib1)
        )
    return Variation(y0.fiber, values)


def _multiplier_quotient(l0: Multiplier, l1: Multiplier, h: float) -> Multiplier:
    return Multiplier({f: (1.0 / h) * (l1.values[f] - l0.values[f])
                       for f in l0.values})


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

    base_field, _ = solve_unreduced(grid, config)
    y0 = reduce_field(grid, base_field)
    lam0, _ = recover_multipliers(lagrangian, grid, y0, zero_seed)

    def perturbed(bump):
        boundary = dict(config.boundary)
        for vid, eta in bump.items():
            if vid not in boundary:
                raise ValueError(f"bump vertex {vid} is not a frontier vertex")
            boundary[vid] = GroupElement(
                boundary[vid].matrix @ lg.exp(step * eta).matrix)
        cfg = SolverConfig(boundary=boundary, g_tol=config.g_tol,
                           max_iterations=config.max_iterations,
                           initializer=base_field)
        field_, _ = solve_unreduced(grid, cfg)
        y = reduce_field(grid, field_)
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
