import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from groupvar import core, harmonic as hm, liegroup as lg, reduction as red, sampling
from groupvar.complexes import classify_vertices, triangulated_grid
from groupvar.cli import main
from groupvar.errors import ConvergenceError, DomainError

N = 3


def test_trace_value_bounds_and_identity():
    grid = triangulated_grid(3, 3)
    lagrangian = hm.TraceLagrangian(N)
    rng = np.random.default_rng(0)
    y = sampling.random_section(grid, N, rng)
    for f in grid.faces:
        value = lagrangian.value(grid, core.jet_at(y, grid, [f]))[0]
        assert -2 * N <= value <= 2 * N
    y_eye = core.Section(y.fiber, np.zeros(y.values.shape) + np.eye(N))
    assert lagrangian.value(grid, core.jet_at(y_eye, grid, [0]))[0] == 2 * N


def _trace_differentials(u, v):
    """Left translated partials of the trace density in u and v, from
    ``TraceLagrangian.vertex_differential``, and their right translates,
    from ``reduction._partials``, on the one face of a 1x1 window."""
    grid = triangulated_grid(1, 1)
    values = np.zeros((len(grid.vertices), 2, N, N)) + np.eye(N)
    values[grid.vertex_id(0, 0)] = u, v
    y = core.Section(red.reduced_fiber(N), values)
    lagrangian = hm.TraceLagrangian(N)
    left = lagrangian.vertex_differential(grid, core.jet_at(y, grid, [0]), 0)[0]
    mu, right = red._partials(lagrangian, grid, y, red._on_window(grid, y.values))
    assert np.array_equal(mu[0, 0], left)
    return left, right[0, 0]


def test_trace_differentials_at_identity():
    left, right = _trace_differentials(np.eye(N), np.eye(N))
    assert not left.any() and not right.any()


def test_trace_differentials_coordinates_exact():
    rng = np.random.default_rng(1)
    u = lg.exp(lg.random_skew(N, rng))
    v = lg.exp(lg.random_skew(N, rng))
    left, right = _trace_differentials(u, v)
    pairs = [(k, l) for k in range(N) for l in range(k + 1, N)]
    for (k, l), e in zip(pairs, lg.skew_basis(N)):
        assert lg.block_dot(right[0], e) == pytest.approx(
            u[l, k] - u[k, l], abs=1e-13)
        assert lg.block_dot(right[1], e) == pytest.approx(
            v[l, k] - v[k, l], abs=1e-13)
    # for the trace density the right and left translated forms coincide
    assert np.linalg.norm(right[0] - left[0]) <= 1e-14
    assert np.linalg.norm(right[1] - left[1]) <= 1e-14


def test_trace_differentials_fd_oracle():
    rng = np.random.default_rng(2)
    u = lg.exp(lg.random_skew(N, rng))
    v = lg.exp(lg.random_skew(N, rng))
    left, right = _trace_differentials(u, v)
    t = 1e-6
    for e in lg.skew_basis(N):
        step = lg.exp(t * e)
        fd_right = (np.trace(step @ u) - np.trace(step.T @ u)) / (2.0 * t)
        assert abs(lg.block_dot(right[0], e) - fd_right) <= 1e-7
        fd_left = (np.trace(u @ step) - np.trace(u @ step.T)) / (2.0 * t)
        assert abs(lg.block_dot(left[0], e) - fd_left) <= 1e-7


def test_ep_symmetric_defect_identity():
    grid = triangulated_grid(3, 3)
    y = core.Section(red.reduced_fiber(N),
                     np.zeros((len(grid.vertices), 2, N, N)) + np.eye(N))
    assert np.array_equal(hm.ep_symmetric_defect(grid, y, 1, 1), np.zeros((N, N)))
    with pytest.raises(ValueError):
        hm.ep_symmetric_defect(grid, y, 0, 1)


@pytest.mark.parametrize("seed", range(4))
def test_two_path_ep_agreement(seed):
    grid = triangulated_grid(4, 4)
    rng = np.random.default_rng(seed)
    y = sampling.random_section(grid, N, rng)
    lagrangian = hm.TraceLagrangian(N)
    klass = classify_vertices(grid, grid.full_faceset())
    residual = red.euler_poincare_residual(lagrangian, grid, y)
    for v in sorted(klass.interior):
        i, j = grid.vertex_ij(v)
        sym = hm.ep_symmetric_defect(grid, y, i, j)
        general = residual[j - 1, i - 1]
        assert np.linalg.norm(sym - (-2.0) * general) <= 1e-12


def test_action_invariant_under_constant_left_translation():
    grid = triangulated_grid(4, 3)
    rng = np.random.default_rng(31)
    g = sampling.random_unreduced_field(grid, N, rng)
    h = lg.exp(lg.random_skew(N, rng))
    hg = red.UnreducedField(h @ g.values)
    assert abs(hm.trace_action(grid, g) - hm.trace_action(grid, hg)) <= 1e-12


def test_solver_identity_boundary_stops_immediately():
    grid = triangulated_grid(4, 4)
    config = hm.SolverConfig(boundary=hm.identity_boundary(grid, N))
    field, report = hm.solve_unreduced(grid, config)
    assert report.converged and report.iterations == 0
    for g in field.values:
        assert np.array_equal(g, np.eye(N))
    assert report.final_action == pytest.approx(2 * N * 16, abs=1e-12)


def test_solver_reaches_tolerance(solved66):
    report = solved66["report"]
    assert report.converged
    assert report.max_gradient <= 1e-11
    assert report.max_ep_residual <= 1e-8
    assert report.max_constraint_residual <= 1e-12


def test_solver_descent_phase_monotone(solved66):
    objectives = [h["objective"] for h in solved66["report"].history
                  if h["phase"] == "descent"]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))


def test_solver_newton_phase_gradient_monotone(solved66):
    grads = [h["max_gradient"] for h in solved66["report"].history
             if h["phase"] == "newton"]
    assert all(b < a for a, b in zip(grads, grads[1:]))


def test_solver_admissible_even_when_loose():
    grid = triangulated_grid(4, 4)
    boundary = hm.random_boundary(grid, N, seed=3, scale=0.1)
    config = hm.SolverConfig(boundary=boundary, g_tol=5e-2)
    field, report = hm.solve_unreduced(grid, config)
    assert report.max_constraint_residual <= 1e-12


def test_solver_left_invariance():
    grid = triangulated_grid(4, 4)
    boundary = hm.random_boundary(grid, N, seed=4, scale=0.1)
    f1, _ = hm.solve_unreduced(grid, hm.SolverConfig(boundary=boundary, g_tol=1e-11))
    h = lg.exp(lg.random_skew(N, np.random.default_rng(5)))
    shifted = red.UnreducedField(h @ boundary.values)
    f2, _ = hm.solve_unreduced(grid, hm.SolverConfig(boundary=shifted, g_tol=1e-11))
    y1 = red.reduce_field(grid, f1)
    y2 = red.reduce_field(grid, f2)
    worst = np.linalg.norm(y1.values - y2.values, axis=(-2, -1)).max()
    assert worst <= 1e-10


def test_solver_runs_out_of_budget():
    grid = triangulated_grid(4, 4)
    boundary = hm.random_boundary(grid, N, seed=6, scale=0.1)
    config = hm.SolverConfig(boundary=boundary, g_tol=1e-13, max_iterations=2)
    with pytest.raises(ConvergenceError) as err:
        hm.solve_unreduced(grid, config)
    assert err.value.history


def test_nan_gradient_is_not_convergence(tmp_path, monkeypatch):
    """A NaN gradient block counts as the largest, so the solve fails (exit 1
    from the CLI, with its history) instead of reading as converged: with the
    identity boundary every other block is exactly zero."""
    exact = hm._interior_gradients

    def one_nan(g):
        grads, _ = exact(g)
        grads = grads.copy()
        grads[0, 0, 0, 1], grads[0, 0, 1, 0] = np.nan, -np.nan
        return grads, lg.block_norms(grads)

    monkeypatch.setattr(hm, "_interior_gradients", one_nan)
    grid = triangulated_grid(3, 3)
    with pytest.raises(ConvergenceError) as err:
        hm.solve_unreduced(grid, hm.SolverConfig(boundary=hm.identity_boundary(grid, N)))
    assert np.isnan(err.value.history[0]["max_gradient"])
    out = tmp_path / "run"
    assert main(["solve", "--boundary", "identity", "--width", "3", "--height", "3",
                 "--out", str(out)]) == 1
    assert "converged=False" in (out / "solve_report.txt").read_text()
    assert len((out / "history.csv").read_text().splitlines()) >= 2


@pytest.mark.parametrize("width,height", [(1, 1), (1, 3), (3, 1)])
def test_solver_window_without_interior(width, height):
    grid = triangulated_grid(width, height)
    boundary = hm.random_boundary(grid, N, seed=19, scale=0.5)
    field, report = hm.solve_unreduced(grid, hm.SolverConfig(boundary=boundary))
    assert report.converged and report.iterations == 0
    assert len(report.history) == 1 and report.per_vertex_ep.size == 0
    assert field.values.shape == (len(grid.vertices), N, N)


def test_solver_rejects_wrong_shape_boundary():
    """The boundary, and a warm start, need one n x n block per window vertex."""
    grid = triangulated_grid(3, 3)
    short = hm.identity_boundary(triangulated_grid(3, 2), N)
    with pytest.raises(ValueError, match=r"boundary has shape \(12, 3, 3\)"):
        hm.solve_unreduced(grid, hm.SolverConfig(boundary=short))
    other_n = hm.identity_boundary(grid, N + 1)
    config = hm.SolverConfig(boundary=hm.identity_boundary(grid, N),
                             initializer=other_n)
    with pytest.raises(ValueError, match=r"initializer has shape \(16, 4, 4\)"):
        hm.solve_unreduced(grid, config)


@pytest.mark.parametrize("block,message", [
    (np.diag([1.0, -1.0, 1.0]), "matrix 5 is in the reflection component"),
    (np.eye(N) + 1e-3, "matrix 5 is .* from orthogonal"),
    (np.full((N, N), np.inf), "matrix 5 has non-finite entries"),
])
def test_solver_rejects_non_group_boundary(block, message):
    """Boundary blocks pass ``group_array`` where the configuration is made;
    the interior ones count too, though the solver overwrites them."""
    grid = triangulated_grid(3, 3)
    values = hm.identity_boundary(grid, N).values.copy()
    values[5] = block
    with pytest.raises(ValueError, match=message):
        hm.SolverConfig(boundary=red.UnreducedField(values))


def test_solver_rejects_non_finite_warm_start():
    """A warm start with one NaN interior block is malformed input: it raises
    ValueError where the configuration is made (exit 2 from the CLI), not a
    ConvergenceError after the descent rejected every trial."""
    grid = triangulated_grid(6, 6)
    boundary = hm.random_boundary(grid, 3, 152, 3.0)
    field, _ = hm.solve_unreduced(grid, hm.SolverConfig(boundary=boundary))
    vertex = grid.vertex_id(3, 2)
    values = field.values.copy()
    values[vertex] = np.nan
    with pytest.raises(ValueError, match=f"matrix {vertex} has non-finite"):
        hm.SolverConfig(boundary=boundary, initializer=red.UnreducedField(values))


def test_solver_config_keeps_clean_fields():
    """Checked boundary and warm-start arrays pass the configuration
    unchanged, so a warm start from a solver output is bit-identical."""
    grid = triangulated_grid(6, 6)
    boundary = hm.random_boundary(grid, 3, 152, 3.0)
    field, _ = hm.solve_unreduced(grid, hm.SolverConfig(boundary=boundary))
    config = hm.SolverConfig(boundary=boundary, initializer=field)
    assert config.boundary.values is boundary.values
    assert config.initializer.values is field.values
    warm, _ = hm.solve_unreduced(grid, config)
    assert warm.values.tobytes() == field.values.tobytes()


def test_conjugation_field_zero_generator(solved66):
    d = hm.conjugation_symmetry_field(solved66["y"], np.zeros((N, N)))
    assert np.all(d.values == 0.0)


def test_conjugation_field_is_symmetry(solved66):
    grid, y = solved66["grid"], solved66["y"]
    xi = lg.random_skew(N, np.random.default_rng(7))
    d = hm.conjugation_symmetry_field(y, xi)
    lagrangian = solved66["lagrangian"]
    fs = grid.full_faceset()
    # trace derivative along the field is a commutator trace, exactly zero
    for f in sorted(fs.faces):
        jets = core.jet_at(y, grid, [f])
        dl = sum(core.apply_differential(
            lagrangian.vertex_differential(grid, jets, slot)[0], d.values[v])
            for slot, v in enumerate(grid.adherence(f)))
        assert abs(dl) <= 1e-13
    dpsi = core.constraint_derivative(red.PlaquetteConstraint(N), y, d, fs)
    assert max(np.linalg.norm(a) for a in dpsi) <= 1e-12


def test_noether_scenario(solved66):
    xi = lg.random_skew(N, np.random.default_rng(8))
    scenario = hm.run_noether_scenario(solved66["grid"], solved66["config"], xi)
    assert scenario.passed
    assert abs(scenario.boundary_sum) <= scenario.threshold
    assert scenario.noether.symmetry_ok


def test_noether_scenario_negative_control(solved66):
    xi = lg.random_skew(N, np.random.default_rng(9))
    bad = sampling.random_variation(solved66["grid"], N, np.random.default_rng(10))
    scenario = hm.run_noether_scenario(solved66["grid"], solved66["config"], xi,
                                       symmetry_field=bad)
    assert not scenario.passed
    assert abs(scenario.boundary_sum) > 1e-3


def test_multisymplectic_scenario(solved66):
    grid = solved66["grid"]
    frontier = sorted(classify_vertices(grid, grid.full_faceset()).frontier)
    rng = np.random.default_rng(11)
    bump1 = {frontier[5]: lg.random_skew(N, rng)}
    bump2 = {frontier[14]: lg.random_skew(N, rng)}
    scenario = hm.run_multisymplectic_scenario(grid, solved66["config"],
                                               bump1, bump2)
    assert scenario.passed
    assert scenario.jacobi_residual_1 <= 1e-4
    assert scenario.jacobi_residual_2 <= 1e-4
    assert abs(scenario.defect) <= 1e-4
    assert abs(scenario.defect + scenario.defect_swapped) <= 1e-12
    assert scenario.defect_repeated == 0.0


def test_extended_residual_small_on_critical_pair(solved66):
    grid = solved66["grid"]
    fs = grid.full_faceset()
    worst = max(core.extended_residual(solved66["lagrangian"],
                                       red.PlaquetteConstraint(N), solved66["y"],
                                       solved66["lam"], fs, v).norm
                for v in classify_vertices(grid, fs).interior)
    assert worst <= 1e-8


def test_jacobi_residual_negative_control(solved66):
    grid = solved66["grid"]
    rng = np.random.default_rng(30)
    dy = sampling.random_variation(grid, N, rng)
    dlam = sampling.random_multiplier(grid, N, rng)
    value = core.jacobi_residual(solved66["lagrangian"],
                                 red.PlaquetteConstraint(N), solved66["y"],
                                 solved66["lam"], dy, dlam,
                                 grid.full_faceset())
    assert value > 1e-2


def test_multisymplectic_bump_must_be_frontier(solved66):
    grid = solved66["grid"]
    rng = np.random.default_rng(12)
    inner = {grid.vertex_id(2, 2): lg.random_skew(N, rng)}
    with pytest.raises(ValueError):
        hm.run_multisymplectic_scenario(grid, solved66["config"], inner, inner)


def test_random_boundary_reproducible():
    grid = triangulated_grid(4, 4)
    b1 = hm.random_boundary(grid, N, seed=13, scale=0.1)
    b2 = hm.random_boundary(grid, N, seed=13, scale=0.1)
    assert b1.values.tobytes() == b2.values.tobytes()
    b3 = hm.random_boundary(grid, N, seed=14, scale=0.1)
    assert not np.array_equal(b1.values, b3.values)


@pytest.mark.parametrize("n", range(2, 7))
def test_random_boundary_is_the_per_vertex_expm_draw(n):
    """One batched draw and one stacked ``lg.exp`` give what a draw and a
    ``scipy.linalg.expm`` call per frontier vertex gave, byte for byte; the
    far corner repeats (W, H-1) and the interior holds the identity, like
    ``identity_boundary``."""
    grid = triangulated_grid(6, 5)
    frontier = sorted(classify_vertices(grid, grid.full_faceset()).frontier)
    interior = sorted(classify_vertices(grid, grid.full_faceset()).interior)
    corner, below = grid.vertex_id(6, 5), grid.vertex_id(6, 4)
    eye = hm.identity_boundary(grid, n).values
    assert eye.shape == (len(grid.vertices), n, n) and np.all(eye == np.eye(n))
    for seed, scale in enumerate((0.0, 0.1, 0.5, 1.0, 2.0, 3.0)):
        got = hm.random_boundary(grid, n, seed, scale).values
        rng = np.random.default_rng(seed)
        for v in frontier:
            want = scipy.linalg.expm(lg.random_skew(n, rng, scale))
            assert got[v].tobytes() == want.tobytes()
        assert got[corner].tobytes() == got[below].tobytes()
        assert np.array_equal(got[interior], eye[interior])


def _array(grid, field):
    return field.values.reshape(grid.height + 1, grid.width + 1,
                                *field.values.shape[1:]).copy()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_interior_gradients_match_ep_defect(n):
    """The batched gradient blocks are minus half the symmetric EP defect,
    and bit for bit the per-vertex products they replace."""
    grid = triangulated_grid(5, 4)
    field = sampling.random_unreduced_field(grid, n, np.random.default_rng(40 + n))
    g = _array(grid, field)
    grads, norms = hm._interior_gradients(g)
    y = red.reduce_field(grid, field)
    assert grads.shape == (grid.height - 1, grid.width - 1, n, n)
    for j in range(1, grid.height):
        for i in range(1, grid.width):
            block = grads[j - 1, i - 1]
            oracle = -hm.ep_symmetric_defect(grid, y, i, j) / 2.0
            assert np.max(np.abs(block - oracle)) <= 1e-14
            c = g[j, i]
            m = c.T @ g[j, i + 1] + c.T @ g[j + 1, i] \
                - g[j, i - 1].T @ c - g[j - 1, i].T @ c
            assert np.array_equal(block, (m.T - m) / 2.0)
            assert norms[j - 1, i - 1] == np.linalg.norm(block)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dirichlet_energy_matches_trace_action(n):
    grid = triangulated_grid(4, 5)
    field = sampling.random_unreduced_field(grid, n, np.random.default_rng(50 + n))
    y = red.reduce_field(grid, field)
    action = core.action(hm.TraceLagrangian(n), y, grid.full_faceset())
    g = _array(grid, field)
    energy = hm.dirichlet_energy(g)
    assert abs(energy - (2 * n * len(grid.faces) - action)) <= 1e-12
    # the running total over faces in id order, term for term
    total = 0.0
    for j in range(grid.height):
        for i in range(grid.width):
            total += 2.0 * n - float(np.vdot(g[j, i], g[j, i + 1])) \
                - float(np.vdot(g[j, i], g[j + 1, i]))
    assert energy == total


def _dense_fd_jacobian(g):
    """Column-by-column central-difference Jacobian of ``hm._residual``.

    The oracle for the closed-form band Jacobian: one vertex and one skew
    direction at a time, 2 * N * d residual evaluations.
    """
    n = g.shape[-1]
    h = 1e-6
    steps = [lg.exp(h * e) for e in lg.skew_basis(n)]
    block = g[1:-1, 1:-1]
    size = hm._residual(g)[0].size
    jac = np.empty((size, size))
    col = 0
    for vertex in np.ndindex(block.shape[:2]):
        center = block[vertex].copy()
        for step in steps:
            block[vertex] = center @ step
            plus = hm._residual(g)[0]
            block[vertex] = center @ step.T
            jac[:, col] = (plus - hm._residual(g)[0]) / (2.0 * h)
            col += 1
        block[vertex] = center
    return jac


def _band_to_dense(ab, bandwidth):
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for r in range(size):
        for c in range(max(0, r - bandwidth), min(size, r + bandwidth + 1)):
            dense[r, c] = ab[bandwidth + r - c, c]
    return dense


JACOBIAN_WINDOWS = [
    # (width, height, n, scale)
    (12, 12, 3, 0.4),
    (2, 8, 3, 0.4),
    (8, 2, 3, 0.4),
    (2, 2, 3, 0.4),
    (2, 2, 2, 0.4),
    (5, 6, 2, 0.4),
    (9, 5, 4, 0.4),
    (7, 4, 5, 0.4),
    (6, 6, 3, 3.0),
]


def _check_band_jacobian(width, height, n, scale, seed):
    """The closed-form band Jacobian agrees with the dense FD Jacobian to
    1e-8, and its band solve agrees with least squares on its dense form."""
    grid = triangulated_grid(width, height)
    rng = np.random.default_rng(seed)
    g = _array(grid, sampling.random_unreduced_field(grid, n, rng, scale))
    before = g.copy()
    ab = hm._band_jacobian(g)
    assert np.array_equal(g, before)
    f0 = hm._residual(g)[0]
    bandwidth = width * (n * (n - 1) // 2) - 1
    assert ab.shape == (2 * bandwidth + 1, f0.size)
    dense = _band_to_dense(ab, bandwidth)
    assert np.max(np.abs(dense - _dense_fd_jacobian(g))) <= 1e-8

    band = scipy.linalg.solve_banded((bandwidth, bandwidth), ab, -f0)
    oracle, *_ = np.linalg.lstsq(dense, -f0, rcond=None)
    assert np.linalg.norm(band - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("width,height,n,scale", JACOBIAN_WINDOWS)
def test_band_jacobian_equals_dense_oracle(width, height, n, scale):
    _check_band_jacobian(width, height, n, scale, 60 + width + 7 * height + n)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(2, 5), st.integers(2, 6), st.integers(2, 6),
       st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
def test_band_jacobian_property(n, width, height, scale, seed):
    _check_band_jacobian(width, height, n, scale, seed)


@pytest.mark.parametrize("n", [2, 3])
def test_newton_residual_evaluations_per_step_do_not_grow(n):
    """Newton costs one gradient evaluation per step plus its rejected
    trials, at 8x8 and at 16x16 alike: the closed-form Jacobian costs none."""
    per_step = []
    for width in (8, 16):
        grid = triangulated_grid(width, width)
        boundary = hm.random_boundary(grid, n, seed=21, scale=0.1)
        _, report = hm.solve_unreduced(grid, hm.SolverConfig(boundary=boundary))
        assert report.converged and report.newton_steps >= 1
        assert report.iterations == report.descent_iterations + report.newton_steps
        # one evaluation at the start and one per accepted descent iterate;
        # the polish re-evaluates its starting point once
        newton = report.residual_evaluations - (report.descent_iterations + 1) - 1
        per_step.append(newton / report.newton_steps)
        assert per_step[-1] <= 8 + 1
    assert per_step[0] == per_step[1] == 1


def test_singular_band_factor_ends_the_polish(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(hm.scipy.linalg, "solve_banded", singular)
    grid = triangulated_grid(6, 6)
    boundary = hm.random_boundary(grid, N, seed=22, scale=0.1)
    with pytest.raises(ConvergenceError) as err:
        hm.solve_unreduced(grid, hm.SolverConfig(boundary=boundary))
    history = err.value.history
    assert history and all(h["phase"] == "descent" for h in history)

    out = tmp_path / "run"
    assert main(["solve", "--width", "6", "--height", "6", "--seed", "22",
                 "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = (out / "history.csv").read_text().splitlines()
    assert rows[0].startswith("iteration,phase") and len(rows) == len(history) + 1


@pytest.mark.parametrize("width", [24, 64])
def test_solver_converges_on_large_windows(width):
    """Windows the dense Jacobian (24x24) and the per-block Pade expm
    retraction (64x64, the north-star size) made impractical; tolerances
    only."""
    grid = triangulated_grid(width, width)
    boundary = hm.random_boundary(grid, N, seed=1, scale=0.1)
    config = hm.SolverConfig(boundary=boundary)
    _, report = hm.solve_unreduced(grid, config)
    assert report.converged
    assert report.max_gradient <= config.g_tol
    assert report.max_ep_residual <= 1e-8
    assert report.max_constraint_residual <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_retract_matches_per_block_expm(n):
    """The batched closed-form retraction is g_ij expm(xi_ij) at every
    interior vertex and leaves the frontier and the input untouched."""
    grid = triangulated_grid(5, 4)
    rng = np.random.default_rng(70 + n)
    g = _array(grid, sampling.random_unreduced_field(grid, n, rng))
    before = g.copy()
    xi = rng.uniform(-1.0, 1.0, g[1:-1, 1:-1].shape)
    xi = xi - xi.swapaxes(-1, -2)
    out = hm._retract(g, xi)
    assert np.array_equal(g, before)
    interior = np.zeros(g.shape[:2], dtype=bool)
    interior[1:-1, 1:-1] = True
    assert np.array_equal(out[~interior], g[~interior])
    for j, i in np.ndindex(xi.shape[:2]):
        oracle = g[j + 1, i + 1] @ scipy.linalg.expm(xi[j, i])
        assert np.max(np.abs(out[j + 1, i + 1] - oracle)) <= 1e-13


# (n, scale, seed, descent iterations, Newton steps) of 6x6 solves, as
# counted with the per-block Pade expm retraction; the closed form must stay
# on the same branch.  The scale-3.0 seeds 168 .. 414, whose recovered
# multiplier system residual is above 1e-10, were counted with the coloured
# finite-difference Newton Jacobian; the closed-form one must keep them.
SAME_BRANCH = [
    (3, 3.0, 152, 1676, 3),
    (3, 3.0, 168, 135, 2), (3, 3.0, 173, 214, 2), (3, 3.0, 318, 219, 2),
    (3, 3.0, 412, 142, 2), (3, 3.0, 414, 289, 2),
    (2, 1.0, 0, 22, 2), (2, 1.0, 1, 37, 2), (2, 1.0, 2, 38, 2),
    (4, 1.0, 0, 43, 2), (4, 1.0, 1, 35, 2), (4, 1.0, 2, 43, 2),
    (5, 1.0, 0, 49, 2), (5, 1.0, 1, 46, 2), (5, 1.0, 2, 47, 2),
]


@pytest.mark.parametrize("n,scale,seed,descent,newton", SAME_BRANCH)
def test_retraction_keeps_the_iteration_counts(monkeypatch, n, scale, seed,
                                               descent, newton):
    """Also the paired Armijo trials against the sequential loop: the same
    field bytes, history and counters."""
    grid = triangulated_grid(6, 6)
    config = hm.SolverConfig(boundary=hm.random_boundary(grid, n, seed, scale))
    field, report = hm.solve_unreduced(grid, config)
    assert report.converged
    assert (report.descent_iterations, report.newton_steps) == (descent, newton)
    g = _array(grid, field)[1:-1, 1:-1]
    defect = np.linalg.norm(g.swapaxes(-1, -2) @ g - np.eye(n), axis=(-2, -1))
    assert defect.max() <= 1e-13

    monkeypatch.setattr(hm, "_descend", _sequential_descent)
    want_field, want = hm.solve_unreduced(grid, config)
    assert field.values.tobytes() == want_field.values.tobytes()
    assert repr(report.history) == repr(want.history)
    counters = ("descent_iterations", "newton_steps", "backtracks",
                "residual_evaluations", "final_energy")
    assert [getattr(report, c) for c in counters] \
        == [getattr(want, c) for c in counters]


def _sequential_descent(g, g_tol, max_iterations):
    """The Armijo loop that tries one step at a time, which the paired
    trials of ``harmonic._descend`` replaced; same returns."""
    energy = hm.dirichlet_energy(g)
    step = hm._STEP_INIT
    iteration = backtracks = 0
    grads, norms = hm._interior_gradients(g)
    evaluations = 1
    worst = lg.max_norm(norms)
    history = [hm._record(0, "descent", g, energy, worst, 0.0)]
    while iteration < max_iterations:
        if worst <= g_tol or worst <= hm._NEWTON_SWITCH:
            break
        iteration += 1
        slope = np.cumsum(norms.ravel() ** 2)[-1]
        for _ in range(hm._MAX_BACKTRACKS):
            trial = hm._retract(g, -step * grads)
            trial_energy = hm.dirichlet_energy(trial)
            if trial_energy <= energy - hm._ARMIJO_C1 * step * slope:
                break
            backtracks += 1
            step *= hm._STEP_SHRINK
        else:
            break
        g, energy = trial, trial_energy
        grads, norms = hm._interior_gradients(g)
        evaluations += 1
        worst = lg.max_norm(norms)
        history.append(hm._record(iteration, "descent", g, energy, worst, step))
        step = min(hm._STEP_INIT, step * hm._STEP_GROW)
    return g, energy, worst, history, iteration, backtracks, evaluations


def _descent_start(grid, n, seed, scale):
    """The field ``solve_unreduced`` descends from: random boundary, whose
    far corner repeats its south neighbour, and blended interior."""
    boundary = hm.random_boundary(grid, n, seed, scale).values
    g = boundary.reshape(grid.height + 1, grid.width + 1, n, n).copy()
    g[1:-1, 1:-1] = hm._blend_initializer(g)
    return g


def _assert_same_descent(g, g_tol, max_iterations):
    """Paired trials and the sequential loop: the same iterate bytes, and the
    same energy, gradient level, history, iterations, rejections and
    gradient evaluations, compared by repr so types count too."""
    got = hm._descend(g.copy(), g_tol, max_iterations)
    want = _sequential_descent(g.copy(), g_tol, max_iterations)
    assert got[0].tobytes() == want[0].tobytes()
    assert repr(got[1:]) == repr(want[1:])
    return got


def _rejections(history):
    """Rejected trials per descent iteration, read off the accepted steps."""
    counts, tried = [], hm._STEP_INIT
    for row in history[1:]:
        counts.append(round(np.log2(tried / row["step"])))
        tried = min(hm._STEP_INIT, hm._STEP_GROW * row["step"])
    return counts


@pytest.mark.parametrize("step_init", [8.0, 64.0])
def test_paired_trials_past_the_first_pair(monkeypatch, step_init):
    """No descent of the 640 rough-pool boundaries rejects more than two
    trials in one iteration, so a larger first step forces the early
    scale-3.0 iterate to: 4 rejections accept the first step of the third
    pair, 7 the second step of the fourth."""
    monkeypatch.setattr(hm, "_STEP_INIT", step_init)
    g = _descent_start(triangulated_grid(6, 6), 3, 152, 3.0)
    _, _, _, history, _, backtracks, _ = _assert_same_descent(g, 1e-10, 8)
    counts = _rejections(history)
    assert counts[0] == int(np.log2(step_init)) + 1 and sum(counts) == backtracks


def _failed_solve_histories(monkeypatch, grid, config):
    """Histories of one failed solve with paired and with sequential trials."""
    histories = []
    for descend in (hm._descend, _sequential_descent):
        monkeypatch.setattr(hm, "_descend", descend)
        with pytest.raises(ConvergenceError) as err:
            hm.solve_unreduced(grid, config)
        histories.append(repr(err.value.history))
    return histories


def test_paired_trials_exhaust_like_the_sequential_loop(monkeypatch):
    """60 rejected trials end the descent.  With finite data they never do:
    the test accepts an unchanged energy, and a small enough step retracts
    to the iterate itself (a run with no Newton switch and g_tol = 0 made
    20 000 iterations without one).  A NaN block makes every trial fail; a
    warm start cannot carry one (the configuration rejects it), so the
    solve gets it from the blend."""
    grid = triangulated_grid(6, 6)
    g = _descent_start(grid, 3, 152, 3.0)
    g[2, 3] = np.nan
    _, _, _, history, iteration, backtracks, _ = _assert_same_descent(g, 1e-10, 8)
    assert (iteration, backtracks, len(history)) == (1, hm._MAX_BACKTRACKS, 1)
    monkeypatch.setattr(hm, "_blend_initializer", lambda _: g[1:-1, 1:-1])
    config = hm.SolverConfig(boundary=hm.random_boundary(grid, 3, 152, 3.0))
    paired, sequential = _failed_solve_histories(monkeypatch, grid, config)
    assert paired == sequential


def test_paired_trials_spend_the_budget_like_the_sequential_loop(monkeypatch):
    grid = triangulated_grid(6, 6)
    g = _descent_start(grid, 3, 152, 3.0)
    *_, iteration, _, _ = _assert_same_descent(g, 1e-10, 5)
    assert iteration == 5
    config = hm.SolverConfig(boundary=hm.random_boundary(grid, 3, 152, 3.0),
                             max_iterations=5)
    paired, sequential = _failed_solve_histories(monkeypatch, grid, config)
    assert paired == sequential


@pytest.mark.parametrize("width,height", [(1, 4), (5, 1)])
def test_paired_trials_without_interior(width, height):
    g = _descent_start(triangulated_grid(width, height), 3, 4, 3.0)
    _, _, worst, history, iteration, backtracks, evaluations = \
        _assert_same_descent(g, 1e-10, 8)
    assert (worst, len(history), iteration, backtracks, evaluations) \
        == (0.0, 1, 0, 0, 1)


def _blend_oracle(g):
    """The per-vertex projection the batched polar factor replaced."""
    height, width = g.shape[0] - 1, g.shape[1] - 1
    s = (np.arange(1, width) / width)[:, None, None]
    t = (np.arange(1, height) / height)[:, None, None, None]
    blend = (
        (1.0 - t) * g[0, 1:-1]
        + t * g[-1, 1:-1]
        + (1.0 - s) * g[1:-1, :1]
        + s * g[1:-1, -1:]
    ) / 2.0
    fallbacks = 0
    for vertex in np.ndindex(blend.shape[:2]):
        try:
            blend[vertex] = lg.project_to_group(blend[vertex])
        except DomainError:
            blend[vertex] = np.eye(g.shape[-1])
            fallbacks += 1
    return blend, fallbacks


# (n, width, scale, boundary seed, vertices where the projection is undefined)
BLENDS = [
    (2, 12, 0.4, 0, 0), (3, 12, 0.4, 1, 0), (5, 12, 0.4, 2, 0),
    (2, 16, 0.4, 3, 0), (3, 16, 0.4, 4, 0), (5, 16, 0.4, 5, 0),
    (3, 6, 3.0, 5, 4), (3, 6, 3.0, 168, 4), (5, 6, 3.0, 168, 7),
]


@pytest.mark.parametrize("n,width,scale,seed,fallbacks", BLENDS)
def test_blend_initializer_matches_per_vertex_projection(n, width, scale, seed,
                                                         fallbacks):
    """The batched SVD polar factor is ``project_to_group`` bit for bit, and
    the identity fallback lands on the same vertices."""
    grid = triangulated_grid(width, width)
    boundary = hm.random_boundary(grid, n, seed=seed, scale=scale).values
    g = boundary.reshape(width + 1, width + 1, n, n).copy()
    expected, count = _blend_oracle(g)
    assert count == fallbacks
    got = hm._blend_initializer(g)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
