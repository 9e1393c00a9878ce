import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from groupvar import core, harmonic as hm, liegroup as lg, reduction as red, sampling
from groupvar.complexes import FaceSet, classify_vertices, triangulated_grid
from groupvar.cli import main
from groupvar.defaults import G_TOL, H_JACOBI
from groupvar.errors import ConvergenceError, DomainError

from ep_oracle import ep_symmetric_defect

N = 3


def test_trace_value_bounds_and_identity():
    grid = triangulated_grid(3, 3)
    lagrangian = hm.TraceLagrangian()
    rng = np.random.default_rng(0)
    y = sampling.random_section(grid, N, rng)
    for f in grid.faces:
        value = lagrangian.value(core.jet_at(y, FaceSet(grid, [f])))[0]
        assert -2 * N <= value <= 2 * N
    y_eye = np.zeros(y.shape) + np.eye(N)
    assert lagrangian.value(core.jet_at(y_eye, FaceSet(grid, [0])))[0] == 2 * N


def _trace_differentials(u, v):
    """Left translated partials of the trace density in u and v, from
    ``TraceLagrangian.vertex_differential``, and their right translates,
    from ``reduction._partials``, on the one face of a 1x1 window."""
    grid = triangulated_grid(1, 1)
    values = np.zeros((len(grid.vertices), 2, N, N)) + np.eye(N)
    values[grid.vertex_id(0, 0)] = u, v
    y = values
    lagrangian = hm.TraceLagrangian()
    left = lagrangian.vertex_differential(core.jet_at(y, FaceSet(grid, [0])))[0, 0]
    mu, right = red._partials(lagrangian, red._on_window(grid, y))
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
    y = np.zeros((len(grid.vertices), 2, N, N)) + np.eye(N)
    assert np.array_equal(ep_symmetric_defect(grid, y, 1, 1), np.zeros((N, N)))
    with pytest.raises(ValueError):
        ep_symmetric_defect(grid, y, 0, 1)


@pytest.mark.parametrize("seed", range(4))
def test_two_path_ep_agreement(seed):
    grid = triangulated_grid(4, 4)
    rng = np.random.default_rng(seed)
    y = sampling.random_section(grid, N, rng)
    lagrangian = hm.TraceLagrangian()
    klass = classify_vertices(grid.full_faceset())
    residual = red.euler_poincare_residual(lagrangian, grid, y)
    for v in sorted(klass.interior):
        i, j = grid.vertex_ij(v)
        sym = ep_symmetric_defect(grid, y, i, j)
        general = residual[j - 1, i - 1]
        assert np.linalg.norm(sym - (-2.0) * general) <= 1e-12


def test_action_invariant_under_constant_left_translation():
    """The trace action is 2n per face minus the Dirichlet energy."""
    grid = triangulated_grid(4, 3)
    rng = np.random.default_rng(31)
    g = sampling.random_unreduced_field(grid, N, rng)
    h = lg.exp(lg.random_skew(N, rng))
    hg = h @ g
    assert abs(hm.dirichlet_energy(_array(grid, g))
               - hm.dirichlet_energy(_array(grid, hg))) <= 1e-12


def test_solver_identity_boundary_stops_immediately():
    grid = triangulated_grid(4, 4)
    field, report = hm.solve_unreduced(grid, hm.identity_boundary(grid, N))
    assert report.iterations == 0
    for g in field:
        assert np.array_equal(g, np.eye(N))
    assert report.final_action == pytest.approx(2 * N * 16, abs=1e-12)


def test_solver_reaches_tolerance(solved66):
    report = solved66["report"]
    assert report.max_gradient <= 1e-11
    assert report.max_ep_residual <= 1e-8
    assert report.max_constraint_residual <= 1e-12


def _energy_never_rises(history):
    """The trust-region invariant: an accepted step raises the energy by
    less than the round-off offset 1e3 eps max(1, |E|) of its test."""
    objectives = [h["objective"] for h in history]
    return all(b <= a + 1e3 * np.finfo(float).eps * max(1.0, abs(a))
               for a, b in zip(objectives, objectives[1:]))


def test_solver_descent_phase_monotone(solved66):
    history = solved66["report"].history
    assert history[0]["phase"] == "start"
    assert all(h["phase"] == "newton" for h in history[1:])
    assert _energy_never_rises(history)


def test_solver_newton_phase_gradient_monotone(solved66):
    """Not enforced by the trust region; on this smooth boundary every step
    is a full Newton step, so the gradient falls at every one."""
    grads = [h["max_gradient"] for h in solved66["report"].history]
    assert all(b < a for a, b in zip(grads, grads[1:]))


@pytest.mark.parametrize("width,height,n,scale", [
    pytest.param(6, 6, 3, 0.1, id="6x6-dense"),
    pytest.param(12, 12, 3, 0.1, id="12x12-stacked"),
    pytest.param(9, 9, 5, 0.3, id="9x9-so5-stacked"),
    pytest.param(6, 6, 2, 1.0, id="6x6-so2"),
    pytest.param(1, 5, 3, 0.5, id="1x5-no-interior"),
    pytest.param(2, 1, 3, 0.5, id="2x1-no-interior")])
def test_report_section_is_the_reduced_field(width, height, n, scale):
    """The section the solver's last gradient read, kept in the report, is
    ``reduce_field`` of the returned field bit for bit, and read-only."""
    grid = triangulated_grid(width, height)
    field, report = hm.solve_unreduced(grid, hm.random_boundary(grid, n, 2, scale))
    assert report.section.tobytes() == red.reduce_field(grid, field).tobytes()
    assert report.section.shape == (len(grid.vertices), 2, n, n)
    assert not report.section.flags.writeable


def test_solver_admissible_even_when_loose():
    grid = triangulated_grid(4, 4)
    boundary = hm.random_boundary(grid, N, seed=3, scale=0.1)
    field, report = hm.solve_unreduced(grid, boundary, g_tol=5e-2)
    assert report.max_constraint_residual <= 1e-12


def test_solver_left_invariance():
    grid = triangulated_grid(4, 4)
    boundary = hm.random_boundary(grid, N, seed=4, scale=0.1)
    f1, _ = hm.solve_unreduced(grid, boundary, g_tol=1e-11)
    h = lg.exp(lg.random_skew(N, np.random.default_rng(5)))
    shifted = h @ boundary
    f2, _ = hm.solve_unreduced(grid, shifted, g_tol=1e-11)
    y1 = red.reduce_field(grid, f1)
    y2 = red.reduce_field(grid, f2)
    worst = np.linalg.norm(y1 - y2, axis=(-2, -1)).max()
    assert worst <= 1e-10


def test_solver_gives_up_below_round_off():
    """A target below round-off ends in ConvergenceError once a step with a
    round-off model decrease no longer lowers the gradient, long before the
    budget runs out."""
    grid = triangulated_grid(8, 8)
    boundary = hm.random_boundary(grid, N, seed=6, scale=0.1)
    with pytest.raises(ConvergenceError) as err:
        hm.solve_unreduced(grid, boundary, g_tol=1e-300)
    history = err.value.history
    assert len(history) < 20 and history[-1]["max_gradient"] <= 1e-14


def test_solver_runs_out_of_budget():
    grid = triangulated_grid(4, 4)
    boundary = hm.random_boundary(grid, N, seed=6, scale=0.1)
    with pytest.raises(ConvergenceError) as err:
        hm.solve_unreduced(grid, boundary, g_tol=1e-13, max_iterations=2)
    assert err.value.history


def test_nan_gradient_is_not_convergence(tmp_path, monkeypatch):
    """A NaN gradient block counts as the largest, so the solve fails (exit 1
    from the CLI, with its history) instead of reading as converged: with the
    identity boundary every other block is exactly zero."""
    exact = hm._interior_gradients

    def one_nan(p):
        grads = exact(p)[0].copy()
        grads[0, 0, 0, 1], grads[0, 0, 1, 0] = np.nan, -np.nan
        return grads, lg.block_norms(grads)

    monkeypatch.setattr(hm, "_interior_gradients", one_nan)
    grid = triangulated_grid(3, 3)
    with pytest.raises(ConvergenceError) as err:
        hm.solve_unreduced(grid, hm.identity_boundary(grid, N))
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
    field, report = hm.solve_unreduced(grid, boundary)
    assert report.iterations == 0
    assert len(report.history) == 1 and report.max_ep_residual == 0.0
    assert field.shape == (len(grid.vertices), N, N)


def test_solver_rejects_wrong_shape_boundary():
    """The boundary needs one n x n block per window vertex."""
    grid = triangulated_grid(3, 3)
    short = hm.identity_boundary(triangulated_grid(3, 2), N)
    with pytest.raises(ValueError, match=r"boundary has shape \(12, 3, 3\)"):
        hm.solve_unreduced(grid, short)


@pytest.mark.parametrize("block,message", [
    (np.diag([1.0, -1.0, 1.0]), "matrix 5 is in the reflection component"),
    (np.eye(N) + 1e-3, "matrix 5 is .* from orthogonal"),
    (np.full((N, N), np.inf), "matrix 5 has non-finite entries"),
])
def test_solver_rejects_non_group_boundary(block, message):
    """Boundary blocks pass ``group_array`` when the solve starts; the
    interior ones count too, though the solver overwrites them."""
    grid = triangulated_grid(3, 3)
    values = hm.identity_boundary(grid, N).copy()
    values[5] = block
    with pytest.raises(ValueError, match=message):
        hm.solve_unreduced(grid, values)


def test_solver_config_keeps_clean_fields(monkeypatch):
    """The solver's entry check passes an already checked boundary array
    unchanged: ``group_array`` returns the array itself."""
    grid = triangulated_grid(6, 6)
    boundary = hm.random_boundary(grid, 3, 152, 3.0)
    checked = []
    monkeypatch.setattr(hm, "group_array",
                        lambda m: checked.append(lg.group_array(m)) or checked[-1])
    hm.solve_unreduced(grid, boundary)
    assert len(checked) == 1 and checked[0] is boundary


def test_conjugation_field_zero_generator(solved66):
    d = hm.conjugation_symmetry_field(solved66["y"], np.zeros((N, N)))
    assert np.all(d == 0.0)


def test_conjugation_field_is_symmetry(solved66):
    grid, y = solved66["grid"], solved66["y"]
    xi = lg.random_skew(N, np.random.default_rng(7))
    d = hm.conjugation_symmetry_field(y, xi)
    lagrangian = solved66["lagrangian"]
    fs = grid.full_faceset()
    # trace derivative along the field is a commutator trace, exactly zero
    for f in fs.face_ids.tolist():
        jets = core.jet_at(y, FaceSet(grid, [f]))
        theta = lagrangian.vertex_differential(jets)[0]
        dl = sum(core.apply_differential(theta[slot], d[v])
                 for slot, v in enumerate(grid.adherence(f)))
        assert abs(dl) <= 1e-13
    dpsi = core.constraint_derivative(red.PlaquetteConstraint(), y, d, fs)
    assert max(np.linalg.norm(a) for a in dpsi) <= 1e-12


def _noether(solved66, d):
    """The report of ``verify noether``: ``noether_boundary_sum`` of the trace
    density and the plaquette constraint along the solved pair, on ``d``."""
    return core.noether_boundary_sum(solved66["lagrangian"], red.PlaquetteConstraint(),
                                     solved66["y"], solved66["lam"], d,
                                     solved66["grid"].full_faceset())


def _noether_passes(solved66, noether):
    """The gate of ``verify noether``: the symmetry holds and the sum is
    within 1e-8 (1 + |action|)."""
    threshold = 1e-8 * (1.0 + abs(solved66["report"].final_action))
    return noether.symmetry_ok and abs(noether.boundary_sum) <= threshold


def _multisymplectic_passes(values):
    """The gate of ``verify multisymplectic``: both Jacobi residuals and the
    two-form defect at most 1e-4 in magnitude."""
    jr1, jr2, defect = values
    return jr1 <= 1e-4 and jr2 <= 1e-4 and abs(defect) <= 1e-4


def test_noether_scenario(solved66):
    xi = lg.random_skew(N, np.random.default_rng(8))
    d = hm.conjugation_symmetry_field(solved66["y"], xi)
    noether = _noether(solved66, d)
    assert _noether_passes(solved66, noether)
    assert noether.symmetry_ok


def test_noether_scenario_negative_control(solved66):
    xi = lg.random_skew(N, np.random.default_rng(9))
    bad = sampling.random_variation(solved66["grid"], N, np.random.default_rng(10))
    noether = _noether(solved66, bad)
    assert not _noether_passes(solved66, noether)
    assert abs(noether.boundary_sum) > 1e-3


def test_multisymplectic_scenario(solved66):
    grid = solved66["grid"]
    frontier = sorted(classify_vertices(grid.full_faceset()).frontier)
    rng = np.random.default_rng(11)
    bump1 = {frontier[5]: lg.random_skew(N, rng)}
    bump2 = {frontier[14]: lg.random_skew(N, rng)}
    assert _multisymplectic_passes(hm.run_multisymplectic_scenario(
        grid, solved66["field"], solved66["y"], solved66["lam"], bump1, bump2))


def test_extended_residual_small_on_critical_pair(solved66):
    grid = solved66["grid"]
    fs = grid.full_faceset()
    res = core.extended_residual(solved66["lagrangian"], red.PlaquetteConstraint(),
                                 solved66["y"], solved66["lam"], fs)
    assert len(res) == len(classify_vertices(fs).interior)
    coords = 2.0 * lg.skew_to_coords(res)
    worst = max(np.linalg.norm(coords.reshape(len(res), -1), axis=1))
    assert worst <= 1e-8


def test_jacobi_residual_negative_control(solved66):
    grid = solved66["grid"]
    rng = np.random.default_rng(30)
    dy = sampling.random_variation(grid, N, rng)
    dlam = sampling.random_multiplier(grid, N, rng)
    value = core.jacobi_residual(solved66["lagrangian"],
                                 red.PlaquetteConstraint(), solved66["y"],
                                 solved66["lam"], dy, dlam,
                                 grid.full_faceset())
    assert value > 1e-2


def test_multisymplectic_bump_must_be_frontier(solved66):
    grid = solved66["grid"]
    rng = np.random.default_rng(12)
    inner = {grid.vertex_id(2, 2): lg.random_skew(N, rng)}
    with pytest.raises(ValueError):
        hm.run_multisymplectic_scenario(grid, solved66["field"], solved66["y"],
                                        solved66["lam"], inner, inner)
    # one check for the whole bump names its first non-frontier vertex
    frontier = classify_vertices(grid.full_faceset()).frontier
    mixed = {int(frontier[3]): lg.random_skew(N, rng), **inner}
    with pytest.raises(ValueError, match=f"bump vertex {grid.vertex_id(2, 2)} is not"):
        hm.run_multisymplectic_scenario(grid, solved66["field"], solved66["y"],
                                        solved66["lam"], mixed, mixed)


def test_multisymplectic_scenario_checks_no_derived_field(solved66, monkeypatch):
    """The Jacobi fields and the flowed sections derive from the base
    solution as it is: no group membership check after the boundary's."""
    grid = solved66["grid"]
    frontier = sorted(classify_vertices(grid.full_faceset()).frontier)
    rng = np.random.default_rng(13)
    bump1 = {frontier[2]: lg.random_skew(N, rng)}
    bump2 = {frontier[9]: lg.random_skew(N, rng)}
    checked = []
    monkeypatch.setattr(hm, "group_array",
                        lambda m: checked.append(m) or lg.group_array(m))
    assert _multisymplectic_passes(hm.run_multisymplectic_scenario(
        grid, solved66["field"], solved66["y"], solved66["lam"], bump1, bump2))
    assert checked == []


def zero_seed_multiplier(grid, field):
    """The multiplier recovered from the zero seed along the section of a
    solved field, as ``verify`` recovers it."""
    n = field.shape[-1]
    return red.recover_multipliers(hm.TraceLagrangian(), grid,
                                   red.reduce_field(grid, field), np.zeros((n, n)))[0]


def _verify_multisymplectic(tmp_path, n, seed, *extra):
    """Exit code and report values of ``verify multisymplectic``."""
    code = main(["verify", "multisymplectic", "--n", str(n), "--seed", str(seed),
                 *extra, "--out", str(tmp_path)])
    path = tmp_path / "verify_multisymplectic.txt"
    lines = path.read_text().splitlines() if path.exists() else []
    return code, dict(line.split("=", 1) for line in lines)


@pytest.mark.parametrize("n,seed", [(3, 31), (4, 24), (5, 5), (5, 13)])
def test_rough_multisymplectic_seeds_pass(tmp_path, n, seed):
    """Rough 6x6 boundaries (scale 3.0) whose difference-quotient Jacobi
    fields read residuals of 1e-4 to 8e-4 pass with the linearised ones.
    At seed 13 full recoveries at the flowed sections disagree along their
    sweep paths by 1.03e-9, beyond the default 1e-9; the suite's dlam is
    one linear sweep at the base section, which compares no paths."""
    code, report = _verify_multisymplectic(tmp_path, n, seed, "--scale", "3.0")
    assert code == 0 and report["passed"] == "True"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_multisymplectic_suite_is_exact_to_rounding(tmp_path, n):
    """At the defaults (6x6, scale 0.1, seed 7) both Jacobi residuals are
    below 1e-9 and the two-form defect below 1e-10 in magnitude: what is
    left is the central differences of the check, not the fields."""
    code, report = _verify_multisymplectic(tmp_path, n, 7)
    assert code == 0
    assert float(report["jacobi_residual_1"]) <= 1e-9
    assert float(report["jacobi_residual_2"]) <= 1e-9
    assert abs(float(report["two_form_defect"])) <= 1e-10
    assert report["threshold"] == "0.0001"


def test_multisymplectic_scenario_runs_one_newton_solve(tmp_path, monkeypatch):
    """The base solve is the only trust-region Newton run of ``verify
    multisymplectic``: the scenario takes the solved field."""
    calls = []
    polish = hm._newton_polish
    monkeypatch.setattr(hm, "_newton_polish",
                        lambda *args: calls.append(1) or polish(*args))
    assert _verify_multisymplectic(tmp_path, 3, 14)[0] == 0
    assert calls == [1]


def test_corner_bump_moves_no_interior_vertex(solved66):
    """The origin corner neighbours no interior vertex, so its bump leaves
    every gradient block unchanged: the CG gets a zero right side, and the
    Jacobi gauge is the bump alone.  The scenario on it still passes."""
    grid = solved66["grid"]
    corner = grid.vertex_id(0, 0)
    eta = lg.random_skew(N, np.random.default_rng(15))
    g = _array(grid, solved66["field"])
    theta, = hm._jacobi_gauges(grid, g, solved66["y"], [{corner: eta}])
    assert np.array_equal(theta[corner], eta)
    assert not np.delete(theta, corner, axis=0).any()
    frontier = classify_vertices(grid.full_faceset()).frontier
    other = {int(frontier[6]): lg.random_skew(N, np.random.default_rng(16))}
    assert _multisymplectic_passes(hm.run_multisymplectic_scenario(
        grid, solved66["field"], solved66["y"], solved66["lam"], {corner: eta}, other))


def test_nonpositive_curvature_fails_the_suite(tmp_path, monkeypatch, capsys):
    """A Jacobi solve whose model product is negative definite meets
    nonpositive curvature at once: the base solution would be no strict
    minimum, so the suite exits 1 and says why.  The base solve keeps the
    true operators."""
    gauges, model = hm._jacobi_gauges, hm._model

    def negated(shape):
        operators = model(shape)

        def at(y):
            product, *rest = operators(y)
            return (lambda v: -product(v)), *rest
        return at

    def saddle_gauges(*args):
        monkeypatch.setattr(hm, "_model", negated)
        return gauges(*args)

    monkeypatch.setattr(hm, "_jacobi_gauges", saddle_gauges)
    code, report = _verify_multisymplectic(tmp_path, 3, 7)
    assert code == 1
    err = capsys.readouterr().err
    assert "nonpositive curvature" in err
    # the failed suite still writes its report, with the error in it
    assert report == {"suite": "multisymplectic", "seed": "7", "passed": "False",
                      "error": err.strip().removeprefix("groupvar: ")}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jacobi_fields_match_the_bumped_solves(monkeypatch, n):
    """The earlier construction as the oracle: a Newton solve on each
    bumped boundary g_b exp(h eta), warm-started from the base field, with
    d = log(y0^T y1) / h and dlam = (lam1 - lam0) / h.  Its O(h) quotients
    agree with the linearised fields to 1e-4 relative."""
    grid = triangulated_grid(6, 6)
    field, solved = hm.solve_unreduced(grid, hm.random_boundary(grid, n, 7, 0.1),
                                       g_tol=1e-11)
    frontier = classify_vertices(grid.full_faceset()).frontier
    rng = np.random.default_rng(20 + n)
    bumps = [{int(frontier[p]): lg.random_skew(n, rng)}
             for p in rng.choice(len(frontier), size=2, replace=False)]
    exact, seen = hm.multisymplectic_check, []
    monkeypatch.setattr(hm, "multisymplectic_check",
                        lambda *args: seen.append(args) or exact(*args))
    assert _multisymplectic_passes(hm.run_multisymplectic_scenario(
        grid, field, solved.section, zero_seed_multiplier(grid, field), *bumps))
    lagrangian, _, y0, lam0, d1, dl1, d2, dl2, _ = seen.pop()
    step = H_JACOBI
    zero = np.zeros((n, n))
    for bump, d, dlam in zip(bumps, (d1, d2), (dl1, dl2)):
        g = _array(grid, field).copy()
        blocks = g.reshape(-1, n, n)
        for vid, eta in bump.items():
            blocks[vid] = blocks[vid] @ lg.exp(step * eta)
        g1 = hm._newton_polish(grid, g, 1e-11, 5000)[0]
        y1 = red.reduce_field(grid, g1.reshape(-1, n, n))
        lam1, _ = red.recover_multipliers(lagrangian, grid, y1, zero)
        quotient = lg.log_near_identity(y0.swapaxes(-1, -2) @ y1) / step
        assert np.linalg.norm(quotient - d) <= 1e-4 * np.linalg.norm(d)
        assert np.linalg.norm((lam1 - lam0) / step - dlam) \
            <= 1e-4 * np.linalg.norm(dlam)


def recovered_dlam(grid, g, theta):
    """The earlier dlam, kept as the oracle: the central difference (step
    ``H_JACOBI``) of two zero-seed recoveries at the flowed sections
    g exp(+-h theta).  Those are critical only to O(h^2), so the recoveries
    run at ``ep_tol`` and ``cons_tol`` 1e-6."""
    n = g.shape[-1]
    plus, minus = (red.recover_multipliers(
        hm.TraceLagrangian(), grid, red.reduce_field(grid, g @ lg.exp_skew(t * theta)),
        np.zeros((n, n)), ep_tol=1e-6, cons_tol=1e-6)[0] for t in (H_JACOBI, -H_JACOBI))
    return (plus - minus) / (2.0 * H_JACOBI)


@pytest.mark.parametrize("n,seed,scale,tol", [
    (2, 7, "0.1", 1e-10), (3, 7, "0.1", 1e-10), (4, 7, "0.1", 1e-10),
    (5, 7, "0.1", 1e-10), (5, 13, "3.0", 1e-9)])
def test_swept_dlam_matches_the_recovered_difference(tmp_path, monkeypatch, n, seed,
                                                     scale, tol):
    """The linearised multiplier of the scenario against the difference of
    two full recoveries, relative in the Frobenius norm: measured at most
    3e-11 on the smooth 6x6 windows (seed 7, scale 0.1) and 2.7e-10 on the
    rough one (seed 13, scale 3.0), whose flowed recoveries disagree along
    their sweep paths by about 1e-9."""
    gauges, check = hm._jacobi_gauges, hm.multisymplectic_check
    thetas, seen = [], []

    def spy(grid, g, y, bumps):
        for theta in gauges(grid, g, y, bumps):
            thetas.append((g.reshape(-1, n, n), theta))
            yield theta

    monkeypatch.setattr(hm, "_jacobi_gauges", spy)
    monkeypatch.setattr(hm, "multisymplectic_check",
                        lambda *args: seen.append(args) or check(*args))
    code, _ = _verify_multisymplectic(tmp_path, n, seed, "--scale", scale)
    assert code == 0
    grid = triangulated_grid(6, 6)
    for (g, theta), dlam in zip(thetas, seen[0][5:8:2], strict=True):
        oracle = recovered_dlam(grid, g, theta)
        assert np.linalg.norm(dlam - oracle) <= tol * np.linalg.norm(oracle)


def test_verify_multisymplectic_runs_one_recovery(tmp_path, monkeypatch):
    """The base multiplier is the suite's only recovery; each dlam is one
    linear sweep."""
    calls, exact = [], red.recover_multipliers
    monkeypatch.setattr(red, "recover_multipliers",
                        lambda *args, **kw: calls.append(1) or exact(*args, **kw))
    assert _verify_multisymplectic(tmp_path, 3, 7)[0] == 0
    assert calls == [1]


# The scenario's earlier arithmetic, one point at a time: two jacobi_residual
# calls, each two extended_residual calls at the flowed points, and one
# multisymplectic_defect call, each omega a one-instance frontier sum.


def flowed_multiplier(lam, dlam, t):
    return lam + t * dlam


def oracle_jacobi(lagrangian, constraint, y, lam, dy, dlam, fs):
    step = H_JACOBI
    plus, minus = ((2.0 * lg.skew_to_coords(core.extended_residual(
        lagrangian, constraint, core.section_exp(y, dy, t),
        flowed_multiplier(lam, dlam, t), fs))).ravel() for t in (step, -step))
    return float(np.linalg.norm((plus - minus) / (2.0 * step)))


def oracle_two_form(lagrangian, constraint, y, lam, d1, dl1, d2, dl2, fs):
    step = H_JACOBI

    def omega(y, lam, probe):
        return core.noether_boundary_sum(lagrangian, constraint, y, lam, probe,
                                         fs).boundary_sum

    def flowed(d, dl, t, probe):
        return omega(core.section_exp(y, d, t), flowed_multiplier(lam, dl, t), probe)

    x_of_y = (flowed(d1, dl1, step, d2) - flowed(d1, dl1, -step, d2)) / (2.0 * step)
    y_of_x = (flowed(d2, dl2, step, d1) - flowed(d2, dl2, -step, d1)) / (2.0 * step)
    bracket = lg.skew_part(d1 @ d2 - d2 @ d1)
    return float(x_of_y - y_of_x - omega(y, lam, bracket))


def oracle_scenario_values(lagrangian, constraint, y, lam, d1, dl1, d2, dl2, fs):
    base = (lagrangian, constraint, y, lam)
    return (oracle_jacobi(*base, d1, dl1, fs),
            oracle_jacobi(*base, d2, dl2, fs),
            oracle_two_form(*base, d1, dl1, d2, dl2, fs))


def same_bits(got, want):
    return np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("width, height", [(6, 6), (5, 4), (9, 7)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_multisymplectic_check_matches_the_per_call_scenario(monkeypatch, n,
                                                             width, height):
    """The scenario's three values, from one pass over its five points,
    equal the earlier two Jacobi calls and one two-form call bit for bit, at
    scale 1.0 with two bump pairs; so do jacobi_residual and
    multisymplectic_defect on the same fields."""
    grid = triangulated_grid(width, height)
    field, solved = hm.solve_unreduced(grid, hm.random_boundary(grid, n, n, 1.0),
                                       g_tol=1e-11)
    frontier = classify_vertices(grid.full_faceset()).frontier
    lam = zero_seed_multiplier(grid, field)
    exact, seen = hm.multisymplectic_check, []

    def recorded(*args):
        seen.append(args)
        return exact(*args)

    monkeypatch.setattr(hm, "multisymplectic_check", recorded)
    rng = np.random.default_rng(10 * width + height)
    for _ in range(2):
        bumps = [{int(frontier[p]): lg.random_skew(n, rng)}
                 for p in rng.choice(len(frontier), size=2, replace=False)]
        got = hm.run_multisymplectic_scenario(grid, field, solved.section, lam, *bumps)
        args = seen.pop()
        want = oracle_scenario_values(*args)
        assert same_bits(got, want)
        lagrangian, constraint, y, lam, d1, dl1, d2, dl2, fs = args
        assert same_bits(
            (core.jacobi_residual(lagrangian, constraint, y, lam, d1, dl1, fs),
             core.jacobi_residual(lagrangian, constraint, y, lam, d2, dl2, fs),
             core.multisymplectic_defect(*args)), want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_multisymplectic_check_matches_the_oracles_off_critical(n):
    """Arbitrary sections, multipliers and fields, on the full face set and
    on a proper subset: the three values still equal the oracles bit for
    bit."""
    grid = triangulated_grid(4, 3)
    rng = np.random.default_rng(40 + n)
    lagrangian, constraint = hm.TraceLagrangian(), red.PlaquetteConstraint()
    y = sampling.random_section(grid, n, rng)
    lam = sampling.random_multiplier(grid, n, rng)
    d1, d2 = (sampling.random_variation(grid, n, rng) for _ in range(2))
    dl1, dl2 = (sampling.random_multiplier(grid, n, rng) for _ in range(2))
    for fs in (grid.full_faceset(), FaceSet(grid, [0, 1, 4, 5, 6, 9])):
        args = (lagrangian, constraint, y, lam, d1, dl1, d2, dl2, fs)
        assert same_bits(core.multisymplectic_check(*args),
                         oracle_scenario_values(*args))


def test_random_boundary_reproducible():
    grid = triangulated_grid(4, 4)
    b1 = hm.random_boundary(grid, N, seed=13, scale=0.1)
    b2 = hm.random_boundary(grid, N, seed=13, scale=0.1)
    assert b1.tobytes() == b2.tobytes()
    b3 = hm.random_boundary(grid, N, seed=14, scale=0.1)
    assert not np.array_equal(b1, b3)


@pytest.mark.parametrize("n", range(2, 7))
def test_random_boundary_is_the_per_vertex_expm_draw(n):
    """One batched draw and one stacked ``lg.exp`` give what a draw and an
    ``lg.exp`` call per frontier vertex give, byte for byte, within 1e-12 of
    ``scipy.linalg.expm``; the far corner repeats (W, H-1) and the interior
    holds the identity, like ``identity_boundary``."""
    grid = triangulated_grid(6, 5)
    frontier = sorted(classify_vertices(grid.full_faceset()).frontier)
    interior = sorted(classify_vertices(grid.full_faceset()).interior)
    corner, below = grid.vertex_id(6, 5), grid.vertex_id(6, 4)
    eye = hm.identity_boundary(grid, n)
    assert eye.shape == (len(grid.vertices), n, n) and np.all(eye == np.eye(n))
    for seed, scale in enumerate((0.0, 0.1, 0.5, 1.0, 2.0, 3.0)):
        got = hm.random_boundary(grid, n, seed, scale)
        rng = np.random.default_rng(seed)
        for v in frontier:
            xi = lg.random_skew(n, rng, scale)
            assert got[v].tobytes() == lg.exp(xi).tobytes()
            assert np.max(np.abs(got[v] - scipy.linalg.expm(xi))) <= 1e-12
        assert got[corner].tobytes() == got[below].tobytes()
        assert np.array_equal(got[interior], eye[interior])


def _array(grid, field):
    return field.reshape(grid.height + 1, grid.width + 1, *field.shape[1:]).copy()


def _grid(g):
    """The window of an (H+1, W+1, n, n) field."""
    return triangulated_grid(g.shape[1] - 1, g.shape[0] - 1)


def _residual(g):
    """``hm._residual`` of an (H+1, W+1, n, n) field on its window."""
    return hm._residual(_grid(g), g)


def _section(g):
    """The reduced section of an (H+1, W+1, n, n) field, shaped
    (H+1, W+1, 2, n, n) as ``hm._interior_gradients`` and ``hm._hessian``
    read it."""
    y = red.reduce_field(_grid(g), g.reshape(-1, *g.shape[2:]))
    return y.reshape(g.shape[:2] + y.shape[1:])


def product_gradients(g):
    """The earlier ``hm._interior_gradients``, kept as its oracle: the
    gradient blocks from four products per interior vertex, c^T g_E,
    c^T g_N, g_W^T c and g_S^T c with c = g_ij, and their norms."""
    c = g[1:-1, 1:-1]
    ct = c.swapaxes(-1, -2)
    m = ct @ g[1:-1, 2:] + ct @ g[2:, 1:-1] - g[1:-1, :-2].swapaxes(-1, -2) @ c \
        - g[:-2, 1:-1].swapaxes(-1, -2) @ c
    grads = (m.swapaxes(-1, -2) - m) / 2.0
    return grads, lg.block_norms(grads)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_interior_gradients_match_ep_defect(n):
    """The gradient blocks read from the reduced section are minus half the
    symmetric EP defect, and bit for bit the per-vertex products they
    replace, batched (``product_gradients``) and one vertex at a time."""
    grid = triangulated_grid(5, 4)
    field = sampling.random_unreduced_field(grid, n, np.random.default_rng(40 + n))
    g = _array(grid, field)
    grads, norms = hm._interior_gradients(_section(g))
    for got, want in zip((grads, norms), product_gradients(g), strict=True):
        assert got.tobytes() == want.tobytes()
    y = red.reduce_field(grid, field)
    assert grads.shape == (grid.height - 1, grid.width - 1, n, n)
    for j in range(1, grid.height):
        for i in range(1, grid.width):
            block = grads[j - 1, i - 1]
            oracle = -ep_symmetric_defect(grid, y, i, j) / 2.0
            assert np.max(np.abs(block - oracle)) <= 1e-14
            c = g[j, i]
            m = c.T @ g[j, i + 1] + c.T @ g[j + 1, i] \
                - g[j, i - 1].T @ c - g[j - 1, i].T @ c
            assert np.array_equal(block, (m.T - m) / 2.0)
            assert norms[j - 1, i - 1] == lg.block_norms(block)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dirichlet_energy_matches_trace_action(n):
    grid = triangulated_grid(4, 5)
    field = sampling.random_unreduced_field(grid, n, np.random.default_rng(50 + n))
    y = red.reduce_field(grid, field)
    action = core.action(hm.TraceLagrangian(), y, grid.full_faceset())
    g = _array(grid, field)
    energy = hm.dirichlet_energy(g)
    assert abs(energy - (2 * n * len(grid.faces) - action)) <= 1e-12
    # the running total over faces in id order, term for term
    total = 0.0
    for j in range(grid.height):
        for i in range(grid.width):
            total += 2.0 * n - float(lg.block_dot(g[j, i], g[j, i + 1])) \
                - float(lg.block_dot(g[j, i], g[j + 1, i]))
    assert energy == total


def _dense_fd_jacobian(g):
    """Column-by-column central-difference Jacobian of ``hm._residual``.

    The oracle for the closed-form row Jacobian: one vertex and one skew
    direction at a time, 2 * N * d residual evaluations.
    """
    n = g.shape[-1]
    h = 1e-6
    steps = [lg.exp(h * e) for e in lg.skew_basis(n)]
    block = g[1:-1, 1:-1]
    size = _residual(g)[0].size
    jac = np.empty((size, size))
    col = 0
    for vertex in np.ndindex(block.shape[:2]):
        center = block[vertex].copy()
        for step in steps:
            block[vertex] = center @ step
            plus = _residual(g)[0].ravel()
            block[vertex] = center @ step.T
            jac[:, col] = (plus - _residual(g)[0].ravel()) / (2.0 * h)
            col += 1
        block[vertex] = center
    return jac


def _row_jacobian(g: np.ndarray) -> tuple[np.ndarray, ...]:
    """Jacobian of ``_residual`` in closed form, as five stencil block stacks.

    The gradient block at (i, j) is -skew(M) with M = A - B,
    A = c^T (g_E + g_N), B = (g_W^T + g_S^T) c and c = g_ij.  Moving one
    stencil member g -> g exp(t X) along a skew basis element X changes M by
    -X A - B X (centre), c^T g_E X (east), c^T g_N X (north), X g_W^T c
    (west) or X g_S^T c (south); minus the skew part of that, in coordinates,
    is one column of the (d x d) block.  Returns the centre, east, west,
    north and south stacks, each shaped (interior rows, interior columns,
    d, d) and indexed [j-1, i-1, r, b]: the derivative of residual entry r
    at (i, j) in the direction b of that stencil member.  Blocks that point
    at a frontier vertex, which is no unknown, are zero.

    The oracle of ``hm._hessian``, whose H is the symmetric part of this J.
    """
    basis = lg.skew_basis(g.shape[-1])
    c = g[1:-1, 1:-1, None]
    ct = c.swapaxes(-1, -2)
    east, north = ct @ g[1:-1, 2:, None], ct @ g[2:, 1:-1, None]
    west = g[1:-1, :-2, None].swapaxes(-1, -2) @ c
    south = g[:-2, 1:-1, None].swapaxes(-1, -2) @ c
    moves = (-basis @ (east + north) - (west + south) @ basis,
             east @ basis, basis @ west, north @ basis, basis @ south)
    centre, east, west, north, south = (
        lg.skew_to_coords(-lg.skew_part(dm)).swapaxes(-1, -2) for dm in moves)
    east[:, -1] = west[:, 0] = north[-1] = south[0] = 0.0
    return centre, east, west, north, south


def _row_to_dense(jacobian):
    """The row Jacobian's five block stacks placed in one dense matrix,
    unknowns vertex-major; frontier-facing blocks are zero and dropped."""
    centre, east, west, north, south = jacobian
    rows, cols, d = centre.shape[:3]
    dense = np.zeros((rows, cols, d, rows, cols, d))
    for j, i in np.ndindex(rows, cols):
        for (dj, di), blocks in (((0, 0), centre), ((0, 1), east), ((0, -1), west),
                                 ((1, 0), north), ((-1, 0), south)):
            if 0 <= j + dj < rows and 0 <= i + di < cols:
                dense[j, i, :, j + dj, i + di] = blocks[j, i]
            else:
                assert not blocks[j, i].any()
    return dense.reshape(rows * cols * d, -1)


def _symmetric_jacobian(g):
    """sym(J) of the dense row Jacobian at g."""
    dense = _row_to_dense(_row_jacobian(g))
    return (dense + dense.T) / 2.0


@functools.cache
def _trace_table(n: int) -> np.ndarray:
    """Read-only (d^2, n^2) table of the flattened E_a E_b over the skew
    basis: tr(E_a P E_b) is row (a, b) dotted with P flattened.  Each row
    holds at most two nonzero entries, each +-1."""
    basis = lg.skew_basis(n)
    table = (basis[:, None] @ basis).reshape(-1, n * n)
    table.flags.writeable = False
    return table


def stacked_hessian(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H, half the Hessian of the energy pulled back by the retraction, as
    its centre, east and north block stacks in the coordinates of
    ``_residual``: along g exp(X) the energy is E + 2 (f . x + x . H x / 2)
    + O(|x|^3).  West and south blocks are the transposed east and north
    blocks of the neighbours; blocks facing the frontier are dropped.

    With c = g_ij, A_E = c^T g_E, A_N = c^T g_N, S = A_E + A_N + g_W^T c
    + g_S^T c and the skew basis E: centre[a, b] =
    -tr(E_a E_b (S + S^T)) / 4, which for the symmetric S + S^T is
    -tr(E_a (S + S^T) E_b) / 4 and exactly symmetric in (a, b);
    east[a, b] = tr(E_a A_E E_b) / 2 and north[a, b] = tr(E_a A_N E_b) / 2.
    Each stack is one product with ``_trace_table``.

    The earlier ``hm._hessian``, kept as the oracle of its block columns.
    It forms S from g, one product per term and vertex, in the order of the
    reduced section's u + v + u_W + v_S.
    """
    n = g.shape[-1]
    d = lg.algebra_dim(n)
    c = g[1:-1, 1:-1]
    ct = c.swapaxes(-1, -2)
    east, north = ct @ g[1:-1, 2:], ct @ g[2:, 1:-1]
    s = east + north + g[1:-1, :-2].swapaxes(-1, -2) @ c \
        + g[:-2, 1:-1].swapaxes(-1, -2) @ c

    def blocks(p, factor):
        rows, cols = p.shape[:2]
        return (factor * (p.reshape(rows, cols, n * n) @ _trace_table(n).T)
                ).reshape(rows, cols, d, d)
    return (blocks(s + s.swapaxes(-1, -2), -0.25),
            blocks(east[:, :-1], 0.5), blocks(north[:-1], 0.5))


def stacked_hessian_product(hessian, v: np.ndarray) -> np.ndarray:
    """H v for coordinates v shaped like ``_residual``'s.

    The earlier product of the stacks, kept as the oracle of
    ``hm._stencil_product``."""
    centre, east, north = hessian
    v = v[..., None]
    out = centre @ v
    out[:, :-1] += east @ v[:, 1:]
    out[:, 1:] += east.swapaxes(-1, -2) @ v[:, :-1]
    out[:-1] += north @ v[1:]
    out[1:] += north.swapaxes(-1, -2) @ v[:-1]
    return out[..., 0]


def _placed_columns(hessian):
    """The oracle's centre, east and north stacks placed as the block
    columns of ``hm._hessian``, one vertex and one neighbour at a time:
    column p holds the transposed blocks H[p, q] of row p at q = p and at
    its east, west, north and south neighbours, zero where q is on the
    frontier."""
    centre, east, north = hessian
    rows, cols, d = centre.shape[:3]
    columns = np.zeros((rows, cols, 5, d, d))
    for j, i in np.ndindex(rows, cols):
        columns[j, i, 0] = centre[j, i].T
        if i + 1 < cols:
            columns[j, i, 1] = east[j, i].T
        if i > 0:
            columns[j, i, 2] = east[j, i - 1]
        if j + 1 < rows:
            columns[j, i, 3] = north[j, i].T
        if j > 0:
            columns[j, i, 4] = north[j - 1, i]
    return columns.reshape(rows * cols, 5 * d, d)


def _columns(g):
    """``hm._hessian`` at g, given the reduced section of g."""
    return hm._hessian(_section(g))


def _stencil_dense(g):
    """The H of ``hm._hessian`` at g as a dense matrix: its stencil product
    on each unit vector, unknowns vertex-major."""
    shape = _residual(g)[0].shape
    stencil, columns = hm._stencil(*shape[:2]), _columns(g)
    return np.array([hm._stencil_product(stencil, columns, e.reshape(shape)).ravel()
                     for e in np.eye(np.prod(shape))]).T


def _hessian_to_dense(hessian):
    """The centre, east and north stacks of ``stacked_hessian`` placed in
    one dense symmetric matrix, unknowns vertex-major."""
    centre, east, north = hessian
    rows, cols, d = centre.shape[:3]
    dense = np.zeros((rows, cols, d, rows, cols, d))
    for j, i in np.ndindex(rows, cols):
        dense[j, i, :, j, i] = centre[j, i]
        if i + 1 < cols:
            dense[j, i, :, j, i + 1] = east[j, i]
            dense[j, i + 1, :, j, i] = east[j, i].T
        if j + 1 < rows:
            dense[j, i, :, j + 1, i] = north[j, i]
            dense[j + 1, i, :, j, i] = north[j, i].T
    return dense.reshape(rows * cols * d, -1)


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


def _check_row_jacobian(width, height, n, scale, seed):
    """The closed-form row Jacobian agrees with the dense FD Jacobian to
    1e-8 and leaves its input alone."""
    grid = triangulated_grid(width, height)
    rng = np.random.default_rng(seed)
    g = _array(grid, sampling.random_unreduced_field(grid, n, rng, scale))
    before = g.copy()
    jacobian = _row_jacobian(g)
    assert np.array_equal(g, before)
    d = n * (n - 1) // 2
    assert all(b.shape == (height - 1, width - 1, d, d) for b in jacobian)
    dense = _row_to_dense(jacobian)
    assert np.max(np.abs(dense - _dense_fd_jacobian(g))) <= 1e-8


@pytest.mark.parametrize("width,height,n,scale", JACOBIAN_WINDOWS)
def test_row_jacobian_equals_dense_fd_oracle(width, height, n, scale):
    _check_row_jacobian(width, height, n, scale, 60 + width + 7 * height + n)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(2, 5), st.integers(2, 6), st.integers(2, 6),
       st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
def test_row_jacobian_property(n, width, height, scale, seed):
    _check_row_jacobian(width, height, n, scale, seed)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(2, 5), st.integers(2, 6), st.integers(2, 6),
       st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
def test_hessian_product_property(n, width, height, scale, seed):
    """H v is sym(J) v for the dense row Jacobian J, to 1e-12, and v . H v
    is half the second derivative of the energy along g exp(t v), to the
    accuracy of a central second difference; H v is the stencil product of
    the block columns.  The centre blocks of H are exactly symmetric, and g
    is left alone."""
    grid = triangulated_grid(width, height)
    rng = np.random.default_rng(seed)
    g = _array(grid, sampling.random_unreduced_field(grid, n, rng, scale))
    before = g.copy()
    columns = _columns(g)
    assert np.array_equal(g, before)
    v = rng.standard_normal(_residual(g)[0].shape)
    d = v.shape[-1]
    centre = columns.reshape(-1, 5, d, d)[:, 0]
    assert np.array_equal(centre, centre.swapaxes(-1, -2))
    hv = hm._stencil_product(hm._stencil(*v.shape[:2]), columns, v)
    oracle = _symmetric_jacobian(g) @ v.ravel()
    assert hv.shape == v.shape
    assert np.max(np.abs(hv.ravel() - oracle)) <= 1e-12 * (1.0 + np.max(np.abs(oracle)))
    t = 1e-4
    xi = lg.coords_to_skew(v, n)
    energies = [hm.dirichlet_energy(hm._retract(g, s * xi)) for s in (-t, 0.0, t)]
    second = (energies[0] - 2.0 * energies[1] + energies[2]) / t**2
    curvature = 2.0 * np.vdot(v, hv)
    assert abs(second - curvature) <= 1e-5 * (1.0 + abs(curvature) + energies[1])


def _grid_laplacian(rows, cols, d):
    """The 5-point Dirichlet Laplacian on a rows x cols interior, one copy
    per coordinate, unknowns vertex-major as in ``hm._residual``."""
    def second_difference(m):
        return 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    grid = np.kron(second_difference(rows), np.eye(cols)) \
        + np.kron(np.eye(rows), second_difference(cols))
    return np.kron(grid, np.eye(d))


@pytest.mark.parametrize("rows,cols,n", [(1, 1, 2), (1, 7, 3), (6, 1, 3),
                                         (5, 8, 3), (9, 4, 4), (4, 6, 5)])
def test_laplacian_solver_inverts_the_dense_laplacian(rows, cols, n):
    """The sine-matrix solve is the inverse of the 5-point Laplacian, which
    is the Hessian H at a constant field, both as ``hm._hessian`` and its
    stencil product assemble it and as its oracles do."""
    d = n * (n - 1) // 2
    laplacian = _grid_laplacian(rows, cols, d)
    constant = np.tile(lg.exp(lg.random_skew(n, np.random.default_rng(n))),
                       (rows + 2, cols + 2, 1, 1))
    assert np.max(np.abs(_symmetric_jacobian(constant) - laplacian)) <= 1e-14
    for assembled in (_stencil_dense(constant),
                      _hessian_to_dense(stacked_hessian(constant))):
        assert np.max(np.abs(assembled - laplacian)) <= 1e-14
    r = np.random.default_rng(rows + 10 * cols).standard_normal((rows, cols, d))
    z = hm._laplacian_solver(rows, cols)(r)
    oracle = np.linalg.solve(laplacian, r.ravel())
    assert np.max(np.abs(z.ravel() - oracle)) <= 1e-13 * np.max(np.abs(oracle))


# (interior rows, interior columns, n): 1 x k and k x 1 interiors, and the
# dense bound's largest window, 6x6 SO(5) (250 unknowns)
DENSE_INTERIORS = [(1, 1, 2), (1, 7, 3), (6, 1, 3), (1, 9, 5), (5, 1, 5),
                   (5, 8, 2), (5, 5, 3), (3, 7, 3), (5, 5, 5)]


@pytest.mark.parametrize("rows,cols,n", DENSE_INTERIORS)
def test_dense_model_is_the_stacked_model(rows, cols, n):
    """The dense H places the oracle's blocks as the loop oracle does, bit
    for bit, also when the model filled the H of another field of the
    window first: its product on the unit vectors returns H itself.  The
    dense H v is ``stacked_hessian_product`` and the dense preconditioner
    the sine solve of ``_laplacian_solver``, each to 1e-13 relative."""
    grid = triangulated_grid(cols + 1, rows + 1)
    rng = np.random.default_rng(rows + 10 * cols + 100 * n)
    g, other = (_array(grid, sampling.random_unreduced_field(grid, n, rng, 1.0))
                for _ in range(2))
    hessian = stacked_hessian(g)
    shape = hessian[0].shape[:3]
    size = rows * cols * (n * (n - 1) // 2)
    assert size <= hm._DENSE_UNKNOWNS
    oracle = _hessian_to_dense(hessian)
    section = _residual(g)[2]
    assert np.array_equal(hm._model(shape)(section)[0](np.eye(size)), oracle)
    operators = hm._model(shape)
    operators(_residual(other)[2])
    product, precondition, flat = operators(section)
    assert flat == (size,)
    assert np.array_equal(product(np.eye(size)), oracle)
    for v in rng.standard_normal((3,) + shape):
        stacked = stacked_hessian_product(hessian, v).ravel()
        assert np.max(np.abs(product(v.ravel()) - stacked)) \
            <= 1e-13 * np.max(np.abs(stacked))
        solved = hm._laplacian_solver(rows, cols)(v).ravel()
        assert np.max(np.abs(precondition(v.ravel()) - solved)) \
            <= 1e-13 * np.max(np.abs(solved))


def kronecker_inverse_laplacian(rows, cols):
    """The (rows cols)^2 inverse of the 5-point Dirichlet Laplacian of the
    interior, vertex-major, as the Kronecker formula (Q_r x Q_c)
    diag(1 / lambda) (Q_r x Q_c)^T over the sine factors of
    ``hm._sines``."""
    (q_r, l_r), (q_c, l_c) = hm._sines(rows), hm._sines(cols)
    q = np.kron(q_r, q_c)
    return (q / (l_r[:, None] + l_c).ravel()) @ q.T


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 7), (7, 1), (1, 256), (256, 1),
                                       (2, 2), (5, 5), (9, 9), (16, 16)])
def test_dense_preconditioner_is_the_kronecker_inverse(rows, cols):
    """The dense model's preconditioner, the sine solve applied to the unit
    vectors, is the Kronecker inverse Laplacian to 1e-13 relative: on an
    SO(2) window (d = 1) its products on the unit vectors are the columns
    of the matrix, on 1 x k, k x 1 and square interiors up to 256 unknowns."""
    size = rows * cols
    assert size <= hm._DENSE_UNKNOWNS
    g = np.tile(np.eye(2), (rows + 2, cols + 2, 1, 1))
    precondition = hm._model((rows, cols, 1))(_residual(g)[2])[1]
    oracle = kronecker_inverse_laplacian(rows, cols)
    dense = np.stack([precondition(e) for e in np.eye(size)], axis=1)
    assert np.max(np.abs(dense - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.mark.parametrize("rows,cols,n", DENSE_INTERIORS + [(9, 4, 4), (4, 6, 5)])
def test_block_columns_are_the_placed_stacks(rows, cols, n):
    """``hm._hessian``'s block columns hold the oracle's centre, east and
    north blocks, transposed or not, at their places, bit for bit, and
    zero where a block faces the frontier."""
    grid = triangulated_grid(cols + 1, rows + 1)
    rng = np.random.default_rng(rows + 10 * cols + 100 * n)
    g = _array(grid, sampling.random_unreduced_field(grid, n, rng, 2.0))
    columns = _columns(g)
    assert columns.shape == (rows * cols, 5 * (n * (n - 1) // 2), n * (n - 1) // 2)
    assert np.array_equal(columns, _placed_columns(stacked_hessian(g)))


# (interior rows, interior columns, n): 1 x k and k x 1 interiors, 2x2
# windows, and 250, 256, 272 and 363 unknowns, either side of the dense bound
STENCIL_INTERIORS = [(1, 7, 3), (6, 1, 3), (1, 9, 5), (5, 1, 5), (1, 1, 2), (1, 1, 3),
                     (1, 1, 5), (5, 5, 5), (16, 16, 2), (16, 17, 2), (11, 11, 3)]


@pytest.mark.parametrize("rows,cols,n", STENCIL_INTERIORS)
def test_stencil_product_is_the_stacked_product(rows, cols, n):
    """The stencil product of the block columns is the oracle's product of
    the stacks to 1e-13 relative, and leaves its input alone."""
    grid = triangulated_grid(cols + 1, rows + 1)
    rng = np.random.default_rng(rows + 10 * cols + 100 * n)
    g = _array(grid, sampling.random_unreduced_field(grid, n, rng, 1.0))
    stencil, columns = hm._stencil(rows, cols), _columns(g)
    hessian = stacked_hessian(g)
    for v in rng.standard_normal((3, rows, cols, n * (n - 1) // 2)):
        before = v.copy()
        product = hm._stencil_product(stencil, columns, v)
        assert np.array_equal(v, before)
        stacked = stacked_hessian_product(hessian, v)
        assert product.shape == v.shape
        assert np.max(np.abs(product - stacked)) <= 1e-13 * np.max(np.abs(stacked))


@pytest.mark.parametrize("width,height,n,dense", [
    pytest.param(6, 6, 5, True, id="250-dense"),
    pytest.param(17, 17, 2, True, id="256-dense"),
    pytest.param(18, 17, 2, False, id="272-stacked"),
    pytest.param(12, 12, 3, False, id="363-stacked")])
def test_model_path_follows_the_unknown_count(monkeypatch, width, height, n, dense):
    """A 6x6 SO(5) window has 250 interior unknowns and 17x17 SO(2) has
    256, within the bound of 256: each solve fills H once per accepted step
    and never calls ``_stencil_product``.  18x17 SO(2) has 272 and 12x12
    SO(3) 363: each calls ``_stencil_product`` once for every Hessian
    product the report counts.  Either way the solve builds the sine solve
    once."""
    calls = dict.fromkeys(("_hessian", "_stencil_product", "_laplacian_solver"), 0)

    def counted(name):
        original = getattr(hm, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(hm, name, call)
    for name in calls:
        counted(name)
    grid = triangulated_grid(width, height)
    boundary = hm.random_boundary(grid, n, seed=1, scale=0.1)
    _, report = hm.solve_unreduced(grid, boundary)
    assert report.hessian_products > 0
    assert calls == {"_hessian": report.residual_evaluations - 1,
                     "_stencil_product": 0 if dense else report.hessian_products,
                     "_laplacian_solver": 1}


def test_truncated_cg_is_the_newton_step_inside_the_region(solved66, monkeypatch):
    """With an inactive radius and a small gradient the truncated CG step is
    the Newton step H p = -f, to the forcing term |r| <= |f|^2; with a small
    radius it ends on the boundary of the Laplacian norm.  The model value
    is f . p + p . H p / 2 both ways.  At infinite radius with the target
    1e-12 |f| it is the Newton step to 1e-10 relative, a zero f is its own
    solution, after no product, and negative curvature ends the CG where it
    is.  All of it holds for the stacked
    operators on (rows, cols, d) coordinates and for the dense ones on flat
    vectors, the window's two forms of ``_model`` under a bound below and
    at its unknown count."""
    g = _array(solved66["grid"], solved66["field"])
    dense = _symmetric_jacobian(g)
    rows, cols, d = g.shape[0] - 2, g.shape[1] - 2, 3
    f = np.random.default_rng(3).standard_normal((rows, cols, d))
    f *= 1e-8 / np.linalg.norm(f)
    newton = np.linalg.solve(dense, -f.ravel())
    norm = np.linalg.norm(f)
    for bound, form in ((0, f.shape), (f.size, (f.size,))):
        monkeypatch.setattr(hm, "_DENSE_UNKNOWNS", bound)
        product, precondition, shape = hm._model(f.shape)(_residual(g)[2])
        assert shape == form
        for radius, boundary in ((1e6, False), (1e-9, True)):
            p, model, at_boundary, products = hm._truncated_cg(
                product, precondition, f.reshape(shape), radius,
                norm * min(norm, 0.1))
            assert p.shape == shape
            assert at_boundary is boundary and 1 <= products <= f.size
            p = p.ravel()
            assert model == pytest.approx(f.ravel() @ p + p @ dense @ p / 2.0,
                                          rel=1e-12)
            if boundary:
                length = np.sqrt(p @ _grid_laplacian(rows, cols, d) @ p)
                assert length == pytest.approx(radius, rel=1e-12)
            else:
                assert np.linalg.norm(p - newton) <= 1e-7 * np.linalg.norm(newton)
        # no region and a tight target: the linear solve of the Jacobi fields
        p, _, at_boundary, _ = hm._truncated_cg(
            product, precondition, f.reshape(shape), np.inf, 1e-12 * norm)
        assert not at_boundary
        assert np.linalg.norm(p.ravel() - newton) <= 1e-10 * np.linalg.norm(newton)
        # a zero right side is its own solution, found with no product
        p, model, at_boundary, products = hm._truncated_cg(
            None, precondition, np.zeros(shape), np.inf, 0.0)
        assert not p.any() and (model, at_boundary, products) == (0.0, False, 0)
    # negative curvature with no region to reach: the CG stops where it is,
    # with no infinite step, also along a direction with zero entries
    f.ravel()[::2] = 0.0
    p, model, at_boundary, products = hm._truncated_cg(
        lambda v: -v, lambda r: r, f, np.inf, 0.0)
    assert not p.any() and (model, at_boundary, products) == (0.0, True, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_newton_residual_evaluations_per_step_do_not_grow(n):
    """One gradient evaluation per accepted step and one at the start, at
    8x8 and at 16x16 alike: rejected steps and the Hessian cost none, and
    the steps and Hessian products do not grow with the window."""
    spent = []
    for width in (8, 16):
        grid = triangulated_grid(width, width)
        boundary = hm.random_boundary(grid, n, seed=21, scale=0.1)
        _, report = hm.solve_unreduced(grid, boundary)
        assert report.iterations >= 1
        accepted = report.iterations - report.backtracks
        assert report.residual_evaluations == accepted + 1 == len(report.history)
        spent.append((report.iterations, report.hessian_products))
    assert spent[1][0] <= spent[0][0] + 1
    assert spent[1][1] <= 2 * spent[0][1]


def test_zero_hessian_ends_the_polish(tmp_path, monkeypatch, capsys):
    """A zeroed Hessian leaves only the linear model: the truncated CG meets
    zero curvature at once and every step runs to the trust-region
    boundary, so the gradient stalls above g_tol and the loop gives up well
    within its budget.  The solve ends in ConvergenceError with its
    history, and the CLI exits 1, with no RuntimeWarning on the way (they
    are errors here)."""
    def singular(p):
        return np.zeros_like(hessian(p))

    hessian = hm._hessian
    monkeypatch.setattr(hm, "_hessian", singular)
    grid = triangulated_grid(6, 6)
    boundary = hm.random_boundary(grid, N, seed=22, scale=0.1)
    with pytest.raises(ConvergenceError) as err:
        hm.solve_unreduced(grid, boundary)
    history = err.value.history
    assert len(history) < 100
    assert history[0]["phase"] == "start" and len(history) >= 2
    assert all(h["phase"] == "newton" for h in history[1:])

    out = tmp_path / "run"
    assert main(["solve", "--width", "6", "--height", "6", "--seed", "22",
                 "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = (out / "history.csv").read_text().splitlines()
    assert rows[0].startswith("iteration,phase") and len(rows) == len(history) + 1


@pytest.mark.parametrize("width,n", [pytest.param(24, N, id="24"),
                                     pytest.param(64, N, id="64"),
                                     pytest.param(32, 5, id="32-so5")])
def test_solver_converges_on_large_windows(width, n):
    """Windows that earlier solvers made impractical (24x24 for a dense
    finite-difference Jacobian, 64x64, the north-star size, for a per-block
    Pade expm retraction), and SO(5) at 32x32, where the Hessian blocks are
    10x10; all on the stacked model, tolerances only."""
    grid = triangulated_grid(width, width)
    boundary = hm.random_boundary(grid, n, seed=1, scale=0.1)
    _, report = hm.solve_unreduced(grid, boundary)
    assert report.max_gradient <= G_TOL
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


# (n, scale, seed, descent iterations, Newton steps) of 6x6 solves, as the
# two-phase solver (Armijo descent to a Newton switch) counted them, and
# TRUST_REGION below the trust-region solver's steps, rejected steps and
# final energy on the same boundaries.  The trust region takes fewer steps
# than the two phases did and keeps their branch, except on seed 414, where
# it ends on another strict local minimum of the energy: 78.112 against
# 77.607.  The scale-3.0 seeds 168 .. 414 are the ones whose recovered
# multiplier system residual was above 1e-10 (see
# ``test_pool_seeds_recover_to_the_system_tolerance``).
SAME_BRANCH = [
    (3, 3.0, 152, 1676, 3),
    (3, 3.0, 168, 135, 2), (3, 3.0, 173, 214, 2), (3, 3.0, 318, 219, 2),
    (3, 3.0, 412, 142, 2), (3, 3.0, 414, 289, 2),
    (2, 1.0, 0, 22, 2), (2, 1.0, 1, 37, 2), (2, 1.0, 2, 38, 2),
    (4, 1.0, 0, 43, 2), (4, 1.0, 1, 35, 2), (4, 1.0, 2, 43, 2),
    (5, 1.0, 0, 49, 2), (5, 1.0, 1, 46, 2), (5, 1.0, 2, 47, 2),
]
TRUST_REGION = {
    (3, 3.0, 152): (22, 0, 75.60682153263893),
    (3, 3.0, 168): (16, 1, 77.9320153318628),
    (3, 3.0, 173): (12, 0, 87.14657588698391),
    (3, 3.0, 318): (19, 2, 72.03258024473348),
    (3, 3.0, 412): (14, 1, 75.82777867302306),
    (3, 3.0, 414): (17, 2, 78.11151025814067),
    (2, 1.0, 0): (5, 0, 11.934850238872023),
    (2, 1.0, 1): (5, 0, 13.372331398186036),
    (2, 1.0, 2): (5, 0, 11.701870305034625),
    (4, 1.0, 0): (7, 0, 67.82406994567334),
    (4, 1.0, 1): (7, 0, 55.94536606179149),
    (4, 1.0, 2): (7, 0, 54.90069028589691),
    (5, 1.0, 0): (8, 0, 90.91367727377866),
    (5, 1.0, 1): (8, 0, 86.64257492667173),
    (5, 1.0, 2): (8, 0, 83.47396776953559),
}


@pytest.mark.parametrize("n,scale,seed,descent,newton", SAME_BRANCH)
def test_retraction_keeps_the_iteration_counts(n, scale, seed, descent, newton):
    grid = triangulated_grid(6, 6)
    field, report = hm.solve_unreduced(grid, hm.random_boundary(grid, n, seed, scale))
    iterations, backtracks, energy = TRUST_REGION[n, scale, seed]
    assert (report.iterations, report.backtracks) == (iterations, backtracks)
    assert report.iterations < descent + newton
    assert report.final_energy == pytest.approx(energy, rel=1e-9)
    assert _energy_never_rises(report.history)
    g = _array(grid, field)[1:-1, 1:-1]
    defect = np.linalg.norm(g.swapaxes(-1, -2) @ g - np.eye(n), axis=(-2, -1))
    assert defect.max() <= 1e-13


@pytest.mark.parametrize("seed", [168, 173, 318, 412, 414])
def test_pool_seeds_recover_to_the_system_tolerance(seed):
    """The step after the gradient first meets g_tol carries it to
    round-off, so the multipliers recovered on these rough-pool boundaries
    solve their system to the benchmark's 1e-10 (their gradient stopped
    between 5e-11 and 1e-10 before, and recovery about doubled that)."""
    grid = triangulated_grid(6, 6)
    _, report = hm.solve_unreduced(grid, hm.random_boundary(grid, N, seed, 3.0))
    assert report.max_gradient <= 1e-14
    _, recovery = red.recover_multipliers(hm.TraceLagrangian(), grid,
                                          report.section, np.zeros((N, N)))
    assert recovery.max_system_residual <= 1e-10


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
    boundary = hm.random_boundary(grid, n, seed=seed, scale=scale)
    g = boundary.reshape(width + 1, width + 1, n, n).copy()
    expected, count = _blend_oracle(g)
    assert count == fallbacks
    got = hm._blend_initializer(g)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
