import numpy as np
import pytest

from groupvar import core, liegroup as lg, reduction as red, sampling
from groupvar.complexes import classify_vertices, triangulated_grid
from groupvar.errors import (
    HolonomyError,
    InadmissibleSectionError,
    PreconditionError,
    RecoveryConflictError,
)
from groupvar.harmonic import TraceLagrangian

N = 3


def constant_field(grid, g):
    return red.UnreducedField(np.broadcast_to(g, (len(grid.vertices), N, N)))


def block_norms(x):
    return np.linalg.norm(x, axis=(-2, -1))


def section_distance(a, b):
    return block_norms(a.values - b.values).max()


def replaced(y, v, fiber):
    """y with the fiber at vertex v replaced."""
    values = y.values.copy()
    values[v] = fiber
    return core.Section(y.fiber, values)


def test_reduce_constant_field_is_identity():
    grid = triangulated_grid(3, 2)
    g = lg.exp(lg.random_skew(N, np.random.default_rng(0)))
    y = red.reduce_field(grid, constant_field(grid, g))
    for u, v in y.values:
        assert np.linalg.norm(u - np.eye(N)) <= 1e-14
        assert np.linalg.norm(v - np.eye(N)) <= 1e-14


def test_reduce_is_flat():
    grid = triangulated_grid(4, 3)
    rng = np.random.default_rng(1)
    y = red.reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    hol = red.plaquette_holonomy(grid, y)
    for j in range(grid.height):
        for i in range(grid.width):
            assert np.linalg.norm(hol[j, i] - np.eye(N)) <= 1e-13


def test_reduce_left_invariance():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(2)
    g = sampling.random_unreduced_field(grid, N, rng)
    h = lg.exp(lg.random_skew(N, rng))
    hg = red.UnreducedField(h @ g.values)
    assert section_distance(red.reduce_field(grid, g),
                            red.reduce_field(grid, hg)) <= 1e-13


def test_reduce_missing_vertex():
    grid = triangulated_grid(2, 2)
    values = np.delete(np.zeros((len(grid.vertices), N, N)) + np.eye(N),
                       grid.vertex_id(2, 1), axis=0)
    with pytest.raises(ValueError):
        red.reduce_field(grid, red.UnreducedField(values))


def test_holonomy_identity_section():
    grid = triangulated_grid(2, 2)
    y = red.reduce_field(grid, constant_field(grid, np.eye(N)))
    hol = red.plaquette_holonomy(grid, y)
    assert np.array_equal(hol[1, 1], np.eye(N))
    # one block per face of the window, indexed [j, i]
    assert hol.shape == (grid.height, grid.width, N, N)


def test_holonomy_derivative_along_single_factor():
    """Ambient derivative in the base u slot is the adjoint of the left log."""
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(3)
    y = red.reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    i, j = 1, 1
    xi = lg.random_skew(N, rng)
    u, _ = y.values[grid.vertex_id(i, j)]
    t = 1e-6
    def holonomy_with(factor):
        vid = grid.vertex_id(i, j)
        return red.plaquette_holonomy(
            grid, replaced(y, vid, (factor, y.values[vid, 1])))[j, i]
    plus = holonomy_with(u @ lg.exp(t * xi))
    minus = holonomy_with(u @ lg.exp(-t * xi))
    fd = (plus - minus) / (2.0 * t)
    # = (du) u^{-1} at a flat face
    expected = lg.adjoint(u, xi)
    assert np.linalg.norm(fd - expected) / (1.0 + np.linalg.norm(expected)) <= 1e-6


def test_cartan_forms_at_identity():
    grid = triangulated_grid(2, 2)
    y = red.reduce_field(grid, constant_field(grid, np.eye(N)))
    f0, f1, f2 = red.plaquette_cartan_forms(grid, y, 0, 0)
    xi = lg.random_skew(N, np.random.default_rng(4))
    eta = lg.random_skew(N, np.random.default_rng(5))
    zero = np.zeros((N, N))
    assert np.allclose(core.form_apply(f0, np.array([xi, eta])), xi - eta, atol=1e-14)
    assert np.allclose(core.form_apply(f1, np.array([xi, eta])), eta, atol=1e-14)
    assert np.allclose(core.form_apply(f2, np.array([xi, eta])), -1.0 * xi, atol=1e-14)
    assert np.linalg.norm(core.form_apply(f1, np.array([xi, zero]))) == 0.0
    assert np.linalg.norm(core.form_apply(f2, np.array([zero, eta]))) == 0.0


def test_cartan_forms_sum_matches_fd():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(6)
    y = red.reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    i, j = 1, 1
    forms = red.plaquette_cartan_forms(grid, y, i, j)
    face = grid.face_id(i, j)
    dy = sampling.random_variation(grid, N, rng)
    total = np.zeros((N, N))
    for form, v in zip(forms, grid.adherence(face)):
        total = total + core.form_apply(form, dy.values[v])
    t = 1e-6
    plus = red.plaquette_holonomy(grid, core.section_exp(y, dy, t))[j, i]
    minus = red.plaquette_holonomy(grid, core.section_exp(y, dy, -t))[j, i]
    fd = (plus - minus) / (2.0 * t)
    fd = (fd - fd.T) / 2.0
    assert np.linalg.norm(total - fd) / (1.0 + np.linalg.norm(total)) <= 1e-6


def test_cartan_forms_reject_non_flat_base():
    grid = triangulated_grid(2, 2)
    rng = np.random.default_rng(7)
    y = sampling.random_section(grid, N, rng)
    with pytest.raises(InadmissibleSectionError):
        red.plaquette_cartan_forms(grid, y, 0, 0)


def test_ep_residual_identity_section():
    grid = triangulated_grid(3, 3)
    y = red.reduce_field(grid, constant_field(grid, np.eye(N)))
    res = red.euler_poincare_residual(TraceLagrangian(N), grid, y)[0, 0]
    assert np.linalg.norm(res) == 0.0


def test_ep_residual_generic_nonzero_and_interior_check():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(8)
    y = red.reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    res = red.euler_poincare_residual(TraceLagrangian(N), grid, y)
    assert np.linalg.norm(res[0, 0]) > 1e-3
    # defined at the interior vertices only, indexed [j-1, i-1]
    assert res.shape == (grid.height - 1, grid.width - 1, N, N)


def test_reconstruct_identity():
    grid = triangulated_grid(3, 3)
    y = red.reduce_field(grid, constant_field(grid, np.eye(N)))
    field = red.reconstruction_report(grid, y, np.eye(N)).field
    for g in field.values:
        assert np.linalg.norm(g - np.eye(N)) <= 1e-14


def test_reconstruct_roundtrips():
    grid = triangulated_grid(4, 4)
    rng = np.random.default_rng(9)
    g = sampling.random_unreduced_field(grid, N, rng)
    y = red.reduce_field(grid, g)
    rep = red.reconstruction_report(grid, y, g.values[grid.vertex_id(0, 0)])
    dev = block_norms(rep.field.values - g.values).max()
    assert dev <= 1e-12
    assert rep.path_agreement <= 1e-12
    assert section_distance(red.reduce_field(grid, rep.field), y) <= 1e-12


def test_reconstruct_seed_offset():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(10)
    y = red.reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    h1 = lg.exp(lg.random_skew(N, rng))
    h2 = lg.exp(lg.random_skew(N, rng))
    f1 = red.reconstruction_report(grid, y, h1).field
    f2 = red.reconstruction_report(grid, y, h2).field
    offset = h2 @ h1.T
    for a, b in zip(f1.values, f2.values):
        assert np.linalg.norm(offset @ a - b) <= 1e-12


def test_reconstruct_detects_broken_plaquette():
    grid = triangulated_grid(4, 4)
    rng = np.random.default_rng(11)
    g = sampling.random_unreduced_field(grid, N, rng)
    y = red.reduce_field(grid, g)
    vid = grid.vertex_id(2, 1)
    u, v = y.values[vid]
    bump = lg.random_skew(N, rng)
    bump = (1e-5 / np.linalg.norm(bump)) * bump
    y = replaced(y, vid, (u @ lg.exp(bump), v))
    with pytest.raises(HolonomyError) as err:
        red.reconstruction_report(grid, y, g.values[grid.vertex_id(0, 0)])
    # the tampered u slot feeds the faces at (2, 1) and (2, 0)
    assert err.value.face in (grid.face_id(2, 1), grid.face_id(2, 0))
    assert err.value.defect > 1e-7


def test_reconstruct_rejects_nan_section():
    """A NaN defect is not small: the first face in id order that reads the
    NaN u slot of vertex (1, 1) is named."""
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(13)
    g = sampling.random_unreduced_field(grid, N, rng)
    values = red.reduce_field(grid, g).values.copy()
    values[grid.vertex_id(1, 1), 0, 0, 0] = np.nan
    y = core.Section(red.reduced_fiber(N), values)
    with pytest.raises(HolonomyError) as err:
        red.reconstruction_report(grid, y, g.values[grid.vertex_id(0, 0)])
    assert err.value.face == grid.face_id(1, 0)
    assert np.isnan(err.value.defect)


def test_reduced_variation_zero_and_constant_gauge():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(12)
    g = sampling.random_unreduced_field(grid, N, rng)
    zero_theta = np.zeros((len(grid.vertices), N, N))
    dv = red.reduced_variation(grid, g, zero_theta)
    assert np.all(block_norms(dv.values) == 0.0)

    eye = constant_field(grid, np.eye(N))
    xi = lg.random_skew(N, rng)
    const = np.broadcast_to(xi, (len(grid.vertices), N, N))
    dv = red.reduced_variation(grid, eye, const)
    assert block_norms(dv.values).max() <= 1e-15


def test_multiplier_system_identity_zero():
    grid = triangulated_grid(3, 3)
    y = red.reduce_field(grid, constant_field(grid, np.eye(N)))
    lam = core.Multiplier(np.zeros((len(grid.faces), N, N)))
    r1, r2 = red.multiplier_system_residual(TraceLagrangian(N), grid, y, lam)
    assert np.linalg.norm(r1[0, 0]) == 0.0 and np.linalg.norm(r2[0, 0]) == 0.0


def test_multiplier_system_random_multiplier_nonzero(solved66):
    grid, y = solved66["grid"], solved66["y"]
    lam = sampling.random_multiplier(grid, N, np.random.default_rng(13))
    r1, r2 = red.multiplier_system_residual(solved66["lagrangian"], grid, y, lam)
    assert max(np.linalg.norm(r1[1, 1]), np.linalg.norm(r2[1, 1])) > 1e-3


def test_recover_identity_section_gives_zero():
    grid = triangulated_grid(3, 3)
    y = red.reduce_field(grid, constant_field(grid, np.eye(N)))
    zero = np.zeros((N, N))
    lam, rep = red.recover_multipliers(TraceLagrangian(N), grid, y, zero)
    assert np.all(lam.values == 0.0)
    assert rep.max_discrepancy == 0.0
    assert rep.unconstrained_faces == (grid.face_id(0, 0),)


def test_recover_requires_critical_section():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(14)
    y = red.reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    zero = np.zeros((N, N))
    with pytest.raises(PreconditionError):
        red.recover_multipliers(TraceLagrangian(N), grid, y, zero)


def test_recover_conflict_surfaces(solved66):
    with pytest.raises(RecoveryConflictError):
        red.recover_multipliers(solved66["lagrangian"], solved66["grid"],
                                solved66["y"],
                                np.zeros((N, N)),
                                cons_tol=1e-18)


def test_recovered_multiplier_solves_system(solved66):
    grid, y, lam = solved66["grid"], solved66["y"], solved66["lam"]
    lagrangian = solved66["lagrangian"]
    worst = max(block_norms(r).max() for r in
                red.multiplier_system_residual(lagrangian, grid, y, lam))
    assert worst <= 1e-10
    assert solved66["recovery"].max_discrepancy <= 1e-9


def test_recovery_seed_nonuniqueness(solved66):
    grid, y = solved66["grid"], solved66["y"]
    lagrangian = solved66["lagrangian"]
    seed = lg.random_skew(N, np.random.default_rng(15), 0.3)
    lam2, rep2 = red.recover_multipliers(lagrangian, grid, y, seed)
    distance = block_norms(solved66["lam"].values - lam2.values).max()
    assert distance > 1e-3
    worst = max(block_norms(r).max() for r in
                red.multiplier_system_residual(lagrangian, grid, y, lam2))
    assert worst <= 1e-10
    assert rep2.max_discrepancy <= 1e-9


def test_elimination_combo_matches_ep_residual():
    """For flat sections and any multiplier, the four-term combination equals
    the reduced residual up to the cancellation defect."""
    grid = triangulated_grid(4, 4)
    rng = np.random.default_rng(16)
    y = red.reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    lam = sampling.random_multiplier(grid, N, rng)
    lagrangian = TraceLagrangian(N)
    defects = red.multiplier_elimination_check(lagrangian, grid, y, lam)
    ep = block_norms(red.euler_poincare_residual(lagrangian, grid, y))
    for (i, j) in ((1, 1), (2, 2), (3, 3), (1, 3)):
        cancellation = defects.cancellation[j - 1, i - 1]
        assert cancellation <= 1e-12
        assert abs(defects.ep_combination[j - 1, i - 1] - ep[j - 1, i - 1]) \
            <= cancellation + 1e-12


def test_elimination_cancellation_grows_off_constraint():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(17)
    y = sampling.random_section(grid, N, rng)
    lam = sampling.random_multiplier(grid, N, rng)
    defects = red.multiplier_elimination_check(TraceLagrangian(N), grid, y, lam)
    assert defects.cancellation[0, 0] > 1e-6


def test_elimination_on_critical_pair(solved66):
    grid, y, lam = solved66["grid"], solved66["y"], solved66["lam"]
    defects = red.multiplier_elimination_check(solved66["lagrangian"],
                                               grid, y, lam)
    assert defects.cancellation.shape == (grid.height - 1, grid.width - 1)
    assert np.all(defects.cancellation <= 1e-12)
    assert np.all(defects.ep_combination <= 1e-9)


def test_system_residual_bounds_ep_residual():
    """A pair solving the multiplier system to eps is reduced-critical to
    about the same eps: the elimination combination is a four-term coadjoint
    assembly, so the constant stays well under 10."""
    from groupvar import harmonic as hm

    grid = triangulated_grid(5, 5)
    boundary = hm.random_boundary(grid, N, seed=21, scale=0.1)
    config = hm.SolverConfig(boundary=boundary, g_tol=2e-6)
    field, _ = hm.solve_unreduced(grid, config)
    lagrangian = TraceLagrangian(N)
    y = red.reduce_field(grid, field)
    zero = np.zeros((N, N))
    lam, _ = red.recover_multipliers(lagrangian, grid, y, zero,
                                     ep_tol=1e-4, cons_tol=1e-4)
    worst_sys = max(block_norms(r).max() for r in
                    red.multiplier_system_residual(lagrangian, grid, y, lam))
    worst_ep = block_norms(red.euler_poincare_residual(lagrangian, grid, y)).max()
    assert worst_sys > 1e-9    # genuinely inexact pair, not a vacuous bound
    assert worst_ep <= 10.0 * worst_sys + 1e-12


def test_boundary_fixed_gauge_kernel_is_real():
    """A gauge field at the top-right interior corner stays supported on
    interior vertices, so the boundary-fixed differential always has a
    kernel on a full window; its flow preserves flatness exactly."""
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(18)
    g = sampling.random_unreduced_field(grid, N, rng)
    y = red.reduce_field(grid, g)
    theta = np.zeros((len(grid.vertices), N, N))
    theta[grid.vertex_id(2, 2)] = lg.random_skew(N, rng)
    dv = red.reduced_variation(grid, g, theta)
    klass = classify_vertices(grid, grid.full_faceset())
    for v, fib in enumerate(dv.values):
        if v not in klass.interior:
            assert all(np.linalg.norm(x) == 0.0 for x in fib)
    assert any(np.linalg.norm(x) > 0.1 for v in klass.interior for x in dv.values[v])
    dpsi = core.constraint_derivative(red.PlaquetteConstraint(N), y, dv,
                                      grid.full_faceset())
    assert max(np.linalg.norm(a) for a in dpsi) <= 1e-12
    rep = core.regularity_report(red.PlaquetteConstraint(N), y,
                                 grid.full_faceset(), boundary_fixed=True)
    assert rep.sigma_min <= 1e-12
