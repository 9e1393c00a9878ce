import numpy as np
import pytest
import scipy.linalg

from groupvar import core, liegroup as lg, sampling
from groupvar.complexes import (
    FaceSet,
    TriangulatedGrid,
    classify_vertices,
    triangulated_grid,
)
from groupvar.harmonic import TraceLagrangian
from groupvar.reduction import (
    PlaquetteConstraint,
    reduce_field,
    reduced_variation,
)

N = 3


def identity_section(grid):
    return np.zeros((len(grid.vertices), 2, N, N)) + np.eye(N)


def zero_multiplier(grid):
    return np.zeros((len(grid.faces), N, N))


def zero_variation(grid):
    return np.zeros((len(grid.vertices), 2, N, N))


def residual_at(lagrangian, y, lam, fs, v):
    """The extended residual (2, n, n) at interior vertex v, with the
    plaquette constraint."""
    res = core.extended_residual(lagrangian, PlaquetteConstraint(), y, lam, fs)
    interior = classify_vertices(fs).interior
    assert res.shape == (len(interior), 2, N, N)
    return res[interior.tolist().index(v)]


def replaced(y, v, fiber):
    """y with the fiber at vertex v replaced."""
    values = y.copy()
    values[v] = fiber
    return values


def single_vertex_variation(grid, v, xi):
    """The variation that is xi (2, n, n) at vertex v and zero elsewhere."""
    values = np.zeros((len(grid.vertices), 2, N, N))
    values[v] = xi
    return values


class LinearDensity(core.LagrangianDensity):
    """tr(A g) summed over every slot and component; differentials by FD.

    The analytic left-log differential is ((A g)^T - A g) / 2, which makes
    this a direct oracle for the finite-difference machinery.
    """

    def __init__(self, rng):
        self.weights = {(slot, comp): rng.standard_normal((N, N))
                        for slot in range(3) for comp in range(2)}

    def value(self, jets):
        total = 0.0
        for slot in range(3):
            for comp in range(2):
                total = total + np.trace(self.weights[(slot, comp)] @ jets[:, slot, comp],
                                         axis1=-2, axis2=-1)
        return total

    def analytic_differential(self, jet, slot):
        out = []
        for comp, g in enumerate(jet[slot]):
            ag = self.weights[(slot, comp)] @ g
            out.append((ag.T - ag) / 2.0)
        return np.array(out)


def test_action_empty_faceset_is_zero():
    grid = triangulated_grid(2, 2)
    y = identity_section(grid)
    assert core.action(TraceLagrangian(), y, FaceSet(grid, [])) == 0.0


def test_action_identity_section_value():
    grid = triangulated_grid(2, 2)
    y = identity_section(grid)
    total = core.action(TraceLagrangian(), y, grid.full_faceset())
    assert total == pytest.approx(4 * (3 + 3), abs=1e-13)


def test_action_additive_over_disjoint_facesets():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(0)
    y = sampling.random_section(grid, N, rng)
    lagrangian = TraceLagrangian()
    left = FaceSet(grid, [f for f in grid.faces if grid.face_ij(f)[0] < 2])
    right = FaceSet(grid, [f for f in grid.faces if grid.face_ij(f)[0] >= 2])
    total = core.action(lagrangian, y, grid.full_faceset())
    assert total == pytest.approx(
        core.action(lagrangian, y, left) + core.action(lagrangian, y, right),
        rel=1e-14)


def test_constraint_values_identity_section():
    grid = triangulated_grid(2, 2)
    vals = core.constraint_values(PlaquetteConstraint(), identity_section(grid),
                                  grid.full_faceset())
    assert len(vals) == len(grid.faces)
    for g in vals:
        assert np.array_equal(g, np.eye(N))


def test_constraint_values_reduced_field_flat():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(1)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    vals = core.constraint_values(PlaquetteConstraint(), y, grid.full_faceset())
    worst = max(np.linalg.norm(g - np.eye(N)) for g in vals)
    assert worst <= 1e-13


def test_constraint_locality_of_vertex_perturbation():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(2)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    con = PlaquetteConstraint()
    fs = grid.full_faceset()
    before = core.constraint_values(con, y, fs)
    v = grid.vertex_id(1, 1)
    bump = lg.exp(lg.random_skew(N, rng, 0.3))
    y = replaced(y, v, y[v] @ bump)
    after = core.constraint_values(con, y, fs)
    touched = {f for f in grid.faces
               if np.linalg.norm(after[f] - before[f]) > 0}
    assert touched == set(grid.star(v))
    for f in grid.faces:
        if f not in touched:
            assert np.array_equal(after[f], before[f])


def test_admissibility_report():
    grid = triangulated_grid(2, 2)
    con = PlaquetteConstraint()
    fs = grid.full_faceset()
    y = identity_section(grid)
    rep = core.admissibility_report(con, y, fs)
    assert rep.admissible and rep.max_residual == 0.0
    v = grid.vertex_id(1, 1)
    u, w = y[v]
    step = lg.exp(lg.random_skew(N, np.random.default_rng(3), 1e-4))
    y = replaced(y, v, (u @ step, w))
    rep = core.admissibility_report(con, y, fs, tol=1e-12)
    assert not rep.admissible
    assert rep.worst_face in grid.star(v)


def test_constraint_derivative_zero_variation():
    grid = triangulated_grid(2, 2)
    y = identity_section(grid)
    dpsi = core.constraint_derivative(PlaquetteConstraint(), y,
                                      zero_variation(grid),
                                      grid.full_faceset())
    assert len(dpsi) == len(grid.faces)
    assert all(np.linalg.norm(a) == 0.0 for a in dpsi)


def test_constraint_derivative_matches_log_quotient():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(4)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    con = PlaquetteConstraint()
    dy = sampling.random_variation(grid, N, rng)
    t = 1e-6
    # the full face set, and a proper subset whose sorted positions are not
    # its face ids: the results stay indexed by face id
    inner = FaceSet(grid, [grid.face_id(i, j) for i in (1, 2) for j in (0, 2)])
    for fs in (grid.full_faceset(), inner):
        dpsi = core.constraint_derivative(con, y, dy, fs)
        plus = core.constraint_values(con, core.section_exp(y, dy, t), fs)
        minus = core.constraint_values(con, core.section_exp(y, dy, -t), fs)
        assert dpsi.shape == plus.shape == (len(grid.faces), N, N)
        for f in fs.face_ids:
            quotient = scipy.linalg.logm(plus[f] @ minus[f].T).real / (2.0 * t)
            rel = np.linalg.norm(dpsi[f] - (quotient - quotient.T) / 2.0) \
                / (1.0 + np.linalg.norm(dpsi[f]))
            assert rel <= 1e-6
        for f in set(grid.faces.tolist()) - set(fs.face_ids.tolist()):
            assert np.array_equal(dpsi[f], np.zeros((N, N)))
            assert np.array_equal(plus[f], np.eye(N))


def test_constraint_derivative_vanishes_on_gauge_variations():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(5)
    g = sampling.random_unreduced_field(grid, N, rng)
    theta = lg.random_skew(N, rng, 1.0, (len(grid.vertices),))
    y = reduce_field(grid, g)
    dy = reduced_variation(grid, y, theta)
    dpsi = core.constraint_derivative(PlaquetteConstraint(), y, dy, grid.full_faceset())
    assert max(np.linalg.norm(a) for a in dpsi) <= 1e-12


def test_fd_lagrangian_differential_against_analytic():
    grid = triangulated_grid(2, 2)
    rng = np.random.default_rng(6)
    density = LinearDensity(rng)
    y = sampling.random_section(grid, N, rng)
    jets = core.jet_at(y, FaceSet(grid, [grid.face_id(1, 1)]))
    theta = density.vertex_differential(jets)[0]
    for slot in range(3):
        fd = theta[slot]
        exact = density.analytic_differential(jets[0], slot)
        for a, b in zip(fd, exact):
            assert np.linalg.norm(a - b) <= 1e-9


def test_fd_differential_sum_is_directional_derivative():
    grid = triangulated_grid(2, 2)
    rng = np.random.default_rng(7)
    density = LinearDensity(rng)
    y = sampling.random_section(grid, N, rng)
    dy = sampling.random_variation(grid, N, rng)
    face = grid.face_id(0, 1)
    single = FaceSet(grid, [face])
    jets = core.jet_at(y, single)
    theta = density.vertex_differential(jets)[0]
    theta_sum = sum(core.apply_differential(theta[slot], dy[v])
                    for slot, v in enumerate(grid.adherence(face)))
    t = 1e-6
    fd = (density.value(core.jet_at(core.section_exp(y, dy, t), single))[0]
          - density.value(core.jet_at(core.section_exp(y, dy, -t), single))[0]) \
        / (2.0 * t)
    assert abs(theta_sum - fd) / (1.0 + abs(fd)) <= 1e-6


class ConstantDensity(core.LagrangianDensity):
    def value(self, jets):
        return np.full(len(jets), 4.25)


def test_euler_lagrange_form_constant_density():
    """The Euler-Lagrange form is the extended residual at the zero
    multiplier."""
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(8)
    y = sampling.random_section(grid, N, rng)
    form = residual_at(ConstantDensity(), y, zero_multiplier(grid),
                       grid.full_faceset(), grid.vertex_id(1, 1))
    assert all(np.linalg.norm(mu) == 0.0 for mu in form)


def test_euler_lagrange_form_matches_action_derivative():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(9)
    density = LinearDensity(rng)
    y = sampling.random_section(grid, N, rng)
    fs = grid.full_faceset()
    v = grid.vertex_id(2, 1)
    xi = lg.random_skew(N, rng, shape=(2,))
    dy = single_vertex_variation(grid, v, xi)
    form = residual_at(density, y, zero_multiplier(grid), fs, v)
    t = 1e-6
    fd = (core.action(density, core.section_exp(y, dy, t), fs)
          - core.action(density, core.section_exp(y, dy, -t), fs)) / (2.0 * t)
    assert abs(core.apply_differential(form, xi) - fd) / (1.0 + abs(fd)) <= 1e-6


def test_euler_lagrange_form_trace_at_identity():
    grid = triangulated_grid(3, 3)
    form = residual_at(TraceLagrangian(), identity_section(grid),
                       zero_multiplier(grid), grid.full_faceset(),
                       grid.vertex_id(1, 1))
    assert all(np.linalg.norm(mu) == 0.0 for mu in form)


def test_extended_residual_identity_zero_multiplier():
    grid = triangulated_grid(3, 3)
    y = identity_section(grid)
    lam = zero_multiplier(grid)
    res = core.extended_residual(TraceLagrangian(), PlaquetteConstraint(),
                                 y, lam, grid.full_faceset())
    assert res.shape == (4, 2, N, N)
    assert np.linalg.norm(res) == 0.0


def test_extended_residual_missing_multiplier():
    grid = triangulated_grid(3, 3)
    y = identity_section(grid)
    lam = np.zeros((0, N, N))
    with pytest.raises(ValueError):
        core.extended_residual(TraceLagrangian(), PlaquetteConstraint(),
                               y, lam, grid.full_faceset())


def test_extended_residual_locality():
    grid = triangulated_grid(4, 4)
    rng = np.random.default_rng(10)
    y = sampling.random_section(grid, N, rng)
    lam = sampling.random_multiplier(grid, N, rng)
    fs = grid.full_faceset()
    v = grid.vertex_id(1, 1)
    before = residual_at(TraceLagrangian(), y, lam, fs, v)
    # vertices adherent to the star faces of (1, 1) form the stencil
    stencil = {w for f in grid.star(v) for w in grid.adherence(f)}
    outside = grid.vertex_id(3, 3)
    assert outside not in stencil
    y = replaced(y, outside, (lg.exp(lg.random_skew(N, rng)),
                              lg.exp(lg.random_skew(N, rng))))
    after = residual_at(TraceLagrangian(), y, lam, fs, v)
    assert np.array_equal(before, after)


def test_variational_split_zero_variation():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(11)
    y = sampling.random_section(grid, N, rng)
    lam = sampling.random_multiplier(grid, N, rng)
    (lhs,), (rhs,) = core.variational_split(
        TraceLagrangian(), PlaquetteConstraint(), y[None], lam[None],
        zero_variation(grid)[None], grid.full_faceset())
    assert lhs == 0.0 and rhs == 0.0


# Proper face subsets of a 5x5 window, by face coordinates (i, j).  Their
# frontier vertices see only part of their star, which the full window never
# produces away from its edge.
SPLIT_SUBSETS = {
    "corner-block": lambda i, j: i < 3 and j < 3,
    "middle-rows": lambda i, j: 1 <= j <= 3,
    "holed": lambda i, j: (i, j) != (2, 2),
    "staircase": lambda i, j: i + j <= 5,
}


@pytest.mark.parametrize(
    "seed, subset",
    [pytest.param(seed, None, id=str(seed)) for seed in range(5)]
    + [pytest.param(5 + k, name, id=f"5x5-{name}")
       for k, name in enumerate(SPLIT_SUBSETS)])
def test_variational_split_resummation(seed, subset):
    grid = triangulated_grid(3, 3) if subset is None else triangulated_grid(5, 5)
    rng = np.random.default_rng(seed)
    y = sampling.random_section(grid, N, rng)
    lam = sampling.random_multiplier(grid, N, rng)
    dy = sampling.random_variation(grid, N, rng)
    if subset is None:
        fs = grid.full_faceset()
    else:
        keep = SPLIT_SUBSETS[subset]
        fs = FaceSet(grid, [f for f in grid.faces if keep(*grid.face_ij(f))])
        faces = set(fs.face_ids.tolist())
        assert faces < set(grid.faces.tolist())
        klass = classify_vertices(fs)
        assert klass.interior.size
        assert any(not set(grid.star(v).tolist()) <= faces for v in klass.frontier)
    (lhs,), (rhs,) = core.variational_split(
        TraceLagrangian(), PlaquetteConstraint(), y[None], lam[None],
        dy[None], fs)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_variational_split_single_interior_vertex():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(12)
    y = sampling.random_section(grid, N, rng)
    lam = sampling.random_multiplier(grid, N, rng)
    v = grid.vertex_id(2, 2)
    xi = lg.random_skew(N, rng, shape=(2,))
    dy = single_vertex_variation(grid, v, xi)
    lagrangian, constraint = TraceLagrangian(), PlaquetteConstraint()
    fs = grid.full_faceset()
    (lhs,), (rhs,) = core.variational_split(lagrangian, constraint, y[None],
                                            lam[None], dy[None], fs)
    res = residual_at(lagrangian, y, lam, fs, v)
    applied = sum(float(np.trace(mu.T @ x)) for mu, x in zip(res, xi))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)
    assert lhs == pytest.approx(applied, rel=1e-12, abs=1e-14)


def test_scalar_outputs_linear_in_multiplier():
    """Rescaling the dual representation consistently cannot move scalars."""
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(13)
    y = sampling.random_section(grid, N, rng)
    lam = sampling.random_multiplier(grid, N, rng)
    dy = sampling.random_variation(grid, N, rng)
    lagrangian, constraint = TraceLagrangian(), PlaquetteConstraint()
    fs = grid.full_faceset()
    zero = zero_multiplier(grid)
    c = 3.7
    scaled = c * lam

    def lhs(mult):
        return core.variational_split(lagrangian, constraint, y[None],
                                      mult[None], dy[None], fs)[0][0]

    base = lhs(zero)
    assert (lhs(scaled) - base) == pytest.approx(c * (lhs(lam) - base), rel=1e-12)

    def nsum(mult):
        return core.noether_boundary_sum(lagrangian, constraint, y, mult, dy,
                                         fs).boundary_sum

    nbase = nsum(zero)
    assert (nsum(scaled) - nbase) == pytest.approx(c * (nsum(lam) - nbase),
                                                   rel=1e-12)


def test_noether_zero_field():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(14)
    y = sampling.random_section(grid, N, rng)
    lam = sampling.random_multiplier(grid, N, rng)
    rep = core.noether_boundary_sum(TraceLagrangian(), PlaquetteConstraint(),
                                    y, lam, zero_variation(grid),
                                    grid.full_faceset())
    assert rep.boundary_sum == 0.0
    assert rep.symmetry_ok


def test_noether_flags_non_symmetry():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(15)
    g = sampling.random_unreduced_field(grid, N, rng)
    y = reduce_field(grid, g)
    lam = sampling.random_multiplier(grid, N, rng)
    d = sampling.random_variation(grid, N, rng)
    rep = core.noether_boundary_sum(TraceLagrangian(), PlaquetteConstraint(),
                                    y, lam, d, grid.full_faceset())
    assert not rep.symmetry_ok
    assert rep.boundary_sum != 0.0


def test_jacobi_residual_zero_direction():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(16)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    lam = sampling.random_multiplier(grid, N, rng)
    zero_l = zero_multiplier(grid)
    value = core.jacobi_residual(TraceLagrangian(), PlaquetteConstraint(),
                                 y, lam, zero_variation(grid), zero_l,
                                 grid.full_faceset())
    assert value == 0.0


def test_multisymplectic_antisymmetry_structural():
    """Antisymmetry holds for arbitrary data, not only for Jacobi fields."""
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(17)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    lam = sampling.random_multiplier(grid, N, rng)
    d1 = sampling.random_variation(grid, N, rng)
    d2 = sampling.random_variation(grid, N, rng)
    dl1 = sampling.random_multiplier(grid, N, rng)
    dl2 = sampling.random_multiplier(grid, N, rng)
    args = (TraceLagrangian(), PlaquetteConstraint(), y, lam)
    fs = grid.full_faceset()
    ab = core.multisymplectic_defect(*args, d1, dl1, d2, dl2, fs)
    ba = core.multisymplectic_defect(*args, d2, dl2, d1, dl1, fs)
    aa = core.multisymplectic_defect(*args, d1, dl1, d1, dl1, fs)
    assert abs(ab + ba) <= 1e-12 * (1.0 + abs(ab))
    assert aa == 0.0


def test_the_sums_sort_no_pairs_once_the_stars_exist(monkeypatch):
    """Every per-vertex sum reads the face set's cached stars: after one
    call of each on a fresh face set, calling them again sorts nothing."""
    grid = triangulated_grid(4, 4)
    fs = FaceSet(grid, grid.faces)
    rng = np.random.default_rng(18)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    lam, dl1, dl2 = (sampling.random_multiplier(grid, N, rng) for _ in range(3))
    d1, d2 = (sampling.random_variation(grid, N, rng) for _ in range(2))
    args = (TraceLagrangian(), PlaquetteConstraint())
    sums = [lambda: core.variational_split(*args, y[None], lam[None], d1[None], fs),
            lambda: core.noether_boundary_sum(*args, y, lam, d1, fs),
            lambda: core.extended_residual(*args, y, lam, fs),
            lambda: core.multisymplectic_check(*args, y, lam, d1, dl1, d2, dl2, fs)]
    for call in sums:
        call()
    sorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(a) or argsort(*a, **k))
    for call in sums:
        call()
    assert sorts == []


def test_regularity_zero_columns():
    grid = triangulated_grid(2, 2)
    y = identity_section(grid)
    rep = core.regularity_report(PlaquetteConstraint(), y,
                                 FaceSet(grid, [grid.face_id(0, 0)]),
                                 boundary_fixed=True)
    assert rep.cols == 0 < rep.rows
    assert rep.sigma_min == 0.0
    assert rep.unreachable_faces == (grid.face_id(0, 0),)


def test_regularity_free_variations_full_rank():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(18)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    rep = core.regularity_report(PlaquetteConstraint(), y, grid.full_faceset(),
                                 boundary_fixed=False)
    assert rep.rows == 27 and rep.cols == 90
    assert rep.sigma_min > 1e-8
    assert rep.unreachable_faces == ()


def test_regularity_boundary_fixed_shape_and_flags():
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(19)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
    rep = core.regularity_report(PlaquetteConstraint(), y, grid.full_faceset(),
                                 boundary_fixed=True)
    assert rep.rows == 27 and rep.cols == 24
    assert rep.unreachable_faces == (grid.face_id(0, 0),)


def test_problem_bundle_delegates():
    """Action, admissibility, residuals and split agree on the identity pair."""
    grid = triangulated_grid(3, 3)
    lagrangian, constraint = TraceLagrangian(), PlaquetteConstraint()
    fs = grid.full_faceset()
    y = identity_section(grid)
    assert core.action(lagrangian, y, fs) == pytest.approx(9 * 6, abs=1e-12)
    assert core.admissibility_report(constraint, y, fs).admissible
    lam = zero_multiplier(grid)
    res = core.extended_residual(lagrangian, constraint, y, lam, fs)
    assert len(res) == len(classify_vertices(fs).interior)
    assert np.linalg.norm(res) == 0.0
    (lhs,), (rhs,) = core.variational_split(lagrangian, constraint, y[None],
                                            lam[None],
                                            zero_variation(grid)[None], fs)
    assert lhs == 0.0 and rhs == 0.0


def test_regularity_deterministic_under_rebuild():
    rng = np.random.default_rng(20)
    g1 = triangulated_grid(3, 3)
    field = sampling.random_unreduced_field(g1, N, rng)
    y1 = reduce_field(g1, field)
    rep1 = core.regularity_report(PlaquetteConstraint(), y1, g1.full_faceset(),
                                  boundary_fixed=False)
    g2 = TriangulatedGrid(3, 3)
    assert g2 is not g1
    y2 = reduce_field(g2, field)
    rep2 = core.regularity_report(PlaquetteConstraint(), y2, g2.full_faceset(),
                                  boundary_fixed=False)
    assert rep1.sigma_min == rep2.sigma_min
