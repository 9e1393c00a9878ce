"""The window functions of ``groupvar.reduction`` against per-vertex oracles.

The oracles below are the earlier per-vertex implementations, kept here as
test-only code: one face or vertex at a time, on single (n, n) matrices,
with their own one-matrix adjoint and coadjoint formulas.  The array
versions must equal them bit for bit, for n = 2..5, on flat and non-flat
sections and on 2 x H, W x 2 and non-square windows.  The face Lagrangian
partials, sliced from the window's base corners, must equal those of the
earlier gather of every face's jets over the full face set, also on
1 x 1, 1 x H and W x 1 windows.  The grid multiplier system,
``multiplier_system_residual``, is in turn the oracle of the recovery's
certificate, the extended residual of ``groupvar.core``.
"""

import numpy as np
import pytest

from groupvar import core, harmonic as hm, liegroup as lg, reduction as red, sampling
from groupvar.errors import HolonomyError, PreconditionError, RecoveryConflictError
from groupvar.harmonic import TraceLagrangian
from groupvar.complexes import triangulated_grid

WINDOWS = [(2, 4), (4, 2), (6, 4)]
CASES = [(n, w, h, flat) for n in (2, 3, 4, 5) for w, h in WINDOWS
         for flat in (True, False)]


def _ids(cases):
    return [f"n{n}-{w}x{h}-{'flat' if flat else 'nonflat'}" for n, w, h, flat in cases]


IDS = _ids(CASES)


# ---------------------------------------------------------------------------
# per-vertex oracles


def _skew(x):
    return (x - x.T) / 2.0


def adjoint(g, xi):
    """Ad_g xi = g xi g^T of one matrix, i.e. the inverse coadjoint action."""
    return _skew(g @ xi @ g.T)


def coadjoint(g, mu):
    """Ad*_g mu = g^T mu g of one matrix."""
    return _skew(g.T @ mu @ g)


def _uv(y, grid, i, j):
    u, v = y[grid.vertex_id(i, j)]
    return u, v


def _left_log_differentials(lagrangian, grid, y, i, j):
    face = grid.face_id(i, j)
    jets = np.array([[y[v] for v in grid.adherence(face)]])
    return tuple(lagrangian.vertex_differential(jets)[0, 0])


def oracle_partials(lagrangian, grid, y):
    """The face Lagrangian partials from the gathered base-corner jets of the
    full face set, and their right translates, both indexed [j, i]."""
    jets = core.jet_at(y, grid.full_faceset())[:, :1]
    mu = red._on_window(grid, lagrangian.vertex_differential(jets)[:, 0])
    return mu, lg.adjoint(red._on_window(grid, y)[:-1, :-1], mu)


def oracle_reduce_field(grid, g):
    """Per-vertex dict of (u, v) matrix pairs, without the far corner."""
    n = g.shape[-1]
    eye = np.eye(n)
    values = {}
    for j in range(grid.height + 1):
        for i in range(grid.width + 1):
            if i == grid.width and j == grid.height:
                continue
            base = g[grid.vertex_id(i, j)]
            u = base.T @ g[grid.vertex_id(i + 1, j)] \
                if i < grid.width else eye
            v = base.T @ g[grid.vertex_id(i, j + 1)] \
                if j < grid.height else eye
            values[grid.vertex_id(i, j)] = (u, v)
    return values


def oracle_holonomy(grid, y, i, j):
    u, v = _uv(y, grid, i, j)
    _, v_right = _uv(y, grid, i + 1, j)
    u_up, _ = _uv(y, grid, i, j + 1)
    return u @ v_right @ u_up.T @ v.T


def oracle_ep(lagrangian, grid, y, i, j):
    mu_u, mu_v = _left_log_differentials(lagrangian, grid, y, i, j)
    mu_u_w, _ = _left_log_differentials(lagrangian, grid, y, i - 1, j)
    _, mu_v_s = _left_log_differentials(lagrangian, grid, y, i, j - 1)
    u, v = _uv(y, grid, i, j)
    right_u = adjoint(u, mu_u)
    right_v = adjoint(v, mu_v)
    return right_u - mu_u_w + right_v - mu_v_s


def oracle_first(lagrangian, grid, y, lam, i, j):
    mu_u, _ = _left_log_differentials(lagrangian, grid, y, i, j)
    u, _ = _uv(y, grid, i, j)
    right_u = adjoint(u, mu_u)
    _, v_s = _uv(y, grid, i, j - 1)
    lam_here = lam[grid.face_id(i, j)]
    lam_s = lam[grid.face_id(i, j - 1)]
    return right_u + lam_here - coadjoint(v_s, lam_s)


def oracle_second(lagrangian, grid, y, lam, i, j):
    _, mu_v = _left_log_differentials(lagrangian, grid, y, i, j)
    _, v = _uv(y, grid, i, j)
    right_v = adjoint(v, mu_v)
    u_w, _ = _uv(y, grid, i - 1, j)
    lam_here = lam[grid.face_id(i, j)]
    lam_w = lam[grid.face_id(i - 1, j)]
    return right_v - lam_here + coadjoint(u_w, lam_w)


def oracle_elimination(lagrangian, grid, y, lam, i, j):
    first = oracle_first(lagrangian, grid, y, lam, i, j)
    second = oracle_second(lagrangian, grid, y, lam, i, j)
    first_w = oracle_first(lagrangian, grid, y, lam, i - 1, j)
    second_s = oracle_second(lagrangian, grid, y, lam, i, j - 1)
    u_w, _ = _uv(y, grid, i - 1, j)
    _, v_s = _uv(y, grid, i, j - 1)
    combo = first - coadjoint(u_w, first_w) + second - coadjoint(v_s, second_s)
    u_sw, v_sw = _uv(y, grid, i - 1, j - 1)
    lam_sw = lam[grid.face_id(i - 1, j - 1)]
    one_way = coadjoint(v_s, coadjoint(u_sw, lam_sw))
    other_way = coadjoint(u_w, coadjoint(v_sw, lam_sw))
    return lg.block_norms(combo), lg.block_norms(one_way - other_way)


def oracle_recover(lagrangian, grid, y, seed, ep_tol, cons_tol, adm_tol):
    """The vertex sweep; also returns every discrepancy in sweep order.  The
    first one beyond ``cons_tol`` times max(1, largest block norm of the
    finished multiplier) raises."""
    interior_ij = sorted(((i, j) for i in range(1, grid.width)
                          for j in range(1, grid.height)), reverse=True)
    for i, j in interior_ij:
        res = lg.block_norms(oracle_ep(lagrangian, grid, y, i, j))
        if res > ep_tol:
            raise PreconditionError(
                f"reduced residual {res:.3e} > {ep_tol:.1e} at ({i}, {j})")
    worst_hol = max(
        float(lg.block_norms(oracle_holonomy(grid, y, i, j) - np.eye(y.shape[-1])))
        for j in range(grid.height) for i in range(grid.width))
    if worst_hol > adm_tol:
        raise PreconditionError(
            f"section is not flat, worst holonomy defect {worst_hol:.3e}")
    seed_face = grid.face_id(grid.width - 1, grid.height - 1)
    values = {seed_face: seed}
    compared = []

    def assign(face, value):
        if face in values:
            compared.append((face, lg.block_norms(values[face] - value)))
        else:
            values[face] = value

    for i, j in interior_ij:
        lam_here = values[grid.face_id(i, j)]
        mu_u, mu_v = _left_log_differentials(lagrangian, grid, y, i, j)
        u, v = _uv(y, grid, i, j)
        right_u = adjoint(u, mu_u)
        right_v = adjoint(v, mu_v)
        u_w, _ = _uv(y, grid, i - 1, j)
        _, v_s = _uv(y, grid, i, j - 1)
        assign(grid.face_id(i, j - 1), adjoint(v_s, right_u + lam_here))
        assign(grid.face_id(i - 1, j), adjoint(u_w, lam_here - right_v))
    scale = max(float(lg.block_norms(value)) for value in values.values())
    bound = cons_tol * (scale if 1.0 < scale < np.inf else 1.0)
    for face, disc in compared:
        if disc > bound:
            raise RecoveryConflictError(face, disc)
    discs = [disc for _, disc in compared]
    max_disc = max(discs, default=0.0)
    n = y.shape[-1]
    unconstrained = tuple(f for f in grid.faces if f not in values)
    for f in unconstrained:
        values[f] = np.zeros((n, n))
    return values, max_disc, unconstrained, discs


def oracle_reconstruction(grid, y, seed, tol):
    eye = np.eye(y.shape[-1])
    worst_face, worst = None, 0.0
    for j in range(grid.height):
        for i in range(grid.width):
            defect = float(lg.block_norms(oracle_holonomy(grid, y, i, j) - eye))
            if defect > worst:
                worst, worst_face = defect, grid.face_id(i, j)
    if worst > tol:
        raise HolonomyError(worst_face, worst, grid.face_ij(worst_face))

    def u_of(i, j):
        return y[grid.vertex_id(i, j)][0]

    def v_of(i, j):
        return y[grid.vertex_id(i, j)][1]

    rows = {grid.vertex_id(0, 0): seed}
    for i in range(grid.width):
        rows[grid.vertex_id(i + 1, 0)] = rows[grid.vertex_id(i, 0)] @ u_of(i, 0)
    for j in range(grid.height):
        for i in range(grid.width + 1):
            rows[grid.vertex_id(i, j + 1)] = rows[grid.vertex_id(i, j)] @ v_of(i, j)
    cols = {grid.vertex_id(0, 0): seed}
    for j in range(grid.height):
        cols[grid.vertex_id(0, j + 1)] = cols[grid.vertex_id(0, j)] @ v_of(0, j)
    for i in range(grid.width):
        for j in range(grid.height + 1):
            cols[grid.vertex_id(i + 1, j)] = cols[grid.vertex_id(i, j)] @ u_of(i, j)
    agreement = max(float(lg.block_norms(rows[vid] - cols[vid])) for vid in rows)
    field = dict(sorted(rows.items()))
    return field, worst, agreement


def oracle_reduced_variation(grid, g, theta):
    y = oracle_reduce_field(grid, g)
    zero = np.zeros((g.shape[-1],) * 2)
    values = {}
    for vid, (u, v) in y.items():
        i, j = grid.vertex_ij(vid)
        here = theta[vid]
        xi_u = theta[grid.vertex_id(i + 1, j)] - adjoint(u.T, here) \
            if i < grid.width else zero
        xi_v = theta[grid.vertex_id(i, j + 1)] - adjoint(v.T, here) \
            if j < grid.height else zero
        values[vid] = (xi_u, xi_v)
    return values


def _same_per_vertex(values, expected, far, fill):
    """An id-indexed array equals a per-vertex dict of matrix pairs bit for
    bit; the far corner, absent from the dict, holds ``fill``."""
    assert sorted(expected) == [v for v in range(len(values)) if v != far]
    assert _bits(values[far], np.broadcast_to(fill, values[far].shape))
    return all(_bits(a, b) for v in expected
               for a, b in zip(values[v], expected[v]))


# ---------------------------------------------------------------------------
# fixtures


def _case(n, w, h, flat, seed=0):
    grid = triangulated_grid(w, h)
    rng = np.random.default_rng([n, w, h, int(flat), seed])
    g = sampling.random_unreduced_field(grid, n, rng)
    y = red.reduce_field(grid, g) if flat else sampling.random_section(grid, n, rng)
    lam = sampling.random_multiplier(grid, n, rng)
    return grid, rng, g, y, lam


def _interior(grid):
    return [(i, j) for j in range(1, grid.height) for i in range(1, grid.width)]


def _bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class BaseCornerDensity(core.LagrangianDensity):
    """A nonlinear density of the base-corner pair with no analytic
    differential, so its partials are central finite differences."""

    def value(self, jets):
        u, v = jets[:, 0, 0], jets[:, 0, 1]
        return np.trace(u @ v, axis1=-2, axis2=-1) \
            + np.trace(u, axis1=-2, axis2=-1) ** 2 / 4.0


# ---------------------------------------------------------------------------
# tests


PARTIAL_CASES = [(n, w, h, flat) for n in (2, 3, 4, 5)
                 for w, h in ((1, 1), (1, 4), (4, 1), (6, 4)) for flat in (True, False)]


@pytest.mark.parametrize("density", [TraceLagrangian, BaseCornerDensity])
@pytest.mark.parametrize("n,w,h,flat", PARTIAL_CASES, ids=_ids(PARTIAL_CASES))
def test_window_partials_match_gathered_jets(n, w, h, flat, density):
    """Slicing the base corners of the pair view gives the partials of the
    gathered face jets bit for bit."""
    grid, _, _, y, _ = _case(n, w, h, flat)
    lagrangian = density()
    mu, right = red._partials(lagrangian, red._on_window(grid, y))
    want_mu, want_right = oracle_partials(lagrangian, grid, y)
    assert mu.shape == right.shape == (h, w, 2, n, n)
    assert np.array_equal(mu, want_mu) and np.array_equal(right, want_right)


@pytest.mark.parametrize("n,w,h,flat", CASES, ids=IDS)
def test_window_equations_match_oracle(n, w, h, flat):
    grid, rng, g, y, lam = _case(n, w, h, flat)
    lagrangian = TraceLagrangian()

    far = grid.vertex_id(w, h)
    reduced = red.reduce_field(grid, g)
    assert _same_per_vertex(reduced, oracle_reduce_field(grid, g),
                            far, np.eye(n))

    hol = red.plaquette_holonomy(grid, y)
    assert hol.shape == (h, w, n, n)
    assert all(_bits(hol[j, i], oracle_holonomy(grid, y, i, j))
               for j in range(h) for i in range(w))

    ep = red.euler_poincare_residual(lagrangian, grid, y)
    first, second = red.multiplier_system_residual(lagrangian, grid, y, lam)
    defects = red.multiplier_elimination_check(lagrangian, grid, y, lam)
    for arr in (ep, first, second):
        assert arr.shape == (h - 1, w - 1, n, n)
    assert defects.ep_combination.shape == defects.cancellation.shape == (h - 1, w - 1)
    for i, j in _interior(grid):
        k = (j - 1, i - 1)
        assert _bits(ep[k], oracle_ep(lagrangian, grid, y, i, j))
        assert _bits(first[k], oracle_first(lagrangian, grid, y, lam, i, j))
        assert _bits(second[k], oracle_second(lagrangian, grid, y, lam, i, j))
        combo, cancel = oracle_elimination(lagrangian, grid, y, lam, i, j)
        assert defects.ep_combination[k] == combo
        assert defects.cancellation[k] == cancel

    theta = lg.random_skew(n, rng, 1.0, (len(grid.vertices),))
    dv = red.reduced_variation(grid, reduced, theta)
    assert _same_per_vertex(dv, oracle_reduced_variation(grid, g, theta),
                            far, np.zeros((n, n)))


def _assert_same_recovery(lagrangian, grid, y, seed, **tols):
    values, max_disc, unconstrained, discs = oracle_recover(
        lagrangian, grid, y, seed, **tols)
    lam, rep = red.recover_multipliers(lagrangian, grid, y, seed, **tols)
    assert sorted(values) == list(range(len(lam)))
    assert all(_bits(lam[f], values[f]) for f in values)
    assert rep.max_sweep_discrepancy == max_disc
    # no interior equation reaches the origin-corner face: it is zero
    assert unconstrained == (grid.face_id(0, 0),) and not lam[0].any()
    assert _bits(lam[-1], seed)
    return discs


def _assert_same_raise(lagrangian, grid, y, seed, **tols):
    with pytest.raises((PreconditionError, RecoveryConflictError)) as want:
        oracle_recover(lagrangian, grid, y, seed, **tols)
    with pytest.raises(type(want.value)) as got:
        red.recover_multipliers(lagrangian, grid, y, seed, **tols)
    assert str(got.value) == str(want.value)
    if isinstance(want.value, RecoveryConflictError):
        assert got.value.face == want.value.face
    return want.value


@pytest.mark.parametrize("n,w,h,flat", CASES, ids=IDS)
def test_recovery_sweep_matches_oracle(n, w, h, flat):
    """Off the critical set (preconditions switched off) the recurrence still
    stores, compares and raises exactly like the vertex sweep."""
    grid, rng, _, y, _ = _case(n, w, h, flat)
    lagrangian = TraceLagrangian()
    seed = lg.random_skew(n, rng, 0.3)
    loose = dict(ep_tol=np.inf, cons_tol=np.inf, adm_tol=np.inf)
    discs = _assert_same_recovery(lagrangian, grid, y, seed, **loose)
    assert len(discs) == (w - 2) * (h - 2)
    if discs:
        # a threshold that some but not all comparisons exceed, in units of
        # the multiplier's scale
        lam = red.recover_multipliers(lagrangian, grid, y, seed, **loose)[0]
        cut = sorted(discs)[len(discs) // 2] / max(1.0, lg.max_norm(lg.block_norms(lam)))
        _assert_same_raise(lagrangian, grid, y, seed, **{**loose, "cons_tol": cut})
        _assert_same_raise(lagrangian, grid, y, seed, **{**loose, "cons_tol": 1e-18})
    # the first offending vertex in sweep order names the precondition failure
    ep = lg.block_norms(red.euler_poincare_residual(lagrangian, grid, y))
    cut = sorted(ep.ravel())[ep.size // 2]
    _assert_same_raise(lagrangian, grid, y, seed, **{**loose, "ep_tol": cut})
    if not flat:
        _assert_same_raise(lagrangian, grid, y, seed, **{**loose, "adm_tol": 1e-3})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_recovery_on_solved_section_matches_oracle(n):
    grid = triangulated_grid(5, 4)
    boundary = hm.random_boundary(grid, n, seed=n, scale=0.3)
    _, report = hm.solve_unreduced(grid, boundary, g_tol=1e-11)
    lagrangian = TraceLagrangian()
    tols = dict(ep_tol=1e-8, cons_tol=1e-9, adm_tol=1e-10)
    zero = np.zeros((n, n))
    discs = _assert_same_recovery(lagrangian, grid, report.section, zero, **tols)
    assert 0.0 < max(discs) <= 1e-9
    conflict = _assert_same_raise(lagrangian, grid, report.section, zero,
                                  **{**tols, "cons_tol": 1e-18})
    assert conflict.face in grid.faces


def _solved(n):
    grid = triangulated_grid(5, 4)
    boundary = hm.random_boundary(grid, n, seed=n, scale=0.3)
    return grid, hm.solve_unreduced(grid, boundary, g_tol=1e-11)[1].section


def _extended_norms(lagrangian, grid, y, lam):
    """Block norms of the extended residual, (H-1, W-1, 2) indexed [j-1, i-1]:
    the interior vertices in id order are the window's interior row-major."""
    residual = core.extended_residual(lagrangian, red.PlaquetteConstraint(), y, lam,
                                      grid.full_faceset())
    return lg.block_norms(residual).reshape(grid.height - 1, grid.width - 1, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_system_residual_is_the_extended_residual(n):
    """The recovery's certificate is the paper's equation on the full face
    set: ``max_system_residual`` is the largest block norm of
    ``core.extended_residual`` at the recovered multiplier, bit for bit,
    from the zero seed and from a random one."""
    grid, y = _solved(n)
    lagrangian = TraceLagrangian()
    for seed in (np.zeros((n, n)), lg.random_skew(n, np.random.default_rng(n), 0.3)):
        lam, rep = red.recover_multipliers(lagrangian, grid, y, seed)
        assert rep.max_system_residual == lg.max_norm(
            _extended_norms(lagrangian, grid, y, lam))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_system_agrees_with_extended_residual(n):
    """Per interior vertex on a solved section, the block norms of the two
    grid equations are those of the u and v components of the extended
    residual, to round-off: at the recovered multiplier, where both are
    round-off, and at a random one, where both are of order one."""
    grid, y = _solved(n)
    lagrangian = TraceLagrangian()
    recovered = red.recover_multipliers(lagrangian, grid, y, np.zeros((n, n)))[0]
    drawn = sampling.random_multiplier(grid, n, np.random.default_rng(n))
    for lam in (recovered, drawn):
        want = np.stack([lg.block_norms(r) for r in
                         red.multiplier_system_residual(lagrangian, grid, y, lam)], -1)
        got = _extended_norms(lagrangian, grid, y, lam)
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, want.max())


@pytest.mark.parametrize("n,w,h,flat", CASES, ids=IDS)
def test_reconstruction_matches_oracle(n, w, h, flat):
    grid, rng, _, y, _ = _case(n, w, h, flat)
    seed = lg.exp(lg.random_skew(n, rng))
    tol = np.inf if not flat else 1e-10
    field, worst, agreement = oracle_reconstruction(grid, y, seed, tol)
    rep = red.reconstruction_report(grid, y, seed, tol=tol)
    assert list(field) == list(range(len(rep.field)))
    assert all(_bits(rep.field[v], field[v]) for v in field)
    assert (rep.max_plaquette_defect, rep.path_agreement) == (worst, agreement)
    if not flat:
        with pytest.raises(HolonomyError) as want:
            oracle_reconstruction(grid, y, seed, 1e-10)
        with pytest.raises(HolonomyError) as got:
            red.reconstruction_report(grid, y, seed)
        assert (got.value.face, got.value.defect) == (want.value.face, want.value.defect)


def test_recovery_without_interior_and_single_vertex():
    """No interior vertex raises before any stacking; a 2 x 2 window has the
    single interior vertex (1, 1) and no comparison."""
    n = 3
    for w, h in ((1, 3), (3, 1), (1, 1)):
        grid = triangulated_grid(w, h)
        y = red.reduce_field(grid, sampling.random_unreduced_field(
            grid, n, np.random.default_rng(0)))
        with pytest.raises(PreconditionError, match="no interior vertices"):
            red.recover_multipliers(TraceLagrangian(), grid, y, np.zeros((n, n)))
    grid, rng, _, y, _ = _case(n, 2, 2, True)
    seed = lg.random_skew(n, rng, 0.3)
    discs = _assert_same_recovery(TraceLagrangian(), grid, y, seed,
                                  ep_tol=np.inf, cons_tol=np.inf, adm_tol=np.inf)
    assert discs == []
