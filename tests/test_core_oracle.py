"""The stacked calculus of ``groupvar.core`` against per-pair oracles.

The oracles below are the earlier implementations, kept here as test-only
code: one (vertex, face) pair at a time, one density or constraint call per
pair on a single-jet stack, finite differences one direction at a time and
the plaquette forms one basis element at a time.  The stacked versions sum
the same terms in the same order, so they must agree to round-off (1e-13
relative) for n = 2..5, on the full face set and on proper subsets whose
sorted positions are not their face ids, with a finite-difference density
and constraint as well as the analytic trace density and plaquette holonomy.
"""

import numpy as np
import pytest
import scipy.linalg

from groupvar import core, liegroup as lg, sampling
from groupvar.complexes import FaceSet, classify_vertices, triangulated_grid
from groupvar.defaults import H_LAGRANGIAN
from groupvar.harmonic import TraceLagrangian
from groupvar.reduction import PlaquetteConstraint

TOL = 1e-13


class LinearDensity(core.LagrangianDensity):
    """tr(A g) summed over every slot and component; differentials by FD."""

    def __init__(self, n, rng):
        self.weights = rng.standard_normal((3, 2, n, n))

    def value(self, jets):
        return np.trace(self.weights @ jets, axis1=-2, axis2=-1).sum(axis=(-2, -1))


class FDPlaquette(PlaquetteConstraint):
    """The plaquette holonomy with the finite-difference Cartan forms."""

    cartan_form = core.ConstraintMap.cartan_form


# ---------------------------------------------------------------------------
# per-pair oracles


def one_jet(y, complex, face):
    return y[np.array([complex.adherence(face)])]


def oracle_fd_differential(density, jet, slot):
    """Central differences one fiber component and basis direction at a time."""
    h, n, c = H_LAGRANGIAN, jet.shape[-1], jet.shape[-3]
    steps = scipy.linalg.expm(h * lg.skew_basis(n))
    coeffs = []
    for k, g in enumerate(jet[0, slot]):
        for step in steps:
            plus, minus = jet.copy(), jet.copy()
            plus[0, slot, k] = g @ step
            minus[0, slot, k] = g @ step.T
            coeffs.append((density.value(plus)[0] - density.value(minus)[0]) / (2.0 * h))
    return lg.coords_to_skew(np.reshape(coeffs, (c, -1)) / 2.0, n)


def oracle_fd_cartan_form(constraint, jet, slot):
    h, n = H_LAGRANGIAN, jet.shape[-1]
    steps = scipy.linalg.expm(h * lg.skew_basis(n))
    base_inv = constraint.value(jet)[0].T
    cols = []
    for k, g in enumerate(jet[0, slot]):
        for step in steps:
            plus, minus = jet.copy(), jet.copy()
            plus[0, slot, k] = g @ step
            minus[0, slot, k] = g @ step.T
            deriv = base_inv @ (constraint.value(plus)[0] - constraint.value(minus)[0]) \
                / (2.0 * h)
            cols.append(lg.skew_to_coords(lg.skew_part(deriv)))
    return np.column_stack(cols)


BROADCAST_BLOCK = 256  # jets per value call of the broadcast-copy oracle


def broadcast_fd_differences(value, jets, slot):
    """The finite differences of ``core._fd_differences`` as they were: every
    jet of a block of 256 copied once per direction, sign and component by
    one broadcast, all moved at once and handed to one ``value`` call."""
    count, k, c, n, _ = jets.shape
    steps = lg.step_matrices(n, H_LAGRANGIAN)
    blocks = []
    for start in range(0, max(count, 1), BROADCAST_BLOCK):
        block = jets[start:start + BROADCAST_BLOCK]
        moved = np.broadcast_to(block[:, None, None, None],
                                (len(block), 2, c, len(steps)) + jets.shape[1:]).copy()
        for m in range(c):
            g = block[:, slot, m, None]
            moved[:, 0, m, :, slot, m] = g @ steps
            moved[:, 1, m, :, slot, m] = g @ steps.swapaxes(-1, -2)
        values = value(moved.reshape(-1, k, c, n, n))
        values = values.reshape(moved.shape[:4] + values.shape[1:])
        blocks.append(values[:, 0] - values[:, 1])
    return np.concatenate(blocks)


def fd_jet_block(n, components):
    """Jets per block of the finite-difference defaults on (k = 3) jets."""
    return core._block_size(lg.algebra_dim(n) * 3 * components * n * n)


def oracle_conjugation_form(n, terms_u, terms_v):
    """Component maps xi -> sum of s P xi P^T, one basis element at a time."""
    blocks = []
    for terms in (terms_u, terms_v):
        cols = []
        for e in lg.skew_basis(n):
            total = np.zeros((n, n))
            for sign, p in terms:
                total = total + sign * (p @ e @ p.T)
            cols.append(lg.skew_to_coords(total))
        blocks.append(np.array(cols))
    return np.concatenate(blocks).T


def oracle_plaquette_form(jet, slot):
    n = jet.shape[-1]
    v, v_right, u_up = jet[0, 0, 1], jet[0, 1, 1], jet[0, 2, 0]
    vu = v @ u_up
    if slot == 0:
        return oracle_conjugation_form(n, [(1.0, vu @ v_right.T)], [(-1.0, v)])
    if slot == 1:
        return oracle_conjugation_form(n, [], [(1.0, vu)])
    return oracle_conjugation_form(n, [(-1.0, vu)], [])


def form_of(constraint, jet, slot):
    return constraint.cartan_form(jet)[0, slot]


def apply_form(matrix, xi):
    return lg.coords_to_skew(matrix @ lg.skew_to_coords(xi).ravel(), xi.shape[-1])


def transpose_form(matrix, lam, components):
    back = matrix.T @ lg.skew_to_coords(lam)
    return lg.coords_to_skew(back.reshape(components, -1), lam.shape[-1])


def pairing(theta, xi):
    return sum(float(np.trace(mu.T @ x)) for mu, x in zip(theta, xi))


def oracle_pairs(faceset, vertices):
    complex = faceset.complex
    faces = set(faceset.face_ids.tolist())
    return [(v, f) for v in sorted(vertices.tolist())
            for f in sorted(set(complex.star(v).tolist()) & faces)]


def oracle_paired_sum(lagrangian, constraint, y, lam, dy, complex, pairs):
    total = 0.0
    for v, f in pairs:
        jet = one_jet(y, complex, f)
        slot = complex.adherence(f).index(v)
        xi = dy[v]
        total += pairing(lagrangian.vertex_differential(jet)[0, slot], xi)
        total += float(np.trace(
            lam[f].T @ apply_form(form_of(constraint, jet, slot), xi)))
    return total


def oracle_split(lagrangian, constraint, y, lam, dy, faceset):
    complex = faceset.complex
    klass = classify_vertices(faceset)
    face_major = [(v, f) for f in sorted(faceset.face_ids.tolist())
                  for v in complex.adherence(f)]
    lhs = oracle_paired_sum(lagrangian, constraint, y, lam, dy, complex, face_major)
    rhs = oracle_paired_sum(lagrangian, constraint, y, lam, dy, complex,
                            oracle_pairs(faceset, klass.interior)
                            + oracle_pairs(faceset, klass.frontier))
    return lhs, rhs


def oracle_noether(lagrangian, constraint, y, lam, d, faceset):
    complex = faceset.complex
    n = y.shape[-1]
    lag_defect = con_defect = 0.0
    for f in sorted(faceset.face_ids.tolist()):
        jet = one_jet(y, complex, f)
        dl, dphi = 0.0, np.zeros((n, n))
        for slot, v in enumerate(complex.adherence(f)):
            dl += pairing(lagrangian.vertex_differential(jet)[0, slot], d[v])
            dphi = dphi + apply_form(form_of(constraint, jet, slot), d[v])
        lag_defect = max(lag_defect, abs(dl))
        con_defect = max(con_defect, float(np.linalg.norm(dphi)))
    total = oracle_paired_sum(lagrangian, constraint, y, lam, d, complex,
                              oracle_pairs(faceset,
                                           classify_vertices(faceset).frontier))
    return total, lag_defect, con_defect


def oracle_constraint_derivative(constraint, y, dy, faceset):
    complex = faceset.complex
    n = y.shape[-1]
    out = np.zeros((len(complex.faces), n, n))
    for f in sorted(faceset.face_ids.tolist()):
        jet = one_jet(y, complex, f)
        for slot, v in enumerate(complex.adherence(f)):
            out[f] = out[f] + apply_form(form_of(constraint, jet, slot), dy[v])
    return out


def oracle_regularity(constraint, y, faceset, boundary_fixed):
    """(rows, cols, sigma_min, unreachable faces)."""
    complex = faceset.complex
    c, d = y.shape[-3], lg.algebra_dim(y.shape[-1])
    klass = classify_vertices(faceset)
    variable = sorted(klass.interior.tolist()) if boundary_fixed \
        else sorted(set(complex.adherence_array[faceset.face_ids].ravel().tolist()))
    col_of = {v: i * c * d for i, v in enumerate(variable)}
    faces = sorted(faceset.face_ids.tolist())
    matrix = np.zeros((len(faces) * d, len(variable) * c * d))
    reachable = []
    for fi, f in enumerate(faces):
        jet = one_jet(y, complex, f)
        touched = False
        for slot, v in enumerate(complex.adherence(f)):
            if v in col_of:
                matrix[fi * d:(fi + 1) * d, col_of[v]:col_of[v] + c * d] = \
                    form_of(constraint, jet, slot)
                touched = True
        if touched:
            reachable.append(fi)

    def smallest_sv(m):
        if m.shape[0] == 0 or m.shape[1] == 0:
            return 0.0
        return float(np.linalg.svd(m, compute_uv=False)[-1])

    keep = [r for fi in reachable for r in range(fi * d, (fi + 1) * d)]
    return (matrix.shape[0], matrix.shape[1],
            smallest_sv(matrix[keep]) if keep else 0.0,
            tuple(faces[fi] for fi in range(len(faces)) if fi not in reachable))


def oracle_extended_residual(lagrangian, constraint, y, lam, complex, vertex):
    c = y.shape[-3]
    total = 0.0
    for f in sorted(complex.star(vertex).tolist()):
        jet = one_jet(y, complex, f)
        slot = complex.adherence(f).index(vertex)
        theta = lagrangian.vertex_differential(jet)[0, slot]
        nu = transpose_form(form_of(constraint, jet, slot), lam[f], c)
        total = total + theta + nu
    return total


def oracle_euler_lagrange_form(lagrangian, y, complex, vertex):
    total = 0.0
    for f in sorted(complex.star(vertex).tolist()):
        slot = complex.adherence(f).index(vertex)
        total = total + lagrangian.vertex_differential(one_jet(y, complex, f))[0, slot]
    return total


# ---------------------------------------------------------------------------
# cases


def subset(grid):
    """A proper face subset of a 4x4 window with interior vertices (2, 1) and
    (2, 2), whose sorted positions are not its face ids."""
    keep = [grid.face_id(i, j) for j in range(4) for i in range(4)
            if i >= 1 and (i, j) != (3, 3)]
    fs = FaceSet(grid, keep)
    assert any(pos != f for pos, f in enumerate(fs.face_ids))
    assert classify_vertices(fs).interior.size
    return fs


FACESETS = {"full": lambda grid: grid.full_faceset(), "subset": subset}
KINDS = ("analytic", "fd")
CASES = [(n, kind, fs) for n in (2, 3, 4, 5) for kind in KINDS for fs in FACESETS]
IDS = [f"n{n}-{kind}-{fs}" for n, kind, fs in CASES]


def problem(n, kind, seed):
    grid = triangulated_grid(4, 4)
    rng = np.random.default_rng(seed)
    if kind == "analytic":
        lagrangian, constraint = TraceLagrangian(), PlaquetteConstraint()
    else:
        lagrangian, constraint = LinearDensity(n, rng), FDPlaquette()
    y = sampling.random_section(grid, n, rng)
    lam = sampling.random_multiplier(grid, n, rng)
    dy = sampling.random_variation(grid, n, rng)
    return grid, lagrangian, constraint, y, lam, dy


def split_one(lagrangian, constraint, y, lam, dy, fs):
    """Both sides of the variation formula for one instance, a stack of one."""
    lhs, rhs = core.variational_split(lagrangian, constraint, y[None],
                                      lam[None], dy[None], fs)
    return float(lhs[0]), float(rhs[0])


def close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    return np.max(np.abs(a - b), initial=0.0) <= TOL * max(1.0, np.max(np.abs(b),
                                                                     initial=0.0))


@pytest.mark.parametrize("n, kind, faces", CASES, ids=IDS)
def test_sums_match_per_pair_oracles(n, kind, faces):
    grid, lagrangian, constraint, y, lam, dy = problem(n, kind, 100 + n)
    fs = FACESETS[faces](grid)
    args = (lagrangian, constraint, y, lam, dy, fs)
    assert close(split_one(*args), oracle_split(*args))
    rep = core.noether_boundary_sum(*args)
    assert close((rep.boundary_sum, rep.lagrangian_defect, rep.constraint_defect),
                 oracle_noether(*args))
    assert close(core.constraint_derivative(constraint, y, dy, fs),
                 oracle_constraint_derivative(constraint, y, dy, fs))
    for fixed in (True, False):
        got = core.regularity_report(constraint, y, fs, boundary_fixed=fixed)
        rows, cols, sigma, unreachable = oracle_regularity(constraint, y, fs, fixed)
        assert (got.rows, got.cols, got.unreachable_faces) == (rows, cols, unreachable)
        assert close(got.sigma_min, sigma)


@pytest.mark.parametrize("n, kind, faces", CASES, ids=IDS)
def test_stacked_splits_match_each_instance(n, kind, faces):
    """A stack one instance past a finite-difference block of full-face-set
    jets: each instance gets the sides that it gets on its own, as a stack
    of one, bit for bit, and the per-pair oracle's to round-off."""
    grid, lagrangian, constraint, *_ = problem(n, kind, 600 + n)
    fs = FACESETS[faces](grid)
    rng = np.random.default_rng(610 + n)
    count = fd_jet_block(n, 2) // len(grid.faces) + 1
    instances = [(sampling.random_section(grid, n, rng),
                  sampling.random_multiplier(grid, n, rng),
                  sampling.random_variation(grid, n, rng)) for _ in range(count)]
    stacks = [np.array(parts) for parts in zip(*instances)]
    lhs, rhs = core.variational_split(lagrangian, constraint, *stacks, fs)
    assert lhs.shape == rhs.shape == (count,)
    for k, (y, lam, dy) in enumerate(instances):
        args = (lagrangian, constraint, y, lam, dy, fs)
        assert (lhs[k], rhs[k]) == split_one(*args)
        if k in (0, count - 1):
            assert close((lhs[k], rhs[k]), oracle_split(*args))


def test_stacked_splits_reject_short_sections_and_multipliers():
    grid, lagrangian, constraint, y, lam, dy = problem(3, "analytic", 650)
    fs = grid.full_faceset()
    ys, lams, dys = y[None], lam[None], dy[None]
    with pytest.raises(ValueError, match="multiplier missing on face"):
        core.variational_split(lagrangian, constraint, ys, lams[:, :-1], dys, fs)
    with pytest.raises(ValueError, match="section undefined at vertex"):
        core.variational_split(lagrangian, constraint, ys[:, :-2], lams, dys, fs)


@pytest.mark.parametrize("n, kind, faces", CASES, ids=IDS)
def test_residuals_match_per_pair_oracles(n, kind, faces):
    grid, lagrangian, constraint, y, lam, _ = problem(n, kind, 200 + n)
    fs = FACESETS[faces](grid)
    interior = classify_vertices(fs).interior.tolist()
    res = core.extended_residual(lagrangian, constraint, y, lam, fs)
    # the Euler-Lagrange form is the zero-multiplier case
    form = core.extended_residual(lagrangian, constraint, y,
                                  np.zeros_like(lam), fs)
    assert res.shape == form.shape == (len(interior), 2, n, n)
    for k, v in enumerate(interior):
        assert close(res[k], oracle_extended_residual(lagrangian, constraint, y, lam,
                                                      grid, v))
        assert close(form[k], oracle_euler_lagrange_form(lagrangian, y, grid, v))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_forms_match_per_jet_oracles(n):
    """FD differentials and Cartan forms, and the closed-form plaquette
    forms, on a stack of every face jet against one jet at a time."""
    grid, lagrangian, _, y, _, _ = problem(n, "fd", 300 + n)
    constraint = PlaquetteConstraint()
    jets = core.jet_at(y, grid.full_faceset())
    theta = lagrangian.vertex_differential(jets)
    fd_forms = core.ConstraintMap.cartan_form(constraint, jets)
    forms = constraint.cartan_form(jets)
    for f in grid.faces:
        jet = jets[f:f + 1]
        for slot in range(3):
            assert close(theta[f, slot], oracle_fd_differential(lagrangian, jet, slot))
            assert close(fd_forms[f, slot], oracle_fd_cartan_form(constraint, jet, slot))
            assert close(forms[f, slot], oracle_plaquette_form(jet, slot))


@pytest.mark.parametrize("kind", KINDS)
def test_empty_faceset_sums_vanish(kind):
    """Every sum on an empty face set is empty, with finite-difference
    defaults as well as analytic forms."""
    grid, lagrangian, constraint, y, lam, dy = problem(3, kind, 400)
    fs = FaceSet(grid, [])
    assert split_one(lagrangian, constraint, y, lam, dy, fs) == (0.0, 0.0)
    rep = core.noether_boundary_sum(lagrangian, constraint, y, lam, dy, fs)
    assert (rep.boundary_sum, rep.lagrangian_defect, rep.constraint_defect) == (0.0,) * 3
    assert not np.any(core.constraint_derivative(constraint, y, dy, fs))
    assert core.extended_residual(lagrangian, constraint, y, lam, fs).shape == \
        (0, 2, 3, 3)
    got = core.regularity_report(constraint, y, fs, boundary_fixed=False)
    assert (got.rows, got.cols) == oracle_regularity(constraint, y, fs, False)[:2]


def test_fd_defaults_span_several_value_blocks():
    """A jet stack longer than one finite-difference block gives each jet
    the differential and form it has on its own."""
    grid, lagrangian, constraint, y, _, _ = problem(3, "fd", 500)
    jets = core.jet_at(y, grid.full_faceset())
    repeats = fd_jet_block(3, 2) // len(jets) + 2
    stack = np.tile(jets, (repeats, 1, 1, 1, 1))
    assert close(lagrangian.vertex_differential(stack),
                 np.tile(lagrangian.vertex_differential(jets), (repeats, 1, 1, 1, 1)))
    assert close(constraint.cartan_form(stack),
                 np.tile(constraint.cartan_form(jets), (repeats, 1, 1, 1)))


def chain_product(jets):
    """The product of every slot's every component, slot-major, per jet."""
    count, k, c, n, _ = jets.shape
    factors = jets.reshape(count, k * c, n, n)
    out = factors[:, 0]
    for i in range(1, k * c):
        out = out @ factors[:, i]
    return out


class ChainDensity(core.LagrangianDensity):
    """The trace of :func:`chain_product`, for any c."""

    def value(self, jets):
        return np.trace(chain_product(jets), axis1=-2, axis2=-1)


class ChainConstraint(core.ConstraintMap):
    """:func:`chain_product` as a group-valued constraint, for any c."""

    def value(self, jets):
        return chain_product(jets)


class ViewDensity(core.LagrangianDensity):
    """An entry of the jets: ``value`` returns a view of its input."""

    def value(self, jets):
        return jets[:, 0, -1, 0, 1]


class ViewConstraint(core.ConstraintMap):
    """The first slot's last component: ``value`` returns a view of its
    input."""

    def value(self, jets):
        return jets[:, 0, -1]


def random_jets(count, n, components, rng):
    return lg.exp_skew(lg.random_skew(n, rng, shape=(count, 3, components)))


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fd_differences_equal_the_broadcast_copies(n, components):
    """In-place moves of every slot in one call give, bit for bit, the
    differences of the broadcast copies and of the one-slot-per-call moves,
    stacked [jet, slot], on a stack of two full finite-difference blocks and
    one more jet, also when ``value`` returns a view of its input."""
    rng = np.random.default_rng(700 + 10 * n + components)
    jets = random_jets(2 * fd_jet_block(n, components) + 1, n, components, rng)
    for model in (ChainDensity(), ChainConstraint(), ViewDensity(), ViewConstraint()):
        got = core._fd_differences(model.value, jets)
        for oracle in (broadcast_fd_differences, per_slot_fd_differences):
            want = np.stack([oracle(model.value, jets, slot) for slot in range(3)],
                            axis=1)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_fd_differences_leave_the_jets_unchanged():
    jets = random_jets(5, 3, 2, np.random.default_rng(750))
    before = jets.copy()
    core._fd_differences(ViewConstraint().value, jets)
    assert jets.tobytes() == before.tobytes()
    empty = core._fd_differences(ChainConstraint().value, jets[:0])
    assert empty.shape == (0, 3, 2, 3, 3, 3)


# ---------------------------------------------------------------------------
# the forms one slot per call, as they were


def per_slot_fd_differences(value, jets, slot):
    """``core._fd_differences`` one slot per call, as it was: (P, c, d) +
    value shape, each block's moved stack built once per slot."""
    count, k, c, n, _ = jets.shape
    steps = lg.step_matrices(n, H_LAGRANGIAN)
    d = len(steps)
    size = core._block_size(d * k * c * n * n)
    out = None
    for start in range(0, max(count, 1), size):
        block = jets[start:start + size]
        stack = np.repeat(block, d, axis=0)
        moved = stack.reshape((len(block), d) + jets.shape[1:])[:, :, slot]
        for m in range(c):
            g = block[:, None, slot, m]
            for sign, turn in enumerate((steps, steps.swapaxes(-1, -2))):
                moved[:, :, m] = g @ turn
                values = value(stack)
                values = values.reshape((len(block), d) + values.shape[1:])
                if out is None:
                    out = np.empty((count, c) + values.shape[1:])
                if sign:
                    out[start:start + len(block), m] -= values
                else:
                    out[start:start + len(block), m] = values
            moved[:, :, m] = g
    return out


def per_slot_fd_differential(density, jets, slot):
    """The finite-difference ``vertex_differential`` of one slot, (P, c, n, n)."""
    coeffs = per_slot_fd_differences(density.value, jets, slot) / (2.0 * H_LAGRANGIAN)
    return lg.coords_to_skew(coeffs / 2.0, jets.shape[-1])


def per_slot_fd_cartan_form(constraint, jets, slot):
    """The finite-difference ``cartan_form`` of one slot, (P, d, c d)."""
    c, n = jets.shape[-3], jets.shape[-1]
    base_inv = constraint.value(jets).swapaxes(-1, -2)[:, None]
    diff = per_slot_fd_differences(constraint.value, jets, slot).reshape(
        len(jets), c * lg.algebra_dim(n), n, n)
    deriv = base_inv @ diff / (2.0 * H_LAGRANGIAN)
    return lg.skew_to_coords(lg.skew_part(deriv)).swapaxes(-1, -2)


def per_slot_trace_differential(jets, slot):
    """``TraceLagrangian.vertex_differential`` of one slot."""
    uv = jets[:, 0]
    if slot != 0:
        return np.zeros(uv.shape)
    return (uv.swapaxes(-1, -2) - uv) / 2.0


def per_slot_plaquette_form(jets, slot):
    """``PlaquetteConstraint.cartan_form`` of one slot, its two component
    blocks concatenated."""
    v = jets[:, 0, 1]
    vu = v @ jets[:, 2, 0]
    if slot == 0:
        blocks = [lg.adjoint_matrix(vu @ jets[:, 1, 1].swapaxes(-1, -2)),
                  -lg.adjoint_matrix(v)]
    else:
        conj = lg.adjoint_matrix(vu)
        blocks = [np.zeros_like(conj), conj] if slot == 1 \
            else [-conj, np.zeros_like(conj)]
    return np.concatenate(blocks, axis=-1)


def per_slot(form, jets):
    """A one-slot form on every slot of a (P, k, ...) jet stack, stacked
    [jet, slot]."""
    return np.stack([form(jets, slot) for slot in range(jets.shape[1])], axis=1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_forms_of_every_slot_equal_the_per_slot_stacks(n):
    """Each density and constraint form of every slot from one call equals,
    bit for bit, its one-slot-per-call predecessor stacked [jet, slot]: the
    finite-difference defaults, the trace differential and the plaquette
    forms, on a stack of two full finite-difference blocks and one more
    jet."""
    rng = np.random.default_rng(800 + n)
    jets = random_jets(2 * fd_jet_block(n, 2) + 1, n, 2, rng)
    density, constraint = LinearDensity(n, rng), PlaquetteConstraint()
    pairs = [
        (density.vertex_differential(jets),
         per_slot(lambda j, s: per_slot_fd_differential(density, j, s), jets)),
        (core.ConstraintMap.cartan_form(constraint, jets),
         per_slot(lambda j, s: per_slot_fd_cartan_form(constraint, j, s), jets)),
        (TraceLagrangian().vertex_differential(jets),
         per_slot(per_slot_trace_differential, jets)),
        (constraint.cartan_form(jets), per_slot(per_slot_plaquette_form, jets)),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
