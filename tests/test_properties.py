"""Property tests over group sizes, windows and seeds.

Derandomized, so every run draws the same examples, and bounded, so the
module stays a few seconds long.
"""

import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from groupvar import (cli, core, liegroup as lg, reduction as red, sampling,
                      serialization as ser)
from groupvar.complexes import FaceSet, triangulated_grid
from groupvar.harmonic import TraceLagrangian

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

cases = st.tuples(st.integers(2, 5), st.integers(1, 6), st.integers(1, 6),
                  st.integers(0, 2**32 - 1))


def _round_trip(save, load, grid, data, tag):
    """save -> load -> save; the second file must equal the first byte for
    byte, and the loaded array the saved one bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / f"{tag}1.txt", Path(tmp) / f"{tag}2.txt"
        save(first, grid, data)
        loaded_grid, loaded = load(first)
        assert (loaded_grid.width, loaded_grid.height) == (grid.width, grid.height)
        save(second, loaded_grid, loaded)
        assert second.read_bytes() == first.read_bytes()
    assert loaded.dtype == data.dtype
    assert np.array_equal(loaded, data)
    assert np.array_equal(np.signbit(loaded), np.signbit(data))


@PROPERTY
@given(cases, st.booleans())
def test_field_files_round_trip(case, flat):
    n, width, height, seed = case
    grid = triangulated_grid(width, height)
    rng = np.random.default_rng(seed)
    field = sampling.random_unreduced_field(grid, n, rng)
    section = red.reduce_field(grid, field) if flat \
        else sampling.random_section(grid, n, rng)
    _round_trip(ser.save_unreduced_field, ser.load_unreduced_field, grid, field, "g")
    _round_trip(ser.save_reduced_section, ser.load_reduced_section, grid, section, "y")
    _round_trip(ser.save_multiplier, ser.load_multiplier, grid,
                sampling.random_multiplier(grid, n, rng), "lam")


@PROPERTY
@given(cases, st.floats(0.0, 3.0))
def test_reduce_then_reconstruct_returns_the_field(case, scale):
    n, width, height, seed = case
    grid = triangulated_grid(width, height)
    field = sampling.random_unreduced_field(grid, n, np.random.default_rng(seed), scale)
    y = red.reduce_field(grid, field)
    rep = red.reconstruction_report(grid, y, field[0])
    assert np.linalg.norm(rep.field - field, axis=(-2, -1)).max() <= 1e-12
    assert rep.path_agreement <= 1e-12


@PROPERTY
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 0.99))
def test_log_inverts_exp(n, seed, size):
    """||xi||_F < 1 keeps ||exp(xi) - I||_F < 1, inside the log's domain."""
    xi = lg.random_skew(n, np.random.default_rng(seed))
    xi = xi * (size / np.linalg.norm(xi))
    log = lg.log_near_identity(lg.exp_skew(xi))
    assert np.linalg.norm(log - xi) <= 1e-14 * np.linalg.norm(xi)


@PROPERTY
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0),
       st.integers(1, 4))
def test_exp_matches_expm(n, seed, scale, count):
    """Coordinates up to 3.0 take the rotation angles beyond pi."""
    xi = lg.random_skew(n, np.random.default_rng(seed), scale, (count,))
    g = lg.exp(xi)
    for block, x in zip(g, xi):
        assert np.max(np.abs(block - scipy.linalg.expm(x))) <= 1e-12
        assert np.linalg.norm(block.T @ block - np.eye(n)) <= 1e-13
        assert np.linalg.det(block) > 0.0


@PROPERTY
@given(st.integers(2, 6), st.sampled_from([1e-6, 1e-5]))
def test_step_matrices_match_expm(n, h):
    """Relative to exp(h E) - I, which the finite differences read."""
    steps = lg.step_matrices(n, h)
    assert not steps.flags.writeable
    for step, e in zip(steps, lg.skew_basis(n)):
        ref = scipy.linalg.expm(h * e)
        assert np.linalg.norm(step - ref) <= 1e-14 * np.linalg.norm(ref - np.eye(n))


@PROPERTY
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.01, 3.0),
       st.booleans())
def test_polar_factor_is_scipy_polar_bit_for_bit(n, seed, scale, near_identity):
    m = scale * np.random.default_rng(seed).standard_normal((3, n, n))
    if near_identity:
        m = np.eye(n) + 0.1 * m
    m[..., :, 0] *= np.sign(np.linalg.det(m))[:, None]
    stacked = lg.polar_factor(m)
    for k in range(len(m)):
        assert np.linalg.det(m[k]) > 0.0
        ref, _ = scipy.linalg.polar(m[k])
        assert stacked[k].tobytes() == ref.tobytes()
        assert lg.polar_factor(m[k]).tobytes() == ref.tobytes()


@PROPERTY
@given(cases, st.integers(0, 2**32 - 1))
def test_split_identity_on_random_face_subsets(case, subset_seed):
    n, width, height, seed = case
    grid = triangulated_grid(width, height)
    rng = np.random.default_rng(seed)
    y = sampling.random_section(grid, n, rng)
    lam = sampling.random_multiplier(grid, n, rng)
    dy = sampling.random_variation(grid, n, rng)
    keep = np.random.default_rng(subset_seed).random(len(grid.faces)) < 0.7
    fs = FaceSet(grid, np.flatnonzero(keep))
    (lhs,), (rhs,) = core.variational_split(
        TraceLagrangian(), red.PlaquetteConstraint(), y[None],
        lam[None], dy[None], fs)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@PROPERTY
@given(st.integers(2, 5), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.floats(0.0, 3.0))
def test_plaquette_cartan_forms_match_finite_differences(n, count, seed, scale):
    """The closed-form plaquette Cartan forms of every slot against the
    finite-difference default on random jet stacks, at the tolerance of
    ``verify cartan``."""
    logs = lg.random_skew(n, np.random.default_rng(seed), scale, (count, 3, 2))
    jets = lg.exp_skew(logs)
    constraint = red.PlaquetteConstraint()
    analytic = constraint.cartan_form(jets)
    fd = core.ConstraintMap.cartan_form(constraint, jets)
    defects = lg.block_norms(analytic - fd) / (1.0 + lg.block_norms(analytic))
    assert lg.max_norm(defects) <= 1e-6


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(2, 4), st.floats(0.0, 3.0),
       st.sampled_from([0, 1, 5000]), st.integers(0, 2**16))
def test_solve_exit_code_is_its_report(width, height, n, scale, budget, seed):
    """``solve`` exits 0 or 1, never 2 and never with an exception, on any
    window (those of width or height 1 have no interior vertex), group size,
    scale up to about pi and step budget.  It exits 0 exactly when its
    report reads converged, with the reduced residual within ep_tol and the
    constraint residual within 1e-12, and a failed solve still writes its
    history from the start row on."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code = cli.main(["solve", "--width", str(width), "--height", str(height),
                         "--n", str(n), "--scale", repr(scale), "--seed", str(seed),
                         "--max-iterations", str(budget), "--out", tmp])
        assert code in (0, 1)
        report = dict(line.split("=", 1) for line in
                      (out / "solve_report.txt").read_text().splitlines())
        ok = report["converged"] == "True" \
            and float(report["max_ep_residual"]) <= float(report["ep_tol"]) \
            and float(report["max_constraint_residual"]) <= 1e-12
        assert (code == 0) == ok
        history = (out / "history.csv").read_text().splitlines()
        assert history[0].startswith("iteration,phase")
        assert history[1].startswith("0,start,")
