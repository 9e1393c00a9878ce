"""Solves against a known answer: the closed-form harmonic maps
g(i, j) = h0 U^i V^j of ``closed_form``, for n = 2..5 on windows up to 64x64
with a total rotation of at most 2.8 rad across the window.

From the family's own boundary, ``solve_unreduced`` must return the family
within 1e-13 per entry, its ``final_energy`` must be W H (2n - tr U - tr V),
its section (V^-j U V^j, V), and its Euler-Poincare and flatness residuals
must sit at round-off.  Moving the family's generators gives a Jacobi field,
which the Jacobi gauge of its frontier values must reproduce.  The multiplier
recovered from a zero seed on the family's section steps by constants, in
the frame that V^j conjugates.
"""

import numpy as np
import pytest

import closed_form as cf
from groupvar import cli, harmonic, reduction
from groupvar.complexes import classify_vertices, triangulated_grid
from groupvar.liegroup import block_norms, exp_skew, max_norm, random_skew

# (n, width, height, theta): every n, square and oblong windows, the domain's
# edge theta = 2.8 and smaller turns.
CASES = [(2, 6, 6, 1.0), (2, 64, 64, 2.8), (3, 7, 13, 2.8), (3, 16, 12, 2.8),
         (3, 64, 64, 2.0), (4, 12, 10, 2.8), (4, 32, 32, 1.0), (5, 24, 24, 2.8),
         (5, 8, 8, 0.5)]
IDS = [f"n{n}-{w}x{h}-theta{theta}" for n, w, h, theta in CASES]


@pytest.mark.parametrize("n, width, height, theta", CASES, ids=IDS)
def test_solve_returns_the_closed_form(n, width, height, theta):
    grid = triangulated_grid(width, height)
    h0, a, b = cf.family(n, width, height, theta, seed=n)
    g = cf.field(h0, a, b, width, height)
    got, report = harmonic.solve_unreduced(grid, g)
    assert np.max(np.abs(got - g)) <= cf.FIELD_TOL
    assert abs(report.final_energy - cf.energy(a, b, width, height)) \
        <= cf.energy_tol(n, width, height)
    assert np.max(np.abs(report.section - cf.section(a, b, width, height))) \
        <= cf.FIELD_TOL
    assert report.max_ep_residual <= cf.FIELD_TOL
    assert report.max_constraint_residual <= cf.FIELD_TOL


@pytest.mark.parametrize("n, width, height, theta", CASES, ids=IDS)
def test_the_closed_form_is_a_flat_critical_section(n, width, height, theta):
    """The oracle on its own: the family reduces to (V^-j U V^j, V), and that
    section is flat and solves the reduced critical equations to round-off."""
    grid = triangulated_grid(width, height)
    h0, a, b = cf.family(n, width, height, theta, seed=n)
    y = cf.section(a, b, width, height)
    reduced = reduction.reduce_field(grid, cf.field(h0, a, b, width, height))
    assert np.max(np.abs(reduced - y)) <= cf.FIELD_TOL
    ep = reduction.euler_poincare_residual(harmonic.TraceLagrangian(), grid, y)
    assert max_norm(block_norms(ep)) <= cf.FIELD_TOL
    assert max_norm(block_norms(reduction.plaquette_holonomy(grid, y) - np.eye(n))) \
        <= cf.FIELD_TOL


@pytest.mark.parametrize("n, width, height", [(3, 6, 6), (3, 16, 12), (5, 8, 8)])
def test_the_jacobi_gauge_is_the_family_derivative(n, width, height):
    """The derivative of h0 exp(A + s dA)^i exp(B + s dB)^j in s is a Jacobi
    field of the family at s = 0; given its whole frontier as one bump,
    ``_jacobi_gauges`` returns it on every vertex a face reads, within the
    central difference's floor."""
    grid = triangulated_grid(width, height)
    h0, a, b = cf.family(n, width, height, cf.MAX_THETA, seed=n)
    rng = np.random.default_rng(7)
    want = cf.derivative(h0, a, b, random_skew(n, rng), random_skew(n, rng),
                         width, height)
    bump = {int(v): want[v] for v in classify_vertices(grid.full_faceset()).frontier}
    field = cf.field(h0, a, b, width, height)
    got, = harmonic._jacobi_gauges(grid, field.reshape(height + 1, width + 1, n, n),
                                   reduction.reduce_field(grid, field), [bump])
    far = grid.vertex_id(width, height)
    assert np.max(np.abs(np.delete(got - want, far, axis=0))) <= cf.DERIVATIVE_FLOOR


def test_the_family_stays_in_the_measured_domain():
    with pytest.raises(ValueError, match="theta must lie in"):
        cf.family(3, 8, 8, 3.0)


def test_the_checker_passes_the_cli_solve_and_fails_another_family(tmp_path, capsys):
    """The field-file round trip of the CI step, on a 16x16 window: the CLI
    solve of the written family passes ``closed_form check``, and the same
    solve checked against another family's turn fails it."""
    shape = ["--n", "3", "--width", "16", "--height", "16", "--theta", "2.8"]
    boundary = tmp_path / "family.txt"
    assert cf.main(["write", str(boundary), *shape]) == 0
    out = tmp_path / "solve"
    assert cli.main(["solve", "--boundary", str(boundary), "--n", "3", "--width", "16",
                     "--height", "16", "--out", str(out)]) == 0
    assert cf.main(["check", str(out), *shape]) == 0
    assert cf.main(["check", str(out), *shape[:-1], "2.0"]) == 1
    assert "the solved field is not the closed form" in capsys.readouterr().out


# Largest peak-to-peak spread, per entry, of the multiplier's steps.
# Measured: at most 3.1e-14 on the windows below, whose largest step
# entries are 0.1-0.64.
MULTIPLIER_STEP_TOL = 1e-12


@pytest.mark.parametrize("n, width, height, theta", [
    (2, 6, 4, 2.8), (3, 7, 5, 2.8), (5, 9, 6, 2.8), (4, 12, 12, 2.0), (3, 12, 12, 2.8),
])
def test_the_zero_seed_multiplier_steps_by_constants(n, width, height, theta):
    """In the frame lt(i, j) = V^j lam(i, j) V^-j, the multiplier recovered
    from a zero seed on the family's section steps by one constant beta up
    each column, and by U^-i gamma U^i along each row for one constant
    gamma, on every pair of faces without the origin-corner face (which no
    interior equation touches)."""
    grid = triangulated_grid(width, height)
    _, a, b = cf.family(n, width, height, theta, seed=n)
    lam, _ = reduction.recover_multipliers(harmonic.TraceLagrangian(), grid,
                                           cf.section(a, b, width, height),
                                           np.zeros((n, n)))
    v_pow = exp_skew(np.arange(height)[:, None, None, None] * b)
    u_pow = exp_skew(np.arange(width - 1)[:, None, None] * a)
    lt = v_pow @ lam.reshape(height, width, n, n) @ v_pow.swapaxes(-1, -2)
    beta = lt[1:] - lt[:-1]
    gamma = u_pow @ (lt[:, 1:] - lt[:, :-1]) @ u_pow.swapaxes(-1, -2)
    for steps in (beta, gamma):
        steps = steps.reshape(-1, n, n)[1:]  # the first leaves the origin corner
        assert np.max(np.abs(steps)) > 1e-2  # the constants are not zero
        assert np.max(np.ptp(steps, axis=0)) <= MULTIPLIER_STEP_TOL
