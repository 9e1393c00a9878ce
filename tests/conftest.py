import numpy as np
import pytest

from groupvar import harmonic, reduction
from groupvar.complexes import triangulated_grid


@pytest.fixture(scope="session")
def solved66():
    """One converged 6x6 SO(3) boundary problem, shared across tests.

    Carries the grid, the boundary (solved to the gradient target 1e-11),
    the stationary field, its reduced section, and the zero-seed multiplier
    with its recovery report.
    """
    n = 3
    grid = triangulated_grid(6, 6)
    boundary = harmonic.random_boundary(grid, n, seed=42, scale=0.1)
    field, report = harmonic.solve_unreduced(grid, boundary, g_tol=1e-11)
    lagrangian = harmonic.TraceLagrangian()
    y = reduction.reduce_field(grid, field)
    lam, recovery = reduction.recover_multipliers(
        lagrangian, grid, y, np.zeros((n, n)))
    return {
        "n": n,
        "grid": grid,
        "boundary": boundary,
        "field": field,
        "report": report,
        "lagrangian": lagrangian,
        "y": y,
        "lam": lam,
        "recovery": recovery,
    }
