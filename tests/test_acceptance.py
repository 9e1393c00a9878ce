"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line with the measured defect and its stated
tolerance (run pytest with -s to see them all), then asserts.  Desk scale
throughout: SO(3), windows up to 8x8, 64-bit floats.
"""

import time

import numpy as np
import pytest

from groupvar import core, harmonic as hm, liegroup as lg, reduction as red, sampling
from groupvar.complexes import classify_vertices, triangulated_grid
from groupvar.errors import HolonomyError
from groupvar.harmonic import TraceLagrangian
from groupvar.reduction import PlaquetteConstraint

N = 3


def announce(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_01_variational_split():
    grid = triangulated_grid(3, 3)
    fs = grid.full_faceset()
    lagrangian, constraint = TraceLagrangian(N), PlaquetteConstraint(N)
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        y = sampling.random_section(grid, N, rng)
        lam = sampling.random_multiplier(grid, N, rng)
        dy = sampling.random_variation(grid, N, rng)
        lhs, rhs = core.variational_split(lagrangian, constraint, y, lam, dy, fs)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    elapsed = time.perf_counter() - start
    announce(1, "variational-split", worst <= 1e-12 and elapsed < 5.0,
             f"worst {worst:.2e} <= 1e-12, {elapsed:.1f} s < 5 s, 100 instances")


def test_criterion_02_cartan_decomposition():
    grid = triangulated_grid(3, 3)
    constraint = PlaquetteConstraint(N)
    rng = np.random.default_rng(102)
    faces = list(grid.faces)
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        y = sampling.random_section(grid, N, rng)
        face = faces[k % len(faces)]
        jets = core.jet_at(y, grid, [face])
        for slot in range(3):
            analytic = constraint.cartan_form(grid, jets, slot)[0]
            fd = core.ConstraintMap.cartan_form(constraint, grid, jets, slot)[0]
            worst = max(worst, float(np.linalg.norm(analytic - fd))
                        / (1.0 + float(np.linalg.norm(analytic))))
    elapsed = time.perf_counter() - start
    announce(2, "cartan-decomposition", worst <= 1e-6 and elapsed < 5.0,
             f"worst {worst:.2e} <= 1e-6, {elapsed:.1f} s < 5 s, 300 forms")


def test_criterion_03_flatness_reconstruction():
    grid = triangulated_grid(4, 4)
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst_round = 0.0
    worst_path = 0.0
    detected = injected = 0
    for _ in range(10):
        g = sampling.random_unreduced_field(grid, N, rng)
        y = red.reduce_field(grid, g)
        seed = g.values[grid.vertex_id(0, 0)]
        rep = red.reconstruction_report(grid, y, seed)
        worst_round = max(worst_round, np.linalg.norm(
            rep.field.values - g.values, axis=(-2, -1)).max())
        worst_path = max(worst_path, rep.path_agreement)
        back = red.reduce_field(grid, rep.field)
        worst_round = max(worst_round, np.linalg.norm(
            y.values - back.values, axis=(-2, -1)).max())

        i = int(rng.integers(0, grid.width))
        j = int(rng.integers(0, grid.height))
        bump = lg.random_skew(N, rng)
        bump = (1e-6 / np.linalg.norm(bump)) * bump
        tampered = y.values.copy()
        tampered[grid.vertex_id(i, j), 0] = \
            tampered[grid.vertex_id(i, j), 0] @ lg.exp(bump)
        injected += 1
        try:
            red.reconstruction_report(grid, core.Section(y.fiber, tampered), seed)
        except HolonomyError:
            detected += 1
    elapsed = time.perf_counter() - start
    ok = worst_round <= 1e-12 and worst_path <= 1e-12 \
        and detected == injected and elapsed < 2.0
    announce(3, "flatness-reconstruction", ok,
             f"roundtrip {worst_round:.2e} <= 1e-12, paths {worst_path:.2e} "
             f"<= 1e-12, tamper {detected}/{injected}, {elapsed:.1f} s < 2 s")


def test_criterion_04_solver(solved66):
    grid = solved66["grid"]
    start = time.perf_counter()
    field, report = hm.solve_unreduced(grid, solved66["config"])
    elapsed = time.perf_counter() - start
    descent = [h["objective"] for h in report.history if h["phase"] == "descent"]
    monotone = all(b <= a for a, b in zip(descent, descent[1:]))
    ok = report.converged and report.max_ep_residual <= 1e-8 \
        and report.max_constraint_residual <= 1e-12 and monotone \
        and elapsed < 30.0
    announce(4, "solver-critical-section", ok,
             f"ep {report.max_ep_residual:.2e} <= 1e-8, constraint "
             f"{report.max_constraint_residual:.2e} <= 1e-12, objective "
             f"monotone over accepted steps {monotone}, {elapsed:.1f} s < 30 s")


def test_criterion_05_multiplier_recovery(solved66):
    grid, y = solved66["grid"], solved66["y"]
    lagrangian, lam = solved66["lagrangian"], solved66["lam"]
    def worst_residual(mult):
        return max(float(np.linalg.norm(r, axis=(-2, -1)).max()) for r in
                   red.multiplier_system_residual(lagrangian, grid, y, mult))

    worst0 = worst_residual(lam)
    cons0 = solved66["recovery"].max_discrepancy
    seed = lg.random_skew(N, np.random.default_rng(105), 0.3)
    lam2, rep2 = red.recover_multipliers(lagrangian, grid, y, seed)
    worst2 = worst_residual(lam2)
    distance = np.linalg.norm(lam.values - lam2.values, axis=(-2, -1)).max()
    ok = worst0 <= 1e-10 and cons0 <= 1e-9 and worst2 <= 1e-10 \
        and rep2.max_discrepancy <= 1e-9 and distance > 1e-3
    announce(5, "multiplier-recovery", ok,
             f"residual {worst0:.2e} <= 1e-10, consistency {cons0:.2e} <= 1e-9, "
             f"seeded residual {worst2:.2e} <= 1e-10, distinct by {distance:.2e}")


def test_criterion_06_elimination_identity(solved66):
    grid, y, lam = solved66["grid"], solved66["y"], solved66["lam"]
    defects = red.multiplier_elimination_check(solved66["lagrangian"],
                                               grid, y, lam)
    worst_cancel = float(defects.cancellation.max())
    worst_combo = float(defects.ep_combination.max())
    ok = worst_cancel <= 1e-12 and worst_combo <= 1e-9
    announce(6, "multiplier-elimination", ok,
             f"cancellation {worst_cancel:.2e} <= 1e-12, assembled residual "
             f"{worst_combo:.2e} <= 1e-9")


def test_criterion_07_noether_boundary_identity(solved66):
    grid, y, lam = solved66["grid"], solved66["y"], solved66["lam"]
    lagrangian = solved66["lagrangian"]
    constraint = PlaquetteConstraint(N)
    fs = grid.full_faceset()
    xi = lg.random_skew(N, np.random.default_rng(107))
    d = hm.conjugation_symmetry_field(y, xi)
    rep = core.noether_boundary_sum(lagrangian, constraint, y, lam, d, fs)
    threshold = 1e-8 * (1.0 + abs(solved66["report"].final_action))
    exceed = 0
    trials = 40
    for seed in range(trials):
        bad = sampling.random_variation(grid, N, np.random.default_rng(2000 + seed))
        control = core.noether_boundary_sum(lagrangian, constraint, y, lam, bad, fs)
        if abs(control.boundary_sum) > 1e-3:
            exceed += 1
    ok = rep.symmetry_ok and abs(rep.boundary_sum) <= threshold \
        and exceed >= int(0.95 * trials)
    announce(7, "noether-boundary-identity", ok,
             f"|sum| {abs(rep.boundary_sum):.2e} <= {threshold:.2e}, negative "
             f"controls {exceed}/{trials} above 1e-3")


def test_criterion_08_multisymplectic_form(solved66):
    grid = solved66["grid"]
    frontier = sorted(classify_vertices(grid, grid.full_faceset()).frontier)
    rng = np.random.default_rng(108)
    bump1 = {frontier[4]: lg.random_skew(N, rng)}
    bump2 = {frontier[17]: lg.random_skew(N, rng)}
    start = time.perf_counter()
    scenario = hm.run_multisymplectic_scenario(grid, solved66["config"],
                                               bump1, bump2)
    elapsed = time.perf_counter() - start
    antisym = abs(scenario.defect + scenario.defect_swapped)
    ok = scenario.jacobi_residual_1 <= 1e-4 and scenario.jacobi_residual_2 <= 1e-4 \
        and abs(scenario.defect) <= 1e-4 and antisym <= 1e-12 \
        and abs(scenario.defect_repeated) <= 1e-12 and elapsed < 120.0
    announce(8, "multisymplectic-form", ok,
             f"jacobi {scenario.jacobi_residual_1:.2e},"
             f"{scenario.jacobi_residual_2:.2e} <= 1e-4, defect "
             f"{abs(scenario.defect):.2e} <= 1e-4, antisymmetry {antisym:.2e} "
             f"<= 1e-12, {elapsed:.1f} s < 120 s")


def test_criterion_09_regularity_rank():
    rng = np.random.default_rng(109)
    sigmas = {}
    ok = True
    for w, h in ((3, 3), (4, 4)):
        grid = triangulated_grid(w, h)
        y = red.reduce_field(grid, sampling.random_unreduced_field(grid, N, rng))
        rep = core.regularity_report(PlaquetteConstraint(N), y,
                                     grid.full_faceset(), boundary_fixed=False)
        sigmas[(w, h)] = rep.sigma_min
        ok = ok and rep.sigma_min > 1e-8
    announce(9, "regularity-rank", ok,
             f"sigma_min 3x3 {sigmas[(3, 3)]:.2e}, 4x4 {sigmas[(4, 4)]:.2e}, "
             f"both > 1e-8 (full variation space; the boundary-fixed map has a "
             f"structural gauge kernel)")


def test_criterion_10_two_path_ep_agreement():
    grid = triangulated_grid(4, 4)
    lagrangian = TraceLagrangian(N)
    rng = np.random.default_rng(110)
    klass = classify_vertices(grid, grid.full_faceset())
    worst = 0.0
    for _ in range(100):
        y = sampling.random_section(grid, N, rng)
        residual = red.euler_poincare_residual(lagrangian, grid, y)
        for v in sorted(klass.interior):
            i, j = grid.vertex_ij(v)
            sym = hm.ep_symmetric_defect(grid, y, i, j)
            general = residual[j - 1, i - 1]
            worst = max(worst, float(np.linalg.norm(sym - (-2.0) * general)))
    announce(10, "two-path-ep-agreement", worst <= 1e-12,
             f"worst {worst:.2e} <= 1e-12 over 100 sections, factor -2 between "
             f"skew-defect and pairing representations")
