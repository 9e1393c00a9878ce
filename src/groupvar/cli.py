"""Command line front end.

Subcommands: solve, verify <suite>, reconstruct, recover-multipliers, report.
Configuration comes from an optional JSON file plus flags; flags win.  Exit
codes are stable across subcommands: 0 success, 1 verification or convergence
failure, 2 usage or configuration error.

Reports are key=value records (floats via repr) with CSV tables alongside;
nothing time- or host-dependent is written, so identical configuration gives
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import core, harmonic, reduction, sampling, serialization
from .complexes import classify_vertices, triangulated_grid
from .defaults import CONS_TOL, EP_TOL, G_TOL, RANK_TOL, TOL_ADMISSIBLE
from .errors import (
    ConvergenceError,
    DomainError,
    HolonomyError,
    PreconditionError,
    RecoveryConflictError,
)
from .liegroup import block_norms, max_norm, random_skew
from .reduction import PlaquetteConstraint
from .harmonic import SolverConfig, TraceLagrangian

BOUNDARY_GENERATOR = "uniform-coordinate-geodesic"

SUITES = ("split", "cartan", "flatness", "noether", "multisymplectic",
          "multipliers", "elimination", "regularity")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


_DEFAULTS = {
    "n": 3,
    "width": 6,
    "height": 6,
    "boundary": "random",
    "seed": 42,
    "scale": 0.1,
    "g_tol": G_TOL,
    "ep_tol": EP_TOL,
    "cons_tol": CONS_TOL,
    "adm_tol": TOL_ADMISSIBLE,
    "rank_tol": RANK_TOL,
    "max_iterations": 5000,
    "instances": 100,
    "out": ".",
}


def _settings(args) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    cfg = dict(_DEFAULTS)
    file_cfg = _load_config(getattr(args, "config", None))
    unknown = set(file_cfg) - set(cfg)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg.update(file_cfg)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    for key, value in cfg.items():
        want = type(_DEFAULTS[key])
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if want is float else want):
            raise ValueError(f"setting {key} must be of type {want.__name__}, "
                             f"got {value!r}")
    if cfg["n"] < 2:
        raise ValueError("group size n must be at least 2")
    if cfg["width"] < 1 or cfg["height"] < 1:
        raise ValueError("grid dimensions must be positive")
    if cfg["scale"] < 0:
        raise ValueError("perturbation scale must be nonnegative")
    if not all(cfg[key] > 0 for key in
               ("g_tol", "ep_tol", "cons_tol", "adm_tol", "rank_tol")):
        raise ValueError("tolerances must be positive")
    if cfg["instances"] < 1:
        raise ValueError("instances must be at least 1")
    if cfg["max_iterations"] < 0:
        raise ValueError("max_iterations must be nonnegative")
    if cfg["boundary"] not in ("identity", "random") \
            and not Path(cfg["boundary"]).exists():
        raise ValueError(f"boundary must be identity, random, or an existing "
                         f"field file, got {cfg['boundary']!r}")
    return cfg


def _out_dir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _boundary_map(cfg, grid) -> reduction.UnreducedField:
    if cfg["boundary"] == "identity":
        return harmonic.identity_boundary(grid, cfg["n"])
    if cfg["boundary"] == "random":
        return harmonic.random_boundary(grid, cfg["n"], cfg["seed"], cfg["scale"])
    bgrid, field = serialization.load_unreduced_field(cfg["boundary"])
    if (bgrid.width, bgrid.height) != (grid.width, grid.height):
        raise ValueError("boundary file window does not match the requested grid")
    return field


def _config_records(cfg) -> dict:
    rec = {key: cfg[key] for key in
           ("n", "width", "height", "boundary", "seed", "scale", "g_tol",
            "ep_tol", "max_iterations")}
    rec["boundary_generator"] = BOUNDARY_GENERATOR
    return rec


# ---------------------------------------------------------------------------
# solve


def _write_history(path: Path, history: list[dict]) -> None:
    serialization.write_csv(
        path, ["iteration", "phase", "objective", "action", "max_gradient", "step"],
        [(h["iteration"], h["phase"], h["objective"], h["action"],
          h["max_gradient"], h["step"]) for h in history])


def cmd_solve(args) -> int:
    cfg = _settings(args)
    out = _out_dir(cfg)
    grid = triangulated_grid(cfg["width"], cfg["height"])
    boundary = _boundary_map(cfg, grid)
    solver_cfg = SolverConfig(boundary=boundary, g_tol=cfg["g_tol"],
                              max_iterations=cfg["max_iterations"])
    try:
        field, report = harmonic.solve_unreduced(grid, solver_cfg)
    except ConvergenceError as exc:
        serialization.write_report(out / "solve_report.txt", {
            **_config_records(cfg), "converged": False, "error": str(exc)})
        _write_history(out / "history.csv", exc.history)
        print(f"solve: {exc}", file=sys.stderr)
        return 1

    serialization.save_unreduced_field(out / "unreduced_field.txt", grid, field)
    serialization.save_reduced_section(out / "reduced_section.txt", grid,
                                       report.section)
    records = dict(_config_records(cfg))
    records.update({
        "converged": report.converged,
        "iterations": report.iterations,
        "descent_iterations": report.descent_iterations,
        "newton_steps": report.newton_steps,
        "backtracks": report.backtracks,
        "residual_evaluations": report.residual_evaluations,
        "final_action": report.final_action,
        "final_energy": report.final_energy,
        "max_gradient": report.max_gradient,
        "max_ep_residual": report.max_ep_residual,
        "max_constraint_residual": report.max_constraint_residual,
    })
    serialization.write_report(out / "solve_report.txt", records)
    serialization.write_csv(
        out / "residuals.csv", ["i", "j", "ep_residual"],
        [(i + 1, j + 1, r)
         for i, column in enumerate(report.per_vertex_ep.T.tolist())
         for j, r in enumerate(column)])
    _write_history(out / "history.csv", report.history)

    ok = report.converged and report.max_ep_residual <= cfg["ep_tol"] \
        and report.max_constraint_residual <= 1e-12
    print(f"solve: converged={report.converged} iterations={report.iterations} "
          f"max_ep={report.max_ep_residual:.3e} "
          f"max_constraint={report.max_constraint_residual:.3e}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify suites


def _suite_split(cfg, rng):
    n = cfg["n"]
    grid = triangulated_grid(3, 3)
    lagrangian, constraint = TraceLagrangian(n), PlaquetteConstraint(n)
    faceset = grid.full_faceset()
    defects = []
    for _ in range(cfg["instances"]):
        y = sampling.random_section(grid, n, rng)
        lam = sampling.random_multiplier(grid, n, rng)
        dy = sampling.random_variation(grid, n, rng)
        lhs, rhs = core.variational_split(lagrangian, constraint, y, lam, dy,
                                          faceset)
        defects.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    worst = max_norm(np.array(defects))
    return worst <= 1e-12, {"checks": cfg["instances"],
                            "worst_split_defect": worst, "tolerance": 1e-12}


def _suite_cartan(cfg, rng):
    n = cfg["n"]
    grid = triangulated_grid(3, 3)
    constraint = PlaquetteConstraint(n)
    faces = grid.faces
    jets = np.array([
        core.jet_at(sampling.random_section(grid, n, rng), grid, faces[k % len(faces)])
        for k in range(cfg["instances"])])
    defects = []
    for slot in range(3):
        analytic = constraint.cartan_form(grid, jets, slot)
        fd = core.ConstraintMap.cartan_form(constraint, grid, jets, slot)
        defects.append(block_norms(analytic - fd) / (1.0 + block_norms(analytic)))
    worst = max_norm(*defects)
    return worst <= 1e-6, {"checks": cfg["instances"] * 3,
                           "worst_cartan_defect": worst, "tolerance": 1e-6}


def _suite_flatness(cfg, rng):
    n = cfg["n"]
    grid = triangulated_grid(4, 4)
    instances = max(1, cfg["instances"] // 10)
    rounds, paths = [], []
    detected = 0
    injected = 0
    for _ in range(instances):
        g = sampling.random_unreduced_field(grid, n, rng)
        y = reduction.reduce_field(grid, g)
        seed = g.values[grid.vertex_id(0, 0)]
        rep = reduction.reconstruction_report(grid, y, seed)
        y_back = reduction.reduce_field(grid, rep.field)
        rounds += [block_norms(rep.field.values - g.values),
                   block_norms(y.values - y_back.values)]
        paths.append(rep.path_agreement)

        i = int(rng.integers(0, grid.width))
        j = int(rng.integers(0, grid.height))
        bump = random_skew(n, rng)
        bump = (1e-6 / np.linalg.norm(bump)) * bump
        tampered = y.values.copy()
        tampered[grid.vertex_id(i, j), 0] = tampered[grid.vertex_id(i, j), 0] @ (
            np.eye(n) + bump + bump @ bump / 2.0)
        y_t = core.Section(y.fiber, tampered)
        injected += 1
        try:
            reduction.reconstruction_report(grid, y_t, seed)
        except HolonomyError:
            detected += 1
    worst_round, worst_path = max_norm(*rounds), max_norm(np.array(paths))
    passed = worst_round <= 1e-12 and worst_path <= 1e-12 and detected == injected
    return passed, {"checks": instances, "worst_roundtrip": worst_round,
                    "worst_path_agreement": worst_path,
                    "tampered_injected": injected, "tampered_detected": detected,
                    "tolerance": 1e-12}


def _suite_problem(cfg):
    grid = triangulated_grid(cfg["width"], cfg["height"])
    solver_cfg = SolverConfig(boundary=_boundary_map(cfg, grid), g_tol=1e-11,
                              max_iterations=cfg["max_iterations"])
    return grid, solver_cfg


def _solve_for_suite(cfg):
    grid, solver_cfg = _suite_problem(cfg)
    _, report = harmonic.solve_unreduced(grid, solver_cfg)
    return grid, report.section


def _suite_noether(cfg, rng, break_symmetry=False):
    n = cfg["n"]
    grid, solver_cfg = _suite_problem(cfg)
    xi = random_skew(n, rng)
    # like a reduced section, a random variation skips the far corner
    bad = sampling.random_variation(grid, n, rng) if break_symmetry else None
    scenario = harmonic.run_noether_scenario(grid, solver_cfg, xi,
                                             symmetry_field=bad)
    return scenario.passed, {
        "boundary_sum": scenario.boundary_sum,
        "threshold": scenario.threshold,
        "lagrangian_symmetry_defect": scenario.noether.lagrangian_defect,
        "constraint_symmetry_defect": scenario.noether.constraint_defect,
        "symmetry_ok": scenario.noether.symmetry_ok,
        "broken_field": break_symmetry,
    }


def _suite_multisymplectic(cfg, rng):
    n = cfg["n"]
    grid, solver_cfg = _suite_problem(cfg)
    frontier = sorted(classify_vertices(grid, grid.full_faceset()).frontier)
    picks = rng.choice(len(frontier), size=2, replace=False)
    bump1 = {frontier[int(picks[0])]: random_skew(n, rng)}
    bump2 = {frontier[int(picks[1])]: random_skew(n, rng)}
    scenario = harmonic.run_multisymplectic_scenario(grid, solver_cfg, bump1, bump2)
    antisym = abs(scenario.defect + scenario.defect_swapped)
    passed = scenario.passed and antisym <= 1e-12 \
        and abs(scenario.defect_repeated) <= 1e-12
    return passed, {
        "jacobi_residual_1": scenario.jacobi_residual_1,
        "jacobi_residual_2": scenario.jacobi_residual_2,
        "two_form_defect": scenario.defect,
        "antisymmetry_defect": antisym,
        "repeated_field_defect": scenario.defect_repeated,
        "threshold": scenario.threshold,
    }


def _suite_multipliers(cfg, rng):
    n = cfg["n"]
    grid, y = _solve_for_suite(cfg)
    lagrangian = TraceLagrangian(n)
    lam0, rep0 = reduction.recover_multipliers(lagrangian, grid, y,
                                               np.zeros((n, n)))
    worst0 = rep0.max_system_residual
    seed = random_skew(n, rng, 0.3)
    lam1, rep1 = reduction.recover_multipliers(lagrangian, grid, y, seed)
    worst1 = rep1.max_system_residual
    distance = max_norm(block_norms(lam0.values - lam1.values))
    passed = worst0 <= 1e-10 and worst1 <= 1e-10 \
        and rep0.max_discrepancy <= cfg["cons_tol"] \
        and rep1.max_discrepancy <= cfg["cons_tol"] and distance > 1e-3
    return passed, {
        "system_residual_zero_seed": worst0,
        "system_residual_nonzero_seed": worst1,
        "sweep_consistency_zero_seed": rep0.max_discrepancy,
        "sweep_consistency_nonzero_seed": rep1.max_discrepancy,
        "multiplier_distance": distance,
        "unconstrained_faces": ",".join(map(str, rep0.unconstrained_faces)),
    }


def _suite_elimination(cfg, rng):
    n = cfg["n"]
    grid, y = _solve_for_suite(cfg)
    lagrangian = TraceLagrangian(n)
    lam, _ = reduction.recover_multipliers(lagrangian, grid, y, np.zeros((n, n)))
    defects = reduction.multiplier_elimination_check(lagrangian, grid, y, lam)
    worst_combo = max_norm(defects.ep_combination)
    worst_cancel = max_norm(defects.cancellation)
    passed = worst_cancel <= 1e-12 and worst_combo <= 1e-9
    return passed, {"worst_ep_combination": worst_combo,
                    "worst_cancellation": worst_cancel}


def _suite_regularity(cfg, rng):
    n = cfg["n"]
    records = {}
    passed = True
    for w, h in ((3, 3), (4, 4)):
        grid = triangulated_grid(w, h)
        g = sampling.random_unreduced_field(grid, n, rng)
        y = reduction.reduce_field(grid, g)
        constraint = PlaquetteConstraint(n)
        free = core.regularity_report(constraint, y, grid.full_faceset(),
                                      boundary_fixed=False,
                                      rank_tol=cfg["rank_tol"])
        fixed = core.regularity_report(constraint, y, grid.full_faceset(),
                                       boundary_fixed=True,
                                       rank_tol=cfg["rank_tol"])
        records[f"sigma_min_{w}x{h}"] = free.sigma_min
        records[f"regular_{w}x{h}"] = free.regular
        records[f"sigma_min_boundary_fixed_{w}x{h}"] = fixed.sigma_min
        records[f"unreachable_faces_boundary_fixed_{w}x{h}"] = \
            ",".join(map(str, fixed.unreachable_faces))
        passed = passed and free.sigma_min > cfg["rank_tol"]
    return passed, records


def cmd_verify(args) -> int:
    cfg = _settings(args)
    out = _out_dir(cfg)
    rng = np.random.default_rng(cfg["seed"])
    suite = args.suite
    runners = {
        "split": _suite_split,
        "cartan": _suite_cartan,
        "flatness": _suite_flatness,
        "noether": lambda c, r: _suite_noether(
            c, r, break_symmetry=getattr(args, "break_symmetry", False)),
        "multisymplectic": _suite_multisymplectic,
        "multipliers": _suite_multipliers,
        "elimination": _suite_elimination,
        "regularity": _suite_regularity,
    }
    passed, records = runners[suite](cfg, rng)
    report = {"suite": suite, "seed": cfg["seed"], "passed": passed}
    report.update(records)
    serialization.write_report(out / f"verify_{suite}.txt", report)
    worst_key = max((k for k, v in records.items()
                     if isinstance(v, float) and k not in ("tolerance", "threshold")),
                    key=lambda k: abs(records[k]), default=None)
    status = "ok" if passed else "FAILED"
    extra = f" worst={worst_key}={records[worst_key]:.3e}" if worst_key else ""
    print(f"verify {suite}: {status}{extra}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# reconstruct / recover-multipliers / report


def cmd_reconstruct(args) -> int:
    cfg = _settings(args)
    out = _out_dir(cfg)
    grid, y = serialization.load_reduced_section(args.section)
    if args.seed_file:
        sgrid, sfield = serialization.load_unreduced_field(args.seed_file)
        seed = sfield.values[sgrid.vertex_id(0, 0)]
    else:
        seed = np.eye(y.fiber.n)
    try:
        rep = reduction.reconstruction_report(grid, y, seed, tol=cfg["adm_tol"])
    except HolonomyError as exc:
        i, j = grid.face_ij(exc.face)
        print(f"reconstruct: holonomy defect {exc.defect:.3e} at plaquette "
              f"({i}, {j})", file=sys.stderr)
        return 1
    serialization.save_unreduced_field(out / "unreduced_field.txt", grid, rep.field)
    serialization.write_report(out / "reconstruct_report.txt", {
        "max_plaquette_defect": rep.max_plaquette_defect,
        "path_agreement": rep.path_agreement,
    })
    print(f"reconstruct: ok path_agreement={rep.path_agreement:.3e}")
    return 0


def cmd_recover_multipliers(args) -> int:
    cfg = _settings(args)
    out = _out_dir(cfg)
    grid, y = serialization.load_reduced_section(args.section)
    n = y.fiber.n
    lagrangian = TraceLagrangian(n)
    seed = np.zeros((n, n))
    if args.seed_scale:
        rng = np.random.default_rng(cfg["seed"])
        seed = random_skew(n, rng, args.seed_scale)
    try:
        lam, rep = reduction.recover_multipliers(
            lagrangian, grid, y, seed,
            ep_tol=cfg["ep_tol"], cons_tol=cfg["cons_tol"])
    except (PreconditionError, RecoveryConflictError) as exc:
        print(f"recover-multipliers: {exc}", file=sys.stderr)
        return 1
    serialization.save_multiplier(out / "multiplier.txt", grid, lam)
    worst = rep.max_system_residual
    serialization.write_report(out / "recovery_report.txt", {
        "seed_face": rep.seed_face,
        "max_sweep_discrepancy": rep.max_discrepancy,
        "unconstrained_faces": ",".join(map(str, rep.unconstrained_faces)),
        "max_system_residual": worst,
    })
    print(f"recover-multipliers: ok max_system_residual={worst:.3e}")
    return 0


def cmd_report(args) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read report: {exc}") from exc
    rows = [line.partition("=") for line in text.splitlines() if line.strip()]
    width = max((len(k) for k, _, _ in rows), default=0)
    for key, _, value in rows:
        print(f"{key.ljust(width)}  {value}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; each ``parse_args``
    call returns a fresh namespace, so no parsed state is shared."""
    parser = argparse.ArgumentParser(
        prog="groupvar",
        description="Discrete variational problems with group-valued "
                    "constraints on the triangulated plane window.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--n", type=int, help="group size")
        p.add_argument("--width", type=int, help="window width")
        p.add_argument("--height", type=int, help="window height")
        p.add_argument("--boundary", help="identity, random, or a field file")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--scale", type=float, help="boundary perturbation scale")
        p.add_argument("--g-tol", dest="g_tol", type=float,
                       help="solver gradient tolerance")
        p.add_argument("--ep-tol", dest="ep_tol", type=float,
                       help="accepted reduced residual")
        p.add_argument("--cons-tol", dest="cons_tol", type=float,
                       help="sweep consistency tolerance")
        p.add_argument("--max-iterations", dest="max_iterations", type=int)
        p.add_argument("--instances", type=int, help="checks per suite")
        p.add_argument("--out", help="output directory")

    p_solve = sub.add_parser("solve", help="solve the boundary problem")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--break-symmetry", action="store_true",
                          help="negative control: use a non-symmetry field")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_rec = sub.add_parser("reconstruct", help="rebuild a vertex field")
    p_rec.add_argument("--section", required=True, help="reduced section file")
    p_rec.add_argument("--seed-file", dest="seed_file",
                       help="field file providing the origin value")
    common(p_rec)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_mul = sub.add_parser("recover-multipliers",
                           help="solve the multiplier system along a section")
    p_mul.add_argument("--section", required=True, help="reduced section file")
    p_mul.add_argument("--seed-scale", dest="seed_scale", type=float, default=0.0,
                       help="scale of a seeded random corner multiplier")
    common(p_mul)
    p_mul.set_defaults(func=cmd_recover_multipliers)

    p_rep = sub.add_parser("report", help="pretty-print a report file")
    p_rep.add_argument("file")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DomainError, OSError) as exc:
        print(f"groupvar: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, HolonomyError, PreconditionError,
            RecoveryConflictError) as exc:
        print(f"groupvar: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
