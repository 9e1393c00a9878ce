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
import math
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
from .liegroup import (algebra_dim, block_norms, coords_to_skew, exp_skew,
                       max_norm, random_skew)
from .reduction import PlaquetteConstraint
from .harmonic import SolverConfig, TraceLagrangian

BOUNDARY_GENERATOR = "uniform-coordinate-geodesic"


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


def _finite_nonnegative(value) -> bool:
    return math.isfinite(value) and value >= 0


def _positive(value) -> bool:
    return value > 0


SOLVE, REBUILD, RECOVER = "solve", "reconstruct", "recover-multipliers"
# The verify suites by the settings they read: drawing, solving, regularity.
DRAWING = ("verify split", "verify cartan", "verify flatness")
SOLVING = ("verify noether", "verify multisymplectic", "verify multipliers",
           "verify elimination")
SUITES = (*DRAWING, *SOLVING, "verify regularity")
_WINDOW, _TOLS = (SOLVE, *SOLVING), "tolerances must be positive"
# One row per setting: its default; its check (None: the type alone) and the
# message a failed check raises, ``{value!r}`` naming the value; the
# subcommands and suites that read it; the flag's help (None: a config-only
# key).  A reader takes the flag and the config key of exactly the settings
# it reads, and checks them in row order.
SETTINGS = {
    "n": (3, lambda v: v >= 2, "group size n must be at least 2", (SOLVE, *SUITES),
          "group size"),
    "width": (6, _positive, "grid dimensions must be positive", _WINDOW,
              "window width"),
    "height": (6, _positive, "grid dimensions must be positive", _WINDOW,
               "window height"),
    "boundary": ("random", lambda v: v in ("identity", "random") or Path(v).exists(),
                 "boundary must be identity, random, or an existing field file, "
                 "got {value!r}", _WINDOW, "identity, random, or a field file"),
    "seed": (42, lambda v: v >= 0, "seed must be nonnegative, got {value!r}",
             (SOLVE, *SUITES, RECOVER), "random seed"),
    "scale": (0.1, _finite_nonnegative, "scale must be finite and nonnegative, "
              "got {value!r}", _WINDOW, "boundary perturbation scale"),
    "g_tol": (G_TOL, _positive, _TOLS, (SOLVE,), "solver gradient tolerance"),
    "ep_tol": (EP_TOL, _positive, _TOLS, (SOLVE, RECOVER), "accepted reduced residual"),
    "cons_tol": (CONS_TOL, _positive, _TOLS, ("verify multipliers", RECOVER),
                 "sweep consistency tolerance"),
    "adm_tol": (TOL_ADMISSIBLE, _positive, _TOLS, (REBUILD, RECOVER), None),
    "rank_tol": (RANK_TOL, _positive, _TOLS, ("verify regularity",), None),
    "max_iterations": (5000, lambda v: v >= 0, "max_iterations must be nonnegative",
                       _WINDOW, "trust-region step budget"),
    # verify multipliers reads none: it takes the benchmark warm-up's --instances 2
    "instances": (100, lambda v: v >= 1, "instances must be at least 1",
                  (*DRAWING, "verify multipliers"), "checks per suite"),
    "out": (".", None, "", (SOLVE, *SUITES, REBUILD, RECOVER), "output directory"),
}


def _settings(args) -> dict:
    """The settings ``args.command`` reads: defaults, overridden by the
    config file, overridden by flags, each checked."""
    rows = {key: row for key, row in SETTINGS.items() if args.command in row[3]}
    cfg = {key: row[0] for key, row in rows.items()}
    file_cfg = _load_config(args.config)
    unknown = set(file_cfg) - set(cfg)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg.update(file_cfg)
    for key, (default, ok, message, _, _) in rows.items():
        flag = getattr(args, key, None)
        value = cfg[key] = cfg[key] if flag is None else flag
        want = type(default)
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if want is float else want):
            raise ValueError(f"setting {key} must be of type {want.__name__}, "
                             f"got {value!r}")
        if ok is not None and not ok(value):
            raise ValueError(message.format(value=value))
    return cfg


def _out_dir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _boundary_map(cfg, grid) -> np.ndarray:
    if cfg["boundary"] == "identity":
        return harmonic.identity_boundary(grid, cfg["n"])
    if cfg["boundary"] == "random":
        return harmonic.random_boundary(grid, cfg["n"], cfg["seed"], cfg["scale"])
    bgrid, field = serialization.load_unreduced_field(cfg["boundary"])
    if (bgrid.width, bgrid.height) != (grid.width, grid.height):
        raise ValueError("boundary file window does not match the requested grid")
    _check_group_size("boundary file", field.shape[-1], "--n", cfg["n"])
    return field


def _check_group_size(name: str, n: int, other: str, want: int) -> None:
    if n != want:
        raise ValueError(f"{name} holds SO({n}) values, {other} is SO({want})")


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
    grid = triangulated_grid(cfg["width"], cfg["height"])
    boundary = _boundary_map(cfg, grid)
    out = _out_dir(cfg)
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
        "converged": True,
        "iterations": report.iterations,
        "backtracks": report.backtracks,
        "residual_evaluations": report.residual_evaluations,
        "hessian_products": report.hessian_products,
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

    ok = report.max_ep_residual <= cfg["ep_tol"] \
        and report.max_constraint_residual <= 1e-12
    print(f"solve: converged=True iterations={report.iterations} "
          f"max_ep={report.max_ep_residual:.3e} "
          f"max_constraint={report.max_constraint_residual:.3e}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify suites


def _split_draws(grid, n: int, rng, count: int):
    """The logs of ``count`` random sections (scale 0.5), multipliers and
    variations, as (count, V, 2, n, n), (count, F, n, n) and (count, V, 2,
    n, n) stacks, from one uniform draw: row-major, so each instance draws
    what ``random_section``, ``random_multiplier`` and ``random_variation``
    would draw in turn."""
    d = algebra_dim(n)
    vertices, faces = len(grid.vertices), len(grid.faces)
    pair = 2 * (vertices - 1) * d
    log, lam, dy = np.split(rng.uniform(-1.0, 1.0, (count, 2 * pair + faces * d)),
                            [pair, pair + faces * d], axis=1)
    logs, dys = np.zeros((2, count, vertices, 2, n, n))
    shape = (count, vertices - 1, 2, d)
    logs[:, :-1] = 0.5 * coords_to_skew(log.reshape(shape), n)
    dys[:, :-1] = coords_to_skew(dy.reshape(shape), n)
    return logs, coords_to_skew(lam.reshape(count, faces, d), n), dys


def _suite_split(cfg, rng):
    n = cfg["n"]
    grid = triangulated_grid(3, 3)
    lagrangian, constraint = TraceLagrangian(), PlaquetteConstraint()
    faceset = grid.full_faceset()
    # whole instances per block of jets, which bounds the stacked arrays
    block = core._FD_BLOCK // len(grid.faces)
    defects = []
    for start in range(0, cfg["instances"], block):
        logs, lams, dys = _split_draws(grid, n, rng,
                                       min(block, cfg["instances"] - start))
        lhs, rhs = core.variational_split(lagrangian, constraint, exp_skew(logs),
                                          lams, dys, faceset)
        defects.append(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)))
    worst = max_norm(*defects)
    return worst <= 1e-12, {"checks": cfg["instances"],
                            "worst_split_defect": worst, "tolerance": 1e-12}


def _cartan_logs(grid, n: int, rng, count: int) -> np.ndarray:
    """Logs (count, k, 2, n, n) of instance k's jet at face k mod F: one
    uniform draw per block, row-major, so each instance draws what
    ``random_variation(grid, n, rng, 0.5)`` would; only the coordinates of
    the jet's vertices become matrices (the far corner adheres to no face)."""
    adherence = grid.adherence_array
    block, coords = core._FD_BLOCK // len(adherence), []
    for start in range(0, count, block):
        draw = rng.uniform(-1.0, 1.0, (min(block, count - start),
                                       len(grid.vertices) - 1, 2, algebra_dim(n)))
        faces = adherence[np.arange(start, start + len(draw)) % len(adherence)]
        coords.append(draw[np.arange(len(draw))[:, None], faces])
    return 0.5 * coords_to_skew(np.concatenate(coords), n)


def _suite_cartan(cfg, rng):
    n = cfg["n"]
    grid = triangulated_grid(3, 3)
    constraint = PlaquetteConstraint()
    jets = exp_skew(_cartan_logs(grid, n, rng, cfg["instances"]))
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
        seed = g[grid.vertex_id(0, 0)]
        rep = reduction.reconstruction_report(grid, y, seed)
        y_back = reduction.reduce_field(grid, rep.field)
        rounds += [block_norms(rep.field - g), block_norms(y - y_back)]
        paths.append(rep.path_agreement)

        i = int(rng.integers(0, grid.width))
        j = int(rng.integers(0, grid.height))
        bump = random_skew(n, rng)
        bump = (1e-6 / np.linalg.norm(bump)) * bump
        tampered = y.copy()
        tampered[grid.vertex_id(i, j), 0] = tampered[grid.vertex_id(i, j), 0] @ (
            np.eye(n) + bump + bump @ bump / 2.0)
        injected += 1
        try:
            reduction.reconstruction_report(grid, tampered, seed)
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
    frontier = classify_vertices(grid, grid.full_faceset()).frontier
    picks = rng.choice(len(frontier), size=2, replace=False)
    bump1 = {int(frontier[picks[0]]): random_skew(n, rng)}
    bump2 = {int(frontier[picks[1]]): random_skew(n, rng)}
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
    lagrangian = TraceLagrangian()
    lam0, rep0 = reduction.recover_multipliers(lagrangian, grid, y, np.zeros((n, n)),
                                               cons_tol=cfg["cons_tol"])
    worst0 = rep0.max_system_residual
    seed = random_skew(n, rng, 0.3)
    lam1, rep1 = reduction.recover_multipliers(lagrangian, grid, y, seed,
                                               cons_tol=cfg["cons_tol"])
    worst1 = rep1.max_system_residual
    distance = max_norm(block_norms(lam0 - lam1))
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
    lagrangian = TraceLagrangian()
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
        constraint = PlaquetteConstraint()
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
    suite = args.suite
    passed, records = args.run(cfg, np.random.default_rng(cfg["seed"]))
    report = {"suite": suite, "seed": cfg["seed"], "passed": passed}
    report.update(records)
    serialization.write_report(_out_dir(cfg) / f"verify_{suite}.txt", report)
    # the worst defect; the multiplier distance and the free sigma_min, the
    # regularity suite's checks, are margins that must be large to pass
    if suite == "regularity":
        worst_key = min((k for k in records if k.startswith("sigma_min_")
                         and "boundary_fixed" not in k), key=records.get)
    else:
        skip = ("tolerance", "threshold", "multiplier_distance")
        worst_key = max((k for k, v in records.items()
                         if isinstance(v, float) and k not in skip),
                        key=lambda k: abs(records[k]), default=None)
    status = "ok" if passed else "FAILED"
    extra = f" worst={worst_key}={records[worst_key]:.3e}" if worst_key else ""
    print(f"verify {suite}: {status}{extra}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# reconstruct / recover-multipliers / report


def cmd_reconstruct(args) -> int:
    cfg = _settings(args)
    grid, y = serialization.load_reduced_section(args.section)
    if args.seed_file:
        sgrid, sfield = serialization.load_unreduced_field(args.seed_file)
        _check_group_size("seed file", sfield.shape[-1], "the section", y.shape[-1])
        seed = sfield[sgrid.vertex_id(0, 0)]
    else:
        seed = np.eye(y.shape[-1])
    try:
        rep = reduction.reconstruction_report(grid, y, seed, tol=cfg["adm_tol"])
    except HolonomyError as exc:
        i, j = grid.face_ij(exc.face)
        print(f"reconstruct: holonomy defect {exc.defect:.3e} at plaquette "
              f"({i}, {j})", file=sys.stderr)
        return 1
    out = _out_dir(cfg)
    serialization.save_unreduced_field(out / "unreduced_field.txt", grid, rep.field)
    serialization.write_report(out / "reconstruct_report.txt", {
        "max_plaquette_defect": rep.max_plaquette_defect,
        "path_agreement": rep.path_agreement,
    })
    print(f"reconstruct: ok path_agreement={rep.path_agreement:.3e}")
    return 0


def cmd_recover_multipliers(args) -> int:
    cfg = _settings(args)
    if not _finite_nonnegative(args.seed_scale):
        raise ValueError(f"--seed-scale must be finite and nonnegative, "
                         f"got {args.seed_scale!r}")
    grid, y = serialization.load_reduced_section(args.section)
    n = y.shape[-1]
    lagrangian = TraceLagrangian()
    seed = np.zeros((n, n))
    if args.seed_scale:
        rng = np.random.default_rng(cfg["seed"])
        seed = random_skew(n, rng, args.seed_scale)
    try:
        lam, rep = reduction.recover_multipliers(
            lagrangian, grid, y, seed,
            ep_tol=cfg["ep_tol"], cons_tol=cfg["cons_tol"],
            adm_tol=cfg["adm_tol"])
    except (PreconditionError, RecoveryConflictError) as exc:
        print(f"recover-multipliers: {exc}", file=sys.stderr)
        return 1
    out = _out_dir(cfg)
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
        prog="groupvar", allow_abbrev=False,
        description="Discrete variational problems with group-valued "
                    "constraints on the triangulated plane window.")
    sub = parser.add_subparsers(dest="command", required=True)

    parsers = {}

    def command(name, func, within=sub, **kwargs):
        parsers[name] = p = within.add_parser(name.split()[-1], allow_abbrev=False,
                                              **kwargs)
        p.set_defaults(func=func, command=name)
        return p

    command(SOLVE, cmd_solve, help="solve the boundary problem")
    verify = sub.add_parser("verify", help="run an identity suite", allow_abbrev=False)
    suites = verify.add_subparsers(dest="suite", required=True)
    for run in (_suite_split, _suite_cartan, _suite_flatness, _suite_noether,
                _suite_multisymplectic, _suite_multipliers, _suite_elimination,
                _suite_regularity):
        name = run.__name__.replace("_suite_", "verify ")
        command(name, cmd_verify, within=suites).set_defaults(run=run)
    parsers["verify noether"].add_argument(
        "--break-symmetry", dest="run", action="store_const",
        const=functools.partial(_suite_noether, break_symmetry=True),
        help="negative control: use a non-symmetry field")
    p_rec = command(REBUILD, cmd_reconstruct, help="rebuild a vertex field")
    p_rec.add_argument("--section", required=True, help="reduced section file")
    p_rec.add_argument("--seed-file", dest="seed_file",
                       help="field file providing the origin value")
    p_mul = command(RECOVER, cmd_recover_multipliers,
                    help="solve the multiplier system along a section")
    p_mul.add_argument("--section", required=True, help="reduced section file")
    p_mul.add_argument("--seed-scale", dest="seed_scale", type=float, default=0.0,
                       help="scale of a seeded random corner multiplier")
    # each reader's settings follow its own arguments
    for name, p in parsers.items():
        p.add_argument("--config", help="JSON config file")
        for key, (default, _, _, commands, help) in SETTINGS.items():
            if name in commands and help is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=type(default), help=help)

    p_rep = command("report", cmd_report, help="pretty-print a report file")
    p_rep.add_argument("file")

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
