"""Command line front end.

Subcommands: solve, verify <suite>, reconstruct, recover-multipliers, report.
Every setting comes from its flag, or else its default.  Exit codes are
stable across subcommands: 0 success, 1 verification or convergence failure,
2 usage or configuration error.

Reports are key=value records (floats via repr) with CSV tables alongside;
nothing time- or host-dependent is written, so identical configuration gives
byte-identical output within one OpenBLAS kernel set and, from 64x64
windows up, one BLAS thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import core, harmonic, reduction, sampling, serialization
from .complexes import classify_vertices, triangulated_grid
from .defaults import EP_TOL, RANK_TOL
from .errors import ConvergenceError, Failure, HolonomyError
from .liegroup import (algebra_dim, block_norms, coords_to_skew, exp_skew,
                       max_norm, random_skew)
from .reduction import PlaquetteConstraint
from .harmonic import TraceLagrangian

BOUNDARY_GENERATOR = "uniform-coordinate-geodesic"


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
_WINDOW = (SOLVE, *SOLVING)
# One row per setting: its default; its check (None: none) and the message a
# failed check raises, ``{value!r}`` naming the value; the subcommands and
# suites that read it; the flag's help.  A reader takes the flag of exactly
# the settings it reads, and checks them in row order.
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
    "seed_scale": (0.0, _finite_nonnegative, "--seed-scale must be finite and "
                   "nonnegative, got {value!r}", (RECOVER,),
                   "scale of a seeded random corner multiplier"),
    "max_iterations": (5000, lambda v: v >= 0, "max_iterations must be nonnegative",
                       _WINDOW, "trust-region step budget"),
    # verify multipliers reads none: it takes the benchmark warm-up's --instances 2
    "instances": (100, lambda v: v >= 1, "instances must be at least 1",
                  (*DRAWING, "verify multipliers"), "checks per suite"),
    "out": (".", None, "", (SOLVE, *SUITES, REBUILD, RECOVER), "output directory"),
}
# The settings that only the random boundary reads, by the readers that read
# them nowhere else: every solving suite but elimination draws from the seed.
BOUNDARY_DRAWS = {"seed": (SOLVE, "verify elimination"), "scale": _WINDOW}


def _settings(args) -> dict:
    """The settings ``args.command`` reads, each its flag or else its
    default, checked in row order.  A seed or scale that the given boundary
    leaves unread is dropped, and its flag is an error, as an unread flag
    is."""
    cfg = {}
    for key, (default, ok, message, readers, _) in SETTINGS.items():
        if args.command in readers:
            flag = getattr(args, key)
            value = cfg[key] = default if flag is None else flag
            if ok is not None and not ok(value):
                raise ValueError(message.format(value=value))
    if cfg.get("boundary", "random") != "random":
        for key, readers in BOUNDARY_DRAWS.items():
            if args.command in readers:
                if getattr(args, key) is not None:
                    raise ValueError(f"--{key} is read only by the random "
                                     f"boundary, not by --boundary {cfg['boundary']}")
                del cfg[key]
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
    """The settings a solve report records: every one it read but ``out``,
    the exit code's bound ``EP_TOL`` on the reduced residual before
    ``max_iterations``, and the boundary generator when it read a scale to
    draw with."""
    rec = {key: value for key, value in cfg.items()
           if key not in ("out", "max_iterations")}
    rec |= {"ep_tol": EP_TOL, "max_iterations": cfg["max_iterations"]}
    if "scale" in cfg:
        rec["boundary_generator"] = BOUNDARY_GENERATOR
    return rec


def _fields(record, *skip: str) -> dict:
    """A result record's fields but ``skip``, in declaration order: the keys
    and values its report file carries."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
            if f.name not in skip}


# ---------------------------------------------------------------------------
# solve


def _write_history(path: Path, history: list[dict]) -> None:
    """One column per key of ``harmonic._record``'s rows, in their order."""
    serialization.write_csv(path, list(history[0]), [row.values() for row in history])


def cmd_solve(args) -> int:
    cfg = _settings(args)
    grid = triangulated_grid(cfg["width"], cfg["height"])
    boundary = _boundary_map(cfg, grid)
    out = _out_dir(cfg)
    try:
        field, report = harmonic.solve_unreduced(
            grid, boundary, max_iterations=cfg["max_iterations"])
    except ConvergenceError as exc:
        serialization.write_report(out / "solve_report.txt", {
            **_config_records(cfg), "converged": False, "error": str(exc)})
        _write_history(out / "history.csv", exc.history)
        raise

    serialization.save_unreduced_field(out / "unreduced_field.txt", grid, field)
    serialization.save_reduced_section(out / "reduced_section.txt", grid,
                                       report.section)
    serialization.write_report(out / "solve_report.txt", {
        **_config_records(cfg), "converged": True,
        **_fields(report, "section", "history")})
    _write_history(out / "history.csv", report.history)

    ok = report.max_ep_residual <= EP_TOL \
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


def _split_block(grid, n: int) -> int:
    """Instances per block of the split suite, sized by the largest array of
    one instance, its (F, k, d, c d) Cartan forms, and at least two: each
    call of the analytic forms pays an indexing cost that grows like d^2
    whatever the block, and from n = 9 on one instance alone would fill a
    block."""
    return max(2, core._block_size(len(grid.faces) * 3 * 2 * algebra_dim(n) ** 2))


def _suite_split(cfg, rng):
    n = cfg["n"]
    grid = triangulated_grid(3, 3)
    lagrangian, constraint = TraceLagrangian(), PlaquetteConstraint()
    faceset = grid.full_faceset()
    block = _split_block(grid, n)
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


def _cartan_logs(grid, n: int, rng, start: int, count: int) -> np.ndarray:
    """Logs (count, k, 2, n, n) of instances start..start+count-1, instance
    i's jet at face i mod F: one uniform draw, row-major, so each instance
    draws what ``random_variation(grid, n, rng, 0.5)`` would; only the
    coordinates of the jet's vertices become matrices (the far corner
    adheres to no face)."""
    adherence = grid.adherence_array
    draw = rng.uniform(-1.0, 1.0, (count, len(grid.vertices) - 1, 2, algebra_dim(n)))
    faces = adherence[np.arange(start, start + count) % len(adherence)]
    return 0.5 * coords_to_skew(draw[np.arange(count)[:, None], faces], n)


def _cartan_block(n: int) -> int:
    """Instances per block of the cartan suite: a block holds three arrays
    of d copies of each (k, c, n, n) jet at once, the finite-difference
    moved stack, the differences of every slot and their product with the
    inverse constraint value."""
    return core._block_size(3 * algebra_dim(n) * 3 * 2 * n * n)


def _suite_cartan(cfg, rng):
    n = cfg["n"]
    grid = triangulated_grid(3, 3)
    constraint = PlaquetteConstraint()
    block = _cartan_block(n)
    defects = []
    for start in range(0, cfg["instances"], block):
        count = min(block, cfg["instances"] - start)
        jets = exp_skew(_cartan_logs(grid, n, rng, start, count))
        analytic = constraint.cartan_form(jets)
        fd = core.ConstraintMap.cartan_form(constraint, jets)
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


def _solve_for_suite(cfg):
    """The window of ``cfg``, its stationary field, the ``SolveReport``, and
    the zero-seed multiplier along its section with the ``RecoveryReport``:
    the one solve (gradient target 1e-11, the step budget of ``cfg``) and the
    one recovery (default tolerances) of every solving suite.  Either may
    raise a failure (exit 1)."""
    grid = triangulated_grid(cfg["width"], cfg["height"])
    field, report = harmonic.solve_unreduced(grid, _boundary_map(cfg, grid), 1e-11,
                                             cfg["max_iterations"])
    n = cfg["n"]
    lam, recovery = reduction.recover_multipliers(TraceLagrangian(), grid,
                                                  report.section, np.zeros((n, n)))
    return grid, field, report, lam, recovery


def _suite_noether(cfg, rng, break_symmetry=False):
    n = cfg["n"]
    grid, _, solved, lam, _ = _solve_for_suite(cfg)
    xi = random_skew(n, rng)
    # like a reduced section, a random variation skips the far corner
    d = sampling.random_variation(grid, n, rng) if break_symmetry \
        else harmonic.conjugation_symmetry_field(solved.section, xi)
    noether = core.noether_boundary_sum(TraceLagrangian(), PlaquetteConstraint(),
                                        solved.section, lam, d, grid.full_faceset())
    threshold = 1e-8 * (1.0 + abs(solved.final_action))
    return noether.symmetry_ok and abs(noether.boundary_sum) <= threshold, {
        "boundary_sum": noether.boundary_sum,
        "threshold": threshold,
        "lagrangian_symmetry_defect": noether.lagrangian_defect,
        "constraint_symmetry_defect": noether.constraint_defect,
        "symmetry_ok": noether.symmetry_ok,
        "broken_field": break_symmetry,
    }


def _suite_multisymplectic(cfg, rng):
    n = cfg["n"]
    grid, field, solved, lam, _ = _solve_for_suite(cfg)
    frontier = classify_vertices(grid.full_faceset()).frontier
    picks = rng.choice(len(frontier), size=2, replace=False)
    bumps = [{int(frontier[pick]): random_skew(n, rng)} for pick in picks]
    jr1, jr2, defect = harmonic.run_multisymplectic_scenario(grid, field, solved.section,
                                                             lam, *bumps)
    return jr1 <= 1e-4 and jr2 <= 1e-4 and abs(defect) <= 1e-4, {
        "jacobi_residual_1": jr1,
        "jacobi_residual_2": jr2,
        "two_form_defect": defect,
        "threshold": 1e-4,
    }


def _suite_multipliers(cfg, rng):
    grid, _, solved, _, rep0 = _solve_for_suite(cfg)
    _, rep1 = reduction.recover_multipliers(TraceLagrangian(), grid, solved.section,
                                            random_skew(cfg["n"], rng, 0.3))
    worst0, worst1 = rep0.max_system_residual, rep1.max_system_residual
    # a sweep discrepancy beyond CONS_TOL raises in the recovery (exit 1)
    return worst0 <= 1e-10 and worst1 <= 1e-10, {
        "system_residual_zero_seed": worst0,
        "system_residual_nonzero_seed": worst1,
        "sweep_consistency_zero_seed": rep0.max_sweep_discrepancy,
        "sweep_consistency_nonzero_seed": rep1.max_sweep_discrepancy,
    }


def _suite_elimination(cfg, rng):
    grid, _, solved, lam, _ = _solve_for_suite(cfg)
    defects = reduction.multiplier_elimination_check(TraceLagrangian(), grid,
                                                     solved.section, lam)
    worst_combo = max_norm(defects.ep_combination)
    worst_cancel = max_norm(defects.cancellation)
    passed = worst_cancel <= 1e-12 and worst_combo <= 1e-9
    return passed, {"worst_ep_combination": worst_combo,
                    "worst_cancellation": worst_cancel}


def _suite_regularity(cfg, rng):
    records = {}
    for w, h in ((3, 3), (4, 4)):
        grid = triangulated_grid(w, h)
        g = sampling.random_unreduced_field(grid, cfg["n"], rng)
        y = reduction.reduce_field(grid, g)
        free = core.regularity_report(PlaquetteConstraint(), y, grid.full_faceset(),
                                      boundary_fixed=False)
        records[f"sigma_min_{w}x{h}"] = free.sigma_min
    return all(sigma > RANK_TOL for sigma in records.values()), records


def cmd_verify(args) -> int:
    cfg = _settings(args)
    suite = args.suite
    name, head = f"verify_{suite}.txt", {"suite": suite}
    if "seed" in cfg:  # elimination reads none unless the boundary draws
        head["seed"] = cfg["seed"]
    try:
        passed, records = args.run(cfg, np.random.default_rng(cfg.get("seed")))
    except Failure as exc:
        serialization.write_report(_out_dir(cfg) / name,
                                   {**head, "passed": False, "error": str(exc)})
        raise
    serialization.write_report(_out_dir(cfg) / name,
                               {**head, "passed": passed, **records})
    # the worst defect; the regularity suite's sigma_min values are margins
    # that must be large to pass
    if suite == "regularity":
        worst_key = min(records, key=records.get)
    else:
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
    grid, y = serialization.load_reduced_section(args.section)
    if args.seed_file:
        sgrid, sfield = serialization.load_unreduced_field(args.seed_file)
        if (sgrid.width, sgrid.height) != (grid.width, grid.height):
            raise ValueError("seed file window does not match the section")
        _check_group_size("seed file", sfield.shape[-1], "the section", y.shape[-1])
        seed = sfield[sgrid.vertex_id(0, 0)]
    else:
        seed = np.eye(y.shape[-1])
    rep = reduction.reconstruction_report(grid, y, seed)
    out = _out_dir(cfg)
    serialization.save_unreduced_field(out / "unreduced_field.txt", grid, rep.field)
    serialization.write_report(out / "reconstruct_report.txt", _fields(rep, "field"))
    print(f"reconstruct: ok path_agreement={rep.path_agreement:.3e}")
    return 0


def cmd_recover_multipliers(args) -> int:
    cfg = _settings(args)
    if not cfg["seed_scale"] and args.seed is not None:
        raise ValueError("--seed draws the corner multiplier only with a "
                         "positive --seed-scale")
    grid, y = serialization.load_reduced_section(args.section)
    n = y.shape[-1]
    seed = np.zeros((n, n))
    if cfg["seed_scale"]:
        seed = random_skew(n, np.random.default_rng(cfg["seed"]), cfg["seed_scale"])
    lam, rep = reduction.recover_multipliers(TraceLagrangian(), grid, y, seed)
    out = _out_dir(cfg)
    serialization.save_multiplier(out / "multiplier.txt", grid, lam)
    serialization.write_report(out / "recovery_report.txt", _fields(rep))
    print(f"recover-multipliers: ok max_system_residual={rep.max_system_residual:.3e}")
    return 0


def cmd_report(args) -> int:
    rows = [line.partition("=")
            for line in serialization.read_lines(args.file) if line.strip()]
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
    # each reader's settings follow its own arguments
    for name, p in parsers.items():
        for key, (default, _, _, commands, help) in SETTINGS.items():
            if name in commands:
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
    except (ValueError, OSError) as exc:
        print(f"groupvar: {exc}", file=sys.stderr)
        return 2
    except Failure as exc:
        print(f"groupvar: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
