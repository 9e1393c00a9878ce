import importlib
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from groupvar import cli, core, errors, harmonic, sampling, serialization as ser
from groupvar.cli import main
from groupvar.complexes import FaceSet, classify_vertices, triangulated_grid
from groupvar.harmonic import TraceLagrangian
from groupvar.liegroup import block_norms, max_norm, random_skew
from groupvar.reduction import PlaquetteConstraint, reduce_field
import scipy.linalg


def run(*argv):
    return main([str(a) for a in argv])


SOLVE_FILES = {"solve_report.txt", "unreduced_field.txt", "reduced_section.txt",
               "history.csv"}


def test_solve_writes_files_and_exits_zero(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--width", 4, "--height", 4, "--out", out) == 0
    assert {p.name for p in out.iterdir()} == SOLVE_FILES
    report = dict(line.split("=", 1)
                  for line in (out / "solve_report.txt").read_text().splitlines())
    assert report["converged"] == "True"
    assert float(report["max_ep_residual"]) <= 1e-8
    counters = {key: int(report[key]) for key in (
        "iterations", "backtracks", "residual_evaluations", "hessian_products")}
    assert "descent_iterations" not in report and "newton_steps" not in report
    assert counters["residual_evaluations"] == \
        counters["iterations"] - counters["backtracks"] + 1
    assert counters["hessian_products"] >= counters["iterations"] >= 1


def test_solve_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("solve", "--out", a) == 0
    assert run("solve", "--out", b) == 0
    for name in SOLVE_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_identity_boundary(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--boundary", "identity", "--width", 3, "--height", 3,
               "--out", out) == 0
    report = dict(line.split("=", 1)
                  for line in (out / "solve_report.txt").read_text().splitlines())
    assert report["iterations"] == "0"
    assert float(report["max_ep_residual"]) == 0.0


def read_report(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def _field_file(tmp_path, size=3, scale=0.3):
    """A random SO(3) field file of the size x size window, to use as a
    boundary."""
    path = tmp_path / "field.txt"
    grid = triangulated_grid(size, size)
    ser.save_unreduced_field(path, grid, sampling.random_unreduced_field(
        grid, 3, np.random.default_rng(0), scale=scale))
    return path


def test_solve_records_the_seed_and_scale_only_for_a_random_boundary(tmp_path):
    """Only the random boundary reads the seed, the scale and its generator,
    so only its reports record them, converged or not; the identity and a
    boundary file record the other settings."""
    field = _field_file(tmp_path)
    cases = [("random", 5000, 0), ("random", 0, 1), ("identity", 5000, 0),
             (field, 5000, 0), (field, 0, 1)]
    for k, (boundary, budget, code) in enumerate(cases):
        out = tmp_path / f"run-{k}"
        flags = ("--seed", 5, "--scale", 0.2) if boundary == "random" else ()
        assert run("solve", "--boundary", boundary, "--width", 3, "--height", 3,
                   *flags, "--max-iterations", budget, "--out", out) == code
        report = read_report(out / "solve_report.txt")
        assert report["boundary"] == str(boundary)
        assert report["converged"] == str(code == 0)
        drawn = {key: report.get(key) for key in ("seed", "scale", "boundary_generator")}
        if boundary == "random":
            assert drawn == {"seed": "5", "scale": "0.2",
                             "boundary_generator": cli.BOUNDARY_GENERATOR}
        else:
            assert drawn == dict.fromkeys(drawn)
            assert list(report)[:6] == ["n", "width", "height", "boundary", "ep_tol",
                                        "max_iterations"]


@pytest.mark.parametrize("boundary", ["identity", "file"])
def test_seed_and_scale_the_boundary_leaves_unread_exit_two(tmp_path, capsys, boundary):
    """With the identity or a file boundary, a --scale flag exits 2 for every
    reader, and a --seed flag for solve and verify elimination, which draw
    nothing else; the message names the flag and the boundary, and nothing
    is written.  The suites that draw from the seed themselves still take
    it."""
    if boundary == "file":
        boundary = _field_file(tmp_path)
    window = ("--boundary", boundary, "--width", 3, "--height", 3)
    cases = [(reader, "--scale", 0.2) for reader in ("solve", *cli.SOLVING)]
    cases += [(reader, "--seed", 5) for reader in ("solve", "verify elimination")]
    for reader, flag, value in cases:
        out = tmp_path / "out"
        assert run(*reader.split(), *window, flag, value, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"groupvar: {flag} is read only by the random boundary, "
            f"not by --boundary {boundary}\n")
        assert not out.exists()
    for suite in ("noether", "multisymplectic", "multipliers"):
        assert run("verify", suite, *window, "--seed", 5, "--out", tmp_path / suite) == 0


@pytest.mark.parametrize("boundary", ["identity", "file", "random"])
def test_verify_records_the_seed_only_where_it_is_read(tmp_path, boundary):
    """verify elimination reads the seed only to draw a random boundary, so
    with the identity or a file boundary its report records none; the
    suites that draw from the seed themselves record it with any
    boundary."""
    if boundary == "file":
        boundary = _field_file(tmp_path)
    window = ("--boundary", boundary, "--width", 3, "--height", 3)
    for suite, seeded in (("elimination", boundary == "random"), ("noether", True)):
        assert run("verify", suite, *window, "--out", tmp_path / "out") == 0
        report = read_report(tmp_path / "out" / f"verify_{suite}.txt")
        assert list(report)[:2] == ["suite", "seed" if seeded else "passed"]
        assert report.get("seed", "42") == "42"


def test_flags_override_defaults(tmp_path):
    """Each setting is its flag, or else its default."""
    out = tmp_path / "run"
    assert run("solve", "--width", 3, "--height", 3, "--seed", 9, "--out", out) == 0
    report = read_report(out / "solve_report.txt")
    assert (report["width"], report["seed"]) == ("3", "9")
    assert (report["n"], report["scale"]) == ("3", "0.1")


def test_malformed_config_exits_two(tmp_path, capsys):
    """A setting outside its range exits 2 before anything is written; each
    bad value goes to a command that reads the setting, and its own message
    shows that the check, not a later step, rejected it."""
    for argv, message in (
            (("solve", "--n", 1), "group size n must be at least 2"),
            (("solve", "--width", 0), "grid dimensions must be positive"),
            (("solve", "--scale", -0.1), "scale must be finite and nonnegative"),
            (("solve", "--scale", "inf"), "scale must be finite and nonnegative"),
            (("solve", "--max-iterations", -1), "max_iterations must be"),
            (("verify", "split", "--instances", 0), "instances must be at least 1"),
            (("verify", "split", "--instances", -3), "instances must be at least 1")):
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err.startswith(f"groupvar: {message}")
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("argv", [("solve",), ("verify", "split"),
                                  ("recover-multipliers", "--section", "none.txt")])
def test_negative_seed_is_a_setting_error(tmp_path, capsys, argv):
    """A negative seed exits 2 with a message that names the setting, and
    nothing is written."""
    assert run(*argv, "--seed", -1, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == "groupvar: seed must be nonnegative, got -1\n"
    assert not (tmp_path / "out").exists()


def test_input_errors_write_nothing(tmp_path, capsys):
    """A missing section, a malformed boundary file or a boundary file of
    another window exits 2 before the output directory is made."""
    boundary = tmp_path / "boundary.txt"
    boundary.write_text("not a field file\n")
    field, window = (_field_file(tmp_path),
                     "boundary file window does not match the requested grid\n")
    for argv, message in (
            (("recover-multipliers", "--section", tmp_path / "missing.txt"), ""),
            (("reconstruct", "--section", tmp_path / "missing.txt"), ""),
            (("solve", "--boundary", boundary), ""),
            (("verify", "noether", "--boundary", boundary), ""),
            (("solve", "--boundary", field, "--width", 4, "--height", 3), window),
            (("solve", "--boundary", field, "--width", 3, "--height", 4), window)):
        assert run(*argv, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"groupvar: {message}")
        assert not (tmp_path / "out").exists()


# The settings each subcommand or verify suite reads: its flags.
READS = {
    "solve": "n width height boundary seed scale max_iterations out",
    **dict.fromkeys(("verify split", "verify cartan", "verify flatness"),
                    "n seed instances out"),
    **dict.fromkeys(("verify noether", "verify multisymplectic", "verify elimination"),
                    "n width height boundary seed scale max_iterations out"),
    # takes instances, which it does not read, for the benchmark's warm-up
    "verify multipliers": "n width height boundary seed scale max_iterations "
                          "instances out",
    "verify regularity": "n seed out",
    "reconstruct": "out",
    "recover-multipliers": "seed seed_scale out",
}
# A valid value of each setting, and of adm_tol, rank_tol, g_tol, ep_tol and
# cons_tol, which no subcommand reads: as flags they exit 2 everywhere.
VALUES = {"n": 5, "width": 4, "height": 4, "boundary": "random", "seed": 5,
          "scale": 0.0, "g_tol": 1e-12, "ep_tol": 0.1, "cons_tol": 1e-9,
          "seed_scale": 0.3, "adm_tol": 1e-9, "rank_tol": 1e-8, "max_iterations": 7,
          "instances": 2, "out": "."}
PREFIX = {reader: reader.split() for reader in READS} | {
    "reconstruct": ["reconstruct", "--section", "section.txt"],
    "recover-multipliers": ["recover-multipliers", "--section", "section.txt"]}


def _unread(keys):
    """Each (subcommand, key) that some reader of the subcommand does not
    read, with those readers: a verify case covers every such suite.
    --break-symmetry is a flag of the noether suite alone."""
    cases = {}
    for reader, reads in READS.items():
        for key in keys:
            if key not in reads.split() and (reader, key) != ("verify noether",
                                                              "break_symmetry"):
                cases.setdefault((reader.split()[0], key), []).append(reader)
    return cases


UNREAD_FLAGS = _unread([*VALUES, "break_symmetry", "config"])
UNREAD_KEYS = _unread(VALUES)


def _leaf_parsers(parser, prefix=""):
    """Every parser without subcommands, by the words that select it."""
    subs = [a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)]
    if not subs:
        return {prefix.strip(): parser}
    return {reader: leaf for name, p in subs[0].choices.items()
            for reader, leaf in _leaf_parsers(p, f"{prefix}{name} ").items()}


def test_each_subcommand_takes_the_settings_it_reads():
    own = {"verify noether": {"run"}, "reconstruct": {"section", "seed_file"},
           "recover-multipliers": {"section"}}
    leaves = _leaf_parsers(cli.build_parser())
    assert set(leaves) == set(READS) | {"report"}
    for command, reads in READS.items():
        dests = {a.dest for a in leaves[command]._actions} - {"help"}
        assert dests == set(reads.split()) | own.get(command, set())
        assert set(reads.split()) == {k for k, row in cli.SETTINGS.items()
                                      if command in row[3]}


@pytest.mark.parametrize("command, key", list(UNREAD_FLAGS))
def test_unread_flags_exit_two(tmp_path, monkeypatch, command, key):
    """A flag the subcommand or suite does not read is a usage error:
    argparse exits 2 and nothing is written; no flag is taken as an
    abbreviation of another.  No reader takes a --config file."""
    monkeypatch.chdir(tmp_path)
    value = {**VALUES, "config": "cfg.json"}.get(key)
    flag = ["--" + key.replace("_", "-"), *([] if value is None else [value])]
    for reader in UNREAD_FLAGS[command, key]:
        with pytest.raises(SystemExit) as exc:
            run(*PREFIX[reader], *flag, "--out", "out")
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key", list(UNREAD_KEYS))
def test_unread_config_keys_exit_two(capsys, command, key):
    """A setting the subcommand or suite does not read has its flag as its
    one way in, and the usage error names the flag and its value."""
    flag = f"--{key.replace('_', '-')} {VALUES[key]}"
    for reader in UNREAD_KEYS[command, key]:
        with pytest.raises(SystemExit):
            run(*PREFIX[reader], *flag.split())
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {flag}\n")


def test_parser_takes_the_benchmark_command_lines(monkeypatch, tmp_path):
    """Every command line the benchmark builds parses to valid settings: the
    warm-up of each workload, one solve operation's three commands and one
    certify round, the broken-symmetry control included."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    wl = importlib.import_module("perfbench.workloads")
    ops = [wl.warmup_operation(workload, 1) for workload in wl.WORKLOADS]
    ops += wl.operations("solve-rough", 1, 1.0)[:1] + wl.operations("certify", 1, 1.0)
    argvs = [argv for op in ops for argv in op.commands(tmp_path)]
    assert len(argvs) == 2 * 3 + 1 + 3 + 9
    assert sum("--break-symmetry" in argv for argv in argvs) == 1
    for argv in argvs:
        cli._settings(cli.build_parser().parse_args(argv))


def test_failed_solve_writes_history(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--width", 3, "--height", 3, "--max-iterations", 1,
               "--out", out) == 1
    report = (out / "solve_report.txt").read_text()
    assert "converged=False" in report
    rows = (out / "history.csv").read_text().splitlines()
    assert rows[0] == "iteration,phase,objective,action,max_gradient,step"
    assert len(rows) >= 2


@pytest.mark.parametrize("suite", ["split", "cartan", "flatness", "regularity"])
def test_verify_algebra_suites(tmp_path, suite):
    instances = () if suite == "regularity" else ("--instances", 10)
    assert run("verify", suite, *instances, "--out", tmp_path) == 0
    assert (tmp_path / f"verify_{suite}.txt").exists()


@pytest.mark.parametrize("suite", ["multipliers", "elimination", "noether",
                                   "multisymplectic"])
def test_verify_solver_suites(tmp_path, suite):
    assert run("verify", suite, "--width", 4, "--height", 4,
               "--out", tmp_path) == 0


@pytest.mark.parametrize("suite", ["noether", "multisymplectic", "multipliers",
                                   "elimination"])
def test_solving_suite_out_of_budget_exits_one(tmp_path, capsys, suite):
    """A solving suite whose solve runs out of steps exits 1 with a report
    that names the suite, its seed and the convergence error, and nothing
    else: no record of a scenario that never ran."""
    assert run("verify", suite, "--scale", 3.0, "--max-iterations", 1,
               "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert "after 1 iterations" in err
    report = (tmp_path / f"verify_{suite}.txt").read_text().splitlines()
    assert report == [f"suite={suite}", "seed=42", "passed=False",
                      f"error={err.strip().removeprefix('groupvar: ')}"]


def test_verify_noether_broken_symmetry_fails(tmp_path):
    assert run("verify", "noether", "--break-symmetry", "--width", 4,
               "--height", 4, "--out", tmp_path) == 1


@pytest.mark.parametrize("argv", [("noether",), ("noether", "--break-symmetry"),
                                  ("multisymplectic",), ("multipliers",),
                                  ("elimination",)])
def test_solving_suites_take_one_zero_seed_recovery(tmp_path, monkeypatch, argv):
    """Every solving suite reads its pair from ``_solve_for_suite``, which
    recovers the zero-seed multiplier once; only ``verify multipliers``
    recovers again, at its random seed, and no scenario recovers."""
    from groupvar import reduction
    calls, exact = [], reduction.recover_multipliers

    def spy(lagrangian, grid, y, seed, **tols):
        calls.append((sys._getframe(1).f_code.co_name, bool(seed.any())))
        return exact(lagrangian, grid, y, seed, **tols)

    monkeypatch.setattr(reduction, "recover_multipliers", spy)
    expected = 1 if "--break-symmetry" in argv else 0
    assert run("verify", *argv, "--width", 4, "--height", 4, "--out", tmp_path) \
        == expected
    again = [("_suite_multipliers", True)] if argv == ("multipliers",) else []
    assert calls == [("_solve_for_suite", False), *again]
    assert not hasattr(harmonic, "recover_multipliers")
    assert not hasattr(harmonic, "run_noether_scenario")


def test_multisymplectic_reduces_the_solved_field_once(tmp_path, monkeypatch):
    """A ``verify multisymplectic`` run reduces its solved field once, in the
    solve's last gradient evaluation: the report keeps that section, and
    the scenario takes its Jacobi fields at it."""
    from groupvar import reduction
    solved, reduced = [], []
    exact_solve, exact_reduce = harmonic.solve_unreduced, reduction.reduce_field

    def kept(*args, **kwargs):
        solved.append(exact_solve(*args, **kwargs))
        return solved[-1]

    def spy(grid, g):
        reduced.append(g.tobytes())
        return exact_reduce(grid, g)

    monkeypatch.setattr(harmonic, "solve_unreduced", kept)
    for module in (reduction, harmonic):
        monkeypatch.setattr(module, "reduce_field", spy)
    assert run("verify", "multisymplectic", "--n", 3, "--seed", 7, "--out", tmp_path) == 0
    [(field, _)] = solved
    assert reduced.count(field.tobytes()) == 1


def test_one_parser_serves_every_call(tmp_path):
    """The parser is built once per process; no flag or default of one call
    reaches the next."""
    small = ("--width", 4, "--height", 4)
    assert run("verify", "noether", "--break-symmetry", *small,
               "--out", tmp_path / "broken") == 1
    assert run("verify", "noether", *small, "--out", tmp_path / "plain") == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("solve", *small, "--scale", 1.0, "--out", a) == 0
    assert run("solve", *small, "--scale", 1.0, "--out", b) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_nan_defect_fails_the_suite(tmp_path, monkeypatch):
    """One NaN split defect among finite ones counts as the worst."""
    exact = core.variational_split

    def one_nan(*args):
        lhs, rhs = exact(*args)
        return np.where(np.arange(len(lhs)) == 2, np.nan, lhs), rhs

    monkeypatch.setattr(core, "variational_split", one_nan)
    assert run("verify", "split", "--instances", 5, "--out", tmp_path) == 1
    report = (tmp_path / "verify_split.txt").read_text()
    assert "passed=False" in report and "worst_split_defect=nan" in report


def per_instance_split(n, count, rng):
    """The split suite as it was, one instance per call: the oracle of the
    blocked suite.  Each instance's defect, and the generator state after
    it."""
    grid = triangulated_grid(3, 3)
    lagrangian, constraint = TraceLagrangian(), PlaquetteConstraint()
    faceset = grid.full_faceset()
    defects, states = [], []
    for _ in range(count):
        y = sampling.random_section(grid, n, rng)
        lam = sampling.random_multiplier(grid, n, rng)
        dy = sampling.random_variation(grid, n, rng)
        (lhs,), (rhs,) = core.variational_split(
            lagrangian, constraint, y[None], lam[None],
            dy[None], faceset)
        defects.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
        states.append(rng.bit_generator.state)
    return np.array(defects), states


def split_report(defects):
    worst = max_norm(defects)
    return worst <= 1e-12, {"checks": len(defects),
                            "worst_split_defect": worst, "tolerance": 1e-12}


def per_instance_cartan(n, count, rng):
    """The cartan suite as it was, one whole random section per instance:
    the oracle of the suite's jet draws.  Each instance's worst defect over
    the three slots, and the generator state after it."""
    grid = triangulated_grid(3, 3)
    constraint = PlaquetteConstraint()
    faces = grid.faces
    jets, states = [], []
    for k in range(count):
        jets.append(core.jet_at(sampling.random_section(grid, n, rng),
                                FaceSet(grid, [faces[k % len(faces)]]))[0])
        states.append(rng.bit_generator.state)
    jets = np.array(jets)
    analytic = constraint.cartan_form(jets)
    fd = core.ConstraintMap.cartan_form(constraint, jets)
    return (block_norms(analytic - fd) / (1.0 + block_norms(analytic))).max(axis=1), states


def cartan_report(defects):
    worst = max_norm(defects)
    return worst <= 1e-6, {"checks": len(defects) * 3,
                           "worst_cartan_defect": worst, "tolerance": 1e-6}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_split_draws_match_the_generators(n):
    """One uniform draw per block gives, bit for bit, what the log of
    random_section, random_multiplier and random_variation draw instance
    after instance, and leaves the generator in the same state."""
    grid = triangulated_grid(3, 3)
    rng, oracle = np.random.default_rng(n), np.random.default_rng(n)
    logs, lams, dys = cli._split_draws(grid, n, rng, 4)
    for k in range(4):
        for got, want in ((logs[k], sampling.random_variation(grid, n, oracle, 0.5)),
                          (lams[k], sampling.random_multiplier(grid, n, oracle)),
                          (dys[k], sampling.random_variation(grid, n, oracle))):
            assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cartan_logs_match_the_generator(n):
    """One uniform draw per block of the cartan suite, each at its global
    instance offset, gives, bit for bit and across the block edge, the log
    blocks of instance k's jet at face k mod F that random_variation(grid,
    n, rng, 0.5) draws instance after instance, and leaves the generator in
    the same state."""
    grid = triangulated_grid(3, 3)
    adherence = grid.adherence_array
    block = cli._cartan_block(n)
    rng, oracle = np.random.default_rng(n), np.random.default_rng(n)
    logs = np.concatenate([cli._cartan_logs(grid, n, rng, 0, block),
                           cli._cartan_logs(grid, n, rng, block, 2)])
    assert logs.shape == (block + 2, 3, 2, n, n)
    for k in range(block + 2):
        want = sampling.random_variation(grid, n, oracle, 0.5)
        assert logs[k].tobytes() == want[adherence[k % len(adherence)]].tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


SUITE_ORACLES = ((cli._suite_split, per_instance_split, split_report),
                 (cli._suite_cartan, per_instance_cartan, cartan_report))


def check_blocked_suite(suite, oracle, report, n, counts):
    """The blocked suite at each instance count draws what the first
    instances of one per-instance loop draw, and reports the same worst
    defect, bit for bit.  Draws are row-major, so the first m instances are
    the same at every count, and the loop runs once, at the largest."""
    defects, states = oracle(n, max(counts), np.random.default_rng(n))
    for m in counts:
        rng = np.random.default_rng(n)
        assert repr(suite({"n": n, "instances": m}, rng)) == repr(report(defects[:m]))
        assert rng.bit_generator.state == states[m - 1]


@pytest.mark.parametrize("instances", [1, 28, 29, 100])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_blocked_suites_match_the_per_instance_loops(n, instances):
    """Same draws, same worst defect bit for bit, at fixed instance counts
    (100 is the CLI default)."""
    for suite, oracle, report in SUITE_ORACLES:
        check_blocked_suite(suite, oracle, report, n, (instances,))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_blocked_suites_match_the_per_instance_loops_at_block_edges(n):
    """Same draws, same worst defect bit for bit, on both sides of each
    suite's first block edge and one past its second."""
    blocks = (cli._split_block(triangulated_grid(3, 3), n), cli._cartan_block(n))
    for (suite, oracle, report), block in zip(SUITE_ORACLES, blocks):
        check_blocked_suite(suite, oracle, report, n, (block, block + 1, 2 * block + 1))


@pytest.mark.parametrize("suite", ["split", "cartan"])
@pytest.mark.parametrize("n", [8, 10])
def test_sampled_suites_run_in_bounded_memory(tmp_path, n, suite):
    """The traced peak of a whole in-process run stays within 4 MiB: the
    blocks of instances and of finite-difference jets bound every stack."""
    tracemalloc.start()
    try:
        assert run("verify", suite, "--n", n, "--out", tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_loads_of_one_window_share_the_grid(tmp_path):
    out = tmp_path / "solve"
    assert run("solve", "--width", 4, "--height", 3, "--out", out) == 0
    grid, _ = ser.load_unreduced_field(out / "unreduced_field.txt")
    again, _ = ser.load_reduced_section(out / "reduced_section.txt")
    assert grid is again is triangulated_grid(4, 3)
    assert not grid.adherence_array.flags.writeable


@pytest.mark.parametrize("size,scale", [(12, 0.1), (64, 3.0)])
def test_final_action_is_the_last_history_row(tmp_path, monkeypatch, size, scale):
    """The report's action is the history's 2n F - E of the returned field,
    as text and as a float, and that lies within 2 ulp of the exactly
    rounded sum of the base-corner traces."""
    solved, exact = [], harmonic.solve_unreduced

    def kept(*args, **kwargs):
        solved.append(exact(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(harmonic, "solve_unreduced", kept)
    out = tmp_path / "solve"
    assert run("solve", "--width", size, "--height", size, "--scale", scale,
               "--seed", 1, "--out", out) == 0
    report = solved[0][1]
    lines = (out / "solve_report.txt").read_text().splitlines()
    text = next(line for line in lines if line.startswith("final_action="))
    last = (out / "history.csv").read_text().splitlines()[-1].split(",")
    assert text == "final_action=" + last[3]
    assert report.final_action == report.history[-1]["action"]
    base = report.section.reshape(size + 1, size + 1, 2, 3, 3)[:-1, :-1]
    traces = math.fsum(np.trace(base, axis1=-2, axis2=-1).ravel())
    assert abs(report.final_action - traces) <= 2 * np.spacing(traces)


def test_recover_multipliers_evaluates_partials_for_sweep_and_certificate(
        tmp_path, monkeypatch):
    """Recovery evaluates the face Lagrangian partials twice, in one stacked
    call each: once for the sweep and once for its certificate, the extended
    residual, which shares no evaluation with the sweep it checks."""
    from groupvar.harmonic import TraceLagrangian
    out = tmp_path / "solve"
    assert run("solve", "--width", 5, "--height", 4, "--out", out) == 0
    exact, calls = TraceLagrangian.vertex_differential, []

    def counted(self, jets):
        calls.append(len(jets))
        return exact(self, jets)

    monkeypatch.setattr(TraceLagrangian, "vertex_differential", counted)
    assert run("recover-multipliers", "--section", out / "reduced_section.txt",
               "--out", tmp_path / "mult") == 0
    assert calls == [20, 20]


def test_reconstruct_roundtrip(tmp_path):
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(0)
    g = sampling.random_unreduced_field(grid, 3, rng)
    y = reduce_field(grid, g)
    section = tmp_path / "section.txt"
    seeds = tmp_path / "field.txt"
    ser.save_reduced_section(section, grid, y)
    ser.save_unreduced_field(seeds, grid, g)
    out = tmp_path / "out"
    assert run("reconstruct", "--section", section, "--seed-file", seeds,
               "--out", out) == 0
    _, rebuilt = ser.load_unreduced_field(out / "unreduced_field.txt")
    worst = np.linalg.norm(rebuilt - g, axis=(-2, -1)).max()
    assert worst <= 1e-12


def test_recover_multipliers_cmd(tmp_path):
    out = tmp_path / "solve"
    assert run("solve", "--width", 4, "--height", 4, "--out", out) == 0
    mout = tmp_path / "mult"
    assert run("recover-multipliers", "--section", out / "reduced_section.txt",
               "--out", mout) == 0
    report = dict(line.split("=", 1)
                  for line in (mout / "recovery_report.txt").read_text().splitlines())
    assert float(report["max_system_residual"]) <= 1e-10
    _, lam = ser.load_multiplier(mout / "multiplier.txt")
    assert len(lam) == 16


def test_recover_multipliers_honours_adm_tol(tmp_path, capsys):
    """A solved section turned by about 1.5e-9 at one vertex is not flat
    beyond ``TOL_ADMISSIBLE`` (1e-10): recovery rejects it as reconstruction
    does, exit 1 and no multiplier file, though its reduced residual is
    within ``EP_TOL`` (1e-8)."""
    out = tmp_path / "solve"
    assert run("solve", "--width", 5, "--height", 4, "--out", out) == 0
    grid, y = ser.load_reduced_section(out / "reduced_section.txt")
    y = y.copy()
    bump = scipy.linalg.expm(1e-9 * random_skew(3, np.random.default_rng(0)))
    y[grid.vertex_id(2, 2), 0] = y[grid.vertex_id(2, 2), 0] @ bump
    section = tmp_path / "tilted.txt"
    ser.save_reduced_section(section, grid, y)
    assert run("reconstruct", "--section", section, "--out", tmp_path / "rec") == 1
    mout = tmp_path / "mult"
    assert run("recover-multipliers", "--section", section, "--out", mout) == 1
    assert "not flat" in capsys.readouterr().err
    assert not (mout / "multiplier.txt").exists()


def _summary_worst(capsys, out, suite, *flags):
    """The report records and the (key, value) the summary line names."""
    capsys.readouterr()
    assert run("verify", suite, *flags, "--out", out) == 0
    line = capsys.readouterr().out.strip()
    key, value = line.split(" worst=")[1].split("=")
    report = dict(row.split("=", 1) for row in
                  (out / f"verify_{suite}.txt").read_text().splitlines())
    return report, key, float(value)


def test_verify_summary_names_a_defect_not_a_margin(tmp_path, capsys):
    """The multipliers suite names its largest residual or discrepancy; the
    regularity suite its smallest sigma_min, a margin, not the largest."""
    report, key, value = _summary_worst(capsys, tmp_path, "multipliers",
                                        "--width", 4, "--height", 4)
    defects = [k for k in report if k.startswith(("system_residual_",
                                                  "sweep_consistency_"))]
    assert len(defects) == 4 and key in defects
    assert float(report[key]) == max(float(report[k]) for k in defects)
    assert value == pytest.approx(float(report[key]), rel=1e-3)
    report, key, value = _summary_worst(capsys, tmp_path, "regularity")
    free = ("sigma_min_3x3", "sigma_min_4x4")
    assert key in free
    assert float(report[key]) == min(float(report[k]) for k in free)
    assert value == pytest.approx(float(report[key]), rel=1e-3)


def test_verify_multipliers_exits_one_on_a_sweep_conflict(tmp_path, monkeypatch,
                                                          capsys):
    """The suite's sweep-consistency gate is the recovery's: a discrepancy
    beyond the recovery's tolerance raises, and the suite exits 1 with a
    report that names the suite, its seed and the error."""
    from groupvar import reduction
    exact = reduction.recover_multipliers
    monkeypatch.setattr(reduction, "recover_multipliers",
                        lambda *args: exact(*args, cons_tol=1e-18))
    assert run("verify", "multipliers", "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert "conflict" in err
    report = (tmp_path / "verify_multipliers.txt").read_text().splitlines()
    assert report == ["suite=multipliers", "seed=42", "passed=False",
                      f"error={err.strip().removeprefix('groupvar: ')}"]


def test_large_seed_recovers_within_the_scaled_bound(tmp_path, capsys):
    """The sweep's round-off grows with the multiplier, and so does its
    consistency bound: the seed 1e6 on the 4x4 default solve leaves path
    discrepancies up to 3.8e-9, a few parts in 1e15 of the multiplier, and
    recovers; against an absolute 1e-9 they would read as a conflict."""
    solve = tmp_path / "solve"
    assert run("solve", "--width", 4, "--height", 4, "--out", solve) == 0
    out = tmp_path / "recover"
    assert run("recover-multipliers", "--section", solve / "reduced_section.txt",
               "--seed-scale", 1e6, "--seed", 1, "--out", out) == 0
    assert "conflict" not in capsys.readouterr().err
    report = dict(line.split("=", 1)
                  for line in (out / "recovery_report.txt").read_text().splitlines())
    assert 1e-9 < float(report["max_sweep_discrepancy"]) <= 1e-14 * 1e6


def test_report_pretty_print(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text("alpha=1\nlong_key=2.5\n")
    assert run("report", path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("alpha")
    assert "2.5" in lines[1]


def test_report_splits_lines_as_the_loaders_do(tmp_path, capsys):
    """``report`` ends a line at "\n" alone, as the field loaders do: a form
    feed inside a line is part of its key, not a line break."""
    path = tmp_path / "report.txt"
    path.write_text("a=1\nb\x0c=2\n")
    capsys.readouterr()
    assert run("report", path) == 0
    assert capsys.readouterr().out == "a   1\nb\x0c  2\n"


def test_report_reads_through_the_loaders_utf8_rule(tmp_path, capsys):
    """``report`` reads its file as the field loaders do: one that is not
    UTF-8 exits 2 naming itself and its first byte that is not, and a file
    that cannot be read exits 2 as well, each with one line."""
    path = tmp_path / "report.txt"
    path.write_bytes(b"\xffkey=1\n")
    capsys.readouterr()
    assert run("report", path) == 2
    assert capsys.readouterr().err == f"groupvar: {path}: byte 0 is not UTF-8 text\n"
    assert run("report", tmp_path / "nope.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith("groupvar: ") and err.count("\n") == 1


@pytest.mark.parametrize("width,height", [(1, 3), (3, 1)])
def test_recover_multipliers_without_interior_exits_one(tmp_path, capsys,
                                                        width, height):
    out = tmp_path / "solve"
    assert run("solve", "--width", width, "--height", height, "--out", out) == 0
    mout = tmp_path / "mult"
    assert run("recover-multipliers", "--section", out / "reduced_section.txt",
               "--out", mout) == 1
    assert "window has no interior vertices" in capsys.readouterr().err
    assert not (mout / "multiplier.txt").exists()


def _saved_section(path, width, height, seed, tamper):
    """The reduced section of a random SO(3) vertex field, saved at ``path``:
    flat but not critical, and not flat either once ``tamper`` turns its u at
    vertex (1, 1) by about 1e-5."""
    grid = triangulated_grid(width, height)
    rng = np.random.default_rng(seed)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, 3, rng)).copy()
    if tamper:
        vid = grid.vertex_id(1, 1)
        y[vid, 0] = y[vid, 0] @ scipy.linalg.expm(1e-5 * random_skew(3, rng))
    ser.save_reduced_section(path, grid, y)
    return path


# argv, the section it reads (width, height, seed, tamper) or None, and the
# message of its one stderr line
EXIT_ONE = {
    "solve-budget": (("solve", "--scale", 3.0, "--seed", 2, "--max-iterations", 3),
                     None, r"gradient norm \S+ > 1\.0e-10 after 3 iterations"),
    "reconstruct-tampered": (("reconstruct",), (3, 3, 1, True),
                             r"holonomy defect \S+ at plaquette \(\d+, \d+\)"),
    "recover-noncritical": (("recover-multipliers",), (3, 3, 2, False),
                            r"reduced residual \S+ > 1\.0e-08 at \(\d+, \d+\)"),
    "recover-1x3": (("recover-multipliers",), (1, 3, 0, False),
                    "window has no interior vertices"),
    "verify-budget": (("verify", "multisymplectic", "--scale", 3.0,
                       "--max-iterations", 1),
                      None, r"gradient norm \S+ > 1\.0e-11 after 1 iterations"),
}


@pytest.mark.parametrize("case", EXIT_ONE)
def test_an_exit_one_prints_one_groupvar_line(tmp_path, capsys, case):
    """A failed check, recovery or solve exits 1 with exactly one stderr
    line, ``groupvar: <message>``, printed by ``main`` alone; reconstruct and
    recover-multipliers then write nothing.  A solve out of its budget, which
    counts Newton steps, writes the start and at most one history row per
    step, and a report that ends with the message."""
    argv, section, message = EXIT_ONE[case]
    if section:
        argv += ("--section", _saved_section(tmp_path / "section.txt", *section))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"groupvar: {message}\n", err)
    if section:
        assert not out.exists()
    if case == "solve-budget":
        rows = (out / "history.csv").read_text().splitlines()[1:]
        assert 1 <= len(rows) <= 4
        report = (out / "solve_report.txt").read_text().splitlines()
        assert report[-1] == "error=" + err.strip().removeprefix("groupvar: ")


ERRORS = [value for value in vars(errors).values() if isinstance(value, type)
          and issubclass(value, Exception) and value.__module__ == errors.__name__]


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: error.__name__)
def test_the_error_type_decides_the_exit_code(monkeypatch, capsys, error):
    """Each error type of the package is exactly one of ``Failure`` (exit 1)
    and ``ValueError`` (exit 2), and ``main`` maps a raise of it to that
    code with one stderr line."""
    failure = issubclass(error, errors.Failure)
    assert failure != issubclass(error, ValueError)

    def read_lines(path):
        raise error.__new__(error, f"{error.__name__} at {path}")

    monkeypatch.setattr(ser, "read_lines", read_lines)
    capsys.readouterr()
    assert run("report", "r.txt") == (1 if failure else 2)
    assert capsys.readouterr().err == f"groupvar: {error.__name__} at r.txt\n"


@pytest.mark.parametrize("width,height", [(2, 2), (2, 5), (5, 2)])
def test_thin_windows_solve_recover_reconstruct(tmp_path, width, height):
    out = tmp_path / "solve"
    assert run("solve", "--width", width, "--height", height, "--scale", 0.5,
               "--out", out) == 0
    section, field = out / "reduced_section.txt", out / "unreduced_field.txt"
    assert run("recover-multipliers", "--section", section,
               "--out", tmp_path / "mult") == 0
    _, lam = ser.load_multiplier(tmp_path / "mult" / "multiplier.txt")
    assert len(lam) == width * height
    assert run("reconstruct", "--section", section, "--seed-file", field,
               "--out", tmp_path / "rec") == 0
    _, solved = ser.load_unreduced_field(field)
    _, rebuilt = ser.load_unreduced_field(tmp_path / "rec" / "unreduced_field.txt")
    assert np.linalg.norm(rebuilt - solved, axis=(-2, -1)).max() <= 1e-12


@pytest.fixture(scope="module")
def solved_section(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve4x4")
    assert run("solve", "--width", 4, "--height", 4, "--out", out) == 0
    return (out / "reduced_section.txt").read_text().splitlines()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", -1.0, -1e-300])
@pytest.mark.parametrize("command, flag", [("solve", "--scale"),
                                           ("verify", "--scale"),
                                           ("recover-multipliers", "--seed-scale")])
def test_scale_flags_must_be_finite_and_nonnegative(tmp_path, capsys, solved_section,
                                                    command, flag, value):
    """A NaN, infinite or negative scale is a usage error (exit 2), raised
    before any output is written.  The message names the setting
    (``scale``) or the flag ``--seed-scale``."""
    section = tmp_path / "section.txt"
    section.write_text("\n".join(solved_section) + "\n")
    argv = [command, f"{flag}={value}", "--out", tmp_path / "out"]
    if command == "verify":
        argv.insert(1, "multipliers")
    if command == "recover-multipliers":
        argv += ["--section", section]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    name = "scale" if flag == "--scale" else flag
    assert err.startswith(f"groupvar: {name} must be finite and nonnegative")
    assert not (tmp_path / "out").exists()


def test_a_scale_that_overflows_the_boundary_exits_two(tmp_path, capsys):
    """A finite scale so large that the boundary's exponentials overflow is
    an input error (exit 2) with one stderr line naming the scale, and no
    numpy warning; nothing is written."""
    out = tmp_path / "out"
    assert run("solve", "--width", 3, "--height", 3, "--scale", 1e300, "--out", out) == 2
    assert capsys.readouterr().err == (
        "groupvar: scale 1e+300 draws a boundary matrix that has non-finite entries\n")
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e300, 1e308])
def test_a_seed_that_overflows_the_sweep_exits_two(tmp_path, capsys, solved_section,
                                                   scale):
    """A finite --seed-scale so large that the multiplier sweep overflows is
    an input error (exit 2) with one stderr line naming the seed's size, and
    no numpy warning, which tier-1 would raise as an error; nothing is
    written."""
    section = tmp_path / "section.txt"
    section.write_text("\n".join(solved_section) + "\n")
    out = tmp_path / "out"
    assert run("recover-multipliers", "--section", section, "--seed-scale", scale,
               "--seed", 1, "--out", out) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"groupvar: seed entries up to \S+ overflow the multiplier "
                        r"sweep\n", err)
    assert not out.exists()


def test_seed_without_seed_scale_is_a_usage_error(tmp_path, capsys, solved_section):
    """With a zero --seed-scale no seed is drawn, so a --seed flag exits 2,
    naming both flags, and nothing is written."""
    section = tmp_path / "section.txt"
    section.write_text("\n".join(solved_section) + "\n")
    for flags in (("--seed", 7), ("--seed", 7, "--seed-scale", 0.0)):
        assert run("recover-multipliers", "--section", section, *flags,
                   "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == ("groupvar: --seed draws the corner "
                                           "multiplier only with a positive --seed-scale\n")
        assert not (tmp_path / "out").exists()
    assert run("recover-multipliers", "--section", section, "--seed", 7,
               "--seed-scale", 0.3, "--out", tmp_path / "out") == 0


def test_zero_scales_are_accepted(tmp_path, solved_section):
    section = tmp_path / "section.txt"
    section.write_text("\n".join(solved_section) + "\n")
    assert run("recover-multipliers", "--section", section, "--seed-scale", 0.0,
               "--out", tmp_path / "out") == 0
    assert run("solve", "--width", 3, "--height", 3, "--scale", 0.0,
               "--out", tmp_path / "solve") == 0


def _malformed(lines, defect):
    """A section file with one defect in the record of vertex (1, 1)."""
    k = next(i for i, line in enumerate(lines) if line.startswith("v 1 1 "))
    if defect == "missing":
        return lines[:k] + lines[k + 1:]
    if defect == "duplicate":
        return lines[:k + 1] + lines[k:]
    words = lines[k].split()
    words[3] = "nan"
    return lines[:k] + [" ".join(words)] + lines[k + 1:]


@pytest.mark.parametrize("defect", ["missing", "nan", "duplicate"])
@pytest.mark.parametrize("command", ["recover-multipliers", "reconstruct"])
def test_malformed_section_file_exits_two(tmp_path, capsys, solved_section,
                                          command, defect):
    section = tmp_path / "section.txt"
    section.write_text("\n".join(_malformed(solved_section, defect)) + "\n")
    out = tmp_path / "out"
    assert run(command, "--section", section, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("groupvar: ") and "Traceback" not in err
    assert not any(out.glob("*.txt"))


def test_solve_with_boundary_file(tmp_path, capsys):
    """A boundary file is a saved vertex field with a record for every
    vertex; the solve takes its frontier and far corner.  Re-solving from a
    solved field writes the same field and reduced section, byte for byte,
    because the blend restarts the same solve."""
    for n in (2, 3, 4):
        first, again = tmp_path / f"first{n}", tmp_path / f"again{n}"
        window = ("--n", n, "--width", 5, "--height", 4)
        assert run("solve", *window, "--scale", 0.3, "--out", first) == 0
        assert run("solve", *window, "--boundary", first / "unreduced_field.txt",
                   "--out", again) == 0
        for name in ("unreduced_field.txt", "reduced_section.txt"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    first = tmp_path / "first"
    assert run("solve", "--width", 4, "--height", 4, "--out", first) == 0
    field = first / "unreduced_field.txt"
    out = tmp_path / "again"
    assert run("solve", "--width", 4, "--height", 4, "--boundary", field,
               "--out", out) == 0
    grid, given = ser.load_unreduced_field(field)
    _, solved = ser.load_unreduced_field(out / "unreduced_field.txt")
    frontier = sorted(classify_vertices(grid.full_faceset()).frontier)
    assert np.array_equal(solved[frontier], given[frontier])

    lines = field.read_text().splitlines()
    interior = [f"v {i} {j} " for i in (1, 2, 3) for j in (1, 2, 3)]
    partial = tmp_path / "frontier_only.txt"
    partial.write_text("\n".join(line for line in lines
                                 if not line.startswith(tuple(interior))) + "\n")
    capsys.readouterr()
    assert run("solve", "--width", 4, "--height", 4, "--boundary", partial,
               "--out", tmp_path / "partial") == 2
    # file line 13 holds id 6, v 1 1, in the writer's layout; the
    # frontier-only file holds the next frontier record, v 4 1, there
    assert capsys.readouterr().err == \
        "groupvar: line 13 starts 'v 4 1', expected 'v 1 1'\n"


def _swapped(lines, a, b):
    lines = list(lines)
    lines[a], lines[b] = lines[b], lines[a]
    return lines


OTHER_LAYOUTS = {
    # layout: (the saved 2x2 field's lines made into it, message)
    "two records swapped": (lambda lines: _swapped(lines, 6, 7),
                            "line 7 starts 'v 1 0', expected 'v 0 0'"),
    "header reordered": (lambda lines: _swapped(lines, 1, 2),
                         "field file header missing kind"),
    # one line too many, named where it was inserted
    "blank body line": (lambda lines: lines[:7] + [""] + lines[7:],
                        "line 8 starts '', expected 'v 1 0'"),
    "unknown key": (lambda lines: lines[:2] + ["note=hand-made"] + lines[2:],
                    "field file header missing n"),
    "spaces around =": (lambda lines: [lines[0], "kind = unreduced_field", *lines[2:]],
                        "field file header missing kind"),
}


def _boundary_exit_two(tmp_path, capsys, path):
    """The stderr of solving the 2x2 window from the boundary file at
    ``path``, which exits 2 and writes nothing."""
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("solve", "--width", 2, "--height", 2, "--boundary", path,
               "--out", out) == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("layout", list(OTHER_LAYOUTS))
def test_field_files_in_another_layout_exit_two(tmp_path, capsys, layout):
    """A boundary file in any layout but the writer's exits 2, naming the
    header key or the file line that differs, and writes nothing."""
    path = _field_file(tmp_path, 2, 0.4)
    change, message = OTHER_LAYOUTS[layout]
    path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")
    assert _boundary_exit_two(tmp_path, capsys, path) == f"groupvar: {message}\n"


@pytest.mark.parametrize("defect", ["cut", "binary"])
def test_cut_and_binary_field_files_exit_two(tmp_path, capsys, defect):
    """A field file cut inside its first record names that record's line,
    and a file that is not UTF-8 names itself and its first byte that is
    not; each exits 2 and writes nothing."""
    path = _field_file(tmp_path, 2, 0.4)
    if defect == "cut":
        # the 73-byte header, then 27 bytes of line 7: its id and two numbers
        path.write_bytes(path.read_bytes()[:100])
        message = "line 7 has 2 numbers, expected 9"
    else:
        path.write_bytes(b"\xff\xfe\x00")
        message = f"{path}: byte 0 is not UTF-8 text"
    assert _boundary_exit_two(tmp_path, capsys, path) == f"groupvar: {message}\n"


def _entry_changed(lines, line, entry, word):
    """The file lines with entry ``entry`` (0-based, after ``tag i j``) of
    file line ``line`` replaced by ``word(old)``."""
    words = lines[line - 1].split()
    words[3 + entry] = word(words[3 + entry])
    return lines[:line - 1] + [" ".join(words)] + lines[line:]


OFF_GROUP = (r"holds a matrix that is \d\.\d{3}e-07 from orthogonal, beyond "
             r"tolerance 1\.0e-09")
# a finite entry whose square overflows: no numpy warning reaches stderr
OVERFLOW = r"holds a matrix that is inf from orthogonal, beyond tolerance 1\.0e-09"
ENTRY_DEFECTS = {
    # line 8 holds id 1, v 1 0; line 9 holds id 2, v 2 0
    "not a number": (8, 0, lambda old: "x", "line 8 holds 'x', which is not a number"),
    "infinite": (8, 4, lambda old: "-inf", "line 8 has non-finite entries"),
    "off the group": (9, 0, lambda old: repr(float(old) + 2e-7), "line 9 " + OFF_GROUP),
    "overflowing": (8, 0, lambda old: "1e200", "line 8 " + OVERFLOW),
}


@pytest.mark.parametrize("defect", list(ENTRY_DEFECTS))
def test_a_bad_boundary_entry_names_its_line(tmp_path, capsys, defect):
    """An entry that is not a number, is not finite, moves its matrix off
    the group or overflows its group check exits 2 naming the file line,
    not numpy's wording or the matrix's place in a stack, and writes
    nothing."""
    path = _field_file(tmp_path, 2, 0.4)
    line, entry, word, message = ENTRY_DEFECTS[defect]
    path.write_text("\n".join(_entry_changed(path.read_text().splitlines(), line,
                                             entry, word)) + "\n")
    assert re.fullmatch(f"groupvar: {message}\n",
                        _boundary_exit_two(tmp_path, capsys, path))


def test_a_section_block_off_the_group_names_its_line(tmp_path, capsys,
                                                      solved_section):
    """A section record holds two matrices; one entry of the second of line 9
    moved by 2e-7, or set to 1e200, is named by that line."""
    section = tmp_path / "section.txt"
    out = tmp_path / "out"
    for word, message in ((lambda old: repr(float(old) + 2e-7), OFF_GROUP),
                          (lambda old: "1e200", OVERFLOW)):
        section.write_text("\n".join(_entry_changed(solved_section, 9, 9 + 4, word))
                           + "\n")
        assert run("recover-multipliers", "--section", section, "--out", out) == 2
        assert re.fullmatch(f"groupvar: line 9 {message}\n", capsys.readouterr().err)
        assert not out.exists()


def test_a_section_with_a_far_corner_record_exits_two(tmp_path, capsys,
                                                      solved_section):
    """The writer leaves out a section's far corner, which adheres to no
    face, so a far-corner record is a line past the window's V - 1 records:
    the 4x4 window's 24 records end at line 30."""
    identity = " ".join(repr(float(x)) for x in np.eye(3).ravel())
    section = tmp_path / "section.txt"
    section.write_text("\n".join([*solved_section,
                                  f"v 4 4 {identity} {identity}"]) + "\n")
    out = tmp_path / "out"
    for command in ("recover-multipliers", "reconstruct"):
        assert run(command, "--section", section, "--out", out) == 2
        assert capsys.readouterr().err == \
            "groupvar: line 31 is past the window's 24 records\n"
        assert not out.exists()


def _solved_files(path, out):
    assert run("solve", "--width", 2, "--height", 2, "--boundary", path,
               "--out", out) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("separator", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                         ids=lambda c: f"U+{ord(c):04X}")
def test_a_line_separator_other_than_newline_ends_no_boundary_line(tmp_path, separator):
    """Lines end at "\\n" alone, as the writer ends them: a separator that
    str.splitlines would also break at, appended to line 8 of a 2x2 identity
    field, is whitespace inside that record, so the file solves as the
    writer's file does."""
    path = tmp_path / "field.txt"
    assert run("solve", "--boundary", "identity", "--width", 2, "--height", 2,
               "--out", tmp_path / "base") == 0
    lines = (tmp_path / "base" / "unreduced_field.txt").read_text().split("\n")
    path.write_text("\n".join(lines))
    written = _solved_files(path, tmp_path / "written")
    lines[7] += separator
    path.write_text("\n".join(lines))
    assert _solved_files(path, tmp_path / "separated") == written


def test_a_wrong_kind_is_echoed_escaped(tmp_path, capsys):
    """A kind holding a control character exits 2 with the value quoted and
    escaped, so the terminal shows the character, and writes nothing."""
    path = _field_file(tmp_path, 2, 0.4)
    lines = path.read_text().split("\n")
    lines[1] = "kind=unreduced_fi\x1beld"
    path.write_text("\n".join(lines))
    assert _boundary_exit_two(tmp_path, capsys, path) == (
        "groupvar: expected a unreduced_field file, found kind='unreduced_fi\\x1beld'\n")


HEADER_ONLY_DEFECTS = {
    # a 600x600 window with one record: reported missing from the records
    # alone, without a 600x600 grid or a seen-array of its size
    "wide window": (600, 3, "v 0 0 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0",
                    "groupvar: 361200 of 361201 records missing, the first at line 8"),
    # n = 100000 on a 1x1 window: the record length is checked before any
    # array of the header's size (10^10 entries per record) is requested
    "huge group": (1, 100000, "v 0 0 1.0 0.0 0.0 1.0",
                   "groupvar: line 7 has 4 numbers, expected 10000000000"),
    # a window whose vertex ids would not fit 64 bits, reported missing from
    # the records alone as well
    "huge window": (10 ** 10, 3, "v 0 0 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0",
                    "groupvar: 100000000020000000000 of 100000000020000000001 "
                    "records missing, the first at line 8"),
}


@pytest.mark.parametrize("defect", list(HEADER_ONLY_DEFECTS))
def test_boundary_file_body_is_checked_before_its_header_sizes(tmp_path, capsys,
                                                              monkeypatch, defect):
    """A header that promises more than the body holds exits 2 with the
    record message, and the loader never builds the header's window."""
    size, n, record, message = HEADER_ONLY_DEFECTS[defect]
    path = tmp_path / "field.txt"
    path.write_text("\n".join([ser.MAGIC, "kind=unreduced_field", f"n={n}",
                               "components=1", f"width={size}", f"height={size}",
                               record]) + "\n")

    def no_grid(width, height):
        raise AssertionError(f"built a {width}x{height} grid")

    monkeypatch.setattr(ser, "triangulated_grid", no_grid)
    capsys.readouterr()
    assert run("solve", "--boundary", path, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.strip() == message


def test_group_size_mismatch_exits_two(tmp_path, capsys):
    """A boundary file at another n than --n (default 3) is a usage error,
    for solve and for the solving verify suites, and so is a reconstruct
    seed file at another n than the section; each message names both
    sizes, and nothing is solved in the file's group."""
    window = ("--width", 4, "--height", 4)
    so4 = tmp_path / "so4"
    assert run("solve", "--n", 4, *window, "--out", so4) == 0
    field = so4 / "unreduced_field.txt"
    capsys.readouterr()
    for argv in (("solve", *window, "--boundary", field),
                 ("verify", "multipliers", *window, "--boundary", field)):
        out = tmp_path / argv[0]
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "groupvar: boundary file holds SO(4) values, --n is SO(3)\n"
        assert not (out / "solve_report.txt").exists()

    so3 = tmp_path / "so3"
    assert run("solve", *window, "--out", so3) == 0
    capsys.readouterr()
    assert run("reconstruct", "--section", so3 / "reduced_section.txt",
               "--seed-file", field, "--out", tmp_path / "rebuilt") == 2
    err = capsys.readouterr().err
    assert err == "groupvar: seed file holds SO(4) values, the section is SO(3)\n"


def test_seed_file_from_another_window_exits_two(tmp_path, capsys):
    """A reconstruct seed file whose window is not the section's, in both
    dimensions or in one, is a usage error, as a boundary file's is for
    solve, raised before anything is written."""
    rng = np.random.default_rng(0)
    seeds, section = tmp_path / "field.txt", tmp_path / "section.txt"
    grid = triangulated_grid(6, 4)
    ser.save_reduced_section(
        section, grid, reduce_field(grid, sampling.random_unreduced_field(grid, 3, rng)))
    out = tmp_path / "out"
    for width, height in ((1, 1), (6, 3), (5, 4)):
        small = triangulated_grid(width, height)
        ser.save_unreduced_field(seeds, small,
                                 sampling.random_unreduced_field(small, 3, rng))
        assert run("reconstruct", "--section", section, "--seed-file", seeds,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "groupvar: seed file window does not match the section\n"
        assert not out.exists()


@pytest.mark.parametrize("command, kind, n", [
    ("solve", "unreduced_field", 0),
    ("recover-multipliers", "reduced_section", 1),
    ("recover-multipliers", "reduced_section", -1),
])
def test_field_header_group_size_below_two_exits_two(tmp_path, capsys, command,
                                                     kind, n):
    """A header n below 2 is named by its key, as --n is, before any record
    is read."""
    path = tmp_path / "field.txt"
    path.write_text("\n".join([ser.MAGIC, f"kind={kind}", f"n={n}",
                               f"components={1 if kind == 'unreduced_field' else 2}",
                               "width=1", "height=1", "v 0 0", "v 1 0", "v 0 1",
                               "v 1 1"]) + "\n")
    argv = ("--boundary", path, "--width", 1, "--height", 1) if command == "solve" \
        else ("--section", path)
    capsys.readouterr()
    assert run(command, *argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == \
        f"groupvar: field file header n={n}: group size must be at least 2\n"


def test_solve_csv_files_are_golden(tmp_path):
    """history.csv of one small solve, byte for byte: comma-separated,
    floats by repr, CRLF line ends."""
    out = tmp_path / "run"
    assert run("solve", "--boundary", "identity", "--width", 3, "--height", 2,
               "--out", out) == 0
    assert (out / "history.csv").read_bytes() == (
        b"iteration,phase,objective,action,max_gradient,step\r\n"
        b"0,start,0.0,36.0,0.0,0.0\r\n")


def test_write_csv_matches_the_csv_module(tmp_path):
    """The writer gives the bytes of csv.writer's default dialect on the
    kinds of value the reports hold, a numpy float as its Python float's
    repr; so does a report."""
    import csv
    rows = [(1, "newton", 0.1, np.float64(-2.5e-300), float("nan"), None),
            (2, "start", 1e16, 3, float("inf"), np.int64(7))]
    header = ["iteration", "phase", "objective", "action", "max_gradient", "step"]
    ser.write_csv(tmp_path / "got.csv", header, iter(rows))
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerow(["1", "newton", "0.1", "-2.5e-300", "nan", "None"])
        writer.writerow(["2", "start", "1e+16", "3", "inf", "7"])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    ser.write_report(tmp_path / "report.txt", {"k": np.float64(0.5)})
    assert (tmp_path / "report.txt").read_text() == "k=0.5\n"
