import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from groupvar import cli, core, sampling, serialization as ser
from groupvar.cli import main
from groupvar.complexes import classify_vertices, triangulated_grid
from groupvar.harmonic import TraceLagrangian
from groupvar.liegroup import block_norms, max_norm, random_skew
from groupvar.reduction import PlaquetteConstraint, reduce_field
import scipy.linalg


def run(*argv):
    return main([str(a) for a in argv])


def test_solve_writes_files_and_exits_zero(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--width", 4, "--height", 4, "--out", out) == 0
    for name in ("solve_report.txt", "unreduced_field.txt",
                 "reduced_section.txt", "residuals.csv", "history.csv"):
        assert (out / name).exists()
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
    for name in ("solve_report.txt", "unreduced_field.txt",
                 "reduced_section.txt", "residuals.csv", "history.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_identity_boundary(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--boundary", "identity", "--width", 3, "--height", 3,
               "--out", out) == 0
    report = dict(line.split("=", 1)
                  for line in (out / "solve_report.txt").read_text().splitlines())
    assert report["iterations"] == "0"
    assert float(report["max_ep_residual"]) == 0.0


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"width": 3, "height": 3, "seed": 7}))
    out = tmp_path / "run"
    assert run("solve", "--config", cfg, "--seed", 9, "--out", out) == 0
    report = dict(line.split("=", 1)
                  for line in (out / "solve_report.txt").read_text().splitlines())
    assert report["width"] == "3"
    assert report["seed"] == "9"


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    assert run("solve", "--config", cfg) == 2
    cfg.write_text(json.dumps({"unknown_key": 1}))
    assert run("solve", "--config", cfg) == 2
    assert run("solve", "--n", 1) == 2
    assert run("solve", "--width", 0) == 2
    # each bad value goes to a command that reads the setting, and its own
    # message shows that the check, not a later step, rejected it
    for argv, bad, message in (
            (("solve",), {"n": "3"}, "setting n must be of type int"),
            (("verify", "split"), {"instances": 2.5},
             "setting instances must be of type int"),
            (("solve",), {"width": True}, "setting width must be of type int"),
            (("solve",), {"g_tol": "1e-10"}, "setting g_tol must be of type float"),
            (("reconstruct", "--section", tmp_path / "none.txt"), {"adm_tol": 0.0},
             "tolerances"),
            (("verify", "regularity"), {"rank_tol": -1e-8}, "tolerances"),
            (("solve",), {"max_iterations": -1}, "max_iterations must be"),
            (("solve",), {"scale": float("nan")}, "scale must be finite")):
        cfg.write_text(json.dumps(bad))
        capsys.readouterr()
        assert run(*argv, "--config", cfg, "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err.startswith(f"groupvar: {message}")
    for argv in (("split", "--instances", 0), ("split", "--instances", -3),
                 ("multipliers", "--cons-tol", -1)):
        assert run("verify", *argv, "--out", tmp_path / "bad") == 2
    assert not (tmp_path / "bad").exists()
    cfg.write_text(json.dumps({"out": 3}))
    assert run("solve", "--config", cfg) == 2


@pytest.mark.parametrize("argv", [("solve",), ("verify", "split"),
                                  ("recover-multipliers", "--section", "none.txt")])
def test_negative_seed_is_a_setting_error(tmp_path, capsys, argv):
    """A negative seed, from a flag or a config key, exits 2 with a message
    that names the setting, and nothing is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -2}))
    for flags, value in ((("--seed", -1), -1), (("--config", cfg), -2)):
        assert run(*argv, *flags, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == \
            f"groupvar: seed must be nonnegative, got {value}\n"
    assert not (tmp_path / "out").exists()


def test_input_errors_write_nothing(tmp_path, capsys):
    """A missing section or a malformed boundary file exits 2 before the
    output directory is made."""
    boundary = tmp_path / "boundary.txt"
    boundary.write_text("not a field file\n")
    for argv in (("recover-multipliers", "--section", tmp_path / "missing.txt"),
                 ("reconstruct", "--section", tmp_path / "missing.txt"),
                 ("solve", "--boundary", boundary),
                 ("verify", "noether", "--boundary", boundary)):
        assert run(*argv, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("groupvar: ")
        assert not (tmp_path / "out").exists()


# The settings each subcommand or verify suite reads: its flags (all but the
# config-only adm_tol and rank_tol, plus --config) and its config keys.
READS = {
    "solve": "n width height boundary seed scale g_tol ep_tol max_iterations out",
    **dict.fromkeys(("verify split", "verify cartan", "verify flatness"),
                    "n seed instances out"),
    **dict.fromkeys(("verify noether", "verify multisymplectic", "verify elimination"),
                    "n width height boundary seed scale max_iterations out"),
    # takes instances, which it does not read, for the benchmark's warm-up
    "verify multipliers": "n width height boundary seed scale cons_tol "
                          "max_iterations instances out",
    "verify regularity": "n seed rank_tol out",
    "reconstruct": "adm_tol out",
    "recover-multipliers": "seed ep_tol cons_tol adm_tol out",
}
CONFIG_ONLY = ("adm_tol", "rank_tol")
# A valid value of each setting, and the flags every subcommand took before
# each had its own.
VALUES = {"n": 5, "width": 4, "height": 4, "boundary": "random", "seed": 5,
          "scale": 0.0, "g_tol": 1e-12, "ep_tol": 0.1, "cons_tol": 1e-9,
          "adm_tol": 1e-9, "rank_tol": 1e-8, "max_iterations": 7, "instances": 2,
          "out": "."}
SHARED_FLAGS = [key for key in VALUES if key not in CONFIG_ONLY]
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


UNREAD_FLAGS = _unread(SHARED_FLAGS + ["break_symmetry"])
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
           "recover-multipliers": {"section", "seed_scale"}}
    leaves = _leaf_parsers(cli.build_parser())
    assert set(leaves) == set(READS) | {"report"}
    for command, reads in READS.items():
        dests = {a.dest for a in leaves[command]._actions} - {"help"}
        flags = set(reads.split()) - set(CONFIG_ONLY)
        assert dests == flags | {"config"} | own.get(command, set())
        assert set(reads.split()) == {k for k, row in cli.SETTINGS.items()
                                      if command in row[3]}


@pytest.mark.parametrize("command, key", list(UNREAD_FLAGS))
def test_unread_flags_exit_two(tmp_path, monkeypatch, command, key):
    """A flag the subcommand or suite does not read is a usage error:
    argparse exits 2 and nothing is written; no flag is taken as an
    abbreviation of another."""
    monkeypatch.chdir(tmp_path)
    flag = ["--" + key.replace("_", "-"), *([VALUES[key]] if key in VALUES else [])]
    for reader in UNREAD_FLAGS[command, key]:
        with pytest.raises(SystemExit) as exc:
            run(*PREFIX[reader], *flag, "--out", "out")
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key", list(UNREAD_KEYS))
def test_unread_config_keys_exit_two(tmp_path, capsys, command, key):
    """A config key the subcommand or suite does not read exits 2, named as
    unknown, before anything is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: VALUES[key]}))
    for reader in UNREAD_KEYS[command, key]:
        argv = [a if a != "section.txt" else tmp_path / a for a in PREFIX[reader]]
        assert run(*argv, "--config", cfg, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"groupvar: unknown config keys: ['{key}']\n"
    assert list(tmp_path.iterdir()) == [cfg]


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


def test_verify_multipliers_passes_its_cons_tol_to_the_recovery(tmp_path,
                                                                monkeypatch):
    from groupvar import reduction
    exact, calls = reduction.recover_multipliers, []

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return exact(*args, **kwargs)

    monkeypatch.setattr(reduction, "recover_multipliers", recorded)
    assert run("verify", "multipliers", "--width", 3, "--height", 3,
               "--cons-tol", 1e-6, "--out", tmp_path) == 0
    assert [call.get("cons_tol") for call in calls] == [1e-6, 1e-6]


def test_failed_solve_writes_history(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--width", 3, "--height", 3, "--g-tol", 1e-300,
               "--out", out) == 1
    report = (out / "solve_report.txt").read_text()
    assert "converged=False" in report
    rows = (out / "history.csv").read_text().splitlines()
    assert rows[0] == "iteration,phase,objective,action,max_gradient,step"
    assert len(rows) >= 2


def test_iteration_budget_covers_newton_steps(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("solve", "--width", 6, "--height", 6, "--scale", 3.0, "--seed", 2,
               "--max-iterations", 3, "--out", out) == 1
    rows = (out / "history.csv").read_text().splitlines()[1:]
    assert 1 <= len(rows) <= 4
    assert "after 3 iterations" in capsys.readouterr().err
    assert "after 3 iterations" in (out / "solve_report.txt").read_text()


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


def test_verify_noether_broken_symmetry_fails(tmp_path):
    assert run("verify", "noether", "--break-symmetry", "--width", 4,
               "--height", 4, "--out", tmp_path) == 1


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


def per_instance_split(cfg, rng):
    """The split suite as it was, one instance per call: the oracle of the
    blocked suite."""
    n = cfg["n"]
    grid = triangulated_grid(3, 3)
    lagrangian, constraint = TraceLagrangian(), PlaquetteConstraint()
    faceset = grid.full_faceset()
    defects = []
    for _ in range(cfg["instances"]):
        y = sampling.random_section(grid, n, rng)
        lam = sampling.random_multiplier(grid, n, rng)
        dy = sampling.random_variation(grid, n, rng)
        (lhs,), (rhs,) = core.variational_split(
            lagrangian, constraint, y[None], lam[None],
            dy[None], faceset)
        defects.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    worst = max_norm(np.array(defects))
    return worst <= 1e-12, {"checks": cfg["instances"],
                            "worst_split_defect": worst, "tolerance": 1e-12}


def per_instance_cartan(cfg, rng):
    """The cartan suite as it was, one whole random section per instance:
    the oracle of the suite's jet draws."""
    n = cfg["n"]
    grid = triangulated_grid(3, 3)
    constraint = PlaquetteConstraint()
    faces = grid.faces
    jets = np.array([
        core.jet_at(sampling.random_section(grid, n, rng), grid,
                    faces[k % len(faces)])
        for k in range(cfg["instances"])])
    defects = []
    for slot in range(3):
        analytic = constraint.cartan_form(grid, jets, slot)
        fd = core.ConstraintMap.cartan_form(constraint, grid, jets, slot)
        defects.append(block_norms(analytic - fd) / (1.0 + block_norms(analytic)))
    worst = max_norm(*defects)
    return worst <= 1e-6, {"checks": cfg["instances"] * 3,
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
    """One uniform draw per block of 28 instances gives, bit for bit and
    across the block edge, the log blocks of instance k's jet at face k mod
    F that random_variation(grid, n, rng, 0.5) draws instance after
    instance, and leaves the generator in the same state."""
    grid = triangulated_grid(3, 3)
    adherence = grid.adherence_array
    rng, oracle = np.random.default_rng(n), np.random.default_rng(n)
    logs = cli._cartan_logs(grid, n, rng, 29)
    assert logs.shape == (29, 3, 2, n, n)
    for k in range(29):
        want = sampling.random_variation(grid, n, oracle, 0.5)
        assert logs[k].tobytes() == want[adherence[k % len(adherence)]].tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("instances", [1, 28, 29, 100])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_blocked_suites_match_the_per_instance_loops(n, instances):
    """Same draws, same worst defect bit for bit, on both sides of the
    28-instance block edge."""
    cfg = {"n": n, "instances": instances}
    for suite, oracle in ((cli._suite_split, per_instance_split),
                          (cli._suite_cartan, per_instance_cartan)):
        rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
        got, want = suite(cfg, rng), oracle(cfg, oracle_rng)
        assert repr(got) == repr(want)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_loads_of_one_window_share_the_grid(tmp_path):
    out = tmp_path / "solve"
    assert run("solve", "--width", 4, "--height", 3, "--out", out) == 0
    grid, _ = ser.load_unreduced_field(out / "unreduced_field.txt")
    again, _ = ser.load_reduced_section(out / "reduced_section.txt")
    assert grid is again is triangulated_grid(4, 3)
    assert not grid.adherence_array.flags.writeable


def test_recover_multipliers_evaluates_partials_once(tmp_path, monkeypatch):
    """Recovery and its residual check share one stacked evaluation of the
    face Lagrangian partials."""
    from groupvar.harmonic import TraceLagrangian
    out = tmp_path / "solve"
    assert run("solve", "--width", 5, "--height", 4, "--out", out) == 0
    exact, calls = TraceLagrangian.vertex_differential, []

    def counted(self, complex, jets, slot):
        calls.append(len(jets))
        return exact(self, complex, jets, slot)

    monkeypatch.setattr(TraceLagrangian, "vertex_differential", counted)
    assert run("recover-multipliers", "--section", out / "reduced_section.txt",
               "--out", tmp_path / "mult") == 0
    assert calls == [20]


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


def test_reconstruct_tampered_exits_one(tmp_path, capsys):
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(1)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, 3, rng))
    vid = grid.vertex_id(1, 1)
    bump = scipy.linalg.expm(1e-5 * random_skew(3, rng))
    values = y.copy()
    values[vid, 0] = values[vid, 0] @ bump
    y = values
    section = tmp_path / "tampered.txt"
    ser.save_reduced_section(section, grid, y)
    assert run("reconstruct", "--section", section, "--out", tmp_path) == 1
    assert "plaquette" in capsys.readouterr().err


def test_reconstruct_missing_file_exits_two(tmp_path):
    assert run("reconstruct", "--section", tmp_path / "nope.txt") == 2


def test_recover_multipliers_cmd(tmp_path):
    out = tmp_path / "solve"
    assert run("solve", "--width", 4, "--height", 4, "--g-tol", 1e-11,
               "--out", out) == 0
    mout = tmp_path / "mult"
    assert run("recover-multipliers", "--section", out / "reduced_section.txt",
               "--out", mout) == 0
    report = dict(line.split("=", 1)
                  for line in (mout / "recovery_report.txt").read_text().splitlines())
    assert float(report["max_system_residual"]) <= 1e-10
    _, lam = ser.load_multiplier(mout / "multiplier.txt")
    assert len(lam) == 16


def test_recover_multipliers_rejects_noncritical(tmp_path):
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(2)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, 3, rng))
    section = tmp_path / "section.txt"
    ser.save_reduced_section(section, grid, y)
    assert run("recover-multipliers", "--section", section,
               "--out", tmp_path) == 1


def test_recover_multipliers_honours_adm_tol(tmp_path, capsys):
    """A flatness tolerance below round-off rejects a solved section in
    recovery as it does in reconstruction: exit 1, no multiplier file."""
    out = tmp_path / "solve"
    assert run("solve", "--width", 5, "--height", 4, "--out", out) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"adm_tol": 1e-30}))
    section = out / "reduced_section.txt"
    assert run("reconstruct", "--section", section, "--config", cfg,
               "--out", tmp_path / "rec") == 1
    mout = tmp_path / "mult"
    assert run("recover-multipliers", "--section", section, "--config", cfg,
               "--out", mout) == 1
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
    """The multipliers suite names its largest residual or discrepancy, not
    the multiplier distance; the regularity suite its smallest free
    sigma_min, not the largest."""
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


def test_report_pretty_print(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text("alpha=1\nlong_key=2.5\n")
    assert run("report", path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("alpha")
    assert "2.5" in lines[1]


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
    before any output is written.  The message names the setting, which a
    flag or a config key may give (``scale``), or the flag-only
    ``--seed-scale``."""
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
        window = ("--n", n, "--width", 5, "--height", 4, "--scale", 0.3)
        assert run("solve", *window, "--out", first) == 0
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
    frontier = sorted(classify_vertices(grid, grid.full_faceset()).frontier)
    assert np.array_equal(solved[frontier], given[frontier])

    lines = field.read_text().splitlines()
    interior = [f"v {i} {j} " for i in (1, 2, 3) for j in (1, 2, 3)]
    partial = tmp_path / "frontier_only.txt"
    partial.write_text("\n".join(line for line in lines
                                 if not line.startswith(tuple(interior))) + "\n")
    capsys.readouterr()
    assert run("solve", "--width", 4, "--height", 4, "--boundary", partial,
               "--out", tmp_path / "partial") == 2
    err = capsys.readouterr().err
    assert err.startswith("groupvar: ") and "records missing" in err
    assert "Traceback" not in err


HEADER_ONLY_DEFECTS = {
    # a 600x600 window with one record: reported missing from the records
    # alone, without a 600x600 grid or a seen-array of its size
    "wide window": (600, 3, "v 0 0 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0",
                    "groupvar: 361200 of 361201 records missing, the first with id 1"),
    # n = 100000 on a 1x1 window: the record length is checked before any
    # array of the header's size (10^10 entries per record) is requested
    "huge group": (1, 100000, "v 0 0 1.0 0.0 0.0 1.0",
                   "groupvar: record has 4 numbers, expected 10000000000"),
    # a window whose vertex ids would not fit 64 bits
    "huge window": (10 ** 10, 3, "v 0 0 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0",
                    "groupvar: a 10000000000x10000000000 window has more "
                    "vertices than 64-bit ids can address"),
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
    """residuals.csv and history.csv of one small solve, byte for byte:
    comma-separated, floats by repr, CRLF line ends."""
    out = tmp_path / "run"
    assert run("solve", "--boundary", "identity", "--width", 3, "--height", 2,
               "--out", out) == 0
    assert (out / "residuals.csv").read_bytes() == \
        b"i,j,ep_residual\r\n1,1,0.0\r\n2,1,0.0\r\n"
    assert (out / "history.csv").read_bytes() == (
        b"iteration,phase,objective,action,max_gradient,step\r\n"
        b"0,start,0.0,36.0,0.0,0.0\r\n")


def test_write_csv_matches_the_csv_module(tmp_path):
    """The writer gives the bytes of csv.writer's default dialect on the
    kinds of value the reports hold."""
    import csv
    rows = [(1, "newton", 0.1, np.float64(-2.5e-300), float("nan"), None),
            (2, "start", 1e16, 3, float("inf"), np.int64(7))]
    header = ["iteration", "phase", "objective", "action", "max_gradient", "step"]
    ser.write_csv(tmp_path / "got.csv", header, iter(rows))
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([ser.format_value(x) for x in row])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
