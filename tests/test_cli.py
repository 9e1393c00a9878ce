import json

import numpy as np
import pytest

from groupvar import sampling, serialization as ser
from groupvar.cli import main
from groupvar.complexes import classify_vertices, triangulated_grid
from groupvar.core import Section
from groupvar.liegroup import random_skew
from groupvar.reduction import reduce_field
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
        "descent_iterations", "newton_steps", "backtracks", "residual_evaluations")}
    assert int(report["iterations"]) == \
        counters["descent_iterations"] + counters["newton_steps"]
    assert counters["residual_evaluations"] > counters["descent_iterations"]


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


def test_malformed_config_exits_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    assert run("solve", "--config", cfg) == 2
    cfg.write_text(json.dumps({"unknown_key": 1}))
    assert run("solve", "--config", cfg) == 2
    assert run("solve", "--n", 1) == 2
    assert run("solve", "--width", 0) == 2
    for bad in ({"n": "3"}, {"instances": 2.5}, {"width": True},
                {"g_tol": "1e-10"}, {"adm_tol": 0.0},
                {"rank_tol": -1e-8}, {"max_iterations": -1}):
        cfg.write_text(json.dumps(bad))
        assert run("solve", "--config", cfg, "--out", tmp_path / "bad") == 2
    for flags in (("--instances", 0), ("--instances", -3), ("--cons-tol", -1)):
        assert run("verify", "split", *flags, "--out", tmp_path / "bad") == 2
    assert not (tmp_path / "bad").exists()
    cfg.write_text(json.dumps({"out": 3}))
    assert run("solve", "--config", cfg) == 2


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
    assert run("verify", suite, "--instances", 10, "--out", tmp_path) == 0
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
    from groupvar import core
    exact, calls = core.variational_split, []

    def one_nan(*args):
        lhs, rhs = exact(*args)
        calls.append(lhs)
        return (float("nan"), rhs) if len(calls) == 3 else (lhs, rhs)

    monkeypatch.setattr(core, "variational_split", one_nan)
    assert run("verify", "split", "--instances", 5, "--out", tmp_path) == 1
    report = (tmp_path / "verify_split.txt").read_text()
    assert "passed=False" in report and "worst_split_defect=nan" in report


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
    worst = np.linalg.norm(rebuilt.values - g.values, axis=(-2, -1)).max()
    assert worst <= 1e-12


def test_reconstruct_tampered_exits_one(tmp_path, capsys):
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(1)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, 3, rng))
    vid = grid.vertex_id(1, 1)
    bump = scipy.linalg.expm(1e-5 * random_skew(3, rng))
    values = y.values.copy()
    values[vid, 0] = values[vid, 0] @ bump
    y = Section(y.fiber, values)
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
    assert len(lam.values) == 16


def test_recover_multipliers_rejects_noncritical(tmp_path):
    grid = triangulated_grid(3, 3)
    rng = np.random.default_rng(2)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, 3, rng))
    section = tmp_path / "section.txt"
    ser.save_reduced_section(section, grid, y)
    assert run("recover-multipliers", "--section", section,
               "--out", tmp_path) == 1


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
    assert len(lam.values) == width * height
    assert run("reconstruct", "--section", section, "--seed-file", field,
               "--out", tmp_path / "rec") == 0
    _, solved = ser.load_unreduced_field(field)
    _, rebuilt = ser.load_unreduced_field(tmp_path / "rec" / "unreduced_field.txt")
    assert np.linalg.norm(rebuilt.values - solved.values, axis=(-2, -1)).max() <= 1e-12


@pytest.fixture(scope="module")
def solved_section(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve4x4")
    assert run("solve", "--width", 4, "--height", 4, "--out", out) == 0
    return (out / "reduced_section.txt").read_text().splitlines()


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
    because the blend restarts the same descent."""
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
    assert np.array_equal(solved.values[frontier], given.values[frontier])

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
