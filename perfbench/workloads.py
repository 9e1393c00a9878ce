"""Workloads: operation lists built from the workload seed, and output checks.

Every operation is a short sequence of ``groupvar`` CLI commands run
in-process through ``groupvar.cli.main``.  The number of operations in a run
is fixed by ``--seconds`` and a per-workload nominal cost measured at the
commit that introduced the benchmark (2-vCPU Intel Xeon VM, BLAS on one
thread): enough operations to fill ``--seconds`` at that cost.  So the timed
phase of a run is a fixed list of operations whose length does not depend on
the speed of the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

SUITES = ("split", "cartan", "flatness", "noether", "multisymplectic",
          "multipliers", "elimination", "regularity")

# Solve workloads: one operation is solve, recover-multipliers, reconstruct.
# ``nominal_s`` is the mean cost of one operation at the commit that
# introduced the benchmark.
SOLVE_WORKLOADS = {
    "solve-smooth": {"n": 3, "width": 12, "scale": 0.1, "nominal_s": 4.5},
    "solve-rough": {"n": 3, "width": 6, "scale": 3.0, "nominal_s": 0.9},
}
# At scale 3.0 the solve cost is heavy-tailed: most boundaries take under a
# second, about 1% take three to six.  Independent draws would make the mix,
# and so wall_s, swing from run to run, so solve-rough draws its seeds from a
# fixed pool cut into bands of equal size by their cost at that commit, the
# same number from every band (stratified sampling).
ROUGH_BANDS = 32
# certify: one operation is one verify suite; a round is the eight suites
# plus the broken-symmetry control.  Rounds alternate these group sizes,
# given with the median cost of one round over 20 runs.
CERTIFY_ROUNDS = ((3, 3.8), (5, 10.5))
WORKLOADS = tuple(SOLVE_WORKLOADS) + ("certify",)
POOL_FILE = Path(__file__).resolve().parent / "rough_pool.json"

# Output checks on a solve operation.
CONSTRAINT_TOL = 1e-12
SYSTEM_TOL = 1e-10
PATH_TOL = 1e-12
FIELD_TOL = 1e-12


@dataclass(frozen=True)
class Operation:
    """One unit of timed work; ``suite`` is None for a solve operation."""

    index: int
    seed: int
    n: int
    width: int = 0
    scale: float = 0.0
    suite: str | None = None
    break_symmetry: bool = False
    instances: int | None = None

    def commands(self, out: Path) -> list[list[str]]:
        """CLI argument lists, in order, writing under ``out``."""
        if self.suite is not None:
            argv = ["verify", self.suite, "--n", str(self.n), "--seed",
                    str(self.seed), "--out", str(out)]
            if self.break_symmetry:
                argv.append("--break-symmetry")
            if self.width:
                argv += ["--width", str(self.width), "--height", str(self.width)]
            if self.instances is not None:
                argv += ["--instances", str(self.instances)]
            return [argv]
        solve, recover, rebuild = out / "solve", out / "recover", out / "reconstruct"
        section = str(solve / "reduced_section.txt")
        return [
            ["solve", "--n", str(self.n), "--width", str(self.width),
             "--height", str(self.width), "--boundary", "random",
             "--scale", repr(self.scale), "--seed", str(self.seed),
             "--out", str(solve)],
            ["recover-multipliers", "--section", section, "--out", str(recover)],
            ["reconstruct", "--section", section, "--seed-file",
             str(solve / "unreduced_field.txt"), "--out", str(rebuild)],
        ]

    @property
    def expected_exit(self) -> int:
        return 1 if self.break_symmetry else 0


def operations(workload: str, seed: int, seconds: float) -> list[Operation]:
    """The fixed operation list of one run; same arguments, same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in SOLVE_WORKLOADS:
        spec = SOLVE_WORKLOADS[workload]
        if workload == "solve-rough":
            seeds = stratified_seeds(rng, seconds / spec["nominal_s"])
        else:
            count = max(1, math.ceil(seconds / spec["nominal_s"]))
            seeds = [rng.randrange(2**31) for _ in range(count)]
        return [Operation(k, seed, spec["n"], spec["width"], spec["scale"])
                for k, seed in enumerate(seeds)]
    if workload != "certify":
        raise ValueError(f"unknown workload {workload!r}")
    # Whole rounds until they fill ``seconds``.  The operations are shuffled,
    # so that the suites near the median are timed at points spread over the
    # run rather than within one round.
    plan = []
    planned = 0.0
    for n, cost in itertools.cycle(CERTIFY_ROUNDS):
        if planned >= seconds:
            break
        planned += cost
        plan += [(n, suite, False) for suite in SUITES] + [(n, "noether", True)]
    rng.shuffle(plan)
    return [Operation(k, rng.randrange(2**31), n, suite=suite, break_symmetry=control)
            for k, (n, suite, control) in enumerate(plan)]


def stratified_seeds(rng: random.Random, count: float) -> list[int]:
    """About ``count`` pool seeds, the same number from each cost band."""
    records = json.loads(POOL_FILE.read_text())["seeds"]
    ranked = [r["seed"] for r in sorted(records, key=lambda r: (r["seconds"], r["seed"]))]
    size = len(ranked) // ROUGH_BANDS
    per_band = max(1, round(count / ROUGH_BANDS))
    picks = [rng.sample(ranked[b * size:(b + 1) * size], per_band)
             for b in range(ROUGH_BANDS)]
    return [band[k] for k in range(per_band) for band in picks]


def warmup_operation(workload: str, seed: int) -> Operation:
    """A small untimed operation that exercises the workload's code paths."""
    rng = random.Random(f"{workload}/{seed}/warmup")
    if workload in SOLVE_WORKLOADS:
        spec = SOLVE_WORKLOADS[workload]
        return Operation(-1, rng.randrange(2**31), spec["n"], 3, spec["scale"])
    return Operation(-1, rng.randrange(2**31), 3, width=3, suite="multipliers",
                     instances=2)


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return (exit code, captured output).

    An exception escaping the CLI is a failed command with exit code -1; its
    traceback is kept in the captured output.
    """
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - the benchmark must finish the run
            traceback.print_exc(file=buf)
            code = -1
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# output checks


def read_report(path: Path) -> dict[str, str]:
    records = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            records[key] = value
    return records


def read_field(path: Path) -> dict[tuple[int, int], list[float]]:
    """Vertex records ``v i j <entries>`` of a field file, by (i, j)."""
    values = {}
    for line in path.read_text().splitlines():
        words = line.split()
        if words and words[0] == "v":
            values[(int(words[1]), int(words[2]))] = [float(w) for w in words[3:]]
    return values


def field_distance(a: dict, b: dict) -> float:
    """Largest per-vertex Frobenius distance; inf when the vertex sets differ."""
    if set(a) != set(b):
        return float("inf")
    worst = 0.0
    for key, xs in a.items():
        ys = b[key]
        if len(xs) != len(ys):
            return float("inf")
        worst = max(worst, sum((x - y) ** 2 for x, y in zip(xs, ys)) ** 0.5)
    return worst


def _at_most(records: dict, key: str, limit: float) -> bool:
    try:
        return float(records[key]) <= limit
    except (KeyError, ValueError):
        return False


@dataclass
class Outcome:
    """Why an operation failed, and which of those reasons are wrong outputs.

    A failure is any output outside the acceptance checks.  A wrong output
    contradicts what the program itself reported: an exception escaping the
    CLI, an exit code that disagrees with the report it wrote, or a
    reconstruction that differs from the field it was built from although
    both commands succeeded.  Failures are counted; wrong outputs make the
    run incorrect.
    """

    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failures.append(reason)
        if wrong:
            self.wrong.append(reason)


def check_operation(op: Operation, out: Path, exits: list[int]) -> Outcome:
    """Check every output of one operation."""
    result = Outcome()
    for code in exits:
        if code == -1:
            result.fail("uncaught exception in the CLI", wrong=True)
    if op.suite is not None:
        name = f"verify {op.suite}" + (" --break-symmetry" if op.break_symmetry else "")
        report = out / f"verify_{op.suite}.txt"
        passed = read_report(report).get("passed") if report.is_file() else None
        if exits != [op.expected_exit]:
            result.fail(f"{name}: exit {exits}, expected {op.expected_exit}")
        if passed != str(not op.break_symmetry):
            result.fail(f"{name}: passed={passed}")
        if (exits == [0]) != (passed == "True"):
            result.fail(f"{name}: exit {exits} contradicts passed={passed}", wrong=True)
        return result

    names = ("solve", "recover-multipliers", "reconstruct")
    for cmd, code in zip(names, exits):
        if code != 0:
            result.fail(f"{cmd}: exit {code}")
    try:
        solve = read_report(out / "solve" / "solve_report.txt")
        recovery = read_report(out / "recover" / "recovery_report.txt")
        rebuilt = read_report(out / "reconstruct" / "reconstruct_report.txt")
        distance = field_distance(
            read_field(out / "solve" / "unreduced_field.txt"),
            read_field(out / "reconstruct" / "unreduced_field.txt"))
    except (OSError, ValueError, IndexError) as exc:
        where = getattr(exc, "filename", None)
        detail = f" {Path(where).relative_to(out)}" if where else ""
        result.fail(f"missing or unreadable output: {type(exc).__name__}{detail}",
                    wrong=exits[0] == 0)
        return result
    solved = exits[0] == 0
    if solve.get("converged") != "True":
        result.fail(f"converged={solve.get('converged')}", wrong=solved)
    if not _at_most(solve, "max_ep_residual", float(solve.get("ep_tol", "nan"))):
        result.fail(f"max_ep_residual={solve.get('max_ep_residual')} "
                    f"> ep_tol={solve.get('ep_tol')}", wrong=solved)
    if not _at_most(solve, "max_constraint_residual", CONSTRAINT_TOL):
        result.fail(f"max_constraint_residual={solve.get('max_constraint_residual')}",
                    wrong=solved)
    if not _at_most(recovery, "max_system_residual", SYSTEM_TOL):
        result.fail(f"max_system_residual={recovery.get('max_system_residual')}")
    if not _at_most(rebuilt, "path_agreement", PATH_TOL):
        result.fail(f"path_agreement={rebuilt.get('path_agreement')}")
    if not distance <= FIELD_TOL:
        result.fail(f"reconstructed field differs by {distance!r}",
                    wrong=solved and exits[2] == 0)
    return result


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, keyed by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def solver_phases(out: Path) -> tuple[int, int]:
    """(descent iterations, Newton steps) from a solve's ``history.csv``.

    The iteration-0 row records the initial point and is not an iteration.
    """
    path = out / "solve" / "history.csv"
    if not path.is_file():
        return 0, 0
    descent = newton = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["phase"] == "newton":
                newton += 1
            elif row["phase"] == "descent" and row["iteration"] != "0":
                descent += 1
    return descent, newton
