"""The package runs on numpy alone.

A fresh interpreter imports the CLI and runs a solve (on a rough boundary,
so the trust-region Newton steps run), multiplier recovery, reconstruction and two
verify suites in-process; afterwards no ``scipy`` module may be loaded (a
None entry in ``sys.modules``, which blocks an import, loads nothing).  This
module imports nothing but the standard library and pytest, so it also
runs where scipy is not installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
from groupvar.cli import main

out = sys.argv[1]
solve = out + "/solve"
section = solve + "/reduced_section.txt"
commands = [
    ["solve", "--n", "3", "--width", "6", "--height", "6", "--boundary", "random",
     "--scale", "3.0", "--seed", "1", "--out", solve],
    ["recover-multipliers", "--section", section, "--out", out + "/recover"],
    ["reconstruct", "--section", section, "--seed-file",
     solve + "/unreduced_field.txt", "--out", out + "/reconstruct"],
    ["verify", "cartan", "--n", "3", "--seed", "3", "--out", out + "/verify"],
    ["verify", "regularity", "--n", "3", "--seed", "3", "--out", out + "/verify"],
]
codes = [main(argv) for argv in commands]
loaded = sorted(name for name, module in sys.modules.items()
                if name.startswith("scipy") and module is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 5, "scipy": []}
    report = (tmp_path / "solve" / "solve_report.txt").read_text()
    products = [line for line in report.splitlines()
                if line.startswith("hessian_products=")]
    assert products and int(products[0].partition("=")[2]) >= 1
