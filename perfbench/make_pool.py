"""Write the boundary-seed pool that the solve-rough workload draws from.

    python3 perfbench/make_pool.py --count 640

Runs the workload's operation once for each CLI seed 0 .. count-1 and
records its wall time and any failed check.  The benchmark uses the times
only to sort the pool into bands of equal size.  The pool was made at the
commit that introduced the benchmark and is not remade when the solver
changes: it fixes the inputs, and later code is timed on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parents[1])
    from perfbench import harness, workloads as wl

    harness.pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=640)
    args = parser.parse_args()

    cli = harness.import_cli()
    spec = wl.SOLVE_WORKLOADS["solve-rough"]
    work = harness.OUT / f"pool-{os.getpid()}"
    records = []
    for seed in range(args.count):
        op = wl.Operation(seed, seed, spec["n"], spec["width"], spec["scale"])
        out = work / str(seed)
        seconds, exits, _ = harness.run_operation(cli, op, out)
        failed = bool(wl.check_operation(op, out, exits).failures)
        records.append({"seed": seed, "seconds": round(seconds, 4), "failed": failed})
        shutil.rmtree(out)
    shutil.rmtree(work, ignore_errors=True)
    wl.POOL_FILE.write_text(json.dumps(
        {"workload": "solve-rough",
         "settings": {k: spec[k] for k in ("n", "width", "scale")},
         "machine": f"{harness._cpu_model()}, {os.cpu_count()} CPUs",
         "seeds": records}, indent=0) + "\n")
