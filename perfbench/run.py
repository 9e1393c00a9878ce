"""Benchmark entry point.

    python3 perfbench/run.py --workload {solve-smooth,solve-rough,certify} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; details
go to ``perfbench/out/``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parents[1])
    from perfbench import harness  # imports no numpy

    harness.pin_threads()
    sys.exit(harness.main(sys.argv[1:]))
