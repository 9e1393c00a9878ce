"""The golden report corpus: pinned outputs of a fixed list of CLI runs.

    PYTHONPATH=src python tests/golden_corpus.py          # rewrite the corpus
    PYTHONPATH=src python tests/golden_corpus.py --check  # compare file bytes

Each case is a list of ``groupvar`` command lines, run in-process in one
fresh directory; the corpus holds, per case, every command's exit code and
every file the case writes, parsed: key=value reports and CSV tables as
values, field files as header values plus numeric records.  It also holds
each file's SHA-256.  ``tests/test_golden.py`` compares parsed values by the
rule below: that half is the cross-machine claim, and it held under every
OpenBLAS kernel set tried.  ``--check`` compares exit codes and digests
exactly: that half holds only within one OpenBLAS kernel set, since reports
print round-off values with all 17 digits and another kernel set moves
some of them.  Whoever rewrites the corpus lists every moved value, old and
new, in CHANGES.md.

Comparison rule:
- integers, booleans, strings and exit codes compare exactly;
- floats compare to 1e-9 relative; a matrix entry of a field file compares
  relative to its record's largest entry, the scale of its matrices;
- a residual-type key (see ``RESIDUAL``) also passes within 1e-12 absolute,
  so a residual of 1e-15 stays "below 1e-12" without pinning its digits,
  and a central-difference key (``FINITE_DIFFERENCE``) within 1e-9.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"
RELATIVE, ABSOLUTE = 1e-9, 1e-12
# Report keys and CSV columns whose value a converged run drives to
# round-off: residuals, defects and step norms.  Those that are also
# central-difference quotients, with steps 1e-6 and 1e-5, carry round-off
# divided by the step instead: run under five other OpenBLAS kernel sets
# (OPENBLAS_CORETYPE), they moved by up to 2e-11, so their floor is 1e-9.
RESIDUAL = re.compile(r"residual|defect|discrepancy|consistency|agreement|"
                      r"gradient|roundtrip|cancellation|combination|boundary_sum|"
                      r"^step$")
FINITE_DIFFERENCE = re.compile(r"cartan_defect|jacobi_residual|two_form_defect")
MAGIC = "groupvar-field v1"
SUITES = ("split", "cartan", "flatness", "noether", "multisymplectic",
          "multipliers", "elimination", "regularity")


def _verify_case(n: int) -> list[list[str]]:
    """Every verify suite and the broken-symmetry control at seed 7."""
    common = ["--n", str(n), "--seed", "7"]
    return ([["verify", suite, *common, "--out", "{dir}/suites"] for suite in SUITES]
            + [["verify", "noether", "--break-symmetry", *common,
                "--out", "{dir}/control"]])


def _chain_case(width: int, height: int, scale: str) -> list[list[str]]:
    """solve, recover-multipliers from the zero seed and from a seeded one,
    then reconstruct from the solved field's origin value."""
    section = "{dir}/solve/reduced_section.txt"
    return [
        ["solve", "--width", str(width), "--height", str(height), "--scale", scale,
         "--out", "{dir}/solve"],
        ["recover-multipliers", "--section", section, "--out", "{dir}/recover-zero"],
        ["recover-multipliers", "--section", section, "--seed-scale", "0.3",
         "--out", "{dir}/recover-seeded"],
        ["reconstruct", "--section", section,
         "--seed-file", "{dir}/solve/unreduced_field.txt", "--out", "{dir}/reconstruct"],
    ]


CASES = {
    "verify-n3": _verify_case(3),
    "verify-n5": _verify_case(5),
    "chain-5x4-scale0.3": _chain_case(5, 4, "0.3"),
    "chain-6x6-scale3.0": _chain_case(6, 6, "3.0"),
    "chain-12x12-scale0.1": _chain_case(12, 12, "0.1"),
}


def parse_value(text: str):
    """A written value as what it was: bool, int, float or string."""
    if text in ("True", "False"):
        return text == "True"
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_file(path: Path) -> dict:
    """A report, CSV table or field file as parsed values."""
    text = path.read_text()
    lines = text.splitlines()
    if path.suffix == ".csv":
        rows = [line.split(",") for line in lines]
        return {"columns": rows[0],
                "rows": [[parse_value(cell) for cell in row] for row in rows[1:]]}
    if lines and lines[0] == MAGIC:
        body = next(k for k, line in enumerate(lines) if "=" not in line and k)
        header = dict(line.split("=", 1) for line in lines[1:body])
        return {"header": {key: parse_value(value) for key, value in header.items()},
                "records": [[parse_value(word) for word in line.split()]
                            for line in lines[body:]]}
    return {"report": {key: parse_value(value) for key, value in
                       (line.split("=", 1) for line in lines)}}


def run_case(commands: list[list[str]], directory: Path) -> dict:
    """Run one case's commands in ``directory``; their exit codes, and every
    file written there, parsed and digested, by path relative to it."""
    from groupvar.cli import main

    codes = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(main([word.format(dir=directory) for word in argv]))
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return {
        "exit_codes": codes,
        "files": {p.relative_to(directory).as_posix(): parse_file(p) for p in files},
        "sha256": {p.relative_to(directory).as_posix():
                   hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
    }


def floor(key: str) -> float:
    """The absolute floor of a report key or CSV column."""
    if FINITE_DIFFERENCE.search(key):
        return 1e-9
    return 1e-12 if RESIDUAL.search(key) else 0.0


def _close(want, got, bound: float) -> bool:
    if not (isinstance(want, float) and isinstance(got, float)):
        return type(want) is type(got) and want == got
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(want - got) <= max(RELATIVE * max(abs(want), abs(got)), bound)


def _pairs(want: dict, got: dict):
    """(where, floor, want, got) for every value of two parsed files, or
    None when their keys, columns, headers or record counts differ.  A
    field-file entry's floor is 1e-9 times its record's largest entry."""
    if "report" in want:
        if want["report"].keys() != got.get("report", {}).keys():
            return None
        return [(k, floor(k), v, got["report"][k]) for k, v in want["report"].items()]
    if "columns" in want:
        if (want["columns"], len(want["rows"])) != (got["columns"], len(got["rows"])):
            return None
        return [(f"row {r}/{column}", floor(column), x, y)
                for r, (a, b) in enumerate(zip(want["rows"], got["rows"]))
                for column, x, y in zip(want["columns"], a, b)]
    if want["header"] != got["header"] or \
            [len(a) for a in want["records"]] != [len(b) for b in got["records"]]:
        return None
    pairs = []
    for r, (a, b) in enumerate(zip(want["records"], got["records"])):
        scale = max((abs(x) for x in a[3:] + b[3:]), default=0.0)
        pairs += [(f"record {r}[{k}]", RELATIVE * scale, x, y)
                  for k, (x, y) in enumerate(zip(a, b))]
    return pairs


def differences(want: dict, got: dict) -> list[str]:
    """Every place where the parsed files ``got`` break the comparison
    rule against ``want``, both keyed by relative path."""
    if want.keys() != got.keys():
        return [f"files {sorted(want.keys() ^ got.keys())} differ"]
    found = []
    for name in want:
        pairs = _pairs(want[name], got[name])
        if pairs is None:
            found.append(f"{name}: keys, columns, header or record counts differ")
            continue
        found += [f"{name}: {where}={x!r}, got {y!r}" for where, bound, x, y in pairs
                  if not _close(x, y, bound)]
    return found


def dumps(value, depth: int = 0) -> str:
    """JSON with one line per scalar list (a record, a row, a command) and
    per dictionary entry, so a moved value shows as a one-line diff."""
    pad = " " * depth
    if isinstance(value, dict):
        items = [f"{pad} {json.dumps(k)}: {dumps(v, depth + 1)}"
                 for k, v in value.items()]
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        items = [f"{pad} {dumps(v, depth + 1)}" for v in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare exit codes and file digests with the corpus "
                             "instead of rewriting it")
    args = parser.parse_args(argv)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, commands in CASES.items():
            directory = Path(tmp) / name
            directory.mkdir()
            results[name] = {"commands": commands, **run_case(commands, directory)}
    if not args.check:
        CORPUS.parent.mkdir(exist_ok=True)
        CORPUS.write_text(dumps(results) + "\n")
        print(f"wrote {CORPUS}")
        return 0
    stored = json.loads(CORPUS.read_text())
    moved = [f"{name}: {what}" for name in CASES
             for what in ("exit_codes", "sha256")
             if stored[name][what] != results[name][what]]
    if not moved:
        print("exit codes and file digests match the corpus")
        return 0
    print("\n".join(moved))
    print("The digests hold only within one OpenBLAS kernel set; under another "
          "(OPENBLAS_CORETYPE), round-off values move in their last digits.  "
          "The cross-machine claim is the tolerance rule: "
          "python -m pytest tests/test_golden.py")
    return 1


if __name__ == "__main__":
    sys.exit(main())
