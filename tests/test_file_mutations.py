"""Mutated field files through the commands that read them.

Files that ``save_*`` wrote for n = 2..5 on small windows are mutated (byte
flips, cuts, inserted, deleted, swapped and repeated lines, bad header
values, non-finite entries, a reflected block, a block scaled to either side
of ``TAU_GROUP``, a separator that ``str.splitlines`` breaks at but the
writer never writes) and sent in-process through ``solve --boundary`` and
``reconstruct --seed-file`` (fields) or ``reconstruct --section`` and
``recover-multipliers --section`` (sections).  Each run either exits 2,
writes nothing and names where the file departs from the writer's layout
(an in-place mutation, the line it changed), or the file loads, and then the
command does what it does on the file the writer writes for the loaded
values.

Every (kind, mutation) pair is a case of its own; hypothesis draws the group
size, the window and the mutation's place.  Derandomized, so every run draws
the same examples, and bounded, so the module stays a few seconds long.
"""

import functools
import io
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupvar import serialization as ser
from groupvar.cli import main
from groupvar.defaults import TAU_GROUP

# 9 examples for each of the 22 (kind, mutation) pairs
PROPERTY = settings(derandomize=True, max_examples=9, deadline=None, database=None)
WINDOWS = ((1, 2), (2, 2), (3, 2))
# kind: (file the solve writes, components, loader, writer)
KINDS = {
    "field": ("unreduced_field.txt", 1, ser.load_unreduced_field,
              ser.save_unreduced_field),
    "section": ("reduced_section.txt", 2, ser.load_reduced_section,
                ser.save_reduced_section),
}
MUTATIONS = ("flip", "cut", "insert", "delete", "swap", "repeat", "header",
             "non-finite", "reflect", "scale", "separator")
# the mutations that change one line and keep the line count
IN_PLACE = ("non-finite", "reflect", "scale", "separator")
# the line boundaries of str.splitlines other than \n and \r
SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# a message names a file line, a header key, the magic line or a byte
NAMED = re.compile(r"\bline \d+\b|byte \d+ is not UTF-8|magic line|\bkind="
                   r"|field file header (missing )?(kind|n|components|width|height)\b")
FOREIGN = re.compile(r"could not convert|invalid literal|Traceback|numpy|dtype"
                     r"|float|int\(|matrix \d|shape|index|object")


@functools.cache
def _written(n, width, height):
    """The bytes of each file of one solve, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["solve", "--n", str(n), "--width", str(width), "--height",
                     str(height), "--scale", "0.3", "--seed", "1", "--out", tmp]) == 0
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


def _mutated(data: bytes, mutation: str, n: int, components: int, draw) -> bytes:
    if mutation == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if mutation == "cut":
        return data[:draw(st.integers(0, len(data)))]
    lines = data.decode().split("\n")[:-1]  # every written line ends in \n
    at = draw(st.integers(0, len(lines) - 1))
    if mutation == "insert":
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "v 0 0", "x", *lines])))
    elif mutation == "delete":
        del lines[at]
    elif mutation == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif mutation == "repeat":
        lines.insert(at, lines[at])
    elif mutation == "separator":
        # at the end of the line as often as anywhere inside it
        end = len(lines[at])
        cut = draw(st.one_of(st.just(end), st.integers(0, end)))
        lines[at] = lines[at][:cut] + draw(st.sampled_from(SEPARATORS)) + lines[at][cut:]
    elif mutation == "header":
        at = draw(st.integers(2, 5))  # n, components, width, height
        value = draw(st.sampled_from(["0", "-1", "-7", str(10 ** 12), str(10 ** 30),
                                      "2.5", "1e3", "x", ""]))
        lines[at] = f"{lines[at].partition('=')[0]}={value}"
    elif mutation == "non-finite":
        body = draw(st.integers(6, len(lines) - 1))
        words = lines[body].split()
        words[draw(st.integers(3, len(words) - 1))] = draw(
            st.sampled_from(["nan", "-nan", "inf", "-inf", "NaN", "Infinity"]))
        lines[body] = " ".join(words)
    else:
        body = draw(st.integers(6, len(lines) - 1))
        words = lines[body].split()
        blocks = np.array(words[3:], dtype=float).reshape(components, n, n)
        c = draw(st.integers(0, components - 1))
        if mutation == "reflect":
            blocks[c, draw(st.integers(0, n - 1))] *= -1.0
        else:
            # defect (2 eps + eps^2) sqrt(n): a factor of TAU_GROUP either side
            factor = draw(st.sampled_from([0.5, 0.9, 1.1, 2.0]))
            blocks[c] *= 1.0 + factor * TAU_GROUP / (2.0 * math.sqrt(n))
        lines[body] = " ".join(words[:3] + list(map(repr, blocks.ravel().tolist())))
    return ("\n".join(lines) + "\n").encode()


def _commands(kind, path, n, width, height, section):
    """The commands that read the file at ``path``; a field seeds the
    reconstruction of ``section``, the same solve's section."""
    if kind == "field":
        return [["solve", "--n", str(n), "--width", str(width), "--height",
                 str(height), "--boundary", str(path)],
                ["reconstruct", "--section", str(section), "--seed-file", str(path)]]
    return [["reconstruct", "--section", str(path)],
            ["recover-multipliers", "--section", str(path)]]


def _run(argv, out: Path):
    """Exit code, standard output, standard error and the bytes of every
    file written."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), files


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("kind", list(KINDS))
@PROPERTY
@given(n=st.integers(2, 5), window=st.sampled_from(WINDOWS), data=st.data())
def test_a_mutated_file_exits_two_naming_its_defect_or_reads_as_written(
        kind, mutation, n, window, data):
    solved = _written(n, *window)
    name, components, load, save = KINDS[kind]
    written = solved[name]
    mutated = _mutated(written, mutation, n, components, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path, section = tmp / "input.txt", tmp / "section.txt"
        path.write_bytes(mutated)
        section.write_bytes(solved["reduced_section.txt"])
        commands = _commands(kind, path, n, *window, section)
        runs = [_run(argv, tmp / f"mutated{k}") for k, argv in enumerate(commands)]
        try:
            grid, values = load(path)
        except ValueError as exc:
            for code, out, err, files in runs:
                assert (code, out, files) == (2, "", None), err
                assert err.startswith("groupvar: ") and err.count("\n") == 1
                assert NAMED.search(err), err
                assert not FOREIGN.search(err.replace(str(path), "")), err
            # an in-place mutation changes one line, the only line its
            # message may name
            named = re.search(r"\bline (\d+)\b", str(exc))
            if mutation in IN_PLACE and named:
                k = int(named[1]) - 1
                assert mutated.split(b"\n")[k] != written.split(b"\n")[k], exc
            return
        if mutated == written:
            (tmp / "written.txt").write_bytes(written)
            assert values.tobytes() == load(tmp / "written.txt")[1].tobytes()
        # the file the writer writes for the loaded values, at the same path
        save(path, grid, values)
        assert runs == [_run(argv, tmp / f"written{k}")
                        for k, argv in enumerate(commands)]
