"""Plain-text file formats for fields, multipliers, and reports.

Field files carry a one-line magic, a key=value header (group size, component
count, window dimensions, one key per line in a fixed order), then one record
per vertex or face with row-major matrix entries, line k of the body holding
the record of id k; a section has no record for its far corner, which adheres
to no face.  One writer produces every kind, each record's (i, j)
computed from its id.  Floats are written with repr, which round-trips
bit-exactly, so identical inputs produce byte-identical files.  One parser
reads every kind, in exactly the writer's layout: it checks each header line's
key, then a block of body lines at a time (each line's tag and (i, j) against
its position, record lengths, finiteness), then the line count, so its time
and memory follow the file, and the window is built only once the body has
passed.  Group-valued files then pass the membership check of
``liegroup.group_array``.  Each error names the line, header key or byte
where a file departs from the layout.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .complexes import TriangulatedGrid, triangulated_grid
from .errors import MembershipError
from .liegroup import group_array, read_only, skew_part

MAGIC = "groupvar-field v1"
_HEADER = ("kind", "n", "components", "width", "height")
_BODY = 1 + len(_HEADER)  # index of the first body line
_BLOCK_LINES = 64  # body lines written, or split and converted, at a time

__all__ = [
    "save_reduced_section",
    "load_reduced_section",
    "save_unreduced_field",
    "load_unreduced_field",
    "save_multiplier",
    "load_multiplier",
    "write_report",
    "write_csv",
    "format_value",
    "read_lines",
]


def format_value(value) -> str:
    """A float, numpy's included, by ``repr`` of its Python float; anything
    else by ``str``."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _save(path, kind: str, grid: TriangulatedGrid, tag: str, values: np.ndarray,
          components: int) -> None:
    """Header, then one record per row of ``values``: row k holds the entries
    of id k, at (i, j) with k = j * columns + i, columns being W + 1 for
    vertex records ("v") and W for face records ("f").  Records are written
    a block at a time, so only one block's text is held at once."""
    columns = grid.width + 1 if tag == "v" else grid.width
    rows = values.reshape(len(values), -1)
    with Path(path).open("w") as out:
        header = (kind, values.shape[-1], components, grid.width, grid.height)
        out.write(f"{MAGIC}\n" + "".join(
            f"{key}={value}\n" for key, value in zip(_HEADER, header)))
        for start in range(0, len(rows), _BLOCK_LINES):
            block = rows[start:start + _BLOCK_LINES].tolist()
            out.write("".join(
                f"{tag} {k % columns} {k // columns} {' '.join(map(repr, entries))}\n"
                for k, entries in enumerate(block, start)))


def _parse_header(lines: list[str], expected_kind: str):
    """Group size, component count, window width and height, read from the
    five lines after the magic as ``_save`` writes them: ``key=value``, in
    ``_HEADER`` order."""
    if not lines or lines[0] != MAGIC:
        raise ValueError("not a field file (bad magic line)")
    header = lines[1:_BODY]
    for k, key in enumerate(_HEADER):
        if k == len(header) or not header[k].startswith(f"{key}="):
            raise ValueError(f"field file header missing {key}")
    kind, *sizes = (line.partition("=")[2] for line in header)
    if kind != expected_kind:
        raise ValueError(f"expected a {expected_kind} file, found kind={kind!r}")
    n, components, width, height = map(_header_int, _HEADER[1:], sizes)
    if n < 2:
        raise ValueError(f"field file header n={n}: group size must be at least 2")
    if width < 1 or height < 1:
        raise ValueError(f"field file header width={width}, height={height}: grid "
                         f"dimensions must be positive")
    return n, components, width, height


def _header_int(key: str, text: str) -> int:
    """A header value as ``str`` writes an int."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ValueError(f"field file header {key}={text!r} is not an integer")
    return value


def _parse_records(body, tag, n, components, columns, count) -> np.ndarray:
    """The ``count`` records, a (count, components, n, n) array by id.

    Body line k (file line 7 + k) must hold the record of id k, ``tag i j``
    with k = j * columns + i, and finite entries.  Blocks of the first count
    lines are split, each line's tag, (i, j) and length checked, and each
    block's numbers converted by one np.array call, before a longer body is
    rejected; nothing of the header's size exists before the body passes.
    """
    per_record = components * n * n
    numbers = []
    # blocks bound the split words held at once, which take several times
    # the memory of the lines themselves
    for start in range(0, min(len(body), count), _BLOCK_LINES):
        records = [line.split()
                   for line in body[start:min(start + _BLOCK_LINES, count)]]
        for k, words in enumerate(records, start):
            expected = [tag, str(k % columns), str(k // columns)]
            if words[:3] != expected:
                raise ValueError(f"line {_BODY + k + 1} starts "
                                 f"{' '.join(words[:3])!r}, expected "
                                 f"{' '.join(expected)!r}")
            if len(words) != 3 + per_record:
                raise ValueError(f"line {_BODY + k + 1} has {len(words) - 3} "
                                 f"numbers, expected {per_record}")
        try:
            block = np.array([word for words in records for word in words[3:]],
                             dtype=float)
        except ValueError:  # only now find the word that is not a number
            k, word = next((k, word) for k, words in enumerate(records, start)
                           for word in words[3:] if not _is_number(word))
            raise ValueError(f"line {_BODY + k + 1} holds {word!r}, which is not "
                             f"a number") from None
        bad = np.flatnonzero(~np.isfinite(block))
        if bad.size:
            raise ValueError(f"line {_BODY + start + bad[0] // per_record + 1} "
                             f"has non-finite entries")
        numbers.append(block)
    if len(body) > count:
        raise ValueError(f"line {_BODY + count + 1} is past the window's "
                         f"{count} records")
    if len(body) < count:
        raise ValueError(f"{count - len(body)} of {count} records missing, "
                         f"the first at line {_BODY + len(body) + 1}")
    return np.concatenate(numbers).reshape(count, components, n, n)


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def read_lines(path) -> list[str]:
    """A file's lines, ended at "\n" alone as the writer ends them, not at
    the form feeds and other separators of str.splitlines; a file that is
    not UTF-8 names its first byte that is not."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    return text.removesuffix("\n").split("\n")


def _load(path, kind: str, tag: str, components: int,
          mismatch: str) -> tuple[TriangulatedGrid, np.ndarray]:
    """The window and the read-only values of the records the writer
    writes: one per vertex ("v") or face ("f") in id order, but none for a
    section's far corner.  The window is built only once the body has
    passed every check."""
    lines = read_lines(path)
    n, found, width, height = _parse_header(lines, kind)
    if found != components:
        raise ValueError(f"field file header components={found}: {mismatch}")
    columns, rows = (width + 1, height + 1) if tag == "v" else (width, height)
    count = columns * rows - (kind == "reduced_section")
    values = _parse_records(lines[_BODY:], tag, n, components, columns, count)
    return triangulated_grid(width, height), read_only(values)


def _group_records(values: np.ndarray) -> np.ndarray:
    """``group_array`` of loaded records, naming a failing block's line."""
    try:
        return group_array(values)
    except MembershipError as exc:
        line = _BODY + 1 + exc.matrix // values.shape[1]
        raise ValueError(f"line {line} holds a matrix that {exc.reason}") from None


def save_reduced_section(path, grid: TriangulatedGrid, y: np.ndarray) -> None:
    """One record per vertex, except the far corner, which adheres to no face."""
    _save(path, "reduced_section", grid, "v", y[:-1], 2)


def load_reduced_section(path) -> tuple[TriangulatedGrid, np.ndarray]:
    """The window and the read-only (V, 2, n, n) section: a record for every
    vertex but the far corner, which holds the identity."""
    grid, values = _load(path, "reduced_section", "v", 2,
                         "reduced sections carry two components per vertex")
    far_corner = np.broadcast_to(np.eye(values.shape[-1]), (1, *values.shape[1:]))
    return grid, _group_records(read_only(np.concatenate([values, far_corner])))


def save_unreduced_field(path, grid: TriangulatedGrid, g: np.ndarray) -> None:
    _save(path, "unreduced_field", grid, "v", g, 1)


def load_unreduced_field(path) -> tuple[TriangulatedGrid, np.ndarray]:
    """The window and the read-only (V, n, n) field."""
    grid, values = _load(path, "unreduced_field", "v", 1,
                         "vertex fields carry one component per vertex")
    return grid, _group_records(values)[:, 0]


def save_multiplier(path, grid: TriangulatedGrid, lam: np.ndarray) -> None:
    _save(path, "multiplier", grid, "f", lam, 1)


def load_multiplier(path) -> tuple[TriangulatedGrid, np.ndarray]:
    """The window and the read-only (F, n, n) multiplier.  Every face needs a
    record; each entry is taken by its skew part."""
    grid, values = _load(path, "multiplier", "f", 1,
                         "multipliers carry one coalgebra entry per face")
    return grid, read_only(skew_part(values[:, 0]))


def write_report(path, records: dict) -> None:
    """Machine-readable key=value lines, in the given order."""
    lines = [f"{key}={format_value(value)}" for key, value in records.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    """Comma-separated header and rows with CRLF line ends, the bytes of
    ``csv.writer``'s default dialect: no field written here holds a comma,
    a quote or a line break, so none is quoted."""
    lines = (",".join(map(format_value, row)) + "\r\n" for row in (header, *rows))
    Path(path).write_text("".join(lines), newline="")
