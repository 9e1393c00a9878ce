"""Plain-text file formats for fields, multipliers, and reports.

Field files carry a one-line magic, a key=value header (group size, component
count, window dimensions, one key per line in a fixed order), then one record
per vertex or face with row-major matrix entries, line k of the body holding
the record of id k.  One writer produces every kind, each record's (i, j)
computed from its id.  Floats are written with repr, which round-trips
bit-exactly, so identical inputs produce byte-identical files.  One parser
reads every kind, in exactly the writer's layout: it checks each header line's
key, then a block of body lines at a time (each line's tag and (i, j) against
its position, record lengths, finiteness), then the line count, so its time
and memory follow the file, and the window is built only once the body has
passed.  Group-valued files then pass the membership check of
``liegroup.group_array``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .complexes import TriangulatedGrid, triangulated_grid
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
        raise ValueError(f"expected a {expected_kind} file, found kind={kind}")
    n, components, width, height = map(_header_int, _HEADER[1:], sizes)
    if n < 2:
        raise ValueError(f"field file header n={n}: group size must be at least 2")
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    if (width + 1) * (height + 1) > np.iinfo(np.int64).max:
        raise ValueError(f"a {width}x{height} window has more vertices than "
                         f"64-bit ids can address")
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


def _parse_records(body, tag, n, components, width, height,
                   optional=False) -> np.ndarray:
    """The records as a (count, components, n, n) array indexed by id.

    Vertex records ("v") address the (W + 1) x (H + 1) vertices and face
    records ("f") the W x H faces; body line k must hold the record of id k,
    ``tag i j`` with k = j * columns + i, and finite entries.  With
    ``optional`` the last record may be left out and the last id then holds
    the identity.  Blocks of the first count lines are split, each line's
    tag, (i, j) and length checked, and each block's numbers converted by one
    np.array call, before a longer body is rejected; nothing of the header's
    size exists before the body passes.
    """
    per_record = components * n * n
    columns, count = ((width + 1, (width + 1) * (height + 1)) if tag == "v"
                      else (width, width * height))
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
        block = np.array([word for words in records for word in words[3:]],
                         dtype=float)
        bad = np.flatnonzero(~np.isfinite(block))
        if bad.size:
            k = start + bad[0] // per_record
            raise ValueError(f"record {tag} {k % columns} {k // columns} "
                             f"has non-finite entries")
        numbers.append(block)
    if len(body) > count:
        raise ValueError(f"line {_BODY + count + 1} is past the window's "
                         f"{count} records")
    missing = count - len(body) - optional
    if missing > 0:
        raise ValueError(f"{missing} of {count} records missing, "
                         f"the first with id {len(body)}")
    if len(body) < count:  # an optional far corner left out
        numbers.append(np.tile(np.eye(n).ravel(), components))
    return np.concatenate(numbers).reshape(count, components, n, n)


def _load(path, kind: str, tag: str, components: int, mismatch: str,
          optional: bool = False) -> tuple[TriangulatedGrid, np.ndarray]:
    """The window and the read-only record values of a field file, so that
    ``group_array`` keeps them without a copy; the window is built only
    once the body has passed every check."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    n, found, width, height = _parse_header(lines, kind)
    if found != components:
        raise ValueError(mismatch)
    values = _parse_records(lines[_BODY:], tag, n, components, width, height,
                            optional)
    return triangulated_grid(width, height), read_only(values)


def save_reduced_section(path, grid: TriangulatedGrid, y: np.ndarray) -> None:
    """One record per vertex, except the far corner, which adheres to no face."""
    _save(path, "reduced_section", grid, "v", y[:-1], 2)


def load_reduced_section(path) -> tuple[TriangulatedGrid, np.ndarray]:
    """The window and the read-only (V, 2, n, n) section.  Every vertex needs
    a record, except the far corner (identity if absent)."""
    grid, values = _load(path, "reduced_section", "v", 2,
                         "reduced sections carry two components per vertex",
                         optional=True)
    return grid, group_array(values)


def save_unreduced_field(path, grid: TriangulatedGrid, g: np.ndarray) -> None:
    _save(path, "unreduced_field", grid, "v", g, 1)


def load_unreduced_field(path) -> tuple[TriangulatedGrid, np.ndarray]:
    """The window and the read-only (V, n, n) field."""
    grid, values = _load(path, "unreduced_field", "v", 1,
                         "vertex fields carry one component per vertex")
    return grid, group_array(values[:, 0])


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
