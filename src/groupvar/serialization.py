"""Plain-text file formats for fields, multipliers, and reports.

Field files carry a one-line magic, a key=value header (group size, component
count, window dimensions), then one record per vertex or face with row-major
matrix entries.  One writer produces every kind, each record's (i, j)
computed from its id.  Floats are written with repr, which round-trips
bit-exactly, so identical inputs produce byte-identical files.  One parser
reads every kind: it checks the body against the header (tags, record
lengths, ids inside the window, duplicates, finiteness, missing records) on
arrays, so its time and memory follow the file, and the window is built
only once the body has passed.  Group-valued files then pass the membership
check of ``liegroup.group_array``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .complexes import TriangulatedGrid, triangulated_grid
from .liegroup import group_array, read_only, skew_part

MAGIC = "groupvar-field v1"
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
        out.write(f"{MAGIC}\nkind={kind}\nn={values.shape[-1]}\n"
                  f"components={components}\nwidth={grid.width}\n"
                  f"height={grid.height}\n")
        for start in range(0, len(rows), _BLOCK_LINES):
            block = rows[start:start + _BLOCK_LINES].tolist()
            out.write("".join(
                f"{tag} {k % columns} {k // columns} {' '.join(map(repr, entries))}\n"
                for k, entries in enumerate(block, start)))


def _parse_header(lines: list[str], expected_kind: str):
    """Group size, component count, window width and height, and the index
    of the first body line."""
    if not lines or lines[0].strip() != MAGIC:
        raise ValueError("not a field file (bad magic line)")
    header = {}
    body_start = 1
    for idx in range(1, len(lines)):
        line = lines[idx].strip()
        if not line:
            continue
        if "=" not in line:
            body_start = idx
            break
        key, _, value = line.partition("=")
        header[key.strip()] = value.strip()
        body_start = idx + 1
    for key in ("kind", "n", "components", "width", "height"):
        if key not in header:
            raise ValueError(f"field file header missing {key}")
    if header["kind"] != expected_kind:
        raise ValueError(
            f"expected a {expected_kind} file, found kind={header['kind']}")
    n, components, width, height = (
        int(header[key]) for key in ("n", "components", "width", "height"))
    if n < 2:
        raise ValueError(f"field file header n={n}: group size must be at least 2")
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    if (width + 1) * (height + 1) > np.iinfo(np.int64).max:
        raise ValueError(f"a {width}x{height} window has more vertices than "
                         f"64-bit ids can address")
    return n, components, width, height, body_start


def _parse_records(lines, body_start, tag, n, components, width, height,
                   optional=False) -> np.ndarray:
    """The records as a (count, components, n, n) array indexed by id.

    Vertex records ("v") address the (W + 1) x (H + 1) vertices and face
    records ("f") the W x H faces, by (i, j) at id j * columns + i.  Every
    id needs exactly one record with finite entries; with ``optional`` the
    last id may be left out and then holds the identity.  Blocks of lines
    are split and checked for tags and record lengths, and their ids and
    numbers converted, one np.array call each; window bounds, duplicates,
    finiteness and missing records are then checked on the whole body's
    arrays.  Nothing of the header's size exists before the body passes.
    """
    per_record = components * n * n
    name, columns, rows = (("vertex", width + 1, height + 1) if tag == "v"
                           else ("face", width, height))
    ij, numbers = [np.zeros(0, dtype=int)], [np.zeros(0)]
    # blocks bound the split words held at once, which take several times
    # the memory of the lines themselves
    for start in range(body_start, len(lines), _BLOCK_LINES):
        records = [words for words in map(str.split, lines[start:start + _BLOCK_LINES])
                   if words]
        wrong = next((words for words in records if words[0] != tag), None)
        if wrong is not None:
            raise ValueError(f"unexpected record {wrong[0]!r}, wanted {tag!r}")
        wrong = next((words for words in records if len(words) != 3 + per_record),
                     None)
        if wrong is not None:
            raise ValueError(f"record has {len(wrong) - 3} numbers, "
                             f"expected {per_record}")
        # Python ints until the window check, so an id beyond int64 is
        # reported as outside the window
        ij.append(np.array(list(map(int, [w for words in records for w in words[1:3]])),
                           dtype=object))
        numbers.append(np.array([word for words in records for word in words[3:]],
                                dtype=float))
    ij = np.concatenate(ij).reshape(-1, 2)
    numbers = np.concatenate(numbers).reshape(len(ij), components, n, n)
    outside = np.flatnonzero(((ij < 0) | (ij >= (columns, rows))).any(axis=1))
    if outside.size:
        i, j = ij[outside[0]]
        raise ValueError(f"{name} ({i}, {j}) outside the window")
    ij = ij.astype(int)
    ids = ij[:, 1] * columns + ij[:, 0]
    # a stable sort puts each repeat after the line it repeats (np.unique
    # would import numpy.ma on its first call)
    order = np.argsort(ids, kind="stable")
    present = ids[order]
    repeats = order[1:][present[1:] == present[:-1]]
    if repeats.size:
        i, j = ij[repeats.min()]
        raise ValueError(f"duplicate record {tag} {i} {j}")
    bad = np.flatnonzero(~np.isfinite(numbers).all(axis=(1, 2, 3)))
    if bad.size:
        i, j = ij[bad[0]]
        raise ValueError(f"record {tag} {i} {j} has non-finite entries")
    count = columns * rows
    if optional and not (present.size and present[-1] == count - 1):
        present = np.append(present, count - 1)
    if len(present) < count:
        gaps = np.flatnonzero(present != np.arange(len(present)))
        raise ValueError(f"{count - len(present)} of {count} records missing, "
                         f"the first with id {gaps[0] if gaps.size else len(present)}")
    values = np.empty((count, components, n, n))
    values[ids] = numbers
    if len(ids) < count:
        values[-1] = np.eye(n)
    return values


def _load(path, kind: str, tag: str, components: int, mismatch: str,
          optional: bool = False) -> tuple[TriangulatedGrid, np.ndarray]:
    """The window and the read-only record values of a field file, so that
    ``group_array`` keeps them without a copy; the window is built only
    once the body has passed every check."""
    lines = Path(path).read_text().splitlines()
    n, found, width, height, body = _parse_header(lines, kind)
    if found != components:
        raise ValueError(mismatch)
    values = _parse_records(lines, body, tag, n, components, width, height,
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
