"""Plain-text file formats for fields, multipliers, and reports.

Field files carry a one-line magic, a key=value header (group size, component
count, window dimensions), then one record per vertex or face with row-major
matrix entries.  Floats are written with repr, which round-trips bit-exactly,
so identical inputs produce byte-identical files.  Loading fills one array
and rejects missing, duplicate and non-finite records; group-valued files
then pass the membership check of ``liegroup.group_array``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .complexes import TriangulatedGrid, triangulated_grid
from .core import Multiplier, Section
from .liegroup import group_array, skew_part
from .reduction import UnreducedField, reduced_fiber

MAGIC = "groupvar-field v1"

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
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def _matrix_words(m: np.ndarray) -> str:
    return " ".join(map(repr, m.ravel().tolist()))


def _header_lines(kind: str, n: int, components: int,
                  grid: TriangulatedGrid) -> list[str]:
    return [
        MAGIC,
        f"kind={kind}",
        f"n={n}",
        f"components={components}",
        f"width={grid.width}",
        f"height={grid.height}",
    ]


def _parse_header(lines: list[str], expected_kind: str):
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
    n = int(header["n"])
    components = int(header["components"])
    grid = triangulated_grid(int(header["width"]), int(header["height"]))
    return n, components, grid, body_start


def _parse_records(lines, body_start, tag, n, components, index, count,
                   optional=None) -> np.ndarray:
    """The records as a (count, components, n, n) array indexed by id.

    ``index`` maps a record's (i, j) to its id.  Every id needs exactly one
    record with finite entries; the id ``optional`` may be left out and then
    holds the identity.
    """
    values = np.empty((count, components, n, n))
    seen = np.zeros(count, dtype=bool)
    per_record = components * n * n
    for line in lines[body_start:]:
        words = line.split()
        if not words:
            continue
        if words[0] != tag:
            raise ValueError(f"unexpected record {words[0]!r}, wanted {tag!r}")
        if len(words) != 3 + per_record:
            raise ValueError(f"record has {len(words) - 3} numbers, "
                             f"expected {per_record}")
        i, j = int(words[1]), int(words[2])
        k = index(i, j)
        if seen[k]:
            raise ValueError(f"duplicate record {tag} {i} {j}")
        numbers = np.array([float(w) for w in words[3:]])
        if not np.isfinite(numbers).all():
            raise ValueError(f"record {tag} {i} {j} has non-finite entries")
        values[k] = numbers.reshape(components, n, n)
        seen[k] = True
    if optional is not None and not seen[optional]:
        values[optional] = np.eye(n)
        seen[optional] = True
    if not seen.all():
        raise ValueError(f"{int(np.sum(~seen))} of {count} records missing, "
                         f"the first with id {int(np.argmin(seen))}")
    return values


def save_reduced_section(path, grid: TriangulatedGrid, y: Section) -> None:
    """One record per vertex, except the far corner, which adheres to no face."""
    lines = _header_lines("reduced_section", y.fiber.n, 2, grid)
    for vid in grid.vertices[:-1]:
        i, j = grid.vertex_ij(vid)
        lines.append(f"v {i} {j} {_matrix_words(y.values[vid])}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_reduced_section(path) -> tuple[TriangulatedGrid, Section]:
    """Every vertex needs a record, except the far corner (identity if absent)."""
    lines = Path(path).read_text().splitlines()
    n, components, grid, body = _parse_header(lines, "reduced_section")
    if components != 2:
        raise ValueError("reduced sections carry two components per vertex")
    values = _parse_records(lines, body, "v", n, 2, grid.vertex_id,
                            len(grid.vertices), optional=grid.vertices[-1])
    return grid, Section(reduced_fiber(n), group_array(values))


def save_unreduced_field(path, grid: TriangulatedGrid, g: UnreducedField) -> None:
    lines = _header_lines("unreduced_field", g.values.shape[-1], 1, grid)
    for vid in grid.vertices:
        i, j = grid.vertex_ij(vid)
        lines.append(f"v {i} {j} {_matrix_words(g.values[vid])}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_unreduced_field(path) -> tuple[TriangulatedGrid, UnreducedField]:
    lines = Path(path).read_text().splitlines()
    n, components, grid, body = _parse_header(lines, "unreduced_field")
    if components != 1:
        raise ValueError("vertex fields carry one component per vertex")
    values = _parse_records(lines, body, "v", n, 1, grid.vertex_id,
                            len(grid.vertices))
    return grid, UnreducedField(group_array(values[:, 0]))


def save_multiplier(path, grid: TriangulatedGrid, lam: Multiplier) -> None:
    lines = _header_lines("multiplier", lam.values.shape[-1], 1, grid)
    for fid in grid.faces:
        i, j = grid.face_ij(fid)
        lines.append(f"f {i} {j} {_matrix_words(lam.values[fid])}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_multiplier(path) -> tuple[TriangulatedGrid, Multiplier]:
    """Every face needs a record; each entry is taken by its skew part."""
    lines = Path(path).read_text().splitlines()
    n, components, grid, body = _parse_header(lines, "multiplier")
    if components != 1:
        raise ValueError("multipliers carry one coalgebra entry per face")
    values = _parse_records(lines, body, "f", n, 1, grid.face_id, len(grid.faces))
    return grid, Multiplier(skew_part(values[:, 0]))


def write_report(path, records: dict) -> None:
    """Machine-readable key=value lines, in the given order."""
    lines = [f"{key}={format_value(value)}" for key, value in records.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(x) for x in row])
