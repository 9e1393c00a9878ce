import numpy as np
import pytest

from groupvar import sampling, serialization as ser
from groupvar.complexes import triangulated_grid
from groupvar.reduction import reduce_field


def test_reduced_section_roundtrip_bit_exact(tmp_path):
    grid = triangulated_grid(3, 2)
    rng = np.random.default_rng(0)
    y = reduce_field(grid, sampling.random_unreduced_field(grid, 3, rng))
    path = tmp_path / "section.txt"
    ser.save_reduced_section(path, grid, y)
    grid2, y2 = ser.load_reduced_section(path)
    assert (grid2.width, grid2.height) == (3, 2)
    assert y2.values.shape == y.values.shape
    assert np.array_equal(y.values, y2.values)
    ser.save_reduced_section(tmp_path / "again.txt", grid2, y2)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_unreduced_field_roundtrip(tmp_path):
    grid = triangulated_grid(2, 2)
    rng = np.random.default_rng(1)
    g = sampling.random_unreduced_field(grid, 3, rng)
    path = tmp_path / "field.txt"
    ser.save_unreduced_field(path, grid, g)
    _, g2 = ser.load_unreduced_field(path)
    assert np.array_equal(g.values, g2.values)


def test_multiplier_roundtrip(tmp_path):
    grid = triangulated_grid(2, 3)
    rng = np.random.default_rng(2)
    lam = sampling.random_multiplier(grid, 3, rng)
    path = tmp_path / "mult.txt"
    ser.save_multiplier(path, grid, lam)
    _, lam2 = ser.load_multiplier(path)
    assert np.array_equal(lam.values, lam2.values)


def test_loader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a field file\n")
    with pytest.raises(ValueError):
        ser.load_reduced_section(bad)

    wrong_kind = tmp_path / "kind.txt"
    grid = triangulated_grid(2, 2)
    rng = np.random.default_rng(3)
    ser.save_unreduced_field(wrong_kind, grid,
                             sampling.random_unreduced_field(grid, 3, rng))
    with pytest.raises(ValueError):
        ser.load_reduced_section(wrong_kind)

    truncated = tmp_path / "trunc.txt"
    good = tmp_path / "good.txt"
    y = reduce_field(grid, sampling.random_unreduced_field(grid, 3, rng))
    ser.save_reduced_section(good, grid, y)
    lines = good.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1])
    truncated.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        ser.load_reduced_section(truncated)


def test_report_format(tmp_path):
    path = tmp_path / "report.txt"
    ser.write_report(path, {"alpha": 1, "beta": 0.5, "label": "ok"})
    assert path.read_text() == "alpha=1\nbeta=0.5\nlabel=ok\n"


def test_csv_writer(tmp_path):
    path = tmp_path / "table.csv"
    ser.write_csv(path, ["i", "value"], [(0, 0.25), (1, 0.5)])
    assert path.read_text().splitlines() == ["i,value", "0,0.25", "1,0.5"]


def _saved(tmp_path, kind):
    grid = triangulated_grid(3, 2)
    rng = np.random.default_rng(4)
    path = tmp_path / f"{kind}.txt"
    if kind == "section":
        field = sampling.random_unreduced_field(grid, 3, rng)
        ser.save_reduced_section(path, grid, reduce_field(grid, field))
        return path, ser.load_reduced_section
    if kind == "field":
        field = sampling.random_unreduced_field(grid, 3, rng)
        ser.save_unreduced_field(path, grid, field)
        return path, ser.load_unreduced_field
    ser.save_multiplier(path, grid, sampling.random_multiplier(grid, 3, rng))
    return path, ser.load_multiplier


@pytest.mark.parametrize("kind", ["section", "field", "multiplier"])
def test_loaders_reject_missing_duplicate_and_nonfinite_records(tmp_path, kind):
    path, load = _saved(tmp_path, kind)
    lines = path.read_text().splitlines()
    body = next(k for k, line in enumerate(lines) if line[:2] in ("v ", "f "))
    words = lines[body + 1].split()
    for value in ("nan", "inf"):
        bad = lines[:body + 1] + [" ".join(words[:4] + [value] + words[5:])] \
            + lines[body + 2:]
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            load(path)
    for bad, message in ((lines[:body] + lines[body + 1:], "missing"),
                         (lines + [lines[body]], "duplicate")):
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=message):
            load(path)


def test_far_corner_record_is_optional_for_sections_only(tmp_path):
    """Saving a section writes no far-corner record and loading puts the
    identity there; a vertex field needs the record like any other."""
    path, load = _saved(tmp_path, "section")
    lines = path.read_text().splitlines()
    assert not any(line.startswith("v 3 2 ") for line in lines)
    grid, y = load(path)
    assert np.array_equal(y.values[grid.vertex_id(3, 2)], np.stack([np.eye(3)] * 2))
    field_path, load_field = _saved(tmp_path, "field")
    lines = field_path.read_text().splitlines()
    kept = [line for line in lines if not line.startswith("v 3 2 ")]
    field_path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ValueError, match="missing"):
        load_field(field_path)
