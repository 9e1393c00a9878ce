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
    assert y2.shape == y.shape
    assert np.array_equal(y, y2)
    ser.save_reduced_section(tmp_path / "again.txt", grid2, y2)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_unreduced_field_roundtrip(tmp_path):
    grid = triangulated_grid(2, 2)
    rng = np.random.default_rng(1)
    g = sampling.random_unreduced_field(grid, 3, rng)
    path = tmp_path / "field.txt"
    ser.save_unreduced_field(path, grid, g)
    _, g2 = ser.load_unreduced_field(path)
    assert np.array_equal(g, g2)


def test_multiplier_roundtrip(tmp_path):
    grid = triangulated_grid(2, 3)
    rng = np.random.default_rng(2)
    lam = sampling.random_multiplier(grid, 3, rng)
    path = tmp_path / "mult.txt"
    ser.save_multiplier(path, grid, lam)
    _, lam2 = ser.load_multiplier(path)
    assert np.array_equal(lam, lam2)


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
    """A non-finite entry names its line; a missing or repeated record
    names the first line out of its place, and lines past the window's
    records name the first of them."""
    path, load = _saved(tmp_path, kind)
    lines = path.read_text().splitlines()
    tag = lines[6][0]
    words = lines[7].split()
    for value in ("nan", "inf"):
        bad = lines[:7] + [" ".join(words[:4] + [value] + words[5:])] + lines[8:]
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match="^line 8 has non-finite entries$"):
            load(path)
    # a section has no record for its far corner
    count = len(lines) - 6
    appended = f"line {7 + count} is past the window's {count} records"
    for bad, message in (
            (lines[:6] + lines[7:], f"line 7 starts '{tag} 1 0', expected '{tag} 0 0'"),
            (lines[:8] + lines[7:8] + lines[9:], f"line 9 starts '{tag} 1 0', expected '{tag} 2 0'"),
            (lines + lines[-2:], appended)):
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load(path)


# ---------------------------------------------------------------------------
# the record parser against a per-line one


def per_line_parse_records(body, tag, n, components, columns, count) -> np.ndarray:
    """The writer's layout read one line at a time, kept as the array
    parser's oracle: body line k (file line 7 + k) holds the record of id k,
    ``tag i j`` with k = j * columns + i, and there are ``count`` records;
    lines past them are named once the records before them pass."""
    values = np.empty((count, components, n, n))
    seen = np.zeros(count, dtype=bool)
    per_record = components * n * n
    for k, line in enumerate(body[:count]):
        words = line.split()
        i, j = k % columns, k // columns
        if words[:3] != [tag, str(i), str(j)]:
            raise ValueError(f"line {7 + k} starts {' '.join(words[:3])!r}, "
                             f"expected '{tag} {i} {j}'")
        if len(words) != 3 + per_record:
            raise ValueError(f"line {7 + k} has {len(words) - 3} numbers, "
                             f"expected {per_record}")
        numbers = []
        for word in words[3:]:
            try:
                numbers.append(float(word))
            except ValueError:
                raise ValueError(f"line {7 + k} holds {word!r}, which is not a "
                                 f"number") from None
        if not np.isfinite(numbers).all():
            raise ValueError(f"line {7 + k} has non-finite entries")
        values[k] = np.reshape(numbers, (components, n, n))
        seen[k] = True
    if len(body) > count:
        raise ValueError(f"line {7 + count} is past the window's {count} records")
    if not seen.all():
        raise ValueError(f"{int(np.sum(~seen))} of {count} records missing, "
                         f"the first at line {7 + int(np.argmin(seen))}")
    return values


KINDS = {
    # kind: (tag, components, records left out: a section's far corner)
    "section": ("v", 2, 1),
    "field": ("v", 1, 0),
    "multiplier": ("f", 1, 0),
}


def _layout(kind, width, height):
    """Columns and record count of a kind's body."""
    tag, _, left_out = KINDS[kind]
    columns, rows = (width + 1, height + 1) if tag == "v" else (width, height)
    return columns, columns * rows - left_out


def _records(kind, width, height, n, rng):
    """One record line per id the writer writes, in id order, random
    entries."""
    tag, components, _ = KINDS[kind]
    columns, count = _layout(kind, width, height)
    return [f"{tag} {k % columns} {k // columns} "
            + " ".join(map(repr, rng.standard_normal(components * n * n).tolist()))
            for k in range(count)]


DEFECTS = ("tag", "short", "long", "non-integer id", "non-number", "outside",
           "negative id", "int64 id", "duplicate", "nan", "inf", "missing",
           "far corner", "shuffled", "swapped", "blank line")


def _defective(records, defect, kind, width, height, rng):
    """A copy of the records with one defect on one random line."""
    records = list(records)
    k = int(rng.integers(len(records)))
    words = records[k].split()
    if defect == "tag":
        words[0] = "f" if words[0] == "v" else "v"
    elif defect == "short":
        words.pop()
    elif defect == "long":
        words.append("0.5")
    elif defect == "non-integer id":
        words[1 + int(rng.integers(2))] = ("1.5", "x", "1e3")[int(rng.integers(3))]
    elif defect == "non-number":
        bad = ("x", "0x1p3", "1e")[int(rng.integers(3))]
        words[3 + int(rng.integers(len(words) - 3))] = bad
    elif defect == "outside":
        words[1] = str(width + 1 if words[0] == "v" else width)
    elif defect == "negative id":
        words[2] = "-1"
    elif defect == "int64 id":
        # beyond int64 either way
        words[1 + int(rng.integers(2))] = ("9" * 20, "-" + "9" * 19)[int(rng.integers(2))]
    elif defect == "duplicate":
        records.insert(int(rng.integers(k + 1, len(records) + 1)), records[k])
        return records
    elif defect in ("nan", "inf"):
        sign = "-" if rng.random() < 0.5 else ""
        words[3 + int(rng.integers(len(words) - 3))] = sign + defect
    elif defect == "missing":
        return records[:k] + records[k + 1:]
    elif defect == "far corner":
        return records[:-1]
    elif defect == "shuffled":
        return [records[m] for m in rng.permutation(len(records))]
    elif defect == "swapped":
        m = int(rng.integers(len(records)))
        records[k], records[m] = records[m], records[k]
        return records
    elif defect == "blank line":
        records.insert(int(rng.integers(len(records) + 1)), ("", "  ")[int(rng.integers(2))])
        return records
    records[k] = " ".join(words)
    return records


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:
        return str(exc)


def _both(kind, body, width, height, n):
    """What the array parser and the per-line oracle make of one body."""
    tag, components, _ = KINDS[kind]
    args = (body, tag, n, components, *_layout(kind, width, height))
    return _outcome(ser._parse_records, *args), _outcome(per_line_parse_records, *args)


@pytest.mark.parametrize("kind", list(KINDS))
def test_parser_matches_per_line_oracle_on_single_defects(kind):
    """A seeded corpus: every single-defect body gets the oracle's exception
    message, and every body the writer writes (in id order, a section
    without its far corner) the oracle's values, bit for bit.  Only those
    bodies load."""
    rng = np.random.default_rng(list(KINDS).index(kind))
    # the 12x9 bodies span several blocks of lines
    for width, height, n in ((1, 1, 2), (3, 2, 3), (2, 4, 2), (5, 3, 4), (12, 9, 2)):
        records = _records(kind, width, height, n, rng)
        for defect in (None, *DEFECTS):
            for _ in range(3):
                body = records if defect is None else \
                    _defective(records, defect, kind, width, height, rng)
                got, want = _both(kind, body, width, height, n)
                if isinstance(want, str):
                    assert got == want, (defect, body)
                else:
                    # a shuffle or swap may leave a one-record body as it was
                    assert body == records, (defect, body)
                    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", list(KINDS))
def test_two_defects_raise_one_of_their_messages(kind):
    """With defects on two lines the parser still raises ValueError, with
    the message of one of the two defects on its own."""
    rng = np.random.default_rng(10 + list(KINDS).index(kind))
    width, height, n = 3, 2, 2
    records = _records(kind, width, height, n, rng)
    in_place = [d for d in DEFECTS if d not in ("duplicate", "missing", "far corner",
                                                "shuffled", "swapped", "blank line")]
    for _ in range(40):
        first, second = rng.choice(len(in_place), size=2)
        a, b = sorted(rng.choice(len(records), size=2, replace=False))
        one, two = list(records), list(records)
        one[a] = _defective([records[a]], in_place[first], kind, width, height, rng)[0]
        two[b] = _defective([records[b]], in_place[second], kind, width, height, rng)[0]
        both = list(one)
        both[b] = two[b]
        got, _ = _both(kind, both, width, height, n)
        alone = {_both(kind, body, width, height, n)[0] for body in (one, two)}
        assert isinstance(got, str) and got in alone


@pytest.mark.parametrize("key, value", [
    ("n", "3.0"), ("n", " 3"), ("components", "one"), ("width", "+4"),
    ("height", "04"), ("height", ""),
])
def test_header_value_that_is_not_an_integer_names_its_key(tmp_path, key, value):
    """A header value other than an int as the writer writes it raises with
    the key and the value, not Python's bare int() message."""
    path, load = _saved(tmp_path, "field")
    lines = path.read_text().splitlines()
    row = 1 + ["kind", "n", "components", "width", "height"].index(key)
    lines[row] = f"{key}={value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"field file header {key}={value!r} is not an integer"


def test_saved_field_golden_text(tmp_path):
    """Record order, spacing, repr floats and the trailing newline of a saved
    2x2 SO(2) field, pinned byte for byte."""
    grid = triangulated_grid(2, 2)
    values = np.tile(np.eye(2), (9, 1, 1))
    values[1] = [[0.6, -0.8], [0.8, 0.6]]
    values[8] = [[-1.0, -0.0], [0.0, -1.0]]
    path = tmp_path / "field.txt"
    ser.save_unreduced_field(path, grid, values)
    assert path.read_text() == (
        "groupvar-field v1\n"
        "kind=unreduced_field\n"
        "n=2\n"
        "components=1\n"
        "width=2\n"
        "height=2\n"
        "v 0 0 1.0 0.0 0.0 1.0\n"
        "v 1 0 0.6 -0.8 0.8 0.6\n"
        "v 2 0 1.0 0.0 0.0 1.0\n"
        "v 0 1 1.0 0.0 0.0 1.0\n"
        "v 1 1 1.0 0.0 0.0 1.0\n"
        "v 2 1 1.0 0.0 0.0 1.0\n"
        "v 0 2 1.0 0.0 0.0 1.0\n"
        "v 1 2 1.0 0.0 0.0 1.0\n"
        "v 2 2 -1.0 -0.0 0.0 -1.0\n")
    _, loaded = ser.load_unreduced_field(path)
    assert np.array_equal(loaded, values)


def _joined_save(path, kind, grid, tag, values, components):
    """The one-string writer the blocked ``ser._save`` replaced: every line
    in one list, joined once."""
    columns = grid.width + 1 if tag == "v" else grid.width
    lines = [ser.MAGIC, f"kind={kind}", f"n={values.shape[-1]}",
             f"components={components}", f"width={grid.width}",
             f"height={grid.height}"]
    for k, entries in enumerate(values.reshape(len(values), -1)):
        j, i = divmod(k, columns)
        lines.append(f"{tag} {i} {j} {' '.join(map(repr, entries.tolist()))}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("width,height", [(9, 9), (8, 8), (1, 63), (15, 4)])
def test_blocked_writer_matches_the_joined_text(tmp_path, width, height):
    """Fields, sections and multipliers of more than one block of records,
    some of them an exact multiple of the block (the 8x8 window's 64 faces,
    the 1x63 window's 128 vertices), write the bytes of the one-string
    writer."""
    grid = triangulated_grid(width, height)
    rng = np.random.default_rng(width * height)
    field = sampling.random_unreduced_field(grid, 3, rng, 3.0)
    section = reduce_field(grid, field)
    multiplier = sampling.random_multiplier(grid, 3, rng)
    for save, kind, tag, data, records, components in (
            (ser.save_unreduced_field, "unreduced_field", "v", field, field, 1),
            # the far corner of a section is not written
            (ser.save_reduced_section, "reduced_section", "v", section,
             section[:-1], 2),
            (ser.save_multiplier, "multiplier", "f", multiplier,
             multiplier, 1)):
        got, want = tmp_path / f"{kind}.txt", tmp_path / f"{kind}.want"
        save(got, grid, data)
        _joined_save(want, kind, grid, tag, records, components)
        assert got.read_bytes() == want.read_bytes()
