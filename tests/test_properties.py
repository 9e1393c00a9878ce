"""Property tests over group sizes, windows and seeds.

Derandomized, so every run draws the same examples, and bounded, so the
module stays a few seconds long.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from groupvar import reduction as red, sampling, serialization as ser
from groupvar.complexes import triangulated_grid

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

cases = st.tuples(st.integers(2, 5), st.integers(1, 6), st.integers(1, 6),
                  st.integers(0, 2**32 - 1))


def _round_trip(save, load, grid, data, tag):
    """save -> load -> save; the second file must equal the first byte for
    byte, and the loaded array the saved one bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / f"{tag}1.txt", Path(tmp) / f"{tag}2.txt"
        save(first, grid, data)
        loaded_grid, loaded = load(first)
        assert (loaded_grid.width, loaded_grid.height) == (grid.width, grid.height)
        save(second, loaded_grid, loaded)
        assert second.read_bytes() == first.read_bytes()
    assert loaded.values.dtype == data.values.dtype
    assert np.array_equal(loaded.values, data.values)
    assert np.array_equal(np.signbit(loaded.values), np.signbit(data.values))


@PROPERTY
@given(cases, st.booleans())
def test_field_files_round_trip(case, flat):
    n, width, height, seed = case
    grid = triangulated_grid(width, height)
    rng = np.random.default_rng(seed)
    field = sampling.random_unreduced_field(grid, n, rng)
    section = red.reduce_field(grid, field) if flat \
        else sampling.random_section(grid, n, rng)
    _round_trip(ser.save_unreduced_field, ser.load_unreduced_field, grid, field, "g")
    _round_trip(ser.save_reduced_section, ser.load_reduced_section, grid, section, "y")
    _round_trip(ser.save_multiplier, ser.load_multiplier, grid,
                sampling.random_multiplier(grid, n, rng), "lam")


@PROPERTY
@given(cases, st.floats(0.0, 3.0))
def test_reduce_then_reconstruct_returns_the_field(case, scale):
    n, width, height, seed = case
    grid = triangulated_grid(width, height)
    field = sampling.random_unreduced_field(grid, n, np.random.default_rng(seed), scale)
    y = red.reduce_field(grid, field)
    rep = red.reconstruction_report(grid, y, field.values[0])
    assert np.linalg.norm(rep.field.values - field.values, axis=(-2, -1)).max() <= 1e-12
    assert rep.path_agreement <= 1e-12
