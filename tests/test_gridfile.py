import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dopplergeo import gridfile
from dopplergeo.dted import DtedError, write_dted
from dopplergeo.gridfile import (
    REQUIRED_KEYS,
    ParseError,
    load_portable_grid,
    make_flat_grid,
    make_ridge_grid,
    read_portable_grid,
    write_portable_grid,
)
from dopplergeo.terrain import VOID_ELEVATION, InvalidGrid, TerrainGrid


def test_two_by_two_round_trip():
    grid = TerrainGrid(lat0=-35.0, lon0=138.25, dlat=0.001, dlon=0.002,
                       H=np.array([[1.5, -2.25], [300.0, np.nan]]), N=-3.5)
    back = read_portable_grid(write_portable_grid(grid))
    assert back.lat0 == grid.lat0 and back.lon0 == grid.lon0
    assert back.dlat == grid.dlat and back.dlon == grid.dlon
    assert np.array_equal(back.H, grid.H, equal_nan=True)
    assert back.N == grid.N


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# voids (NaN), both zeros and any height out to 1e+-300, subnormals
# included; the void value reads back as NaN, which tiles() draws it as (a
# filter here made drawing the tiles ten times slower)
HEIGHTS = st.one_of(st.sampled_from([np.nan, -0.0, 0.0]),
                    st.floats(min_value=-1e300, max_value=1e300))


@st.composite
def tiles(draw):
    """Tiles on the globe: every post row in [-90, 90] degrees of latitude
    (test_terrain checks that the others are rejected); lon0, the heights
    and N take any finite value."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    spacing = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    rows = shape[0] - 1
    dlat = draw(spacing if rows == 0 else st.floats(0.0, 180.0 / rows, exclude_min=True)
                .filter(lambda dlat: dlat * rows <= 180.0))
    span = dlat * rows
    lat0 = draw(st.floats(-90.0, max(90.0 - span, -90.0)).filter(lambda lat0: lat0 + span <= 90.0))
    h = draw(arrays(float, shape, elements=HEIGHTS))
    h[h == VOID_ELEVATION] = np.nan
    return TerrainGrid(lat0=lat0, lon0=draw(FINITE), dlat=dlat, dlon=draw(spacing), H=h,
                       N=draw(FINITE))


@settings(max_examples=150, deadline=None)
@given(grid=tiles())
def test_round_trip_property(grid):
    back = read_portable_grid(write_portable_grid(grid))

    def header(g):
        # bytes, so that -0.0 and 0.0 differ
        return np.array([g.lat0, g.lon0, g.dlat, g.dlon, g.N]).tobytes(), g.H.shape

    assert header(back) == header(grid)
    assert back.H.tobytes() == grid.H.tobytes()


def test_missing_key_names_key():
    grid = make_flat_grid(-35.0, 138.0, 0.001, 0.001, 2, 2)
    text = write_portable_grid(grid).replace("dlon = 0.001\n", "")
    with pytest.raises(ParseError, match="dlon"):
        read_portable_grid(text)


def test_bad_height_reports_line():
    grid = make_flat_grid(-35.0, 138.0, 0.001, 0.001, 2, 2)
    text = write_portable_grid(grid).replace("0.0 0.0", "0.0 oops", 1)
    with pytest.raises(ParseError, match="line"):
        read_portable_grid(text)


def test_wrong_height_count():
    grid = make_flat_grid(-35.0, 138.0, 0.001, 0.001, 2, 2)
    text = write_portable_grid(grid) + "99.0\n"
    with pytest.raises(ParseError, match="expected 4"):
        read_portable_grid(text)


def grid_with(value, at, shape, geoid_n=0.0):
    h = np.zeros(shape)
    h[at] = value
    return TerrainGrid(lat0=-35.0, lon0=138.0, dlat=0.001, dlon=0.001, H=h, N=geoid_n)


def text_with(value, at, shape):
    """Portable grid text whose height at `at` is the token repr(value)."""
    return write_portable_grid(grid_with(1234.5, at, shape)).replace("1234.5", repr(value))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_height_rejected(value):
    # an infinite height makes its block's sphere test compare NaN, which
    # would drop the block from the terrain search with the hits it holds;
    # the format writes a void as VOID_ELEVATION, so a NaN token is refused
    with pytest.raises(ParseError, match="row 1, column 2 is not finite"):
        read_portable_grid(text_with(value, (1, 2), (2, 3)))


def test_nan_height_is_written_as_the_void_value():
    # NaN is a post without a height: the writer writes the format's void
    # value, never "nan", and the reader gives NaN for it
    text = write_portable_grid(grid_with(np.nan, (1, 2), (2, 3)))
    assert text == write_portable_grid(grid_with(VOID_ELEVATION, (1, 2), (2, 3)))
    assert text.endswith("\n0.0 0.0 -32767.0\n")
    assert np.flatnonzero(np.isnan(read_portable_grid(text).H)).tolist() == [5]


def test_non_finite_undulation_rejected(tmp_path):
    with pytest.raises(InvalidGrid, match="N must be finite, got inf"):
        read_portable_grid(write_portable_grid(grid_with(0.0, (0, 0), (1, 2), np.inf)))
    # a companion undulation grid is a portable grid: the same rule
    (tmp_path / "n.grid").write_text(text_with(np.nan, (0, 1), (1, 2)))
    (tmp_path / "tile.grid").write_text(write_portable_grid(grid_with(0.0, (0, 0), (1, 2)))
                                        .replace("geoid_n = 0.0", "geoid_grid = n.grid"))
    with pytest.raises(ParseError, match="row 0, column 1 is not finite"):
        load_portable_grid(str(tmp_path / "tile.grid"))


def test_void_in_undulation_companion_rejected(tmp_path):
    # an undulation has no void: the void value used to be read as an
    # undulation of -32767 m
    (tmp_path / "n.grid").write_text(write_portable_grid(grid_with(np.nan, (1, 0), (2, 3))))
    (tmp_path / "tile.grid").write_text(write_portable_grid(grid_with(5.0, (0, 0), (2, 3)))
                                        .replace("geoid_n = 0.0", "geoid_grid = n.grid"))
    with pytest.raises(ParseError, match="undulation grid n.grid has a void at row 1, column 0"):
        load_portable_grid(str(tmp_path / "tile.grid"))


@pytest.mark.parametrize("key", ["lat0", "lon0", "dlat", "dlon"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_header_value_rejected(key, value):
    # a NaN spacing used to give an empty terrain curve, an infinite origin
    # a traceback
    lines = write_portable_grid(grid_with(0.0, (0, 0), (2, 3))).splitlines(keepends=True)
    text = "".join(f"{key} = {value}\n" if line.startswith(f"{key} =") else line
                   for line in lines)
    # checked by TerrainGrid, which names the field and value
    with pytest.raises(InvalidGrid, match=f"{key} must be finite(?: and positive)?, got {value}"):
        read_portable_grid(text)


@pytest.mark.parametrize("values", [
    {"dlat": "0.0"}, {"dlon": "-0.001"}, {"n_lat": "0"}, {"n_lon": "-2"},
    {"n_lat": "-1", "n_lon": "-1"}])
def test_non_positive_size_rejected(values):
    # the first key edited is the one named; n_lat = n_lon = -1 with one
    # height passes the height count. TerrainGrid checks a spacing, the
    # reader a count.
    text = write_portable_grid(grid_with(0.0, (0, 0), (1, 1)))
    for key, value in values.items():
        text = re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", text)
    key, value = next(iter(values.items()))
    error, message = ((InvalidGrid, f"{key} must be finite and positive, got {value}")
                      if key in ("dlat", "dlon") else
                      (ParseError, f"header value {key} must be positive: {value}"))
    with pytest.raises(error, match=message):
        read_portable_grid(text)


@pytest.mark.parametrize("old, new, message", [
    # a misspelt key used to be kept and unread: the tile read with N = 0
    ("geoid_n = 30.0", "geoid_N = 30.0", "line 8: unknown header key 'geoid_N'"),
    # a second value used to replace the first
    ("geoid_n = 30.0", "geoid_n = 30.0\nlat0 = 12.0", "line 9: repeated header key 'lat0'"),
    ("geoid_n = 30.0", "geoid_n = 30.0\n# a comment\ngeoid_n = 1.0",
     "line 10: repeated header key 'geoid_n'")])
def test_unknown_or_repeated_header_key_rejected(old, new, message):
    text = write_portable_grid(grid_with(0.0, (0, 0), (2, 2), geoid_n=30.0))
    with pytest.raises(ParseError, match=f"^{message}$"):
        read_portable_grid(text.replace(old, new))


def test_comments_ignored():
    grid = make_flat_grid(-35.0, 138.0, 0.001, 0.001, 2, 2, height=7.0)
    text = "# leading comment\n" + write_portable_grid(grid).replace(
        "lat0", "# inline\nlat0")
    assert np.array_equal(read_portable_grid(text).H, grid.H)


def test_geoid_grid_reference_requires_loader():
    text = ("lat0 = 0.0\nlon0 = 0.0\ndlat = 0.001\ndlon = 0.001\n"
            "n_lat = 1\nn_lon = 1\ngeoid_grid = n.grid\n0.0\n")
    with pytest.raises(ParseError, match="load_portable_grid"):
        read_portable_grid(text)


def test_companion_geoid_file(tmp_path):
    n_grid = TerrainGrid(lat0=0.0, lon0=0.0, dlat=0.001, dlon=0.001,
                         H=np.array([[-5.0, -6.0]]))
    (tmp_path / "n.grid").write_text(write_portable_grid(n_grid))
    main = ("lat0 = 0.0\nlon0 = 0.0\ndlat = 0.001\ndlon = 0.001\n"
            "n_lat = 1\nn_lon = 2\ngeoid_grid = n.grid\n100.0 200.0\n")
    (tmp_path / "tile.grid").write_text(main)
    grid = load_portable_grid(str(tmp_path / "tile.grid"))
    assert np.array_equal(np.asarray(grid.N), [[-5.0, -6.0]])
    assert np.array_equal(grid.H, [[100.0, 200.0]])


def test_companion_with_its_own_undulation_rejected(tmp_path):
    # only the companion's heights are read: its geoid_n 7 used to be dropped
    path = write_tile_with_companion(tmp_path, grid_with(-5.0, (0, 0), (2, 2), geoid_n=7.0))
    with pytest.raises(ParseError, match="undulation grid n.grid has geoid_n = 7.0, not 0"):
        load_portable_grid(path)


def write_tile_with_companion(tmp_path, companion: TerrainGrid, tile_text: str = ""):
    """A 2 x 2 tile at (-35, 138) referencing companion; returns its path."""
    (tmp_path / "n.grid").write_text(write_portable_grid(companion))
    tile = tmp_path / "tile.grid"
    tile.write_text(tile_text or write_portable_grid(grid_with(0.0, (0, 0), (2, 2)))
                    .replace("geoid_n = 0.0", "geoid_grid = n.grid"))
    return str(tile)


@pytest.mark.parametrize("key, change", [
    ("lat0", {"lat0": -35.5}), ("lon0", {"lon0": 139.0}), ("dlat", {"dlat": 0.002}),
    ("dlon", {"dlon": 0.002}), ("n_lat", {"H": np.zeros((1, 3))})])
def test_companion_header_must_match_tile(tmp_path, key, change):
    # a companion of another shape used to end in a ValueError, one of the
    # same shape on other posts was applied to the tile's posts
    fields = dict(lat0=-35.0, lon0=138.0, dlat=0.001, dlon=0.001, H=np.zeros((2, 2)))
    path = write_tile_with_companion(tmp_path, TerrainGrid(**{**fields, **change}))
    with pytest.raises(ParseError, match=f"undulation grid n.grid has {key} = "):
        load_portable_grid(path)


def test_tile_with_both_undulation_keys_rejected(tmp_path):
    # geoid_n used to be dropped in favour of the companion
    text = write_portable_grid(grid_with(0.0, (0, 0), (2, 2), geoid_n=7.0)).replace(
        "geoid_n = 7.0", "geoid_n = 7.0\ngeoid_grid = n.grid")
    path = write_tile_with_companion(tmp_path, grid_with(-5.0, (0, 0), (2, 2)), text)
    with pytest.raises(ParseError, match="geoid_n or geoid_grid, not both"):
        load_portable_grid(path)


def test_load_without_reference(tmp_path):
    grid = make_flat_grid(-35.0, 138.0, 0.001, 0.001, 3, 3, height=500.0, geoid_n=2.0)
    (tmp_path / "p.grid").write_text(write_portable_grid(grid))
    back = load_portable_grid(str(tmp_path / "p.grid"))
    assert back.N == 2.0
    assert np.array_equal(back.H, grid.H)


def test_large_grid_round_trip_is_quick():
    import time

    grid = make_flat_grid(-35.0, 138.0, 3 / 3600.0, 3 / 3600.0, 1201, 1201,
                          height=123.0)
    start = time.monotonic()
    back = read_portable_grid(write_portable_grid(grid))
    elapsed = time.monotonic() - start
    assert np.array_equal(back.H, grid.H)
    assert elapsed < 3.0


def test_ridge_profile():
    grid = make_ridge_grid(-35.0, 138.0, 0.001, 0.001, 4, 9, crest=900.0)
    assert grid.H[:, 4].max() == 900.0
    assert grid.H[:, 0].max() == 0.0
    assert (np.diff(grid.H[0, :5]) > 0).all()


# --- the reader's height parse and its per-line oracle ------------------------

def parse_by_line(text):
    """_parse_portable_grid with the per-line loop alone: the oracle of the
    kernel's reads."""
    lines = text.splitlines(keepends=True)
    header, first = gridfile._read_header(lines)
    block = "".join(lines[first:])
    return header, gridfile._grid_fields(header, gridfile._heights_by_line(block, first))


def outcome(parse, text):
    """What a parse gives for text: the header and the fields with H as
    bytes (so -0.0 and 0.0 differ), or the ParseError message."""
    try:
        header, fields = parse(text)
    except ParseError as exc:
        return str(exc)
    return header, {**fields, "H": (fields["H"].tobytes(), fields["H"].shape)}


# numpy's separator " " takes C whitespace (space, \t, \x0b, \x0c between
# tokens); str.split and splitlines also take \x1c and \xa0
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\xa0"]
# tokens that float and numpy read differently or not at all
ODD_TOKENS = ["1_000", "\u0661\u0662\u0663", "inf", "-inf", "nan(1)", "nan", "1e400"]
# tokens at the edges of the integer-mantissa kernel's rules: numpy's
# integer reader takes "- 5" and "+5" as numbers
KERNEL_EDGE_TOKENS = ["-", "+1.5", "5.", "-0.", ".5", "-.5", "1.5.5", "1.5-2.5", "1e5", "7",
                      "123456789012345678.9", "0.00000000000000000000001", "-0.0"]
# heights repr writes in fixed notation, each token -?D+.D+, which the
# kernel reads; HEIGHTS mostly holds exponents, which it leaves to the
# per-line parse
FIXED_HEIGHTS = st.one_of(st.sampled_from([-0.0, 0.0, VOID_ELEVATION]),
                          st.floats(min_value=-1e4, max_value=1e4))


@st.composite
def grid_texts(draw):
    """Portable grid text of a random 1-6 x 1-6 grid in a random layout:
    ragged rows, mixed separators, CR LF, trailing blanks, blank lines and
    comments on height lines, odd tokens, an extra token after the last
    height and a key after the heights. The heights are any floats or
    fixed-notation ones."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    elements = draw(st.sampled_from([HEIGHTS, FIXED_HEIGHTS]))
    grid = TerrainGrid(lat0=-35.0, lon0=138.0, dlat=0.001, dlon=0.001,
                       H=draw(arrays(float, shape, elements=elements)))
    tokens = [repr(v) for v in grid.H.ravel().tolist()]
    damaged = draw(st.booleans())
    if damaged:
        odd = st.sampled_from(ODD_TOKENS + KERNEL_EDGE_TOKENS)
        for at, token in draw(st.lists(st.tuples(st.integers(0, len(tokens) - 1), odd),
                                       max_size=2)):
            tokens[at] = token
        if draw(st.booleans()):
            tokens.append("0.0")
    gaps = len(tokens) - 1
    mixed = draw(st.booleans())
    separators = draw(st.lists(st.sampled_from(SEPARATORS if mixed else [" "]),
                               min_size=gaps, max_size=gaps))
    breaks = draw(st.lists(st.booleans(), min_size=gaps, max_size=gaps))
    rows, row = [], [tokens[0]]
    for token, separator, new_row in zip(tokens[1:], separators, breaks):
        if new_row:
            rows.append(row)
            row = [token]
        else:
            row += [separator, token]
    rows.append(row)
    tails = st.sampled_from(["", " ", "\t ", " # c", "#", "\n", "\n  \n# c"])
    lines = write_portable_grid(grid).splitlines()[:8]
    lines += ["".join(row) + draw(tails if mixed else st.just("")) for row in rows]
    if damaged and draw(st.booleans()):
        lines.append("geoid_n = 1.0")
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=400, deadline=None)
@given(text=grid_texts())
def test_one_call_parse_matches_the_per_line_parse(text):
    assert outcome(gridfile._parse_portable_grid, text) == outcome(parse_by_line, text)


@pytest.mark.parametrize("old, new", [
    ("0.0 0.0\n", "0.0 0.0 # a comment\n"),
    ("5.0 0.0", "1_000 0.0"),
    ("5.0 0.0", "\u0665.0 0.0"),
    ("5.0 0.0", "5.0\x1c0.0"),
    ("5.0 0.0", "5.0\xa00.0"),
    ("5.0 0.0", "nan(1) 0.0"),
    ("5.0 0.0", "5e0 0.0"),
    ("5.0 0.0", "1e-05 0.0"),
    ("0.0 0.0\n", "0.0 0.0\ngeoid_n = 1.0\n")])
def test_inputs_numpy_stops_on_take_the_per_line_parse(monkeypatch, old, new):
    calls = []

    def by_line(block, first):
        calls.append(first)
        return heights_by_line(block, first)

    heights_by_line = gridfile._heights_by_line
    monkeypatch.setattr(gridfile, "_heights_by_line", by_line)
    text = write_portable_grid(grid_with(5.0, (0, 0), (2, 2)))
    assert gridfile._parse_portable_grid(text)[1]["H"].tolist() == [[5.0, 0.0], [0.0, 0.0]]
    assert calls == []
    text = text.replace(old, new, 1)
    assert text != write_portable_grid(grid_with(5.0, (0, 0), (2, 2)))
    read = outcome(gridfile._parse_portable_grid, text)
    assert calls == [8]  # once, from the first height line on, before the oracle's call
    assert read == outcome(parse_by_line, text)


def test_partial_read_warning_is_a_refusal(monkeypatch):
    # numpy releases before the ValueError only warn on a partial read and
    # return the values read so far: a partial integer read leaves the text
    # to the per-line parse
    def warn_and_stop(text, dtype=float, sep=""):
        calls.append(dtype)
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.zeros(4, dtype)

    monkeypatch.setattr(np, "fromstring", warn_and_stop)
    text = write_portable_grid(grid_with(5.0, (0, 0), (2, 2)))
    calls = []
    assert read_portable_grid(text).H.tolist() == [[5.0, 0.0], [0.0, 0.0]]
    assert calls == [np.int64]


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="pins the reader of numpy 2.4.6")
def test_numpy_integer_reader_as_the_kernel_reads_it():
    # a mantissa past 18 digits can saturate, so the kernel refuses any
    # |w| >= 10**18; "-0" loses its sign, which the kernel takes from the
    # token; a point stops the reader, so every point is dropped first; a
    # blank text reads as one 0, which the kernel's count of points refuses
    def read(text):
        return np.fromstring(text, dtype=np.int64, sep=" ").tolist()

    assert read("12345678901234567890 -12345678901234567890") == [2 ** 63 - 1] * 2
    assert read("-0 -00") == [0, 0]
    assert read(" ") == [0]
    assert gridfile._heights_by_mantissa(" ", 0) is None
    with pytest.raises(ValueError):
        read("1.0")


def test_blank_lines_after_the_header_hold_no_height():
    text = "".join(write_portable_grid(grid_with(0.0, (0, 0), (2, 2))).splitlines(True)[:8])
    with pytest.raises(ParseError, match="^expected 4 heights, found 0$"):
        read_portable_grid(text + "   \n\t\n# no heights\n \n")


@pytest.mark.parametrize("cut", [0, 3, 9, 13, 14, 15])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_header_longer_than_the_prefix_read(cut, newline):
    # 200 comment lines put the header's end past the first prefix split,
    # and a later prefix ends cut characters into its last line,
    # "geoid_n = 0.0", or into the line break after it
    grid = grid_with(5.0, (0, 0), (2, 2))
    lines = write_portable_grid(grid).splitlines()
    comments = [f"# comment {i}" for i in range(200)]
    header = newline.join(comments + lines[:7]) + newline
    comments[-1] += "x" * (4 * gridfile._HEADER_PREFIX - cut - len(header))
    text = newline.join(comments + lines) + newline
    assert text.index("geoid_n") == 4 * gridfile._HEADER_PREFIX - cut
    assert outcome(gridfile._parse_portable_grid, text) == outcome(parse_by_line, text)
    assert read_portable_grid(text).H.tolist() == grid.H.tolist()
    for old, new, line in [("n_lon = 2", "n_lon = 2\nn_lon = 2", 208),
                           ("5.0 0.0", "5.0 oops", 209)]:
        bad = text.replace(old, new.replace("\n", newline), 1)
        with pytest.raises(ParseError, match=f"^line {line}: "):
            read_portable_grid(bad)
        assert outcome(gridfile._parse_portable_grid, bad) == outcome(parse_by_line, bad)


# --- the integer-mantissa kernel against float --------------------------------

def kernel_reads(tokens):
    """_heights_by_mantissa of tokens written 100 to a line, or None."""
    text = "\n".join(" ".join(tokens[i:i + 100]) for i in range(0, len(tokens), 100)) + "\n"
    return gridfile._heights_by_mantissa(text, 0)


def as_float(tokens):
    return np.array([float(token) for token in tokens])


def decimal_token(w, f, negative):
    """The token of w / 10**f with f digits after the point."""
    digits = str(w).rjust(f + 1, "0")
    return "-" * negative + digits[:len(digits) - f] + "." + digits[len(digits) - f:]


def random_tokens(rng, n):
    """Tokens of 1-18 digit mantissas with 0-22 digits after the point,
    either sign."""
    digits = rng.integers(1, 19, n).tolist()
    return [decimal_token(int(rng.integers(10 ** (d - 1), 10 ** d)), f, negative)
            for d, f, negative in zip(digits, rng.integers(0, 23, n).tolist(),
                                      rng.integers(0, 2, n).tolist())]


def edge_tokens():
    """Binary midpoints written out in full (ties to even), the digits of
    2**53 + 1 moved into [1e-2, 1e4], powers of two and their neighbours,
    and both zeros."""
    tokens = ["9007199254740993.0", "9007199254740995.0", "4503599627370496.5",
              "18014398509481986.0", "18014398509481990.0", "144115188075855888.",
              "0.0", "-0.0", "-0.", "0.000", "-0000.00"]
    digits = "9007199254740993"
    tokens += [digits[:k] + "." + digits[k:] for k in range(1, 5)] + ["0.09007199254740993"]
    for e in range(-6, 57):
        x = 2.0 ** e
        for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)):
            if 1e-4 <= y < 1e16:  # repr's fixed notation
                tokens += [repr(float(y)), repr(-float(y))]
        if e >= 0:  # the integer itself, and one either side
            tokens += [f"{2 ** e + k}.0" for k in (-1, 0, 1) if 2 ** e + k < 10 ** 17]
    return tokens


def test_kernel_matches_float_on_random_tokens():
    tokens = random_tokens(np.random.default_rng(1990), 100_000)
    assert kernel_reads(tokens).tobytes() == as_float(tokens).tobytes()


def test_kernel_matches_float_on_ties_and_powers_of_two():
    tokens = edge_tokens()
    assert kernel_reads(tokens).tobytes() == as_float(tokens).tobytes()
    assert np.signbit(kernel_reads(["-0.0", "0.0", "-0."])).tolist() == [True, False, True]


@pytest.mark.parametrize("inside, outside", [
    ("12345678901234567.8", "123456789012345678.9"),  # 18 and 19 digits
    ("-99999999999999999.9", "-999999999999999999.9"),
    ("0.0000000000000000000001", "0.00000000000000000000001"),  # 22 and 23 after the point
    ("000000000000000000000012345678901234567.8", "0000123456789012345678.9")])
def test_kernel_limits(inside, outside):
    # a text holding a token past the limits is read by the per-line parse
    assert kernel_reads([inside, "1.5"]).tolist() == [float(inside), 1.5]
    assert kernel_reads([inside, outside]) is None
    text = write_portable_grid(grid_with(7.25, (0, 1), (1, 2))).replace("0.0 7.25", f"{inside} {outside}")
    assert read_portable_grid(text).H.tolist() == [[float(inside), float(outside)]]


@pytest.mark.parametrize("token", ["- 5.0", "-", "+5.0", ".5", "-.5", "5", "5.5.5", "5.0-1.0",
                                   "--5.0", "5.0#", "1e5", "5.0\x1c", "5,0", "5/0", "\xa05.0"])
def test_kernel_refuses_tokens_outside_its_rules(token):
    # numpy's integer reader takes "- 5" and "+5"; the kernel's own rules
    # refuse them, and the per-line parse reads the text
    assert kernel_reads(["1.5", token]) is None
    text = write_portable_grid(grid_with(7.25, (0, 1), (1, 2))).replace("0.0 7.25", f"1.5 {token}")
    assert outcome(gridfile._parse_portable_grid, text) == outcome(parse_by_line, text)


def test_kernel_leaves_few_values_to_float(monkeypatch):
    """Seeded bulk sets: repr of heights over the globe's range and
    arbitrary 17-18 digit decimals. A repr'd height goes to float only
    within 1e-6 ulp of a tie or four ulps of a power of two; an arbitrary
    decimal with few digits after the point is often an exact tie (here
    0.16 %). A kernel that left every value to float would fail here."""
    rng = np.random.default_rng(53)
    n = 200_000
    heights = [repr(h) for h in rng.uniform(-500.0, 9000.0, n).tolist()]
    decimals = [decimal_token(int(w), int(f), int(negative)) for w, f, negative in zip(
        rng.integers(10 ** 16, 10 ** 18, n), rng.integers(0, 23, n), rng.integers(0, 2, n))]
    seen = []

    def counting_float(token):
        seen.append(token)
        return float(token)

    monkeypatch.setattr(gridfile, "float", counting_float, raising=False)
    for tokens, share in ((heights, 1e-4), (decimals, 5e-3)):
        seen.clear()
        assert kernel_reads(tokens).tobytes() == as_float(tokens).tobytes()
        assert len(seen) / n < share, (len(seen), n)


DISPATCH_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import test_gridfile as t
sys.stdout.write(t.dispatch_bytes().hex())
"""


def dispatch_bytes():
    """The kernel's bytes on the exactness sets, for the dispatch test."""
    tokens = random_tokens(np.random.default_rng(7), 20_000) + edge_tokens()
    values = kernel_reads(tokens)
    assert values.tobytes() == as_float(tokens).tobytes()
    return values.tobytes()


def test_kernel_bytes_do_not_depend_on_simd_dispatch():
    # numpy's AVX-512 arctan2 rounds unlike its other loops; the kernel's
    # operations are all correctly rounded, so its bytes must not move
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    features = [name for name in getattr(umath, "__cpu_dispatch__", [])
                if umath.__cpu_features__.get(name)
                and (name.startswith("AVX512") or name == "X86_V4")]
    if not features:
        pytest.skip("this machine reports no AVX-512 feature")
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features),
               PYTHONPATH=os.pathsep.join(filter(None, [
                   os.path.join(os.path.dirname(tests), "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", DISPATCH_CHECK, tests], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert bytes.fromhex(run.stdout) == dispatch_bytes()


def test_load_peak_memory(tmp_path):
    # a 120 x 120 tile of 17-digit heights, the terrain_dense tile: the
    # kernel's byte masks and temporaries stay under 2 MB
    draws = np.random.default_rng(17).uniform(100.0, 1000.0, 80_000).tolist()
    h = np.array([v for v in draws if len(repr(v)) == 18][:14_400]).reshape(120, 120)
    grid = TerrainGrid(lat0=-35.0, lon0=138.0, dlat=0.001, dlon=0.001, H=h)
    path = tmp_path / "tile.grid"
    path.write_text(write_portable_grid(grid))
    assert load_portable_grid(str(path)).H.tobytes() == h.tobytes()
    tracemalloc.start()
    try:
        load_portable_grid(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


# --- the writer's bytes ---------------------------------------------------------

def write_by_repr(grid):
    """write_portable_grid with one repr per height, as before repr_rows:
    the oracle of its bytes."""
    lines = ["# portable terrain grid"]
    lines += [f"{key} = {getattr(grid, key)!r}" for key in REQUIRED_KEYS]
    lines.append(f"geoid_n = {float(grid.N)!r}")
    for row in grid.H.tolist():
        # NaN, a post without a height, is written as the void value
        lines.append(" ".join(repr(VOID_ELEVATION if math.isnan(h) else h) for h in row))
    return "\n".join(lines) + "\n"


WRITER_HEIGHTS = st.one_of(
    st.sampled_from([np.nan, VOID_ELEVATION, -0.0, 0.0]),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and their neighbours
    st.floats(min_value=1e15, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e15),
    st.floats(min_value=-1e-2, max_value=1e-2, exclude_min=True, exclude_max=True),
    st.floats(min_value=-1e4, max_value=1e4))
# below and above repr_rows's 256 values, at which it turns to its kernel
WRITER_SHAPES = st.one_of(st.sampled_from([(1, 1), (15, 17), (16, 16), (1, 257), (20, 30)]),
                          st.tuples(st.integers(1, 30), st.integers(1, 30)))


@settings(max_examples=150, deadline=None)
@given(h=WRITER_SHAPES.flatmap(lambda shape: arrays(float, shape, elements=WRITER_HEIGHTS)))
def test_writer_bytes_match_repr(h):
    grid = TerrainGrid(lat0=-35.0, lon0=138.0, dlat=0.001, dlon=0.002, H=h, N=-3.5)
    assert write_portable_grid(grid) == write_by_repr(grid)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
@pytest.mark.parametrize("write, error", [(write_portable_grid, ValueError),
                                          (write_dted, DtedError)])
def test_writers_refuse_a_grid_without_posts(write, error, shape):
    # TerrainGrid takes an H without posts; both writers used to write a
    # tile that their own reader refuses (n_lat = 0, or a 0000 post count)
    grid = TerrainGrid(lat0=-35.0, lon0=138.0, dlat=1 / 1200, dlon=1 / 1200, H=np.zeros(shape))
    with pytest.raises(error, match=re.escape(f"at least one post, got H of shape {shape}")):
        write(grid)
