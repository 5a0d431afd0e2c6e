import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dopplergeo import gridfile
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
# included, but the void value, which reads back as NaN
HEIGHTS = st.one_of(st.sampled_from([np.nan, -0.0, 0.0]),
                    st.floats(min_value=-1e300, max_value=1e300)
                    .filter(lambda h: h != VOID_ELEVATION))


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
    return TerrainGrid(lat0=lat0, lon0=draw(FINITE), dlat=dlat,
                       dlon=draw(spacing), H=draw(arrays(float, shape, elements=HEIGHTS)),
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


# --- the one-call height parse and its per-line oracle -----------------------

def parse_by_line(text):
    """_parse_portable_grid with the per-line loop alone: the oracle of the
    one-call parse."""
    lines = text.splitlines(keepends=True)
    header, first = gridfile._read_header(lines)
    return header, gridfile._grid_fields(header, gridfile._heights_by_line(lines, first))


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


@st.composite
def grid_texts(draw):
    """Portable grid text of a random 1-6 x 1-6 grid in a random layout:
    ragged rows, mixed separators, CR LF, trailing blanks, blank lines and
    comments on height lines, odd tokens, an extra token after the last
    height and a key after the heights."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    grid = TerrainGrid(lat0=-35.0, lon0=138.0, dlat=0.001, dlon=0.001,
                       H=draw(arrays(float, shape, elements=HEIGHTS)))
    tokens = [repr(v) for v in grid.H.ravel().tolist()]
    damaged = draw(st.booleans())
    if damaged:
        for at, token in draw(st.lists(st.tuples(st.integers(0, len(tokens) - 1),
                                                 st.sampled_from(ODD_TOKENS)), max_size=2)):
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
    ("0.0 0.0\n", "0.0 0.0\ngeoid_n = 1.0\n")])
def test_inputs_numpy_stops_on_take_the_per_line_parse(monkeypatch, old, new):
    calls = []

    def by_line(lines, first):
        calls.append(first)
        return heights_by_line(lines, first)

    heights_by_line = gridfile._heights_by_line
    monkeypatch.setattr(gridfile, "_heights_by_line", by_line)
    text = write_portable_grid(grid_with(5.0, (0, 0), (2, 2)))
    assert gridfile._parse_portable_grid(text)[1]["H"].tolist() == [[5.0, 0.0], [0.0, 0.0]]
    assert calls == []
    text = text.replace(old, new, 1)
    assert text != write_portable_grid(grid_with(5.0, (0, 0), (2, 2)))
    assert outcome(gridfile._parse_portable_grid, text) == outcome(parse_by_line, text)
    assert calls[0] == 8  # from the first height line on


def test_partial_read_warning_is_a_refusal(monkeypatch):
    # numpy releases before the ValueError only warn on a partial read and
    # return the values read so far
    def warn_and_stop(block, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.zeros(4)

    monkeypatch.setattr(np, "fromstring", warn_and_stop)
    text = write_portable_grid(grid_with(5.0, (0, 0), (2, 2)))
    assert read_portable_grid(text).H.tolist() == [[5.0, 0.0], [0.0, 0.0]]


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="pins the quirk of numpy 2.4.6")
def test_numpy_reads_a_blank_text_as_minus_one():
    # why the one-call block starts on a height line that is not blank
    assert np.fromstring(" ", sep=" ").tolist() == [-1.0]


def test_blank_lines_after_the_header_hold_no_height():
    text = "".join(write_portable_grid(grid_with(0.0, (0, 0), (2, 2))).splitlines(True)[:8])
    with pytest.raises(ParseError, match="^expected 4 heights, found 0$"):
        read_portable_grid(text + "   \n\t\n# no heights\n \n")


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
