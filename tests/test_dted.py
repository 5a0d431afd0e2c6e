import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopplergeo import dted
from dopplergeo.dted import (
    FIELDS,
    LEVEL_LAT_INTERVAL,
    RECORD_SENTINEL,
    BadMagic,
    ChecksumMismatch,
    DtedError,
    InconsistentHeader,
    SpacingMismatch,
    TruncatedFile,
    level_for_spacing,
    read_dted,
    write_dted,
)
from dopplergeo.gridfile import make_flat_grid
from dopplergeo.terrain import VOID_ELEVATION, InvalidGrid, TerrainGrid

from terrain_oracles import make_random_tile

HEADERS = 80 + 648 + 2700


def small_tile(level=1):
    spacing = {0: 300, 1: 30, 2: 10}[level] / 36000.0
    h = np.arange(12, dtype=float).reshape(4, 3) * 10.0 - 40.0
    return TerrainGrid(lat0=-35.0, lon0=138.0, dlat=spacing, dlon=spacing, H=h)


def test_round_trip_identity():
    grid = small_tile()
    back = read_dted(write_dted(grid))
    assert back.lat0 == grid.lat0 and back.lon0 == grid.lon0
    assert back.dlat == grid.dlat and back.dlon == grid.dlon
    assert np.array_equal(back.H, grid.H)


def test_round_trip_random_tiles_all_levels():
    rng = np.random.default_rng(71)
    for _ in range(30):
        level = int(rng.integers(0, 3))
        grid = make_random_tile(rng, level)
        back = read_dted(write_dted(grid))
        assert np.array_equal(back.H, grid.H)
        assert (back.lat0, back.lon0, back.dlat, back.dlon) == \
               (grid.lat0, grid.lon0, grid.dlat, grid.dlon)


def test_voids_survive_and_are_not_zero():
    grid = small_tile()
    grid.H[2, 1] = VOID_ELEVATION
    back = read_dted(write_dted(grid))
    assert back.H[2, 1] == VOID_ELEVATION


def test_negative_elevations_sign_magnitude():
    grid = small_tile()
    assert (grid.H < 0).any()
    back = read_dted(write_dted(grid))
    assert np.array_equal(back.H, grid.H)


def test_bad_magic():
    with pytest.raises(BadMagic):
        read_dted(b"")
    with pytest.raises(BadMagic):
        read_dted(b"XHL1" + b" " * 200)


def test_truncated_stream():
    data = write_dted(small_tile())
    with pytest.raises(TruncatedFile):
        read_dted(data[:HEADERS - 10])
    with pytest.raises(TruncatedFile):
        read_dted(data[:-6])


def test_checksum_mismatch_names_record():
    grid = small_tile()
    data = bytearray(write_dted(grid))
    rec_size = 8 + 2 * grid.n_lat + 4
    data[HEADERS + rec_size + 9] ^= 0x5A  # corrupt record 1 payload
    with pytest.raises(ChecksumMismatch) as err:
        read_dted(bytes(data))
    assert err.value.record == 1


def test_bad_record_sentinel():
    grid = small_tile()
    data = bytearray(write_dted(grid))
    data[HEADERS] = 0x00
    with pytest.raises(InconsistentHeader):
        read_dted(bytes(data))


def test_level_spacing_consistency_checked():
    grid = small_tile(level=1)
    data = bytearray(write_dted(grid))
    data[80 + 59:80 + 64] = b"DTED2"  # claim level 2 over level-1 spacing
    with pytest.raises(InconsistentHeader):
        read_dted(bytes(data))


def test_writer_rejects_unencodable_spacing():
    grid = make_flat_grid(-35.0, 138.0, 0.001234, 0.001234, 4, 4)
    with pytest.raises(SpacingMismatch):
        write_dted(grid)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_writer_rejects_non_finite_heights(value):
    # NaN rounds to the lowest int64, which passes the 16-bit range check
    # and would be written as 0 m
    h = small_tile().H.copy()
    h[2, 1] = value
    grid = TerrainGrid(lat0=-35.0, lon0=138.0, dlat=30 / 36000.0, dlon=30 / 36000.0, H=h)
    with pytest.raises(DtedError, match="finite"):
        write_dted(grid)


@pytest.mark.parametrize("lat0, lon0, shape", [
    (-35.0, 138.0, (10000, 1)), (-35.0, 138.0, (1, 10000))])
def test_writer_rejects_values_wider_than_their_field(lat0, lon0, shape):
    # a five-digit post count used to widen the UHL past its 80 bytes
    grid = make_flat_grid(lat0, lon0, 1 / 3600, 1 / 3600, *shape)
    with pytest.raises(DtedError, match="does not fit"):
        write_dted(grid)


@pytest.mark.parametrize("lon0", [400.0, 1000.0, -180.5])
def test_writer_rejects_longitude_off_the_globe(lon0):
    # 400 used to be written as 4000000E and read back as 400.0; 1000 is
    # also too wide for its field
    grid = make_flat_grid(-35.0, lon0, 1 / 3600, 1 / 3600, 2, 2)
    with pytest.raises(DtedError, match=f"origin longitude {lon0} lies outside"):
        write_dted(grid)


@pytest.mark.parametrize("lon0", [-180.0, 180.0])
def test_origin_on_the_antimeridian_round_trips(lon0):
    grid = make_flat_grid(-35.0, lon0, 1 / 3600, 1 / 3600, 2, 2)
    assert read_dted(write_dted(grid)).lon0 == lon0


def test_level_for_spacing():
    assert level_for_spacing(300 / 36000.0) == 0
    assert level_for_spacing(30 / 36000.0) == 1
    assert level_for_spacing(10 / 36000.0) == 2
    with pytest.raises(SpacingMismatch):
        level_for_spacing(17 / 36000.0)


@pytest.mark.parametrize("level", sorted(LEVEL_LAT_INTERVAL))
@pytest.mark.parametrize("lat0", [89.0, -90.0])
def test_cell_ending_at_a_pole_round_trips(level, lat0):
    # a one-degree cell: its last row is exactly 90 or -89 at every level
    rows = 36000 // LEVEL_LAT_INTERVAL[level] + 1
    grid = make_flat_grid(lat0, 0.0, LEVEL_LAT_INTERVAL[level] / 36000.0, 0.01, rows, 2)
    assert grid.lats()[-1] == lat0 + 1.0
    back = read_dted(write_dted(grid))
    assert (back.lat0, back.dlat, back.H.shape) == (lat0, grid.dlat, grid.H.shape)


def test_header_off_the_globe_rejected():
    data = bytearray(write_dted(small_tile()))
    data[12:20] = b"0950000N"  # lat0 95 N
    with pytest.raises(InvalidGrid, match="from latitude 95.0"):
        read_dted(bytes(data))


def test_header_longitude_off_the_globe_rejected():
    data = bytearray(write_dted(small_tile()))
    data[4:12] = b"4000000E"  # lon0 400 E
    with pytest.raises(InconsistentHeader, match="origin longitude 400.0 lies outside"):
        read_dted(bytes(data))


@pytest.mark.parametrize("field, text, message", [
    # read_dted used to take all of these: 1389999E as 139.6775, 1384500X as
    # 138.75 E, 0344500E as 34.75 N, ...
    ("lon0", b"1389999E", "lon0 b'1389999E': minutes and seconds must be below 60"),
    ("lon0", b"1386000E", "lon0 b'1386000E': minutes and seconds must be below 60"),
    ("lat0", b"0344560S", "lat0 b'0344560S': minutes and seconds must be below 60"),
    ("lon0", b"1384500X", "lon0 b'1384500X': hemisphere must be E or W"),
    ("lon0", b"1384500N", "lon0 b'1384500N': hemisphere must be E or W"),
    ("lat0", b"0344500E", "lat0 b'0344500E': hemisphere must be N or S"),
    ("lat0", b"0344500s", "lat0 b'0344500s': hemisphere must be N or S"),
    # ... and int() took signs, blanks and non-ASCII digits
    ("lat0", b" 344500S", "lat0 b' 344500S': degrees, minutes and seconds must be ASCII digits"),
    ("lon0", b"+384500E", "lon0 b'+384500E': degrees, minutes and seconds must be ASCII digits"),
    ("lon0", "13845\u0661E".encode(),
     r"lon0 b'13845\xd9\xa1E': degrees, minutes and seconds must be ASCII digits")])
def test_header_origin_field_rejected(field, text, message):
    data = bytearray(write_dted(small_tile()))
    data[FIELDS[field]] = text
    with pytest.raises(InconsistentHeader, match=f"^{re.escape(message)}$"):
        read_dted(bytes(data))


@pytest.mark.parametrize("lat0, lon0", [(-34.7625, -58.3825), (0.0, 0.0), (12.5, 179.0)])
def test_gen_tile_origin_reads_back(tmp_path, lat0, lon0):
    from dopplergeo.cli import main

    tile = tmp_path / "tile.dt1"
    assert main(["gen-tile", "--format", "dted", "--out-path", str(tile), "--lat0", repr(lat0),
                 "--lon0", repr(lon0), "--n-lat", "4", "--n-lon", "4"]) == 0
    back = read_dted(tile.read_bytes())
    assert (back.lat0, back.lon0) == (lat0, lon0)


def test_geoid_attached_at_read_time():
    back = read_dted(write_dted(small_tile()), geoid_n=-4.5)
    assert back.N == -4.5


@pytest.mark.parametrize("geoid_n", [math.nan, math.inf])
def test_non_finite_geoid_rejected_at_read_time(geoid_n):
    # TerrainGrid checks the undulation, as it does for a portable grid
    with pytest.raises(InvalidGrid, match=f"N must be finite, got {geoid_n}"):
        read_dted(write_dted(small_tile()), geoid_n=geoid_n)


def records_by_loop(data: bytes) -> np.ndarray:
    """The per-record reader that read_dted's one-pass parse replaced, kept
    as its oracle: record by record, the sentinel, then the checksum, then
    the sign-magnitude words of the column. Returns H [lat, lon]."""
    n_lon, n_lat = int(data[47:51]), int(data[51:55])
    rec_size = 8 + 2 * n_lat + 4
    heights = np.empty((n_lat, n_lon), dtype=float)
    for j in range(n_lon):
        rec = data[HEADERS + j * rec_size: HEADERS + (j + 1) * rec_size]
        if rec[0] != RECORD_SENTINEL:
            raise InconsistentHeader(f"record {j}: bad sentinel byte {rec[0]:#x}")
        expected = int.from_bytes(rec[-4:], "big")
        actual = sum(rec[:-4]) & 0xFFFFFFFF
        if actual != expected:
            raise ChecksumMismatch(j, expected, actual)
        raw = np.frombuffer(rec[8:8 + 2 * n_lat], dtype=">u2").astype(np.int64)
        heights[:, j] = np.where(raw & 0x8000, -(raw & 0x7FFF), raw).astype(float)
    return heights


def write_by_loop(grid: TerrainGrid, level: int) -> bytes:
    """The per-record writer that write_dted's record array replaced, kept
    as its oracle: its own header offsets, then record by record the
    sentinel, the counts, the sign-magnitude words of the column and the
    byte sum. Takes a grid that write_dted accepts."""
    def angle(value, hemispheres):
        d, rem = divmod(round(abs(value) * 3600.0), 3600)
        return f"{d:03d}{rem // 60:02d}{rem % 60:02d}{hemispheres[value < 0.0]}".encode()

    uhl = bytearray(b" " * 80)
    uhl[0:4] = b"UHL1"
    uhl[4:12] = angle(grid.lon0, "EW")
    uhl[12:20] = angle(grid.lat0, "NS")
    uhl[20:24] = f"{round(grid.dlon * 36000.0):04d}".encode()
    uhl[24:28] = f"{round(grid.dlat * 36000.0):04d}".encode()
    uhl[28:32] = b"NA  "
    uhl[32:35] = b"U  "
    uhl[47:51] = f"{grid.n_lon:04d}".encode()
    uhl[51:55] = f"{grid.n_lat:04d}".encode()
    uhl[55:56] = b"0"
    dsi = bytearray(b" " * 648)
    dsi[0:4] = b"DSIU"
    dsi[59:64] = f"DTED{level}".encode()
    acc = b"ACC" + b" " * 2697
    records = bytearray()
    for j in range(grid.n_lon):
        rec = bytearray([RECORD_SENTINEL]) + j.to_bytes(3, "big") + j.to_bytes(2, "big") + bytes(2)
        vals = np.rint(grid.H[:, j]).astype(np.int64)
        rec += np.where(vals < 0, 0x8000 | -vals, vals).astype(">u2").tobytes()
        rec += (sum(rec) & 0xFFFFFFFF).to_bytes(4, "big")
        records += rec
    return bytes(uhl) + bytes(dsi) + acc + bytes(records)


@settings(max_examples=150, deadline=None)
@given(level=st.sampled_from(sorted(LEVEL_LAT_INTERVAL)), n_lat=st.integers(1, 40),
       n_lon=st.integers(1, 40), lon_factor=st.integers(1, 3),
       void_fraction=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2 ** 16))
def test_array_writer_matches_record_loop(level, n_lat, n_lon, lon_factor, void_fraction,
                                          seed):
    rng = np.random.default_rng(seed)
    spacing = LEVEL_LAT_INTERVAL[level] / 36000.0
    # whole and half meters of either sign (halves round to even), the
    # ends of the 16-bit range and voids
    h = rng.integers(-32766, 32767, size=(n_lat, n_lon)) + rng.choice(
        [0.0, 0.25, 0.5, -0.5], size=(n_lat, n_lon))
    h[rng.random((n_lat, n_lon)) < 0.1] = 32767.0
    h[rng.random((n_lat, n_lon)) < 0.1] = -32767.0
    h[rng.random((n_lat, n_lon)) < void_fraction] = VOID_ELEVATION
    # the last row at most at the pole: each row is a whole number of arcseconds
    top = 90 * 3600 - LEVEL_LAT_INTERVAL[level] // 10 * (n_lat - 1)
    grid = TerrainGrid(lat0=float(rng.integers(-90 * 3600, top + 1)) / 3600.0,
                       lon0=float(rng.integers(-180 * 3600, 180 * 3600)) / 3600.0,
                       dlat=spacing, dlon=spacing * lon_factor, H=h)
    data = write_dted(grid)
    assert data == write_by_loop(grid, level)
    assert np.array_equal(read_dted(data).H, np.rint(h))


def outcome(reader, data):
    """H as bytes, or the error's class and message."""
    try:
        return reader(data).tobytes()
    except (InconsistentHeader, ChecksumMismatch) as exc:
        return type(exc), str(exc)


def set_checksum(data: bytearray, j: int, rec_size: int):
    start = HEADERS + j * rec_size
    total = sum(data[start:start + rec_size - 4]) & 0xFFFFFFFF
    data[start + rec_size - 4:start + rec_size] = total.to_bytes(4, "big")


@settings(max_examples=150, deadline=None)
@given(level=st.sampled_from(sorted(LEVEL_LAT_INTERVAL)), n_lat=st.integers(1, 40),
       n_lon=st.integers(1, 40), void_fraction=st.sampled_from([0.0, 0.3]),
       words=st.integers(0, 3), faults=st.lists(
           st.tuples(st.sampled_from(["sentinel", "byte"]), st.floats(0.0, 1.0),
                     st.floats(0.0, 1.0), st.integers(1, 255)), max_size=3),
       slab=st.sampled_from([1, 3, 7, dted.TRANSPOSE_SLAB]), seed=st.integers(0, 2 ** 16))
def test_one_pass_reader_matches_record_loop(level, n_lat, n_lon, void_fraction, words,
                                             faults, slab, seed):
    rng = np.random.default_rng(seed)
    spacing = LEVEL_LAT_INTERVAL[level] / 36000.0
    h = rng.integers(-12000, 9000, size=(n_lat, n_lon)).astype(float)
    h[rng.random((n_lat, n_lon)) < void_fraction] = VOID_ELEVATION
    grid = TerrainGrid(lat0=float(rng.integers(-80, 80)), lon0=float(rng.integers(-179, 179)),
                       dlat=spacing, dlon=spacing, H=h)
    data = bytearray(write_dted(grid))
    rec_size = 8 + 2 * n_lat + 4
    # any 16-bit word, the sign-magnitude negative zero 0x8000 (+0.0) and
    # the void 0xFFFF included, written with a valid checksum
    for _ in range(words):
        j, i = int(rng.integers(n_lon)), int(rng.integers(n_lat))
        word = int(rng.choice([0x8000, 0xFFFF, int(rng.integers(0, 0x10000))]))
        start = HEADERS + j * rec_size + 8 + 2 * i
        data[start:start + 2] = word.to_bytes(2, "big")
        set_checksum(data, j, rec_size)
    # a bad sentinel, or any other byte of a record flipped (its payload,
    # count fields or stored checksum), at random records
    for kind, f_rec, f_byte, flip in faults:
        start = HEADERS + min(int(f_rec * n_lon), n_lon - 1) * rec_size
        offset = 0 if kind == "sentinel" else 1 + min(int(f_byte * (rec_size - 1)), rec_size - 2)
        data[start + offset] ^= flip
    expected = outcome(records_by_loop, bytes(data))

    def heights(d):
        h = read_dted(d).H
        assert h.dtype == np.float64 and h.flags.c_contiguous
        return h

    # slabs of 1, 3 and 7 records leave a short last slab on most tiles
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dted, "TRANSPOSE_SLAB", slab)
        assert outcome(heights, bytes(data)) == expected
    if not faults and not words:
        assert expected == h.tobytes()
