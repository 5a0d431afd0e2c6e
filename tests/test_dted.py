import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopplergeo.dted import (
    LEVEL_LAT_INTERVAL,
    RECORD_SENTINEL,
    BadMagic,
    ChecksumMismatch,
    InconsistentHeader,
    SpacingMismatch,
    TruncatedFile,
    level_for_spacing,
    read_dted,
    write_dted,
)
from dopplergeo.gridfile import make_flat_grid, make_random_tile
from dopplergeo.terrain import VOID_ELEVATION, TerrainGrid

HEADERS = 80 + 648 + 2700


def small_tile(level=1):
    spacing = {0: 300, 1: 30, 2: 10}[level] / 36000.0
    h = np.arange(12, dtype=float).reshape(4, 3) * 10.0 - 40.0
    return TerrainGrid(lat0=-35.0, lon0=138.0, dlat=spacing, dlon=spacing, H=h)


def test_round_trip_identity():
    grid = small_tile()
    back = read_dted(write_dted(grid, 1))
    assert back.lat0 == grid.lat0 and back.lon0 == grid.lon0
    assert back.dlat == grid.dlat and back.dlon == grid.dlon
    assert np.array_equal(back.H, grid.H)


def test_round_trip_random_tiles_all_levels():
    rng = np.random.default_rng(71)
    for _ in range(30):
        level = int(rng.integers(0, 3))
        grid = make_random_tile(rng, level)
        back = read_dted(write_dted(grid, level))
        assert np.array_equal(back.H, grid.H)
        assert (back.lat0, back.lon0, back.dlat, back.dlon) == \
               (grid.lat0, grid.lon0, grid.dlat, grid.dlon)


def test_voids_survive_and_are_not_zero():
    grid = small_tile()
    grid.H[2, 1] = VOID_ELEVATION
    back = read_dted(write_dted(grid, 1))
    assert back.H[2, 1] == VOID_ELEVATION
    assert back.void_mask[2, 1]


def test_negative_elevations_sign_magnitude():
    grid = small_tile()
    assert (grid.H < 0).any()
    back = read_dted(write_dted(grid, 1))
    assert np.array_equal(back.H, grid.H)


def test_bad_magic():
    with pytest.raises(BadMagic):
        read_dted(b"")
    with pytest.raises(BadMagic):
        read_dted(b"XHL1" + b" " * 200)


def test_truncated_stream():
    data = write_dted(small_tile(), 1)
    with pytest.raises(TruncatedFile):
        read_dted(data[:HEADERS - 10])
    with pytest.raises(TruncatedFile):
        read_dted(data[:-6])


def test_checksum_mismatch_names_record():
    grid = small_tile()
    data = bytearray(write_dted(grid, 1))
    rec_size = 8 + 2 * grid.n_lat + 4
    data[HEADERS + rec_size + 9] ^= 0x5A  # corrupt record 1 payload
    with pytest.raises(ChecksumMismatch) as err:
        read_dted(bytes(data))
    assert err.value.record == 1


def test_bad_record_sentinel():
    grid = small_tile()
    data = bytearray(write_dted(grid, 1))
    data[HEADERS] = 0x00
    with pytest.raises(InconsistentHeader):
        read_dted(bytes(data))


def test_level_spacing_consistency_checked():
    grid = small_tile(level=1)
    data = bytearray(write_dted(grid, 1))
    data[80 + 59:80 + 64] = b"DTED2"  # claim level 2 over level-1 spacing
    with pytest.raises(InconsistentHeader):
        read_dted(bytes(data))


def test_writer_rejects_wrong_level():
    with pytest.raises(SpacingMismatch):
        write_dted(small_tile(level=1), 2)


def test_writer_rejects_unencodable_spacing():
    grid = make_flat_grid(-35.0, 138.0, 0.001234, 0.001234, 4, 4)
    with pytest.raises(SpacingMismatch):
        write_dted(grid, 1)


def test_level_for_spacing():
    assert level_for_spacing(300 / 36000.0) == 0
    assert level_for_spacing(30 / 36000.0) == 1
    assert level_for_spacing(10 / 36000.0) == 2
    with pytest.raises(SpacingMismatch):
        level_for_spacing(17 / 36000.0)


def test_geoid_attached_at_read_time():
    back = read_dted(write_dted(small_tile(), 1), geoid_n=-4.5)
    assert back.N == -4.5


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
       seed=st.integers(0, 2 ** 16))
def test_one_pass_reader_matches_record_loop(level, n_lat, n_lon, void_fraction, words,
                                             faults, seed):
    rng = np.random.default_rng(seed)
    spacing = LEVEL_LAT_INTERVAL[level] / 36000.0
    h = rng.integers(-12000, 9000, size=(n_lat, n_lon)).astype(float)
    h[rng.random((n_lat, n_lon)) < void_fraction] = VOID_ELEVATION
    grid = TerrainGrid(lat0=float(rng.integers(-80, 80)), lon0=float(rng.integers(-179, 179)),
                       dlat=spacing, dlon=spacing, H=h)
    data = bytearray(write_dted(grid, level))
    rec_size = 8 + 2 * n_lat + 4
    # any 16-bit word, the sign-magnitude negative zero 0x8000 included,
    # written with a valid checksum
    for _ in range(words):
        j, i = int(rng.integers(n_lon)), int(rng.integers(n_lat))
        word = int(rng.choice([0x8000, int(rng.integers(0, 0x10000))]))
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
    assert outcome(lambda d: read_dted(d).H, bytes(data)) == expected
    if not faults and not words:
        assert expected == h.tobytes()
