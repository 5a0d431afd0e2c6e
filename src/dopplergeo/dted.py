# dted.py
# -------------------------------------------------------------
# DTED terrain tile binary format (levels 0/1/2): UHL + DSI + ACC headers
# followed by per-longitude-column records of sign-magnitude big-endian
# elevations with an additive checksum. The writer and the reader share one
# layout: the header field table and the (n_lon, record size) record array.

from __future__ import annotations

import numpy as np

from .terrain import TerrainGrid

UHL_SIZE = 80
DSI_SIZE = 648
ACC_SIZE = 2700
HEADER_SIZE = UHL_SIZE + DSI_SIZE + ACC_SIZE
RECORD_SENTINEL = 0xAA

# each header field's bytes, from the start of the stream
FIELDS = {"lon0": slice(4, 12), "lat0": slice(12, 20), "lon_interval": slice(20, 24),
          "lat_interval": slice(24, 28), "n_lon": slice(47, 51), "n_lat": slice(51, 55),
          "level": slice(UHL_SIZE + 59, UHL_SIZE + 64)}
# the sentinels, which the reader checks, and the writer's other constant text
SENTINELS = {0: b"UHL1", UHL_SIZE: b"DSI", UHL_SIZE + DSI_SIZE: b"ACC"}
FIXED_TEXT = {28: b"NA  U  ", 55: b"0", UHL_SIZE + 3: b"U"}

# nominal latitude interval per level, tenths of arcseconds
LEVEL_LAT_INTERVAL = {0: 300, 1: 30, 2: 10}

# records (longitude columns) per slab of the reader's word transpose. On a
# 3 601 x 3 601 level-2 tile the whole-tile transpose takes 88 ms, and
# slabs of 16 to 2 048 records take 31-36 ms; 256 lies well inside that
# range (2-CPU Xeon VM, 2 MB L2, numpy 2.4.6).
TRANSPOSE_SLAB = 256


class DtedError(ValueError):
    pass


class BadMagic(DtedError):
    """Stream does not begin with the UHL1 sentinel."""


class TruncatedFile(DtedError):
    """Stream ends before the declared records are complete."""


class ChecksumMismatch(DtedError):
    """A data record failed its additive checksum."""

    def __init__(self, record: int, expected: int, actual: int):
        self.record = record
        super().__init__(f"record {record}: checksum {actual} != expected {expected}")


class InconsistentHeader(DtedError):
    """Header fields disagree with each other or with the data records."""


class SpacingMismatch(DtedError):
    """Grid spacing cannot be encoded for the requested level."""


def _encode_angle(value_deg: float, hemispheres: str) -> str:
    """Degrees -> DDDMMSSH text. The value must sit on a whole arcsecond
    (DTED origins always do)."""
    hemi = hemispheres[0] if value_deg >= 0.0 else hemispheres[1]
    total = abs(value_deg) * 3600.0
    secs = round(total)
    if abs(total - secs) > 1e-6:
        raise SpacingMismatch(f"origin {value_deg} deg not on a whole arcsecond")
    d, rem = divmod(int(secs), 3600)
    m, s = divmod(rem, 60)
    return f"{d:03d}{m:02d}{s:02d}{hemi}"


def _check_longitude(lon_deg: float, error: type[DtedError]) -> None:
    """A DTED origin longitude lies in [-180, 180], though a portable
    grid's may not: the writer raises DtedError, the reader
    InconsistentHeader."""
    if not -180.0 <= lon_deg <= 180.0:
        raise error(f"origin longitude {lon_deg} lies outside [-180, 180]")


def _decode_angle(data: bytes, name: str, hemispheres: str) -> float:
    """Header field name, DDDMMSSH text, -> degrees. The digits must be
    ASCII, the minutes and seconds below 60 and the letter one of
    hemispheres (the positive one first), else InconsistentHeader."""
    text = data[FIELDS[name]]
    body, hemi = text[:-1], chr(text[-1])
    if not body.isdigit():  # bytes.isdigit takes ASCII digits only
        raise InconsistentHeader(f"{name} {text!r}: degrees, minutes and seconds "
                                 "must be ASCII digits")
    d, m, s = int(body[:-4]), int(body[-4:-2]), int(body[-2:])
    if m >= 60 or s >= 60:
        raise InconsistentHeader(f"{name} {text!r}: minutes and seconds must be below 60")
    if hemi not in hemispheres:
        raise InconsistentHeader(f"{name} {text!r}: hemisphere must be "
                                 f"{hemispheres[0]} or {hemispheres[1]}")
    value = (d * 3600 + m * 60 + s) / 3600.0
    return -value if hemi == hemispheres[1] else value


def _interval_tenths(spacing_deg: float) -> int:
    tenths = spacing_deg * 36000.0
    rounded = round(tenths)
    if abs(tenths - rounded) > 1e-6 or not 0 < rounded <= 9999:
        raise SpacingMismatch(f"spacing {spacing_deg} deg not a whole tenth-arcsecond")
    return int(rounded)


def _encode_elevations(heights: np.ndarray) -> np.ndarray:
    """Float heights -> sign-magnitude 16-bit words; NaN fails the range test."""
    meters = np.rint(heights)
    magnitude = np.abs(meters)
    if not (magnitude <= 0x7FFF).all():
        raise DtedError("elevations must be finite and within the signed 16-bit range")
    words = magnitude.astype(np.uint16)
    words[meters < 0.0] |= 0x8000
    return words


def _decode_elevations(words: np.ndarray) -> np.ndarray:
    """Big-endian sign-magnitude words [lon, lat] -> float heights [lat, lon],
    C-ordered. The words are transposed into native order TRANSPOSE_SLAB
    records at a time and decoded straight into the heights, so the heights
    are the one tile-sized float array."""
    raw = np.empty(words.shape[::-1], dtype=np.uint16)
    for j in range(0, len(words), TRANSPOSE_SLAB):
        raw[:, j:j + TRANSPOSE_SLAB] = words[j:j + TRANSPOSE_SLAB].T
    heights = np.bitwise_and(raw, 0x7FFF, out=np.empty(raw.shape))
    # 0x8000, a negative zero, stays +0.0
    np.negative(heights, out=heights, where=raw > 0x8000)
    return heights


def _record_views(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The elevation words (n_lon, n_lat) and the stored checksums of a
    (n_lon, 8 + 2 n_lat + 4) record array. Each record is a sentinel byte,
    3-byte block and 2-byte longitude counts, a 2-byte latitude count, the
    column's words and a big-endian checksum."""
    return records[:, 8:-4].view(">u2"), records[:, -4:].view(">u4")[:, 0]


def _record_sums(records: np.ndarray) -> np.ndarray:
    # a uint32 sum wraps modulo 2**32, as the additive checksum does
    return records[:, :-4].sum(axis=1, dtype=np.uint32)


def write_dted(grid: TerrainGrid) -> bytes:
    """Serialize a TerrainGrid as a DTED tile of the level whose nominal
    latitude interval is the grid's dlat (level_for_spacing).

    The longitude interval is written as declared (zone doubling is the
    caller's business). Heights are rounded to whole meters, half to even
    (-123.5 to -124, 812.25 to 812), and must be finite; the geoid
    undulation is not carried by the format. At most 9999 posts a side,
    and the origin longitude lies in [-180, 180].
    """
    _check_longitude(grid.lon0, DtedError)
    level = level_for_spacing(grid.dlat)
    header = bytearray(b" " * HEADER_SIZE)
    for at, text in {**SENTINELS, **FIXED_TEXT}.items():
        header[at:at + len(text)] = text
    values = {"lon0": _encode_angle(grid.lon0, "EW"), "lat0": _encode_angle(grid.lat0, "NS"),
              "lon_interval": f"{_interval_tenths(grid.dlon):04d}",
              "lat_interval": f"{LEVEL_LAT_INTERVAL[level]:04d}", "n_lon": f"{grid.n_lon:04d}",
              "n_lat": f"{grid.n_lat:04d}", "level": f"DTED{level}"}
    for name, text in values.items():
        field = FIELDS[name]
        if len(text) != field.stop - field.start:
            raise DtedError(f"{name} {text!r} does not fit its {field.stop - field.start} bytes")
        header[field] = text.encode("ascii")

    words = _encode_elevations(grid.H)
    records = np.zeros((grid.n_lon, 8 + 2 * grid.n_lat + 4), dtype=np.uint8)
    records[:, 0] = RECORD_SENTINEL
    records[:, 1:6] = (np.arange(grid.n_lon)[:, np.newaxis] >> [16, 8, 0, 8, 0]) & 0xFF
    record_words, checksums = _record_views(records)
    record_words[...] = words.T
    checksums[...] = _record_sums(records)
    return b"".join((header, records))


def read_dted(data: bytes, geoid_n: float = 0.0) -> TerrainGrid:
    """Parse a DTED byte stream into a TerrainGrid of orthometric heights.

    The format's vertical datum is the geoid; pass geoid_n to attach an
    undulation (a DTED tile itself carries none). The records are read as
    one (n_lon, record size) byte array; every record's sentinel and
    checksum is verified, an error naming the first record that fails, and
    voids come through as VOID_ELEVATION.
    """
    if len(data) < 4 or data[0:4] != SENTINELS[0]:
        raise BadMagic("stream does not start with 'UHL1'")
    if len(data) < HEADER_SIZE:
        raise TruncatedFile("stream shorter than the fixed headers")
    if any(data[at:at + len(text)] != text for at, text in SENTINELS.items()):
        raise InconsistentHeader("DSI/ACC sentinels missing")

    lon0, lat0 = _decode_angle(data, "lon0", "EW"), _decode_angle(data, "lat0", "NS")
    try:
        lon_tenths, lat_tenths, n_lon, n_lat = (
            int(data[FIELDS[name]]) for name in ("lon_interval", "lat_interval", "n_lon", "n_lat"))
    except (ValueError, IndexError) as exc:
        raise InconsistentHeader(f"unparseable UHL fields: {exc}") from exc
    _check_longitude(lon0, InconsistentHeader)
    if n_lat < 1 or n_lon < 1 or lat_tenths < 1 or lon_tenths < 1:
        raise InconsistentHeader("nonpositive post counts or intervals")

    designator = data[FIELDS["level"]].decode("ascii", errors="replace")
    if designator.startswith("DTED") and designator[4:].isdigit():
        level = int(designator[4:])
        if LEVEL_LAT_INTERVAL.get(level) not in (None, lat_tenths):
            raise InconsistentHeader(
                f"level {level} implies lat interval {LEVEL_LAT_INTERVAL[level]} "
                f"tenths, header says {lat_tenths}")

    rec_size = 8 + 2 * n_lat + 4
    if len(data) < HEADER_SIZE + rec_size * n_lon:
        raise TruncatedFile(
            f"expected {rec_size * n_lon} record bytes, found {len(data) - HEADER_SIZE}")

    records = np.frombuffer(data, dtype=np.uint8, count=rec_size * n_lon,
                            offset=HEADER_SIZE).reshape(n_lon, rec_size)
    words, expected = _record_views(records)
    actual = _record_sums(records)
    bad_sentinel = records[:, 0] != RECORD_SENTINEL
    bad = np.flatnonzero(bad_sentinel | (actual != expected))
    if len(bad):
        # the first failing record; its sentinel is checked before its sum
        j = int(bad[0])
        if bad_sentinel[j]:
            raise InconsistentHeader(f"record {j}: bad sentinel byte {records[j, 0]:#x}")
        raise ChecksumMismatch(j, int(expected[j]), int(actual[j]))
    # each record is one longitude column
    heights = _decode_elevations(words)

    return TerrainGrid(lat0=lat0, lon0=lon0, dlat=lat_tenths / 36000.0,
                       dlon=lon_tenths / 36000.0, H=heights, N=geoid_n)


def level_for_spacing(dlat_deg: float) -> int:
    """Level whose nominal latitude interval matches the given spacing."""
    tenths = _interval_tenths(dlat_deg)
    for level, nominal in LEVEL_LAT_INTERVAL.items():
        if nominal == tenths:
            return level
    raise SpacingMismatch(f"no level with lat interval {tenths} tenths of arcsec")
