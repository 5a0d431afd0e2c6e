# dted.py
# -------------------------------------------------------------
# DTED terrain tile binary format (levels 0/1/2): UHL + DSI + ACC headers
# followed by per-longitude-column records of sign-magnitude big-endian
# elevations with an additive checksum. The writer is fixture-quality; the
# reader accepts real tiles.

from __future__ import annotations

import numpy as np

from .terrain import VOID_ELEVATION, TerrainGrid

UHL_SIZE = 80
DSI_SIZE = 648
ACC_SIZE = 2700
RECORD_SENTINEL = 0xAA

# nominal latitude interval per level, tenths of arcseconds
LEVEL_LAT_INTERVAL = {0: 300, 1: 30, 2: 10}


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


def _encode_angle(value_deg: float, hemispheres: str, deg_digits: int) -> bytes:
    """Degrees -> D{deg_digits}MMSSH text. The value must sit on a whole
    arcsecond (DTED origins always do)."""
    hemi = hemispheres[0] if value_deg >= 0.0 else hemispheres[1]
    total = abs(value_deg) * 3600.0
    secs = round(total)
    if abs(total - secs) > 1e-6:
        raise SpacingMismatch(f"origin {value_deg} deg not on a whole arcsecond")
    d, rem = divmod(int(secs), 3600)
    m, s = divmod(rem, 60)
    return f"{d:0{deg_digits}d}{m:02d}{s:02d}{hemi}".encode("ascii")


def _decode_angle(text: bytes) -> float:
    body, hemi = text[:-1].decode("ascii"), chr(text[-1])
    s = int(body[-2:])
    m = int(body[-4:-2])
    d = int(body[:-4])
    value = (d * 3600 + m * 60 + s) / 3600.0
    return -value if hemi in ("S", "W") else value


def _interval_tenths(spacing_deg: float) -> int:
    tenths = spacing_deg * 36000.0
    rounded = round(tenths)
    if abs(tenths - rounded) > 1e-6 or not 0 < rounded <= 9999:
        raise SpacingMismatch(f"spacing {spacing_deg} deg not a whole tenth-arcsecond")
    return int(rounded)


def _encode_elevations(column: np.ndarray) -> bytes:
    vals = np.rint(column).astype(np.int64)
    if (np.abs(vals) > 0x7FFF).any():
        raise DtedError("elevation out of signed 16-bit range")
    raw = np.where(vals < 0, 0x8000 | (-vals), vals).astype(">u2")
    return raw.tobytes()


def _decode_elevations(raw: np.ndarray) -> np.ndarray:
    """Sign-magnitude 16-bit words -> float heights."""
    heights = (raw & 0x7FFF).astype(float)
    # 0x8000, a negative zero, stays +0.0
    np.negative(heights, out=heights, where=raw > 0x8000)
    return heights


def write_dted(grid: TerrainGrid, level: int) -> bytes:
    """Serialize a TerrainGrid as a DTED tile of the given level.

    The latitude interval must match the level's nominal spacing; the
    longitude interval is written as declared (zone doubling is the
    caller's business). Heights must be finite whole meters; the geoid
    undulation is not carried by the format.
    """
    if level not in LEVEL_LAT_INTERVAL:
        raise DtedError(f"unsupported level {level}")
    # before rounding: NaN casts to the lowest int64, whose absolute value
    # is negative, so it would pass the 16-bit range check
    if not np.isfinite(grid.H).all():
        raise DtedError("elevations must be finite")
    lat_tenths = _interval_tenths(grid.dlat)
    lon_tenths = _interval_tenths(grid.dlon)
    if lat_tenths != LEVEL_LAT_INTERVAL[level]:
        raise SpacingMismatch(
            f"lat interval {lat_tenths} tenths != level {level} nominal "
            f"{LEVEL_LAT_INTERVAL[level]}")

    uhl = bytearray(b" " * UHL_SIZE)
    uhl[0:4] = b"UHL1"
    uhl[4:12] = _encode_angle(grid.lon0, "EW", 3)
    uhl[12:20] = _encode_angle(grid.lat0, "NS", 3)
    uhl[20:24] = f"{lon_tenths:04d}".encode("ascii")
    uhl[24:28] = f"{lat_tenths:04d}".encode("ascii")
    uhl[28:32] = b"NA  "
    uhl[32:35] = b"U  "
    uhl[47:51] = f"{grid.n_lon:04d}".encode("ascii")
    uhl[51:55] = f"{grid.n_lat:04d}".encode("ascii")
    uhl[55:56] = b"0"

    dsi = bytearray(b" " * DSI_SIZE)
    dsi[0:3] = b"DSI"
    dsi[3:4] = b"U"
    dsi[59:64] = f"DTED{level}".encode("ascii")

    acc = bytearray(b" " * ACC_SIZE)
    acc[0:3] = b"ACC"

    records = bytearray()
    for j in range(grid.n_lon):
        rec = bytearray()
        rec.append(RECORD_SENTINEL)
        rec += j.to_bytes(3, "big")
        rec += j.to_bytes(2, "big")
        rec += (0).to_bytes(2, "big")
        rec += _encode_elevations(grid.H[:, j])
        rec += (sum(rec) & 0xFFFFFFFF).to_bytes(4, "big")
        records += rec

    return bytes(uhl) + bytes(dsi) + bytes(acc) + bytes(records)


def read_dted(data: bytes, geoid_n: float = 0.0) -> TerrainGrid:
    """Parse a DTED byte stream into a TerrainGrid of orthometric heights.

    The format's vertical datum is the geoid; pass geoid_n to attach an
    undulation (a DTED tile itself carries none). The records are read as
    one (n_lon, record size) byte array; every record's sentinel and
    checksum is verified, an error naming the first record that fails, and
    voids come through as VOID_ELEVATION.
    """
    if len(data) < 4 or data[0:4] != b"UHL1":
        raise BadMagic("stream does not start with 'UHL1'")
    if len(data) < UHL_SIZE + DSI_SIZE + ACC_SIZE:
        raise TruncatedFile("stream shorter than the fixed headers")
    uhl = data[:UHL_SIZE]
    dsi = data[UHL_SIZE:UHL_SIZE + DSI_SIZE]
    acc = data[UHL_SIZE + DSI_SIZE:UHL_SIZE + DSI_SIZE + ACC_SIZE]
    if dsi[0:3] != b"DSI" or acc[0:3] != b"ACC":
        raise InconsistentHeader("DSI/ACC sentinels missing")

    try:
        lon0 = _decode_angle(uhl[4:12])
        lat0 = _decode_angle(uhl[12:20])
        lon_tenths = int(uhl[20:24])
        lat_tenths = int(uhl[24:28])
        n_lon = int(uhl[47:51])
        n_lat = int(uhl[51:55])
    except (ValueError, IndexError) as exc:
        raise InconsistentHeader(f"unparseable UHL fields: {exc}") from exc
    if n_lat < 1 or n_lon < 1 or lat_tenths < 1 or lon_tenths < 1:
        raise InconsistentHeader("nonpositive post counts or intervals")

    designator = dsi[59:64].decode("ascii", errors="replace")
    if designator.startswith("DTED") and designator[4:].isdigit():
        level = int(designator[4:])
        if LEVEL_LAT_INTERVAL.get(level) not in (None, lat_tenths):
            raise InconsistentHeader(
                f"level {level} implies lat interval {LEVEL_LAT_INTERVAL[level]} "
                f"tenths, header says {lat_tenths}")

    rec_size = 8 + 2 * n_lat + 4
    offset = UHL_SIZE + DSI_SIZE + ACC_SIZE
    if len(data) < offset + rec_size * n_lon:
        raise TruncatedFile(
            f"expected {rec_size * n_lon} record bytes, found {len(data) - offset}")

    records = np.frombuffer(data, dtype=np.uint8, count=rec_size * n_lon,
                            offset=offset).reshape(n_lon, rec_size)
    bad_sentinel = records[:, 0] != RECORD_SENTINEL
    expected = np.ascontiguousarray(records[:, -4:]).view(">u4")[:, 0]
    # a uint32 sum wraps modulo 2**32, as the additive checksum does
    actual = records[:, :-4].sum(axis=1, dtype=np.uint32)
    bad = np.flatnonzero(bad_sentinel | (actual != expected))
    if len(bad):
        # the first failing record; its sentinel is checked before its sum
        j = int(bad[0])
        if bad_sentinel[j]:
            raise InconsistentHeader(f"record {j}: bad sentinel byte {records[j, 0]:#x}")
        raise ChecksumMismatch(j, int(expected[j]), int(actual[j]))
    # each record is one longitude column: transpose the words to [lat, lon]
    heights = _decode_elevations(np.ascontiguousarray(records[:, 8:-4].view(">u2").T,
                                                      dtype=np.uint16))

    return TerrainGrid(lat0=lat0, lon0=lon0, dlat=lat_tenths / 36000.0,
                       dlon=lon_tenths / 36000.0, H=heights, N=geoid_n)


def level_for_spacing(dlat_deg: float) -> int:
    """Level whose nominal latitude interval matches the given spacing."""
    tenths = _interval_tenths(dlat_deg)
    for level, nominal in LEVEL_LAT_INTERVAL.items():
        if nominal == tenths:
            return level
    raise SpacingMismatch(f"no level with lat interval {tenths} tenths of arcsec")
