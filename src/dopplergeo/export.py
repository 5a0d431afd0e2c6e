# export.py
# -------------------------------------------------------------
# Curve output as KML 2.2 and GeoJSON (RFC 7946) for external map viewers.
# Coordinates are written repr-exact so identical inputs produce identical
# bytes and a parse-back recovers the values. Each row set is formatted once
# into one bytes text of "lon,lat,h" rows joined by "\n" (format_positions),
# and both documents are built from that text, so a caller writing both
# formats, or one row set as both a line and its marks, formats every
# coordinate once. A writer turns a row set into its coordinate block by one
# replace of the row separator and joins the document once, as bytes: no
# per-row string is made on the way to the file. _repr_text writes the text
# of repr for a whole row set at once: most values get their shortest
# round-trip digits from a numpy kernel, whose bytes are kept as they are,
# the rest from repr, once per distinct bit pattern (heights repeat: a point
# on the ellipsoid has a height that is a few-ulp residual, a terrain hit its
# post's height). A row holding NaN or an infinity raises
# NonFiniteCoordinate: neither format can carry it.

from __future__ import annotations

import json
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

STYLE_TERRAIN = "terrainMarks"  # yellow: hits on the terrain posts
STYLE_ELLIPSOID = "ellipsoidMarks"  # red: hits on the bare ellipsoid

_KML_COLORS = {STYLE_TERRAIN: "ff00ffff", STYLE_ELLIPSOID: "ff0000ff"}
_KML_POINT_OPEN = b"<Point><altitudeMode>absolute</altitudeMode><coordinates>"
_KML_POINT_CLOSE = b"</coordinates></Point>"
_KML_POINT_BETWEEN = _KML_POINT_CLOSE + b"\n" + _KML_POINT_OPEN  # one line per point


class NonFiniteCoordinate(ValueError):
    """A coordinate row holds NaN or an infinity."""


@dataclass(frozen=True)
class Positions:
    """Rows already formatted: text holds each row as "lon,lat,h" repr
    text, in row order, joined by b"\n" (b"" for no row), and len() is the
    number of rows."""

    text: bytes = b""
    count: int = 0

    def __len__(self) -> int:
        return self.count


# --- the text of repr, in numpy -------------------------------------------
# For 1e-2 <= |x| < 1e15 repr writes fixed notation with the shortest digits
# that read back as x (Gay's dtoa, mode 0). They are found exactly, the way
# Ryu does (Adams 2018), from correctly rounded +, -, *, floor, frexp/ldexp
# and int64 arithmetic alone, so the bytes do not depend on numpy's SIMD
# dispatch: V = |x| * 10**k lies in [1e16, 1e17) and is held exactly as an
# integer-valued float plus an error term (Dekker's two-product); x's
# rounding interval is V minus/plus half a gap (the lower half-gap halved
# when the mantissa is a power of two); the digits are those of the multiple
# of the largest power of ten strictly inside the interval, the nearer one
# of two. The interval is wider than 1 and narrower than 23, so only the
# steps 1, 10 and 100 are looked at: a multiple of 100 inside is the only
# one. A value whose interval end or tie lies within _MARGIN (in
# units of the 17th digit) of a decision is left to repr, as is every value
# outside the range and every value of a row set of fewer than _KERNEL_MIN
# values, where the kernel's fixed cost exceeds what it saves.
#
# Text is assembled as little-endian uint32 words from _WORDS, NUL-padded:
# a separator word (",", or "\n" before each row, with the sign), four words
# of integer digits, a word holding the point and three fraction digits,
# and four more words of fraction digits. Leading and trailing zeros come
# out as NUL bytes, which are dropped: what is left is the rows' text.

_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact up to 10**22
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)  # Veltkamp split
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = np.array([10 ** k for k in range(19)], dtype=np.int64)
_MARGIN = 1e-6
_KERNEL_MIN = 256
_BLOCK = 4096


_DIGITS, _LEADING, _UNITS, _TRAILING, _POINT, _POINT_TRAILING, _SEPARATOR = (
    0, 10000, 20000, 30000, 40000, 41000, 42000)


def _word_table() -> np.ndarray:
    """The words of 0..9999 (all four digits; leading zeros dropped; the
    same, keeping the units digit; trailing zeros dropped), "." with the
    three digits of 0..999 (all; trailing zeros dropped, keeping ".0"), and
    the separators, at the offsets above."""
    four, three = np.array([1000, 100, 10, 1], np.int32), np.array([100, 10, 1], np.int32)
    v4, v3 = np.arange(10000, dtype=np.int32)[:, None], np.arange(1000, dtype=np.int32)[:, None]
    d4 = (48 + v4 // four % 10).astype(np.uint8)
    d3 = (48 + v3 // three % 10).astype(np.uint8)
    d3_trailing = d3 * (v3 % (10 * three) != 0)
    d3_trailing[0, 0] = ord("0")
    dot = np.full((1000, 1), ord("."), np.uint8)
    return np.concatenate([
        d4,
        d4 * (v4 >= four),
        d4 * (v4 >= four * (four > 1)),
        d4 * (v4 % (10 * four) != 0),
        np.hstack([dot, d3]),
        np.hstack([dot, d3_trailing]),
        np.array([[ord(","), 0, 0, 0], [ord("\n"), 0, 0, 0]], np.uint8),
    ]).view("<u4").ravel()


_WORDS = _word_table()
_MINUS = np.uint32(ord("-") << 8)  # the sign, after the separator


def _shortest_digits(x: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Fill words (len(x), 9) with _WORDS indices spelling |x|'s shortest
    round-trip digits in fixed notation, for 1e-2 <= |x| < 1e15. Returns the
    mask of values the kernel leaves to repr."""
    a = np.abs(x)
    k = np.clip(16.0 - np.floor(np.log10(a)), 2, 18).astype(np.intp)  # log10 only seeds k
    v = a * _POW10[k]
    k += v < 1e16
    k -= v >= 1e17
    scale = _POW10[k]
    v = a * scale
    left = (v < 1e16) | (v >= 1e17)
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    s_hi, s_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * s_hi - v) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo  # V = v + err
    mantissa, exponent = np.frexp(a)
    up = np.ldexp(scale, exponent - 54)
    down = up * (1.0 - 0.5 * (mantissa == 0.5))
    base = v.astype(np.int64)
    hundreds = base - base // 100 * 100
    local = hundreds + err  # V less a multiple of 100, within 1e-14
    lo = local - down
    hi = local + up
    left |= np.abs(lo - np.floor(lo) - 0.5) > 0.5 - _MARGIN
    left |= np.abs(hi - np.floor(hi) - 0.5) > 0.5 - _MARGIN
    step = 1.0 + 9.0 * (np.floor(hi / 10.0) * 10.0 > lo)
    below = np.floor(local / step) * step
    above = below + step
    nearer = (local - below) - (above - local)
    below_in = below > lo
    above_in = above < hi
    left |= ~(below_in | above_in) | (below_in & above_in & (np.abs(nearer) < _MARGIN))
    pick = np.where(below_in & (~above_in | (nearer < 0)), below, above)
    hundred = 100.0 * (hi > 100.0)
    pick = np.where((hundred > lo) & (hundred < hi), hundred, pick)
    digits = base - hundreds + pick.astype(np.int64)

    whole, part = np.divmod(digits, _POW10_INT[k])  # |x| = whole + part / 10**k
    part *= _POW10_INT[18 - k]  # 18 fraction digits
    high = whole // 100000000
    low = whole - high * 100000000
    w = high // 10000
    words[:, 0] = w + _LEADING
    lead = w == 0
    w = high - w * 10000
    words[:, 1] = w + (_LEADING - _DIGITS) * lead
    lead &= w == 0
    w = low // 10000
    words[:, 2] = w + (_LEADING - _DIGITS) * lead
    lead &= w == 0
    w = low - w * 10000
    words[:, 3] = w + (_UNITS - _DIGITS) * lead
    top = part // 1000000000000000
    part -= top * 1000000000000000
    high = part // 10000000
    low = part - high * 10000000
    w = low // 1000
    tail = (low - w * 1000) * 10
    words[:, 8] = tail + _TRAILING
    trail = tail == 0
    words[:, 7] = w + (_TRAILING - _DIGITS) * trail
    trail &= w == 0
    w = high // 10000
    tail = high - w * 10000
    words[:, 6] = tail + (_TRAILING - _DIGITS) * trail
    trail &= tail == 0
    words[:, 5] = w + (_TRAILING - _DIGITS) * trail
    trail &= w == 0
    words[:, 4] = top + _POINT + (_POINT_TRAILING - _POINT) * trail
    return left


def _repr_distinct(x: np.ndarray):
    """repr of each distinct float64 bit pattern in x (so -0.0 and 0.0
    stay apart), and the index of each value's text."""
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    return list(map(repr, bits.view(np.float64).tolist())), inverse


def repr_rows(values) -> list:
    """(n, c) float64 values -> n strings, each row's c values as repr
    writes them, joined by ","; byte for byte the text of repr for any
    float64, NaN and infinities included."""
    text = _repr_text(values)
    return text.decode("ascii").split("\n") if text else []


def _repr_text(values) -> bytes:
    """(n, c) float64 values -> the rows of repr_rows joined by b"\n", as
    bytes (b"" for no row)."""
    values = np.asarray(values, dtype=np.float64)
    n, cols = values.shape
    x = values.ravel()
    if x.size < _KERNEL_MIN:  # repr for every value, joined in Python
        texts, inverse = _repr_distinct(x)
        column = map(texts.__getitem__, inverse.tolist())
        return "\n".join(map(",".join, zip(*[column] * cols))).encode("ascii")
    a = np.abs(x)
    in_range = (a >= 1e-2) & (a < 1e15)
    kernel = np.flatnonzero(in_range)
    # integer words that hold a digit in some value: the rest are all NUL
    top = a[kernel].max(initial=0.0)
    skip = 3 - (top >= 1e4) - (top >= 1e8) - (top >= 1e12)
    text = np.empty((x.size, 10 - skip), np.uint32)
    separators = text[:, 0].reshape(n, cols)
    separators[:] = _WORDS[_SEPARATOR]
    separators[:, 0] = _WORDS[_SEPARATOR + 1]
    left = [np.flatnonzero(~in_range)]
    words = np.empty((min(_BLOCK, kernel.size), 9), np.intp)
    for i in range(0, kernel.size, _BLOCK):
        block = kernel[i:i + _BLOCK]
        x_block = x[block]
        block_left = _shortest_digits(x_block, words[:block.size])
        text[block, 1:] = _WORDS.take(words[:block.size, skip:])
        text[block, 0] += _MINUS * ((x_block < 0) & ~block_left)
        left.append(block[block_left])
    left = np.concatenate(left)
    if left.size:
        texts, inverse = _repr_distinct(x[left])  # at most 24 characters: six words
        text[left, 1:7] = np.array(texts, dtype="S24").view("<u4").reshape(-1, 6)[inverse]
        text[left, 7:] = 0
    flat = text.view(np.uint8).ravel()
    return flat[flat != 0][1:].tobytes()  # from after the first row's "\n"


def format_positions(coords) -> Positions:
    """lat/lon/h rows -> Positions of "lon,lat,h" repr text.

    coords is an (n, 3) array-like or a single (3,) row; Positions pass
    through unchanged. Raises NonFiniteCoordinate on a NaN or infinite value
    and ValueError on rows that are not triples.
    """
    if isinstance(coords, Positions):
        return coords
    rows = np.asarray(coords, dtype=float)
    if rows.size == 0:
        return Positions()
    rows = np.atleast_2d(rows)
    finite = np.isfinite(rows)
    if not finite.all():
        bad = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise NonFiniteCoordinate(f"coordinate row {bad} is not finite: {rows[bad].tolist()}")
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"coordinate rows must be lat/lon/h triples, got shape {rows.shape}")
    return Positions(_repr_text(rows[:, [1, 0, 2]]), len(rows))


_KML_HEAD = (b'<?xml version="1.0" encoding="UTF-8"?>\n'
             b'<kml xmlns="http://www.opengis.net/kml/2.2">\n<Document>\n')
_KML_STYLES = "".join(
    f'<Style id="{style_id}">'
    f"<IconStyle><color>{color}</color></IconStyle>"
    f"<LineStyle><color>{color}</color><width>2</width></LineStyle>"
    f"</Style>\n" for style_id, color in _KML_COLORS.items()).encode("ascii")


def _kml_placemark(label: str, style: str) -> bytes:
    return f"<Placemark>\n<name>{escape(label)}</name>\n<styleUrl>#{style}</styleUrl>\n".encode()


def write_kml(polylines=(), placemark_sets=(), name: str = "dopplergeo") -> bytes:
    """Build a KML document.

    polylines and placemark_sets are iterables of (label, coords, style)
    where coords are (lat_deg, lon_deg, h_m) rows or their format_positions
    result, and style is one of STYLE_TERRAIN / STYLE_ELLIPSOID. Each
    polyline becomes a LineString, each placemark set one Placemark holding
    a point per row, one line each; altitudes are absolute. Empty input
    yields a valid document with only the styles.
    """
    out = [_KML_HEAD, f"<name>{escape(name)}</name>\n".encode(), _KML_STYLES]
    for label, coords, style in polylines:
        text = format_positions(coords).text
        out += [_kml_placemark(label, style),
                b"<LineString><altitudeMode>absolute</altitudeMode>\n<coordinates>",
                text.replace(b"\n", b" "), b"</coordinates>\n</LineString>\n</Placemark>\n"]
    for label, coords, style in placemark_sets:
        positions = format_positions(coords)
        out += [_kml_placemark(label, style), b"<MultiGeometry>\n"]
        if positions:
            out += [_KML_POINT_OPEN,
                    positions.text.replace(b"\n", _KML_POINT_BETWEEN),
                    _KML_POINT_CLOSE + b"\n"]
        out.append(b"</MultiGeometry>\n</Placemark>\n")
    out.append(b"</Document>\n</kml>")
    return b"".join(out)


def write_geojson(polylines=(), placemark_sets=()) -> bytes:
    """FeatureCollection with LineString/MultiPoint features.

    Same (label, coords, style) inputs as write_kml; GeoJSON positions are
    [lon, lat, h]. The text is that of json.dumps(sort_keys=True,
    separators=(",", ":")) on the equivalent document, so bytes are
    deterministic.
    """
    out = [b'{"features":[']
    comma = b""
    for geometry, sets in (("LineString", polylines), ("MultiPoint", placemark_sets)):
        for label, coords, style in sets:
            positions = format_positions(coords)
            properties = json.dumps({"name": label, "style": style},
                                    sort_keys=True, separators=(",", ":"))
            coordinates = ([b"[[", positions.text.replace(b"\n", b"],["), b"]]"] if positions
                           else [b"[]"])
            out += [comma, b'{"geometry":{"coordinates":', *coordinates,
                    f',"type":"{geometry}"}},"properties":{properties},"type":"Feature"}}'.encode()]
            comma = b","
    out.append(b'],"type":"FeatureCollection"}')
    return b"".join(out)
