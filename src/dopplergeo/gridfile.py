# gridfile.py
# -------------------------------------------------------------
# Portable text format for terrain grids ("key = value" header, then
# whitespace-separated heights) so test fixtures are human-readable, plus
# synthetic tile generators (flat, ridge). The reader splits only a prefix
# of the text to find the header's end, reads the heights as integer
# mantissas over powers of ten (_heights_by_mantissa) or else in one numpy
# float call, and keeps the per-line parse as the one error path.

from __future__ import annotations

import contextlib
import dataclasses
import os
import warnings

import numpy as np

from .export import _POW10, _POW10_HI, _POW10_LO, repr_rows
from .terrain import VOID_ELEVATION, TerrainGrid

REQUIRED_KEYS = ("lat0", "lon0", "dlat", "dlon", "n_lat", "n_lon")
HEADER_KEYS = REQUIRED_KEYS + ("geoid_n", "geoid_grid")
_HEADER_PREFIX = 4096  # characters split first when looking for the header's end


class ParseError(ValueError):
    """Malformed portable grid text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def write_portable_grid(grid: TerrainGrid) -> str:
    """Serialize a grid losslessly (repr-exact floats; NaN, a post without
    a height, is written as the void value VOID_ELEVATION).

    A scalar geoid undulation is written inline; an undulation grid must be
    saved separately and referenced via the geoid_grid key by the caller.
    """
    lines = ["# portable terrain grid"]
    lines += [f"{key} = {getattr(grid, key)!r}" for key in REQUIRED_KEYS]
    if np.isscalar(grid.N):
        lines.append(f"geoid_n = {float(grid.N)!r}")
    else:
        raise ValueError("gridded undulation needs a companion file; "
                         "write it separately and reference it with geoid_grid")
    heights = np.where(np.isnan(grid.H), VOID_ELEVATION, grid.H)
    lines += [row.replace(",", " ") for row in repr_rows(heights)]
    return "\n".join(lines) + "\n"


def _read_header(lines: list[str]) -> tuple[dict[str, str], int]:
    """The header keys of portable grid lines and the index of the first
    height line (len(lines) when there is none). The header ends at the
    first line without "=", so a key after the heights is a bad height
    value. Only HEADER_KEYS are accepted, each at most once."""
    header: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            return header, lineno - 1
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in HEADER_KEYS:
            raise ParseError(f"unknown header key '{key}'", lineno)
        if key in header:
            raise ParseError(f"repeated header key '{key}'", lineno)
        header[key] = value.strip()
    return header, len(lines)


def _header_of(text: str) -> tuple[dict[str, str], int, int]:
    """_read_header of text's lines, and the offset in text of the first
    height line, splitting only a prefix of text that holds the header: the
    prefix's last line, which may be cut, is not read, and the prefix grows
    until the header ends before that line or the prefix is the whole text."""
    size = _HEADER_PREFIX
    while True:
        lines = text[:size].splitlines(keepends=True)
        whole = size >= len(text)
        if not whole:
            lines.pop()
        header, first = _read_header(lines)
        if first < len(lines) or whole:
            return header, first, sum(map(len, lines[:first]))
        size *= 4


def _heights_by_line(block: str, first: int) -> np.ndarray:
    """The heights of block, the text from line index first on, one line at
    a time: blank lines and comments are skipped, and any other text is a
    bad height value, named with its line number. This is the parse
    _heights_in_one_call must agree with."""
    heights: list[np.ndarray] = []
    for lineno, raw in enumerate(block.splitlines(), start=first + 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            heights.append(np.array(line.split(), dtype=float))
        except ValueError as exc:
            raise ParseError(f"bad height value: {exc}", lineno) from exc
    return np.concatenate(heights) if heights else np.zeros(0)


def _read_numbers(text, dtype) -> np.ndarray | None:
    """np.fromstring(text, dtype=dtype, sep=" "), or None unless numpy
    reads text to its end."""
    with warnings.catch_warnings():
        # older numpy releases only warn on a partial read and return what
        # they read
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, dtype=dtype, sep=" ")
        except (ValueError, DeprecationWarning):
            return None


def _heights_in_one_call(text: str, start: int) -> np.ndarray | None:
    """Every height of text[start:], read by _heights_by_mantissa or else
    in one numpy float call, or None unless numpy reads it to its end.
    text[start:] must be empty or start on a height line that is not
    blank: numpy reads a blank text as [-1.0], or as [0] as integers."""
    values = _heights_by_mantissa(text, start)
    return _read_numbers(text[start:], float) if values is None else values


# --- heights as integer mantissas ----------------------------------------------
# A height written -?D+.D* is w / 10**f, w the integer of its digits with the
# point dropped and f the number of digits after the point. numpy's integer
# reader reads every w fast, where its float reader, like float, takes a
# slow path on 17 digits. w / 10**f is the height correctly rounded in one
# division when |w| < 2**53, w and 10**f (f <= 22) being exact (Clinger,
# "How to Read Floating Point Numbers Accurately", 1990). Above, the
# quotient q of float(w) / 10**f lies within two ulps of w / 10**f. The
# residual w - q * 10**f, from w's two exact parts less Dekker's
# two-product of q and 10**f, gives that distance in ulps of q, and q moves
# by its nearest integer. A height whose distance lies within _MARGIN of a
# tie, or whose q lies within four ulps of a power of two, where the ulp
# changes, is left to float. Only correctly rounded +, -, *, /, rint,
# frexp/ldexp and int64 arithmetic are used, so the heights do not depend
# on numpy's SIMD dispatch.

_SPACE, _MINUS, _POINT = 1, 2, 3
_KIND = np.zeros(ord("0"), np.uint8)  # the bytes below "0"; 0 for one no height holds
_KIND[list(b" \t\n\r\x0b\x0c")] = _SPACE  # numpy's separator " " takes C whitespace
_KIND[ord("-")] = _MINUS
_KIND[ord(".")] = _POINT
_MAX_MANTISSA = 10 ** 18  # 18 digits: numpy's reader saturates at 2**63 - 1
_MAX_FRACTION = len(_POW10) - 1  # 10**22, the largest power of ten a float holds
_EXACT = 2 ** 53
_MARGIN = 1e-6  # in ulps of q; the residual is good to about 1e-13 of one
_BLOCK = 2048  # quotients rounded at a time: small temporaries are reused, not paged in


def _heights_by_mantissa(text: str, start: int) -> np.ndarray | None:
    """Every height of text[start:] when each is written -?D+.D*, with at
    most 18 digits after its leading zeros and 22 after the point, between
    C whitespace; None for any other text."""
    try:
        raw = text[start:].encode("ascii")
    except UnicodeEncodeError:
        return None
    mantissas = _read_numbers(raw.translate(None, b"."), np.int64)
    if (mantissas is None or not mantissas.size or mantissas.min() <= -_MAX_MANTISSA
            or mantissas.max() >= _MAX_MANTISSA):
        return None
    b = np.frombuffer(raw, np.uint8)
    if b.max() > ord("9"):
        return None
    # the positions and kinds of the bytes that are not digits, with a space
    # before and after the text
    special = np.ones(b.size + 2, bool)
    np.less(b, ord("0"), out=special[1:-1])
    at = np.flatnonzero(special)
    del special
    at -= 1
    kind = np.concatenate(([_SPACE], _KIND.take(b.take(at[1:-1])), [_SPACE]))
    del b, raw
    point = np.flatnonzero(kind == _POINT)
    if point.size != mantissas.size or not kind.all():
        return None
    # one point in each height with digits before it, a sign only in front:
    # after each point a space, before it a space or a sign
    signed = kind.take(point - 1) == _MINUS
    dot = at.take(point)
    if (not (kind.take(point + 1) == _SPACE).all()
            or not (dot - at.take(point - 1) > 1).all()):
        return None
    fraction = np.subtract(at.take(point + 1), dot, out=dot)
    fraction -= 1
    if fraction.max() > _MAX_FRACTION:
        return None
    minus = point[signed] - 1
    if (minus.size != np.count_nonzero(kind == _MINUS)
            or not (kind.take(minus - 1) == _SPACE).all()
            or not (at.take(minus) - at.take(minus - 1) == 1).all()):
        return None
    heights = np.divide(mantissas, _POW10.take(fraction))
    big = np.flatnonzero((mantissas >= _EXACT) | (mantissas <= -_EXACT))
    for i in range(0, big.size, _BLOCK):
        block = big[i:i + _BLOCK]
        quotients = heights.take(block)
        left = _round_quotients(quotients, mantissas.take(block), fraction.take(block))
        heights[block] = quotients
        for j in block[left].tolist():
            first = start + at[point[j] - 1] + (not signed[j])
            heights[j] = float(text[first:start + at[point[j] + 1]])
    heights[signed & (mantissas == 0)] = -0.0
    return heights


def _round_quotients(q: np.ndarray, w: np.ndarray, fraction: np.ndarray) -> np.ndarray:
    """Move each quotient q of float(w) / 10**fraction, |w| >= 2**53, to
    w / 10**fraction correctly rounded, in place. Returns the mask of the
    values left to float."""
    scale = _POW10.take(fraction)
    p = q * scale
    hi = q * 134217729.0  # Veltkamp split of q
    lo = hi - q
    hi -= lo
    np.subtract(q, hi, out=lo)
    s_hi, s_lo = _POW10_HI.take(fraction), _POW10_LO.take(fraction)
    err = hi * s_hi
    err -= p
    err += np.multiply(hi, s_lo, out=hi)
    err += np.multiply(lo, s_hi, out=s_hi)
    err += np.multiply(lo, s_lo, out=s_lo)  # q * 10**f = p + err
    residual = w.astype(np.float64)
    w_lo = residual.astype(np.int64)
    np.subtract(w, w_lo, out=w_lo)  # w = float(w) + w_lo
    residual -= p  # exact: p lies within a factor of 2 of float(w)
    residual += np.subtract(w_lo, err, out=err)  # w - q * 10**f
    mantissa, exponent = np.frexp(q)
    exponent -= 53
    residual /= np.ldexp(scale, exponent, out=scale)  # in ulps of q
    steps = np.rint(residual)
    residual -= steps
    left = np.abs(residual, out=residual) > 0.5 - _MARGIN
    np.abs(mantissa, out=mantissa)
    left |= mantissa < 0.5 + 2.0 ** -51  # four ulps from a power of two
    left |= mantissa > 1.0 - 2.0 ** -51
    q += np.ldexp(steps, exponent, out=steps)
    return left


def _grid_fields(header: dict[str, str], values: np.ndarray) -> dict:
    """The grid fields (all but the undulation) from the header and the
    heights. n_lat and n_lon must be at least 1 and the heights, in an
    undulation companion grid too, finite; the void value VOID_ELEVATION
    becomes NaN, a post without a height. TerrainGrid checks the other
    header values."""
    for key in REQUIRED_KEYS:
        if key not in header:
            raise ParseError(f"missing header key '{key}'")
    try:
        fields = {key: float(header[key]) for key in ("lat0", "lon0", "dlat", "dlon")}
        n_lat, n_lon = int(header["n_lat"]), int(header["n_lon"])
    except ValueError as exc:
        raise ParseError(f"bad header value: {exc}") from exc
    for key, value in (("n_lat", n_lat), ("n_lon", n_lon)):
        if value < 1:
            raise ParseError(f"header value {key} must be positive: {value}")

    if len(values) != n_lat * n_lon:
        raise ParseError(f"expected {n_lat * n_lon} heights, found {len(values)}")
    # the format writes a void as VOID_ELEVATION, never as NaN, and the
    # terrain search would refuse an infinite height as an InvalidGrid
    finite = np.isfinite(values)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), n_lon)
        raise ParseError(f"height at row {row}, column {col} is not finite")
    np.copyto(values, np.nan, where=values == VOID_ELEVATION)
    fields["H"] = values.reshape(n_lat, n_lon)
    return fields


def _parse_portable_grid(text: str) -> tuple[dict[str, str], dict]:
    """Header keys and the grid fields of portable grid text. The heights
    are read from the first height line on by _heights_in_one_call. When
    it stops short of the end, or _grid_fields refuses what it read (a
    wrong count or a non-finite value), the per-line parse reads them
    again, so every text gives the heights or the ParseError of that parse
    alone."""
    header, first, start = _header_of(text)
    values = _heights_in_one_call(text, start)
    if values is not None:
        with contextlib.suppress(ParseError):
            return header, _grid_fields(header, values)
    return header, _grid_fields(header, _heights_by_line(text[start:], first))


def _scalar_grid(header: dict[str, str], fields: dict) -> TerrainGrid:
    try:
        n_val = float(header.get("geoid_n", 0.0))
    except ValueError as exc:
        raise ParseError(f"bad geoid_n: {exc}") from exc
    return TerrainGrid(**fields, N=n_val)


def read_portable_grid(text: str) -> TerrainGrid:
    """Parse portable grid text with a scalar undulation (geoid_n, default
    0); a geoid_grid companion reference needs load_portable_grid."""
    header, fields = _parse_portable_grid(text)
    if "geoid_grid" in header:
        raise ParseError("geoid_grid reference requires load_portable_grid")
    return _scalar_grid(header, fields)


def load_portable_grid(path: str) -> TerrainGrid:
    """Read a portable grid file, resolving a geoid_grid companion reference
    (a second portable grid, beside it, whose heights are undulation values
    at the tile's posts: its six header values must equal the tile's, its
    own geoid_n, which write_portable_grid writes as 0, must be 0, and it
    holds no void). A tile gives geoid_n or geoid_grid, not both."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    header, fields = _parse_portable_grid(text)
    ref = header.get("geoid_grid")
    if ref is None:
        return _scalar_grid(header, fields)
    if "geoid_n" in header:
        raise ParseError("a tile gives geoid_n or geoid_grid, not both")
    grid = _scalar_grid(header, fields)
    companion = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    with open(companion, "r", encoding="utf-8") as f:
        n_grid = read_portable_grid(f.read())
    for key in REQUIRED_KEYS:
        if getattr(n_grid, key) != getattr(grid, key):
            raise ParseError(f"undulation grid {ref} has {key} = {getattr(n_grid, key)!r}, "
                             f"the tile {getattr(grid, key)!r}")
    if n_grid.N != 0.0:
        raise ParseError(f"undulation grid {ref} has geoid_n = {n_grid.N!r}, not 0")
    void = np.isnan(n_grid.H)
    if void.any():
        row, col = np.argwhere(void)[0]
        raise ParseError(f"undulation grid {ref} has a void at row {row}, column {col}")
    return dataclasses.replace(grid, N=n_grid.H)


def make_flat_grid(lat0: float, lon0: float, dlat: float, dlon: float,
                   n_lat: int, n_lon: int, height: float = 0.0,
                   geoid_n: float = 0.0) -> TerrainGrid:
    """Constant-height grid (the H = 0 case coincides with the ellipsoid
    when the undulation is zero)."""
    return TerrainGrid(lat0=lat0, lon0=lon0, dlat=dlat, dlon=dlon,
                       H=np.full((n_lat, n_lon), float(height)), N=geoid_n)


def make_ridge_grid(lat0: float, lon0: float, dlat: float, dlon: float,
                    n_lat: int, n_lon: int, crest: float = 800.0,
                    geoid_n: float = 0.0) -> TerrainGrid:
    """North-south ridge: heights rise linearly to a crest along the central
    longitude column and fall back to zero at the east/west edges."""
    j = np.arange(n_lon, dtype=float)
    mid = (n_lon - 1) / 2.0
    profile = crest * (1.0 - np.abs(j - mid) / max(mid, 1.0))
    h = np.tile(np.clip(profile, 0.0, None), (n_lat, 1))
    return TerrainGrid(lat0=lat0, lon0=lon0, dlat=dlat, dlon=dlon, H=h, N=geoid_n)
