# gridfile.py
# -------------------------------------------------------------
# Portable text format for terrain grids ("key = value" header, then
# whitespace-separated heights) so test fixtures are human-readable, plus
# synthetic tile generators (flat, ridge).

from __future__ import annotations

import contextlib
import dataclasses
import os
import warnings

import numpy as np

from .export import repr_rows
from .terrain import TerrainGrid

REQUIRED_KEYS = ("lat0", "lon0", "dlat", "dlon", "n_lat", "n_lon")
HEADER_KEYS = REQUIRED_KEYS + ("geoid_n", "geoid_grid")


class ParseError(ValueError):
    """Malformed portable grid text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def write_portable_grid(grid: TerrainGrid) -> str:
    """Serialize a grid losslessly (repr-exact floats, voids preserved).

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
    lines += [row.replace(",", " ") for row in repr_rows(grid.H)]
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


def _heights_by_line(lines: list[str], first: int) -> np.ndarray:
    """The heights on lines[first:], one line at a time: blank lines and
    comments are skipped, and any other text is a bad height value, named
    with its line number. This is the parse _heights_in_one_call must
    agree with."""
    heights: list[np.ndarray] = []
    for lineno, raw in enumerate(lines[first:], start=first + 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            heights.append(np.array(line.split(), dtype=float))
        except ValueError as exc:
            raise ParseError(f"bad height value: {exc}", lineno) from exc
    return np.concatenate(heights) if heights else np.zeros(0)


def _heights_in_one_call(block: str) -> np.ndarray | None:
    """Every height of block in one numpy call, or None unless numpy reads
    it to its end. block must be empty or start on a height line that is
    not blank: numpy reads a blank text as [-1.0]."""
    with warnings.catch_warnings():
        # older numpy releases only warn on a partial read and return what
        # they read
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(block, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return values


def _grid_fields(header: dict[str, str], values: np.ndarray) -> dict:
    """The grid fields (all but the undulation) from the header and the
    heights. n_lat and n_lon must be at least 1 and the heights, in an
    undulation companion grid too, finite; TerrainGrid checks the other
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
    # the format holds heights: the terrain search would take NaN for a post
    # without a height and refuse an infinite one as an InvalidGrid
    finite = np.isfinite(values)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), n_lon)
        raise ParseError(f"height at row {row}, column {col} is not finite")
    fields["H"] = values.reshape(n_lat, n_lon)
    return fields


def _parse_portable_grid(text: str) -> tuple[dict[str, str], dict]:
    """Header keys and the grid fields of portable grid text. The heights
    are read in one numpy call from the first height line on. When numpy
    stops short of the end, or _grid_fields refuses what it read (a wrong
    count or a non-finite value), the per-line parse reads them again, so
    every text gives the heights or the ParseError of that parse alone."""
    lines = text.splitlines(keepends=True)
    header, first = _read_header(lines)
    values = _heights_in_one_call(text[sum(map(len, lines[:first])):])
    if values is not None:
        with contextlib.suppress(ParseError):
            return header, _grid_fields(header, values)
    return header, _grid_fields(header, _heights_by_line(lines, first))


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
    at the tile's posts: its six header values must equal the tile's, and
    its own geoid_n, which write_portable_grid writes as 0, must be 0). A
    tile gives geoid_n or geoid_grid, not both."""
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
