# export.py
# -------------------------------------------------------------
# Curve output as KML 2.2 and GeoJSON (RFC 7946) for external map viewers.
# Coordinates are written repr-exact so identical inputs produce identical
# bytes and a parse-back recovers the values. Each row set is formatted once
# into "lon,lat,h" strings (format_positions) and both documents are built
# from those strings, so a caller writing both formats, or one row set as
# both a line and its marks, formats every coordinate once. Heights repeat
# (a point on the ellipsoid has a height that is a few-ulp residual, a
# terrain hit its post's height), so each distinct height is formatted once.
# A row holding NaN or an infinity raises NonFiniteCoordinate: neither
# format can carry it.

from __future__ import annotations

import json
from xml.sax.saxutils import escape

import numpy as np

STYLE_TERRAIN = "terrainMarks"  # yellow: hits on the terrain posts
STYLE_ELLIPSOID = "ellipsoidMarks"  # red: hits on the bare ellipsoid

_KML_COLORS = {STYLE_TERRAIN: "ff00ffff", STYLE_ELLIPSOID: "ff0000ff"}
_KML_POINT_OPEN = "<Point><altitudeMode>absolute</altitudeMode><coordinates>"
_KML_POINT_CLOSE = "</coordinates></Point>"


class NonFiniteCoordinate(ValueError):
    """A coordinate row holds NaN or an infinity."""


class Positions(list):
    """Rows already formatted as "lon,lat,h" strings, in row order."""


def _repr_column(column: np.ndarray) -> list:
    """repr of each value of a finite float64 column, taken once per
    distinct bit pattern (so -0.0 and 0.0 stay apart), in row order."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = [repr(value) for value in bits.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]


def format_positions(coords) -> Positions:
    """lat/lon/h rows -> Positions of "lon,lat,h" repr strings.

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
    lats, lons = rows[:, 0].tolist(), rows[:, 1].tolist()
    return Positions([f"{lon!r},{lat!r},{h}"
                      for lat, lon, h in zip(lats, lons, _repr_column(rows[:, 2]))])


def write_kml(polylines=(), placemark_sets=(), name: str = "dopplergeo") -> bytes:
    """Build a KML document.

    polylines and placemark_sets are iterables of (label, coords, style)
    where coords are (lat_deg, lon_deg, h_m) rows or their format_positions
    result, and style is one of STYLE_TERRAIN / STYLE_ELLIPSOID. Each
    polyline becomes a LineString, each placemark set one Placemark holding
    a point per row; altitudes are absolute. Empty input yields a valid
    document with only the styles.
    """
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<kml xmlns="http://www.opengis.net/kml/2.2">')
    out.append("<Document>")
    out.append(f"<name>{escape(name)}</name>")
    for style_id, color in _KML_COLORS.items():
        out.append(
            f'<Style id="{style_id}">'
            f"<IconStyle><color>{color}</color></IconStyle>"
            f"<LineStyle><color>{color}</color><width>2</width></LineStyle>"
            f"</Style>")
    for label, coords, style in polylines:
        out.append("<Placemark>")
        out.append(f"<name>{escape(label)}</name>")
        out.append(f"<styleUrl>#{style}</styleUrl>")
        out.append("<LineString><altitudeMode>absolute</altitudeMode>")
        out.append(f"<coordinates>{' '.join(format_positions(coords))}</coordinates>")
        out.append("</LineString>")
        out.append("</Placemark>")
    for label, coords, style in placemark_sets:
        out.append("<Placemark>")
        out.append(f"<name>{escape(label)}</name>")
        out.append(f"<styleUrl>#{style}</styleUrl>")
        out.append("<MultiGeometry>")
        positions = format_positions(coords)
        if positions:  # one line per point
            between = f"{_KML_POINT_CLOSE}\n{_KML_POINT_OPEN}"
            out.append(_KML_POINT_OPEN + between.join(positions) + _KML_POINT_CLOSE)
        out.append("</MultiGeometry>")
        out.append("</Placemark>")
    out.append("</Document>")
    out.append("</kml>")
    return "\n".join(out).encode("utf-8")


def write_geojson(polylines=(), placemark_sets=()) -> bytes:
    """FeatureCollection with LineString/MultiPoint features.

    Same (label, coords, style) inputs as write_kml; GeoJSON positions are
    [lon, lat, h]. The text is that of json.dumps(sort_keys=True,
    separators=(",", ":")) on the equivalent document, so bytes are
    deterministic.
    """
    features = []
    for geometry, sets in (("LineString", polylines), ("MultiPoint", placemark_sets)):
        for label, coords, style in sets:
            positions = format_positions(coords)
            coordinates = f"[[{'],['.join(positions)}]]" if positions else "[]"
            properties = json.dumps({"name": label, "style": style},
                                    sort_keys=True, separators=(",", ":"))
            features.append(
                f'{{"geometry":{{"coordinates":{coordinates},"type":"{geometry}"}},'
                f'"properties":{properties},"type":"Feature"}}')
    return f'{{"features":[{",".join(features)}],"type":"FeatureCollection"}}'.encode("utf-8")
