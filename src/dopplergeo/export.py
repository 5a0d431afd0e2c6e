# export.py
# -------------------------------------------------------------
# Curve output as KML 2.2 and GeoJSON (RFC 7946) for external map viewers.
# Coordinates are written repr-exact so identical inputs produce identical
# bytes and a parse-back recovers the values.

from __future__ import annotations

import json
from xml.sax.saxutils import escape

import numpy as np

STYLE_TERRAIN = "terrainMarks"  # yellow: hits on the terrain posts
STYLE_ELLIPSOID = "ellipsoidMarks"  # red: hits on the bare ellipsoid

_KML_COLORS = {STYLE_TERRAIN: "ff00ffff", STYLE_ELLIPSOID: "ff0000ff"}


def _rows(coords) -> np.ndarray:
    rows = np.asarray(coords, dtype=float)
    if rows.size == 0:
        return np.zeros((0, 3))
    return np.atleast_2d(rows)


def _coord_text(coords) -> str:
    """lat/lon/h rows -> KML 'lon,lat,h' tuples separated by spaces."""
    return " ".join(f"{lon!r},{lat!r},{h!r}" for lat, lon, h in _rows(coords).tolist())


def write_kml(polylines=(), placemark_sets=(), name: str = "dopplergeo") -> bytes:
    """Build a KML document.

    polylines and placemark_sets are iterables of (label, coords, style)
    where coords rows are (lat_deg, lon_deg, h_m) and style is one of
    STYLE_TERRAIN / STYLE_ELLIPSOID. Each polyline becomes a LineString,
    each placemark set one Placemark holding a point per row; altitudes are
    absolute. Empty input yields a valid document with only the styles.
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
        out.append(f"<coordinates>{_coord_text(coords)}</coordinates>")
        out.append("</LineString>")
        out.append("</Placemark>")
    for label, coords, style in placemark_sets:
        out.append("<Placemark>")
        out.append(f"<name>{escape(label)}</name>")
        out.append(f"<styleUrl>#{style}</styleUrl>")
        out.append("<MultiGeometry>")
        for lat, lon, h in _rows(coords).tolist():
            out.append("<Point><altitudeMode>absolute</altitudeMode>"
                       f"<coordinates>{lon!r},{lat!r},{h!r}</coordinates></Point>")
        out.append("</MultiGeometry>")
        out.append("</Placemark>")
    out.append("</Document>")
    out.append("</kml>")
    return "\n".join(out).encode("utf-8")


def write_geojson(polylines=(), placemark_sets=()) -> bytes:
    """FeatureCollection with LineString/MultiPoint features.

    Same (label, coords, style) inputs as write_kml; GeoJSON positions are
    [lon, lat, h]. Output bytes are deterministic.
    """
    features = []
    for geometry, sets in (("LineString", polylines), ("MultiPoint", placemark_sets)):
        for label, coords, style in sets:
            features.append({
                "type": "Feature",
                "properties": {"name": label, "style": style},
                "geometry": {
                    "type": geometry,
                    "coordinates": [[lon, lat, h] for lat, lon, h in _rows(coords).tolist()],
                },
            })
    doc = {"type": "FeatureCollection", "features": features}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
