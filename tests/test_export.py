import json
import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopplergeo import cli
from dopplergeo.export import (
    STYLE_ELLIPSOID,
    STYLE_TERRAIN,
    NonFiniteCoordinate,
    Positions,
    format_positions,
    write_geojson,
    write_kml,
)

KML_NS = "{http://www.opengis.net/kml/2.2}"

CURVE = np.array([
    [-34.64620123456789, 138.83301234567891, 123.456789],
    [-34.65000987654321, 138.84009876543210, 0.0],
    [-34.66, 138.85, -12.5],
])
MARKS = np.array([[-34.7, 138.9, 10.0], [-34.71, 138.91, 20.0]])


def test_empty_kml_is_wellformed():
    root = ET.fromstring(write_kml())
    assert root.tag == f"{KML_NS}kml"
    doc = root.find(f"{KML_NS}Document")
    assert doc is not None
    assert doc.findall(f"{KML_NS}Placemark") == []
    styles = {s.get("id") for s in doc.findall(f"{KML_NS}Style")}
    assert styles == {STYLE_TERRAIN, STYLE_ELLIPSOID}


def test_two_curves_two_linestrings():
    data = write_kml(polylines=[("near", CURVE, STYLE_ELLIPSOID),
                                ("far", CURVE + 0.5, STYLE_ELLIPSOID)])
    root = ET.fromstring(data)
    lines = root.findall(f".//{KML_NS}LineString")
    assert len(lines) == 2
    for line in lines:
        assert line.find(f"{KML_NS}altitudeMode").text == "absolute"


def test_kml_coordinates_round_trip():
    data = write_kml(polylines=[("curve", CURVE, STYLE_ELLIPSOID)],
                     placemark_sets=[("marks", MARKS, STYLE_TERRAIN)])
    root = ET.fromstring(data)
    text = root.find(f".//{KML_NS}LineString/{KML_NS}coordinates").text
    rows = np.array([[float(v) for v in tok.split(",")] for tok in text.split()])
    assert np.abs(rows[:, 0] - CURVE[:, 1]).max() < 1e-9  # lon first
    assert np.abs(rows[:, 1] - CURVE[:, 0]).max() < 1e-9
    assert np.abs(rows[:, 2] - CURVE[:, 2]).max() < 1e-9
    points = root.findall(f".//{KML_NS}Point/{KML_NS}coordinates")
    assert len(points) == len(MARKS)


def test_kml_styles_referenced():
    data = write_kml(placemark_sets=[("terrain marks", MARKS, STYLE_TERRAIN)])
    root = ET.fromstring(data)
    style_url = root.find(f".//{KML_NS}Placemark/{KML_NS}styleUrl").text
    assert style_url == f"#{STYLE_TERRAIN}"


def test_kml_escapes_labels():
    data = write_kml(polylines=[("a <b> & c", CURVE, STYLE_ELLIPSOID)])
    root = ET.fromstring(data)  # would raise if unescaped
    assert "a <b> & c" in [p.find(f"{KML_NS}name").text
                           for p in root.findall(f".//{KML_NS}Placemark")]


def test_empty_geojson():
    doc = json.loads(write_geojson())
    assert doc == {"type": "FeatureCollection", "features": []}


def test_geojson_lon_first_and_round_trip():
    doc = json.loads(write_geojson(polylines=[("curve", CURVE, STYLE_ELLIPSOID)],
                                   placemark_sets=[("marks", MARKS, STYLE_TERRAIN)]))
    line = doc["features"][0]
    assert line["geometry"]["type"] == "LineString"
    coords = np.array(line["geometry"]["coordinates"])
    assert np.abs(coords[:, 0] - CURVE[:, 1]).max() < 1e-9
    assert np.abs(coords[:, 1] - CURVE[:, 0]).max() < 1e-9
    multi = doc["features"][1]
    assert multi["geometry"]["type"] == "MultiPoint"
    assert len(multi["geometry"]["coordinates"]) == len(MARKS)


def test_outputs_deterministic():
    args = dict(polylines=[("curve", CURVE, STYLE_ELLIPSOID)],
                placemark_sets=[("marks", MARKS, STYLE_TERRAIN)])
    assert write_kml(**args) == write_kml(**args)
    assert write_geojson(**args) == write_geojson(**args)


# --- oracle: the writers as they were before coordinates were formatted once,
# each formatting every coordinate itself (kept verbatim) ----------------------

_ORACLE_KML_COLORS = {STYLE_TERRAIN: "ff00ffff", STYLE_ELLIPSOID: "ff0000ff"}


def _rows(coords) -> np.ndarray:
    rows = np.asarray(coords, dtype=float)
    if rows.size == 0:
        return np.zeros((0, 3))
    return np.atleast_2d(rows)


def _coord_text(coords) -> str:
    """lat/lon/h rows -> KML 'lon,lat,h' tuples separated by spaces."""
    return " ".join(f"{lon!r},{lat!r},{h!r}" for lat, lon, h in _rows(coords).tolist())


def oracle_write_kml(polylines=(), placemark_sets=(), name: str = "dopplergeo") -> bytes:
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<kml xmlns="http://www.opengis.net/kml/2.2">')
    out.append("<Document>")
    out.append(f"<name>{escape(name)}</name>")
    for style_id, color in _ORACLE_KML_COLORS.items():
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


def oracle_write_geojson(polylines=(), placemark_sets=()) -> bytes:
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


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16, -1e300, 1.7976931348623157e308,
               -10994.0, 0.1]
COORD = st.one_of(st.sampled_from(EDGE_VALUES),
                  st.floats(allow_nan=False, allow_infinity=False))
ROWS = st.lists(st.tuples(COORD, COORD, COORD), max_size=12)
LABEL = st.text(alphabet=st.one_of(st.sampled_from("<&>\"'"), st.characters()), max_size=12)
STYLE = st.sampled_from([STYLE_ELLIPSOID, STYLE_TERRAIN])


@st.composite
def row_sets(draw):
    """An array of rows: (n, 3), a single (3,) row, or an empty set."""
    rows = draw(ROWS)
    shape = draw(st.sampled_from(["array", "row", "list"]))
    if shape == "row" and rows:
        return np.array(rows[0])
    if shape == "list":
        return [list(r) for r in rows]
    return np.array(rows, dtype=float).reshape(-1, 3)


@st.composite
def layouts(draw):
    """(polylines, placemark_sets), where marks may reuse a polyline's array
    as the terrain command does."""
    polylines = draw(st.lists(st.tuples(LABEL, row_sets(), STYLE), max_size=3))
    marks = []
    for label, rows, style in polylines:
        if draw(st.booleans()):
            marks.append((draw(LABEL), rows, style))
    marks += draw(st.lists(st.tuples(LABEL, row_sets(), STYLE), max_size=2))
    return polylines, marks


def preformatted(sets):
    return [(label, format_positions(rows), style) for label, rows, style in sets]


def kml_or_error(writer, polylines, marks, name):
    """The KML bytes, or the exception class when the text has no UTF-8
    form (a lone surrogate in a label): the writer must fail as the oracle
    does. GeoJSON escapes such a character and is compared as bytes."""
    try:
        return writer(polylines, marks, name=name)
    except UnicodeEncodeError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(layout=layouts(), name=LABEL)
@example(layout=([("a <b> & \"c\" 'd'", np.array([-34.6, 138.8, -0.0]), STYLE_ELLIPSOID)],
                 [("Zürich ✈ 東京", np.zeros((0, 3)), STYLE_TERRAIN)]), name="<&>\"'")
def test_writers_match_oracle(layout, name):
    polylines, marks = layout
    kml = kml_or_error(oracle_write_kml, polylines, marks, name)
    geojson = oracle_write_geojson(polylines, marks)
    assert kml_or_error(write_kml, polylines, marks, name) == kml
    assert write_geojson(polylines, marks) == geojson
    # the CLI path: rows formatted once, the strings handed to both writers
    polylines, marks = preformatted(polylines), preformatted(marks)
    assert kml_or_error(write_kml, polylines, marks, name) == kml
    assert write_geojson(polylines, marks) == geojson


def test_format_positions_passes_formatted_through():
    positions = format_positions(CURVE)
    assert isinstance(positions, Positions)
    assert format_positions(positions) is positions
    assert positions[0] == "138.83301234567892,-34.64620123456789,123.456789"
    assert format_positions(CURVE[0]) == positions[:1]
    assert format_positions([]) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_non_finite_rows_raise_in_both_writers(bad, column):
    rows = CURVE.copy()
    rows[1, column] = bad
    with pytest.raises(NonFiniteCoordinate, match="row 1"):
        format_positions(rows)
    with pytest.raises(NonFiniteCoordinate):
        write_kml(polylines=[("curve", rows, STYLE_ELLIPSOID)])
    with pytest.raises(NonFiniteCoordinate):
        write_kml(placemark_sets=[("marks", rows, STYLE_TERRAIN)])
    with pytest.raises(NonFiniteCoordinate):
        write_geojson(polylines=[("curve", rows, STYLE_ELLIPSOID)])
    with pytest.raises(NonFiniteCoordinate):
        write_geojson(placemark_sets=[("marks", rows, STYLE_TERRAIN)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rows_leave_no_output_file(bad, tmp_path):
    rows = MARKS.copy()
    rows[-1, 2] = bad
    out_dir = tmp_path / "out"
    with pytest.raises(NonFiniteCoordinate):
        cli.write_outputs({}, str(out_dir), "terrain", [("curve", CURVE, STYLE_ELLIPSOID)],
                          [("marks", rows, STYLE_TERRAIN)])
    assert not out_dir.exists()
