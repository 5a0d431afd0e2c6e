import json
import math
import tracemalloc
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopplergeo import cli, export
from dopplergeo.export import (
    STYLE_ELLIPSOID,
    STYLE_TERRAIN,
    NonFiniteCoordinate,
    Positions,
    format_positions,
    repr_rows,
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
# heights as the CLI exports them: a few values repeated over many rows,
# -0.0 beside 0.0 (format_positions formats each distinct height once)
REPEATED_HEIGHTS = [-0.0, 0.0, 5e-324, 2 ** -30, -2 ** -30, 1e16]
ROWS = st.one_of(st.lists(st.tuples(COORD, COORD, COORD), max_size=12),
                 st.lists(st.tuples(COORD, COORD, st.sampled_from(REPEATED_HEIGHTS)),
                          max_size=12))
LABEL = st.text(alphabet=st.one_of(st.sampled_from("<&>\"'ü✈東"), st.characters()), max_size=12)
STYLE = st.sampled_from([STYLE_ELLIPSOID, STYLE_TERRAIN])
# rows repeated to 255, 258 and 261 values: either side of the repr kernel's
# threshold, where the text is joined in Python below it and taken from the
# kernel's buffer from it on
KERNEL_EDGE_ROWS = [85, 86, 87]


@st.composite
def row_sets(draw):
    """An array of rows: (n, 3), a single (3,) row, an empty set, or the
    rows repeated to KERNEL_EDGE_ROWS rows."""
    rows = draw(ROWS)
    shape = draw(st.sampled_from(["array", "row", "list", "empty", "kernel edge"]))
    if shape == "row" and rows:
        return np.array(rows[0])
    if shape == "list":
        return [list(r) for r in rows]
    if shape == "empty":
        return np.zeros((0, 3))
    if shape == "kernel edge" and rows:
        return np.resize(np.array(rows, dtype=float), (draw(st.sampled_from(KERNEL_EDGE_ROWS)), 3))
    return np.array(rows, dtype=float).reshape(-1, 3)


@st.composite
def layouts(draw):
    """(polylines, placemark_sets), where marks may reuse a polyline's array
    as the terrain command does, and a layout may hold marks only."""
    polylines = draw(st.lists(st.tuples(LABEL, row_sets(), STYLE), max_size=3))
    marks = []
    for label, rows, style in polylines:
        if draw(st.booleans()):
            marks.append((draw(LABEL), rows, style))
    marks += draw(st.lists(st.tuples(LABEL, row_sets(), STYLE), max_size=2))
    if draw(st.integers(0, 3)) == 0:
        polylines = []
    return polylines, marks


# 2 000 rows over 6 distinct heights, in runs and alone
LONG_ROWS = np.column_stack([np.linspace(-34.6, -35.1, 2000), np.linspace(138.8, 139.4, 2000),
                             np.resize(np.repeat(REPEATED_HEIGHTS, [1, 900, 3, 80, 7, 9]), 2000)])


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
@example(layout=([("long", LONG_ROWS, STYLE_ELLIPSOID)], [("marks", LONG_ROWS, STYLE_ELLIPSOID)]),
         name="few heights")
@example(layout=([], [("Zürich", LONG_ROWS[:86], STYLE_TERRAIN),
                      ("東京", LONG_ROWS[:0], STYLE_TERRAIN),
                      ("✈", LONG_ROWS[:85], STYLE_ELLIPSOID)]), name="marks only ✈")
def test_writers_match_oracle(layout, name):
    assert 85 * 3 < export._KERNEL_MIN <= 86 * 3
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
    assert len(positions) == 3
    assert positions.text == (b"138.83301234567892,-34.64620123456789,123.456789\n"
                              b"138.8400987654321,-34.65000987654321,0.0\n"
                              b"138.85,-34.66,-12.5")
    row = format_positions(CURVE[0])
    assert (row.text, len(row)) == (positions.text.split(b"\n")[0], 1)
    empty = format_positions([])
    assert (empty.text, len(empty)) == (b"", 0)


@pytest.mark.parametrize("shape", [(2, 2), (2, 4), (6,), (2, 2, 3)])
def test_rows_that_are_not_triples_raise(shape):
    # the height column is taken by index, so a fourth column must not be
    # dropped without a word
    with pytest.raises(ValueError, match="triples"):
        format_positions(np.zeros(shape))


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


# a steep cone whose sweep at 7 200 rays gives 7 200 visible and 7 200
# far-side rows, the size of the sweep benchmark's largest ops
STEEP = {"vehicle": {"lat_deg": -34.6462, "lon_deg": 138.833, "h_m": 1500.0, "roll_deg": 0.0,
                     "pitch_deg": -70.0, "yaw_deg": 190.0, "speed_ms": 50.0},
         "measurement": {"semi_angle_deg": 15.0}}


@pytest.mark.parametrize("layout", ["visible and far side", "line and marks"])
def test_write_outputs_peak_memory(layout, tmp_path):
    # the coordinate text stays bytes from the repr kernel to the file: with
    # per-row strings, their joins and one encode of each document the peak
    # was 4.5 MB (visible and far side) and 4.8 MB (line and marks)
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(STEEP))
    [(cfg, curve)] = cli.sweep_configs([str(path)], 7200)
    near, far = cli.geodetic_rows(curve.points_near), cli.geodetic_rows(curve.points_far)
    assert len(near) == len(far) == 7200
    if layout == "visible and far side":
        polylines, marks = [("visible", near, STYLE_ELLIPSOID), ("far", far, STYLE_ELLIPSOID)], []
    else:
        polylines, marks = [("line", near, STYLE_ELLIPSOID)], [("marks", near, STYLE_ELLIPSOID)]
    cli.write_outputs(cfg, str(tmp_path), "curve", polylines, marks)
    tracemalloc.start()
    try:
        cli.write_outputs(cfg, str(tmp_path), "curve", polylines, marks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.9e6


# --- repr_rows against repr itself ---------------------------------------------
# A row set of fewer than export._KERNEL_MIN values takes repr for every
# value, so every drawn column is checked alone, repeated to 300 values, and
# above 300 filler values with 1e-2 <= |x| < 1e15 (the kernel's range).

FILLER = np.linspace(-34.6, -35.1, 300)


def near(x):
    """x or -x, or one of their float neighbours."""
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-math.inf, None, math.inf])
                     ).map(lambda s: s[0] * (x if s[1] is None else math.nextafter(x, s[1])))


POWERS_OF_TWO = st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)).flatmap(near)
SHORT_DECIMALS = st.builds(lambda digits, places: float(f"{digits}e-{places}"),
                           st.integers(0, 10 ** 6), st.integers(0, 20)).flatmap(near)
WHOLE = st.integers(-2 ** 63, 2 ** 63).map(float)
RANGE_ENDS = st.sampled_from([1e-2, 1e15]).flatmap(near)
VALUE = st.one_of(st.floats(), POWERS_OF_TWO, SHORT_DECIMALS, WHOLE, RANGE_ENDS)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(VALUE, min_size=1, max_size=40))
@example(values=[1e-2, math.nextafter(1e-2, 0.0), math.nextafter(1e15, 0.0), 1e15, 0.1, 0.5,
                 100.0, 2.0 ** 49, 999999999999999.9, 0.09999999999999999])
def test_repr_rows_is_repr(values):
    for column in (np.array(values), np.resize(values, 300), np.concatenate([values, FILLER])):
        assert repr_rows(column[:, None]) == [repr(v) for v in column.tolist()]


def test_repr_rows_bulk_is_repr_and_uses_the_kernel(monkeypatch):
    """1.4 M seeded values, two to a row. Values with 1e-2 <= |x| < 1e15 go
    to repr only near a tie or an interval end: here 1 of 699 953 latitudes
    and longitudes, and 0.8 % over the whole range, 2 798 of the 2 815 at
    |x| >= 1e12, where an interval end often falls exactly on the 17th
    digit. A kernel that left every value to repr would fail here."""
    rng = np.random.default_rng(2018)
    n = 350_000
    sets = {
        "lat/lon": (np.concatenate([rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)]), 1e-4),
        "log-uniform": (10 ** rng.uniform(-2, 15, n) * rng.choice([-1.0, 1.0], n), 2e-2),
        "bit patterns": (rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64), 2e-2),
    }
    seen = []

    def counting_repr(value):
        seen.append(value)
        return repr(value)

    monkeypatch.setattr(export, "repr", counting_repr, raising=False)
    for name, (values, share) in sets.items():
        seen.clear()
        rows = values.reshape(-1, 2)
        assert repr_rows(rows) == [f"{a!r},{b!r}" for a, b in rows.tolist()], name
        a = np.abs(values)
        in_range = np.count_nonzero((a >= 1e-2) & (a < 1e15))
        a = np.abs(seen)
        left = np.count_nonzero((a >= 1e-2) & (a < 1e15))
        assert in_range > 5_000 and left / in_range < share, (name, left, in_range)
