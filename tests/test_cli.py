import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dopplergeo import cli, export
from dopplergeo.cli import build_parser, main
from dopplergeo.export import format_positions
from dopplergeo.gridfile import make_flat_grid, write_portable_grid
from dopplergeo.terrain import VOID_ELEVATION, TerrainGrid

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    return str(path)


STEEP = {
    "vehicle": {"lat_deg": -34.6462, "lon_deg": 138.833, "h_m": 1500.0,
                "roll_deg": 0.0, "pitch_deg": -70.0, "yaw_deg": 190.0,
                "speed_ms": 50.0},
    "measurement": {"semi_angle_deg": 15.0},
    "sweep": {"n_samples": 180},
}


def test_cone_forced_angle_echo(capsys):
    code = main(["cone", "--config", config_path("uav_adelaide_forced_angle.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "semi-angle [deg]: 26.5600" in out
    assert "kind: cone" in out


def test_cone_json_matches_human_output(capsys):
    path = config_path("uav_refraction_vacuum.json")
    assert main(["cone", "--config", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["cone", "--config", path]) == 0
    human = capsys.readouterr().out
    assert report["semi_angle_deg"] == pytest.approx(30.00, abs=0.05)
    assert f"semi-angle [deg]: {report['semi_angle_deg']:.4f}" in human
    assert f"d = tan(semi-angle): {report['d']:.6f}" in human
    apex = report["apex_ecef_m"]
    assert f"apex ECEF [m]: {apex[0]:.3f} {apex[1]:.3f} {apex[2]:.3f}" in human
    # the apex keeps the config longitude exactly
    assert report["apex_geodetic"]["lon_deg"] == 138.833


def test_cone_infeasible_exit_2(tmp_path, capsys):
    cfg = json.loads(open(config_path("uav_refraction_vacuum.json")).read())
    cfg["measurement"]["f_received_hz"] = 299792458.0 + 60.0  # > 50 m/s closing
    path = write_json(tmp_path / "bad.json", cfg)
    assert main(["cone", "--config", path]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_invalid_config_exit_4(tmp_path, capsys):
    path = write_json(tmp_path / "broken.json", {"vehicle": {"lat_deg": 0.0}})
    assert main(["cone", "--config", path]) == 4
    assert "config error" in capsys.readouterr().err


def test_conflicting_velocity_sources_exit_4(tmp_path, capsys):
    cfg = json.loads(open(config_path("uav_refraction_vacuum.json")).read())
    cfg["vehicle"]["velocity_ecef_ms"] = [50.0, 0.0, 0.0]
    path = write_json(tmp_path / "both.json", cfg)
    assert main(["cone", "--config", path]) == 4
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, values", [
    ("cone", "measurement", {"semi_angle_deg": 95.0}),
    ("cone", "measurement", {"semi_angle_deg": "steep"}),
    ("intersect", "sweep", {"n_samples": 8}),
    ("intersect", "sweep", {"n_samples": "many"}),
    # a zero semi-angle's locus is the velocity line, not a cone
    ("intersect", "measurement", {"semi_angle_deg": 0}),
    # so small that 1/d^2 overflows: zero to float precision
    ("cone", "measurement", {"semi_angle_deg": 1e-160}),
    # an undulation that is not a finite number, caught before the tile is
    # opened (the path does not exist, which would exit 3)
    ("terrain", "terrain", {"path": "missing.dt2", "geoid_n_m": "abc"}),
    ("terrain", "terrain", {"path": "missing.dt2", "geoid_n_m": None}),
    ("terrain", "terrain", {"path": "missing.dt2", "geoid_n_m": math.nan}),
    ("terrain", "terrain", {"path": "missing.dt2", "geoid_n_m": math.inf}),
    ("terrain", "terrain", {"path": "missing.dt2", "geoid_n_m": -math.inf}),
    # a tile format is "dted" or "grid", in lower case
    ("terrain", "terrain", {"path": "missing.dt2", "format": "xyz"}),
    ("terrain", "terrain", {"path": "missing.dt2", "format": "DTED"}),
    # frequencies, speed and velocity must be finite: NaN and infinity used
    # to end in a traceback or a curve of the wrong cone
    ("cone", "measurement", {"f_received_hz": math.nan, "f_reference_hz": 299792458.0}),
    ("cone", "measurement", {"f_received_hz": 299792501.3, "f_reference_hz": math.inf}),
    ("intersect", "vehicle", dict(STEEP["vehicle"], speed_ms=math.inf)),
    ("intersect", "vehicle", {"lat_deg": -34.6462, "lon_deg": 138.833, "h_m": 1500.0,
                              "velocity_ecef_ms": [math.inf, 0.0, 0.0]}),
    # so must refractive indices: beside a frequency measurement a NaN index
    # ended in a traceback and an infinite one in exit 2
    ("cone", "atmosphere", {"kind": "constant_index", "n": math.nan}),
    ("cone", "atmosphere", {"kind": "two_layer", "layers": [[1e4, math.inf]]}),
    # a NaN layer top was never below the vehicle: the layer was vacuum
    ("cone", "atmosphere", {"kind": "two_layer", "layers": [[math.nan, 1.0003]]}),
    # JSON's Infinity used to end in an OverflowError traceback
    ("intersect", "sweep", {"n_samples": math.inf}),
    # a count that is not a whole number used to be truncated (720.9 swept 720)
    ("intersect", "sweep", {"n_samples": 720.9}),
    ("intersect", "sweep", {"n_samples": 16.5}),
    # an unknown format name used to be dropped, and a string was searched
    # for substrings, so "kmlgeojson" wrote both files
    ("intersect", "output", {"formats": ["kml", "geojsn"]}),
    ("intersect", "output", {"formats": "kmlgeojson"}),
    # a section that is not a JSON object, or a path or dir that is not a
    # string, used to end in an AttributeError or TypeError traceback
    ("intersect", "sweep", []),
    ("cone", "atmosphere", []),
    ("cone", "measurement", 5),
    ("intersect", "output", []),
    ("terrain", "terrain", ["path"]),
    ("terrain", "terrain", {"path": 5}),
    # run without --out, so the dir is the one the run would use
    ("intersect", "output", {"dir": 5}),
    # numbers must be JSON numbers: float() and int() took true and numeric
    # strings, so "50" flew at 50 m/s and a velocity "900" was (9, 0, 0)
    ("intersect", "vehicle", dict(STEEP["vehicle"], speed_ms="50")),
    ("intersect", "vehicle", dict(STEEP["vehicle"], lat_deg="-34.6462")),
    ("intersect", "vehicle", dict(STEEP["vehicle"], roll_deg=True)),
    ("intersect", "vehicle", {"lat_deg": -34.6462, "lon_deg": 138.833, "h_m": 1500.0,
                              "velocity_ecef_ms": "900"}),
    ("intersect", "vehicle", {"lat_deg": -34.6462, "lon_deg": 138.833, "h_m": 1500.0,
                              "velocity_ecef_ms": [900.0, 0.0]}),
    ("intersect", "vehicle", {"lat_deg": -34.6462, "lon_deg": 138.833, "h_m": 1500.0,
                              "velocity_ecef_ms": [900.0, "0", 0.0]}),
    ("cone", "measurement", {"semi_angle_deg": "15"}),
    ("cone", "measurement", {"f_received_hz": "299792501.3", "f_reference_hz": 299792458.0}),
    ("cone", "atmosphere", {"kind": "constant_index", "n": True}),
    ("cone", "atmosphere", {"kind": "two_layer", "layers": [["1e4", 1.0003]]}),
    ("cone", "atmosphere", {"kind": "two_layer", "layers": [[1e4, True]]}),
    ("intersect", "sweep", {"n_samples": "720"}),
    ("terrain", "terrain", {"path": "missing.dt2", "geoid_n_m": True}),
    ("terrain", "terrain", {"path": "missing.dt2", "geoid_n_m": "5"}),
    # values that do not apply used to be dropped without a word: a portable
    # grid gives its own undulation, and each atmosphere kind reads only its
    # own field (two_layer without layers was vacuum)
    ("terrain", "terrain", {"path": "missing.grid", "geoid_n_m": 500.0}),
    ("terrain", "terrain", {"path": "missing.dt2", "format": "grid", "geoid_n_m": 0.0}),
    ("cone", "atmosphere", {"kind": "vacuum", "n": 1.5}),
    ("cone", "atmosphere", {"n": 1.0003}),
    ("cone", "atmosphere", {"kind": "constant_index", "n": 1.0003, "layers": [[1e4, 1.0003]]}),
    ("cone", "atmosphere", {"kind": "two_layer", "n": 1.0003, "layers": [[1e4, 1.0003]]}),
    ("cone", "atmosphere", {"kind": "two_layer"}),
    ("cone", "atmosphere", {"kind": "two_layer", "layers": []}),
    ("cone", "atmosphere", {"kind": "constant_index", "index": 1.0003}),
    # the config, not AtmosphereModel, owns the kinds: an unknown one, one
    # that is not a string, and a layer top that is not finite
    ("cone", "atmosphere", {"kind": "swamp"}),
    ("cone", "atmosphere", {"kind": []}),
    ("cone", "atmosphere", {"kind": "two_layer", "layers": [[math.inf, 1.0003]]}),
])
def test_config_layer_errors_exit_4(tmp_path, capsys, monkeypatch, command, section, values):
    # each is caught before anything is written: --out names a dir that does
    # not exist yet, and the run's directory holds only the config after it
    monkeypatch.chdir(tmp_path)
    cfg = dict(STEEP, **{section: values})
    path = write_json(tmp_path / "bad.json", cfg)
    no_out = command == "cone" or section == "output" and "dir" in values
    out = [] if no_out else ["--out", "out"]
    assert main([command, "--config", path] + out) == 4
    assert "config error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.json"]


@pytest.mark.parametrize("raw", [720, 720.0])
def test_whole_number_samples_sweep_that_many(raw):
    assert cli.n_samples_from_config({"sweep": {"n_samples": raw}}, None) == 720


def test_exact_closing_speed_measurement_exit_2(tmp_path, capsys):
    # a 50 Hz shift on a 1 m wavelength at 50 m/s gives semi-angle 0
    cfg = dict(STEEP, measurement={"f_received_hz": 299792458.0 + 50.0,
                                   "f_reference_hz": 299792458.0})
    path = write_json(tmp_path / "line.json", cfg)
    assert main(["intersect", "--config", path, "--out", str(tmp_path)]) == 2
    assert "infeasible measurement: zero semi-angle" in capsys.readouterr().err


def test_intersect_too_few_samples_flag_exit_4(tmp_path, capsys):
    path = write_json(tmp_path / "steep.json", STEEP)
    assert main(["intersect", "--config", path, "--out", str(tmp_path), "--samples", "4"]) == 4
    assert "at least 16" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["intersect", "terrain", "shift"])
@pytest.mark.parametrize("from_flag", [True, False])
def test_too_many_samples_exit_4(tmp_path, capsys, monkeypatch, command, from_flag):
    # rejected before the sweep or the tile read: the tile does not exist
    # (exit 3 if it were opened) and a sweep would fail the test
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep allocated")

    monkeypatch.setattr(cli, "intersect_cone_ellipsoid", no_sweep)
    too_many = cli.MAX_SAMPLES + 1
    cfg = dict(STEEP, terrain={"path": str(tmp_path / "missing.dt2")})
    if not from_flag:
        cfg["sweep"] = {"n_samples": too_many}
    path = write_json(tmp_path / "big.json", cfg)
    argv = {"intersect": ["intersect", "--config", path, "--out", str(tmp_path)],
            "terrain": ["terrain", "--config", path, "--out", str(tmp_path)],
            "shift": ["shift", path, path]}[command]
    if from_flag:
        argv += ["--samples", str(too_many)]
    assert main(argv) == 4
    assert f"at most {cli.MAX_SAMPLES}" in capsys.readouterr().err


def test_terrain_all_void_tile_exit_3(tmp_path, capsys):
    tile = tmp_path / "void.grid"
    tile.write_text(write_portable_grid(TerrainGrid(
        lat0=-34.70, lon0=138.80, dlat=3 / 3600, dlon=3 / 3600,
        H=np.full((4, 4), VOID_ELEVATION))))
    cfg = dict(STEEP, terrain={"path": str(tile), "format": "grid"})
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 3
    assert "no valid posts" in capsys.readouterr().err


def test_terrain_non_finite_height_exit_3(tmp_path, capsys):
    # the grid is rejected when it is read, before the terrain search
    h = np.zeros((4, 4))
    h[1, 2] = math.inf
    tile = tmp_path / "inf.grid"
    tile.write_text(write_portable_grid(TerrainGrid(
        lat0=-34.70, lon0=138.80, dlat=3 / 3600, dlon=3 / 3600, H=h)))
    cfg = dict(STEEP, terrain={"path": str(tile), "format": "grid"})
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 3
    assert "row 1, column 2 is not finite" in capsys.readouterr().err


def test_terrain_non_finite_header_value_exit_3(tmp_path, capsys):
    # a NaN spacing used to exit 0 with one gap over the whole sweep
    text = write_portable_grid(make_flat_grid(-34.70, 138.80, 3 / 3600, 3 / 3600, 40, 40))
    tile = tmp_path / "nan.grid"
    tile.write_text(text.replace(f"dlat = {3 / 3600!r}", "dlat = nan"))
    cfg = dict(STEEP, terrain={"path": str(tile), "format": "grid"})
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 3
    assert "dlat must be finite and positive, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("size, header, message", [
    (40, {"dlat": "0.0"}, "dlat must be finite and positive, got 0.0"),
    (1, {"n_lat": "-1", "n_lon": "-1"}, "header value n_lat must be positive: -1")])
def test_terrain_non_positive_header_value_exit_3(tmp_path, capsys, size, header, message):
    # a spacing is checked by TerrainGrid, a count by the reader: both exit
    # 3 and name the key;
    # n_lat = n_lon = -1 with one height passes the height count
    text = write_portable_grid(make_flat_grid(-34.70, 138.80, 3 / 3600, 3 / 3600, size, size))
    for key, value in header.items():
        text = re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", text)
    tile = tmp_path / "bad.grid"
    tile.write_text(text)
    path = write_json(tmp_path / "t.json", dict(STEEP, terrain={"path": str(tile)}))
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["grid", "dted"])
@pytest.mark.parametrize("option, value", [
    ("--lat0", "nan"), ("--lon0", "inf"), ("--spacing-arcsec", "nan"), ("--height", "-inf"),
    ("--geoid-n", "inf"), ("--n-lat", "0"), ("--n-lat", "-3"), ("--n-lon", "0"),
    ("--spacing-arcsec", "0.0"), ("--spacing-arcsec", "-1.5"), ("--spacing-arcsec", "1e-321")])
def test_gen_tile_non_finite_option_exit_4(tmp_path, capsys, fmt, option, value):
    # the grid format used to write the value, the DTED one to end in a
    # traceback on a NaN origin; a count below 1 or a spacing of 0 makes no
    # tile that the terrain command can read, and 1e-321 arcsec is 0 degrees
    tile = tmp_path / "tile"
    argv = {"--lat0": "-35.0", "--lon0": "138.0", "--n-lat": "4", "--n-lon": "4", option: value}
    assert main(["gen-tile", "--format", fmt, "--out-path", str(tile),
                 *(f"{key}={text}" for key, text in argv.items())]) == 4
    if math.isfinite(float(value)):
        assert f"{option} must be positive, got {value}" in capsys.readouterr().err
    else:
        assert f"{option} must be finite, got {float(value)}" in capsys.readouterr().err
    assert not tile.exists()


@pytest.mark.parametrize("fmt", ["grid", "dted"])
@pytest.mark.parametrize("lat0, n_lat, last_row", [("95", "4", "95.0025"),
                                                   ("89.9", "400", "90.2325")])
def test_gen_tile_off_the_globe_exit_4(tmp_path, capsys, fmt, lat0, n_lat, last_row):
    # both formats used to write the tile, and both readers read it back
    tile = tmp_path / "tile"
    assert main(["gen-tile", "--format", fmt, "--out-path", str(tile), "--lat0", lat0,
                 "--lon0", "0", "--n-lat", n_lat, "--n-lon", "4"]) == 4
    err = capsys.readouterr().err
    assert f"from latitude {float(lat0)} to {last_row}" in err and "leave [-90, 90]" in err
    assert not tile.exists()


TILE_ORIGIN = ["--lat0", "-35.0", "--lon0", "138.0", "--n-lat", "4", "--n-lon", "4"]


@pytest.mark.parametrize("argv, message", [
    # rejected before the grid is built; the writer would also refuse it
    # rather than round NaN to 0 m
    pytest.param(["--format", "dted", *TILE_ORIGIN, "--height", "nan"],
                 "--height must be finite", id="dted-nan-height"),
    # a DTED tile carries no undulation: it used to read back with N = 0
    pytest.param(["--format", "dted", *TILE_ORIGIN, "--geoid-n", "25"],
                 "--geoid-n 25.0 does not apply to --format dted", id="dted-geoid-n"),
    # a five-digit post count does not fit its UHL field
    pytest.param(["--format", "dted", *TILE_ORIGIN, "--n-lat", "10000", "--n-lon", "1"],
                 "n_lat '10000' does not fit", id="dted-too-many-posts"),
    # the level follows from the spacing; a --level that names another one
    # is rejected
    pytest.param(["--format", "dted", "--level", "2", "--spacing-arcsec", "3", *TILE_ORIGIN],
                 "--level 2 does not match --spacing-arcsec 3.0", id="dted-wrong-level"),
    # a portable grid has no level: --level used to be ignored
    pytest.param(["--format", "grid", "--level", "2", *TILE_ORIGIN],
                 "--level 2 does not apply to --format grid", id="grid-level"),
    # a DTED origin longitude lies in [-180, 180]: 400 used to be written
    pytest.param(["--format", "dted", *TILE_ORIGIN, "--lon0", "400"],
                 "origin longitude 400.0 lies outside [-180, 180]", id="dted-lon0-400"),
])
def test_gen_tile_rejected_exit_4(tmp_path, capsys, argv, message):
    tile = tmp_path / "tile"
    assert main(["gen-tile", "--out-path", str(tile), *argv]) == 4
    assert message in capsys.readouterr().err
    assert not tile.exists()


def test_console_script_entry_point(tmp_path):
    # the installed dopplergeo command runs cli.main, as python -m does;
    # one sample above the ceiling exits 4 through it
    root = Path(CONFIG_DIR).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "dopplergeo.cli", "intersect", "--config",
         config_path("uav_adelaide_forced_angle.json"), "--out", str(tmp_path / "out"),
         "--samples", str(cli.MAX_SAMPLES + 1)], env=env, capture_output=True, text=True)
    assert run.returncode == 4, run.stderr
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(root / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"dopplergeo": "dopplergeo.cli:main"}


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("numerical fault")

    monkeypatch.setattr(cli, "intersect_cone_ellipsoid", broken)
    path = write_json(tmp_path / "steep.json", STEEP)
    with pytest.raises(ValueError, match="numerical fault"):
        main(["intersect", "--config", path, "--out", str(tmp_path)])


def test_intersect_two_rings_two_linestrings(tmp_path, capsys):
    path = write_json(tmp_path / "steep.json", STEEP)
    assert main(["intersect", "--config", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "topology: two_curves" in out
    kml = (tmp_path / "intersect.kml").read_bytes().decode()
    assert kml.count("<LineString>") == 2
    geojson = json.loads((tmp_path / "intersect.geojson").read_bytes())
    assert len(geojson["features"]) == 2


def test_intersect_reference_scene_residuals(tmp_path, capsys):
    path = config_path("uav_adelaide_forced_angle.json")
    assert main(["intersect", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "intersect.geojson").read_bytes())
    visible = next(f for f in doc["features"]
                   if f["properties"]["name"] == "ellipsoid curve (visible)")
    coords = np.array(visible["geometry"]["coordinates"])  # lon, lat, h
    from dopplergeo.cone import cone_from_geometry, cone_surface_residual, quad_form_scale
    from dopplergeo.geodesy import geodetic_to_ecef_arrays
    from dopplergeo.intersect import ellipsoid_residual

    pts = geodetic_to_ecef_arrays(coords[:, 1], coords[:, 0], coords[:, 2])
    assert ellipsoid_residual(pts).max() < 1e-8  # repr round-trip noise included
    cfg = json.loads(open(path).read())
    from dopplergeo.cone import VehicleState
    from dopplergeo.geodesy import AttitudeEuler, GeodeticCoord

    v = cfg["vehicle"]
    vs = VehicleState.from_attitude(
        GeodeticCoord(v["lat_deg"], v["lon_deg"], v["h_m"]), v["speed_ms"],
        AttitudeEuler(v["roll_deg"], v["pitch_deg"], v["yaw_deg"]))
    cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir,
                              math.radians(cfg["measurement"]["semi_angle_deg"]))
    assert cone_surface_residual(cone, pts).max() < 1e-8 * quad_form_scale(cone)
    # the visible ring closes on itself
    gap = np.linalg.norm(pts[0] - pts[-1])
    step = np.linalg.norm(np.diff(pts, axis=0), axis=1).max()
    assert gap <= 2.0 * step


def test_intersect_empty_scenario_exit_0(tmp_path, capsys):
    cfg = dict(STEEP)
    cfg["vehicle"] = dict(STEEP["vehicle"], pitch_deg=45.0)
    path = write_json(tmp_path / "up.json", cfg)
    assert main(["intersect", "--config", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "topology: empty" in out
    assert "does not meet" in out
    kml = (tmp_path / "intersect.kml").read_bytes().decode()
    assert "<LineString>" not in kml


def test_intersect_deterministic_bytes(tmp_path):
    path = write_json(tmp_path / "steep.json", STEEP)
    main(["intersect", "--config", path, "--out", str(tmp_path / "a")])
    main(["intersect", "--config", path, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "intersect.kml").read_bytes() == \
           (tmp_path / "b" / "intersect.kml").read_bytes()
    assert (tmp_path / "a" / "intersect.geojson").read_bytes() == \
           (tmp_path / "b" / "intersect.geojson").read_bytes()


def test_gen_tile_and_terrain_command(tmp_path, capsys):
    tile = tmp_path / "flat.grid"
    assert main(["gen-tile", "--kind", "flat", "--format", "grid",
                 "--out-path", str(tile), "--lat0", "-34.70", "--lon0", "138.80",
                 "--n-lat", "80", "--n-lon", "80"]) == 0
    cfg = dict(STEEP)
    cfg["terrain"] = {"path": str(tile), "format": "grid"}
    path = write_json(tmp_path / "terrain.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "gaps: none" in out
    kml = (tmp_path / "terrain.kml").read_bytes().decode()
    assert "terrainMarks" in kml and "ellipsoidMarks" in kml
    geojson = json.loads((tmp_path / "terrain.geojson").read_bytes())
    names = {f["properties"]["name"] for f in geojson["features"]}
    assert "terrain curve" in names and "ellipsoid curve" in names
    # flat tile: terrain curve stays within a post spacing of the ellipsoid curve
    feats = {f["properties"]["name"]: np.array(f["geometry"]["coordinates"])
             for f in geojson["features"] if f["geometry"]["type"] == "LineString"}
    deg_gap = np.abs(feats["terrain curve"][:, :2].mean(0)
                     - feats["ellipsoid curve"][:, :2].mean(0))
    assert deg_gap.max() < 93.0 / 111e3


@pytest.mark.parametrize("out", [[], ["--out", "elsewhere"]])
def test_empty_output_dir_exit_4(tmp_path, capsys, monkeypatch, out):
    # an empty dir is a config error whatever --out says, caught before the
    # sweep's output is written; it used to exit 3 from os.makedirs("")
    monkeypatch.chdir(tmp_path)
    path = write_json(tmp_path / "empty_dir.json", dict(STEEP, output={"dir": ""}))
    assert main(["intersect", "--config", path] + out) == 4
    assert "output dir must be a non-empty string" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["empty_dir.json"]


def test_empty_out_flag_exit_4(tmp_path, capsys, monkeypatch):
    # --out "" is given, so it is checked like the config's dir; it used to
    # be ignored, and the files went to the config's dir
    monkeypatch.chdir(tmp_path)
    path = write_json(tmp_path / "dot_dir.json", dict(STEEP, output={"dir": "."}))
    assert main(["intersect", "--config", path, "--out", ""]) == 4
    assert "output dir must be a non-empty string, got ''" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["dot_dir.json"]


def test_write_outputs_formats_each_row_array_once(tmp_path, monkeypatch):
    formatted = []

    def counting(coords):
        if not isinstance(coords, export.Positions):
            formatted.append(len(coords))
        return format_positions(coords)

    monkeypatch.setattr(cli, "format_positions", counting)
    monkeypatch.setattr(export, "format_positions", counting)
    tile = tmp_path / "flat.grid"
    assert main(["gen-tile", "--kind", "flat", "--format", "grid",
                 "--out-path", str(tile), "--lat0", "-34.70", "--lon0", "138.80",
                 "--n-lat", "80", "--n-lon", "80"]) == 0
    cfg = dict(STEEP)
    cfg["terrain"] = {"path": str(tile), "format": "grid"}
    path = write_json(tmp_path / "terrain.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 0
    # ellipsoid rows and terrain rows, each a polyline and a mark set in two files
    assert len(formatted) == 2 and min(formatted) > 0


def test_gen_tile_dted_format(tmp_path):
    tile = tmp_path / "flat.dt1"
    assert main(["gen-tile", "--kind", "plateau", "--format", "dted",
                 "--out-path", str(tile), "--lat0", "-35.0", "--lon0", "138.0",
                 "--n-lat", "10", "--n-lon", "10", "--height", "500"]) == 0
    from dopplergeo.dted import read_dted
    grid = read_dted(tile.read_bytes())
    assert grid.H.shape == (10, 10)
    assert (grid.H == 500.0).all()
    # a --level that matches the spacing (3 arcsec, level 1) writes the same tile
    leveled = tmp_path / "leveled.dt1"
    assert main(["gen-tile", "--kind", "plateau", "--format", "dted", "--level", "1",
                 "--out-path", str(leveled), "--lat0", "-35.0", "--lon0", "138.0",
                 "--n-lat", "10", "--n-lon", "10", "--height", "500"]) == 0
    assert leveled.read_bytes() == tile.read_bytes()


def test_terrain_missing_file_exit_3(tmp_path, capsys):
    cfg = dict(STEEP)
    cfg["terrain"] = {"path": str(tmp_path / "nope.grid"), "format": "grid"}
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_terrain_corrupt_file_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    bad.write_text("lat0 = 0.0\n")
    cfg = dict(STEEP)
    cfg["terrain"] = {"path": str(bad), "format": "grid"}
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 3


def test_terrain_geoid_reference_after_heights_exit_3(tmp_path, capsys):
    # the header ends at the first height line: a geoid_grid key after it is
    # a bad height value, even when the companion file exists
    (tmp_path / "n.grid").write_text(write_portable_grid(
        make_flat_grid(-34.75, 138.75, 0.01, 0.01, 2, 2, height=-5.0)))
    tile = tmp_path / "tile.grid"
    tile.write_text(write_portable_grid(make_flat_grid(-34.75, 138.75, 0.01, 0.01, 2, 2))
                    + "geoid_grid = n.grid\n")
    cfg = dict(STEEP, terrain={"path": str(tile), "format": "grid"})
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 3
    assert "line 11: bad height value" in capsys.readouterr().err


def test_terrain_misspelt_header_key_exit_3(tmp_path, capsys):
    # geoid_N used to be kept and never read: the tile was mapped with N = 0
    tile = tmp_path / "tile.grid"
    tile.write_text(write_portable_grid(make_flat_grid(-34.75, 138.75, 0.01, 0.01, 2, 2,
                                                       geoid_n=30.0))
                    .replace("geoid_n = 30.0", "geoid_N = 30.0"))
    path = write_json(tmp_path / "t.json", dict(STEEP, terrain={"path": str(tile)}))
    assert main(["terrain", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "line 8: unknown header key 'geoid_N'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt", ["grid", "dted"])
def test_terrain_tile_off_the_globe_exit_3(tmp_path, capsys, fmt):
    # lat0 95 N in a header: both readers used to take it
    tile = tmp_path / f"tile.{'dt1' if fmt == 'dted' else fmt}"
    assert main(["gen-tile", "--format", fmt, "--out-path", str(tile), "--lat0", "-34.75",
                 "--lon0", "138.75", "--n-lat", "4", "--n-lon", "4"]) == 0
    if fmt == "dted":
        data = bytearray(tile.read_bytes())
        data[12:20] = b"0950000N"
        tile.write_bytes(bytes(data))
    else:
        tile.write_text(tile.read_text().replace("lat0 = -34.75", "lat0 = 95.0"))
    path = write_json(tmp_path / "t.json", dict(STEEP, terrain={"path": str(tile)}))
    assert main(["terrain", "--config", path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"cannot parse terrain {tile}" in err and "from latitude 95.0" in err
    assert not (tmp_path / "out").exists()


def test_terrain_companion_of_another_shape_exit_3(tmp_path, capsys):
    # a 1 x 3 undulation grid beside a 2 x 2 tile used to end in a traceback
    (tmp_path / "n.grid").write_text(write_portable_grid(
        make_flat_grid(-34.75, 138.75, 0.01, 0.01, 1, 3, height=-5.0)))
    tile = tmp_path / "tile.grid"
    tile.write_text(write_portable_grid(make_flat_grid(-34.75, 138.75, 0.01, 0.01, 2, 2))
                    .replace("geoid_n = 0.0", "geoid_grid = n.grid"))
    path = write_json(tmp_path / "t.json", dict(STEEP, terrain={"path": str(tile)}))
    assert main(["terrain", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert "undulation grid n.grid has n_lat = 1, the tile 2" in capsys.readouterr().err


@pytest.mark.parametrize("name, fmt", [("tile.grid", None), ("tile.dt1", "grid")])
def test_terrain_dted_tile_read_as_grid_exit_3(tmp_path, capsys, name, fmt):
    tile = tmp_path / name
    assert main(["gen-tile", "--kind", "flat", "--format", "dted", "--out-path", str(tile),
                 "--lat0", "-34.70", "--lon0", "138.80", "--n-lat", "10", "--n-lon", "10"]) == 0
    cfg = dict(STEEP, terrain={"path": str(tile), "format": fmt})
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 3
    assert "cannot parse terrain" in capsys.readouterr().err


def test_shift_identical_configs_zero(capsys):
    path = config_path("uav_refraction_vacuum.json")
    assert main(["shift", path, path, "--samples", "360"]) == 0
    out = capsys.readouterr().out
    assert "min shift [m]: 0.000" in out
    assert "max shift [m]: 0.000" in out


def test_shift_refraction_pair_with_detail(capsys):
    assert main(["shift", config_path("uav_refraction_vacuum.json"),
                 config_path("uav_refraction_air.json"),
                 "--samples", "360", "--detail"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("min shift")
    header = lines[2]
    assert header == "index,eta_rad,distance_m"
    rows = [ln for ln in lines[3:] if ln]
    assert len(rows) > 100
    assert all(len(row.split(",")) == 3 for row in rows)
    for row in rows:
        index, eta, dist = row.split(",")
        assert int(index) >= 0
        assert math.isfinite(float(eta)) and math.isfinite(float(dist))


def test_shift_empty_curve_reported(tmp_path, capsys):
    cfg = dict(STEEP)
    cfg["vehicle"] = dict(STEEP["vehicle"], pitch_deg=45.0)
    path = write_json(tmp_path / "up.json", cfg)
    assert main(["shift", path, path]) == 0
    assert "shift undefined" in capsys.readouterr().out


def test_main_builds_one_parser(tmp_path, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    path = config_path("uav_refraction_vacuum.json")
    assert main(["cone", "--config", path, "--json"]) == 0
    assert main(["shift", path, path, "--samples", "64"]) == 0
    assert main(["gen-tile", "--out-path", str(tmp_path / "t.grid"), "--lat0", "-35.0",
                 "--lon0", "138.0", "--n-lat", "4", "--n-lon", "4"]) == 0
    with pytest.raises(SystemExit):
        main(["cone"])
    assert main(["cone", "--config", path]) == 0
    assert len(built) == 1


def _run_sequence(directory, capsys, monkeypatch):
    """Exit codes, stdout and stderr of a mixed call sequence run in
    directory, and the bytes of every file it wrote."""
    monkeypatch.chdir(directory)
    write_json(directory / "steep.json", STEEP)
    shift_pair = [config_path("uav_refraction_vacuum.json"), config_path("uav_refraction_air.json")]
    sequence = [
        ["cone", "--config", config_path("uav_refraction_vacuum.json"), "--json"],
        ["intersect", "--config", "steep.json", "--out", "out"],
        ["shift", *shift_pair, "--samples", "90", "--detail"],
        ["gen-tile", "--kind", "ridge", "--out-path", "ridge.grid", "--lat0", "-35.0",
         "--lon0", "138.0", "--n-lat", "6", "--n-lon", "5", "--height", "300"],
        ["intersect", "--samples", "many"],
        ["--help"],
        ["intersect", "--config", "steep.json", "--out", "out", "--samples", "64"],
    ]
    calls = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        calls.append((code, captured.out, captured.err))
    files = {str(p): p.read_bytes() for p in sorted(Path(".").rglob("*")) if p.is_file()}
    return calls, files


def test_shared_parser_matches_fresh_parsers(tmp_path, capsys, monkeypatch):
    (tmp_path / "shared").mkdir()
    (tmp_path / "fresh").mkdir()
    cli._parser.cache_clear()
    shared = _run_sequence(tmp_path / "shared", capsys, monkeypatch)
    monkeypatch.setattr(cli, "_parser", build_parser)  # a new parser for every call
    fresh = _run_sequence(tmp_path / "fresh", capsys, monkeypatch)
    codes = [code for code, _, _ in shared[0]]
    assert codes == [0, 0, 0, 0, "SystemExit(2)", "SystemExit(0)", 0]
    assert shared == fresh
    assert len(shared[1]) == 4  # steep.json, the tile and the two intersect outputs
