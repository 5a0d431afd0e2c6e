import json
import math
import os

import numpy as np
import pytest

from dopplergeo import cli, export
from dopplergeo.cli import main
from dopplergeo.export import format_positions
from dopplergeo.gridfile import write_portable_grid
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
])
def test_config_layer_errors_exit_4(tmp_path, capsys, command, section, values):
    cfg = dict(STEEP, **{section: values})
    path = write_json(tmp_path / "bad.json", cfg)
    out = [] if command == "cone" else ["--out", str(tmp_path)]
    assert main([command, "--config", path] + out) == 4
    assert "config error" in capsys.readouterr().err


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


def test_terrain_all_void_tile_exit_3(tmp_path, capsys):
    tile = tmp_path / "void.grid"
    tile.write_text(write_portable_grid(TerrainGrid(
        lat0=-34.70, lon0=138.80, dlat=3 / 3600, dlon=3 / 3600,
        H=np.full((4, 4), VOID_ELEVATION))))
    cfg = dict(STEEP, terrain={"path": str(tile), "format": "grid"})
    path = write_json(tmp_path / "t.json", cfg)
    assert main(["terrain", "--config", path, "--out", str(tmp_path)]) == 3
    assert "no valid posts" in capsys.readouterr().err


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
