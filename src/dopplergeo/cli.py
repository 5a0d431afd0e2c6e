# cli.py
# -------------------------------------------------------------
# Command-line front end: scenario config in, cone reports / intersection
# curves / terrain curves / curve-shift reports out.
#
# Exit codes: 0 success (an empty intersection is a success), 2 infeasible
# measurement, 3 terrain/file I/O failure (an all-void tile included), 4
# config validation failure. Any other error is a fault of the program, not
# of its input: it propagates with its traceback.

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .analysis import AtmosphereModel, curve_shift
from .cone import (
    DopplerCone,
    DopplerMeasurement,
    InfeasibleShift,
    VehicleState,
    build_cone,
    cone_from_geometry,
)
from .dted import DtedError, level_for_spacing, read_dted, write_dted
from .export import STYLE_ELLIPSOID, STYLE_TERRAIN, format_positions, write_geojson, write_kml
from .geodesy import WGS84, AttitudeEuler, GeodeticCoord, ecef_to_geodetic_arrays
from .gridfile import (
    ParseError,
    load_portable_grid,
    make_flat_grid,
    make_ridge_grid,
    write_portable_grid,
)
from .intersect import DEFAULT_SAMPLES, MIN_SAMPLES, intersect_cone_ellipsoid
from .terrain import EmptyGrid, TerrainSearchConfig, cone_terrain_curve

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def vehicle_from_config(cfg: dict) -> VehicleState:
    try:
        v = cfg["vehicle"]
        pos = GeodeticCoord(float(v["lat_deg"]), float(v["lon_deg"]), float(v["h_m"]))
        has_attitude = "yaw_deg" in v or "pitch_deg" in v or "roll_deg" in v
        has_velocity = "velocity_ecef_ms" in v
        if has_attitude == has_velocity:
            raise ConfigError(
                "vehicle needs exactly one of attitude (roll/pitch/yaw + speed_ms) "
                "or velocity_ecef_ms")
        if has_velocity:
            return VehicleState.from_velocity(pos, [float(x) for x in v["velocity_ecef_ms"]])
        att = AttitudeEuler(float(v.get("roll_deg", 0.0)), float(v.get("pitch_deg", 0.0)),
                            float(v.get("yaw_deg", 0.0)))
        return VehicleState.from_attitude(pos, float(v["speed_ms"]), att)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad vehicle config: {exc}") from exc


def atmosphere_from_config(cfg: dict) -> AtmosphereModel:
    a = cfg.get("atmosphere", {})
    try:
        return AtmosphereModel(kind=a.get("kind", "vacuum"),
                               n=float(a.get("n", 1.0003)),
                               layers=tuple((float(t), float(n)) for t, n in a.get("layers", [])))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad atmosphere config: {exc}") from exc


def cone_from_config(cfg: dict) -> tuple[DopplerCone, VehicleState]:
    vs = vehicle_from_config(cfg)
    m = cfg.get("measurement", {})
    atmosphere = atmosphere_from_config(cfg)
    if "semi_angle_deg" in m:
        try:
            psi = math.radians(float(m["semi_angle_deg"]))
            return cone_from_geometry(vs.position_ecef(), vs.velocity_dir, psi), vs
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad semi_angle_deg: {exc}") from exc
    try:
        meas = DopplerMeasurement(float(m["f_received_hz"]), float(m["f_reference_hz"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            "measurement needs f_received_hz and f_reference_hz (or semi_angle_deg)"
        ) from exc
    return build_cone(vs, meas, n=atmosphere.index_at(vs.position.h)), vs


def n_samples_from_config(cfg: dict, override: int | None) -> int:
    raw = override if override is not None else \
        cfg.get("sweep", {}).get("n_samples", DEFAULT_SAMPLES)
    try:
        n = int(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep n_samples: {exc}") from exc
    if n < MIN_SAMPLES:
        raise ConfigError(f"sweep n_samples must be at least {MIN_SAMPLES}, got {n}")
    return n


def load_terrain(cfg: dict):
    t = cfg.get("terrain")
    if not t or "path" not in t:
        raise ConfigError("terrain config with a path is required")
    path = t["path"]
    try:
        geoid_n = float(t.get("geoid_n_m", 0.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad terrain geoid_n_m: {exc}") from exc
    if not math.isfinite(geoid_n):
        raise ConfigError(f"terrain geoid_n_m must be finite, got {geoid_n}")
    fmt = t.get("format")
    if fmt is None:
        fmt = "dted" if os.path.splitext(path)[1].lower().startswith(".dt") else "grid"
    try:
        if fmt == "dted":
            with open(path, "rb") as f:
                return read_dted(f.read(), geoid_n=geoid_n)
        return load_portable_grid(path)
    except OSError as exc:
        raise IOError(f"cannot read terrain {path}: {exc}") from exc
    except (DtedError, ParseError) as exc:
        raise IOError(f"cannot parse terrain {path}: {exc}") from exc


def geodetic_rows(points_ecef) -> np.ndarray:
    """ECEF points -> (lat, lon, h) rows for the exporters."""
    return np.column_stack(ecef_to_geodetic_arrays(points_ecef))


def write_outputs(cfg: dict, out_dir: str | None, stem: str, polylines, placemark_sets):
    """Write the configured documents; each distinct row array is formatted
    once, before any file is opened, and shared by both writers."""
    positions = {}
    for _, rows, _ in (*polylines, *placemark_sets):
        if id(rows) not in positions:
            positions[id(rows)] = format_positions(rows)
    polylines = [(label, positions[id(rows)], style) for label, rows, style in polylines]
    placemark_sets = [(label, positions[id(rows)], style)
                      for label, rows, style in placemark_sets]
    output = cfg.get("output", {})
    formats = output.get("formats", ["kml", "geojson"])
    directory = out_dir or output.get("dir", ".")
    os.makedirs(directory, exist_ok=True)
    written = []
    if "kml" in formats:
        path = os.path.join(directory, f"{stem}.kml")
        with open(path, "wb") as f:
            f.write(write_kml(polylines, placemark_sets, name=stem))
        written.append(path)
    if "geojson" in formats:
        path = os.path.join(directory, f"{stem}.geojson")
        with open(path, "wb") as f:
            f.write(write_geojson(polylines, placemark_sets))
        written.append(path)
    return written


def cmd_cone(args) -> int:
    cfg = load_config(args.config)
    cone, vs = cone_from_config(cfg)
    apex_geo = vs.position
    report = {
        "apex_ecef_m": [float(x) for x in cone.apex],
        "apex_geodetic": {"lat_deg": apex_geo.lat, "lon_deg": apex_geo.lon,
                          "h_m": apex_geo.h},
        "axis_ecef": [float(x) for x in cone.axis],
        "semi_angle_deg": math.degrees(cone.semi_angle),
        "d": cone.d if math.isfinite(cone.d) else None,  # null for the plane kind
        "kind": cone.kind,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return EXIT_OK
    print(f"apex ECEF [m]: {report['apex_ecef_m'][0]:.3f} "
          f"{report['apex_ecef_m'][1]:.3f} {report['apex_ecef_m'][2]:.3f}")
    print(f"apex geodetic: lat {apex_geo.lat:.6f} lon {apex_geo.lon:.6f} h {apex_geo.h:.3f}")
    print(f"axis ECEF: {cone.axis[0]:.9f} {cone.axis[1]:.9f} {cone.axis[2]:.9f}")
    print(f"semi-angle [deg]: {report['semi_angle_deg']:.4f}")
    print(f"d = tan(semi-angle): {cone.d:.6f}")
    print(f"kind: {cone.kind}")
    return EXIT_OK


def cmd_intersect(args) -> int:
    cfg = load_config(args.config)
    cone, _ = cone_from_config(cfg)
    curve = intersect_cone_ellipsoid(cone, WGS84, n_samples_from_config(cfg, args.samples))
    polylines = []
    if len(curve.points_near):
        polylines.append(("ellipsoid curve (visible)", geodetic_rows(curve.points_near),
                          STYLE_ELLIPSOID))
    if len(curve.points_far):
        polylines.append(("ellipsoid curve (far side)", geodetic_rows(curve.points_far),
                          STYLE_ELLIPSOID))
    written = write_outputs(cfg, args.out, "intersect", polylines, [])
    print(f"topology: {curve.topology}")
    print(f"visible points: {len(curve.points_near)}  far points: {len(curve.points_far)}")
    for path in written:
        print(f"wrote {path}")
    if curve.topology == "empty":
        print("cone does not meet the ellipsoid")
    return EXIT_OK


def cmd_terrain(args) -> int:
    cfg = load_config(args.config)
    cone, vs = cone_from_config(cfg)
    grid = load_terrain(cfg)
    curve = intersect_cone_ellipsoid(cone, WGS84, n_samples_from_config(cfg, args.samples))
    search = TerrainSearchConfig.for_grid(grid)
    terrain = cone_terrain_curve(curve, cone, grid, search)

    ellipsoid_rows = geodetic_rows(curve.points_near)
    terrain_rows = terrain.points
    polylines = []
    marks = []
    if len(ellipsoid_rows):
        polylines.append(("ellipsoid curve", ellipsoid_rows, STYLE_ELLIPSOID))
        marks.append(("ellipsoid marks", ellipsoid_rows, STYLE_ELLIPSOID))
    if len(terrain_rows):
        polylines.append(("terrain curve", terrain_rows, STYLE_TERRAIN))
        marks.append(("terrain marks", terrain_rows, STYLE_TERRAIN))
    written = write_outputs(cfg, args.out, "terrain", polylines, marks)
    print(f"ellipsoid points: {len(ellipsoid_rows)}  terrain points: {len(terrain_rows)}")
    if terrain.gaps:
        spans = ", ".join(f"[{a:.4f}, {b:.4f}]" for a, b in terrain.gaps)
        print(f"gaps (eta rad): {spans}")
    else:
        print("gaps: none")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_shift(args) -> int:
    cfg_a = load_config(args.config_a)
    cfg_b = load_config(args.config_b)
    cone_a, _ = cone_from_config(cfg_a)
    cone_b, _ = cone_from_config(cfg_b)
    curve_a = intersect_cone_ellipsoid(cone_a, WGS84, n_samples_from_config(cfg_a, args.samples))
    curve_b = intersect_cone_ellipsoid(cone_b, WGS84, n_samples_from_config(cfg_b, args.samples))
    if len(curve_a) == 0 or len(curve_b) == 0:
        print("shift undefined: at least one curve is empty "
              f"(topologies {curve_a.topology}, {curve_b.topology})")
        return EXIT_OK
    shift = curve_shift(curve_a.points_near, curve_b.points_near)
    print(f"min shift [m]: {shift.min_shift:.3f}")
    print(f"max shift [m]: {shift.max_shift:.3f}")
    if args.detail:
        rows = enumerate(zip(curve_a.etas_near.tolist(), shift.per_point.tolist()))
        print("\n".join(["index,eta_rad,distance_m",
                         *(f"{i},{eta!r},{dist!r}" for i, (eta, dist) in rows)]))
    return EXIT_OK


def cmd_gen_tile(args) -> int:
    makers = {"flat": make_flat_grid, "plateau": make_flat_grid, "ridge": make_ridge_grid}
    maker = makers[args.kind]
    spacing = args.spacing_arcsec / 3600.0
    kwargs = {"geoid_n": args.geoid_n}
    if args.kind == "ridge":
        kwargs["crest"] = args.height
    else:
        kwargs["height"] = args.height
    grid = maker(args.lat0, args.lon0, spacing, spacing, args.n_lat, args.n_lon, **kwargs)
    if args.format == "dted":
        level = args.level if args.level is not None else level_for_spacing(grid.dlat)
        data = write_dted(grid, level)
        with open(args.out_path, "wb") as f:
            f.write(data)
    else:
        with open(args.out_path, "w", encoding="utf-8") as f:
            f.write(write_portable_grid(grid))
    print(f"wrote {args.out_path} ({args.n_lat}x{args.n_lon} posts, kind {args.kind})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dopplergeo",
        description="Locate the curve of candidate stationary emitters from a "
                    "single Doppler measurement. Config values: angles in "
                    "degrees, distances in meters, speeds in m/s, frequencies in Hz.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cone = sub.add_parser("cone", help="report the measurement's cone")
    p_cone.add_argument("--config", required=True, help="scenario JSON path")
    p_cone.add_argument("--json", action="store_true", help="machine-readable output")
    p_cone.set_defaults(func=cmd_cone)

    p_int = sub.add_parser("intersect", help="intersect the cone with the ellipsoid")
    p_int.add_argument("--config", required=True)
    p_int.add_argument("--out", help="output directory (overrides config)")
    p_int.add_argument("--samples", type=int, help="sweep sample count")
    p_int.set_defaults(func=cmd_intersect)

    p_ter = sub.add_parser("terrain", help="map the curve onto a terrain tile")
    p_ter.add_argument("--config", required=True)
    p_ter.add_argument("--out", help="output directory (overrides config)")
    p_ter.add_argument("--samples", type=int)
    p_ter.set_defaults(func=cmd_terrain)

    p_shift = sub.add_parser("shift", help="displacement between two scenarios' curves")
    p_shift.add_argument("config_a")
    p_shift.add_argument("config_b")
    p_shift.add_argument("--samples", type=int)
    p_shift.add_argument("--detail", action="store_true", help="per-point CSV")
    p_shift.set_defaults(func=cmd_shift)

    p_gen = sub.add_parser("gen-tile", help="generate a synthetic terrain tile")
    p_gen.add_argument("--kind", choices=["flat", "plateau", "ridge"], default="flat")
    p_gen.add_argument("--format", choices=["dted", "grid"], default="grid")
    p_gen.add_argument("--out-path", required=True)
    p_gen.add_argument("--lat0", type=float, required=True, help="SW corner latitude [deg]")
    p_gen.add_argument("--lon0", type=float, required=True, help="SW corner longitude [deg]")
    p_gen.add_argument("--spacing-arcsec", type=float, default=3.0)
    p_gen.add_argument("--n-lat", type=int, default=101)
    p_gen.add_argument("--n-lon", type=int, default=101)
    p_gen.add_argument("--height", type=float, default=0.0,
                       help="post height (crest height for ridge)")
    p_gen.add_argument("--geoid-n", type=float, default=0.0)
    p_gen.add_argument("--level", type=int, choices=[0, 1, 2],
                       help="DTED level (default: from spacing)")
    p_gen.set_defaults(func=cmd_gen_tile)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleShift as exc:
        print(f"infeasible measurement: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (IOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EmptyGrid as exc:
        print(f"terrain error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, DtedError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
