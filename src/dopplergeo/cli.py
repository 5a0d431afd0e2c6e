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
import functools
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
from .export import (
    STYLE_ELLIPSOID,
    STYLE_TERRAIN,
    format_positions,
    repr_rows,
    write_geojson,
    write_kml,
)
from .geodesy import AttitudeEuler, GeodeticCoord, ecef_to_geodetic_arrays
from .gridfile import (
    ParseError,
    load_portable_grid,
    make_flat_grid,
    make_ridge_grid,
    write_portable_grid,
)
from .intersect import (
    DEFAULT_SAMPLES,
    MAX_SAMPLES,
    MIN_SAMPLES,
    TOPOLOGY_EMPTY,
    intersect_cone_ellipsoid,
)
from .terrain import EmptyGrid, InvalidGrid, TerrainSearchConfig, cone_terrain_curve

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_CONFIG = 4

# each atmosphere kind of the config: the fields it reads besides "kind",
# and its index n above the layers (at every altitude when it has none)
ATMOSPHERE_KINDS = {"vacuum": ((), 1.0), "constant_index": (("n",), 1.0003),
                    "two_layer": (("layers",), 1.0)}


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


def config_section(cfg: dict, name: str) -> dict:
    """cfg[name], or {} when the config has no such section; a section that
    is not a JSON object raises ConfigError."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {section!r}")
    return section


def config_number(value, name: str) -> float:
    """A config value that must be a JSON number, as a float. true, false and
    numeric strings, which float() and int() would take, raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def vehicle_from_config(cfg: dict) -> VehicleState:
    try:
        v = cfg["vehicle"]
        pos = GeodeticCoord(*(config_number(v[key], f"vehicle {key}")
                              for key in ("lat_deg", "lon_deg", "h_m")))
        has_attitude = "yaw_deg" in v or "pitch_deg" in v or "roll_deg" in v
        has_velocity = "velocity_ecef_ms" in v
        if has_attitude == has_velocity:
            raise ConfigError(
                "vehicle needs exactly one of attitude (roll/pitch/yaw + speed_ms) "
                "or velocity_ecef_ms")
        if has_velocity:
            velocity = v["velocity_ecef_ms"]
            if not isinstance(velocity, list) or len(velocity) != 3:
                raise ConfigError(
                    f"vehicle velocity_ecef_ms must be a list of three numbers, got {velocity!r}")
            return VehicleState.from_velocity(
                pos, [config_number(x, "vehicle velocity_ecef_ms") for x in velocity])
        att = AttitudeEuler(*(config_number(v.get(key, 0.0), f"vehicle {key}")
                              for key in ("roll_deg", "pitch_deg", "yaw_deg")))
        return VehicleState.from_attitude(pos, config_number(v["speed_ms"], "vehicle speed_ms"),
                                          att)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad vehicle config: {exc}") from exc


def atmosphere_from_config(cfg: dict) -> AtmosphereModel:
    a = config_section(cfg, "atmosphere")
    kind = a.get("kind", "vacuum")
    if not isinstance(kind, str) or kind not in ATMOSPHERE_KINDS:
        raise ConfigError(f"unknown atmosphere kind {kind!r}")
    fields, default_n = ATMOSPHERE_KINDS[kind]
    unused = sorted(set(a) - {"kind", *fields})
    if unused:
        raise ConfigError(f"atmosphere kind {kind!r} takes no {', '.join(unused)}")
    if kind == "two_layer" and not a.get("layers"):
        raise ConfigError("atmosphere kind 'two_layer' needs at least one layer")
    try:
        return AtmosphereModel(layers=tuple((config_number(top, "atmosphere layer top"),
                                             config_number(index, "atmosphere layer index"))
                                            for top, index in a.get("layers", [])),
                               n=config_number(a.get("n", default_n), "atmosphere n"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad atmosphere config: {exc}") from exc


def cone_from_config(cfg: dict) -> tuple[DopplerCone, VehicleState]:
    vs = vehicle_from_config(cfg)
    m = config_section(cfg, "measurement")
    atmosphere = atmosphere_from_config(cfg)
    if "semi_angle_deg" in m:
        try:
            psi = math.radians(config_number(m["semi_angle_deg"], "semi_angle_deg"))
            return cone_from_geometry(vs.position_ecef(), vs.velocity_dir, psi), vs
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad semi_angle_deg: {exc}") from exc
    try:
        meas = DopplerMeasurement(config_number(m["f_received_hz"], "f_received_hz"),
                                  config_number(m["f_reference_hz"], "f_reference_hz"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"measurement needs f_received_hz and f_reference_hz (or semi_angle_deg): {exc}"
        ) from exc
    return build_cone(vs, meas, n=atmosphere.index_at(vs.position.h)), vs


def n_samples_from_config(cfg: dict, override: int | None) -> int:
    sweep = config_section(cfg, "sweep")
    raw = override if override is not None else sweep.get("n_samples", DEFAULT_SAMPLES)
    config_number(raw, "sweep n_samples")
    try:
        n = int(raw)
    except (ValueError, OverflowError) as exc:  # NaN, infinity
        raise ConfigError(f"bad sweep n_samples: {exc}") from exc
    if isinstance(raw, float) and raw != n:
        raise ConfigError(f"sweep n_samples must be a whole number, got {raw!r}")
    if n < MIN_SAMPLES:
        raise ConfigError(f"sweep n_samples must be at least {MIN_SAMPLES}, got {n}")
    if n > MAX_SAMPLES:
        raise ConfigError(f"sweep n_samples must be at most {MAX_SAMPLES}, got {n}")
    return n


def sweep_configs(paths, samples: int | None) -> list:
    """(config, curve) for each config path; curve.cone is the config's cone.
    Every config is loaded, its cone built and its sample count checked
    before the first sweep."""
    cfgs = [load_config(path) for path in paths]
    cones = [cone_from_config(cfg)[0] for cfg in cfgs]
    counts = [n_samples_from_config(cfg, samples) for cfg in cfgs]
    return [(cfg, intersect_cone_ellipsoid(cone, n_samples=n))
            for cfg, cone, n in zip(cfgs, cones, counts)]


def load_terrain(cfg: dict):
    t = config_section(cfg, "terrain")
    if "path" not in t:
        raise ConfigError("terrain config with a path is required")
    path = t["path"]
    if not isinstance(path, str):
        raise ConfigError(f"terrain path must be a string, got {path!r}")
    geoid_n = config_number(t.get("geoid_n_m", 0.0), "terrain geoid_n_m")
    if not math.isfinite(geoid_n):
        raise ConfigError(f"terrain geoid_n_m must be finite, got {geoid_n}")
    fmt = t.get("format")
    if fmt is None:
        fmt = "dted" if os.path.splitext(path)[1].lower().startswith(".dt") else "grid"
    if fmt not in ("dted", "grid"):
        raise ConfigError(f'terrain format must be "dted" or "grid", got {fmt!r}')
    if fmt == "grid" and "geoid_n_m" in t:
        raise ConfigError("terrain geoid_n_m applies to DTED tiles only: a portable grid "
                          "gives its own geoid_n or geoid_grid")
    try:
        if fmt == "dted":
            with open(path, "rb") as f:
                return read_dted(f.read(), geoid_n=geoid_n)
        return load_portable_grid(path)
    except OSError as exc:
        raise OSError(f"cannot read terrain {path}: {exc}") from exc
    except (DtedError, InvalidGrid, ParseError, UnicodeDecodeError) as exc:
        # a binary tile read as a portable grid fails to decode as UTF-8
        raise OSError(f"cannot parse terrain {path}: {exc}") from exc


def geodetic_rows(points_ecef) -> np.ndarray:
    """ECEF points -> (lat, lon, h) rows for the exporters."""
    return np.column_stack(ecef_to_geodetic_arrays(points_ecef))


def write_outputs(cfg: dict, out_dir: str | None, stem: str, polylines, placemark_sets):
    """Write the configured documents, leaving out empty row sets; each
    distinct row array is formatted once, before any file is opened, and
    shared by both writers. out_dir, when not None, overrides the config's
    output dir, and either must be a non-empty string."""
    polylines, placemark_sets = ([entry for entry in sets if len(entry[1])]
                                 for sets in (polylines, placemark_sets))
    positions = {}
    for _, rows, _ in (*polylines, *placemark_sets):
        if id(rows) not in positions:
            positions[id(rows)] = format_positions(rows)
    polylines = [(label, positions[id(rows)], style) for label, rows, style in polylines]
    placemark_sets = [(label, positions[id(rows)], style)
                      for label, rows, style in placemark_sets]
    output = config_section(cfg, "output")
    formats = output.get("formats", ["kml", "geojson"])
    if not isinstance(formats, list) or not all(f in ("kml", "geojson") for f in formats):
        raise ConfigError(f'output formats must be a list of "kml" and "geojson", got {formats!r}')
    # out_dir, when given, is checked last and so is the directory written to
    for directory in [output.get("dir", ".")] + ([] if out_dir is None else [out_dir]):
        if not isinstance(directory, str) or not directory:
            raise ConfigError(f"output dir must be a non-empty string, got {directory!r}")
    os.makedirs(directory, exist_ok=True)
    # the writers are looked up at call time, where a tracer may wrap them
    documents = {"kml": lambda: write_kml(polylines, placemark_sets, name=stem),
                 "geojson": lambda: write_geojson(polylines, placemark_sets)}
    return [write_file(os.path.join(directory, f"{stem}.{fmt}"), document())
            for fmt, document in documents.items() if fmt in formats]


def write_file(path: str, data: bytes) -> str:
    """Write bytes to path, the CLI's one way to write a file; returns path."""
    with open(path, "wb") as f:
        f.write(data)
    return path


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
    [(cfg, curve)] = sweep_configs([args.config], args.samples)
    polylines = [("ellipsoid curve (visible)", geodetic_rows(curve.points_near), STYLE_ELLIPSOID),
                 ("ellipsoid curve (far side)", geodetic_rows(curve.points_far), STYLE_ELLIPSOID)]
    written = write_outputs(cfg, args.out, "intersect", polylines, [])
    print(f"topology: {curve.topology}")
    print(f"visible points: {len(curve.points_near)}  far points: {len(curve.points_far)}")
    for path in written:
        print(f"wrote {path}")
    if curve.topology == TOPOLOGY_EMPTY:
        print("cone does not meet the ellipsoid")
    return EXIT_OK


def cmd_terrain(args) -> int:
    [(cfg, curve)] = sweep_configs([args.config], args.samples)
    grid = load_terrain(cfg)
    terrain = cone_terrain_curve(curve, grid, TerrainSearchConfig.for_grid(grid))

    ellipsoid_rows = geodetic_rows(curve.points_near)
    terrain_rows = terrain.points
    written = write_outputs(cfg, args.out, "terrain",
                            [("ellipsoid curve", ellipsoid_rows, STYLE_ELLIPSOID),
                             ("terrain curve", terrain_rows, STYLE_TERRAIN)],
                            [("ellipsoid marks", ellipsoid_rows, STYLE_ELLIPSOID),
                             ("terrain marks", terrain_rows, STYLE_TERRAIN)])
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
    (_, curve_a), (_, curve_b) = sweep_configs([args.config_a, args.config_b], args.samples)
    if len(curve_a) == 0 or len(curve_b) == 0:
        print("shift undefined: at least one curve is empty "
              f"(topologies {curve_a.topology}, {curve_b.topology})")
        return EXIT_OK
    shift = curve_shift(curve_a.points_near, curve_b.points_near)
    print(f"min shift [m]: {shift.min_shift:.3f}")
    print(f"max shift [m]: {shift.max_shift:.3f}")
    if args.detail:
        rows = repr_rows(np.column_stack([curve_a.etas_near, shift.per_point]))
        print("\n".join(["index,eta_rad,distance_m", *(f"{i},{row}" for i, row in enumerate(rows))]))
    return EXIT_OK


def cmd_gen_tile(args) -> int:
    for name, value in vars(args).items():
        option = f"--{name.replace('_', '-')}"
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{option} must be finite, got {value}")
        if name in ("n_lat", "n_lon") and not value > 0:
            raise ConfigError(f"{option} must be positive, got {value}")
    spacing = args.spacing_arcsec / 3600.0
    if not spacing > 0:  # tested in degrees: 1e-321 arcsec underflows to 0
        raise ConfigError(f"--spacing-arcsec must be positive, got {args.spacing_arcsec} "
                          f"({spacing} degrees)")
    if args.format == "dted" and args.geoid_n != 0.0:
        raise ConfigError(f"--geoid-n {args.geoid_n} does not apply to --format dted: a DTED "
                          "tile carries no undulation (the terrain config's geoid_n_m does)")
    if args.format == "grid" and args.level is not None:
        raise ConfigError(f"--level {args.level} does not apply to --format grid: "
                          "a level is a DTED post spacing")
    makers = {"flat": make_flat_grid, "plateau": make_flat_grid, "ridge": make_ridge_grid}
    maker = makers[args.kind]
    # the flat height and the ridge crest are both the seventh argument
    grid = maker(args.lat0, args.lon0, spacing, spacing, args.n_lat, args.n_lon, args.height,
                 args.geoid_n)
    if args.format == "dted" and args.level not in (None, level_for_spacing(grid.dlat)):
        raise ConfigError(f"--level {args.level} does not match --spacing-arcsec "
                          f"{args.spacing_arcsec}")
    # text mode would write the grid's newlines as \r\n on some platforms
    data = write_dted(grid) if args.format == "dted" else write_portable_grid(grid).encode("utf-8")
    write_file(args.out_path, data)
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
                       help="post height [m] (crest height for ridge); a DTED tile rounds "
                            "heights to whole meters, half to even")
    p_gen.add_argument("--geoid-n", type=float, default=0.0,
                       help="geoid undulation [m] of a portable grid (DTED carries none)")
    p_gen.add_argument("--level", type=int, choices=[0, 1, 2],
                       help="DTED level, --format dted only (default: from spacing)")
    p_gen.set_defaults(func=cmd_gen_tile)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main shares across calls; parse_args only reads it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleShift as exc:
        print(f"infeasible measurement: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EmptyGrid as exc:
        print(f"terrain error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, DtedError, InvalidGrid) as exc:
        # InvalidGrid reaches here only from gen-tile: a tile read from a
        # file is an i/o error (load_terrain)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
