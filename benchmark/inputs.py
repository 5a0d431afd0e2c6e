"""Seeded inputs for the benchmark workloads.

Each workload builder writes scenario JSON files (and, for the terrain
workloads, tiles made by ``dopplergeo gen-tile``) into a directory and
returns the operations to run against them. The same seed and sizes give
byte-identical files. Nothing here is timed; ``run.py`` times the calls.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0
EARTH_RADIUS_M = 6371000.0

# Committed scenario pairs of the error-budget study, as (a, b): the curve of
# `a` is measured against the curve of `b`.
COMMITTED_PAIRS = (
    ("leos_offset_true.json", "leos_offset_nominal.json"),
    ("uav_offset_true.json", "uav_offset_nominal.json"),
    ("uav_refraction_air.json", "uav_refraction_vacuum.json"),
    ("uav_small_angle_air.json", "uav_small_angle_vacuum.json"),
    ("uav_wide_angle_air.json", "uav_wide_angle_vacuum.json"),
)
COMMITTED_SWEEP = "uav_adelaide_forced_angle.json"

# ROADMAP antimeridian repro: the windowed terrain search drops every post
# whose longitude runs past 180 degrees, so it maps none of the rays the
# global scan maps on this tile.
ANTIMERIDIAN_DEFECT = "antimeridian: windowed terrain search drops posts past 180 deg"
ANTIMERIDIAN_TILE = {"lat0": -34.75, "lon0": 179.98}
ANTIMERIDIAN_RECEIVER = {"lat_deg": -34.6462, "lon_deg": 180.03, "h_m": 2000.0,
                         "roll_deg": 0.0, "pitch_deg": -30.0, "yaw_deg": 90.0}
ANTIMERIDIAN_SEMI_ANGLE_DEG = 80.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload; ``SMOKE`` shrinks them for the self-test."""

    sweep_samples: int = 7200
    sweep_scenarios: int = 32
    dense_samples: int = 720
    dense_tiles: int = 4
    dense_posts: int = 120
    wide_samples: int = 180
    wide_tiles: int = 2
    wide_posts: int = 600
    ops_per_tile: int = 4
    budget_samples: int = 1440
    budget_seeded_pairs: int = 14
    oracle_rays_dense: int = 16
    oracle_rays_wide: int = 6


FULL = Sizes()
SMOKE = Sizes(sweep_samples=720, sweep_scenarios=4, dense_tiles=1, dense_posts=40,
              wide_tiles=1, wide_posts=60, ops_per_tile=1, budget_samples=360,
              budget_seeded_pairs=1, oracle_rays_dense=4, oracle_rays_wide=2)


@dataclass
class Op:
    """One CLI request of a workload, with what its checks need to know."""

    label: str
    kind: str  # "intersect", "terrain" or "shift"
    argv: list
    configs: tuple  # scenario paths; two for "shift"
    samples: int
    out_dir: str | None = None
    committed: str | None = None  # committed config name(s) this op runs
    oracle_rays: int = 0
    oracle_offset: float = 0.0  # fraction of the ray spacing, from the seed
    known_defect: str | None = None


@dataclass
class Inputs:
    ops: list
    tiles: list = field(default_factory=list)  # paths written by gen-tile
    gen_tile_argv: list = field(default_factory=list)


def horizon_dip_deg(h_m: float) -> float:
    """Depression of the geometric horizon seen from height h (spherical Earth)."""
    return math.degrees(math.acos(EARTH_RADIUS_M / (EARTH_RADIUS_M + h_m)))


def doppler_measurement(rng, psi_deg: float, speed: float, approach: bool) -> dict:
    """Received/reference frequencies whose shift implies semi-angle psi."""
    f_ref = float(rng.uniform(0.4e9, 3.0e9))
    sign = 1.0 if approach else -1.0
    shift = sign * f_ref * speed * math.cos(math.radians(psi_deg)) / SPEED_OF_LIGHT
    return {"f_received_hz": f_ref + shift, "f_reference_hz": f_ref}


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    return path


def _vehicle(lat, lon, h, yaw, pitch, speed) -> dict:
    return {"lat_deg": float(lat), "lon_deg": float(lon), "h_m": float(h),
            "roll_deg": 0.0, "pitch_deg": float(pitch), "yaw_deg": float(yaw),
            "speed_ms": float(speed)}


def axis_depression_deg(psi_deg: float, dip_deg: float, visible: float) -> float:
    """Depression of the cone axis below the horizontal at which a share
    `visible` of the cone's rays point below the horizon (spherical Earth).

    A ray at sweep angle eta points below the horizontal by asin(sin b cos psi
    + cos b sin psi cos eta); it meets the ground when that exceeds the dip.
    """
    psi = math.radians(psi_deg)
    a, b = math.cos(psi), math.sin(psi) * math.cos(math.pi * visible)
    return math.degrees(math.asin(math.sin(math.radians(dip_deg)) / math.hypot(a, b))
                        - math.atan2(b, a))


# Sweep geometry classes by where the cone's rays point relative to the
# horizon: every ray below it (a full ring), some below (an arc), every ray
# above it (no intersection). Arcs cover the sweep share from 5% to 95% along
# a golden-ratio sequence that is the same for every seed: an op's cost grows
# with its visible share, so op costs spread evenly between the empty and the
# full-ring cost and a pass over the op list costs nearly the same whatever
# the seed; the seed moves the platforms, heights and angles. No topology
# label is avoided. The platform alternates within each class.
SWEEP_CLASSES = ("arc", "ring", "arc", "arc", "empty", "arc", "arc", "arc")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _sweep_scenario(rng, index: int, visible: float) -> dict:
    cls = SWEEP_CLASSES[index % len(SWEEP_CLASSES)]
    leo = (index + index // len(SWEEP_CLASSES)) % 2 == 1
    h = float(rng.uniform(300e3, 800e3) if leo else rng.uniform(300.0, 6000.0))
    speed = float(rng.uniform(7400.0, 7800.0) if leo else rng.uniform(20.0, 80.0))
    dip = horizon_dip_deg(h)
    psi = float(rng.uniform(2.0, 86.0 - dip))
    # beta: depression of the cone axis below the local horizontal
    if cls == "ring":
        beta = float(rng.uniform(psi + dip + 1.0, 88.0))
    elif cls == "empty":
        beta = -float(rng.uniform(psi - dip + 1.0, 88.0))
    else:
        beta = axis_depression_deg(psi, dip, visible)
    approach = bool(rng.integers(2))
    azimuth = float(rng.uniform(0.0, 360.0))
    # the axis follows the velocity on approach and opposes it on recede
    pitch, yaw = (-beta, azimuth) if approach else (beta, (azimuth + 180.0) % 360.0)
    cfg = {"vehicle": _vehicle(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0),
                               h, yaw, pitch, speed),
           "output": {"formats": ["kml", "geojson"]}}
    if index % 4 == 2:
        cfg["measurement"] = {"semi_angle_deg": psi}
        if not approach:  # a forced angle keeps the axis on the velocity
            cfg["vehicle"]["pitch_deg"], cfg["vehicle"]["yaw_deg"] = -beta, azimuth
    else:
        cfg["measurement"] = doppler_measurement(rng, psi, speed, approach)
    return cfg


def build_sweep(root: str, work: str, seed: int, sizes: Sizes) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    # the committed full ring goes first: it is the warm-up op of every seed
    op = _intersect_op("committed", os.path.join(root, "configs", COMMITTED_SWEEP), work,
                       sizes.sweep_samples)
    op.committed = COMMITTED_SWEEP
    ops = [op]
    arcs = 0
    for i in range(sizes.sweep_scenarios):
        visible = 0.05 + 0.9 * ((0.5 + arcs * GOLDEN) % 1.0)
        arcs += SWEEP_CLASSES[i % len(SWEEP_CLASSES)] == "arc"
        path = _write_json(os.path.join(work, f"sweep_{i:03d}.json"),
                           _sweep_scenario(rng, i, visible))
        ops.append(_intersect_op(f"sweep_{i:03d}", path, work, sizes.sweep_samples))
    return Inputs(ops=ops)


def _intersect_op(label: str, config: str, work: str, samples: int) -> Op:
    out = os.path.join(work, "out", label)
    return Op(label=label, kind="intersect", configs=(config,), samples=samples,
              out_dir=out, argv=["intersect", "--config", config, "--out", out,
                                 "--samples", str(samples)])


def _gen_tile(path: str, kind: str, fmt: str, lat0: float, lon0: float,
              spacing_arcsec: float, n: int, height: float) -> list:
    argv = ["gen-tile", "--kind", kind, "--format", fmt, "--out-path", path,
            "--lat0", repr(lat0), "--lon0", repr(lon0),
            "--spacing-arcsec", repr(spacing_arcsec), "--n-lat", str(n), "--n-lon", str(n),
            "--height", repr(height)]
    if fmt == "dted":
        argv += ["--level", "2"]
    return argv


def _terrain_op(label: str, cfg: dict, work: str, samples: int, oracle_rays: int,
                rng, known_defect: str | None = None) -> Op:
    config = _write_json(os.path.join(work, f"{label}.json"), cfg)
    out = os.path.join(work, "out", label)
    return Op(label=label, kind="terrain", configs=(config,), samples=samples, out_dir=out,
              argv=["terrain", "--config", config, "--out", out, "--samples", str(samples)],
              oracle_rays=oracle_rays, oracle_offset=float(rng.uniform()),
              known_defect=known_defect)


def _tile_lat(rng, t: int, n_tiles: int) -> float:
    """Latitude of tile t of n_tiles. The terrain search window widens in
    longitude by 1/cos(lat), so the distance from the equator follows the
    tile index and only the hemisphere and a small jitter follow the seed."""
    lat = 5.0 + 50.0 * (t + 0.5) / n_tiles + float(rng.uniform(-2.0, 2.0))
    return lat if rng.integers(2) else -lat


def build_terrain_dense(root: str, work: str, seed: int, sizes: Sizes) -> Inputs:
    """Quickstart-like UAV passes over 3-arcsecond portable-grid tiles.

    The semi-angle sets how close the shallowest rays come to the horizon,
    and so how far they reach and how much of the tile their search windows
    cover: it follows a golden-ratio sequence that is the same for every
    seed, as does the heading up to a seeded turn of 10 degrees.
    """
    rng = np.random.default_rng([seed, 2])
    spacing = 3.0
    span = sizes.dense_posts * spacing / 3600.0
    inputs = Inputs(ops=[])
    for t in range(sizes.dense_tiles):
        lat_c = _tile_lat(rng, t, sizes.dense_tiles)
        lon_c = float(rng.uniform(-175.0, 175.0))
        kind = "ridge" if t % 2 else "flat"
        height = float(rng.uniform(200.0, 900.0) if kind == "ridge" else rng.uniform(0.0, 800.0))
        path = os.path.join(work, f"dense_{t}.grid")
        inputs.tiles.append(path)
        inputs.gen_tile_argv.append(_gen_tile(path, kind, "grid", lat_c - span / 2,
                                              lon_c - span / 2, spacing,
                                              sizes.dense_posts, height))
        for k in range(sizes.ops_per_tile):
            lat = lat_c + float(rng.uniform(-0.2, 0.2)) * span
            lon = lon_c + float(rng.uniform(-0.2, 0.2)) * span
            psi = 24.0 + 8.0 * ((0.5 + (t * sizes.ops_per_tile + k) * GOLDEN) % 1.0)
            yaw = (45.0 + 90.0 * k + float(rng.uniform(-10.0, 10.0))) % 360.0
            cfg = {"vehicle": _vehicle(lat, lon, 2000.0, yaw, -30.0, 50.0),
                   "measurement": doppler_measurement(rng, psi, 50.0, True),
                   "terrain": {"path": path, "format": "grid"},
                   "output": {"formats": ["kml", "geojson"]}}
            inputs.ops.append(_terrain_op(f"dense_{t}_{k}", cfg, work, sizes.dense_samples,
                                          sizes.oracle_rays_dense, rng))
    path = os.path.join(work, "dense_antimeridian.grid")
    inputs.tiles.append(path)
    inputs.gen_tile_argv.append(_gen_tile(path, "flat", "grid", ANTIMERIDIAN_TILE["lat0"],
                                          ANTIMERIDIAN_TILE["lon0"], spacing,
                                          sizes.dense_posts, 0.0))
    for k in range(sizes.ops_per_tile):
        vehicle = dict(ANTIMERIDIAN_RECEIVER, speed_ms=50.0)
        if k:  # the first op is the exact repro; the others turn a little
            vehicle["yaw_deg"] += float(rng.uniform(-15.0, 15.0))
        cfg = {"vehicle": vehicle,
               "measurement": {"semi_angle_deg": ANTIMERIDIAN_SEMI_ANGLE_DEG},
               "terrain": {"path": path, "format": "grid"},
               "output": {"formats": ["kml", "geojson"]}}
        inputs.ops.append(_terrain_op(f"dense_antimeridian_{k}", cfg, work,
                                      sizes.dense_samples, sizes.oracle_rays_dense, rng,
                                      known_defect=ANTIMERIDIAN_DEFECT))
    # interleave the tiles so any prefix of the op list keeps the same mix
    inputs.ops = [inputs.ops[t * sizes.ops_per_tile + k]
                  for k in range(sizes.ops_per_tile) for t in range(sizes.dense_tiles + 1)]
    return inputs


def build_terrain_wide(root: str, work: str, seed: int, sizes: Sizes) -> Inputs:
    """UAV passes over 1-arcsecond DTED level-2 ridge tiles.

    The cone axis is tilted so that about two fifths of the rays reach the
    ground, most of them on the tile: few rays against many posts. An op's
    cost grows with its ground share, height and semi-angle, so these follow
    golden-ratio sequences that are the same for every seed; so does the
    heading, up to a seeded turn of 10 degrees, as the rays' bearing sets the
    size of the search window. The seed places the tiles and the platforms.
    """
    rng = np.random.default_rng([seed, 3])
    spacing = 1.0
    span = sizes.wide_posts * spacing / 3600.0
    inputs = Inputs(ops=[])
    for t in range(sizes.wide_tiles):
        # DTED headers carry whole arcseconds
        lat0 = round(_tile_lat(rng, t, sizes.wide_tiles) * 3600.0) / 3600.0
        lon0 = round(float(rng.uniform(-175.0, 175.0)) * 3600.0) / 3600.0
        path = os.path.join(work, f"wide_{t}.dt2")
        inputs.tiles.append(path)
        inputs.gen_tile_argv.append(_gen_tile(path, "ridge", "dted", lat0, lon0, spacing,
                                              sizes.wide_posts,
                                              float(round(rng.uniform(200.0, 900.0)))))
        for k in range(sizes.ops_per_tile):
            j = t * sizes.ops_per_tile + k
            h = 1500.0 + 1500.0 * ((0.5 + j * GOLDEN) % 1.0)
            psi = 35.0 + 10.0 * ((0.2 + j * GOLDEN) % 1.0)
            visible = 0.35 + 0.1 * ((0.8 + j * GOLDEN) % 1.0)
            beta = axis_depression_deg(psi, horizon_dip_deg(h), visible)
            lat = lat0 + float(rng.uniform(0.4, 0.6)) * span
            lon = lon0 + float(rng.uniform(0.4, 0.6)) * span
            yaw = (45.0 + 90.0 * k + float(rng.uniform(-10.0, 10.0))) % 360.0
            cfg = {"vehicle": _vehicle(lat, lon, h, yaw, -beta, 50.0),
                   "measurement": doppler_measurement(rng, psi, 50.0, True),
                   "terrain": {"path": path, "format": "dted"},
                   "output": {"formats": ["kml", "geojson"]}}
            inputs.ops.append(_terrain_op(f"wide_{t}_{k}", cfg, work, sizes.wide_samples,
                                          sizes.oracle_rays_wide, rng))
    inputs.ops = [inputs.ops[t * sizes.ops_per_tile + k]
                  for k in range(sizes.ops_per_tile) for t in range(sizes.wide_tiles)]
    return inputs


def _budget_pair(rng, index: int, visible: float) -> tuple:
    """A seeded error-budget pair: a reference-frequency offset (even index)
    or an air-versus-vacuum refractive index (odd index). `visible` is the
    share of the sweep that reaches the ground, which sets the op's cost."""
    psi = float(rng.uniform(15.0, 40.0))
    h = float(rng.uniform(1000.0, 4000.0))
    beta = axis_depression_deg(psi, horizon_dip_deg(h), visible)
    vehicle = _vehicle(rng.uniform(-55.0, 55.0), rng.uniform(-180.0, 180.0), h,
                       rng.uniform(0.0, 360.0), -beta, rng.uniform(30.0, 70.0))
    m = doppler_measurement(rng, psi, vehicle["speed_ms"], True)
    a = {"vehicle": vehicle, "measurement": dict(m)}
    b = {"vehicle": vehicle, "measurement": dict(m)}
    if index % 2 == 0:
        # raising the reference shrinks the shift, so the pair stays feasible
        shift = m["f_received_hz"] - m["f_reference_hz"]
        b["measurement"]["f_reference_hz"] = m["f_reference_hz"] + float(rng.uniform(0.05, 0.3)) * shift
    else:
        a["atmosphere"] = {"kind": "constant_index", "n": float(rng.uniform(1.0002, 1.0004))}
    return a, b


def build_budget(root: str, work: str, seed: int, sizes: Sizes) -> Inputs:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for a, b in COMMITTED_PAIRS:
        paths = (os.path.join(root, "configs", a), os.path.join(root, "configs", b))
        ops.append(_shift_op(f"{a[:-5]}+{b[:-5]}", paths, sizes.budget_samples))
        ops[-1].committed = f"{a}+{b}"
    # visible shares as in build_sweep: the same for every seed
    for i in range(sizes.budget_seeded_pairs):
        a, b = _budget_pair(rng, i, 0.3 + 0.65 * ((0.5 + i * GOLDEN) % 1.0))
        paths = (_write_json(os.path.join(work, f"budget_{i}_a.json"), a),
                 _write_json(os.path.join(work, f"budget_{i}_b.json"), b))
        ops.append(_shift_op(f"budget_{i}", paths, sizes.budget_samples))
    # committed and seeded pairs alternate so any prefix keeps the mix
    committed, seeded = ops[:len(COMMITTED_PAIRS)], ops[len(COMMITTED_PAIRS):]
    return Inputs(ops=_interleave(committed, seeded))


def _interleave(a: list, b: list) -> list:
    out = [x for pair in zip(a, b) for x in pair]
    n = min(len(a), len(b))
    return out + a[n:] + b[n:]


def _shift_op(label: str, paths: tuple, samples: int) -> Op:
    return Op(label=label, kind="shift", configs=paths, samples=samples,
              argv=["shift", paths[0], paths[1], "--detail", "--samples", str(samples)])


BUILDERS = {
    "sweep": build_sweep,
    "terrain_dense": build_terrain_dense,
    "terrain_wide": build_terrain_wide,
    "budget": build_budget,
}
