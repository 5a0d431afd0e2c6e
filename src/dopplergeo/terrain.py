# terrain.py
# -------------------------------------------------------------
# Map cone/ellipsoid intersection points onto a terrain elevation grid.
# Each visible intersection point defines the ray from the receiver through
# it; grid posts near that ray are candidates and the one nearest the
# receiver is the terrain hit. Per-ray mapping is pure and order-independent.

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geodesy import (
    WGS84,
    Ellipsoid,
    GeodeticCoord,
    ecef_to_geodetic_arrays,
    geodetic_to_ecef_arrays,
)
from .intersect import IntersectionCurve

VOID_ELEVATION = -32767.0

STRATEGY_GLOBAL = "global_scan"
STRATEGY_WINDOW = "grid_window"

# candidates may sit at most this factor beyond the generating point's range
FAR_BOUND_FACTOR = 1.05
TIE_EPS = 1e-6


class EmptyGrid(ValueError):
    """Every post in the grid is void."""


@dataclass(frozen=True)
class TerrainGrid:
    """Uniform angular grid of orthometric heights with geoid undulation.

    lat0/lon0 name the south-west corner post; H is indexed [lat, lon] with
    row 0 at lat0. N is the geoid undulation: a scalar or an array matching
    H. Void posts carry VOID_ELEVATION and are never treated as height 0.
    """

    lat0: float
    lon0: float
    dlat: float
    dlon: float
    H: np.ndarray
    N: float | np.ndarray = 0.0

    def __post_init__(self):
        h = np.asarray(self.H, dtype=float)
        if h.ndim != 2:
            raise ValueError("H must be a 2-d array [lat, lon]")
        if self.dlat <= 0.0 or self.dlon <= 0.0:
            raise ValueError("post spacing must be positive")
        object.__setattr__(self, "H", h)
        n = self.N
        if not np.isscalar(n):
            n = np.asarray(n, dtype=float)
            if n.shape != h.shape:
                raise ValueError("N grid shape must match H")
            object.__setattr__(self, "N", n)

    @property
    def n_lat(self) -> int:
        return self.H.shape[0]

    @property
    def n_lon(self) -> int:
        return self.H.shape[1]

    @property
    def void_mask(self) -> np.ndarray:
        return self.H == VOID_ELEVATION

    def lats(self) -> np.ndarray:
        return self.lat0 + self.dlat * np.arange(self.n_lat)

    def lons(self) -> np.ndarray:
        return self.lon0 + self.dlon * np.arange(self.n_lon)

    def max_post_spacing_m(self, e: Ellipsoid = WGS84) -> float:
        """Largest metric post spacing over the grid (lat step vs lon step).

        Longitude steps are widest at the grid latitude nearest the equator.
        """
        deg = math.pi / 180.0 * e.a
        lat_hi = self.lat0 + self.dlat * (self.n_lat - 1)
        if self.lat0 <= 0.0 <= lat_hi:
            cos_max = 1.0
        else:
            cos_max = max(abs(math.cos(math.radians(self.lat0))),
                          abs(math.cos(math.radians(lat_hi))))
        return max(self.dlat * deg, self.dlon * deg * cos_max)


@dataclass(frozen=True)
class EcefPostSet:
    """Non-void grid posts in ECEF with their lat/lon and flat grid indices."""

    ecef: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    index: np.ndarray
    shape: tuple[int, int]

    @cached_property
    def median_lat(self) -> float:
        """Median post latitude; scales the window search's longitude pad."""
        return float(np.median(self.lat))


@dataclass(frozen=True)
class TerrainSearchConfig:
    """Ray-to-post search: distance threshold and candidate strategy.

    tr defaults (when built via for_grid) to 0.75x the largest metric post
    spacing so any ray crossing the grid keeps at least one candidate.
    """

    tr: float
    strategy: str = STRATEGY_WINDOW

    def __post_init__(self):
        if self.tr <= 0.0:
            raise ValueError("threshold must be positive")
        if self.strategy not in (STRATEGY_GLOBAL, STRATEGY_WINDOW):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    @classmethod
    def for_grid(cls, grid: TerrainGrid, strategy: str = STRATEGY_WINDOW,
                 e: Ellipsoid = WGS84) -> "TerrainSearchConfig":
        return cls(tr=0.75 * grid.max_post_spacing_m(e), strategy=strategy)


@dataclass(frozen=True)
class TerrainHit:
    """One mapped post: ECEF position, grid index, range from the receiver
    and perpendicular distance to the generating ray."""

    point: np.ndarray
    grid_index: tuple[int, int]
    s: float
    ray_distance: float


@dataclass(frozen=True)
class TerrainCurve:
    """Terrain hits in sweep order plus the eta intervals that found none."""

    points: list  # (GeodeticCoord, eta, s)
    hits: list  # TerrainHit per mapped point, same order
    gaps: list = field(default_factory=list)  # (eta_start, eta_end)


def grid_to_ecef_posts(grid: TerrainGrid, e: Ellipsoid = WGS84) -> EcefPostSet:
    """Convert non-void posts to ECEF at their ellipsoid heights (H + N).

    Post longitudes are folded into (-180, 180], the range that
    ecef_to_geodetic_arrays returns, so a tile running past the antimeridian
    compares like any other; in-range longitudes are kept bit for bit.
    """
    valid = ~grid.void_mask
    if not valid.any():
        raise EmptyGrid("terrain grid contains no valid posts")
    lat = np.repeat(grid.lats(), grid.n_lon).reshape(grid.H.shape)
    lon = np.tile(grid.lons(), grid.n_lat).reshape(grid.H.shape)
    h = grid.H + grid.N
    flat = np.flatnonzero(valid)
    lat_v = lat.ravel()[flat]
    lon_v = lon.ravel()[flat]
    wrap = (lon_v > 180.0) | (lon_v <= -180.0)
    lon_v[wrap] = 180.0 - (180.0 - lon_v[wrap]) % 360.0
    ecef = geodetic_to_ecef_arrays(lat_v, lon_v, h.ravel()[flat], e)
    return EcefPostSet(ecef=ecef, lat=lat_v, lon=lon_v, index=flat,
                       shape=grid.H.shape)


def point_line_distance(p, origin, direction) -> float:
    """Perpendicular distance from point(s) p to the line through `origin`
    along unit vector `direction`."""
    rel = np.asarray(p, dtype=float) - np.asarray(origin, dtype=float)
    return np.linalg.norm(np.cross(rel, np.asarray(direction, dtype=float)), axis=-1)


def _window_mask(posts: EcefPostSet, receiver, target, pad_deg_lat: float,
                 pad_deg_lon: float, e: Ellipsoid) -> np.ndarray:
    """Posts in the geodetic bounding corridor of the receiver-target segment.

    The segment is sampled, not just its endpoints, because a long ECEF
    chord bows away from the straight lat/lon line between its ends.
    """
    ts = np.linspace(0.0, FAR_BOUND_FACTOR, 17)
    seg = receiver + np.outer(ts, target - receiver)
    lat, lon, _ = ecef_to_geodetic_arrays(seg, e)
    if lon.max() - lon.min() > 180.0:
        # the segment crosses +-180: keep it one interval, running past 180
        lon = np.where(lon < 0.0, lon + 360.0, lon)
    lat_lo, lat_hi = lat.min() - pad_deg_lat, lat.max() + pad_deg_lat
    lon_lo, lon_hi = lon.min() - pad_deg_lon, lon.max() + pad_deg_lon
    in_lon = (posts.lon >= lon_lo) & (posts.lon <= lon_hi)
    if lon_hi > 180.0 or lon_lo <= -180.0:
        # the box runs past +-180 onto the other end of the posts' range
        in_lon |= (posts.lon <= lon_hi - 360.0) | (posts.lon >= lon_lo + 360.0)
    return (posts.lat >= lat_lo) & (posts.lat <= lat_hi) & in_lon


def map_point_to_terrain(p_i, receiver, posts: EcefPostSet,
                         cfg: TerrainSearchConfig, e: Ellipsoid = WGS84,
                         return_candidates: bool = False):
    """Map one ellipsoid intersection point onto the post set.

    Builds the ray from the receiver through p_i, keeps posts within cfg.tr
    of it that lie ahead of the receiver and not far beyond p_i, and returns
    the one nearest the receiver (lowest grid index on ties). Returns None
    when no candidate survives; with return_candidates, returns the full
    candidate list sorted by range instead.
    """
    p_i = np.asarray(p_i, dtype=float)
    receiver = np.asarray(receiver, dtype=float)
    sep = p_i - receiver
    ray_len = float(np.linalg.norm(sep))
    if ray_len == 0.0:
        raise ValueError("intersection point coincides with the receiver")
    direction = sep / ray_len

    if cfg.strategy == STRATEGY_WINDOW:
        pad_lat = 2.0 * cfg.tr / (math.pi / 180.0 * e.a)
        cos_lat = max(abs(math.cos(math.radians(posts.median_lat))), 1e-6)
        pad_lon = pad_lat / cos_lat
        mask = _window_mask(posts, receiver, p_i, pad_lat, pad_lon, e)
        if not mask.any():
            return [] if return_candidates else None
        sub_ecef = posts.ecef[mask]
        sub_index = posts.index[mask]
    else:
        sub_ecef = posts.ecef
        sub_index = posts.index

    rel = sub_ecef - receiver
    along = rel @ direction
    perp = np.linalg.norm(rel - np.outer(along, direction), axis=1)
    dist = np.linalg.norm(rel, axis=1)
    keep = (perp <= cfg.tr) & (along > 0.0) & (dist <= FAR_BOUND_FACTOR * ray_len)
    if not keep.any():
        return [] if return_candidates else None

    cand_dist = dist[keep]
    cand_idx = sub_index[keep]
    cand_ecef = sub_ecef[keep]
    cand_perp = perp[keep]

    order = np.argsort(cand_dist, kind="stable")
    if return_candidates:
        return [TerrainHit(point=cand_ecef[k], s=float(cand_dist[k]),
                           ray_distance=float(cand_perp[k]),
                           grid_index=tuple(np.unravel_index(int(cand_idx[k]), posts.shape)))
                for k in order]
    best = float(cand_dist[order[0]])
    tied = np.flatnonzero(cand_dist <= best + TIE_EPS)
    k = tied[np.argmin(cand_idx[tied])]
    return TerrainHit(point=cand_ecef[k], s=float(cand_dist[k]),
                      ray_distance=float(cand_perp[k]),
                      grid_index=tuple(np.unravel_index(int(cand_idx[k]), posts.shape)))


def cone_terrain_curve(curve: IntersectionCurve, receiver, posts: EcefPostSet,
                       cfg: TerrainSearchConfig, e: Ellipsoid = WGS84) -> TerrainCurve:
    """Map every visible intersection point onto the terrain posts.

    Hits are reported in sweep order as geodetic coordinates; sweep angles
    whose rays found no candidate are folded into contiguous gap intervals.
    """
    points = []
    hits = []
    gaps = []
    gap_start = None
    receiver = np.asarray(receiver, dtype=float)
    for eta, p_i in zip(curve.etas_near, curve.points_near):
        hit = map_point_to_terrain(p_i, receiver, posts, cfg, e)
        if hit is None:
            if gap_start is None:
                gap_start = float(eta)
            continue
        if gap_start is not None:
            gaps.append((gap_start, float(eta)))
            gap_start = None
        lat, lon, h = ecef_to_geodetic_arrays(hit.point, e)
        points.append((GeodeticCoord(float(lat), float(lon), float(h)),
                       float(eta), hit.s))
        hits.append(hit)
    if gap_start is not None:
        end = float(curve.etas_near[-1]) if len(curve.etas_near) else gap_start
        gaps.append((gap_start, end))
    return TerrainCurve(points=points, hits=hits, gaps=gaps)
