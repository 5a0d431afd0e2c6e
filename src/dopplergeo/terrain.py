# terrain.py
# -------------------------------------------------------------
# Map cone/ellipsoid intersection points onto a terrain elevation grid.
# Each visible intersection point defines the ray from the receiver (the
# cone apex) through it; of the grid posts near that ray, the one nearest
# the receiver is the terrain hit.

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cone import DopplerCone, rotation_from_axis
from .geodesy import (
    WGS84,
    Ellipsoid,
    ecef_to_geodetic_arrays,
    geodetic_to_ecef_arrays,
    normalize_longitude,
)
from .intersect import IntersectionCurve

VOID_ELEVATION = -32767.0

# the one value TerrainSearchConfig.strategy accepts
STRATEGY_GLOBAL = "global_scan"

# candidates may sit at most this factor beyond the generating point's range
FAR_BOUND_FACTOR = 1.05
TIE_EPS = 1e-6
# relative widening of tr and the far bound in the cone-frame prefilter: it
# covers the rounding of ray directions and rotated posts (~1e-9 m at 1e7 m)
PREFILTER_SLACK = 1e-6


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
    """Non-void grid posts in ECEF with their flat grid indices."""

    ecef: np.ndarray
    index: np.ndarray
    shape: tuple[int, int]


@dataclass(frozen=True)
class TerrainSearchConfig:
    """Ray-to-post search threshold; strategy accepts only STRATEGY_GLOBAL.

    tr defaults (when built via for_grid) to 0.75x the largest metric post
    spacing so any ray crossing the grid keeps at least one candidate.
    """

    tr: float
    strategy: str = STRATEGY_GLOBAL

    def __post_init__(self):
        if self.tr <= 0.0:
            raise ValueError("threshold must be positive")
        if self.strategy != STRATEGY_GLOBAL:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    @classmethod
    def for_grid(cls, grid: TerrainGrid, strategy: str = STRATEGY_GLOBAL,
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
    """Terrain hits in sweep order, one array row each, plus the (eta_start,
    eta_end) gaps that found none: points (lat, lon, h) with lon folded into
    (-180, 180], the ray's eta, the post's range s from the receiver, its
    ray_distance from the ray and its grid_index (row, column)."""

    points: np.ndarray
    etas: np.ndarray
    s: np.ndarray
    ray_distance: np.ndarray
    grid_index: np.ndarray
    gaps: list = field(default_factory=list)


def grid_to_ecef_posts(grid: TerrainGrid, e: Ellipsoid = WGS84) -> EcefPostSet:
    """Convert non-void posts to ECEF at their ellipsoid heights (H + N).

    Post longitudes are folded into (-180, 180], the range that
    ecef_to_geodetic_arrays returns, so a tile running past the antimeridian
    converts like any other; in-range longitudes are kept bit for bit.
    """
    valid = ~grid.void_mask
    if not valid.any():
        raise EmptyGrid("terrain grid contains no valid posts")
    lon = grid.lons()
    wrap = (lon > 180.0) | (lon <= -180.0)
    lon[wrap] = 180.0 - (180.0 - lon[wrap]) % 360.0
    # a column of latitudes broadcast against a row of longitudes: the trig
    # runs on n_lat + n_lon values and no lat/lon grid is built
    ecef = geodetic_to_ecef_arrays(grid.lats()[:, np.newaxis], lon, grid.H + grid.N, e)
    return EcefPostSet(ecef=ecef[valid], index=np.flatnonzero(valid), shape=grid.H.shape)


def map_point_to_terrain(p_i, receiver, posts: EcefPostSet,
                         cfg: TerrainSearchConfig, e: Ellipsoid = WGS84):
    """Map one ellipsoid intersection point by scanning every post: the
    reference cone_terrain_curve is tested against.

    Builds the ray from the receiver through p_i, keeps posts within cfg.tr
    of it that lie ahead of the receiver and not far beyond p_i, and returns
    the one nearest the receiver (lowest grid index on ties). Returns None
    when no candidate survives.
    """
    p_i = np.asarray(p_i, dtype=float)
    receiver = np.asarray(receiver, dtype=float)
    sep = p_i - receiver
    ray_len = float(np.linalg.norm(sep))
    if ray_len == 0.0:
        raise ValueError("intersection point coincides with the receiver")
    direction = sep / ray_len

    rel = posts.ecef - receiver
    along = rel @ direction
    perp = np.linalg.norm(rel - np.outer(along, direction), axis=1)
    dist = np.linalg.norm(rel, axis=1)
    keep = (perp <= cfg.tr) & (along > 0.0) & (dist <= FAR_BOUND_FACTOR * ray_len)
    if not keep.any():
        return None

    cand_dist = dist[keep]
    cand_idx = posts.index[keep]
    best = float(cand_dist.min())
    tied = np.flatnonzero(cand_dist <= best + TIE_EPS)
    k = np.flatnonzero(keep)[tied[np.argmin(cand_idx[tied])]]
    return TerrainHit(point=posts.ecef[k], s=float(dist[k]),
                      ray_distance=float(perp[k]),
                      grid_index=tuple(np.unravel_index(int(posts.index[k]), posts.shape)))


def cone_terrain_curve(curve: IntersectionCurve, cone: DopplerCone, posts: EcefPostSet,
                       cfg: TerrainSearchConfig, e: Ellipsoid = WGS84) -> TerrainCurve:
    """Map every visible point of `curve`, the sweep of `cone`, onto the posts.

    Every ray leaves the cone apex, so the posts are rotated once into the
    cone frame (the sweep's rotation, axis +z), giving each its distance rho
    from the axis, height z and azimuth phi. A post within tr of the ray at
    eta is within tr of the cone surface, |rho cos(psi) - z sin(psi)| <= tr,
    and of the half-plane at eta, so it is paired only with the rays whose
    eta lies within asin(tr / rho) of phi (every ray when rho <= tr). The
    rule of map_point_to_terrain then picks each ray's post among its pairs,
    so the result equals that scan run ray by ray. Hits are reported in
    sweep order; runs of missed rays become gap intervals.
    """
    etas = curve.etas_near
    sep = curve.points_near - cone.apex
    ray_len = np.linalg.norm(sep, axis=1)
    if (ray_len == 0.0).any():
        raise ValueError("intersection point coincides with the receiver")
    dirs = sep / ray_len[:, np.newaxis]

    frame = (posts.ecef - cone.apex) @ rotation_from_axis(cone.axis)
    rho = np.hypot(frame[:, 0], frame[:, 1])
    reach = cfg.tr * (1.0 + PREFILTER_SLACK)
    far = FAR_BOUND_FACTOR * ray_len.max(initial=0.0) * (1.0 + PREFILTER_SLACK)
    off_cone = rho * math.cos(cone.semi_angle) - frame[:, 2] * math.sin(cone.semi_angle)
    cand = np.flatnonzero((np.abs(off_cone) <= reach) & (np.hypot(rho, frame[:, 2]) <= far))
    rho = rho[cand]
    phi = np.arctan2(frame[cand, 1], frame[cand, 0])
    # a window wider than pi reaches every ray (some twice, which is harmless)
    half = np.where(rho > reach, np.arcsin(reach / np.maximum(rho, reach)), 4.0)

    # rays sorted by eta, repeated one turn either side of [0, 2pi)
    turn = 2.0 * math.pi
    phase = np.mod(etas, turn)
    by_eta = np.argsort(phase, kind="stable")
    ring = np.concatenate([phase[by_eta] - turn, phase[by_eta], phase[by_eta] + turn])
    lo = np.searchsorted(ring, phi - half, side="left")
    count = np.searchsorted(ring, phi + half, side="right") - lo
    post = np.repeat(cand, count)
    slot = np.arange(len(post)) + np.repeat(lo - np.cumsum(count) + count, count)
    ray = np.tile(by_eta, 3)[slot]

    # the exact rule of map_point_to_terrain on the pairs
    rel = posts.ecef[post] - cone.apex
    along = np.einsum("ij,ij->i", rel, dirs[ray])
    perp = np.linalg.norm(rel - along[:, np.newaxis] * dirs[ray], axis=1)
    s = np.linalg.norm(rel, axis=1)
    keep = (perp <= cfg.tr) & (along > 0.0) & (s <= FAR_BOUND_FACTOR * ray_len[ray])
    post, ray, perp, s = post[keep], ray[keep], perp[keep], s[keep]
    # per ray: the nearest post, and within TIE_EPS of it the lowest grid index
    best = np.full(len(etas), np.inf)
    np.minimum.at(best, ray, s)
    tied = np.flatnonzero(s <= best[ray] + TIE_EPS)
    tied = tied[np.lexsort((posts.index[post[tied]], ray[tied]))]
    pick = tied[np.diff(ray[tied], prepend=-1) != 0]

    lat, lon, h = ecef_to_geodetic_arrays(posts.ecef[post[pick]], e)
    missed = np.ones(len(etas), dtype=bool)
    missed[ray] = False
    edges = np.diff(missed.astype(int), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return TerrainCurve(
        points=np.column_stack([lat, normalize_longitude(lon), h]),
        etas=etas[ray[pick]],
        s=s[pick],
        ray_distance=perp[pick],
        grid_index=np.column_stack(np.unravel_index(posts.index[post[pick]], posts.shape)),
        # a run of missed rays ends at the next hit's eta, or at the last eta
        gaps=[(float(etas[a]), float(etas[min(b, len(etas) - 1)])) for a, b in zip(starts, stops)],
    )
