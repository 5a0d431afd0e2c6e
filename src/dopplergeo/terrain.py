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
# posts per side of the square blocks that cone_terrain_curve keeps or drops
# as a whole (edge blocks are cut short). On the 600 x 600 1-arcsec tiles of
# the terrain_wide benchmark, 16 keeps 5.4-7.8% of the posts (1 444 blocks)
# and 8 keeps 2.7-3.9% (5 625 blocks), yet the two search equally fast,
# within run-to-run noise: what 8 saves in posts it spends on blocks. 4 and
# 32 are 1.2-1.6x slower.
POST_BLOCK = 16


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


def _posts_ecef(grid: TerrainGrid, e: Ellipsoid, index: np.ndarray | None = None) -> np.ndarray:
    """ECEF of the posts at flat grid `index`, as (n, 3), at their ellipsoid
    heights (H + N); without an index, of every post as (n_lat, n_lon, 3),
    a column of latitudes broadcast against a row of longitudes.

    Post longitudes are folded into (-180, 180], the range that
    ecef_to_geodetic_arrays returns, so a tile running past the antimeridian
    converts like any other; in-range longitudes are kept bit for bit. The
    trig runs on the whole latitude column and the whole folded longitude
    row and is gathered afterwards, and the rest is the arithmetic of
    geodetic_to_ecef_arrays in its order, so a post gets the same bits in
    any subset it is converted with.
    """
    if index is None:
        rows, cols, h = np.arange(grid.n_lat)[:, np.newaxis], slice(None), grid.H + grid.N
    else:
        rows, cols = np.divmod(index, grid.n_lon)
        h = grid.H[rows, cols] + (grid.N if np.isscalar(grid.N) else grid.N[rows, cols])
    lon = grid.lons()
    wrap = (lon > 180.0) | (lon <= -180.0)
    lon[wrap] = 180.0 - (180.0 - lon[wrap]) % 360.0
    lat = np.radians(grid.lats())
    lon = np.radians(lon)
    s, c = np.sin(lat)[rows], np.cos(lat)[rows]
    chi = np.sqrt(1.0 - e.e2 * s * s)
    x = (e.a / chi + h) * c * np.cos(lon)[cols]
    y = (e.a / chi + h) * c * np.sin(lon)[cols]
    z = (e.a * (1.0 - e.e2) / chi + h) * s
    return np.stack([x, y, z], axis=-1)


def _require_posts(grid: TerrainGrid) -> np.ndarray:
    """The grid's valid-post mask; EmptyGrid when every post is void."""
    valid = ~grid.void_mask
    if not valid.any():
        raise EmptyGrid("terrain grid contains no valid posts")
    return valid


def grid_to_ecef_posts(grid: TerrainGrid, e: Ellipsoid = WGS84) -> EcefPostSet:
    """Convert every non-void post to ECEF at its ellipsoid height (H + N).

    A column of latitudes is broadcast against a row of longitudes, so no
    lat/lon grid is built; longitudes past +-180 are folded (_posts_ecef).
    """
    valid = _require_posts(grid)
    return EcefPostSet(ecef=_posts_ecef(grid, e)[valid], index=np.flatnonzero(valid),
                       shape=grid.H.shape)


def _posts_near_cone(grid: TerrainGrid, cone: DopplerCone, reach: float, far: float,
                     e: Ellipsoid) -> EcefPostSet:
    """The non-void posts of the POST_BLOCK x POST_BLOCK blocks that can hold
    a candidate of the cone-frame prefilter (|off| <= reach, range <= far).

    A block is dropped when its bounding sphere (centre c, radius r) lies
    wholly outside the prefilter. off = rho cos(psi) - z sin(psi) is the
    signed distance to a generator line in the (rho, z) half-plane, so it
    is 1-Lipschitz in the post position, and so is the range |x - apex|:
    no post of the block passes when |off(c)| > reach + r, or when
    |c - apex| - r > far. The kept posts are converted by _posts_ecef, the
    same bits as grid_to_ecef_posts.
    """
    valid = _require_posts(grid)
    n_lat, n_lon = grid.H.shape
    # a block wider than the tile is cut to it: the same partition
    b_lat, b_lon = min(POST_BLOCK, n_lat), min(POST_BLOCK, n_lon)
    nb_lat, nb_lon = -(-n_lat // b_lat), -(-n_lon // b_lon)
    # H + N in a buffer of whole blocks, cut by one reshape: voids are NaN,
    # which fmin and fmax skip, and the rows and columns past the tile
    # repeat its last ones, which lie in the same edge blocks
    h = np.empty((nb_lat * b_lat, nb_lon * b_lon))
    tile = h[:n_lat, :n_lon]
    np.add(grid.H, grid.N, out=tile)
    np.copyto(tile, np.nan, where=~valid)
    h[n_lat:, :n_lon] = tile[-1]
    h[:, n_lon:] = h[:, n_lon - 1:n_lon]
    blocks = h.reshape(nb_lat, b_lat, nb_lon, b_lon)
    lo = np.fmin.reduce(np.fmin.reduce(blocks, axis=1), axis=2)
    hi = np.fmax.reduce(np.fmax.reduce(blocks, axis=1), axis=2)
    solid = ~np.isnan(lo)  # False for an all-void block
    lo, hi = np.where(solid, lo, 0.0), np.where(solid, hi, 0.0)

    lats, lons = grid.lats(), grid.lons()
    first_row = np.arange(nb_lat) * b_lat
    first_col = np.arange(nb_lon) * b_lon
    last_row = np.minimum(first_row + b_lat, n_lat) - 1
    last_col = np.minimum(first_col + b_lon, n_lon) - 1
    lat_a, lat_b = lats[first_row], lats[last_row]
    h_c = 0.5 * (lo + hi)
    centre = geodetic_to_ecef_arrays(0.5 * (lat_a + lat_b)[:, np.newaxis],
                                     0.5 * (lons[first_col] + lons[last_col]), h_c, e)
    # Radius r. Go from c = (lat_c, lon_c, h_c) to a post (lat, lon, h) of
    # the block along the meridian to lat, then along the parallel to lon,
    # both at height h_c, then along the normal to h. The meridian leg is
    # at most (M + |h_c|) |lat - lat_c| and the parallel leg at most
    # (N + |h_c|) |cos lat| |lon - lon_c|, where the radii of curvature
    # M <= N <= a^2 / b; the normal leg is |h - h_c| <= (hi - lo) / 2. The
    # chord is no longer than the path. |lat - lat_c| and |lon - lon_c| are
    # at most half the block's spans, |cos lat| at most its value at the
    # block edge nearer the equator (1 when the block spans it). Unfolded
    # longitudes give the same points as the folded ones the posts use.
    half_lat = np.radians(0.5 * (lat_b - lat_a))
    half_lon = np.radians(0.5 * (lons[last_col] - lons[first_col]))
    cos_max = np.where((lat_a <= 0.0) & (lat_b >= 0.0), 1.0,
                       np.maximum(np.abs(np.cos(np.radians(lat_a))),
                                  np.abs(np.cos(np.radians(lat_b)))))
    r = 0.5 * (hi - lo) + (e.a * e.a / e.b + np.abs(h_c)) * (
        half_lat[:, np.newaxis] + cos_max[:, np.newaxis] * half_lon)
    # Rounding: the computed off and range of a post, and of c, are each
    # within ~30u (|x| + |apex|) of their exact values (u = 2**-53; the
    # trig of the conversion, the rotation and the hypot each add a few u),
    # and r itself is off by a few u r. 1e-12 (|c| + |apex|) is over a
    # hundred times their sum, and only tens of micrometres against blocks
    # tens of metres wide.
    r += 1e-12 * (np.linalg.norm(centre, axis=-1) + np.linalg.norm(cone.apex))

    frame = (centre - cone.apex) @ rotation_from_axis(cone.axis)
    rho = np.hypot(frame[..., 0], frame[..., 1])
    off_cone = rho * math.cos(cone.semi_angle) - frame[..., 2] * math.sin(cone.semi_angle)
    keep = solid & (np.abs(off_cone) <= reach + r) & (np.hypot(rho, frame[..., 2]) - r <= far)
    keep = np.broadcast_to(keep[:, np.newaxis, :, np.newaxis], blocks.shape).reshape(h.shape)
    index = np.flatnonzero(keep[:n_lat, :n_lon] & valid)
    return EcefPostSet(ecef=_posts_ecef(grid, e, index), index=index, shape=grid.H.shape)


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
    dist = np.linalg.norm(rel, axis=1)
    # |rel - along direction^T| by np.linalg.norm's arithmetic, computed in
    # rel's memory: the scan of a whole tile holds two post-sized arrays
    off = np.subtract(rel, np.outer(along, direction), out=rel)
    perp = np.sqrt(np.add.reduce(np.square(off, out=off), axis=1))
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


def _prefilter_bounds(cfg: TerrainSearchConfig, ray_len: np.ndarray) -> tuple[float, float]:
    """reach and far of the cone-frame prefilter: tr and the far bound of the
    longest ray, each widened by PREFILTER_SLACK."""
    return (cfg.tr * (1.0 + PREFILTER_SLACK),
            FAR_BOUND_FACTOR * ray_len.max(initial=0.0) * (1.0 + PREFILTER_SLACK))


def _ray_lengths(curve: IntersectionCurve, cone: DopplerCone) -> tuple[np.ndarray, np.ndarray]:
    """Offsets from the apex to the visible points, and their lengths."""
    sep = curve.points_near - cone.apex
    ray_len = np.linalg.norm(sep, axis=1)
    if (ray_len == 0.0).any():
        raise ValueError("intersection point coincides with the receiver")
    return sep, ray_len


def cone_terrain_curve(curve: IntersectionCurve, cone: DopplerCone, grid: TerrainGrid,
                       cfg: TerrainSearchConfig, e: Ellipsoid = WGS84) -> TerrainCurve:
    """Map every visible point of `curve`, the sweep of `cone`, onto the grid.

    Only the posts of the POST_BLOCK-square blocks whose bounding spheres
    reach the cone-frame prefilter are converted (_posts_near_cone); a
    dropped block holds no post the prefilter keeps, so the result equals
    the search over every post. Raises EmptyGrid when every post is void.
    """
    _, ray_len = _ray_lengths(curve, cone)
    reach, far = _prefilter_bounds(cfg, ray_len)
    return _map_posts(curve, cone, _posts_near_cone(grid, cone, reach, far, e), cfg, e)


def _map_posts(curve: IntersectionCurve, cone: DopplerCone, posts: EcefPostSet,
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
    sep, ray_len = _ray_lengths(curve, cone)
    dirs = sep / ray_len[:, np.newaxis]

    frame = (posts.ecef - cone.apex) @ rotation_from_axis(cone.axis)
    rho = np.hypot(frame[:, 0], frame[:, 1])
    reach, far = _prefilter_bounds(cfg, ray_len)
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
