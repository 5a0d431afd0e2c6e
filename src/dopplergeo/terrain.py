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

from .cone import DopplerCone
from .geodesy import (
    WGS84,
    _ecef_from_trig,
    ecef_to_geodetic_arrays,
    geodetic_to_ecef_arrays,
    normalize_longitude,
)
from .intersect import IntersectionCurve

# the height that the tile file formats hold for a post without one (DTED's
# word 0xFFFF); their readers give NaN in its place and their writers write
# NaN as it
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
# as a whole, rounded up to a whole number of sub-blocks; their bounds are
# reduced from H (and an N grid) in place, skipping NaN posts. On the
# 600 x 600 1-arcsec tiles of the terrain_wide benchmark, 16 keeps 5.4-7.8%
# of the posts (1 444 blocks) and 8 keeps 2.7-3.9% (5 625 blocks), yet the
# two search equally fast, within run-to-run noise: what 8 saves in posts
# it spends on blocks. 4 and 32 are 1.2-1.6x slower.
POST_BLOCK = 16
# posts per side of the square sub-blocks that each kept block is cut into
# (a block is a whole number of them) and kept or dropped by the same
# sphere test, in the same loop. On the 8 seed-1 terrain_wide ops the
# 186 880 posts of the kept blocks shrink to 21 276 with 2, 45 168 with
# 4 and 92 736 with 8, and cone_terrain_curve takes a median 4.7, 4.5 and
# 5.1 ms per op: with 2 the extra spheres cost more than the posts they
# drop, with 8 the posts kept cost more than the spheres saved. On
# terrain_dense (83 008 posts in kept blocks over 20 ops) the three sizes
# are within run-to-run noise of each other.
SUB_BLOCK = 4


class EmptyGrid(ValueError):
    """The grid holds no post with a height: every H + N is NaN, or there
    is no post."""


class InvalidGrid(ValueError):
    """A TerrainGrid that is not a tile on the globe: H not 2-d, a scalar
    that is not finite (or a spacing not positive), an N grid of another
    shape than H, a post row outside [-90, 90] degrees of latitude, or (from
    the terrain search) a post whose height H + N is infinite."""


@dataclass(frozen=True)
class TerrainGrid:
    """Uniform angular grid of orthometric heights with geoid undulation.

    lat0/lon0 name the south-west corner post; H is indexed [lat, lon] with
    row 0 at lat0. N is the geoid undulation: a scalar or an array matching
    H. A post without a height (a void of a tile file) holds NaN in H, never
    0; the terrain search skips every post whose H + N is NaN. lat0, lon0,
    dlat > 0, dlon > 0 and a scalar N are finite, and every post row lies in
    [-90, 90] degrees of latitude (InvalidGrid otherwise); the longitudes may
    run past the antimeridian. An infinite height H + N raises InvalidGrid
    from the terrain search, whose block bounds see every post, so no pass
    over every post is made here; the readers reject infinite heights.
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
            raise InvalidGrid("H must be a 2-d array [lat, lon]")
        for name in ("lat0", "lon0", "dlat", "dlon"):
            value, spacing = getattr(self, name), name in ("dlat", "dlon")
            if not math.isfinite(value) or spacing and not value > 0.0:
                rule = " and positive" if spacing else ""
                raise InvalidGrid(f"{name} must be finite{rule}, got {value}")
        if np.isscalar(self.N) and not math.isfinite(self.N):
            raise InvalidGrid(f"N must be finite, got {self.N}")
        # the last row as lats() computes it
        lat_end = self.lat0 + self.dlat * max(h.shape[0] - 1, 0)
        if not -90.0 <= self.lat0 <= lat_end <= 90.0:
            raise InvalidGrid(f"post rows from latitude {self.lat0} to {lat_end} "
                              "leave [-90, 90]")
        object.__setattr__(self, "H", h)
        n = self.N
        if not np.isscalar(n):
            n = np.asarray(n, dtype=float)
            if n.shape != h.shape:
                raise InvalidGrid(f"N grid shape {n.shape} must match H {h.shape}")
            object.__setattr__(self, "N", n)

    @property
    def n_lat(self) -> int:
        return self.H.shape[0]

    @property
    def n_lon(self) -> int:
        return self.H.shape[1]

    def lats(self) -> np.ndarray:
        return self.lat0 + self.dlat * np.arange(self.n_lat)

    def lons(self) -> np.ndarray:
        return self.lon0 + self.dlon * np.arange(self.n_lon)

    def max_post_spacing_m(self) -> float:
        """Largest metric post spacing over the grid (lat step vs lon step).

        Longitude steps are widest at the grid latitude nearest the equator.
        """
        deg = math.pi / 180.0 * WGS84.a
        lat_hi = self.lat0 + self.dlat * (self.n_lat - 1)
        # the grid latitude nearest the equator: 0 clipped to [lat0, lat_hi]
        cos_max = math.cos(math.radians(min(max(0.0, self.lat0), lat_hi)))
        return max(self.dlat * deg, self.dlon * deg * cos_max)


@dataclass(frozen=True)
class EcefPostSet:
    """Grid posts with a height (H not NaN) in ECEF with their flat grid
    indices."""

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
        if not (math.isfinite(self.tr) and self.tr > 0.0):
            raise ValueError(f"tr must be finite and positive, got {self.tr}")
        if self.strategy != STRATEGY_GLOBAL:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    @classmethod
    def for_grid(cls, grid: TerrainGrid,
                 strategy: str = STRATEGY_GLOBAL) -> "TerrainSearchConfig":
        return cls(tr=0.75 * grid.max_post_spacing_m(), strategy=strategy)


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


def _posts_ecef(grid: TerrainGrid, rows, cols, h) -> np.ndarray:
    """ECEF of the posts at grid `rows` and `cols` and ellipsoid heights `h`
    (H + N), which broadcast: a row column against slice(None) converts the
    whole tile as (n_lat, n_lon, 3).

    Post longitudes are folded by normalize_longitude into (-180, 180], the
    range that ecef_to_geodetic_arrays returns, so a tile running past the
    antimeridian converts like any other. The trig runs on the whole
    latitude column and the whole folded longitude row and is gathered
    afterwards, and the rest is _ecef_from_trig, the arithmetic of
    geodetic_to_ecef_arrays, so a post gets the same bits in any subset it
    is converted with.
    """
    lat = np.radians(grid.lats())
    lon = np.radians(normalize_longitude(grid.lons()))
    return _ecef_from_trig(np.sin(lat)[rows], np.cos(lat)[rows],
                           np.sin(lon)[cols], np.cos(lon)[cols], h)


def grid_to_ecef_posts(grid: TerrainGrid) -> EcefPostSet:
    """Convert every post with a height (H not NaN) to ECEF at its
    ellipsoid height (H + N).

    A column of latitudes is broadcast against a row of longitudes, so no
    lat/lon grid is built; longitudes past +-180 are folded (_posts_ecef).
    """
    valid = ~np.isnan(grid.H)
    if not valid.any():
        raise EmptyGrid("terrain grid contains no valid posts")
    ecef = _posts_ecef(grid, np.arange(grid.n_lat)[:, np.newaxis], slice(None), grid.H + grid.N)
    return EcefPostSet(ecef=ecef[valid], index=np.flatnonzero(valid), shape=grid.H.shape)


def _cone_frame(points, cone: DopplerCone):
    """points (..., 3) in the cone frame (apex at the origin, axis +z), their
    distance rho from the axis, off = rho cos(psi) - z sin(psi), the signed
    distance to a generator line in the (rho, z) half-plane, and range."""
    # one matrix product for all the points, not one per leading index
    frame = ((points - cone.apex).reshape(-1, 3) @ cone.rotation).reshape(points.shape)
    rho = np.hypot(frame[..., 0], frame[..., 1])
    off = rho * math.cos(cone.semi_angle) - frame[..., 2] * math.sin(cone.semi_angle)
    return frame, rho, off, np.hypot(rho, frame[..., 2])


def _spheres_near_cone(lat_a, lat_b, lon_a, lon_b, lo, hi, cone: DopplerCone, reach: float,
                       far: float) -> np.ndarray:
    """Which blocks of posts can hold a candidate of the cone-frame
    prefilter (|off| <= reach, range <= far), by their bounding spheres.

    A block spans latitudes lat_a..lat_b and longitudes lon_a..lon_b (the
    degrees of its first and last posts) and heights lo..hi (bounds of its
    H + N, NaN when no post has a height); the arguments
    broadcast. Its sphere has centre c at the middle of those ranges and
    radius r. off (_cone_frame), a signed distance, is 1-Lipschitz in the
    post position, and so is the range |x - apex|: no post of the block
    passes when |off(c)| > reach + r, or when |c - apex| - r > far. A block
    without a height, whose lo and hi are NaN, fails both comparisons and is
    dropped.
    """
    h_c = 0.5 * (lo + hi)
    centre = geodetic_to_ecef_arrays(0.5 * (lat_a + lat_b), 0.5 * (lon_a + lon_b), h_c)
    # Radius r. Go from c = (lat_c, lon_c, h_c) to a post (lat, lon, h) of
    # the block along the meridian to lat, then along the parallel to lon,
    # both at height h_c, then along the normal to h. The meridian leg is
    # at most (M + |h_c|) |lat - lat_c| and the parallel leg at most
    # (N + |h_c|) |cos lat| |lon - lon_c|, where the radii of curvature
    # M <= N <= a^2 / b; the normal leg is |h - h_c| <= (hi - lo) / 2. The
    # chord is no longer than the path. |lat - lat_c| and |lon - lon_c| are
    # at most half the block's spans, |cos lat| at most its value at the
    # block's latitude nearest the equator, 0 clipped to [lat_a, lat_b].
    # Unfolded longitudes give the same points as the folded ones the
    # posts use.
    half_lat = np.radians(0.5 * (lat_b - lat_a))
    half_lon = np.radians(0.5 * (lon_b - lon_a))
    cos_max = np.cos(np.radians(np.clip(0.0, lat_a, lat_b)))
    bend = WGS84.a * WGS84.a / WGS84.b + np.abs(h_c)
    r = 0.5 * (hi - lo) + bend * (half_lat + cos_max * half_lon)
    # Rounding: the computed off and range of a post, and of c, are each
    # within ~30u (|x| + |apex|) of their exact values (u = 2**-53; the
    # trig of the conversion, the rotation and the hypot each add a few u),
    # and r itself is off by a few u r. 1e-12 (|c| + |apex|) is over a
    # hundred times their sum, and only tens of micrometres against blocks
    # metres to tens of metres wide. It is taken with a^2 / b + |h_c| in
    # place of |c|, which it bounds: |c| <= N + |h_c|.
    r += 1e-12 * (bend + np.linalg.norm(cone.apex))

    _, _, off, dist = _cone_frame(centre, cone)
    return (np.abs(off) <= reach + r) & (dist - r <= far)


def _block_bounds(ufunc, h, b_lat: int, b_lon: int):
    """ufunc.reduce of h over each block of b_lat x b_lon posts, the last
    block row and column short where the tile ends inside them. ufunc is
    np.fmin or np.fmax, which skip NaN posts: a block without a height has
    NaN bounds. A scalar h (a scalar N) is its own bound. The whole block
    rows are reduced through a reshape of h's leading rows and the short
    last row on its own, so h is read, never copied. The columns of that
    result, 1 / b_lat of the tile, are reduced by reduceat, which beats a
    reshape there (the whole bound takes 15 against 24 us at 120 x 120, 0.21
    against 0.28 ms at 600 x 600) but loses on the tile's rows (40 us and
    1.0 ms)."""
    if np.isscalar(h):
        return h
    n_lat, n_lon = h.shape
    cut = n_lat - n_lat % b_lat
    rows = ufunc.reduce(h[:cut].reshape(-1, b_lat, n_lon), axis=1)
    if cut < n_lat:
        rows = np.concatenate([rows, ufunc.reduce(h[cut:], axis=0, keepdims=True)])
    return ufunc.reduceat(rows, np.arange(0, n_lon, b_lon), axis=1)


def _block_posts(grid: TerrainGrid, i: np.ndarray, j: np.ndarray, b_lat: int,
                 b_lon: int) -> np.ndarray:
    """The heights H + N of the posts of the b_lat x b_lon blocks (i, j) of
    the tile, as (b_lat, b_lon, len(i)), with the posts past the tile NaN.
    The rows and columns are clipped to the tile, so a short block is
    gathered whole."""
    n_lat, n_lon = grid.H.shape
    rows = b_lat * i + np.arange(b_lat)[:, np.newaxis, np.newaxis]
    cols = b_lon * j + np.arange(b_lon)[:, np.newaxis]
    # one flat index: take is faster than indexing by rows and columns
    at = np.minimum(rows, n_lat - 1) * n_lon + np.minimum(cols, n_lon - 1)
    posts = grid.H.take(at)
    np.add(posts, grid.N if np.isscalar(grid.N) else grid.N.take(at), out=posts)
    np.copyto(posts, np.nan, where=(rows >= n_lat) | (cols >= n_lon))
    return posts


def _posts_near_cone(grid: TerrainGrid, cone: DopplerCone, reach: float,
                     far: float) -> EcefPostSet:
    """The posts with a height of the blocks that can hold a candidate of
    the cone-frame prefilter (|off| <= reach, range <= far).

    Two levels: the tile is cut into blocks of POST_BLOCK posts a side,
    rounded up to a whole number of SUB_BLOCK-square sub-blocks, and each
    kept block into its sub-blocks; a block or sub-block is dropped when its
    bounding sphere misses the prefilter (_spheres_near_cone), so it holds
    no post the prefilter keeps.

    A block's bounds are the fmin and fmax of H over it plus a scalar N, or
    plus the fmin and fmax of an N grid over it (_block_bounds), NaN posts
    skipped: rounding is monotone, so min H + min N is a lower bound of
    every H + N of the block, and max H + max N an upper one. A block
    without a height has NaN bounds and fails the sphere test. Only the
    kept blocks are gathered, as heights H + N (_block_posts), so besides H
    no array larger than the kept blocks is made, whatever the NaN posts
    and N. The non-NaN posts of the kept sub-blocks go to _posts_ecef with
    their rows, columns and heights, the same bits as grid_to_ecef_posts.
    Raises EmptyGrid when every H + N is NaN (or there is no post), and
    InvalidGrid naming the first post whose H or N is infinite.
    """
    if grid.H.size == 0:
        raise EmptyGrid("terrain grid contains no valid posts")
    n_lat, n_lon = grid.H.shape
    # a block wider than the tile is cut to it, then rounded up to whole
    # sub-blocks
    s_lat, s_lon = min(SUB_BLOCK, POST_BLOCK, n_lat), min(SUB_BLOCK, POST_BLOCK, n_lon)
    b_lat = -(-min(POST_BLOCK, n_lat) // s_lat) * s_lat
    b_lon = -(-min(POST_BLOCK, n_lon) // s_lon) * s_lon
    lo, hi = (_block_bounds(ufunc, grid.H, b_lat, b_lon)
              + _block_bounds(ufunc, grid.N, b_lat, b_lon) for ufunc in (np.fmin, np.fmax))
    if np.isnan(lo).all():
        raise EmptyGrid("terrain grid contains no valid posts")
    if np.isinf(lo).any() or np.isinf(hi).any():
        row, col = np.argwhere(np.isinf(grid.H) | np.isinf(grid.N))[0]
        raise InvalidGrid(f"H + N at row {row}, column {col} is not finite")

    # the degrees of the rows and columns of whole blocks, those past the
    # tile at its last post, so that a piece's span ends at the tile's edge
    lats = grid.lats()[np.minimum(np.arange(lo.shape[0] * b_lat), n_lat - 1)]
    lons = grid.lons()[np.minimum(np.arange(lo.shape[1] * b_lon), n_lon - 1)]
    rows = b_lat * np.arange(lo.shape[0])[:, np.newaxis]
    cols = b_lon * np.arange(lo.shape[1])
    keep = _spheres_near_cone(lats[rows], lats[rows + b_lat - 1], lons[cols],
                              lons[cols + b_lon - 1], lo, hi, cone, reach, far)
    i, j = np.nonzero(keep)
    pieces, row0, col0 = _block_posts(grid, i, j, b_lat, b_lon), b_lat * i, b_lon * j

    # the kept blocks cut into sub-blocks, indexed [row, column, block]: the
    # block axis last, so min and max reduce across whole arrays of blocks.
    # fmin and fmax skip NaN, and give NaN for a sub-block that is NaN
    # throughout.
    cut = pieces.reshape(b_lat // s_lat, s_lat, b_lon // s_lon, s_lon, len(i))
    rows = row0 + s_lat * np.arange(cut.shape[0])[:, np.newaxis, np.newaxis]
    cols = col0 + s_lon * np.arange(cut.shape[2])[:, np.newaxis]
    keep = _spheres_near_cone(
        lats[rows], lats[rows + s_lat - 1], lons[cols], lons[cols + s_lon - 1],
        np.fmin.reduce(np.fmin.reduce(cut, axis=1), axis=2),
        np.fmax.reduce(np.fmax.reduce(cut, axis=1), axis=2), cone, reach, far)
    i, j, k = np.nonzero(keep)
    pieces = np.ascontiguousarray(cut.transpose(1, 3, 0, 2, 4)[:, :, i, j, k])
    row0, col0 = rows[i, 0, k], cols[j, k]

    pieces = pieces.transpose(2, 0, 1)
    k, i, j = np.nonzero(~np.isnan(pieces))
    rows, cols = row0[k] + i, col0[k] + j
    return EcefPostSet(ecef=_posts_ecef(grid, rows, cols, pieces[k, i, j]),
                       index=rows * n_lon + cols, shape=grid.H.shape)


def map_point_to_terrain(p_i, receiver, posts: EcefPostSet, cfg: TerrainSearchConfig):
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


def _rays(curve: IntersectionCurve,
          cfg: TerrainSearchConfig) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Unit directions from the apex to the visible points, their lengths,
    and the reach and far bound of the cone-frame prefilter: tr and the far
    bound of the longest ray, each widened by PREFILTER_SLACK."""
    sep = curve.points_near - curve.cone.apex
    ray_len = np.linalg.norm(sep, axis=1)
    if (ray_len == 0.0).any():
        raise ValueError("intersection point coincides with the receiver")
    return (sep / ray_len[:, np.newaxis], ray_len, cfg.tr * (1.0 + PREFILTER_SLACK),
            FAR_BOUND_FACTOR * ray_len.max(initial=0.0) * (1.0 + PREFILTER_SLACK))


def cone_terrain_curve(curve: IntersectionCurve, grid: TerrainGrid,
                       cfg: TerrainSearchConfig) -> TerrainCurve:
    """Map every visible point of `curve` onto the grid, along the rays from
    the apex of its cone.

    Only the posts of the SUB_BLOCK-square sub-blocks of POST_BLOCK-square
    blocks whose bounding spheres reach the cone-frame prefilter are
    converted (_posts_near_cone); a dropped block or sub-block holds no post
    the prefilter keeps, so the result equals the search over every post.
    Raises EmptyGrid when no post has a height.
    """
    rays = _rays(curve, cfg)
    _, _, reach, far = rays
    return _map_posts(curve, _posts_near_cone(grid, curve.cone, reach, far), cfg, rays)


def _map_posts(curve: IntersectionCurve, posts: EcefPostSet, cfg: TerrainSearchConfig,
               rays: tuple) -> TerrainCurve:
    """Map every visible point of `curve` onto the posts.

    Every ray leaves the cone apex, so the posts are rotated once into the
    cone frame (the sweep's rotation, axis +z), giving each its distance rho
    from the axis, height z and azimuth phi. A post within tr of the ray at
    eta is within tr of the cone surface, |rho cos(psi) - z sin(psi)| <= tr,
    and of the half-plane at eta, so it is paired only with the rays whose
    eta lies within asin(tr / rho) of phi (every ray when rho <= tr). The
    rule of map_point_to_terrain then picks each ray's post among its pairs,
    so the result equals that scan run ray by ray. Hits are reported in
    sweep order; runs of missed rays become gap intervals. `rays` is
    _rays(curve, cfg).
    """
    cone, etas = curve.cone, curve.etas_near
    dirs, ray_len, reach, far = rays

    frame, rho, off, dist = _cone_frame(posts.ecef, cone)
    cand = np.flatnonzero((np.abs(off) <= reach) & (dist <= far))
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
    rel, ray_dir = posts.ecef[post] - cone.apex, dirs[ray]
    along = np.einsum("ij,ij->i", rel, ray_dir)
    perp = np.linalg.norm(rel - along[:, np.newaxis] * ray_dir, axis=1)
    s = np.linalg.norm(rel, axis=1)
    keep = (perp <= cfg.tr) & (along > 0.0) & (s <= FAR_BOUND_FACTOR * ray_len[ray])
    post, ray, perp, s = post[keep], ray[keep], perp[keep], s[keep]
    # per ray: the nearest post, and within TIE_EPS of it the lowest grid index
    best = np.full(len(etas), np.inf)
    np.minimum.at(best, ray, s)
    tied = np.flatnonzero(s <= best[ray] + TIE_EPS)
    tied = tied[np.lexsort((posts.index[post[tied]], ray[tied]))]
    pick = tied[np.diff(ray[tied], prepend=-1) != 0]

    lat, lon, h = ecef_to_geodetic_arrays(posts.ecef[post[pick]])
    missed = np.ones(len(etas), dtype=bool)
    missed[ray] = False
    edges = np.diff(missed.astype(int), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return TerrainCurve(
        points=np.column_stack([lat, lon, h]),
        etas=etas[ray[pick]],
        s=s[pick],
        ray_distance=perp[pick],
        grid_index=np.column_stack(np.unravel_index(posts.index[post[pick]], posts.shape)),
        # a run of missed rays ends at the next hit's eta, or at the last eta
        gaps=[(float(etas[a]), float(etas[min(b, len(etas) - 1)])) for a, b in zip(starts, stops)],
    )
