import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopplergeo import terrain
from dopplergeo.cone import VehicleState, cone_from_geometry
from dopplergeo.geodesy import (
    WGS84,
    AttitudeEuler,
    GeodeticCoord,
    ecef_to_geodetic_arrays,
    geodetic_to_ecef_arrays,
)
from dopplergeo.gridfile import (
    make_flat_grid,
    make_ridge_grid,
    read_portable_grid,
    write_portable_grid,
)
from dopplergeo.intersect import _ray_directions, intersect_cone_ellipsoid
from dopplergeo.terrain import (
    VOID_ELEVATION,
    EcefPostSet,
    EmptyGrid,
    InvalidGrid,
    TerrainGrid,
    TerrainSearchConfig,
    _block_bounds,
    _map_posts,
    _posts_near_cone,
    _rays,
    cone_terrain_curve,
    grid_to_ecef_posts,
    map_point_to_terrain,
)

from terrain_oracles import covering_grid, march_first_crossing

SPACING = 3.0 / 3600.0  # one level-1 style post every ~90 m


def steep_scenario(n_samples=180):
    """Sweep of a cone whose visible curve lands a few km below the vehicle."""
    vs = VehicleState.from_attitude(GeodeticCoord(-34.6462, 138.833, 1500.0), 50.0,
                                    AttitudeEuler(0.0, -70.0, 190.0))
    cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir, math.radians(15.0))
    return intersect_cone_ellipsoid(cone, n_samples=n_samples)


def scan_gaps(etas, found):
    """Gap intervals the way a ray-by-ray loop folds them."""
    gaps, start = [], None
    for eta, hit in zip(etas, found):
        if not hit:
            if start is None:
                start = float(eta)
        elif start is not None:
            gaps.append((start, float(eta)))
            start = None
    if start is not None:
        gaps.append((start, float(etas[-1])))
    return gaps


def terrain_ecef(tc):
    return geodetic_to_ecef_arrays(tc.points[:, 0], tc.points[:, 1], tc.points[:, 2])


def assert_matches_scan(curve, grid, cfg):
    """The pruned, batched search equals map_point_to_terrain run ray by ray
    over every post of the grid."""
    return assert_posts_match_scan(cone_terrain_curve(curve, grid, cfg), curve,
                                   grid_to_ecef_posts(grid), cfg)


def assert_posts_match_scan(tc, curve, posts, cfg):
    hits = [map_point_to_terrain(p_i, curve.cone.apex, posts, cfg) for p_i in curve.points_near]
    found = [hit is not None for hit in hits]
    hits = [hit for hit in hits if hit is not None]
    assert tc.etas.tolist() == curve.etas_near[found].tolist()
    assert [tuple(ij) for ij in tc.grid_index.tolist()] == [hit.grid_index for hit in hits]
    assert tc.s.tolist() == [hit.s for hit in hits]
    assert tc.gaps == scan_gaps(curve.etas_near, found)
    if hits:
        assert np.allclose(tc.ray_distance, [hit.ray_distance for hit in hits],
                           rtol=1e-9, atol=1e-9)
        assert np.abs(terrain_ecef(tc) - np.array([hit.point for hit in hits])).max() < 1e-6
    return tc


def test_terrain_helpers_take_the_curve_alone():
    # the curve holds the cone it was swept from, so no helper takes a
    # second cone that could differ from it
    for helper in (cone_terrain_curve, _rays, _map_posts):
        assert "cone" not in inspect.signature(helper).parameters


def test_flat_posts_on_ellipsoid():
    grid = make_flat_grid(-35.0, 138.0, SPACING, SPACING, 3, 3, height=0.0)
    posts = grid_to_ecef_posts(grid)
    res = (posts.ecef[:, 0] ** 2 + posts.ecef[:, 1] ** 2) / WGS84.a ** 2 \
        + posts.ecef[:, 2] ** 2 / WGS84.b ** 2
    assert np.abs(res - 1.0).max() < 1e-12


def test_single_post_with_undulation():
    grid = TerrainGrid(lat0=0.0, lon0=0.0, dlat=SPACING, dlon=SPACING,
                       H=np.array([[100.0]]), N=-30.0)
    posts = grid_to_ecef_posts(grid)
    assert np.allclose(posts.ecef[0], [WGS84.a + 70.0, 0.0, 0.0], atol=1e-6)


def test_posts_round_trip_geodetic():
    grid = make_flat_grid(-34.7, 138.8, SPACING, SPACING, 20, 20, height=250.0)
    posts = grid_to_ecef_posts(grid)
    lat, lon, h = ecef_to_geodetic_arrays(posts.ecef)
    back = geodetic_to_ecef_arrays(lat, lon, h)
    assert np.linalg.norm(back - posts.ecef, axis=1).max() < 1e-6


def test_void_posts_skipped_not_zeroed():
    h = np.zeros((3, 3))
    h[1, 1] = np.nan
    grid = TerrainGrid(lat0=0.0, lon0=0.0, dlat=SPACING, dlon=SPACING, H=h)
    posts = grid_to_ecef_posts(grid)
    assert len(posts.ecef) == 8
    assert 4 not in posts.index  # flattened center index


def test_all_void_grid_raises():
    h = np.full((2, 2), np.nan)
    grid = TerrainGrid(lat0=0.0, lon0=0.0, dlat=SPACING, dlon=SPACING, H=h)
    with pytest.raises(EmptyGrid):
        grid_to_ecef_posts(grid)


@pytest.mark.parametrize("geoid", ["scalar", "grid"])
@pytest.mark.parametrize("shape", ["tile", "no rows", "no columns"])
def test_all_void_tile_raises_in_the_search(geoid, shape):
    # a tile of voids, and one without posts, which TerrainGrid accepts
    curve = steep_scenario()
    tile = covering_grid(curve)
    n_lat, n_lon = tile.H.shape
    h = np.full({"tile": (n_lat, n_lon), "no rows": (0, n_lon), "no columns": (n_lat, 0)}[shape],
                np.nan)
    grid = TerrainGrid(lat0=tile.lat0, lon0=tile.lon0, dlat=tile.dlat, dlon=tile.dlon, H=h,
                       N=12.5 if geoid == "scalar" else np.full(h.shape, 12.5))
    with pytest.raises(EmptyGrid):
        grid_to_ecef_posts(grid)
    with pytest.raises(EmptyGrid):
        cone_terrain_curve(curve, grid, TerrainSearchConfig.for_grid(tile))


def test_a_tile_of_voids_and_nan_raises():
    # voids read from a tile file and a post set to NaN are one marker, a
    # post without a height: a tile of them raises EmptyGrid (it used to map
    # to no hit and one gap over the whole sweep)
    curve = steep_scenario()
    tile = covering_grid(curve)
    voids = dataclasses.replace(tile, H=np.full(tile.H.shape, VOID_ELEVATION))
    grid = read_portable_grid(write_portable_grid(voids))
    grid.H[5, 7] = np.nan
    with pytest.raises(EmptyGrid):
        grid_to_ecef_posts(grid)
    with pytest.raises(EmptyGrid):
        cone_terrain_curve(curve, grid, TerrainSearchConfig.for_grid(grid))


@pytest.mark.parametrize("field, block", [
    pytest.param("H", None, id="H"),
    pytest.param("N", None, id="N"),
    pytest.param("H", 5000, id="5000"),
    pytest.param("N", 10 ** 6, id="1000000"),
])
def test_a_nan_post_keeps_the_rest_of_its_block(field, block):
    # a NaN height, or a NaN in an N grid, in each row of sub-blocks the
    # search keeps, at the default block size or with one block over the
    # whole tile (POST_BLOCK past the tile's sides): fmin and fmax bound its
    # block and sub-block without it, so the search converts every other
    # post it converted before
    curve = steep_scenario()
    tile = covering_grid(curve, spacing=1.0 / 3600.0)
    rows, cols = np.indices(tile.H.shape)
    tile = dataclasses.replace(tile, N=12.5 if field == "H" else 10.0 + 0.01 * (rows - cols))
    _, _, reach, far = _rays(curve, TerrainSearchConfig.for_grid(tile))
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(terrain, "POST_BLOCK", block)
        before = np.sort(_posts_near_cone(tile, curve.cone, reach, far).index)
        sub_row = before // tile.n_lon // terrain.SUB_BLOCK
        lone = [before[sub_row == r][0] for r in np.unique(sub_row)]
        assert len(lone) > 1
        grid = dataclasses.replace(tile, **{field: getattr(tile, field).copy()})
        getattr(grid, field).flat[lone] = np.nan
        after = _posts_near_cone(grid, curve.cone, reach, far).index
    assert np.array_equal(np.sort(after), np.setdiff1d(before, lone))


def adelaide_flat_tile():
    """The uav_adelaide_forced_angle sweep at 720 rays over a 600 x 600
    flat tile at 100 m that holds every one of its hits."""
    vs = VehicleState.from_attitude(GeodeticCoord(-34.6462, 138.833, 2000.0), 50.0,
                                    AttitudeEuler(0.0, -30.0, 190.0))
    cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir, math.radians(26.56))
    curve = intersect_cone_ellipsoid(cone, n_samples=720)
    grid = make_flat_grid(-35.0, 138.5, 1.0 / 1200.0, 1.0 / 1200.0, 600, 600, height=100.0)
    return curve, grid


@pytest.mark.parametrize("field, value", [("H", math.inf), ("H", -math.inf), ("N", math.inf),
                                          ("N", -math.inf)])
def test_infinite_height_raises(field, value):
    # an infinite post gives its block an infinite bound, on which the
    # sphere test would drop the block and the hits of the rays it serves
    curve, grid = adelaide_flat_tile()
    cfg = TerrainSearchConfig.for_grid(grid)
    row, col = cone_terrain_curve(curve, grid, cfg).grid_index[100] + 1
    h, n = grid.H.copy(), np.full(grid.H.shape, 7.5)
    (h if field == "H" else n)[row, col] = value
    grid = TerrainGrid(lat0=grid.lat0, lon0=grid.lon0, dlat=grid.dlat, dlon=grid.dlon, H=h,
                       N=n if field == "N" else 7.5)
    with pytest.raises(InvalidGrid, match=f"H \\+ N at row {row}, column {col} is not finite"):
        cone_terrain_curve(curve, grid, cfg)


@pytest.mark.parametrize("dlat, dlon", [(0.0, SPACING), (SPACING, -SPACING),
                                        (math.nan, SPACING), (SPACING, math.nan)])
def test_grid_spacing_must_be_positive(dlat, dlon):
    name, value = ("dlat", dlat) if not dlat > 0.0 else ("dlon", dlon)
    with pytest.raises(InvalidGrid, match=f"{name} must be finite and positive, got {value}"):
        TerrainGrid(lat0=0.0, lon0=0.0, dlat=dlat, dlon=dlon, H=np.zeros((2, 2)))


@pytest.mark.parametrize("field, value", [
    ("lat0", math.nan), ("lon0", math.nan), ("lon0", math.inf), ("lon0", -math.inf),
    ("dlon", math.inf), ("N", math.nan), ("N", math.inf)])
def test_grid_scalars_must_be_finite(field, value):
    # such a grid used to be taken, and the quickstart curve mapped onto it
    # gave no hit and one gap over the whole sweep
    args = dict(lat0=0.0, lon0=0.0, dlat=SPACING, dlon=SPACING, H=np.zeros((2, 2)), N=0.0)
    args[field] = value
    rule = " and positive" if field == "dlon" else ""
    with pytest.raises(InvalidGrid, match=f"^{field} must be finite{rule}, got {value}$"):
        TerrainGrid(**args)


@pytest.mark.parametrize("tr", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_threshold_must_be_finite_and_positive(tr):
    # tr = nan used to map no ray of a sweep, tr = inf every ray
    with pytest.raises(ValueError, match=f"^tr must be finite and positive, got {tr}$"):
        TerrainSearchConfig(tr=tr)


@settings(max_examples=200, deadline=None)
@given(lat0=st.floats(allow_nan=False, allow_infinity=False)
       | st.sampled_from([95.0, -90.5, 89.9, 90.0, -90.0]),
       dlat=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
       | st.just(3 / 3600), n_lat=st.integers(1, 40) | st.just(400))
def test_grid_rows_must_lie_on_the_globe(lat0, dlat, n_lat):
    # the tiles that the round-trip properties drew before this rule: a row
    # off [-90, 90] (95, or 89.9 + 399 x 3 arcsec = 90.2325) is not a tile
    with np.errstate(over="ignore"):
        lats = lat0 + dlat * np.arange(n_lat)
    args = dict(lat0=lat0, lon0=0.0, dlat=dlat, dlon=1.0, H=np.zeros((n_lat, 2)))
    if -90.0 <= lats[0] and lats[-1] <= 90.0:
        assert TerrainGrid(**args).lats()[-1] == lats[-1]
    else:
        with pytest.raises(InvalidGrid, match=r"leave \[-90, 90\]"):
            TerrainGrid(**args)


def test_grid_undulation_shape_must_match():
    with pytest.raises(InvalidGrid, match=r"N grid shape \(1, 3\) must match H \(2, 2\)"):
        TerrainGrid(lat0=0.0, lon0=0.0, dlat=SPACING, dlon=SPACING, H=np.zeros((2, 2)),
                    N=np.zeros((1, 3)))


def per_post_ecef(grid):
    """Post conversion the long way, the oracle of grid_to_ecef_posts: full
    lat/lon grids, longitudes past +-180 folded into (-180, 180], then the
    own (lat, lon, H + N) of every post with a height (H not NaN) converted."""
    lat = np.repeat(grid.lats(), grid.n_lon).reshape(grid.H.shape)
    lon = np.tile(grid.lons(), grid.n_lat).reshape(grid.H.shape)
    h = grid.H + grid.N
    flat = np.flatnonzero(~np.isnan(grid.H.ravel()))
    lon_v = lon.ravel()[flat]
    wrap = (lon_v > 180.0) | (lon_v <= -180.0)
    lon_v[wrap] = 180.0 - (180.0 - lon_v[wrap]) % 360.0
    lon_v[lon_v == -180.0] = 180.0  # a fold that rounds to -180, as 180.00000000000003 does
    return geodetic_to_ecef_arrays(lat.ravel()[flat], lon_v, h.ravel()[flat]), flat


POST_REGIONS = {"mid": (-60.0, 60.0, -170.0, 170.0), "north": (80.0, 89.0, -180.0, 180.0),
                "south": (-89.5, -80.0, -180.0, 180.0), "east_of_line": (-60.0, 60.0, 179.9, 180.1),
                "west_of_line": (-60.0, 60.0, -180.1, -179.9)}


@settings(max_examples=80, deadline=None)
@given(region=st.sampled_from(sorted(POST_REGIONS)), f_lat=st.floats(0.0, 1.0),
       f_lon=st.floats(0.0, 1.0), spacing_arcsec=st.sampled_from([1.0, 3.0, 30.0]),
       n_lat=st.integers(1, 60), n_lon=st.integers(1, 60),
       void_fraction=st.sampled_from([0.0, 0.1]), array_n=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_posts_match_per_post_conversion(region, f_lat, f_lon, spacing_arcsec, n_lat, n_lon,
                                         void_fraction, array_n, seed):
    lat_lo, lat_hi, lon_lo, lon_hi = POST_REGIONS[region]
    rng = np.random.default_rng(seed)
    h = rng.uniform(-400.0, 4000.0, (n_lat, n_lon))
    h[rng.random((n_lat, n_lon)) < void_fraction] = np.nan
    h[0, 0] = 0.0  # never an all-void tile
    geoid = rng.uniform(-100.0, 80.0, (n_lat, n_lon)) if array_n else float(rng.uniform(-100, 80))
    grid = TerrainGrid(lat0=lat_lo + f_lat * (lat_hi - lat_lo),
                       lon0=lon_lo + f_lon * (lon_hi - lon_lo),
                       dlat=spacing_arcsec / 3600.0, dlon=spacing_arcsec / 3600.0, H=h, N=geoid)
    posts = grid_to_ecef_posts(grid)
    ecef, index = per_post_ecef(grid)
    assert posts.ecef.shape == ecef.shape and posts.ecef.tobytes() == ecef.tobytes()
    assert posts.index.tolist() == index.tolist()
    assert posts.shape == grid.H.shape


def test_posts_peak_memory_near_the_result():
    # 600 x 600 posts at 1 arcsec, as in the terrain_wide benchmark tiles
    grid = make_flat_grid(-34.75, 138.75, 1.0 / 3600.0, 1.0 / 3600.0, 600, 600,
                          height=250.0, geoid_n=12.5)
    tracemalloc.start()
    try:
        posts = grid_to_ecef_posts(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result itself counts; full lat/lon grids and per-post copies would
    # take the peak to about 6x the ECEF array
    assert peak < 3 * posts.ecef.nbytes


@pytest.mark.parametrize("geoid", ["scalar", "grid"])
@pytest.mark.parametrize("voids", ["none", "scattered", "edge"])
def test_search_peak_memory_below_the_tile(geoid, voids):
    # a 600 x 600 tile that the cone misses: the search bounds the blocks
    # from H and an N grid in place, so no tile-sized array is made,
    # whatever the voids and N (a buffer of H + N would take the peak to
    # 1.2 H.nbytes)
    tile = make_flat_grid(-34.0, 139.5, 1.0 / 3600.0, 1.0 / 3600.0, 600, 600, height=250.0)
    h = tile.H.copy()
    if voids == "scattered":  # a void in every block
        h[np.random.default_rng(5).random(h.shape) < 0.1] = np.nan
    elif voids == "edge":  # a coverage edge: the tile's north-east half void
        h[np.add.outer(np.arange(600), np.arange(600)) > 600] = np.nan
    grid = TerrainGrid(lat0=tile.lat0, lon0=tile.lon0, dlat=tile.dlat, dlon=tile.dlon, H=h,
                       N=12.5 if geoid == "scalar" else np.full(h.shape, 12.5))
    curve = steep_scenario()
    cfg = TerrainSearchConfig.for_grid(grid)
    tracemalloc.start()
    try:
        tc = cone_terrain_curve(curve, grid, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tc.etas) == 0
    assert peak < grid.H.nbytes / 4


def concatenated_block_bounds(ufunc, h, b_lat, b_lon):
    """_block_bounds as it was: the short last block row reduced apart and
    joined to the whole rows' result by np.concatenate."""
    if np.isscalar(h):
        return h
    n_lat, n_lon = h.shape
    cut = n_lat - n_lat % b_lat
    rows = ufunc.reduce(h[:cut].reshape(-1, b_lat, n_lon), axis=1)
    if cut < n_lat:
        rows = np.concatenate([rows, ufunc.reduce(h[cut:], axis=0, keepdims=True)])
    return ufunc.reduceat(rows, np.arange(0, n_lon, b_lon), axis=1)


@pytest.mark.parametrize("geoid", ["scalar", "grid"])
@pytest.mark.parametrize("short_rows", [0, 1, 15])
def test_block_bounds_match_the_concatenated_rows(geoid, short_rows):
    # n_lat % b_lat in {0, 1, b_lat - 1}, with NaN posts, whole NaN blocks
    # and signed zeros, whose fmin and fmax depend on the order of reduction
    b_lat, b_lon = 16, 12
    n_lat, n_lon = 3 * b_lat + short_rows, 5 * b_lon + 7
    rng = np.random.default_rng(short_rows)
    h = rng.choice([-0.0, 0.0, 1.5, -2.25, np.nan], (n_lat, n_lon))
    h[:b_lat, :b_lon] = np.nan
    h[-1, :] = np.nan
    geoid_n = 12.5 if geoid == "scalar" else rng.choice([-0.0, 0.0, 3.0, np.nan], (n_lat, n_lon))
    for values in (h, geoid_n):
        for ufunc in (np.fmin, np.fmax):
            got = _block_bounds(ufunc, values, b_lat, b_lon)
            want = concatenated_block_bounds(ufunc, values, b_lat, b_lon)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_block_bounds_peak_is_one_row_result():
    # 601 = 37 x 16 + 9 rows: the row result is made once, where joining the
    # short last row by np.concatenate made it twice
    h = np.random.default_rng(3).uniform(0.0, 900.0, (601, 600))
    rows_nbytes = -(-601 // 16) * 600 * h.itemsize
    tracemalloc.start()
    try:
        _block_bounds(np.fmin, h, 16, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * rows_nbytes


def test_flat_grid_mapping_stays_local():
    curve = steep_scenario()
    grid = covering_grid(curve)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    for p_i in curve.points_near[::10]:
        hit = map_point_to_terrain(p_i, curve.cone.apex, posts, cfg)
        assert hit is not None
        assert np.linalg.norm(hit.point - p_i) <= grid.max_post_spacing_m()
        assert hit.ray_distance <= cfg.tr


def test_plateau_mapping_hits_before_ellipsoid():
    curve = steep_scenario()
    grid = covering_grid(curve, height=500.0)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    spacing = grid.max_post_spacing_m()
    for p_i in curve.points_near[::10]:
        hit = map_point_to_terrain(p_i, curve.cone.apex, posts, cfg)
        assert hit is not None
        assert hit.s < np.linalg.norm(p_i - curve.cone.apex)
        assert hit.ray_distance <= cfg.tr
        oracle = march_first_crossing(curve.cone.apex, p_i, grid)
        assert oracle is not None
        assert np.linalg.norm(hit.point - oracle) <= spacing


def test_ray_outside_grid_is_no_hit():
    curve = steep_scenario()
    grid = make_flat_grid(10.0, 10.0, SPACING, SPACING, 5, 5)  # far away
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    assert map_point_to_terrain(curve.points_near[0], curve.cone.apex, posts, cfg) is None


def test_equidistant_tie_takes_lowest_grid_index():
    # two posts mirrored across the ray at identical range from the receiver
    receiver = np.array([7000e3, 0.0, 0.0])
    target = np.array([6378e3, 0.0, 0.0])
    ecef = np.array([[6500e3, 30.0, 0.0], [6500e3, -30.0, 0.0]])
    posts = EcefPostSet(ecef=ecef, index=np.array([7, 3]), shape=(5, 5))
    cfg = TerrainSearchConfig(tr=50.0)
    hit = map_point_to_terrain(target, receiver, posts, cfg)
    assert hit.grid_index == (0, 3)  # flat index 3 beats flat index 7

    # the batched search breaks a tie within TIE_EPS the same way
    curve = steep_scenario()
    k = len(curve.points_near) // 3
    ray = curve.points_near[k] - curve.cone.apex
    ray /= np.linalg.norm(ray)
    side = np.cross(ray, [0.0, 0.0, 1.0])
    side /= np.linalg.norm(side)
    mid = curve.cone.apex + 0.9 * curve.ranges_near[k] * ray
    posts = EcefPostSet(ecef=np.array([mid + 20.0 * side, mid - 20.0 * side]),
                        index=np.array([7, 3]), shape=(5, 5))
    tc = assert_posts_match_scan(_map_posts(curve, posts, cfg, _rays(curve, cfg)), curve, posts,
                                 cfg)
    assert tuple(tc.grid_index[list(tc.etas).index(curve.etas_near[k])]) == (0, 3)


def test_terrain_curve_flat_equivalence():
    curve = steep_scenario()
    grid = covering_grid(curve)
    cfg = TerrainSearchConfig.for_grid(grid)
    tc = cone_terrain_curve(curve, grid, cfg)
    assert len(tc.points) == len(curve.points_near)
    assert tc.gaps == []
    spacing = grid.max_post_spacing_m()
    gap = np.linalg.norm(terrain_ecef(tc) - curve.points_near, axis=1)
    assert (gap <= max(spacing, cfg.tr)).all()


def test_terrain_curve_deterministic():
    curve = steep_scenario()
    grid = covering_grid(curve, height=120.0)
    cfg = TerrainSearchConfig.for_grid(grid)
    a = cone_terrain_curve(curve, grid, cfg)
    b = cone_terrain_curve(curve, grid, cfg)
    assert np.array_equal(a.grid_index, b.grid_index)
    assert np.array_equal(a.points, b.points)
    assert a.gaps == b.gaps


def test_terrain_curve_records_gaps():
    curve = steep_scenario()
    lat, lon, _ = ecef_to_geodetic_arrays(curve.points_near)
    # grid covering only the eastern half of the curve
    mid = 0.5 * (lon.min() + lon.max())
    lat0 = math.floor((lat.min() - 0.01) / SPACING) * SPACING
    n_lat = int((lat.max() + 0.01 - lat0) / SPACING) + 2
    lon0 = mid
    n_lon = int((lon.max() + 0.01 - lon0) / SPACING) + 2
    grid = make_flat_grid(lat0, lon0, SPACING, SPACING, n_lat, n_lon)
    cfg = TerrainSearchConfig.for_grid(grid)
    tc = assert_matches_scan(curve, grid, cfg)
    assert 0 < len(tc.points) < len(curve.points_near)
    assert len(tc.gaps) >= 1


def test_empty_curve_maps_to_empty_terrain_curve():
    apex = np.array([0.0, 0.0, WGS84.b + 700e3])
    cone = cone_from_geometry(apex, [0.0, 0.0, 1.0], math.radians(30.0))
    curve = intersect_cone_ellipsoid(cone)
    grid = make_flat_grid(-35.0, 138.0, SPACING, SPACING, 4, 4)
    cfg = TerrainSearchConfig.for_grid(grid)
    tc = cone_terrain_curve(curve, grid, cfg)
    assert tc.points.shape == (0, 3) and tc.grid_index.shape == (0, 2)
    assert len(tc.etas) == len(tc.s) == len(tc.ray_distance) == 0 and tc.gaps == []


def test_posts_fold_longitudes_past_the_antimeridian():
    grid = make_flat_grid(-34.75, 179.98, SPACING, SPACING, 3, 120)
    posts = grid_to_ecef_posts(grid)
    lats = np.repeat(grid.lats(), grid.n_lon)
    lons = np.tile(grid.lons(), grid.n_lat)
    inside = lons <= 180.0
    # in-range posts convert from their longitude bit for bit
    unfolded = geodetic_to_ecef_arrays(lats, lons, np.zeros(len(lons)))
    assert np.array_equal(posts.ecef[inside], unfolded[inside])
    _, lon, _ = ecef_to_geodetic_arrays(posts.ecef)
    assert (lon[~inside] < -179.9).all()
    assert np.allclose(lon[~inside], lons[~inside] - 360.0, rtol=0.0, atol=1e-9)
    assert np.allclose(lon[inside], lons[inside], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("lon_rx, yaw, lon0, psi_deg, n_rays", [
    # receiver east of the line, tile straddling it
    pytest.param(180.03, 90.0, 179.98, 80.0, 720, id="repro"),
    # receiver west of the line: rays cross it and end just past it
    pytest.param(179.91488771127894, 24.872475863729573, 179.9335967506655,
                 80.03340587200262, 90, id="crossing_ray"),
])
def test_batched_matches_scan_across_antimeridian(lon_rx, yaw, lon0, psi_deg, n_rays):
    vs = VehicleState.from_attitude(GeodeticCoord(-34.6462, lon_rx, 2000.0), 50.0,
                                    AttitudeEuler(0.0, -30.0, yaw))
    cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir, math.radians(psi_deg))
    curve = intersect_cone_ellipsoid(cone, n_samples=n_rays)
    grid = make_flat_grid(-34.75, lon0, SPACING, SPACING, 120, 120)
    tc = assert_matches_scan(curve, grid, TerrainSearchConfig.for_grid(grid))
    assert len(tc.points) > 0


def test_batched_matches_scan_steep():
    curve = steep_scenario()
    grid = covering_grid(curve, height=200.0)
    assert len(assert_matches_scan(curve, grid, TerrainSearchConfig.for_grid(grid)).points)


REGIONS = {"mid": (-60.0, 60.0, -170.0, 170.0), "north": (80.0, 86.0, -180.0, 180.0),
           "south": (-86.0, -80.0, -180.0, 180.0), "antimeridian": (-60.0, 60.0, 179.95, 180.05)}
BLOCK_SIZES = [1, 3, 16, 10 ** 6]  # 10**6: one block holds the whole tile
# 3 and 5 divide neither 16 nor each other: they test the rounding of a
# block up to a whole number of sub-blocks
SUB_BLOCK_SIZES = [1, 2, 3, 4, 5, 10 ** 6]


@settings(max_examples=100, deadline=None)
@given(region=st.sampled_from(sorted(REGIONS)), fractions=st.lists(
           st.floats(0.0, 1.0), min_size=6, max_size=6),
       plane=st.booleans(), n_rays=st.integers(16, 160),
       spacing_arcsec=st.sampled_from([1.0, 3.0, 9.0]), relief=st.sampled_from([0.0, 300.0]),
       void_fraction=st.sampled_from([0.0, 0.1]), void_patch=st.booleans(),
       below_void=st.booleans(), nan_fraction=st.sampled_from([0.0, 0.05]),
       n_lat=st.integers(1, 130), n_lon=st.integers(1, 130), array_n=st.booleans(),
       block=st.sampled_from(BLOCK_SIZES), sub_block=st.sampled_from(SUB_BLOCK_SIZES),
       seed=st.integers(0, 2 ** 16))
def test_batched_matches_scan_property(region, fractions, plane, n_rays, spacing_arcsec,
                                       relief, void_fraction, void_patch, below_void,
                                       nan_fraction, n_lat, n_lon, array_n, block, sub_block,
                                       seed):
    lat_lo, lat_hi, lon_lo, lon_hi = REGIONS[region]
    f_lat, f_lon, f_h, f_pitch, f_yaw, f_psi = fractions
    vs = VehicleState.from_attitude(
        GeodeticCoord(lat_lo + f_lat * (lat_hi - lat_lo), lon_lo + f_lon * (lon_hi - lon_lo),
                      300.0 + 4700.0 * f_h),
        50.0, AttitudeEuler(0.0, -80.0 + 70.0 * f_pitch, 360.0 * f_yaw))
    psi = math.pi / 2.0 if plane else math.radians(5.0 + 80.0 * f_psi)
    cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir, psi)
    curve = intersect_cone_ellipsoid(cone, n_samples=n_rays)
    rng = np.random.default_rng(seed)
    # a tile around one curve point (or below the receiver for an empty curve)
    if len(curve.points_near):
        centre = curve.points_near[rng.integers(len(curve.points_near))]
        lat_c, lon_c, _ = ecef_to_geodetic_arrays(centre)
    else:
        lat_c, lon_c = vs.position.lat, vs.position.lon
    spacing = spacing_arcsec / 3600.0
    lat0 = float(np.clip(lat_c - rng.uniform(0.2, 0.8) * n_lat * spacing,
                         -89.0, 89.0 - n_lat * spacing))
    lon0 = float(lon_c - rng.uniform(0.2, 0.8) * n_lon * spacing)
    h = rng.uniform(0.0, relief, (n_lat, n_lon))
    h[rng.random((n_lat, n_lon)) < void_fraction] = np.nan
    if void_patch:  # void posts filling whole blocks of the smaller sizes
        i, j = rng.integers(n_lat), rng.integers(n_lon)
        h[i:i + 20, j:j + 20] = np.nan
    void = np.isnan(h)
    # heights below the file formats' void value, which a portable grid may
    # hold, beside voids and in void blocks
    if below_void:
        low = void & (rng.random((n_lat, n_lon)) < 0.3)
        h[low] = VOID_ELEVATION - rng.uniform(0.0, 2000.0, low.sum())
        h[rng.integers(n_lat), rng.integers(n_lon)] = VOID_ELEVATION - 1.0
    # posts without a height set apart from the voids
    h[rng.random((n_lat, n_lon)) < nan_fraction] = np.nan
    h[rng.integers(n_lat), rng.integers(n_lon)] = 0.0  # never an all-void tile
    geoid = rng.uniform(-60.0, 60.0, (n_lat, n_lon)) if array_n else 0.0
    grid = TerrainGrid(lat0=lat0, lon0=lon0, dlat=spacing, dlon=spacing, H=h, N=geoid)
    # the pruned search at any block and sub-block size, tiles that
    # end inside a block or a sub-block and blocks rounded up to whole
    # sub-blocks included, equals the scan over every post; the posts it
    # converts are scan posts, with their bits
    cfg = TerrainSearchConfig.for_grid(grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(terrain, "POST_BLOCK", block)
        patch.setattr(terrain, "SUB_BLOCK", sub_block)
        assert_matches_scan(curve, grid, cfg)
        _, _, reach, far = _rays(curve, cfg)
        posts = _posts_near_cone(grid, curve.cone, reach, far)
    scan = grid_to_ecef_posts(grid)
    at = np.searchsorted(scan.index, posts.index)
    assert np.array_equal(scan.index[np.minimum(at, len(scan.index) - 1)], posts.index)
    assert posts.ecef.tobytes() == scan.ecef[at].tobytes()
    assert not np.isnan(posts.ecef).any()


def block_at_the_bound(rng, extent):
    """A cone, a one-block tile and the grid index of its post nearest the
    cone surface, which lies on the block's sphere along the surface normal,
    and on the ray at eta = 0. The block extends from that post along the
    normal, so its
    centre lies tau + r' from the surface, r' the distance from the centre
    to the post, which the block's radius r bounds: tightly along the
    vertical (r' = r), within 1% along a parallel or a meridian (whose
    radii of curvature r takes as a^2 / b, reached at the poles).

    height: two posts at one lat/lon (dlon far below a longitude ulp), H
    differing by 2 dH; the ray runs horizontally through S, a few mm under
    the ellipsoid, and the cone's normal there is the vertical.
    sub_block: the height case on a row of POST_BLOCK posts: the post
    nearest the surface is the lowest of a sub-block other than the first,
    whose highest post lies 2 dH above it, so it lies on the sub-block's
    sphere too; the posts of the other sub-blocks lie higher still.
    lon / lat: a row / column of 16 posts at H = 0 beside a plane cone whose
    ray at eta = 0 meets the ellipsoid at S, tau west / south of the first
    post: the meridian plane through S, swept down along -z from 10 km above
    it, or the prime vertical plane, swept straight down.
    """
    tau = rng.uniform(5.0, 100.0)
    if extent in ("height", "sub_block"):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        psi = math.radians(rng.uniform(20.0, 70.0))
        probe = cone_from_geometry(np.zeros(3), axis, psi)
        ray = _ray_directions(probe, np.array([0.0]))[0]
        normal = probe.axis - (probe.axis @ ray) * ray
        normal *= rng.choice([-1.0, 1.0]) / np.linalg.norm(normal)
        lat = math.degrees(math.atan2(normal[2], math.hypot(normal[0], normal[1])))
        lon = math.degrees(math.atan2(normal[1], normal[0]))
        # 10 km from the apex; the ray enters the ellipsoid ~250 m before S
        h_s, d_h = -0.005, rng.uniform(50.0, 2000.0)
        cone = cone_from_geometry(geodetic_to_ecef_arrays(lat, lon, h_s) - 1e4 * ray,
                                  probe.axis, psi)
        low, high = h_s + tau, h_s + tau + 2.0 * d_h
        row, nearest = np.array([low, high]), 0
        if extent == "sub_block":
            row = high + rng.uniform(1.0, 500.0, terrain.POST_BLOCK)
            first = terrain.SUB_BLOCK * rng.integers(1, terrain.POST_BLOCK // terrain.SUB_BLOCK)
            at = first + rng.permutation(terrain.SUB_BLOCK)
            row[at] = rng.uniform(low, high, terrain.SUB_BLOCK)
            row[at[:2]] = low, high
            nearest = at[0]
        return cone, TerrainGrid(lat0=lat, lon0=lon, dlat=1.0 / 3600.0, dlon=1e-300,
                                 H=row[np.newaxis]), (0, nearest)
    lat, lon = rng.uniform(5.0, 85.0), rng.uniform(-180.0, 180.0)
    s_point = geodetic_to_ecef_arrays(lat, lon, 0.0)
    step = rng.uniform(1.0, 3.0) / 3600.0
    phi, lam = math.radians(lat), math.radians(lon)
    if extent == "lon":
        axis = np.array([-math.sin(lam), math.cos(lam), 0.0])
        apex = s_point + np.array([0.0, 0.0, 1e4])
        rho = math.hypot(s_point[0], s_point[1])
        grid = TerrainGrid(lat0=lat, lon0=lon + math.degrees(math.asin(tau / rho)),
                           dlat=step, dlon=step, H=np.zeros((1, 16)))
    else:
        axis = np.array([-math.sin(phi) * math.cos(lam), -math.sin(phi) * math.sin(lam),
                         math.cos(phi)])
        apex = geodetic_to_ecef_arrays(lat, lon, 1e4)
        grid = TerrainGrid(lat0=lat + math.degrees(tau / 6.36e6), lon0=lon, dlat=step,
                           dlon=step, H=np.zeros((16, 1)))
    return cone_from_geometry(apex, axis, math.pi / 2.0), grid, (0, 0)


@pytest.mark.parametrize("extent", ["height", "lon", "lat", "sub_block"])
def test_block_holding_a_post_at_the_bound_is_kept(extent):
    # tr is the nearest post's distance from the ray at eta = 0 to a
    # nanometre, so its block and sub-block are kept only by r - r' and the
    # prefilter's slack (tr 1e-6): a radius short by more than that drops
    # the one post that ray hits. A scalar or grid N carrying part of each
    # height tests that the block bounds are those of H + N.
    rng, rng_n = np.random.default_rng(29), np.random.default_rng(31)
    for _ in range(40):
        cone, tile, nearest = block_at_the_bound(rng, extent)
        curve = intersect_cone_ellipsoid(cone, n_samples=360)
        assert 0.0 in curve.etas_near
        k = list(curve.etas_near).index(0.0)
        for n in 0.0, rng_n.uniform(-60.0, 60.0), rng_n.uniform(-60.0, 60.0, tile.H.shape):
            grid = TerrainGrid(lat0=tile.lat0, lon0=tile.lon0, dlat=tile.dlat, dlon=tile.dlon,
                               H=tile.H - n, N=n)
            hit = map_point_to_terrain(curve.points_near[k], cone.apex, grid_to_ecef_posts(grid),
                                       TerrainSearchConfig(tr=1e3))
            assert hit.grid_index == nearest
            cfg = TerrainSearchConfig(tr=hit.ray_distance + 1e-9)
            tc = assert_matches_scan(curve, grid, cfg)
            assert 0.0 in tc.etas


def test_sub_blocks_convert_a_third_of_the_block_posts():
    # UAV passes over a seeded 600 x 600 1-arcsec ridge tile, as in the
    # terrain_wide benchmark: the sub-blocks keep at most a third of the
    # posts of the kept blocks (SUB_BLOCK = POST_BLOCK is the block level)
    rng = np.random.default_rng(7)
    spacing = 1.0 / 3600.0
    for _ in range(4):
        lat0, lon0 = rng.uniform(-55.0, 55.0), rng.uniform(-175.0, 175.0)
        grid = make_ridge_grid(lat0, lon0, spacing, spacing, 600, 600,
                               crest=rng.uniform(200.0, 900.0))
        vs = VehicleState.from_attitude(
            GeodeticCoord(lat0 + 300 * spacing, lon0 + 300 * spacing, rng.uniform(1500.0, 3000.0)),
            50.0, AttitudeEuler(0.0, rng.uniform(-40.0, -25.0), rng.uniform(0.0, 360.0)))
        cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir,
                                  math.radians(rng.uniform(35.0, 45.0)))
        curve = intersect_cone_ellipsoid(cone, n_samples=180)
        _, _, reach, far = _rays(curve, TerrainSearchConfig.for_grid(grid))
        kept = len(_posts_near_cone(grid, cone, reach, far).index)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(terrain, "SUB_BLOCK", terrain.POST_BLOCK)
            in_blocks = len(_posts_near_cone(grid, cone, reach, far).index)
        assert 0 < 3 * kept <= in_blocks
