import math

import numpy as np
import pytest

from dopplergeo.cone import VehicleState, cone_from_geometry
from dopplergeo.geodesy import (
    WGS84,
    AttitudeEuler,
    GeodeticCoord,
    ecef_to_geodetic_arrays,
    geodetic_to_ecef_arrays,
)
from dopplergeo.gridfile import make_flat_grid
from dopplergeo.intersect import intersect_cone_ellipsoid
from dopplergeo.terrain import (
    STRATEGY_GLOBAL,
    VOID_ELEVATION,
    EcefPostSet,
    EmptyGrid,
    TerrainGrid,
    TerrainSearchConfig,
    cone_terrain_curve,
    grid_to_ecef_posts,
    map_point_to_terrain,
    point_line_distance,
)

SPACING = 3.0 / 3600.0  # one level-1 style post every ~90 m


def steep_scenario(n_samples=180):
    """Cone whose visible curve lands a few km below the vehicle."""
    vs = VehicleState.from_attitude(GeodeticCoord(-34.6462, 138.833, 1500.0), 50.0,
                                    AttitudeEuler(0.0, -70.0, 190.0))
    cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir, math.radians(15.0))
    return cone, intersect_cone_ellipsoid(cone, n_samples=n_samples)


def covering_grid(curve, height=0.0, margin=0.01):
    lat, lon, _ = ecef_to_geodetic_arrays(curve.points_near)
    lat0 = math.floor((lat.min() - margin) / SPACING) * SPACING
    lon0 = math.floor((lon.min() - margin) / SPACING) * SPACING
    n_lat = int((lat.max() + margin - lat0) / SPACING) + 2
    n_lon = int((lon.max() + margin - lon0) / SPACING) + 2
    return make_flat_grid(lat0, lon0, SPACING, SPACING, n_lat, n_lon, height=height)


def march_first_crossing(receiver, p_i, grid, step=1.0):
    """1 m ray-marching oracle: first point where the ray drops to the
    bilinear terrain surface spanned by the same posts."""
    sep = p_i - receiver
    ray_len = np.linalg.norm(sep)
    direction = sep / ray_len
    s = np.arange(0.0, 1.2 * ray_len, step)
    pts = receiver + s[:, None] * direction
    lat, lon, h = ecef_to_geodetic_arrays(pts)
    fi = (lat - grid.lat0) / grid.dlat
    fj = (lon - grid.lon0) / grid.dlon
    inside = (fi >= 0) & (fi <= grid.n_lat - 1) & (fj >= 0) & (fj <= grid.n_lon - 1)
    i0 = np.clip(np.floor(fi).astype(int), 0, grid.n_lat - 2)
    j0 = np.clip(np.floor(fj).astype(int), 0, grid.n_lon - 2)
    wi = fi - i0
    wj = fj - j0
    surface = grid.H + grid.N
    terrain = (surface[i0, j0] * (1 - wi) * (1 - wj) + surface[i0 + 1, j0] * wi * (1 - wj)
               + surface[i0, j0 + 1] * (1 - wi) * wj + surface[i0 + 1, j0 + 1] * wi * wj)
    below = inside & (h <= terrain)
    idx = np.flatnonzero(below)
    return None if len(idx) == 0 else pts[idx[0]]


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
    h[1, 1] = VOID_ELEVATION
    grid = TerrainGrid(lat0=0.0, lon0=0.0, dlat=SPACING, dlon=SPACING, H=h)
    posts = grid_to_ecef_posts(grid)
    assert len(posts.ecef) == 8
    assert 4 not in posts.index  # flattened center index


def test_all_void_grid_raises():
    h = np.full((2, 2), VOID_ELEVATION)
    grid = TerrainGrid(lat0=0.0, lon0=0.0, dlat=SPACING, dlon=SPACING, H=h)
    with pytest.raises(EmptyGrid):
        grid_to_ecef_posts(grid)


def test_point_line_distance_basics():
    origin = np.zeros(3)
    direction = np.array([1.0, 0.0, 0.0])
    assert point_line_distance(np.array([5.0, 0.0, 0.0]), origin, direction) == 0.0
    assert point_line_distance(np.array([0.0, 1.0, 0.0]), origin, direction) == pytest.approx(1.0)


def test_point_line_distance_against_scan():
    rng = np.random.default_rng(40)
    origin = rng.normal(0, 1e6, 3)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    p = rng.normal(0, 1e6, 3)
    s = np.linspace(-5e6, 5e6, 2000001)
    brute = np.linalg.norm(p - (origin + s[:, None] * direction), axis=1).min()
    assert point_line_distance(p, origin, direction) == pytest.approx(brute, abs=1e-6)


def test_flat_grid_mapping_stays_local():
    cone, curve = steep_scenario()
    grid = covering_grid(curve)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    for p_i in curve.points_near[::10]:
        hit = map_point_to_terrain(p_i, cone.apex, posts, cfg)
        assert hit is not None
        assert np.linalg.norm(hit.point - p_i) <= grid.max_post_spacing_m()
        assert hit.ray_distance <= cfg.tr


def test_plateau_mapping_hits_before_ellipsoid():
    cone, curve = steep_scenario()
    grid = covering_grid(curve, height=500.0)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    spacing = grid.max_post_spacing_m()
    for p_i in curve.points_near[::10]:
        hit = map_point_to_terrain(p_i, cone.apex, posts, cfg)
        assert hit is not None
        assert hit.s < np.linalg.norm(p_i - cone.apex)
        assert hit.ray_distance <= cfg.tr
        oracle = march_first_crossing(cone.apex, p_i, grid)
        assert oracle is not None
        assert np.linalg.norm(hit.point - oracle) <= spacing


def test_ray_outside_grid_is_no_hit():
    cone, curve = steep_scenario()
    grid = make_flat_grid(10.0, 10.0, SPACING, SPACING, 5, 5)  # far away
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    assert map_point_to_terrain(curve.points_near[0], cone.apex, posts, cfg) is None


def test_window_matches_global_scan():
    cone, curve = steep_scenario()
    grid = covering_grid(curve, height=200.0)
    posts = grid_to_ecef_posts(grid)
    window = TerrainSearchConfig.for_grid(grid)
    whole = TerrainSearchConfig(tr=window.tr, strategy=STRATEGY_GLOBAL)
    for p_i in curve.points_near[::7]:
        a = map_point_to_terrain(p_i, cone.apex, posts, window)
        b = map_point_to_terrain(p_i, cone.apex, posts, whole)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.grid_index == b.grid_index


def test_equidistant_tie_takes_lowest_grid_index():
    # two posts mirrored across the ray at identical range from the receiver
    receiver = np.array([7000e3, 0.0, 0.0])
    target = np.array([6378e3, 0.0, 0.0])
    ecef = np.array([[6500e3, 30.0, 0.0], [6500e3, -30.0, 0.0]])
    posts = EcefPostSet(ecef=ecef, lat=np.zeros(2), lon=np.zeros(2),
                        index=np.array([7, 3]), shape=(5, 5))
    cfg = TerrainSearchConfig(tr=50.0, strategy=STRATEGY_GLOBAL)
    hit = map_point_to_terrain(target, receiver, posts, cfg)
    assert hit.grid_index == (0, 3)  # flat index 3 beats flat index 7


def test_candidate_debug_listing():
    cone, curve = steep_scenario()
    grid = covering_grid(curve)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    cands = map_point_to_terrain(curve.points_near[0], cone.apex, posts, cfg,
                                 return_candidates=True)
    assert len(cands) >= 1
    ranges = [c.s for c in cands]
    assert ranges == sorted(ranges)


def test_terrain_curve_flat_equivalence():
    cone, curve = steep_scenario()
    grid = covering_grid(curve)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    tc = cone_terrain_curve(curve, cone.apex, posts, cfg)
    assert len(tc.points) == len(curve.points_near)
    assert tc.gaps == []
    spacing = grid.max_post_spacing_m()
    for hit, p_i in zip(tc.hits, curve.points_near):
        assert np.linalg.norm(hit.point - p_i) <= max(spacing, cfg.tr)


def test_terrain_curve_deterministic():
    cone, curve = steep_scenario()
    grid = covering_grid(curve, height=120.0)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    a = cone_terrain_curve(curve, cone.apex, posts, cfg)
    b = cone_terrain_curve(curve, cone.apex, posts, cfg)
    assert [h.grid_index for h in a.hits] == [h.grid_index for h in b.hits]
    assert a.gaps == b.gaps


def test_terrain_curve_records_gaps():
    cone, curve = steep_scenario()
    lat, lon, _ = ecef_to_geodetic_arrays(curve.points_near)
    # grid covering only the eastern half of the curve
    mid = 0.5 * (lon.min() + lon.max())
    lat0 = math.floor((lat.min() - 0.01) / SPACING) * SPACING
    n_lat = int((lat.max() + 0.01 - lat0) / SPACING) + 2
    lon0 = mid
    n_lon = int((lon.max() + 0.01 - lon0) / SPACING) + 2
    grid = make_flat_grid(lat0, lon0, SPACING, SPACING, n_lat, n_lon)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    tc = cone_terrain_curve(curve, cone.apex, posts, cfg)
    assert 0 < len(tc.points) < len(curve.points_near)
    assert len(tc.gaps) >= 1


def test_empty_curve_maps_to_empty_terrain_curve():
    apex = np.array([0.0, 0.0, WGS84.b + 700e3])
    cone = cone_from_geometry(apex, [0.0, 0.0, 1.0], math.radians(30.0))
    curve = intersect_cone_ellipsoid(cone)
    grid = make_flat_grid(-35.0, 138.0, SPACING, SPACING, 4, 4)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    tc = cone_terrain_curve(curve, apex, posts, cfg)
    assert tc.points == [] and tc.hits == [] and tc.gaps == []


def test_posts_fold_longitudes_past_the_antimeridian():
    grid = make_flat_grid(-34.75, 179.98, SPACING, SPACING, 3, 120)
    posts = grid_to_ecef_posts(grid)
    lons = np.tile(grid.lons(), grid.n_lat)
    inside = lons <= 180.0
    assert np.array_equal(posts.lon[inside], lons[inside])  # kept bit for bit
    assert (posts.lon[~inside] < -179.9).all()
    assert np.allclose(posts.lon[~inside], lons[~inside] - 360.0, rtol=0.0, atol=1e-9)
    lat, lon, _ = ecef_to_geodetic_arrays(posts.ecef)
    assert np.allclose(lon, posts.lon, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("lon_rx, yaw, lon0, psi_deg, n_rays", [
    # receiver east of the line, tile straddling it
    pytest.param(180.03, 90.0, 179.98, 80.0, 720, id="repro"),
    # receiver west of the line: rays cross it and end just past it
    pytest.param(179.91488771127894, 24.872475863729573, 179.9335967506655,
                 80.03340587200262, 90, id="crossing_ray"),
])
def test_window_matches_global_scan_across_antimeridian(lon_rx, yaw, lon0, psi_deg, n_rays):
    vs = VehicleState.from_attitude(GeodeticCoord(-34.6462, lon_rx, 2000.0), 50.0,
                                    AttitudeEuler(0.0, -30.0, yaw))
    cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir, math.radians(psi_deg))
    curve = intersect_cone_ellipsoid(cone, n_samples=n_rays)
    grid = make_flat_grid(-34.75, lon0, SPACING, SPACING, 120, 120)
    posts = grid_to_ecef_posts(grid)
    window = TerrainSearchConfig.for_grid(grid)
    whole = TerrainSearchConfig(tr=window.tr, strategy=STRATEGY_GLOBAL)
    a = cone_terrain_curve(curve, cone.apex, posts, window)
    b = cone_terrain_curve(curve, cone.apex, posts, whole)
    assert len(a.hits) > 0
    assert [h.grid_index for h in a.hits] == [h.grid_index for h in b.hits]
    assert [h.s for h in a.hits] == [h.s for h in b.hits]
    assert a.gaps == b.gaps
