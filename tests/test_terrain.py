import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def assert_matches_scan(curve, cone, posts, cfg):
    """The batched search equals map_point_to_terrain run ray by ray."""
    tc = cone_terrain_curve(curve, cone, posts, cfg)
    hits = [map_point_to_terrain(p_i, cone.apex, posts, cfg) for p_i in curve.points_near]
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
    cone, curve = steep_scenario()
    k = len(curve.points_near) // 3
    ray = curve.points_near[k] - cone.apex
    ray /= np.linalg.norm(ray)
    side = np.cross(ray, [0.0, 0.0, 1.0])
    side /= np.linalg.norm(side)
    mid = cone.apex + 0.9 * curve.ranges_near[k] * ray
    posts = EcefPostSet(ecef=np.array([mid + 20.0 * side, mid - 20.0 * side]),
                        index=np.array([7, 3]), shape=(5, 5))
    tc = assert_matches_scan(curve, cone, posts, cfg)
    assert tuple(tc.grid_index[list(tc.etas).index(curve.etas_near[k])]) == (0, 3)


def test_terrain_curve_flat_equivalence():
    cone, curve = steep_scenario()
    grid = covering_grid(curve)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    tc = cone_terrain_curve(curve, cone, posts, cfg)
    assert len(tc.points) == len(curve.points_near)
    assert tc.gaps == []
    spacing = grid.max_post_spacing_m()
    gap = np.linalg.norm(terrain_ecef(tc) - curve.points_near, axis=1)
    assert (gap <= max(spacing, cfg.tr)).all()


def test_terrain_curve_deterministic():
    cone, curve = steep_scenario()
    grid = covering_grid(curve, height=120.0)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    a = cone_terrain_curve(curve, cone, posts, cfg)
    b = cone_terrain_curve(curve, cone, posts, cfg)
    assert np.array_equal(a.grid_index, b.grid_index)
    assert np.array_equal(a.points, b.points)
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
    tc = assert_matches_scan(curve, cone, posts, cfg)
    assert 0 < len(tc.points) < len(curve.points_near)
    assert len(tc.gaps) >= 1


def test_empty_curve_maps_to_empty_terrain_curve():
    apex = np.array([0.0, 0.0, WGS84.b + 700e3])
    cone = cone_from_geometry(apex, [0.0, 0.0, 1.0], math.radians(30.0))
    curve = intersect_cone_ellipsoid(cone)
    grid = make_flat_grid(-35.0, 138.0, SPACING, SPACING, 4, 4)
    posts = grid_to_ecef_posts(grid)
    cfg = TerrainSearchConfig.for_grid(grid)
    tc = cone_terrain_curve(curve, cone, posts, cfg)
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
    posts = grid_to_ecef_posts(grid)
    tc = assert_matches_scan(curve, cone, posts, TerrainSearchConfig.for_grid(grid))
    assert len(tc.points) > 0


def test_batched_matches_scan_steep():
    cone, curve = steep_scenario()
    grid = covering_grid(curve, height=200.0)
    posts = grid_to_ecef_posts(grid)
    assert len(assert_matches_scan(curve, cone, posts, TerrainSearchConfig.for_grid(grid)).points)


REGIONS = {"mid": (-60.0, 60.0, -170.0, 170.0), "north": (80.0, 85.0, -180.0, 180.0),
           "south": (-85.0, -80.0, -180.0, 180.0), "antimeridian": (-60.0, 60.0, 179.95, 180.05)}


@settings(max_examples=60, deadline=None)
@given(region=st.sampled_from(sorted(REGIONS)), fractions=st.lists(
           st.floats(0.0, 1.0), min_size=6, max_size=6),
       plane=st.booleans(), n_rays=st.integers(16, 160),
       spacing_arcsec=st.sampled_from([3.0, 9.0]), relief=st.sampled_from([0.0, 300.0]),
       void_fraction=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2 ** 16))
def test_batched_matches_scan_property(region, fractions, plane, n_rays, spacing_arcsec,
                                       relief, void_fraction, seed):
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
    n = 50
    lat0 = float(np.clip(lat_c - rng.uniform(0.2, 0.8) * n * spacing, -89.0, 89.0 - n * spacing))
    lon0 = float(lon_c - rng.uniform(0.2, 0.8) * n * spacing)
    h = rng.uniform(0.0, relief, (n, n))
    h[rng.random((n, n)) < void_fraction] = VOID_ELEVATION
    h[0, 0] = 0.0  # never an all-void tile
    grid = TerrainGrid(lat0=lat0, lon0=lon0, dlat=spacing, dlon=spacing, H=h)
    assert_matches_scan(curve, cone, grid_to_ecef_posts(grid), TerrainSearchConfig.for_grid(grid))
