import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dopplergeo.geodesy import (
    WGS84,
    AttitudeEuler,
    Ellipsoid,
    GeodeticCoord,
    body_to_ecef_direction,
    body_to_enu_matrix,
    ecef_to_geodetic_arrays,
    enu_matrix,
    geodetic_to_ecef,
    geodetic_to_ecef_arrays,
    normalize_longitude,
)

# direct evaluation of the forward equations at the reference vehicle position
UAV_POSITION = GeodeticCoord(-34.6462, 138.833, 2000.0)
UAV_ECEF = np.array([-3955545.97185416, 3458796.52796685, -3606783.20614340])


def test_wgs84_constants():
    assert WGS84.a == 6378137.0
    assert abs(WGS84.b - 6356752.314245) < 1e-6
    assert abs(WGS84.e2 - 6.69437999014e-3) < 1e-12
    assert abs(WGS84.b - WGS84.a * (1.0 - WGS84.f)) < 1e-6


def test_degenerate_ellipsoid_rejected():
    with pytest.raises(ValueError):
        Ellipsoid(a=1000.0, f=1.5)


def test_equator_prime_meridian():
    p = geodetic_to_ecef(GeodeticCoord(0.0, 0.0, 0.0))
    assert np.allclose(p, [6378137.0, 0.0, 0.0], atol=1e-9)


def test_north_pole_z_is_semi_minor_axis():
    p = geodetic_to_ecef(GeodeticCoord(90.0, 0.0, 0.0))
    assert abs(p[2] - 6356752.314245) < 1e-6
    assert math.hypot(p[0], p[1]) < 1e-6


def test_uav_position_forward():
    p = geodetic_to_ecef(UAV_POSITION)
    assert np.allclose(p, UAV_ECEF, atol=1e-6)


def test_inverse_simple_points():
    lat, lon, h = ecef_to_geodetic_arrays(np.array([6378137.0, 0.0, 0.0]))
    assert abs(lat) < 1e-9 and abs(lon) < 1e-9 and abs(h) < 1e-6


def test_polar_axis_arrays_stay_finite():
    # on the axis rho = 0: z / rho overflows to +-inf (numpy warns), arctan
    # takes it to +-90 deg, and the point converts finite: lat +-90, lon 0
    h = np.array([0.0, 1234.5, 5e5, -300.0])
    z = np.concatenate([WGS84.b + h, -(WGS84.b + h)])
    pts = np.column_stack([np.zeros(8), np.zeros(8), z])
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        lat, lon, h_back = ecef_to_geodetic_arrays(pts)
    assert lat.tolist() == [90.0] * 4 + [-90.0] * 4
    assert lon.tolist() == [0.0] * 8
    assert np.abs(h_back - np.tile(h, 2)).max() < 1e-9


def test_antimeridian_point_converts_to_lon_180():
    # arctan2's range is [-180, 180]: this point came back at lon -180.0
    _, lon, _ = ecef_to_geodetic_arrays(geodetic_to_ecef_arrays(10.0, -180.0, 0.0))
    assert lon == 180.0


COORD = st.floats(-7e6, 7e6)


@given(x=COORD.filter(lambda x: abs(x) > 1e5), y=st.sampled_from([0.0, -0.0]) | COORD, z=COORD)
def test_geodetic_longitude_folded_like_normalize_longitude(x, y, z):
    # off the polar axis; y = -0.0 with x < 0 is arctan2's -180
    _, lon, _ = ecef_to_geodetic_arrays(np.array([[x, y, z]]))
    assert lon.tobytes() == normalize_longitude(np.degrees(np.arctan2([y], [x]))).tobytes()


def test_round_trip_random_points():
    rng = np.random.default_rng(2024)
    n = 10000
    lat = rng.uniform(-90.0, 90.0, n)
    lon = rng.uniform(-180.0, 180.0, n)
    h = rng.uniform(-100.0, 500e3, n)
    p = geodetic_to_ecef_arrays(lat, lon, h)
    lat2, lon2, h2 = ecef_to_geodetic_arrays(p)
    p2 = geodetic_to_ecef_arrays(lat2, lon2, h2)
    assert np.linalg.norm(p2 - p, axis=-1).max() < 1e-6
    assert np.abs(lat2 - lat).max() < 1e-9


def test_surface_points_satisfy_ellipsoid_equation():
    rng = np.random.default_rng(5)
    lat = rng.uniform(-90.0, 90.0, 500)
    lon = rng.uniform(-180.0, 180.0, 500)
    p = geodetic_to_ecef_arrays(lat, lon, np.zeros(500))
    res = (p[:, 0] ** 2 + p[:, 1] ** 2) / WGS84.a ** 2 + p[:, 2] ** 2 / WGS84.b ** 2
    assert np.abs(res - 1.0).max() < 1e-12


def test_enu_axes_at_origin():
    origin = GeodeticCoord(0.0, 0.0, 0.0)
    assert np.allclose(enu_matrix(origin) @ [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(enu_matrix(origin) @ [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)


def test_enu_matrix_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        origin = GeodeticCoord(rng.uniform(-90, 90), rng.uniform(-180, 180), 0.0)
        m = enu_matrix(origin)
        assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_enu_inverse_is_transpose():
    origin = GeodeticCoord(-34.0, 139.0, 500.0)
    delta = np.array([123.4, -56.7, 89.0])
    m = enu_matrix(origin)
    assert np.allclose(m.T @ (m @ delta), delta, atol=1e-9)


def test_zero_attitude_points_north():
    att = AttitudeEuler(0.0, 0.0, 0.0)
    assert np.allclose(body_to_enu_matrix(att)[:, 0], [0.0, 1.0, 0.0], atol=1e-12)
    # north at the equator and prime meridian is ECEF +z
    assert np.allclose(body_to_ecef_direction(att, GeodeticCoord(0.0, 0.0)),
                       [0.0, 0.0, 1.0], atol=1e-12)


def test_pitch_down_yaw_190_direction():
    d = body_to_enu_matrix(AttitudeEuler(0.0, -30.0, 190.0))[:, 0]
    cb = math.cos(math.radians(-30.0))
    expected = np.array([cb * math.sin(math.radians(190.0)),
                         cb * math.cos(math.radians(190.0)),
                         math.sin(math.radians(-30.0))])
    assert np.allclose(d, expected, atol=1e-12)
    assert d[2] < 0.0
    heading = math.degrees(math.atan2(d[0], d[1])) % 360.0
    assert abs(heading - 190.0) < 1e-9


def test_body_direction_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(200):
        att = AttitudeEuler(*rng.uniform(-180, 180, 3))
        d = body_to_enu_matrix(att)[:, 0]
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12


def test_body_matrix_proper_rotation():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = body_to_enu_matrix(AttitudeEuler(*rng.uniform(-180, 180, 3)))
        assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_longitude_normalization_idempotent():
    for lon in (0.0, 179.5, 180.0, -180.0, 181.0, 359.0, -540.0, 123.456):
        once = normalize_longitude(lon)
        assert -180.0 < once <= 180.0
        assert normalize_longitude(once) == once
    assert normalize_longitude(180.0) == 180.0
    assert normalize_longitude(-180.0) == 180.0
    assert GeodeticCoord(0.0, 190.0).lon == pytest.approx(-170.0)


def test_in_range_longitude_survives():
    # 138.833 is the longitude of 9 of the 11 committed configs
    assert GeodeticCoord(0.0, 138.833).lon == 138.833
    assert normalize_longitude(138.833) == 138.833


@given(st.floats(-180.0, 180.0, exclude_min=True))
def test_in_range_longitude_kept_bit_for_bit(lon):
    assert np.float64(normalize_longitude(lon)).tobytes() == np.float64(lon).tobytes()
    assert normalize_longitude(np.array([lon])).tobytes() == np.float64(lon).tobytes()


@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.integers(-3, 3).map(lambda k: np.nextafter(180.0 + 360.0 * k, math.inf)))
def test_longitude_fold_range_idempotent_congruent(lon):
    folded = normalize_longitude(lon)
    assert -180.0 < folded <= 180.0
    assert normalize_longitude(folded) == folded
    assert normalize_longitude(np.array([lon, folded])).tolist() == [folded, folded]
    # folded - lon is a multiple of 360 up to the rounding of 180 - lon
    # (half an ulp of lon) and of the two steps after it
    r = (Fraction(folded) - Fraction(lon)) % 360
    assert min(r, 360 - r) <= math.ulp(lon) / 2 + 1e-13


def test_latitude_range_enforced():
    with pytest.raises(ValueError):
        GeodeticCoord(91.0, 0.0)
