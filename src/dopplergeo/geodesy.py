# geodesy.py
# -------------------------------------------------------------
# WGS84 ellipsoid constants (the one earth model every conversion reads)
# and coordinate transformations:
# - geodetic <-> ECEF (closed form both ways; ECEF -> geodetic on arrays)
# - body frame (roll/pitch/yaw) -> local ENU -> ECEF
#
# Angles cross the public API in degrees; radians are internal.

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Ellipsoid:
    """Reference ellipsoid defined by semi-major axis and flattening.

    b and e2 are derived on construction; a > b > 0 is enforced.
    """

    a: float
    f: float
    b: float = field(init=False)
    e2: float = field(init=False)

    def __post_init__(self):
        b = self.a * (1.0 - self.f)
        e2 = self.f * (2.0 - self.f)
        if not (self.a > b > 0.0):
            raise ValueError(f"degenerate ellipsoid: a={self.a}, b={b}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "e2", e2)


WGS84 = Ellipsoid(a=6378137.0, f=1.0 / 298.257223563)

# Earth rotation rate about the ECEF z-axis [rad/s].
EARTH_ROTATION_RATE = 7.2921150e-5
EARTH_ROTATION_VECTOR = np.array([0.0, 0.0, EARTH_ROTATION_RATE])

SPEED_OF_LIGHT = 299792458.0  # m/s in vacuum


def normalize_longitude(lon_deg):
    """Fold longitude(s) into (-180, 180], the package's one longitude rule:
    in-range values come back bit for bit, the rest as 180 - (180 - lon) %
    360, or 180 where that rounds to -180 (an ulp past 180 + 360 k).
    Idempotent; a scalar gives a float, an array an array."""
    lon = np.asarray(lon_deg, dtype=float)
    lon = _antimeridian_east(np.where((lon > 180.0) | (lon <= -180.0),
                                      180.0 - (180.0 - lon) % 360.0, lon))
    return float(lon) if lon.ndim == 0 else lon


def _antimeridian_east(lon):
    """-180 as 180, the last step of normalize_longitude and on [-180, 180]
    the whole of it."""
    return np.where(lon == -180.0, 180.0, lon)


@dataclass(frozen=True)
class GeodeticCoord:
    """Latitude/longitude in degrees, height above the ellipsoid in meters."""

    lat: float
    lon: float
    h: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not math.isfinite(self.lon) or not math.isfinite(self.h):
            raise ValueError("longitude/height must be finite")
        object.__setattr__(self, "lon", normalize_longitude(self.lon))


@dataclass(frozen=True)
class AttitudeEuler:
    """Vehicle attitude in degrees: roll about forward, pitch up, yaw clockwise from north."""

    roll: float
    pitch: float
    yaw: float

    def __post_init__(self):
        for v in (self.roll, self.pitch, self.yaw):
            if not math.isfinite(v):
                raise ValueError("attitude angles must be finite")


def geodetic_to_ecef(g: GeodeticCoord) -> np.ndarray:
    """Geodetic coordinates -> ECEF position vector [m]."""
    return geodetic_to_ecef_arrays(g.lat, g.lon, g.h)


def geodetic_to_ecef_arrays(lat_deg, lon_deg, h) -> np.ndarray:
    """Vectorized geodetic -> ECEF; returns array with trailing axis (x, y, z)."""
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    h = np.asarray(h, dtype=float)
    return _ecef_from_trig(np.sin(lat), np.cos(lat), np.sin(lon), np.cos(lon), h)


def _ecef_from_trig(sin_lat, cos_lat, sin_lon, cos_lon, h) -> np.ndarray:
    """ECEF (x, y, z) on a trailing axis from the sines and cosines of
    latitude and longitude and the ellipsoid height; the arguments broadcast."""
    chi = np.sqrt(1.0 - WGS84.e2 * sin_lat * sin_lat)
    x = (WGS84.a / chi + h) * cos_lat * cos_lon
    y = (WGS84.a / chi + h) * cos_lat * sin_lon
    z = (WGS84.a * (1.0 - WGS84.e2) / chi + h) * sin_lat
    return np.stack([x, y, z], axis=-1)


def ecef_to_geodetic_arrays(p):
    """Vectorized ECEF -> (lat_deg, lon_deg, h), lon in (-180, 180].

    Bowring's closed form (Survey Review 23(181), 1976) plus one
    fixed-point correction of the parametric latitude mu, which holds the
    round-trip error below 1e-8 m for |h| < 500 km (the plain closed form
    tops out near 1.5e-6 m). The intermediate angles are carried as the
    numerator and denominator of their tangent, their sine and cosine found
    by one sqrt, so a point costs two arctan2 calls: its longitude and its
    latitude. A point on the polar axis converts, without a warning, to
    latitude +-90 and longitude 0.
    """
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    a, f, e2 = WGS84.a, WGS84.f, WGS84.e2
    lon = np.arctan2(y, x)
    rho = np.sqrt(x * x + y * y)
    r = np.sqrt(rho * rho + z * z)
    # tan mu = z ((1 - f) r + e2 a) / (r rho): rho = 0 gives mu = +-90 deg
    lat_y, lat_x = _bowring_latitude(z, rho, *_sin_cos(z * ((1.0 - f) * r + e2 * a), r * rho))
    # one corrector pass: tan mu = (1 - f) tan lat
    lat_y, lat_x = _bowring_latitude(z, rho, *_sin_cos((1.0 - f) * lat_y, lat_x))
    sin_lat, cos_lat = _sin_cos(lat_y, lat_x)
    h = rho * cos_lat + z * sin_lat - a * np.sqrt(1.0 - e2 * sin_lat * sin_lat)
    return np.degrees(np.arctan2(lat_y, lat_x)), _antimeridian_east(np.degrees(lon)), h


def _sin_cos(num, den):
    """sin and cos of arctan2(num, den), for (num, den) != (0, 0)."""
    norm = np.sqrt(num * num + den * den)
    return num / norm, den / norm


def _bowring_latitude(z, rho, sin_mu, cos_mu):
    """Numerator and denominator of tan lat, from Bowring's formula at the
    parametric latitude mu."""
    a, f, e2 = WGS84.a, WGS84.f, WGS84.e2
    return (z * (1.0 - f) + e2 * a * (sin_mu * sin_mu * sin_mu),
            (1.0 - f) * (rho - e2 * a * (cos_mu * cos_mu * cos_mu)))


def enu_matrix(origin: GeodeticCoord) -> np.ndarray:
    """Rotation taking ECEF deltas to local (east, north, up) at `origin`.

    Orthogonal with determinant +1; its transpose is the ENU -> ECEF map.
    """
    lat = math.radians(origin.lat)
    lon = math.radians(origin.lon)
    sp, cp = math.sin(lat), math.cos(lat)
    sl, cl = math.sin(lon), math.cos(lon)
    return np.array([
        [-sl, cl, 0.0],
        [-sp * cl, -sp * sl, cp],
        [cp * cl, cp * sl, sp],
    ])


def body_to_enu_matrix(att: AttitudeEuler) -> np.ndarray:
    """Rotation taking body-frame vectors to ENU.

    Zero attitude points the body x-axis north, y east, z down. Composition
    is the aerospace yaw -> pitch -> roll sequence; the result is
    orthonormal with determinant +1.
    """
    r = math.radians(att.roll)
    p = math.radians(att.pitch)
    y = math.radians(att.yaw)
    sr, cr = math.sin(r), math.cos(r)
    sp, cp = math.sin(p), math.cos(p)
    sy, cy = math.sin(y), math.cos(y)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ned_from_body = rz @ ry @ rx
    # NED -> ENU: swap north/east, flip down to up
    ned_to_enu = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    return ned_to_enu @ ned_from_body


def body_to_ecef_direction(att: AttitudeEuler, origin: GeodeticCoord) -> np.ndarray:
    """ECEF unit vector of the body x-axis (vehicle forward) at `origin`."""
    return enu_matrix(origin).T @ body_to_enu_matrix(att)[:, 0]
