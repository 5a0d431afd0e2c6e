# geodesy.py
# -------------------------------------------------------------
# WGS84 ellipsoid constants and coordinate transformations:
# - geodetic <-> ECEF (closed form both ways)
# - ECEF deltas <-> local ENU
# - body frame (roll/pitch/yaw) -> ENU
#
# Angles cross the public API in degrees; radians are internal.

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class AxisDegeneracy(ValueError):
    """ECEF point is on (or within 1 m of) the polar axis: longitude undefined."""


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
    """Fold longitude(s) into (-180, 180]. Idempotent; a scalar gives a float,
    an array an array."""
    lon = (np.asarray(lon_deg, dtype=float) + 180.0) % 360.0 - 180.0
    lon = np.where(lon == -180.0, 180.0, lon)
    return float(lon) if lon.ndim == 0 else lon


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


def geodetic_to_ecef(g: GeodeticCoord, e: Ellipsoid = WGS84) -> np.ndarray:
    """Geodetic coordinates -> ECEF position vector [m]."""
    return geodetic_to_ecef_arrays(g.lat, g.lon, g.h, e)


def geodetic_to_ecef_arrays(lat_deg, lon_deg, h, e: Ellipsoid = WGS84) -> np.ndarray:
    """Vectorized geodetic -> ECEF; returns array with trailing axis (x, y, z)."""
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    h = np.asarray(h, dtype=float)
    s, c = np.sin(lat), np.cos(lat)
    chi = np.sqrt(1.0 - e.e2 * s * s)
    x = (e.a / chi + h) * c * np.cos(lon)
    y = (e.a / chi + h) * c * np.sin(lon)
    z = (e.a * (1.0 - e.e2) / chi + h) * s
    return np.stack([x, y, z], axis=-1)


def ecef_to_geodetic(p, e: Ellipsoid = WGS84, lon_at_axis: float | None = None) -> GeodeticCoord:
    """ECEF position -> geodetic coordinates.

    Closed-form evaluation plus one fixed-point correction of the parametric
    latitude, which holds the round-trip error below 1e-8 m for |h| < 500 km
    (the plain closed form tops out near 1.5e-6 m).

    Raises AxisDegeneracy within 1 m of the polar axis unless `lon_at_axis`
    supplies the longitude to report there.
    """
    p = np.asarray(p, dtype=float)
    x, y, z = p
    rho = math.hypot(x, y)
    if rho < 1.0:
        if lon_at_axis is None:
            raise AxisDegeneracy(
                f"point within {rho:.3g} m of the polar axis; longitude undefined"
            )
        lat = math.copysign(90.0, z) if z != 0.0 else 0.0
        return GeodeticCoord(lat=lat, lon=lon_at_axis, h=abs(z) - e.b)
    lat_deg, lon_deg, h = ecef_to_geodetic_arrays(p, e)
    return GeodeticCoord(lat=float(lat_deg), lon=float(lon_deg), h=float(h))


def ecef_to_geodetic_arrays(p, e: Ellipsoid = WGS84):
    """Vectorized ECEF -> (lat_deg, lon_deg, h). No axis handling; see ecef_to_geodetic."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    a, f, e2 = e.a, e.f, e.e2
    lon = np.arctan2(y, x)
    rho = np.hypot(x, y)
    r = np.hypot(rho, z)
    mu = np.arctan((z / rho) * (1.0 - f) + e2 * a * z / (r * rho))
    lat = np.arctan2(z * (1.0 - f) + e2 * a * np.sin(mu) ** 3,
                     (1.0 - f) * (rho - e2 * a * np.cos(mu) ** 3))
    # one corrector pass on the parametric latitude
    mu = np.arctan2((1.0 - f) * np.sin(lat), np.cos(lat))
    lat = np.arctan2(z * (1.0 - f) + e2 * a * np.sin(mu) ** 3,
                     (1.0 - f) * (rho - e2 * a * np.cos(mu) ** 3))
    h = rho * np.cos(lat) + z * np.sin(lat) - a * np.sqrt(1.0 - e2 * np.sin(lat) ** 2)
    return np.degrees(lat), np.degrees(lon), h


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


def ecef_delta_to_enu(delta, origin: GeodeticCoord) -> np.ndarray:
    """ECEF displacement -> (de, dn, du) in meters at `origin`."""
    return enu_matrix(origin) @ np.asarray(delta, dtype=float)


def enu_to_ecef_delta(enu, origin: GeodeticCoord) -> np.ndarray:
    """Inverse of ecef_delta_to_enu (transpose of the ENU matrix)."""
    return enu_matrix(origin).T @ np.asarray(enu, dtype=float)


def body_to_enu_matrix(att: AttitudeEuler) -> np.ndarray:
    """Rotation taking body-frame vectors to ENU.

    Zero attitude points the body x-axis north, y east, z down. Composition
    is the aerospace yaw -> pitch -> roll sequence; the result is verified
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
    m = ned_to_enu @ ned_from_body
    if not np.allclose(m @ m.T, np.eye(3), atol=1e-9):
        raise ValueError("attitude rotation failed orthonormality check")
    return m


def body_to_enu_direction(att: AttitudeEuler) -> np.ndarray:
    """ENU unit vector of the body x-axis (vehicle forward)."""
    return body_to_enu_matrix(att)[:, 0]


def body_to_ecef_direction(att: AttitudeEuler, origin: GeodeticCoord) -> np.ndarray:
    """ECEF unit vector of the body x-axis for a vehicle at `origin`."""
    return enu_to_ecef_delta(body_to_enu_direction(att), origin)
