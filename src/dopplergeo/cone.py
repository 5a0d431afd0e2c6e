# cone.py
# -------------------------------------------------------------
# From one Doppler measurement plus the receiver's navigation state to the
# cone of candidate emitter directions: semi-angle from the fractional
# shift, axis sign from the shift sign, quadratic form for the surface.

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geodesy import (
    EARTH_ROTATION_VECTOR,
    SPEED_OF_LIGHT,
    AttitudeEuler,
    GeodeticCoord,
    body_to_ecef_direction,
    geodetic_to_ecef,
)

FEASIBILITY_SLACK = 1e-12

KIND_CONE = "cone"
KIND_PLANE = "plane"  # zero-shift locus: plane through the apex normal to velocity


class InfeasibleShift(ValueError):
    """Measured shift implies a closing speed above the wave speed; no cone exists."""


def _unit_vector(v, name: str) -> np.ndarray:
    """v as a float array divided by its norm, which must lie within 1e-9
    of 1; a NaN or infinite norm fails too."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if not abs(n - 1.0) <= 1e-9:
        raise ValueError(f"{name} norm {n} is not 1")
    return v / n


@dataclass(frozen=True)
class DopplerMeasurement:
    """Received and reference carrier frequencies in Hz."""

    f_received: float
    f_reference: float

    def __post_init__(self):
        for f in (self.f_received, self.f_reference):
            if not (math.isfinite(f) and f > 0.0):
                raise ValueError(f"frequencies must be finite and positive, got {f}")

    @property
    def shift(self) -> float:
        """Doppler shift f_received - f_reference; positive when approaching."""
        return self.f_received - self.f_reference


@dataclass(frozen=True)
class VehicleState:
    """Receiver position, speed and velocity direction (unit vector, ECEF)."""

    position: GeodeticCoord
    speed: float
    velocity_dir: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.speed) and self.speed > 0.0):
            raise ValueError(f"speed must be finite and positive, got {self.speed}")
        object.__setattr__(self, "velocity_dir", _unit_vector(self.velocity_dir, "velocity_dir"))

    @classmethod
    def from_attitude(cls, position: GeodeticCoord, speed: float,
                      attitude: AttitudeEuler) -> "VehicleState":
        """Velocity direction from the body x-axis via the attitude rotation."""
        return cls(position=position, speed=speed,
                   velocity_dir=body_to_ecef_direction(attitude, position))

    @classmethod
    def from_velocity(cls, position: GeodeticCoord, velocity_ecef) -> "VehicleState":
        """Velocity supplied directly in ECEF, e.g. from GPS."""
        v = np.asarray(velocity_ecef, dtype=float)
        speed = float(np.linalg.norm(v))
        if not (math.isfinite(speed) and speed > 0.0):
            raise ValueError(f"velocity must be finite and nonzero, got norm {speed}")
        return cls(position=position, speed=speed, velocity_dir=v / speed)

    def position_ecef(self) -> np.ndarray:
        return geodetic_to_ecef(self.position)


@dataclass(frozen=True)
class DopplerCone:
    """Half-cone of constant Doppler shift.

    apex and axis are ECEF; semi_angle is in radians, in (0, pi/2], with
    d = tan(semi_angle). Surface points p satisfy
    (p - apex)^T quad_form (p - apex) = 0 together with (p - apex) . axis >= 0.
    A zero shift gives semi_angle pi/2: d is infinite, quad_form is
    -axis axis^T and kind is "plane" (the plane through the apex normal to
    the velocity). A zero semi-angle raises InfeasibleShift: its locus is
    the velocity line, not a cone. So does one small enough (below about
    7.5e-155 rad) that d ** -2 overflows, so every accepted cone has a
    finite quad_form and quad_form_scale. rotation is
    rotation_from_axis(axis), the frame of the sweep and the terrain search.
    """

    apex: np.ndarray
    axis: np.ndarray
    semi_angle: float
    d: float = field(init=False)
    quad_form: np.ndarray = field(init=False)
    rotation: np.ndarray = field(init=False)

    def __post_init__(self):
        apex = np.asarray(self.apex, dtype=float)
        axis = _unit_vector(self.axis, "cone axis")
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "axis", axis)
        if not 0.0 <= self.semi_angle <= math.pi / 2.0:
            raise ValueError(f"semi-angle {self.semi_angle} outside (0, pi/2]")
        d = math.inf if self.semi_angle == math.pi / 2.0 else math.tan(self.semi_angle)
        try:
            inv_d2 = d ** -2
        except (ZeroDivisionError, OverflowError):
            # psi = 0, or psi below ~7.5e-155 rad, where 1/d^2 overflows
            raise InfeasibleShift(
                f"zero semi-angle ({self.semi_angle!r} rad to float precision): "
                "the locus is the velocity line, not a cone") from None
        r = rotation_from_axis(axis)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "quad_form", r @ np.diag([inv_d2, inv_d2, -1.0]) @ r.T)
        object.__setattr__(self, "rotation", r)

    @property
    def kind(self) -> str:
        """KIND_PLANE for the zero-shift plane (infinite d), else KIND_CONE."""
        return KIND_PLANE if math.isinf(self.d) else KIND_CONE


def semi_angle(m: DopplerMeasurement, speed: float,
               c_eff: float = SPEED_OF_LIGHT) -> float:
    """Cone semi-angle in radians from the fractional Doppler shift.

    cos(psi) = (|shift| / f_reference) / (speed / c_eff). The shift sign is
    handled by axis_direction, not here. A zero shift gives acos(0), which
    is exactly pi/2: the plane normal to the velocity.
    """
    return semi_angle_from_shift(m.shift, m.f_reference, speed, c_eff)


def semi_angle_from_shift(shift: float, f_reference: float, speed: float,
                          c_eff: float = SPEED_OF_LIGHT) -> float:
    """semi_angle's cosine rule on a bare shift in Hz, such as a corrected
    one that is no measurement's f_received - f_reference."""
    if speed <= 0.0:
        raise ValueError("speed must be positive")
    cos_psi = abs(shift) * c_eff / (f_reference * speed)
    if cos_psi > 1.0 + FEASIBILITY_SLACK:
        raise InfeasibleShift(
            f"|shift|*c/(f0*speed) = {cos_psi:.9f} > 1: shift implies superluminal closing speed"
        )
    return math.acos(min(cos_psi, 1.0))


def axis_direction(velocity_dir, delta: float) -> np.ndarray:
    """Cone axis: opposite the velocity for a negative shift, else along it
    (for a zero shift, the normal of the plane)."""
    v = np.asarray(velocity_dir, dtype=float)
    return -v if delta < 0.0 else v.copy()


def rotation_from_axis(axis) -> np.ndarray:
    """Rotation matrix whose third column is `axis` (a unit vector).

    Orthogonal with determinant +1. When the axis is (numerically) aligned
    with +/-z the free spin angle about the axis is fixed to zero so the
    result is deterministic.
    """
    a, b, g = np.asarray(axis, dtype=float)
    s2 = a * a + b * b
    if s2 < 1e-24:
        c = math.sqrt(max(1.0 - g * g, 0.0))
        return np.array([
            [g, 0.0, c],
            [0.0, 1.0, 0.0],
            [-c, 0.0, g],
        ])
    s = math.sqrt(s2)
    return np.array([
        [a * g / s, -b / s, a],
        [b * g / s, a / s, b],
        [-s, 0.0, g],
    ])


def build_cone(vs: VehicleState, m: DopplerMeasurement, n: float = 1.0) -> DopplerCone:
    """Assemble the Doppler cone for a vehicle state and measurement.

    `n` is the air refractive index. It multiplies the semi-angle cosine,
    shrinking the angle, which is the convention the reference example
    values follow. A zero shift gives the plane (semi-angle pi/2).
    """
    return DopplerCone(apex=vs.position_ecef(), axis=axis_direction(vs.velocity_dir, m.shift),
                       semi_angle=semi_angle(m, vs.speed, SPEED_OF_LIGHT * n))


def cone_from_geometry(apex, axis, semi_angle_rad: float) -> DopplerCone:
    """Cone from explicit apex/axis/semi-angle, bypassing any measurement.

    A semi-angle within 1e-12 of pi/2 is taken as pi/2, the plane.
    """
    if abs(semi_angle_rad - math.pi / 2.0) <= 1e-12:
        semi_angle_rad = math.pi / 2.0
    return DopplerCone(apex=apex, axis=axis, semi_angle=semi_angle_rad)


def doppler_frequency(p_dot, sep, f0: float, with_rotation: bool = False) -> float:
    """Received frequency for relative coordinate velocity p_dot of emitter
    minus receiver, separation vector sep = p - r, and carrier f0.

    with_rotation adds the frame-rotation term omega x sep (omega the
    earth's rotation vector, EARTH_ROTATION_VECTOR) to the relative
    velocity before projecting onto the line of sight. That term is
    perpendicular to sep, so it changes the result only by rounding noise;
    both settings are provided so the cancellation is directly testable.
    """
    sep = np.asarray(sep, dtype=float)
    norm = np.linalg.norm(sep)
    if norm == 0.0:
        raise ValueError("separation must be nonzero")
    vel = np.asarray(p_dot, dtype=float)
    if with_rotation:
        vel = vel + np.cross(EARTH_ROTATION_VECTOR, sep)
    return f0 * (1.0 - float(vel @ sep) / (SPEED_OF_LIGHT * norm))


def cone_surface_residual(cone: DopplerCone, points) -> np.ndarray:
    """Normalized quadratic-form residual |(p-r)^T M (p-r)| / |p-r|^2.

    Zero (to rounding) for points on the cone surface. Compare against a
    tolerance scaled by the largest eigenvalue magnitude of M.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float)) - cone.apex
    quad = np.einsum("ij,jk,ik->i", pts, cone.quad_form, pts)
    return np.abs(quad) / np.einsum("ij,ij->i", pts, pts)


def quad_form_scale(cone: DopplerCone) -> float:
    """Largest eigenvalue magnitude of the cone quadratic form."""
    return max(cone.d ** -2, 1.0)
