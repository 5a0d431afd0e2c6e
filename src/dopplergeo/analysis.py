# analysis.py
# -------------------------------------------------------------
# Error budgets for the candidate-emitter curve: displacement between the
# curves implied by two different assumptions (reference-frequency offset,
# air refractive index), straight-ray vs refracted-ray ground offset for a
# layered atmosphere, and the relativistic correction to the cone angle.

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cone import DopplerMeasurement, VehicleState, build_cone, semi_angle
from .geodesy import SPEED_OF_LIGHT, WGS84, Ellipsoid
from .intersect import DEFAULT_SAMPLES, intersect_cone_ellipsoid

# points of curve A per block in point_to_polyline_distance: ~34 MiB of
# temporaries against a 1440-point curve B instead of ~190 MiB unblocked
POINT_BLOCK = 256


class Superluminal(ValueError):
    """Speed at or above the speed of light."""


class TotalInternalReflection(ValueError):
    """Snell refraction has no real transmitted angle at an interface."""


@dataclass(frozen=True)
class AtmosphereModel:
    """Refractive-index model: vacuum, one constant index, or flat layers.

    layers lists (top altitude m, index) in increasing altitude; space above
    the last top is vacuum. Indices must be >= 1.
    """

    kind: str = "vacuum"
    n: float = 1.0003
    layers: tuple = ()

    def __post_init__(self):
        if self.kind not in ("vacuum", "constant_index", "two_layer"):
            raise ValueError(f"unknown atmosphere kind {self.kind!r}")
        if self.n < 1.0:
            raise ValueError("refractive index must be >= 1")
        layers = tuple((float(top), float(n)) for top, n in self.layers)
        tops = [top for top, _ in layers]
        if any(n < 1.0 for _, n in layers):
            raise ValueError("layer indices must be >= 1")
        if any(b <= a for a, b in zip(tops, tops[1:])):
            raise ValueError("layer tops must be strictly increasing")
        object.__setattr__(self, "layers", layers)

    def index_at(self, altitude_m: float) -> float:
        if self.kind == "vacuum":
            return 1.0
        if self.kind == "constant_index":
            return self.n
        for top, n in self.layers:
            if altitude_m < top:
                return n
        return 1.0

    def effective_index(self, altitude_m: float | None = None) -> float:
        """Index used when shrinking the cone angle for in-air propagation.

        For a layered model this is the index at the receiver's altitude
        (unity when above every layer).
        """
        if self.kind == "vacuum":
            return 1.0
        if self.kind == "constant_index":
            return self.n
        return self.index_at(altitude_m) if altitude_m is not None else 1.0


@dataclass(frozen=True)
class CurveShift:
    """Point-to-curve distances from curve A to curve B, with extremes."""

    min_shift: float
    max_shift: float
    per_point: np.ndarray  # distance per A point, in A's order

    def __post_init__(self):
        if not 0.0 <= self.min_shift <= self.max_shift:
            raise ValueError("shift extremes out of order")


@dataclass(frozen=True)
class RelativisticFactor:
    """Speed ratio varsigma = v/c and Lorentz factor rho = 1/sqrt(1-varsigma^2).

    rho_minus_one is evaluated in a cancellation-free form so it stays
    accurate for the tiny ratios of orbital speeds.
    """

    varsigma: float
    rho: float = field(init=False)
    rho_minus_one: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.varsigma < 1.0:
            raise Superluminal(f"speed ratio {self.varsigma} not in [0, 1)")
        s2 = self.varsigma ** 2
        root = math.sqrt(1.0 - s2)
        object.__setattr__(self, "rho", 1.0 / root)
        object.__setattr__(self, "rho_minus_one", s2 / (root * (1.0 + root)))


def lorentz_factor(v: float) -> RelativisticFactor:
    """Lorentz factor for speed v in m/s. Raises Superluminal for v >= c."""
    if v >= SPEED_OF_LIGHT:
        raise Superluminal(f"speed {v} m/s is not below c")
    if v < 0.0:
        raise ValueError("speed must be nonnegative")
    return RelativisticFactor(varsigma=v / SPEED_OF_LIGHT)


def point_to_polyline_distance(points, polyline) -> np.ndarray:
    """Distance from each point to the nearest segment of a polyline.

    A single-vertex polyline degenerates to point distances. Points are
    taken POINT_BLOCK at a time, so the point-by-segment temporaries stay
    O(POINT_BLOCK x segments) however long the first curve is.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    line = np.atleast_2d(np.asarray(polyline, dtype=float))
    if len(line) == 1:
        return np.linalg.norm(p - line[0], axis=1)
    a = line[:-1]
    ab = line[1:] - a
    ab_len2 = np.einsum("ij,ij->i", ab, ab)
    ab_len2 = np.where(ab_len2 == 0.0, 1.0, ab_len2)
    d = np.empty(len(p))
    for start in range(0, len(p), POINT_BLOCK):
        block = p[start:start + POINT_BLOCK, None, :]
        # t[i, j]: projection of point i onto segment j, clamped to the segment
        t = np.clip(((block - a) * ab).sum(-1) / ab_len2, 0.0, 1.0)
        closest = a + t[:, :, None] * ab
        d[start:start + POINT_BLOCK] = np.linalg.norm(block - closest, axis=2).min(axis=1)
    return d


def curve_shift(curve_a, curve_b) -> CurveShift:
    """Displacement of polyline A relative to polyline B (ECEF chords).

    For each A point the distance to the nearest B segment is taken; the
    extremes over A are the reported range. Both inputs must be non-empty.
    """
    a = np.atleast_2d(np.asarray(curve_a, dtype=float))
    b = np.atleast_2d(np.asarray(curve_b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("curves must be non-empty")
    d = point_to_polyline_distance(a, b)
    return CurveShift(min_shift=float(d.min()), max_shift=float(d.max()),
                      per_point=d)


def frequency_offset_scenario(vs: VehicleState, f_true: float, f_nominal: float,
                              f_received: float, e: Ellipsoid = WGS84,
                              n_samples: int = DEFAULT_SAMPLES,
                              n: float = 1.0):
    """Curves implied by the true vs the nominal reference frequency.

    Returns (curve_true, curve_nominal, shift); shift is None when either
    curve is empty (a cone pointing away from the earth is reported through
    its topology, not raised).
    """
    cone_true = build_cone(vs, DopplerMeasurement(f_received, f_true), n=n, e=e)
    cone_nom = build_cone(vs, DopplerMeasurement(f_received, f_nominal), n=n, e=e)
    curve_true = intersect_cone_ellipsoid(cone_true, e, n_samples)
    curve_nom = intersect_cone_ellipsoid(cone_nom, e, n_samples)
    if len(curve_true) == 0 or len(curve_nom) == 0:
        return curve_true, curve_nom, None
    shift = curve_shift(curve_true.points_near, curve_nom.points_near)
    return curve_true, curve_nom, shift


def relativistic_semi_angle_delta(vs: VehicleState, m: DopplerMeasurement) -> float:
    """Semi-angle change (radians) after undoing receiver time dilation.

    The measured shift is divided by the Lorentz factor before the cone
    angle is recomputed; the result grows quadratically with speed.
    """
    rel = lorentz_factor(vs.speed)
    psi = semi_angle(m, vs.speed)
    shift = m.shift
    corrected = shift / rel.rho
    cos_corr = abs(corrected) * SPEED_OF_LIGHT / (m.f_reference * vs.speed)
    psi_corr = math.acos(min(cos_corr, 1.0))
    return psi_corr - psi


def snell_two_layer_displacement(incidence: float, atmosphere: AtmosphereModel,
                                 receiver_height: float) -> float:
    """Ground offset between the straight ray and the Snell-refracted ray.

    incidence is measured from the vertical at the receiver; the earth is
    treated as locally flat and each layer's index as constant. Raises
    TotalInternalReflection when an interface turns the ray back.
    """
    if not 0.0 <= incidence < math.pi / 2.0:
        raise ValueError("incidence must lie in [0, pi/2)")
    if receiver_height <= 0.0:
        raise ValueError("receiver must be above the ground")

    # interface altitudes crossed on the way down, top to bottom
    tops = [top for top, _ in atmosphere.layers if top < receiver_height]
    bounds = [receiver_height] + sorted(tops, reverse=True) + [0.0]
    n0 = atmosphere.index_at(receiver_height)
    segments = [(upper, lower, atmosphere.index_at(0.5 * (upper + lower)))
                for upper, lower in zip(bounds[:-1], bounds[1:])]
    if all(n == n0 for _, _, n in segments):
        return 0.0  # no interface bends the ray

    invariant = n0 * math.sin(incidence)
    x_refracted = 0.0
    for upper, lower, n_layer in segments:
        sin_theta = invariant / n_layer
        if sin_theta > 1.0:
            raise TotalInternalReflection(
                f"n sin(theta) = {invariant} exceeds layer index {n_layer}")
        x_refracted += (upper - lower) * sin_theta / math.sqrt(1.0 - sin_theta ** 2)
    x_straight = receiver_height * math.tan(incidence)
    return abs(x_straight - x_refracted)
