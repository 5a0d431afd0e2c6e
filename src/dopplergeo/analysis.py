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
from .geodesy import SPEED_OF_LIGHT
from .intersect import DEFAULT_SAMPLES, intersect_cone_ellipsoid

# points of curve A per block in point_to_polyline_distance: the block's
# point-by-segment matrices are POINT_BLOCK x segments (2.8 MiB of float64
# against a 1440-point curve B), so memory grows with n_b, not n_a x n_b
POINT_BLOCK = 256


class Superluminal(ValueError):
    """Speed at or above the speed of light."""


class TotalInternalReflection(ValueError):
    """Snell refraction has no real transmitted angle at an interface."""


@dataclass(frozen=True)
class AtmosphereModel:
    """Refractive-index model: vacuum, one constant index, or flat layers.

    layers lists (top altitude m, index) with finite tops in increasing
    altitude; space above the last top is vacuum. Indices must be finite
    and >= 1.
    """

    kind: str = "vacuum"
    n: float = 1.0003
    layers: tuple = ()

    def __post_init__(self):
        if self.kind not in ("vacuum", "constant_index", "two_layer"):
            raise ValueError(f"unknown atmosphere kind {self.kind!r}")
        if not (math.isfinite(self.n) and self.n >= 1.0):
            raise ValueError(f"refractive index must be finite and >= 1, got {self.n}")
        layers = tuple((float(top), float(n)) for top, n in self.layers)
        tops = [top for top, _ in layers]
        if not all(math.isfinite(n) and n >= 1.0 for _, n in layers):
            raise ValueError("layer indices must be finite and >= 1")
        if not all(map(math.isfinite, tops)) or any(b <= a for a, b in zip(tops, tops[1:])):
            raise ValueError("layer tops must be finite and strictly increasing")
        object.__setattr__(self, "layers", layers)

    def index_at(self, altitude_m: float) -> float:
        """Refractive index at an altitude; unity in vacuum and above every layer."""
        if self.kind == "vacuum":
            return 1.0
        if self.kind == "constant_index":
            return self.n
        for top, n in self.layers:
            if altitude_m < top:
                return n
        return 1.0


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

    A single-vertex polyline degenerates to point distances. The search is
    exact but pruned. Each segment gets a bounding sphere (its midpoint and
    half-length); a point is measured only against the segments whose sphere
    comes within U + delta of it, U being the distance to the nearest
    midpoint, which bounds the answer from above. Those pairs go through the
    one clamp-and-norm formula, so the result equals, bit for bit, the
    minimum over every segment. Points are taken POINT_BLOCK at a time:
    memory is O(POINT_BLOCK x segments) however long the first curve is,
    and time is still O(points x segments), with the all-pairs part a single
    matrix product per block.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    line = np.atleast_2d(np.asarray(polyline, dtype=float))
    if len(line) == 1:
        return np.linalg.norm(p - line[0], axis=1)
    a = line[:-1]
    ab = line[1:] - a
    seg_len2 = np.einsum("ij,ij->i", ab, ab)
    ab_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
    # spheres in a frame centred on the polyline, so that the expanded
    # square below rounds relative to the curves' extent, not to ECEF
    centre = 0.5 * (line.min(axis=0) + line.max(axis=0))
    mid = (a - centre) + 0.5 * ab
    mid2 = np.einsum("ij,ij->i", mid, mid)
    q = p - centre
    q2 = np.einsum("ij,ij->i", q, q)
    # [q, 1, |q|^2] . [-2m, |m|^2, 1] = |q - m|^2, the expanded square
    q_aug = np.column_stack([q, np.ones(len(q)), q2])
    mid_aug = np.column_stack([-2.0 * mid, mid2, np.ones(len(mid))])
    # Slack delta (m) on the pruning test, with u = 2**-53:
    # - the expanded square is a 5-term dot product of rounded squares, off
    #   by at most ~8u (|q| + |m|)^2, so its root is off by at most
    #   sqrt(8u) R = 3.0e-8 R, with R = max |q| + max |m| (centring and
    #   midpoint rounding add a few u R); the test compares two such roots
    #   (the kept sphere and the nearest one): 6.0e-8 R, bounded by 1e-7 R.
    # - the clamp-and-norm formula runs on ECEF coordinates of size X
    #   (about 6.4e6 m) and is off by at most ~30u X, counted for two
    #   segments: 6.7e-15 X, bounded by 1e-13 X (6.4e-7 m).
    # A fixed slack in m or m^2 would not do: R reaches hundreds of km
    # between LEO curves, and the first bound grows with it.
    delta = (1e-7 * (np.sqrt(q2.max(initial=0.0)) + np.sqrt(mid2.max()))
             + 1e-13 * (np.abs(p).max(initial=0.0) + np.abs(line).max()))
    reach = 0.5 * np.sqrt(seg_len2) + delta
    d = np.empty(len(p))
    buffer = np.empty((min(POINT_BLOCK, len(p)), len(mid)))  # reused by every block
    for start in range(0, len(p), POINT_BLOCK):
        stop = min(start + POINT_BLOCK, len(p))
        # dist[i, j] = |q_i - m_j|
        dist = np.matmul(q_aug[start:stop], mid_aug.T, out=buffer[:stop - start])
        np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
        upper = dist.min(axis=1)
        dist -= reach
        # a segment whose sphere lies beyond U + delta cannot be the
        # nearest; NaN keeps every pair, so NaN input gives NaN, as the
        # minimum over every segment does
        row, col = np.divmod(np.flatnonzero(~(dist > upper[:, None])), len(mid))
        row += start
        pts, seg_a, seg_ab = p[row], a[col], ab[col]
        # t: projection of each point onto its segment, clamped to the segment
        t = np.clip(((pts - seg_a) * seg_ab).sum(-1) / ab_len2[col], 0.0, 1.0)
        closest = seg_a + t[:, None] * seg_ab
        pair_d = np.linalg.norm(pts - closest, axis=1)
        # row is sorted and holds every point of the block at least once
        # (its nearest sphere is always kept)
        d[start:stop] = np.minimum.reduceat(pair_d, np.searchsorted(row, np.arange(start, stop)))
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
                              f_received: float, n_samples: int = DEFAULT_SAMPLES,
                              n: float = 1.0):
    """Curves implied by the true vs the nominal reference frequency.

    Returns (curve_true, curve_nominal, shift); shift is None when either
    curve is empty (a cone pointing away from the earth is reported through
    its topology, not raised).
    """
    cone_true = build_cone(vs, DopplerMeasurement(f_received, f_true), n=n)
    cone_nom = build_cone(vs, DopplerMeasurement(f_received, f_nominal), n=n)
    curve_true = intersect_cone_ellipsoid(cone_true, n_samples=n_samples)
    curve_nom = intersect_cone_ellipsoid(cone_nom, n_samples=n_samples)
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
