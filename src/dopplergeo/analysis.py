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

from .cone import DopplerMeasurement, VehicleState, build_cone, semi_angle, semi_angle_from_shift
from .geodesy import SPEED_OF_LIGHT
from .intersect import DEFAULT_SAMPLES, intersect_cone_ellipsoid

# points of curve A per block in point_to_polyline_distance: a block's
# arrays are POINT_BLOCK x groups plus its kept pairs, so memory does not
# grow with n_a (traced peak of a 1440 x 1440 search: 1.2 MiB, against
# 2.8 MiB in one block)
POINT_BLOCK = 256
# consecutive segments per group sphere of that search: 8 and 32 took 1.19x
# and 1.08x as long on the 38 curve pairs of the budget benchmark
SEGMENT_GROUP = 16


class Superluminal(ValueError):
    """Speed at or above the speed of light."""


class TotalInternalReflection(ValueError):
    """Snell refraction has no real transmitted angle at an interface."""


@dataclass(frozen=True)
class AtmosphereModel:
    """Refractive-index model: flat layers under a constant index.

    layers lists (top altitude m, index) with finite tops in increasing
    altitude; n is the index above the last top (at every altitude when
    there are no layers), vacuum by default. Indices must be finite and
    >= 1.
    """

    layers: tuple = ()
    n: float = 1.0

    def __post_init__(self):
        layers = tuple((float(top), float(n)) for top, n in self.layers)
        tops = [top for top, _ in layers]
        for index in [n for _, n in layers] + [self.n]:
            if not (math.isfinite(index) and index >= 1.0):
                raise ValueError(f"refractive index must be finite and >= 1, got {index}")
        if not all(map(math.isfinite, tops)) or any(b <= a for a, b in zip(tops, tops[1:])):
            raise ValueError("layer tops must be finite and strictly increasing")
        object.__setattr__(self, "layers", layers)

    def index_at(self, altitude_m: float) -> float:
        """Index of the first layer whose top lies above the altitude, else n."""
        for top, n in self.layers:
            if altitude_m < top:
                return n
        return self.n


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
    """Lorentz factor for speed v in m/s. Raises Superluminal unless 0 <= v < c."""
    return RelativisticFactor(varsigma=v / SPEED_OF_LIGHT)


def point_to_polyline_distance(points, polyline) -> np.ndarray:
    """Distance from each point to the nearest segment of a polyline.

    A single-vertex polyline degenerates to point distances. The search is
    exact but pruned in two levels. The segments are cut into groups of
    SEGMENT_GROUP consecutive ones, and each group gets a sphere: centre c
    at the middle of its vertices' bounding box, radius R to the farthest
    vertex, and e, the distance to the nearest one. U = min over groups of
    |q - c| + e bounds a point's answer from above, since that vertex lies
    on a segment of its group. A group whose sphere lies beyond U + delta is
    dropped; the segments of the kept groups are tested in turn against
    their own spheres (midpoint, half-length), and the survivors go through
    the one clamp-and-norm formula, so the result equals, bit for bit, the
    minimum over every segment. No step forms a points x segments array or
    calls BLAS, and points are taken POINT_BLOCK at a time.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    line = np.atleast_2d(np.asarray(polyline, dtype=float))
    if len(line) == 1:
        return np.linalg.norm(p - line[0], axis=1)
    n_seg = len(line) - 1
    n_group = -(-n_seg // SEGMENT_GROUP)
    # vertices of each group, the last group padded with the final vertex
    ends = np.minimum(np.arange(n_group)[:, None] * SEGMENT_GROUP
                      + np.arange(SEGMENT_GROUP + 1), n_seg)
    lx, ly, lz = line.T
    vx, vy, vz = lx[ends], ly[ends], lz[ends]
    cx = 0.5 * (vx.min(axis=1) + vx.max(axis=1))
    cy = 0.5 * (vy.min(axis=1) + vy.max(axis=1))
    cz = 0.5 * (vz.min(axis=1) + vz.max(axis=1))
    to_vert = np.sqrt((vx - cx[:, None]) ** 2 + (vy - cy[:, None]) ** 2
                      + (vz - cz[:, None]) ** 2)
    radius, nearest = to_vert.max(axis=1), to_vert.min(axis=1)
    # segments as x/y/z columns, padded to whole groups by repeating the last
    # segment: a repeat only adds an equal pair to its point's minimum
    seg = np.minimum(ends[:, :-1].ravel(), n_seg - 1)
    ab = line[1:] - line[:-1]
    seg_len2 = np.einsum("ij,ij->i", ab, ab)
    ab_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)[seg]
    ax, ay, az = lx[seg], ly[seg], lz[seg]
    abx, aby, abz = ab[seg].T.copy()
    mx = (ax + 0.5 * abx).reshape(n_group, SEGMENT_GROUP)
    my = (ay + 0.5 * aby).reshape(n_group, SEGMENT_GROUP)
    mz = (az + 0.5 * abz).reshape(n_group, SEGMENT_GROUP)
    # Slack delta (m) on both pruning tests, with u = 2**-53 and X the
    # largest coordinate of the points plus that of the polyline (about
    # 1.3e7 m between ECEF curves). The pair that gives the minimum passes
    # both tests when delta covers:
    # - the clamp-and-norm error, ~30u X per pair, counted for that pair and
    #   for a pair ending at the vertex behind U: 6.7e-15 X;
    # - the sphere distances |q - c| and |q - m|: the stored centres and
    #   midpoints are rounded to u X, and the difference, squares, sum and
    #   root add 3u of a distance below sqrt(3) X; R, e and the half-length
    #   are formed the same way, and U and each test add a rounding of
    #   their own: about 10u sqrt(3) X = 1.9e-15 X;
    # 8.6e-15 X in all, bounded by 1e-13 X (1.3e-6 m between ECEF curves).
    # A slack relative to the distances alone would not do: centres and
    # midpoints carry the rounding of the coordinates, however near q is.
    delta = 1e-13 * (np.abs(p).max(initial=0.0) + np.abs(line).max())
    reach = (0.5 * np.sqrt(seg_len2) + delta)[seg].reshape(n_group, SEGMENT_GROUP)
    radius += delta
    px, py, pz = p.T
    d = np.empty(len(p))
    for start in range(0, len(p), POINT_BLOCK):
        stop = min(start + POINT_BLOCK, len(p))
        qx, qy, qz = px[start:stop], py[start:stop], pz[start:stop]
        # dist[i, g] = |q_i - c_g|, per point and group
        dist = np.sqrt((qx[:, None] - cx) ** 2 + (qy[:, None] - cy) ** 2 + (qz[:, None] - cz) ** 2)
        upper = (dist + nearest).min(axis=1)
        dist -= radius
        # a group whose sphere lies beyond U + delta cannot hold the nearest
        # point; NaN keeps every pair, so NaN input gives NaN, as the
        # minimum over every segment does
        row, group = np.divmod(np.flatnonzero(~(dist > upper[:, None])), n_group)
        # then the same test on the segments of each kept group
        gx, gy, gz = qx[row, None], qy[row, None], qz[row, None]
        dist = (gx - mx[group]) ** 2
        dist += (gy - my[group]) ** 2
        dist += (gz - mz[group]) ** 2
        np.sqrt(dist, out=dist)
        dist -= reach[group]
        pair, j = np.divmod(np.flatnonzero(~(dist > upper[row, None])), SEGMENT_GROUP)
        col = group[pair] * SEGMENT_GROUP + j
        row = row[pair]
        # the clamp-and-norm formula, summed left to right as .sum(-1) and
        # norm(axis=-1) sum a row of three
        gx, gy, gz = qx[row], qy[row], qz[row]
        sx, sy, sz, ux, uy, uz = ax[col], ay[col], az[col], abx[col], aby[col], abz[col]
        # t: projection of each point onto its segment, clamped to the segment
        t = np.clip(((gx - sx) * ux + (gy - sy) * uy + (gz - sz) * uz) / ab_len2[col], 0.0, 1.0)
        ex, ey, ez = gx - (sx + t * ux), gy - (sy + t * uy), gz - (sz + t * uz)
        pair_d = np.sqrt(ex * ex + ey * ey + ez * ez)
        # row is sorted and holds every point of the block at least once:
        # the nearest segment always passes both tests
        d[start:stop] = np.minimum.reduceat(pair_d, np.searchsorted(row, np.arange(stop - start)))
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
                              f_received: float, n_samples: int = DEFAULT_SAMPLES):
    """Curves implied by the true vs the nominal reference frequency.

    Returns (curve_true, curve_nominal, shift); shift is None when either
    curve is empty (a cone pointing away from the earth is reported through
    its topology, not raised).
    """
    cone_true = build_cone(vs, DopplerMeasurement(f_received, f_true))
    cone_nom = build_cone(vs, DopplerMeasurement(f_received, f_nominal))
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
    psi_corr = semi_angle_from_shift(m.shift / rel.rho, m.f_reference, vs.speed)
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
    if not (math.isfinite(receiver_height) and receiver_height > 0.0):
        raise ValueError(f"receiver_height must be finite and positive, got {receiver_height}")

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
