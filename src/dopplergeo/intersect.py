# intersect.py
# -------------------------------------------------------------
# Cone/ellipsoid intersection by sweeping the cone's surface rays and
# solving each ray's quadratic against the ellipsoid. The sweep angle eta
# runs over [0, 2pi); every ray solve is independent (the whole sweep is
# vectorized), and curve assembly is a deterministic reduction in eta order.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import DopplerCone, rotation_from_axis
from .geodesy import WGS84, Ellipsoid

TOPOLOGY_EMPTY = "empty"
TOPOLOGY_TANGENT_POINT = "tangent_point"
TOPOLOGY_SINGLE_CLOSED = "single_closed_curve"
TOPOLOGY_TWO_CURVES = "two_curves"
TOPOLOGY_OPEN_ARC = "open_arc"

# discriminants within this relative band of zero count as a graze
GRAZE_EPS = 1e-12
# a visible segment this many times the local spacing flags a topology break
BREAK_FACTOR = 10.0

DEFAULT_SAMPLES = 720
MIN_SAMPLES = 16


@dataclass(frozen=True)
class IntersectionCurve:
    """Per-ray sweep results plus the assembled curve and its topology label.

    etas, s_near, s_far and tangent are full-length, one entry per swept
    ray: s_near is the visible (first) crossing range, s_far the occluded
    exit range, NaN where that crossing does not exist; tangent marks a
    grazing double root. points_near holds the visible polyline in curve
    order (a run that wraps the sweep seam stays contiguous) with its
    etas_near and ranges_near; points_far the occluded exit points of the
    same rays, where they exist.
    """

    topology: str
    etas: np.ndarray
    s_near: np.ndarray
    s_far: np.ndarray
    tangent: np.ndarray
    points_near: np.ndarray
    etas_near: np.ndarray
    ranges_near: np.ndarray
    points_far: np.ndarray

    def __len__(self):
        return len(self.points_near)


def ray_elevation(d: float) -> float:
    """Elevation zeta of the canonical cone's rays above its x-y plane.

    tan(zeta) = 1/d, so zeta = pi/2 - semi_angle; the zero-shift plane
    (d = inf) gives zeta = 0.
    """
    if d <= 0.0:
        raise ValueError("cone parameter d must be positive")
    return math.atan2(1.0, d)


def canonical_ray_direction(d: float, eta) -> np.ndarray:
    """Unit direction(s) of the canonical cone's surface ray at sweep angle eta.

    The canonical cone has apex at the origin and axis +z; the returned
    vector (cos z cos e, cos z sin e, sin z) satisfies x^2/d^2 + y^2/d^2 = z^2.
    """
    zeta = ray_elevation(d)
    eta = np.asarray(eta, dtype=float)
    cz = math.cos(zeta)
    return np.stack([cz * np.cos(eta), cz * np.sin(eta),
                     np.full_like(eta, math.sin(zeta))], axis=-1)


def transform_ray(d_r, rotation) -> np.ndarray:
    """Map canonical-frame ray direction(s) into the world frame."""
    d_r = np.asarray(d_r, dtype=float)
    return d_r @ np.asarray(rotation, dtype=float).T


def _solve_ray_quadratics(origin, dirs, e: Ellipsoid):
    """Vectorized stable quadratic solve for rays origin + s*dirs vs ellipsoid.

    Returns (s_near, s_far, tangent): NaN where no nonnegative crossing
    exists; s_far is NaN when only one crossing is ahead of the origin.
    """
    q1 = 1.0 / e.a ** 2
    q3 = 1.0 / e.b ** 2
    rx, ry, rz = origin
    dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    a_s = q1 * dx ** 2 + q1 * dy ** 2 + q3 * dz ** 2
    b_s = 2.0 * (q1 * rx * dx + q1 * ry * dy + q3 * rz * dz)
    c_s = q1 * rx ** 2 + q1 * ry ** 2 + q3 * rz ** 2 - 1.0
    disc = b_s ** 2 - 4.0 * a_s * c_s
    scale = np.maximum(b_s ** 2, np.abs(4.0 * a_s * c_s))
    graze = np.abs(disc) <= GRAZE_EPS * scale
    disc = np.where(graze, 0.0, disc)
    has_roots = disc >= 0.0

    sqrt_disc = np.sqrt(np.where(has_roots, disc, 0.0))
    # q/a and c/q ordering avoids cancellation when |b| >> sqrt(|4ac|)
    q = -0.5 * (b_s + np.where(b_s >= 0.0, sqrt_disc, -sqrt_disc))
    # divide only where roots exist: on a miss q can be tiny and c/q overflow
    solvable = has_roots & (q != 0.0)
    r1 = np.divide(q, a_s, out=np.zeros_like(q), where=solvable)
    r2 = np.divide(c_s, q, out=np.zeros_like(q), where=solvable)
    lo = np.minimum(r1, r2)
    hi = np.maximum(r1, r2)

    s_near = np.where(lo >= 0.0, lo, hi)
    s_far = np.where(lo >= 0.0, hi, np.nan)
    miss = ~has_roots | (hi < 0.0)
    s_near = np.where(miss, np.nan, s_near)
    s_far = np.where(miss, np.nan, s_far)
    tangent = graze & ~miss
    return s_near, s_far, tangent


def ellipsoid_residual(points, e: Ellipsoid = WGS84) -> np.ndarray:
    """|x^2/a^2 + y^2/a^2 + z^2/b^2 - 1| per point (relative residual)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return np.abs(p[:, 0] ** 2 / e.a ** 2 + p[:, 1] ** 2 / e.a ** 2
                  + p[:, 2] ** 2 / e.b ** 2 - 1.0)


def polyline_length(points, closed: bool = False) -> float:
    """Total length of a polyline given as an (n, 3) array."""
    p = np.asarray(points, dtype=float)
    if len(p) < 2:
        return 0.0
    length = float(np.linalg.norm(np.diff(p, axis=0), axis=1).sum())
    if closed:
        length += float(np.linalg.norm(p[-1] - p[0]))
    return length


def _circular_runs(mask: np.ndarray) -> list[np.ndarray]:
    """Contiguous index runs of True values, merging across the wraparound."""
    n = len(mask)
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return []
    if len(idx) == n:
        return [idx]
    splits = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, splits + 1)
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
        runs = [np.concatenate([runs[-1], runs[0]])] + runs[1:-1]
    return runs


def _window_medians(windows: np.ndarray) -> np.ndarray:
    """Median of each row's finite entries; NaN marks padding past an end."""
    w = np.sort(windows, axis=1)
    valid = np.count_nonzero(~np.isnan(windows), axis=1)
    rows = np.arange(len(w))
    return (w[rows, (valid - 1) // 2] + w[rows, valid // 2]) / 2.0


def _has_break(points: np.ndarray, closed: bool) -> bool:
    """True when one visible segment dwarfs its neighborhood's spacing.

    A closed curve compares each segment with the median of its 8 circular
    neighbours (itself excluded); an open one with the median of the
    9-wide window centred on it (itself included), clipped at the ends.
    """
    p = np.asarray(points, dtype=float)
    if len(p) < 12:
        return False
    seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
    if closed:
        seg = np.append(seg, np.linalg.norm(p[-1] - p[0]))
        n = len(seg)
        offsets = np.array([-4, -3, -2, -1, 1, 2, 3, 4])
        windows = seg[(np.arange(n)[:, np.newaxis] + offsets) % n]
    else:
        padded = np.concatenate([np.full(4, np.nan), seg, np.full(4, np.nan)])
        windows = np.lib.stride_tricks.sliding_window_view(padded, 9)
    local = _window_medians(windows)
    return bool(np.any((local > 0.0) & (seg > BREAK_FACTOR * local)))


def _classify(hit: np.ndarray, tangent: np.ndarray, far_exists: np.ndarray,
              points_near: np.ndarray, runs: list[np.ndarray]) -> str:
    if not hit.any():
        return TOPOLOGY_EMPTY
    if all(len(run) == 1 and tangent[run[0]] for run in runs):
        return TOPOLOGY_TANGENT_POINT
    if hit.all():
        # near and far branches each wrap into their own ring
        label = TOPOLOGY_SINGLE_CLOSED if not far_exists.any() else TOPOLOGY_TWO_CURVES
        if _has_break(points_near, closed=True):
            return TOPOLOGY_OPEN_ARC
        return label
    if len(runs) == 1:
        run = runs[0]
        ends_fold = (far_exists[run[0]] or tangent[run[0]]) and \
                    (far_exists[run[-1]] or tangent[run[-1]])
        if ends_fold and not _has_break(points_near, closed=False):
            # near and far branches join at the grazing folds: one loop
            return TOPOLOGY_SINGLE_CLOSED
        return TOPOLOGY_OPEN_ARC
    return TOPOLOGY_TWO_CURVES


def intersect_cone_ellipsoid(cone: DopplerCone, e: Ellipsoid = WGS84,
                             n_samples: int = DEFAULT_SAMPLES) -> IntersectionCurve:
    """Sweep n_samples uniformly spaced surface rays of the cone over
    [0, 2pi) and assemble the intersection curve.

    Every returned point lies on both surfaces to rounding accuracy; an
    empty topology is a valid result.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
    etas = np.arange(n_samples) * (2.0 * math.pi / n_samples)
    rotation = rotation_from_axis(cone.axis)
    dirs = transform_ray(canonical_ray_direction(cone.d, etas), rotation)
    s_near, s_far, tangent = _solve_ray_quadratics(cone.apex, dirs, e)

    hit = ~np.isnan(s_near)
    far_exists = ~np.isnan(s_far)
    # order visible points along the curve: a run that wraps the sweep seam
    # stays contiguous instead of splitting at eta = 0
    runs = _circular_runs(hit)
    near_idx = np.concatenate(runs) if runs else np.zeros(0, dtype=int)
    far_idx = near_idx[far_exists[near_idx]]
    pts_near = cone.apex + s_near[near_idx, np.newaxis] * dirs[near_idx]
    pts_far = cone.apex + s_far[far_idx, np.newaxis] * dirs[far_idx]

    topology = _classify(hit, tangent, far_exists, pts_near, runs)
    return IntersectionCurve(
        topology=topology,
        etas=etas,
        s_near=s_near,
        s_far=s_far,
        tangent=tangent,
        points_near=pts_near,
        etas_near=etas[near_idx],
        ranges_near=s_near[near_idx],
        points_far=pts_far,
    )
