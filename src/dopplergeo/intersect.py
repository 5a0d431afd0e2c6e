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

from .cone import DopplerCone
from .geodesy import WGS84, Ellipsoid

TOPOLOGY_EMPTY = "empty"
TOPOLOGY_TANGENT_POINT = "tangent_point"
TOPOLOGY_SINGLE_CLOSED = "single_closed_curve"
TOPOLOGY_TWO_CURVES = "two_curves"

# discriminants within this relative band of zero count as a graze
GRAZE_EPS = 1e-12

DEFAULT_SAMPLES = 720
MIN_SAMPLES = 16
# terrain mapping peaks near 1.5 kB per ray (traced: 106-111 MB at 72 000
# rays on 80^2 and 600^2 tiles), so this keeps a command near 150 MB
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class IntersectionCurve:
    """The sweep of `cone`: per-ray results plus the assembled curve and its
    topology label.

    topology (empty, tangent_point, single_closed_curve or two_curves) is
    read from the sampled sweep alone: its runs of hit rays, whether every
    ray hits and whether any far crossing exists. It therefore describes
    the exported curve; an arc narrower than the ray spacing holds no ray.

    etas, s_near, s_far and tangent are full-length, one entry per swept
    ray: s_near is the visible (first) crossing range, s_far the occluded
    exit range, NaN where that crossing does not exist; tangent marks a
    grazing double root. points_near holds the visible polyline in curve
    order (a run that wraps the sweep seam stays contiguous) with its
    etas_near and ranges_near; points_far the occluded exit points of the
    same rays, where they exist.
    """

    cone: DopplerCone
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


def _ray_directions(cone: DopplerCone, etas: np.ndarray) -> np.ndarray:
    """World-frame unit directions of the cone's surface rays at sweep
    angles etas, as (n, 3).

    In the cone frame (apex at the origin, axis +z) the ray at eta is
    (cos z cos eta, cos z sin eta, sin z) with elevation z = atan2(1, d) =
    pi/2 - semi_angle, so x^2/d^2 + y^2/d^2 = z^2; the zero-shift plane
    (d = inf) gives z = 0. cone.rotation maps it into the world frame.
    """
    zeta = math.atan2(1.0, cone.d)
    cz = math.cos(zeta)
    canonical = np.stack([cz * np.cos(etas), cz * np.sin(etas),
                          np.full_like(etas, math.sin(zeta))], axis=-1)
    return canonical @ cone.rotation.T


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


def ellipsoid_residual(points) -> np.ndarray:
    """|x^2/a^2 + y^2/a^2 + z^2/b^2 - 1| per point (relative residual, WGS84)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return np.abs(p[:, 0] ** 2 / WGS84.a ** 2 + p[:, 1] ** 2 / WGS84.a ** 2
                  + p[:, 2] ** 2 / WGS84.b ** 2 - 1.0)


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


def _classify(hit: np.ndarray, tangent: np.ndarray, far_exists: np.ndarray,
              runs: list[np.ndarray]) -> str:
    """With the apex outside the ellipsoid every hit ray also has a far
    root, so each run's near and far branches join at its two horizon folds
    into one loop; with every ray hit they wrap into two rings instead."""
    if not hit.any():
        return TOPOLOGY_EMPTY
    if all(len(run) == 1 and tangent[run[0]] for run in runs):
        return TOPOLOGY_TANGENT_POINT
    if hit.all():
        return TOPOLOGY_TWO_CURVES if far_exists.any() else TOPOLOGY_SINGLE_CLOSED
    return TOPOLOGY_SINGLE_CLOSED if len(runs) == 1 else TOPOLOGY_TWO_CURVES


def intersect_cone_ellipsoid(cone: DopplerCone, e: Ellipsoid = WGS84,
                             n_samples: int = DEFAULT_SAMPLES) -> IntersectionCurve:
    """Sweep n_samples uniformly spaced surface rays of the cone over
    [0, 2pi) and assemble the intersection curve.

    Every returned point lies on both surfaces to rounding accuracy; an
    empty topology is a valid result.
    """
    if not MIN_SAMPLES <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"n_samples must be in [{MIN_SAMPLES}, {MAX_SAMPLES}]")
    etas = np.arange(n_samples) * (2.0 * math.pi / n_samples)
    dirs = _ray_directions(cone, etas)
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

    topology = _classify(hit, tangent, far_exists, runs)
    return IntersectionCurve(
        cone=cone,
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
