import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dopplergeo.cone import (
    DopplerMeasurement,
    VehicleState,
    build_cone,
    cone_from_geometry,
    cone_surface_residual,
    quad_form_scale,
)
from dopplergeo.geodesy import (
    SPEED_OF_LIGHT,
    WGS84,
    AttitudeEuler,
    GeodeticCoord,
    body_to_ecef_direction,
    geodetic_to_ecef_arrays,
)
from dopplergeo.intersect import (
    BREAK_FACTOR,
    _circular_runs,
    _has_break,
    _ray_directions,
    _solve_ray_quadratics,
    ellipsoid_residual,
    intersect_cone_ellipsoid,
)

A = WGS84.a

UAV = VehicleState.from_attitude(GeodeticCoord(-34.6462, 138.833, 2000.0), 50.0,
                                 AttitudeEuler(0.0, -30.0, 190.0))


def make_tangent_cone():
    """Cone from (2a, 0, 0) whose only equatorial-plane graze is its closest ray."""
    apex = np.array([2.0 * A, 0.0, 0.0])
    psi = math.radians(20.0)
    ang = math.radians(30.0) + psi
    axis = np.array([-math.cos(ang), math.sin(ang), 0.0])
    return cone_from_geometry(apex, axis, psi)


def canonical_cone(d):
    """Cone with apex at the origin and axis +z, whose rotation is the identity."""
    return cone_from_geometry(np.zeros(3), [0.0, 0.0, 1.0], math.atan(d))


def test_canonical_direction_d1():
    r = math.sqrt(2.0) / 2.0
    dirs = _ray_directions(canonical_cone(1.0), np.array([0.0, math.pi]))
    assert np.allclose(dirs, [[r, 0.0, r], [-r, 0.0, r]], atol=1e-12)


def test_canonical_direction_on_cone():
    rng = np.random.default_rng(21)
    for _ in range(200):
        d = rng.uniform(0.05, 20.0)
        eta = rng.uniform(0.0, 2.0 * math.pi)
        cone = canonical_cone(d)
        [(x, y, z)] = _ray_directions(cone, np.array([eta]))
        assert abs(x * x / cone.d ** 2 + y * y / cone.d ** 2 - z * z) < 1e-12


def test_transform_ray_identity():
    # the +z axis leaves the canonical rays (cos z cos eta, cos z sin eta, sin z)
    cone = canonical_cone(1.7)
    etas = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    zeta = math.pi / 2.0 - cone.semi_angle
    canonical = np.column_stack([math.cos(zeta) * np.cos(etas), math.cos(zeta) * np.sin(etas),
                                 np.full(12, math.sin(zeta))])
    assert np.allclose(_ray_directions(cone, etas), canonical, atol=1e-12)


def test_transform_ray_down_axis_center():
    # the rays of a cone pointing down average to cos(psi) times its axis
    cone = cone_from_geometry(np.zeros(3), [0.0, 0.0, -1.0], math.radians(35.0))
    dirs = _ray_directions(cone, np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    assert np.allclose(dirs.mean(axis=0), [0.0, 0.0, -math.cos(cone.semi_angle)], atol=1e-12)


def test_transform_ray_preserves_norm():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        cone = cone_from_geometry(np.zeros(3), axis, math.atan(rng.uniform(0.1, 5.0)))
        [d_t] = _ray_directions(cone, np.array([rng.uniform(0, 2 * math.pi)]))
        assert abs(np.linalg.norm(d_t) - 1.0) < 1e-12
        assert abs(d_t @ cone.axis - math.cos(cone.semi_angle)) < 1e-12


def _random_rays(n, seed):
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, np.newaxis]
    return rng.normal(0.0, 2.0 * A, (n, 3)), directions


NAN = math.nan


@pytest.mark.parametrize("origins, directions, expected, tol", [
    pytest.param([[2.0 * A, 0.0, 0.0]], [[-1.0, 0.0, 0.0]], [(A, 3.0 * A, False)], 1e-6,
                 id="chord"),
    pytest.param([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [(A, NAN, False)], 1e-6,
                 id="inside"),
    pytest.param([[2.0 * A, A, 0.0]], [[-1.0, 0.0, 0.0]], [(2.0 * A, 2.0 * A, True)],
                 2e-9 * A, id="graze"),
    pytest.param([[2.0 * A, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [(NAN, NAN, False)], 0.0,
                 id="miss"),
    pytest.param(*_random_rays(200, 31), None, None, id="root_count"),
])
def test_solve_ray_quadratics(origins, directions, expected, tol):
    for k, (origin, direction) in enumerate(zip(origins, directions)):
        s_near, s_far, tangent = _solve_ray_quadratics(
            np.asarray(origin, dtype=float), np.asarray([direction], dtype=float), WGS84)
        near, far, graze = float(s_near[0]), float(s_far[0]), bool(tangent[0])
        # 0, 1 or 2 nonnegative roots in order; a far root needs a near one
        assert math.isnan(near) or near >= 0.0
        assert not (math.isnan(near) and not math.isnan(far))
        assert not graze or not math.isnan(near)
        if not math.isnan(far) and not graze:
            assert near < far
        if expected is not None:
            want_near, want_far, want_graze = expected[k]
            assert near == pytest.approx(want_near, abs=tol, nan_ok=True)
            assert far == pytest.approx(want_far, abs=tol, nan_ok=True)
            assert graze == want_graze


def test_pole_cone_two_rings():
    apex = np.array([0.0, 0.0, WGS84.b + 700e3])
    cone = cone_from_geometry(apex, [0.0, 0.0, -1.0], math.radians(10.0))
    curve = intersect_cone_ellipsoid(cone)
    assert curve.topology == "two_curves"
    assert (curve.points_near[:, 2] > 0.0).all()
    assert (curve.points_far[:, 2] < 0.0).all()
    assert len(curve.points_near) == len(curve.etas)


def test_axis_away_empty():
    apex = np.array([0.0, 0.0, WGS84.b + 700e3])
    cone = cone_from_geometry(apex, [0.0, 0.0, 1.0], math.radians(45.0))
    curve = intersect_cone_ellipsoid(cone)
    assert curve.topology == "empty"
    assert len(curve) == 0


def test_constructed_tangency():
    curve = intersect_cone_ellipsoid(make_tangent_cone(), n_samples=64)
    assert curve.topology == "tangent_point"
    hit = np.flatnonzero(~np.isnan(curve.s_near))
    assert len(hit) == 1 and curve.tangent[hit[0]]
    assert curve.s_near[hit[0]] == pytest.approx(A * math.sqrt(3.0), rel=1e-6)


def test_grazing_cone_single_closed_curve():
    # upper rays clear the horizon, so near and far branches fold into one loop
    cone = cone_from_geometry(UAV.position_ecef(), UAV.velocity_dir, math.radians(30.0))
    curve = intersect_cone_ellipsoid(cone)
    assert curve.topology == "single_closed_curve"
    assert 0 < len(curve.points_near) < len(curve.etas)


def test_dual_residuals_and_half_cone():
    cone = cone_from_geometry(UAV.position_ecef(), UAV.velocity_dir, math.radians(26.56))
    curve = intersect_cone_ellipsoid(cone)
    for pts in (curve.points_near, curve.points_far):
        assert ellipsoid_residual(pts).max() < 1e-9
        assert cone_surface_residual(cone, pts).max() < 1e-9 * quad_form_scale(cone)
        assert (((pts - cone.apex) @ cone.axis) > 0.0).all()


def test_zero_shift_plane_slice():
    cone = build_cone(UAV, DopplerMeasurement(SPEED_OF_LIGHT, SPEED_OF_LIGHT))
    curve = intersect_cone_ellipsoid(cone)
    assert curve.topology == "single_closed_curve"
    assert ellipsoid_residual(curve.points_near).max() < 1e-9
    # every point lies in the plane normal to the axis
    offsets = (curve.points_near - cone.apex) @ cone.axis
    assert np.abs(offsets).max() < 1e-3


def test_refinement_convergence():
    cone = cone_from_geometry(np.array([0.0, 0.0, WGS84.b + 700e3]),
                              [0.0, 0.0, -1.0], math.radians(10.0))
    lengths = []
    for n in (360, 720):
        curve = intersect_cone_ellipsoid(cone, n_samples=n)
        p = curve.points_near
        # closed length: the last segment runs back to the first point
        lengths.append(np.linalg.norm(np.diff(p, axis=0, append=p[:1]), axis=1).sum())
    assert abs(lengths[1] - lengths[0]) / lengths[0] < 1e-3


def test_sweep_deterministic():
    cone = cone_from_geometry(UAV.position_ecef(), UAV.velocity_dir, math.radians(26.56))
    a = intersect_cone_ellipsoid(cone)
    b = intersect_cone_ellipsoid(cone)
    assert a.topology == b.topology
    assert np.array_equal(a.points_near, b.points_near)
    assert np.array_equal(a.points_far, b.points_far)


def test_minimum_sample_count_enforced():
    cone = make_tangent_cone()
    with pytest.raises(ValueError):
        intersect_cone_ellipsoid(cone, n_samples=8)


def _window_medians_loop(points, closed):
    """Per-segment oracle of _has_break's windows: every segment length and
    the median of its window, one np.median call per segment."""
    p = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
    if closed:
        seg = np.append(seg, np.linalg.norm(p[-1] - p[0]))
    n = len(seg)
    local = []
    for i in range(n):
        window = [seg[(i + k) % n] for k in range(-4, 5) if k != 0] if closed \
            else seg[max(0, i - 4):i + 5]
        local.append(float(np.median(window)))
    return seg, local


def _has_break_loop(points, closed):
    """Per-segment oracle for _has_break."""
    if len(points) < 12:
        return False
    seg, local = _window_medians_loop(points, closed)
    return any(m > 0.0 and s > BREAK_FACTOR * m for s, m in zip(seg, local))


AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@settings(max_examples=150, deadline=None)
@given(lat=st.floats(-89.0, 89.0), lon=st.floats(-180.0, 180.0),
       height=st.floats(100.0, 2.0e6), axis=AXES,
       psi_deg=st.floats(1.0, 89.0), n_samples=st.integers(16, 1500))
def test_has_break_matches_loop_on_cones(lat, lon, height, axis, psi_deg, n_samples):
    apex = geodetic_to_ecef_arrays(lat, lon, height)
    cone = cone_from_geometry(apex, np.asarray(axis) / np.linalg.norm(axis),
                              math.radians(psi_deg))
    points = intersect_cone_ellipsoid(cone, n_samples=n_samples).points_near
    for closed in (True, False):
        assert _has_break(points, closed) == _has_break_loop(points, closed)


@settings(max_examples=150, deadline=None)
@given(lat=st.floats(-89.0, 89.0), lon=st.floats(-180.0, 180.0),
       height=st.one_of(st.floats(100.0, 5000.0), st.floats(150e3, 800e3)), axis=AXES,
       psi_deg=st.floats(1.0, 89.0), grazing=st.booleans(), graze_psi_deg=st.floats(5.0, 30.0),
       skim_deg=st.floats(-0.02, 0.02), yaw=st.floats(0.0, 360.0),
       n_samples=st.integers(16, 1500))
def test_curve_points_lie_on_both_surfaces(lat, lon, height, axis, psi_deg, grazing,
                                           graze_psi_deg, skim_deg, yaw, n_samples):
    # UAV and LEO apexes with random axes, or, as in acceptance criterion 4,
    # near-grazing cones whose upper ray skims the horizon
    if grazing:
        dip = math.degrees(math.acos(WGS84.a / (WGS84.a + height)))
        psi_deg = graze_psi_deg
        axis = body_to_ecef_direction(AttitudeEuler(0.0, skim_deg - dip - psi_deg, yaw),
                                      GeodeticCoord(lat, lon, height))
    cone = cone_from_geometry(geodetic_to_ecef_arrays(lat, lon, height),
                              np.asarray(axis) / np.linalg.norm(axis), math.radians(psi_deg))
    curve = intersect_cone_ellipsoid(cone, n_samples=n_samples)
    for pts in (curve.points_near, curve.points_far):
        if len(pts):
            assert ellipsoid_residual(pts).max() < 1e-9
            assert cone_surface_residual(cone, pts).max() / quad_form_scale(cone) < 1e-9


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.integers(0, 12), max_size=60), closed=st.booleans())
def test_has_break_matches_loop_on_lattice_steps(steps, closed):
    # integer steps along a line give tied medians, zero-length segments and
    # jumps of exactly BREAK_FACTOR times the local spacing
    points = np.zeros((len(steps) + 1, 3))
    points[1:, 0] = np.cumsum(steps)
    assert _has_break(points, closed) == _has_break_loop(points, closed)


def _largest_break_ratio(curve) -> float | None:
    """Largest segment-to-local-median ratio that _classify's break rule
    sees on this curve, or None when the rule does not run (two or more
    runs, or fewer than 12 visible points)."""
    hit = ~np.isnan(curve.s_near)
    if len(curve) < 12 or len(_circular_runs(hit)) != 1:
        return None
    seg, local = _window_medians_loop(curve.points_near, closed=bool(hit.all()))
    return max((s / m for s, m in zip(seg, local) if m > 0.0), default=0.0)


def _sweep_shape(curve):
    """Number of visible runs, whether every ray hits, whether any far crossing exists."""
    hit = ~np.isnan(curve.s_near)
    return len(_circular_runs(hit)), bool(hit.all()), bool((~np.isnan(curve.s_far)).any())


@settings(max_examples=150, deadline=None)
@given(lat=st.floats(-89.0, 89.0), lon=st.floats(-180.0, 180.0),
       height=st.one_of(st.floats(100.0, 5000.0), st.floats(150e3, 800e3)), axis=AXES,
       psi_deg=st.floats(1.0, 89.0), grazing=st.booleans(), graze_psi_deg=st.floats(5.0, 30.0),
       skim_deg=st.floats(-0.02, 0.02), yaw=st.floats(0.0, 360.0),
       n_samples=st.integers(16, 750))
def test_topology_same_at_twice_the_samples(lat, lon, height, axis, psi_deg, grazing,
                                            graze_psi_deg, skim_deg, yaw, n_samples):
    # The 2n sweep holds every ray of the n sweep, bit for bit. Where both
    # sweeps see the same runs, all-hit status and far branch, the label
    # can move only through the break rule, and it must not while the
    # largest segment ratio stays clear of BREAK_FACTOR (below half or
    # above twice) at both sample counts. Ratios between those bounds do
    # flip the label (a grazing end segment shrinks with the spacing), and
    # so does a grazing ray that misses only at 2n: both are excluded.
    if grazing:
        dip = math.degrees(math.acos(WGS84.a / (WGS84.a + height)))
        psi_deg = graze_psi_deg
        axis = body_to_ecef_direction(AttitudeEuler(0.0, skim_deg - dip - psi_deg, yaw),
                                      GeodeticCoord(lat, lon, height))
    cone = cone_from_geometry(geodetic_to_ecef_arrays(lat, lon, height),
                              np.asarray(axis) / np.linalg.norm(axis), math.radians(psi_deg))
    coarse = intersect_cone_ellipsoid(cone, n_samples=n_samples)
    fine = intersect_cone_ellipsoid(cone, n_samples=2 * n_samples)
    assume(_sweep_shape(coarse) == _sweep_shape(fine))
    ratios = [_largest_break_ratio(coarse), _largest_break_ratio(fine)]
    if ratios != [None, None]:
        assume(None not in ratios)
        assume(all(r < 0.5 * BREAK_FACTOR or r > 2.0 * BREAK_FACTOR for r in ratios))
    assert coarse.topology == fine.topology
