import math

import numpy as np
import pytest

from dopplergeo.cone import (
    KIND_CONE,
    KIND_PLANE,
    DopplerCone,
    DopplerMeasurement,
    InfeasibleShift,
    VehicleState,
    ZeroShift,
    axis_direction,
    build_cone,
    cone_from_geometry,
    cone_surface_residual,
    doppler_frequency,
    quad_form_scale,
    rotation_from_axis,
    semi_angle,
)
from dopplergeo.geodesy import SPEED_OF_LIGHT, AttitudeEuler, GeodeticCoord
from dopplergeo.intersect import canonical_ray_direction, transform_ray

C = SPEED_OF_LIGHT

UAV = VehicleState.from_attitude(GeodeticCoord(-34.6462, 138.833, 2000.0), 50.0,
                                 AttitudeEuler(0.0, -30.0, 190.0))


def measurement(shift_hz, f0=C):
    return DopplerMeasurement(f0 + shift_hz, f0)


def test_semi_angle_30_degrees():
    psi = semi_angle(measurement(43.3), 50.0)
    assert math.degrees(psi) == pytest.approx(30.00, abs=0.05)


def test_semi_angle_87_degrees():
    psi = semi_angle(measurement(2.615), 50.0)
    assert math.degrees(psi) == pytest.approx(87.00, abs=0.05)


def test_semi_angle_exact_closing_speed():
    m = measurement(C * 50.0 / C)
    assert semi_angle(measurement(50.0 * C / C), 50.0) == pytest.approx(0.0, abs=1e-9)
    assert m.shift == 50.0


def test_semi_angle_infeasible():
    with pytest.raises(InfeasibleShift):
        semi_angle(measurement(60.0), 50.0)


def test_semi_angle_zero_shift():
    with pytest.raises(ZeroShift):
        semi_angle(measurement(0.0), 50.0)


def test_semi_angle_scale_invariance():
    # power-of-two factors scale shift and reference exactly in binary floats
    rng = np.random.default_rng(8)
    for _ in range(100):
        shift = rng.uniform(0.1, 45.0)
        factor = 2.0 ** int(rng.integers(-3, 7))
        a = semi_angle(measurement(shift), 50.0)
        b = semi_angle(DopplerMeasurement(C * factor + shift * factor, C * factor), 50.0)
        assert abs(a - b) < 1e-12


def test_axis_direction_follows_shift_sign():
    v = np.array([1.0, 0.0, 0.0])
    assert np.allclose(axis_direction(v, 10.0), [1.0, 0.0, 0.0])
    assert np.allclose(axis_direction(v, -10.0), [-1.0, 0.0, 0.0])
    assert np.allclose(axis_direction(np.array([0.6, 0.8, 0.0]), -1.0), [-0.6, -0.8, 0.0])


def test_axis_direction_antisymmetric():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        delta = rng.uniform(0.1, 100.0)
        assert np.allclose(axis_direction(v, delta), -axis_direction(v, -delta))


def test_axis_direction_zero_shift():
    with pytest.raises(ZeroShift):
        axis_direction(np.array([1.0, 0.0, 0.0]), 0.0)


def test_rotation_identity_for_z_axis():
    assert np.allclose(rotation_from_axis([0.0, 0.0, 1.0]), np.eye(3), atol=1e-15)


def test_rotation_x_axis_columns():
    r = rotation_from_axis([1.0, 0.0, 0.0])
    assert np.allclose(r[:, 0], [0.0, 0.0, -1.0])
    assert np.allclose(r[:, 1], [0.0, 1.0, 0.0])
    assert np.allclose(r[:, 2], [1.0, 0.0, 0.0])


def test_rotation_down_axis():
    r = rotation_from_axis([0.0, 0.0, -1.0])
    assert np.allclose(r[:, 2], [0.0, 0.0, -1.0])
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_rotation_random_axes():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = rotation_from_axis(axis)
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        assert np.abs(r @ np.array([0.0, 0.0, 1.0]) - axis).max() < 1e-12


def test_build_cone_apex_axis_angle():
    cone = build_cone(UAV, measurement(43.3))
    assert math.degrees(cone.semi_angle) == pytest.approx(30.00, abs=0.05)
    assert np.allclose(cone.apex, UAV.position_ecef())
    assert np.allclose(cone.axis, UAV.velocity_dir)  # positive shift
    down = build_cone(UAV, measurement(-43.3))
    assert np.allclose(down.axis, -UAV.velocity_dir)


def test_build_cone_refractive_index_shrinks_angle():
    cone = build_cone(UAV, measurement(43.3), n=1.0003)
    assert math.degrees(cone.semi_angle) == pytest.approx(29.973, abs=0.005)
    widened = build_cone(UAV, measurement(43.3), n=1.0003, n_scales_cos=False)
    assert widened.semi_angle > cone.semi_angle


def test_trivial_quad_form():
    cone = cone_from_geometry([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], math.radians(45.0))
    assert np.allclose(cone.quad_form, np.diag([1.0, 1.0, -1.0]), atol=1e-12)
    assert cone.d == pytest.approx(1.0)


def test_cone_surface_rays_satisfy_quad_form():
    cone = cone_from_geometry(UAV.position_ecef(), UAV.velocity_dir, math.radians(26.56))
    etas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    dirs = transform_ray(canonical_ray_direction(cone.d, etas), rotation_from_axis(cone.axis))
    points = cone.apex + np.linspace(10.0, 5e6, 64)[:, None] * dirs
    res = cone_surface_residual(cone, points)
    assert res.max() < 1e-9 * quad_form_scale(cone)


def test_zero_shift_builds_plane_kind():
    cone = build_cone(UAV, measurement(0.0))
    assert cone.kind == KIND_PLANE
    assert cone.semi_angle == pytest.approx(math.pi / 2.0)
    assert math.isinf(cone.d)
    # plane form vanishes exactly on the plane through the apex
    offset = np.cross(cone.axis, [0.0, 0.0, 1.0])
    offset /= np.linalg.norm(offset)
    p = cone.apex + 1e5 * offset
    assert cone_surface_residual(cone, p)[0] < 1e-12
    # the kind follows from the angle alone
    direct = DopplerCone(apex=cone.apex, axis=cone.axis, semi_angle=math.pi / 2.0)
    assert direct.kind == KIND_PLANE == "plane"
    assert np.array_equal(direct.quad_form, -np.outer(direct.axis, direct.axis))
    assert quad_form_scale(direct) == 1.0
    for psi in (math.pi / 2.0 - 1e-13, math.pi / 2.0 + 1e-13):
        snapped = cone_from_geometry(cone.apex, cone.axis, psi)
        assert snapped.kind == KIND_PLANE and snapped.semi_angle == math.pi / 2.0
    near = cone_from_geometry(cone.apex, cone.axis, math.pi / 2.0 - 1e-9)
    assert near.kind == KIND_CONE and math.isfinite(near.d)


def test_semi_angle_outside_range_rejected():
    apex, axis = UAV.position_ecef(), UAV.velocity_dir
    # zero: the locus is the velocity line, not a cone
    with pytest.raises(InfeasibleShift):
        DopplerCone(apex=apex, axis=axis, semi_angle=0.0)
    with pytest.raises(InfeasibleShift):
        build_cone(UAV, measurement(50.0))  # closing speed equal to the speed
    for psi in (-0.1, math.pi / 2.0 + 1e-9, math.nan):
        with pytest.raises(ValueError, match="outside"):
            DopplerCone(apex=apex, axis=axis, semi_angle=psi)


def test_semi_angle_too_small_for_quad_form_rejected():
    apex, axis = UAV.position_ecef(), UAV.velocity_dir
    # below ~7.5e-155 rad d ** -2 overflows: zero to float precision
    for psi in (1e-160, 5e-324):
        with pytest.raises(InfeasibleShift, match="zero semi-angle"):
            DopplerCone(apex=apex, axis=axis, semi_angle=psi)
    thin = DopplerCone(apex=apex, axis=axis, semi_angle=1e-150)
    assert thin.kind == KIND_CONE
    assert np.all(np.isfinite(thin.quad_form))
    assert math.isfinite(quad_form_scale(thin)) and quad_form_scale(thin) > 1e299


def test_doppler_frequency_radial_approach():
    # wavelength c/f0 = 1 m: 50 m/s closing -> +50 Hz
    sep = np.array([-1e6, 0.0, 0.0])
    f = doppler_frequency(np.array([50.0, 0.0, 0.0]), sep, C)
    assert f - C == pytest.approx(50.0, abs=1e-6)


def test_doppler_frequency_transverse_motion():
    sep = np.array([-1e6, 0.0, 0.0])
    f = doppler_frequency(np.array([0.0, 50.0, 0.0]), sep, C)
    assert f == C


def test_coriolis_term_is_doppler_neutral():
    rng = np.random.default_rng(77)
    from dopplergeo.geodesy import geodetic_to_ecef_arrays

    n = 2000
    em = geodetic_to_ecef_arrays(rng.uniform(-90, 90, n), rng.uniform(-180, 180, n),
                                 rng.uniform(0, 3000, n))
    rx = geodetic_to_ecef_arrays(rng.uniform(-90, 90, n), rng.uniform(-180, 180, n),
                                 rng.uniform(100, 600e3, n))
    vel = rng.normal(0.0, 3000.0, (n, 3))
    worst = 0.0
    for i in range(n):
        sep = em[i] - rx[i]
        f_with = doppler_frequency(-vel[i], sep, 3e8, with_rotation=True)
        f_without = doppler_frequency(-vel[i], sep, 3e8, with_rotation=False)
        worst = max(worst, abs(f_with - f_without))
    assert worst < 1e-9


def test_vehicle_state_validation():
    pos = GeodeticCoord(0.0, 0.0, 1000.0)
    with pytest.raises(ValueError):
        VehicleState(position=pos, speed=50.0, velocity_dir=np.array([1.0, 1.0, 0.0]))
    vs = VehicleState.from_velocity(pos, [30.0, 40.0, 0.0])
    assert vs.speed == pytest.approx(50.0)
    assert np.allclose(vs.velocity_dir, [0.6, 0.8, 0.0])
    with pytest.raises(ValueError):
        VehicleState.from_velocity(pos, [0.0, 0.0, 0.0])


def test_cone_rejects_bad_axis():
    with pytest.raises(ValueError):
        DopplerCone(apex=np.zeros(3), axis=np.array([1.0, 1.0, 0.0]),
                    semi_angle=math.radians(30.0))
