"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with -s to see them)."""

import math
import time

import numpy as np
import pytest

from dopplergeo.analysis import (
    AtmosphereModel,
    curve_shift,
    lorentz_factor,
    point_to_polyline_distance,
    relativistic_semi_angle_delta,
    snell_two_layer_displacement,
)
from dopplergeo.cone import (
    DopplerMeasurement,
    VehicleState,
    cone_from_geometry,
    cone_surface_residual,
    doppler_frequency,
    quad_form_scale,
    semi_angle,
)
from dopplergeo.dted import ChecksumMismatch, read_dted, write_dted
from dopplergeo.geodesy import (
    SPEED_OF_LIGHT,
    WGS84,
    AttitudeEuler,
    GeodeticCoord,
    ecef_to_geodetic_arrays,
    geodetic_to_ecef,
    geodetic_to_ecef_arrays,
)
from dopplergeo.intersect import ellipsoid_residual, intersect_cone_ellipsoid
from dopplergeo.terrain import TerrainSearchConfig, cone_terrain_curve

from terrain_oracles import covering_grid, make_random_tile, march_first_crossing

C = SPEED_OF_LIGHT


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def steep_vehicle(h=1500.0):
    return VehicleState.from_attitude(GeodeticCoord(-34.6462, 138.833, h), 50.0,
                                      AttitudeEuler(0.0, -70.0, 190.0))


def test_criterion_1_geodesy_round_trip():
    rng = np.random.default_rng(1001)
    n = 10000
    lat = rng.uniform(-90.0, 90.0, n)
    lon = rng.uniform(-180.0, 180.0, n)
    h = rng.uniform(-100.0, 500e3, n)
    start = time.monotonic()
    p = geodetic_to_ecef_arrays(lat, lon, h)
    lat2, lon2, h2 = ecef_to_geodetic_arrays(p)
    p2 = geodetic_to_ecef_arrays(lat2, lon2, h2)
    elapsed = time.monotonic() - start
    worst = np.linalg.norm(p2 - p, axis=-1).max()

    anchor = geodetic_to_ecef(GeodeticCoord(0.0, 0.0, 0.0))
    pole = geodetic_to_ecef(GeodeticCoord(90.0, 0.0, 0.0))
    anchors_ok = (np.abs(anchor - [6378137.0, 0.0, 0.0]).max() < 1e-6
                  and abs(pole[2] - 6356752.314245) < 1e-6)
    report(1, worst < 1e-6 and anchors_ok and elapsed < 1.0,
           f"(max error {worst:.2e} m, {elapsed:.2f} s)")


GOLDEN_ANGLES = [
    # (shift_hz, f0, speed, n, expected_deg, tol_deg)
    (43.3, C, 50.0, 1.0, 30.00, 0.05),
    (49.93, C, 50.0, 1.0, 3.03, 0.05),
    (2.615, C, 50.0, 1.0, 87.00, 0.05),
    (43.3, C, 50.0, 1.0003, 29.973, 0.01),
    (49.93, C, 50.0, 1.0003, 2.688, 0.01),
    (2.615, C, 50.0, 1.0003, 86.993, 0.01),
    (299792501.33 - 299792458.0, 299792458.0, 50.0, 1.0, 29.934, 0.05),
    (299792470.615 - 299792458.0, 299792458.0, 50.0, 1.0, 75.386, 0.05),
    (299792501.33 - 299792468.0, 299792468.0, 50.0, 1.0, 48.19, 0.1),
    (299798033.4329 - 299792518.0, 299792518.0, 7800.0, 1.0, 45.00, 0.05),
    (299798033.4329 - 299792578.0, 299792578.0, 7800.0, 1.0, 45.62, 0.05),
]


def test_criterion_2_semi_angle_golden_values():
    worst = 0.0
    for shift, f0, speed, n, expected, tol in GOLDEN_ANGLES:
        m = DopplerMeasurement(f0 + shift, f0)
        psi = math.degrees(semi_angle(m, speed, c_eff=C * n))
        err = abs(psi - expected)
        worst = max(worst, err / tol)
        assert err < tol, f"shift {shift}: {psi:.4f} vs {expected} +/- {tol}"
    report(2, True, f"({len(GOLDEN_ANGLES)} golden angles, worst at "
                    f"{worst:.2f}x tolerance)")


def test_criterion_3_coriolis_cancellation():
    rng = np.random.default_rng(1003)
    n = 10000
    em = geodetic_to_ecef_arrays(rng.uniform(-90, 90, n), rng.uniform(-180, 180, n),
                                 rng.uniform(0.0, 3000.0, n))
    rx = geodetic_to_ecef_arrays(rng.uniform(-90, 90, n), rng.uniform(-180, 180, n),
                                 rng.uniform(100.0, 600e3, n))
    vel = rng.normal(0.0, 3000.0, (n, 3))
    worst = 0.0
    for i in range(n):
        sep = em[i] - rx[i]
        f_with = doppler_frequency(-vel[i], sep, 3e8, with_rotation=True)
        f_without = doppler_frequency(-vel[i], sep, 3e8, with_rotation=False)
        worst = max(worst, abs(f_with - f_without))
    report(3, worst < 1e-9, f"(max |delta f| {worst:.2e} Hz over {n} cases)")


def test_criterion_4_dual_quadric_residuals():
    rng = np.random.default_rng(1004)
    non_empty = 0
    worst_e = 0.0
    worst_c = 0.0
    for i in range(50):
        lat = rng.uniform(-70.0, 70.0)
        lon = rng.uniform(-180.0, 180.0)
        h = rng.uniform(500.0, 5000.0) if i % 2 else rng.uniform(150e3, 800e3)
        pos = GeodeticCoord(lat, lon, h)
        dip = math.degrees(math.acos(WGS84.a / (WGS84.a + h)))
        if i % 5 == 0:
            # near-tangent: upper ray skims the horizon
            psi_deg = rng.uniform(5.0, 30.0)
            pitch = -(dip + psi_deg) + rng.uniform(-0.02, 0.02)
        else:
            psi_deg = rng.uniform(1.0, 88.0)
            pitch = rng.uniform(-85.0, -5.0)
        vs = VehicleState.from_attitude(pos, 50.0,
                                        AttitudeEuler(0.0, pitch, rng.uniform(0, 360)))
        cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir,
                                  math.radians(psi_deg))
        curve = intersect_cone_ellipsoid(cone, n_samples=720)
        if len(curve) == 0:
            continue
        non_empty += 1
        for pts in (curve.points_near, curve.points_far):
            if len(pts) == 0:
                continue
            worst_e = max(worst_e, ellipsoid_residual(pts).max())
            worst_c = max(worst_c, cone_surface_residual(cone, pts).max()
                          / quad_form_scale(cone))
    ok = non_empty >= 30 and worst_e < 1e-9 and worst_c < 1e-9
    report(4, ok, f"({non_empty}/50 scenarios intersect, worst residuals "
                  f"{worst_e:.2e} / {worst_c:.2e})")


def test_criterion_5_topology_suite():
    apex = np.array([0.0, 0.0, WGS84.b + 700e3])
    down = cone_from_geometry(apex, [0.0, 0.0, -1.0], math.radians(10.0))
    rings_a = intersect_cone_ellipsoid(down)
    rings_b = intersect_cone_ellipsoid(down)
    two_rings_ok = (rings_a.topology == "two_curves"
                    and (rings_a.points_near[:, 2] > 0.0).all()
                    and (rings_a.points_far[:, 2] < 0.0).all())
    deterministic = (np.array_equal(rings_a.points_near, rings_b.points_near)
                     and np.array_equal(rings_a.points_far, rings_b.points_far))

    away = cone_from_geometry(apex, [0.0, 0.0, 1.0], math.radians(45.0))
    empty_ok = intersect_cone_ellipsoid(away).topology == "empty"

    # cone whose closest ray grazes the equator: an isolated double root
    tangent_apex = np.array([2.0 * WGS84.a, 0.0, 0.0])
    ang = math.radians(30.0 + 20.0)
    taxis = np.array([-math.cos(ang), math.sin(ang), 0.0])
    tangent = cone_from_geometry(tangent_apex, taxis, math.radians(20.0))
    tcurve = intersect_cone_ellipsoid(tangent, n_samples=64)
    tangent_ok = (tcurve.topology == "tangent_point"
                  and int(tcurve.tangent.sum()) == 1)

    report(5, two_rings_ok and empty_ok and tangent_ok and deterministic,
           f"(two_curves {two_rings_ok}, empty {empty_ok}, tangent {tangent_ok}, "
           f"deterministic {deterministic})")


def test_criterion_6_terrain_flat_earth_equivalence():
    vs = steep_vehicle()
    cone = cone_from_geometry(vs.position_ecef(), vs.velocity_dir, math.radians(15.0))
    curve = intersect_cone_ellipsoid(cone, n_samples=360)

    flat = covering_grid(curve, height=0.0)
    cfg = TerrainSearchConfig.for_grid(flat)
    tc = cone_terrain_curve(curve, flat, cfg)
    assert len(tc.points) == len(curve.points_near)
    terrain_pts = geodetic_to_ecef_arrays(*tc.points.T)
    flat_dist = point_to_polyline_distance(terrain_pts, curve.points_near).max()

    plateau = covering_grid(curve, height=500.0)
    cfg500 = TerrainSearchConfig.for_grid(plateau)
    tc500 = cone_terrain_curve(curve, plateau, cfg500)
    assert len(tc500.points) == len(curve.points_near)
    nearer = bool((tc500.s < np.linalg.norm(curve.points_near - cone.apex, axis=1)).all())
    within_tr = bool((tc500.ray_distance <= cfg500.tr).all())
    terrain500 = geodetic_to_ecef_arrays(*tc500.points.T)

    spacing = plateau.max_post_spacing_m()
    oracle_worst = 0.0
    for hit, p_i in zip(terrain500[::4], curve.points_near[::4]):
        oracle = march_first_crossing(cone.apex, p_i, plateau)
        assert oracle is not None
        oracle_worst = max(oracle_worst, float(np.linalg.norm(hit - oracle)))

    ok = flat_dist < 90.0 and nearer and within_tr and oracle_worst <= spacing
    report(6, ok, f"(flat max {flat_dist:.1f} m, plateau strict-nearer {nearer}, "
                  f"oracle gap {oracle_worst:.1f} m <= {spacing:.1f} m)")


def test_criterion_7_dted_round_trip():
    rng = np.random.default_rng(1007)
    start = time.monotonic()
    for _ in range(100):
        level = int(rng.integers(0, 3))
        grid = make_random_tile(rng, level)
        back = read_dted(write_dted(grid))
        assert np.array_equal(back.H, grid.H, equal_nan=True)
        assert (back.lat0, back.lon0, back.dlat, back.dlon) == \
               (grid.lat0, grid.lon0, grid.dlat, grid.dlon)
    elapsed = time.monotonic() - start

    grid = make_random_tile(rng, 1)
    data = bytearray(write_dted(grid))
    rec = 8 + 2 * grid.n_lat + 4
    data[80 + 648 + 2700 + 3 * rec + 10] ^= 0xFF
    try:
        read_dted(bytes(data))
        corrupted_ok = False
    except ChecksumMismatch as exc:
        corrupted_ok = exc.record == 3
    report(7, elapsed < 5.0 and corrupted_ok,
           f"(100 tiles in {elapsed:.2f} s, checksum names record {corrupted_ok})")


def test_criterion_8_relativistic():
    rel = lorentz_factor(7800.0)
    rho_ok = abs(rel.rho_minus_one - 3.385e-10) < 1e-13

    leos = VehicleState.from_attitude(GeodeticCoord(0.0, 0.0, 200e3), 7800.0,
                                      AttitudeEuler(0.0, 0.0, 0.0))
    m = DopplerMeasurement(299798033.4329, 299792518.0)
    dpsi = abs(relativistic_semi_angle_delta(leos, m))
    # the published angle (1.94e-7 deg) misstates its own exponent: the
    # ground-shift figure quoted beside it (0.0001352 m on a flat earth at
    # 200 km) pins the angle at 3.385e-10 rad = 1.94e-8 deg
    dpsi_ok = 0.5 * 1.94e-8 < math.degrees(dpsi) < 2.0 * 1.94e-8
    ground_shift = 200e3 / math.sin(math.radians(45.0)) ** 2 * dpsi
    shift_ok = 0.5 * 1.352e-4 < ground_shift < 2.0 * 1.352e-4
    report(8, rho_ok and dpsi_ok and shift_ok,
           f"(rho-1 {rel.rho_minus_one:.4e}, dpsi {math.degrees(dpsi):.3e} deg, "
           f"flat-earth shift {ground_shift:.3e} m)")


@pytest.mark.xfail(strict=True,
                   reason="published dpsi of 1.94e-7 deg contradicts the "
                          "0.0001352 m ground shift quoted beside it; the "
                          "self-consistent value is 1.94e-8 deg (see notes)")
def test_criterion_8_published_dpsi_exponent_as_printed():
    leos = VehicleState.from_attitude(GeodeticCoord(0.0, 0.0, 200e3), 7800.0,
                                      AttitudeEuler(0.0, 0.0, 0.0))
    m = DopplerMeasurement(299798033.4329, 299792518.0)
    dpsi = abs(relativistic_semi_angle_delta(leos, m))
    assert 0.5 * 1.94e-7 < math.degrees(dpsi) < 2.0 * 1.94e-7


def test_criterion_9_snell_two_layer():
    uniform = AtmosphereModel(layers=((20e3, 1.0), (50e3, 1.0)))
    zero_ok = snell_two_layer_displacement(math.radians(60.0), uniform, 200e3) == 0.0

    atmos = AtmosphereModel(layers=((20e3, 1.0003), (50e3, 1.0)))
    d = snell_two_layer_displacement(math.radians(60.0), atmos, 200e3)
    scenario_ok = 0.5 * 41.0 <= d <= 1.5 * 41.0

    theta0 = math.radians(60.0)
    invariant = 1.0 * math.sin(theta0)
    inv_ok = all(abs(n * (invariant / n) - invariant) < 1e-12
                 for _, n in atmos.layers)
    report(9, zero_ok and scenario_ok and inv_ok,
           f"(uniform 0 m, scenario {d:.1f} m vs 41 m, invariant {inv_ok})")


def test_criterion_10_curve_shift_magnitudes():
    # refraction pair at the reference vehicle geometry
    uav = VehicleState.from_attitude(GeodeticCoord(-34.6462, 138.833, 2000.0), 50.0,
                                     AttitudeEuler(0.0, -30.0, 190.0))
    m = DopplerMeasurement(C + 43.3, C)
    psi_vac = semi_angle(m, 50.0)
    psi_air = semi_angle(m, 50.0, c_eff=C * 1.0003)
    curve_vac = intersect_cone_ellipsoid(
        cone_from_geometry(uav.position_ecef(), uav.velocity_dir, psi_vac),
        n_samples=1440)
    curve_air = intersect_cone_ellipsoid(
        cone_from_geometry(uav.position_ecef(), uav.velocity_dir, psi_air),
        n_samples=1440)
    uav_shift = curve_shift(curve_vac.points_near, curve_air.points_near)
    uav_min_ok = 3.0 / 3.0 <= uav_shift.min_shift <= 3.0 * 3.0
    uav_spread_ok = uav_shift.max_shift >= 100.0 * uav_shift.min_shift

    leos = VehicleState.from_attitude(GeodeticCoord(0.0, 0.0, 200e3), 7800.0,
                                      AttitudeEuler(0.0, 0.0, 0.0))
    f_rx = 299798033.4329
    true_cone = cone_from_geometry(
        leos.position_ecef(), leos.velocity_dir,
        semi_angle(DopplerMeasurement(f_rx, 299792518.0), 7800.0))
    nom_cone = cone_from_geometry(
        leos.position_ecef(), leos.velocity_dir,
        semi_angle(DopplerMeasurement(f_rx, 299792578.0), 7800.0))
    leos_shift = curve_shift(intersect_cone_ellipsoid(true_cone).points_near,
                             intersect_cone_ellipsoid(nom_cone).points_near)
    leos_min_ok = 5000.0 / 3.0 <= leos_shift.min_shift <= 5000.0 * 3.0

    report(10, uav_min_ok and uav_spread_ok and leos_min_ok,
           f"(uav min {uav_shift.min_shift:.2f} m max {uav_shift.max_shift:.0f} m, "
           f"leos min {leos_shift.min_shift:.0f} m)")
