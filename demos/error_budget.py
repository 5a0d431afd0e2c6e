# How the candidate-emitter curve moves under each error source: a wrong
# reference frequency, the air's refractive index, relativistic time
# dilation, and atmospheric refraction of the ray path itself.

import math

import dopplergeo as dg

C = dg.SPEED_OF_LIGHT

print("=== reference-frequency offset (UAV, 10 Hz error) ===")
uav = dg.VehicleState.from_attitude(dg.GeodeticCoord(-34.6462, 138.833, 2000.0),
                                    50.0, dg.AttitudeEuler(0.0, -30.0, 0.0))
curve_true, curve_nom, shift = dg.frequency_offset_scenario(
    uav, f_true=299792468.0, f_nominal=299792458.0, f_received=299792501.33)
m_true = dg.DopplerMeasurement(299792501.33, 299792468.0)
m_nom = dg.DopplerMeasurement(299792501.33, 299792458.0)
print(f"  true angle {math.degrees(dg.semi_angle(m_true, 50.0)):.3f} deg, "
      f"assumed angle {math.degrees(dg.semi_angle(m_nom, 50.0)):.3f} deg")
print(f"  curve shift: {shift.min_shift:,.0f} m to {shift.max_shift:,.0f} m")

print("=== reference-frequency offset (satellite, 60 Hz error) ===")
leos = dg.VehicleState.from_attitude(dg.GeodeticCoord(0.0, 0.0, 200e3),
                                     7800.0, dg.AttitudeEuler(0.0, 0.0, 0.0))
_, _, lshift = dg.frequency_offset_scenario(
    leos, f_true=299792518.0, f_nominal=299792578.0, f_received=299798033.4329)
print(f"  curve shift: {lshift.min_shift:,.0f} m to {lshift.max_shift:,.0f} m")

print("=== air refractive index (UAV, 43.3 Hz shift) ===")
m = dg.DopplerMeasurement(C + 43.3, C)
vac = dg.build_cone(uav, m)
air = dg.build_cone(uav, m, n=1.0003)
cv = dg.intersect_cone_ellipsoid(vac)
ca = dg.intersect_cone_ellipsoid(air)
rshift = dg.curve_shift(cv.points_near, ca.points_near)
print(f"  {math.degrees(vac.semi_angle):.3f} deg in vacuum vs "
      f"{math.degrees(air.semi_angle):.3f} deg in air")
print(f"  curve shift: {rshift.min_shift:.1f} m to {rshift.max_shift:,.0f} m")

print("=== relativistic time dilation (satellite) ===")
rel = dg.lorentz_factor(7800.0)
dpsi = dg.relativistic_semi_angle_delta(leos, dg.DopplerMeasurement(299798033.4329,
                                                                    299792518.0))
print(f"  Lorentz factor - 1 = {rel.rho_minus_one:.3e}")
print(f"  semi-angle change  = {math.degrees(abs(dpsi)):.3e} deg "
      f"(flat-earth ground shift ~{200e3 / math.sin(math.radians(45)) ** 2 * abs(dpsi) * 1e3:.2f} mm)")

print("=== two-layer refraction of the ray path (satellite) ===")
atmos = dg.AtmosphereModel(layers=((20e3, 1.0003), (50e3, 1.0)))
d = dg.snell_two_layer_displacement(math.radians(60.0), atmos, 200e3)
print(f"  straight vs refracted ground point: {d:.1f} m")
