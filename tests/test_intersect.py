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
    MAX_SAMPLES,
    _circular_runs,
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
    assert curve.cone is cone


def test_constructed_tangency():
    curve = intersect_cone_ellipsoid(make_tangent_cone(), n_samples=64)
    assert curve.topology == "tangent_point"
    hit = np.flatnonzero(~np.isnan(curve.s_near))
    assert len(hit) == 1 and curve.tangent[hit[0]]
    assert curve.s_near[hit[0]] == pytest.approx(A * math.sqrt(3.0), rel=1e-6)


def test_two_visible_arcs_two_curves():
    # seen from (2a, 0, 0) the oblate earth is wider than it is tall: a cone
    # about the line to the centre, between the polar and equatorial limbs,
    # meets it in two separate arcs, east and west
    apex = np.array([2.0 * A, 0.0, 0.0])
    polar_limb = math.atan(WGS84.b / math.sqrt(apex[0] ** 2 - A ** 2))
    psi = (polar_limb + math.asin(A / apex[0])) / 2.0
    cone = cone_from_geometry(apex, [-1.0, 0.0, 0.0], psi)
    curve = intersect_cone_ellipsoid(cone, n_samples=64)
    assert len(_circular_runs(~np.isnan(curve.s_near))) == 2
    assert curve.topology == _fold_oracle(cone, 64)[0] == "two_curves"


def test_grazing_cone_single_closed_curve():
    # upper rays clear the horizon, so near and far branches fold into one loop
    cone = cone_from_geometry(UAV.position_ecef(), UAV.velocity_dir, math.radians(30.0))
    curve = intersect_cone_ellipsoid(cone)
    assert curve.topology == "single_closed_curve"
    assert 0 < len(curve.points_near) < len(curve.etas)


def test_dual_residuals_and_half_cone():
    cone = cone_from_geometry(UAV.position_ecef(), UAV.velocity_dir, math.radians(26.56))
    curve = intersect_cone_ellipsoid(cone)
    assert curve.cone is cone
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


def test_maximum_sample_count_enforced():
    with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
        intersect_cone_ellipsoid(make_tangent_cone(), n_samples=MAX_SAMPLES + 1)


AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@st.composite
def sweep_cones(draw):
    """UAV and LEO apexes with random axes, or, as in acceptance criterion 4,
    near-grazing cones whose upper ray skims the horizon."""
    lat = draw(st.floats(-89.0, 89.0))
    lon = draw(st.floats(-180.0, 180.0))
    height = draw(st.one_of(st.floats(100.0, 5000.0), st.floats(150e3, 800e3)))
    if draw(st.booleans()):
        dip = math.degrees(math.acos(WGS84.a / (WGS84.a + height)))
        psi_deg = draw(st.floats(5.0, 30.0))
        pitch = draw(st.floats(-0.02, 0.02)) - dip - psi_deg
        axis = body_to_ecef_direction(AttitudeEuler(0.0, pitch, draw(st.floats(0.0, 360.0))),
                                      GeodeticCoord(lat, lon, height))
    else:
        axis = draw(AXES)
        psi_deg = draw(st.floats(1.0, 89.0))
    return cone_from_geometry(geodetic_to_ecef_arrays(lat, lon, height),
                              np.asarray(axis) / np.linalg.norm(axis), math.radians(psi_deg))


@settings(max_examples=150, deadline=None)
@given(cone=sweep_cones(), n_samples=st.integers(16, 1500))
def test_curve_points_lie_on_both_surfaces(cone, n_samples):
    curve = intersect_cone_ellipsoid(cone, n_samples=n_samples)
    for pts in (curve.points_near, curve.points_far):
        if len(pts):
            assert ellipsoid_residual(pts).max() < 1e-9
            assert cone_surface_residual(cone, pts).max() / quad_form_scale(cone) < 1e-9


def _sweep_shape(curve):
    """Number of visible runs, whether every ray hits, whether any far crossing exists."""
    hit = ~np.isnan(curve.s_near)
    return len(_circular_runs(hit)), bool(hit.all()), bool((~np.isnan(curve.s_far)).any())


@settings(max_examples=150, deadline=None)
@given(cone=sweep_cones(), n_samples=st.integers(16, 750))
def test_topology_same_at_twice_the_samples(cone, n_samples):
    # The 2n sweep holds every ray of the n sweep, bit for bit, and the
    # label is read from the sweep's shape alone. A grazing ray that misses
    # only at 2n still changes that shape, so such cones are excluded.
    coarse = intersect_cone_ellipsoid(cone, n_samples=n_samples)
    fine = intersect_cone_ellipsoid(cone, n_samples=2 * n_samples)
    assume(_sweep_shape(coarse) == _sweep_shape(fine))
    assert coarse.topology == fine.topology


def test_topology_independent_of_sample_count():
    # a near-horizon cone whose grazing end segment used to read as a break
    # at some spacings (open_arc at 32 and 64 rays only)
    axis = np.array([0.0, 0.5, 1.0])
    cone = cone_from_geometry(geodetic_to_ecef_arrays(0.0, -1.0, 100.0),
                              axis / np.linalg.norm(axis), math.radians(5.0))
    labels = {n: intersect_cone_ellipsoid(cone, n_samples=n).topology
              for n in (16, 32, 64, 128, 720)}
    assert set(labels.values()) == {"single_closed_curve"}, labels


def _ray_coefficients(cone, etas):
    """a, b, c of each ray's quadratic a s^2 + b s + c = 0 against WGS84."""
    q = np.array([1.0 / WGS84.a ** 2, 1.0 / WGS84.a ** 2, 1.0 / WGS84.b ** 2])
    dirs = _ray_directions(cone, np.asarray(etas, dtype=float))
    return (dirs ** 2 @ q, 2.0 * dirs @ (q * cone.apex),
            float(cone.apex ** 2 @ q) - 1.0)


def _fold_oracle(cone, n_samples):
    """Topology from the horizon folds of the cone, not from a sweep, and the
    narrowest arc between two folds in ray spacings (inf without folds).

    disc(eta) = b^2 - 4ac is a trigonometric polynomial of degree 2 in eta
    (a of degree 2, b of degree 1, c constant), so 8 equally spaced rays
    give its five Fourier coefficients exactly; with z = exp(i eta),
    z^2 disc is the quartic [c2, c1, c0, conj(c1), conj(c2)], whose roots
    on the unit circle are the folds. A ray is visible where disc > 0 and
    a root lies ahead of the apex: b < 0, or c < 0 (apex inside).
    """
    a, b, c = _ray_coefficients(cone, np.arange(8) * (2.0 * math.pi / 8))
    coef = np.fft.rfft(b * b - 4.0 * a * c) / 8.0
    roots = np.roots([coef[2], coef[1], coef[0].real, coef[1].conj(), coef[2].conj()])
    # a near-double root splits into z and 1/conj(z), which share one angle:
    # kept, they bound an arc of zero width, which the property skips
    folds = np.sort(np.angle(roots[np.abs(np.abs(roots) - 1.0) < 1e-6]) % (2.0 * math.pi))
    if len(folds) == 0:
        a, b, c = _ray_coefficients(cone, [0.0])
        if b[0] ** 2 - 4.0 * a[0] * c <= 0.0 or (b[0] >= 0.0 and c >= 0.0):
            return "empty", math.inf
        return ("two_curves" if c > 0.0 else "single_closed_curve"), math.inf
    widths = np.diff(folds, append=folds[0] + 2.0 * math.pi)
    a, b, c = _ray_coefficients(cone, folds + widths / 2.0)
    visible = (b * b - 4.0 * a * c > 0.0) & ((b < 0.0) | (c < 0.0))
    label = ("empty", "single_closed_curve", "two_curves")[np.count_nonzero(visible)]
    return label, widths.min() / (2.0 * math.pi / n_samples)


@settings(max_examples=300, deadline=None)
@given(cone=sweep_cones(), n_samples=st.integers(16, 7200))
def test_topology_matches_fold_oracle(cone, n_samples):
    # an arc (visible or hidden) at least 4 ray spacings wide holds at least
    # three rays, so every visible arc is one run and every hidden arc
    # separates two; narrower arcs may fall between rays
    label, narrowest = _fold_oracle(cone, n_samples)
    assume(narrowest >= 4.0)
    assert intersect_cone_ellipsoid(cone, n_samples=n_samples).topology == label
