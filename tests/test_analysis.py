import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopplergeo.analysis import (
    POINT_BLOCK,
    AtmosphereModel,
    Superluminal,
    TotalInternalReflection,
    curve_shift,
    frequency_offset_scenario,
    lorentz_factor,
    point_to_polyline_distance,
    relativistic_semi_angle_delta,
    snell_two_layer_displacement,
)
from dopplergeo.cone import DopplerMeasurement, VehicleState, cone_from_geometry
from dopplergeo.geodesy import SPEED_OF_LIGHT, AttitudeEuler, GeodeticCoord
from dopplergeo.intersect import intersect_cone_ellipsoid

C = SPEED_OF_LIGHT

LEOS = VehicleState.from_attitude(GeodeticCoord(0.0, 0.0, 200e3), 7800.0,
                                  AttitudeEuler(0.0, 0.0, 0.0))
UAV = VehicleState.from_attitude(GeodeticCoord(-34.6462, 138.833, 2000.0), 50.0,
                                 AttitudeEuler(0.0, -30.0, 190.0))


def circle(radius, n=720, z=0.0):
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([radius * np.cos(t), radius * np.sin(t), np.full(n, z)])


def test_identical_curves_zero_shift():
    a = circle(1000.0)
    shift = curve_shift(a, a)
    assert shift.min_shift == 0.0 and shift.max_shift == 0.0


def test_concentric_circles_shift():
    shift = curve_shift(circle(5000.0), circle(5100.0))
    assert shift.min_shift == pytest.approx(100.0, abs=0.5)
    assert shift.max_shift == pytest.approx(100.0, abs=0.5)


def test_min_shift_symmetric():
    a = circle(5000.0, n=400)
    b = circle(5100.0, n=300) + np.array([200.0, 0.0, 0.0])
    ab = curve_shift(a, b)
    ba = curve_shift(b, a)
    # segment sampling makes the two directions agree only to polyline resolution
    assert ab.min_shift == pytest.approx(ba.min_shift, abs=5.0)


def test_point_to_polyline_clamps_to_segment_ends():
    line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    d = point_to_polyline_distance(np.array([[2.0, 1.0, 0.0]]), line)
    assert d[0] == pytest.approx(math.sqrt(2.0))


def test_point_to_polyline_blocks_match_one_pass():
    # curve A longer than one block, last block partial
    rng = np.random.default_rng(11)
    a = circle(5000.0, n=2 * POINT_BLOCK + 37) + rng.normal(0.0, 20.0, (2 * POINT_BLOCK + 37, 3))
    b = circle(5100.0, n=300)
    seg = b[1:] - b[:-1]
    len2 = np.einsum("ij,ij->i", seg, seg)
    t = np.clip(((a[:, None, :] - b[None, :-1, :]) * seg[None]).sum(-1) / len2, 0.0, 1.0)
    one_pass = np.linalg.norm(a[:, None, :] - (b[None, :-1, :] + t[:, :, None] * seg[None]),
                              axis=2).min(axis=1)
    assert np.array_equal(point_to_polyline_distance(a, b), one_pass)


def all_pairs_distance(points, polyline) -> np.ndarray:
    """Oracle: every point against every segment, POINT_BLOCK points at a time.

    The search point_to_polyline_distance prunes; its result must equal
    this one bit for bit.
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
        t = np.clip(((block - a) * ab).sum(-1) / ab_len2, 0.0, 1.0)
        closest = a + t[:, :, None] * ab
        d[start:start + POINT_BLOCK] = np.linalg.norm(block - closest, axis=2).min(axis=1)
    return d


ECEF_OFFSET = np.array([-3.9e6, 3.4e6, -3.6e6])  # about 6.4e6 m from the centre
BLOCK_LENGTHS = [1, 2, POINT_BLOCK - 1, POINT_BLOCK, POINT_BLOCK + 1, 2 * POINT_BLOCK + 37]


def random_curve(kind, n, rng):
    if kind == "circle":  # tilted ellipse, scale 10 m to 1000 km
        axes = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2] * 10.0 ** rng.uniform(1.0, 6.0)
        t = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        return np.column_stack([np.cos(t), rng.uniform(0.5, 1.0) * np.sin(t)]) @ axes.T
    if kind == "walk":
        return np.cumsum(rng.normal(0.0, 10.0 ** rng.uniform(0.0, 4.0), (n, 3)), axis=0)
    # small integer grid: many points equidistant from two or more segments
    return rng.integers(-3, 4, (n, 3)).astype(float) * rng.choice([1.0, 1024.0])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_a=st.sampled_from(BLOCK_LENGTHS) | st.integers(1, 300),
       n_b=st.sampled_from(BLOCK_LENGTHS) | st.integers(1, 300),
       kind=st.sampled_from(["circle", "walk", "grid"]),
       relation=st.sampled_from(["apart", "same", "interleaved", "centre"]),
       gap=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
       ecef=st.booleans(), repeats=st.booleans())
def test_pruned_search_matches_all_pairs(seed, n_a, n_b, kind, relation, gap, ecef, repeats):
    rng = np.random.default_rng(seed)
    b = random_curve(kind, n_b, rng)
    if repeats:  # zero-length segments
        b = np.repeat(b, rng.integers(1, 4, len(b)), axis=0)
    if relation == "same":
        a = b.copy()
    elif relation == "interleaved":  # B's vertices and segment midpoints, jittered
        a = np.repeat(b, 2, axis=0)[:-1]
        a[1::2] = 0.5 * (b[:-1] + b[1:])
        a += rng.normal(0.0, 1e-3 * (np.ptp(b) + 1.0), a.shape)
    elif relation == "centre":  # every segment of a circle about as far away
        a = np.tile(b.mean(axis=0), (n_a, 1))
    else:  # independent curve, 0 m to 1000 km away
        direction = rng.normal(size=3)
        a = random_curve(kind, n_a, rng) + gap * direction / np.linalg.norm(direction)
    if ecef:
        a, b = a + ECEF_OFFSET, b + ECEF_OFFSET
    assert np.array_equal(point_to_polyline_distance(a, b), all_pairs_distance(a, b))


def test_pruned_search_keeps_a_sphere_at_the_bound():
    # The nearest segment ends where the line from p through its midpoint
    # leaves its sphere (distance s = |p - m| - r), and the nearest midpoint
    # is s + t away, t of a few ulp: a pruning test without the rounding
    # slack drops the nearest segment in about one case in sixty.
    rng = np.random.default_rng(5)
    for _ in range(2000):
        s = rng.uniform(1.0, 1e6)
        t = s * 2.0 ** -52 * rng.integers(0, 4)
        turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        offset = rng.choice([0.0, 1.0]) * ECEF_OFFSET
        b = np.array([(-s, s + t, 0.0), (s, s + t, 0.0), (3.0 * s, 0.0, 0.0), (s, 0.0, 0.0)])
        b = b @ turn.T + offset
        p = offset[None, :]
        assert np.array_equal(point_to_polyline_distance(p, b), all_pairs_distance(p, b))


def test_pruned_search_peak_memory():
    # 1440 x 1440 at ECEF coordinates: the all-pairs search peaks near 34 MiB
    a = circle(5000.0, n=1440) + ECEF_OFFSET
    b = circle(5100.0, n=1440) + ECEF_OFFSET
    tracemalloc.start()
    try:
        point_to_polyline_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_lorentz_identity_at_rest():
    rel = lorentz_factor(0.0)
    assert rel.rho == 1.0 and rel.rho_minus_one == 0.0


def test_lorentz_textbook_value():
    assert lorentz_factor(0.6 * C).rho == pytest.approx(1.25, rel=1e-12)


def test_lorentz_orbital_speed():
    assert lorentz_factor(7800.0).rho_minus_one == pytest.approx(3.385e-10, abs=1e-13)


def test_lorentz_superluminal():
    with pytest.raises(Superluminal):
        lorentz_factor(C)


def test_lorentz_monotone():
    speeds = [0.0, 100.0, 7800.0, 0.1 * C, 0.5 * C, 0.9 * C]
    rhos = [lorentz_factor(v).rho for v in speeds]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))
    assert all(r >= 1.0 for r in rhos)


def test_relativistic_delta_magnitude():
    m = DopplerMeasurement(299798033.4329, 299792518.0)
    dpsi = relativistic_semi_angle_delta(LEOS, m)
    # consistent with the quoted flat-earth ground shift of 0.1352 mm at
    # 200 km; the companion angle printed alongside it misstates the
    # exponent by one decade
    assert math.degrees(abs(dpsi)) == pytest.approx(1.94e-8, rel=1.0)


def test_relativistic_delta_quadratic_in_speed():
    m1 = DopplerMeasurement(299798033.4329, 299792518.0)
    d1 = relativistic_semi_angle_delta(LEOS, m1)
    double = VehicleState.from_attitude(LEOS.position, 15600.0, LEOS.attitude)
    # double the shift too so the cone geometry (the angle) stays fixed
    m2 = DopplerMeasurement(299792518.0 + 2.0 * m1.shift, 299792518.0)
    d2 = relativistic_semi_angle_delta(double, m2)
    assert d2 / d1 == pytest.approx(4.0, rel=0.1)


def test_snell_uniform_index_no_displacement():
    atmos = AtmosphereModel(kind="two_layer", layers=((20e3, 1.0), (50e3, 1.0)))
    assert snell_two_layer_displacement(math.radians(60.0), atmos, 200e3) == 0.0


def test_snell_reference_scenario():
    atmos = AtmosphereModel(kind="two_layer", layers=((20e3, 1.0003), (50e3, 1.0)))
    d = snell_two_layer_displacement(math.radians(60.0), atmos, 200e3)
    assert d == pytest.approx(41.0, rel=0.5)


def test_snell_invariant_across_interfaces():
    layers = ((5e3, 1.0004), (20e3, 1.0003), (50e3, 1.0001))
    atmos = AtmosphereModel(kind="two_layer", layers=layers)
    theta0 = math.radians(55.0)
    invariant = atmos.index_at(100e3) * math.sin(theta0)
    for top, n in layers:
        sin_t = invariant / n
        assert abs(n * sin_t - invariant) < 1e-12


def test_snell_total_internal_reflection():
    # ray leaves a dense layer for a rarer one steeply enough to turn back
    dense_above = AtmosphereModel(kind="two_layer", layers=((5e3, 1.0), (50e3, 1.2)))
    with pytest.raises(TotalInternalReflection):
        snell_two_layer_displacement(math.radians(80.0), dense_above, 10e3)
    uniform = AtmosphereModel(kind="two_layer", layers=((20e3, 1.0),))
    assert snell_two_layer_displacement(math.radians(80.0), uniform, 10e3) == 0.0


def test_atmosphere_validation():
    with pytest.raises(ValueError):
        AtmosphereModel(kind="two_layer", layers=((20e3, 1.0), (10e3, 1.0)))
    with pytest.raises(ValueError):
        AtmosphereModel(kind="constant_index", n=0.5)
    with pytest.raises(ValueError):
        AtmosphereModel(kind="swamp")


def test_frequency_offset_equal_references_zero_shift():
    _, _, shift = frequency_offset_scenario(UAV, C, C, C + 40.0, n_samples=180)
    assert shift is not None
    assert shift.max_shift == 0.0


def test_frequency_offset_reference_angles():
    f_rx = 299792501.33
    curve_true, curve_nom, shift = frequency_offset_scenario(
        UAV, 299792468.0, 299792458.0, f_rx, n_samples=360)
    assert shift is not None and shift.min_shift > 0.0
    m_true = DopplerMeasurement(f_rx, 299792468.0)
    m_nom = DopplerMeasurement(f_rx, 299792458.0)
    from dopplergeo.cone import semi_angle
    assert math.degrees(semi_angle(m_true, 50.0)) == pytest.approx(48.19, abs=0.1)
    assert math.degrees(semi_angle(m_nom, 50.0)) == pytest.approx(29.934, abs=0.05)


def test_frequency_offset_empty_curve_reported_not_raised():
    # cone axis pitched up: no earth intersection, shift is undefined
    up = VehicleState.from_attitude(GeodeticCoord(0.0, 0.0, 200e3), 7800.0,
                                    AttitudeEuler(0.0, 45.0, 0.0))
    curve_true, curve_nom, shift = frequency_offset_scenario(
        up, 299792518.0, 299792578.0, 299798033.4329, n_samples=90)
    assert shift is None
    assert curve_true.topology == "empty"


def test_max_shift_monotone_in_angle_offset():
    base = cone_from_geometry(UAV.position_ecef(), UAV.velocity_dir, math.radians(20.0))
    ref = intersect_cone_ellipsoid(base, n_samples=360)
    last = 0.0
    for extra in (0.5, 1.0, 2.0, 4.0):
        other = cone_from_geometry(UAV.position_ecef(), UAV.velocity_dir,
                                   math.radians(20.0 + extra))
        cur = intersect_cone_ellipsoid(other, n_samples=360)
        shift = curve_shift(ref.points_near, cur.points_near)
        assert shift.max_shift >= last
        last = shift.max_shift
