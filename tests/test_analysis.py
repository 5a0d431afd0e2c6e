import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopplergeo.analysis import (
    POINT_BLOCK,
    SEGMENT_GROUP,
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
from dopplergeo.cli import atmosphere_from_config
from dopplergeo.cone import DopplerMeasurement, VehicleState, cone_from_geometry
from dopplergeo.geodesy import SPEED_OF_LIGHT, AttitudeEuler, GeodeticCoord
from dopplergeo.intersect import intersect_cone_ellipsoid

C = SPEED_OF_LIGHT

LEOS_ATTITUDE = AttitudeEuler(0.0, 0.0, 0.0)
LEOS = VehicleState.from_attitude(GeodeticCoord(0.0, 0.0, 200e3), 7800.0, LEOS_ATTITUDE)
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
# vertex counts of polylines with G - 1, G, G + 1 and 2G + 1 segments
GROUP_LENGTHS = [SEGMENT_GROUP, SEGMENT_GROUP + 1, SEGMENT_GROUP + 2, 2 * SEGMENT_GROUP + 2]


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
       n_b=st.sampled_from(BLOCK_LENGTHS + GROUP_LENGTHS) | st.integers(1, 300),
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


def test_pruned_search_graded_group():
    # one group whose segments grow from 1 m to 10 km along a turning path,
    # like the grazing end of a sweep, between groups of 100 m segments
    rng = np.random.default_rng(7)
    for _ in range(40):
        lengths = np.concatenate([np.full(SEGMENT_GROUP + 3, 100.0),
                                  np.geomspace(1.0, 1e4, SEGMENT_GROUP),
                                  np.full(SEGMENT_GROUP - 5, 100.0)])
        heading = np.cumsum(rng.uniform(-0.3, 0.3, len(lengths)))
        steps = lengths[:, None] * np.column_stack([np.cos(heading), np.sin(heading),
                                                    rng.uniform(-0.05, 0.05, len(lengths))])
        b = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
        b = b @ np.linalg.qr(rng.normal(size=(3, 3)))[0].T + ECEF_OFFSET
        near = b[rng.integers(0, len(b), 300)] + rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(
            -1.0, 3.0, (300, 1))
        far = b.mean(axis=0) + rng.normal(0.0, 2e4, (100, 3))
        a = np.vstack([near, far])
        assert np.array_equal(point_to_polyline_distance(a, b), all_pairs_distance(a, b))


def bound_cases(last_group, n, seed, ulps=4):
    """(p, b) pairs where the nearest vertex of b lies s from p, on a sphere of
    b's last group that reaches p's upper bound U = s + t within t, below
    ulps ulp of s.

    The first group is one vertex V repeated, s + t from p, so its centre is
    V and U = |p - c| + e = s + t. A second group joins V to (3s, 0) and
    stays more than s + t from p; last_group(s) lists the remaining G
    vertices. The curve is turned at random and moved to ECEF or not.
    """
    rng = np.random.default_rng(seed)
    g = SEGMENT_GROUP
    for _ in range(n):
        s = rng.uniform(1.0, 1e6)
        t = s * 2.0 ** -52 * rng.integers(0, ulps)
        b = np.array([(0.0, s + t)] * (g + 1) + [(0.0, 3.0 * s), (3.0 * s, 3.0 * s)]
                     + [(3.0 * s, 0.0)] * (g - 2) + last_group(s))
        assert len(b) == 3 * g + 1
        turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        offset = rng.choice([0.0, 1.0]) * ECEF_OFFSET
        yield offset[None, :], np.column_stack([b, np.zeros(len(b))]) @ turn.T + offset


def test_pruned_search_keeps_a_sphere_at_the_bound():
    # The last segment runs from (3s, 0) to (s, 0): its sphere (centre 2s
    # from p, radius s) reaches s from p, at the bound, while its group's
    # sphere, widened by (3s, 2s), reaches nearer to p. A segment test
    # without the rounding slack drops the nearest segment in about one
    # case in 26.
    last = lambda s: [(3.0 * s, 2.0 * s)] + [(3.0 * s, 0.0)] * (SEGMENT_GROUP - 2) + [(s, 0.0)]
    for p, b in bound_cases(last, n=1000, seed=5):
        assert np.array_equal(point_to_polyline_distance(p, b), all_pairs_distance(p, b))


def test_pruned_search_keeps_a_group_at_the_bound():
    # The last group's vertices are symmetric about (2s, 0), so its sphere
    # keeps that centre and radius s under any turn and reaches s from p,
    # exactly the bound (t = 0); its segments' own spheres stay farther
    # from p. A sphere around the box centre holds the vertex whatever the
    # centre's rounding, so a group test without the rounding slack drops
    # the nearest group only through the last bits of the distances
    # themselves: 4 of these 3000 cases.
    ring = lambda s: [(2.0 * s, s), (s, 0.0), (2.0 * s, -s)] + [(2.0 * s, 0.0)] * (SEGMENT_GROUP - 3)
    for p, b in bound_cases(ring, n=3000, seed=6, ulps=1):
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


def test_pruned_search_calls_no_blas(monkeypatch):
    # the search is elementwise numpy only, so its time does not depend on
    # the BLAS thread count
    def no_blas(*args, **kwargs):
        raise AssertionError("BLAS call in the search")

    for name in ("matmul", "dot", "inner", "tensordot", "vdot"):
        monkeypatch.setattr(np, name, no_blas)
    a = circle(5000.0, n=2 * POINT_BLOCK + 37) + ECEF_OFFSET
    b = circle(5100.0, n=300) + ECEF_OFFSET
    point_to_polyline_distance(a, b)


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
    double = VehicleState.from_attitude(LEOS.position, 15600.0, LEOS_ATTITUDE)
    # double the shift too so the cone geometry (the angle) stays fixed
    m2 = DopplerMeasurement(299792518.0 + 2.0 * m1.shift, 299792518.0)
    d2 = relativistic_semi_angle_delta(double, m2)
    assert d2 / d1 == pytest.approx(4.0, rel=0.1)


def test_snell_uniform_index_no_displacement():
    atmos = AtmosphereModel(layers=((20e3, 1.0), (50e3, 1.0)))
    assert snell_two_layer_displacement(math.radians(60.0), atmos, 200e3) == 0.0


def test_snell_reference_scenario():
    atmos = AtmosphereModel(layers=((20e3, 1.0003), (50e3, 1.0)))
    d = snell_two_layer_displacement(math.radians(60.0), atmos, 200e3)
    assert d == pytest.approx(41.0, rel=0.5)


def test_snell_invariant_across_interfaces():
    layers = ((5e3, 1.0004), (20e3, 1.0003), (50e3, 1.0001))
    atmos = AtmosphereModel(layers=layers)
    theta0 = math.radians(55.0)
    invariant = atmos.index_at(100e3) * math.sin(theta0)
    for top, n in layers:
        sin_t = invariant / n
        assert abs(n * sin_t - invariant) < 1e-12


def test_snell_total_internal_reflection():
    # ray leaves a dense layer for a rarer one steeply enough to turn back
    dense_above = AtmosphereModel(layers=((5e3, 1.0), (50e3, 1.2)))
    with pytest.raises(TotalInternalReflection):
        snell_two_layer_displacement(math.radians(80.0), dense_above, 10e3)
    uniform = AtmosphereModel(layers=((20e3, 1.0),))
    assert snell_two_layer_displacement(math.radians(80.0), uniform, 10e3) == 0.0


class KindAtmosphere:
    """The atmosphere model as it was when it held the config's kind, kept as
    the oracle of cli.atmosphere_from_config: vacuum is 1 everywhere,
    constant_index n (1.0003 unless given) everywhere, and two_layer the
    index of the first layer whose top lies above, else 1."""

    def __init__(self, kind="vacuum", n=1.0003, layers=()):
        self.kind, self.n = kind, n
        self.layers = tuple((float(top), float(index)) for top, index in layers)

    def index_at(self, altitude_m):
        if self.kind == "vacuum":
            return 1.0
        if self.kind == "constant_index":
            return self.n
        for top, n in self.layers:
            if altitude_m < top:
                return n
        return 1.0


INDICES = st.floats(1.0, 1.5)
TWO_LAYER = (st.lists(st.floats(-1e3, 1e5), min_size=1, max_size=4, unique=True)
             .map(sorted)
             .flatmap(lambda tops: st.lists(INDICES, min_size=len(tops), max_size=len(tops))
                      .map(lambda ns: {"kind": "two_layer",
                                       "layers": [[t, n] for t, n in zip(tops, ns)]})))
ATMOSPHERE_CONFIGS = (st.sampled_from([{}, {"kind": "vacuum"}, {"kind": "constant_index"}])
                      | INDICES.map(lambda n: {"kind": "constant_index", "n": n})
                      | TWO_LAYER)


def snell_outcome(atmosphere, incidence, receiver_height):
    try:
        return snell_two_layer_displacement(incidence, atmosphere, receiver_height)
    except TotalInternalReflection:
        return "total internal reflection"


@settings(max_examples=300, deadline=None)
@given(cfg=ATMOSPHERE_CONFIGS, altitudes=st.lists(st.floats(), max_size=4),
       incidence=st.floats(0.0, 1.5), receiver_height=st.floats(1.0, 2e5))
def test_atmosphere_matches_the_per_kind_model(cfg, altitudes, incidence, receiver_height):
    model = atmosphere_from_config({"atmosphere": cfg})
    oracle = KindAtmosphere(**cfg)
    assert model.layers == oracle.layers
    # each top and one ulp either side, where a layer ends
    for top, _ in oracle.layers:
        altitudes += [math.nextafter(top, -math.inf), top, math.nextafter(top, math.inf)]
    for altitude in altitudes:
        assert model.index_at(altitude) == oracle.index_at(altitude)
    assert (snell_outcome(model, incidence, receiver_height)
            == snell_outcome(oracle, incidence, receiver_height))


def test_atmosphere_validation():
    # an unknown kind is a config error: test_config_layer_errors_exit_4
    with pytest.raises(ValueError, match="strictly increasing"):
        AtmosphereModel(layers=((20e3, 1.0), (10e3, 1.0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        AtmosphereModel(layers=((math.inf, 1.0003),))
    with pytest.raises(ValueError, match="got 0.5"):
        AtmosphereModel(n=0.5)
    with pytest.raises(ValueError, match="got nan"):
        AtmosphereModel(layers=((20e3, math.nan),))


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
