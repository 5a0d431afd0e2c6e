"""Golden bytes: `dopplergeo intersect` on every committed config,
`dopplergeo terrain` on tiles made with `gen-tile`, and `dopplergeo shift
--detail` on the committed config pairs.

The README promises byte-identical output for identical configs; these
hashes pin the KML, the GeoJSON and the printed report (with the output
directory masked) so that refactors of the sweep, the terrain search and
the curve-shift search cannot move a coordinate digit, a distance, a gap or
a topology label. Regenerate only
for a deliberate output change.

The promise holds for one numpy build and CPU dispatch level: numpy's
AVX-512 loops for arctan, arctan2 and ** round differently from its
baseline loops. With that dispatch disabled (numpy 2.4:
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") every case here
fails, and so does tests/test_demos.py.
"""

import hashlib
import json
import os

import pytest

from dopplergeo.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")

# config -> (intersect.kml, intersect.geojson, stdout) sha256
GOLDEN = {
    "leos_offset_nominal.json": (
        "742b2465c9de1fbc92694a20f89ed6387ccdbd5cd94fdbf881709d2aa314a89f",
        "319da883398164f9c4f17876ccf9808e686513c0a15dbc6a9bf65bd8718e0992",
        "6891d4c42c229967c61885d6e1ac04a27d0645194fa4ede778d534ad662f4b00"),
    "leos_offset_true.json": (
        "ecbc615dca14616f82c03ea00c789df76d437468adf5734e367d6d469b6c429d",
        "113d5f5074db589765630df0f7e10299122d7bec646fe580287864dfdcb0fe36",
        "6891d4c42c229967c61885d6e1ac04a27d0645194fa4ede778d534ad662f4b00"),
    "uav_adelaide_forced_angle.json": (
        "f999a30390a9bfb6a1a39c99ec54bc72e650ee5aa54779f67e7fded2151fe8aa",
        "31ce74ce044f6839eb4df0af6d8125130c4631f0934cba1c6795d583721bce59",
        "02c22c7a2ac3ae21d48a80cf1780fdd31d11ad0835ebf000867f38c7af2ac529"),
    "uav_offset_nominal.json": (
        "2a77607be4c0116a634013d8688094e9bc4b550cf3d2ede593372a11aedff901",
        "fcc63bbb877bc8847bd0268a4d49e8fa5e9da5eada8fe233182caba2575391a8",
        "243d3974f62b33babf6b4bc83daa6523eab7b0060fe26b5f2f33c1d89f0ede23"),
    "uav_offset_true.json": (
        "f5f23fd9e2cc51ef22461dc6efcb399653e0ba69fdef1d892f0285c53bf81c63",
        "afc8640be52f8cc6c5bd98bbde7b1cf767f2f08e68c2bcebe4210608012e5240",
        "0080b56cd7a638da3c174f2b05dea35f3b805361a00f53329c1729d446836a92"),
    "uav_refraction_air.json": (
        "0ff1ef533073b9872d8f81e85cdb9301c6aa2bf861cb19617ef4d023d87da1d4",
        "7e154be1c796b7857a072d9859b63719b200165cf4bfe219969e1975f9846af6",
        "243d3974f62b33babf6b4bc83daa6523eab7b0060fe26b5f2f33c1d89f0ede23"),
    "uav_refraction_vacuum.json": (
        "fe617409dfc84cde5b7da4942240ea41375d561d3246953e2a7ad01c9c8d2eba",
        "b85c81593a406349ad5f216e6c07ad6455de011d41243761d19672ddcbfaa7e0",
        "ec5ced2b8a00cf45e004049912850ca74692923300cf0d5461b209712d62a800"),
    "uav_small_angle_air.json": (
        "87e593ea0c207bab825ffa84bb4b5e6638aec3f0f7ab15fd96a0bdc14c04c30d",
        "d09e173b02e285b27ad467eefc59e288b666bf2a11f736fd4a7e96eccbce4b63",
        "02c22c7a2ac3ae21d48a80cf1780fdd31d11ad0835ebf000867f38c7af2ac529"),
    "uav_small_angle_vacuum.json": (
        "828fa455e873875e60d81dae4333a3379e905f8323bb253cfc37573840d43347",
        "620d8712c3a0c9a45738cbbcbba5280e18e9ac615b40aa4ce9b27a4bbdcc6da7",
        "02c22c7a2ac3ae21d48a80cf1780fdd31d11ad0835ebf000867f38c7af2ac529"),
    "uav_wide_angle_air.json": (
        "5b6e61ea620b983ad1d778206991211ca80193f1ef8f313a30528d26e4c489ca",
        "27ffbd3c474f33f2341aca2832ea4741a350e4783346e7e3322c68e7e2c32a06",
        "65ad4ae54db7661ec655e18f937c8b7339d36d6f22f9f3df7f66fdd883b191fb"),
    "uav_wide_angle_vacuum.json": (
        "f42bb79698b002fa0553d7abd0aed292d81039a3e86e6e3422e940ee473dabae",
        "37e81aeb2c1f54d87513c22938e321471c0fcde806c2f13f7c36ad45b652b5ac",
        "65ad4ae54db7661ec655e18f937c8b7339d36d6f22f9f3df7f66fdd883b191fb"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def intersect_hashes(config: str, out_dir, capsys) -> tuple[str, str, str]:
    capsys.readouterr()
    assert main(["intersect", "--config", os.path.join(CONFIG_DIR, config),
                 "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
    return (sha256((out_dir / "intersect.kml").read_bytes()),
            sha256((out_dir / "intersect.geojson").read_bytes()),
            sha256(stdout.encode()))


def test_golden_covers_every_config():
    assert sorted(GOLDEN) == sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".json"))


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_intersect_output_bytes(config, tmp_path, capsys):
    assert intersect_hashes(config, tmp_path, capsys) == GOLDEN[config]


# terrain cases: gen-tile arguments, scenario, and the terrain.kml,
# terrain.geojson and stdout sha256
STEEP_UAV = {"lat_deg": -34.6462, "lon_deg": 138.833, "h_m": 1500.0, "roll_deg": 0.0,
             "pitch_deg": -70.0, "yaw_deg": 190.0, "speed_ms": 50.0}
TERRAIN_GOLDEN = {
    "flat": (
        ["--kind", "flat", "--format", "grid", "--lat0", "-34.70", "--lon0", "138.80",
         "--n-lat", "80", "--n-lon", "80"],
        {"vehicle": STEEP_UAV, "measurement": {"semi_angle_deg": 15.0},
         "sweep": {"n_samples": 180}},
        (
            "35cc3b8410bf348930a1d77e6b8aa5f1a4b29deee26070c5964fc519f5a8e990",
            "66550928e7b2da94de13454fa1aab3dc940c1b1afcca5d45d39bf32f3d705798",
            "ef24c2810702583f6bbb66f0f4dc62184e9e51b42f0226c2eda1364a44d06403")),
    # covers the curve's northern part only, so the report carries gaps
    "ridge_dted": (
        ["--kind", "ridge", "--format", "dted", "--lat0", "-34.6525", "--lon0", "138.825",
         "--n-lat", "60", "--n-lon", "40", "--height", "400"],
        {"vehicle": STEEP_UAV, "measurement": {"semi_angle_deg": 15.0},
         "sweep": {"n_samples": 360}},
        (
            "3d01e89786e5a027285dfc12fadf156a69152500001f007bf261c8a722155b2e",
            "2e546c6186c57c8123f3c0c721969c634784cbf22a6fd3c5b310e7bdb890131d",
            "2c5f798018273dc735558809012edbd9afc24dfad50162a8f01041ebc037ba61")),
    # tile and rays running across the antimeridian
    "antimeridian": (
        ["--kind", "flat", "--format", "grid", "--lat0", "-34.75", "--lon0", "179.98",
         "--n-lat", "120", "--n-lon", "120"],
        {"vehicle": {"lat_deg": -34.6462, "lon_deg": 180.03, "h_m": 2000.0,
                     "roll_deg": 0.0, "pitch_deg": -30.0, "yaw_deg": 90.0,
                     "speed_ms": 50.0},
         "measurement": {"semi_angle_deg": 80.0}, "sweep": {"n_samples": 720}},
        (
            "94fd55115eef75b6545bc663317f12b4f498532588f7be5870b3d75a397b9b36",
            "86d26b1b7ffad5a4a9e804775e3859147358047d89936d1a67cfdc92e52ddd47",
            "e423f77278778b7f4b9c3484b445856daa4c34e934e79face82ff37e0980b6a0")),
}


def terrain_hashes(case: str, tmp_path, capsys) -> tuple[str, str, str]:
    tile_args, scenario, _ = TERRAIN_GOLDEN[case]
    tile = tmp_path / ("tile.dt1" if "dted" in tile_args else "tile.grid")
    assert main(["gen-tile", "--out-path", str(tile)] + tile_args) == 0
    fmt = "dted" if "dted" in tile_args else "grid"
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(dict(scenario, terrain={"path": str(tile), "format": fmt})))
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert main(["terrain", "--config", str(config), "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
    return (sha256((out_dir / "terrain.kml").read_bytes()),
            sha256((out_dir / "terrain.geojson").read_bytes()),
            sha256(stdout.encode()))


@pytest.mark.parametrize("case", sorted(TERRAIN_GOLDEN))
def test_terrain_output_bytes(case, tmp_path, capsys):
    assert terrain_hashes(case, tmp_path, capsys) == TERRAIN_GOLDEN[case][2]


# shift cases: the committed config pairs (the same pairs as the benchmark's
# budget workload) and the sha256 of `shift --detail --samples 1440` stdout
SHIFT_GOLDEN = {
    ("leos_offset_true.json", "leos_offset_nominal.json"):
        "26217d5e6c73113138c717c58ea88a324cade08044295df5eb21f04a8e8c505d",
    ("uav_offset_true.json", "uav_offset_nominal.json"):
        "4d2dab35b28c660563a9c2b81d9bc844c61d9d207c659130b92b87f916377518",
    ("uav_refraction_air.json", "uav_refraction_vacuum.json"):
        "c037598df5e1aed0ca1fe7e30924f9d1d1eae7ddacc832842d762c0fd3c3dd4c",
    ("uav_small_angle_air.json", "uav_small_angle_vacuum.json"):
        "a8bd7aba8ebf6cf3a676b68e4bc9b7eea1f95b0dbbb20fc2fb027bc70b1260e0",
    ("uav_wide_angle_air.json", "uav_wide_angle_vacuum.json"):
        "148925434bd0521eaa5673508458dd15cd553ed64c5d83f0618cddcdbbc4eedb",
}


@pytest.mark.parametrize("pair", sorted(SHIFT_GOLDEN), ids=lambda p: f"{p[0][:-5]}+{p[1][:-5]}")
def test_shift_output_bytes(pair, capsys):
    capsys.readouterr()
    assert main(["shift", os.path.join(CONFIG_DIR, pair[0]), os.path.join(CONFIG_DIR, pair[1]),
                 "--detail", "--samples", "1440"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == SHIFT_GOLDEN[pair]
