"""Golden bytes: `dopplergeo intersect` on every committed config, the tiles
`gen-tile` writes, `dopplergeo terrain` on such tiles, and `dopplergeo shift
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
        "731cdb4c58b4a35dc2608947f4754a4546bc43d3efafd4a8d4300d4c6c23f569",
        "f8898bcf06aa27a9435dd91ee27804d43f95c134d4e94e3eef46c2361478e05c",
        "02c22c7a2ac3ae21d48a80cf1780fdd31d11ad0835ebf000867f38c7af2ac529"),
    "uav_offset_nominal.json": (
        "a568ecfc33510e8c93b75d0a8d8ed9b83fc71ae23292e01c78eb36bcd14e058b",
        "56a849327768563064b9478a31fa81ec2325ca33a4e15aa5c5a5ae3ed29c3ed3",
        "243d3974f62b33babf6b4bc83daa6523eab7b0060fe26b5f2f33c1d89f0ede23"),
    "uav_offset_true.json": (
        "ffae1a726b9998412e91f351a932f8e8096d34df9315d332bd6dea7158a3685c",
        "11bc8e298c649234ece515e136339fcca5ed7b06666ba6c0ded6ad00a238e93c",
        "0080b56cd7a638da3c174f2b05dea35f3b805361a00f53329c1729d446836a92"),
    "uav_refraction_air.json": (
        "e1b9d88d364917af873930b5c8a87581f0ddb19a87330e725f2e8ec945891a39",
        "65d206a335d7981546f0b974322ed0a28c33464c03f12241d08bb6dab4f50a6c",
        "243d3974f62b33babf6b4bc83daa6523eab7b0060fe26b5f2f33c1d89f0ede23"),
    "uav_refraction_vacuum.json": (
        "a671b69c02bb3ea6bb0a931cd20f5c00573cca1ac7f14eacef75556d8ffece74",
        "8320e6d34d4316962c7a5415973d5434295d8e0ce305740682470033d897579c",
        "ec5ced2b8a00cf45e004049912850ca74692923300cf0d5461b209712d62a800"),
    "uav_small_angle_air.json": (
        "a5d8d8e4af27b4dd17e1fc78a740e988fc859cca37cc3c0f32d6b27a74b216a4",
        "82674431221ecb74196e93b9e35be5543a1912f3020018eb1bee051d1f883eb5",
        "02c22c7a2ac3ae21d48a80cf1780fdd31d11ad0835ebf000867f38c7af2ac529"),
    "uav_small_angle_vacuum.json": (
        "9689e56c37a8d57c93a00a14edfd6235fc3c3a40f8f8b704d09dc8f1726fcc8b",
        "8430528fd6e1c0761fe3d22e81d079cc47167932726fdfbfa467cbb9d9fa1645",
        "02c22c7a2ac3ae21d48a80cf1780fdd31d11ad0835ebf000867f38c7af2ac529"),
    "uav_wide_angle_air.json": (
        "76d848d7ff5d66fc98c4b2638a41cdd3b90b6dc21d13686435c41de7fe331b3f",
        "656be33fa8e0dbec1db3b35beb8ec8b7f0eaa5534922d4ae2fe1d626e61b930a",
        "65ad4ae54db7661ec655e18f937c8b7339d36d6f22f9f3df7f66fdd883b191fb"),
    "uav_wide_angle_vacuum.json": (
        "4f2476425b62bfe36fc0d09e78f2bc42432d5d0201e777eca6645c7b24cdc36d",
        "49387df04759055ab5d22a09681d69f54fb2abbbd67603e3605a4c046f1f68df",
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
            "3a664f743e739f24fa9094aec5d46d94dbe13091e7e44e39f599a2758c2f2ed8",
            "9ac325e31a411d3773451bf2056e5cbc8f78bb4feb14e409dfa3841dbbbe2755",
            "ef24c2810702583f6bbb66f0f4dc62184e9e51b42f0226c2eda1364a44d06403")),
    # covers the curve's northern part only, so the report carries gaps
    "ridge_dted": (
        ["--kind", "ridge", "--format", "dted", "--lat0", "-34.6525", "--lon0", "138.825",
         "--n-lat", "60", "--n-lon", "40", "--height", "400"],
        {"vehicle": STEEP_UAV, "measurement": {"semi_angle_deg": 15.0},
         "sweep": {"n_samples": 360}},
        (
            "8ed88ef43bf670ac34511b7be837f2fc8fe24610f4019f1d94758b8f9f69e530",
            "510df4dfdcb0d58af6483489b7c281729c100742e1aeebc87d7ae95d414684f6",
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


# gen-tile arguments -> sha256 of the tile it writes: DTED levels 1 and 2 (a
# negative plateau among them) and a portable grid
TILE_GOLDEN = {
    "ridge_dted1": (
        ["--kind", "ridge", "--format", "dted", "--lat0", "-34.6525", "--lon0", "138.825",
         "--n-lat", "60", "--n-lon", "40", "--height", "400"],
        "bb915cce97d6f014c04195475b2f7fd20d50cfff4ae2473222c8dbe062574db3"),
    "ridge_dted2": (
        ["--kind", "ridge", "--format", "dted", "--spacing-arcsec", "1", "--lat0", "-34.75",
         "--lon0", "-0.5", "--n-lat", "47", "--n-lon", "61", "--height", "600"],
        "27754b069949e86e451a2b4a71366bae103c7bac31bc879c7c392a25ab118320"),
    "plateau_dted2": (
        ["--kind", "plateau", "--format", "dted", "--spacing-arcsec", "1", "--lat0", "0.25",
         "--lon0", "-179.75", "--n-lat", "33", "--n-lon", "5", "--height", "-123.5"],
        "756fe96c3a4db2f772de2a7e9cca430a0101a75d85a90585744d26bac839d170"),
    "ridge_grid": (
        ["--kind", "ridge", "--format", "grid", "--lat0", "-34.70", "--lon0", "138.80",
         "--n-lat", "20", "--n-lon", "30", "--height", "812.25", "--geoid-n", "-3.5"],
        "3cc949d3f4b614d0e2d8e84002a68fc71192a4b5998766c382e0990d562e38df"),
}


@pytest.mark.parametrize("case", sorted(TILE_GOLDEN))
def test_gen_tile_bytes(case, tmp_path):
    args, expected = TILE_GOLDEN[case]
    tile = tmp_path / "tile"
    assert main(["gen-tile", "--out-path", str(tile)] + args) == 0
    assert sha256(tile.read_bytes()) == expected


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
        "a7808af2ecfe550ca7b4e0dbabae195acf1c81bf66bcfddae32ab6648fa5a08d",
    ("uav_refraction_air.json", "uav_refraction_vacuum.json"):
        "dc68829b887aee03add0f452c332f74e034673cf3efc28d65fb3e3784841ac73",
    ("uav_small_angle_air.json", "uav_small_angle_vacuum.json"):
        "c295694f2dc4f91ef2dd557b96940d63f3bbeb00f83ea1435c0ae523e9aeb742",
    ("uav_wide_angle_air.json", "uav_wide_angle_vacuum.json"):
        "a870b64a4a4ae0e1abb6b5ea95e22b1de5898baa1cce64908b13444e8892cb5e",
}


@pytest.mark.parametrize("pair", sorted(SHIFT_GOLDEN), ids=lambda p: f"{p[0][:-5]}+{p[1][:-5]}")
def test_shift_output_bytes(pair, capsys):
    capsys.readouterr()
    assert main(["shift", os.path.join(CONFIG_DIR, pair[0]), os.path.join(CONFIG_DIR, pair[1]),
                 "--detail", "--samples", "1440"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == SHIFT_GOLDEN[pair]
