"""Golden bytes: `dopplergeo intersect` on every committed config, the tiles
`gen-tile` writes, `dopplergeo terrain` on such tiles and on tiles holding
voids, and `dopplergeo shift --detail` on the committed config pairs.

The README promises byte-identical output for identical configs; these
hashes pin the KML, the GeoJSON and the printed report (with the output
directory masked) so that refactors of the sweep, the terrain search and
the curve-shift search cannot move a coordinate digit, a distance, a gap or
a topology label. Regenerate only
for a deliberate output change.

The promise holds for one numpy build and CPU dispatch level: numpy's
AVX-512 loop for arctan2, which gives every output point its latitude and
longitude, rounds differently from its baseline loop (heights no longer
differ). With that dispatch disabled (numpy 2.4:
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") every intersect
and terrain case here fails, and so does tests/test_demos.py; the shift
and gen-tile cases convert nothing to geodetic and pass.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from dopplergeo.cli import main
from dopplergeo.dted import write_dted
from dopplergeo.gridfile import make_ridge_grid, write_portable_grid
from dopplergeo.terrain import TerrainGrid

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")

# config -> (intersect.kml, intersect.geojson, stdout) sha256
GOLDEN = {
    "leos_offset_nominal.json": (
        "2868a55dcd3dc5b291c822d510efeee20e6ae79423913af104b32aacdbfa5c7f",
        "9500f16c95da19d9cc30b03a476ecb914e819fbf045e77f2eb1646646fc43ca8",
        "6891d4c42c229967c61885d6e1ac04a27d0645194fa4ede778d534ad662f4b00"),
    "leos_offset_true.json": (
        "6801a5b4221150a1c0a374469cada9eea485ae2fef80d246d449e6a353f2d2fe",
        "57d7e4f2d67d2f3bec1b10012c53046400df7dcca9d0373b68587d927b7a1424",
        "6891d4c42c229967c61885d6e1ac04a27d0645194fa4ede778d534ad662f4b00"),
    "uav_adelaide_forced_angle.json": (
        "4d011d52a4b59205773ff6166317ec8df2e210f0a374b97f85e15ed720405076",
        "9d5a485d75f1d78fcd7d673fe3a4fb12646b1b0d86099cdf15a3137c9a7a2d67",
        "02c22c7a2ac3ae21d48a80cf1780fdd31d11ad0835ebf000867f38c7af2ac529"),
    "uav_offset_nominal.json": (
        "2d953b675a82ead354968dd5a41745bdce45266d477db83573824838e9174764",
        "b3ce6d7a03128a21f5ed7340606a65b92a3d95e0bbe72311163c56bc02baa6d3",
        "243d3974f62b33babf6b4bc83daa6523eab7b0060fe26b5f2f33c1d89f0ede23"),
    "uav_offset_true.json": (
        "9d643bae8755d3df93123b7da48ac43849d4f44e2babe4df5e0e4264737a2157",
        "c0d173eaac7179baf77a9e4731165cf8b9c4e9617f970e3198aa166fc9668828",
        "0080b56cd7a638da3c174f2b05dea35f3b805361a00f53329c1729d446836a92"),
    "uav_refraction_air.json": (
        "7e895839711ecdf064bfeb5a0372bb793508095285f06dcb958253054ebebd6c",
        "0af0d9d38ab7ffdcfeea38596e7bd74477e5878e80a16f6250352ec7468be2fc",
        "243d3974f62b33babf6b4bc83daa6523eab7b0060fe26b5f2f33c1d89f0ede23"),
    "uav_refraction_vacuum.json": (
        "f08bea42d1234f8f9d2da2d036784e55341ef3ac0c3be2007564193ce76b51a1",
        "da248b4aa1cf091a539aa78e2577f55a42a0663fe71f033ef6b79d13895c248b",
        "ec5ced2b8a00cf45e004049912850ca74692923300cf0d5461b209712d62a800"),
    "uav_small_angle_air.json": (
        "c320f8efdc432ac46bbf59b0ee49b22281610e6cff737b629188346ec4ec7468",
        "2d9c55bdb4db4501cd3944daf904a3db1d7c310e7e24b25f81b8584336b19601",
        "02c22c7a2ac3ae21d48a80cf1780fdd31d11ad0835ebf000867f38c7af2ac529"),
    "uav_small_angle_vacuum.json": (
        "2aecad021b20740a9ab74a35c9bc545ca0ea215fe36fd4869ab7bfb38f58e3f3",
        "e96e658ea0f6d3613a3d6a52f8b8ea6044b7902e7d2368a611bfb23099e8aab7",
        "02c22c7a2ac3ae21d48a80cf1780fdd31d11ad0835ebf000867f38c7af2ac529"),
    "uav_wide_angle_air.json": (
        "f5099867d21703241005f730f3f17c0f6fcc76e7a93066ed34d521ede8f187e7",
        "9e2d31f04535e81de58423e5fd0f2ea13e981e5c4e01719423f808172f49b52d",
        "65ad4ae54db7661ec655e18f937c8b7339d36d6f22f9f3df7f66fdd883b191fb"),
    "uav_wide_angle_vacuum.json": (
        "3dc48beeec3a28a93fe1c0749c8dea6d782d1fbcad5ac4b227103fca5405c582",
        "49a7a8787b100cce67c1c228b33d981b0679e4fedec846cd76c581e41c45d38f",
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
            "0408a9a18712d4fb3664bbf1f96d721145fe593283fe6c93c658272f97974691",
            "a8605c03b8781662528250e84a22e09cdd493b261af18f80d37c0e48d31f4845",
            "ef24c2810702583f6bbb66f0f4dc62184e9e51b42f0226c2eda1364a44d06403")),
    # covers the curve's northern part only, so the report carries gaps
    "ridge_dted": (
        ["--kind", "ridge", "--format", "dted", "--lat0", "-34.6525", "--lon0", "138.825",
         "--n-lat", "60", "--n-lon", "40", "--height", "400"],
        {"vehicle": STEEP_UAV, "measurement": {"semi_angle_deg": 15.0},
         "sweep": {"n_samples": 360}},
        (
            "b6958ad230d41e1ccd681f28696bee36e7b5a97ab8097c428081b7cca1c05435",
            "27543e4121bd47e62151c53408279ab75ac784bda7bf4dd37ac74e5c2d030386",
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
            "1e9488eb2ca0a2172bdc34cab52e8901c1b1a5c2d00b311bf07770c7e6d1b7f0",
            "14e320911b7e211dfd3edf7e69765d1f65fa317241d3ba5d9f04a2235c87fc7a",
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
    return run_terrain(dict(scenario, terrain={"path": str(tile), "format": fmt}), tmp_path, capsys)


def run_terrain(scenario: dict, tmp_path, capsys) -> tuple[str, str, str]:
    """`dopplergeo terrain` on the scenario: the sha256 of terrain.kml,
    terrain.geojson and stdout."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
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


# void-tile cases: a ridge tile with 2 % scattered voids and one 20 x 20 void
# patch over the south-west of the curve, as a 3" portable grid or a 1"
# DTED tile, under a scalar undulation or a companion undulation grid (DTED
# has no companion: its undulation is the config's geoid_n_m, given or not).
# Each case gives the tile format, posts a side and south-west corner, the
# patch's first row and column and the undulation; then the sha256 of the
# tile file (and companion), and of terrain.kml, terrain.geojson and stdout.
VOID_GOLDEN = {
    "grid_scalar": (
        ("grid", 40, -34.665, 138.815, (0, 0), -3.5),
        (("53a0ca3d8a73109269a71f797a25d16f4804906818687b2c21074f8f478d5023",),
         ("85e77e0b846fe1cde34f9306e144b102d3c14d305e59bb108991fdcd89abab27",
          "e704d5b13e8e62500e8ce618a2736bdecde68eefebaf3e86abcc9ce24a90fa09",
          "a96ca9565e153c5c351fd87d4f1c0da99317521fa641dd71980863a03b8221f3"))),
    "grid_companion": (
        ("grid", 40, -34.665, 138.815, (0, 0), "grid"),
        (("cc7c17b3af018a80a395aef2eec1ba76da8b1d0ac666d9726feb42dd09e826d6",
          "130bb7e86bca6abfc96993099229aa525fe55d99ea482694745c24360a981a67"),
         ("7a5eb00c7f2d21aa49cdfe035d32aec2bd38dc2edae1108bb0548c91efd13132",
          "80b46f5231b4f4dbf4d4256ab247b6cc4f690d7bba7aa4015a27b897348b1640",
          "ba9e5609caf20c5af5bb4e56f264bbd0371c9fa6319ebe57dd82ed08aea490f4"))),
    "dted": (
        ("dted", 100, -34.66, 138.82, (25, 25), None),
        (("58b6642fa9f551e982f859532bd55626ab1e5577476f2c39a4a90b16eabc30c6",),
         ("f44938ad24d91b9b35a9590ce371aebc2db5e1bc53ddf708762d8d5496c087fc",
          "37e58a99e938e4f660aaf0539cb92077e379ad273f41fe5575fc6ef6792eae70",
          "4bd98afcb2679e16d7e8ce72a8aa5ed51c6494627f48c2954a40a5ec8e94245e"))),
    "dted_geoid_n": (
        ("dted", 100, -34.66, 138.82, (25, 25), 12.5),
        (("58b6642fa9f551e982f859532bd55626ab1e5577476f2c39a4a90b16eabc30c6",),
         ("21050f95682185d29f9cd1f4b748db39d9d18cca9516694767930695fe666fc9",
          "c8ec6560acdddd8771314f645583118b10b602d608b5f85eabdafd1fa42f3705",
          "cb2d05d9c03d3224b3d5fc328e8a02fe0e1a719d859c73625a27afc669a9f673"))),
}


def void_tile(fmt: str, n: int, lat0: float, lon0: float, patch) -> TerrainGrid:
    spacing = (1.0 if fmt == "dted" else 3.0) / 3600.0
    grid = make_ridge_grid(lat0, lon0, spacing, spacing, n, n, 600.0)
    grid.H[np.random.default_rng(28).random(grid.H.shape) < 0.02] = np.nan
    grid.H[patch[0]:patch[0] + 20, patch[1]:patch[1] + 20] = np.nan
    return grid


def void_tile_hashes(case: str, tmp_path, capsys):
    (fmt, n, lat0, lon0, patch, undulation), _ = VOID_GOLDEN[case]
    grid = void_tile(fmt, n, lat0, lon0, patch)
    terrain = {"format": fmt}
    if fmt == "dted":
        files = {"tile.dt2": write_dted(grid)}
        if undulation is not None:
            terrain["geoid_n_m"] = undulation
    elif undulation == "grid":
        # a smooth undulation of about 18-25 m, written beside the tile
        rows, cols = np.indices(grid.H.shape)
        n_grid = dataclasses.replace(grid, H=20.0 + 0.125 * rows - 0.0625 * cols)
        text = write_portable_grid(grid).replace("geoid_n = 0.0", "geoid_grid = n.grid")
        files = {"tile.grid": text.encode(), "n.grid": write_portable_grid(n_grid).encode()}
    else:
        files = {"tile.grid": write_portable_grid(dataclasses.replace(grid, N=undulation)).encode()}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    terrain["path"] = str(tmp_path / next(iter(files)))
    scenario = {"vehicle": STEEP_UAV, "measurement": {"semi_angle_deg": 15.0},
                "sweep": {"n_samples": 360}, "terrain": terrain}
    return (tuple(sha256(data) for data in files.values()),
            run_terrain(scenario, tmp_path, capsys))


@pytest.mark.parametrize("case", sorted(VOID_GOLDEN))
def test_void_tile_terrain_bytes(case, tmp_path, capsys):
    assert void_tile_hashes(case, tmp_path, capsys) == VOID_GOLDEN[case][1]
