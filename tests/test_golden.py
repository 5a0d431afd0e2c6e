"""Golden bytes: `dopplergeo intersect` on every committed config.

The README promises byte-identical output for identical configs; these
hashes pin the KML, the GeoJSON and the printed report (with the output
directory masked) so that refactors of the sweep cannot move a coordinate
digit or a topology label. Regenerate only for a deliberate output change.
"""

import hashlib
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
