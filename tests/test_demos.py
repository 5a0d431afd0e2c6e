"""Demo outputs: every demos/*.py, run from a copy, writes the committed bytes.

A demo writes into the output/ directory beside its own file, so a copy in
a temporary directory leaves demos/output/ untouched. Like the golden
hashes, the comparison holds for one numpy build and CPU dispatch level:
numpy's AVX-512 arctan2 rounds some latitudes and longitudes differently
from its baseline loop.
"""

import os
import runpy
import shutil

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
COMMITTED = os.path.join(DEMO_DIR, "output")


def test_demos_write_committed_bytes(tmp_path, capsys):
    written = []
    for demo in sorted(f for f in os.listdir(DEMO_DIR) if f.endswith(".py")):
        script = tmp_path / demo[:-3] / demo
        script.parent.mkdir()
        shutil.copy(os.path.join(DEMO_DIR, demo), script)
        runpy.run_path(str(script), run_name="__main__")
        out_dir = script.parent / "output"  # only the demos that write files make it
        for out in sorted(out_dir.iterdir() if out_dir.exists() else []):
            written.append(out.name)
            with open(os.path.join(COMMITTED, out.name), "rb") as f:
                assert out.read_bytes() == f.read(), (demo, out.name)
    assert sorted(written) == sorted(os.listdir(COMMITTED))
