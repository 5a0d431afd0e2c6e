import contextlib
import io
import math
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quickstart_source() -> str:
    """The fenced python block under the README's "Library quickstart"."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_library_quickstart_runs():
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart_source(), README, "exec"), namespace)
    lines = out.getvalue().splitlines()
    topology, semi_angle = lines[0].split()
    assert topology == namespace["curve"].topology == "single_closed_curve"
    assert float(semi_angle) == math.degrees(namespace["cone"].semi_angle)
    terrain = namespace["terrain"]
    assert len(terrain.points) > 0
    assert lines[1] == f"{len(terrain.points)} {terrain.gaps}"
    assert len(namespace["lat"]) == len(terrain.points)
