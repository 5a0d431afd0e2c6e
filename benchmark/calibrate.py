"""Host-speed calibration for the benchmark's timings.

A core of a shared host does not keep one speed: other tenants' load on the
shared caches and on the package's clock moves the CPU time of a fixed piece
of work by 30% and more within minutes, longer than one run. So a run also
times two fixed reference kernels before every measured op and divides its
times by ``scale()``: the geometric mean, over the two kernels, of the
run's median kernel time relative to the kernel's time on the reference
core. The reported times are then those of the reference core, and runs
made at different times compare.

The kernels run in a helper process (``Calibrator``) pinned to the op's
core, so that their memory does not count in the benchmark's peak RSS and
their timings do not depend on the state the program leaves in the heap.

The kernels stand for the two kinds of work an op does:

- ``interpreter``: a Python loop that builds small numpy vectors and frozen
  dataclasses and takes short window medians, as the ray sweep and its
  break test do; it runs from the core's own caches.
- ``memory``: numpy arithmetic over 16 MB arrays, larger than a core's L2,
  like the terrain posts and ``curve_shift``'s temporaries.

Neither calls ``dopplergeo``, so a change to the program leaves them alone
and shows in full in the scaled times. On the reference host, dividing by
the scale halved the spread of op times over a five-minute window.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# Median CPU seconds of each kernel in the helper on the reference core
# (2-CPU Xeon VM with 2 MiB of L2 per core, Python 3.11.7, numpy 2.4.6);
# scaled times are given at that speed.
REFERENCE_S = {"interpreter": 0.0030, "memory": 0.016}

_ETA = np.linspace(0.0, 2.0 * np.pi, 320)
_DIRS = np.stack([np.cos(_ETA), np.sin(_ETA), np.full_like(_ETA, 0.3)], axis=-1)
_APEX = np.array([1.0, 2.0, 3.0])
# only the helper process holds the memory kernel's array
_BIG = np.linspace(0.0, 1.0, 2_000_000) if __name__ == "__main__" else None


@dataclass(frozen=True)
class _Hit:
    s: float
    point: np.ndarray
    tangent: bool


def _interpreter() -> int:
    hits = []
    for i in range(300):
        hits.append(_Hit(float(i), _APEX + float(i) * _DIRS[i], bool(i & 1)))
        if i % 4 == 0:
            float(np.median(_DIRS[i:i + 8, 0]))
    return len(hits)


def _memory() -> float:
    a = _BIG * 1.5 + 0.25
    return float((a * np.sqrt(a)).sum())


KERNELS = {"interpreter": _interpreter, "memory": _memory}


def sample() -> dict:
    """CPU seconds of one call of each kernel, each called once untimed
    first, so that it runs from warm caches whatever ran before it."""
    times = {}
    for name, kernel in KERNELS.items():
        kernel()
        start = time.process_time()
        kernel()
        times[name] = time.process_time() - start
    return times


def serve():
    """Helper loop: one JSON sample per line read from stdin, until EOF."""
    for _ in sys.stdin:
        print(json.dumps(sample()), flush=True)


class Calibrator:
    """The helper process; ``sample()`` asks it for one sample and keeps it."""

    def __init__(self):
        self.samples = []
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def sample(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(json.loads(self.proc.stdout.readline()))

    def close(self):
        """End the helper and wait for it, killing it if it hangs."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scale(samples: list) -> float:
    """How much slower than the reference core the run's core was: the
    geometric mean over the kernels of median time / reference time."""
    ratios = [statistics.median(s[name] for s in samples) / ref
              for name, ref in REFERENCE_S.items()]
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


if __name__ == "__main__":
    serve()
