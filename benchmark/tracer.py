"""Span tracer for the traced benchmark run.

The tracer wraps the public names that ``dopplergeo.cli`` calls, in that
module's namespace, so the package source stays untouched. Each call records
a span (op, name, start, end, parent) in memory; a layer's self time is its
span minus its child spans. Counters read the arguments and results at the
same boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

# cli-namespace name -> per-layer time metric
LAYER_TIMERS = {
    "intersect_cone_ellipsoid": "intersect.sweep_s",
    "cone_terrain_curve": "terrain.map_s",
    "grid_to_ecef_posts": "terrain.posts_s",
    "read_dted": "dted.read_s",
    "load_portable_grid": "gridfile.read_s",
    "write_dted": "dted.write_s",
    "write_portable_grid": "gridfile.write_s",
    "write_kml": "export.kml_s",
    "write_geojson": "export.geojson_s",
    "ecef_to_geodetic_arrays": "geodesy.to_geodetic_s",
    "curve_shift": "analysis.shift_s",
    "build_cone": "cone.build_s",
    "cone_from_geometry": "cone.build_s",
    "load_config": "cli.config_s",
    "write_outputs": "cli.write_s",
}

TOPOLOGY_LABELS = ("empty", "tangent_point", "single_closed_curve", "two_curves", "open_arc")


def _count_intersect(args, result, counts):
    counts["intersect.rays"] += len(result.etas)
    counts["intersect.visible"] += len(result.points_near)
    counts[f"intersect.topo.{result.topology}"] += 1


def _count_terrain(args, result, counts):
    counts["terrain.rays"] += len(args[0].points_near)
    counts["terrain.hits"] += len(result.points)
    counts["terrain.gaps"] += len(result.gaps)


def _count_posts(args, result, counts):
    counts["terrain.posts"] += len(result.ecef)


def _count_dted(args, result, counts):
    counts["dted.bytes"] += len(args[0])


def _count_export(args, result, counts):
    counts["export.bytes"] += len(result)


COUNTERS = {
    "intersect_cone_ellipsoid": _count_intersect,
    "cone_terrain_curve": _count_terrain,
    "grid_to_ecef_posts": _count_posts,
    "read_dted": _count_dted,
    "write_kml": _count_export,
    "write_geojson": _count_export,
}


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_time: float = 0.0


class Tracer:
    """Installs timing wrappers on a module for the duration of one op."""

    def __init__(self, module):
        self.module = module
        self.spans: list[Span] = []
        self.unmeasured = sorted(n for n in LAYER_TIMERS if not callable(getattr(module, n, None)))
        self.count_errors: dict[str, str] = {}
        self._originals = {n: getattr(module, n) for n in LAYER_TIMERS if n not in self.unmeasured}
        self._stack: list[int] = []
        self._op = -1
        self._counts = None

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self._op, name, time.process_time(),
                        parent=self._stack[-1] if self._stack else -1)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_time += span.end - span.start
            if counter is not None and self._counts is not None:
                try:
                    counter(args, result, self._counts)
                except (AttributeError, IndexError, TypeError) as exc:
                    # a refactor moved the counted attribute: report, keep tracing
                    self.count_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            return result

        return traced

    def run(self, op_index: int, counts, fn):
        """Call fn() with every layer wrapped; counts collects the counters
        (pass None to skip counting)."""
        self._op, self._counts = op_index, counts
        for name, original in self._originals.items():
            setattr(self.module, name, self._wrap(name, original))
        try:
            return fn()
        finally:
            for name, original in self._originals.items():
                setattr(self.module, name, original)
            self._op, self._counts = -1, None

    def self_times(self) -> dict:
        """op index -> {time metric: summed self time in seconds}."""
        per_op: dict = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            per_op[span.op][LAYER_TIMERS[span.name]] += (span.end - span.start) - span.child_time
        return per_op

    def span_records(self):
        for i, s in enumerate(self.spans):
            yield {"id": i, "op": s.op, "name": s.name, "start": s.start, "end": s.end,
                   "parent": s.parent}
