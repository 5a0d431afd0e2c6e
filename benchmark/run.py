"""End-to-end and per-layer benchmark of the ``dopplergeo`` command.

One client drives ``dopplergeo.cli.main`` in-process, one request at a time
(a closed loop), with BLAS thread pools pinned to one thread. Inputs are
scenario files and terrain tiles generated from ``--seed``; tiles go through
``dopplergeo gen-tile``. Every op is checked outside the timed region (see
``checks.py``). The loop runs whole passes over the op list for about
``--seconds`` of wall time, so every run measures the same op mix. Op and
set-up times are CPU seconds of this process: an op is single-threaded and
does no blocking I/O, so that is its latency on an idle core, without the
time a shared host gives to other processes. They are divided by the run's
host scale (``calibrate.py``), so that they are those of a reference core.

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` each op runs once plain and once with the layer wrappers of
``tracer.py`` installed, and the line carries the per-layer metrics. The line
before it is a JSON record of the run: environment, op counts, per-config
times, the tail percentile used, the output digest and any failures. Both are
also written to ``.bench_out/`` at the repository root, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("sweep", "terrain_dense", "terrain_wide", "budget")
NPROC_CPUS = os.sched_getaffinity(0)  # before main() pins this process to one of them
NPROC = len(NPROC_CPUS)
SETUP_REPEATS = 5
WARMUP_OPS = 1
TAIL_BEYOND = 10  # samples the tail percentile leaves above it

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_TIMERS = ("dted.write_s", "gridfile.write_s")
COUNT_METRICS = ("intersect.rays", "intersect.visible", "terrain.rays", "terrain.hits",
                 "terrain.gaps", "terrain.oracle_mismatch", "terrain.posts", "dted.bytes",
                 "export.bytes")


def pin_blas_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


# --- environment -------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref:"):
        return head
    ref = head.split(None, 1)[1]
    commit = _read(ROOT / ".git" / ref)
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if commit is None and line.endswith(" " + ref):
            commit = line.split()[0]
    return commit


def cpu_info() -> dict:
    info = {"model": None}
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            info["model"] = line.split(":", 1)[1].strip()
            break
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            info[f"L{level}"] = _read(index / "size")
    return info


def environment(seed: int) -> dict:
    import numpy

    return {"git_commit": git_commit(), "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": NPROC, "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu": cpu_info(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


# --- running ops ---------------------------------------------------------------

class Runner:
    """Runs ops through the CLI, checks each one and keeps the measurements."""

    def __init__(self, cli, checks, calibrator, tracer=None):
        self.cli = cli
        self.checks = checks
        self.calibrator = calibrator
        self.tracer = tracer
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (op label, message)
        self.known_defects = set()  # (op label, message) of expected failures
        self.defect_runs = 0  # runs that hit a known defect
        self.digests = {}  # op label -> sha256 of its outputs on its first run
        self.first_checks = {}  # op label -> CheckResult of its first run
        self.exit_codes = {}  # op label -> exit code of its first run
        self.latency = []  # (op label, CPU seconds, traced) of measured ops
        self.wall = []  # wall seconds of the measured untraced ops
        self.last_wall = 0.0
        self.traced_calls = []  # tracer op ids of measured traced runs

    def call(self, argv, traced=False, counts=None):
        """Time one cli.main call: (exit code or None, stdout, CPU seconds, error).

        An op is single-threaded and does no blocking I/O, so its CPU time is
        its latency on an idle core; unlike wall time it leaves out the time
        the host scheduler gives to other processes. Wall time is kept in
        ``last_wall``."""
        self.calls += 1
        out = io.StringIO()
        # every op starts from a collected heap, as a fresh process would
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start_wall, start = time.perf_counter(), time.process_time()
            try:
                if traced:
                    rc = self.tracer.run(self.calls, counts, lambda: self.cli.main(argv))
                else:
                    rc = self.cli.main(argv)
                error = None
            except Exception:  # a raising op is a failed op, not a crashed run
                rc, error = None, traceback.format_exc().strip().splitlines()[-1]
            elapsed = time.process_time() - start
            self.last_wall = time.perf_counter() - start_wall
        return rc, out.getvalue(), elapsed, error

    def fail(self, label: str, messages):
        self.failed += 1
        self.failures.extend((label, m) for m in messages)

    def run_op(self, op, traced=False, counts=None, measured=True) -> float:
        """Run, digest and check one op; returns its latency in seconds.

        Only an op's first run and any run whose output differs from it are
        checked in full; a byte-identical repeat inherits the verdict."""
        if op.out_dir:
            shutil.rmtree(op.out_dir, ignore_errors=True)
        if measured:
            self.calibrator.sample()
        rc, stdout, elapsed, error = self.call(op.argv, traced, counts)
        self.attempted += 1
        self.exit_codes.setdefault(op.label, rc)
        if error is not None:
            self.fail(op.label, [f"raised {error}"])
            return elapsed
        files = self.checks.output_files(op.out_dir)
        digest = hashlib.sha256(f"exit {rc}\n".encode())
        for name, path in files.items():
            digest.update(name.encode() + b"\0" + Path(path).read_bytes())
        if op.kind == "shift":
            digest.update(stdout.encode())
        first = self.digests.setdefault(op.label, digest.hexdigest())
        if op.label in self.first_checks and first == digest.hexdigest():
            # byte-identical to a run already checked: the checks would agree
            result = self.first_checks[op.label]
        else:
            try:
                result = self.checks.check_op(op, rc, stdout, files)
            except Exception:  # a check that cannot read the output fails the op
                result = self.checks.CheckResult()
                result.fail("check raised " + traceback.format_exc().strip().splitlines()[-1])
            if first != digest.hexdigest():
                result.fail("determinism: output differs from this op's first run")
            self.first_checks.setdefault(op.label, result)
            self.known_defects.update((op.label, m) for m in result.known_defects)
        if result.known_defects:
            self.defect_runs += 1
        if result.failures:
            self.fail(op.label, result.failures)
        elif measured:
            self.latency.append((op.label, elapsed, traced))
            if traced:
                self.traced_calls.append(self.calls)
            else:
                self.wall.append(self.last_wall)
        return elapsed


def closed_loop(runner, ops, seconds, traced_pairs=False):
    """Run whole passes over ops for about `seconds` of wall time: another
    pass starts while at least half of the last one still fits (the first
    pass is slower, as it checks every output). Whole passes keep the
    op mix, and so the latency quantiles, the same from run to run. With
    traced_pairs each op runs plain and traced back to back, the order
    alternating from pass to pass. Returns the counters of the first traced
    pass."""
    start = time.perf_counter()
    first_counts = Counter()
    n_pass, pass_s = 0, 0.0
    while True:
        pass_start = time.perf_counter()
        if n_pass and pass_start - start + 0.5 * pass_s > seconds:
            break
        for op in ops:
            if not traced_pairs:
                runner.run_op(op)
                continue
            for traced in ((False, True) if n_pass % 2 == 0 else (True, False)):
                counts = first_counts if traced and n_pass == 0 else None
                runner.run_op(op, traced=traced, counts=counts)
        n_pass += 1
        pass_s = time.perf_counter() - pass_start
    return first_counts


def setup(runner, builder, seed, sizes, work: Path, traced: bool):
    """Generate the inputs SETUP_REPEATS times, each followed by the warm-up
    ops. Returns (inputs, seconds per repeat, digest of the tiles)."""
    times, tile_digests, inputs = [], [], None
    for rep in range(SETUP_REPEATS):
        rep_dir = work / f"inputs{rep}"
        rep_dir.mkdir(parents=True)
        start = time.process_time()
        inputs = builder(str(ROOT), str(rep_dir), seed, sizes)
        for argv in inputs.gen_tile_argv:
            rc, _, _, error = runner.call(argv, traced=traced)
            runner.attempted += 1
            if rc != 0:
                runner.fail("gen-tile", [error or f"exit code {rc}"])
        elapsed = time.process_time() - start
        elapsed += sum(runner.run_op(op, measured=False) for op in inputs.ops[:WARMUP_OPS])
        times.append(elapsed)
        digest = hashlib.sha256()
        for path in inputs.tiles:
            digest.update(Path(path).read_bytes())
        tile_digests.append(digest.hexdigest())
    if len(set(tile_digests)) != 1:
        runner.fail("gen-tile", ["determinism: tiles differ between set-up repeats"])
    return inputs, times, tile_digests[-1]


# --- metrics -------------------------------------------------------------------

def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile that
    leaves TAIL_BEYOND samples above it, or the maximum when there are too
    few samples."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = n - 1 - TAIL_BEYOND
    return s[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def end_to_end_metrics(runner, setup_times, scale) -> tuple:
    """Metrics of the untraced ops, times divided by the host speed `scale`."""
    lat = [t / scale for _, t, traced in runner.latency if not traced] or [float("inf")]
    value, pct, beyond = tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * value,
        "setup_s": statistics.median(setup_times) / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_record = {"percentile": round(pct, 2), "samples": len(lat), "beyond": beyond}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, tail_record


def per_layer_units(tracer_mod) -> dict:
    units = {name: "s" for name in sorted(set(tracer_mod.LAYER_TIMERS.values()))}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({f"intersect.topo.{label}": "count" for label in tracer_mod.TOPOLOGY_LABELS})
    units.update({"terrain.hit_ratio": "ratio", "fail_ratio": "ratio", "trace.overhead_pct": "%"})
    return units


def per_layer_metrics(runner, tracer_mod, first_counts, scale) -> dict:
    """Metrics of the traced run; self times are divided by the host speed
    `scale` like the end-to-end times."""
    units = per_layer_units(tracer_mod)
    values = {name: 0.0 for name in units}
    measured = set(runner.traced_calls)
    per_metric: dict = {}
    for op_id, layers in runner.tracer.self_times().items():
        for name, seconds in layers.items():
            # writer spans come from the traced gen-tile calls of the set-up
            if op_id in measured or name in SETUP_TIMERS:
                per_metric.setdefault(name, []).append(seconds)
    for name, seconds in per_metric.items():
        values[name] = statistics.median(seconds) / scale
    for name, n in first_counts.items():
        if name in values:
            values[name] = float(n)
    if values["terrain.rays"]:
        values["terrain.hit_ratio"] = values["terrain.hits"] / values["terrain.rays"]
    values["terrain.oracle_mismatch"] = float(
        sum(r.oracle_mismatch for r in runner.first_checks.values()))
    values["fail_ratio"] = (runner.failed + runner.defect_runs) / runner.attempted
    plain = sum(t for _, t, traced in runner.latency if not traced)
    traced = sum(t for _, t, traced in runner.latency if traced)
    if plain:
        values["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    return {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Run one workload; returns (result line, run record, runner)."""
    from dopplergeo import cli

    import calibrate
    import checks
    import inputs as inputs_mod
    import tracer as tracer_mod

    sizes = sizes or inputs_mod.FULL
    calibrator = calibrate.Calibrator()
    runner = Runner(cli, checks, calibrator, tracer_mod.Tracer(cli) if trace else None)
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, setup_times, tile_digest = setup(runner, inputs_mod.BUILDERS[workload],
                                                 seed, sizes, work, trace)
        first_counts = closed_loop(runner, inputs.ops, seconds, traced_pairs=trace)
    finally:
        calibrator.close()
        shutil.rmtree(work, ignore_errors=True)
    scale = calibrate.scale(calibrator.samples)
    digest = hashlib.sha256(tile_digest.encode())
    for op in inputs.ops:
        digest.update(runner.digests.get(op.label, "missing").encode())
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(seed),
        "ops": {"per_pass": len(inputs.ops), "attempted": runner.attempted,
                "failed": runner.failed, "measured": len(runner.latency),
                "tiles": len(inputs.tiles)},
        "output_sha256": digest.hexdigest(),
        "op_clock": {"cpu_s": sum(t for _, t, traced in runner.latency if not traced),
                     "wall_s": sum(runner.wall), "host_scale": scale,
                     "kernel_median_s": {k: statistics.median(s[k] for s in calibrator.samples)
                                         for k in calibrate.REFERENCE_S}},
        "setup_repeats_s": setup_times,
        "configs": config_record(runner, inputs.ops, scale),
        "max_residuals": {
            "ellipsoid": max((r.max_ellipsoid_residual for r in runner.first_checks.values()),
                             default=0.0),
            "cone": max((r.max_cone_residual for r in runner.first_checks.values()),
                        default=0.0)},
        "failures": [f"{label}: {m}" for label, m in runner.failures[:20]],
        "known_defects": sorted(f"{label}: {m}" for label, m in runner.known_defects),
    }
    if trace:
        metrics = per_layer_metrics(runner, tracer_mod, first_counts, scale)
        record["unmeasured_layers"] = runner.tracer.unmeasured
        record["count_errors"] = runner.tracer.count_errors
    else:
        metrics, record["tail"] = end_to_end_metrics(runner, setup_times, scale)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, record, runner


def config_record(runner, ops, scale) -> dict:
    """Exit code and median op time, scaled like the metrics, of every
    committed config the workload ran."""
    record = {}
    for op in ops:
        if op.committed:
            times = [t for label, t, traced in runner.latency if label == op.label and not traced]
            record[op.committed] = {
                "exit_code": runner.exit_codes.get(op.label),
                "op_ms_median": 1e3 * statistics.median(times) / scale if times else None}
    return record


def write_out(workload, seed, trace, record, result, runner):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (out / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1, sort_keys=True))
    if trace:
        with open(out / f"{stem}-spans.jsonl", "w", encoding="utf-8") as f:
            for span in runner.tracer.span_records():
                f.write(json.dumps(span) + "\n")


# --- self-test -------------------------------------------------------------------

def smoke() -> int:
    """Run every workload at tiny sizes, traced and not, and check that every
    metric BENCHMARK.json names is reported with its unit."""
    import inputs as inputs_mod

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, record, _ = run_workload(workload, 1, 0.2, trace, inputs_mod.SMOKE)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={int(trace)}: metrics {got} != {want}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {record['failures']}")
            print(f"smoke {workload} trace={int(trace)}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {len(got)} metrics")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"workloads {names} != {list(WORKLOADS)}")
    for p in problems:
        print("smoke FAIL:", p)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast self-test at tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    pin_blas_threads()
    # one core for the ops and the calibration helper, which inherits it
    os.sched_setaffinity(0, {min(NPROC_CPUS)})
    src = ROOT / "src"
    if not (src / "dopplergeo" / "__init__.py").is_file():
        print(f"benchmark: no dopplergeo package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.smoke:
        return smoke()
    result, record, runner = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    write_out(args.workload, args.seed, args.trace, record, result, runner)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
