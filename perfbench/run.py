"""The repository benchmark: one command, four workloads, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-kernels --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sim-kernels`` / ``sim-weak-lossy`` — :mod:`sims`
* ``compile`` — :mod:`compiles`
* ``serve`` — :mod:`serving`
* ``all`` — every workload in turn, one result line each

Every run builds its inputs from ``--seed``, sets up five times (the
median is ``setup_s``), measures whole rounds of work for about
``--seconds`` seconds, then checks every output against an independent
reference outside the timed phase.  Each end-to-end quantity sums, over
the operations it covers, each operation's median across repetitions;
durations are rescaled to a reference host speed measured alongside
(see ``common.SpeedProbe``; the report lines also print raw values).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the run instead sets up
once, brackets one traced round between two untraced ones, and reports
the per-layer metrics (spans are written to ``.bench_out/``).
``--smoke`` shrinks every input for the self-test.

Exit status: 0 when every output checked out; 1 when a check failed or
a workload could not run (a result line with ``"correct": false`` is
still printed); 2 when the program itself cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback

_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import (  # noqa: E402
    SIM_LEVELS,
    CheckFailed,
    HarnessError,
    Recorder,
    SpeedProbe,
    median,
    op_medians,
    peak_rss_mb,
    percentile,
    pooled,
    well_sampled,
)

try:
    import repro  # noqa: E402,F401
    import compiles  # noqa: E402
    import serving  # noqa: E402
    import sims  # noqa: E402
    import tracing  # noqa: E402
except ImportError as exc:
    print(f"perfbench: cannot import the program under test: {exc}",
          file=sys.stderr)
    sys.exit(2)

IMPORT_S = time.perf_counter() - _START

WORKLOADS = ("sim-kernels", "sim-weak-lossy", "compile", "serve")
SETUP_REPEATS = 5
#: Host-speed probes at each end of a phase (their median resists one
#: probe disturbed by a neighbour).
PROBES_AT_ENDS = 3
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: End-to-end metric -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    **{f"sim_s.{level}": "s" for level in SIM_LEVELS},
    "sim_cycles": "cycles",
    "compile_s": "s",
    "sweep_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "req_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def make_workload(name: str, seed: int, smoke: bool, seconds: float,
                  workdir: str):
    if name == "sim-kernels":
        return sims.SimKernels(seed, smoke)
    if name == "sim-weak-lossy":
        return sims.SimWeakLossy(seed, smoke)
    if name == "compile":
        return compiles.CompileWorkload(seed, smoke)
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return serving.ServeWorkload(seed, smoke, seconds, workdir, env)


def timed_round(workload, index: int, tracer=None,
                probe=None) -> Recorder:
    rec = Recorder(probe)
    with workload.placement(probe):
        rec.probe_host(PROBES_AT_ENDS)
        start = time.perf_counter()
        workload.round(rec, index, tracer)
        rec.wall_s = time.perf_counter() - start
        rec.probe_host(PROBES_AT_ENDS)
    return rec


def measure(workload, seconds: float, probe):
    """Whole rounds until the next one would overrun ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(timed_round(workload, len(rounds), probe=probe))
        elapsed = time.perf_counter() - start
        if elapsed + rounds[-1].wall_s > seconds:
            return rounds


def same_cycles(phases) -> None:
    """``sim_cycles`` is deterministic: every repetition must repeat it."""
    for key, cycles in sorted(pooled(phases, "sim_cycles").items()):
        if len(set(cycles)) != 1:
            raise CheckFailed(f"{key}: simulated cycles differ between "
                              f"repetitions: {sorted(set(cycles))}")


def end_to_end(workload, setups, setup_walls, phases, rounds):
    """Reference-speed values, raw values, and the samples behind each.

    Durations carry power 1 of their phase's speed factor, rates -1,
    counts 0 (see ``common.SpeedProbe``).
    """
    values, raw, notes = {}, {}, {}

    def setup_seconds(power: int) -> float:
        factors = [rec.speed_factor() ** power for rec in setups]
        return IMPORT_S * factors[0] + median(
            [wall * factor for wall, factor in zip(setup_walls, factors)])

    values["setup_s"], raw["setup_s"] = setup_seconds(1), setup_seconds(0)
    notes["setup_s"] = f"imports + median of {len(setup_walls)} set-ups"
    for name in [f"sim_s.{level}" for level in SIM_LEVELS] + [
            "sim_cycles", "compile_s", "sweep_s"]:
        power = 0 if name == "sim_cycles" else 1
        ops = pooled(phases, name, power)
        if not ops:
            raise HarnessError(f"{workload.name} measured no {name}")
        values[name] = sum(median(samples) for samples in ops.values())
        if power:
            raw[name] = sum(median(samples) for samples
                            in pooled(phases, name).values())
        repeats = sorted({len(samples) for samples in ops.values()})
        notes[name] = (f"sum over {len(ops)} operations of the median of "
                       f"{'/'.join(map(str, repeats))} repetitions")
    latencies = op_medians(rounds, "latency_ms", 1)
    if not latencies:
        raise HarnessError(f"{workload.name} completed no operation")
    raw_latencies = op_medians(rounds, "latency_ms")
    pct, tail = well_sampled(latencies)
    values["req_p50_ms"] = median(latencies)
    values["req_p99_ms"] = percentile(latencies, 99)
    raw["req_p50_ms"] = median(raw_latencies)
    raw["req_p99_ms"] = percentile(raw_latencies, 99)
    notes["req_p50_ms"] = notes["req_p99_ms"] = (
        f"n={len(latencies)}, well-sampled p{pct:g} = {tail:.6g} ms")
    windows = pooled(rounds, "req_per_s", -1)
    if windows:
        values["req_per_s"] = median(
            [value for samples in windows.values() for value in samples])
        raw["req_per_s"] = median([value for samples in pooled(
            rounds, "req_per_s").values() for value in samples])
        notes["req_per_s"] = f"median of {len(windows)} closed loop(s)"
    else:
        values["req_per_s"] = 1000.0 * len(latencies) / sum(latencies)
        raw["req_per_s"] = 1000.0 * len(latencies) / sum(raw_latencies)
        notes["req_per_s"] = "operations over their summed median latency"
    attempted = sum(rec.attempted for rec in rounds)
    failed = sum(rec.failed for rec in rounds)
    values["ok_ratio"] = (attempted - failed) / attempted
    notes["ok_ratio"] = f"{attempted - failed} of {attempted} operations"
    values["peak_rss_mb"] = peak_rss_mb(children=workload.rss_of_children)
    notes["peak_rss_mb"] = ("the daemon" if workload.rss_of_children
                            else "this process")
    for name, value in raw.items():
        notes[name] += f"; raw {value:.6g}"
    return values, notes, attempted, failed


def run_untraced(name, args, workdir):
    workload = make_workload(name, args.seed, args.smoke, args.seconds,
                             workdir)
    probe = SpeedProbe()
    setups, walls = [], []
    try:
        for _ in range(SETUP_REPEATS):
            workload.teardown()
            rec = Recorder(probe)
            rec.probe_host(PROBES_AT_ENDS)
            start = time.perf_counter()
            workload.setup(rec)
            walls.append(time.perf_counter() - start)
            rec.probe_host(PROBES_AT_ENDS)
            setups.append(rec)
        rounds = measure(workload, args.seconds, probe)
    finally:
        workload.teardown()
    checks = Recorder(probe)
    checks.probe_host(PROBES_AT_ENDS)
    workload.check(checks)
    checks.probe_host(PROBES_AT_ENDS)
    phases = setups + rounds + [checks]
    same_cycles(phases)
    values, notes, attempted, failed = end_to_end(
        workload, setups, walls, phases, rounds)
    print(f"host speed: median probe {median(probe.samples) * 1000:.3f} ms "
          f"over {len(probe.samples)} probes (reference "
          f"{SpeedProbe.REFERENCE_S * 1000:g} ms)")
    for rec in rounds:
        for failure in rec.failures[:10]:
            print(f"  failed: {failure}")
    print(f"{name}: seed {args.seed}, {len(rounds)} round(s), "
          f"{attempted} operations, {failed} failed")
    for metric, unit in END_TO_END.items():
        print(f"  {metric:<14} {values[metric]:>14.6g} {unit:<6} "
              f"({notes[metric]})")
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in END_TO_END.items()}
    return attempted, failed, metrics


def run_traced(name, args, workdir):
    workload = make_workload(name, args.seed, args.smoke, args.seconds,
                             workdir)
    tracer = tracing.Tracer()
    setup = Recorder()
    try:
        workload.setup(setup)
        before = timed_round(workload, 0)
        with tracer.active():
            traced = timed_round(workload, 1, tracer)
        serve_metrics = workload.serve_metrics()
        after = timed_round(workload, 2)
    finally:
        workload.teardown()
    same_cycles([before, traced, after])
    workload.check(Recorder())
    summary = tracer.summarize()
    tracer.cross_check(summary, traced.counts)
    # Counters come from the traced round, except codegen's: the
    # simulation workloads compile their programs in set-up.
    counts = dict(traced.counts)
    for key, amount in setup.counts.items():
        if key.startswith("codegen."):
            counts[key] = counts.get(key, 0) + amount
    overhead = traced.wall_s / ((before.wall_s + after.wall_s) / 2)
    metrics = tracing.per_layer_metrics(
        tracer, summary, counts, sims.RUN_LABELS, overhead)
    for metric, unit in serving.LAYER_UNITS.items():
        metrics[metric] = (serve_metrics.get(metric, 0.0), unit)
    spans = os.path.join(OUT_DIR, f"spans-{name}-seed{args.seed}.bin.gz")
    tracer.write(spans)
    print(f"{name}: traced round {traced.wall_s:.3f}s, untraced "
          f"{before.wall_s:.3f}s / {after.wall_s:.3f}s; "
          f"{len(tracer.starts)} spans -> {os.path.relpath(spans, ROOT)}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<42} {value:>14.6g} {unit}")
    return (traced.attempted, traced.failed,
            {metric: {"value": value, "unit": unit}
             for metric, (value, unit) in metrics.items()})


def run_one(name: str, args) -> bool:
    """Runs one workload and prints its result line; True if correct."""
    workdir = os.path.join(OUT_DIR, f"{name[:5]}{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # No store from an earlier run may leak into this one.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    correct, attempted, failed, metrics = True, 1, 1, {}
    try:
        runner = run_traced if args.trace else run_untraced
        attempted, failed, metrics = runner(name, args, workdir)
    except CheckFailed as exc:
        correct = False
        print(f"{name}: output check failed: {exc}", file=sys.stderr)
    except Exception:  # noqa: BLE001 - reported as a failed workload
        correct = False
        print(f"{name}: could not run:", file=sys.stderr)
        traceback.print_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return correct


def main(argv=None) -> int:
    # A terminated run still unwinds, so the daemon gets its shutdown op.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the self-test)")
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(name, args) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
