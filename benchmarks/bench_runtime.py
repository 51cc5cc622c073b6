"""Runtime engine scaling bench: writes ``BENCH_runtime.json``.

Measures the batched event engine (calendar queue + threaded-code
interpreter, the default) against the seed heapq/per-instruction
``reference`` engine on weak-scaled em3d and ocean kernels — constant
work per processor while the processor count climbs 64 → 256 → 1024
(ROADMAP item 4).  For every size it also runs the batched engine
under all three barrier topologies (``central``, ``sense``, ``tree``)
and asserts the final memory snapshots are identical: topologies may
only change *timing*, never results.

Acceptance bars checked here (and re-checked by the CI perf gate via
``check_regression.py``'s ``runtime/*`` entries):

* the 1024-processor runs complete in seconds (wall-clock gated
  against the committed baseline like every other kernel);
* at 256 processors the batched engine is >= 10x faster than the
  reference engine on ocean, the interpreter-bound kernel (em3d's
  whole-block neighbor gather is remote-message-bound — a cost both
  engines share via the same handlers — so its ratio is reported but
  not gated);
* snapshots agree bit-for-bit across engines and topologies.

The same kernels also run the way users run them: compiled through
``compile_source`` at O0, O1 and O3 (split-phase ``get``/``put``/
``store``/``sync_ctr`` code at O1/O3) at 64 and 256 processors.  Each
row records host seconds next to simulated cycles (the paper's own
metric); every level must reproduce the O0 snapshot.

Environment overrides (used by the CI ``runtime-gate`` target):

* ``REPRO_RUNTIME_PROCS`` — comma-separated processor counts
  (default ``64,256,1024``).  The perf gate skips committed sizes a
  trimmed ladder does not declare.
* ``REPRO_RUNTIME_OUTPUT`` — output path; defaults to
  ``BENCH_runtime.json`` at the repo root.

Run with::

    python benchmarks/bench_runtime.py          (or ``make runtime-bench``)
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Tuple

from repro import OptLevel, compile_source
from repro.apps import em3d, ocean
from repro.ir.inline import inline_all
from repro.ir.lowering import lower_program
from repro.lang import parse_and_check
from repro.runtime.machine import BARRIER_TOPOLOGIES, CM5
from repro.runtime.simulator import run_module

_DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_runtime.json",
)

#: Per-processor work (weak scaling): heavy enough that interpretation,
#: not the event core, dominates — the regime the batched engine's
#: threaded-code decoder targets.
_WORKLOADS: List[Tuple[str, Callable[[int], str]]] = [
    ("em3d", lambda procs: em3d.scaled_source(procs, block=32, steps=8)),
    ("ocean", lambda procs: ocean.scaled_source(procs, rows_per=16, steps=4)),
]

#: Largest size the (quadratically slower) reference engine still runs
#: in reasonable wall time; also where the speedup bar is checked.
_REFERENCE_CAP = 256
_SPEEDUP_AT = 256
_SPEEDUP_BAR = 10.0

#: Compiled rows: the optimization levels users run, at these sizes.
_LEVELS = (OptLevel.O0, OptLevel.O1, OptLevel.O3)
_COMPILED_PROCS = (64, 256)


def _sizes() -> List[int]:
    raw = os.environ.get("REPRO_RUNTIME_PROCS", "64,256,1024")
    return [int(part) for part in raw.split(",") if part.strip()]


def _run(source: str, procs: int, engine: str, topology: str):
    module = inline_all(lower_program(parse_and_check(source)))
    machine = CM5.with_barrier_topology(topology)
    start = time.perf_counter()
    result = run_module(module, procs, machine, engine=engine)
    seconds = time.perf_counter() - start
    return seconds, result


def _compiled_rows(app: str, source: str, procs: int,
                   runtime: Dict[str, dict]) -> None:
    """Host seconds and cycles of ``source`` compiled at each level."""
    baseline = None
    for level in _LEVELS:
        program = compile_source(source, level)
        start = time.perf_counter()
        result = program.run(procs, CM5)
        seconds = time.perf_counter() - start
        key = f"{app}/{procs}/{level.value}"
        runtime[key] = {"seconds": seconds, "cycles": result.cycles}
        print(f"{key:24s} {seconds:7.2f}s  cycles={result.cycles}")
        if baseline is None:
            baseline = result.snapshot()
        elif result.snapshot() != baseline:
            raise AssertionError(
                f"{key}: snapshot diverges from {_LEVELS[0].value}"
            )


def bench() -> dict:
    sizes = _sizes()
    runtime: Dict[str, dict] = {}
    speedups: Dict[str, float] = {}
    for app, generate in _WORKLOADS:
        for procs in sizes:
            source = generate(procs)
            snapshots = {}
            for topology in BARRIER_TOPOLOGIES:
                seconds, result = _run(source, procs, "batched", topology)
                snapshots[topology] = result.snapshot()
                key = (
                    f"{app}/{procs}/batched" if topology == "central"
                    else f"{app}/{procs}/{topology}"
                )
                runtime[key] = {
                    "seconds": seconds,
                    "cycles": result.cycles,
                }
                print(
                    f"{key:24s} {seconds:7.2f}s  "
                    f"cycles={result.cycles}"
                )
            first = snapshots["central"]
            for topology, snapshot in snapshots.items():
                if snapshot != first:
                    raise AssertionError(
                        f"{app}/{procs}: {topology} snapshot diverges "
                        "from central"
                    )
            if procs <= _REFERENCE_CAP:
                seconds, result = _run(source, procs, "reference", "central")
                runtime[f"{app}/{procs}/reference"] = {
                    "seconds": seconds,
                    "cycles": result.cycles,
                }
                print(f"{app}/{procs}/reference    {seconds:7.2f}s")
                if result.snapshot() != first:
                    raise AssertionError(
                        f"{app}/{procs}: reference snapshot diverges "
                        "from batched"
                    )
                if result.cycles != runtime[f"{app}/{procs}/batched"]["cycles"]:
                    raise AssertionError(
                        f"{app}/{procs}: reference cycles "
                        f"{result.cycles} != batched"
                    )
                batched = runtime[f"{app}/{procs}/batched"]["seconds"]
                speedups[f"{app}/{procs}"] = seconds / batched
            if procs in _COMPILED_PROCS:
                _compiled_rows(app, source, procs, runtime)
    for name, speedup in sorted(speedups.items()):
        print(f"speedup {name}: {speedup:.1f}x")
    if any(procs == _SPEEDUP_AT for procs in sizes):
        bar = speedups.get(f"ocean/{_SPEEDUP_AT}", 0.0)
        if bar < _SPEEDUP_BAR:
            raise AssertionError(
                f"batched engine only {bar:.1f}x faster than reference "
                f"on ocean at {_SPEEDUP_AT} procs (bar: {_SPEEDUP_BAR}x)"
            )
    return {
        "schema": 1,
        "runtime_procs": sizes,
        "runtime": runtime,
        "speedups": speedups,
    }


def main() -> int:
    payload = bench()
    output = os.environ.get("REPRO_RUNTIME_OUTPUT", _DEFAULT_OUTPUT)
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
