"""Shared pieces of the benchmark: statistics, recorders, checks, isolation.

Nothing here imports ``repro``: ``run.py`` must be able to load this
module (and fail cleanly) in a directory that holds only the benchmark.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import resource
import statistics
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Levels whose host seconds are end-to-end metrics (``sim_s.<level>``).
SIM_LEVELS = ("O0", "O1", "O3")
#: The five §8 kernels, in the paper's Figure 12 order.
KERNELS = ("ocean", "em3d", "epithelial", "cholesky", "health")


class CheckFailed(Exception):
    """A program output disagreed with its independent reference."""


class HarnessError(Exception):
    """The benchmark itself could not run a workload (never a skip)."""


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def well_sampled(values: Sequence[float]) -> Tuple[float, float]:
    """(pct, value) of the highest percentile with >= 10 samples beyond.

    With fewer than 20 samples no percentile qualifies and the median is
    returned, so a report never claims a tail it did not observe.
    """
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50.0, median(values)


# -- host speed ------------------------------------------------------------------


class _Node:
    __slots__ = ("next", "value")


class SpeedProbe:
    """How fast this host runs right now.

    On a shared host the same work runs up to half again faster or
    slower for tens of seconds at a time as neighbours come and go,
    which no repetition inside one run averages out.  The probe times a
    fixed loop of pointer chasing and dict lookups over a working set
    larger than a core's private caches -- the access pattern of the
    compiler and the simulator -- without touching ``repro``, so a
    change to the program cannot move it.  Each phase of a run (a
    set-up, a round, the checks) probes at its ends and between its
    operations, and its times are reported in seconds of a host that
    takes :attr:`REFERENCE_S` per probe: raw seconds times
    ``REFERENCE_S`` over the phase's median probe.  The report lines
    print the raw values too.
    """

    #: Median probe time of a quiet 2-vCPU 2.1 GHz Xeon VM; it only sets
    #: the scale of the reported seconds.
    REFERENCE_S = 0.0038

    def __init__(self, nodes: int = 50_000, keys: int = 20_000) -> None:
        rng = random.Random(0)
        ring = [_Node() for _ in range(nodes)]
        order = list(range(nodes))
        rng.shuffle(order)
        for position, index in enumerate(order):
            ring[index].next = ring[order[(position + 1) % nodes]]
            ring[index].value = position
        self._start = ring[0]
        self._hops = nodes // 2
        self._table = {(i * 7919) % 1_000_003: i for i in range(nodes // 2)}
        self._keys = [rng.randrange(1_000_003) for _ in range(keys)]
        #: Every probe time of the run, for the report.
        self.samples: List[float] = []
        #: CPUs to probe on (None: wherever this process runs); a workload
        #: whose timed work runs on other CPUs than this process sets it.
        self.cpus: Optional[Set[int]] = None

    def probe(self) -> float:
        saved = None
        if self.cpus:
            saved = os.sched_getaffinity(0)
            os.sched_setaffinity(0, self.cpus)
        try:
            start = time.perf_counter()
            node, total = self._start, 0
            for _ in range(self._hops):
                total += node.value
                node = node.next
            table = self._table
            for key in self._keys:
                total += table.get(key, 0)
            seconds = time.perf_counter() - start
        finally:
            if saved is not None:
                os.sched_setaffinity(0, saved)
        self.samples.append(seconds)
        return seconds


# -- workloads -----------------------------------------------------------------


class Workload:
    """What ``run.py`` drives: set-up, rounds of measured work, checks.

    ``setup(rec)`` builds the inputs (and may compile), ``round(rec,
    index, tracer)`` runs one round of user operations, ``check(rec)``
    compares every output with an independent reference afterwards.
    """

    name = ""
    #: Report the peak RSS of the child processes (the daemon), which
    #: run the workload, instead of this process's.
    rss_of_children = False

    def teardown(self) -> None:
        """Releases what the last set-up started."""

    def placement(self, probe: Optional[SpeedProbe]):
        """Context for one timed round, its end probes included: where
        this process and the probe run (default: unchanged)."""
        return contextlib.nullcontext()

    def serve_metrics(self) -> Dict[str, float]:
        """Per-layer serve metrics of the last traced round."""
        return {}


# -- per-phase recording --------------------------------------------------------


class Recorder:
    """Everything one phase (a set-up, a round, the checks) observed.

    ``samples[metric][op]`` holds the measurements of each operation (a
    simulation, a compile, a request): an end-to-end metric is the sum,
    over operations, of each operation's median across the phases that
    repeated it, so a transient slowdown of one repetition does not move
    it.  ``counts`` are the program's own counters, for per-layer
    metrics.
    """

    #: Least spacing of probes taken between operations.
    PROBE_GAP_S = 0.25

    def __init__(self, probe: Optional[SpeedProbe] = None) -> None:
        self.probe = probe
        #: Probe times taken during this phase.
        self.speeds: List[float] = []
        self._probed_at = 0.0
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self.counts: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.wall_s = 0.0

    def op(self, metric: str, key: str, value: float) -> None:
        self.samples.setdefault(metric, {}).setdefault(key, []).append(value)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def probe_host(self, times: int = 1) -> None:
        if self.probe is not None:
            for _ in range(times):
                self.speeds.append(self.probe.probe())
            self._probed_at = time.perf_counter()

    def between_operations(self) -> None:
        """A point outside every timed call where the host may be probed."""
        if time.perf_counter() - self._probed_at >= self.PROBE_GAP_S:
            self.probe_host()

    def speed_factor(self) -> float:
        """Multiplier from this phase's seconds to reference seconds."""
        if not self.speeds:
            return 1.0
        return SpeedProbe.REFERENCE_S / median(self.speeds)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def note_sim(self, key: str, level: str, result, seconds: float) -> None:
        """Books one ``CompiledProgram.run`` and its result's counters."""
        if level in SIM_LEVELS:
            self.op(f"sim_s.{level}", key, seconds)
        self.op("sim_cycles", key, result.cycles)
        self.op("latency_ms", key, seconds * 1000.0)
        self.count("runtime.runs")
        self.count("runtime.instrs", result.instructions)
        self.count("runtime.wait_cycles", result.total_wait_cycles)
        self.count("runtime.proc_cycles", sum(result.per_proc_cycles))
        stats = result.network.stats
        self.count("runtime.messages", stats.total_messages)
        for kind, amount in stats.messages_by_kind.items():
            self.count(f"runtime.network.msgs.{kind.name}", amount)
        self.count("runtime.retransmits", stats.retransmits)
        links = result.network.link_stats
        if links:
            self.count("runtime.transmitted",
                       sum(link.sent for link in links.values()))
            self.count("runtime.delivered",
                       sum(link.delivered_copies for link in links.values()))
        else:
            self.count("runtime.transmitted", stats.total_messages)
            self.count("runtime.delivered", stats.total_messages)
        if result.weak_stats is not None:
            self.count("runtime.weak.fences", result.weak_stats["fences"])
            self.count("runtime.weak.buffered_writes",
                       result.weak_stats["buffered_writes"])

    def note_program(self, program) -> None:
        """Books one compiled program's codegen report and code size."""
        report = program.report
        self.count("codegen.sync_moves", report.sync_moves)
        self.count("codegen.one_way_conversions", report.one_way_conversions)
        self.count("codegen.counters_after", report.counters_after)
        self.count("codegen.gets_eliminated", report.gets_eliminated)
        self.count("codegen.code_instrs", sum(
            len(block.instrs)
            for function in program.module.functions.values()
            for block in function.blocks
        ))


def pooled(recorders: Sequence[Recorder], metric: str, power: int = 0
           ) -> Dict[str, List[float]]:
    """Every sample of ``metric`` per operation, across phases, each
    times its phase's speed factor to ``power`` (1 for durations, -1 for
    rates, 0 for raw values)."""
    ops: Dict[str, List[float]] = {}
    for rec in recorders:
        scale = rec.speed_factor() ** power
        for key, values in rec.samples.get(metric, {}).items():
            ops.setdefault(key, []).extend(value * scale for value in values)
    return ops


def op_medians(recorders: Sequence[Recorder], metric: str,
               power: int = 0) -> List[float]:
    return [median(values) for _key, values
            in sorted(pooled(recorders, metric, power).items())]


# -- output checks -------------------------------------------------------------


def close(actual: float, expected: float, tol: float = 1e-9) -> bool:
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def compare_snapshots(expected: Dict[str, list], actual: Dict[str, list],
                      what: str, tol: float = 1e-9) -> None:
    """Raises :class:`CheckFailed` unless two memories agree."""
    if set(expected) != set(actual):
        raise CheckFailed(
            f"{what}: variables {sorted(actual)} != {sorted(expected)}"
        )
    for name in sorted(expected):
        want, got = expected[name], actual[name]
        if len(want) != len(got):
            raise CheckFailed(
                f"{what}: {name} has {len(got)} elements, "
                f"expected {len(want)}"
            )
        for index, (a, b) in enumerate(zip(got, want)):
            if not close(a, b, tol):
                raise CheckFailed(f"{what}: {name}[{index}] = {a!r}, "
                                  f"expected {b!r}")


def fence_offsets(program) -> List[int]:
    """``delay_fences`` made comparable across separate compiles.

    Instruction uids come from one process-wide counter, so two parses
    of the same source number their instructions identically up to a
    constant offset: the smallest uid of the compiled module.
    """
    uids = [instr.uid for function in program.module.functions.values()
            for block in function.blocks for instr in block.instrs]
    base = min(uids + list(program.delay_fences))
    return sorted(uid - base for uid in program.delay_fences)


def same_code(cold, shared, what: str) -> None:
    """A shared-sweep program must equal the cold compile exactly."""
    if str(cold.module) != str(shared.module):
        raise CheckFailed(f"{what}: shared-sweep IR differs from cold IR")
    if fence_offsets(cold) != fence_offsets(shared):
        raise CheckFailed(
            f"{what}: shared-sweep delay_fences differ from cold compile"
        )


# -- process facts -------------------------------------------------------------


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size (Linux reports ``ru_maxrss`` in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
