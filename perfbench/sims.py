"""The simulation workloads: the five §8 kernels through ``CompiledProgram.run``.

``sim-kernels``
    Every kernel on the CM-5 model, sequentially consistent, central
    barrier, at O0/O1/O3.  em3d and ocean are weak-scaled to 256
    processors (8 nodes / 4 rows per processor, the apps' default
    per-processor sizes), cholesky runs at 12 processors and the others
    at 32.  em3d runs two leapfrog steps and ocean one relaxation step,
    short enough that one benchmark run repeats every simulation.  The
    runtime interpreter, network and event core do the work; compiling
    happens in set-up.

``sim-weak-lossy``
    The same kernels with em3d and ocean at 64 processors, each under
    TSO and PSO with fixed drain seeds, over a seeded lossy network
    (drops and duplicates behind the retransmission protocol).  The only
    workload where store buffers, fence drains and retransmission work.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import OptLevel, compile_source
from repro.apps import get_app
from repro.apps import em3d, ocean
from repro.compiler import open_session
from repro.errors import ReproError
from repro.runtime.machine import CM5
from repro.runtime.network import FaultPlan

from common import (
    KERNELS,
    SIM_LEVELS,
    CheckFailed,
    Recorder,
    Workload,
    close,
    compare_snapshots,
    same_code,
)

#: ``runtime.run_s.<kernel>.<level>`` per-layer metric suffixes.
RUN_LABELS = [f"{kernel}.{level}" for kernel in KERNELS
              for level in SIM_LEVELS]

#: Timesteps of the weak-scaled kernels (per-processor sizes stay the
#: apps' defaults: 8 em3d nodes and 4 ocean rows per processor).  Short
#: runs let one benchmark run repeat every simulation several times.
EM3D_STEPS = 2
OCEAN_STEPS = 1
#: Lossy-network rates for ``sim-weak-lossy`` (per physical transmission).
DROP_RATE = 0.03
DUP_RATE = 0.03
#: Fixed store-buffer drain seeds, one per weak model.
DRAIN_SEEDS = {"tso": 1, "pso": 2}


@dataclass
class Kernel:
    """One kernel instance: its source and an independent output check."""

    name: str
    procs: int
    source: str
    #: Raises ``AssertionError`` when a snapshot is wrong.
    check: Callable[[dict], None]


def kernels(scaled_procs: int, procs: int, cholesky_procs: int
            ) -> List[Kernel]:
    """The kernel set; em3d/ocean weak-scaled to ``scaled_procs``."""
    e_expected, h_expected = em3d.scaled_reference(
        scaled_procs, steps=EM3D_STEPS)
    grid = ocean.scaled_reference(scaled_procs, steps=OCEAN_STEPS)

    def check_em3d(snapshot: dict) -> None:
        _check_values(snapshot["E"], e_expected, "E")
        _check_values(snapshot["H"], h_expected, "H")

    def check_ocean(snapshot: dict) -> None:
        _check_values(snapshot["G"], [value for row in grid
                                      for value in row], "G")

    def app_check(name: str, p: int) -> Callable[[dict], None]:
        app = get_app(name)
        return lambda snapshot: app.check(snapshot, p)

    return [
        Kernel("ocean", scaled_procs,
               ocean.scaled_source(scaled_procs, steps=OCEAN_STEPS),
               check_ocean),
        Kernel("em3d", scaled_procs,
               em3d.scaled_source(scaled_procs, steps=EM3D_STEPS),
               check_em3d),
        Kernel("epithelial", procs, get_app("epithelial").source(procs),
               app_check("epithelial", procs)),
        Kernel("cholesky", cholesky_procs,
               get_app("cholesky").source(cholesky_procs),
               app_check("cholesky", cholesky_procs)),
        Kernel("health", procs, get_app("health").source(procs),
               app_check("health", procs)),
    ]


def _check_values(actual: list, expected: list, what: str) -> None:
    if len(actual) != len(expected):
        raise AssertionError(f"{what}: {len(actual)} values, "
                             f"expected {len(expected)}")
    for index, (got, want) in enumerate(zip(actual, expected)):
        if not close(got, want, 1e-6):
            raise AssertionError(f"{what}[{index}] = {got!r}, "
                                 f"expected {want!r}")


def _timing_free(kernel: str, snapshot: dict) -> dict:
    """The part of a snapshot a correct run fixes regardless of timing.

    health appends patients to lock-guarded queues in lock-acquisition
    order, which legitimately depends on timing (network delays, drain
    schedules); the queue *contents* and counts do not.
    """
    if kernel != "health":
        return snapshot
    fixed = dict(snapshot)
    for name in ("queue0", "queue1"):
        fixed[name] = sorted(snapshot[name])
    return fixed


@dataclass
class Job:
    kernel: Kernel
    level: str
    program: object
    machine: object = CM5
    model: str = "sc"
    fault_seed: Optional[int] = None

    @property
    def label(self) -> str:
        return f"{self.kernel.name}.{self.level}"

    def fault_plan(self) -> Optional[FaultPlan]:
        if self.fault_seed is None:
            return None
        return FaultPlan(drop=DROP_RATE, duplicate=DUP_RATE,
                         seed=self.fault_seed)


class SimWorkload(Workload):
    """Compile in set-up, simulate in rounds, check afterwards."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.jobs: List[Job] = []
        #: label/model -> snapshots of every measured run
        self.outputs: Dict[Tuple[str, str], List[dict]] = {}

    # -- phases ------------------------------------------------------------

    def kernel_set(self) -> List[Kernel]:
        raise NotImplementedError

    def expand(self, kernel: Kernel, level: str, program) -> List[Job]:
        raise NotImplementedError

    def setup(self, rec: Recorder) -> None:
        """Inputs, references, and the cold + shared compiles."""
        self.jobs = []
        self.outputs = {}
        levels = [OptLevel(level) for level in SIM_LEVELS]
        for kernel in self.kernel_set():
            cold = {}
            for level in levels:
                start = time.perf_counter()
                program = compile_source(kernel.source, level)
                rec.op("compile_s", f"{kernel.name}.{level.value}",
                       time.perf_counter() - start)
                rec.between_operations()
                rec.note_program(program)
                cold[level.value] = program
            start = time.perf_counter()
            shared = open_session(kernel.source).compile_levels(levels)
            rec.op("sweep_s", kernel.name, time.perf_counter() - start)
            for program in shared:
                level = program.opt_level.value
                same_code(cold[level], program, f"{kernel.name} {level}")
                self.jobs.extend(self.expand(kernel, level, cold[level]))
        random.Random(self.seed).shuffle(self.jobs)

    def round(self, rec: Recorder, index: int, tracer=None) -> None:
        for job in self.jobs:
            if tracer is not None:
                tracer.begin_run(job.label)
            rec.attempted += 1
            start = time.perf_counter()
            try:
                result = job.program.run(
                    job.kernel.procs, job.machine, seed=self.run_seed(),
                    fault_plan=job.fault_plan(),
                )
            except ReproError as exc:
                rec.fail(f"{job.label} {job.model}", exc)
                continue
            seconds = time.perf_counter() - start
            rec.note_sim(f"{job.label}.{job.model}", job.level, result,
                         seconds)
            rec.between_operations()
            self.outputs.setdefault((job.label, job.model), []).append(
                result.snapshot())

    def run_seed(self) -> int:
        return self.seed

    def check(self, rec: Recorder) -> None:
        """Every snapshot against the kernel's Python model."""
        by_label = {(job.label, job.model): job for job in self.jobs}
        for key, snapshots in self.outputs.items():
            job = by_label[key]
            for snapshot in snapshots:
                try:
                    job.kernel.check(snapshot)
                except AssertionError as exc:
                    raise CheckFailed(
                        f"{job.label} ({job.model}): {exc}") from None


class SimKernels(SimWorkload):
    name = "sim-kernels"

    def kernel_set(self) -> List[Kernel]:
        if self.smoke:
            return kernels(8, 4, 4)
        return kernels(256, 32, 12)

    def expand(self, kernel: Kernel, level: str, program) -> List[Job]:
        return [Job(kernel, level, program)]


class SimWeakLossy(SimWorkload):
    name = "sim-weak-lossy"

    def kernel_set(self) -> List[Kernel]:
        if self.smoke:
            return kernels(4, 4, 4)
        return kernels(64, 32, 12)

    def expand(self, kernel: Kernel, level: str, program) -> List[Job]:
        rng = random.Random(f"{self.seed}/{kernel.name}/{level}")
        return [
            Job(kernel, level, program,
                machine=CM5.with_memory_model(model,
                                              drain_seed=DRAIN_SEEDS[model]),
                model=model, fault_seed=rng.randrange(1 << 30))
            for model in ("tso", "pso")
        ]

    def run_seed(self) -> int:
        # The store-buffer schedule derives from (run seed, drain seed):
        # keep it fixed so only the fault plan follows the workload seed.
        return 0

    def check(self, rec: Recorder) -> None:
        """Model checks, then each weak snapshot against the SC run."""
        super().check(rec)
        sc_snapshots: Dict[str, dict] = {}
        for job in self.jobs:
            if job.label in sc_snapshots:
                continue
            result = job.program.run(job.kernel.procs, CM5)
            sc_snapshots[job.label] = result.snapshot()
        for (label, model), snapshots in self.outputs.items():
            kernel = label.split(".")[0]
            expected = _timing_free(kernel, sc_snapshots[label])
            for snapshot in snapshots:
                compare_snapshots(expected, _timing_free(kernel, snapshot),
                                  f"{label} {model} vs SC")
