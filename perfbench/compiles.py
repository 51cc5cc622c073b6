"""The ``compile`` workload: cold per-level compiles and shared sweeps.

Inputs are a seeded draw of one ``repro.fuzz.progen`` program from each
of four profiles, the synthetic barrier program and the five §8 kernel
sources.  Each program is compiled cold at O0–O4 (``compile_source``, the
``repro compile`` and daemon-miss path) and once as a shared sweep
(``open_session(src).compile_levels``).  Analysis, codegen and the pass
manager do the work; the runtime does none while measured.

The draw is conditioned on each program's phase composition (how many
phases of each kind), fixed per profile, so every seed compiles a
comparable amount of work while the programs themselves differ.
"""

from __future__ import annotations

import collections
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import OptLevel, compile_source
from repro.apps import get_app
from repro.compiler import frontend, open_session
from repro.errors import ReproError
from repro.fuzz.progen import PROFILES, generate_program
from repro.runtime.machine import CM5
from repro.runtime.simulator import run_module

from common import (
    KERNELS,
    CheckFailed,
    Recorder,
    Workload,
    compare_snapshots,
    same_code,
)

LEVELS = [OptLevel(f"O{rank}") for rank in range(5)]
PROFILE_NAMES = ("mixed", "sync_heavy", "lock_heavy", "barrier_misaligned")
#: Phases per generated program and the synthetic program's size.
PHASES = 8
SYNTHETIC_SIZE = 128
#: Each checked simulation runs this often (``sim_s`` takes the median).
CHECK_REPEATS = 3


@dataclass
class Program:
    label: str
    source: str
    procs: int
    #: Independent output check; None = compare with the reference
    #: engine running the unoptimized lowered module.
    app_check: Optional[Callable[[dict], None]] = None
    reference: Optional[dict] = None


def synthetic_barrier_program(size: int) -> str:
    """``size`` accesses in barrier phases of four (the analysis bench's
    scaling program)."""
    lines = [f"shared double A[{size * 8}];", "void main() {", "  int i;"]
    for _phase in range(size // 4):
        for k in range(4):
            lines.append(
                f"  A[MYPROC * 8 + {k}] = A[MYPROC * 8 + {k}] + 1.0;")
        lines.append("  barrier();")
    lines.append("}")
    return "\n".join(lines)


def _kind(phase_fn) -> str:
    name = phase_fn.__name__[len("phase_"):]
    return "gather" if name == "gather_neighbor" else name


def composition(profile: str, phases: int) -> Dict[str, int]:
    """Phase-kind counts proportional to the profile's mix weights."""
    weights = collections.Counter(_kind(fn) for fn in PROFILES[profile].mix)
    total = sum(weights.values())
    exact = {kind: phases * w / total for kind, w in weights.items()}
    counts = {kind: int(value) for kind, value in exact.items()}
    short = phases - sum(counts.values())
    by_remainder = sorted(exact, key=lambda k: (counts[k] - exact[k], k))
    for kind in by_remainder[:short]:
        counts[kind] += 1
    return {kind: count for kind, count in counts.items() if count}


def draw(rng: random.Random, profile: str, phases: int, procs: int):
    """The next seeded program of ``profile`` with the fixed composition."""
    want = composition(profile, phases)
    for _attempt in range(100_000):
        program = generate_program(rng.randrange(1 << 30), profile, procs,
                                   phases)
        kinds = collections.Counter(phase.kind for phase in program.phases)
        if dict(kinds) == want:
            return program
    raise RuntimeError(f"no {profile} program with composition {want}")


class CompileWorkload(Workload):
    name = "compile"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.programs: List[Program] = []
        #: label -> level -> (cold, shared) programs of the last round
        self.compiled: Dict[str, Dict[str, tuple]] = {}

    def setup(self, rec: Recorder) -> None:
        """Draws the programs and runs their reference executions."""
        phases, synth = (4, 16) if self.smoke else (PHASES, SYNTHETIC_SIZE)
        rng = random.Random(self.seed)
        programs: List[Program] = []
        for profile in PROFILE_NAMES:
            generated = draw(rng, profile, phases, 8)
            programs.append(Program(profile, generated.source,
                                    generated.procs))
        programs.append(Program(f"synthetic.{synth}",
                                synthetic_barrier_program(synth), 4))
        for name in KERNELS:
            app = get_app(name)
            programs.append(Program(
                name, app.source(4), 4,
                app_check=lambda snap, app=app: app.check(snap, 4)))
        for program in programs:
            if program.app_check is None:
                result = run_module(frontend(program.source), program.procs,
                                    CM5, engine="reference")
                program.reference = result.snapshot()
        rng.shuffle(programs)
        self.programs = programs

    def round(self, rec: Recorder, index: int, tracer=None) -> None:
        compiled: Dict[str, Dict[str, tuple]] = {}
        for program in self.programs:
            cold = {}
            for level in LEVELS:
                if tracer is not None:
                    tracer.begin_run(f"compile {program.label} {level.value}")
                built = self._timed(
                    rec, "compile_s", f"{program.label}.{level.value}",
                    lambda: compile_source(program.source, level))
                if built is not None:
                    cold[level.value] = built
                    rec.note_program(built)
            if tracer is not None:
                tracer.begin_run(f"sweep {program.label}")
            shared = self._timed(
                rec, "sweep_s", f"{program.label}.sweep",
                lambda: open_session(program.source).compile_levels(LEVELS))
            by_level = {built.opt_level.value: built
                        for built in shared or ()}
            compiled[program.label] = {
                level: (built, by_level.get(level))
                for level, built in cold.items()
            }
        self.compiled = compiled

    @staticmethod
    def _timed(rec: Recorder, metric: str, key: str, call):
        """One user call: timed, counted, a typed failure booked."""
        rec.attempted += 1
        start = time.perf_counter()
        try:
            out = call()
        except ReproError as exc:
            rec.fail(f"{metric} {key}", exc)
            return None
        seconds = time.perf_counter() - start
        rec.op(metric, key, seconds)
        rec.op("latency_ms", key, seconds * 1000.0)
        rec.between_operations()
        return out

    def check(self, rec: Recorder) -> None:
        """Sweep == cold; every level's run against its reference."""
        for program in self.programs:
            for level, (cold, shared) in sorted(
                    self.compiled.get(program.label, {}).items()):
                what = f"{program.label} {level}"
                if shared is not None:
                    same_code(cold, shared, what)
                for _repeat in range(CHECK_REPEATS):
                    start = time.perf_counter()
                    result = cold.run(program.procs)
                    rec.note_sim(f"{program.label}.{level}", level, result,
                                 time.perf_counter() - start)
                    rec.between_operations()
                    self._check_output(program, result.snapshot(), what)

    @staticmethod
    def _check_output(program: Program, snapshot: dict, what: str) -> None:
        if program.app_check is None:
            compare_snapshots(program.reference, snapshot,
                              f"{what} vs reference engine")
            return
        try:
            program.app_check(snapshot)
        except AssertionError as exc:
            raise CheckFailed(f"{what}: {exc}") from None

