"""Differential tests for the decoded interpreter's split-phase fusing.

Under SC with no trace the batched engine's threaded-code decoder
compiles ``get``/``put``/``store``/``sync_ctr`` into fused runs: the
owner test runs inline, a local home touches backing storage directly,
a remote home calls the processor's send helper and the run goes on,
and a ``sync_ctr`` blocks only when its counter is still outstanding.
Every case runs both engines and demands identical snapshots, cycles,
per-processor clocks and waits, instruction counts, message totals and
fault text — the specialization must be invisible except in wall time.
"""

import sys

import pytest

from repro import OptLevel, compile_source
from repro.apps import em3d, get_app, ocean
from repro.codegen.splitphase import convert_to_split_phase
from repro.errors import ReproError
from repro.ir.instructions import Const, Instr, Opcode
from repro.runtime import CM5, run_module
from repro.runtime import decode
from repro.runtime.machine import BARRIER_TOPOLOGIES
from repro.runtime.network import FaultPlan, Message, MsgKind
from repro.runtime.simulator import ENGINES, Processor, Simulator
from tests.helpers import inlined

SOURCES = {
    # A remote get in the middle of a run of local work, then its
    # sync_ctr: the run settles its cost, sends, keeps going, and
    # blocks at the sync until the reply lands.
    "remote_get_mid_run": (
        "shared int A[16];\n"
        "shared int Out[4];\n"
        "void main() {\n"
        "  int nb = (MYPROC + 1) % PROCS;\n"
        "  for (int i = 0; i < 4; i = i + 1) {"
        " A[MYPROC * 4 + i] = MYPROC * 10 + i; }\n"
        "  barrier();\n"
        "  int s = 0;\n"
        "  for (int i = 0; i < 4; i = i + 1) {\n"
        "    int t = s * 2;\n"
        "    int a = A[nb * 4 + i];\n"
        "    s = t + a + A[MYPROC * 4 + i];\n"
        "  }\n"
        "  Out[MYPROC] = s;\n"
        "}\n"
    ),
    # Fused gets landing in local arrays, from a remote and a local home.
    "fused_landing": (
        "shared double A[32];\n"
        "shared double Out[4];\n"
        "void main() {\n"
        "  double buf[8];\n"
        "  double mine[8];\n"
        "  int nb = (MYPROC + 1) % PROCS;\n"
        "  for (int i = 0; i < 8; i = i + 1) {"
        " A[MYPROC * 8 + i] = 1.5 * i + MYPROC; }\n"
        "  barrier();\n"
        "  for (int i = 0; i < 8; i = i + 1) { buf[i] = A[nb * 8 + i]; }\n"
        "  for (int i = 0; i < 8; i = i + 1) {"
        " mine[i] = A[MYPROC * 8 + i]; }\n"
        "  double s = 0.0;\n"
        "  for (int i = 0; i < 8; i = i + 1) { s = s + buf[i] * mine[i]; }\n"
        "  Out[MYPROC] = s;\n"
        "}\n"
    ),
    # Puts and (at O3) one-way stores to local and remote homes, an int
    # variable (value coercion), and a get of a just-put element.
    "put_store": (
        "shared int A[16];\n"
        "shared int B[16];\n"
        "shared int Out[4];\n"
        "void main() {\n"
        "  int nb = (MYPROC + 1) % PROCS;\n"
        "  for (int i = 0; i < 4; i = i + 1) {\n"
        "    A[nb * 4 + i] = MYPROC + i;\n"
        "    A[MYPROC * 4 + i] = MYPROC * i;\n"
        "    B[nb * 4 + i] = i;\n"
        "  }\n"
        "  int x = A[nb * 4];\n"
        "  barrier();\n"
        "  Out[MYPROC] = A[MYPROC * 4] + B[MYPROC * 4 + 1] + x;\n"
        "}\n"
    ),
    # Doubles stored into an int variable: local homes coerce in the
    # fused run, remote homes in the owner's handler.
    "int_coercion": (
        "shared int D[8];\n"
        "shared int Out[4];\n"
        "void main() {\n"
        "  D[MYPROC * 2] = 1.5 * MYPROC + 0.25;\n"
        "  D[((MYPROC + 1) % PROCS) * 2 + 1] = 2.5 * MYPROC;\n"
        "  barrier();\n"
        "  Out[MYPROC] = D[MYPROC * 2] + D[MYPROC * 2 + 1];\n"
        "}\n"
    ),
    # Two-dimensional block rows, a cyclic vector and a shared scalar
    # (homed on processor 0): every owner formula and trailing bound.
    "layouts": (
        "shared double M[8][4];\n"
        "shared int C[12] dist(cyclic);\n"
        "shared int total;\n"
        "shared double Out[4];\n"
        "void main() {\n"
        "  for (int j = 0; j < 4; j = j + 1) {\n"
        "    M[MYPROC * 2][j] = 1.0 * j; M[MYPROC * 2 + 1][j] = 2.0 * j;\n"
        "  }\n"
        "  for (int i = 0; i < 12; i = i + 1) {\n"
        "    if (i % PROCS == MYPROC) { C[i] = i * i; }\n"
        "  }\n"
        "  if (MYPROC == 0) { total = 5; }\n"
        "  barrier();\n"
        "  int r = (MYPROC * 2 + 3) % 8;\n"
        "  double s = M[r][1] + M[r][3] + C[(MYPROC + 5) % 12] + total;\n"
        "  barrier();\n"
        "  M[r][2] = s;\n"
        "  Out[MYPROC] = s;\n"
        "}\n"
    ),
}

LEVELS = (OptLevel.O1, OptLevel.O3)


def observe(run):
    """Everything an engine must agree on, or the fault it raised."""
    try:
        result = run()
    except ReproError as fault:
        return ("fault", type(fault).__name__, str(fault))
    return (
        "ok",
        result.snapshot(),
        result.cycles,
        result.per_proc_cycles,
        result.per_proc_wait,
        result.instructions,
        result.total_messages,
    )


def both_engines(program, procs=4, machine=CM5, **kwargs):
    observations = {
        engine: observe(
            lambda: program.run(procs, machine, engine=engine, **kwargs)
        )
        for engine in ENGINES
    }
    assert observations["batched"] == observations["reference"]
    return observations["batched"]


def ops_of(program):
    return [
        ins
        for function in program.module.functions.values()
        for block in function.blocks
        for ins in block.instrs
    ]


@pytest.mark.parametrize("level", LEVELS, ids=lambda lvl: lvl.value)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_engines_agree(name, level):
    program = compile_source(SOURCES[name], level)
    ops = {ins.op for ins in ops_of(program)}
    assert Opcode.GET in ops and Opcode.SYNC_CTR in ops
    assert ops & {Opcode.PUT, Opcode.STORE}
    observed = both_engines(program)
    assert observed[0] == "ok"


@pytest.mark.parametrize("jitter", [0, 150])
def test_engines_agree_under_jitter(jitter):
    for name in sorted(SOURCES):
        program = compile_source(SOURCES[name], OptLevel.O1)
        both_engines(program, machine=CM5.with_jitter(jitter), seed=5)


def test_fused_get_lands_in_local_array():
    program = compile_source(SOURCES["fused_landing"], OptLevel.O3)
    fused = [ins for ins in ops_of(program)
             if ins.op is Opcode.GET and ins.local_array is not None]
    assert fused
    observed = both_engines(program)
    assert observed[1]["Out"] == compile_source(
        SOURCES["fused_landing"], OptLevel.O0
    ).run(4).snapshot()["Out"]


def _first_fused_get(program):
    return next(ins for ins in ops_of(program)
                if ins.op is Opcode.GET and ins.local_array is not None)


def test_fused_get_target_out_of_range_keeps_seed_message():
    program = compile_source(SOURCES["fused_landing"], OptLevel.O3)
    get = _first_fused_get(program)
    get.local_indices = (Const(99),)
    observed = both_engines(program)
    assert observed[0] == "fault"
    assert f"fused get target {get.local_array} index 99 out of range" in (
        observed[2]
    )


def test_get_leading_index_out_of_range():
    program = compile_source(SOURCES["fused_landing"], OptLevel.O3)
    _first_fused_get(program).indices = (Const(1000),)
    observed = both_engines(program)
    assert observed[:2] == ("fault", "RuntimeFault")
    assert "A: leading index 1000 out of range [0, 32)" in observed[2]


@pytest.mark.parametrize("row", ["MYPROC * 2", "(MYPROC * 2 + 3) % 8"])
def test_get_trailing_index_out_of_range(row):
    # Local home: the fused run faults; remote home: the owner's
    # handler does.  Same text from both engines either way.
    source = (
        "shared double M[8][4];\n"
        "shared double Out[4];\n"
        "void main() {\n"
        f"  Out[MYPROC] = M[{row}][1];\n"
        "}\n"
    )
    program = compile_source(source, OptLevel.O1)
    get = next(ins for ins in ops_of(program) if ins.op is Opcode.GET)
    get.indices = (get.indices[0], Const(7))
    observed = both_engines(program)
    assert observed[0] == "fault"
    assert "M: index 7 out of range [0, 4)" in observed[2]


def test_pending_temp_read_faults_identically():
    """Deleting the sync_ctrs makes a put consume a pending get."""
    module = inlined(
        "shared int X; shared int Y;\n"
        "void main() { if (MYPROC == 1) { int y = X; Y = y; } }"
    )
    convert_to_split_phase(module.main)
    for block in module.main.blocks:
        block.instrs = [
            ins for ins in block.instrs if ins.op is not Opcode.SYNC_CTR
        ]
    observations = {
        engine: observe(lambda: run_module(module, 2, CM5, engine=engine))
        for engine in ENGINES
    }
    assert observations["batched"] == observations["reference"]
    assert "before its get completed (missing sync_ctr" in (
        observations["batched"][2]
    )


def test_get_destination_is_not_read_from_a_stale_cache():
    """A temp written earlier in the same run, then overwritten by a
    get: a read before the sync must see PENDING, not the old value."""
    module = inlined(
        "shared int X; shared int Y;\n"
        "void main() { if (MYPROC == 1) { int y = X; Y = y; } }"
    )
    convert_to_split_phase(module.main)
    for block in module.main.blocks:
        instrs = [ins for ins in block.instrs
                  if ins.op is not Opcode.SYNC_CTR]
        for index, ins in enumerate(instrs):
            if ins.op is Opcode.GET:
                instrs.insert(index, Instr(Opcode.CONST, dest=ins.dest,
                                           value=7))
                break
        block.instrs = instrs
    observations = {
        engine: observe(lambda: run_module(module, 2, CM5, engine=engine))
        for engine in ENGINES
    }
    assert observations["batched"] == observations["reference"]
    assert "before its get completed" in observations["batched"][2]


@pytest.mark.parametrize("counter", [1, 99])
def test_counter_underflow_faults_identically(counter):
    """A stray completion arriving mid-run underflows a counter."""
    program = compile_source(SOURCES["remote_get_mid_run"], OptLevel.O1)

    def run(engine):
        sim = Simulator(program.module, 4, CM5,
                        delay_fences=program.delay_fences, engine=engine)
        sim.send(Message(MsgKind.PUT_ACK, src=1, dst=0, counter=counter), 40)
        return sim.run()

    observations = {
        engine: observe(lambda: run(engine)) for engine in ENGINES
    }
    assert observations["batched"] == observations["reference"]
    assert f"P0: counter {counter} completion underflow" in (
        observations["batched"][2]
    )


def test_sync_ctr_blocks_mid_run_and_mid_group(monkeypatch):
    """Blocking happens both right after fused local work and at a
    later member of a group of consecutive sync_ctrs; both resume."""
    seen = []
    original = Processor._block

    def record(proc, reason, instr):
        if reason[0] == "counter":
            frame = proc.frames[-1]
            previous = frame.function.block(frame.block).instrs[
                frame.index - 1
            ] if frame.index else None
            seen.append(previous.op if previous is not None else None)
        original(proc, reason, instr)

    monkeypatch.setattr(Processor, "_block", record)
    for name in sorted(SOURCES):
        program = compile_source(SOURCES[name], OptLevel.O1)
        program.run(4, CM5.with_jitter(150), seed=5)
    assert Opcode.SYNC_CTR in seen
    assert any(op not in (None, Opcode.SYNC_CTR) for op in seen)
    monkeypatch.setattr(Processor, "_block", original)
    for name in sorted(SOURCES):
        program = compile_source(SOURCES[name], OptLevel.O1)
        both_engines(program, machine=CM5.with_jitter(150), seed=5)


@pytest.mark.parametrize("home", ["nb", "MYPROC"])
def test_put_and_store_with_all_store_sync(home):
    source = (
        "shared int A[16];\n"
        "shared double B[16];\n"
        "shared int Out[4];\n"
        "void main() {\n"
        "  int nb = (MYPROC + 1) % PROCS;\n"
        "  for (int i = 0; i < 4; i = i + 1) {\n"
        f"    A[{home} * 4 + i] = MYPROC + i;\n"
        f"    B[{home} * 4 + i] = 0.5 * i;\n"
        "  }\n"
        "  barrier();\n"
        "  Out[MYPROC] = A[MYPROC * 4 + 1] + A[nb * 4 + 2];\n"
        "}\n"
    )
    for level in LEVELS:
        program = compile_source(source, level)
        # An explicit all_store_sync in front of the barrier: it parks
        # until every one-way store has landed.
        for block in program.module.main.blocks:
            for index, ins in enumerate(block.instrs):
                if ins.op is Opcode.BARRIER:
                    block.instrs.insert(index, Instr(Opcode.STORE_SYNC))
                    break
            else:
                continue
            break
        ops = {ins.op for ins in ops_of(program)}
        assert Opcode.STORE_SYNC in ops
        assert ops & {Opcode.PUT, Opcode.STORE}
        observed = both_engines(program)
        assert observed[0] == "ok"


KERNEL_PROCS = 4


@pytest.mark.parametrize("level", LEVELS, ids=lambda lvl: lvl.value)
@pytest.mark.parametrize("kernel", ["ocean", "em3d", "epithelial",
                                    "cholesky", "health"])
def test_kernels_agree_across_topologies_and_faults(kernel, level):
    program = compile_source(get_app(kernel).source(KERNEL_PROCS), level)
    for topology in BARRIER_TOPOLOGIES:
        both_engines(program, KERNEL_PROCS,
                     CM5.with_barrier_topology(topology))
    plan = FaultPlan(drop=0.05, duplicate=0.05, seed=11)
    observed = both_engines(program, KERNEL_PROCS, fault_plan=plan)
    assert observed[0] == "ok"


def _executed(monkeypatch):
    """Patches ``Processor._execute`` to log (op, uid, counter drained)."""
    log = []
    original = Processor._execute

    def execute(proc, instr, frame):
        drained = (instr.op is Opcode.SYNC_CTR
                   and not proc.counters.get(instr.counter, 0))
        log.append((instr.op, instr.uid, drained))
        return original(proc, instr, frame)

    monkeypatch.setattr(Processor, "_execute", execute)
    return log


def test_tso_still_routes_delay_fences_through_execute(monkeypatch):
    program = compile_source(SOURCES["put_store"], OptLevel.O1)
    fences = program.delay_fences
    assert fences
    tso = CM5.with_memory_model("tso", drain_seed=3)
    log = _executed(monkeypatch)
    program.run(4, tso, engine="reference")
    reference = {uid for _op, uid, _ in log if uid in fences}
    log.clear()
    program.run(4, tso)
    batched = {uid for _op, uid, _ in log if uid in fences}
    assert reference and batched == reference
    # Under SC the same fences are no-ops and fuse away entirely.
    log.clear()
    program.run(4, CM5)
    fused = {Opcode.GET, Opcode.PUT, Opcode.STORE, Opcode.SYNC_CTR,
             Opcode.READ_SHARED, Opcode.WRITE_SHARED}
    assert not [uid for op, uid, _ in log if uid in fences and op in fused]


def _scaled(kernel, procs):
    if kernel == "ocean":
        return ocean.scaled_source(procs, steps=1)
    return em3d.scaled_source(procs, steps=2)


@pytest.mark.parametrize("level", (OptLevel.O1, OptLevel.O3),
                         ids=lambda lvl: lvl.value)
@pytest.mark.parametrize("kernel", ["ocean", "em3d"])
def test_split_phase_ops_never_take_the_slow_path(kernel, level, monkeypatch):
    program = compile_source(_scaled(kernel, 16), level)
    log = _executed(monkeypatch)
    program.run(16, CM5)
    slow = [op for op, _uid, drained in log
            if op in (Opcode.GET, Opcode.PUT, Opcode.STORE)
            or (op is Opcode.SYNC_CTR and drained)]
    assert slow == []


@pytest.mark.parametrize("level", (OptLevel.O0, OptLevel.O1, OptLevel.O3),
                         ids=lambda lvl: lvl.value)
@pytest.mark.parametrize("kernel", ["ocean", "em3d"])
def test_decode_translates_each_instruction_once(kernel, level, monkeypatch):
    program = compile_source(_scaled(kernel, 16), level)
    translated = []
    for name in ("add", "add_local", "add_shared", "add_split"):
        original = getattr(decode._RunCompiler, name)

        def counting(self, ins, *args, _name=name, _original=original):
            translated.append((_name, id(ins)))
            return _original(self, ins, *args)

        monkeypatch.setattr(decode._RunCompiler, name, counting)
    Simulator(program.module, 16, CM5, delay_fences=program.delay_fences)
    instrs = len(ops_of(program))
    for name in ("add", "add_local", "add_shared", "add_split"):
        per_instr = [key for key in translated if key[0] == name]
        assert len(per_instr) == len(set(per_instr)) <= instrs
    assert translated


def test_long_straight_line_block_stays_within_the_call_depth():
    # Hundreds of local-home reads in one block: a chain of segments
    # per read.  Tail calls must hand back to the advance loop often
    # enough that Python's recursion limit is never approached.
    reads = sys.getrecursionlimit() + 200
    body = "  s = s + A[MYPROC];\n" * reads
    source = (
        "shared int A[4];\n"
        "void main() {\n"
        "  int s = 0;\n"
        "  A[MYPROC] = 1;\n"
        f"{body}"
        "  A[MYPROC] = s;\n"
        "}\n"
    )
    module = inlined(source)
    observations = {
        engine: observe(lambda: run_module(module, 2, CM5, engine=engine))
        for engine in ENGINES
    }
    assert observations["batched"] == observations["reference"]
    assert observations["batched"][1]["A"][:2] == [reads, reads]
