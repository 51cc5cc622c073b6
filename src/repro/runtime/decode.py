"""Threaded-code decoder for the batched engine's interpreter.

Profiling the seed runtime at 256 processors showed the event heap was
*not* the bottleneck: ~80% of wall time sat in ``Processor._execute``'s
giant opcode dispatch and its per-operand ``value()`` calls.  The
batched engine therefore decodes each function once per simulator into
**step closures** — one callable per entry point — and the advance
loop becomes ``r = steps[i](proc, frame, regs)`` with the closure
returning the next index (or ``-1`` = refetch frame/block, ``-2`` =
blocked/done, ``-3`` = jumped to the head of ``frame.block``).

Two tiers of steps:

* **Fused runs.**  Maximal straight-line sequences of fusable opcodes
  are compiled to generated Python source: operand loads become direct
  ``regs[...]`` accesses, temps written earlier in a segment are cached
  in Python locals, and a segment's cycle cost is added with a single
  ``proc.clock +=``.  Local opcodes (const/move/binop/unop/intrinsic/
  local array traffic, plus a trailing jump/branch) always fuse.  When
  the run is untraced and sequentially consistent, the simulator-
  visible opcodes the paper's code generator emits fuse too:

  - blocking ``read_shared``/``write_shared`` and split-phase
    ``get``/``put``/``store`` compile their owner test inline; a local
    home indexes the backing storage directly, a remote ``get``/
    ``put``/``store`` settles the partial cost and calls the
    processor's send helper (the one implementation of the message,
    the counter bump and the ``PENDING`` landing) and the run goes on,
    while a remote blocking access parks the processor through the
    seed ``_execute`` path;
  - a group of consecutive ``sync_ctr`` ops is checked at once and
    fallen through (``cpu_op`` each) when every counter is drained;
    otherwise the group's exact per-instruction steps block at the
    first undrained counter through the seed ``_block``.

  Delay fences are no-ops under SC, so they do not break runs there.

* **Slow steps.**  Everything else — synchronization, ``store_sync``,
  call/ret, every shared or split-phase op of a traced or weak-memory
  run, and (under TSO/PSO) every instruction whose uid is a
  compiler-placed delay fence — funnels through the seed
  ``Processor._execute`` unchanged, which keeps message formats, fence
  semantics, blocking behavior and trace recording bit-for-bit
  identical between engines.

A blocked processor resumes inside a run: after a remote blocking
access (the frame has moved past it) and at a ``sync_ctr`` (it
re-executes on wake).  Each such position starts a new **segment**:
every run compiles to a chain of segment functions, one per entry
point, each ending in a tail call of the next
(``return _next(proc, frame, regs)``, the successor bound as a default
argument), so every instruction is translated exactly once and a
resume enters the chain mid-way.  One ``exec`` per function compiles
all of its segments, and the compiled code is cached by the digest of
its source: repeated runs of one program skip Python's compiler.

Parity contract (pinned by the differential tests): for any program,
the decoded interpreter produces the same per-processor clocks,
instruction counts, message sequences and faults as the seed
``advance`` loop.  The subtleties that matter:

* reads of a temp that may hold a pending split-phase value
  (a ``get`` destination, or a load from a local array some fused
  ``get`` lands in) are guarded exactly like ``value()``;
* an undefined temp raises the seed's ``use of undefined temp``
  fault (the advance loop converts a ``KeyError`` raised by generated
  code, see :func:`undefined_temp`);
* bounds faults (local arrays, fused-get landing pads, shared leading
  and trailing dimensions) reproduce the seed messages verbatim and in
  the seed's evaluation order;
* the cycle-budget check moves from per-instruction to per-step —
  a runaway loop still faults (every loop crosses a block boundary,
  i.e. a step), merely a few cycles later.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from types import CodeType
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import RuntimeFault
from repro.ir.cfg import Function
from repro.ir.instructions import BinOpKind, Const, Instr, Opcode, UnOpKind
from repro.lang.types import Distribution, ScalarKind

Value = object


class _Pending:
    """Sentinel stored in a get's destination until the reply lands."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<pending>"


PENDING = _Pending()


def _binop(kind: BinOpKind, left, right):
    if kind is BinOpKind.ADD:
        return left + right
    if kind is BinOpKind.SUB:
        return left - right
    if kind is BinOpKind.MUL:
        return left * right
    if kind is BinOpKind.DIV:
        if isinstance(left, int) and isinstance(right, int):
            if right == 0:
                raise RuntimeFault("integer division by zero")
            return int(math.trunc(left / right))  # C-style truncation
        if right == 0:
            raise RuntimeFault("float division by zero")
        return left / right
    if kind is BinOpKind.MOD:
        if right == 0:
            raise RuntimeFault("modulo by zero")
        left_i, right_i = int(left), int(right)
        return left_i - int(math.trunc(left_i / right_i)) * right_i
    if kind is BinOpKind.EQ:
        return int(left == right)
    if kind is BinOpKind.NE:
        return int(left != right)
    if kind is BinOpKind.LT:
        return int(left < right)
    if kind is BinOpKind.LE:
        return int(left <= right)
    if kind is BinOpKind.GT:
        return int(left > right)
    if kind is BinOpKind.GE:
        return int(left >= right)
    if kind is BinOpKind.AND:
        return int(bool(left) and bool(right))
    if kind is BinOpKind.OR:
        return int(bool(left) or bool(right))
    raise RuntimeFault(f"unknown binop {kind}")  # pragma: no cover


def _intrinsic(name: str, args: List):
    if name == "min":
        return min(args)
    if name == "max":
        return max(args)
    if name == "abs":
        return abs(args[0])
    if name == "sqrt":
        return math.sqrt(args[0])
    if name == "floor":
        return int(math.floor(args[0]))
    if name == "exp":
        return math.exp(args[0])
    if name == "sin":
        return math.sin(args[0])
    if name == "cos":
        return math.cos(args[0])
    raise RuntimeFault(f"unknown intrinsic {name}")  # pragma: no cover


#: Opcodes the fuser may compile inline: purely local effects.
FAST_OPS = frozenset(
    {
        Opcode.CONST,
        Opcode.MOVE,
        Opcode.BINOP,
        Opcode.UNOP,
        Opcode.INTRINSIC,
        Opcode.LOAD_LOCAL,
        Opcode.STORE_LOCAL,
        Opcode.JUMP,
        Opcode.BRANCH,
    }
)

#: Blocking shared accesses the fuser may specialize when the run is
#: untraced and sequentially consistent.  A remote home blocks, so the
#: position after each one is a resume entry.
SHARED_OPS = frozenset({Opcode.READ_SHARED, Opcode.WRITE_SHARED})

#: Split-phase accesses fused under the same condition.  They never
#: block: a remote home sends and the run goes on.
SPLIT_OPS = frozenset({Opcode.GET, Opcode.PUT, Opcode.STORE})

#: Longest chain of segment tail calls before a segment hands its
#: successor's index back to the advance loop instead (bounds the
#: Python call depth on very long straight-line blocks).
CHAIN_LIMIT = 32

#: ``co_filename`` of the generated segments (see :func:`undefined_temp`).
SOURCE_NAME = "<decoded>"

#: Compiled segment code by digest of the generated source.  Decoding
#: happens per simulator, but repeated runs of one program on one
#: machine generate identical source, so only the first pays for
#: Python's compiler.
_CODE_CACHE: Dict[bytes, CodeType] = {}
_CODE_CACHE_LIMIT = 64

#: Binop kinds whose semantics are type-independent enough to inline.
_INLINE_BINOPS: Dict[BinOpKind, str] = {
    BinOpKind.ADD: "({l} + {r})",
    BinOpKind.SUB: "({l} - {r})",
    BinOpKind.MUL: "({l} * {r})",
    BinOpKind.EQ: "(1 if {l} == {r} else 0)",
    BinOpKind.NE: "(1 if {l} != {r} else 0)",
    BinOpKind.LT: "(1 if {l} < {r} else 0)",
    BinOpKind.LE: "(1 if {l} <= {r} else 0)",
    BinOpKind.GT: "(1 if {l} > {r} else 0)",
    BinOpKind.GE: "(1 if {l} >= {r} else 0)",
    BinOpKind.AND: "(1 if {l} and {r} else 0)",
    BinOpKind.OR: "(1 if {l} or {r} else 0)",
}

#: Step-closure signature: (processor, frame, regs) -> next index,
#: -1 to refetch frame/block state, -2 when blocked or done, JUMPED
#: after a fused jump/branch set ``frame.block`` (same frame, index 0).
Step = Callable[[object, object, Dict[str, Value]], int]
JUMPED = -3


def _tuple(terms: List[str]) -> str:
    """A tuple display of the given expressions."""
    return "(" + "".join(f"{term}, " for term in terms) + ")"


def _pending_temps(function: Function) -> Set[str]:
    """Temp names that may transiently hold the PENDING sentinel.

    Exactly two producers exist: a non-fused ``get``'s destination
    temp, and a ``load_local`` from an array some fused ``get`` uses as
    its landing pad (the load copies the sentinel without faulting,
    just like the seed interpreter).  Every other write goes through a
    checked read first, so nothing propagates further.
    """
    pending_arrays = set()
    for block in function.blocks:
        for ins in block.instrs:
            if ins.op is Opcode.GET and ins.local_array is not None:
                pending_arrays.add(ins.local_array)
    pending: Set[str] = set()
    for block in function.blocks:
        for ins in block.instrs:
            if (
                ins.op is Opcode.GET
                and ins.local_array is None
                and ins.dest is not None
            ):
                pending.add(ins.dest.name)
            elif (
                ins.op is Opcode.LOAD_LOCAL
                and ins.var in pending_arrays
            ):
                pending.add(ins.dest.name)
    return pending


def _unreachable(proc, frame, regs) -> int:  # pragma: no cover - guard
    raise RuntimeFault(
        f"P{proc.pid}: decoder entered the middle of a fused run at "
        f"{frame.block}+{frame.index}"
    )


class _Namespace:
    """The exec namespace shared by all segments of one function."""

    def __init__(self) -> None:
        self.env: Dict[str, object] = {
            "RuntimeFault": RuntimeFault,
            "_Pending": _Pending,
            "_binop": _binop,
            "_intrinsic": _intrinsic,
        }
        self.names = itertools.count()
        self.bound: Dict[object, str] = {}

    def fresh(self, prefix: str = "v") -> str:
        return f"{prefix}{next(self.names)}"

    def bind(self, value, key=None) -> str:
        """Binds a non-literal constant; ``key`` shares one binding."""
        if key is not None:
            name = self.bound.get(key)
            if name is not None:
                return name
        name = self.fresh("c")
        self.env[name] = value
        if key is not None:
            self.bound[key] = name
        return name


class _RunCompiler:
    """Generates one fused segment's step function as Python source."""

    def __init__(self, function: Function, machine, pending: Set[str],
                 sim, ns: _Namespace):
        self.function = function
        self.machine = machine
        self.pending = pending
        self.sim = sim
        self.ns = ns
        self.fresh = ns.fresh
        self.lines: List[str] = []
        self.local_map: Dict[str, str] = {}
        self.array_map: Dict[str, str] = {}
        self.cost = 0
        self.count = 0
        self.result: Optional[str] = None

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def fault(self, indent: str, message: str) -> None:
        """Emits ``raise RuntimeFault(f"<message>")``."""
        self.emit(f'{indent}raise RuntimeFault(f"{message}")')

    # -- operand access ----------------------------------------------------

    def read(self, operand) -> str:
        if isinstance(operand, Const):
            return repr(operand.value)
        name = operand.name
        cached = self.local_map.get(name)
        if cached is not None:
            return cached
        if name in self.pending:
            var = self.fresh()
            self.emit(f"{var} = regs[{name!r}]")
            self.emit(f"if {var}.__class__ is _Pending:")
            self.fault(
                "    ",
                f"P{{proc.pid}}: read of %{name} before its get completed "
                "(missing sync_ctr — compiler bug)",
            )
            self.local_map[name] = var
            return var
        return f"regs[{name!r}]"

    def write(self, dest, expr: str) -> None:
        var = self.fresh()
        self.emit(f"regs[{dest.name!r}] = {var} = {expr}")
        self.local_map[dest.name] = var

    def array(self, var: str) -> str:
        cached = self.array_map.get(var)
        if cached is None:
            cached = self.fresh()
            self.emit(f"{cached} = frame.arrays[{var!r}]")
            self.array_map[var] = cached
        return cached

    def flat_expr(self, array: str, indices, what: str) -> str:
        """Bounds-checked flat offset into a local array.

        Replicates ``_local_flat`` (``what`` = ``local array``) and
        ``_local_flat_fused`` (``what`` = ``fused get target``).
        """
        dims = self.function.local_arrays[array].dims
        flat = None
        for operand, extent in zip(indices, dims):
            if isinstance(operand, Const):
                index = int(operand.value)
                if 0 <= index < extent:
                    term = str(index)
                else:
                    # Out of range statically: fault when executed,
                    # with the seed's exact message.
                    self.fault(
                        "",
                        f"P{{proc.pid}}: {what} {array} index {index} "
                        f"out of range [0, {extent})",
                    )
                    term = "0"  # unreachable
            else:
                iv = self.fresh()
                self.emit(f"{iv} = int({self.read(operand)})")
                self.emit(f"if not 0 <= {iv} < {extent}:")
                self.fault(
                    "    ",
                    f"P{{proc.pid}}: {what} {array} index {{{iv}}} "
                    f"out of range [0, {extent})",
                )
                term = iv
            flat = term if flat is None else f"({flat} * {extent} + {term})"
        return flat if flat is not None else "0"

    # -- shared addressing (the GlobalMemory checks, inlined) --------------

    def shared_indices(self, ins: Instr) -> List[str]:
        """Evaluates every index left to right (``indices_of``):
        undefined/pending faults fire before any bounds check."""
        terms: List[str] = []
        for operand in ins.indices:
            if isinstance(operand, Const):
                terms.append(str(int(operand.value)))
            else:
                iv = self.fresh()
                self.emit(f"{iv} = int({self.read(operand)})")
                terms.append(iv)
        return terms

    def shared_owner(self, ins: Instr, terms: List[str]) -> str:
        """Leading bounds check + owner (``GlobalMemory.owner``)."""
        var = self.sim.memory.var(ins.var)
        if not var.dims:
            return "0"  # shared scalars live on processor 0
        num_procs = self.sim.num_procs
        lead = terms[0]
        extent = var.dims[0]
        self.emit(f"if not 0 <= {lead} < {extent}:")
        self.fault(
            "    ",
            f"{ins.var}: leading index {{{lead}}} out of range [0, {extent})",
        )
        if var.distribution is Distribution.CYCLIC:
            expr = f"{lead} % {num_procs}"
        else:
            block = -(-extent // num_procs)
            if block * num_procs == extent:
                # Even division: the min() clamp can never fire
                # (lead < extent implies lead // block < procs).
                expr = f"{lead} // {block}"
            else:
                expr = f"min({lead} // {block}, {num_procs - 1})"
        owner = self.fresh()
        self.emit(f"{owner} = {expr}")
        return owner

    def shared_element(self, ins: Instr, terms: List[str],
                       indent: str) -> str:
        """Trailing bounds checks (the leading one already ran), then
        the ``storage[flat]`` expression for the element."""
        var = self.sim.memory.var(ins.var)
        flat = terms[0] if var.dims else "0"
        for term, extent in zip(terms[1:], var.dims[1:]):
            self.emit(f"{indent}if not 0 <= {term} < {extent}:")
            self.fault(
                indent + "    ",
                f"{ins.var}: index {{{term}}} out of range [0, {extent})",
            )
            flat = f"({flat} * {extent} + {term})"
        storage = self.ns.bind(
            self.sim.memory.array(ins.var), key=("storage", ins.var)
        )
        return f"{storage}[{flat}]"

    def stored(self, ins: Instr, value: str, indent: str) -> str:
        """The value as ``GlobalMemory.write`` stores it (an int
        variable coerces before the bounds checks run)."""
        if self.sim.memory.var(ins.var).kind is not ScalarKind.INT:
            return value
        coerced = self.fresh()
        self.emit(f"{indent}{coerced} = int({value})")
        return coerced

    # -- per-opcode translation -------------------------------------------

    def add(self, ins: Instr, index: int) -> None:
        """Translates one instruction at block position ``index``."""
        op = ins.op
        if op in SHARED_OPS:
            self.add_shared(ins, index)
        elif op in SPLIT_OPS:
            self.add_split(ins)
        else:
            self.add_local(ins)

    def add_local(self, ins: Instr) -> None:
        machine = self.machine
        op = ins.op
        self.count += 1
        if op is Opcode.CONST:
            self.write(ins.dest, repr(ins.value))
            self.cost += machine.cpu_op
        elif op is Opcode.MOVE:
            self.write(ins.dest, self.read(ins.src))
            self.cost += machine.cpu_op
        elif op is Opcode.BINOP:
            template = _INLINE_BINOPS.get(ins.binop)
            left, right = self.read(ins.lhs), self.read(ins.rhs)
            if template is not None:
                expr = template.format(l=left, r=right)
            else:  # DIV/MOD: runtime-typed, share the seed helper
                kind = self.ns.bind(ins.binop, key=ins.binop)
                expr = f"_binop({kind}, {left}, {right})"
            self.write(ins.dest, expr)
            self.cost += machine.cpu_op
        elif op is Opcode.UNOP:
            value = self.read(ins.src)
            if ins.unop is UnOpKind.NEG:
                expr = f"(-{value})"
            else:
                expr = f"(0 if {value} else 1)"
            self.write(ins.dest, expr)
            self.cost += machine.cpu_op
        elif op is Opcode.INTRINSIC:
            args = ", ".join(self.read(a) for a in ins.args)
            self.write(ins.dest, f"_intrinsic({ins.intrinsic!r}, [{args}])")
            self.cost += machine.cpu_op * 4
        elif op is Opcode.LOAD_LOCAL:
            array = self.array(ins.var)
            flat = self.flat_expr(ins.var, ins.indices, "local array")
            self.write(ins.dest, f"{array}[{flat}]")
            self.cost += machine.local_mem
        elif op is Opcode.STORE_LOCAL:
            array = self.array(ins.var)
            flat = self.flat_expr(ins.var, ins.indices, "local array")
            self.emit(f"{array}[{flat}] = {self.read(ins.src)}")
            self.cost += machine.local_mem
        elif op is Opcode.JUMP:
            self.emit(f"frame.block = {ins.target!r}")
            self.cost += machine.cpu_op
            self.result = str(JUMPED)
        elif op is Opcode.BRANCH:
            cond = self.read(ins.cond)
            self.emit(f"if {cond} != 0:")
            self.emit(f"    frame.block = {ins.true_target!r}")
            self.emit("else:")
            self.emit(f"    frame.block = {ins.false_target!r}")
            self.cost += machine.cpu_op
            self.result = str(JUMPED)
        else:  # pragma: no cover - the fuser only feeds fusable ops
            raise RuntimeFault(f"cannot fuse {ins}")

    def add_shared(self, ins: Instr, index: int) -> None:
        """Inlines a blocking shared access (read_shared/write_shared).

        Replicates ``_blocking_read``/``_blocking_write`` for the
        local-home case — same fault messages, same evaluation order
        (all indices, then the written value, then the leading-bounds
        /owner check, then trailing bounds) and the same
        ``local_access`` charge.  A remote owner settles the run's
        partial cost and calls the processor's request helper, which
        sends and parks until the reply; the access ends its segment
        (the processor resumes at the next one).
        """
        terms = self.shared_indices(ins)
        val = None
        if ins.op is Opcode.WRITE_SHARED:
            # ``_blocking_write`` evaluates the value before the owner
            # lookup can fault.
            val = self.fresh()
            self.emit(f"{val} = {self.read(ins.src)}")
        owner = self.shared_owner(ins, terms)
        ins_ref = self.ns.bind(ins)
        address = _tuple(terms)
        self.emit(f"if {owner} != proc.pid:")
        if self.cost:
            self.emit(f"    proc.clock += {self.cost}")
        self.emit(f"    proc.instructions += {self.count + 1}")
        self.emit(f"    frame.index = {index}")
        if val is None:
            self.emit(f"    proc._request_read({ins_ref}, {address}, {owner})")
        else:
            self.emit(f"    proc._request_write({ins_ref}, {address}, "
                      f"{owner}, {val})")
        self.emit("    return -2")
        if ins.op is Opcode.READ_SHARED:
            self.write(ins.dest, self.shared_element(ins, terms, ""))
        else:
            val = self.stored(ins, val, "")
            self.emit(f"{self.shared_element(ins, terms, '')} = {val}")
        self.cost += self.machine.local_access
        self.count += 1

    def add_split(self, ins: Instr) -> None:
        """Inlines a split-phase ``get``/``put``/``store``.

        Same evaluation order as ``_issue_get``/``_issue_put``/
        ``_issue_store``: indices, the stored value, leading bounds and
        owner, a fused get's landing offset, then (local home only)
        trailing bounds.  A local home touches the backing storage
        directly for ``local_access``; a remote one settles the partial
        cost, calls the processor's send helper and compensates so the
        run's static cost stays correct on both paths.
        """
        op = ins.op
        terms = self.shared_indices(ins)
        val = None
        if op is not Opcode.GET:
            val = self.read(ins.src)
            if not val.isidentifier():
                tmp = self.fresh()
                self.emit(f"{tmp} = {val}")
                val = tmp
        owner = self.shared_owner(ins, terms)
        landing = None
        if op is Opcode.GET and ins.local_array is not None:
            landing = self.flat_expr(
                ins.local_array, ins.local_indices, "fused get target"
            )
            if not landing.isidentifier() and not landing.isdigit():
                tmp = self.fresh()
                self.emit(f"{tmp} = {landing}")
                landing = tmp
        self.emit(f"if {owner} == proc.pid:")
        if op is not Opcode.GET:
            value = self.stored(ins, val, "    ")
            element = self.shared_element(ins, terms, "    ")
            self.emit(f"    {element} = {value}")
        else:
            element = self.shared_element(ins, terms, "    ")
            if landing is not None:
                # Only a reference cached before the branch is usable.
                array = self.array_map.get(
                    ins.local_array, f"frame.arrays[{ins.local_array!r}]"
                )
                self.emit(f"    {array}[{landing}] = {element}")
            else:
                self.emit(f"    regs[{ins.dest.name!r}] = {element}")
        self.emit("else:")
        if self.cost:
            self.emit(f"    proc.clock += {self.cost}")
        ins_ref = self.ns.bind(ins)
        address = _tuple(terms)
        if op is Opcode.GET:
            call = f"_send_get({ins_ref}, {address}, {owner}, {landing})"
        elif op is Opcode.PUT:
            call = f"_send_put({ins_ref}, {address}, {owner}, {val})"
        else:
            call = f"_send_store({ins_ref}, {address}, {owner}, {val})"
        self.emit(f"    proc.{call}")
        self.cost += self.machine.local_access
        self.emit(f"    proc.clock -= {self.cost}")
        self.count += 1
        if ins.dest is not None:
            # Local home wrote the value, remote home parked PENDING:
            # later reads go back to ``regs`` through the pending guard.
            self.local_map.pop(ins.dest.name, None)

    def settle(self, indent: str = "    ") -> List[str]:
        lines = [f"{indent}proc.clock += {self.cost}"] if self.cost else []
        if self.count:
            lines.append(f"{indent}proc.instructions += {self.count}")
        return lines

    def guard(self, group: List[Instr]) -> None:
        """Falls through a group of consecutive ``sync_ctr`` ops when
        every counter is drained (``cpu_op`` each); otherwise settles
        and tail-calls ``_fallback``, the group's exact per-instruction
        steps, which block at the first undrained counter."""
        checks = " or ".join(
            f"counters.get({ins.counter!r}, 0)" for ins in group
        )
        self.lines.append("    counters = proc.counters")
        self.lines.append(f"    if {checks}:")
        self.lines.extend(self.settle("        "))
        self.lines.append("        return _fallback(proc, frame, regs)")
        self.cost += self.machine.cpu_op * len(group)
        self.count += len(group)

    def source(self, name: str, after: str) -> str:
        """The segment as ``def name(...)``; ``after`` is the return
        expression when the segment does not end in a jump/branch.
        ``_next`` (the successor segment) and ``_fallback`` (a guarded
        group's exact steps) are bound as defaults once every step of
        the function exists: no step references another through the
        namespace, so a decoded function holds no reference cycle."""
        return "\n".join(
            [
                f"def {name}(proc, frame, regs, _next=None, _fallback=None):",
                *self.lines,
                *self.settle(),
                f"    return {self.result or after}",
            ]
        )


def _make_slow(ins: Instr, index: int) -> Step:
    """A step that funnels through the seed ``_execute`` path."""
    if ins.op in (Opcode.JUMP, Opcode.BRANCH, Opcode.CALL, Opcode.RET):
        # Control may change the frame or block: refetch on success.
        def step(proc, frame, regs, _ins=ins, _idx=index) -> int:
            frame.index = _idx
            proc.instructions += 1
            if proc._execute(_ins, frame):
                return -1
            return -2
    else:
        def step(
            proc, frame, regs, _ins=ins, _idx=index, _nxt=index + 1
        ) -> int:
            frame.index = _idx
            proc.instructions += 1
            if proc._execute(_ins, frame):
                # Non-control success always lands on index + 1
                # (blocking paths return False instead).
                return _nxt
            return -2
    return step


def _make_sync_ctr(ins: Instr, index: int, cpu_op: int, after) -> Step:
    """The exact step of one ``sync_ctr`` in a group (the blocking and
    resume path; the common path is the group check in generated code):
    falls through a drained counter for ``cpu_op`` into ``after`` (the
    next step, tail-called, or the index to hand back to the advance
    loop); otherwise blocks exactly like ``_execute`` and re-executes
    here on wake."""

    def step(proc, frame, regs, _ins=ins, _c=ins.counter, _idx=index,
             _why=("counter", ins.counter), _cost=cpu_op, _nxt=after,
             _call=callable(after)) -> int:
        if proc.counters.get(_c, 0):
            proc.instructions += 1
            frame.index = _idx
            proc._block(_why, _ins)
            return -2
        proc.clock += _cost
        proc.instructions += 1
        return _nxt(proc, frame, regs) if _call else _nxt

    return step


def _pieces(instrs: List[Instr], start: int,
            stop: int) -> List[Tuple[int, int, bool]]:
    """Splits the fused run ``instrs[start:stop]`` into segments
    ``(head, end, is_sync_group)``.  A new segment starts after each
    blocking shared access (the resume point once its reply lands) and
    at each maximal group of consecutive ``sync_ctr`` ops, which is a
    segment of its own (each op re-executes on wake)."""
    pieces: List[Tuple[int, int, bool]] = []
    head = start
    for k in range(start, stop):
        sync = instrs[k].op is Opcode.SYNC_CTR
        if k > head and sync != (instrs[head].op is Opcode.SYNC_CTR):
            pieces.append((head, k, not sync))
            head = k
        if instrs[k].op in SHARED_OPS and k + 1 < stop:
            pieces.append((head, k + 1, False))
            head = k + 1
    pieces.append((head, stop, instrs[head].op is Opcode.SYNC_CTR))
    return pieces


def undefined_temp(proc, exc: KeyError) -> Optional[RuntimeFault]:
    """The seed's ``use of undefined temp`` fault for a ``KeyError``
    that a generated segment raised reading ``regs`` (None when the
    error came from anywhere else)."""
    tb = exc.__traceback__
    if tb is None:
        return None
    while tb.tb_next is not None:
        tb = tb.tb_next
    if tb.tb_frame.f_code.co_filename != SOURCE_NAME:
        return None
    return RuntimeFault(
        f"P{proc.pid}: use of undefined temp %{exc.args[0]}"
    )


def _compiled(source: str) -> CodeType:
    key = hashlib.blake2b(source.encode()).digest()
    code = _CODE_CACHE.get(key)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        code = _CODE_CACHE[key] = compile(source, SOURCE_NAME, "exec")
    return code


def decode_function(
    function: Function,
    machine,
    delay_fences: Optional[frozenset] = None,
    sim=None,
) -> Dict[str, List[Step]]:
    """Decodes every block of ``function`` into step lists.

    Entry points into a step list are index 0, each slow step's
    successor, and the segment heads inside fused runs (see
    :func:`_pieces`, and each member of a ``sync_ctr`` group); every
    other index of a fused run holds a loud guard.

    When ``sim`` is given and the run is untraced and sequentially
    consistent, shared, split-phase and ``sync_ctr`` opcodes fuse too,
    and delay fences are ignored (they only drain store buffers, which
    SC does not have).  Each fused run becomes a chain of segments, one
    per entry point, so decoding stays linear in the function size.
    """
    sc = sim is not None and sim.weak is None
    shared_ok = sc and sim.trace is None
    # Delay fences only drain store buffers, which SC does not have.
    fences = frozenset() if sc else (delay_fences or frozenset())
    pending = _pending_temps(function)

    def fusable(ins: Instr) -> bool:
        if ins.uid in fences:
            return False
        op = ins.op
        if op in FAST_OPS:
            return True
        if not shared_ok:
            return False
        if op is Opcode.SYNC_CTR:
            return True
        if op in SHARED_OPS or op in SPLIT_OPS:
            # Unknown variables and arity mismatches fault through the
            # seed path instead.
            try:
                var = sim.memory.var(ins.var)
            except RuntimeFault:
                return False
            if len(ins.indices) != len(var.dims):
                return False
            return op is not Opcode.GET or (
                ins.dest is not None or ins.local_array is not None
            )
        return False

    ns = _Namespace()
    sources: List[str] = []
    #: (steps, head, name, successor name, fallback name) per segment
    generated: List[tuple] = []
    #: (steps, head, sync_ctr group, key, successor, guarded) per group;
    #: ``key`` names the group's first exact step
    groups: List[tuple] = []
    decoded: Dict[str, List[Step]] = {}
    for block in function.blocks:
        instrs = block.instrs
        steps: List[Step] = [_unreachable] * len(instrs)
        i = 0
        while i < len(instrs):
            if not fusable(instrs[i]):
                steps[i] = _make_slow(instrs[i], i)
                i += 1
                continue
            j = i
            while j < len(instrs) and fusable(instrs[j]):
                j += 1
            pieces = _pieces(instrs, i, j)
            names = [ns.fresh("_s") for _ in pieces]
            # How each segment continues: tail-call the next one, except
            # at the end of the run and every CHAIN_LIMIT segments (then
            # the advance loop dispatches the next index).
            succ = [
                (None if stop == j or not (m + 1) % CHAIN_LIMIT
                 else names[m + 1], stop)
                for m, (_, stop, _) in enumerate(pieces)
            ]
            for m, (start, stop, sync) in enumerate(pieces):
                if sync:
                    # Exact per-op steps; a group heading the run also
                    # gets a generated entry that checks it at once.
                    groups.append((steps, start, instrs[start:stop],
                                   names[m] + "g", succ[m], m == 0))
                    if m:
                        continue
                run = _RunCompiler(function, machine, pending, sim, ns)
                (target, index), fallback = succ[m], None
                if sync:
                    run.guard(instrs[start:stop])
                    fallback = names[m] + "g"
                else:
                    for k in range(start, stop):
                        run.add(instrs[k], k)
                    if m + 1 < len(pieces) and pieces[m + 1][2]:
                        # Fall through the following group inline.
                        head, end, _ = pieces[m + 1]
                        run.guard(instrs[head:end])
                        fallback = names[m + 1] + "g"
                        target, index = succ[m + 1]
                sources.append(run.source(
                    names[m],
                    "_next(proc, frame, regs)" if target else str(index),
                ))
                generated.append((steps, start, names[m], target, fallback))
            i = j
        decoded[block.label] = steps
    fns: Dict[Optional[str], Optional[Step]] = {None: None}
    if sources:
        env = ns.env
        exec(_compiled("\n".join(sources)), env)  # noqa: S102
        for _steps, _start, name, _target, _fallback in generated:
            fns[name] = env.pop(name)
    for steps, head, group, key, (target, index), guarded in groups:
        # Back to front: each op falls through into the next one (or
        # the group's successor).
        nxt = fns[target] if target else index
        for p in range(len(group) - 1, -1, -1):
            step = _make_sync_ctr(group[p], head + p, machine.cpu_op, nxt)
            if p or not guarded:
                steps[head + p] = step
            nxt = step if p % CHAIN_LIMIT else head + p
        fns[key] = step
    for steps, start, name, target, fallback in generated:
        fn = fns[name]
        fn.__defaults__ = (fns[target], fns[fallback])
        steps[start] = fn
    return decoded
