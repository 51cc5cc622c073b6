"""The traced run: spans around the calls into each layer of ``repro``.

A :class:`Tracer` replaces public functions and methods of the
program's layers with thin wrappers that record one span per call —
name, start, end, parent span and run id — into flat in-memory arrays,
and writes them out once the run ends.  The wrappers live here, in the
benchmark's own files; the program is not edited.

Wrappers must be installed before any ``Simulator`` or compilation
session the traced phase uses is built: a simulator binds some methods
at construction (``Simulator._push = calendar.push``, the barrier
handlers), and a bound method captured before installation would
bypass its wrapper.  The traced round builds every simulator and
session it uses after installation, and :meth:`Tracer.cross_check`
compares the wrapped call counts with the program's own counters and
fails loudly when they differ, instead of reporting a layer that did
no work.
"""

from __future__ import annotations

import gzip
import json
import time
import types
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.perf.profiler import Profiler, profiled
from repro.pipeline import passes as pipeline_passes
from repro.pipeline.passes import REGISTRY
from repro.pipeline.program import CompiledProgram
from repro.runtime import simulator as simulator_module
from repro.runtime.events import CalendarQueue
from repro.runtime.memory import StoreBuffers
from repro.runtime.network import MsgKind, Network
from repro.runtime.topology import CentralBarrier, TreeBarrier
from repro.serve import protocol

from common import CheckFailed

BARRIER_METHODS = ("local_arrive", "on_arrive", "on_release", "maybe_release")
STOREBUF_METHODS = ("enqueue", "drain", "flush", "flush_all")


class Tracer:
    """Records spans of wrapped calls into parallel flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.runs = array("i")
        self._stack: List[int] = []
        #: Identifier shared by the spans of one benchmark operation.
        self.run_id = 0
        self.run_labels: Dict[int, str] = {}
        self.profiler = Profiler()
        #: Barrier topologies built while traced (for their round counts).
        self.topologies: list = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_run(self, label: str) -> None:
        """Starts a new operation: later spans carry its run id."""
        self.run_id += 1
        self.run_labels[self.run_id] = label

    def _wrapper(self, original: Callable, name: str,
                 on_result: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        starts, ends = self.starts, self.ends
        name_ids, parents, runs = self.name_ids, self.parents, self.runs
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            runs.append(tracer.run_id)
            ends.append(0.0)
            starts.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Replaces ``owner.attr`` on a class, a module or an instance."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, self._wrapper(original, name, on_result))
        # An instance attribute shadows its class's method: undo by
        # deleting it; classes and modules get the original back.
        is_instance = not isinstance(owner, (type, types.ModuleType))
        self._patches.append((owner, attr, original, is_instance))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        self.wrap(pipeline_passes, "parse_and_check", "lang.parse")
        self.wrap(pipeline_passes, "lower_program", "ir.lower")
        self.wrap(pipeline_passes, "inline_all", "ir.inline")
        for pass_name, instance in REGISTRY.items():
            self.wrap(instance, "run", f"pipeline.{pass_name}")
        self.wrap(CompiledProgram, "run", "runtime.run")
        self.wrap(simulator_module, "decode_function", "runtime.decode")
        self.wrap(simulator_module, "build_topology", "runtime.topology",
                  on_result=self.topologies.append)
        self.wrap(Network, "send", "runtime.network.send")
        self.wrap(Network, "transmit", "runtime.network.transmit")
        self.wrap(CalendarQueue, "push", "runtime.events.push")
        self.wrap(CalendarQueue, "pop_batch", "runtime.events.pop_batch")
        for cls in (CentralBarrier, TreeBarrier):
            for method in BARRIER_METHODS:
                if method in cls.__dict__:
                    self.wrap(cls, method, f"runtime.barrier.{method}")
        for method in STOREBUF_METHODS:
            self.wrap(StoreBuffers, method, f"runtime.memory.{method}")
        self.wrap(protocol, "encode", "serve.protocol.encode")
        self.wrap(protocol, "decode_line", "serve.protocol.decode")

    def uninstall(self) -> None:
        for owner, attr, original, instance_attr in reversed(self._patches):
            if instance_attr:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self) -> Iterator[None]:
        """Wrappers plus the pass profiler, for one traced phase."""
        self.install()
        try:
            with profiled(self.profiler):
                yield
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def summarize(self) -> "SpanSummary":
        """One pass over every span: call counts and layer seconds."""
        groups = [_group(name) for name in self.names]
        name_ids, parents = self.name_ids, self.parents
        starts, ends, runs = self.starts, self.ends, self.runs
        summary = SpanSummary(
            calls={name: name_ids.count(nid)
                   for nid, name in enumerate(self.names)})
        run_nid = self._name_ids.get("runtime.run", -2)
        for index, nid in enumerate(name_ids):
            duration = ends[index] - starts[index]
            group = groups[nid]
            parent = parents[index]
            if parent >= 0 and name_ids[parent] == run_nid:
                summary.run_children += duration
            nested = False
            while parent >= 0:
                if groups[name_ids[parent]] == group:
                    nested = True
                    break
                parent = parents[parent]
            if nested:
                continue
            summary.seconds[group] = summary.seconds.get(group, 0.0) + duration
            if nid == run_nid:
                label = self.run_labels.get(runs[index], "")
                summary.run_by_label[label] = (
                    summary.run_by_label.get(label, 0.0) + duration)
        return summary

    def cross_check(self, summary: "SpanSummary",
                    counts: Dict[str, float]) -> None:
        """Wrapped call counts must equal the program's own counters."""
        calls = summary.calls.get
        wire = (calls("runtime.network.send", 0)
                + calls("runtime.network.transmit", 0))
        messages = int(counts.get("runtime.messages", 0))
        if wire != messages:
            raise CheckFailed(
                f"trace cross-check: {wire} wrapped Network.send/transmit "
                f"calls != {messages} NetworkStats.total_messages"
            )
        runs = calls("runtime.run", 0)
        booked = int(counts.get("runtime.runs", 0))
        if runs != booked:
            raise CheckFailed(
                f"trace cross-check: {runs} wrapped CompiledProgram.run "
                f"calls != {booked} simulations the benchmark made"
            )
        executed = sum(calls(f"pipeline.{name}", 0) for name in REGISTRY)
        events = sum(1 for event in self.profiler.pass_events
                     if not event["cached"])
        if executed != events:
            raise CheckFailed(
                f"trace cross-check: {executed} wrapped pass runs != "
                f"{events} non-cached pass_events"
            )

    def write(self, path: str) -> None:
        """Writes every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "run_labels": {str(k): v for k, v in self.run_labels.items()},
            "layout": ["starts:d", "ends:d", "name_ids:i", "parents:i",
                       "runs:i"],
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.starts, self.ends, self.name_ids,
                           self.parents, self.runs):
                out.write(column.tobytes())


@dataclass
class SpanSummary:
    """Aggregates of one traced run's spans."""

    calls: Dict[str, int]
    #: group -> seconds in the group's outermost spans
    seconds: Dict[str, float] = field(default_factory=dict)
    #: operation label -> seconds in its ``CompiledProgram.run`` spans
    run_by_label: Dict[str, float] = field(default_factory=dict)
    #: seconds the direct children of ``CompiledProgram.run`` cover
    run_children: float = 0.0


def _group(name: str) -> str:
    """The per-layer group of a span name (``runtime.events.push`` ->
    ``runtime.events``); a call nested in its own group counts once."""
    for prefix in ("runtime.barrier.", "runtime.events.",
                   "runtime.network.", "runtime.memory.",
                   "serve.protocol."):
        if name.startswith(prefix):
            return prefix[:-1]
    return name


def per_layer_metrics(tracer: Tracer, summary: SpanSummary,
                      counts: Dict[str, float], runtime_labels: List[str],
                      overhead_ratio: float) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced run, ``name -> (value, unit)``.

    ``counts`` are the program's counters booked by the workload during
    the traced phases; serve-side metrics are merged in by the caller.
    """
    spent = summary.seconds.get
    metrics: Dict[str, Tuple[float, str]] = {
        "lang.parse_s": (spent("lang.parse", 0.0), "s"),
        "ir.lower_s": (spent("ir.lower", 0.0), "s"),
        "ir.inline_s": (spent("ir.inline", 0.0), "s"),
    }
    for pass_name in REGISTRY:
        metrics[f"pipeline.{pass_name}_s"] = (
            spent(f"pipeline.{pass_name}", 0.0), "s")
    prof = tracer.profiler.counters
    metrics["pipeline.artifact_hit_ratio"] = (_ratio(
        prof.get("pipeline.artifact_hits", 0),
        prof.get("pipeline.artifact_misses", 0)), "ratio")
    metrics["analysis.closures"] = (prof.get("engine.closures", 0), "count")
    metrics["analysis.closure_hit_ratio"] = (_ratio(
        prof.get("engine.closure_cache_hits", 0),
        prof.get("engine.closures", 0)), "ratio")
    metrics["analysis.symbolic_hit_ratio"] = (_ratio(
        prof.get("symbolic.cache_hits", 0),
        prof.get("symbolic.cache_misses", 0)), "ratio")
    for name in ("sync_moves", "one_way_conversions", "counters_after",
                 "gets_eliminated", "code_instrs"):
        metrics[f"codegen.{name}"] = (
            counts.get(f"codegen.{name}", 0), "count")

    for label in runtime_labels:
        metrics[f"runtime.run_s.{label}"] = (
            summary.run_by_label.get(label, 0.0), "s")
    run_s = spent("runtime.run", 0.0)
    instrs = counts.get("runtime.instrs", 0)
    metrics["runtime.instrs"] = (instrs, "count")
    metrics["runtime.ns_per_instr"] = (
        run_s * 1e9 / instrs if instrs else 0.0, "ns")
    metrics["runtime.decode_s"] = (spent("runtime.decode", 0.0), "s")
    metrics["runtime.interp_self_s"] = (run_s - summary.run_children, "s")
    metrics["runtime.network.send_s"] = (spent("runtime.network", 0.0), "s")
    for kind in MsgKind:
        metrics[f"runtime.network.msgs.{kind.name}"] = (
            counts.get(f"runtime.network.msgs.{kind.name}", 0), "count")
    metrics["runtime.events.s"] = (spent("runtime.events", 0.0), "s")
    metrics["runtime.events.batches"] = (
        summary.calls.get("runtime.events.pop_batch", 0), "count")
    metrics["runtime.barrier_s"] = (spent("runtime.barrier", 0.0), "s")
    metrics["runtime.barrier_rounds"] = (
        sum(topology.generation() for topology in tracer.topologies),
        "count")
    wait = counts.get("runtime.wait_cycles", 0)
    proc_cycles = counts.get("runtime.proc_cycles", 0)
    metrics["runtime.wait_cycles"] = (wait, "cycles")
    metrics["runtime.utilization"] = (
        1.0 - wait / proc_cycles if proc_cycles else 0.0, "ratio")
    metrics["runtime.memory.storebuf_s"] = (
        spent("runtime.memory", 0.0), "s")
    for name in ("weak.fences", "weak.buffered_writes", "retransmits"):
        metrics[f"runtime.{name}"] = (counts.get(f"runtime.{name}", 0),
                                      "count")
    transmitted = counts.get("runtime.transmitted", 0)
    metrics["runtime.delivery_ratio"] = (
        counts.get("runtime.delivered", 0) / transmitted
        if transmitted else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0
