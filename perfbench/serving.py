"""The ``serve`` workload: a ``repro serve`` daemon driven over its socket.

Set-up compiles and runs the kernel set in-process (the references the
served outputs are checked against), then starts the daemon (in-process
compiles, no pool) on a fresh socket and store and primes it with the
kernel set at O0–O4.  A round is an open loop at a fixed rate followed
by a closed loop, both from this single process over at most ``nproc``
(and at most 2) connections:

* open loop — ``RATE`` requests per second on a fixed schedule, each
  timed from its due time, so a daemon stall delays every request
  behind it; the generator's own lateness is recorded;
* closed loop — every connection sends its next request as soon as the
  previous one is answered, over ``CLOSED_REQUESTS`` requests;
  completions per second is ``req_per_s``.

The mix is mostly repeat ``compile`` requests (store reads), ``MISS_SHARE``
fresh seeded programs (compile plus store write) and ``SIM_SHARE``
``simulate`` requests with unique seeds (a simulation plus a store write):
of every kernel's ``SIM_OPT`` build in the open loop, of every kernel at
O0, O1 and O3 in the closed loop.

With two or more CPUs the daemon runs on one of its own and, during a
round, the generator on the others; the round's host-speed probes run on
the daemon's CPU.  Left to the scheduler, the daemon's event-loop and
compile threads hand the GIL back and forth across CPUs, and the
generator lands on the daemon's CPU at random moments.  On a 2-vCPU VM
that spread ``req_p99_ms`` over 8-10 seeds by 9-27% (interquartile range
over median), which the probes could not correct; placed, and with the
open loop's simulations at ``SIM_OPT``, by 7-9%.
"""

from __future__ import annotations

import base64
import itertools
import os
import pickle
import random
import selectors
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import OptLevel, compile_source
from repro.apps import get_app
from repro.compiler import open_session
from repro.serve import protocol
from repro.serve.client import RetryPolicy, ServeClient, ServeError

from common import (
    KERNELS,
    SIM_LEVELS,
    CheckFailed,
    HarnessError,
    Recorder,
    SpeedProbe,
    Workload,
    compare_snapshots,
    cpu_count,
    median,
    percentile,
    same_code,
)
from compiles import draw

#: Open-loop arrival rate (requests per second): about a third of what
#: the daemon completes in the closed loop, so queues stay short.
RATE = 60.0
MISS_SHARE = 0.03
SIM_SHARE = 0.005
#: Open-loop simulations run this level.  With all three levels in the mix,
#: up to ten simulations cost about as much as the slowest fresh compiles,
#: so the 99th percentile fell among simulations in some runs and among
#: fresh compiles in others, and jumped by a quarter between runs of the
#: same code; with the five O3 runs it falls among fresh compiles.
SIM_OPT = "O3"
#: The open loop runs for this share of ``--seconds``; the closed loop
#: then completes ``CLOSED_REQUESTS`` requests of the same kinds.
OPEN_SHARE = 0.85
CLOSED_REQUESTS = 600
PROCS = 4
PRIME_LEVELS = ("O0", "O1", "O2", "O3", "O4")
#: Fresh programs: small ``mixed`` progen programs.
MISS_PHASES = 6
#: Seconds any wait on the daemon may take before the run fails.
STALL_TIMEOUT = 60.0
#: The open loop probes the host only when idle for at least this long
#: (a probe takes a few milliseconds).
IDLE_FOR_PROBE_S = 0.012
#: Per-layer metrics from client timings and the daemon's ``stats`` op.
LAYER_UNITS = {
    "serve.hit_ms.p50": "ms",
    "serve.miss_ms.p50": "ms",
    "serve.sim_ms.p50": "ms",
    "serve.late_ms.p99": "ms",
    "serve.store_hit_ratio": "ratio",
    "serve.puts": "count",
    "serve.batches": "count",
    "serve.dedup_hits": "count",
    "serve.overloaded": "count",
}


@dataclass
class Request:
    kind: str  # "hit" | "miss" | "sim"
    body: dict


class Daemon:
    """One ``repro serve`` subprocess with its own socket and store,
    confined to ``cpus`` when given."""

    def __init__(self, workdir: str, env: Dict[str, str],
                 cpus: Optional[Set[int]] = None) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.socket_path = os.path.relpath(os.path.join(workdir, "d.sock"))
        cache = os.path.join(workdir, "cache")
        self._log_path = os.path.join(workdir, "daemon.log")
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket_path, "--cache-dir", cache,
             "--jobs", "0"],
            env=dict(env, REPRO_CACHE_DIR=cache),
            stdout=self._log, stderr=subprocess.STDOUT,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus
            else None,
        )

    def log_tail(self) -> str:
        with open(self._log_path, "rb") as log:
            return log.read()[-2000:].decode("utf-8", "replace")

    def wait_ready(self) -> None:
        deadline = time.monotonic() + STALL_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise HarnessError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"listening:\n{self.log_tail()}")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket_path)
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise HarnessError("daemon did not listen within "
                                       f"{STALL_TIMEOUT:g}s") from None
                time.sleep(0.01)
            finally:
                probe.close()

    def client(self) -> ServeClient:
        """A control connection that never retries behind our back."""
        return ServeClient(self.socket_path, timeout=STALL_TIMEOUT,
                           retry=RetryPolicy(max_attempts=1))

    def connect(self) -> socket.socket:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(STALL_TIMEOUT)
        conn.connect(self.socket_path)
        return conn

    def stop(self) -> None:
        """The ``shutdown`` op, then wait; a timeout fails the run."""
        try:
            if self.proc.poll() is None:
                with self.client() as control:
                    control.shutdown()
            try:
                self.proc.wait(STALL_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise HarnessError(
                    f"daemon still running {STALL_TIMEOUT:g}s after "
                    "the shutdown op") from None
            if self.proc.returncode != 0:
                raise HarnessError(
                    f"daemon exited with {self.proc.returncode}:\n"
                    f"{self.log_tail()}")
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._log.close()


class Connections:
    """Pipelined request/response traffic over a few sockets."""

    def __init__(self, daemon: Daemon, count: int) -> None:
        self.conns = [daemon.connect() for _ in range(count)]
        self.selector = selectors.DefaultSelector()
        self.buffers: Dict[socket.socket, bytearray] = {}
        for conn in self.conns:
            self.selector.register(conn, selectors.EVENT_READ)
            self.buffers[conn] = bytearray()
        self.next_id = 0

    def send(self, conn: socket.socket, request: Request) -> int:
        self.next_id += 1
        conn.sendall(protocol.encode(dict(request.body, id=self.next_id)))
        return self.next_id

    def receive(self, timeout: float) -> Iterator[Tuple[socket.socket, dict]]:
        """Responses readable within ``timeout`` seconds."""
        for key, _events in self.selector.select(timeout):
            conn = key.fileobj
            data = conn.recv(1 << 20)
            if not data:
                raise HarnessError("daemon closed a load connection")
            buffer = self.buffers[conn]
            buffer.extend(data)
            while True:
                end = buffer.find(b"\n")
                if end < 0:
                    break
                line = bytes(buffer[:end + 1])
                del buffer[:end + 1]
                yield conn, protocol.validate_response(
                    protocol.decode_line(line))

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.close()


class ServeWorkload(Workload):
    name = "serve"
    rss_of_children = True

    def __init__(self, seed: int, smoke: bool, seconds: float,
                 workdir: str, env: Dict[str, str]) -> None:
        self.seed = seed
        self.smoke = smoke
        self.seconds = seconds
        self.workdir = workdir
        self.env = env
        self.rate = 20.0 if smoke else RATE
        self.connections = min(2, cpu_count())
        #: The daemon's CPU and the generator's CPUs during rounds.
        self.daemon_cpus, self.client_cpus = split_cpus()
        self.daemon: Optional[Daemon] = None
        self.setups = 0
        self.sources = {name: get_app(name).source(PROCS)
                        for name in KERNELS}
        self.kernel_of = {source: name
                          for name, source in self.sources.items()}
        #: (source, opt) -> every artifact sha256 served, one artifact
        self.artifacts: Dict[Tuple[str, str], set] = {}
        self.artifact_bytes: Dict[Tuple[str, str], str] = {}
        self.misses: List[Tuple[str, str]] = []
        #: (kernel, opt) -> served (cycles, snapshot) results
        self.simulations: Dict[Tuple[str, str], List[tuple]] = {}
        #: In-process references, rebuilt by every set-up.
        self.cold: Dict[Tuple[str, str], object] = {}
        self.local: Dict[Tuple[str, str], object] = {}
        self.last_round: Dict[str, List[float]] = {}
        self.stats_delta: Dict[str, float] = {}

    # -- set-up ------------------------------------------------------------

    def setup(self, rec: Recorder) -> None:
        """In-process references, then a fresh daemon on a fresh store,
        primed with the kernel set."""
        self._references(rec)
        self.setups += 1
        self.daemon = Daemon(
            os.path.join(self.workdir, f"serve{self.setups}"), self.env,
            self.daemon_cpus)
        self.daemon.wait_ready()
        with self.daemon.client() as control:
            for name in KERNELS:
                for opt in PRIME_LEVELS:
                    control.compile(self.sources[name], opt=opt)

    def _references(self, rec: Recorder) -> None:
        """Cold compiles, shared sweeps and runs of the kernel set: what
        the served artifacts and simulations are checked against."""
        self.cold = {}
        for name in KERNELS:
            source = self.sources[name]
            for opt in PRIME_LEVELS:
                start = time.perf_counter()
                self.cold[(source, opt)] = compile_source(source,
                                                          OptLevel(opt))
                rec.op("compile_s", f"{name}.{opt}",
                       time.perf_counter() - start)
                rec.between_operations()
            start = time.perf_counter()
            shared = open_session(source).compile_levels(
                [OptLevel(opt) for opt in PRIME_LEVELS])
            rec.op("sweep_s", name, time.perf_counter() - start)
            for program in shared:
                opt = program.opt_level.value
                same_code(self.cold[(source, opt)], program, f"{name} {opt}")
        self.local = {}
        for name in KERNELS:
            for opt in SIM_LEVELS:
                start = time.perf_counter()
                result = self.cold[(self.sources[name], opt)].run(PROCS)
                rec.note_sim(f"{name}.{opt}", opt, result,
                             time.perf_counter() - start)
                rec.between_operations()
                self.local[(name, opt)] = result

    def teardown(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.stop()

    @contextmanager
    def placement(self, probe: Optional[SpeedProbe]):
        """Keeps the generator off the daemon's CPU and probes that CPU."""
        if self.daemon_cpus is None:
            yield
            return
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.client_cpus)
        if probe is not None:
            probe.cpus = self.daemon_cpus
        try:
            yield
        finally:
            if probe is not None:
                probe.cpus = None
            os.sched_setaffinity(0, saved)

    # -- inputs ------------------------------------------------------------

    def _mix(self, rng: random.Random, count: int, misses: List[str],
             sim_seeds: Iterator[int], levels) -> List[Request]:
        """``count`` requests with exact kind shares, in seeded order.

        The simulations cover every kernel at every one of ``levels``
        equally often, so every seed sends the same mix of simulation
        costs.
        """
        hits = [(name, opt) for name in KERNELS for opt in PRIME_LEVELS]
        sims = [(name, opt) for name in KERNELS for opt in levels]
        n_miss = round(count * MISS_SHARE)
        n_sim = max(1, round(count * SIM_SHARE / len(sims))) * len(sims)
        kinds = (["miss"] * n_miss + ["sim"] * n_sim
                 + ["hit"] * (count - n_miss - n_sim))
        rng.shuffle(kinds)
        rng.shuffle(hits)
        rng.shuffle(sims)
        requests = []
        counters = {"hit": 0, "miss": 0, "sim": 0}
        for kind in kinds:
            index = counters[kind]
            counters[kind] += 1
            if kind == "hit":
                name, opt = hits[index % len(hits)]
                body = {"op": "compile", "source": self.sources[name],
                        "opt": opt}
            elif kind == "miss":
                body = {"op": "compile", "source": misses[index],
                        "opt": PRIME_LEVELS[index % len(PRIME_LEVELS)]}
            else:
                name, opt = sims[index % len(sims)]
                body = {"op": "simulate", "source": self.sources[name],
                        "opt": opt, "procs": PROCS,
                        "seed": next(sim_seeds)}
            requests.append(Request(kind, body))
        return requests

    def _fresh_programs(self, rng: random.Random, count: int) -> List[str]:
        return [draw(rng, "mixed", MISS_PHASES, PROCS).source
                for _ in range(count)]

    # -- a round -----------------------------------------------------------

    def round(self, rec: Recorder, index: int, tracer=None) -> None:
        rng = random.Random(f"{self.seed}/round{index}")
        count = max(1, int(self.rate * self.seconds * OPEN_SHARE))
        closed_count = 40 if self.smoke else CLOSED_REQUESTS
        misses = self._fresh_programs(
            rng, round(count * MISS_SHARE) + round(closed_count * MISS_SHARE))
        sim_seeds = itertools.count(1_000_000 * (index + 1))
        open_requests = self._mix(rng, count, misses, sim_seeds, (SIM_OPT,))
        used = sum(1 for request in open_requests if request.kind == "miss")
        closed_requests = self._mix(rng, closed_count, misses[used:],
                                    sim_seeds, SIM_LEVELS)
        with self.daemon.client() as control:
            before = control.stats()
        conns = Connections(self.daemon, self.connections)
        try:
            by_kind, lateness = self._open_loop(conns, open_requests, rec,
                                                index)
            self._closed_loop(conns, closed_requests, rec, index)
        finally:
            conns.close()
        with self.daemon.client() as control:
            after = control.stats()
        self.last_round = dict(by_kind, late=lateness)
        self.stats_delta = {
            name: _stat(after, name) - _stat(before, name)
            for name in ("cache.hits", "cache.misses", "cache.puts",
                         "batches", "dedup_hits", "overloaded")
        }

    def _book(self, rec: Recorder, request: Request, response: dict) -> bool:
        rec.attempted += 1
        if not response["ok"]:
            error = response["error"]
            rec.fail(request.kind, ServeError(error["code"],
                                              error["message"]))
            return False
        result = response["result"]
        body = request.body
        if body["op"] == "compile":
            key = (body["source"], body["opt"])
            self.artifacts.setdefault(key, set()).add(
                result["artifact_sha256"])
            self.artifact_bytes.setdefault(key, result["artifact"])
            if request.kind == "miss":
                self.misses.append(key)
        else:
            name = self.kernel_of[body["source"]]
            self.simulations.setdefault((name, body["opt"]), []).append(
                (result["cycles"], result["snapshot"]))
        return True

    def _open_loop(self, conns: Connections, requests: List[Request],
                   rec: Recorder, index: int):
        rate = self.rate
        pending: Dict[int, Tuple[Request, float]] = {}
        by_kind: Dict[str, List[float]] = {"hit": [], "miss": [], "sim": []}
        lateness: List[float] = []
        start = time.perf_counter()
        sent = 0
        limit = len(requests) / rate + STALL_TIMEOUT
        while sent < len(requests) or pending:
            now = time.perf_counter() - start
            if now > limit:
                raise HarnessError(
                    f"{len(pending)} open-loop requests unanswered after "
                    f"{limit:.0f}s")
            while sent < len(requests) and sent / rate <= now:
                due = sent / rate
                conn = conns.conns[sent % len(conns.conns)]
                lateness.append((time.perf_counter() - start - due) * 1000)
                request_id = conns.send(conn, requests[sent])
                pending[request_id] = (requests[sent], due)
                sent += 1
                now = time.perf_counter() - start
            wait = (sent / rate - now) if sent < len(requests) else 0.05
            if not pending and wait > IDLE_FOR_PROBE_S:
                # Nothing in flight and nothing due for a while: probe
                # the host speed without delaying any request.
                rec.between_operations()
                wait = (sent / rate - (time.perf_counter() - start)
                        if sent < len(requests) else 0.05)
            for _conn, response in conns.receive(max(0.0, wait)):
                done = time.perf_counter() - start
                request, due = pending.pop(response["id"])
                latency = (done - due) * 1000.0
                rec.op("latency_ms", f"{index}.{response['id']}", latency)
                if self._book(rec, request, response):
                    by_kind[request.kind].append(latency)
        return by_kind, lateness

    def _closed_loop(self, conns: Connections, requests: List[Request],
                     rec: Recorder, index: int) -> None:
        """Completions per second over a fixed list of requests."""
        queue = iter(requests)
        pending: Dict[int, Request] = {}
        start = time.perf_counter()
        for conn in conns.conns:
            request = next(queue)
            pending[conns.send(conn, request)] = request
        completed = 0
        while pending:
            if time.perf_counter() - start > STALL_TIMEOUT:
                raise HarnessError("closed-loop requests unanswered after "
                                   f"{STALL_TIMEOUT:g}s")
            for conn, response in conns.receive(0.05):
                completed += self._book(rec, pending.pop(response["id"]),
                                        response)
                request = next(queue, None)
                if request is not None:
                    pending[conns.send(conn, request)] = request
        rec.op("req_per_s", str(index),
               completed / (time.perf_counter() - start))

    # -- checks ------------------------------------------------------------

    def check(self, rec: Recorder) -> None:
        """Served artifacts and simulations against in-process runs."""
        cold = dict(self.cold)
        sampled = random.Random(self.seed).sample(
            self.misses, min(10, len(self.misses)))
        for key in sampled:
            cold[key] = compile_source(key[0], OptLevel(key[1]))
        for key, program in cold.items():
            served = self.artifacts.get(key)
            if served is None:
                continue
            if len(served) != 1:
                raise CheckFailed(f"{len(served)} different artifacts "
                                  f"served for one {key[1]} program")
            # Instruction uids come from a process-wide counter, so the
            # daemon's pickle differs from ours by uid numbering only:
            # compare code, offset-normalized fences and the report.
            served_program = pickle.loads(
                base64.b64decode(self.artifact_bytes[key]))
            same_code(program, served_program, f"served {key[1]} artifact")
            if served_program.report != program.report:
                raise CheckFailed(f"served {key[1]} codegen report differs "
                                  "from the in-process compile")
        for (name, opt), local in sorted(self.local.items()):
            expected = {var: list(values)
                        for var, values in local.snapshot().items()}
            app = get_app(name)
            for cycles, snapshot in self.simulations.get((name, opt), []):
                what = f"served {name} {opt}"
                if cycles != local.cycles:
                    raise CheckFailed(f"{what} ran {cycles} cycles, "
                                      f"in-process {local.cycles}")
                compare_snapshots(expected, snapshot, what)
                try:
                    app.check(snapshot, PROCS)
                except AssertionError as exc:
                    raise CheckFailed(f"{what}: {exc}") from None

    # -- per-layer ---------------------------------------------------------

    def serve_metrics(self) -> Dict[str, float]:
        by_kind = self.last_round
        delta = self.stats_delta
        hits, misses = delta["cache.hits"], delta["cache.misses"]
        return {
            "serve.hit_ms.p50": _p50(by_kind.get("hit")),
            "serve.miss_ms.p50": _p50(by_kind.get("miss")),
            "serve.sim_ms.p50": _p50(by_kind.get("sim")),
            "serve.late_ms.p99": (percentile(by_kind["late"], 99)
                                  if by_kind.get("late") else 0.0),
            "serve.store_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "serve.puts": delta["cache.puts"],
            "serve.batches": delta["batches"],
            "serve.dedup_hits": delta["dedup_hits"],
            "serve.overloaded": delta["overloaded"],
        }



def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """(daemon CPUs, generator CPUs): the last usable CPU and the rest,
    or (None, None) on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


def _p50(values: Optional[List[float]]) -> float:
    return median(values) if values else 0.0


def _stat(stats: dict, dotted: str) -> float:
    value = stats
    for part in dotted.split("."):
        value = value[part]
    return float(value)
