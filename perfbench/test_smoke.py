"""Smoke-size self-test of the benchmark.

Runs every workload once at tiny sizes, untraced and traced, and checks
the contract the benchmark promises: every metric ``BENCHMARK.json``
names appears with its unit, end-to-end values are never zero, the
wrapper-count cross-checks hold (a traced run that fails them exits
non-zero), per-layer counts and simulated cycles repeat exactly, and a
second seed passes every output check.  Run with::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Per-layer values that depend on daemon scheduling, not on the inputs.
TIMING_DEPENDENT = ("serve.puts", "serve.batches", "serve.dedup_hits",
                    "serve.overloaded")


def bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(out) -> dict:
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def units(result: dict) -> dict:
    return {name: value["unit"]
            for name, value in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_and_nonzero(workload):
    result = result_of(bench(workload, trace=0))
    assert units(result) == {metric["name"]: metric["unit"]
                             for metric in SPEC["end_to_end"]}
    zero = [name for name, value in result["metrics"].items()
            if not value["value"] > 0]
    assert not zero, f"zero end-to-end metrics: {zero}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(workload):
    result_of(bench(workload, trace=0, seed=4))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_metrics_and_repeatable_counts(workload):
    # The traced run asserts its wrapper-count cross-checks itself and
    # exits non-zero when one fails.
    first = result_of(bench(workload, trace=1))
    assert units(first) == {metric["name"]: metric["unit"]
                            for metric in SPEC["per_layer"]}
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0
    second = result_of(bench(workload, trace=1))
    for name, value in first["metrics"].items():
        if value["unit"] in ("count", "cycles") and \
                name not in TIMING_DEPENDENT:
            assert second["metrics"][name]["value"] == value["value"], name


def test_sim_cycles_repeat_exactly():
    runs = [result_of(bench("sim-weak-lossy", trace=0, seed=5))
            for _ in range(2)]
    cycles = [run["metrics"]["sim_cycles"]["value"] for run in runs]
    assert cycles[0] == cycles[1]


def test_cross_check_catches_a_bypassed_wrapper():
    from common import CheckFailed
    from repro.runtime.network import Message, MsgKind, Network
    from tracing import Tracer

    network = Network(wire_latency=10)
    captured = network.send  # bound before the wrappers exist
    tracer = Tracer()
    tracer.install()
    try:
        network.send(Message(MsgKind.GET_REQ, src=0, dst=1), 0)
        captured(Message(MsgKind.GET_REQ, src=0, dst=1), 5)
    finally:
        tracer.uninstall()
    counts = {"runtime.messages": network.stats.total_messages}
    with pytest.raises(CheckFailed, match="Network.send"):
        tracer.cross_check(tracer.summarize(), counts)
    counts["runtime.messages"] = 1
    tracer.cross_check(tracer.summarize(), counts)
    assert Network.send.__name__ == "send"  # the original is restored


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(WORKLOADS[0], trace=0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
