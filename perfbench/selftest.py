"""Tests of the benchmark itself: generator, gate and tracing.

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import pickle
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import setgames  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DECLARED = [w["name"] for w in
            json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def small_instances():
    net = workloads.build("net-small", 3)
    dense = workloads.build("dense-scaled", 3)
    # one 3x4 and one 4x5 network, and one dense game at every scale
    return [net[0], net[6]] + dense[:3]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = pickle.dumps(workloads.build(workload, 11))
    assert pickle.dumps(workloads.build(workload, 11)) == first
    assert pickle.dumps(workloads.build(workload, 12)) != first


@pytest.mark.parametrize("workload", DECLARED)
def test_declared_workloads_have_no_failing_operation(workload):
    outcomes = [workloads.run_operation(inst) for inst in workloads.build(workload, 3)]
    assert [(o.label, o.reason) for o in outcomes if o.reason] == []


def test_tracing_leaves_values_and_mixtures_unchanged(small_instances):
    plain = [workloads.run_operation(inst) for inst in small_instances]
    spans = tracer.Tracer()
    with tracer.traced(spans):
        traced = [workloads.run_operation(inst) for inst in small_instances]
    assert [o.fingerprint for o in traced] == [o.fingerprint for o in plain]
    assert spans.self_times()["equilibrium.solve_compact"][1] == len(small_instances)
    # the wrappers are gone again
    assert setgames.equilibrium.attacker_oracle is setgames.oracles.attacker_oracle
    assert setgames.oracles.masks_up_to_size is setgames.bits.masks_up_to_size
    assert not hasattr(setgames.solve_compact, "__wrapped__")


def _passing(instances):
    for inst in instances:
        spec, report = workloads.solve(inst, [])
        if workloads.gate(inst, spec, report) is None:
            yield inst, spec, report


def test_gate_rejects_corrupted_answers(small_instances):
    checked = 0
    for inst, spec, report in _passing(small_instances):
        shifted = dataclasses.replace(report, value=report.value + 0.01 * inst.scale)
        assert workloads.gate(inst, spec, shifted) is not None
        for side in ("attacker", "defender"):
            mix = getattr(report, side)
            if len(mix.atoms) < 2:
                continue
            heaviest = max(mix.atoms, key=lambda atom: atom[1])
            dropped = setgames.MixedStrategy.from_pairs(a for a in mix.atoms if a != heaviest)
            corrupted = dataclasses.replace(report, **{side: dropped})
            assert workloads.gate(inst, spec, corrupted) is not None
        checked += 1
    assert checked >= 3


def test_library_errors_count_as_failures(small_instances, monkeypatch):
    def fail(*args, **kwargs):
        raise setgames.errors.SolverFailureError("simplex did not terminate")

    monkeypatch.setattr(setgames, "solve_compact", fail)
    outcome = workloads.run_operation(small_instances[0])
    assert outcome.reason == "SolverFailureError: simplex did not terminate"


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0],
               ["leaf", 2.0, 3.0, 1]]
    assert t.self_times() == {"outer": (6.0, 1), "inner": (3.0, 2), "leaf": (1.0, 1)}


def test_reference_seconds_divide_out_the_kernel_slowdown():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.KERNEL_REF_S
    speed.samples = [(1.0, 2 * ref), (2.0, 2 * ref), (10.0, ref)]
    assert speed.reference_seconds((0.5, 2.5, 3.0)) == 1.5
    assert speed.reference_seconds((9.5, 10.5, 3.0)) == 3.0


def test_kernel_time_is_not_charged_to_the_work():
    def work():
        until = time.perf_counter() + 3 * hostspeed.INTERVAL
        while time.perf_counter() < until:
            pass

    with hostspeed.HostSpeed() as speed:
        _, (start, end, seconds) = speed.run(work)
    assert speed.samples
    assert seconds < end - start
