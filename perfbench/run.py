"""Solve-and-certify benchmark for the setgames library.

    python3 perfbench/run.py --workload net-small --seed 0 --seconds 45 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``. One client runs one operation at a time (a closed loop) with BLAS
pinned to one thread. Each operation carries a seeded game to a certified
equilibrium (see ``workloads.py``); a pass runs every operation of the
workload once.

Set-up (instance generation plus the references) is repeated between passes
and its median reported as ``setup_s``. With ``--trace 0`` untraced passes run
for ``--seconds`` and the end-to-end metrics are reported: the pass time
``wall_s`` (each operation's median time over the passes, summed),
``setup_s`` and ``peak_rss_mb`` of this process. The first pass only warms
up when two or more follow it. Both times are rescaled to a
reference host speed measured while they run (``hostspeed.py``). With
``--trace 1`` untraced passes run for half the time and traced passes for
the other half, and the per-layer metrics of the traced passes are reported.

Every line but the last is a human-readable record: the machine, the verdict
of the gate for each operation, and each metric by name with its unit. The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed`` counts operations that raised or did
not pass the gate. ``correct`` is false when the benchmark's own checks do
not hold: the instances differ between set-up repetitions, or an operation's
outputs differ between passes. Per-pass spans and a full record are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up runs at least this often; one repetition follows each untraced pass.
SETUP_MIN_REPS = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Timed layers report self time as ".s" (".self_s" for solve_compact) and
# the number of calls as ".calls".
TIMED_LAYERS = (
    ("oracles.attacker_oracle", ".s", True),
    ("oracles.masks_up_to_size", ".s", True),
    ("lp.solve_matrix_game", ".s", True),
    ("oracles.defender_oracle", ".s", True),
    ("oracles.partition_support", ".s", True),
    ("oracles.solve_separable", ".s", True),
    ("network.induce_benefit", ".s", True),
    ("network.separable_approximation", ".s", False),
    ("setfunctions.moebius", ".s", True),
    ("setfunctions.zeta", ".s", False),
    ("compact.build_compact_game", ".s", True),
    ("compact.compact_value", ".s", True),
    ("equilibrium.solve_compact", ".self_s", False),
    ("equilibrium.best_response_gap", ".s", False),
)
COUNTS = (
    "oracles.attacker_oracle.candidates", "lp.cells", "lp.failures",
    "network.components", "network.widest_component", "compact.support_size",
    "equilibrium.rounds", "equilibrium.oracle_calls", "equilibrium.not_converged",
    "equilibrium.caratheodory.calls",
)
RATIOS = ("oracles.new_vertex_ratio",)
TRACING = (("tracing.wall_s", "s"), ("tracing.overhead_s", "s"), ("host.kernel_s", "s"))


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for layer, suffix, with_calls in TIMED_LAYERS:
        names.append((layer + suffix, "s"))
        if with_calls:
            names.append((layer + ".calls", "count"))
    names += [(n, "count") for n in COUNTS]
    names += [(n, "ratio") for n in RATIOS]
    return names + list(TRACING)


def machine(args, passes: dict, setup_reps: int) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "setup_reps": setup_reps,
    }


class SetUp:
    """Repeated set-up: times every build and checks that it repeats exactly.

    Repetitions are interleaved with the passes, so set-up samples the same
    stretch of time as the passes.
    """

    def __init__(self, workloads, workload: str, seed: int, speed):
        self._build = lambda: workloads.build(workload, seed)
        self._speed = speed
        self.intervals: list[tuple] = []
        self.instances = self._timed_build()
        self._pickled = pickle.dumps(self.instances)
        self.same = True

    def _timed_build(self):
        instances, interval = self._speed.run(self._build)
        self.intervals.append(interval)
        return instances

    def repeat(self) -> None:
        self.same = self.same and pickle.dumps(self._timed_build()) == self._pickled


def run_pass(workloads, instances, speed):
    """One pass; returns the outcomes and each operation's interval."""
    gc.collect()
    timed = [speed.run(lambda inst=inst: workloads.run_operation(inst)) for inst in instances]
    return [outcome for outcome, _ in timed], [interval for _, interval in timed]


def pass_seconds(operations) -> float:
    return sum(interval[2] for interval in operations)


def run_passes(workloads, instances, seconds: float, speed, tracing=None, after_pass=None):
    """Passes until the next one would overrun ``seconds`` (at least one).

    Returns each pass's outcomes and the ``(start, end, seconds)`` interval of
    each of its operations. With
    ``tracing`` (the :mod:`tracer` module) each pass runs under a fresh
    :class:`tracer.Tracer`. ``after_pass`` runs after every pass, untimed.
    """
    intervals, results, tracers = [], [], []
    start = perf_counter()
    while True:
        if tracing is None:
            outcomes, operations = run_pass(workloads, instances, speed)
        else:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                outcomes, operations = run_pass(workloads, instances, speed)
            tracers.append(tracer)
        intervals.append(operations)
        results.append(outcomes)
        if after_pass is not None:
            after_pass()
        if perf_counter() - start + statistics.median(map(pass_seconds, intervals)) > seconds:
            return intervals, results, tracers


def steady(samples: list) -> list:
    """Drop the first pass, which warms up, when at least two passes follow it."""
    return samples[1:] if len(samples) > 2 else samples


def layer_values(tracer, outcomes) -> dict[str, float]:
    selfs = tracer.self_times()
    values = {}
    for layer, suffix, with_calls in TIMED_LAYERS:
        s, calls = selfs.get(layer, (0.0, 0))
        values[layer + suffix] = s
        if with_calls:
            values[layer + ".calls"] = calls
    counts = dict(tracer.counts)
    counts["network.widest_component"] = tracer.widest_component
    counts["equilibrium.rounds"] = sum(o.rounds for o in outcomes)
    counts["equilibrium.not_converged"] = sum(o.converged is False for o in outcomes)
    counts["equilibrium.caratheodory.calls"] = selfs.get("equilibrium.caratheodory", (0, 0))[1]
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    oracle_calls = values["equilibrium.oracle_calls"]
    added = sum(o.added_vertices for o in outcomes)
    values["oracles.new_vertex_ratio"] = added / oracle_calls if oracle_calls else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Pin BLAS before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "setgames" / "__init__.py").is_file():
        print(f"error: no library source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import setgames

    if Path(setgames.__file__).resolve().parent != (src / "setgames").resolve():
        print(f"error: imported setgames from {setgames.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer
    import workloads
    from hostspeed import HostSpeed

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with HostSpeed() as speed:
        setup = SetUp(workloads, args.workload, args.seed, speed)
        instances = setup.instances
        # Keep the collector from rescanning the benchmark's own long-lived data.
        gc.collect()
        gc.freeze()

        budget = args.seconds / 2 if args.trace else args.seconds
        passes, results, _ = run_passes(workloads, instances, budget, speed,
                                        after_pass=setup.repeat)
        while len(setup.intervals) < SETUP_MIN_REPS:
            setup.repeat()
        traced_passes, traced_results, tracers = [], [], []
        if args.trace:
            traced_passes, traced_results, tracers = run_passes(
                workloads, instances, budget, speed, tracing=tracer)

    def at_reference_speed(passes):
        """One pass's time: each operation's median over the passes, summed.

        A slow stretch of the host then only counts where it hits the same
        operation in most passes.
        """
        per_operation = zip(*([speed.reference_seconds(iv) for iv in ops]
                              for ops in steady(passes)))
        return sum(statistics.median(times) for times in per_operation)

    all_results = results + traced_results
    reference = [o.fingerprint for o in all_results[0]]
    repeatable = all([o.fingerprint for o in r] == reference for r in all_results)
    attempted = sum(len(r) for r in all_results)
    failed = sum(o.reason is not None for r in all_results for o in r)

    OUT.mkdir(exist_ok=True)
    if args.trace:
        per_pass = steady([layer_values(t, r) for t, r in zip(tracers, traced_results)])
        counts_repeat = all(
            all(p[name] == per_pass[0][name] for p in per_pass) for name in COUNTS)
        repeatable = repeatable and counts_repeat
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["tracing.wall_s"] = at_reference_speed(traced_passes)
        values["tracing.overhead_s"] = at_reference_speed(traced_passes) - at_reference_speed(passes)
        values["host.kernel_s"] = statistics.median(d for _, d in speed.samples)
        units = per_layer_names()
        tracers[-1].dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "wall_s": at_reference_speed(passes),
            "setup_s": statistics.median(speed.reference_seconds(iv) for iv in setup.intervals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    correct = setup.same and repeatable

    info = machine(args, {"untraced": len(passes), "traced": len(traced_passes)},
                   len(setup.intervals))
    print("machine:", json.dumps(info))
    for outcome in all_results[0]:
        verdict = "ok" if outcome.reason is None else f"FAILED {outcome.reason}"
        print(f"op {outcome.label}: {verdict}")
    if not setup.same:
        print("check: set-up repetitions produced different instances")
    if not repeatable:
        print("check: outputs or counts differ between passes")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, machine=info,
                  operations=[{"label": o.label, "reason": o.reason} for o in all_results[0]],
                  pass_s={"untraced": [pass_seconds(ops) for ops in passes],
                          "traced": [pass_seconds(ops) for ops in traced_passes]},
                  pass_reference_s=[sum(map(speed.reference_seconds, ops)) for ops in passes],
                  setup_raw_s=[iv[2] for iv in setup.intervals],
                  kernel_samples=len(speed.samples))
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
