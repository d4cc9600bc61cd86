"""Run one workload of the framevol benchmark for one seed and print its metrics.

    python3 perfbench/run.py --workload maximize-large --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics untraced.  It runs whole rounds
of operations for --seconds; every round repeats the same inputs.  Right
after each operation a fixed speed probe (speed_probe) runs three times.
The operation's slowdown is the fastest of them divided by PROBE_REF_S,
and the two time metrics are scaled to the reference speed by it:
    setup_s        median wall time of fresh interpreters that import framevol
                   and build the workload's inputs, three before the timed
                   work and three after it
    op_p50_ref_s   median over the operations that returned of their wall
                   time divided by their slowdown
    ops_per_ref_s  those operations per second of their scaled wall time
    peak_rss_mb    peak resident memory (VmHWM) of the process that did the
                   work: this one in process, the largest CLI child for verify-cli
--trace 1 runs the operations untraced for half of --seconds, then runs the
same operations again with every framevol layer wrapped (see layers.py)
and prints the per-layer metrics, per attempted traced operation, with the
tracing overhead (traced minus untraced op_p50_ref_s).  The full per-function
table, self times included, is written to perfbench/results/.

Both modes check every result after the timed work (see workloads.py).
A wrong result sets `correct` false.  An operation that raises counts in
`failed` and sets `correct` false too, except the known-failing degenerate
start of sweep-small, which only counts in `failed`.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import checkout

checkout.cap_threads()  # before numpy is first imported, by the modules below
import layers  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3  # set-ups before the timed work, and as many after it
PROBES_PER_OP = 3
PROBE_REF_S = 0.0055  # typical fastest of three speed_probe() times on the machine in README.md
IMPORT_REPEATS = 3


def run_round(workload, fv, inputs, tracer=None):
    """The records of one round: one operation at a time, each timed on its own.

    Right after each operation the speed probe runs PROBES_PER_OP times.
    """
    records = []
    for op in workload.round(inputs):
        start = perf_counter()
        try:
            payload, error = workload.run(fv, inputs, op, tracer), None
        except Exception:
            payload, error = None, traceback.format_exc()
        seconds = perf_counter() - start
        probe_s = min(speed_probe() for _ in range(PROBES_PER_OP))
        records.append(workloads.Record(op, seconds, probe_s, payload, error))
    return records


def run_phase(workload, fv, inputs, seconds=None, rounds=None, tracer=None):
    """Whole rounds until ``seconds`` of work or ``rounds`` rounds: the records and the rounds."""
    records, work, done = [], 0.0, 0
    while (work < seconds) if rounds is None else (done < rounds):
        batch = run_round(workload, fv, inputs, tracer)
        records += batch
        work += sum(record.seconds for record in batch)
        done += 1
    return records, done


def evaluate(workload, inputs, records):
    """The outcome of every record, checked in order."""
    seen = {}
    for record in records:
        if record.error:
            print(f"{record.op}: {record.error}", file=sys.stderr)
    return [workload.check(inputs, record, seen) for record in records]


_PROBE_MATRICES = np.random.default_rng(0).standard_normal((500, 6, 6))
_DET, _SVD = np.linalg.det, np.linalg.svd  # bound before a tracer can wrap them


def speed_probe():
    """Wall time of a fixed mix of pure-Python and small-matrix numpy work.

    The probe is the benchmark's own code, so no change to framevol moves it;
    only the machine's speed does.
    """
    start = perf_counter()
    table = {subset: sum(subset) % 3 for subset in itertools.combinations(range(12), 5)}
    sorted(table.items(), key=lambda item: item[1])
    for _ in range(6):
        _DET(_PROBE_MATRICES)
        _SVD(_PROBE_MATRICES[:50])
    return perf_counter() - start


def ref_seconds(records):
    """The wall time of every operation that returned, scaled to the reference speed.

    An operation's slowdown is the fastest of the probes right after it,
    divided by PROBE_REF_S.
    """
    return [rec.seconds * PROBE_REF_S / rec.probe_s for rec in records if not rec.error]


def op_p50_ref(records):
    times = ref_seconds(records)
    return statistics.median(times) if times else math.nan


def child_seconds(command):
    """Wall time of a fresh interpreter running ``command``, and its stdout."""
    start = perf_counter()
    completed = subprocess.run(
        command, cwd=checkout.ROOT, env=checkout.child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return perf_counter() - start, completed.stdout.strip()


def measure_setup(workload, seed, digest, repeats):
    """Wall times of ``repeats`` fresh interpreters that build the inputs of ``seed``."""
    child = [sys.executable, str(checkout.ROOT / "perfbench" / "child.py")]
    times = []
    for _ in range(repeats):
        seconds, printed = child_seconds(
            [*child, "setup", "--workload", workload.name, "--seed", str(seed)]
        )
        if printed != digest:
            raise RuntimeError(f"setup child built other inputs: {printed} != {digest}")
        times.append(seconds)
    return times


def measure_import():
    child = [sys.executable, str(checkout.ROOT / "perfbench" / "child.py"), "import"]
    return statistics.median(
        float(child_seconds(child)[1]) for _ in range(IMPORT_REPEATS)
    )


def peak_rss_mb(workload, records):
    if workload.in_process:
        return checkout.peak_rss_mb()
    return max((record.payload[1] for record in records if not record.error), default=float("nan"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    fv = checkout.import_framevol()
    if opts.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {opts.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[opts.workload]
    inputs = workload.build(fv, opts.seed)

    if opts.trace == 0:
        # Set-ups before and after the timed work, so that one slow spell of
        # the machine does not hold them all.
        digest = workload.digest(inputs)
        setups = measure_setup(workload, opts.seed, digest, SETUP_REPEATS)
        records, _ = run_phase(workload, fv, inputs, seconds=opts.seconds)
        setups += measure_setup(workload, opts.seed, digest, SETUP_REPEATS)
        peak = peak_rss_mb(workload, records)
        outcomes = evaluate(workload, inputs, records)
        times = ref_seconds(records)
        ops_per_ref_s = len(times) / sum(times) if times else math.nan
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ref_s": {"value": op_p50_ref(records), "unit": "s"},
            "ops_per_ref_s": {"value": ops_per_ref_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    else:
        untraced, rounds = run_phase(workload, fv, inputs, seconds=opts.seconds / 2)
        tracer = layers.Tracer()
        child_tracer = None if workload.in_process else tracer
        with tracer if workload.in_process else contextlib.nullcontext():
            traced, _ = run_phase(
                workload, fv, inputs, rounds=rounds, tracer=child_tracer
            )
        import_s = measure_import()
        records = untraced + traced
        outcomes = evaluate(workload, inputs, records)
        overhead = op_p50_ref(traced) - op_p50_ref(untraced)
        probe_s = statistics.median(record.probe_s for record in untraced)
        metrics = tracer.metrics(len(traced), import_s, overhead, probe_s)
        checkout.RESULTS.mkdir(exist_ok=True)
        table = checkout.RESULTS / f"trace-{workload.name}-seed{opts.seed}.json"
        table.write_text(json.dumps({"ops": len(traced), "functions": tracer.stats}, indent=1))
        print(f"per-function table: {table}", file=sys.stderr)

    problems = [problem for outcome in outcomes for problem in outcome.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
