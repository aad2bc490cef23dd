"""One benchmark process: set up one workload, then run its ops closed-loop.

Started by ``run.py`` once per set-up sample and once per measured run,
always with BLAS pinned to one thread and ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload eval_cold --seed 0 --phase measure \\
        --seconds 25 --t0 <time.monotonic() before the spawn> \\
        --workdir DIR --out result.json

Phases: ``setup`` stops once the first op could be issued; ``measure``
times untraced ops; ``trace`` times each op's traced composition against
the same composition with a no-op tracer.
The result is one JSON document written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import NOMINAL_NS, HostClock, sample
from layers import NullTracer, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, CheckFailed, digest, headline


def run_ops(workload, seconds: float, timed_op) -> dict:
    """The closed loop: ops until ``seconds`` passed and a block is complete.

    A run always covers the workload's golden prefix, and stops only on a
    block boundary, so every run holds whole blocks of the seeded mix.
    ``timed_op(index, op)`` runs and checks one op and returns its output,
    its latency in ns and its digest; it raises :class:`CheckFailed` when
    the output is wrong.  Each latency comes with the host calibration
    taken around its op (``calibration_ns``; see ``hostspeed.py``).
    """
    clock = HostClock()
    latencies_ns = []
    brackets = []
    attempted = 0
    items = 0
    failures = []
    prefix = []
    start = time.perf_counter()
    for index, op in enumerate(workload.ops()):
        if (
            index >= workload.golden_ops
            and index % workload.block == 0
            and time.perf_counter() - start >= seconds
        ):
            break
        attempted += 1
        bracket = clock.tick()
        try:
            output, elapsed_ns, found = timed_op(index, op)
        except CheckFailed as failure:
            failures.append(str(failure))
            continue
        except Exception:  # a failed op is counted, and the run goes on
            failures.append(f"op {index}: {traceback.format_exc(limit=3)}")
            continue
        latencies_ns.append(elapsed_ns)
        brackets.append(bracket)
        items += output.items
        if index < workload.golden_ops:
            prefix.append(found)
    clock.finish()
    return {
        "attempted": attempted,
        "latencies_ns": latencies_ns,
        "calibration_ns": [clock.around(bracket) for bracket in brackets],
        "items": items,
        "failures": failures,
        "digest": digest(prefix) if len(prefix) == workload.golden_ops else None,
    }


def measured_op(workload):
    """An untraced op: the timed Session call, then its output check."""

    def timed_op(index, op):
        inputs = workload.prepare(op)
        began = time.perf_counter_ns()
        output = workload.run(inputs)
        elapsed_ns = time.perf_counter_ns() - began
        return output, elapsed_ns, workload.check(inputs, output)

    return timed_op


def traced_op(workload, twin, tracer, untraced_ns):
    """A traced op, timed against the same composition with a no-op tracer.

    ``twin`` is a second instance of the workload with its own store and
    checkpoint, so both compositions do the same work (a cold sweep stays
    cold).  The two run back to back, in alternating order, and the no-op
    side's latency is appended to ``untraced_ns`` once the op passed its
    checks; the ratio of the sums is the tracing overhead.  Both outputs
    must equal the Session call's, which runs untimed, after them.
    """
    null = NullTracer()

    def timed_op(index, op):
        inputs, twin_inputs = workload.prepare(op), twin.prepare(op)
        for side in ("traced", "untraced") if index % 2 else ("untraced", "traced"):
            began = time.perf_counter_ns()
            if side == "traced":
                tracer.op = index
                output = workload.traced(inputs, tracer)
                elapsed_ns = time.perf_counter_ns() - began
                tracer.settle()
            else:
                plain = twin.traced(twin_inputs, null)
                plain_ns = time.perf_counter_ns() - began
        found = workload.check(inputs, output, traced=True)
        expected = workload.reference(inputs)
        if found != expected:
            raise CheckFailed(f"op {index}: traced composition {found} != Session call {expected}")
        if twin.check(twin_inputs, plain, traced=True) != expected:
            raise CheckFailed(f"op {index}: the untraced composition's output differs")
        untraced_ns.append(plain_ns)
        return output, elapsed_ns, found

    return timed_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--phase", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--chrome-trace", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    document = {"setup_s": time.monotonic() - args.t0, "setup_calibration_ns": sample()}
    if args.phase == "measure":
        document.update(run_ops(workload, args.seconds, measured_op(workload)))
        document["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        document["headline"] = headline()
    elif args.phase == "trace":
        twin = WORKLOADS[args.workload](args.seed, args.workdir / "untraced")
        twin.setup()
        tracer, untraced_ns = Tracer(), []
        document.update(
            run_ops(workload, args.seconds, traced_op(workload, twin, tracer, untraced_ns))
        )
        document["headline"] = headline()
        calibration = statistics.median(document["calibration_ns"] or [NOMINAL_NS])
        metrics = tracer.metrics(
            max(1, len(document["latencies_ns"])), scale=NOMINAL_NS / calibration
        )
        if untraced_ns:
            metrics["trace.overhead_pct"] = (
                sum(document["latencies_ns"]) / sum(untraced_ns) - 1.0
            ) * 100.0
        expected = getattr(workload, "disk_hit_ratio", None)
        if expected is not None and metrics["cache.disk_hit_ratio"] != expected:
            document["failures"].append(
                f"disk hit ratio {metrics['cache.disk_hit_ratio']} != {expected}"
            )
        document["layers"] = metrics
        if args.chrome_trace is not None:
            tracer.write_chrome_trace(args.chrome_trace)
    args.out.write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
