#!/usr/bin/env python3
"""Benchmark of the evaluation, fleet and search paths of ``repro``.

Run from the repository root::

    python3 perfbench/run.py --workload eval_cold --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``eval_cold``, ``eval_warm``,
``fleet_day``, ``dse_search``.  Each runs in its own single-threaded
process (BLAS pinned to one thread, no process pools, a fresh store and
checkpoint directory under ``.perfbench/``), as a closed loop of ops
whose sequence depends only on ``--seed``.  Every number is host time,
restated for a nominal host by the calibration pass of ``hostspeed.py``
timed around it, since the shared hosts this runs on change speed by up
to 2x within a minute; the simulated statistics are digested and
checked, not measured.  A line before the result gives the unscaled
host figures.

With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics; ``setup_s`` is the median of
:data:`SETUP_SAMPLES` set-ups spread over the run, and ``op_ms_tail`` is
the mean latency of the ops at or beyond a fixed percentile per workload
(``tail_pct``), dozens of them in a run of the benchmark's length (the
run prints the count).
With ``--trace 1`` it holds the per-layer metrics of a traced run, in
which each op's traced composition is timed against the same composition
with a no-op tracer (their ratio is the tracing overhead), and a Chrome
trace is written to ``.perfbench/traces/``.  Metric names and units come
from ``BENCHMARK.json``.  Lines before the result report the output
digest (compared with ``golden.json`` for the default seed; a maintainer
re-pins it by hand from this line), the number of ops in the tail
and the model's error against the paper's abstract.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_NS, sample, scaled
from layers import IMPORTED_MODULES, declared_metrics, import_times
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".perfbench"

#: Set-ups per invocation (odd); ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: ``-X importtime`` children per traced invocation.
IMPORT_SAMPLES = 3
#: The whole invocation ends within this many seconds.
DEADLINE_S = 170.0

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may load.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def child_environment(workdir: Path) -> dict:
    """Environment of every child: pinned BLAS, the checkout's ``src``, no shared cache."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        REPRO_NO_CACHE="1",
        REPRO_CACHE_DIR=str(workdir / "default-cache"),
    )
    return env


class Launcher:
    """Starts the children of one invocation, within one deadline."""

    def __init__(self, args, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.env = child_environment(workdir)
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0

    def _remaining(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError(f"the run exceeded {DEADLINE_S:.0f} s")
        return remaining

    def call(self, command) -> subprocess.CompletedProcess:
        """Run ``command`` to completion; on the deadline it is killed and reaped."""
        try:
            return subprocess.run(
                command,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=self._remaining(),
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{command[1:3]} did not finish in time") from None

    def worker(self, phase: str, seconds: float = 0.0, chrome_trace=None) -> dict:
        """Run one worker process and return its result document."""
        self.spawned += 1
        out = self.workdir / f"{phase}-{self.spawned}.json"
        workdir = self.workdir / f"{phase}-{self.spawned}"
        command = [
            sys.executable,
            str(BENCH_DIR / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--phase", phase,
            "--seconds", str(seconds),
            "--workdir", str(workdir),
            "--out", str(out),
        ]
        if chrome_trace is not None:
            command += ["--chrome-trace", str(chrome_trace)]
        before = sample()
        command += ["--t0", repr(time.monotonic())]
        completed = self.call(command)
        if completed.returncode != 0:
            raise BenchmarkError(
                f"{phase} worker failed ({completed.returncode}):\n{completed.stderr[-2000:]}"
            )
        shutil.rmtree(workdir, ignore_errors=True)
        document = json.loads(out.read_text(encoding="utf-8"))
        # The set-up lies between the calibrations taken before the spawn
        # and in the worker once it was set up.
        calibration = (before + document["setup_calibration_ns"]) / 2
        document["nominal_setup_s"] = scaled(document["setup_s"], calibration)
        return document

    def import_ms(self) -> dict:
        """Median cumulative import time of each of IMPORTED_MODULES."""
        statement = "import " + ", ".join(IMPORTED_MODULES)
        samples = []
        for _ in range(IMPORT_SAMPLES):
            calibration = sample()
            completed = self.call([sys.executable, "-X", "importtime", "-c", statement])
            if completed.returncode != 0:
                raise BenchmarkError(f"importing failed:\n{completed.stderr[-2000:]}")
            calibration = (calibration + sample()) / 2
            samples.append(
                {
                    name: scaled(ms, calibration)
                    for name, ms in import_times(completed.stderr).items()
                }
            )
        return {
            f"setup.import_ms.{name}": statistics.median(s.get(name, 0.0) for s in samples)
            for name in IMPORTED_MODULES
        }


def tail(latencies_ms, pct: float):
    """Mean latency of the ops at or beyond the nearest-rank ``pct`` percentile.

    Returns the mean and the number of those ops.  Their mean moves with
    every one of them, where the percentile alone rests on one sample.
    """
    ordered = sorted(latencies_ms)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    slowest = ordered[rank - 1 :]
    return statistics.fmean(slowest), len(slowest)


def report(label: str, message: str) -> None:
    print(f"perfbench {label}: {message}", flush=True)


def check_digest(args, label: str, document: dict, problems: list) -> None:
    """Report the run's output digest; for the default seed, compare it with the golden."""
    found = document["digest"]
    prefix = WORKLOADS[args.workload].golden_ops
    if found is None:
        problems.append(f"the first {prefix} ops did not all pass their checks")
        return
    report(label, f"digest {found} of the first {prefix} ops")
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(args.workload)
        if golden != found:
            problems.append(f"digest {found} != golden {golden} in {GOLDEN.name}")


def end_to_end(args, launcher: Launcher, label: str):
    # The host's speed drifts over seconds, so the set-ups are spread over
    # the run, half before and half after the measured process.
    setups = [launcher.worker("setup") for _ in range(SETUP_SAMPLES // 2)]
    document = launcher.worker("measure", args.seconds)
    setups.append(document)
    setups += [launcher.worker("setup") for _ in range(SETUP_SAMPLES // 2)]
    host_ms = [ns / 1e6 for ns in document["latencies_ns"]]
    latencies_ms = [
        scaled(ms, calibration) for ms, calibration in zip(host_ms, document["calibration_ns"])
    ]
    report(
        label,
        f"host times before scaling: {document['items'] / (sum(host_ms) / 1e3):.6g} items/s, "
        f"op p50 {statistics.median(host_ms):.4g} ms, set-up "
        f"{statistics.median(setup['setup_s'] for setup in setups):.4g} s; calibration pass "
        f"median {statistics.median(document['calibration_ns']) / 1e6:.4g} ms "
        f"(nominal {NOMINAL_NS / 1e6:g} ms)",
    )
    pct = WORKLOADS[args.workload].tail_pct
    tail_ms, beyond = tail(latencies_ms, pct)
    report(
        label,
        f"{len(latencies_ms)} ops, {document['items']} items in "
        f"{sum(latencies_ms) / 1e3:.2f} s of op time; tail is the mean of the "
        f"{beyond} ops at or beyond p{pct:g}, {tail_ms:.3f} ms",
    )
    if beyond < 10:
        report(label, f"warning: only {beyond} ops lie at or beyond p{pct:g}")
    metrics = {
        "setup_s": statistics.median(setup["nominal_setup_s"] for setup in setups),
        "throughput_per_s": document["items"] / (sum(latencies_ms) / 1e3),
        "op_ms_p50": statistics.median(latencies_ms),
        "op_ms_tail": tail_ms,
        "peak_rss_mib": document["peak_rss_kib"] / 1024.0,
    }
    units = declared_metrics("end_to_end")
    return document, {name: (metrics[name], unit) for name, unit in units.items()}


def per_layer(args, launcher: Launcher, label: str):
    trace_path = OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
    traced = launcher.worker("trace", args.seconds, chrome_trace=trace_path)
    values = dict(traced["layers"])
    values.update(launcher.import_ms())
    report(
        label,
        f"{len(traced['latencies_ns'])} traced ops, tracing overhead "
        f"{values['trace.overhead_pct']:.1f}%; Chrome trace in {trace_path.relative_to(ROOT)}",
    )
    metrics = {
        name: (values[name], unit) for name, unit in declared_metrics("per_layer").items()
    }
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: no repro package under {SRC}", file=sys.stderr)
        return 2

    # A terminated launcher exits through SystemExit, so the running child
    # is killed and reaped and the run directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    label = f"{args.workload} seed={args.seed}"
    problems: list = []
    try:
        launcher = Launcher(args, workdir)
        if args.trace:
            document, metrics = per_layer(args, launcher, label)
        else:
            document, metrics = end_to_end(args, launcher, label)
        for row in document["headline"]:
            report(
                "headline",
                f"{row['name']}: model {row['model']:.4g} {row['unit']} vs paper "
                f"{row['paper']:g} {row['unit']} ({row['ratio']:.2f}x)",
            )
        problems.extend(document["failures"])
        check_digest(args, label, document, problems)
    except BenchmarkError as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:20]:
        report(label, f"check failed: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": document["attempted"],
                "failed": len(document["failures"]),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
