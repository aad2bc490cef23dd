"""Tests of the benchmark itself.

Run from the repository root (not collected by the tier-1 suite)::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    DAY_SPIKES,
    DEFAULT_SEED,
    EVAL_KINDS,
    EVAL_PRESETS,
    EVAL_ROUND,
    FLEET_STRATA,
    ROUND_SWEEPS,
    SPIKE_WINDOWS,
    WINDOW_S,
    CheckFailed,
    DseSearch,
    EvalCold,
    EvalWarm,
    FleetDay,
    dse_ops,
    eval_ops,
    fleet_ops,
    sweep_digest,
    sweep_document,
    window_trace,
)


def take(stream, count):
    return list(itertools.islice(stream, count))


def spiked(start_s, spikes=DAY_SPIKES):
    return any(
        start < start_s + WINDOW_S and start_s < start + length
        for start, length, _ in spikes
    )


# ----------------------------------------------------------------------
# Op lists
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stream", (eval_ops, fleet_ops, dse_ops))
def test_the_seed_alone_fixes_the_op_list(stream):
    ops = take(stream(7), 60)
    assert ops == take(stream(7), 60)
    assert ops != take(stream(8), 60)


def test_eval_sweeps_are_distinct_and_every_block_holds_each_kind():
    ops = take(eval_ops(1), 1000)
    assert len(set(ops)) == len(ops)
    for start in range(0, len(ops), len(EVAL_KINDS)):
        kinds = {(op.model, op.mode) for op in ops[start : start + len(EVAL_KINDS)]}
        assert len(kinds) == len(EVAL_KINDS)


@pytest.mark.parametrize("seed", (0, 9))
def test_every_eval_round_covers_each_seq_len_stratum_and_preset(seed):
    ops = take(eval_ops(seed), 3 * ROUND_SWEEPS)
    for start in range(0, len(ops), ROUND_SWEEPS):
        for model, mode, _, (low, high) in EVAL_KINDS:
            kind = [
                op
                for op in ops[start : start + ROUND_SWEEPS]
                if (op.model, op.mode) == (model, mode)
            ]
            strata = sorted((op.seq_len - low) * EVAL_ROUND // (high - low + 1) for op in kind)
            assert strata == list(range(EVAL_ROUND))
            presets = Counter(op.preset for op in kind)
            assert set(presets.values()) == {EVAL_ROUND // len(EVAL_PRESETS)}
    assert EvalCold.block == EvalWarm.block == len(EvalWarm(seed, Path(".")).sweeps) == ROUND_SWEEPS


def test_every_fleet_block_covers_each_stratum_and_a_spike():
    ops = take(fleet_ops(2), 5 * FleetDay.block)
    stratum_s = 86_400 // FLEET_STRATA
    for start in range(0, len(ops), FleetDay.block):
        windows = [op.start_s for op in ops[start : start + FleetDay.block]]
        assert sum(map(spiked, windows)) == sum(SPIKE_WINDOWS)
        calm = [window // stratum_s for window in windows if not spiked(window)]
        assert sorted(calm) == list(range(FLEET_STRATA))
        assert window_trace(windows[0]).duration_s == WINDOW_S


def test_the_fleet_tail_falls_among_the_peak_spike_windows():
    # An op's cost grows with its arrivals and their queueing; the peak
    # spike's onset windows have more arrivals than any other window, so
    # every op at or beyond the tail percentile must be one of them.
    from repro.fleet import iter_requests

    ops = take(fleet_ops(3), 2 * FleetDay.block)
    arrivals = [sum(1 for _ in iter_requests(window_trace(op.start_s), op.seed)) for op in ops]
    ordered = [op for _, op in sorted(zip(arrivals, ops), key=lambda pair: pair[0])]
    peak = 2 * SPIKE_WINDOWS[0]
    assert all(spiked(op.start_s, DAY_SPIKES[:1]) for op in ordered[-peak:])
    rank = math.ceil(FleetDay.tail_pct / 100 * len(ops))
    assert len(ops[rank - 1 :]) <= peak


def test_the_op_list_does_not_depend_on_run_length(tmp_path):
    workload = EvalWarm(3, tmp_path)
    workload.setup()
    prepare = workload.prepare
    seen = []
    workload.prepare = lambda op: (seen.append(op), prepare(op))[1]

    short = worker.run_ops(workload, 0.0, worker.measured_op(workload))
    short_ops = list(seen)
    seen.clear()
    longer = worker.run_ops(workload, 0.3, worker.measured_op(workload))

    assert len(short_ops) == workload.golden_ops
    assert len(seen) > len(short_ops) and len(seen) % workload.block == 0
    assert seen[: len(short_ops)] == short_ops
    assert short["digest"] == longer["digest"] is not None
    assert not short["failures"] and not longer["failures"]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_a_perturbed_result_fails_the_check(tmp_path):
    workload = EvalWarm(4, tmp_path)
    workload.setup()
    inputs = workload.prepare(workload.sweeps[0])
    output = workload.run(inputs)
    workload.check(inputs, output)

    sweep, _ = output.value
    trace = sweep.results[-1].report.simulation.chip_traces[0]
    trace.l3_l2_bytes += 1.0
    with pytest.raises(CheckFailed):
        workload.check(inputs, output)


def test_a_digest_other_than_the_golden_is_a_failure():
    args = type("Args", (), {"workload": "eval_cold", "seed": DEFAULT_SEED})
    problems = []
    run.check_digest(args, "test", {"digest": "0" * 16}, problems)
    assert problems and "golden" in problems[0]
    problems.clear()
    golden = json.loads(run.GOLDEN.read_text())["eval_cold"]
    run.check_digest(args, "test", {"digest": golden}, problems)
    assert not problems


def test_eval_cold_ops_run_the_engine_for_every_point(tmp_path):
    workload = EvalCold(5, tmp_path)
    workload.setup()
    for op in take(workload.ops(), EvalCold.block):
        inputs = workload.prepare(op)
        workload.check(inputs, workload.run(inputs))
        info = inputs[1].cache_info()
        assert (info.misses, info.disk_hits) == (len(op.chips), 0)


def test_eval_warm_ops_are_all_disk_hits(tmp_path):
    workload = EvalWarm(5, tmp_path)
    workload.setup()
    for op in workload.sweeps[: EvalWarm.block]:
        inputs = workload.prepare(op)
        workload.check(inputs, workload.run(inputs))
        info = inputs[1].cache_info()
        assert (info.misses, info.disk_hits) == (0, len(op.chips))


def test_fleet_ops_run_no_block_evaluation(tmp_path):
    workload = FleetDay(6, tmp_path)
    workload.setup()
    misses = workload.session.cache_info().misses
    inputs = workload.prepare(next(workload.ops()))
    output = workload.run(inputs)
    workload.check(inputs, output)
    assert workload.session.cache_info().misses == misses
    assert output.items == output.value[0].result.arrived > 0


# ----------------------------------------------------------------------
# Traced compositions equal their Session calls (small instances)
# ----------------------------------------------------------------------
def test_traced_sweep_equals_session_sweep(tmp_path):
    from repro.api import Session
    from repro.graph.workload import autoregressive
    from repro.models.tinyllama import tinyllama_42m

    workload = autoregressive(tinyllama_42m(), 64)
    chips = (1, 2, 4)
    expected = Session().sweep(workload, chips)
    expected_digest = sweep_digest(sweep_document(expected), expected)

    tracer = layers.Tracer()
    session = Session(cache_dir=tmp_path)
    for _ in range(2):  # cold (engine and write), then warm (disk hits)
        with tracer.span("op"):
            sweep, document = layers.traced_sweep(tracer, session, workload, chips)
        tracer.settle()
        assert document == sweep_document(expected)
        assert sweep_digest(document, sweep) == expected_digest
    metrics = tracer.metrics(2)
    assert metrics["cache.disk_hit_ratio"] == 0.5
    assert metrics["core.program_steps"] > 0 and metrics["cache.put_bytes"] > 0


def test_traced_fleet_equals_serve_fleet():
    from repro.api import Session
    from repro.models.tinyllama import tinyllama_42m
    from repro.serving import DiurnalTrace

    session = Session()
    config = tinyllama_42m()
    trace = DiurnalTrace(rate_rps=2.0, duration_s=30.0, spikes=((10.0, 5.0, 4.0),))
    platforms = ("siracusa-mipi:8x2", "siracusa-fast-link:4")
    expected = session.serve_fleet(
        config, trace, platforms=platforms, router="least_loaded", seed=3
    ).to_dict()
    tracer = layers.Tracer()
    with tracer.span("op"):
        _, document = layers.traced_fleet(
            tracer, session, config, trace, 3, platforms=platforms, router="least_loaded"
        )
    assert document == expected
    assert tracer.self_times()["serving.trace"] > 0


def test_traced_tune_equals_tune(tmp_path):
    from repro.analysis.export import tune_result_to_dict
    from repro.api import Session

    workload = DseSearch(0, tmp_path)
    workload.setup()
    options = dict(
        searcher=workload.spec.searcher,
        budget=16,
        seed=5,
        objectives=workload.spec.objectives,
        checkpoint_every=4,
    )
    result = Session().tune(
        workload.workload, workload.space, checkpoint=tmp_path / "a.json", **options
    )
    tracer = layers.Tracer()
    with tracer.span("op"):
        _, document = layers.traced_tune(
            tracer, workload.workload, workload.space, checkpoint=tmp_path / "b.json", **options
        )
    assert document == tune_result_to_dict(result, include_cache=False)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert tracer.counters["dse.checkpoints"] >= 2


def test_traced_ops_equal_session_calls_and_time_an_untraced_twin(tmp_path):
    measured = EvalCold(7, tmp_path / "measured")
    measured.setup()
    expected = worker.run_ops(measured, 0.0, worker.measured_op(measured))

    workload, twin = EvalCold(7, tmp_path / "traced"), EvalCold(7, tmp_path / "twin")
    workload.setup()
    twin.setup()
    tracer, untraced_ns = layers.Tracer(), []
    traced = worker.run_ops(
        workload, 0.0, worker.traced_op(workload, twin, tracer, untraced_ns)
    )
    assert not traced["failures"]
    assert traced["digest"] == expected["digest"] is not None
    assert len(untraced_ns) == len(traced["latencies_ns"]) == EvalCold.golden_ops
    # The twin has a store of its own, so its sweeps ran cold and wrote
    # every point, as the traced ones did.
    assert tracer.metrics(EvalCold.golden_ops)["cache.disk_hit_ratio"] == 0.0
    points = sum(len(op.chips) for op in take(workload.ops(), EvalCold.golden_ops))
    for instance in (workload, twin):
        assert len(instance.sessions["siracusa-mipi"].persistent_cache) == points


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_every_op_lies_between_two_calibrations(tmp_path, monkeypatch):
    samples = iter(range(1_000_000, 2_000_000, 1000))
    monkeypatch.setattr(hostspeed, "sample", lambda: next(samples))
    workload = FleetDay(6, tmp_path)
    workload.setup()
    result = worker.run_ops(workload, 0.0, worker.measured_op(workload))
    # A sample before every op and one after the last: op k's calibration
    # is the mean of samples k and k + 1.
    assert result["calibration_ns"] == [1_000_500 + 1000 * k for k in range(FleetDay.block)]


def test_times_are_restated_for_the_nominal_host():
    assert hostspeed.scaled(3.0, 2 * hostspeed.NOMINAL_NS) == 1.5
    assert hostspeed.scaled(3.0, hostspeed.NOMINAL_NS) == 3.0
    tracer = layers.Tracer()
    tracer.spans = [["op", 0, 100, -1, 0], ["sim.simulate", 20, 60, 0, 0]]
    tracer.counters["core.program_steps"] = 8
    metrics = tracer.metrics(1, scale=0.5)
    assert metrics["sim.simulate_ms"] == pytest.approx(20e-6)
    assert metrics["sim.steps_per_s"] == pytest.approx(8 / 20e-9)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.6)


# ----------------------------------------------------------------------
# Tracing arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_child_spans():
    tracer = layers.Tracer()
    tracer.spans = [
        ["op", 0, 100, -1, 0],
        ["api.run", 10, 90, 0, 0],
        ["core.schedule", 20, 50, 1, 0],
        ["sim.simulate", 50, 70, 1, 0],
    ]
    assert dict(tracer.self_times()) == {
        "op": 20, "api.run": 30, "core.schedule": 30, "sim.simulate": 20,
    }
    metrics = tracer.metrics(1)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.2)
    assert metrics["core.schedule_ms"] == pytest.approx(30e-6)


def test_import_times_reads_the_first_import_of_each_module():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       400 |      80000 |     repro.api",
            "import time:       500 |     200000 |   repro",
            "import time:        20 |         20 | repro.api",
            "import time:      2000 |      90000 | numpy",
        ]
    )
    assert layers.import_times(stderr) == {"repro.api": 80.0, "numpy": 90.0}


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "eval_cold", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

