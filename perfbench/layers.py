"""Per-layer tracing: spans recorded around the program's public calls.

A traced op is composed from the same public calls the program makes
inside ``Session.run``/``serve_fleet``/``tune``, with a span around each
layer boundary.  Each span has a name, start, end, parent and op id;
spans stay in memory and are written once, as Chrome trace events, when
the run ends.  A layer's self time is its spans' duration minus what
their child spans cover; the root ``op`` span's self time is the share
of op time no layer accounts for.

The fleet loop pulls one trace request per event, so trace sampling is
aggregated (one child span per op holding the summed ``next()`` time)
instead of a span per request.
"""

from __future__ import annotations

import json
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Tuple

#: The benchmark's definition: its workloads and the name and unit of each metric.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in report order."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {row["name"]: row["unit"] for row in spec[kind]}


#: Span name -> the metric holding its self time.
SELF_TIME_METRICS = {
    "core.schedule": "core.schedule_ms",
    "sim.simulate": "sim.simulate_ms",
    "energy.model": "energy.model_ms",
    "api.hash": "api.hash_ms",
    "api.run": "api.run_self_ms",
    "api.result_read": "api.result_read_ms",
    "cache.put": "cache.put_ms",
    "cache.get": "cache.get_ms",
    "serving.trace": "serving.trace_ms",
    "fleet.simulate": "fleet.simulate_ms",
    "fleet.report": "fleet.report_ms",
    "dse.search": "dse.search_self_ms",
    "dse.evaluate": "dse.evaluate_ms",
    "dse.checkpoint": "dse.checkpoint_ms",
    "dse.pareto": "dse.pareto_ms",
}

#: Module names whose import time ``setup.import_ms.*`` reports.
IMPORTED_MODULES = ("repro.api", "repro.fleet", "repro.dse", "repro.spec", "numpy")

#: The notes the ``paper`` strategy attaches to its results.
PAPER_NOTES = "head-split MHSA, F-split FFN, hierarchical all-reduce"


class _TimedStream:
    """An iterator that sums the time spent producing each item."""

    __slots__ = ("_source", "total_ns")

    def __init__(self, source) -> None:
        self._source = source
        self.total_ns = 0

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter_ns()
        try:
            return next(self._source)
        finally:
            self.total_ns += time.perf_counter_ns() - start


class Tracer:
    """In-memory spans and per-op counters of one traced run."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, op id]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Id (index in the run) of the op being traced.
        self.op = -1
        self._stack: List[int] = []
        self._pending: List[Tuple[str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def stream(self, source):
        """``source``, timed item by item for :meth:`aggregate`."""
        return _TimedStream(source)

    def aggregate(self, name: str, stream: _TimedStream) -> None:
        """Record the time spent producing ``stream``'s items as one child span."""
        parent = self._stack[-1]
        start = self.spans[parent][1]
        self.spans.append([name, start, start + stream.total_ns, parent, self.op])

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def count_later(self, metric: str, result) -> None:
        """Count ``result``'s pickled size under ``metric`` once the op ends."""
        self._pending.append((metric, result))

    # -- counters taken after an op, outside its spans ------------------
    def settle(self) -> None:
        """Count the results an op wrote or read, once its spans closed.

        Pickled sizes and program step counts cost time of their own, so
        they are measured after the op rather than inside its spans.
        """
        for metric, result in self._pending:
            self.count(metric, len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)))
            if metric == "cache.put_bytes":
                schedules = result.report.program.schedules.values()
                self.count("core.program_steps", sum(len(s.steps) for s in schedules))
        self._pending.clear()

    def count_fleet(self, result) -> None:
        self.count("serving.requests", result.arrived)
        self.count("fleet.completed", result.completed)
        self.count("fleet.rejected", result.rejected)

    def count_search(self, result) -> None:
        unique = len(result.candidates)
        infeasible = sum(1 for candidate in result.candidates if not candidate.feasible)
        self.count("dse.requested", result.evaluations_requested)
        self.count("dse.unique", unique)
        self.count("dse.infeasible", infeasible)
        self.count("_feasible", unique - infeasible)

    # -- derived metrics -------------------------------------------------
    def self_times(self) -> Dict[str, int]:
        """Summed self time (ns) of every span name."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - covered[index]
        return totals

    def op_time_ns(self) -> int:
        return sum(end - start for name, start, end, parent, _ in self.spans if parent < 0)

    def metrics(self, ops: int, scale: float = 1.0) -> Dict[str, float]:
        """Per-layer metrics per op; those of layers the ops never reached are 0.

        Span times are multiplied by ``scale`` (host time to nominal-host
        time, see ``hostspeed.py``); counters and ratios are not.
        """
        values = {name: 0.0 for name in declared_metrics("per_layer")}
        totals = {name: ns * scale for name, ns in self.self_times().items()}
        for span, metric in SELF_TIME_METRICS.items():
            values[metric] = totals.get(span, 0) / 1e6 / ops
        counters = self.counters
        for name in values:
            if name in counters:
                values[name] = counters[name] / ops
        simulate_s = totals.get("sim.simulate", 0) / 1e9
        if simulate_s:
            values["sim.steps_per_s"] = counters["core.program_steps"] / simulate_s
        gets = counters["_cache_gets"]
        if gets:
            values["cache.disk_hit_ratio"] = counters["_disk_hits"] / gets
        if counters["serving.requests"]:
            values["fleet.us_per_request"] = (
                totals.get("fleet.simulate", 0) / 1e3 / counters["serving.requests"]
            )
        if counters["dse.requested"]:
            values["dse.useful_ratio"] = counters["_feasible"] / counters["dse.requested"]
        op_ns = self.op_time_ns() * scale
        if op_ns:
            values["trace.unattributed_share"] = totals.get("op", 0) / op_ns
        return values

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace events (chrome://tracing, Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {
                    "op": op,
                    "parent": self.spans[parent][0] if parent >= 0 else None,
                },
            }
            for name, start, end, parent, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )


class NullTracer(Tracer):
    """Records nothing: the untraced side of the tracing-overhead measurement."""

    @contextmanager
    def span(self, name: str):
        yield

    def stream(self, source):
        return source

    def aggregate(self, name: str, stream) -> None:
        pass

    def count(self, name: str, value: float = 1) -> None:
        pass

    def count_later(self, metric: str, result) -> None:
        pass


# ----------------------------------------------------------------------
# Compositions (each equals its Session call; see selftest.py)
# ----------------------------------------------------------------------
def traced_run(tracer: Tracer, session, workload, chips: int):
    """``Session.run`` of the ``paper`` strategy, composed layer by layer.

    Hash the inputs, look the key up in the persistent store, and on a
    miss schedule, simulate, apply the energy model and write through.
    """
    from repro.analysis.evaluate import BlockReport
    from repro.api import EvalResult, content_hash, get_strategy
    from repro.core.scheduler import BlockScheduler
    from repro.energy.model import EnergyModel
    from repro.sim.simulator import simulate_block

    with tracer.span("api.run"):
        strategy = get_strategy("paper")
        platform = session.resolve_platform(chips)
        options = session.options()
        store = session.persistent_cache
        with tracer.span("api.hash"):
            key = content_hash(strategy.name, workload, platform, options)
        with tracer.span("cache.get"):
            result = store.get(key)
        tracer.count("_cache_gets")
        if result is not None:
            tracer.count("_disk_hits")
            tracer.count_later("cache.get_bytes", result)
            return result
        with tracer.span("core.schedule"):
            program = BlockScheduler(
                platform=platform,
                kernel_library=options.kernel_library,
                prefetch_accounting=options.prefetch_accounting,
            ).build(workload)
        with tracer.span("sim.simulate"):
            simulation = simulate_block(program)
        with tracer.span("energy.model"):
            energy = EnergyModel(platform).from_simulation(simulation)
        result = EvalResult.from_block_report(
            BlockReport(
                workload=workload,
                platform=platform,
                program=program,
                simulation=simulation,
                energy=energy,
            ),
            strategy=strategy.name,
            approach=strategy.label,
            notes=PAPER_NOTES,
        )
        with tracer.span("cache.put"):
            store.put(key, result)
        tracer.count_later("cache.put_bytes", result)
        return result


def traced_sweep(tracer: Tracer, session, workload, chips):
    """``Session.sweep`` plus the ``repro sweep --json`` document."""
    from repro.analysis.export import eval_sweep_to_dict
    from repro.api import EvalSweep

    results = tuple(traced_run(tracer, session, workload, count) for count in chips)
    sweep = EvalSweep(workload=workload, strategy="paper", results=results)
    with tracer.span("api.result_read"):
        document = eval_sweep_to_dict(sweep)
    return sweep, document


def traced_fleet(tracer: Tracer, session, config, trace, seed, *, platforms, router):
    """``Session.serve_fleet`` (fault-free, default classes) plus its document."""
    from repro.api import get_strategy
    from repro.fleet import (
        DEFAULT_RECORD_THRESHOLD,
        AdmissionController,
        FleetPlatform,
        FleetReport,
        FleetSimulator,
        ReplicaTemplate,
        iter_requests,
    )
    from repro.hw.presets import get_platform_preset
    from repro.serving.costs import RequestCostModel
    from repro.serving.metrics import DEFAULT_SLO_TTFT_TARGETS_S

    with tracer.span("fleet.simulate"):
        costs: Dict[tuple, RequestCostModel] = {}
        templates = []
        for entry in map(FleetPlatform.parse, platforms):
            preset = get_platform_preset(entry.preset)
            count = entry.chips if entry.chips is not None else preset.default_chips
            model = costs.get((preset.name, count))
            if model is None:
                model = RequestCostModel(session, config, platform=preset.build(count))
                costs[preset.name, count] = model
            template = ReplicaTemplate(
                preset=preset.name, chips=count, role=entry.role, costs=model
            )
            templates.extend([template] * entry.replicas)
        simulator = FleetSimulator(
            templates,
            router=router,
            admission=AdmissionController(()),
            slo_targets=DEFAULT_SLO_TTFT_TARGETS_S,
            record_threshold=DEFAULT_RECORD_THRESHOLD,
        )
        stream = tracer.stream(iter_requests(trace, seed))
        result = simulator.run(stream)
        tracer.aggregate("serving.trace", stream)
    with tracer.span("fleet.report"):
        report = FleetReport(
            model=config.name,
            strategy=get_strategy("paper").name,
            router=result.router,
            policy=result.policy,
            seed=seed,
            result=result,
        )
        document = report.to_dict()
    return report, document


@contextmanager
def _traced_checkpoints(tracer: Tracer):
    """Span every ``SearchState.save`` and count the bytes it writes."""
    from repro.dse.orchestrator import SearchState

    save = SearchState.save

    def traced_save(state, path):
        with tracer.span("dse.checkpoint"):
            save(state, path)
        tracer.count("dse.checkpoints")
        tracer.count("dse.checkpoint_bytes", Path(path).stat().st_size)

    SearchState.save = traced_save
    try:
        yield
    finally:
        SearchState.save = save


def traced_tune(
    tracer: Tracer,
    workload,
    space,
    *,
    searcher: str,
    budget: int,
    seed: int,
    objectives,
    checkpoint: Path,
    checkpoint_every: int,
):
    """``Session().tune`` (no constraints or serving) plus its document."""
    from repro.analysis.export import tune_result_to_dict
    from repro.api import Session
    from repro.dse import get_objective
    from repro.dse.engine import DesignEvaluator, TuneResult
    from repro.dse.orchestrator import SearchOrchestrator
    from repro.dse.pareto import pareto_front
    from repro.dse.searchers import get_searcher

    session = Session()
    measured = tuple(get_objective(name) for name in objectives)
    algorithm = get_searcher(searcher)
    evaluator = DesignEvaluator(session, workload, measured)
    evaluate = evaluator.evaluate

    def traced_evaluate(point):
        with tracer.span("dse.evaluate"):
            return evaluate(point)

    evaluator.evaluate = traced_evaluate
    orchestrator = SearchOrchestrator(
        evaluator,
        algorithm,
        space,
        measured,
        budget=budget,
        seed=seed,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
    )
    with tracer.span("dse.search"), _traced_checkpoints(tracer):
        orchestrator.run()
    candidates = evaluator.history
    with tracer.span("dse.pareto"):
        front = tuple(
            pareto_front([c for c in candidates if c.feasible], measured)
        )
    result = TuneResult(
        workload=workload,
        searcher=algorithm.name,
        space=space,
        seed=seed,
        budget=budget,
        objectives=measured,
        constraints=(),
        candidates=candidates,
        front=front,
        evaluations_requested=evaluator.evaluations_requested,
        cache=session.cache_info(),
    )
    with tracer.span("api.result_read"):
        document = tune_result_to_dict(result, include_cache=False)
    return result, document


def import_times(stderr: str) -> Dict[str, float]:
    """Cumulative import time (ms) of :data:`IMPORTED_MODULES` from ``-X importtime``."""
    found: Dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue
        if name in IMPORTED_MODULES:
            found[name] = max(found.get(name, 0.0), cumulative_us / 1e3)
    return found

