"""The benchmark's workloads: seeded op streams, set-up, timed ops and checks.

Every workload is a closed loop with one client: an op starts when the
previous one has finished.  The op sequence is a pure function of the
workload seed (:func:`eval_ops`, :func:`fleet_ops`, :func:`dse_ops`), never
of elapsed time, so two commits run identical work.  Each op's inputs
(workloads, platforms, traces) are built by ``prepare`` before the timer
starts; ``run`` is the timed call into the program; ``check`` verifies the
op's output and returns its digest.

Only the op streams are importable without ``repro`` on the path; the
workload classes import it in ``setup``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

#: Seed whose per-workload digests are pinned in ``golden.json``.
DEFAULT_SEED = 0

#: Evaluated (model, mode, chip counts, inclusive seq_len range) kinds.
#: Every chip count the model's head split allows is swept; the 64-chip
#: points of the scaled model set the tail of ``eval_cold``.
EVAL_KINDS = (
    ("tinyllama-42m-64h", "autoregressive", (1, 2, 4, 8, 16, 32, 64), (16, 1024)),
    ("tinyllama-42m-64h", "prompt", (1, 2, 4, 8, 16, 32, 64), (8, 512)),
    ("tinyllama-42m", "autoregressive", (1, 2, 4, 8), (16, 1024)),
    ("tinyllama-42m", "prompt", (1, 2, 4, 8), (8, 512)),
    ("mobilebert", "encoder", (1, 2, 4), (16, 512)),
)

#: Hardware presets the eval sweeps run on (every shipped preset).
EVAL_PRESETS = (
    "siracusa-mipi",
    "siracusa-fast-link",
    "siracusa-big-l2",
    "siracusa-low-power",
)

#: Sweeps of each kind per round of :func:`eval_ops`: one from each of
#: this many equal strata of the kind's seq_len range, each preset twice.
EVAL_ROUND = 2 * len(EVAL_PRESETS)

#: Sweeps in one round of every kind.  Runs of the eval workloads hold
#: whole rounds, and the ``eval_warm`` store holds the first one.
ROUND_SWEEPS = EVAL_ROUND * len(EVAL_KINDS)

#: The fleet of ``benchmarks/bench_fleet.py``: five replicas, four presets.
FLEET_PLATFORMS = (
    "siracusa-mipi:8x2",
    "siracusa-fast-link:8",
    "siracusa-big-l2:8",
    "siracusa-low-power:8",
)
FLEET_ROUTER = "least_loaded"
FLEET_RATE_RPS = 13.0
FLEET_AMPLITUDE = 0.6
DAY_S = 86_400.0
#: The two ten-minute spikes of the diurnal day, as (start, length, extra rate).
DAY_SPIKES = (
    (DAY_S * 0.30, 600.0, FLEET_RATE_RPS),
    (DAY_S * 0.65, 600.0, FLEET_RATE_RPS),
)
WINDOW_S = 300.0
#: The day is cut into this many strata; every block of fleet ops has one
#: window per stratum plus :data:`SPIKE_WINDOWS` per spike, so troughs,
#: peaks and spikes occur in every run whatever the seed.
FLEET_STRATA = 12
#: Windows per block catching each spike's onset, each with its own trace
#: seed.  Only the first spike, at the day's peak, builds deep queues (its
#: windows cost about twice the busiest calm window; the second spike falls
#: in the trough and costs no more than a calm one), so it is sampled four
#: times: 4 of every 17 ops.  ``fleet_day``'s tail, the ops at or beyond
#: p88, is then about half of them, whatever the number of blocks in a run.
SPIKE_WINDOWS = (4, 1)

#: The shipped ``dse-scale`` study's search stage, at this budget per op.
DSE_STUDY = "dse-scale"
DSE_BUDGET = 64
DSE_CHECKPOINT_EVERY = 8


class CheckFailed(Exception):
    """An op's output differs from what the program must produce."""


def digest(value: Any) -> str:
    """Short SHA-256 of the canonical JSON form of ``value``.

    Floats are written by ``repr``, so any change in a simulated
    statistic changes the digest.
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Op streams (pure functions of the seed)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepOp:
    """One serial chip-count sweep of a (model, mode, seq_len, preset)."""

    model: str
    mode: str
    seq_len: int
    preset: str
    chips: Tuple[int, ...]


@dataclass(frozen=True)
class WindowOp:
    """One five-minute window of the diurnal day, served with ``seed``."""

    start_s: int
    seed: int


def eval_ops(seed: int) -> Iterator[SweepOp]:
    """Distinct sweeps in blocks holding each of :data:`EVAL_KINDS` once.

    No sweep repeats, so in a fresh store every point is a cold engine
    run.  Every :data:`EVAL_ROUND` blocks form a round in which each kind
    takes one seq_len from each stratum of its range and runs on each
    preset equally often.  An op's cost grows with its seq_len and
    differs by preset, so this keeps the mix of work the same for every
    seed; the seed draws the seq_len within each stratum, the pairing
    with presets and the order.
    """
    rng = random.Random(f"perfbench/eval/{seed}")
    seen = set()
    drawn = Counter()
    pending: Dict[Tuple[str, str], List[SweepOp]] = {}
    while True:
        for model, mode, chips, (low, high) in rng.sample(EVAL_KINDS, len(EVAL_KINDS)):
            if not pending.get((model, mode)):
                presets = list(EVAL_PRESETS) * (EVAL_ROUND // len(EVAL_PRESETS))
                rng.shuffle(presets)
                width = (high - low + 1) / EVAL_ROUND
                round_ops = []
                for stratum, preset in enumerate(presets):
                    first = low + math.ceil(stratum * width)
                    last = low + math.ceil((stratum + 1) * width) - 1
                    drawn[model, mode, stratum, preset] += 1
                    if drawn[model, mode, stratum, preset] > last - first + 1:
                        raise RuntimeError(f"no distinct {model}/{mode} sweep is left")
                    while True:
                        op = SweepOp(model, mode, rng.randint(first, last), preset, chips)
                        if op not in seen:
                            break
                    seen.add(op)
                    round_ops.append(op)
                rng.shuffle(round_ops)
                pending[model, mode] = round_ops
            yield pending[model, mode].pop()


def fleet_ops(seed: int) -> Iterator[WindowOp]:
    """Blocks of windows: one per stratum of the day, some per spike.

    A stratum's window starts within five minutes of the stratum's
    centre and misses the spikes; a spike's window starts half a window
    before the spike, so it always catches the spike's onset and the
    queue it builds.  The fleet's cost per request grows with queue
    depth, so fixing these phases keeps the mix of light and heavy
    windows the same for every seed; the seed moves the stratum windows
    and draws every window's trace seed.
    """
    rng = random.Random(f"perfbench/fleet/{seed}")
    stratum_s = int(DAY_S) // FLEET_STRATA
    while True:
        starts = [
            int(start - WINDOW_S / 2)
            for (start, _, _), count in zip(DAY_SPIKES, SPIKE_WINDOWS)
            for _ in range(count)
        ]
        starts += [
            k * stratum_s + (stratum_s - int(WINDOW_S)) // 2 + rng.randint(-300, 300)
            for k in range(FLEET_STRATA)
        ]
        rng.shuffle(starts)
        for start in starts:
            yield WindowOp(start, rng.randrange(2**31))


def dse_ops(seed: int) -> Iterator[int]:
    """Search seeds, one per ``dse_search`` op."""
    rng = random.Random(f"perfbench/dse/{seed}")
    while True:
        yield rng.randrange(2**31)


# ----------------------------------------------------------------------
# Output records
# ----------------------------------------------------------------------
def sweep_document(sweep) -> Dict[str, Any]:
    """Every field ``repro sweep --json`` emits for ``sweep``."""
    from repro.analysis.export import eval_sweep_to_dict

    return eval_sweep_to_dict(sweep)


def sweep_digest(document: Dict[str, Any], sweep) -> str:
    """Digest of a sweep: its document plus every per-chip row.

    Per chip: cycles by runtime category, L3/L2/C2C bytes, finish cycle
    and the energy breakdown.
    """
    rows = []
    for result in sweep.results:
        simulation = result.report.simulation
        energy = result.report.energy.per_chip
        rows.append(
            [
                [
                    chip_id,
                    list(trace.cycles.values()),
                    trace.l3_l2_bytes,
                    trace.l2_l1_bytes,
                    trace.c2c_bytes_sent,
                    trace.finish_cycle,
                    [
                        energy[chip_id].compute,
                        energy[chip_id].l2_l1,
                        energy[chip_id].l3_l2,
                        energy[chip_id].chip_to_chip,
                    ],
                ]
                for chip_id, trace in sorted(simulation.chip_traces.items())
            ]
        )
    return digest({"sweep": document, "chips": rows})


def check_sweep(op: SweepOp, sweep, document) -> str:
    """Invariants of a sweep's output; returns its digest."""
    results = sweep.results
    if tuple(result.num_chips for result in results) != op.chips:
        raise CheckFailed(f"{op}: sweep covers {[r.num_chips for r in results]}")
    for result in results:
        if not result.block_cycles > 0 or not result.block_energy_joules > 0:
            raise CheckFailed(f"{op}: non-positive cycles or energy")
        per_chip = sum(b.total for b in result.report.energy.per_chip.values())
        total = result.block_energy_joules
        if abs(per_chip - total) > 1e-9 * total:
            raise CheckFailed(f"{op}: per-chip energy does not add up to the total")
    if document["results"][0]["speedup"] != 1.0:
        raise CheckFailed(f"{op}: the single-chip point is not the baseline")
    return sweep_digest(document, sweep)


@dataclass
class Output:
    """What one timed op returns: its work items and its raw output."""

    items: int
    value: Any


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class _EvalBase:
    """Sweeps through one persistent store shared by per-preset sessions."""

    block = ROUND_SWEEPS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.store_dir = Path(workdir) / f"{self.name}-store"
        self.sessions: Dict[str, Any] = {}

    def setup(self) -> None:
        from repro.api import Session
        from repro.hw.presets import get_platform_preset

        self.sessions = {
            preset: Session(
                platform_factory=get_platform_preset(preset).factory,
                cache_dir=self.store_dir,
            )
            for preset in EVAL_PRESETS
        }

    def prepare(self, op: SweepOp):
        from repro.graph import workload as workloads
        from repro.models.registry import get_model

        session = self.sessions[op.preset]
        session.cache_clear()
        build = getattr(workloads, op.mode)
        return op, session, build(get_model(op.model), op.seq_len)

    def run(self, inputs) -> Output:
        op, session, workload = inputs
        sweep = session.sweep(workload, op.chips)
        return Output(len(op.chips), (sweep, sweep_document(sweep)))

    def traced(self, inputs, tracer) -> Output:
        from layers import traced_sweep

        op, session, workload = inputs
        with tracer.span("op"):
            sweep, document = traced_sweep(tracer, session, workload, op.chips)
        return Output(len(op.chips), (sweep, document))

    def _check_cache(self, op: SweepOp, session, *, disk_hits: int, misses: int):
        info = session.cache_info()
        if (info.disk_hits, info.misses) != (disk_hits, misses):
            raise CheckFailed(
                f"{self.name} {op}: expected {disk_hits} disk hits and "
                f"{misses} engine runs, got {info.disk_hits} and {info.misses}"
            )


class EvalCold(_EvalBase):
    """Cold sweeps written through to a fresh persistent store."""

    name = "eval_cold"
    golden_ops = ROUND_SWEEPS
    tail_pct = 95.0
    disk_hit_ratio = 0.0

    def ops(self) -> Iterator[SweepOp]:
        return eval_ops(self.seed)

    def check(self, inputs, output: Output, *, traced: bool = False) -> str:
        op, session, _ = inputs
        if not traced:
            self._check_cache(op, session, disk_hits=0, misses=len(op.chips))
        return check_sweep(op, *output.value)

    def reference(self, inputs) -> str:
        """Digest of the same sweep by a store-less Session (engine runs)."""
        from repro.api import Session
        from repro.hw.presets import get_platform_preset

        op, _, workload = inputs
        session = Session(platform_factory=get_platform_preset(op.preset).factory)
        sweep = session.sweep(workload, op.chips)
        return sweep_digest(sweep_document(sweep), sweep)


class EvalWarm(_EvalBase):
    """Sweeps answered from a store that set-up filled by running them cold."""

    name = "eval_warm"
    golden_ops = ROUND_SWEEPS
    # The slowest 30 % are the 64-chip sweeps (40 % of the ops).  A warm
    # read takes 1-3 ms, so a narrower tail is made of the few ops a
    # collector pause or a host hiccup hit, and moved by 10-20 % between
    # runs of the same code.
    tail_pct = 70.0
    disk_hit_ratio = 1.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.sweeps: List[SweepOp] = list(itertools.islice(eval_ops(seed), ROUND_SWEEPS))
        self.cold: Dict[SweepOp, str] = {}

    def setup(self) -> None:
        super().setup()
        for op in self.sweeps:
            inputs = self.prepare(op)
            output = self.run(inputs)
            self._check_cache(op, inputs[1], disk_hits=0, misses=len(op.chips))
            self.cold[op] = check_sweep(op, *output.value)

    def ops(self) -> Iterator[SweepOp]:
        return itertools.cycle(self.sweeps)

    def check(self, inputs, output: Output, *, traced: bool = False) -> str:
        op, session, _ = inputs
        if not traced:
            self._check_cache(op, session, disk_hits=len(op.chips), misses=0)
        found = check_sweep(op, *output.value)
        if found != self.cold[op]:
            raise CheckFailed(f"{op}: warm result {found} != cold result {self.cold[op]}")
        return found

    def reference(self, inputs) -> str:
        return self.cold[inputs[0]]


def window_trace(start_s: int):
    """The five-minute slice of the diurnal day starting at ``start_s``."""
    from repro.serving import DiurnalTrace

    end_s = start_s + WINDOW_S
    spikes = tuple(
        (max(start, start_s) - start_s, min(start + length, end_s) - max(start, start_s), extra)
        for start, length, extra in DAY_SPIKES
        if start < end_s and start + length > start_s
    )
    return DiurnalTrace(
        rate_rps=FLEET_RATE_RPS,
        duration_s=WINDOW_S,
        amplitude=FLEET_AMPLITUDE,
        period_s=DAY_S,
        phase_s=-float(start_s),
        spikes=spikes,
    )


class FleetDay:
    """Windows of a diurnal day served by a fleet whose costs are warm."""

    name = "fleet_day"
    block = FLEET_STRATA + sum(SPIKE_WINDOWS)
    golden_ops = FLEET_STRATA + sum(SPIKE_WINDOWS)
    tail_pct = 88.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.session = None
        self.config = None
        self.misses = 0

    def setup(self) -> None:
        from repro.api import Session
        from repro.fleet import FleetPlatform
        from repro.hw.presets import get_platform_preset
        from repro.models.tinyllama import tinyllama_42m
        from repro.serving.costs import RequestCostModel

        self.session = Session()
        self.config = tinyllama_42m()
        # Every length-grid point of every replica's cost model, so no op
        # ever runs a block evaluation.
        for entry in FLEET_PLATFORMS:
            parsed = FleetPlatform.parse(entry)
            costs = RequestCostModel(
                self.session,
                self.config,
                platform=get_platform_preset(parsed.preset).build(parsed.chips),
            )
            buckets = sorted({costs.bucket(n) for n in range(1, costs.max_context + 1)})
            for bucket in buckets:
                costs.prefill_cost(bucket)
                costs.decode_cost(bucket)
        self.misses = self.session.cache_info().misses

    def ops(self) -> Iterator[WindowOp]:
        return fleet_ops(self.seed)

    def prepare(self, op: WindowOp):
        return op, window_trace(op.start_s)

    def _serve(self, inputs):
        op, trace = inputs
        return self.session.serve_fleet(
            self.config,
            trace,
            platforms=FLEET_PLATFORMS,
            router=FLEET_ROUTER,
            seed=op.seed,
        )

    def run(self, inputs) -> Output:
        report = self._serve(inputs)
        return Output(report.result.arrived, (report, report.to_dict()))

    def traced(self, inputs, tracer) -> Output:
        from layers import traced_fleet

        op, trace = inputs
        with tracer.span("op"):
            report, document = traced_fleet(
                tracer, self.session, self.config, trace, op.seed,
                platforms=FLEET_PLATFORMS, router=FLEET_ROUTER,
            )
        tracer.count_fleet(report.result)
        return Output(report.result.arrived, (report, document))

    def check(self, inputs, output: Output, *, traced: bool = False) -> str:
        op = inputs[0]
        report, document = output.value
        result = report.result
        if self.session.cache_info().misses != self.misses:
            raise CheckFailed(f"{op}: the fleet ran a block evaluation")
        if result.arrived != result.admitted + result.rejected:
            raise CheckFailed(f"{op}: arrivals are not admitted or rejected")
        if result.in_flight or result.admitted != result.completed:
            raise CheckFailed(f"{op}: admitted requests did not all complete")
        if not result.arrived:
            raise CheckFailed(f"{op}: the window had no arrivals")
        return digest(document)

    def reference(self, inputs) -> str:
        return digest(self._serve(inputs).to_dict())


class DseSearch:
    """Serial surrogate searches of the ``dse-scale`` stage, checkpointed."""

    name = "dse_search"
    block = 1
    golden_ops = 4
    tail_pct = 80.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.checkpoint = Path(workdir) / "dse-checkpoint.json"
        self.spec = None

    def setup(self) -> None:
        import numpy  # noqa: F401  (the surrogate searcher's first refit imports it)
        from repro.spec.studies import get_study

        (stage,) = get_study(DSE_STUDY).stages
        self.spec = stage.spec
        self.workload = self.spec.workload.build()
        self.space = self.spec.space.build()
        self.checkpoint.parent.mkdir(parents=True, exist_ok=True)

    def ops(self) -> Iterator[int]:
        return dse_ops(self.seed)

    def prepare(self, search_seed: int):
        self.checkpoint.unlink(missing_ok=True)
        return search_seed, self.checkpoint

    def _tune(self, search_seed: int, checkpoint: Path):
        from repro.api import Session

        return Session().tune(
            self.workload,
            self.space,
            searcher=self.spec.searcher,
            budget=DSE_BUDGET,
            seed=search_seed,
            objectives=self.spec.objectives,
            checkpoint=checkpoint,
            checkpoint_every=DSE_CHECKPOINT_EVERY,
        )

    def run(self, inputs) -> Output:
        from repro.analysis.export import tune_result_to_dict

        result = self._tune(*inputs)
        document = tune_result_to_dict(result, include_cache=False)
        return Output(result.evaluations_requested, (result, document))

    def traced(self, inputs, tracer) -> Output:
        from layers import traced_tune

        search_seed, checkpoint = inputs
        with tracer.span("op"):
            result, document = traced_tune(
                tracer,
                self.workload,
                self.space,
                searcher=self.spec.searcher,
                budget=DSE_BUDGET,
                seed=search_seed,
                objectives=self.spec.objectives,
                checkpoint=checkpoint,
                checkpoint_every=DSE_CHECKPOINT_EVERY,
            )
        tracer.count_search(result)
        return Output(result.evaluations_requested, (result, document))

    def check(self, inputs, output: Output, *, traced: bool = False) -> str:
        from repro.dse.orchestrator import load_search_state

        search_seed, checkpoint = inputs
        result, document = output.value
        if not 0 < result.evaluations_requested <= DSE_BUDGET or not result.front:
            raise CheckFailed(f"search {search_seed}: empty search or front")
        state = load_search_state(checkpoint)
        points = [candidate.point for candidate in result.candidates]
        if (
            state.evaluations_requested != result.evaluations_requested
            or [candidate.point for candidate in state.candidates] != points
            or [points[index] for index in state.front]
            != [candidate.point for candidate in result.front]
        ):
            raise CheckFailed(f"search {search_seed}: final checkpoint != result")
        return digest(
            {"front": document["front"], "checkpoint": checkpoint.read_text(encoding="utf-8")}
        )

    def reference(self, inputs) -> str:
        search_seed, checkpoint = inputs
        output = self.run((search_seed, checkpoint))
        return self.check((search_seed, checkpoint), output)


WORKLOADS = {cls.name: cls for cls in (EvalCold, EvalWarm, FleetDay, DseSearch)}


# ----------------------------------------------------------------------
# The model's error against the paper's abstract
# ----------------------------------------------------------------------
def headline() -> List[Dict[str, Any]]:
    """The abstract's headline values, measured through ``Session``."""
    from repro.api import Session
    from repro.graph.workload import autoregressive, encoder
    from repro.models.mobilebert import MOBILEBERT_SEQ_LEN, mobilebert
    from repro.models.tinyllama import TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN, tinyllama_42m

    session = Session()
    tinyllama = autoregressive(tinyllama_42m(), TINYLLAMA_AUTOREGRESSIVE_SEQ_LEN)
    one, eight = (session.run(tinyllama, chips=chips) for chips in (1, 8))
    bert = encoder(mobilebert(), MOBILEBERT_SEQ_LEN)
    bert_one, bert_four = (session.run(bert, chips=chips) for chips in (1, 4))
    rows = (
        ("tinyllama_8chip_latency_ms", eight.block_runtime_seconds * 1e3, 0.54, "ms"),
        ("tinyllama_8chip_energy_mJ", eight.block_energy_joules * 1e3, 0.64, "mJ"),
        ("tinyllama_8chip_speedup", eight.speedup_over(one), 26.1, "x"),
        (
            "tinyllama_8chip_edp_gain",
            one.energy_delay_product / eight.energy_delay_product,
            27.2,
            "x",
        ),
        ("mobilebert_4chip_speedup", bert_four.speedup_over(bert_one), 4.7, "x"),
    )
    return [
        {"name": name, "model": model, "paper": paper, "unit": unit, "ratio": model / paper}
        for name, model, paper, unit in rows
    ]
