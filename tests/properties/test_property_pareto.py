"""Property-based tests of Pareto-front extraction and its incremental upkeep.

The oracle below is the brute-force definition — every feasible candidate
that no other feasible candidate dominates, objective vectors re-folded on
every comparison — written independently of :mod:`repro.dse.pareto`.
The properties check that:

* ``pareto_front`` returns exactly the oracle's front, in input order,
  over ties, duplicate points, ``max``-sense objectives and infeasible
  candidates, and ``dominates`` agrees with the oracle on every pair;
* evolutionary survivor selection ranks by the oracle's dominator count,
  then by age;
* the search orchestrator's front, merged incrementally as the history
  grows at arbitrary split points, equals the batch front of the
  constraint-feasible history at every step;
* every checkpoint a real search writes — with a constraint, across an
  interrupt and the resume after it — records the batch front's
  positions.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.dse import ChoiceAxis, FloatAxis, SearchSpace
from repro.dse.engine import Candidate
from repro.dse.objectives import Sense, get_objective
from repro.dse.orchestrator import INTERRUPT_ENV, SearchOrchestrator, SearchState
from repro.dse.pareto import (
    Constraint,
    dominates,
    filter_constraints,
    pareto_front,
    parse_constraint,
)
from repro.dse.searchers import EvolutionarySearcher
from repro.errors import SearchInterrupted
from repro.graph.workload import autoregressive
from repro.models.tinyllama import tinyllama_42m

#: Two minimised objectives and one maximised one.
ALL_OBJECTIVES = tuple(get_objective(name) for name in ("latency", "hw_cost", "slo"))
assert ALL_OBJECTIVES[2].sense is Sense.MAX


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _folded(candidate, objectives):
    return [
        candidate.value(objective.name)
        * (1.0 if objective.sense is Sense.MIN else -1.0)
        for objective in objectives
    ]


def _oracle_dominates(a, b, objectives) -> bool:
    fa, fb = _folded(a, objectives), _folded(b, objectives)
    return all(x <= y for x, y in zip(fa, fb)) and any(x < y for x, y in zip(fa, fb))


def _oracle_front(candidates, objectives):
    feasible = [c for c in candidates if c.feasible]
    return [
        candidate
        for candidate in feasible
        if not any(
            _oracle_dominates(other, candidate, objectives)
            for other in feasible
            if other is not candidate
        )
    ]


def _same_objects(left, right) -> bool:
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


# ----------------------------------------------------------------------
# Synthetic candidates
# ----------------------------------------------------------------------
#: A coarse value grid makes ties (and equal vectors) common.
VALUES = st.sampled_from((0.0, 0.5, 1.0, 1.0, 2.0, 3.5, 100.0))


@st.composite
def histories(draw):
    """Synthetic candidates: some infeasible, some repeated objects or values."""
    count = draw(st.integers(min_value=0, max_value=30))
    made = []
    for index in range(count):
        if made and draw(st.integers(min_value=0, max_value=5)) == 0:
            made.append(made[draw(st.integers(0, len(made) - 1))])  # same object
            continue
        feasible = draw(st.integers(min_value=0, max_value=4)) > 0
        made.append(
            Candidate(
                point=(("id", index),),
                strategy="paper",
                num_chips=1,
                feasible=feasible,
                objective_values=tuple(
                    (objective.name, draw(VALUES)) for objective in ALL_OBJECTIVES
                )
                if feasible
                else (),
                note="" if feasible else "PartitioningError: synthetic",
            )
        )
    return made


@st.composite
def objective_sets(draw):
    """A non-empty, ordered selection of the three objectives."""
    chosen = draw(
        st.lists(st.sampled_from(ALL_OBJECTIVES), min_size=1, max_size=3, unique=True)
    )
    return tuple(chosen)


CONSTRAINTS = st.lists(
    st.sampled_from(
        (
            Constraint("latency", "<=", 2.0),
            Constraint("hw_cost", "<=", 1.0),
            Constraint("slo", ">=", 0.5),
        )
    ),
    max_size=2,
    unique=True,
)


@settings(max_examples=150, deadline=None)
@given(candidates=histories(), objectives=objective_sets())
def test_pareto_front_matches_the_oracle_in_input_order(candidates, objectives):
    assert _same_objects(
        pareto_front(candidates, objectives), _oracle_front(candidates, objectives)
    )


@settings(max_examples=80, deadline=None)
@given(candidates=histories(), objectives=objective_sets())
def test_dominates_matches_the_oracle_on_every_pair(candidates, objectives):
    feasible = [c for c in candidates if c.feasible]
    for a in feasible:
        for b in feasible:
            assert dominates(a, b, objectives) == _oracle_dominates(a, b, objectives)


@settings(max_examples=100, deadline=None)
@given(
    population=histories(),
    objectives=objective_sets(),
    mu=st.integers(min_value=1, max_value=8),
)
def test_evolution_keeps_the_least_dominated_then_the_oldest(population, objectives, mu):
    feasible = [c for c in population if c.feasible]

    def rank(index):
        candidate = population[index]
        if not candidate.feasible:
            return (float("inf"), index)
        return (
            sum(
                1
                for other in feasible
                if other is not candidate
                and _oracle_dominates(other, candidate, objectives)
            ),
            index,
        )

    expected = [population[i] for i in sorted(range(len(population)), key=rank)[:mu]]
    assert _same_objects(EvolutionarySearcher._select(population, objectives, mu), expected)


class _History:
    """The one evaluator attribute the orchestrator's front reads."""

    def __init__(self) -> None:
        self.history = ()


@settings(max_examples=150, deadline=None)
@given(
    candidates=histories(),
    objectives=objective_sets(),
    constraints=CONSTRAINTS,
    cuts=st.lists(st.integers(min_value=0, max_value=30), max_size=6),
)
def test_incremental_front_equals_the_batch_front_at_every_split(
    candidates, objectives, constraints, cuts
):
    evaluator = _History()
    orchestrator = SearchOrchestrator(
        evaluator,
        algorithm=None,
        space=None,
        objectives=objectives,
        budget=1,
        seed=0,
        constraints=constraints,
    )
    for cut in sorted(cuts) + [len(candidates)]:
        evaluator.history = tuple(candidates[:cut])
        batch = pareto_front(filter_constraints(evaluator.history, constraints), objectives)
        assert _same_objects(orchestrator.front, batch)


# ----------------------------------------------------------------------
# Checkpoints of real searches
# ----------------------------------------------------------------------
WORKLOAD = autoregressive(tinyllama_42m(), 64)

#: Sixteen points with tied latencies and energies; 16 chips exceed
#: TinyLlama's 8 heads, so a quarter of the space is infeasible.
SPACE = SearchSpace(
    axes=(
        ChoiceAxis("chips", (1, 2, 4, 16)),
        FloatAxis("link_gbps", 0.25, 1.0, levels=(0.25, 1.0)),
        ChoiceAxis("l2_kib", (1024, 2048)),
        ChoiceAxis("strategy", ("paper",)),
    )
)
OBJECTIVES = ("latency", "energy", "hw_cost")


@contextmanager
def _recorded_checkpoints():
    """Collect every state the search writes, in order."""
    states = []
    save = SearchState.save

    def recording_save(state, path):
        states.append(state)
        save(state, path)

    SearchState.save = recording_save
    try:
        yield states
    finally:
        SearchState.save = save


@contextmanager
def _interrupt_after(count: int):
    os.environ[INTERRUPT_ENV] = str(count)
    try:
        yield
    finally:
        del os.environ[INTERRUPT_ENV]


@settings(max_examples=6, deadline=None)
@given(
    searcher=st.sampled_from(("random", "evolution", "surrogate")),
    seed=st.integers(min_value=0, max_value=20),
    budget=st.integers(min_value=6, max_value=12),
    constraint=st.sampled_from(("latency<=0.006", "hw_cost<=45")),
    interrupt_after=st.integers(min_value=2, max_value=5),
)
def test_every_checkpoint_front_is_the_batch_front_across_resume(
    searcher, seed, budget, constraint, interrupt_after
):
    objectives = tuple(get_objective(name) for name in OBJECTIVES)
    constraints = (parse_constraint(constraint),)

    def tune(checkpoint, **kwargs):
        return Session().tune(
            WORKLOAD,
            SPACE,
            searcher=searcher,
            budget=budget,
            seed=seed,
            objectives=OBJECTIVES,
            constraints=(constraint,),
            checkpoint=checkpoint,
            checkpoint_every=2,
            **kwargs,
        )

    with tempfile.TemporaryDirectory() as tmp, _recorded_checkpoints() as states:
        checkpoint = Path(tmp) / "state.json"
        try:
            with _interrupt_after(interrupt_after):
                tune(checkpoint)
        except SearchInterrupted:
            pass
        resume = checkpoint if checkpoint.exists() else None
        result = tune(checkpoint, resume=resume)
    assert states
    for state in states:
        eligible = filter_constraints(state.candidates, constraints)
        batch = pareto_front(eligible, objectives)
        assert state.front == tuple(state.candidates.index(c) for c in batch)
    assert _same_objects(
        result.front,
        pareto_front(filter_constraints(result.candidates, constraints), objectives),
    )
