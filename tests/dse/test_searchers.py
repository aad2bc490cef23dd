"""Unit tests for the searcher registry and the shipped algorithms.

The searchers are exercised against a cheap synthetic evaluator (no
simulator) so these tests pin down budget accounting, determinism, and
registry behaviour without paying for block evaluations; the end-to-end
searches over the real simulator live in ``test_tune_api.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.dse.engine import Candidate
from repro.dse.objectives import get_objective
from repro.dse.searchers import (
    _PointEncoder,
    get_searcher,
    list_searchers,
    register_searcher,
    unregister_searcher,
)
from repro.dse.space import (
    ChoiceAxis,
    FloatAxis,
    IntAxis,
    SearchSpace,
    default_space,
    point_key,
)
from repro.errors import ConfigurationError, UnknownSearcherError

OBJECTIVES = (get_objective("latency"), get_objective("hw_cost"))


def make_space() -> SearchSpace:
    return SearchSpace(
        axes=(
            ChoiceAxis("chips", (1, 2, 4, 8)),
            ChoiceAxis("l2_kib", (1024, 2048)),
        )
    )


class SyntheticEvaluator:
    """Counts calls and scores points analytically (latency ~ 1/chips)."""

    def __init__(self):
        self.calls = 0
        self.seen = {}

    def __call__(self, point):
        self.calls += 1
        key = point_key(point)
        if key not in self.seen:
            self.seen[key] = Candidate(
                point=key,
                strategy="paper",
                num_chips=point["chips"],
                feasible=True,
                objective_values=(
                    ("latency", 1.0 / point["chips"] + point["l2_kib"] * 1e-6),
                    ("hw_cost", float(point["chips"] * point["l2_kib"])),
                ),
            )
        return self.seen[key]


class TestRegistry:
    def test_shipped_searchers(self):
        assert set(list_searchers()) >= {"grid", "random", "anneal", "evolution"}
        assert get_searcher("annealing") is get_searcher("anneal")
        assert get_searcher("ga") is get_searcher("evolution")

    def test_unknown_searcher_lists_registered_names(self):
        with pytest.raises(UnknownSearcherError, match="grid"):
            get_searcher("bogus")

    def test_register_and_unregister(self):
        @register_searcher
        class FirstPointSearcher:
            name = "test_first"
            label = "Evaluates only the first sample"

            def search(self, space, evaluate, objectives, *, budget, rng):
                return [evaluate(space.sample(rng))]

        try:
            assert "test_first" in list_searchers()
            with pytest.raises(ConfigurationError):
                register_searcher(FirstPointSearcher)
        finally:
            unregister_searcher("test_first")
        with pytest.raises(UnknownSearcherError):
            get_searcher("test_first")

    def test_rejects_incomplete_objects(self):
        with pytest.raises(ConfigurationError):
            register_searcher(object())


class TestGrid:
    def test_enumerates_the_full_space(self):
        evaluate = SyntheticEvaluator()
        visited = get_searcher("grid").search(
            make_space(), evaluate, OBJECTIVES, budget=100, rng=random.Random(0)
        )
        assert len(visited) == 8
        assert evaluate.calls == 8
        assert len(evaluate.seen) == 8

    def test_budget_truncates(self):
        evaluate = SyntheticEvaluator()
        visited = get_searcher("grid").search(
            make_space(), evaluate, OBJECTIVES, budget=3, rng=random.Random(0)
        )
        assert len(visited) == 3
        assert evaluate.calls == 3

    def test_rejects_infinite_spaces(self):
        space = SearchSpace(axes=(FloatAxis("f", 0.0, 1.0),))
        with pytest.raises(ConfigurationError, match="finite"):
            get_searcher("grid").search(
                space, SyntheticEvaluator(), OBJECTIVES,
                budget=10, rng=random.Random(0),
            )


@pytest.mark.parametrize("name", ["random", "anneal", "evolution"])
class TestStochasticSearchers:
    def test_budget_is_respected(self, name):
        evaluate = SyntheticEvaluator()
        visited = get_searcher(name).search(
            make_space(), evaluate, OBJECTIVES, budget=12, rng=random.Random(0)
        )
        assert evaluate.calls == 12
        assert len(visited) == 12
        # Unique work is bounded by the space, not the budget.
        assert len(evaluate.seen) <= 8

    def test_equal_seeds_visit_identical_sequences(self, name):
        searcher = get_searcher(name)

        def run(seed):
            evaluate = SyntheticEvaluator()
            visited = searcher.search(
                make_space(), evaluate, OBJECTIVES,
                budget=15, rng=random.Random(seed),
            )
            return [candidate.point for candidate in visited]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_tiny_budget_still_works(self, name):
        evaluate = SyntheticEvaluator()
        visited = get_searcher(name).search(
            make_space(), evaluate, OBJECTIVES, budget=1, rng=random.Random(0)
        )
        assert len(visited) == 1


def _reference_encoding(space: SearchSpace, point) -> list:
    """The surrogate's point encoding, derived afresh from each axis."""
    vector = []
    for axis in space.axes:
        value = point[axis.name]
        choices = getattr(axis, "choices", None)
        if choices is not None and any(
            isinstance(choice, bool) or not isinstance(choice, (int, float))
            for choice in choices
        ):
            index = next(i for i, choice in enumerate(choices) if choice == value)
            vector.append(index / max(1, len(choices) - 1))
            continue
        values = (
            choices
            if choices is not None
            else (
                axis.levels
                if getattr(axis, "levels", None) is not None
                else (axis.low, axis.high)
            )
        )
        low = float(min(values))
        high = float(max(values))
        span = high - low
        vector.append((float(value) - low) / span if span > 0 else 0.5)
    return vector


def _dse_scale_space() -> SearchSpace:
    from repro.spec.studies import get_study

    (stage,) = get_study("dse-scale").stages
    return stage.spec.space.build()


def _mixed_space() -> SearchSpace:
    """Every axis kind the shipped spaces lack."""
    return SearchSpace(
        axes=(
            IntAxis("cores", 2, 16, step=2),
            IntAxis("one_int", 7, 7),
            FloatAxis("freq", 123.5, 987.25),
            FloatAxis("flat", 3.0, 3.0),
            ChoiceAxis("flags", (True, False, "auto")),
            ChoiceAxis("single", ("only",)),
            ChoiceAxis("mixed_numbers", (3, 0.5, -2)),
        )
    )


@pytest.mark.parametrize(
    "space_factory", [default_space, _dse_scale_space, _mixed_space],
    ids=["default", "dse-scale", "mixed"],
)
def test_point_encoder_matches_the_per_axis_formula(space_factory):
    space = space_factory()
    encoder = _PointEncoder(space)
    rng = random.Random(11)
    base = space.sample(rng)
    points = [space.sample(rng) for _ in range(50)]
    for axis in space.axes:
        if isinstance(axis, FloatAxis) and axis.levels is None:
            values = [axis.low, axis.high] + [axis.sample(rng) for _ in range(20)]
        else:
            values = list(axis.values())
        points += [{**base, axis.name: value} for value in values]
    for point in points:
        assert encoder.encode(point) == _reference_encoding(space, point)
