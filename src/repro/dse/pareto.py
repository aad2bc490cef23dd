"""Dominance checks, Pareto-front extraction, and constraint filtering.

All functions work in *minimisation space*: a maximised objective's value
is negated before comparison, so "dominates" always means "no worse on
every objective and strictly better on at least one".  Candidates are
duck-typed — anything with a ``feasible`` flag and a ``value(name)``
accessor (the engine's :class:`~repro.dse.engine.Candidate`) works.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import le, lt
from typing import List, Sequence, Tuple, TypeVar

from ..errors import AnalysisError, ConfigurationError
from .objectives import Objective, Sense

__all__ = [
    "Constraint",
    "dominates",
    "filter_constraints",
    "objective_vector",
    "parse_constraint",
    "pareto_front",
]

CandidateT = TypeVar("CandidateT")


def objective_vector(
    candidate, objectives: Sequence[Objective]
) -> Tuple[float, ...]:
    """The candidate's objective values, sign-folded into minimisation space."""
    return tuple(
        candidate.value(objective.name)
        * (1.0 if objective.sense is Sense.MIN else -1.0)
        for objective in objectives
    )


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether folded vector ``a`` dominates ``b``; no vector dominates itself."""
    return all(map(le, a, b)) and any(map(lt, a, b))


def _non_dominated(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Positions of the folded vectors no other vector dominates, ascending.

    Equal vectors are all kept.  Each call compares every pair, so the
    cost is quadratic in ``len(vectors)``; callers that grow a set keep
    its front and merge only the additions (dominance is a strict
    partial order, so ``front(S + T) == front(front(S) + T)``).
    """
    return [
        index
        for index, vector in enumerate(vectors)
        if not any(_dominates(other, vector) for other in vectors)
    ]


def dominates(a, b, objectives: Sequence[Objective]) -> bool:
    """Whether ``a`` Pareto-dominates ``b`` on the given objectives.

    Requires both candidates to be feasible; dominance over an infeasible
    candidate is undefined (infeasible points never enter a front).
    """
    if not objectives:
        raise AnalysisError("dominance needs at least one objective")
    if not (a.feasible and b.feasible):
        raise AnalysisError("dominance is only defined between feasible candidates")
    return _dominates(objective_vector(a, objectives), objective_vector(b, objectives))


def pareto_front(
    candidates: Sequence[CandidateT], objectives: Sequence[Objective]
) -> List[CandidateT]:
    """The non-dominated feasible candidates, in input order.

    Candidates with identical objective vectors are all kept (neither
    dominates the other); infeasible candidates are skipped.
    """
    if not objectives:
        raise AnalysisError("a Pareto front needs at least one objective")
    feasible = [c for c in candidates if c.feasible]
    vectors = [objective_vector(c, objectives) for c in feasible]
    return [feasible[index] for index in _non_dominated(vectors)]


# ----------------------------------------------------------------------
# Constraints
# ----------------------------------------------------------------------
_CONSTRAINT_RE = re.compile(
    r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*(<=|>=)\s*([-+0-9.eE]+)\s*$"
)


@dataclass(frozen=True)
class Constraint:
    """A bound on one objective: ``objective <= bound`` or ``>= bound``."""

    objective: str
    op: str
    bound: float

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ConfigurationError(
                f"constraint operator must be <= or >=, got {self.op!r}"
            )

    def satisfied_by(self, candidate) -> bool:
        """Whether a feasible candidate meets the bound."""
        if not candidate.feasible:
            return False
        value = candidate.value(self.objective)
        return value <= self.bound if self.op == "<=" else value >= self.bound

    def render(self) -> str:
        """The constraint in its parseable ``name<=bound`` text form."""
        return f"{self.objective}{self.op}{self.bound:g}"


def parse_constraint(text: str) -> Constraint:
    """Parse ``"latency<=0.01"`` / ``"slo>=0.95"`` into a :class:`Constraint`."""
    match = _CONSTRAINT_RE.match(text)
    if not match:
        raise ConfigurationError(
            f"cannot parse constraint {text!r}; expected "
            "<objective><=|>=><number>, e.g. 'latency<=0.01'"
        )
    name, op, bound = match.groups()
    try:
        value = float(bound)
    except ValueError:
        raise ConfigurationError(
            f"constraint {text!r} has a non-numeric bound {bound!r}"
        ) from None
    return Constraint(objective=name, op=op, bound=value)


def filter_constraints(
    candidates: Sequence[CandidateT], constraints: Sequence[Constraint]
) -> List[CandidateT]:
    """The feasible candidates satisfying every constraint, in input order."""
    return [candidate for candidate in candidates if _eligible(candidate, constraints)]


def _eligible(candidate, constraints: Sequence[Constraint]) -> bool:
    """Whether ``candidate`` is feasible and satisfies every constraint."""
    return candidate.feasible and all(
        constraint.satisfied_by(candidate) for constraint in constraints
    )
