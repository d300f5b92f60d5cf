"""Built-in scenario templates.

Two generators cover the classic shapes of the flexibility question: a
robust choice between two cost curves under an uncertain quantity, and an
adaptive commit-observe-react plan compiled into a decision tree.  The
plan is written straight into the tree's table (``trees._Table``), the
one builder and validator of trees, and each commitment's observations
are checked there, as the chance node they compile to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

from .prospects import MASS_SUM_TOLERANCE, Discrete, make_discrete
from .trees import DecisionTree, _Table

__all__ = [
    "Commitment",
    "AdaptiveSpec",
    "StiglerSpec",
    "adaptive_template",
    "stigler_scenario",
]

ObservationTable = Union[
    Sequence[Tuple[str, float]],
    Mapping[str, Sequence[Tuple[str, float]]],
]


@dataclass(frozen=True)
class Commitment:
    """One commitment alternative; rigid commitments carry a locked action."""

    label: str
    cost: float
    allows_reaction: bool
    locked_action: Optional[str] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.cost):
            raise ValueError(f"commitment cost must be finite, got {self.cost!r}")
        if self.allows_reaction and self.locked_action is not None:
            raise ValueError(
                f"commitment {self.label!r} allows reaction but has a locked action"
            )
        if not self.allows_reaction and self.locked_action is None:
            raise ValueError(
                f"commitment {self.label!r} forbids reaction but has no locked action"
            )


@dataclass(frozen=True)
class AdaptiveSpec:
    """Commit-observe-react template.

    Observations may be shared (a single sequence) or conditioned on the
    commitment (a mapping from commitment label); both forms normalize to
    the per-commitment mapping.  Payoffs map (commitment, observation,
    action) triples to money.
    """

    commitments: Tuple[Commitment, ...]
    observations: ObservationTable
    reactions: Tuple[str, ...]
    payoffs: Mapping[Tuple[str, str, str], float]

    def __post_init__(self) -> None:
        if not self.commitments:
            raise ValueError("need at least one commitment")
        labels = [c.label for c in self.commitments]
        if len(set(labels)) != len(labels):
            raise ValueError("commitment labels must be unique")
        if not self.reactions:
            raise ValueError("need at least one reaction")
        if isinstance(self.observations, Mapping):
            table = {
                str(c): tuple((str(o), float(p)) for o, p in obs)
                for c, obs in self.observations.items()
            }
        else:
            shared = tuple((str(o), float(p)) for o, p in self.observations)
            table = {label: shared for label in labels}
        for label in labels:
            if label not in table:
                raise ValueError(f"no observations for commitment {label!r}")
            node = _Table()  # the chance node the observations compile to
            node.chance(f"commit:{label}", [(p, o) for o, p in table[label]])
            if node.faults:
                raise node.faults.popitem()[1]
        object.__setattr__(self, "observations", table)
        object.__setattr__(
            self,
            "payoffs",
            {
                (str(c), str(o), str(a)): float(v)
                for (c, o, a), v in dict(self.payoffs).items()
            },
        )
        object.__setattr__(self, "commitments", tuple(self.commitments))
        object.__setattr__(self, "reactions", tuple(str(a) for a in self.reactions))


def adaptive_template(spec: AdaptiveSpec) -> DecisionTree:
    """Expand the commit-observe-react template into a decision tree.

    Root decision over commitments; each commitment leads to a chance node
    over its observations; a flexible commitment then decides among all
    reactions while a rigid one goes straight to its locked action.  Every
    terminal payoff is the payoff triple minus the commitment cost.  The
    nodes are written into the tree's table in node-map order, each
    commitment's before ``commit:<label>`` and ``root`` last, and the
    table checks them as it checks a model file's tree.
    """
    table = _Table()

    def end(c: str, o: str, a: str, cost: float) -> str:
        if (c, o, a) not in spec.payoffs:
            raise ValueError(f"payoff missing for reachable triple {(c, o, a)!r}")
        tid = f"end:{c}/{o}/{a}"
        table.faults.pop(tid, None)  # a reused id replaces its node, as a node map's key does
        table.terminal(tid, spec.payoffs[(c, o, a)] - cost)
        return tid

    for commitment in spec.commitments:
        c, cost = commitment.label, commitment.cost
        outcomes = []
        for o, p in spec.observations[c]:
            if commitment.allows_reaction:
                table.decision(f"react:{c}/{o}", [(a, end(c, o, a, cost)) for a in spec.reactions])
                outcomes.append((p, f"react:{c}/{o}"))
            else:
                outcomes.append((p, end(c, o, commitment.locked_action, cost)))
        table.chance(f"commit:{c}", outcomes)
    table.decision("root", [(c.label, f"commit:{c.label}") for c in spec.commitments])
    return DecisionTree._of(table, table.kinds.keys(), "root")


@dataclass(frozen=True)
class StiglerSpec:
    """Two cost curves evaluated on a shared uncertain quantity grid."""

    quantity_grid: Tuple[Tuple[float, float], ...]
    cost_one: Mapping[float, float]
    cost_two: Mapping[float, float]

    def __post_init__(self) -> None:
        grid = tuple((float(q), float(p)) for q, p in self.quantity_grid)
        if not grid:
            raise ValueError("quantity grid must be nonempty")
        if any(not (p > 0.0) for _, p in grid):
            raise ValueError("quantity probabilities must be positive")
        total = math.fsum(p for _, p in grid)
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise ValueError(f"quantity probabilities sum to {total!r}, expected 1")
        cost_one = {float(q): float(c) for q, c in dict(self.cost_one).items()}
        cost_two = {float(q): float(c) for q, c in dict(self.cost_two).items()}
        for q, _ in grid:
            for name, curve in (("cost_one", cost_one), ("cost_two", cost_two)):
                if q not in curve:
                    raise ValueError(f"{name} has no cost for quantity {q!r}")
                if not math.isfinite(curve[q]):
                    raise ValueError(f"{name} cost at quantity {q!r} is not finite")
        object.__setattr__(self, "quantity_grid", grid)
        object.__setattr__(self, "cost_one", cost_one)
        object.__setattr__(self, "cost_two", cost_two)


def stigler_scenario(spec: StiglerSpec) -> Tuple[Discrete, Discrete]:
    """Value prospects (negated costs) for the two cost curves."""
    one = make_discrete([(-spec.cost_one[q], p) for q, p in spec.quantity_grid])
    two = make_discrete([(-spec.cost_two[q], p) for q, p in spec.quantity_grid])
    return one, two
