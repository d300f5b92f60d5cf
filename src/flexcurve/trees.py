"""Finite decision trees with certain-equivalent rollback.

Rollback works directly in certain-equivalent space: decisions take the
max over children, chance nodes aggregate child certain equivalents with a
log-sum-exp, which is the numerically stable equivalent of propagating
expected exponential utility and inverting at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from .prospects import Discrete, _logsumexp, make_discrete
from .valuation import FlexibilityCurve, _check_k_grid, check_risk_aversion

__all__ = [
    "DecisionNode",
    "ChanceNode",
    "TerminalNode",
    "Node",
    "DecisionTree",
    "Policy",
    "rollback",
    "node_curve",
    "enumerate_policies",
    "policy_prospect",
    "PROBABILITY_SUM_TOLERANCE",
    "POLICY_COUNT_CAP",
]

PROBABILITY_SUM_TOLERANCE = 1e-9
POLICY_COUNT_CAP = 1_000_000


@dataclass(frozen=True)
class DecisionNode:
    """Children are (label, child id) pairs; labels unique within the node."""

    children: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class ChanceNode:
    """Children are (probability, child id) pairs summing to 1."""

    children: Tuple[Tuple[float, str], ...]


@dataclass(frozen=True)
class TerminalNode:
    payoff: float


Node = Union[DecisionNode, ChanceNode, TerminalNode]


@dataclass(frozen=True)
class DecisionTree:
    """Rooted tree of decision / chance / terminal nodes with money payoffs."""

    nodes: Mapping[str, Node]
    root: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", dict(self.nodes))
        if self.root not in self.nodes:
            raise ValueError(f"root node {self.root!r} not in node map")
        parents: Dict[str, int] = {nid: 0 for nid in self.nodes}
        for nid, node in self.nodes.items():
            if isinstance(node, TerminalNode):
                if not math.isfinite(node.payoff):
                    raise ValueError(f"non-finite payoff at node {nid!r}")
                continue
            if not node.children:
                raise ValueError(f"node {nid!r} has no children")
            if isinstance(node, DecisionNode):
                labels = [label for label, _ in node.children]
                if len(set(labels)) != len(labels):
                    raise ValueError(f"duplicate child labels at decision node {nid!r}")
                child_ids = [cid for _, cid in node.children]
            elif isinstance(node, ChanceNode):
                probs = [p for p, _ in node.children]
                if any(not (p > 0.0) for p in probs):
                    raise ValueError(f"nonpositive probability at chance node {nid!r}")
                total = math.fsum(probs)
                if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
                    raise ValueError(
                        f"probabilities at chance node {nid!r} sum to {total!r}, expected 1"
                    )
                child_ids = [cid for _, cid in node.children]
            else:
                raise TypeError(f"not a tree node: {node!r}")
            for cid in child_ids:
                if cid not in self.nodes:
                    raise ValueError(f"node {nid!r} references unknown child {cid!r}")
                parents[cid] += 1
        for nid, count in parents.items():
            if nid == self.root:
                if count != 0:
                    raise ValueError(f"root node {self.root!r} has a parent")
            elif count != 1:
                raise ValueError(
                    f"node {nid!r} has {count} parents, expected exactly 1"
                )
        # Parent counts alone admit a cycle disconnected from the root, so
        # additionally require every node to be reachable.
        visited = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in visited:
                continue
            visited.add(nid)
            node = self.nodes[nid]
            if not isinstance(node, TerminalNode):
                stack.extend(cid for _, cid in node.children)
        if visited != set(self.nodes):
            orphan = sorted(set(self.nodes) - visited)[0]
            raise ValueError(f"node {orphan!r} is unreachable from the root")


@dataclass(frozen=True)
class Policy:
    """Deterministic choice of a child label at every reachable decision node."""

    choice: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choice", dict(self.choice))


def _children_sorted(node: DecisionNode) -> List[Tuple[str, str]]:
    return sorted(node.children)


def _rollback_value(
    tree: DecisionTree, rho: float, node_id: str, choices: Dict[str, str]
) -> float:
    node = tree.nodes[node_id]
    if isinstance(node, TerminalNode):
        return node.payoff
    if isinstance(node, ChanceNode):
        ces = [_rollback_value(tree, rho, cid, choices) for _, cid in node.children]
        probs = [p for p, _ in node.children]
        if rho == 0.0:
            return float(np.dot(probs, ces))
        try:
            lse = _logsumexp(np.asarray([-rho]), np.asarray(ces), np.asarray(probs))
        except OverflowError:
            raise OverflowError(f"rollback overflow at chance node {node_id!r}") from None
        return float(-lse[0] / rho)
    best_label: str | None = None
    best_ce = -math.inf
    # Sorted labels plus strict improvement break ties toward the
    # lexicographically smallest label.
    for label, cid in _children_sorted(node):
        ce = _rollback_value(tree, rho, cid, choices)
        if best_label is None or ce > best_ce:
            best_label, best_ce = label, ce
    choices[node_id] = best_label
    return best_ce


def _reachable_choices(
    tree: DecisionTree, choices: Mapping[str, str], start: str
) -> Dict[str, str]:
    pruned: Dict[str, str] = {}
    stack = [start]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        if isinstance(node, TerminalNode):
            continue
        if isinstance(node, ChanceNode):
            stack.extend(cid for _, cid in node.children)
            continue
        label = choices[nid]
        pruned[nid] = label
        stack.extend(cid for clabel, cid in node.children if clabel == label)
    return pruned


def rollback(tree: DecisionTree, risk_aversion: float) -> Tuple[float, Policy]:
    """Backward induction: root certain equivalent and an optimal policy.

    risk_aversion 0 degenerates to expected-value rollback.
    """
    rho = check_risk_aversion(risk_aversion, allow_zero=True)
    choices: Dict[str, str] = {}
    ce = _rollback_value(tree, rho, tree.root, choices)
    return ce, Policy(_reachable_choices(tree, choices, tree.root))


def _worst_case(tree: DecisionTree, node_id: str) -> float:
    node = tree.nodes[node_id]
    if isinstance(node, TerminalNode):
        return node.payoff
    if isinstance(node, ChanceNode):
        return min(_worst_case(tree, cid) for _, cid in node.children)
    return max(_worst_case(tree, cid) for _, cid in node.children)


def node_curve(
    tree: DecisionTree, node_id: str, r: float, ks: Tuple[float, ...]
) -> FlexibilityCurve:
    """Flexibility curve of the subtree rooted at a node.

    Each sample re-runs rollback at distorted aversion k*r, so the optimal
    policy is free to differ per k.  The tail limit is the maximin payoff
    of the subtree (max at decisions, min at chance nodes).
    """
    r = check_risk_aversion(r)
    if node_id not in tree.nodes:
        raise ValueError(f"unknown node id {node_id!r}")
    grid = _check_k_grid(ks)
    ces = tuple(_rollback_value(tree, k * r, node_id, {}) for k in grid)
    return FlexibilityCurve(node_id, r, grid, ces, _worst_case(tree, node_id))


def _policy_count(tree: DecisionTree, node_id: str) -> int:
    node = tree.nodes[node_id]
    if isinstance(node, TerminalNode):
        return 1
    if isinstance(node, ChanceNode):
        count = 1
        for _, cid in node.children:
            count *= _policy_count(tree, cid)
            if count > POLICY_COUNT_CAP:
                return count
        return count
    return sum(_policy_count(tree, cid) for _, cid in node.children)


def _policies_from(tree: DecisionTree, node_id: str) -> List[Dict[str, str]]:
    node = tree.nodes[node_id]
    if isinstance(node, TerminalNode):
        return [{}]
    if isinstance(node, ChanceNode):
        combined: List[Dict[str, str]] = [{}]
        for _, cid in node.children:
            child_policies = _policies_from(tree, cid)
            combined = [
                {**acc, **sub} for acc in combined for sub in child_policies
            ]
        return combined
    out: List[Dict[str, str]] = []
    for label, cid in _children_sorted(node):
        for sub in _policies_from(tree, cid):
            out.append({node_id: label, **sub})
    return out


def enumerate_policies(tree: DecisionTree) -> List[Policy]:
    """All reachability-pruned deterministic policies, depth-first, label-sorted."""
    count = _policy_count(tree, tree.root)
    if count > POLICY_COUNT_CAP:
        raise ValueError(f"policy count {count} exceeds cap {POLICY_COUNT_CAP}")
    return [Policy(c) for c in _policies_from(tree, tree.root)]


def policy_prospect(tree: DecisionTree, policy: Policy) -> Discrete:
    """Discrete prospect over terminal payoffs induced by a policy."""
    pairs: List[Tuple[float, float]] = []

    def walk(node_id: str, probability: float) -> None:
        node = tree.nodes[node_id]
        if isinstance(node, TerminalNode):
            pairs.append((node.payoff, probability))
            return
        if isinstance(node, ChanceNode):
            for p, cid in node.children:
                walk(cid, probability * p)
            return
        label = policy.choice.get(node_id)
        if label is None:
            raise ValueError(f"policy missing a choice at decision node {node_id!r}")
        for clabel, cid in node.children:
            if clabel == label:
                walk(cid, probability)
                return
        raise ValueError(f"policy selects unknown label {label!r} at node {node_id!r}")

    walk(tree.root, 1.0)
    return make_discrete(pairs)
