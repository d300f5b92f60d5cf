"""Finite decision trees with certain-equivalent rollback.

Rollback works directly in certain-equivalent space: decisions take the
max over children, chance nodes aggregate child certain equivalents with a
log-sum-exp, which is the numerically stable equivalent of propagating
expected exponential utility and inverting at the end.

Nothing here recurses, so tree depth is bounded by memory, not by the
interpreter's recursion limit.  ``DecisionTree`` validates itself in one
iterative walk from the root and records the post-order, with children in
the order rollback visits them (label-sorted at decisions); policy
counting and enumeration read it.  Each rollback or curve compiles the
post-order of its subtree into levels (inner nodes of one kind and
height), then makes one pass over the levels for a whole vector of
aversions: the chance nodes of a level get one segmented log-sum-exp over
a (children x k) block, the decision nodes one segmented max.  Each
node's arithmetic is that of the one-node kernel, so results do not
depend on the batching.  Plans are built by the call that needs them,
not by ``DecisionTree``, so building a tree costs no more than validating
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .prospects import MASS_SUM_TOLERANCE, Discrete, make_discrete
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

# Chance-node probabilities get the same slack as a discrete prospect's masses.
PROBABILITY_SUM_TOLERANCE = MASS_SUM_TOLERANCE
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


def _ordered_children(node: Union[DecisionNode, ChanceNode]) -> Sequence[tuple]:
    """Child pairs in the order rollback visits them: label-sorted at decisions."""
    return sorted(node.children) if isinstance(node, DecisionNode) else node.children


def _child_ids(nid: str, node: Node) -> List[str]:
    """Validate one node's contents; its child ids in rollback order."""
    if isinstance(node, TerminalNode):
        if not math.isfinite(node.payoff):
            raise ValueError(f"non-finite payoff at node {nid!r}")
        return []
    if isinstance(node, DecisionNode):
        if not node.children:
            raise ValueError(f"node {nid!r} has no children")
        if len({label for label, _ in node.children}) != len(node.children):
            raise ValueError(f"duplicate child labels at decision node {nid!r}")
        return [cid for _, cid in _ordered_children(node)]
    if isinstance(node, ChanceNode):
        if not node.children:
            raise ValueError(f"node {nid!r} has no children")
        probs = [p for p, _ in node.children]
        for p in probs:
            if not p > 0.0:
                raise ValueError(f"nonpositive probability at chance node {nid!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise ValueError(
                f"probabilities at chance node {nid!r} sum to {total!r}, expected 1"
            )
        return [cid for _, cid in node.children]
    raise TypeError(f"not a tree node: {node!r}")


def _first_fault(nodes: Mapping[str, Node], root: str) -> Exception:
    """The error for an invalid node map, checked in full in node-map order.

    Node contents and child references come first, then parent counts, then
    reachability, so a map with several faults always reports the same one.
    """
    parents: Dict[str, int] = {nid: 0 for nid in nodes}
    for nid, node in nodes.items():
        try:
            child_ids = _child_ids(nid, node)
        except (TypeError, ValueError) as exc:
            return exc
        for cid in child_ids:
            if cid not in nodes:
                return ValueError(f"node {nid!r} references unknown child {cid!r}")
            parents[cid] += 1
    for nid, count in parents.items():
        if nid == root:
            if count != 0:
                return ValueError(f"root node {root!r} has a parent")
        elif count != 1:
            return ValueError(f"node {nid!r} has {count} parents, expected exactly 1")
    # Parent counts alone admit a cycle disconnected from the root.
    reached, stack = {root}, [root]
    while stack:
        for _, cid in getattr(nodes[stack.pop()], "children", ()):
            if cid not in reached:
                reached.add(cid)
                stack.append(cid)
    orphan = sorted(set(nodes) - reached)[0]
    return ValueError(f"node {orphan!r} is unreachable from the root")


@dataclass(frozen=True)
class DecisionTree:
    """Rooted tree of decision / chance / terminal nodes with money payoffs."""

    nodes: Mapping[str, Node]
    root: str

    def __post_init__(self) -> None:
        nodes = dict(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if self.root not in nodes:
            raise ValueError(f"root node {self.root!r} not in node map")
        # One walk checks every node it reaches, and finds any node reached
        # twice (a second parent or a cycle) or never (a detached part); on
        # any fault, _first_fault rechecks the whole map to pick the error.
        # The walk visits each node before its children, the last child
        # first; reversed, that is the post-order with children in rollback
        # order.
        order: List[str] = []
        reached = {self.root}
        stack = [self.root]
        try:
            while stack:
                nid = stack.pop()
                order.append(nid)
                for cid in _child_ids(nid, nodes[nid]):
                    if cid in reached or cid not in nodes:
                        raise ValueError
                    reached.add(cid)
                    stack.append(cid)
            if len(order) != len(nodes):
                raise ValueError
        except (TypeError, ValueError):
            raise _first_fault(nodes, self.root) from None
        order.reverse()
        object.__setattr__(self, "_order", order)

    def _subtree(self, node_id: str) -> List[str]:
        """Post-order of the subtree rooted at a node; the node comes last."""
        if node_id == self.root:
            return self._order
        order, stack = [], [node_id]
        while stack:
            nid = stack.pop()
            order.append(nid)
            node = self.nodes[nid]
            if not isinstance(node, TerminalNode):
                stack.extend(cid for _, cid in _ordered_children(node))
        order.reverse()
        return order


@dataclass(frozen=True)
class Policy:
    """Deterministic choice of a child label at every reachable decision node."""

    choice: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choice", dict(self.choice))


class _Level(NamedTuple):
    """Inner nodes of one kind and height, as rows of a subtree's value table.

    Each node's children are one segment of ``children``: ``starts`` holds
    the segment offsets, ``segment`` the node index of every child.
    ``weights`` (a column of probabilities) is set for chance levels,
    ``labels`` for decision levels.  ``padded_rows`` and ``padded_starts``
    place the children in a buffer with a zero row ahead of each segment
    (see :func:`_segment_sums`).
    """

    rows: np.ndarray
    children: np.ndarray
    starts: np.ndarray
    segment: np.ndarray
    weights: Optional[np.ndarray]
    labels: Tuple[str, ...]
    padded_rows: np.ndarray
    padded_starts: np.ndarray


class _Plan(NamedTuple):
    """A subtree compiled for rollback: its rows in post-order, root last."""

    ids: List[str]
    terminal_rows: np.ndarray
    payoffs: np.ndarray
    levels: List[_Level]


def _compile(tree: DecisionTree, node_id: str) -> _Plan:
    ids = tree._subtree(node_id)
    row_of = {nid: i for i, nid in enumerate(ids)}
    height = [0] * len(ids)
    terminal_rows: List[int] = []
    payoffs: List[float] = []
    # Inner nodes in post-order, with their children's rows node after node
    # and each child's probability (chance) or label (decision).
    inner: List[int] = []
    is_chance: List[bool] = []
    counts: List[int] = []
    kids: List[int] = []
    probs: List[float] = []
    labels: List[str] = []
    nodes = tree.nodes
    for i, nid in enumerate(ids):
        node = nodes[nid]
        if isinstance(node, TerminalNode):
            terminal_rows.append(i)
            payoffs.append(node.payoff)
            continue
        chance = isinstance(node, ChanceNode)
        pairs = _ordered_children(node)
        rows = [row_of[cid] for _, cid in pairs]
        height[i] = 1 + max([height[r] for r in rows])
        tags = [tag for tag, _ in pairs]
        inner.append(i)
        is_chance.append(chance)
        counts.append(len(rows))
        kids += rows
        if chance:
            probs += tags
            labels += [""] * len(tags)
        else:
            probs += [0.0] * len(tags)
            labels += tags
    # Order the inner nodes by (height, kind), keeping post-order within a
    # level, and their children with them.
    node_rows = np.array(inner, dtype=np.intp)
    chance_of = np.array(is_chance)
    key = np.array(height)[node_rows] * 2 + chance_of
    order = np.argsort(key, kind="stable")
    size = np.array(counts, dtype=np.intp)
    first = (np.cumsum(size) - size)[order]
    node_rows, chance_of, key, size = node_rows[order], chance_of[order], key[order], size[order]
    offset = np.cumsum(size) - size
    take = np.repeat(first - offset, size) + np.arange(len(kids))
    children = np.array(kids, dtype=np.intp)[take]
    weights = np.array(probs)[take]
    segment = np.repeat(np.arange(len(node_rows)), size)
    padded_rows = np.arange(len(kids)) + segment + 1
    padded_starts = offset + np.arange(len(node_rows))
    begins = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()] if inner else []
    levels = []
    for n0, n1 in zip(begins, begins[1:] + [len(node_rows)]):
        c0 = int(offset[n0])
        c1 = c0 + int(size[n0:n1].sum())
        chance = bool(chance_of[n0])
        levels.append(
            _Level(
                node_rows[n0:n1],
                children[c0:c1],
                offset[n0:n1] - c0,
                segment[c0:c1] - n0,
                weights[c0:c1, None] if chance else None,
                () if chance else tuple(labels[t] for t in take[c0:c1].tolist()),
                padded_rows[c0:c1] - (c0 + n0),
                padded_starts[n0:n1] - (c0 + n0),
            )
        )
    return _Plan(ids, np.array(terminal_rows, dtype=np.intp), np.array(payoffs), levels)


def _segment_sums(level: _Level, *parts: np.ndarray) -> np.ndarray:
    """Each segment's sum of the rows of every part, rounded as numpy sums one row.

    ``np.add.reduceat`` starts a segment from its first row; with a zero row
    ahead of each segment it adds from 0 in the pairwise order that
    ``ndarray.sum`` uses, so a node gets the bits the one-node kernel gave.
    """
    padded = np.zeros((len(parts), len(parts[0]) + len(level.starts), parts[0].shape[1]))
    for buffer, part in zip(padded, parts):
        buffer[level.padded_rows] = part
    return np.add.reduceat(padded, level.padded_starts, axis=1)


def _chance_lse(block: np.ndarray, level: _Level, t: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Certain equivalents of a chance level at every t = -rho < 0, and overflow flags.

    The log-sum-exp is that of ``prospects._logsumexp`` segment by segment:
    shift by the segment's peak exponent, keep the weight at the peak out of
    the sum and add it back through log1p.  A flag marks a node whose
    exponent t*ce or result is not finite, the cases where the kernel
    raises; flags are None when there is none.
    """
    exponents = block * t
    lowest = float(exponents.min())
    peak = np.maximum.reduceat(exponents, level.starts)
    peak_rows = peak[level.segment]
    at_top = level.weights * (exponents == peak_rows)
    exponents -= peak_rows
    np.exp(exponents, out=exponents)
    # The weight at a segment's peak is left out of its sum.
    exponents *= level.weights - at_top
    at_peak, ces = _segment_sums(level, at_top, exponents)
    ces /= at_peak
    np.log1p(ces, out=ces)
    ces += np.log(at_peak)
    ces += peak
    ces /= t
    finite = np.isfinite(ces)
    if math.isfinite(lowest) and finite.all():
        return ces, None
    flags = ~finite | np.logical_or.reduceat(~np.isfinite(block * t), level.starts)
    ces[flags] = np.nan
    return ces, flags


def _chance_values(block: np.ndarray, level: _Level, t: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Chance level values for every t = -rho: expected values where rho is 0."""
    positive = t < 0.0
    if positive.all():
        return _chance_lse(block, level, t)
    (ces,) = _segment_sums(level, level.weights * block)
    if not positive.any():
        return ces, None
    ces[:, positive], lse_flags = _chance_lse(block[:, positive], level, t[positive])
    if lse_flags is None:
        return ces, None
    flags = np.zeros(ces.shape, dtype=bool)
    flags[:, positive] = lse_flags
    return ces, flags


def _evaluate(
    plan: _Plan, rho: np.ndarray, *, choose: bool = False, worst: bool = False
) -> Tuple[np.ndarray, Dict[str, str], float]:
    """One pass over a compiled subtree for every rho at once.

    Returns the root's certain equivalents, the chosen label at every
    decision node (for the first rho, when ``choose``) and the subtree's
    maximin payoff (when ``worst``).  Raises OverflowError naming, at the
    first rho where any chance node overflows, the first such node in
    post-order: the node where recursive backward induction stops.
    """
    t = -rho
    values = np.empty((len(plan.ids), len(rho)))
    values[plan.terminal_rows] = plan.payoffs[:, None]
    low = np.full(len(plan.ids), math.nan)
    low[plan.terminal_rows] = plan.payoffs
    overflow: Optional[np.ndarray] = None
    choices: Dict[str, str] = {}
    with np.errstate(all="ignore"):
        for level in plan.levels:
            block = values[level.children]
            if level.weights is None:
                best = np.maximum.reduceat(block, level.starts)
                if choose:
                    hit = block[:, 0] == best[level.segment, 0]
                    index = np.where(hit, np.arange(len(hit)), len(hit))
                    firsts = np.minimum.reduceat(index, level.starts)
                    # A NaN maximum (from infinite expected values) hits no
                    # child; the segment's first child stands in.
                    firsts = np.where(firsts < len(hit), firsts, level.starts)
                    for row, first in zip(level.rows.tolist(), firsts.tolist()):
                        choices[plan.ids[row]] = level.labels[first]
                if worst:
                    low[level.rows] = np.maximum.reduceat(low[level.children], level.starts)
            else:
                best, flags = _chance_values(block, level, t)
                if flags is not None:
                    if overflow is None:
                        overflow = np.zeros(values.shape, dtype=bool)
                    overflow[level.rows] = flags
                if worst:
                    low[level.rows] = np.minimum.reduceat(low[level.children], level.starts)
            values[level.rows] = best
    if overflow is not None:
        column = overflow[:, overflow.any(axis=0).argmax()]
        raise OverflowError(f"rollback overflow at chance node {plan.ids[column.argmax()]!r}")
    return values[-1], choices, float(low[-1])


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

    risk_aversion 0 degenerates to expected-value rollback.  Ties between
    decision children go to the lexicographically smallest label.
    """
    rho = check_risk_aversion(risk_aversion, allow_zero=True)
    values, choices, _ = _evaluate(_compile(tree, tree.root), np.array([rho]), choose=True)
    return float(values[0]), Policy(_reachable_choices(tree, choices, tree.root))


def node_curve(
    tree: DecisionTree, node_id: str, r: float, ks: Tuple[float, ...]
) -> FlexibilityCurve:
    """Flexibility curve of the subtree rooted at a node.

    Every sample is a rollback at distorted aversion k*r, so the optimal
    policy is free to differ per k; one pass over the subtree evaluates
    the whole k grid.  The tail limit is the maximin payoff of the subtree
    (max at decisions, min at chance nodes).
    """
    r = check_risk_aversion(r)
    if node_id not in tree.nodes:
        raise ValueError(f"unknown node id {node_id!r}")
    grid = _check_k_grid(ks)
    rho = np.array([k * r for k in grid])
    values, _, tail = _evaluate(_compile(tree, node_id), rho, worst=True)
    return FlexibilityCurve(node_id, r, grid, tuple(values.tolist()), tail)


def _policy_count(tree: DecisionTree) -> int:
    """Number of policies; a chance node stops multiplying once past the cap."""
    count: Dict[str, int] = {}
    for nid in tree._order:
        node = tree.nodes[nid]
        if isinstance(node, TerminalNode):
            count[nid] = 1
        elif isinstance(node, ChanceNode):
            product = 1
            for _, cid in node.children:
                product *= count[cid]
                if product > POLICY_COUNT_CAP:
                    break
            count[nid] = product
        else:
            count[nid] = sum(count[cid] for _, cid in node.children)
    return count[tree.root]


def enumerate_policies(tree: DecisionTree) -> List[Policy]:
    """All reachability-pruned deterministic policies, depth-first, label-sorted."""
    count = _policy_count(tree)
    if count > POLICY_COUNT_CAP:
        raise ValueError(f"policy count {count} exceeds cap {POLICY_COUNT_CAP}")
    # Each node's partial policies, built from its children's in post-order.
    partial: Dict[str, List[Dict[str, str]]] = {}
    for nid in tree._order:
        node = tree.nodes[nid]
        if isinstance(node, TerminalNode):
            partial[nid] = [{}]
        elif isinstance(node, ChanceNode):
            combined: List[Dict[str, str]] = [{}]
            for _, cid in node.children:
                subs = partial.pop(cid)
                combined = [{**acc, **sub} for acc in combined for sub in subs]
            partial[nid] = combined
        else:
            partial[nid] = [
                {nid: label, **sub}
                for label, cid in _ordered_children(node)
                for sub in partial.pop(cid)
            ]
    return [Policy(c) for c in partial[tree.root]]


def policy_prospect(tree: DecisionTree, policy: Policy) -> Discrete:
    """Discrete prospect over terminal payoffs induced by a policy.

    Only the branches the policy takes are walked, depth-first in child
    order, so payoffs reach ``make_discrete`` in a fixed order.
    """
    pairs: List[Tuple[float, float]] = []
    stack = [(tree.root, 1.0)]
    while stack:
        node_id, probability = stack.pop()
        node = tree.nodes[node_id]
        if isinstance(node, TerminalNode):
            pairs.append((node.payoff, probability))
        elif isinstance(node, ChanceNode):
            stack.extend((cid, probability * p) for p, cid in reversed(node.children))
        else:
            label = policy.choice.get(node_id)
            if label is None:
                raise ValueError(f"policy missing a choice at decision node {node_id!r}")
            for clabel, cid in node.children:
                if clabel == label:
                    stack.append((cid, probability))
                    break
            else:
                raise ValueError(f"policy selects unknown label {label!r} at node {node_id!r}")
    return make_discrete(pairs)
