"""Finite decision trees with certain-equivalent rollback.

Rollback works directly in certain-equivalent space: decisions take the
max over children, chance nodes aggregate child certain equivalents with a
log-sum-exp, which is the numerically stable equivalent of propagating
expected exponential utility and inverting at the end.

A tree's internal form is one validated table in post-order, root last
(``_Table``): each node's row, kind, and payoff or (label or probability,
child) pairs in the order rollback visits them, label-sorted at
decisions.  A subtree is the run of rows that ends at its node.  The
table is the one validator of trees: it takes nodes one at a time, as
node objects (``DecisionTree``) or as a model file is read
(``model_io``), then checks the links in the one walk from the root that
puts them in post-order.  Nothing here recurses, so tree depth is bounded
by memory, not by the interpreter's recursion limit.

A rollback or curve reads its subtree's rows into arrays, groups the inner
rows into levels (one kind at one depth), then makes one pass over the
levels, deepest first, for a whole vector of aversions: the chance nodes
of a level get one segmented log-sum-exp over a (children x k) block, the
decision nodes one segmented max.  Each node's arithmetic is that of the
one-node kernel, so results do not depend on the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

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

# Node kinds in the table.
_TERMINAL, _DECISION, _CHANCE = 0, 1, 2


class _Table:
    """A tree's nodes, validated and in post-order: the one validator of trees.

    ``terminal``, ``decision`` and ``chance`` check one node's contents,
    raising ValueError, and record its payoff or its kind and (tag, child
    id) pairs in rollback order.  A caller that has to read on (a model
    file, whose shape faults come first) sets ``faulty`` instead.  ``walk``
    then checks the links and fills ``order``, root last.
    """

    def __init__(self) -> None:
        self.faulty = False
        self.payoffs: Dict[str, float] = {}
        # Inner nodes only.
        self.kinds: Dict[str, int] = {}
        self.pairs: Dict[str, Sequence[tuple]] = {}
        self.order: List[str] = []

    def __contains__(self, nid: object) -> bool:
        return nid in self.payoffs or nid in self.pairs

    def terminal(self, nid: str, payoff: float) -> None:
        if not math.isfinite(payoff):
            raise ValueError(f"non-finite payoff at node {nid!r}")
        self.payoffs[nid] = payoff

    def decision(self, nid: str, children: Sequence[tuple]) -> None:
        if not children:
            raise ValueError(f"node {nid!r} has no children")
        if len(dict(children)) != len(children):
            raise ValueError(f"duplicate child labels at decision node {nid!r}")
        self.kinds[nid] = _DECISION
        self.pairs[nid] = sorted(children)

    def chance(self, nid: str, children: Sequence[tuple]) -> None:
        if not children:
            raise ValueError(f"node {nid!r} has no children")
        for p, _ in children:
            if not p > 0.0:
                raise ValueError(f"nonpositive probability at chance node {nid!r}")
        total = math.fsum([p for p, _ in children])
        if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise ValueError(f"probabilities at chance node {nid!r} sum to {total!r}, expected 1")
        self.kinds[nid] = _CHANCE
        self.pairs[nid] = children

    def add(self, nid: str, node: Node) -> None:
        """Add a node object: the one place that dispatches on node type."""
        if isinstance(node, TerminalNode):
            self.terminal(nid, node.payoff)
        elif isinstance(node, DecisionNode):
            self.decision(nid, node.children)
        elif isinstance(node, ChanceNode):
            self.chance(nid, node.children)
        else:
            raise TypeError(f"not a tree node: {node!r}")

    def walk(self, nodes: Mapping[str, object], root: str, objects: Callable[[], Mapping[str, Node]]) -> None:
        """Check the links between the nodes added, which are those of ``nodes``.

        They make one tree when a walk from the root that pushes every child
        it meets, stopped after as many visits as the map has nodes, visits
        each node once.  It visits a node before its children, the last
        first; reversed, that is the post-order.  On a fault, raises the
        error ``_first_fault`` picks from the node objects ``objects()``.
        """
        if root not in nodes:
            raise ValueError(f"root node {root!r} not in node map")
        if not self.faulty:
            order: List[str] = []
            stack = [(None, root)]
            visit, pop, push, pairs = order.append, stack.pop, stack.extend, self.pairs.get
            try:
                for _ in range(len(nodes)):
                    nid = pop()[1]
                    visit(nid)
                    push(pairs(nid, ()))
            except IndexError:
                pass  # the walk reached fewer nodes than the map holds
            if not stack and len(order) == len(nodes) and nodes.keys() == set(order):
                self.order = order[::-1]
                return
        raise _first_fault(objects(), root)


def _first_fault(nodes: Mapping[str, Node], root: str) -> Exception:
    """The error for an invalid node map, checked in full in node-map order.

    Node by node, contents come before child references; then parent
    counts, then reachability, so a map with several faults always reports
    the same one.
    """
    table = _Table()
    parents = dict.fromkeys(nodes, 0)
    for nid, node in nodes.items():
        try:
            table.add(nid, node)
        except (TypeError, ValueError) as exc:
            return exc
        for _, cid in table.pairs.get(nid, ()):
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
        for _, cid in table.pairs.get(stack.pop(), ()):
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
        table = _Table()
        try:
            for nid, node in nodes.items():
                table.add(nid, node)
        except (TypeError, ValueError):
            table.faulty = True
        table.walk(nodes, self.root, lambda: nodes)
        object.__setattr__(self, "_table", table)

    @classmethod
    def _of(cls, table: _Table, ids: Mapping[str, object], root: str, objects: Callable[[], Dict[str, Node]]) -> "DecisionTree":
        """A tree whose nodes (ids in map order) went into ``table`` as a model file was read."""
        table.walk(ids, root, objects)
        tree = object.__new__(cls)
        for name, value in (("root", root), ("_table", table), ("_objects", objects)):
            object.__setattr__(tree, name, value)
        return tree


# A tree read from a model file builds its node objects on first use of ``nodes``.
DecisionTree.nodes = cached_property(lambda tree: tree._objects())
DecisionTree.nodes.__set_name__(DecisionTree, "nodes")


@dataclass(frozen=True)
class Policy:
    """Deterministic choice of a child label at every reachable decision node."""

    choice: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choice", dict(self.choice))


class _Level(NamedTuple):
    """Inner rows of one kind and depth; their children are the segments of ``children``.

    ``starts`` holds the segment offsets, ``segment`` each child's row's
    index in the level; ``weights`` (a column of probabilities) is set for
    chance levels only.  ``padded_rows`` and ``padded_starts`` place the
    children in a buffer with a zero row ahead of each segment (see
    :func:`_segment_sums`).
    """

    rows: np.ndarray
    children: np.ndarray
    starts: np.ndarray
    segment: np.ndarray
    weights: Optional[np.ndarray]
    padded_rows: np.ndarray
    padded_starts: np.ndarray


class _Plan(NamedTuple):
    """A subtree's ids in post-order, their rows, payoffs (NaN at inner rows) and levels."""

    ids: List[str]
    rows: Dict[str, int]
    payoffs: np.ndarray
    levels: List[_Level]


def _compile(table: _Table, node_id: str) -> _Plan:
    """The subtree at a node, read from the table into arrays and levels."""
    pairs, ids = table.pairs, table.order
    if node_id != ids[-1]:
        first = node_id
        while first in pairs:
            first = pairs[first][0][1]  # the first child's subtree comes first
        hi = ids.index(node_id) + 1
        ids = ids[ids.index(first, 0, hi) : hi]
    rows = dict(zip(ids, range(len(ids))))
    segments = list(map(pairs.get, ids, repeat(())))
    entries = list(chain.from_iterable(segments))
    n, m = len(ids), len(entries)
    kinds = np.fromiter(map(table.kinds.get, ids, repeat(_TERMINAL)), np.int8, n)
    counts = np.fromiter(map(len, segments), np.intp, n)
    bounds = np.concatenate(([0], counts.cumsum()))
    local = np.fromiter(map(rows.__getitem__, map(itemgetter(1), entries)), np.intp, m)
    tags = list(map(itemgetter(0), entries))
    under_chance = (kinds == _CHANCE).repeat(counts)
    weights = np.where(under_chance, np.array(tags, dtype=object), 0.0).astype(float)
    # Depth below the node by pointer jumping: ``up`` is an ancestor
    # ``depth`` links up, until every ``up`` is the node.
    up = np.full(n, n - 1)
    up[local] = np.arange(n).repeat(counts)
    depth = (np.arange(n) < n - 1).astype(np.intp)
    while up.min() < n - 1:
        depth += depth[up]
        up = up[up]
    # Order the inner rows deepest first, then by kind, keeping post-order
    # within a level, and their children with them.
    inner = kinds.nonzero()[0]
    chance_of = kinds[inner] == _CHANCE
    key = (depth.max() - depth[inner]) * 2 + chance_of
    order = key.argsort(kind="stable")
    node_rows, chance_of, key = inner[order], chance_of[order], key[order]
    size = counts[node_rows]
    offset = size.cumsum() - size
    take = (bounds[node_rows] - offset).repeat(size) + np.arange(m)
    # Levels are runs of one key; each node's and child's place within its
    # level follows from the level's lead node and its first child.
    opens = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=opens[1:])
    begins = opens.nonzero()[0]
    lead = begins[opens.cumsum() - 1]
    rel_starts = offset - offset[lead]
    rel_segment = (np.arange(len(key)) - lead).repeat(size)
    padded_rows = np.arange(m) - offset[lead].repeat(size) + rel_segment + 1
    padded_starts = rel_starts + np.arange(len(key)) - lead
    children, weights = local[take], weights[take, None]
    n0s, k0s = begins.tolist(), offset[begins].tolist()
    levels = [
        _Level(
            node_rows[n0:n1], children[k0:k1], rel_starts[n0:n1], rel_segment[k0:k1],
            weights[k0:k1] if chance else None, padded_rows[k0:k1], padded_starts[n0:n1],
        )
        for n0, n1, k0, k1, chance in zip(n0s, n0s[1:] + [len(key)], k0s, k0s[1:] + [m], chance_of[begins].tolist())
    ]
    return _Plan(ids, rows, np.fromiter(map(table.payoffs.get, ids, repeat(math.nan)), float, n), levels)


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
) -> Tuple[np.ndarray, Optional[np.ndarray], float]:
    """One pass over a compiled subtree for every rho at once.

    Returns the root's certain equivalents, the chosen child's place among
    its siblings at every decision row (for the first rho, when ``choose``;
    -1 at other rows) and the subtree's maximin payoff (when ``worst``).
    Raises OverflowError naming, at the first rho where any chance node
    overflows, the first such node in post-order: the node where recursive
    backward induction stops.
    """
    t = -rho
    values = np.empty((len(plan.ids), len(rho)))
    values[:] = plan.payoffs[:, None]
    low = plan.payoffs.copy()
    overflow: Optional[np.ndarray] = None
    picked = np.full(len(plan.ids), -1) if choose else None
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
                    picked[level.rows] = firsts - level.starts
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
    return values[-1], picked, float(low[-1])


def _reachable_choices(table: _Table, rows: Dict[str, int], picked: List[int]) -> Dict[str, str]:
    """The picked label at every decision node that the picks reach from the root."""
    choice: Dict[str, str] = {}
    stack = [table.order[-1]]
    while stack:
        nid = stack.pop()
        place = picked[rows[nid]]
        if place >= 0:
            choice[nid], cid = table.pairs[nid][place]
            stack.append(cid)
        else:
            stack.extend(cid for _, cid in table.pairs.get(nid, ()))
    return choice


def rollback(tree: DecisionTree, risk_aversion: float) -> Tuple[float, Policy]:
    """Backward induction: root certain equivalent and an optimal policy.

    risk_aversion 0 degenerates to expected-value rollback.  Ties between
    decision children go to the lexicographically smallest label.
    """
    rho = check_risk_aversion(risk_aversion, allow_zero=True)
    plan = _compile(tree._table, tree.root)
    values, picked, _ = _evaluate(plan, np.array([rho]), choose=True)
    return float(values[0]), Policy(_reachable_choices(tree._table, plan.rows, picked.tolist()))


def node_curve(tree: DecisionTree, node_id: str, r: float, ks: Tuple[float, ...]) -> FlexibilityCurve:
    """Flexibility curve of the subtree rooted at a node.

    Every sample is a rollback at distorted aversion k*r, so the optimal
    policy is free to differ per k; one pass over the subtree evaluates
    the whole k grid.  The tail limit is the maximin payoff of the subtree
    (max at decisions, min at chance nodes).
    """
    r = check_risk_aversion(r)
    if node_id not in tree._table:
        raise ValueError(f"unknown node id {node_id!r}")
    grid = _check_k_grid(ks)
    rho = np.array([k * r for k in grid])
    values, _, tail = _evaluate(_compile(tree._table, node_id), rho, worst=True)
    return FlexibilityCurve(node_id, r, grid, tuple(values.tolist()), tail)


def _policy_count(table: _Table) -> int:
    """Number of policies; a chance node stops multiplying once past the cap."""
    count: Dict[str, int] = {}
    for nid in table.order:
        kind = table.kinds.get(nid, _TERMINAL)
        if kind == _TERMINAL:
            count[nid] = 1
        elif kind == _CHANCE:
            product = 1
            for _, cid in table.pairs[nid]:
                product *= count[cid]
                if product > POLICY_COUNT_CAP:
                    break
            count[nid] = product
        else:
            count[nid] = sum([count[cid] for _, cid in table.pairs[nid]])
    return count[table.order[-1]]


def enumerate_policies(tree: DecisionTree) -> List[Policy]:
    """All reachability-pruned deterministic policies, depth-first, label-sorted."""
    table = tree._table
    count = _policy_count(table)
    if count > POLICY_COUNT_CAP:
        raise ValueError(f"policy count {count} exceeds cap {POLICY_COUNT_CAP}")
    # Each node's partial policies, built from its children's in post-order.
    partial: Dict[str, List[Dict[str, str]]] = {}
    for nid in table.order:
        kind = table.kinds.get(nid, _TERMINAL)
        if kind == _TERMINAL:
            partial[nid] = [{}]
        elif kind == _CHANCE:
            combined: List[Dict[str, str]] = [{}]
            for _, cid in table.pairs[nid]:
                subs = partial.pop(cid)
                combined = [{**acc, **sub} for acc in combined for sub in subs]
            partial[nid] = combined
        else:
            partial[nid] = [{nid: label, **sub} for label, cid in table.pairs[nid] for sub in partial.pop(cid)]
    return [Policy(c) for c in partial[tree.root]]


def policy_prospect(tree: DecisionTree, policy: Policy) -> Discrete:
    """Discrete prospect over terminal payoffs induced by a policy.

    Only the branches the policy takes are walked, depth-first in child
    order, so payoffs reach ``make_discrete`` in a fixed order.  A path
    whose mass, the product of its probabilities, underflows to 0 (below
    2**-1074) is left out: a prospect holds positive masses only.
    ``rollback`` keeps such a path, so at an aversion where its payoff
    still moves the certain equivalent the two differ.
    """
    table = tree._table
    pairs: List[Tuple[float, float]] = []
    stack = [(tree.root, 1.0)]
    while stack:
        nid, mass = stack.pop()
        kind = table.kinds.get(nid, _TERMINAL)
        if kind == _TERMINAL:
            if mass > 0.0:
                pairs.append((table.payoffs[nid], mass))
        elif kind == _CHANCE:
            stack.extend((cid, mass * p) for p, cid in reversed(table.pairs[nid]))
        else:
            label = policy.choice.get(nid)
            if label is None:
                raise ValueError(f"policy missing a choice at decision node {nid!r}")
            cid = dict(table.pairs[nid]).get(label)
            if cid is None:
                raise ValueError(f"policy selects unknown label {label!r} at node {nid!r}")
            stack.append((cid, mass))
    return make_discrete(pairs)
