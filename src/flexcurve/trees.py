"""Finite decision trees with certain-equivalent rollback.

Rollback works directly in certain-equivalent space: decisions take the
max over children, chance nodes aggregate child certain equivalents with a
log-sum-exp, which is the numerically stable equivalent of propagating
expected exponential utility and inverting at the end.

A tree is one validated table in post-order, root last (``_Table``): each
node's row, kind, and payoff or (label or probability, child) pairs in
the order rollback visits them, label-sorted at decisions.  The table is
the tree's one representation and its one validator.  It takes nodes one
at a time, from node objects (``DecisionTree``), from a model file
(``model_io``) or from the adaptive template (``scenarios``), recording
each node's content fault instead of raising it, then checks the links in
the one walk from the root that puts them in post-order.  A tree's node
objects, ``DecisionTree.nodes``, are built from the table when that is
first read.  A subtree is the run of rows that ends at its node.  Nothing
here recurses, so tree depth is bounded by memory, not by the
interpreter's recursion limit.

A rollback or curve reads its subtree's rows into arrays, groups the inner
rows into levels (one kind at one depth), then makes one pass over the
levels, deepest first, for a whole vector of aversions: the chance nodes
of a level run on the prospect kernel, one call of its block reducer
``prospects._lse_block`` over a (k x children) block, whose max pass finds
each node's peak and masks it (the kernel's peak rule for every call
whose t are not all negative), and the decision nodes get one segmented
max.  Each node's arithmetic is that of the kernel on its children alone,
so results do not depend on the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import AbstractSet, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .prospects import _TINY_PEAK_WEIGHT, MASS_SUM_TOLERANCE, Discrete, _lse_block, make_discrete
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
    """A tree's nodes, validated and in post-order: the tree's one representation.

    ``terminal``, ``decision`` and ``chance`` take one node each, in
    node-map order: they record its kind, its payoff or its (tag, child id)
    pairs in rollback order, and in ``faults`` what is wrong with its
    contents.  ``walk`` then checks the links and fills ``order``, root last.
    """

    def __init__(self) -> None:
        self.kinds: Dict[str, int] = {}  # every node, in node-map order
        self.payoffs: Dict[str, float] = {}
        # Inner nodes only; ``given`` keeps a decision's pairs in their given order.
        self.pairs: Dict[str, Sequence[tuple]] = {}
        self.given: Dict[str, Sequence[tuple]] = {}
        self.faults: Dict[str, Exception] = {}
        self.order: List[str] = []

    def terminal(self, nid: str, payoff: float) -> None:
        self.kinds[nid] = _TERMINAL
        self.payoffs[nid] = payoff
        if not math.isfinite(payoff):
            self.faults[nid] = ValueError(f"non-finite payoff at node {nid!r}")

    def decision(self, nid: str, children: Sequence[tuple]) -> None:
        self.kinds[nid] = _DECISION
        self.given[nid] = children
        if not children:
            self.faults[nid] = ValueError(f"node {nid!r} has no children")
        elif len(dict(children)) != len(children):
            self.faults[nid] = ValueError(f"duplicate child labels at decision node {nid!r}")
        else:
            self.pairs[nid] = sorted(children)

    def chance(self, nid: str, children: Sequence[tuple]) -> None:
        self.kinds[nid] = _CHANCE
        self.pairs[nid] = children
        if not children:
            self.faults[nid] = ValueError(f"node {nid!r} has no children")
        elif not all([p > 0.0 for p, _ in children]):
            self.faults[nid] = ValueError(f"nonpositive probability at chance node {nid!r}")
        else:
            total = math.fsum([p for p, _ in children])
            if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
                self.faults[nid] = ValueError(f"probabilities at chance node {nid!r} sum to {total!r}, expected 1")

    def walk(self, ids: AbstractSet[str], root: str) -> None:
        """Check the links between the nodes added, whose ids are ``ids`` in node-map order.

        They make one tree when a walk from the root that pushes every child
        it meets, stopped after as many visits as the map has nodes, visits
        each node once.  It visits a node before its children, the last
        first; reversed, that is the post-order.  On a fault, the map is
        checked in full in node-map order: node by node, contents before
        child references, then parent counts, then reachability, so a map
        with several faults always reports the same one.
        """
        if root not in ids:
            raise ValueError(f"root node {root!r} not in node map")
        order: List[str] = []
        if not self.faults:
            stack = [(None, root)]
            visit, pop, push, pairs = order.append, stack.pop, stack.extend, self.pairs.get
            try:
                for _ in range(len(ids)):
                    nid = pop()[1]
                    visit(nid)
                    push(pairs(nid, ()))
            except IndexError:
                pass  # the walk reached fewer nodes than the map holds
            if not stack and len(order) == len(ids) and ids == set(order):
                self.order = order[::-1]
                return
        parents = dict.fromkeys(ids, 0)
        for nid in parents:
            if nid in self.faults:
                raise self.faults[nid]
            for _, cid in self.pairs.get(nid, ()):
                if cid not in parents:
                    raise ValueError(f"node {nid!r} references unknown child {cid!r}")
                parents[cid] += 1
        for nid, count in parents.items():
            if nid == root:
                if count != 0:
                    raise ValueError(f"root node {root!r} has a parent")
            elif count != 1:
                raise ValueError(f"node {nid!r} has {count} parents, expected exactly 1")
        # Parent counts alone admit a cycle disconnected from the root; with
        # them right, the walk visited each node it reached once.
        raise ValueError(f"node {sorted(parents.keys() - set(order))[0]!r} is unreachable from the root")

    def nodes(self) -> Dict[str, Node]:
        """The node objects, in node-map order, each with its children in their given order."""
        built: Dict[str, Node] = {}
        for nid, kind in self.kinds.items():
            if kind == _TERMINAL:
                built[nid] = TerminalNode(self.payoffs[nid])
            elif kind == _DECISION:
                built[nid] = DecisionNode(tuple(map(tuple, self.given[nid])))
            else:
                built[nid] = ChanceNode(tuple((float(p), cid) for p, cid in self.pairs[nid]))
        return built


@dataclass(frozen=True, init=False)
class DecisionTree:
    """Rooted tree of decision / chance / terminal nodes with money payoffs, held as its table.

    ``nodes``, through which trees compare and print, is built from the table when first read.
    """

    nodes: Mapping[str, Node] = cached_property(lambda tree: tree._table.nodes())  # type: ignore[assignment]
    root: str

    def __init__(self, nodes: Mapping[str, Node], root: str) -> None:
        self.__dict__["root"] = root
        self.__post_init__(nodes)

    def __post_init__(self, nodes: Mapping[str, Node]) -> None:
        """The dataclass validation hook, which ``flexbench`` times: node objects into the table, the one type dispatch."""
        table = _Table()
        for nid, node in nodes.items():
            try:
                if isinstance(node, TerminalNode):
                    table.terminal(nid, node.payoff)
                elif isinstance(node, DecisionNode):
                    table.decision(nid, node.children)
                elif isinstance(node, ChanceNode):
                    table.chance(nid, node.children)
                else:
                    raise TypeError(f"not a tree node: {node!r}")
            except (TypeError, ValueError) as exc:
                table.faults[nid] = exc
        table.walk(nodes.keys(), self.root)
        self.__dict__["_table"] = table

    @classmethod
    def _of(cls, table: _Table, ids: AbstractSet[str], root: str) -> "DecisionTree":
        """A tree whose nodes (``ids``, in node-map order) went into ``table`` from a model file or a template."""
        table.walk(ids, root)
        tree = object.__new__(cls)
        tree.__dict__.update(root=root, _table=table)
        return tree


@dataclass(frozen=True)
class Policy:
    """Deterministic choice of a child label at every reachable decision node."""

    choice: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choice", dict(self.choice))


class _Level(NamedTuple):
    """Inner rows of one kind and depth; their children are the segments of ``children``.

    ``starts`` holds the segment offsets, ``segment`` each child's row's
    index in the level.  ``laid`` reads the children's rows in the
    prospect kernel's layout: a zero column, at ``heads``, ahead of each
    segment, which reads the segment's first child; ``spread`` holds each
    column's segment (None for one segment).  ``weights`` holds the
    probabilities by column, 0 in the zero columns, at chance levels only.
    """

    rows: np.ndarray
    children: np.ndarray
    starts: np.ndarray
    segment: np.ndarray
    weights: Optional[np.ndarray]
    laid: np.ndarray
    heads: np.ndarray
    spread: Optional[np.ndarray]


class _Plan(NamedTuple):
    """A subtree's ids in post-order, their rows, payoffs (NaN at inner rows) and levels."""

    ids: List[str]
    rows: Dict[str, int]
    payoffs: np.ndarray
    levels: List[_Level]
    noisy: bool  # some probability is below the kernel's _TINY_PEAK_WEIGHT


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
    kinds = np.fromiter(map(table.kinds.__getitem__, ids), np.int8, n)
    counts = np.fromiter(map(len, segments), np.intp, n)
    bounds = np.concatenate(([0], counts.cumsum()))
    local = np.fromiter(map(rows.__getitem__, map(itemgetter(1), entries)), np.intp, m)
    tags = list(map(itemgetter(0), entries))
    under_chance = (kinds == _CHANCE).repeat(counts)
    weights = np.where(under_chance, np.array(tags, dtype=object), 1.0).astype(float)  # 1: decision levels never read it
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
    rel_node = np.arange(len(key)) - lead
    rel_segment = rel_node.repeat(size)
    children, weights = local[take], weights[take]
    # The kernel's layouts of all levels side by side: each node's first
    # child read twice, the first time into its zero column.
    twice = np.ones(m, np.intp)
    twice[offset] = 2
    laid, padded = children.repeat(twice), weights.repeat(twice)
    padded[offset + np.arange(len(key))] = 0.0
    heads = rel_starts + rel_node
    spread = rel_node.repeat(size + 1)
    n0s, k0s = begins.tolist(), offset[begins].tolist()
    levels = [
        _Level(
            node_rows[n0:n1], children[k0:k1], rel_starts[n0:n1], rel_segment[k0:k1],
            padded[k0 + n0 : k1 + n1] if chance else None, laid[k0 + n0 : k1 + n1], heads[n0:n1],
            spread[k0 + n0 : k1 + n1] if n1 - n0 > 1 else None,
        )
        for n0, n1, k0, k1, chance in zip(n0s, n0s[1:] + [len(key)], k0s, k0s[1:] + [m], chance_of[begins].tolist())
    ]
    payoffs = np.fromiter(map(table.payoffs.get, ids, repeat(math.nan)), float, n)
    return _Plan(ids, rows, payoffs, levels, bool(weights.min(initial=1.0) < _TINY_PEAK_WEIGHT))


def _chance_values(
    values: np.ndarray, level: _Level, t: np.ndarray, mean: np.ndarray, noisy: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """A chance level's values at every t = -rho, and overflow flags (None when there are none).

    At the places ``mean`` of t, where rho is 0, a value is the expected
    value; elsewhere it is the certain equivalent from the prospect
    kernel's block reducer, given no peak weights: a max pass fills each
    segment's zero column with its peak exponent, and every element equal
    to it is masked.  A flag marks a node whose exponent t*ce or certain
    equivalent is not finite, the cases where the kernel raises.
    """
    block = values[level.laid].T
    exponents = block * t[:, None]
    lowest = float(exponents.min())
    ces = _lse_block(exponents, None, None, level.weights, level.weights, level.heads, level.spread, noisy)
    ces /= t
    if mean.size:
        terms = block[mean] * level.weights
        terms[:, level.heads] = 0.0
        ces[:, mean] = np.add.reduceat(terms, level.heads, axis=1).T
    if math.isfinite(lowest) and np.isfinite(ces).all():
        return ces, None
    flags = ~np.isfinite(ces) | np.logical_or.reduceat(~np.isfinite(values[level.children] * t), level.starts)
    flags[:, mean] = False
    ces[flags] = np.nan
    return (ces, flags) if flags.any() else (ces, None)


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
    values = plan.payoffs[:, None].repeat(len(rho), axis=1)
    low = plan.payoffs.copy()
    overflow: Optional[np.ndarray] = None
    picked = np.full(len(plan.ids), -1) if choose else None
    mean = (rho == 0.0).nonzero()[0]
    with np.errstate(all="ignore"):
        for level in plan.levels:
            if level.weights is None:
                block = values[level.children]
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
                best, flags = _chance_values(values, level, t, mean, plan.noisy)
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
    if node_id not in tree._table.kinds:
        raise ValueError(f"unknown node id {node_id!r}")
    grid = _check_k_grid(ks)
    rho = np.array([k * r for k in grid])
    values, _, tail = _evaluate(_compile(tree._table, node_id), rho, worst=True)
    return FlexibilityCurve(node_id, r, grid, tuple(values.tolist()), tail)


def _policy_count(table: _Table) -> int:
    """Number of policies; a chance node stops multiplying once past the cap."""
    count: Dict[str, int] = {}
    for nid in table.order:
        kind = table.kinds[nid]
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
        kind = table.kinds[nid]
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
        kind = table.kinds[nid]
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
