"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flexcurve import (
    Affine,
    ChanceNode,
    DecisionNode,
    DecisionTree,
    Gaussian,
    IndependentSum,
    TerminalNode,
    make_discrete,
    money_of_utility,
    utility_of_money,
)
from flexcurve.prospects import _TINY_PEAK_WEIGHT, _lse_block


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_discrete(rng, n_max=5, span=50):
    """Discrete prospect on an integer grid with coarse rational masses.

    Coarse masses keep mass gaps well above float noise, which the tail
    certificate checks rely on.
    """
    n = int(rng.integers(2, n_max + 1))
    values = rng.choice(np.arange(-span, span + 1), size=n, replace=False)
    weights = rng.integers(1, 20, size=n).astype(float)
    weights /= weights.sum()
    return make_discrete([(float(v), float(w)) for v, w in zip(values, weights)])


def expected_utility_ce(prospect, r):
    """Independent certain-equivalent oracle: expected utility, inverted.

    Works on explicit discrete prospects only, through the normalized
    exponential utility pair rather than the log-MGF route.
    """
    eu = math.fsum(
        m * utility_of_money(v, r) for v, m in zip(prospect.values, prospect.masses)
    )
    return money_of_utility(eu, r)


def mp_certain_equivalent(prospect, rho):
    """CE(X|rho) in mpmath at its working precision, from the prospect's float data.

    Discrete, Gaussian, Affine and IndependentSum prospects; the caller
    imports mpmath (``pytest.importorskip``) and sets the precision.
    """
    import mpmath as mp

    if isinstance(prospect, Gaussian):
        return mp.mpf(prospect.mean) - mp.mpf(prospect.variance) * rho / 2
    if isinstance(prospect, Affine):
        s = mp.mpf(prospect.scale)
        return s * mp_certain_equivalent(prospect.base, s * rho) + mp.mpf(prospect.offset)
    if isinstance(prospect, IndependentSum):
        return mp.fsum(mp_certain_equivalent(term, rho) for term in prospect.terms)
    total = mp.fsum(mp.mpf(m) * mp.exp(-rho * mp.mpf(v)) for v, m in zip(prospect.values, prospect.masses))
    return -mp.log(total) / rho


def flat_terms(prospect):
    """The prospect as (leaves, offset): X = sum of scale * leaf over leaves, plus offset.

    Each leaf is a Discrete or a Gaussian paired with its composed scale.
    Iterative, so it also serves chains deeper than the recursion limit.
    """
    leaves, offset = [], 0.0
    stack = [(prospect, 1.0)]
    while stack:
        node, k = stack.pop()
        if isinstance(node, Affine):
            offset += k * node.offset
            stack.append((node.base, k * node.scale))
        elif isinstance(node, IndependentSum):
            stack.extend((term, k) for term in node.terms)
        else:
            leaves.append((node, k))
    return leaves, offset


def oracle_ce(prospect, rho):
    """CE(X|rho) as the sum of its leaves' CEs, each through the utility pair or the Gaussian line."""
    leaves, offset = flat_terms(prospect)
    parts = [offset]
    for leaf, k in leaves:
        if isinstance(leaf, Gaussian):
            parts.append(k * (leaf.mean - leaf.variance * k * rho / 2))
        else:
            parts.append(k * expected_utility_ce(leaf, k * rho))
    return math.fsum(parts)


def oracle_stats(prospect):
    """(mean, variance, worst case) summed over the leaves."""
    leaves, offset = flat_terms(prospect)
    means, variances, worst = [offset], [], offset
    for leaf, k in leaves:
        if isinstance(leaf, Gaussian):
            mean, variance = leaf.mean, leaf.variance
            low = mean if variance == 0.0 else -math.inf
        else:
            mean = math.fsum(v * m for v, m in zip(leaf.values, leaf.masses))
            variance = math.fsum(m * (v - mean) ** 2 for v, m in zip(leaf.values, leaf.masses))
            low = leaf.values[0]
        means.append(k * mean)
        variances.append(k * k * variance)
        worst += k * low
    return math.fsum(means), math.fsum(variances), worst


def mp_crossing(x, y, r, near, rel=1e-6):
    """The root of CE(X|kr) - CE(Y|kr) within ``rel`` of ``near``, to 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        r = mp.mpf(r)

        def g(k):
            return mp_certain_equivalent(x, k * r) - mp_certain_equivalent(y, k * r)

        bracket = (mp.mpf(near) * (1 - rel), mp.mpf(near) * (1 + rel))
        return float(mp.findroot(g, bracket, solver="anderson"))


def random_tree(rng, depth=4, payoff_span=30.0, branching=(2, 3)):
    """Random decision tree of bounded depth alternating node kinds."""
    nodes = {}
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"n{counter[0]}"

    def build(level):
        nid = fresh()
        if level >= depth or rng.random() < 0.25:
            nodes[nid] = TerminalNode(float(rng.uniform(-payoff_span, payoff_span)))
            return nid
        width = int(rng.integers(branching[0], branching[1] + 1))
        children = [build(level + 1) for _ in range(width)]
        if rng.random() < 0.5:
            nodes[nid] = DecisionNode(tuple((f"opt{i}", c) for i, c in enumerate(children)))
        else:
            raw = rng.uniform(0.1, 1.0, size=width)
            probs = raw / raw.sum()
            nodes[nid] = ChanceNode(tuple((float(p), c) for p, c in zip(probs, children)))
        return nid

    root = build(0)
    return DecisionTree(nodes, root)


def utility_rollback(tree, r):
    """Rollback oracle in utility space: expected utility up the tree, then invert.

    Iterative, so it also serves trees deeper than the recursion limit.
    """
    utility = {}
    stack = [(tree.root, False)]
    while stack:
        nid, expanded = stack.pop()
        node = tree.nodes[nid]
        if isinstance(node, TerminalNode):
            utility[nid] = utility_of_money(node.payoff, r)
        elif not expanded:
            stack.append((nid, True))
            stack.extend((cid, False) for _, cid in node.children)
        elif isinstance(node, ChanceNode):
            utility[nid] = math.fsum(p * utility[cid] for p, cid in node.children)
        else:
            utility[nid] = max(utility[cid] for _, cid in node.children)
    return money_of_utility(utility[tree.root], r)


def tree_pass_lse(ts, values, weights):
    """ln sum_j weights[j] exp(ts[i] * values[j]) for every i, by the tree pass's call of the kernel's block reducer.

    The values may be unsorted or repeated, as a chance node's child values
    are: the call is that of ``trees._chance_values`` on one chance node, a
    zero column reading the first value with weight 0, then every value,
    with no peak weights, so a max pass finds the peak.  Raises
    OverflowError when an exponent t*value or a result is not finite.
    """
    ts, values, weights = (np.asarray(a, dtype=float) for a in (ts, values, weights))
    padded = np.concatenate(([0.0], weights))
    with np.errstate(all="ignore"):
        exponents = np.multiply.outer(ts, np.concatenate((values[:1], values)))
        if not np.isfinite(exponents).all():
            raise OverflowError("exponent t*value out of floating-point range")
        noisy = bool(weights.min() < _TINY_PEAK_WEIGHT)
        out = _lse_block(exponents, None, None, padded, padded, np.zeros(1, np.intp), None, noisy)[0]
    if not np.isfinite(out).all():
        raise OverflowError("result out of floating-point range")
    return out
