import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexcurve import (
    ChanceNode,
    DecisionNode,
    DecisionTree,
    Discrete,
    Policy,
    TerminalNode,
    certain_equivalent,
    enumerate_policies,
    node_curve,
    policy_prospect,
    rollback,
)

from flexcurve import trees

from conftest import random_tree, tree_pass_lse, utility_rollback


def simple_tree():
    return DecisionTree(
        {
            "root": DecisionNode((("sure", "t"), ("risk", "c"))),
            "t": TerminalNode(10.0),
            "c": ChanceNode(((0.5, "lo"), (0.5, "hi"))),
            "lo": TerminalNode(0.0),
            "hi": TerminalNode(100.0),
        },
        "root",
    )


class TestTreeValidation:
    def test_rejects_unknown_child(self):
        with pytest.raises(ValueError, match="unknown child"):
            DecisionTree({"root": DecisionNode((("a", "gone"),))}, "root")

    def test_rejects_shared_child(self):
        with pytest.raises(ValueError, match="parents"):
            DecisionTree(
                {
                    "root": DecisionNode((("a", "t"), ("b", "t"))),
                    "t": TerminalNode(0.0),
                },
                "root",
            )

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="sum"):
            DecisionTree(
                {
                    "root": ChanceNode(((0.5, "a"), (0.4, "b"))),
                    "a": TerminalNode(0.0),
                    "b": TerminalNode(1.0),
                },
                "root",
            )

    def test_rejects_detached_cycle(self):
        with pytest.raises(ValueError):
            DecisionTree(
                {
                    "root": TerminalNode(0.0),
                    "a": DecisionNode((("x", "b"),)),
                    "b": DecisionNode((("x", "a"),)),
                },
                "root",
            )


    def test_unreachable_non_node_is_type_error(self):
        with pytest.raises(TypeError, match="not a tree node: 3"):
            DecisionTree({"root": TerminalNode(0.0), "junk": 3}, "root")

    def test_several_faults_report_the_first_in_map_order(self):
        # Contents come before parent counts and reachability, whatever the
        # walk from the root meets first.
        shared = {"root": DecisionNode((("a", "t"), ("b", "t"))), "t": TerminalNode(0.0)}
        with pytest.raises(ValueError, match=r"chance node 'c' sum to 0\.5"):
            DecisionTree({**shared, "c": ChanceNode(((0.5, "t"),))}, "root")
        with pytest.raises(ValueError, match="nonpositive probability at chance node 'x'"):
            DecisionTree({"x": ChanceNode(((0.0, "y"),)), "y": TerminalNode(1.0), **shared}, "root")
        with pytest.raises(ValueError, match="node 't' has 2 parents"):
            DecisionTree({**shared, "loose": TerminalNode(1.0)}, "root")


class TestRollback:
    def test_risky_branch_chosen(self):
        ce, policy = rollback(simple_tree(), 0.01)
        assert policy.choice == {"root": "risk"}
        assert ce == pytest.approx(37.9885493, abs=1e-4)

    def test_all_terminal_decision_is_max(self):
        tree = DecisionTree(
            {
                "root": DecisionNode((("a", "x"), ("b", "y"), ("c", "z"))),
                "x": TerminalNode(3.0),
                "y": TerminalNode(7.0),
                "z": TerminalNode(5.0),
            },
            "root",
        )
        for rho in (0.0, 0.3, 5.0):
            ce, policy = rollback(tree, rho)
            assert ce == 7.0
            assert policy.choice == {"root": "b"}

    def test_degenerate_chance_node(self):
        tree = DecisionTree(
            {"root": ChanceNode(((1.0, "t"),)), "t": TerminalNode(4.0)}, "root"
        )
        assert rollback(tree, 0.7)[0] == pytest.approx(4.0, abs=1e-12)

    def test_chance_node_overflow_names_node(self):
        tree = DecisionTree(
            {
                "root": ChanceNode(((0.5, "lo"), (0.5, "hi"))),
                "lo": TerminalNode(-1e308),
                "hi": TerminalNode(0.0),
            },
            "root",
        )
        with pytest.raises(OverflowError, match="chance node 'root'"):
            rollback(tree, 10.0)

    def test_ties_break_lexicographically(self):
        tree = DecisionTree(
            {
                "root": DecisionNode((("zeta", "a"), ("alpha", "b"))),
                "a": TerminalNode(5.0),
                "b": TerminalNode(5.0),
            },
            "root",
        )
        assert rollback(tree, 0.1)[1].choice == {"root": "alpha"}

    def test_matches_utility_space_oracle(self, rng):
        for _ in range(100):
            tree = random_tree(rng)
            r = float(rng.choice([0.05, 0.2, 0.8]))
            ce, _ = rollback(tree, r)
            # the oracle inverts near-supremum utilities, which costs a few
            # digits at the larger r values
            assert ce == pytest.approx(utility_rollback(tree, r), abs=1e-5)

    def test_matches_policy_enumeration(self, rng):
        for _ in range(40):
            tree = random_tree(rng, depth=3)
            policies = enumerate_policies(tree)
            r = 0.1
            best = max(
                certain_equivalent(policy_prospect(tree, p), r) for p in policies
            )
            assert rollback(tree, r)[0] == pytest.approx(best, abs=1e-9)

    def test_delta_property_of_rollback(self, rng):
        for _ in range(20):
            tree = random_tree(rng, depth=3)
            c = float(rng.uniform(-25, 25))
            shifted_nodes = {
                nid: TerminalNode(n.payoff + c) if isinstance(n, TerminalNode) else n
                for nid, n in tree.nodes.items()
            }
            shifted = DecisionTree(shifted_nodes, tree.root)
            assert rollback(shifted, 0.2)[0] == pytest.approx(
                rollback(tree, 0.2)[0] + c, abs=1e-9
            )


class TestChanceNodeIsItsProspect:
    """A chance node over terminals and the Discrete over the same payoffs run one kernel: the same CE bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        payoffs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12, unique=True),
        rs=st.lists(st.floats(1e-4, 5.0), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_rollback_is_the_certain_equivalent(self, payoffs, rs, data):
        values = sorted(payoffs)
        weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(values), max_size=len(values)))
        total = math.fsum(weights)
        probs = tuple(w / total for w in weights)
        assume(abs(math.fsum(probs) - 1.0) <= 1e-12)
        nodes = {"c": ChanceNode(tuple((p, f"t{i}") for i, p in enumerate(probs)))}
        nodes.update((f"t{i}", TerminalNode(v)) for i, v in enumerate(values))
        tree = DecisionTree(nodes, "c")
        prospect = Discrete(tuple(values), probs)
        for r in rs + [1e-3, 0.1, 1.0]:
            assert rollback(tree, r)[0] == certain_equivalent(prospect, r)


class TestNodeCurve:
    def test_terminal_is_constant(self):
        curve = node_curve(simple_tree(), "t", 0.01, (1.0, 10.0, 100.0))
        assert curve.ces == (10.0, 10.0, 10.0)
        assert curve.tail_limit == 10.0

    def test_curve_of_large_payoffs_allows_their_rounding(self):
        # Neighbouring CEs rise by up to an ulp of 1e12 (1.2e-4): within the curve check's relative slack.
        tree = DecisionTree({"c": ChanceNode(((0.3, "lo"), (0.7, "hi"))), "lo": TerminalNode(1e12), "hi": TerminalNode(1e12 + 5)}, "c")
        curve = node_curve(tree, "c", 0.1, tuple(np.geomspace(1, 1000, 4000)))
        assert all(1e12 <= ce <= 1e12 + 5 for ce in curve.ces)
        assert any(b > a for a, b in zip(curve.ces, curve.ces[1:]))

    def test_decision_curve_is_pointwise_max_of_children(self, rng):
        ks = tuple(np.geomspace(1, 100, 16))
        for _ in range(20):
            tree = random_tree(rng, depth=3)
            decision_ids = [
                nid for nid, n in tree.nodes.items() if isinstance(n, DecisionNode)
            ]
            if not decision_ids:
                continue
            nid = decision_ids[0]
            parent = node_curve(tree, nid, 0.05, ks)
            children = [
                node_curve(tree, cid, 0.05, ks) for _, cid in tree.nodes[nid].children
            ]
            for i in range(len(ks)):
                best = max(c.ces[i] for c in children)
                assert parent.ces[i] == pytest.approx(best, abs=1e-9)

    def test_choose_now_or_later_dominance_chain(self):
        # A chooses between deciding now (B) and waiting for free (E); both
        # see the same pair of commitments, so A's curve tops every other.
        def leaf(tag, lo, hi):
            return {
                f"{tag}": ChanceNode(((0.5, f"{tag}lo"), (0.5, f"{tag}hi"))),
                f"{tag}lo": TerminalNode(lo),
                f"{tag}hi": TerminalNode(hi),
            }

        nodes = {
            "A": DecisionNode((("now", "B"), ("later", "E"))),
            "B": DecisionNode((("one", "C"), ("two", "D"))),
            "E": DecisionNode((("one", "C2"), ("two", "D2"))),
        }
        nodes.update(leaf("C", 0.0, 100.0))
        nodes.update(leaf("D", 20.0, 40.0))
        nodes.update(leaf("C2", 0.0, 100.0))
        nodes.update(leaf("D2", 20.0, 40.0))
        tree = DecisionTree(nodes, "A")
        ks = tuple(np.geomspace(1, 100, 24))
        curves = {nid: node_curve(tree, nid, 0.01, ks) for nid in "ABCDE"}
        for i in range(len(ks)):
            top = curves["A"].ces[i]
            for other in "BCDE":
                assert top >= curves[other].ces[i] - 1e-9

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            node_curve(simple_tree(), "nope", 0.1, (1.0,))

    def test_added_alternative_never_hurts(self, rng):
        ks = tuple(np.geomspace(1, 50, 12))
        for _ in range(10):
            tree = random_tree(rng, depth=3)
            decision_ids = [
                nid for nid, n in tree.nodes.items() if isinstance(n, DecisionNode)
            ]
            if not decision_ids:
                continue
            target = decision_ids[int(rng.integers(len(decision_ids)))]
            before = node_curve(tree, tree.root, 0.05, ks)
            nodes = dict(tree.nodes)
            nodes["extra_leaf"] = TerminalNode(float(rng.uniform(-30, 30)))
            nodes[target] = DecisionNode(
                tree.nodes[target].children + (("zz_extra", "extra_leaf"),)
            )
            after = node_curve(DecisionTree(nodes, tree.root), tree.root, 0.05, ks)
            for a, b in zip(before.ces, after.ces):
                assert b >= a - 1e-9


class TestPolicies:
    def test_three_terminal_children(self):
        tree = DecisionTree(
            {
                "root": DecisionNode((("a", "x"), ("b", "y"), ("c", "z"))),
                "x": TerminalNode(1.0),
                "y": TerminalNode(2.0),
                "z": TerminalNode(3.0),
            },
            "root",
        )
        policies = enumerate_policies(tree)
        assert [p.choice for p in policies] == [
            {"root": "a"},
            {"root": "b"},
            {"root": "c"},
        ]

    def test_tree_without_decisions_has_one_empty_policy(self):
        tree = DecisionTree(
            {"root": ChanceNode(((1.0, "t"),)), "t": TerminalNode(0.0)}, "root"
        )
        policies = enumerate_policies(tree)
        assert len(policies) == 1
        assert policies[0].choice == {}

    def test_policy_count_past_the_cap_is_refused(self, monkeypatch):
        # three binary decisions under one chance node: the count stops at 4, past the cap
        nodes = {"root": ChanceNode(tuple((1 / 3, f"d{i}") for i in range(3)))}
        for i in range(3):
            nodes[f"d{i}"] = DecisionNode((("a", f"a{i}"), ("b", f"b{i}")))
            nodes[f"a{i}"], nodes[f"b{i}"] = TerminalNode(0.0), TerminalNode(1.0)
        tree = DecisionTree(nodes, "root")
        assert len(enumerate_policies(tree)) == 8
        monkeypatch.setattr(trees, "POLICY_COUNT_CAP", 2)
        with pytest.raises(ValueError, match=r"^policy count 4 exceeds cap 2$"):
            enumerate_policies(tree)

    def test_direct_terminal_policy_prospect(self):
        tree = simple_tree()
        assert policy_prospect(tree, Policy({"root": "sure"})).values == (10.0,)

    def test_chance_policy_prospect(self):
        tree = simple_tree()
        prospect = policy_prospect(tree, Policy({"root": "risk"}))
        assert prospect.values == (0.0, 100.0)
        assert prospect.masses == (0.5, 0.5)

    def test_two_stage_chance_merges_payoffs(self):
        tree = DecisionTree(
            {
                "root": ChanceNode(((0.5, "a"), (0.5, "b"))),
                "a": ChanceNode(((0.5, "a0"), (0.5, "a1"))),
                "b": ChanceNode(((0.5, "b0"), (0.5, "b1"))),
                "a0": TerminalNode(0.0),
                "a1": TerminalNode(10.0),
                "b0": TerminalNode(10.0),
                "b1": TerminalNode(20.0),
            },
            "root",
        )
        prospect = policy_prospect(tree, Policy({}))
        assert prospect.values == (0.0, 10.0, 20.0)
        assert prospect.masses == (0.25, 0.5, 0.25)

    def test_incomplete_policy_rejected(self):
        with pytest.raises(ValueError, match="missing a choice"):
            policy_prospect(simple_tree(), Policy({}))


def deep_chain(depth, seed=3, leave=(0.01, 0.1)):
    """Chance chain of the given depth that ends in a decision between two leaves.

    Each link leaves the chain with a probability drawn from ``leave``.  At
    0.01-0.1 the mass that reaches the end stays above the smallest normal
    float at depth 5,000; at 0.05-0.3 the leaves' masses underflow to 0
    long before.
    """
    rng = np.random.default_rng(seed)
    nodes = {}
    for i in range(depth):
        p = float(rng.uniform(*leave))
        nxt = f"c{i + 1}" if i + 1 < depth else "end"
        nodes[f"c{i}"] = ChanceNode(((p, f"t{i}"), (1.0 - p, nxt)))
        nodes[f"t{i}"] = TerminalNode(float(rng.uniform(0, 100)))
    nodes["end"] = DecisionNode((("stop", "e0"), ("go", "e1")))
    nodes["e0"] = TerminalNode(30.0)
    nodes["e1"] = ChanceNode(((0.5, "e10"), (0.5, "e11")))
    nodes["e10"] = TerminalNode(0.0)
    nodes["e11"] = TerminalNode(95.0)
    return DecisionTree(nodes, "c0")


class TestDeepTrees:
    """Depth is bounded by memory, not by the recursion limit."""

    DEPTH = 5_000

    def test_chain_past_recursion_limit(self):
        assert self.DEPTH > sys.getrecursionlimit()
        tree = deep_chain(self.DEPTH)
        r = 0.01
        ce, policy = rollback(tree, r)
        assert ce == pytest.approx(utility_rollback(tree, r), rel=1e-9)
        assert policy.choice == {"end": "go"}
        ks = (1.0, 2.0, 4.0)
        curve = node_curve(tree, "c0", r, ks)
        assert curve.ces[0] == ce
        for k, value in zip(ks, curve.ces):
            assert value == pytest.approx(utility_rollback(tree, k * r), rel=1e-9)
        policies = enumerate_policies(tree)
        assert [p.choice for p in policies] == [{"end": "go"}, {"end": "stop"}]
        best = certain_equivalent(policy_prospect(tree, policies[0]), r)
        assert best == pytest.approx(ce, rel=1e-9)

    def test_paths_whose_mass_underflows_are_left_out(self):
        tree = deep_chain(self.DEPTH, seed=5, leave=(0.05, 0.3))
        r = 0.01
        ce, policy = rollback(tree, r)
        prospect = policy_prospect(tree, policy)
        # past about 3,800 links, a leaf's mass underflows to 0
        assert len(prospect.values) < self.DEPTH
        assert certain_equivalent(prospect, r) == pytest.approx(ce, rel=1e-9)


def scalar_rollback(tree, node_id, rho):
    """Per-rho reference: the tree pass's kernel call on one node at every chance node.

    Children are visited in the order of recursive backward induction
    (label-sorted at decisions); returns the CE, the label chosen at every
    decision node, and raises OverflowError at the first overflowing chance
    node in that post-order.
    """
    values, choices = {}, {}
    stack = [(node_id, False)]
    while stack:
        nid, expanded = stack.pop()
        node = tree.nodes[nid]
        if isinstance(node, TerminalNode):
            values[nid] = node.payoff
            continue
        pairs = node.children if isinstance(node, ChanceNode) else sorted(node.children)
        if not expanded:
            stack.append((nid, True))
            stack.extend((cid, False) for _, cid in reversed(pairs))
        elif isinstance(node, ChanceNode):
            ces = np.array([values[cid] for _, cid in pairs])
            probs = np.array([p for p, _ in pairs])
            try:
                lse = tree_pass_lse(np.array([-rho]), ces, probs)
            except OverflowError:
                raise OverflowError(f"rollback overflow at chance node {nid!r}") from None
            values[nid] = float(-lse[0] / rho)
        else:
            best = None
            for label, cid in pairs:
                if best is None or values[cid] > values[best[1]]:
                    best = (label, cid)
            choices[nid] = best[0]
            values[nid] = values[best[1]]
    return values[node_id], choices


@st.composite
def hypothesis_trees(draw, max_nodes=60):
    """Random trees with up to 9 children a node, shuffled labels and tied payoffs."""
    payoffs = st.one_of(st.floats(-100, 100), st.sampled_from([-3.0, 0.0, 2.5, 7.0]))
    nodes = {}

    def build(depth):
        nid = f"n{len(nodes)}"
        nodes[nid] = None
        inner = depth < 6 and len(nodes) < max_nodes
        kind = draw(st.sampled_from(["terminal", "decision", "chance"])) if inner else "terminal"
        if kind == "terminal":
            nodes[nid] = TerminalNode(draw(payoffs))
            return nid
        width = draw(st.integers(1, 9))
        kids = [build(depth + 1) for _ in range(width)]
        if kind == "decision":
            labels = draw(st.permutations([f"x{i}" for i in range(width)]))
            nodes[nid] = DecisionNode(tuple(zip(labels, kids)))
        else:
            weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=width, max_size=width)))
            probs = (weights / weights.sum()).tolist()
            nodes[nid] = ChanceNode(tuple(zip(probs, kids)))
        return nid

    root = build(0)
    return DecisionTree(nodes, root)


class TestBatchedRollback:
    @settings(max_examples=60, deadline=None)
    @given(tree=hypothesis_trees(), r=st.floats(1e-4, 3.0))
    def test_matches_scalar_reference(self, tree, r):
        ce, policy = rollback(tree, r)
        want, choices = scalar_rollback(tree, tree.root, r)
        assert ce == pytest.approx(want, rel=1e-12, abs=1e-12)
        reachable, stack = {}, [tree.root]
        while stack:
            nid = stack.pop()
            node = tree.nodes[nid]
            if isinstance(node, DecisionNode):
                reachable[nid] = choices[nid]
                stack.extend(cid for label, cid in node.children if label == choices[nid])
            elif isinstance(node, ChanceNode):
                stack.extend(cid for _, cid in node.children)
        assert policy.choice == reachable
        ks = (1.0, 1.7, 4.0, 11.0)
        for nid in list(tree.nodes)[:6]:
            curve = node_curve(tree, nid, r, ks)
            for k, value in zip(ks, curve.ces):
                assert value == pytest.approx(scalar_rollback(tree, nid, k * r)[0], rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(tree=hypothesis_trees())
    def test_risk_neutral_is_expected_value(self, tree):
        # At r = 0 the utility oracle is the identity: an fsum expected value.
        assert rollback(tree, 0.0)[0] == pytest.approx(utility_rollback(tree, 0.0), rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(tree=hypothesis_trees(), r=st.floats(1e-4, 3.0))
    def test_every_column_holds_a_rollback(self, tree, r):
        # One pass gives every row's values at every rho; each column reads
        # the rollback at its rho, plan included.
        rhos = [0.0, r, 4.0 * r]
        plan = trees._compile(tree._table, tree.root)
        values = trees._evaluate(plan, np.array(rhos))
        assert values.shape == (len(plan.ids), len(rhos))
        for column, rho in zip(values.T.tolist(), rhos):
            ce, policy = rollback(tree, rho)
            assert column[-1] == ce
            assert trees._reachable_choices(tree._table, plan.rows, column) == policy.choice

    def test_tie_goes_to_smallest_label_at_every_k(self):
        leaf = lambda tag: {  # noqa: E731
            tag: ChanceNode(((0.25, f"{tag}0"), (0.5, f"{tag}1"), (0.25, f"{tag}2"))),
            f"{tag}0": TerminalNode(-10.0),
            f"{tag}1": TerminalNode(5.0),
            f"{tag}2": TerminalNode(60.0),
        }
        nodes = {"root": DecisionNode((("zeta", "z"), ("beta", "b"), ("mid", "m")))}
        nodes.update(leaf("z"))
        nodes.update(leaf("b"))
        nodes["m"] = TerminalNode(-50.0)
        tree = DecisionTree(nodes, "root")
        for r in (0.0, 0.01, 0.5, 4.0):
            assert rollback(tree, r)[1].choice == {"root": "beta"}

    def test_overflow_names_first_node_in_post_order(self):
        # "a" (height 2) comes before "b" (height 1) in post-order, though
        # the level pass reaches "b" first.
        tree = DecisionTree(
            {
                "root": DecisionNode((("q", "b"), ("p", "a"))),
                "a": ChanceNode(((0.5, "ad"), (0.5, "a0"))),
                "ad": DecisionNode((("only", "abig"),)),
                "abig": TerminalNode(-1e306),
                "a0": TerminalNode(0.0),
                "b": ChanceNode(((0.5, "bbig"), (0.5, "b0"))),
                "bbig": TerminalNode(-1e307),
                "b0": TerminalNode(0.0),
            },
            "root",
        )
        with pytest.raises(OverflowError, match="chance node 'a'"):
            scalar_rollback(tree, "root", 300.0)
        with pytest.raises(OverflowError, match="chance node 'a'"):
            rollback(tree, 300.0)
        # At k = 10 only "b" overflows, and the first overflowing k decides.
        with pytest.raises(OverflowError, match="chance node 'b'"):
            node_curve(tree, "root", 2.0, (1.0, 10.0, 100.0))
        with pytest.raises(OverflowError, match="chance node 'a'"):
            node_curve(tree, "root", 2.0, (1.0, 100.0))

    def test_an_exponent_below_the_float_range_overflows_as_the_prospect_does(self):
        # At rho = 300 the exponent of 1e306 is -inf, whose exp adds 0: the CE
        # would be finite, but the prospect over the same children raises, and
        # so does the chance node, in rollback and at that k of a curve.
        tree = DecisionTree({"c": ChanceNode(((0.5, "a"), (0.5, "b"))), "a": TerminalNode(0.0), "b": TerminalNode(1e306)}, "c")
        with pytest.raises(OverflowError, match="reaches inf"):
            certain_equivalent(Discrete((0.0, 1e306), (0.5, 0.5)), 300.0)
        with pytest.raises(OverflowError, match="chance node 'c'"):
            rollback(tree, 300.0)
        with pytest.raises(OverflowError, match="chance node 'c'"):
            node_curve(tree, "c", 3.0, (1.0, 100.0))
        assert node_curve(tree, "c", 3.0, (1.0,)).ces[0] == certain_equivalent(Discrete((0.0, 1e306), (0.5, 0.5)), 3.0)

    def test_large_finite_values_do_not_overflow(self):
        # No node overflows, though the CEs of a level, summed over every
        # node and k, pass the float range: nine of 5e307 in one curve, two
        # sibling chance nodes of 1e308 in one rollback.
        def pair(tag, payoff):
            return {
                tag: ChanceNode(((0.5, f"{tag}0"), (0.5, f"{tag}1"))),
                f"{tag}0": TerminalNode(payoff),
                f"{tag}1": TerminalNode(payoff),
            }

        ks = tuple(float(k) for k in range(1, 10))
        tree = DecisionTree(pair("c", 5e307), "c")
        curve = node_curve(tree, "c", 0.1, ks)
        for k, value in zip(ks, curve.ces):
            assert value == pytest.approx(scalar_rollback(tree, "c", k * 0.1)[0], rel=1e-12)
        tree = DecisionTree({"root": DecisionNode((("a", "c"), ("b", "d"))), **pair("c", 1e308), **pair("d", 1e308)}, "root")
        ce, policy = rollback(tree, 0.5)
        want, choices = scalar_rollback(tree, "root", 0.5)
        assert ce == pytest.approx(want, rel=1e-12)
        assert policy.choice == choices

    @pytest.mark.parametrize("r", [0.001, 1.0])
    def test_a_tiny_probability_gives_one_ce_on_every_path(self, r):
        # The sum over the peak weight 1e-310 overflows; rollback, curves
        # and the policy's prospect all take the kernel's fallback for it.
        tree = DecisionTree(
            {"c": ChanceNode(((1e-310, "a"), (1.0, "b"))), "a": TerminalNode(0.0), "b": TerminalNode(1.0)}, "c"
        )
        ce, _ = rollback(tree, r)
        (curve,) = node_curve(tree, "c", r, (1.0,)).ces
        (policy,) = enumerate_policies(tree)
        want = certain_equivalent(policy_prospect(tree, policy), r)
        assert ce == pytest.approx(want, abs=1e-12)
        assert curve == pytest.approx(want, abs=1e-12)
