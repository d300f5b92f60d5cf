import math

import numpy as np
import pytest

from flexcurve import (
    ChanceNode,
    DecisionNode,
    DecisionTree,
    Policy,
    TerminalNode,
    certain_equivalent,
    enumerate_policies,
    node_curve,
    policy_prospect,
    rollback,
)

from conftest import random_tree, utility_rollback


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


class TestNodeCurve:
    def test_terminal_is_constant(self):
        curve = node_curve(simple_tree(), "t", 0.01, (1.0, 10.0, 100.0))
        assert curve.ces == (10.0, 10.0, 10.0)
        assert curve.tail_limit == 10.0

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
