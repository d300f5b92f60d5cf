"""One builder for trees: model files and node objects give the same tree.

The differential tests draw valid trees, build each both through
``parse_model`` on a JSON document and through ``DecisionTree`` on node
objects, and require the same post-order, rollback bits, policy, policies
output and curve columns.  The fault tests pin which message a document
with several faults reports.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexcurve import (
    ChanceNode,
    DecisionNode,
    DecisionTree,
    ModelError,
    TerminalNode,
    enumerate_policies,
    node_curve,
    parse_model,
    policy_prospect,
    rollback,
)
from flexcurve.cli import main
from flexcurve.model_io import emit_model
from flexcurve.scenarios import AdaptiveSpec, Commitment, adaptive_template

from test_model_io import FULL_MODEL

from test_trees import hypothesis_trees


def _tree_json(tree):
    """The node map of a tree as a model file's ``tree`` block."""
    nodes = {}
    for nid, node in tree.nodes.items():
        if isinstance(node, TerminalNode):
            nodes[nid] = {"kind": "terminal", "payoff": node.payoff}
        else:
            kind = "decision" if isinstance(node, DecisionNode) else "chance"
            nodes[nid] = {"kind": kind, "children": [list(pair) for pair in node.children]}
    return {"root": tree.root, "nodes": nodes}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_same_tree(tree, r, tmp_path):
    text = json.dumps({"tree": _tree_json(tree), "defaults": {"r": r, "k": "1:6:4"}})
    parsed = parse_model(text).tree
    assert parsed._table.order == tree._table.order
    ce, policy = rollback(tree, r)
    assert rollback(parsed, r) == (ce, policy)
    ks = (1.0, 2.5, 6.0)
    for nid in tree._table.order[:: max(1, len(tree.nodes) // 5)]:
        assert node_curve(parsed, nid, r, ks) == node_curve(tree, nid, r, ks)
    policies = enumerate_policies(tree)
    assert enumerate_policies(parsed) == policies
    assert [policy_prospect(parsed, p) for p in policies] == [policy_prospect(tree, p) for p in policies]
    # Everything above read the parsed tree's table only; its node objects
    # are built here, on first use.
    assert "nodes" not in vars(parsed)
    assert parsed == tree
    path = tmp_path / "model.json"
    path.write_text(text)
    code, out, err = _cli(["policies", "--model", str(path)])
    assert (code, err) == (0, "")
    path.write_text(emit_model(parse_model(text)))
    assert _cli(["policies", "--model", str(path)]) == (0, out, "")


class TestOneBuilder:
    @settings(max_examples=40, deadline=None)
    @given(tree=hypothesis_trees(), r=st.floats(1e-4, 2.0))
    def test_random_trees(self, tree, r, tmp_path_factory):
        _assert_same_tree(tree, r, tmp_path_factory.mktemp("m"))

    @settings(max_examples=10, deadline=None)
    @given(
        costs=st.lists(st.floats(0, 20), min_size=2, max_size=4),
        weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3),
        reactions=st.integers(2, 3),
        seed=st.integers(0, 2**16),
    )
    def test_adaptive_plans(self, costs, weights, reactions, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        acts = tuple(f"a{i}" for i in range(reactions))
        commitments = tuple(
            Commitment(f"c{i}", cost, i % 2 == 0, None if i % 2 == 0 else acts[i % reactions])
            for i, cost in enumerate(costs)
        )
        total = sum(weights)
        observations = [(f"o{j}", w / total) for j, w in enumerate(weights)]
        payoffs = {
            (c.label, o, a): float(rng.uniform(0, 100)) for c in commitments for o, _ in observations for a in acts
        }
        tree = adaptive_template(AdaptiveSpec(commitments, observations, acts, payoffs))
        # The template writes the table directly; node objects give the same tree.
        built = DecisionTree(tree.nodes, tree.root)
        assert built._table.order == tree._table.order
        assert built == tree
        _assert_same_tree(tree, 0.02, tmp_path_factory.mktemp("m"))

    def test_adaptive_plan_that_reuses_a_node_id(self):
        # Observing "a/b" then reacting "c", and observing "a" then reacting
        # "b/c", both end at 'end:x/a/b/c'.  The second write replaces the
        # first, whose payoff overflowed, as a node map's key would: the
        # fault is the shared node, not the overwritten payoff.
        payoffs = {("x", "a/b", "c"): 1e308, ("x", "a/b", "b/c"): 0.0, ("x", "a", "c"): 0.0, ("x", "a", "b/c"): -1e308}
        spec = AdaptiveSpec((Commitment("x", -1e308, True),), [("a/b", 0.5), ("a", 0.5)], ("c", "b/c"), payoffs)
        with pytest.raises(ValueError) as caught:
            adaptive_template(spec)
        assert str(caught.value) == "node 'end:x/a/b/c' has 2 parents, expected exactly 1"

    @settings(max_examples=3, deadline=None)
    @given(depth=st.integers(1_001, 2_500), seed=st.integers(0, 2**16))
    def test_deep_chains(self, depth, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        nodes = {}
        for i in range(depth):
            p = float(rng.uniform(0.01, 0.1))
            nodes[f"c{i}"] = ChanceNode(((p, f"t{i}"), (1.0 - p, f"c{i + 1}" if i + 1 < depth else "end")))
            nodes[f"t{i}"] = TerminalNode(float(rng.uniform(0, 100)))
        nodes["end"] = DecisionNode((("stop", "e0"), ("go", "e1")))
        nodes["e0"] = TerminalNode(30.0)
        nodes["e1"] = TerminalNode(float(rng.uniform(0, 60)))
        _assert_same_tree(DecisionTree(nodes, "c0"), 0.01, tmp_path_factory.mktemp("m"))


def _model(root_id="root", **changes):
    """FULL_MODEL's tree with nodes replaced (None deletes) or added, in map order."""
    raw = json.loads(json.dumps(FULL_MODEL))
    raw["tree"]["root"] = root_id
    nodes = raw["tree"]["nodes"]
    for nid, node in changes.items():
        if node is None:
            del nodes[nid]
        else:
            nodes[nid] = node
    return raw


def _chance(*pairs):
    return {"kind": "chance", "children": [list(p) for p in pairs]}


def _decision(*pairs):
    return {"kind": "decision", "children": [list(p) for p in pairs]}


# Documents with two or more faults and the one message each reports: shape
# faults (the document's structure and numbers) come before content faults
# wherever they are; contents and child references are checked node by
# node in map order, then parent counts, then reachability.
MULTI_FAULTS = [
    (
        "shape_after_content",
        _model(c=_chance((0.5, "lo"), (0.4, "hi")), hi={"kind": "terminal", "payoff": "x"}),
        "tree.nodes.hi.payoff: expected a number",
    ),
    (
        "kind_after_duplicate_labels",
        _model(root=_decision(("sure", "t"), ("sure", "c")), lo={"kind": "leaf"}),
        "tree.nodes.lo.kind: unknown node kind 'leaf'",
    ),
    (
        "pair_after_nonpositive",
        _model(c=_chance((0.0, "lo"), (1.0, "hi")), extra=_decision(("a", "lo"), ("b",))),
        "tree.nodes.extra.children[1]: expected a [label, node-id] pair",
    ),
    (
        "root_unknown_before_contents",
        _model(c=_chance((0.5, "lo"), (0.4, "hi")), root_id="zz"),
        "tree: root node 'zz' not in node map",
    ),
    (
        "first_content_fault_in_map_order",
        _model(root=_decision(("sure", "t"), ("sure", "c")), c=_chance((0.5, "lo"), (0.4, "hi"))),
        "tree: duplicate child labels at decision node 'root'",
    ),
    (
        "contents_before_unknown_child_in_one_node",
        _model(c=_chance((0.5, "lo"), (0.4, "gone"))),
        "tree: probabilities at chance node 'c' sum to 0.9, expected 1",
    ),
    (
        "earlier_unknown_child_before_later_contents",
        _model(root=_decision(("sure", "t"), ("risk", "c"), ("more", "gone")), c=_chance((0.5, "lo"), (0.4, "hi"))),
        "tree: node 'root' references unknown child 'gone'",
    ),
    (
        "unknown_child_before_parent_counts",
        _model(c=_chance((0.5, "t"), (0.5, "hi")), hi=_decision(("x", "gone"))),
        "tree: node 'hi' references unknown child 'gone'",
    ),
    (
        "parent_counts_before_reachability",
        _model(
            c=_chance((0.5, "t"), (0.5, "hi")),
            p=_decision(("k", "q")),
            q=_decision(("k", "p")),
        ),
        "tree: node 't' has 2 parents, expected exactly 1",
    ),
    (
        "root_parent_before_orphan",
        _model(c=_chance((0.5, "lo"), (0.5, "root")), hi=None, extra={"kind": "terminal", "payoff": 1}),
        "tree: root node 'root' has a parent",
    ),
    (
        "contents_in_a_detached_cycle",
        _model(p=_decision(("k", "q")), q=_chance((0.5, "p"), (0.25, "q"))),
        "tree: probabilities at chance node 'q' sum to 0.75, expected 1",
    ),
    (
        "orphan_before_detached_cycle",
        _model(zz={"kind": "terminal", "payoff": 1}, p=_decision(("k", "q")), q=_decision(("k", "p"))),
        "tree: node 'zz' has 0 parents, expected exactly 1",
    ),
]


@pytest.mark.parametrize("raw,message", [c[1:] for c in MULTI_FAULTS], ids=[c[0] for c in MULTI_FAULTS])
def test_multi_fault_message(raw, message):
    with pytest.raises(ModelError) as caught:
        parse_model(json.dumps(raw))
    assert str(caught.value) == message


def test_ce_on_a_model_with_an_invalid_tree_exits_3(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_model(c=_chance((0.5, "lo"), (0.4, "hi")))))
    code, out, err = _cli(["ce", "--model", str(path), "--id", "x"])
    assert (code, out) == (3, "")
    assert err == "error:parse: tree: probabilities at chance node 'c' sum to 0.9, expected 1\n"


NODE_FAULTS = [
    (
        "non_node_before_contents",
        {"junk": 3, "root": ChanceNode(((0.5, "t"),)), "t": TerminalNode(0.0)},
        TypeError,
        "not a tree node: 3",
    ),
    (
        "contents_before_non_node",
        {"root": ChanceNode(((0.5, "t"),)), "t": TerminalNode(0.0), "junk": 3},
        ValueError,
        "probabilities at chance node 'root' sum to 0.5, expected 1",
    ),
    (
        "nonfinite_payoff_before_unknown_child",
        {"root": DecisionNode((("a", "t"), ("b", "gone"))), "t": TerminalNode(float("inf"))},
        ValueError,
        "node 'root' references unknown child 'gone'",
    ),
    (
        "nan_probability",
        {"root": ChanceNode(((0.5, "t"), (float("nan"), "u"))), "t": TerminalNode(0.0), "u": TerminalNode(1.0)},
        ValueError,
        "nonpositive probability at chance node 'root'",
    ),
    (
        "empty_decision",
        {"root": DecisionNode(()), "t": TerminalNode(0.0)},
        ValueError,
        "node 'root' has no children",
    ),
    (
        "root_unknown",
        {"t": TerminalNode(0.0)},
        ValueError,
        "root node 'root' not in node map",
    ),
]


@pytest.mark.parametrize("nodes,kind,message", [c[1:] for c in NODE_FAULTS], ids=[c[0] for c in NODE_FAULTS])
def test_node_object_fault_message(nodes, kind, message):
    with pytest.raises(kind) as caught:
        DecisionTree(nodes, "root")
    assert type(caught.value) is kind
    assert str(caught.value) == message
