import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexcurve import (
    Discrete,
    Gaussian,
    ModelError,
    emit_model,
    parse_k_grid,
    parse_model,
)


FULL_MODEL = {
    "prospects": {
        "x": {"kind": "discrete", "points": [[0, 0.5], [100, 0.5]]},
        "g": {"kind": "gaussian", "mean": 10, "variance": 4},
        "shifted": {"kind": "affine", "base": "x", "scale": 2, "offset": -10},
        "combo": {"kind": "sum", "terms": ["x", "g"]},
    },
    "tree": {
        "root": "root",
        "nodes": {
            "root": {"kind": "decision", "children": [["sure", "t"], ["risk", "c"]]},
            "t": {"kind": "terminal", "payoff": 10},
            "c": {"kind": "chance", "children": [[0.5, "lo"], [0.5, "hi"]]},
            "lo": {"kind": "terminal", "payoff": 0},
            "hi": {"kind": "terminal", "payoff": 100},
        },
    },
    "scenarios": {
        "stigler": {
            "quantities": [[10, 0.5], [20, 0.5]],
            "cost1": [[10, 100], [20, 150]],
            "cost2": [[10, 120], [20, 130]],
        },
        "adaptive": {
            "commitments": [
                {"label": "wait", "cost": 2, "allows_reaction": True},
                {"label": "lock", "cost": 0, "allows_reaction": False, "locked_action": "a"},
            ],
            "observations": [["up", 0.5], ["down", 0.5]],
            "reactions": ["a", "b"],
            "payoffs": {
                "wait": {"up": {"a": 10, "b": 0}, "down": {"a": 0, "b": 10}},
                "lock": {"up": {"a": 10, "b": 0}, "down": {"a": 0, "b": 10}},
            },
        },
    },
    "defaults": {"r": 0.01, "k": "1:100:25"},
}


class TestParseKGrid:
    def test_geometric_endpoints(self):
        grid = parse_k_grid("1:100:5")
        assert grid[0] == 1.0
        assert grid[-1] == pytest.approx(100.0, rel=1e-15)
        assert len(grid) == 5
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(q == pytest.approx(ratios[0], rel=1e-12) for q in ratios)

    def test_degenerate_single_point(self):
        assert parse_k_grid("3:3:1") == (3.0,)

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(1e-8, 1e8), decades=st.floats(0.0, 6.0), steps=st.integers(2, 300))
    def test_same_points_as_geomspace(self, lo, decades, steps):
        hi = lo * 10.0**decades
        assert parse_k_grid(f"{lo!r}:{hi!r}:{steps}") == tuple(np.geomspace(lo, hi, steps).tolist())

    @pytest.mark.parametrize("text", ["1:100", "a:2:3", "0:10:5", "5:1:3", "1:10:1"])
    def test_rejects(self, text):
        with pytest.raises(ModelError):
            parse_k_grid(text)


class TestParseModel:
    def test_full_document(self):
        doc = parse_model(json.dumps(FULL_MODEL))
        assert doc.prospects["x"] == Discrete((0.0, 100.0), (0.5, 0.5))
        assert doc.prospects["g"] == Gaussian(10.0, 4.0)
        assert doc.prospects["shifted"].base == doc.prospects["x"]
        assert doc.tree is not None and doc.tree.root == "root"
        assert doc.adaptive is not None and len(doc.adaptive.commitments) == 2
        assert doc.stigler is not None
        assert doc.default_r == 0.01
        assert doc.default_k_grid == "1:100:25"

    def test_discrete_spec_canonicalized(self):
        raw = {"prospects": {"x": {"kind": "discrete", "points": [[5, 0.5], [5, 0.25], [1, 0.25]]}}}
        doc = parse_model(json.dumps(raw))
        assert doc.prospect_specs["x"]["points"] == ((1.0, 0.25), (5.0, 0.75))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ModelError, match=r"line 2 column"):
            parse_model('{\n  "prospects": }')

    def test_bad_chance_sum_names_node(self):
        raw = json.loads(json.dumps(FULL_MODEL))
        raw["tree"]["nodes"]["c"]["children"] = [[0.5, "lo"], [0.4, "hi"]]
        with pytest.raises(ModelError, match=r"tree.*sum"):
            parse_model(json.dumps(raw))

    def test_unknown_affine_base(self):
        raw = {"prospects": {"a": {"kind": "affine", "base": "ghost", "scale": 1, "offset": 0}}}
        with pytest.raises(ModelError, match=r"prospects\.a\.base.*ghost"):
            parse_model(json.dumps(raw))

    def test_circular_reference(self):
        raw = {
            "prospects": {
                "a": {"kind": "sum", "terms": ["b"]},
                "b": {"kind": "affine", "base": "a", "scale": 1, "offset": 0},
            }
        }
        with pytest.raises(ModelError, match="circular"):
            parse_model(json.dumps(raw))

    def test_unknown_kind_path(self):
        raw = {"prospects": {"z": {"kind": "triangular"}}}
        with pytest.raises(ModelError, match=r"prospects\.z\.kind"):
            parse_model(json.dumps(raw))

    def test_negative_variance_reported_with_path(self):
        raw = {"prospects": {"g": {"kind": "gaussian", "mean": 0, "variance": -1}}}
        with pytest.raises(ModelError, match=r"prospects\.g"):
            parse_model(json.dumps(raw))

    def test_nonfinite_number_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            parse_model('{"prospects": {"x": {"kind": "gaussian", "mean": Infinity, "variance": 1}}}')

    def test_bad_default_r(self):
        raw = {"prospects": {}, "defaults": {"r": -0.5}}
        with pytest.raises(ModelError, match=r"defaults\.r"):
            parse_model(json.dumps(raw))

    def test_bad_default_k(self):
        raw = {"prospects": {}, "defaults": {"k": "10:1:5"}}
        with pytest.raises(ModelError, match=r"defaults\.k"):
            parse_model(json.dumps(raw))

    def test_top_level_must_be_object(self):
        with pytest.raises(ModelError, match="top level"):
            parse_model("[1, 2]")

    def test_invalid_utf8(self):
        with pytest.raises(ModelError, match="UTF-8"):
            parse_model(b"\xff\xfe{}")


class TestEmitModel:
    def test_round_trip_equality(self):
        doc = parse_model(json.dumps(FULL_MODEL))
        text = emit_model(doc)
        assert parse_model(text) == doc

    def test_emission_is_deterministic(self):
        doc = parse_model(json.dumps(FULL_MODEL))
        assert emit_model(doc) == emit_model(parse_model(emit_model(doc)))

    def test_emitted_text_is_sorted_json(self):
        doc = parse_model(json.dumps(FULL_MODEL))
        raw = json.loads(emit_model(doc))
        assert list(raw) == sorted(raw)

    def test_minimal_document(self):
        doc = parse_model('{"prospects": {"x": {"kind": "discrete", "points": [[0, 1.0]]}}}')
        assert parse_model(emit_model(doc)) == doc
        raw = json.loads(emit_model(doc))
        assert set(raw) == {"prospects"}


def _set(path, value):
    """Mutation of a model document: put value at a key path (None deletes)."""

    def apply(raw):
        *parents, last = path
        for key in parents:
            raw = raw[key]
        if value is None:
            del raw[last]
        else:
            raw[last] = value

    return apply


# Every message a tree block can produce through parse_model, pinned byte
# for byte: one case per message, each with a single fault.
TREE_ERRORS = [
    ("not_object", _set(["tree"], []), "tree: expected an object"),
    ("root_missing", _set(["tree", "root"], None), "tree.root: expected a node id"),
    ("root_not_string", _set(["tree", "root"], 7), "tree.root: expected a node id"),
    ("nodes_empty", _set(["tree", "nodes"], {}), "tree.nodes: expected a nonempty object"),
    ("node_not_object", _set(["tree", "nodes", "t"], 5), "tree.nodes.t: expected an object"),
    ("payoff_string", _set(["tree", "nodes", "t", "payoff"], "x"), "tree.nodes.t.payoff: expected a number"),
    ("payoff_bool", _set(["tree", "nodes", "t", "payoff"], True), "tree.nodes.t.payoff: expected a number"),
    ("payoff_missing", _set(["tree", "nodes", "t", "payoff"], None), "tree.nodes.t.payoff: expected a number"),
    ("payoff_infinite", _set(["tree", "nodes", "t", "payoff"], math.inf), "tree.nodes.t.payoff: number must be finite"),
    ("kind_unknown", _set(["tree", "nodes", "t", "kind"], "leaf"), "tree.nodes.t.kind: unknown node kind 'leaf'"),
    ("kind_missing", _set(["tree", "nodes", "t", "kind"], None), "tree.nodes.t.kind: unknown node kind None"),
    ("decision_no_children", _set(["tree", "nodes", "root", "children"], []), "tree.nodes.root.children: expected a nonempty list"),
    ("chance_children_string", _set(["tree", "nodes", "c", "children"], "lo"), "tree.nodes.c.children: expected a nonempty list"),
    ("decision_short_pair", _set(["tree", "nodes", "root", "children", 1], ["risk"]), "tree.nodes.root.children[1]: expected a [label, node-id] pair"),
    ("decision_numeric_label", _set(["tree", "nodes", "root", "children", 0], [1, "t"]), "tree.nodes.root.children[0]: expected a [label, node-id] pair"),
    ("chance_short_pair", _set(["tree", "nodes", "c", "children", 1], [0.5]), "tree.nodes.c.children[1]: expected a [probability, node-id] pair"),
    ("chance_numeric_id", _set(["tree", "nodes", "c", "children", 0], [0.5, 3]), "tree.nodes.c.children[0]: expected a [probability, node-id] pair"),
    ("probability_string", _set(["tree", "nodes", "c", "children", 0], ["0.5", "lo"]), "tree.nodes.c.children[0][0]: expected a number"),
    ("probability_nan", _set(["tree", "nodes", "c", "children", 1], [math.nan, "hi"]), "tree.nodes.c.children[1][0]: number must be finite"),
    ("root_unknown", _set(["tree", "root"], "zz"), "tree: root node 'zz' not in node map"),
    ("duplicate_labels", _set(["tree", "nodes", "root", "children", 1], ["sure", "c"]), "tree: duplicate child labels at decision node 'root'"),
    ("probability_zero", _set(["tree", "nodes", "c", "children"], [[0.0, "lo"], [1.0, "hi"]]), "tree: nonpositive probability at chance node 'c'"),
    ("probability_sum", _set(["tree", "nodes", "c", "children"], [[0.5, "lo"], [0.4, "hi"]]), "tree: probabilities at chance node 'c' sum to 0.9, expected 1"),
    (
        "probability_sum_past_the_float_range",
        _set(["tree", "nodes", "c", "children"], [[8.988465674311579e307, "lo"], [8.98846567431158e307, "hi"]]),
        "tree: probabilities at chance node 'c' sum to inf, expected 1",
    ),
    ("unknown_child", _set(["tree", "nodes", "c", "children", 1], [0.5, "gone"]), "tree: node 'c' references unknown child 'gone'"),
    ("root_has_parent", _set(["tree", "nodes", "c", "children", 1], [0.5, "root"]), "tree: root node 'root' has a parent"),
    ("shared_child", _set(["tree", "nodes", "c", "children", 1], [0.5, "t"]), "tree: node 't' has 2 parents, expected exactly 1"),
    ("orphan", _set(["tree", "nodes", "extra"], {"kind": "terminal", "payoff": 1}), "tree: node 'extra' has 0 parents, expected exactly 1"),
    (
        "detached_cycle",
        lambda raw: raw["tree"]["nodes"].update(
            p={"kind": "decision", "children": [["k", "q"]]},
            q={"kind": "decision", "children": [["k", "p"]]},
        ),
        "tree: node 'p' is unreachable from the root",
    ),
]


@pytest.mark.parametrize("mutate,message", [c[1:] for c in TREE_ERRORS], ids=[c[0] for c in TREE_ERRORS])
def test_tree_error_message(mutate, message):
    raw = json.loads(json.dumps(FULL_MODEL))
    mutate(raw)
    with pytest.raises(ModelError) as caught:
        parse_model(json.dumps(raw))
    assert str(caught.value) == message


def _affine(base, scale=2, offset=-10):
    return {"kind": "affine", "base": base, "scale": scale, "offset": offset}


def _sum(*terms):
    return {"kind": "sum", "terms": list(terms)}


_X = FULL_MODEL["prospects"]["x"]
_BAD_MASSES = {"kind": "discrete", "points": [[0, 0.5], [100, 0.4]]}
_NEGATIVE_MASS = {"kind": "discrete", "points": [[0, -0.5], [100, 1.5]]}
_NEGATIVE_VARIANCE = {"kind": "gaussian", "mean": 10, "variance": -1}

# Which fault a prospects block reports first, pinned byte for byte: ids are
# resolved depth first from each id in document order, so an unknown or
# circular reference is reported at the path that names it, and a bad value
# at its prospect once everything it references is built.
PROSPECT_ERRORS = [
    ("unknown_base", {"x": _X, "a": _affine("ghost")}, "prospects.a.base: unknown prospect id 'ghost'"),
    ("unknown_term", {"x": _X, "s": _sum("x", "ghost")}, "prospects.s.terms: unknown prospect id 'ghost'"),
    ("unknown_first_term", {"s": _sum("ghost", "x"), "x": _X}, "prospects.s.terms: unknown prospect id 'ghost'"),
    ("self_affine", {"x": _X, "a": _affine("a")}, "prospects.a.base: circular reference through 'a'"),
    ("self_sum", {"x": _X, "s": _sum("x", "s")}, "prospects.s.terms: circular reference through 's'"),
    ("cycle_affine", {"a": _affine("b"), "b": _affine("a")}, "prospects.b.base: circular reference through 'a'"),
    ("cycle_affine_reversed", {"b": _affine("a"), "a": _affine("b")}, "prospects.a.base: circular reference through 'b'"),
    ("cycle_sum_affine", {"x": _X, "s": _sum("x", "b"), "b": _affine("s")}, "prospects.b.base: circular reference through 's'"),
    ("cycle_affine_sum", {"x": _X, "b": _affine("s"), "s": _sum("x", "b")}, "prospects.s.terms: circular reference through 'b'"),
    (
        "cycle_below_a_good_root",
        {"x": _X, "top": _affine("s"), "s": _sum("x", "c"), "c": _affine("s")},
        "prospects.c.base: circular reference through 's'",
    ),
    ("scale_zero", {"x": _X, "a": _affine("x", scale=0)}, "prospects.a: scale must be positive, got 0.0"),
    ("scale_negative", {"x": _X, "a": _affine("x", scale=-1)}, "prospects.a: scale must be positive, got -1.0"),
    (
        "scale_zero_over_a_bad_base",
        {"a": _affine("g", scale=0), "g": _NEGATIVE_VARIANCE},
        "prospects.g: variance must be nonnegative, got -1.0",
    ),
    (
        "scale_zero_over_a_bad_base_listed_first",
        {"g": _NEGATIVE_VARIANCE, "a": _affine("g", scale=0)},
        "prospects.g: variance must be nonnegative, got -1.0",
    ),
    ("scale_zero_over_an_unknown_base", {"a": _affine("ghost", scale=0)}, "prospects.a.base: unknown prospect id 'ghost'"),
    ("scale_zero_over_a_cycle", {"a": _affine("b", scale=0), "b": _affine("a")}, "prospects.b.base: circular reference through 'a'"),
    ("negative_variance", {"x": _X, "g": _NEGATIVE_VARIANCE}, "prospects.g: variance must be nonnegative, got -1.0"),
    ("masses_sum", {"x": _BAD_MASSES}, "prospects.x: masses sum to 0.9, outside tolerance 1e-09 of 1"),
    (
        "masses_sum_past_the_float_range",
        {"x": {"kind": "discrete", "points": [[0, 8.988465674311579e307], [1, 8.98846567431158e307]]}},
        "prospects.x: masses sum to inf, outside tolerance 1e-09 of 1",
    ),
    ("negative_mass", {"x": _NEGATIVE_MASS}, "prospects.x: mass must be positive and finite, got -0.5"),
    ("bad_term_in_a_sum", {"x": _X, "s": _sum("x", "a"), "a": _affine("x", scale=0)}, "prospects.a: scale must be positive, got 0.0"),
    (
        "shared_bad_base",
        {"a": _affine("q"), "b": _affine("q", scale=0), "q": _BAD_MASSES},
        "prospects.q: masses sum to 0.9, outside tolerance 1e-09 of 1",
    ),
    (
        "shared_good_base_bad_user",
        {"q": _X, "a": _affine("q"), "s": _sum("q", "a", "q"), "b": _affine("s", scale=-2)},
        "prospects.b: scale must be positive, got -2.0",
    ),
    ("shared_term_then_unknown", {"x": _X, "s": _sum("x", "x", "ghost")}, "prospects.s.terms: unknown prospect id 'ghost'"),
    ("two_faults", {"x": _X, "a": _affine("x", scale=0), "s": _sum("x", "ghost")}, "prospects.a: scale must be positive, got 0.0"),
    (
        "two_faults_reversed",
        {"x": _X, "s": _sum("x", "ghost"), "a": _affine("x", scale=0)},
        "prospects.s.terms: unknown prospect id 'ghost'",
    ),
    ("value_fault_before_a_cycle", {"g": _NEGATIVE_VARIANCE, "a": _affine("a")}, "prospects.g: variance must be nonnegative, got -1.0"),
    ("cycle_before_a_value_fault", {"a": _affine("a"), "g": _NEGATIVE_VARIANCE}, "prospects.a.base: circular reference through 'a'"),
    (
        "shape_fault_before_reference_faults",
        {"a": _affine("ghost"), "b": {"kind": "affine", "base": "a", "scale": 1, "offset": "x"}},
        "prospects.b.offset: expected a number",
    ),
]


@pytest.mark.parametrize("prospects,message", [c[1:] for c in PROSPECT_ERRORS], ids=[c[0] for c in PROSPECT_ERRORS])
def test_prospect_error_message(prospects, message):
    with pytest.raises(ModelError) as caught:
        parse_model(json.dumps({"prospects": prospects}))
    assert str(caught.value) == message


def _adaptive(*path, value):
    return _set(["scenarios", "adaptive", *path], value)


def _stigler(*path, value):
    return _set(["scenarios", "stigler", *path], value)


_HALVES = [["up", 0.5], ["down", 0.5]]

# Every message a scenarios block can produce through parse_model, pinned
# byte for byte: one case per message, each with a single fault.  An
# adaptive block is built while it is read, so a plan the template cannot
# build is a parse error too.
SCENARIO_ERRORS = [
    ("not_object", _set(["scenarios"], []), "scenarios: expected an object"),
    ("adaptive_not_object", _adaptive(value=3), "scenarios.adaptive: expected an object"),
    ("commitments_missing", _adaptive("commitments", value=None), "scenarios.adaptive.commitments: expected a nonempty list"),
    ("commitments_empty", _adaptive("commitments", value=[]), "scenarios.adaptive.commitments: expected a nonempty list"),
    ("commitment_not_object", _adaptive("commitments", 0, value="wait"), "scenarios.adaptive.commitments[0]: expected an object"),
    ("label_not_string", _adaptive("commitments", 0, "label", value=1), "scenarios.adaptive.commitments[0].label: expected a string"),
    (
        "allows_reaction_not_boolean",
        _adaptive("commitments", 0, "allows_reaction", value=1),
        "scenarios.adaptive.commitments[0].allows_reaction: expected a boolean",
    ),
    (
        "locked_action_not_string",
        _adaptive("commitments", 1, "locked_action", value=1),
        "scenarios.adaptive.commitments[1].locked_action: expected a string",
    ),
    ("cost_string", _adaptive("commitments", 0, "cost", value="2"), "scenarios.adaptive.commitments[0].cost: expected a number"),
    ("cost_infinite", _adaptive("commitments", 0, "cost", value=math.inf), "scenarios.adaptive.commitments[0].cost: number must be finite"),
    (
        "observations_string",
        _adaptive("observations", value="up"),
        "scenarios.adaptive.observations: expected a list or per-commitment object",
    ),
    ("observations_empty", _adaptive("observations", value=[]), "scenarios.adaptive.observations: expected a nonempty list"),
    (
        "observation_short_pair",
        _adaptive("observations", 0, value=["up"]),
        "scenarios.adaptive.observations[0]: expected a [label, probability] pair",
    ),
    (
        "observation_numeric_label",
        _adaptive("observations", 1, value=[1, 0.5]),
        "scenarios.adaptive.observations[1]: expected a [label, probability] pair",
    ),
    (
        "observation_probability_string",
        _adaptive("observations", 0, value=["up", "0.5"]),
        "scenarios.adaptive.observations[0][1]: expected a number",
    ),
    (
        "observation_probability_nan",
        _adaptive("observations", 1, value=["down", math.nan]),
        "scenarios.adaptive.observations[1][1]: number must be finite",
    ),
    (
        "observations_per_commitment_empty",
        _adaptive("observations", value={"wait": [], "lock": _HALVES}),
        "scenarios.adaptive.observations.wait: expected a nonempty list",
    ),
    ("reactions_missing", _adaptive("reactions", value=None), "scenarios.adaptive.reactions: expected a nonempty list"),
    ("reaction_not_string", _adaptive("reactions", value=[None, "b"]), "scenarios.adaptive.reactions[0]: expected a string"),
    ("payoffs_not_object", _adaptive("payoffs", value=[]), "scenarios.adaptive.payoffs: expected an object"),
    ("payoffs_by_commitment_not_object", _adaptive("payoffs", "wait", value=1), "scenarios.adaptive.payoffs.wait: expected an object"),
    ("payoffs_by_observation_not_object", _adaptive("payoffs", "wait", "up", value=1), "scenarios.adaptive.payoffs.wait.up: expected an object"),
    ("payoff_string", _adaptive("payoffs", "wait", "up", "a", value="x"), "scenarios.adaptive.payoffs.wait.up.a: expected a number"),
    (
        "flexible_with_locked_action",
        _adaptive("commitments", 0, "locked_action", value="a"),
        "scenarios.adaptive: commitment 'wait' allows reaction but has a locked action",
    ),
    (
        "rigid_without_locked_action",
        _adaptive("commitments", 1, "locked_action", value=None),
        "scenarios.adaptive: commitment 'lock' forbids reaction but has no locked action",
    ),
    ("duplicate_commitment_labels", _adaptive("commitments", 1, "label", value="wait"), "scenarios.adaptive: commitment labels must be unique"),
    (
        "observations_missing_for_a_commitment",
        _adaptive("observations", value={"wait": _HALVES}),
        "scenarios.adaptive: no observations for commitment 'lock'",
    ),
    (
        "observation_probability_zero",
        _adaptive("observations", value=[["up", 0.0], ["down", 1.0]]),
        "scenarios.adaptive: nonpositive probability at chance node 'commit:wait'",
    ),
    (
        "observation_probability_sum",
        _adaptive("observations", value={"wait": _HALVES, "lock": [["up", 0.5], ["down", 0.4]]}),
        "scenarios.adaptive: probabilities at chance node 'commit:lock' sum to 0.9, expected 1",
    ),
    (
        "payoff_missing",
        _adaptive("payoffs", "wait", "down", "b", value=None),
        "scenarios.adaptive: payoff missing for reachable triple ('wait', 'down', 'b')",
    ),
    (
        "reaction_listed_twice",
        _adaptive("reactions", value=["a", "b", "a"]),
        "scenarios.adaptive: duplicate child labels at decision node 'react:wait/up'",
    ),
    (
        "locked_action_without_payoffs",
        _adaptive("commitments", 1, "locked_action", value="c"),
        "scenarios.adaptive: payoff missing for reachable triple ('lock', 'up', 'c')",
    ),
    (
        "payoff_past_the_float_range",
        lambda raw: [_adaptive("commitments", 0, "cost", value=-1e308)(raw), _adaptive("payoffs", "wait", "up", "a", value=1e308)(raw)],
        "scenarios.adaptive: non-finite payoff at node 'end:wait/up/a'",
    ),
    (
        "observation_listed_twice",
        _adaptive("observations", value=[["up", 0.5], ["up", 0.5]]),
        "scenarios.adaptive: node 'react:wait/up' has 2 parents, expected exactly 1",
    ),
    (
        "observations_for_no_commitment",
        _adaptive("observations", value={"wait": _HALVES, "lock": _HALVES, "lokc": [["up", 0.3]]}),
        "scenarios.adaptive.observations.lokc: not a commitment label",
    ),
    ("payoffs_for_no_commitment", _adaptive("payoffs", "ghost", value={"up": {"a": 1}}), "scenarios.adaptive.payoffs.ghost: not a commitment label"),
    (
        "payoffs_for_no_observation",
        _adaptive("payoffs", "wait", "sideways", value={"a": 1}),
        "scenarios.adaptive.payoffs.wait.sideways: not an observation of commitment 'wait'",
    ),
    (
        "payoff_for_no_reaction",
        _adaptive("payoffs", "wait", "up", "zz", value=1),
        "scenarios.adaptive.payoffs.wait.up.zz: not a reaction of commitment 'wait'",
    ),
    ("stigler_not_object", _stigler(value=[]), "scenarios.stigler: expected an object"),
    ("quantities_missing", _stigler("quantities", value=None), "scenarios.stigler.quantities: expected a nonempty list of pairs"),
    ("quantity_short_pair", _stigler("quantities", 0, value=[10]), "scenarios.stigler.quantities[0]: expected a [a, b] pair"),
    ("quantity_probability_string", _stigler("quantities", 1, value=[20, "0.5"]), "scenarios.stigler.quantities[1][1]: expected a number"),
    ("cost1_empty", _stigler("cost1", value=[]), "scenarios.stigler.cost1: expected a nonempty list of pairs"),
    ("cost2_infinite", _stigler("cost2", 0, value=[10, math.inf]), "scenarios.stigler.cost2[0][1]: number must be finite"),
    (
        "quantity_probability_zero",
        _stigler("quantities", value=[[10, 0.0], [20, 1.0]]),
        "scenarios.stigler: quantity probabilities must be positive",
    ),
    (
        "quantity_probability_sum",
        _stigler("quantities", value=[[10, 0.5], [20, 0.4]]),
        "scenarios.stigler: quantity probabilities sum to 0.9, expected 1",
    ),
    (
        "quantity_probability_sum_past_the_float_range",
        _stigler("quantities", value=[[10, 8.988465674311579e307], [20, 8.98846567431158e307]]),
        "scenarios.stigler: quantity probabilities sum to inf, expected 1",
    ),
    ("cost1_uncovered", _stigler("cost1", value=[[10, 100]]), "scenarios.stigler: cost_one has no cost for quantity 20.0"),
    ("cost2_uncovered", _stigler("cost2", value=[[20, 130]]), "scenarios.stigler: cost_two has no cost for quantity 10.0"),
]


@pytest.mark.parametrize("mutate,message", [c[1:] for c in SCENARIO_ERRORS], ids=[c[0] for c in SCENARIO_ERRORS])
def test_scenario_error_message(mutate, message):
    raw = json.loads(json.dumps(FULL_MODEL))
    mutate(raw)
    with pytest.raises(ModelError) as caught:
        parse_model(json.dumps(raw))
    assert str(caught.value) == message
