"""JSON model documents: parsing, validation, canonical emission.

A model document declares named prospects, an optional decision tree,
optional scenario blocks, and optional defaults for the risk aversion and
k grid.  Parsing validates every embedded invariant and reports failures
with the offending field path; emission is canonical so that
``parse_model(emit_model(doc)) == doc``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from .prospects import Affine, IndependentSum, Prospect, make_discrete, make_gaussian
from .scenarios import AdaptiveSpec, Commitment, StiglerSpec, adaptive_template
from .trees import DecisionNode, DecisionTree, TerminalNode, _Table
from .valuation import _geometric_points

__all__ = [
    "ModelError",
    "ModelDocument",
    "parse_model",
    "emit_model",
    "parse_k_grid",
    "K_GRID_STEPS_CAP",
]

# Far above any grid a curve needs; a larger one would only exhaust memory.
K_GRID_STEPS_CAP = 100_000


class ModelError(ValueError):
    """Invalid model document; the message carries the offending field path."""


def parse_k_grid(text: str) -> Tuple[float, ...]:
    """Parse ``lo:hi:steps`` into a geometric grid including both endpoints."""
    lo, hi, steps = _k_grid_bounds(text)
    return (lo,) if steps == 1 else tuple(_geometric_points(lo, hi, steps).tolist())


def _k_grid_bounds(text: str) -> Tuple[float, float, int]:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ModelError(f"k grid must be lo:hi:steps, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ModelError(f"malformed k grid {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
        raise ModelError(f"k grid bounds must satisfy 0 < lo <= hi, got {text!r}")
    if steps < 1 or (steps == 1 and lo != hi):
        raise ModelError(f"k grid needs at least 2 steps when lo < hi, got {text!r}")
    if steps > K_GRID_STEPS_CAP:
        raise ModelError(f"k grid steps exceed cap {K_GRID_STEPS_CAP}, got {text!r}")
    return lo, hi, steps


@dataclass(frozen=True)
class ModelDocument:
    """Parsed model file: resolved objects plus the canonical raw specs."""

    prospect_specs: Mapping[str, Any]
    prospects: Mapping[str, Prospect]
    tree: Optional[DecisionTree] = None
    adaptive: Optional[AdaptiveSpec] = None
    stigler: Optional[StiglerSpec] = None
    default_r: Optional[float] = None
    default_k_grid: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prospect_specs", dict(self.prospect_specs))
        object.__setattr__(self, "prospects", dict(self.prospects))


def _expect(condition: bool, path: str, reason: str) -> None:
    if not condition:
        raise ModelError(f"{path}: {reason}")


def _number(raw: Any, path: str) -> float:
    """raw as a finite float; an error names the path.  An integer past the float range is not finite."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf
        _expect(math.isfinite(value), path, "number must be finite")
        return value
    raise ModelError(f"{path}: expected a number")


def _pairs(raw: Any, path: str) -> Tuple[Tuple[float, float], ...]:
    _expect(isinstance(raw, list) and raw, path, "expected a nonempty list of pairs")
    out = []
    for i, item in enumerate(raw):
        _expect(isinstance(item, list) and len(item) == 2, f"{path}[{i}]", "expected a [a, b] pair")
        out.append((_number(item[0], f"{path}[{i}][0]"), _number(item[1], f"{path}[{i}][1]")))
    return tuple(out)


def _normalize_prospect_spec(pid: str, raw: Any, path: str) -> Dict[str, Any]:
    _expect(isinstance(raw, dict), path, "expected an object")
    kind = raw.get("kind")
    if kind == "discrete":
        points = _pairs(raw.get("points"), f"{path}.points")
        return {"kind": "discrete", "points": points}
    if kind == "gaussian":
        return {
            "kind": "gaussian",
            "mean": _number(raw.get("mean"), f"{path}.mean"),
            "variance": _number(raw.get("variance"), f"{path}.variance"),
        }
    if kind == "affine":
        base = raw.get("base")
        _expect(isinstance(base, str), f"{path}.base", "expected a prospect id")
        return {
            "kind": "affine",
            "base": base,
            "scale": _number(raw.get("scale"), f"{path}.scale"),
            "offset": _number(raw.get("offset"), f"{path}.offset"),
        }
    if kind == "sum":
        terms = raw.get("terms")
        _expect(isinstance(terms, list) and terms, f"{path}.terms", "expected a nonempty id list")
        for i, t in enumerate(terms):
            _expect(isinstance(t, str), f"{path}.terms[{i}]", "expected a prospect id")
        return {"kind": "sum", "terms": tuple(terms)}
    raise ModelError(f"{path}.kind: unknown prospect kind {kind!r}")


def _resolve_prospects(specs: Mapping[str, Dict[str, Any]]) -> Dict[str, Prospect]:
    """Build every prospect after the ids it references, depth first from each id in order.

    A fault is reported where a recursive walk would meet it first: an unknown or
    circular reference at the path naming it, a bad value once its references are built.
    """
    resolved: Dict[str, Prospect] = {}
    for first in specs:
        active = {first: 0}  # ids being resolved, innermost last, each with its next reference
        while first not in resolved:
            pid = next(reversed(active))
            spec = specs[pid]
            kind, i = spec["kind"], active[pid]
            refs = spec["terms"] if kind == "sum" else (spec["base"],) if kind == "affine" else ()
            while i < len(refs) and refs[i] in resolved:
                i += 1
            if i < len(refs):
                ref, path = refs[i], f"prospects.{pid}.{'terms' if kind == 'sum' else 'base'}"
                _expect(ref in specs, path, f"unknown prospect id {ref!r}")
                _expect(ref not in active, path, f"circular reference through {ref!r}")
                active[pid], active[ref] = i, 0
                continue
            try:
                if kind == "discrete":
                    prospect: Prospect = make_discrete(spec["points"])
                    # the merged / sorted / renormalized points, so emission is stable under re-parsing
                    spec["points"] = tuple(zip(prospect.values, prospect.masses))
                elif kind == "gaussian":
                    prospect = make_gaussian(spec["mean"], spec["variance"])
                elif kind == "affine":
                    prospect = Affine(resolved[refs[0]], spec["scale"], spec["offset"])
                else:
                    prospect = IndependentSum(tuple(resolved[t] for t in refs))
            except ValueError as exc:
                raise ModelError(f"prospects.{pid}: {exc}") from None
            resolved[pid] = prospect
            del active[pid]
    return resolved


def _check_children(items: Any, path: str, nid: str, chance: bool) -> None:
    """A node's children must be [label or probability, node id] pairs; paths format on error only."""
    if not (isinstance(items, list) and items):
        raise ModelError(f"{path}.nodes.{nid}.children: expected a nonempty list")
    for i, item in enumerate(items):
        if type(item) is not list or len(item) != 2:
            break
        tag, cid = item
        if type(cid) is not str:
            break
        if not chance:
            if type(tag) is not str:
                break
        elif type(tag) is not float or not math.isfinite(tag):
            _number(tag, f"{path}.nodes.{nid}.children[{i}][0]")
    else:
        return
    pair = "[probability, node-id]" if chance else "[label, node-id]"
    raise ModelError(f"{path}.nodes.{nid}.children[{i}]: expected a {pair} pair")


def _parse_tree(raw: Any, path: str) -> DecisionTree:
    _expect(isinstance(raw, dict), path, "expected an object")
    root = raw.get("root")
    _expect(isinstance(root, str), f"{path}.root", "expected a node id")
    raw_nodes = raw.get("nodes")
    _expect(isinstance(raw_nodes, dict) and raw_nodes, f"{path}.nodes", "expected a nonempty object")
    # One loop checks each node's shape, raising at once, and adds it to
    # the tree's table, which records content faults: shape faults come first.
    table = _Table()
    for nid, node in raw_nodes.items():
        if not isinstance(node, dict):
            raise ModelError(f"{path}.nodes.{nid}: expected an object")
        kind = node.get("kind")
        if kind == "terminal":
            payoff = node.get("payoff")
            if type(payoff) is not float or not math.isfinite(payoff):
                payoff = _number(payoff, f"{path}.nodes.{nid}.payoff")
            table.terminal(nid, payoff)
            continue
        if kind != "decision" and kind != "chance":
            raise ModelError(f"{path}.nodes.{nid}.kind: unknown node kind {kind!r}")
        children = node.get("children")
        _check_children(children, path, nid, kind == "chance")
        (table.chance if kind == "chance" else table.decision)(nid, children)
    try:
        return DecisionTree._of(table, raw_nodes.keys(), root)
    except ValueError as exc:
        raise ModelError(f"{path}: {exc}") from None


def _parse_adaptive(raw: Any, path: str) -> AdaptiveSpec:
    _expect(isinstance(raw, dict), path, "expected an object")
    raw_commitments = raw.get("commitments")
    _expect(isinstance(raw_commitments, list) and raw_commitments, f"{path}.commitments", "expected a nonempty list")
    commitments = []
    for i, item in enumerate(raw_commitments):
        cpath = f"{path}.commitments[{i}]"
        _expect(isinstance(item, dict), cpath, "expected an object")
        label = item.get("label")
        _expect(isinstance(label, str), f"{cpath}.label", "expected a string")
        allows = item.get("allows_reaction")
        _expect(isinstance(allows, bool), f"{cpath}.allows_reaction", "expected a boolean")
        locked = item.get("locked_action")
        _expect(locked is None or isinstance(locked, str), f"{cpath}.locked_action", "expected a string")
        commitments.append((label, _number(item.get("cost"), f"{cpath}.cost"), allows, locked))
    raw_obs = raw.get("observations")
    if isinstance(raw_obs, dict):
        observations: Any = {c: _obs_pairs(v, f"{path}.observations.{c}") for c, v in raw_obs.items()}
    elif isinstance(raw_obs, list):
        observations = _obs_pairs(raw_obs, f"{path}.observations")
    else:
        raise ModelError(f"{path}.observations: expected a list or per-commitment object")
    reactions = raw.get("reactions")
    _expect(isinstance(reactions, list) and reactions, f"{path}.reactions", "expected a nonempty list")
    for i, a in enumerate(reactions):
        _expect(isinstance(a, str), f"{path}.reactions[{i}]", "expected a string")
    raw_payoffs = raw.get("payoffs")
    _expect(isinstance(raw_payoffs, dict), f"{path}.payoffs", "expected an object")
    payoffs: Dict[Tuple[str, str, str], float] = {}
    for c, by_obs in raw_payoffs.items():
        _expect(isinstance(by_obs, dict), f"{path}.payoffs.{c}", "expected an object")
        for o, by_act in by_obs.items():
            _expect(isinstance(by_act, dict), f"{path}.payoffs.{c}.{o}", "expected an object")
            for a, v in by_act.items():
                payoffs[(c, o, a)] = _number(v, f"{path}.payoffs.{c}.{o}.{a}")
    # The plan is built here, so a block that parses is one the template can build.
    try:
        spec = AdaptiveSpec(tuple(Commitment(*c) for c in commitments), observations, tuple(reactions), payoffs)
        adaptive_template(spec)
    except ValueError as exc:
        raise ModelError(f"{path}: {exc}") from None
    # Every key names a commitment, one of its observations, and a listed reaction or its locked action.
    known = {c.label: (dict(spec.observations[c.label]), {*spec.reactions, c.locked_action}) for c in spec.commitments}
    for c in raw_obs if isinstance(raw_obs, dict) else ():
        _expect(c in known, f"{path}.observations.{c}", "not a commitment label")
    for c, by_obs in raw_payoffs.items():
        _expect(c in known, f"{path}.payoffs.{c}", "not a commitment label")
        for o, by_act in by_obs.items():
            _expect(o in known[c][0], f"{path}.payoffs.{c}.{o}", f"not an observation of commitment {c!r}")
            for a in by_act:
                _expect(a in known[c][1], f"{path}.payoffs.{c}.{o}.{a}", f"not a reaction of commitment {c!r}")
    return spec


def _obs_pairs(raw: Any, path: str) -> Tuple[Tuple[str, float], ...]:
    _expect(isinstance(raw, list) and raw, path, "expected a nonempty list")
    out = []
    for i, item in enumerate(raw):
        pair = isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)
        _expect(pair, f"{path}[{i}]", "expected a [label, probability] pair")
        out.append((item[0], _number(item[1], f"{path}[{i}][1]")))
    return tuple(out)


def _parse_stigler(raw: Any, path: str) -> StiglerSpec:
    _expect(isinstance(raw, dict), path, "expected an object")
    grid = _pairs(raw.get("quantities"), f"{path}.quantities")
    cost_one = _pairs(raw.get("cost1"), f"{path}.cost1")
    cost_two = _pairs(raw.get("cost2"), f"{path}.cost2")
    try:
        return StiglerSpec(grid, dict(cost_one), dict(cost_two))
    except ValueError as exc:
        raise ModelError(f"{path}: {exc}") from None


def parse_model(text: str | bytes) -> ModelDocument:
    """Parse and fully validate a JSON model document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(f"document is not valid UTF-8: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ModelError("document nested deeper than the JSON decoder's limit") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ModelError(f"malformed number: {exc}") from None
    _expect(isinstance(raw, dict), "document", "top level must be an object")

    raw_prospects = raw.get("prospects", {})
    _expect(isinstance(raw_prospects, dict), "prospects", "expected an object")
    specs = {pid: _normalize_prospect_spec(pid, spec, f"prospects.{pid}") for pid, spec in raw_prospects.items()}
    prospects = _resolve_prospects(specs)

    tree = _parse_tree(raw["tree"], "tree") if "tree" in raw else None

    adaptive = stigler = None
    if "scenarios" in raw:
        scen = raw["scenarios"]
        _expect(isinstance(scen, dict), "scenarios", "expected an object")
        if "adaptive" in scen:
            adaptive = _parse_adaptive(scen["adaptive"], "scenarios.adaptive")
        if "stigler" in scen:
            stigler = _parse_stigler(scen["stigler"], "scenarios.stigler")

    default_r = default_k = None
    if "defaults" in raw:
        defaults = raw["defaults"]
        _expect(isinstance(defaults, dict), "defaults", "expected an object")
        if "r" in defaults:
            default_r = _number(defaults["r"], "defaults.r")
            _expect(default_r >= 0.0, "defaults.r", "risk aversion must be nonnegative")
        if "k" in defaults:
            _expect(isinstance(defaults["k"], str), "defaults.k", "expected a lo:hi:steps string")
            try:
                _k_grid_bounds(defaults["k"])  # checked here, built where it is used
            except ModelError as exc:
                raise ModelError(f"defaults.k: {exc}") from None
            default_k = defaults["k"]

    return ModelDocument(specs, prospects, tree, adaptive, stigler, default_r, default_k)


def _spec_to_json(spec: Mapping[str, Any]) -> Dict[str, Any]:
    if spec["kind"] == "discrete":
        return {"kind": "discrete", "points": [[v, m] for v, m in spec["points"]]}
    if spec["kind"] == "sum":
        return {"kind": "sum", "terms": list(spec["terms"])}
    return dict(spec)


def _tree_to_json(tree: DecisionTree) -> Dict[str, Any]:
    nodes: Dict[str, Any] = {}
    for nid, node in tree.nodes.items():
        if isinstance(node, TerminalNode):
            nodes[nid] = {"kind": "terminal", "payoff": node.payoff}
        else:
            kind = "decision" if isinstance(node, DecisionNode) else "chance"
            nodes[nid] = {"kind": kind, "children": [list(pair) for pair in node.children]}
    return {"root": tree.root, "nodes": nodes}


def _adaptive_to_json(spec: AdaptiveSpec) -> Dict[str, Any]:
    payoffs: Dict[str, Dict[str, Dict[str, float]]] = {}
    for (c, o, a), v in spec.payoffs.items():
        payoffs.setdefault(c, {}).setdefault(o, {})[a] = v
    return {
        "commitments": [
            {"label": c.label, "cost": c.cost, "allows_reaction": c.allows_reaction}
            | ({} if c.locked_action is None else {"locked_action": c.locked_action})
            for c in spec.commitments
        ],
        "observations": {c: [[o, p] for o, p in obs] for c, obs in spec.observations.items()},
        "reactions": list(spec.reactions),
        "payoffs": payoffs,
    }


def _stigler_to_json(spec: StiglerSpec) -> Dict[str, Any]:
    return {
        "quantities": [[q, p] for q, p in spec.quantity_grid],
        "cost1": [[q, spec.cost_one[q]] for q in sorted(spec.cost_one)],
        "cost2": [[q, spec.cost_two[q]] for q in sorted(spec.cost_two)],
    }


def emit_model(doc: ModelDocument) -> str:
    """Canonical JSON serialization; inverse of :func:`parse_model`."""
    out: Dict[str, Any] = {
        "prospects": {pid: _spec_to_json(spec) for pid, spec in doc.prospect_specs.items()}
    }
    if doc.tree is not None:
        out["tree"] = _tree_to_json(doc.tree)
    scenarios: Dict[str, Any] = {}
    if doc.adaptive is not None:
        scenarios["adaptive"] = _adaptive_to_json(doc.adaptive)
    if doc.stigler is not None:
        scenarios["stigler"] = _stigler_to_json(doc.stigler)
    if scenarios:
        out["scenarios"] = scenarios
    defaults: Dict[str, Any] = {}
    if doc.default_r is not None:
        defaults["r"] = doc.default_r
    if doc.default_k_grid is not None:
        defaults["k"] = doc.default_k_grid
    if defaults:
        out["defaults"] = defaults
    return json.dumps(out, indent=2, sort_keys=True) + "\n"
