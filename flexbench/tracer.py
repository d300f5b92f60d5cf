"""Spans around flexcurve's public functions, recorded from outside the library.

``Tracer.install`` replaces each traced function in every flexcurve module
that holds it, so internal calls through module-level aliases (such as
``orders.certain_equivalent`` inside ``compare``) are seen too.  Spans are
kept in memory as [name, start, end, parent, op, count] and written out
once at the end; self time is a span's duration minus its direct
children's, and count is the span's work count (see ``COUNTED``).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

# (module, attribute) pairs; the span name is "module.attribute".
TRACED = [
    ("prospects", "log_mgf"),
    ("prospects", "add_independent"),
    ("prospects", "stats"),
    ("valuation", "certain_equivalent"),
    ("valuation", "flexibility_curve"),
    ("orders", "compare"),
    ("orders", "tail_order"),
    ("orders", "find_threshold"),
    ("orders", "upper_envelope"),
    ("trees", "rollback"),
    ("trees", "node_curve"),
    ("trees", "enumerate_policies"),
    ("trees", "policy_prospect"),
    ("model_io", "parse_model"),
    ("cli", "main"),
    ("scenarios", "adaptive_template"),
    ("scenarios", "stigler_scenario"),
]

# Traced functions whose spans carry a work count, and the name the count
# is reported under.
COUNTED = {
    "prospects.log_mgf": "prospects.log_mgf.points",
    "trees.node_curve": "trees.node_curve.points",
    "model_io.parse_model": "model_io.parse_model.bytes",
    "trees.enumerate_policies": "trees.policies_enumerated",
    "orders.compare": "orders.incomparable",
}


def _points(name: str, args: tuple, result: Any) -> int:
    """Work count attached to a span: support points, grid points, bytes."""
    if name == "prospects.log_mgf":
        values = getattr(args[0], "values", None)
        return len(values) if values is not None else 0
    if name == "trees.node_curve":
        return len(args[3])
    if name == "model_io.parse_model":
        return len(args[0])
    if name == "trees.enumerate_policies":
        return len(result)
    if name == "orders.compare":
        return int(result.classification.value == "incomparable")
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Any = "setup"
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = name in COUNTED

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if counted:
                    span[5] = _points(name, args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_init(self, cls) -> None:
        """DecisionTree validation runs in __post_init__; time that as the build."""
        original = cls.__post_init__
        cls.__post_init__ = self._wrap("trees.DecisionTree", original)
        self._undo.append((cls, "__post_init__", original))

    def install(self, lib) -> None:
        modules = [m for name, m in sys.modules.items() if name == "flexcurve" or name.startswith("flexcurve.")]
        for mod_name, attr in TRACED:
            original = getattr(getattr(lib, mod_name), attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))
        self._wrap_init(lib.trees.DecisionTree)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top\tcount\n")
            for name, start, end, parent, op, count in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\t{count}\n")

    def _summary(self, probe: bool) -> Dict[str, Dict[str, float]]:
        """Calls, self time, work counts and CE calls under compare/envelope
        per span name, over the probe's spans or over all the others."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        ce_under: Dict[str, int] = defaultdict(int)
        # The compare / upper_envelope span among each span's ancestors.
        owner: List[Optional[str]] = [None] * len(self.spans)
        for i, (name, start, end, parent, op, count) in enumerate(self.spans):
            inherited = owner[parent] if parent >= 0 else None
            owner[i] = name if name in ("orders.compare", "orders.upper_envelope") else inherited
            if (op == "probe") != probe:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            counts[name] += count
            if name == "valuation.certain_equivalent" and inherited:
                ce_under[inherited] += 1
        return {"calls": calls, "self_s": self_s, "counts": counts, "ce_under": ce_under}

    def per_layer(self, untraced_ops_per_s: float, traced_ops_per_s: float, ops: int) -> Dict[str, float]:
        """Every per-layer figure by metric name.

        A traced function's figures come from the workload's own spans; only
        a function the workload never called is read from the probe's.
        """
        own, probe = self._summary(False), self._summary(True)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: Dict[str, float] = {
            "trace.ops": ops,
            "trace.spans": len(self.spans),
            "trace.untraced_ops_per_s": untraced_ops_per_s,
            "trace.traced_ops_per_s": traced_ops_per_s,
            "trace.overhead_share": ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s),
        }
        names = [f"{m}.{a}" for m, a in TRACED] + ["trees.DecisionTree"]
        for name in names:
            s = own if own["calls"][name] else probe
            calls = s["calls"][name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = s["self_s"][name]
            if name in COUNTED:
                out[COUNTED[name]] = s["counts"][name]
            if name in ("orders.compare", "orders.upper_envelope"):
                out[f"{name}.ce_calls"] = s["ce_under"][name]
        out["trees.DecisionTree.build_s"] = out["trees.DecisionTree.self_s"]
        out["orders.ce_calls_per_compare"] = ratio(out["orders.compare.ce_calls"], out["orders.compare.calls"])
        out["orders.ce_calls_per_envelope"] = ratio(out["orders.upper_envelope.ce_calls"], out["orders.upper_envelope.calls"])
        out["orders.incomparable_share"] = ratio(out["orders.incomparable"], out["orders.compare.calls"])
        return out
