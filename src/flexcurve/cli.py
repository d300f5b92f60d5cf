"""Command-line interface.

Subcommands: ce, curve, compare, envelope, rollback, policies.  Models are
JSON documents (see model_io); curve and envelope emit CSV with 12
significant digits so identical runs are byte-for-byte identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional, Sequence, Tuple

from . import model_io, orders, trees, valuation
from .model_io import ModelDocument, ModelError, parse_k_grid
from .prospects import Prospect

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_RANGE = 5


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # +0.0 folds negative zero into "0"


def _load_model(path: str) -> ModelDocument:
    try:
        with open(path, "rb") as handle:
            return model_io.parse_model(handle.read())
    except OSError as exc:
        raise ModelError(f"cannot read model file {path!r}: {exc.strerror}") from None


def _resolve_r(args: argparse.Namespace, doc: ModelDocument) -> float:
    if args.r is not None:
        return args.r
    if doc.default_r is not None:
        return doc.default_r
    raise ValueError("no --r given and the model declares no default")


def _resolve_ks(args: argparse.Namespace, doc: ModelDocument) -> Tuple[float, ...]:
    spec = args.k if args.k is not None else doc.default_k_grid
    if spec is None:
        raise ValueError("no --k given and the model declares no default")
    return parse_k_grid(spec)


def _write(out: Optional[str], text: str) -> None:
    if out is None or out == "stdout":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file {out!r}: {exc.strerror}") from None


def _prospect(doc: ModelDocument, pid: str) -> Prospect:
    if pid not in doc.prospects:
        raise ValueError(f"unknown prospect id {pid!r}")
    return doc.prospects[pid]


def cmd_ce(args: argparse.Namespace) -> int:
    doc = _load_model(args.model)
    r = _resolve_r(args, doc)
    ce = valuation.certain_equivalent(_prospect(doc, args.id), r)
    _write(args.out, _fmt(ce) + "\n")
    return EXIT_OK


def _column(doc: ModelDocument, pid: str, r: float, ks: Tuple[float, ...]) -> List[float]:
    if pid in doc.prospects:
        curve = valuation.flexibility_curve(doc.prospects[pid], r, ks, pid)
        return list(curve.ces)
    if doc.tree is not None and pid in doc.tree._table.kinds:
        return list(trees.node_curve(doc.tree, pid, r, ks).ces)
    raise ValueError(f"unknown prospect or tree node id {pid!r}")


def cmd_curve(args: argparse.Namespace) -> int:
    doc = _load_model(args.model)
    r = _resolve_r(args, doc)
    ks = _resolve_ks(args, doc)
    ids = [i for i in args.ids.split(",") if i]
    if not ids:
        raise ValueError("no ids given")
    columns = [_column(doc, pid, r, ks) for pid in ids]
    lines = ["k," + ",".join(ids)]
    for row, k in enumerate(ks):
        lines.append(",".join([_fmt(k)] + [_fmt(col[row]) for col in columns]))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    doc = _load_model(args.model)
    r = _resolve_r(args, doc)
    verdict = orders.compare(_prospect(doc, args.a), _prospect(doc, args.b), r)
    lines = [f"classification: {verdict.classification.value}"]
    if verdict.threshold_k is None:
        lines.append("threshold_K: none")
    else:
        lines.append(f"threshold_K: {_fmt(verdict.threshold_k)}")
    if verdict.crossings:
        lines.append("crossings: " + ",".join(_fmt(c) for c in verdict.crossings))
    else:
        lines.append("crossings: none")
    if verdict.tail is None:
        lines.append("tail: none")
    else:
        lines.append(
            f"tail: {verdict.tail.relation.value} from k={_fmt(verdict.tail.certified_from)}"
            f" ({verdict.tail.rationale})"
        )
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_envelope(args: argparse.Namespace) -> int:
    doc = _load_model(args.model)
    r = _resolve_r(args, doc)
    ks = _resolve_ks(args, doc)
    ids = [i for i in args.ids.split(",") if i]
    if not ids:
        raise ValueError("no ids given")
    items = [(pid, _prospect(doc, pid)) for pid in ids]
    segments = orders.upper_envelope(items, r, (ks[0], ks[-1]))
    lines = ["k_lo,k_hi,ids"]
    for seg in segments:
        lines.append(f"{_fmt(seg.k_lo)},{_fmt(seg.k_hi)},{';'.join(seg.ids)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _require_tree(doc: ModelDocument) -> trees.DecisionTree:
    if doc.tree is None:
        raise ValueError("model declares no decision tree")
    return doc.tree


def cmd_rollback(args: argparse.Namespace) -> int:
    doc = _load_model(args.model)
    r = _resolve_r(args, doc)
    ce, policy = trees.rollback(_require_tree(doc), r)
    lines = [f"ce: {_fmt(ce)}"]
    for nid in sorted(policy.choice):
        lines.append(f"choose: {nid}={policy.choice[nid]}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_policies(args: argparse.Namespace) -> int:
    doc = _load_model(args.model)
    r = _resolve_r(args, doc)
    tree = _require_tree(doc)
    policies = trees.enumerate_policies(tree)
    prospects = [trees.policy_prospect(tree, policy) for policy in policies]
    lines = []
    ces = valuation._certain_equivalents_at(prospects, r)
    for index, (policy, prospect, ce) in enumerate(zip(policies, prospects, ces)):
        choice = ",".join(f"{nid}={policy.choice[nid]}" for nid in sorted(policy.choice))
        support = ";".join(
            f"{_fmt(v)}:{_fmt(m)}" for v, m in zip(prospect.values, prospect.masses)
        )
        lines.append(f"policy {index}: ce={_fmt(ce)} choice=[{choice}] support=[{support}]")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexcurve",
        description="Certain-equivalent flexibility curves and orders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="path to a JSON model document")
        p.add_argument("--r", type=float, default=None, help="risk aversion (1/money)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("ce", help="certain equivalent of one prospect")
    common(p)
    p.add_argument("--id", required=True)
    p.set_defaults(func=cmd_ce)

    p = sub.add_parser("curve", help="CSV of flexibility curves")
    common(p)
    p.add_argument("--ids", required=True, help="comma-separated prospect/node ids")
    p.add_argument("--k", default=None, help="k grid as lo:hi:steps (geometric)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("compare", help="flexibility verdict for a pair")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("envelope", help="upper-envelope interval table")
    common(p)
    p.add_argument("--ids", required=True, help="comma-separated prospect ids")
    p.add_argument("--k", default=None, help="k range as lo:hi:steps")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("rollback", help="tree rollback: root CE and optimal policy")
    common(p)
    p.set_defaults(func=cmd_rollback)

    p = sub.add_parser("policies", help="enumerate policies with prospects and CEs")
    common(p)
    p.set_defaults(func=cmd_policies)

    return parser


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error:parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OverflowError as exc:
        print(f"error:range: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except ValueError as exc:
        print(f"error:domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
