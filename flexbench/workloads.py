"""Seeded inputs, operations and checks for the three benchmark workloads.

A workload is generated from its seed as plain data (nothing here calls
flexcurve while generating), built into library objects through the
library's own constructors, and then served as a fixed *round* of
operations that the worker cycles through.  Every round has the same
stratified composition, so two seeds differ in their numbers, not in their
mix of operation kinds, support sizes or tree sizes.  No operation of a
round is expected to fail.

Inputs that reproduce the known defects (``KNOWN_DEFECTS``) are kept apart
as *defect operations*: the worker runs each once per run, untimed, and
reports which defects still reproduce.

Prospect specs are tuples:

    ("discrete", [(value, mass), ...])      make_discrete
    ("gaussian", mean, variance)            make_gaussian
    ("affine", base, scale, offset)         Affine
    ("shift", base, offset)                 shift
    ("add", x, z)                           add_independent
    ("stigler", data, 0 | 1)                stigler_scenario, one side

Tree nodes are ("terminal", payoff), ("chance", [(p, id)]) or
("decision", [(label, id)]).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import oracle

# Failure kinds that reproduce defects recorded in ROADMAP.md.  Only the
# defect operations are there to show them; in a round, a failure of any
# kind is a failure.
KNOWN_DEFECTS = {
    "representation_variant_verdict": "compare((a+b)+c, a+(b+c)) is not equally_flexible",
    "representation_variant_exception": "compare((a+b)+c, a+(b+c)) raises IndexError when the masses differ only at the top value",
    "deep_chain_recursion": "RecursionError (a shell user sees exit code 1) past the recursion limit",
    "envelope_missed_segment": "upper_envelope misses a curve that is on top only between two of its grid points",
}

# upper_envelope compares the curves only on a geometric grid with this many
# points a decade (orders.GRID_POINTS_PER_DECADE), so a curve on top only
# between two grid points is missed: the fixed-grid heuristic ROADMAP item 3
# records.
ENVELOPE_GRID_PER_DECADE = 512

# CLI exit codes a caller may see: ok, usage, parse, domain, range.
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4, 5)

# Policy counts above this are not worth counting exactly.
POLICY_COUNT_CAP = 10_000


def _discrete(rng: random.Random, n: int, lo: float, hi: float) -> tuple:
    """Distinct non-integer values with arbitrary float masses summing to 1."""
    values = [rng.uniform(lo, hi) for _ in range(n)]
    weights = [rng.uniform(0.02, 1.0) for _ in range(n)]
    total = math.fsum(weights)
    return ("discrete", [(v, w / total) for v, w in zip(values, weights)])


def _spaced(rng: random.Random, n: int, lo: float, hi: float, gap: float = 4.0, grid: float = 0.0) -> tuple:
    """Like ``_discrete`` with values at least ``gap`` apart.

    With ``grid`` > 0 every value is a multiple of it, so sums of such
    values are exact in floating point.
    """
    slots = rng.sample(range(int((hi - lo) // (2 * gap))), n)
    values = [lo + 2 * gap * k + rng.uniform(0.0, gap) for k in slots]
    if grid:
        values = [round(v / grid) * grid for v in values]
    weights = [rng.uniform(0.02, 1.0) for _ in range(n)]
    total = math.fsum(weights)
    return ("discrete", [(v, w / total) for v, w in zip(values, weights)])


def _low_gap(dx: "oracle.Dist", dy: "oracle.Dist") -> float:
    """Distance between the two lowest support values of a pair, merged."""
    merged = np.unique(np.concatenate([dx.values + dx.g_mean, dy.values + dy.g_mean]))
    return float(merged[1] - merged[0]) if merged.size > 1 else math.inf


def _moved(spec: tuple, delta: float) -> tuple:
    return ("discrete", [(v + delta, m) for v, m in spec[1]])


def _stratum(rng: random.Random, i: int, n_items: int) -> float:
    """Where, as a share of an envelope's log k range, curve i of n_items
    meets curve 0.

    Curve i meets it inside the middle of the i-th of n_items - 1 equal
    strata, so with at most three curves no two breakpoints of the
    envelope come closer than 0.3 of the range (for curves that are close
    to straight over it).  A narrower envelope segment could fall between
    two points of the library's k grid: that is a known defect, shown by a
    defect operation of its own rather than by chance.
    """
    return (i - 1 + rng.uniform(0.3, 0.7)) / (n_items - 1)


def _bucket(n: int, edges: List[int]) -> str:
    if n == 0:
        return "unbounded"
    for lo, hi in zip(edges, edges[1:]):
        if lo <= n < hi:
            return f"{lo}-{hi - 1}"
    return f">={edges[-1]}"


def check_envelope(items, r: float, k: Tuple[float, float], segments) -> Optional[Tuple[str, str]]:
    """Oracle check of an upper_envelope result, as (kind, detail) or None.

    A wrong envelope that is still right at every point of the library's
    own k grid is the known grid defect; any other is an oracle failure.
    """
    problem = oracle.check_envelope(items, r, k[0], k[1], segments)
    if problem is None:
        return None
    n = max(2, math.ceil(ENVELOPE_GRID_PER_DECADE * math.log10(k[1] / k[0])) + 1)
    if oracle.check_tiling(k[0], k[1], segments) is None and oracle.right_on_grid(items, r, np.geomspace(k[0], k[1], n), segments):
        return "envelope_missed_segment", problem[:200]
    return "oracle:envelope", problem[:200]


def build_prospect(lib, spec: tuple, memo: Dict[int, Any]):
    """Library object for a spec; shared sub-specs are built once."""
    key = id(spec)
    if key in memo:
        return memo[key]
    P = lib.prospects
    kind = spec[0]
    if kind == "discrete":
        out = P.make_discrete(spec[1])
    elif kind == "gaussian":
        out = P.make_gaussian(spec[1], spec[2])
    elif kind == "affine":
        out = P.Affine(build_prospect(lib, spec[1], memo), spec[2], spec[3])
    elif kind == "shift":
        out = P.shift(build_prospect(lib, spec[1], memo), spec[2])
    elif kind == "add":
        out = P.add_independent(build_prospect(lib, spec[1], memo), build_prospect(lib, spec[2], memo))
    elif kind == "stigler":
        data = spec[1]
        if id(data) not in memo:
            S = lib.scenarios
            memo[id(data)] = S.stigler_scenario(S.StiglerSpec(*data))
        out = memo[id(data)][spec[2]]
    else:
        raise ValueError(f"unknown spec kind {kind!r}")
    memo[key] = out
    return out


def model_prospects(specs: Dict[str, tuple]) -> Dict[str, dict]:
    """Model-document entries for named specs; composite specs get helper ids."""
    out: Dict[str, dict] = {}

    def put(pid: str, spec: tuple) -> str:
        kind = spec[0]
        if kind == "discrete":
            out[pid] = {"kind": "discrete", "points": [[v, m] for v, m in spec[1]]}
        elif kind == "gaussian":
            out[pid] = {"kind": "gaussian", "mean": spec[1], "variance": spec[2]}
        elif kind in ("affine", "shift"):
            base = put(pid + "_b", spec[1])
            scale, offset = (spec[2], spec[3]) if kind == "affine" else (1.0, spec[2])
            out[pid] = {"kind": "affine", "base": base, "scale": scale, "offset": offset}
        elif kind == "add":
            out[pid] = {"kind": "sum", "terms": [put(pid + "_x", spec[1]), put(pid + "_z", spec[2])]}
        else:
            raise ValueError(f"spec kind {kind!r} has no model form")
        return pid

    for pid, spec in specs.items():
        put(pid, spec)
    return out


def run_cli(lib, argv: List[str]) -> Tuple[int, str, str]:
    """``flexcurve.cli.main`` in-process with captured stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    """Base: subclasses fill ``ops`` (the round) in ``generate``."""

    name = ""
    # Operations per traced pass, per second of ``--seconds``.
    traced_ops_per_second = 1.0

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: List[dict] = []
        # Each defect operation names, under "reproduces", the failure kinds
        # it is there to show.
        self.defect_ops: List[dict] = []
        self.generate()
        self._interleave()
        for j, op in enumerate(self.defect_ops):
            op["index"] = len(self.ops) + j

    def _interleave(self) -> None:
        """Order the round so that every prefix has the round's mix.

        Each kind of operation is shuffled, then the kinds are merged by
        relative position, so a run that stops part-way through a round
        has still run each kind in its share.
        """
        groups: Dict[str, List[dict]] = {}
        for op in self.ops:
            groups.setdefault(f"{op['kind']}:{op.get('category', '')}", []).append(op)
        keyed = []
        for label in sorted(groups):
            group = groups[label]
            self.rng.shuffle(group)
            keyed += [((i + self.rng.random()) / len(group), op) for i, op in enumerate(group)]
        keyed.sort(key=lambda pair: pair[0])
        self.ops = [op for _, op in keyed]
        for i, op in enumerate(self.ops):
            op["index"] = i

    # Subclass hooks -------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def build(self, lib) -> Any:
        """Library objects for the round: this is what ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self, lib, objs: Any, workdir: Path) -> None:
        """Untimed preparation after the build (files, reference values)."""

    def run(self, lib, objs: Any, op: dict) -> Any:
        raise NotImplementedError

    def key(self, result: Any) -> Any:
        return result

    def check(self, op: dict, result: Any) -> Optional[Tuple[str, str]]:
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError

    def cold_model(self) -> Tuple[dict, List[str], float]:
        """(document, argv without --model, expected CE) for the cold CLI call."""
        raise NotImplementedError

    # Shared -------------------------------------------------------------
    def classify_exception(self, op: dict, exc: BaseException) -> Tuple[str, str]:
        return f"exception:{type(exc).__name__}", f"{op['kind']}: {exc}"[:200]


# ---------------------------------------------------------------------------


class PairCompare(Workload):
    name = "pair_compare"
    traced_ops_per_second = 2.0

    # Round composition: (pair category, count) per operation kind.  Eight
    # of 128 operations compare near-tie pairs.
    COMPARE = [
        ("discrete", 12), ("crossing", 14), ("gaussian", 8), ("disc_gauss", 8),
        ("affine", 6), ("convolved", 6), ("stigler", 6),
        ("incomparable", 4), ("near_tie", 8),
    ]
    THRESHOLD = [
        ("discrete", 6), ("crossing", 8), ("gaussian", 4), ("disc_gauss", 4),
        ("affine", 4), ("convolved", 2), ("stigler", 4),
    ]
    ENVELOPES = 24
    # Defect operations: compares of one distribution built two ways.
    REP_VARIANTS = 8
    R = 0.02
    # The tail certificate's reach, hence the length of the crossing scan,
    # grows as 1 / (gap between the two lowest support values).  Pairs of
    # the other bounded categories are redrawn until that gap is at least
    # MIN_GAP, so a random near-tie cannot make one seed's run slow; the
    # near-tie pairs instead have their gaps on a fixed ladder, and the
    # mass at the lowest point fixed, so their scans repeat across seeds.
    MIN_GAP = 4.0
    NEAR_TIE_GAPS = (1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 0.0003)
    NEAR_TIE_LOW_MASS = 0.1
    # Threshold operations where X wins the far tail (a scan runs), out of 4.
    X_TAIL_OF_4 = 3

    def generate(self) -> None:
        for op_kind, plan in (("compare", self.COMPARE), ("threshold", self.THRESHOLD)):
            for category, count in plan:
                for i in range(count):
                    if category == "near_tie":
                        self.ops.append(self._near_tie(self.NEAR_TIE_GAPS[i], i % 2 == 0))
                        continue
                    x, y = self._spread_pair(category)
                    # The scan's reach grows as 1 / r, so r follows a ladder
                    # within each category: a random r would make the mix's
                    # median scan length differ between seeds.
                    r = self.R * (0.5 + (i + 0.5) / count)
                    if op_kind == "threshold":
                        # Orient the pair so the tail winner is X in a fixed share.
                        x_wins = oracle.x_wins_tail(oracle.dist(x), oracle.dist(y), r)
                        if x_wins != (i % 4 < self.X_TAIL_OF_4):
                            x, y = y, x
                    self.ops.append({"kind": op_kind, "category": category, "x": x, "y": y, "r": r})
        for i in range(self.ENVELOPES):
            self.ops.append(self._envelope(2 + i % 2))
        variants = ("representation_variant_verdict", "representation_variant_exception")
        for i in range(self.REP_VARIANTS):
            x, y = self._pair("rep_variant")
            self.defect_ops.append({"kind": "compare", "category": "rep_variant", "x": x, "y": y,
                                    "r": self.R * (0.5 + (i + 0.5) / self.REP_VARIANTS), "reproduces": variants})
        self.defect_ops.append(self._missed_segment_envelope())
        for op in self.ops + self.defect_ops:
            specs = [op["x"], op["y"]] if "x" in op else [s for _, s in op["items"]]
            op["dists"] = [oracle.dist(s) for s in specs]

    def _spread_pair(self, category: str) -> Tuple[tuple, tuple]:
        for _ in range(200):
            x, y = self._pair(category)
            if category in ("gaussian", "disc_gauss", "incomparable"):
                return x, y
            if _low_gap(oracle.dist(x), oracle.dist(y)) >= self.MIN_GAP:
                return x, y
        raise RuntimeError(f"no {category} pair with a low gap of {self.MIN_GAP} in 200 draws")

    def _pair(self, category: str) -> Tuple[tuple, tuple]:
        rng = self.rng
        if category == "discrete":
            return _spaced(rng, rng.randint(2, 8), -50, 150), _spaced(rng, rng.randint(2, 8), -50, 150)
        if category == "crossing":
            # A narrow and a wide prospect moved so their curves meet at k*.
            x = _spaced(rng, rng.randint(2, 6), 20, 80)
            y = _spaced(rng, rng.randint(2, 8), -30, 170)
            k_star = rng.uniform(1.3, 12.0)
            gap = oracle.ce(oracle.dist(x), k_star * self.R)[0] - oracle.ce(oracle.dist(y), k_star * self.R)[0]
            return x, _moved(y, gap)
        if category == "gaussian":
            m1, v1 = rng.uniform(0, 100), rng.uniform(10, 400)
            v2 = rng.uniform(10, 400)
            if rng.random() < 0.5:
                m2 = m1 + (v2 - v1) * rng.uniform(1.3, 12.0) * self.R / 2.0
            else:
                m2 = rng.uniform(0, 100)
            return ("gaussian", m1, v1), ("gaussian", m2, v2)
        if category == "disc_gauss":
            base = _spaced(rng, rng.randint(2, 6), -20, 100)
            g = ("gaussian", rng.uniform(-10, 10), rng.uniform(100, 600))
            return ("add", base, g), _spaced(rng, rng.randint(2, 8), -50, 150)
        if category == "affine":
            base = _spaced(rng, rng.randint(2, 8), -50, 100)
            return ("affine", base, rng.uniform(0.5, 2.0), rng.uniform(-20, 20)), _spaced(rng, rng.randint(2, 8), -50, 150)
        if category == "convolved":
            parts = [_spaced(rng, rng.randint(2, 4), -20, 50) for _ in range(rng.randint(2, 3))]
            x = ("add", parts[0], parts[1])
            if len(parts) == 3:
                x = ("add", x, parts[2])
            return x, _spaced(rng, rng.randint(4, 8), -50, 150)
        if category == "stigler":
            n = rng.randint(3, 6)
            qs = sorted(rng.uniform(1.0, 10.0) for _ in range(n))
            w = [rng.uniform(0.05, 1.0) for _ in range(n)]
            total = math.fsum(w)
            a1, b1 = rng.uniform(0, 20), rng.uniform(2, 8)
            a2, b2 = rng.uniform(0, 20), rng.uniform(0.2, 1.2)
            data = (
                tuple((q, p / total) for q, p in zip(qs, w)),
                {q: a1 + b1 * q for q in qs},
                {q: a2 + b2 * q * q for q in qs},
            )
            return ("stigler", data, 0), ("stigler", data, 1)
        if category == "rep_variant":
            # Values on a 1/8 grid add exactly, so the two sides differ only
            # in how their masses were rounded; masses stay arbitrary floats.
            a, b, c = (_spaced(rng, rng.randint(2, 4), -20, 50, grid=0.125) for _ in range(3))
            return ("add", ("add", a, b), c), ("add", a, ("add", b, c))
        if category == "incomparable":
            g1 = ("gaussian", rng.uniform(-10, 10), rng.uniform(50, 300))
            g2 = ("gaussian", rng.uniform(-10, 10), rng.uniform(50, 300))
            return (("add", _spaced(rng, 3, -20, 60), g1), ("add", _spaced(rng, 3, -20, 60), g2))
        raise ValueError(category)

    def _near_tie(self, gap: float, lower_is_x: bool) -> dict:
        """A compare whose pair's lowest support values are ``gap`` apart."""
        rng = self.rng
        lower = _spaced(rng, rng.randint(2, 8), -50, 150)
        points = sorted(lower[1])
        rest = math.fsum(m for _, m in points[1:])
        lower = ("discrete", [(points[0][0], self.NEAR_TIE_LOW_MASS)]
                 + [(v, m / rest * (1.0 - self.NEAR_TIE_LOW_MASS)) for v, m in points[1:]])
        upper = _spaced(rng, rng.randint(2, 8), -50, 150)
        upper = _moved(upper, points[0][0] + gap - min(v for v, _ in upper[1]))
        x, y = (lower, upper) if lower_is_x else (upper, lower)
        return {"kind": "compare", "category": "near_tie", "x": x, "y": y, "r": self.R}

    def _envelope(self, n_items: int) -> dict:
        rng = self.rng
        k_hi = rng.uniform(2.0, 8.0)
        base = _spaced(rng, rng.randint(2, 8), 20, 90)
        items = [("e0", base)]
        for i in range(1, n_items):
            if rng.random() < 0.25:
                spec = ("add", _spaced(rng, 3, 0, 80), ("gaussian", rng.uniform(-5, 5), rng.uniform(20, 200)))
            else:
                spec = _spaced(rng, rng.randint(2, 8), -30, 170)
            k_star = math.exp(math.log(k_hi) * _stratum(rng, i, n_items))
            gap = oracle.ce(oracle.dist(base), k_star * self.R)[0] - oracle.ce(oracle.dist(spec), k_star * self.R)[0]
            items.append((f"e{i}", ("shift", spec, gap)))
        return {"kind": "envelope", "category": "envelope", "items": items, "r": self.R, "k": (1.0, k_hi)}

    def _missed_segment_envelope(self) -> dict:
        """Three curves where the middle one is on top only inside the last
        gap of the library's k grid, ahead of the point its check samples.

        e1 falls steeply, e2 is flat and e0 is in between; e1 and e2 are
        moved to meet e0 at 10 % and 50 % of that gap (in log k), so e0 is
        on top only between them.
        """
        k_lo = 2.0
        k_hi = k_lo * 10.0 ** 0.02
        n = max(2, math.ceil(ENVELOPE_GRID_PER_DECADE * math.log10(k_hi / k_lo)) + 1)
        grid = np.geomspace(k_lo, k_hi, n)
        step = grid[-1] / grid[-2]
        meet = (grid[-2] * step ** 0.1, grid[-2] * step ** 0.5)
        middle = ("discrete", [(0.0, 0.5), (20.0, 0.5)])
        steep = ("discrete", [(-20.0, 0.5), (40.0, 0.5)])
        flat = ("discrete", [(10.0, 1.0)])
        items = [("e0", middle)]
        for pid, spec, k in (("e1", steep, meet[0]), ("e2", flat, meet[1])):
            gap = oracle.ce(oracle.dist(middle), k * self.R)[0] - oracle.ce(oracle.dist(spec), k * self.R)[0]
            items.append((pid, ("shift", spec, gap)))
        return {"kind": "envelope", "category": "missed_segment", "items": items, "r": self.R,
                "k": (k_lo, k_hi), "reproduces": ("envelope_missed_segment",)}

    def build(self, lib) -> Any:
        memo: Dict[int, Any] = {}
        objs = []
        for op in self.ops + self.defect_ops:
            if op["kind"] == "envelope":
                objs.append([(pid, build_prospect(lib, s, memo)) for pid, s in op["items"]])
            else:
                objs.append((build_prospect(lib, op["x"], memo), build_prospect(lib, op["y"], memo)))
        return objs

    def run(self, lib, objs, op):
        O = lib.orders
        built = objs[op["index"]]
        if op["kind"] == "compare":
            v = O.compare(built[0], built[1], op["r"])
            return (v.classification.value, v.threshold_k, v.crossings, v.tail.certified_from if v.tail else None)
        if op["kind"] == "threshold":
            return O.find_threshold(built[0], built[1], op["r"])
        segments = O.upper_envelope(built, op["r"], op["k"])
        return tuple((s.k_lo, s.k_hi, s.ids) for s in segments)

    def classify_exception(self, op, exc):
        # The exact mass comparison behind the wrong verdict indexes past
        # the support when the 1-ulp differences sit only at its top value.
        if op["category"] == "rep_variant" and isinstance(exc, IndexError):
            return "representation_variant_exception", f"{op['kind']}: {exc}"[:200]
        return super().classify_exception(op, exc)

    def check(self, op, result):
        d = op["dists"]
        if op["kind"] == "compare":
            classification, threshold, crossings, certified = result
            if op["category"] == "rep_variant" and classification != "equally_flexible":
                return "representation_variant_verdict", f"{classification} on one distribution built two ways"
            problem = oracle.check_verdict(d[0], d[1], op["r"], classification, threshold, crossings, certified)
        elif op["kind"] == "threshold":
            problem = oracle.check_threshold(d[0], d[1], op["r"], result, 16.0)
        else:
            return check_envelope([(pid, dist) for (pid, _), dist in zip(op["items"], d)], op["r"], op["k"], result)
        return None if problem is None else (f"oracle:{op['kind']}", problem[:200])

    def properties(self) -> dict:
        sizes: Dict[str, int] = {}
        gaps: Dict[str, int] = {}
        crossing_pairs = pairs = low_gap_pairs = 0
        for op in self.ops:
            for dist in op["dists"]:
                n = int(np.unique(dist.values).size) if dist.g_var == 0.0 else 0
                b = _bucket(n, [1, 2, 5, 9, 17, 33, 65])
                sizes[b] = sizes.get(b, 0) + 1
            if "x" in op:
                pairs += 1
                if oracle.sign_changes(op["dists"][0], op["dists"][1], op["r"], oracle.scan_ks(16.0, 96)):
                    crossing_pairs += 1
                dx, dy = op["dists"]
                if dx.g_var > 0.0 or dy.g_var > 0.0:
                    b = "unbounded"
                else:
                    gap = _low_gap(dx, dy)
                    low_gap_pairs += gap < self.MIN_GAP
                    b = next((f"<{e:g}" for e in (0.0005, 0.005, 0.05, 0.5, self.MIN_GAP) if gap < e), f">={self.MIN_GAP:g}")
                gaps[b] = gaps.get(b, 0) + 1
        mix: Dict[str, int] = {}
        for op in self.ops:
            label = f"{op['kind']}:{op['category']}"
            mix[label] = mix.get(label, 0) + 1
        return {
            "round_ops": len(self.ops),
            "support_size_histogram": dict(sorted(sizes.items())),
            "pairs": pairs,
            "share_pairs_with_crossing": crossing_pairs / pairs,
            "low_gap_histogram": dict(sorted(gaps.items())),
            "share_pairs_low_gap_below_min_gap": low_gap_pairs / pairs,
            "op_mix": dict(sorted(mix.items())),
        }

    def cold_model(self):
        op = next(o for o in self.ops if o["category"] == "discrete")
        doc = {"prospects": model_prospects({"x": op["x"]}), "defaults": {"r": op["r"]}}
        return doc, ["ce", "--id", "x"], float(oracle.ce(op["dists"][0], op["r"])[0])


# ---------------------------------------------------------------------------


class WideSupport(Workload):
    name = "wide_support"
    traced_ops_per_second = 1.5

    R = 0.01
    # Support sizes of the exact convolutions, one pool prospect each; the
    # lazy discrete + Gaussian sums reuse pool prospects 1, 4 and 7.
    SIZES = [10_000, 12_600, 15_800, 20_000, 25_100, 31_600, 39_800, 50_000]
    LAZY_BASES = [1, 4, 7]
    CURVE_STEPS = [25, 40, 60, 80, 100, 125, 150, 200]
    # Most operations are single CEs, so op_p50_ms is the latency of one
    # CE over a wide support and op_p90_ms that of the large curves.
    CES = 58
    ENVELOPES = 12

    def generate(self) -> None:
        rng = self.rng
        self.pool: List[tuple] = []
        for target in self.SIZES:
            sizes = [rng.randint(6, 12) for _ in range(rng.randint(2, 3))]
            spec = None
            for n in sizes + [max(2, round(target / math.prod(sizes)))]:
                term = _discrete(rng, n, -20, 40)
                spec = term if spec is None else ("add", spec, term)
            self.pool.append(spec)
        for i in self.LAZY_BASES:
            self.pool.append(("add", self.pool[i], ("gaussian", rng.uniform(-5, 5), rng.uniform(20, 200))))
        self.pool_dists = [oracle.dist(s) for s in self.pool]
        # Which prospect each operation uses is fixed, not drawn, so every
        # seed has the same steps x support-size work; the seed sets the
        # values, masses, k ranges and Gaussian parts.
        n_exact = len(self.SIZES)
        curves = [(steps, n_exact - 1 - i) for i, steps in enumerate(self.CURVE_STEPS)]
        curves += [(steps, i) for i, steps in enumerate(self.CURVE_STEPS)]
        for j, base in enumerate(self.LAZY_BASES):
            curves.append((self.CURVE_STEPS[base], n_exact + j))
        for steps, p in curves:
            lo = rng.uniform(1.0, 4.0)
            hi = lo * rng.uniform(4.0, 25.0)
            self.ops.append({"kind": "curve", "p": p, "ks": tuple(np.geomspace(lo, hi, steps).tolist())})
        for i in range(self.CES):
            k = math.exp(math.log(50.0) * (i + rng.random()) / self.CES)
            self.ops.append({"kind": "ce", "p": i % len(self.pool), "rho": self.R * k})
        for i in range(self.ENVELOPES):
            k_lo = rng.uniform(1.5, 8.0)
            k_hi = k_lo * (1.03 + 0.09 * (i + rng.random()) / self.ENVELOPES)
            n_items = 2 + i % 2
            chosen = [(i * 3 + j * 4) % len(self.pool) for j in range(n_items)]
            items = [("w0", chosen[0], 0.0)]
            for j, p in enumerate(chosen[1:], 1):
                # Move each curve to meet the first inside the range.
                k = k_lo * (k_hi / k_lo) ** _stratum(rng, j, n_items)
                gap = oracle.ce(self.pool_dists[chosen[0]], k * self.R)[0] - oracle.ce(self.pool_dists[p], k * self.R)[0]
                items.append((f"w{j}", p, gap))
            self.ops.append({"kind": "envelope", "items": items, "k": (k_lo, k_hi)})

    def build(self, lib):
        memo: Dict[int, Any] = {}
        pool = [build_prospect(lib, s, memo) for s in self.pool]
        envelopes = {}
        for op in self.ops:
            if op["kind"] == "envelope":
                envelopes[id(op)] = [(pid, lib.prospects.shift(pool[p], gap)) for pid, p, gap in op["items"]]
        return pool, envelopes

    def run(self, lib, objs, op):
        pool, envelopes = objs
        V = lib.valuation
        if op["kind"] == "curve":
            c = V.flexibility_curve(pool[op["p"]], self.R, op["ks"])
            return c.ces, c.tail_limit
        if op["kind"] == "ce":
            return V.certain_equivalent(pool[op["p"]], op["rho"])
        segments = lib.orders.upper_envelope(envelopes[id(op)], self.R, op["k"])
        return tuple((s.k_lo, s.k_hi, s.ids) for s in segments)

    def check(self, op, result):
        if op["kind"] == "curve":
            d = self.pool_dists[op["p"]]
            ces, tail = result
            ks = np.asarray(op["ks"])
            idx = np.unique(np.linspace(0, ks.size - 1, 12).round().astype(int))
            want = oracle.ce(d, ks[idx] * self.R)
            for i, w in zip(idx, want):
                if not oracle.close(ces[i], w):
                    return "oracle:curve", f"CE at k={ks[i]:.6g} is {ces[i]!r}, reference {w!r}"
            if not (tail == oracle.worst(d) or oracle.close(tail, oracle.worst(d))):
                return "oracle:curve", f"tail limit {tail!r}, reference {oracle.worst(d)!r}"
            return None
        if op["kind"] == "ce":
            want = oracle.ce(self.pool_dists[op["p"]], op["rho"])[0]
            if not oracle.close(result, want):
                return "oracle:ce", f"CE {result!r}, reference {want!r}"
            return None
        items = [
            (pid, oracle.Dist(self.pool_dists[p].values + gap, self.pool_dists[p].masses,
                              self.pool_dists[p].g_mean, self.pool_dists[p].g_var))
            for pid, p, gap in op["items"]
        ]
        return check_envelope(items, self.R, op["k"], result)

    def properties(self) -> dict:
        sizes: Dict[str, int] = {}
        for op in self.ops:
            ps = [op["p"]] if "p" in op else [p for _, p, _ in op["items"]]
            for p in ps:
                b = _bucket(self.pool_dists[p].values.size, [1, 5_000, 15_000, 25_000, 35_000, 45_000, 60_000])
                b += "+gaussian" if self.pool_dists[p].g_var > 0.0 else ""
                sizes[b] = sizes.get(b, 0) + 1
        steps: Dict[str, int] = {}
        for op in self.ops:
            if op["kind"] == "curve":
                steps[str(len(op["ks"]))] = steps.get(str(len(op["ks"])), 0) + 1
        return {
            "round_ops": len(self.ops),
            "support_size_histogram": dict(sorted(sizes.items())),
            "pool_support_sizes": [int(d.values.size) for d in self.pool_dists],
            "curve_steps_histogram": steps,
            "op_mix": {k: sum(1 for op in self.ops if op["kind"] == k) for k in ("curve", "ce", "envelope")},
        }

    def cold_model(self):
        spec = self.pool[0]
        doc = {"prospects": model_prospects({"w": spec}), "defaults": {"r": self.R}}
        return doc, ["ce", "--id", "w"], float(oracle.ce(self.pool_dists[0], self.R)[0])


# ---------------------------------------------------------------------------


class CliTrees(Workload):
    name = "cli_trees"
    traced_ops_per_second = 2.0

    # Node counts of the random trees, from 20 to 2,000 on a log scale.
    RANDOM_SIZES = [20, 34, 58, 100, 170, 290, 500, 850, 1_450, 2_000]
    # Chance chains past the default recursion limit of 1,000; their
    # rollbacks are the defect operations.
    DEEP_LENGTHS = [1_500, 2_500]
    # Round composition.
    ROLLBACKS = 20
    CURVES = 18
    CES = 12
    POLICIES = 10
    # Subtree size of a random tree's curve node, as a share of the tree.
    CURVE_SHARES = (0.01, 0.02, 0.05, 0.1)

    def generate(self) -> None:
        rng = self.rng
        self.docs: List[dict] = []
        for shape in self.ADAPTIVE_SHAPES:
            self.docs.append({"kind": "adaptive", "adaptive": self._adaptive(shape)})
        for n in self.RANDOM_SIZES:
            self.docs.append({"kind": "random", "nodes": self._random_tree(n), "root": "n0"})
        for length in self.DEEP_LENGTHS:
            self.docs.append({"kind": "deep", "nodes": self._chain(length), "root": "c0"})
        for doc in self.docs:
            doc["r"] = rng.uniform(0.005, 0.03)
            doc["prospects"] = {
                "pd": _discrete(rng, rng.randint(2, 8), 0, 100),
                "pg": ("gaussian", rng.uniform(0, 100), rng.uniform(10, 400)),
                "ps": ("add", _discrete(rng, rng.randint(2, 5), 0, 50), _discrete(rng, rng.randint(2, 5), 0, 50)),
                "pa": ("affine", _discrete(rng, rng.randint(2, 6), 0, 60), rng.uniform(0.5, 2.0), rng.uniform(-10, 10)),
            }
            doc["dists"] = {pid: oracle.dist(s) for pid, s in doc["prospects"].items()}
        shallow = [i for i, d in enumerate(self.docs) if d["kind"] != "deep"]
        deep = [i for i, d in enumerate(self.docs) if d["kind"] == "deep"]
        for i in range(self.ROLLBACKS):
            self.ops.append({"kind": "rollback", "doc": shallow[i % len(shallow)]})
        for i in deep:
            self.defect_ops.append({"kind": "rollback", "category": "deep_chain", "doc": i,
                                    "reproduces": ("deep_chain_recursion",)})
        for i in range(self.CURVES):
            # On a plan the node is its root; on a random tree it is the node
            # whose subtree is closest to a share of the tree (see prepare).
            # Shares and steps follow ladders, so node_curve work is alike
            # across seeds.
            self.ops.append({"kind": "curve", "doc": shallow[i % len(shallow)],
                             "pid": rng.choice(["pd", "pg", "ps", "pa"]),
                             "hi": rng.uniform(2.0, 10.0), "steps": 5 + 5 * (i % 5),
                             "share": self.CURVE_SHARES[i % len(self.CURVE_SHARES)]})
        for i in range(self.CES):
            self.ops.append({"kind": "ce", "doc": shallow[(i * 5) % len(shallow)], "pid": rng.choice(["pd", "pg", "ps", "pa"])})
        adaptive = [i for i, d in enumerate(self.docs) if d["kind"] == "adaptive"]
        for i in range(self.POLICIES):
            self.ops.append({"kind": "policies", "doc": adaptive[i % len(adaptive)]})

    # Shapes of the commit-observe-react plans: (commitments, observations,
    # reactions); even-numbered commitments may react, odd ones are locked.
    # They have 5, 17, 54 and 34 policies.
    ADAPTIVE_SHAPES = [(2, 2, 2), (3, 3, 2), (2, 3, 3), (4, 4, 2)]

    def _adaptive(self, shape: Tuple[int, int, int]) -> dict:
        rng = self.rng
        n_c, n_o, n_r = shape
        reactions = [f"a{i}" for i in range(n_r)]
        commitments = []
        for i in range(n_c):
            flexible = i % 2 == 0 or n_c == 2 and n_r == 3
            commitments.append((f"c{i}", rng.uniform(0, 20), flexible, None if flexible else rng.choice(reactions)))
        w = [rng.uniform(0.05, 1.0) for _ in range(n_o)]
        total = math.fsum(w)
        observations = [(f"o{j}", x / total) for j, x in enumerate(w)]
        payoffs = {
            (c[0], o, a): rng.uniform(0, 100) for c in commitments for o, _ in observations for a in reactions
        }
        return {"commitments": commitments, "observations": observations, "reactions": reactions, "payoffs": payoffs}

    def _random_tree(self, n_nodes: int) -> Dict[str, tuple]:
        """Grow a tree by expanding random leaves until it has ~n_nodes nodes."""
        rng = self.rng
        kids: Dict[str, List[str]] = {"n0": []}
        leaves = ["n0"]
        count = 1
        while count < n_nodes - 1:
            leaf = leaves.pop(rng.randrange(len(leaves)))
            width = min(rng.randint(2, 4), n_nodes - count)
            for _ in range(width):
                cid = f"n{count}"
                count += 1
                kids[leaf].append(cid)
                kids[cid] = []
                leaves.append(cid)
        nodes: Dict[str, tuple] = {}
        for nid, children in kids.items():
            if not children:
                nodes[nid] = ("terminal", rng.uniform(0, 100))
            elif rng.random() < 0.5:
                nodes[nid] = ("decision", [(f"d{j}", c) for j, c in enumerate(children)])
            else:
                w = [rng.uniform(0.05, 1.0) for _ in children]
                total = math.fsum(w)
                nodes[nid] = ("chance", [(x / total, c) for x, c in zip(w, children)])
        return nodes

    def _chain(self, length: int) -> Dict[str, tuple]:
        rng = self.rng
        nodes: Dict[str, tuple] = {}
        for i in range(length):
            p = rng.uniform(0.05, 0.3)
            nxt = f"c{i + 1}" if i + 1 < length else f"t{i}b"
            nodes[f"c{i}"] = ("chance", [(p, f"t{i}"), (1.0 - p, nxt)])
            nodes[f"t{i}"] = ("terminal", rng.uniform(0, 100))
        nodes[f"t{length - 1}b"] = ("terminal", rng.uniform(0, 100))
        return nodes

    def build(self, lib):
        T, S = lib.trees, lib.scenarios
        trees = []
        for doc in self.docs:
            if doc["kind"] == "adaptive":
                a = doc["adaptive"]
                spec = S.AdaptiveSpec(
                    tuple(S.Commitment(*c) for c in a["commitments"]),
                    a["observations"], tuple(a["reactions"]), a["payoffs"],
                )
                trees.append(S.adaptive_template(spec))
            else:
                nodes = {}
                for nid, node in doc["nodes"].items():
                    if node[0] == "terminal":
                        nodes[nid] = T.TerminalNode(node[1])
                    elif node[0] == "chance":
                        nodes[nid] = T.ChanceNode(tuple(node[1]))
                    else:
                        nodes[nid] = T.DecisionNode(tuple(node[1]))
                trees.append(T.DecisionTree(nodes, doc["root"]))
        return trees

    def prepare(self, lib, objs, workdir: Path) -> None:
        """Write the model files and finish the round from the built trees."""
        T = lib.trees
        limit = sys.getrecursionlimit()
        for i, (doc, tree) in enumerate(zip(self.docs, objs)):
            if doc["kind"] == "adaptive":
                doc["nodes"] = {
                    nid: ("terminal", n.payoff) if isinstance(n, T.TerminalNode)
                    else ("chance", list(n.children)) if isinstance(n, T.ChanceNode)
                    else ("decision", list(n.children))
                    for nid, n in tree.nodes.items()
                }
                doc["root"] = tree.root
            nodes = doc["nodes"]
            doc["node_count"] = len(nodes)
            doc["depth"] = oracle.depth(nodes, doc["root"])
            doc["past_recursion_limit"] = doc["depth"] >= limit
            doc["policy_count"] = oracle.policy_count(nodes, doc["root"], POLICY_COUNT_CAP)
            size: Dict[str, int] = {}
            for nid in oracle.post_order(nodes, doc["root"]):
                size[nid] = 1 + sum(size[c] for _, c in nodes[nid][1]) if nodes[nid][0] != "terminal" else 1
            doc["subtree_size"] = size
            json_doc = {
                "prospects": model_prospects(doc["prospects"]),
                "tree": {"root": doc["root"], "nodes": {
                    nid: {"kind": "terminal", "payoff": n[1]} if n[0] == "terminal"
                    else {"kind": n[0], "children": [list(c) for c in n[1]]}
                    for nid, n in nodes.items()
                }},
                "defaults": {"r": doc["r"], "k": "1:4:5"},
            }
            doc["path"] = str(workdir / f"model{i}.json")
            doc["bytes"] = len(json.dumps(json_doc))
            Path(doc["path"]).write_text(json.dumps(json_doc))
        for op in self.ops + self.defect_ops:
            doc = self.docs[op["doc"]]
            path = doc["path"]
            if op["kind"] == "rollback":
                op["argv"] = ["rollback", "--model", path]
            elif op["kind"] == "ce":
                op["argv"] = ["ce", "--model", path, "--id", op["pid"]]
            elif op["kind"] == "policies":
                op["argv"] = ["policies", "--model", path]
            else:
                if doc["kind"] == "adaptive":
                    op["node"] = doc["root"]
                else:
                    target = op["share"] * doc["node_count"]
                    internal = (nid for nid, n in doc["nodes"].items() if n[0] != "terminal")
                    op["node"] = min(internal, key=lambda n: (abs(doc["subtree_size"][n] - target), n))
                op["argv"] = ["curve", "--model", path, "--ids", f"{op['node']},{op['pid']}",
                              "--k", f"1:{op['hi']!r}:{op['steps']}"]

    def run(self, lib, objs, op):
        return run_cli(lib, op["argv"])

    def key(self, result):
        return result[:2]

    def classify_exception(self, op, exc):
        if isinstance(exc, RecursionError) and self.docs[op["doc"]]["past_recursion_limit"]:
            return "deep_chain_recursion", f"{op['kind']} on a {self.docs[op['doc']]['depth']}-deep chain"
        return super().classify_exception(op, exc)

    def check(self, op, result):
        code, out, err = result
        if code != 0:
            kind = "cli_exit_undocumented" if code not in DOCUMENTED_EXIT_CODES else "cli_exit"
            return f"{kind}:{code}", f"{op['kind']}: {err.strip()[:180]}"
        try:
            problem = self._check_output(op, out)
        except (ValueError, KeyError, IndexError) as exc:
            problem = f"unparseable output ({type(exc).__name__}: {exc})"
        return None if problem is None else (f"oracle:{op['kind']}", problem[:200])

    def _check_output(self, op, out: str) -> Optional[str]:
        doc = self.docs[op["doc"]]
        nodes, root, r = doc["nodes"], doc["root"], doc["r"]
        lines = out.splitlines()
        if op["kind"] == "ce":
            want = oracle.ce(doc["dists"][op["pid"]], r)[0]
            got = float(lines[0])
            return None if oracle.close(got, want) else f"CE {got!r}, reference {want!r}"
        if op["kind"] == "rollback":
            want, ces = oracle.rollback(nodes, root, [r])
            got = float(lines[0].removeprefix("ce: "))
            if not oracle.close(got, want[0]):
                return f"root CE {got!r}, reference {want[0]!r}"
            choice = dict(line.removeprefix("choose: ").split("=", 1) for line in lines[1:])
            if sorted(choice) != sorted(oracle.reachable_decisions(nodes, root, choice)):
                return "policy does not cover exactly the reachable decisions"
            for nid, label in choice.items():
                picked = next(cid for lab, cid in nodes[nid][1] if lab == label)
                if not oracle.close(ces[picked][0], ces[nid][0]):
                    return f"suboptimal choice {label!r} at {nid!r}"
            return None
        if op["kind"] == "curve":
            ks = np.geomspace(1.0, op["hi"], op["steps"])
            node_ces, _ = oracle.rollback(nodes, op["node"], ks * r)
            pros_ces = oracle.ce(doc["dists"][op["pid"]], ks * r)
            if lines[0] != f"k,{op['node']},{op['pid']}" or len(lines) != ks.size + 1:
                return "curve table has the wrong shape"
            for row, k, a, b in zip(lines[1:], ks, node_ces, pros_ces):
                got = [float(x) for x in row.split(",")]
                if not (oracle.close(got[0], k) and oracle.close(got[1], a) and oracle.close(got[2], b)):
                    return f"curve row {row!r} vs reference {k:.12g},{a:.12g},{b:.12g}"
            return None
        # policies
        if len(lines) != doc["policy_count"]:
            return f"{len(lines)} policies, reference {doc['policy_count']}"
        seen = set()
        for line in lines:
            head, _, rest = line.partition(" choice=[")
            got = float(head.split("ce=")[1])
            body = rest.split("]", 1)[0]
            choice = dict(item.split("=", 1) for item in body.split(",") if item)
            seen.add(body)
            want = oracle.ce(oracle.policy_dist(nodes, root, choice), r)[0]
            if not oracle.close(got, want):
                return f"policy CE {got!r}, reference {want!r}"
        return None if len(seen) == len(lines) else "duplicate policies"

    def properties(self) -> dict:
        def hist(values, edges):
            out: Dict[str, int] = {}
            for v in values:
                b = _bucket(v, edges)
                out[b] = out.get(b, 0) + 1
            return dict(sorted(out.items()))

        per_op = [self.docs[op["doc"]] for op in self.ops]
        return {
            "round_ops": len(self.ops),
            "documents": len(self.docs),
            "node_count_histogram": hist([d["node_count"] for d in self.docs], [1, 20, 50, 100, 300, 1000, 3000, 10_000]),
            "depth_histogram": hist([d["depth"] for d in self.docs], [1, 4, 8, 16, 64, 1000, 10_000]),
            "document_bytes": sorted(d["bytes"] for d in self.docs),
            "recursion_limit": sys.getrecursionlimit(),
            "share_ops_past_recursion_limit": sum(d["past_recursion_limit"] for d in per_op) / len(per_op),
            "op_mix": {k: sum(1 for op in self.ops if op["kind"] == k) for k in ("rollback", "curve", "ce", "policies")},
            "op_node_count_histogram": hist([d["node_count"] for d in per_op], [1, 20, 50, 100, 300, 1000, 3000, 10_000]),
        }

    def cold_model(self):
        doc = min((d for d in self.docs if d["kind"] != "deep"), key=lambda d: d["bytes"])
        return json.loads(Path(doc["path"]).read_text()), ["ce", "--id", "pd"], float(oracle.ce(doc["dists"]["pd"], doc["r"])[0])


WORKLOADS = {w.name: w for w in (PairCompare, WideSupport, CliTrees)}
