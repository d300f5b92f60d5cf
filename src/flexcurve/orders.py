"""Flexibility orders between prospects under distorted risk aversion.

A prospect X is more flexible than Y when CE(X|kr) >= CE(Y|kr) for all k
beyond some threshold K >= 1, and dominates Y when K = 1.  For the
supported algebra the difference curve is a finite exponential sum
(discrete supports) or a straight line (Gaussians), so the eventual
ordering can be certified in closed form: beyond a computable k the
leading term of the exponential sum, or the flatter line, provably wins.
Crossings below that certificate are isolated on a geometric grid and
refined by bisection, which turns the for-all-k definition into a finite,
checkable procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .prospects import (
    Affine,
    Discrete,
    Gaussian,
    IndependentSum,
    Prospect,
    convolve_supports,
)
from .valuation import _certain_equivalents, certain_equivalent, check_risk_aversion

__all__ = [
    "TailRelation",
    "TailVerdict",
    "Flexibility",
    "FlexibilityVerdict",
    "EnvelopeSegment",
    "UnsupportedProspectError",
    "tail_order",
    "find_threshold",
    "compare",
    "upper_envelope",
]

GRID_POINTS_PER_DECADE = 512

# Relative width at which bisection stops when refining a crossing.
ROOT_REL_TOL = 1e-8

# Differences below 1e-12 * (1 + |CE|) cannot be distinguished from a tie.
_TIE_EPS = 1e-12


class UnsupportedProspectError(ValueError):
    """Prospect not reducible to a discrete-plus-Gaussian form the orders handle."""


class TailRelation(Enum):
    X_ABOVE = "X_above"
    Y_ABOVE = "Y_above"
    EQUAL = "equal"


@dataclass(frozen=True)
class TailVerdict:
    """Which curve is eventually on top, provably from ``certified_from`` on."""

    relation: TailRelation
    certified_from: float
    rationale: str


class Flexibility(Enum):
    X_STRICTLY_DOMINATES = "X_strictly_dominates"
    X_DOMINATES = "X_dominates"
    Y_STRICTLY_DOMINATES = "Y_strictly_dominates"
    Y_DOMINATES = "Y_dominates"
    X_MORE_FLEXIBLE = "X_more_flexible"
    X_STRICTLY_MORE_FLEXIBLE = "X_strictly_more_flexible"
    Y_MORE_FLEXIBLE = "Y_more_flexible"
    Y_STRICTLY_MORE_FLEXIBLE = "Y_strictly_more_flexible"
    EQUALLY_FLEXIBLE = "equally_flexible"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class FlexibilityVerdict:
    classification: Flexibility
    threshold_k: Optional[float]
    crossings: Tuple[float, ...]
    tail: Optional[TailVerdict]


def _decompose(prospect: Prospect) -> Tuple[Tuple[float, ...], Tuple[float, ...], float, float]:
    """Reduce a prospect to an independent discrete part plus Gaussian(m, v).

    Returns (values, masses, gaussian_mean, gaussian_variance).  Raises
    UnsupportedProspectError when an exact reduction would blow the
    convolution support cap.
    """
    if isinstance(prospect, Discrete):
        return prospect.values, prospect.masses, 0.0, 0.0
    if isinstance(prospect, Gaussian):
        if prospect.variance == 0.0:
            return (prospect.mean,), (1.0,), 0.0, 0.0
        return (0.0,), (1.0,), prospect.mean, prospect.variance
    if isinstance(prospect, Affine):
        values, masses, gm, gv = _decompose(prospect.base)
        k, c = prospect.scale, prospect.offset
        scaled = tuple(v * k + c for v in values)
        # k > 0 preserves order; merge any values that collide after rounding.
        out_v: List[float] = []
        out_m: List[float] = []
        for v, m in zip(scaled, masses):
            if out_v and v == out_v[-1]:
                out_m[-1] += m
            else:
                out_v.append(v)
                out_m.append(m)
        return tuple(out_v), tuple(out_m), gm * k, gv * k * k
    if isinstance(prospect, IndependentSum):
        values: Tuple[float, ...] = (0.0,)
        masses: Tuple[float, ...] = (1.0,)
        gm = gv = 0.0
        for term in prospect.terms:
            tv, tm, tgm, tgv = _decompose(term)
            merged = convolve_supports(Discrete(values, masses), Discrete(tv, tm))
            if merged is None:
                raise UnsupportedProspectError(
                    "independent sum exceeds the exact-convolution support cap"
                )
            values, masses = merged
            gm += tgm
            gv += tgv
        return values, masses, gm, gv
    raise TypeError(f"not a prospect: {prospect!r}")


def _discrete_tail(
    xv: Sequence[float],
    xm: Sequence[float],
    yv: Sequence[float],
    ym: Sequence[float],
    r: float,
) -> TailVerdict:
    px = dict(zip(xv, xm))
    py = dict(zip(yv, ym))
    merged = sorted(set(px) | set(py))
    diffs = [py.get(v, 0.0) - px.get(v, 0.0) for v in merged]
    istar = next((i for i, d in enumerate(diffs) if d != 0.0), None)
    if istar is None:
        return TailVerdict(TailRelation.EQUAL, 1.0, "identical distribution")
    cstar = diffs[istar]
    # E{exp(-krX)} - E{exp(-krY)} is eventually dominated by the lowest value
    # where the mass functions differ: less mass there means a smaller
    # exponential sum, hence a larger certain equivalent.
    relation = TailRelation.X_ABOVE if cstar > 0.0 else TailRelation.Y_ABOVE
    residual = math.fsum(abs(d) for d in diffs[istar + 1 :])
    if residual <= abs(cstar):
        k0 = 1.0
    else:
        gap = merged[istar + 1] - merged[istar]
        k0 = math.log(residual / abs(cstar)) / (r * gap)
    certified = max(1.0, k0 * (1.0 + 1e-9) + 1e-6)
    if istar == 0 and (px.get(merged[0], 0.0) == 0.0 or py.get(merged[0], 0.0) == 0.0):
        rationale = "worst-case gap"
    elif istar == 0:
        rationale = "mass-at-worst gap"
    else:
        rationale = f"lexicographic level {istar}"
    return TailVerdict(relation, certified, rationale)


def _gaussian_tail(
    x_mean: float, x_var: float, y_mean: float, y_var: float, r: float
) -> TailVerdict:
    if x_var == y_var:
        if x_mean == y_mean:
            return TailVerdict(TailRelation.EQUAL, 1.0, "identical distribution")
        relation = TailRelation.X_ABOVE if x_mean > y_mean else TailRelation.Y_ABOVE
        return TailVerdict(relation, 1.0, "Gaussian slope")
    # Lines mean - var*k*r/2: the flatter slope is eventually above.
    relation = TailRelation.X_ABOVE if x_var < y_var else TailRelation.Y_ABOVE
    crossing = 2.0 * (x_mean - y_mean) / (r * (x_var - y_var))
    certified = max(1.0, crossing * (1.0 + 1e-9) + 1e-6)
    return TailVerdict(relation, certified, "Gaussian slope")


def tail_order(x: Prospect, y: Prospect, r: float) -> TailVerdict:
    """Exact asymptotic comparison of the two flexibility curves."""
    r = check_risk_aversion(r)
    xv, xm, xgm, xgv = _decompose(x)
    yv, ym, ygm, ygv = _decompose(y)
    if xgv == 0.0 and ygv == 0.0:
        return _discrete_tail(xv, xm, yv, ym, r)
    if xgv > 0.0 and ygv > 0.0:
        if len(xv) == 1 and len(yv) == 1:
            return _gaussian_tail(xgm + xv[0], xgv, ygm + yv[0], ygv, r)
        raise UnsupportedProspectError(
            "tail comparison of two unbounded non-Gaussian prospects is not supported"
        )
    # Exactly one side is unbounded below; the bounded prospect wins the tail.
    if xgv > 0.0:
        relation = TailRelation.Y_ABOVE
        upper = max(xv) + xgm
        gvar = xgv
        bounded_worst = min(yv) + ygm
    else:
        relation = TailRelation.X_ABOVE
        upper = max(yv) + ygm
        gvar = ygv
        bounded_worst = min(xv) + xgm
    # CE_unbounded(k) <= upper - gvar*k*r/2 while CE_bounded(k) >= its worst case.
    k0 = 2.0 * (upper - bounded_worst) / (gvar * r)
    certified = max(1.0, k0 * (1.0 + 1e-9) + 1e-6)
    return TailVerdict(relation, certified, "worst-case gap")


def _geometric_grid(k_lo: float, k_hi: float) -> np.ndarray:
    if k_hi <= k_lo:
        return np.asarray([k_lo])
    decades = math.log10(k_hi / k_lo)
    n = max(2, int(math.ceil(GRID_POINTS_PER_DECADE * decades)) + 1)
    return np.geomspace(k_lo, k_hi, n)


def _bisect(f: Callable[[float], float], a: float, b: float, fa: float) -> float:
    while b - a > ROOT_REL_TOL * b:
        mid = math.sqrt(a * b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _scan_difference(
    x: Prospect, y: Prospect, r: float, certified: float
) -> Tuple[float, Tuple[float, ...], np.ndarray, np.ndarray]:
    """Crossings of g(k) = CE(X|kr) - CE(Y|kr) on [1, certified].

    Returns (K, crossings, g samples, tie tolerances); K is the smallest
    value such that g >= 0 (up to ties) on [K, certified].
    """

    def g(k: float) -> float:
        return certain_equivalent(x, k * r) - certain_equivalent(y, k * r)

    ks = _geometric_grid(1.0, max(1.0, certified))
    ce_x = _certain_equivalents(x, ks * r)
    ce_y = _certain_equivalents(y, ks * r)
    gs = ce_x - ce_y
    tols = _TIE_EPS * (1.0 + np.maximum(np.abs(ce_x), np.abs(ce_y)))

    crossings: List[float] = []
    for i in range(len(ks) - 1):
        lo_sig = gs[i] > tols[i] or gs[i] < -tols[i]
        hi_sig = gs[i + 1] > tols[i + 1] or gs[i + 1] < -tols[i + 1]
        if lo_sig and hi_sig and (gs[i] > 0.0) != (gs[i + 1] > 0.0):
            crossings.append(_bisect(g, float(ks[i]), float(ks[i + 1]), float(gs[i])))

    negative = [i for i in range(len(ks)) if gs[i] < -tols[i]]
    if not negative:
        threshold = 1.0
    else:
        i = max(negative)
        j = next((m for m in range(i + 1, len(ks)) if gs[m] > 0.0), None)
        if j is None:
            # Certificate guarantees g >= 0 beyond the scan window.
            threshold = float(ks[-1])
        else:
            threshold = _bisect(g, float(ks[i]), float(ks[j]), float(gs[i]))
    return threshold, tuple(crossings), gs, tols


def find_threshold(x: Prospect, y: Prospect, r: float) -> Optional[float]:
    """Smallest K >= 1 with CE(X|kr) >= CE(Y|kr) for all k >= K.

    Absent (None) when the tail strictly favors Y, so no such K exists.
    """
    r = check_risk_aversion(r)
    tail = tail_order(x, y, r)
    if tail.relation is TailRelation.Y_ABOVE:
        return None
    if tail.relation is TailRelation.EQUAL:
        return 1.0
    threshold, _, _, _ = _scan_difference(x, y, r, tail.certified_from)
    return threshold


def compare(x: Prospect, y: Prospect, r: float) -> FlexibilityVerdict:
    """Classify the pair into the flexibility taxonomy.

    Dominance is the threshold-1 case; the strict variants require the
    difference to clear the tie tolerance at every checked point.  The
    incomparable verdict is reserved for prospects the tail machinery
    cannot reduce.
    """
    r = check_risk_aversion(r)
    try:
        tail = tail_order(x, y, r)
    except UnsupportedProspectError:
        return FlexibilityVerdict(Flexibility.INCOMPARABLE, None, (), None)

    if tail.relation is TailRelation.EQUAL:
        return FlexibilityVerdict(Flexibility.EQUALLY_FLEXIBLE, 1.0, (), tail)

    if tail.relation is TailRelation.X_ABOVE:
        winner, loser = x, y
        dominant = (Flexibility.X_STRICTLY_DOMINATES, Flexibility.X_DOMINATES)
        flexible = (Flexibility.X_STRICTLY_MORE_FLEXIBLE, Flexibility.X_MORE_FLEXIBLE)
    else:
        winner, loser = y, x
        dominant = (Flexibility.Y_STRICTLY_DOMINATES, Flexibility.Y_DOMINATES)
        flexible = (Flexibility.Y_STRICTLY_MORE_FLEXIBLE, Flexibility.Y_MORE_FLEXIBLE)

    threshold, crossings, gs, tols = _scan_difference(winner, loser, r, tail.certified_from)
    ks = _geometric_grid(1.0, max(1.0, tail.certified_from))

    if threshold <= 1.0 + 1e-9:
        strict = bool(np.all(gs > tols))
        classification = dominant[0] if strict else dominant[1]
        return FlexibilityVerdict(classification, 1.0, crossings, tail)

    beyond = np.asarray(ks) > threshold * (1.0 + 2.0 * ROOT_REL_TOL)
    strict = bool(np.all(gs[beyond] > tols[beyond])) if np.any(beyond) else True
    classification = flexible[0] if strict else flexible[1]
    return FlexibilityVerdict(classification, threshold, crossings, tail)


@dataclass(frozen=True)
class EnvelopeSegment:
    """Maximal k interval on which the listed prospects attain the upper envelope."""

    k_lo: float
    k_hi: float
    ids: Tuple[str, ...]


def upper_envelope(
    prospects: Sequence[Tuple[str, Prospect]],
    r: float,
    k_range: Tuple[float, float],
) -> List[EnvelopeSegment]:
    """Partition [k_lo, k_hi] by which prospect's CE curve is maximal.

    All-Gaussian inputs use the exact line-envelope construction; mixed
    inputs fall back to a geometric grid with bisection-refined
    breakpoints.  Prospects absent from the output are optimal for no k in
    range.
    """
    r = check_risk_aversion(r)
    items = list(prospects)
    if not items:
        raise ValueError("envelope needs at least one prospect")
    k_lo, k_hi = (float(k_range[0]), float(k_range[1]))
    if not (0.0 < k_lo < k_hi):
        raise ValueError(f"invalid k range {k_range!r}")
    if all(isinstance(p, Gaussian) for _, p in items):
        return _gaussian_envelope(items, r, k_lo, k_hi)
    return _grid_envelope(items, r, k_lo, k_hi)


def _gaussian_envelope(
    items: Sequence[Tuple[str, Gaussian]], r: float, k_lo: float, k_hi: float
) -> List[EnvelopeSegment]:
    # Each curve is the line mean - (variance*r/2) * k.
    groups: dict[Tuple[float, float], List[str]] = {}
    for pid, p in items:
        key = (-0.5 * p.variance * r, p.mean)
        groups.setdefault(key, []).append(pid)

    # For equal slopes only the highest intercept can ever be on top.
    by_slope: dict[float, Tuple[float, float]] = {}
    for slope, intercept in groups:
        if slope not in by_slope or intercept > by_slope[slope][1]:
            by_slope[slope] = (slope, intercept)
    lines = sorted(by_slope.values())

    def meet(a: Tuple[float, float], b: Tuple[float, float]) -> float:
        return (a[1] - b[1]) / (b[0] - a[0])

    # Upper hull over all real k; clipping to [k_lo, k_hi] below discards
    # lines that are only on top outside the requested range.
    hull: List[Tuple[float, float]] = []
    for line in lines:
        while len(hull) >= 2 and meet(hull[-1], line) <= meet(hull[-2], hull[-1]):
            hull.pop()
        hull.append(line)

    breakpoints = [meet(a, b) for a, b in zip(hull, hull[1:])]
    segments: List[EnvelopeSegment] = []
    for i, line in enumerate(hull):
        lo = -math.inf if i == 0 else breakpoints[i - 1]
        hi = math.inf if i == len(hull) - 1 else breakpoints[i]
        lo = max(lo, k_lo)
        hi = min(hi, k_hi)
        if hi > lo:
            segments.append(EnvelopeSegment(lo, hi, tuple(sorted(groups[line]))))
    return segments


def _grid_envelope(
    items: Sequence[Tuple[str, Prospect]], r: float, k_lo: float, k_hi: float
) -> List[EnvelopeSegment]:
    ks = _geometric_grid(k_lo, k_hi)
    ids = [pid for pid, _ in items]
    ces = np.asarray([_certain_equivalents(p, ks * r) for _, p in items])
    best = np.argmax(ces, axis=0)

    def diff(i: int, j: int) -> Callable[[float], float]:
        def g(k: float) -> float:
            return certain_equivalent(items[i][1], k * r) - certain_equivalent(
                items[j][1], k * r
            )

        return g

    cuts: List[float] = [k_lo]
    for t in range(len(ks) - 1):
        a, b = int(best[t]), int(best[t + 1])
        if a == b:
            continue
        g = diff(a, b)
        ga = g(float(ks[t]))
        if g(float(ks[t + 1])) * ga < 0.0:
            cuts.append(_bisect(g, float(ks[t]), float(ks[t + 1]), ga))
        else:
            cuts.append(math.sqrt(ks[t] * ks[t + 1]))
    cuts.append(k_hi)

    segments: List[EnvelopeSegment] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        mid = math.sqrt(lo * hi)
        values = [certain_equivalent(p, mid * r) for _, p in items]
        top = max(values)
        tol = 1e-9 * (1.0 + abs(top))
        labels = tuple(sorted(ids[i] for i, v in enumerate(values) if v >= top - tol))
        if segments and segments[-1].ids == labels:
            segments[-1] = EnvelopeSegment(segments[-1].k_lo, hi, labels)
        else:
            segments.append(EnvelopeSegment(lo, hi, labels))
    return segments
