"""Flexibility orders between prospects under distorted risk aversion.

A prospect X is more flexible than Y when CE(X|kr) >= CE(Y|kr) for all k
beyond some threshold K >= 1, and dominates Y when K = 1.  For the
supported algebra the difference curve is a finite exponential sum
(discrete supports) or a straight line (Gaussians), so the eventual
ordering can be certified in closed form: beyond a computable k the
leading term of the exponential sum, or the flatter line, provably wins.
Crossings below that certificate are isolated on a geometric grid and
refined to ROOT_REL_TOL by a safeguarded secant that brackets every root
of one call at once, which turns the for-all-k definition into a finite,
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
from .valuation import _certain_equivalents, check_risk_aversion

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

# Relative width at which refinement stops when locating a crossing.
ROOT_REL_TOL = 1e-8

# Mass differences within 64 ulps of the larger mass are rounding
# (convolution and renormalization in a different order), not a difference
# between distributions.
_MASS_TIE_REL = 64 * float(np.finfo(float).eps)

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
    istar = next(
        (
            i
            for i, (v, d) in enumerate(zip(merged, diffs))
            if abs(d) > _MASS_TIE_REL * max(px.get(v, 0.0), py.get(v, 0.0))
        ),
        None,
    )
    if istar is None:
        return TailVerdict(TailRelation.EQUAL, 1.0, "identical distribution")
    cstar = diffs[istar]
    # E{exp(-krX)} - E{exp(-krY)} is eventually dominated by the lowest value
    # where the mass functions differ: less mass there means a smaller
    # exponential sum, hence a larger certain equivalent.  Ties above that
    # level still count in the residual bound; ties below it are rounding
    # of one mass, zero as when every level ties.
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


def _refine(
    diff: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    g_lo: np.ndarray,
    g_hi: np.ndarray,
) -> np.ndarray:
    """A root of each bracket's function in [lo, hi], all brackets refined together.

    ``diff(rows, ks)`` evaluates the function of bracket ``rows[i]`` at
    ``ks[i]``; ``g_lo`` and ``g_hi`` are its nonzero, opposite-signed values
    at the ends.  Each round evaluates two points a quarter of
    ROOT_REL_TOL * b either side of the bracket's secant root, or of its
    geometric midpoint when the previous round did not halve the bracket
    (in log k), and keeps the first sub-bracket whose sign flips from the
    left end.  Once the secant root lands within a quarter tolerance of a
    root, the two points straddle it and the bracket closes; whatever the
    function, the log width at least halves every second round.  A bracket
    stops at b - a <= ROOT_REL_TOL * b and yields its midpoint, or the point
    where the function is exactly zero.  Each round makes one ``diff`` call
    with two points per open bracket.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    ga, gb = np.array(g_lo, dtype=float), np.array(g_hi, dtype=float)
    roots = 0.5 * (a + b)
    secant = np.ones(len(a), dtype=bool)
    active = np.flatnonzero(b - a > ROOT_REL_TOL * b)
    while active.size:
        a0, b0, ga0, gb0 = a[active], b[active], ga[active], gb[active]
        half = 0.25 * ROOT_REL_TOL * b0
        centre = np.where(
            secant[active], a0 + ga0 * (b0 - a0) / (ga0 - gb0), np.sqrt(a0 * b0)
        )
        # Width > 4 * half, so both points lie strictly inside the bracket.
        centre = np.clip(centre, a0 + 2.0 * half, b0 - 2.0 * half)
        p1, p2 = centre - half, centre + half
        g = diff(np.repeat(active, 2), np.stack([p1, p2], axis=1).ravel())
        g1, g2 = g[0::2], g[1::2]

        left_positive = ga0 > 0.0
        zero1 = g1 == 0.0
        flip1 = ~zero1 & ((g1 > 0.0) != left_positive)
        past1 = ~zero1 & ~flip1
        zero2 = past1 & (g2 == 0.0)
        flip2 = past1 & ~zero2 & ((g2 > 0.0) != left_positive)
        a1 = np.where(flip1, a0, np.where(flip2, p1, p2))
        b1 = np.where(flip1, p1, np.where(flip2, p2, b0))
        a[active], b[active] = a1, b1
        ga[active] = np.where(flip1, ga0, np.where(flip2, g1, g2))
        gb[active] = np.where(flip1, g1, np.where(flip2, g2, gb0))
        secant[active] = 2.0 * np.log(b1 / a1) <= np.log(b0 / a0)

        roots[active] = np.where(zero1, p1, np.where(zero2, p2, 0.5 * (a1 + b1)))
        active = active[~(zero1 | zero2 | (b1 - a1 <= ROOT_REL_TOL * b1))]
    return roots


def _scan_difference(
    x: Prospect, y: Prospect, r: float, certified: float
) -> Tuple[float, Tuple[float, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Crossings of g(k) = CE(X|kr) - CE(Y|kr) on [1, certified].

    Returns (K, crossings, grid ks, g samples, tie tolerances); K is the
    smallest value such that g >= 0 (up to ties) on [K, certified].
    """

    def g(_rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        return _certain_equivalents(x, k * r) - _certain_equivalents(y, k * r)

    ks = _geometric_grid(1.0, max(1.0, certified))
    ce_x = _certain_equivalents(x, ks * r)
    ce_y = _certain_equivalents(y, ks * r)
    gs = ce_x - ce_y
    tols = _TIE_EPS * (1.0 + np.maximum(np.abs(ce_x), np.abs(ce_y)))

    significant = np.abs(gs) > tols
    positive = gs > 0.0
    lo = np.flatnonzero(significant[:-1] & significant[1:] & (positive[:-1] != positive[1:]))
    hi = lo + 1
    crossing_count = len(lo)

    # The threshold's bracket runs from the last clearly negative sample to
    # the next positive one; it is refined in the same batch as the crossings.
    negative = np.flatnonzero(gs < -tols)
    threshold = 1.0
    if negative.size:
        i = int(negative[-1])
        later = np.flatnonzero(positive[i + 1 :])
        if later.size:
            lo, hi = np.append(lo, i), np.append(hi, i + 1 + int(later[0]))
        else:
            # Certificate guarantees g >= 0 beyond the scan window.
            threshold = float(ks[-1])

    roots = _refine(g, ks[lo], ks[hi], gs[lo], gs[hi]).tolist()
    if len(roots) > crossing_count:
        threshold = roots[-1]
    return threshold, tuple(roots[:crossing_count]), ks, gs, tols


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
    return _scan_difference(x, y, r, tail.certified_from)[0]


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

    threshold, crossings, ks, gs, tols = _scan_difference(
        winner, loser, r, tail.certified_from
    )

    if threshold <= 1.0 + 1e-9:
        strict = bool(np.all(gs > tols))
        classification = dominant[0] if strict else dominant[1]
        return FlexibilityVerdict(classification, 1.0, crossings, tail)

    beyond = ks > threshold * (1.0 + 2.0 * ROOT_REL_TOL)
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
    inputs fall back to a geometric grid whose breakpoints are all refined
    together to ROOT_REL_TOL.  Prospects absent from the output are optimal
    for no k in range.
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

    # Grid gaps where the top curve changes, from the one on top at the left
    # end to the one on top at the right end.
    t = np.flatnonzero(best[1:] != best[:-1])
    above, below = best[t], best[t + 1]
    g_lo = ces[above, t] - ces[below, t]
    g_hi = ces[above, t + 1] - ces[below, t + 1]
    cuts = np.sqrt(ks[t] * ks[t + 1])
    crossing = g_lo * g_hi < 0.0
    first, second = above[crossing], below[crossing]

    def diff(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        left, right = first[rows], second[rows]
        g = np.zeros(len(k))
        for p in np.union1d(left, right):
            used = (left == p) | (right == p)
            ce = _certain_equivalents(items[p][1], k[used] * r)
            g[used] += np.where(left[used] == p, ce, -ce)
        return g

    cuts[crossing] = _refine(
        diff, ks[t[crossing]], ks[t[crossing] + 1], g_lo[crossing], g_hi[crossing]
    )
    bounds = [k_lo, *cuts.tolist(), k_hi]
    spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

    mids = np.sqrt(np.asarray(spans).prod(axis=1))
    values = np.asarray([_certain_equivalents(p, mids * r) for _, p in items])
    top = values.max(axis=0)
    on_top = values >= top - 1e-9 * (1.0 + np.abs(top))

    segments: List[EnvelopeSegment] = []
    for (lo, hi), column in zip(spans, on_top.T):
        labels = tuple(sorted(ids[i] for i in np.flatnonzero(column)))
        if segments and segments[-1].ids == labels:
            segments[-1] = EnvelopeSegment(segments[-1].k_lo, hi, labels)
        else:
            segments.append(EnvelopeSegment(lo, hi, labels))
    return segments
