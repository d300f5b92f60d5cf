"""Flexibility orders between prospects under distorted risk aversion.

A prospect X is more flexible than Y when CE(X|kr) >= CE(Y|kr) for all k
beyond some threshold K >= 1, and dominates Y when K = 1.  Every normal
form is a discrete part plus an independent Gaussian, so the eventual
ordering can be certified in closed form: beyond a computable k the
flatter Gaussian line provably wins, or, when the variances are equal,
the leading term of the discrete parts' exponential sum.  Only a sum past
the exact-convolution support cap escapes this (``compare`` calls it
incomparable).  Crossings below that certificate are isolated on a
geometric grid and refined to ROOT_REL_TOL, which turns the for-all-k
definition into a finite, checkable procedure.  Every bracket of one call is refined
together: the first estimate interpolates the grid samples around the
bracket (inverse quintic in log k), later ones take a secant step from
the previous round's two points, and a geometric midpoint keeps the
bracket shrinking whatever the function; on smooth curves one round of
CE evaluations closes nearly every bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .prospects import Prospect, _convolve, _merge_ties, _pack, stats
from .valuation import _certain_equivalents, _geometric_points, check_risk_aversion

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
    """Independent sum whose discrete part exceeds the exact-convolution support cap."""


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


def _decompose(prospect: Prospect) -> Tuple[Tuple[float, ...], Tuple[float, ...], float]:
    """Reduce a prospect's normal form to a discrete part D plus an independent N(0, v).

    Returns (values, masses, v), so that CE(X|rho) = CE(D|rho) - v*rho/2.  A
    prospect with a support of its own (a Discrete) is read as it stands,
    whatever its form; otherwise the moved discrete parts are convolved and
    shifted by the Gaussians' offsets and then by their means, each shift
    rounded and its collisions merged on its own.  Raises
    UnsupportedProspectError past the convolution support cap, and
    OverflowError when a value leaves the float range.
    """
    if getattr(prospect, "values", None) is not None:
        return prospect.values, prospect.masses, 0.0
    discrete = []
    point = gm = gv = 0.0
    for part_values, part_masses, mean, variance, s, c in prospect._form:
        if part_values is None:
            point, gm, gv = point + c, gm + mean * s, gv + variance * s * s
        elif s != 1.0 or c:  # s > 0 preserves order; merge any values that collide after rounding
            with np.errstate(over="ignore"):
                moved = part_values * s + c
            if not np.isfinite(moved).all():
                raise OverflowError(f"prospect part out of floating-point range under scale {s!r} and offset {c!r}")
            discrete.append(_merge_ties(moved, part_masses))
        else:
            discrete.append((part_values, part_masses))
    # Pairwise: many equal parts reach the cap in log2(n) rounds, not n - 1 convolutions.
    while len(discrete) > 1:
        merged = [_convolve(*a, *b) for a, b in zip(discrete[::2], discrete[1::2])]
        if any(m is None for m in merged):
            raise UnsupportedProspectError("independent sum exceeds the exact-convolution support cap")
        discrete = merged + discrete[2 * len(merged) :]
    if gv == 0.0:
        point, gm = point + gm, 0.0
    values, masses = discrete[0] if discrete else (np.zeros(1), np.ones(1))
    for c in (point, gm):
        if c:
            with np.errstate(over="ignore"):
                values, masses = _merge_ties(values + c, masses)
    if not np.isfinite(values).all():
        raise OverflowError("independent sum's support out of floating-point range")
    return tuple(values.tolist()), tuple(masses.tolist()), gv


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
        # a divisor that underflows to 0 stands as the least float: the certificate is out of range
        k0 = math.log(residual / abs(cstar)) / (r * gap or math.ulp(0.0))
    certified = max(1.0, k0 * (1.0 + 1e-9) + 1e-6)
    if istar == 0 and (px.get(merged[0], 0.0) == 0.0 or py.get(merged[0], 0.0) == 0.0):
        rationale = "worst-case gap"
    elif istar == 0:
        rationale = "mass-at-worst gap"
    else:
        rationale = f"lexicographic level {istar}"
    return TailVerdict(relation, certified, rationale)


def tail_order(x: Prospect, y: Prospect, r: float) -> TailVerdict:
    """Exact asymptotic comparison of the two flexibility curves.

    Each curve is CE(D|kr) - v*k*r/2 (``_decompose``).  Of unequal
    variances the smaller is eventually above; equal ones cancel, and
    ``_discrete_tail`` decides on the discrete parts, except that two
    one-point parts are parallel lines, the higher above from k = 1.
    """
    r = check_risk_aversion(r)
    xv, xm, x_var = _decompose(x)
    yv, ym, y_var = _decompose(y)
    if x_var == y_var:
        if x_var and len(xv) == len(yv) == 1 and xv != yv:
            return TailVerdict(TailRelation.X_ABOVE if xv > yv else TailRelation.Y_ABOVE, 1.0, "Gaussian slope")
        return _discrete_tail(xv, xm, yv, ym, r)
    if x_var < y_var:
        relation, steep, flat, slope = TailRelation.X_ABOVE, yv, xv, y_var - x_var
    else:
        relation, steep, flat, slope = TailRelation.Y_ABOVE, xv, yv, x_var - y_var
    # CE(D|rho) lies in [min D, max D], so the flatter curve is above once
    # slope*k*r/2 exceeds max D_steep - min D_flat; a divisor that
    # underflows to 0 stands as the least float: the certificate is out of range.
    k0 = 2.0 * (steep[-1] - flat[0]) / (slope * r or math.ulp(0.0))
    certified = max(1.0, k0 * (1.0 + 1e-9) + 1e-6)
    return TailVerdict(relation, certified, "Gaussian slope" if min(x_var, y_var) else "worst-case gap")


def _geometric_means(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sqrt(a * b) for positive a and b; sqrt(a) * sqrt(b) where the product leaves the float range."""
    with np.errstate(over="ignore"):
        means = np.sqrt(a * b)
    far = np.isinf(means)
    means[far] = np.sqrt(a[far]) * np.sqrt(b[far])
    return means


def _geometric_grid(k_lo: float, k_hi: float) -> np.ndarray:
    """``GRID_POINTS_PER_DECADE`` points a decade from k_lo to k_hi, as ``np.geomspace`` spaces them."""
    if k_hi <= k_lo:
        return np.asarray([k_lo])
    decades = math.log10(k_hi / k_lo)
    return _geometric_points(k_lo, k_hi, max(2, int(math.ceil(GRID_POINTS_PER_DECADE * decades)) + 1))


# Grid offsets, from a bracket's left end, of the samples its first
# estimate interpolates: three on either side, the bracket's ends among them.
_STENCIL = np.arange(-2, 4)
_LEFT = -int(_STENCIL[0])
_SAMPLE = np.arange(len(_STENCIL))


def _first_estimates(
    ks: np.ndarray, lo: np.ndarray, hi: np.ndarray, sample: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """A first estimate of the root in each bracket [ks[lo], ks[hi]], or NaN.

    ``sample(cols)`` returns, for an (n, 6) array of grid columns, bracket
    i's samples at ``cols[i]``.  A bracket of one grid step with three
    samples on either side (its ends among them) gets inverse quintic
    interpolation in log k: log k as the polynomial in g through those six
    samples, read at g = 0.  Its error shrinks as the sixth power of the
    grid step, so on smooth curves the estimate lands well within the
    quarter tolerance that lets ``_refine`` close the bracket in one round.
    The estimate is NaN, and ``_refine`` starts from the end-point secant
    root, when the bracket spans several steps or lies within two steps of
    an end of the grid, when the six samples are not strictly monotone (the
    inverse is then not a function), or when the estimate falls outside
    the bracket.
    """
    # Columns past the left end wrap around; those brackets are not used.
    cols = np.minimum(lo[:, None] + _STENCIL, len(ks) - 1)
    g = sample(cols)
    steps = g[:, 1:] - g[:, :-1]
    usable = (
        (hi == lo + 1)
        & (lo + _STENCIL[0] >= 0)
        & (lo + _STENCIL[-1] < len(ks))
        & ((steps > 0.0).all(axis=1) | (steps < 0.0).all(axis=1))
    )
    g, cols = g[usable], cols[usable]
    # Lagrange weights at g = 0: prod_{m != j} g_m / (g_m - g_j), each
    # diagonal factor (m = j) set to 1.  A product that leaves the float
    # range gives an estimate that is not inside the bracket.
    numerators = np.repeat(g[:, None, :], len(_STENCIL), axis=1)
    denominators = g[:, None, :] - g[:, :, None]
    numerators[:, _SAMPLE, _SAMPLE] = denominators[:, _SAMPLE, _SAMPLE] = 1.0
    with np.errstate(all="ignore"):
        weights = numerators.prod(axis=2) / denominators.prod(axis=2)
        x = np.log(ks[cols])
        step = ((x - x[:, _LEFT, None]) * weights).sum(axis=1)
        estimate = ks[lo[usable]] * np.exp(step)
    inside = (estimate > ks[lo[usable]]) & (estimate < ks[hi[usable]])
    out = np.full(len(lo), np.nan)
    out[usable.nonzero()[0][inside]] = estimate[inside]
    return out


def _refine(
    diff: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    g_lo: np.ndarray,
    g_hi: np.ndarray,
    first: Optional[np.ndarray] = None,
) -> np.ndarray:
    """A root of each bracket's function in [lo, hi], all brackets refined together.

    ``diff(rows, ks)`` evaluates the function of bracket ``rows[i]`` at
    ``ks[i]``; ``g_lo`` and ``g_hi`` are its nonzero, opposite-signed values
    at the ends.  Each round evaluates two points a quarter of
    ROOT_REL_TOL * b either side of a centre: ``first`` in the first round
    (the end-point secant root where it is not given or NaN), and later
    the secant root of the previous round's two points, which lie within
    half a tolerance of each other, so it is a Newton step with a
    difference slope.  A round that follows one that did not halve the bracket (in
    log k) adds its geometric midpoint as a third point.  The bracket kept
    is the first sub-bracket whose sign flips from the left end.  Once a
    centre lands within a quarter tolerance of a root, the two points
    straddle it and the bracket closes; whatever the function, the log
    width at least halves every second round.  A bracket stops at
    b - a <= ROOT_REL_TOL * b and yields the secant root of its two ends,
    or the point where the function is exactly zero.  Each round makes one
    ``diff`` call with two or three points per open bracket.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    ga, gb = np.array(g_lo, dtype=float), np.array(g_hi, dtype=float)
    roots = a + ga * (b - a) / (ga - gb)
    active = np.flatnonzero(b - a > ROOT_REL_TOL * b)
    centre = roots.copy() if first is None else np.where(np.isnan(first), roots, first)
    halved = np.ones(len(a), dtype=bool)
    while active.size:
        a0, b0, ga0, gb0 = a[active], b[active], ga[active], gb[active]
        half = 0.25 * ROOT_REL_TOL * b0
        # Width > 4 * half, so both points lie strictly inside the bracket.
        c = np.minimum(np.maximum(centre[active], a0 + 2.0 * half), b0 - 2.0 * half)
        p1, p2 = c - half, c + half
        stalled = np.flatnonzero(~halved[active])
        mids = _geometric_means(a0[stalled], b0[stalled])
        g = diff(np.concatenate([active, active, active[stalled]]), np.concatenate([p1, p2, mids]))
        n = len(active)
        g1, g2 = g[:n], g[n : 2 * n]
        # Each row: left end, the round's points in ascending order, right end.
        # A bracket without a midpoint repeats p2, which cannot be kept
        # as a bracket of zero width.
        points = np.array([a0, p1, p2, p2, b0]).T
        values = np.array([ga0, g1, g2, g2, gb0]).T
        if stalled.size:
            points[stalled, 3], values[stalled, 3] = mids, g[2 * n :]
            order = np.argsort(points[stalled, 1:4], axis=1) + 1
            points[stalled, 1:4] = np.take_along_axis(points[stalled], order, axis=1)
            values[stalled, 1:4] = np.take_along_axis(values[stalled], order, axis=1)
        hit = (values == 0.0) | ((values > 0.0) != (ga0 > 0.0)[:, None])
        j = hit.argmax(axis=1)
        rows = np.arange(n)
        a1, b1 = points[rows, j - 1], points[rows, j]
        ga1, gb1 = values[rows, j - 1], values[rows, j]
        zero = gb1 == 0.0
        a[active], b[active], ga[active], gb[active] = a1, b1, ga1, gb1
        with np.errstate(over="ignore"):  # a square past the float range did not halve
            halved[active] = np.square(b1 / a1) <= b0 / a0

        # Next centre: the secant root through (p1, g1) and (p2, g2), or the
        # new bracket's end-point secant root where that one does not lie
        # inside the bracket.  Where g1 = g2 it is taken as p1, an end of
        # the new bracket or outside it.
        ends = a1 + ga1 * (b1 - a1) / (ga1 - gb1)
        slope = np.where(g1 != g2, g1 - g2, np.inf)
        newton = p1 + g1 * (p2 - p1) / slope
        centre[active] = np.where((newton > a1) & (newton < b1), newton, ends)
        roots[active] = np.where(zero, b1, ends)
        active = active[~(zero | (b1 - a1 <= ROOT_REL_TOL * b1))]
    return roots


def _scan_difference(
    x: Prospect, y: Prospect, r: float, certified: float
) -> Tuple[float, Tuple[float, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Crossings of g(k) = CE(X|kr) - CE(Y|kr) on [1, certified].

    Returns (K, crossings, grid ks, g samples, tie tolerances); K is the
    smallest value such that g >= 0 (up to ties) on [K, certified].
    """
    if not math.isfinite(certified):
        raise OverflowError(f"tail certificate k={certified!r} out of floating-point range")
    pair = _pack((x, y))

    def g(_rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        ce_x, ce_y = _certain_equivalents(pair, k * r)
        return ce_x - ce_y

    ks = _geometric_grid(1.0, max(1.0, certified))
    ce_x, ce_y = _certain_equivalents(pair, ks * r)
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

    roots = []
    if len(lo):
        guess = _first_estimates(ks, lo, hi, lambda cols: gs[cols])
        roots = _refine(g, ks[lo], ks[hi], gs[lo], gs[hi], guess).tolist()
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
    incomparable verdict is reserved for independent sums past the
    exact-convolution support cap, which the tail cannot reduce.
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

    Inputs whose normal forms hold no discrete part (Gaussians, their
    affine maps and sums) use the exact line-envelope construction; others
    fall back to a geometric grid whose breakpoints are all refined
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
    if all(part.values is None for _, p in items for part in p._form):
        return _line_envelope(items, r, k_lo, k_hi)
    return _grid_envelope(items, r, k_lo, k_hi)


def _line_envelope(
    items: Sequence[Tuple[str, Prospect]], r: float, k_lo: float, k_hi: float
) -> List[EnvelopeSegment]:
    # Each curve is the line mean - (variance*r/2) * k.
    groups: dict[Tuple[float, float], List[str]] = {}
    for pid, p in items:
        s = stats(p)
        groups.setdefault((-0.5 * s.variance * r, s.mean), []).append(pid)

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
    curves = _pack([p for _, p in items])
    ces = _certain_equivalents(curves, ks * r)
    best = np.argmax(ces, axis=0)

    # Grid gaps where the top curve changes, from the one on top at the left
    # end to the one on top at the right end.
    t = np.flatnonzero(best[1:] != best[:-1])
    above, below = best[t], best[t + 1]
    g_lo = ces[above, t] - ces[below, t]
    g_hi = ces[above, t + 1] - ces[below, t + 1]
    cuts = _geometric_means(ks[t], ks[t + 1])
    with np.errstate(over="ignore"):  # a product past the float range keeps its sign
        crossing = g_lo * g_hi < 0.0
    first, second = above[crossing], below[crossing]

    def diff(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        # Every curve at every point, in one kernel call; each point reads its bracket's two.
        ce = _certain_equivalents(curves, k * r)
        points = np.arange(len(k))
        return ce[first[rows], points] - ce[second[rows], points]

    if first.size:
        lo, g_lo, g_hi = t[crossing], g_lo[crossing], g_hi[crossing]
        guess = _first_estimates(
            ks, lo, lo + 1, lambda cols: ces[first[:, None], cols] - ces[second[:, None], cols]
        )
        cuts[crossing] = _refine(diff, ks[lo], ks[lo + 1], g_lo, g_hi, guess)
    bounds = [k_lo, *cuts.tolist(), k_hi]
    spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

    mids = _geometric_means(*np.asarray(spans).T)
    values = _certain_equivalents(curves, mids * r)
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
