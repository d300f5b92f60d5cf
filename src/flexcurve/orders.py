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
definition into a finite, checkable procedure.  ``compare`` and
``find_threshold`` count crossings first: over the merged support
v_1 < ... < v_N of the discrete parts, F_j sums
(p_loser - p_winner)(v_i) exp(-r (v_i - v_1)) over i <= j.  The Laplace
kernel diminishes variation (Karlin, *Total Positivity*, 1968): where every
F_j clears a rounding band, phi = min_j F_j - band > 0, and summing by
parts gives CE_winner - CE_loser >= log1p(phi)/(kr) + (v_l - v_w)kr/2 for
k >= 1, v_w <= v_l up to 64 ulps being the Gaussian variances.  Where that
clears twice the tie tolerance and an assumed CE rounding (64 ulps of 1/r
and of the largest magnitude) up to certified_from, the scan's answer,
strict dominance from k = 1 with no crossing, needs no CE; other pairs are
scanned.  One scanner, ``_scan``,
brackets the crossings of ``compare``, ``find_threshold`` and
``upper_envelope`` by one rule, skipping samples within the tie
tolerance.  Every bracket of one call is refined together: the first
estimate interpolates the grid samples around the bracket (inverse
quintic in log k), later ones take a secant step from
the previous round's two points, and a geometric midpoint keeps the
bracket shrinking whatever the function; on smooth curves one round of
CE evaluations closes nearly every bracket.  Each round is one batched
CE call for all open brackets; the bookkeeping between calls runs
bracket by bracket on Python floats, cheaper than numpy calls on the few
brackets a call holds, with the bits of array arithmetic in the same order.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .prospects import Discrete, Prospect, _convolve, _merge_ties, _pack, stats
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

# Mass or variance differences within 64 ulps of the larger one are
# rounding (convolution, renormalization or a sum in a different order),
# not a difference between distributions.
_MASS_TIE_REL = 64 * float(np.finfo(float).eps)

# Rounding of ``_margin``'s partial sums, u = ulp(1)/2, masses summing to 1 a side: terms d*exp(-t) by (4 + 2t)u|d|
# <= 4u|d|, 8u in all; mass ties, 2 * _MASS_TIE_REL in all; a level's sum by u|F| <= 2u, an underflow by ulp(0).
_BAND, _BAND_PER_LEVEL = 2.0 * _MASS_TIE_REL + 4.0 * math.ulp(1.0), math.ulp(1.0) + math.ulp(0.0)

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


def _decompose(prospect: Prospect) -> Tuple[np.ndarray, np.ndarray, float]:
    """Reduce a prospect's normal form to a discrete part D plus an independent N(0, v).

    Returns D's values and masses as arrays, and v, so that CE(X|rho) =
    CE(D|rho) - v*rho/2.  A prospect with a support of its own (a Discrete)
    is read as it stands, whatever its form; otherwise the moved discrete
    parts are convolved and shifted by the Gaussians' offsets and then by
    their means, each shift rounded and its collisions merged on its own.  Raises
    UnsupportedProspectError past the convolution support cap, and
    OverflowError when a value leaves the float range.
    """
    if isinstance(prospect, Discrete):
        return (*prospect._support, 0.0)
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
    return values, masses, gv


def _levels(xv: Sequence[float], xm: Sequence[float], yv: Sequence[float], ym: Sequence[float]):
    """The merged ascending support of two discrete parts, Y's mass less X's on it, and each one's mass map."""
    px, py = dict(zip(xv, xm)), dict(zip(yv, ym))
    merged = sorted(set(px) | set(py))
    return merged, [py.get(v, 0.0) - px.get(v, 0.0) for v in merged], px, py


def _discrete_tail(merged: List[float], diffs: List[float], px: dict, py: dict, r: float) -> TailVerdict:
    for istar, (v, d) in enumerate(zip(merged, diffs)):
        if abs(d) > _MASS_TIE_REL * max(px.get(v, 0.0), py.get(v, 0.0)):
            break
    else:
        return TailVerdict(TailRelation.EQUAL, 1.0, "identical distribution")
    cstar = diffs[istar]
    # E{exp(-krX)} - E{exp(-krY)} is eventually dominated by the lowest value
    # where the mass functions differ: less mass there means a smaller
    # exponential sum, hence a larger certain equivalent.  Ties above that
    # level still count in the residual bound; ties below it are rounding
    # of one mass, zero as when every level ties.
    relation = TailRelation.X_ABOVE if cstar > 0.0 else TailRelation.Y_ABOVE
    residual = math.fsum(map(abs, diffs[istar + 1 :]))
    if residual <= abs(cstar):
        k0 = 1.0
    else:
        gap = merged[istar + 1] - merged[istar]
        ratio = residual / abs(cstar)  # past the float range for a subnormal cstar: a difference of logs
        # a divisor that underflows to 0 stands as the least float: the certificate is out of range
        log_ratio = math.log(ratio) if ratio < math.inf else math.log(residual) - math.log(abs(cstar))
        k0 = log_ratio / (r * gap or math.ulp(0.0))
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
    variances the smaller is eventually above; equal ones, within
    ``_MASS_TIE_REL`` of the larger as masses are, cancel, and
    ``_discrete_tail`` decides on the discrete parts, except that two
    one-point parts are parallel lines, the higher above from k = 1.
    """
    return _tail(x, y, check_risk_aversion(r))[0]


def _tail(x: Prospect, y: Prospect, r: float) -> Tuple[TailVerdict, Callable[[], float]]:
    """``tail_order``'s verdict, and ``_margin`` bound to the pair: each prospect is decomposed once."""
    dx, dy = _decompose(x), _decompose(y)
    (xv, xm, x_var), (yv, ym, y_var) = dx, dy
    tied, levels = abs(x_var - y_var) <= _MASS_TIE_REL * max(x_var, y_var), None
    if tied and x_var and len(xv) == len(yv) == 1 and xv[0] != yv[0]:
        tail = TailVerdict(TailRelation.X_ABOVE if xv[0] > yv[0] else TailRelation.Y_ABOVE, 1.0, "Gaussian slope")
    elif tied:
        levels = _levels(xv.tolist(), xm.tolist(), yv.tolist(), ym.tolist())
        tail = _discrete_tail(*levels, r)
    else:
        if x_var < y_var:
            relation, steep, flat, slope = TailRelation.X_ABOVE, yv, xv, y_var - x_var
        else:
            relation, steep, flat, slope = TailRelation.Y_ABOVE, xv, yv, x_var - y_var
        # CE(D|rho) lies in [min D, max D], so the flatter curve is above once
        # slope*k*r/2 exceeds max D_steep - min D_flat; a divisor that
        # underflows to 0 stands as the least float: the certificate is out of range.
        k0 = 2.0 * (float(steep[-1]) - float(flat[0])) / (slope * r or math.ulp(0.0))
        certified = max(1.0, k0 * (1.0 + 1e-9) + 1e-6)
        tail = TailVerdict(relation, certified, "Gaussian slope" if min(x_var, y_var) else "worst-case gap")
    return tail, functools.partial(_margin, tail, levels, dx, dy, r)


def _margin(tail: TailVerdict, levels, dx, dy, r: float) -> float:
    """The count's phi > 0 where the tail's winner is strictly above on all of [1, certified_from], else 0.0.

    ``dx`` and ``dy`` are the two ``_decompose``, ``levels`` their ``_levels`` or None (module docstring).
    """
    k, x_wins = tail.certified_from, tail.relation is TailRelation.X_ABOVE
    if not k < math.inf:
        return 0.0
    merged, diffs = (levels or _levels(dx[0].tolist(), dx[1].tolist(), dy[0].tolist(), dy[1].tolist()))[:2]
    sign, band = 1.0 if x_wins else -1.0, _BAND + len(merged) * _BAND_PER_LEVEL
    low, total, phi = merged[0], 0.0, math.inf
    for v, d in zip(merged, diffs):
        total += sign * d * math.exp(r * (low - v))
        if total <= band:
            return 0.0
        if total < phi:
            phi = total
    phi -= band
    v_w, v_l = (dx[2], dy[2]) if x_wins else (dy[2], dx[2])
    bound = max(abs(low), abs(merged[-1])) + max(v_w, v_l) * k * r / 2.0
    need = 2.0 * _TIE_EPS * (1.0 + bound) + max(0.0, v_w - v_l) * k * r / 2.0 + _MASS_TIE_REL * (1.0 / r + bound)
    return phi if math.log1p(phi) / (k * r) > need else 0.0


def _geometric_grid(k_lo: float, k_hi: float) -> np.ndarray:
    """``GRID_POINTS_PER_DECADE`` points a decade from k_lo to k_hi, as ``np.geomspace`` spaces them."""
    if k_hi <= k_lo:
        return np.asarray([k_lo])
    decades = math.log10(k_hi / k_lo)
    return _geometric_points(k_lo, k_hi, max(2, int(math.ceil(GRID_POINTS_PER_DECADE * decades)) + 1))


# Grid offsets, from a bracket's left end, of the samples its first
# estimate interpolates: three on either side, the bracket's ends among them.
_STENCIL = np.arange(-2, 4)
_LEFT, _RIGHT = -int(_STENCIL[0]), int(_STENCIL[-1])
# For each sample, the others in order.
_OTHERS = [tuple(m for m in range(len(_STENCIL)) if m != j) for j in range(len(_STENCIL))]


def _lagrange_step(g: List[float], x: List[float]) -> float:
    """log k at g = 0 less x[_LEFT], on the polynomial in g through (g, x); NaN on a zero denominator.

    Weights prod_{m != j} g_m / (g_m - g_j), each product and the sum left to right as numpy reduces a row of six.
    """
    step = 0.0
    for j, (m0, m1, m2, m3, m4) in enumerate(_OTHERS):
        gj = g[j]
        den = (g[m0] - gj) * (g[m1] - gj) * (g[m2] - gj) * (g[m3] - gj) * (g[m4] - gj)
        if den == 0.0:
            return math.nan
        term = (x[j] - x[_LEFT]) * (g[m0] * g[m1] * g[m2] * g[m3] * g[m4] / den)
        step = step + term if j else term
    return step


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
    inverse is then not a function), when a product of the interpolation
    leaves the float range, or when the estimate falls outside the
    bracket.  The interpolation runs bracket by bracket on Python floats;
    log and exp are one numpy call each over every usable bracket.
    """
    # Columns past the left end wrap around; those brackets are not used.
    cols = np.minimum(lo[:, None] + _STENCIL, len(ks) - 1)
    samples = sample(cols).tolist()
    usable = [
        i
        for i, (left, right, g) in enumerate(zip(lo.tolist(), hi.tolist(), samples))
        if right == left + 1
        and _LEFT <= left < len(ks) - _RIGHT
        and (all(map(operator.lt, g, g[1:])) or all(map(operator.gt, g, g[1:])))
    ]
    out = [math.nan] * len(samples)
    near = ks[cols[usable]]
    steps = [_lagrange_step(samples[i], x) for i, x in zip(usable, np.log(near).tolist())]
    with np.errstate(over="ignore"):
        growth = np.exp(steps).tolist()
    for i, k, e in zip(usable, near.tolist(), growth):
        estimate = k[_LEFT] * e
        if k[_LEFT] < estimate < k[_LEFT + 1]:
            out[i] = estimate
    return np.array(out)


def _geometric_mean(a: float, b: float) -> float:
    """sqrt(a * b) for positive a and b; sqrt(a) * sqrt(b) where the product leaves the float range."""
    mean = math.sqrt(a * b)
    return mean if mean < math.inf else math.sqrt(a) * math.sqrt(b)


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
    ``diff`` call with two or three points per open bracket, all of its
    p1, then all of its p2, then the midpoints; the bookkeeping between
    calls runs bracket by bracket on Python floats.
    """
    a, b, ga, gb = lo.tolist(), hi.tolist(), g_lo.tolist(), g_hi.tolist()
    roots = [x + gx * (y - x) / (gx - gy) for x, y, gx, gy in zip(a, b, ga, gb)]
    centre = roots[:] if first is None else [root if math.isnan(f) else f for root, f in zip(roots, first.tolist())]
    halved = [True] * len(a)
    active = [i for i, (x, y) in enumerate(zip(a, b)) if y - x > ROOT_REL_TOL * y]
    while active:
        halves = [0.25 * ROOT_REL_TOL * b[i] for i in active]
        # Width > 4 * half, so both points lie strictly inside the bracket.
        cs = [min(max(centre[i], a[i] + 2.0 * h), b[i] - 2.0 * h) for i, h in zip(active, halves)]
        p1, p2 = [c - h for c, h in zip(cs, halves)], [c + h for c, h in zip(cs, halves)]
        stalled = [i for i in active if not halved[i]]
        mids = [_geometric_mean(a[i], b[i]) for i in stalled]
        g = diff(np.array(active + active + stalled), np.array(p1 + p2 + mids)).tolist()
        n = len(active)
        third = dict(zip(stalled, zip(mids, g[2 * n :])))
        still = []
        for i, x1, x2, g1, g2 in zip(active, p1, p2, g[:n], g[n : 2 * n]):
            # Left end, the round's points in ascending order, right end.
            points, values = [a[i], x1, x2, b[i]], [ga[i], g1, g2, gb[i]]
            if i in third:
                at = 1 if third[i][0] < x1 else 2 if third[i][0] < x2 else 3
                points.insert(at, third[i][0])
                values.insert(at, third[i][1])
            positive = ga[i] > 0.0
            for j, v in enumerate(values):
                if v == 0.0 or (v > 0.0) != positive:
                    break
            else:  # no value changes sign (a NaN end): the pair wraps around
                j = 0
            a1, b1, ga1, gb1 = points[j - 1], points[j], values[j - 1], values[j]
            q = b1 / a1  # a square past the float range did not halve
            halved[i] = q * q <= b[i] / a[i]
            a[i], b[i], ga[i], gb[i] = a1, b1, ga1, gb1

            # Next centre: the secant root through (p1, g1) and (p2, g2), or the
            # new bracket's end-point secant root where that one does not lie
            # inside the bracket.  Where g1 = g2 it is taken as p1, an end of
            # the new bracket or outside it.
            ends = a1 + ga1 * (b1 - a1) / (ga1 - gb1)
            newton = x1 + g1 * (x2 - x1) / (g1 - g2 if g1 != g2 else math.inf)
            centre[i] = newton if a1 < newton < b1 else ends
            roots[i] = b1 if gb1 == 0.0 else ends
            if not (gb1 == 0.0 or b1 - a1 <= ROOT_REL_TOL * b1):
                still.append(i)
        active = still
    return np.array(roots)


def _tie_tolerance(u, v):
    """Two CEs, floats or arrays, closer than this are tied: ``_TIE_EPS`` * (1 + the larger magnitude)."""
    return _TIE_EPS * (1.0 + np.maximum(abs(u), abs(v)))


def _scan(packed, r: float, ks: np.ndarray) -> Tuple[np.ndarray, List[float], List[Tuple[float, int]]]:
    """Every curve of ``packed`` on the grid ``ks``, and a cut wherever the top curve changes.

    Returns the CEs (one row per curve), one cut per grid gap where the top
    curve changes, ascending, and the crossings refined among them as (k,
    the curve above to the left of k), in order.  A change from curve a to
    curve b is bracketed from the last sample at or before it where a - b
    is signed (clears ``_tie_tolerance``) to the first signed sample after
    it, skipping samples in the tie band; where the tie band runs on to the
    end of the grid, the first sample after with a below b closes the
    bracket instead.  It is a crossing when a is above at the bracket's
    left end and below at its right end.  A bracket already taken by an
    earlier change is refined once, and a change with no such bracket keeps
    its gap's geometric midpoint as its cut.
    """
    ces = _certain_equivalents(packed, ks * r)
    # np.argmax(ces, axis=0), without its cost on two rows: the first of the largest
    best = (ces[1] > ces[0]).view(np.int8) if len(ces) == 2 else ces.argmax(axis=0)
    pairs = {}  # (a, b) -> a - b on the grid, and its signed samples
    brackets = {}  # (a, b, left end) -> (right end, a - b at both ends)
    mids = []
    for j in (best[1:] != best[:-1]).nonzero()[0].tolist():
        a, b, u, v = int(best[j]), int(best[j + 1]), ces[:, j].tolist(), ces[:, j + 1].tolist()
        j0, j1, g0, g1 = j, j + 1, u[a] - u[b], v[a] - v[b]
        if not (abs(g0) > _tie_tolerance(u[a], u[b]) and abs(g1) > _tie_tolerance(v[a], v[b])):
            if (a, b) not in pairs:
                d = ces[a] - ces[b]
                pairs[a, b] = d, np.flatnonzero(abs(d) > _tie_tolerance(ces[a], ces[b])).tolist()
            d, signed = pairs[a, b]
            n = bisect.bisect_right(signed, j)
            j0 = signed[n - 1] if n else j
            # No signed sample after the change: the tie band runs on to the end; the first with a below b closes.
            j1 = signed[n] if n < len(signed) else j0 + 1 + int(np.argmax(d[j0 + 1 :] < 0.0))
            g0, g1 = float(d[j0]) if n else 0.0, float(d[j1])  # none before it: no bracket
        if g0 > 0.0 > g1 and (a, b, j0) not in brackets:
            brackets[a, b, j0] = j1, g0, g1
        else:
            mids.append(_geometric_mean(float(ks[j]), float(ks[j + 1])))
    if not brackets:
        return ces, mids, []
    first, second, lo = (np.array(c) for c in zip(*brackets))
    hi, g_lo, g_hi = (np.array(c) for c in zip(*brackets.values()))

    def diff(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        # Every curve at every point, in one kernel call; each point reads its bracket's two.
        ce = _certain_equivalents(packed, k * r)
        points = np.arange(len(k))
        return ce[first[rows], points] - ce[second[rows], points]

    guess = _first_estimates(ks, lo, hi, lambda cols: ces[first[:, None], cols] - ces[second[:, None], cols])
    roots = _refine(diff, ks[lo], ks[hi], g_lo, g_hi, guess).tolist()
    return ces, sorted(mids + roots), list(zip(roots, first.tolist()))


def _threshold_scan(
    winner: Prospect, loser: Prospect, r: float, certified: float
) -> Tuple[float, Tuple[float, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Crossings of g(k) = CE(winner|kr) - CE(loser|kr) on [1, certified].

    Returns (K, crossings, grid ks, g samples, tie tolerances); K is the
    smallest value such that g >= 0 (up to ties) on [K, certified]: 1.0
    when the loser is never significantly above, else the crossing where
    the loser gives way after its last signed lead, or the end of the grid
    when the loser never gives way after it.
    """
    if not math.isfinite(certified):
        raise OverflowError(f"tail certificate k={certified!r} out of floating-point range")
    ks = _geometric_grid(1.0, max(1.0, certified))
    (ce_w, ce_l), _, crossings = _scan(_pack((winner, loser)), r, ks)
    gs, tols = ce_w - ce_l, _tie_tolerance(ce_w, ce_l)
    lead = np.flatnonzero(gs < -tols)
    threshold = 1.0
    if lead.size:
        # Of the crossings where the loser (row 1) gives way, only the one bracketed from its last lead lies past it.
        threshold = next((k for k, above in crossings if above == 1 and k >= ks[lead[-1]]), float(ks[-1]))
    return threshold, tuple(k for k, _ in crossings), ks, gs, tols


def find_threshold(x: Prospect, y: Prospect, r: float) -> Optional[float]:
    """Smallest K >= 1 with CE(X|kr) >= CE(Y|kr) for all k >= K.

    Absent (None) when the tail strictly favors Y, so no such K exists.
    """
    r = check_risk_aversion(r)
    tail, margin = _tail(x, y, r)
    if tail.relation is TailRelation.Y_ABOVE:
        return None
    if tail.relation is TailRelation.EQUAL or margin():
        return 1.0
    return _threshold_scan(x, y, r, tail.certified_from)[0]


def compare(x: Prospect, y: Prospect, r: float) -> FlexibilityVerdict:
    """Classify the pair into the flexibility taxonomy.

    Dominance is the threshold-1 case; the strict variants require the
    difference to clear the tie tolerance at every checked point.  The
    incomparable verdict is reserved for independent sums past the
    exact-convolution support cap, which the tail cannot reduce.
    """
    r = check_risk_aversion(r)
    try:
        tail, margin = _tail(x, y, r)
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

    if margin():  # no crossing, strictly above from k = 1: what the scan would find
        return FlexibilityVerdict(dominant[0], 1.0, (), tail)
    threshold, crossings, ks, gs, tols = _threshold_scan(winner, loser, r, tail.certified_from)

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
    affine maps and sums) are lines, cut at the exact breakpoints of their
    upper hull; others where ``_scan`` finds the top curve change on a
    geometric grid, crossings refined together to ROOT_REL_TOL.  Either way
    ``_label`` names each span's curves on top by one rule.  Prospects
    absent from the output are optimal for no k in range.
    """
    r = check_risk_aversion(r)
    items = list(prospects)
    if not items:
        raise ValueError("envelope needs at least one prospect")
    k_lo, k_hi = (float(k_range[0]), float(k_range[1]))
    if not (0.0 < k_lo < k_hi < math.inf):
        raise ValueError(f"invalid k range {k_range!r}")
    if all(part.values is None for _, p in items for part in p._form):
        return _line_envelope(items, r, k_lo, k_hi)
    return _grid_envelope(items, r, k_lo, k_hi)


def _meet(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """The k where lines (slope, intercept) a and b meet."""
    return (a[1] - b[1]) / (b[0] - a[0])


def _line_envelope(
    items: Sequence[Tuple[str, Prospect]], r: float, k_lo: float, k_hi: float
) -> List[EnvelopeSegment]:
    # Each curve is the line mean - (variance*r/2) * k; of equal slopes only the highest intercept can be on top.
    lines = [(-0.5 * s.variance * r, s.mean) for s in (stats(p) for _, p in items)]
    # Upper hull over all real k; its breakpoints, clipped to [k_lo, k_hi], are the cuts.
    hull: List[Tuple[float, float]] = []
    for line in dict(sorted(lines)).items():  # ascending slopes, each with its highest intercept
        while len(hull) >= 2 and _meet(hull[-1], line) <= _meet(hull[-2], hull[-1]):
            hull.pop()
        hull.append(line)
    cuts = [min(max(_meet(a, b), k_lo), k_hi) for a, b in zip(hull, hull[1:])]
    slopes, intercepts = (np.array(c)[:, None] for c in zip(*lines))

    def values(ks: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # a line past the float range reads -inf
            return intercepts + slopes * ks

    return _label(items, cuts, k_lo, k_hi, values)


def _grid_envelope(
    items: Sequence[Tuple[str, Prospect]], r: float, k_lo: float, k_hi: float
) -> List[EnvelopeSegment]:
    curves = _pack([p for _, p in items])
    _, cuts, _ = _scan(curves, r, _geometric_grid(k_lo, k_hi))
    return _label(items, cuts, k_lo, k_hi, lambda ks: _certain_equivalents(curves, ks * r))


def _label(
    items: Sequence[Tuple[str, Prospect]], cuts: List[float], k_lo: float, k_hi: float, values: Callable[[np.ndarray], np.ndarray]
) -> List[EnvelopeSegment]:
    """Segments of [k_lo, k_hi] cut at ``cuts`` (ascending), empty spans dropped.

    ``values(ks)`` holds every item's curve at each k, one row per item.  A span
    is labelled with the curves within 1e-9 * (1 + |top|) of the top at its
    geometric midpoint, and neighbours with equal labels are merged.
    """
    bounds = [k_lo, *cuts, k_hi]
    spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    at_mids = values(np.array([_geometric_mean(lo, hi) for lo, hi in spans]))
    top = at_mids.max(axis=0)
    on_top = at_mids >= top - 1e-9 * (1.0 + np.abs(top))
    segments: List[EnvelopeSegment] = []
    for (lo, hi), column in zip(spans, on_top.T):
        labels = tuple(sorted(items[i][0] for i in np.flatnonzero(column)))
        if segments and segments[-1].ids == labels:
            segments[-1] = EnvelopeSegment(segments[-1].k_lo, hi, labels)
        else:
            segments.append(EnvelopeSegment(lo, hi, labels))
    return segments
