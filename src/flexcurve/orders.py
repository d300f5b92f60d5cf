"""Flexibility orders between prospects under distorted risk aversion.

A prospect X is more flexible than Y when CE(X|kr) >= CE(Y|kr) for all k
beyond some threshold K >= 1, and dominates Y when K = 1.  Every normal
form is a discrete part plus an independent Gaussian, so the eventual
ordering can be certified in closed form: beyond a computable k the
flatter Gaussian line provably wins, or, when the variances are equal,
the leading term of the discrete parts' exponential sum.  Only a sum past
the exact-convolution support cap escapes this (``compare`` calls it
incomparable).  ``compare`` and ``find_threshold`` count crossings first:
over the merged support v_1 < ... < v_N of the discrete parts, F_j sums
(p_loser - p_winner)(v_i) exp(-r (v_i - v_1)) over i <= j.  The Laplace
kernel diminishes variation (Karlin, *Total Positivity*, 1968): where every
F_j clears a rounding band, phi = min_j F_j - band > 0, and summing by
parts gives CE_winner - CE_loser >= log1p(phi)/(kr) + (v_l - v_w)kr/2 for
k >= 1, v_w <= v_l up to 64 ulps being the Gaussian variances.  Where that
clears twice the tie tolerance and an assumed CE rounding (64 ulps of 1/r
and of the largest magnitude) up to certified_from, the answer, strict
dominance from k = 1 with no crossing, needs no CE.  Every other pair, and
every envelope, goes to one scanner, ``_scan``: from each curve's CE and
tilted mean at geometric samples it settles by proof, every gap of each
pair it keeps alike, below the certificate and up to the tie tolerance,
where each pair keeps its sign and where it crosses once (``_settle``),
splitting only the gaps it cannot
settle, and refines every crossing to ROOT_REL_TOL, all brackets
together, one CE call a round.
That turns the for-all-k definition into a finite, checked procedure.
"""

from __future__ import annotations

import functools
import math
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

GRID_POINTS_PER_DECADE = 128

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


def _certified(k0: float) -> float:
    """The tail certificate past a bound k0 on the last crossing: a relative and an absolute margin, at least 1."""
    return max(1.0, k0 * (1.0 + 1e-9) + 1e-6)


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
    certified = _certified(k0)
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
        tail = TailVerdict(relation, _certified(k0), "Gaussian slope" if min(x_var, y_var) else "worst-case gap")
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


def _hermite_start(k_a: float, k_b: float, y_a: float, y_b: float, s_a: float, s_b: float) -> float:
    """A first estimate of the root in [k_a, k_b], where y_a and y_b have opposite signs.

    The root of the cubic Hermite in log k through each end's value y and
    exact slope s = dy/dlog k, by Newton's method from the end-point secant
    root; that secant root where the cubic's is not found inside.
    """
    h = math.log(k_b / k_a)
    # y_a + c1 t + c2 t^2 + c3 t^3 for t in [0, 1]
    c1, c2, c3 = h * s_a, 3.0 * (y_b - y_a) - h * (2.0 * s_a + s_b), 2.0 * (y_a - y_b) + h * (s_a + s_b)
    t = y_a / (y_a - y_b)
    for _ in range(8):
        step = (y_a + t * (c1 + t * (c2 + t * c3))) / (c1 + t * (2.0 * c2 + 3.0 * t * c3) or math.nan)
        t -= step
        if not abs(step) > 1e-15:
            break
    k = k_a * math.exp(t * h) if 0.0 < t < 1.0 else k_a
    return k if k_a < k < k_b else k_a + y_a * (k_b - k_a) / (y_a - y_b)


def _tie_tolerance(u, v):
    """Two CEs, floats or arrays, closer than this are tied: ``_TIE_EPS`` * (1 + the larger magnitude)."""
    return _TIE_EPS * (1.0 + np.maximum(abs(u), abs(v)))


def _settle(ks: np.ndarray, u: np.ndarray, v: np.ndarray, e: np.ndarray, f: np.ndarray):
    """Differences, signs, proven gap signs and settled flags of pairs of curves with CEs u, v and tilted means e, f.

    Each of u, v, e and f holds a row a pair, a column a sample at ``ks``; gap j runs from a = ks[j] to
    b = ks[j + 1].  g = u - v has the sign 1 or -1 where it clears its ``_tie_tolerance``, else 0.  A gap is
    settled when tied at both ends, proven to keep its ends' common sign (its proven sign), proven to cross
    once between opposite signs, or proven never to take the sign opposite its one signed end's.  As
    d(k CE)/dk = E falls when k rises, G = k g has its slope in [e(b) - f(a), e(a) - f(b)], widened by two
    tolerances for rounding.  Where that excludes 0, g crosses 0 at most once and only one way, and a sign
    both ends share holds between them: beyond a/b times the tolerance where G moves towards 0
    (|g(k)| >= a |g(a)| / k), and beyond |g(b)| where it moves away.  Otherwise the boxes [u(b), u(a)] and
    [v(b), v(a)] may be disjoint, or G lies within the lines through its ends with the extreme slopes.  The
    proofs hold up to the tie tolerance, which stands for the rounding of the CEs and tilted means.
    """
    g, tol = u - v, _tie_tolerance(u, v)
    signs = np.subtract(g > tol, g < -tol, dtype=np.int8)
    a, b, s_a, s_b = ks[:-1], ks[1:], signs[:, :-1], signs[:, 1:]  # each gap's left end, then its right end
    band = np.maximum(tol[:, :-1], tol[:, 1:])
    slow, fast = e[:, 1:] - f[:, :-1] - 2.0 * band, e[:, :-1] - f[:, 1:] + 2.0 * band
    settled, strict = (slow > 0.0) | (fast < 0.0), np.where(s_a == s_b, s_a, 0.0)
    if settled.all():
        return g, signs, strict, settled
    box = np.subtract(u[:, 1:] - v[:, :-1] > band, u[:, :-1] - v[:, 1:] < -band, dtype=float)
    strict, settled = np.where(settled, strict, box), settled | (box != 0)
    if not (~settled & (s_a * s_b >= 0)).any():  # the lines below settle no gap between opposite signs
        return g, signs, strict, settled
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        left, right, corner, spread = a * g[:, :-1], b * g[:, 1:], slow * fast * (b - a), fast - slow
        lowest, highest = (left * fast - right * slow + corner) / spread, (right * fast - left * slow - corner) / spread
    bent = np.subtract(lowest > b * band, highest < -b * band, dtype=float)
    strict, both = np.where(settled, strict, bent), s_a + s_b
    settled |= (bent != 0) | (s_a == 0) & (s_b == 0) | (both == 1) & (lowest >= -a * band) | (both == -1) & (highest <= a * band)
    return g, signs, strict, settled


def _hidden(ks: np.ndarray, ces: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Curves x gaps: where a curve is proven below the top curve at the gap's right end, beyond the tie tolerance, all through it.

    G = k CE is concave in k (its slope, the tilted mean, falls), so the top curve's G lies above its chord
    over the gap and the other's below its tangent at the left end, slope widened by two tolerances for
    rounding: the two lines' difference clearing the tolerance at both ends proves the curve below.  The
    tolerance at a sample is the largest of its pairs' (``_tie_tolerance`` of its largest CE magnitude).
    """
    big, tol = ks * ces, _TIE_EPS * (1.0 + abs(ces).max(axis=0))
    top, gaps = ces[:, 1:].argmax(axis=0), np.arange(len(ks) - 1)
    chord_a, chord_b, left = big[top, gaps], big[top, gaps + 1], big[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):
        rise = (means[:, :-1] + 2.0 * np.maximum(tol[:-1], tol[1:])) * (ks[1:] - ks[:-1])
        return (chord_a - left > ks[:-1] * tol[:-1]) & (chord_b - left - rise > ks[1:] * tol[1:])


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair of n curves, first less than second: ``np.triu_indices(n, 1)``."""
    return np.triu_indices(n, 1)


def _scan(packed, r: float, k_lo: float, k_hi: float):
    """Prove where pairs of ``packed``'s curves cross on [k_lo, k_hi]; refine the crossings that can touch the top.

    The curves are sampled ``GRID_POINTS_PER_DECADE`` points a decade (CE and tilted mean), and every gap
    ``_settle`` leaves open is split at its geometric midpoint, one kernel call a round.  Past 4 times the
    seed's points only gaps between opposite signs split, and none narrower than ROOT_REL_TOL * its right end:
    a gap left open keeps the sign its samples agree on.  Every kept pair settles all its gaps alike: where
    pairs outnumber curves (four or more), only pairs open together on some gap, neither curve ``_hidden``
    there, are kept; with three curves or more, a gap a round leaves open is settled for a pair where either
    curve is hidden, and no crossing is refined where one of its curves is hidden all through its bracket: it cannot touch the
    top.  A crossing is bracketed between signed samples of opposite signs with only tied ones between; a tie band running on
    to the end closes at its first sample of the other sign.  Returns the ks, the CEs (a row a curve), the
    settled pairs' signs and proven gap signs (``_settle``; two curves make one pair, the first less the
    second), and the crossings as (k, left sample, right sample), ascending.
    """
    n = len(packed.forms)
    ks = _geometric_grid(k_lo, k_hi)
    budget = 4 * len(ks)
    ces, means = _certain_equivalents(packed, ks * r, tilted=True)
    while True:
        first, second = _pairs(n)
        hidden = _hidden(ks, ces, means) if len(first) > n else None
        if hidden is not None:  # pairs outnumber curves: keep those both open on some gap
            shown = (~hidden).astype(float)
            near = (shown @ shown.T)[first, second] > 0.0
            first, second = first[near], second[near]
        # u, v, e and f: each pair's first and second curves' CEs, then their tilted means
        curves = np.concatenate((ces, means))[np.concatenate((first, second, first + n, second + n))].reshape(4, len(first), len(ks))
        g, signs, strict, settled = _settle(ks, *curves)
        if n > 2 and not settled.all():
            hidden = _hidden(ks, ces, means) if hidden is None else hidden
            settled |= hidden[first] | hidden[second]
        if settled.all():
            break
        unsettled = ~settled & (ks[1:] - ks[:-1] > ROOT_REL_TOL * ks[1:])
        split = unsettled.any(axis=0)
        if len(ks) + np.count_nonzero(split) > budget:
            split = (unsettled & (signs[:, :-1] * signs[:, 1:] < 0)).any(axis=0)
        split = split.nonzero()[0]
        if not split.size:
            strict = np.where(settled | (signs[:, :-1] != signs[:, 1:]), strict, signs[:, :-1])
            break
        mids = np.sqrt(ks[split]) * np.sqrt(ks[split + 1])
        more, more_means = _certain_equivalents(packed, mids * r, tilted=True)
        ks = np.insert(ks, split + 1, mids)
        ces, means = np.insert(ces, split + 1, more, axis=1), np.insert(means, split + 1, more_means, axis=1)
    brackets = []
    for pair in ((signs != 0).any(axis=1) & (g > 0.0).any(axis=1) & (g < 0.0).any(axis=1)).nonzero()[0].tolist():
        row, i, j = signs[pair], first[pair], second[pair]
        signed = row.nonzero()[0]
        flips = (row[signed[1:]] != row[signed[:-1]]).nonzero()[0]
        ends = list(zip(signed[flips].tolist(), signed[flips + 1].tolist()))
        last = int(signed[-1])
        past = (g[pair, last + 1 :] * row[last] < 0.0).nonzero()[0]
        ends += [(last, last + 1 + int(past[0]))] if past.size else []
        for left, right in ends:
            if hidden is None or not (hidden[i, left:right].all() or hidden[j, left:right].all()):
                k_a, k_b, g_a, g_b = float(ks[left]), float(ks[right]), float(g[pair, left]), float(g[pair, right])
                # dCE/dlog k = E - CE gives g's slopes
                start = _hermite_start(k_a, k_b, g_a, g_b, float(means[i, left] - means[j, left]) - g_a, float(means[i, right] - means[j, right]) - g_b)
                brackets.append((i, j, left, right, k_a, k_b, g_a, g_b, start))
    if not brackets:
        return ks, ces, signs, strict, []
    a, b, left, right, k_lo, k_hi, g_lo, g_hi, starts = (np.array(c) for c in zip(*brackets))

    def diff(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        # Every curve at every point, in one kernel call; each point reads its bracket's two.
        ce, points = _certain_equivalents(packed, k * r), np.arange(len(k))
        return ce[a[rows], points] - ce[b[rows], points]

    roots = _refine(diff, k_lo, k_hi, g_lo, g_hi, starts).tolist()
    return ks, ces, signs, strict, sorted(zip(roots, left.tolist(), right.tolist()))


def _threshold_scan(winner: Prospect, loser: Prospect, r: float, certified: float) -> Tuple[float, Tuple[float, ...], bool]:
    """Threshold K, crossings and strictness of g(k) = CE(winner|kr) - CE(loser|kr) on [1, certified].

    K is 1.0 if the loser never leads beyond the tie tolerance, else the crossing where it gives way after its
    last lead, or ``certified``.  Strict: g is proven beyond the tolerance on every gap past K's bracket, with no
    tied sample more than 2 * ROOT_REL_TOL past K; for K within 1e-9 of 1, on the whole range.
    """
    if not math.isfinite(certified):
        raise OverflowError(f"tail certificate k={certified!r} out of floating-point range")
    ks, _, signs, strict, crossings = _scan(_pack((winner, loser)), r, 1.0, max(1.0, certified))
    signs, strict, roots = signs[0], strict[0], tuple(k for k, *_ in crossings)
    lead = (signs < 0).nonzero()[0]
    if not lead.size:
        return 1.0, roots, bool((signs > 0).all() and (strict > 0).all())
    # Of the crossings where the loser gives way, only the one bracketed from its last lead lies past it.
    threshold, end = next(((k, right) for k, left, right in crossings if left == lead[-1]), (float(ks[-1]), len(ks) - 1))
    # The samples between the last lead and the bracket's right end are tied.
    tied_past = (ks[lead[-1] + 1 : end] > threshold * (1.0 + 2.0 * ROOT_REL_TOL)).any()
    return threshold, roots, threshold > 1.0 + 1e-9 and not tied_past and bool((strict[end:] > 0).all())


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
    difference to clear the tie tolerance past the threshold, settled gap
    by gap.  The incomparable verdict is reserved for independent sums
    past the exact-convolution support cap, which the tail cannot reduce.
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
    threshold, crossings, strict = _threshold_scan(winner, loser, r, tail.certified_from)

    if threshold <= 1.0 + 1e-9:
        return FlexibilityVerdict(dominant[0] if strict else dominant[1], 1.0, crossings, tail)
    return FlexibilityVerdict(flexible[0] if strict else flexible[1], threshold, crossings, tail)


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
    upper hull; others at the crossings ``_scan`` proves near the top,
    refined together to ROOT_REL_TOL.  Either way ``_label`` names each
    span's curves on top by one rule.  Prospects absent from the output are
    optimal for no k in range.  Raises ValueError for a repeated id.
    """
    r = check_risk_aversion(r)
    items = list(prospects)
    if not items:
        raise ValueError("envelope needs at least one prospect")
    ids = [pid for pid, _ in items]
    repeated = next((pid for i, pid in enumerate(ids) if pid in ids[:i]), None)
    if repeated is not None:
        raise ValueError(f"repeated prospect id {repeated!r}")
    k_lo, k_hi = (float(k_range[0]), float(k_range[1]))
    if not (0.0 < k_lo < k_hi < math.inf):
        raise ValueError(f"invalid k range {k_range!r}")
    if all(part.values is None for _, p in items for part in p._form):
        return _line_envelope(items, r, k_lo, k_hi)
    return _grid_envelope(items, r, k_lo, k_hi)


def _meet(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """The k where lines (slope, intercept) a and b meet; a difference of quotients where the intercepts' difference overflows."""
    k = (a[1] - b[1]) / (b[0] - a[0])
    return k if math.isfinite(k) else a[1] / (b[0] - a[0]) - b[1] / (b[0] - a[0])


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
        with np.errstate(over="ignore"):  # where a line leaves the float range, a column reads every line over k: same order
            at = intercepts + slopes * ks
            return np.where(np.isfinite(at).all(axis=0), at, intercepts / ks + slopes)

    return _label(items, cuts, k_lo, k_hi, values)


def _grid_envelope(
    items: Sequence[Tuple[str, Prospect]], r: float, k_lo: float, k_hi: float
) -> List[EnvelopeSegment]:
    """Cuts at the crossings ``_scan`` proves near the top (within ROOT_REL_TOL, one), and mid-gap where the top sample changes with none."""
    curves = _pack([p for _, p in items])
    ks, ces, _, _, crossings = _scan(curves, r, k_lo, k_hi)
    cuts: List[float] = []
    for k, *_ in crossings:
        if not cuts or k > cuts[-1] * (1.0 + ROOT_REL_TOL):
            cuts.append(k)
    best, crossed = ces.argmax(axis=0), set((np.searchsorted(ks, cuts) - 1).tolist())
    mids = [_geometric_mean(float(ks[j]), float(ks[j + 1])) for j in (best[1:] != best[:-1]).nonzero()[0].tolist() if j not in crossed]
    return _label(items, sorted(cuts + mids), k_lo, k_hi, lambda ks: _certain_equivalents(curves, ks * r))


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
    for (lo, hi), column in zip(spans, on_top.T.tolist()):
        labels = tuple(sorted(pid for (pid, _), on in zip(items, column) if on))
        if segments and segments[-1].ids == labels:
            segments[-1] = EnvelopeSegment(segments[-1].k_lo, hi, labels)
        else:
            segments.append(EnvelopeSegment(lo, hi, labels))
    return segments
