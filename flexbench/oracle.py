"""Reference computations the benchmark checks flexcurve against.

Nothing here imports flexcurve.  Prospects are described by the plain
spec tuples that ``workloads`` generates, and every certain equivalent is
computed the textbook way: expected exponential utility, then inverted.
Supports are shifted by their minimum before exponentiating, so for the
input ranges the generators produce no term overflows or underflows to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Relative slack for comparing a program value with a reference value.  The
# CLI prints 12 significant digits, so anything tighter than ~1e-11 would
# flag formatting, not arithmetic.
REL_TOL = 1e-9

# Largest rho x support block ``ce`` evaluates at once.  On wide supports
# that is one rho at a time, so the oracle's temporaries stay below the
# library's own working set for one CE and peak memory stays the library's.
CE_BLOCK = 1 << 15


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


@dataclass(frozen=True)
class Dist:
    """Discrete part (values may repeat) plus an independent Gaussian."""

    values: np.ndarray
    masses: np.ndarray
    g_mean: float = 0.0
    g_var: float = 0.0


def dist(spec) -> Dist:
    """Reference distribution of a prospect spec (see ``workloads``)."""
    kind = spec[0]
    if kind == "discrete":
        pts = spec[1]
        masses = np.array([m for _, m in pts], dtype=float)
        return Dist(np.array([v for v, _ in pts], dtype=float), masses / masses.sum())
    if kind == "gaussian":
        if spec[2] == 0.0:
            return Dist(np.array([spec[1]]), np.array([1.0]))
        return Dist(np.array([0.0]), np.array([1.0]), spec[1], spec[2])
    if kind == "affine":
        base = dist(spec[1])
        s, c = spec[2], spec[3]
        return Dist(base.values * s + c, base.masses, base.g_mean * s, base.g_var * s * s)
    if kind == "shift":
        base = dist(spec[1])
        return Dist(base.values + spec[2], base.masses, base.g_mean, base.g_var)
    if kind == "add":
        x, z = dist(spec[1]), dist(spec[2])
        return Dist(
            np.add.outer(x.values, z.values).ravel(),
            np.multiply.outer(x.masses, z.masses).ravel(),
            x.g_mean + z.g_mean,
            x.g_var + z.g_var,
        )
    if kind == "stigler":
        # One side of a two-cost-curve scenario: value is minus the cost.
        grid, costs = spec[1][0], spec[1][1 + spec[2]]
        return Dist(np.array([-costs[q] for q, _ in grid]), np.array([p for _, p in grid]))
    raise ValueError(f"unknown spec kind {kind!r}")


def ce(d: Dist, rhos) -> np.ndarray:
    """CE(X|rho) for each rho > 0: expected utility -exp(-rho x), inverted."""
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    low = float(d.values.min())
    # E[-exp(-rho X)] = -exp(-rho low) * E[exp(-rho (X - low))] for the
    # discrete part; the Gaussian factor is exp(-rho m + rho^2 v / 2).
    shifted = d.values - low
    step = max(1, CE_BLOCK // shifted.size)
    eu = np.concatenate([np.exp(-np.outer(rhos[i:i + step], shifted)) @ d.masses
                         for i in range(0, rhos.size, step)])
    return low - np.log(eu) / rhos + d.g_mean - 0.5 * rhos * d.g_var


def worst(d: Dist) -> float:
    return -math.inf if d.g_var > 0.0 else float(d.values.min()) + d.g_mean


# ---------------------------------------------------------------------------
# Pair verdicts


def _gap(dx: Dist, dy: Dist, r: float, ks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    cx, cy = ce(dx, ks * r), ce(dy, ks * r)
    return cx - cy, REL_TOL * (1.0 + np.maximum(np.abs(cx), np.abs(cy)))


def scan_ks(k_hi: float, n: int = 48) -> np.ndarray:
    """Geometric sample of k from 1 well past ``k_hi``, plus far-tail points."""
    top = max(4.0 * k_hi, 64.0)
    return np.concatenate([np.geomspace(1.0, top, n), [top * 10.0, top * 100.0]])


def sign_changes(dx: Dist, dy: Dist, r: float, ks: np.ndarray) -> List[Tuple[float, float]]:
    """Intervals of ``ks`` across which CE(X) - CE(Y) changes sign clearly."""
    g, tol = _gap(dx, dy, r, ks)
    sig = np.abs(g) > tol
    idx = np.nonzero(sig)[0]
    out = []
    for a, b in zip(idx, idx[1:]):
        if (g[a] > 0.0) != (g[b] > 0.0):
            out.append((float(ks[a]), float(ks[b])))
    return out


def tail_winner(dx: Dist, dy: Dist) -> int:
    """+1 if X is above Y for every large enough k, -1 if Y is, 0 if the
    keys below tie and the tail is decided further out.

    CE(X|rho) = low + g_mean - rho g_var / 2 - log E[exp(-rho (X - low))] / rho,
    and the last term tends to -log P[X = low] / rho.  So the keys, in
    order, are: smaller g_var, larger low + g_mean, smaller mass at low.
    A sampled far-tail gap cannot stand in for them: two Gaussians with
    nearly equal variances cross only beyond any fixed k.
    """
    def keys(d: Dist) -> Tuple[float, float, float]:
        low = float(d.values.min())
        at_low = np.abs(d.values - low) <= REL_TOL * (1.0 + abs(low))
        return -d.g_var, low + d.g_mean, -float(d.masses[at_low].sum())

    for a, b in zip(keys(dx), keys(dy)):
        if not close(a, b):
            return 1 if a > b else -1
    return 0


def x_wins_tail(dx: Dist, dy: Dist, r: float) -> bool:
    """X is above Y in the far tail (sampled far out if the keys tie)."""
    winner = tail_winner(dx, dy)
    if winner == 0:
        g, tol = _gap(dx, dy, r, scan_ks(1.0)[-1:])
        return bool(g[0] > tol[0])
    return winner > 0


def check_threshold(dx: Dist, dy: Dist, r: float, threshold: Optional[float], k_hi: float) -> Optional[str]:
    """Check the smallest K with CE(X|kr) >= CE(Y|kr) for all k >= K.

    ``None`` means the tail favours Y: X must not win the far tail.
    Otherwise Y must not win it, and the gap must be nonnegative (up to
    ties) at every sampled k beyond K and not positive just below K.
    """
    if threshold is None:
        if x_wins_tail(dx, dy, r):
            return "threshold absent but X is above in the far tail"
        return None
    if tail_winner(dx, dy) < 0:
        return f"threshold {threshold:.6g} but Y is above in the far tail"
    ks = scan_ks(max(k_hi, threshold))
    g, tol = _gap(dx, dy, r, ks)
    beyond = ks > threshold * (1.0 + 1e-6)
    if np.any(g[beyond] < -tol[beyond]):
        k_bad = float(ks[beyond][np.argmin(g[beyond] + tol[beyond])])
        return f"X below Y at k={k_bad:.6g} beyond threshold {threshold:.6g}"
    if threshold > 1.0 + 1e-9:
        g_below, tol_below = _gap(dx, dy, r, np.array([threshold * (1.0 - 1e-5)]))
        if g_below[0] > tol_below[0]:
            return f"X already above just below threshold {threshold:.6g}"
    return None


def check_crossings(dx: Dist, dy: Dist, r: float, crossings: Sequence[float], k_hi: float) -> Optional[str]:
    """Each reported crossing is a sign change; no sampled sign change is missed."""
    for c in crossings:
        g, tol = _gap(dx, dy, r, np.array([c * (1.0 - 1e-5), c * (1.0 + 1e-5)]))
        if abs(g[0]) > tol[0] and abs(g[1]) > tol[1] and (g[0] > 0.0) == (g[1] > 0.0):
            return f"no sign change at reported crossing k={c:.6g}"
    for lo, hi in sign_changes(dx, dy, r, scan_ks(k_hi)):
        if not any(lo <= c <= hi for c in crossings):
            return f"missed a crossing in k=[{lo:.6g}, {hi:.6g}]"
    return None


def check_verdict(
    dx: Dist, dy: Dist, r: float, classification: str, threshold: Optional[float],
    crossings: Sequence[float], certified_from: Optional[float],
) -> Optional[str]:
    """Check a ``compare`` verdict by the sign of reference CE differences."""
    k_hi = max(certified_from or 1.0, threshold or 1.0)
    if classification == "incomparable":
        if dx.g_var > 0.0 and dy.g_var > 0.0 and (dx.values.size > 1 or dy.values.size > 1):
            return None
        return "incomparable verdict on a pair the tail certificate covers"
    if classification == "equally_flexible":
        g, tol = _gap(dx, dy, r, scan_ks(k_hi))
        if np.any(np.abs(g) > tol):
            return f"equally_flexible but CE gap {float(np.max(np.abs(g))):.3g}"
        return None
    side = classification[0]
    a, b = (dx, dy) if side == "X" else (dy, dx)
    if "dominates" in classification:
        problem = check_threshold(a, b, r, 1.0, k_hi)
    else:
        if threshold is None or threshold <= 1.0:
            return f"{classification} without a threshold above 1"
        problem = check_threshold(a, b, r, threshold, k_hi)
    if problem:
        return f"{classification}: {problem}"
    if "strictly" in classification:
        g, tol = _gap(a, b, r, scan_ks(k_hi))
        start = 1.0 if "dominates" in classification else threshold * (1.0 + 1e-4)
        after = scan_ks(k_hi) > start
        # A strict verdict rules out a tie over a whole stretch; a single
        # sampled tie at a far-tail point is rounding, so require most
        # samples to be clearly positive.
        if np.mean(g[after] > tol[after]) < 0.5:
            return f"{classification} but the curves are tied"
    else:
        g, tol = _gap(a, b, r, scan_ks(k_hi))
        if np.all(np.abs(g) <= tol):
            return f"{classification} but the curves are identical"
    return check_crossings(dx, dy, r, crossings, k_hi)


def _on_top(items: Sequence[Tuple[str, Dist]], r: float, ks: np.ndarray) -> List[set]:
    """Ids whose reference CE is on top (within 1e-7 relative) at each k."""
    table = np.array([ce(d, ks * r) for _, d in items])
    top = table.max(axis=0)
    tol = 1e-7 * (1.0 + np.abs(top))
    return [{items[i][0] for i in range(len(items)) if table[i, j] >= top[j] - tol[j]} for j in range(ks.size)]


def check_tiling(k_lo: float, k_hi: float, segments: Sequence[Tuple[float, float, Tuple[str, ...]]]) -> Optional[str]:
    """Segments tile [k_lo, k_hi] without gaps."""
    if not segments:
        return "empty envelope"
    if not close(segments[0][0], k_lo) or not close(segments[-1][1], k_hi):
        return "envelope does not span the requested range"
    for (_, hi, _), (lo, _, _) in zip(segments, segments[1:]):
        if not close(hi, lo):
            return f"gap between envelope segments at k={hi:.6g}"
    return None


def check_envelope(
    items: Sequence[Tuple[str, Dist]], r: float, k_lo: float, k_hi: float,
    segments: Sequence[Tuple[float, float, Tuple[str, ...]]],
) -> Optional[str]:
    """Segments tile [k_lo, k_hi]; the listed ids are on top inside each one."""
    problem = check_tiling(k_lo, k_hi, segments)
    if problem:
        return problem
    for lo, hi, labels in segments:
        # Sample the inner part of the segment: breakpoints themselves are
        # only located to the bisection tolerance.
        width = math.log(hi / lo)
        ks = np.exp(math.log(lo) + width * np.array([0.1, 0.5, 0.9]))
        for j, on_top in enumerate(_on_top(items, r, ks)):
            if not set(labels) & on_top:
                return f"segment [{lo:.6g}, {hi:.6g}] lists {labels} but {sorted(on_top)} is on top at k={ks[j]:.6g}"
            # At the segment's midpoint every listed id must be on top.
            if j == 1 and not set(labels) <= on_top:
                return f"segment [{lo:.6g}, {hi:.6g}] lists {labels}, not all on top"
    return None


def right_on_grid(
    items: Sequence[Tuple[str, Dist]], r: float, ks: np.ndarray,
    segments: Sequence[Tuple[float, float, Tuple[str, ...]]],
) -> bool:
    """Whether at every k of ``ks`` an id listed for the segment holding k is on top."""
    for k, on_top in zip(ks, _on_top(items, r, ks)):
        labels = next((ids for _, hi, ids in segments if k <= hi * (1.0 + 1e-12)), segments[-1][2])
        if not set(labels) & on_top:
            return False
    return True


# ---------------------------------------------------------------------------
# Decision trees: plain dicts {id: ("terminal", payoff) | ("chance", [(p, id)])
# | ("decision", [(label, id)])}.


def post_order(nodes: Dict[str, tuple], start: str) -> List[str]:
    """Children before parents, iteratively, so deep chains need no recursion."""
    order: List[str] = []
    stack = [(start, False)]
    while stack:
        nid, expanded = stack.pop()
        node = nodes[nid]
        if expanded or node[0] == "terminal":
            order.append(nid)
            continue
        stack.append((nid, True))
        stack.extend((cid, False) for _, cid in node[1])
    return order


def rollback(nodes: Dict[str, tuple], start: str, rhos) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Backward induction in expected-utility space for every rho at once.

    Each node carries E[exp(-rho (X - low))] with ``low`` the smallest
    payoff below ``start``; chance nodes average it, decisions take the
    minimum (the best certain equivalent).  Returns the CE at ``start`` and
    the CE of every node on the way.
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    order = post_order(nodes, start)
    low = min(nodes[n][1] for n in order if nodes[n][0] == "terminal")
    eu: Dict[str, np.ndarray] = {}
    for nid in order:
        node = nodes[nid]
        if node[0] == "terminal":
            eu[nid] = np.exp(-rhos * (node[1] - low))
        elif node[0] == "chance":
            eu[nid] = sum(p * eu[cid] for p, cid in node[1])
        else:
            eu[nid] = np.min([eu[cid] for _, cid in node[1]], axis=0)
    ces = {nid: low - np.log(w) / rhos for nid, w in eu.items()}
    return ces[start], ces


def depth(nodes: Dict[str, tuple], root: str) -> int:
    deepest = 0
    stack = [(root, 1)]
    while stack:
        nid, d = stack.pop()
        deepest = max(deepest, d)
        node = nodes[nid]
        if node[0] != "terminal":
            stack.extend((cid, d + 1) for _, cid in node[1])
    return deepest


def policy_count(nodes: Dict[str, tuple], root: str, cap: int) -> int:
    """Reachability-pruned deterministic policies, saturating above ``cap``."""
    count: Dict[str, int] = {}
    for nid in post_order(nodes, root):
        node = nodes[nid]
        if node[0] == "terminal":
            count[nid] = 1
        elif node[0] == "chance":
            c = 1
            for _, cid in node[1]:
                c = min(c * count[cid], cap + 1)
            count[nid] = c
        else:
            count[nid] = min(sum(count[cid] for _, cid in node[1]), cap + 1)
    return count[root]


def policy_dist(nodes: Dict[str, tuple], root: str, choice: Dict[str, str]) -> Dist:
    values: List[float] = []
    masses: List[float] = []
    stack = [(root, 1.0)]
    while stack:
        nid, prob = stack.pop()
        node = nodes[nid]
        if node[0] == "terminal":
            values.append(node[1])
            masses.append(prob)
        elif node[0] == "chance":
            stack.extend((cid, prob * p) for p, cid in node[1])
        else:
            stack.extend((cid, prob) for label, cid in node[1] if label == choice[nid])
    return Dist(np.array(values), np.array(masses) / math.fsum(masses))


def reachable_decisions(nodes: Dict[str, tuple], root: str, choice: Dict[str, str]) -> List[str]:
    out = []
    stack = [root]
    while stack:
        nid = stack.pop()
        node = nodes[nid]
        if node[0] == "chance":
            stack.extend(cid for _, cid in node[1])
        elif node[0] == "decision":
            out.append(nid)
            if nid in choice:
                stack.extend(cid for label, cid in node[1] if label == choice[nid])
    return out
