"""Exponential-utility valuation: utilities, certain equivalents, curves.

All certain-equivalent computation routes through the log-MGF with a
max-shifted exponential sum; the explicit utility pair exists for callers
and test oracles.  Its normalization anchors u(0) = 0 and u(1) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .prospects import Prospect, _log_mgf_column, _log_mgf_grid, _Packed, stats

__all__ = [
    "FlexibilityCurve",
    "check_risk_aversion",
    "utility_of_money",
    "money_of_utility",
    "certain_equivalent",
    "mean_variance_approximation",
    "flexibility_curve",
    "CURVE_SLACK",
]

# Numerical slack on curve monotonicity / tail invariants, times 1 + the magnitude compared: a CE rounds relatively.
CURVE_SLACK = 1e-9


def check_risk_aversion(r: float, *, allow_zero: bool = False) -> float:
    """Validate a risk-aversion coefficient (units 1/money)."""
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"risk aversion must be finite, got {r!r}")
    if r < 0.0 or (r == 0.0 and not allow_zero):
        kind = "nonnegative" if allow_zero else "positive"
        raise ValueError(f"risk aversion must be {kind}, got {r!r}")
    return r


def _geometric_points(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.geomspace(lo, hi, n)`` for 0 < lo <= hi and n >= 2, to the bit.

    The same arithmetic (numpy's log10 of both ends, an evenly spaced
    exponent, the ends pinned) without its general-purpose set-up.
    """
    a, b = np.log10(lo), np.log10(hi)
    exponents = np.arange(n, dtype=float)
    exponents *= (b - a) / (n - 1)
    exponents += a
    exponents[-1] = b
    points = np.power(10.0, exponents)
    points[0], points[-1] = lo, hi
    return points


def _check_k_grid(ks: Sequence[float]) -> Tuple[float, ...]:
    """Validate a k grid: nonempty, positive and strictly ascending."""
    grid = tuple(float(k) for k in ks)
    if not grid:
        raise ValueError("k grid must be nonempty")
    if grid[0] <= 0.0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("k grid must be strictly ascending and positive")
    return grid


def utility_of_money(x: float, r: float) -> float:
    """Utility of a sure amount x under constant absolute risk aversion r.

    Linear for r = 0; otherwise the exponential form normalized to
    u(0) = 0, u(1) = 1, computed via expm1 to avoid cancellation near 0.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"money amount must be finite, got {x!r}")
    r = check_risk_aversion(r, allow_zero=True)
    if r == 0.0:
        return x
    try:
        numerator = math.expm1(-r * x)
    except OverflowError:
        raise OverflowError(f"utility overflow: exp({-r * x!r}) out of range") from None
    return numerator / math.expm1(-r)


def money_of_utility(u: float, r: float) -> float:
    """Exact inverse of :func:`utility_of_money`."""
    u = float(u)
    if not math.isfinite(u):
        raise ValueError(f"utility must be finite, got {u!r}")
    r = check_risk_aversion(r, allow_zero=True)
    if r == 0.0:
        return u
    d = math.expm1(-r)  # negative for r > 0
    arg = u * d
    if arg <= -1.0:
        raise ValueError(
            f"utility {u!r} at or above the attainable supremum {-1.0 / d!r} for r={r!r}"
        )
    return -math.log1p(arg) / r


def certain_equivalent(prospect: Prospect, r: float) -> float:
    """Certain equivalent CE(X|r) = -(1/r) ln E{exp(-r X)}.

    r = 0 returns the mean (continuity limit); a deterministic prospect
    returns its value for every r.  Raises OverflowError when the log-MGF
    or the certain equivalent is not finite.
    """
    return _certain_equivalents_at((prospect,), r)[0]


def _certain_equivalents_at(prospects: Sequence[Prospect], r: float) -> List[float]:
    """CE(X|r) of every prospect at one r >= 0, each as :func:`certain_equivalent` gives it, in one kernel call."""
    r = check_risk_aversion(r, allow_zero=True)
    if r == 0.0:
        return [stats(p).mean for p in prospects]
    try:
        return _log_mgf_column(prospects, np.asarray([-r]), over_t=True)
    except OverflowError as exc:
        raise OverflowError(f"certain equivalent at r={r!r}: {exc}") from None


def _certain_equivalents(prospects: Union[Sequence[Prospect], _Packed], rhos: np.ndarray, tilted: bool = False):
    """CE(X|rho) of every prospect at every positive rho in a 1-D array: one row per prospect.

    One log-MGF pass, and so one kernel call, for all of them; a caller
    that evaluates the same prospects at several grids packs them once
    with ``prospects._pack``.  Row i is, point by point,
    :func:`certain_equivalent` of prospect i at each rho.  Raises
    OverflowError for the first prospect, in order, whose log-MGF or
    certain equivalent leaves the float range.  With ``tilted``, also the
    tilted means E{X exp(-rho X)} / E{exp(-rho X)}: dCE/drho = -(CE - E) / rho.
    """
    try:
        return _log_mgf_grid(prospects, -rhos, over_t=True, tilted=tilted)
    except OverflowError as exc:
        raise OverflowError(
            f"certain equivalent for r in [{float(rhos.min())!r}, {float(rhos.max())!r}]: {exc}"
        ) from None


def mean_variance_approximation(prospect: Prospect, r: float) -> float:
    """E{X} - r Var{X} / 2; equals the certain equivalent exactly for Gaussians."""
    r = check_risk_aversion(r, allow_zero=True)
    s = stats(prospect)
    return s.mean - 0.5 * r * s.variance


@dataclass(frozen=True)
class FlexibilityCurve:
    """Sampled map k -> CE(X|kr) with the exact k -> infinity limit attached."""

    prospect_id: str
    r: float
    ks: Tuple[float, ...]
    ces: Tuple[float, ...]
    tail_limit: float

    def __post_init__(self) -> None:
        if not self.ks:
            raise ValueError("curve needs at least one sample")
        if len(self.ks) != len(self.ces):
            raise ValueError("ks and ces must have equal length")
        if self.ks[0] <= 0.0:
            raise ValueError("k values must be positive")
        if any(b <= a for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError("k values must be strictly ascending")
        if any(b > a + CURVE_SLACK * (1.0 + abs(a)) for a, b in zip(self.ces, self.ces[1:])):
            raise ValueError("certain equivalents must be nonincreasing in k")
        if math.isfinite(self.tail_limit):
            if any(ce < self.tail_limit - CURVE_SLACK * (1.0 + abs(self.tail_limit)) for ce in self.ces):
                raise ValueError("certain equivalent below the tail limit")

    @property
    def samples(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(zip(self.ks, self.ces))


def flexibility_curve(
    prospect: Prospect,
    r: float,
    ks: Sequence[float],
    prospect_id: str = "",
) -> FlexibilityCurve:
    """Sample CE(X|kr) over the given ascending k grid.

    The tail limit is computed analytically: the essential infimum of the
    prospect, minus infinity when any Gaussian component has positive
    variance.
    """
    r = check_risk_aversion(r)
    grid = _check_k_grid(ks)
    ces = tuple(_certain_equivalents((prospect,), np.asarray(grid) * r)[0].tolist())
    return FlexibilityCurve(prospect_id, r, grid, ces, stats(prospect).worst_case)
