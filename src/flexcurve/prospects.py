"""Uncertain monetary prospects and the distortion algebra over them.

A prospect is a probability distribution over a single monetary attribute.
Four representations are supported: finite discrete distributions,
Gaussians, affine transforms k*X + c with k > 0, and sums of mutually
independent prospects.  Everything downstream (certain equivalents,
flexibility curves, orderings) is driven by the log moment generating
function, so each representation only has to know how to evaluate
ln E{exp(t*X)} and its exact mean / variance / worst case.

Under constant risk aversion the log-MGF adds over independent parts, so
a sum costs the sum of its parts, not the product of their supports.  A
Discrete built by ``add_independent`` as an exact convolution therefore
remembers its factors: the independent discrete parts it was convolved
from, flattened and in term order.  Its log-MGF, mean and variance are
read from the factors whenever they hold fewer points than its merged
support (lazily, as an IndependentSum of them); otherwise, and for every
other Discrete, from the support.  The support is still built in full,
and everything that needs the distribution itself (tail certificates,
the worst case, further convolutions, printing) reads it.  The factors
take no part in equality, hashing or repr.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Discrete",
    "Gaussian",
    "Affine",
    "IndependentSum",
    "Prospect",
    "ProspectStats",
    "make_discrete",
    "make_gaussian",
    "scale",
    "shift",
    "add_independent",
    "log_mgf",
    "stats",
    "MASS_SUM_TOLERANCE",
    "CONVOLUTION_SUPPORT_CAP",
]

# Hand-authored mass lists may carry rounding; within this slack they are
# renormalized, beyond it they are rejected as modeling errors.
MASS_SUM_TOLERANCE = 1e-9

# Tightness required of a constructed Discrete after normalization.
_MASS_SUM_EXACT = 1e-12

# Exact convolution is abandoned in favor of a lazy IndependentSum once the
# product support would exceed this many points.
CONVOLUTION_SUPPORT_CAP = 1_000_000

# Largest (t x support) block the log-sum-exp kernel materialises at once
# (512 KB of float64): a long k grid over a wide support is evaluated in
# row blocks, so its working set stays that of a single wide evaluation.
_LSE_BLOCK_ELEMENTS = 1 << 16

_HALF_FLOAT_MAX = 0.5 * float(np.finfo(float).max)
_TINY_PEAK_WEIGHT = 2.0**-960


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Discrete:
    """Finite distribution over distinct, strictly ascending money values."""

    values: Tuple[float, ...]
    masses: Tuple[float, ...]
    # The independent discrete parts this is the exact convolution of, in
    # term order; () unless built by a convolution (see add_independent).
    _factors: Tuple["Discrete", ...] = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("discrete prospect needs at least one outcome")
        if len(self.values) != len(self.masses):
            raise ValueError("values and masses must have equal length")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"non-finite support value {v!r}")
        for m in self.masses:
            if not (m > 0.0):
                raise ValueError(f"mass must be positive, got {m!r}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("support values must be strictly ascending")
        total = math.fsum(self.masses)
        if abs(total - 1.0) > _MASS_SUM_EXACT:
            raise ValueError(f"masses sum to {total!r}, expected 1 within {_MASS_SUM_EXACT}")

    @cached_property
    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only float arrays of the support values and masses, built on first use."""
        arrays = np.array(self.values, dtype=float), np.array(self.masses, dtype=float)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def _factored(self) -> "IndependentSum | None":
        """The lazy sum of the factors, when they hold fewer points than the support."""
        factors = self._factors
        if factors and sum(len(f.values) for f in factors) < len(self.values):
            return IndependentSum(factors)
        return None


@dataclass(frozen=True)
class Gaussian:
    """Gaussian prospect; variance 0 behaves as a deterministic value."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        _require_finite(self.mean, "mean")
        _require_finite(self.variance, "variance")
        if self.variance < 0.0:
            raise ValueError(f"variance must be nonnegative, got {self.variance!r}")


@dataclass(frozen=True)
class Affine:
    """Prospect distributed as scale * base + offset, scale > 0."""

    base: "Prospect"
    scale: float
    offset: float

    def __post_init__(self) -> None:
        _require_finite(self.offset, "offset")
        s = _require_finite(self.scale, "scale")
        if s <= 0.0:
            raise ValueError(f"scale must be positive, got {s!r}")


@dataclass(frozen=True)
class IndependentSum:
    """Sum of mutually independent prospects, evaluated lazily via the MGF."""

    terms: Tuple["Prospect", ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("independent sum needs at least one term")


Prospect = Union[Discrete, Gaussian, Affine, IndependentSum]


@dataclass(frozen=True)
class ProspectStats:
    """Exact mean, variance and essential infimum of a prospect."""

    mean: float
    variance: float
    worst_case: float


def make_discrete(pairs: Iterable[Tuple[float, float]]) -> Discrete:
    """Build a discrete prospect from (value, mass) pairs.

    Duplicate values are merged by summing their masses, the support is
    sorted ascending, and masses within ``MASS_SUM_TOLERANCE`` of total 1
    are renormalized to sum exactly 1.
    """
    items = list(pairs)
    if not items:
        raise ValueError("discrete prospect needs at least one (value, mass) pair")
    merged: dict[float, float] = {}
    for value, mass in items:
        value = _require_finite(value, "support value")
        mass = float(mass)
        if not (math.isfinite(mass) and mass > 0.0):
            raise ValueError(f"mass must be positive and finite, got {mass!r}")
        merged[value] = merged.get(value, 0.0) + mass
    total = math.fsum(merged.values())
    if abs(total - 1.0) > MASS_SUM_TOLERANCE:
        raise ValueError(
            f"masses sum to {total!r}, outside tolerance {MASS_SUM_TOLERANCE} of 1"
        )
    values = tuple(sorted(merged))
    masses = tuple(merged[v] / total for v in values)
    return Discrete(values, masses)


def make_gaussian(mean: float, variance: float) -> Gaussian:
    """Build a Gaussian prospect; variance 0 is a deterministic value."""
    return Gaussian(_require_finite(mean, "mean"), _require_finite(variance, "variance"))


def _merge_ties(values: Sequence[float], masses: Sequence[float]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """A nondecreasing support with equal neighbours merged and their masses summed."""
    out_v: List[float] = []
    out_m: List[float] = []
    for v, m in zip(values, masses):
        if out_v and v == out_v[-1]:
            out_m[-1] += m
        else:
            out_v.append(v)
            out_m.append(m)
    return tuple(out_v), tuple(out_m)


def _moved(prospect: Discrete, values: Tuple[float, ...]) -> Discrete:
    """``prospect`` carried onto ``values`` by an increasing map of its support.

    Values that the map rounds together are merged and their masses summed,
    as for an ``Affine`` in ``orders._decompose``; a value that overflows
    raises ValueError.
    """
    try:
        return Discrete(values, prospect.masses)
    except ValueError:
        pass  # values that round together are merged below; an overflow raises again
    return Discrete(*_merge_ties(values, prospect.masses))


def scale(prospect: Prospect, k: float) -> Prospect:
    """Prospect distributed as k * X for k > 0."""
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"scale factor must be positive and finite, got {k!r}")
    if isinstance(prospect, Discrete):
        return _with_factors(
            _moved(prospect, tuple(v * k for v in prospect.values)),
            (scale(f, k) for f in prospect._factors),
        )
    if isinstance(prospect, Gaussian):
        return Gaussian(prospect.mean * k, prospect.variance * k * k)
    if isinstance(prospect, Affine):
        return Affine(prospect.base, prospect.scale * k, prospect.offset * k)
    if isinstance(prospect, IndependentSum):
        return IndependentSum(tuple(scale(t, k) for t in prospect.terms))
    raise TypeError(f"not a prospect: {prospect!r}")


def shift(prospect: Prospect, c: float) -> Prospect:
    """Prospect distributed as X + c."""
    c = _require_finite(c, "shift amount")
    if isinstance(prospect, Discrete):
        return _with_factors(
            _moved(prospect, tuple(v + c for v in prospect.values)),
            (shift(f, c) if i == 0 else f for i, f in enumerate(prospect._factors)),
        )
    if isinstance(prospect, Gaussian):
        return Gaussian(prospect.mean + c, prospect.variance)
    if isinstance(prospect, Affine):
        return Affine(prospect.base, prospect.scale, prospect.offset + c)
    if isinstance(prospect, IndependentSum):
        return Affine(prospect, 1.0, c)
    raise TypeError(f"not a prospect: {prospect!r}")


def convolve_supports(
    x: Discrete, z: Discrete
) -> Tuple[Tuple[float, ...], Tuple[float, ...]] | None:
    """Exact convolution support of two discrete prospects.

    Returns None when the pairwise-sum support would exceed the cap.
    Values equal to the bit are merged; there is no epsilon merging.
    """
    if len(x.values) * len(z.values) > CONVOLUTION_SUPPORT_CAP:
        return None
    (xv, xm), (zv, zm) = x._arrays, z._arrays
    sums = np.add.outer(xv, zv).ravel()
    weights = np.multiply.outer(xm, zm).ravel()
    uniq, inverse = np.unique(sums, return_inverse=True)
    agg = np.bincount(inverse, weights=weights, minlength=len(uniq))
    total = math.fsum(agg.tolist())
    return tuple(uniq.tolist()), tuple((agg / total).tolist())


def _with_factors(prospect: Discrete, factors: Iterable[Discrete]) -> Discrete:
    """``prospect``, remembering the given factors.

    A shift can make a factor's values overflow where the support's do
    not, and building that factor raises ValueError; the factors are then
    dropped, and the support, which is exact, is read.
    """
    try:
        kept = tuple(factors)
    except ValueError:
        kept = ()
    object.__setattr__(prospect, "_factors", kept)
    return prospect


def _sum_terms(prospect: Prospect) -> Tuple[Prospect, ...]:
    if isinstance(prospect, IndependentSum):
        return prospect.terms
    return (prospect,)


def add_independent(x: Prospect, z: Prospect) -> Prospect:
    """Prospect distributed as X + Z with X and Z independent.

    Discrete + Discrete gives the exact convolution (unless the support cap
    is hit), Gaussian + Gaussian stays Gaussian, everything else is a lazy
    IndependentSum evaluated through the MGF.

    The convolution remembers its factors: x's and z's own factors (or x
    and z themselves, when they were not built by a convolution), in that
    order.  Its log-MGF, mean and variance are read from them whenever they
    hold fewer points than its merged support, for instance 3 factors of 10
    points against 1,000; ten {0, 1} coins, 20 points against 11, are read
    from the support.  Its values, masses and worst case are always the
    support's.
    """
    if isinstance(x, Discrete) and isinstance(z, Discrete):
        merged = convolve_supports(x, z)
        if merged is not None:
            return _with_factors(Discrete(*merged), (x._factors or (x,)) + (z._factors or (z,)))
    if isinstance(x, Gaussian) and isinstance(z, Gaussian):
        return Gaussian(x.mean + z.mean, x.variance + z.variance)
    return IndependentSum(_sum_terms(x) + _sum_terms(z))


def _logsumexp(ts: np.ndarray, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """ln sum_j weights[j] * exp(ts[i] * values[j]) for every i.

    Each row is shifted by its largest exponent; the weight at that maximum
    is kept out of the sum and added back through log1p, which keeps full
    precision when one term dominates.  Rounding is monotone, so the largest
    exponent t*value sits at the smallest value when t < 0 and at the
    largest otherwise: the peak is read from those two columns, not found
    by a max pass, and when every t has one sign it is one column for the
    whole call.  When every row of a block has a single top element, its
    weight is that column's and only that column is left out of the sum;
    a block with a tied peak (repeated values, rounding ties, t = 0) masks
    every element equal to its row's peak.  Both give the bits of a max
    pass and a full mask, so a row's result does not depend on the block
    it falls in.  Rows are processed in blocks of at most
    ``_LSE_BLOCK_ELEMENTS`` elements; a call of several blocks reuses one
    buffer.  Raises OverflowError when any exponent t*value, or any result,
    is not finite.
    """
    low, high = int(values.argmin()), int(values.argmax())
    t_lo, t_hi = float(ts.min()), float(ts.max())
    # Some t*value overflows exactly when the product of the two largest
    # magnitudes does.
    reach = max(abs(t_lo), abs(t_hi)) * max(abs(float(values[low])), abs(float(values[high])))
    if not math.isfinite(reach):
        raise OverflowError(f"log-MGF overflow: |t*value| reaches {reach!r}")
    if t_hi < 0.0:
        columns: Union[int, np.ndarray] = low
    elif t_lo >= 0.0:
        columns = high
    else:
        columns = np.where(ts < 0.0, low, high)
    peaks = ts * values[columns]
    rows = max(1, _LSE_BLOCK_ELEMENTS // len(values))
    # A shifted exponent more than the float range below its peak is -inf,
    # whose exp is the 0 it stands for, and a row's sum divided by a tiny
    # peak weight can overflow (_lse_block then sums the row with its peak
    # weight instead).  Neither can happen when every |t*value| is below
    # half the float range and the peak weights are at least 2**-960 of
    # weights summing to under 1e19: the weights are a Discrete's masses,
    # which its constructor checks sum to 1.
    noisy = reach > _HALF_FLOAT_MAX or min(weights[low], weights[high]) < _TINY_PEAK_WEIGHT
    with np.errstate(divide="ignore", over="ignore") if noisy else nullcontext():
        if len(ts) <= rows:
            out = _lse_block(np.multiply.outer(ts, values), peaks, columns, weights, noisy)
        else:
            out = np.empty(len(ts))
            buffer = np.empty((rows, len(values)))
            for lo in range(0, len(ts), rows):
                part = ts[lo : lo + rows]
                block = np.multiply.outer(part, values, out=buffer[: len(part)])
                column = columns if isinstance(columns, int) else columns[lo : lo + rows]
                out[lo : lo + rows] = _lse_block(block, peaks[lo : lo + rows], column, weights, noisy)
    if not np.isfinite(out).all():
        raise OverflowError("log-MGF overflow: result out of floating-point range")
    return out


def _lse_block(
    block: np.ndarray,
    peaks: np.ndarray,
    column: Union[int, np.ndarray],
    weights: np.ndarray,
    noisy: bool,
) -> np.ndarray:
    """The log-sum-exp of each row of ``block`` (t*value, overwritten) given its peak.

    When ``noisy``, a row whose sum over its peak weight overflows is
    log(sum + peak weight) + peak instead; every other row keeps its bits.
    """
    peak = peaks[:, None]
    top = block == peak
    if np.count_nonzero(top) == len(block):
        at_peak = weights[column]
        top = (slice(None), column) if isinstance(column, int) else (np.arange(len(block)), column)
    else:
        at_peak = (weights * top).sum(axis=1)
    block -= peak
    np.exp(block, out=block)
    block *= weights
    block[top] = 0.0
    rest = block.sum(axis=1)
    ratio = rest / at_peak
    out = np.log1p(ratio) + np.log(at_peak) + peaks
    if noisy:
        over = np.isinf(ratio)
        out[over] = (np.log(rest + at_peak) + peaks)[over]
    return out


def _log_mgf_grid(prospect: Prospect, ts: np.ndarray) -> np.ndarray:
    """ln E{exp(t*X)} for every t in a 1-D float array.

    An IndependentSum adds its terms' columns in term order, one rounding
    per addition: with two terms that is the correctly rounded sum, bit for
    bit what ``math.fsum`` gives; with n >= 3 terms the sum is within
    (n - 1) * u / (1 - (n - 1) * u) * sum |term| of the exact sum of the
    term values, u = 2**-53 (the bound of recursive summation).
    """
    if isinstance(prospect, Discrete):
        if prospect._factored is not None:
            return _log_mgf_grid(prospect._factored, ts)
        return _logsumexp(ts, *prospect._arrays)
    if isinstance(prospect, Gaussian):
        with np.errstate(over="ignore", invalid="ignore"):
            out = prospect.mean * ts + 0.5 * prospect.variance * ts * ts
        finite = np.isfinite(out)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise OverflowError(
                f"log-MGF overflow: Gaussian exponent {float(out[bad])!r} at t={float(ts[bad])!r}"
            )
        return out
    if isinstance(prospect, Affine):
        return _log_mgf_grid(prospect.base, prospect.scale * ts) + prospect.offset * ts
    if isinstance(prospect, IndependentSum):
        terms = iter(prospect.terms)
        out = _log_mgf_grid(next(terms), ts)
        with np.errstate(over="ignore"):
            for term in terms:
                out += _log_mgf_grid(term, ts)
        if not np.isfinite(out).all():
            raise OverflowError("log-MGF overflow: sum of terms out of floating-point range")
        return out
    raise TypeError(f"not a prospect: {prospect!r}")


def log_mgf(prospect: Prospect, t: float) -> float:
    """Evaluate ln E{exp(t*X)}.

    Discrete prospects use a max-shifted exponential sum; Affine and
    IndependentSum nodes compose through the standard MGF identities.
    """
    t = _require_finite(t, "MGF argument t")
    return float(_log_mgf_grid(prospect, np.asarray([t]))[0])


def stats(prospect: Prospect) -> ProspectStats:
    """Exact mean, variance and worst case, composed by independence."""
    if isinstance(prospect, Discrete):
        if prospect._factored is not None:
            s = stats(prospect._factored)
            return ProspectStats(s.mean, s.variance, prospect.values[0])
        v, m = prospect._arrays
        mean = float(np.dot(m, v))
        # Deviations are scaled by 2**-e, with 2**e above the largest of them
        # (found from halves, which cannot overflow), before squaring: only
        # a variance out of range overflows, and the scaling is exact.
        e = math.frexp(max(0.5 * v[-1] - 0.5 * mean, 0.5 * mean - 0.5 * v[0]))[1] + 1
        deviations = np.ldexp(v, -e) - math.ldexp(mean, -e)
        with np.errstate(over="ignore"):
            variance = float(np.ldexp(np.dot(m, deviations * deviations), 2 * e))
        return ProspectStats(mean, variance, prospect.values[0])
    if isinstance(prospect, Gaussian):
        worst = prospect.mean if prospect.variance == 0.0 else -math.inf
        return ProspectStats(prospect.mean, prospect.variance, worst)
    if isinstance(prospect, Affine):
        s = stats(prospect.base)
        k, c = prospect.scale, prospect.offset
        return ProspectStats(s.mean * k + c, s.variance * k * k, s.worst_case * k + c)
    if isinstance(prospect, IndependentSum):
        parts = [stats(term) for term in prospect.terms]
        return ProspectStats(
            math.fsum(p.mean for p in parts),
            math.fsum(p.variance for p in parts),
            sum(p.worst_case for p in parts),
        )
    raise TypeError(f"not a prospect: {prospect!r}")
