"""Uncertain monetary prospects and the distortion algebra over them.

A prospect is a finite discrete distribution, a Gaussian, an affine map
k*X + c with k > 0, or a sum of independent prospects.  Under constant risk
aversion the log-MGF ln E{exp(t*X)} adds over independent parts, so every
prospect reduces to one normal form, an ordered tuple of parts s * Y + c
with Y a discrete factor or a Gaussian, and everything downstream reads the
form.  One iterative builder, the only code that tells the four classes
apart, builds it on a prospect's first evaluation and caches it there.  A
sum concatenates its terms' parts; an Affine scales every part below it and
folds its offset into a lone part, or follows several with a line part
Gaussian(c, 0).  A form past ``FORM_PART_CAP`` parts is refused unbuilt.

A Discrete is its own one-part form, unless ``add_independent``, ``scale``
or ``shift`` derived it from factored inputs: its form is then seeded with
the parts derived from theirs whenever those hold fewer points than its
support (3 factors of 10 points against 1,000; ten {0, 1} coins, 20 points
against 11, keep the support).  Equality, hashing and repr read only the
support, which is still built in full.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    "FORM_PART_CAP",
]

# Hand-authored mass lists may carry rounding; within this slack they are
# renormalized, beyond it they are rejected as modeling errors.
MASS_SUM_TOLERANCE = 1e-9

# Tightness required of a constructed Discrete after normalization.
_MASS_SUM_EXACT = 1e-12

# Exact convolution is abandoned in favor of a lazy IndependentSum once the
# product support would exceed this many points.
CONVOLUTION_SUPPORT_CAP = 1_000_000

# Most parts a normal form may hold (a sum listing one term twice, 16 deep).
FORM_PART_CAP = 1 << 16

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


class _Part(NamedTuple):
    """A part scale * Y + offset: Y is a discrete factor (read-only arrays) or, with values None, a Gaussian."""

    values: Optional[np.ndarray]
    masses: Optional[np.ndarray]
    mean: float
    variance: float
    scale: float
    offset: float


@dataclass(frozen=True)
class Discrete:
    """Finite distribution over distinct, strictly ascending money values."""

    values: Tuple[float, ...]
    masses: Tuple[float, ...]

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
    def _form(self) -> Tuple[_Part, ...]:
        """The support as the one part, unless ``_seeded`` gave factors."""
        return (_Part(*self._arrays, 0.0, 0.0, 1.0, 0.0),)


@dataclass(frozen=True)
class Gaussian:
    """Gaussian prospect; variance 0 behaves as a deterministic value."""

    mean: float
    variance: float
    _form = cached_property(lambda self: _build_form(self))

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
    _form = cached_property(lambda self: _build_form(self))

    def __post_init__(self) -> None:
        _require_finite(self.offset, "offset")
        s = _require_finite(self.scale, "scale")
        if s <= 0.0:
            raise ValueError(f"scale must be positive, got {s!r}")


@dataclass(frozen=True)
class IndependentSum:
    """Sum of mutually independent prospects, evaluated lazily via the MGF."""

    terms: Tuple["Prospect", ...]
    _form = cached_property(lambda self: _build_form(self))

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


def _moved_form(parts: Tuple[_Part, ...], k: float, c: float) -> Tuple[_Part, ...]:
    """The form of k * X + c from the form of X: c folds into a lone part and follows several as a line part."""
    moved = tuple(_Part(v, m, mean, variance, s * k, o * k) for v, m, mean, variance, s, o in parts)
    if len(moved) == 1:
        return (moved[0]._replace(offset=moved[0].offset + c),)
    return moved + (_Part(None, None, c, 0.0, 1.0, 0.0),) if c else moved


def _build_form(root: Prospect) -> Tuple[_Part, ...]:
    """The normal form of ``root``: the one place that tells the prospect classes apart.

    Pass 1 visits each distinct node once, below it first: it counts the
    node's parts, and collapses an Affine or one-term sum onto the node
    ending its chain, composing the scales and offsets, so that expanding a
    shared node costs its parts, not its depth.  A form past
    ``FORM_PART_CAP`` parts is refused before pass 2 expands the root from
    the top, in term order; no sub-prospect's form is built but a Discrete's.
    """
    seen: Dict[int, Tuple[int, Prospect, float, float]] = {}  # parts; chain end, scale, offset
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in seen:
            stack.pop()
            continue
        if isinstance(node, Affine):
            below, k, c = (node.base,), node.scale, node.offset
        elif isinstance(node, IndependentSum):
            below, k, c = node.terms, 1.0, 0.0
        elif isinstance(node, (Discrete, Gaussian)):
            below = ()
        else:
            raise TypeError(f"not a prospect: {node!r}")
        todo = [b for b in below if id(b) not in seen]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if len(below) == 1:
            _, end, inner_k, inner_c = seen[id(below[0])]
            n, c = seen[id(end)][0], k * inner_c + c
            seen[id(node)] = (n + 1 if c and n > 1 else n, end, k * inner_k, c)
        else:
            n = len(node._form) if isinstance(node, Discrete) else sum(seen[id(b)][0] for b in below) or 1
            seen[id(node)] = (n, node, 1.0, 0.0)
    if seen[id(root)][0] > FORM_PART_CAP:
        raise ValueError(f"the normal form would hold {seen[id(root)][0]} parts, past the part cap FORM_PART_CAP = {FORM_PART_CAP}")
    parts: List[_Part] = []
    expand: List[Tuple[Prospect, float, float]] = [(root, 1.0, 0.0)]
    while expand:
        node, k, c = expand.pop()
        _, node, inner_k, inner_c = seen.get(id(node), (1, node, 1.0, 0.0))
        k, c = k * inner_k, k * inner_c + c
        if not (math.isfinite(k) and math.isfinite(c)):
            raise OverflowError(f"prospect scale {k!r} or offset {c!r} out of floating-point range")
        if isinstance(node, IndependentSum):
            if c:
                expand.append((Gaussian(c, 0.0), 1.0, 0.0))
            expand.extend((t, k, 0.0) for t in reversed(node.terms))
        elif isinstance(node, Discrete):
            parts.extend(_moved_form(node._form, k, c))
        else:
            parts.append(_Part(None, None, node.mean, node.variance, k, c))
    return tuple(parts)


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


def _merge_ties(values: Sequence[float], masses: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """A nondecreasing support with equal neighbours merged and their masses summed."""
    values, masses = np.asarray(values, dtype=float), np.asarray(masses, dtype=float)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.add.reduceat(masses, starts)


def _seeded(prospect: Discrete, parts: Tuple[_Part, ...]) -> Discrete:
    """``prospect``, its form seeded with ``parts`` when several hold fewer points than its support."""
    if len(parts) > 1 and sum(len(p.values) for p in parts if p.values is not None) < len(prospect.values):
        prospect.__dict__["_form"] = parts
    return prospect


def _mapped(prospect: Prospect, k: float, c: float) -> Prospect:
    """k * X + c: a Discrete for a Discrete, a Gaussian for a Gaussian, else an Affine of X.

    A Discrete's values that the map rounds together are merged and their
    masses summed, as ``orders._decompose`` does; a value that overflows
    raises ValueError.  Its form is seeded from X's (see ``_seeded``).
    """
    if isinstance(prospect, Discrete):
        values = tuple(v * k + c for v in prospect.values)
        try:
            moved = Discrete(values, prospect.masses)
        except ValueError:  # values that round together merge; an overflow raises again
            moved = Discrete(*(tuple(a.tolist()) for a in _merge_ties(values, prospect.masses)))
        return _seeded(moved, _moved_form(prospect.__dict__.get("_form", ()), k, c))
    if isinstance(prospect, Gaussian):
        return Gaussian(prospect.mean * k + c, prospect.variance * k * k)
    return Affine(prospect, k, c)


def scale(prospect: Prospect, k: float) -> Prospect:
    """Prospect distributed as k * X for k > 0 (see ``_mapped``)."""
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"scale factor must be positive and finite, got {k!r}")
    return _mapped(prospect, k, 0.0)


def shift(prospect: Prospect, c: float) -> Prospect:
    """Prospect distributed as X + c (see ``_mapped``)."""
    return _mapped(prospect, 1.0, _require_finite(c, "shift amount"))


def _convolve(
    xv: np.ndarray, xm: np.ndarray, zv: np.ndarray, zm: np.ndarray
) -> Tuple[np.ndarray, np.ndarray] | None:
    """Exact convolution of two discrete distributions, as value and mass arrays.

    Returns None when the pairwise-sum support would exceed the cap.
    Values equal to the bit are merged; there is no epsilon merging.
    """
    if len(xv) * len(zv) > CONVOLUTION_SUPPORT_CAP:
        return None
    sums = np.add.outer(xv, zv).ravel()
    weights = np.multiply.outer(xm, zm).ravel()
    uniq, inverse = np.unique(sums, return_inverse=True)
    agg = np.bincount(inverse, weights=weights, minlength=len(uniq))
    return uniq, agg / math.fsum(agg.tolist())


def add_independent(x: Prospect, z: Prospect) -> Prospect:
    """Prospect distributed as X + Z with X and Z independent.

    Discrete + Discrete gives the exact convolution (unless the support cap
    is hit), Gaussian + Gaussian stays Gaussian, everything else is a lazy
    IndependentSum of the two, evaluated through the MGF.

    The convolution's form is seeded with x's parts then z's (``_seeded``):
    its log-MGF and moments are read from them when they hold fewer points.
    """
    if isinstance(x, Discrete) and isinstance(z, Discrete):
        merged = _convolve(*x._arrays, *z._arrays)
        if merged is not None:
            return _seeded(Discrete(*(tuple(a.tolist()) for a in merged)), x._form + z._form)
    if isinstance(x, Gaussian) and isinstance(z, Gaussian):
        return Gaussian(x.mean + z.mean, x.variance + z.variance)
    return IndependentSum((x, z))


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

    A part s * Y + c adds Y's column at s * t plus c * t, in the form's
    order with one rounding per addition: with two parts that is the
    correctly rounded sum, bit for bit what ``math.fsum`` gives; with n >= 3
    parts the sum is within (n - 1) * u / (1 - (n - 1) * u) * sum |column|
    of the exact sum of the columns, u = 2**-53 (recursive summation).
    """
    form = prospect._form
    out = None
    with np.errstate(over="ignore") if len(form) > 1 else nullcontext():
        for values, masses, mean, variance, s, c in form:
            t = ts if s == 1.0 else s * ts
            if values is not None:
                column = _logsumexp(t, values, masses)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    column = mean * t + 0.5 * variance * t * t
                finite = np.isfinite(column)
                if not finite.all():
                    bad = int(np.argmin(finite))
                    raise OverflowError(f"log-MGF overflow: Gaussian exponent {float(column[bad])!r} at t={float(t[bad])!r}")
            if c:
                column += c * ts
            out = column if out is None else np.add(out, column, out=out)
    if len(form) > 1 and not np.isfinite(out).all():
        raise OverflowError("log-MGF overflow: sum of terms out of floating-point range")
    return out


def log_mgf(prospect: Prospect, t: float) -> float:
    """Evaluate ln E{exp(t*X)} from the normal form's parts."""
    t = _require_finite(t, "MGF argument t")
    return float(_log_mgf_grid(prospect, np.asarray([t]))[0])


def stats(prospect: Prospect) -> ProspectStats:
    """Exact mean, variance and worst case, summed over the normal form's parts."""
    means, variances, worst = [], [], 0.0
    for values, masses, mean, variance, s, c in prospect._form:
        if values is None:
            low = mean if variance == 0.0 else -math.inf
        else:
            mean, low = float(np.dot(masses, values)), float(values[0])
            # Deviations are scaled by 2**-e, with 2**e above the largest of them
            # (found from halves, which cannot overflow), before squaring: only
            # a variance out of range overflows, and the scaling is exact.
            e = math.frexp(max(0.5 * values[-1] - 0.5 * mean, 0.5 * mean - 0.5 * low))[1] + 1
            deviations = np.ldexp(values, -e) - math.ldexp(mean, -e)
            with np.errstate(over="ignore"):
                variance = float(np.ldexp(np.dot(masses, deviations * deviations), 2 * e))
        means.append(mean * s + c)
        variances.append(variance * s * s)
        worst += low * s + c
    return ProspectStats(math.fsum(means), math.fsum(variances), worst)
