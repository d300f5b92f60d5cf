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
against 11, keep the support).  The support is still built in full, as
two read-only float64 arrays; the ``values`` and ``masses`` tuples, which
equality, hashing and repr read, are built on first read.

An evaluation pass reads the forms of all the prospects it needs at once:
``_pack`` lays every discrete part of every form side by side as one
segment of a log-sum-exp kernel, so the pass makes a single kernel call
(``_lse_segments``), and the Gaussian parts, the offsets and the sum over
each form's parts follow as whole-array arithmetic; at a single t they
follow on Python floats, with the same bits.  A prospect caches its own
pack; every row is, bit for bit, what the prospect alone gives.
The kernel's contract: ascending supports in, one segments x t array
out, and a segment whose exponents leave the float range comes back NaN;
the pass then raises OverflowError in the words of its first such part.
Its block reducer ``_lse_block`` also serves the tree rollback, whose
chance nodes give it their children's values unsorted.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
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
_ZERO = np.zeros(1)


def _mass_sum(masses: Iterable[float]) -> float:
    """``math.fsum`` of positive masses or probabilities; inf where the sum passes the float range."""
    try:
        return math.fsum(masses)
    except OverflowError:
        return math.inf


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


def _float_copy(given: Sequence[float]) -> np.ndarray:
    """``given`` as a new float64 array; text is refused, as ``math.isfinite`` refuses it."""
    array = np.array(given)
    if array.dtype.kind in "SU":
        raise TypeError("values and masses must be numbers, not text")
    return array.astype(float, copy=False)


def _first(given: Sequence[float], ok: np.ndarray) -> float:
    """The element of ``given`` where ``ok`` is first false, as a Python float when ``given`` is an array."""
    item = given[int(ok.argmin())]
    return float(item) if isinstance(given, np.ndarray) else item


@dataclass(frozen=True, init=False)
class Discrete:
    """Finite distribution over distinct, strictly ascending money values.

    Its state is ``_support``, the values and masses as read-only float64
    arrays.  The fields are the tuples it was given, or, when it was built
    from arrays, tuples of Python floats made on first read.
    """

    # A cached_property default makes each field a tuple built on first
    # read; the generated ==, hash and repr read the fields.
    values: Tuple[float, ...] = cached_property(lambda self: tuple(self._support[0].tolist()))
    masses: Tuple[float, ...] = cached_property(lambda self: tuple(self._support[1].tolist()))

    def __init__(self, values: Sequence[float], masses: Sequence[float]) -> None:
        self._hold(_float_copy(values), _float_copy(masses), values, masses)
        for name, given in (("values", values), ("masses", masses)):
            if isinstance(given, tuple):
                self.__dict__[name] = given

    @classmethod
    def _of(cls, values: np.ndarray, masses: np.ndarray) -> Discrete:
        """A Discrete over float64 arrays no caller writes to again, held as they are (a Discrete's masses may be shared)."""
        prospect = cls.__new__(cls)
        prospect._hold(values, masses, values, masses)
        return prospect

    def _hold(self, values: np.ndarray, masses: np.ndarray, given_values: Sequence[float], given_masses: Sequence[float]) -> None:
        """Check the support, in one pass over the arrays per rule, and hold it read-only; errors name the given elements."""
        if values.ndim != 1 or masses.ndim != 1:
            raise TypeError("values and masses must be flat sequences of numbers")
        if not len(values):
            raise ValueError("discrete prospect needs at least one outcome")
        if len(values) != len(masses):
            raise ValueError("values and masses must have equal length")
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"non-finite support value {_first(given_values, finite)!r}")
        positive = masses > 0.0
        if not positive.all():
            raise ValueError(f"mass must be positive, got {_first(given_masses, positive)!r}")
        if (values[1:] <= values[:-1]).any():
            raise ValueError("support values must be strictly ascending")
        total = _mass_sum(masses.tolist())
        if abs(total - 1.0) > _MASS_SUM_EXACT:
            raise ValueError(f"masses sum to {total!r}, expected 1 within {_MASS_SUM_EXACT}")
        values.flags.writeable = masses.flags.writeable = False
        self.__dict__["_support"] = (values, masses)

    @cached_property
    def _form(self) -> Tuple[_Part, ...]:
        """The support as the one part, unless ``_seeded`` gave factors."""
        return (_Part(*self._support, 0.0, 0.0, 1.0, 0.0),)

    _packed = cached_property(lambda self: _pack((self,)))


@dataclass(frozen=True)
class Gaussian:
    """Gaussian prospect; variance 0 behaves as a deterministic value."""

    mean: float
    variance: float
    _form = cached_property(lambda self: _build_form(self))
    _packed = cached_property(lambda self: _pack((self,)))

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
    _packed = cached_property(lambda self: _pack((self,)))

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
    _packed = cached_property(lambda self: _pack((self,)))

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
    total = _mass_sum(merged.values())
    if abs(total - 1.0) > MASS_SUM_TOLERANCE:
        raise ValueError(
            f"masses sum to {total!r}, outside tolerance {MASS_SUM_TOLERANCE} of 1"
        )
    values = tuple(sorted(merged))
    masses = tuple(merged[v] / total for v in values)
    exact = _mass_sum(masses)
    if abs(exact - 1.0) > _MASS_SUM_EXACT:
        raise ValueError(f"masses sum to {exact!r}, expected 1 within {_MASS_SUM_EXACT}")
    # Every other rule of ``Discrete._hold`` holds already: the values were
    # checked finite above; each m / total is positive, as m > 0 and total is
    # within 1e-9 of 1, so the quotient exceeds half the smallest subnormal;
    # and the values are strictly ascending, being sorted distinct dict keys
    # (0.0 and -0.0 are one key).
    support = np.array(values), np.array(masses)
    support[0].flags.writeable = support[1].flags.writeable = False
    prospect = Discrete.__new__(Discrete)
    prospect.__dict__.update(values=values, masses=masses, _support=support)
    return prospect


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
    if len(parts) > 1 and sum(len(p.values) for p in parts if p.values is not None) < len(prospect._support[0]):
        prospect.__dict__["_form"] = parts
    return prospect


def _mapped(prospect: Prospect, k: float, c: float) -> Prospect:
    """k * X + c: a Discrete for a Discrete, a Gaussian for a Gaussian, else an Affine of X.

    A Discrete's values that the map rounds together are merged and their
    masses summed, as ``orders._decompose`` does; a value that overflows
    raises ValueError.  Its form is seeded from X's (see ``_seeded``).
    """
    if isinstance(prospect, Discrete):
        values, masses = prospect._support
        with np.errstate(over="ignore"):  # an overflow is refused by the constructor
            values = values * k + c
        try:
            moved = Discrete._of(values, masses)
        except ValueError:  # values that round together merge; an overflow raises again
            moved = Discrete._of(*_merge_ties(values, masses))
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
    Values equal to the bit are merged, with no epsilon merging; a value
    whose mass underflows to 0 is left out.
    """
    if len(xv) * len(zv) > CONVOLUTION_SUPPORT_CAP:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range is refused by the caller
        sums = np.add.outer(xv, zv).ravel()
    weights = np.multiply.outer(xm, zm).ravel()
    uniq, inverse = np.unique(sums, return_inverse=True)
    agg = np.bincount(inverse, weights=weights, minlength=len(uniq))
    if not agg.all():
        uniq, agg = uniq[agg > 0.0], agg[agg > 0.0]
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
        merged = _convolve(*x._support, *z._support)
        if merged is not None:
            return _seeded(Discrete._of(*merged), x._form + z._form)
    if isinstance(x, Gaussian) and isinstance(z, Gaussian):
        return Gaussian(x.mean + z.mean, x.variance + z.variance)
    return IndependentSum((x, z))


class _Segments:
    """Discrete supports side by side for one kernel call, a zero column ahead of each (see ``_lse_segments``).

    Every part is a Discrete's ascending support: a segment's smallest
    value is the one after its zero column and its largest ends it.  Each
    zero column holds its segment's smallest value, where its exponents
    peak when t < 0: ``zeroed`` is the weights with 0 at that value too,
    and ``peak_weights`` is each segment's weight there.
    """

    def __init__(self, parts: Sequence[_Part]) -> None:
        sizes = [len(p.values) + 1 for p in parts]
        bounds = np.fromiter(accumulate(sizes, initial=0), int, len(sizes) + 1)
        self.starts = bounds[:-1]
        self._high = bounds[1:] - 1
        self.segment = np.repeat(np.arange(len(parts)), sizes) if len(parts) > 1 else None
        self.weights = np.concatenate([a for p in parts for a in (_ZERO, p.masses)])
        self.values = np.concatenate([a for p in parts for a in (p.values[:1], p.values)])
        self.zeroed = self.weights.copy()
        self.zeroed[self.starts + 1] = 0.0
        self.peak_weights = self.weights[self.starts + 1]
        self.log_peak_weights = np.log(self.peak_weights)
        scales = [p.scale for p in parts]
        self.scales = None if all(s == 1.0 for s in scales) else np.asarray(scales)
        self.largest = max(-float(self.values.min()), float(self.values.max()))
        self.heavy = min(float(self.peak_weights.min()), float(self.weights[self._high].min())) < _TINY_PEAK_WEIGHT

    def reaches(self, t_abs: float) -> np.ndarray:
        """Each segment's largest |s*t*value| for |t| up to ``t_abs``."""
        magnitude = np.maximum(np.abs(self.values[self.starts]), np.abs(self.values[self._high]))
        with np.errstate(over="ignore", invalid="ignore"):
            return (t_abs if self.scales is None else self.scales * t_abs) * magnitude


class _Packed(NamedTuple):
    """The normal forms of a sequence of prospects, laid out for one kernel call (see ``_pack``)."""

    forms: Tuple[Tuple[_Part, ...], ...]
    segments: Optional[_Segments]  # the discrete parts in call order; None when there are none
    discrete: Optional[np.ndarray]  # their places among the parts, when some parts are Gaussian
    gaussian: Optional[np.ndarray]  # the Gaussian parts' places; None when there are none
    lines: Optional[np.ndarray]  # their means, halved variances and scales, 3 x parts x 1
    shifted: Optional[np.ndarray]  # the places of the parts with an offset; None when there are none
    offsets: Optional[np.ndarray]  # those offsets, parts x 1
    width: int  # most parts in one form
    padded: Optional[np.ndarray]  # each part's place in a forms x width layout, when some form holds fewer

    @property
    def plain(self) -> bool:
        """Every form is one discrete part without offset: the kernel's rows are the log-MGFs."""
        return self.gaussian is None and self.shifted is None and self.width == 1


def _pack(prospects: Sequence[Prospect]) -> _Packed:
    """Lay out the normal forms of ``prospects``, in order, for ``_log_mgf_grid``."""
    forms = tuple(p._form for p in prospects)
    parts = [part for form in forms for part in form]
    discrete = [i for i, p in enumerate(parts) if p.values is not None]
    gaussian = [i for i, p in enumerate(parts) if p.values is None]
    shifted = [i for i, p in enumerate(parts) if p.offset]
    width = max(map(len, forms))
    return _Packed(
        forms,
        _Segments([parts[i] for i in discrete]) if discrete else None,
        np.array(discrete) if discrete and gaussian else None,
        np.array(gaussian) if gaussian else None,
        np.array([[parts[i].mean, 0.5 * parts[i].variance, parts[i].scale] for i in gaussian]).T[:, :, None] if gaussian else None,
        np.array(shifted) if shifted else None,
        np.array([parts[i].offset for i in shifted])[:, None] if shifted else None,
        width,
        None if all(len(f) == width for f in forms) else np.array([i * width + j for i, f in enumerate(forms) for j in range(len(f))]),
    )


def _lse_segments(ts: np.ndarray, seg: _Segments, tilted: bool = False):
    """ln sum_j w_j exp(s * t * v_j) over each segment's support (v, w) and factor s, at every t: a segments x t array.

    Each segment's exponents are shifted by its largest; the weight at that
    maximum is kept out of the sum and added back through log1p, which keeps
    full precision when one term dominates.  There are two peak rules.
    When every t < 0, rounding being monotone, the largest exponent sits at
    a segment's smallest value, which its zero column holds with weight 0,
    so it ties with the peak: the peak is read from there, not found by a
    max pass.  When every (row, segment) of a block then has a single top
    element besides it, the weight at the peak is that end's, left out of
    the sum by the zeroed weights; a block with a tied peak (repeated
    values, rounding ties) masks every element equal to its segment's peak.
    Any other call takes ``_lse_block``'s max pass and mask for all its
    rows.  Every rule gives the bits of a max pass and a full mask.  Each
    segment is then summed by ``np.add.reduceat`` from its zero column,
    which holds 0 by then: started from 0, a segment's sum is, bit for bit,
    the pairwise sum ``ndarray.sum`` gives its part alone, so a segment's
    result depends neither on its neighbours, nor on the block it falls
    in, nor on the rule.  With ``tilted`` it also returns each row's
    derivative in t, s times the mean of v under the weights
    w_j exp(s * t * v_j); the log-sums keep their bits.

    Blocks hold at most ``_LSE_BLOCK_ELEMENTS`` elements, split over rows
    and runs of whole segments; the blocks of one run reuse one buffer.
    Raises nothing: a segment whose reach, its largest |s*t*value|, is not
    finite is evaluated as it stands, warnings silenced, and its row is NaN.
    """
    t_lo, t_hi = (float(ts[0]),) * 2 if len(ts) == 1 else (float(ts.min()), float(ts.max()))
    t_abs = max(abs(t_lo), abs(t_hi))
    # Some s*t*value overflows exactly when the product of the largest |s*t|
    # and |value| does; without factors that is the widest segment's.
    reach = t_abs * seg.largest if seg.scales is None else float(seg.reaches(t_abs).max())
    factors = None
    if seg.scales is not None:
        with np.errstate(over="ignore"):
            factors = seg.scales[:, None] * ts
    # A shifted exponent more than the float range below its peak is -inf,
    # whose exp is the 0 it stands for, and a row's sum divided by a tiny
    # peak weight can overflow (the row is then summed with its peak weight
    # instead).  Neither can happen when every |s*t*value| is below half the
    # float range and the peak weights are at least 2**-960 of weights
    # summing to under 1e19: the weights are a Discrete's masses, which its
    # constructor checks sum to 1.
    finite = math.isfinite(reach)
    noisy = not reach <= _HALF_FLOAT_MAX or seg.heavy
    with np.errstate(divide="ignore", over="ignore", invalid=None if finite else "ignore") if noisy else nullcontext():
        out, means = _lse_side(ts, factors, seg, t_hi < 0.0, noisy, tilted)
    if not finite:
        out[~np.isfinite(seg.reaches(t_abs))] = np.nan
    if tilted and seg.scales is not None:
        means *= seg.scales[:, None]
    return (out, means) if tilted else out


def _lse_side(ts: np.ndarray, factors: Optional[np.ndarray], seg: _Segments, negative: bool, noisy: bool, tilted: bool):
    """``_lse_segments`` in blocks, reading the peaks from the zero columns when ``negative`` (every t < 0), else masking.

    ``factors`` holds s*t (segments x t) when some s is not 1.  Returns the log-sums and the unscaled tilted means (``tilted``) or None.
    """
    rows, count, width = len(ts), len(seg.starts), len(seg.values)
    zeroed = seg.zeroed if negative else seg.weights
    if rows * width <= _LSE_BLOCK_ELEMENTS:
        block = _exponents(ts, factors, seg.segment, seg.values, None)
        peaks = (seg.peak_weights, seg.log_peak_weights) if negative else (None, None)
        out = _lse_block(block, *peaks, seg.weights, zeroed, seg.starts, seg.segment, noisy, seg.values if tilted else None)
        return out if tilted else (out, None)
    if width <= _LSE_BLOCK_ELEMENTS:
        runs = [(0, count)]
    else:
        # Runs of whole segments that fill a block; a wider segment is a run alone.
        ends = np.append(seg.starts[1:], width)
        runs, first = [], 0
        while first < count:
            past = max(first + 1, int(np.searchsorted(ends, seg.starts[first] + _LSE_BLOCK_ELEMENTS, side="right")))
            runs.append((first, past))
            first = past
    out, means = np.empty((count, rows)), np.empty((count, rows if tilted else 0))  # no columns unless tilted
    for first, past in runs:
        c0 = int(seg.starts[first])
        c1 = int(seg.starts[past]) if past < count else width
        starts = seg.starts[first:past] - c0
        segment = None if past - first == 1 else seg.segment[c0:c1] - first
        peaks = (seg.peak_weights[first:past], seg.log_peak_weights[first:past]) if negative else (None, None)
        step = max(1, _LSE_BLOCK_ELEMENTS // (c1 - c0))
        buffer = np.empty((min(step, rows), c1 - c0))
        for r0 in range(0, rows, step):
            t = ts[r0 : r0 + step]
            scaled = None if factors is None else factors[first:past, r0 : r0 + step]
            block = _exponents(t, scaled, segment, seg.values[c0:c1], buffer[: len(t)])
            reduced = _lse_block(block, *peaks, seg.weights[c0:c1], zeroed[c0:c1], starts, segment, noisy, seg.values[c0:c1] if tilted else None)
            out[first:past, r0 : r0 + step], means[first:past, r0 : r0 + step] = reduced if tilted else (reduced, 0.0)
    return out, means if tilted else None


def _exponents(
    ts: np.ndarray, factors: Optional[np.ndarray], segment: Optional[np.ndarray], values: np.ndarray, out: Optional[np.ndarray]
) -> np.ndarray:
    """The block t * value, or (s*t) * value with ``factors`` (segments x t) spread over each segment's columns."""
    if factors is None:
        return np.multiply.outer(ts, values, out=out)
    return np.multiply(factors.T if segment is None else factors.T[:, segment], values, out=out)


def _lse_block(
    block: np.ndarray,
    peak_weights: Optional[np.ndarray],
    log_peak_weights: Optional[np.ndarray],
    weights: np.ndarray,
    zeroed: np.ndarray,
    starts: np.ndarray,
    segment: Optional[np.ndarray],
    noisy: bool,
    values: Optional[np.ndarray] = None,
):
    """The log-sum-exp of each (row, segment) of ``block`` (the exponents, overwritten) from its zero column's peak.

    The result is segments x rows, so that the per-segment arithmetic after
    the sums runs along rows.  With ``peak_weights`` each zero column holds
    its segment's peak already, the segment's smallest value.  Without them
    the peak columns are unknown: one max pass fills each zero column with
    its segment's peak, and every element equal to it is masked.  Given the
    columns' ``values``, it also returns their mean under the same terms.
    """
    if peak_weights is None:
        block[:, starts] = np.maximum.reduceat(block, starts, axis=1)
    peaks = block[:, starts]
    level = peaks if segment is None else peaks[:, segment]
    top = block == level
    if peak_weights is not None and np.count_nonzero(top) == 2 * peaks.size:
        # Only the zero and peak columns tie: the zeroed weights leave the peak out.
        at_peak, log_at_peak, top = peak_weights[:, None], log_peak_weights[:, None], None
    else:
        at_peak = np.ascontiguousarray(np.add.reduceat(weights * top, starts, axis=1).T)
        log_at_peak = np.log(at_peak)
    block -= level
    np.exp(block, out=block)
    block *= zeroed
    if top is not None:
        block[top] = 0.0
    rest = np.ascontiguousarray(np.add.reduceat(block, starts, axis=1).T)
    peaks = np.ascontiguousarray(peaks.T)
    ratio = rest / at_peak
    out = np.log1p(ratio) + log_at_peak + peaks
    if noisy:
        over = np.isinf(ratio)
        out[over] = (np.log(rest + at_peak) + peaks)[over]
    if values is None:
        return out
    # The same terms times their values; the peak's are its weight at the segment's smallest value (the zero
    # column's), or the masked elements'.
    block *= values
    moment = np.add.reduceat(block, starts, axis=1).T
    moment += at_peak * values[starts][:, None] if top is None else np.add.reduceat(weights * values * top, starts, axis=1).T
    return out, moment / (rest + at_peak)


def _log_mgf_grid(prospects: Union[Sequence[Prospect], _Packed], ts: np.ndarray, over_t: bool = False, tilted: bool = False):
    """ln E{exp(t*X)} of every prospect at every t in a 1-D float array: one row per prospect.

    ``prospects`` may come packed by ``_pack``, to be evaluated at several
    grids.  Every discrete part of every form is one segment of a single
    ``_lse_segments`` call.  A part s * Y + c then gives Y's column at s * t
    plus c * t, and a form adds its parts' columns in order with one
    rounding per addition: with two parts that is
    the correctly rounded sum, bit for bit what ``math.fsum`` gives; with
    n >= 3 parts the sum is within (n - 1) * u / (1 - (n - 1) * u) * sum
    |column| of the exact sum of the columns, u = 2**-53 (recursive
    summation).  Each row is, bit for bit, what evaluating its prospect
    alone gives.  With ``over_t`` each row is divided by t (at t = -rho
    that is minus the certain equivalent), and a quotient out of range is
    an error too.  With ``tilted`` it also returns each row's derivative
    in t, the mean under the tilt exp(t*X): s * E_Y(s * t) + c for a
    discrete part s * Y + c, s * mu + s^2 * v * t + c for a Gaussian one,
    summed.

    Raises OverflowError for the first prospect, and in it the first part,
    whose log-MGF (or quotient) leaves the float range, in the words of
    evaluating the prospects one by one and their parts in form order; a
    one-part form whose offset takes its log-MGF out of range is an error
    only with ``over_t``.

    A call with one t and no ``tilted`` finishes on Python floats
    (``_log_mgf_column``), with the same bits.
    """
    if len(ts) == 1 and not tilted:
        return np.array(_log_mgf_column(prospects, ts, over_t))[:, None]
    pack = _pack_of(prospects)
    kernel, slopes = np.empty((0, len(ts))), np.empty((0, len(ts))) if tilted else None
    if pack.segments is not None:
        kernel, slopes = _lse_segments(ts, pack.segments, True) if tilted else (_lse_segments(ts, pack.segments), None)
    return _finish(pack, ts, kernel, slopes, over_t)


def _pack_of(prospects: Union[Sequence[Prospect], _Packed]) -> _Packed:
    """``prospects`` packed: as given, a lone prospect's cached pack, or a new one."""
    if isinstance(prospects, _Packed):
        return prospects
    return prospects[0]._packed if len(prospects) == 1 else _pack(prospects)


def _log_mgf_column(prospects: Union[Sequence[Prospect], _Packed], ts: np.ndarray, over_t: bool = False) -> List[float]:
    """``_log_mgf_grid`` at the one t of ``ts``: its column as Python floats, one per prospect.

    The kernel's column is read once; the Gaussian parts, the offsets, the
    sum over each form's parts and the quotient by t follow on Python
    floats, in ``_combine``'s order.  Their ``+``, ``*`` and ``/`` round as
    numpy's do, so each value has the array path's bits: numpy's per-call
    cost on one-element arrays, not arithmetic, is what this saves.  A
    value that is not finite sends the call through the array path, which
    raises in its words (or returns it, as ``_log_mgf_grid`` does).
    """
    pack = _pack_of(prospects)
    kernel = _lse_segments(ts, pack.segments) if pack.segments is not None else np.empty((0, 1))
    column, t = kernel.ravel().tolist(), float(ts[0])
    if not pack.plain:
        rows, column = iter(column), []
        for form in pack.forms:
            total = None
            for values, _, mean, variance, s, c in form:
                if values is None:
                    st = float(s) * t
                    value = float(mean) * st + 0.5 * float(variance) * st * st
                else:
                    value = next(rows)
                if c:
                    value += float(c) * t
                # Padded places add -0.0 in the array path, which changes nothing.
                total = value if total is None else total + value
            column.append(total)
    if over_t:
        # Python's 0.0 divisor raises where numpy's gives a value that is not finite.
        column = [v / t for v in column] if t else [math.nan]
    if all(map(math.isfinite, column)):
        return column
    return _finish(pack, ts, kernel, None, over_t)[:, 0].tolist()


def _finish(pack: _Packed, ts: np.ndarray, kernel: np.ndarray, slopes: Optional[np.ndarray], over_t: bool):
    """``_log_mgf_grid`` from the kernel's rows (and ``slopes``, when tilted): combine, divide by t, check the range."""
    tilted = slopes is not None
    out = result = kernel if pack.plain else _combine(pack, kernel, ts, slopes)
    if tilted and not pack.plain:
        out, slopes = out[:, : len(ts)], out[:, len(ts) :]
        result = out
    if over_t:
        with np.errstate(over="ignore"):
            result = out / ts
    if not np.isfinite(result).all():
        _raise_first_overflow(pack, ts, kernel, out, result if over_t else None)
    return (result, slopes) if tilted else result


def _combine(pack: _Packed, kernel: np.ndarray, ts: np.ndarray, slopes: Optional[np.ndarray] = None) -> np.ndarray:
    """Each form's log-MGF row from the kernel's rows: add the Gaussian parts, the offsets and the parts in order.

    Given the kernel rows' ``slopes``, each row's derivative in t rides beside it through the same pass, in the
    result's columns past len(ts).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if slopes is not None:
            kernel = np.concatenate((kernel, slopes), axis=1)
        columns = kernel
        if pack.gaussian is not None:
            means, halves, scales = pack.lines
            t = scales * ts
            lines = means * t + halves * t * t
            if slopes is not None:
                lines = np.concatenate((lines, (means + 2.0 * halves * t) * scales), axis=1)
            if pack.discrete is None:
                columns = lines
            else:
                columns = np.empty((len(pack.discrete) + len(pack.gaussian), kernel.shape[1]))
                columns[pack.discrete] = kernel
                columns[pack.gaussian] = lines
        if pack.shifted is not None:
            if columns is kernel:
                columns = kernel.copy()
            offsets = pack.offsets * ts
            columns[pack.shifted] += offsets if slopes is None else np.concatenate((offsets, np.broadcast_to(pack.offsets, offsets.shape)), axis=1)
        if pack.width == 1:
            return columns
        if pack.padded is not None:
            # -0.0 pads: x + -0.0 is x for every x, -0.0 included
            grid = np.full((len(pack.forms) * pack.width, columns.shape[1]), -0.0)
            grid[pack.padded] = columns
            columns = grid
        # One slab per part place, every form's part at once: np.add.accumulate
        # keeps this order too, but walks the part axis element by element.
        grid = columns.reshape(-1, pack.width, columns.shape[1])
        out = grid[:, 0].copy()
        for place in range(1, pack.width):
            out += grid[:, place]
        return out


def _raise_first_overflow(pack: _Packed, ts: np.ndarray, kernel: np.ndarray, out: np.ndarray, quotients: Optional[np.ndarray]) -> None:
    """Raise OverflowError for the first form, and part in it, whose log-MGF (or its quotient by t) is not finite, if any."""
    reaches = None if pack.segments is None else pack.segments.reaches(float(np.abs(ts).max()))
    segment = 0
    for p, form in enumerate(pack.forms):
        for values, _, mean, variance, s, _ in form:
            if values is not None:
                if not math.isfinite(reaches[segment]):
                    raise OverflowError(f"log-MGF overflow: |t*value| reaches {float(reaches[segment])!r}")
                if not np.isfinite(kernel[segment]).all():
                    raise OverflowError("log-MGF overflow: result out of floating-point range")
                segment += 1
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                t = ts if s == 1.0 else s * ts
                column = mean * t + 0.5 * variance * t * t
            finite = np.isfinite(column)
            if not finite.all():
                bad = int(np.argmin(finite))
                if not math.isfinite(t[bad]):
                    raise OverflowError(f"log-MGF overflow: Gaussian scale {float(s)!r} times t={float(ts[bad])!r} out of floating-point range")
                raise OverflowError(f"log-MGF overflow: Gaussian exponent {float(column[bad])!r} at t={float(ts[bad])!r}")
        if len(form) > 1 and not np.isfinite(out[p]).all():
            raise OverflowError("log-MGF overflow: sum of terms out of floating-point range")
        if quotients is not None and not np.isfinite(quotients[p]).all():
            raise OverflowError("ln E{exp(tX)}/t out of floating-point range")


def log_mgf(prospect: Prospect, t: float) -> float:
    """Evaluate ln E{exp(t*X)} from the normal form's parts."""
    t = _require_finite(t, "MGF argument t")
    return _log_mgf_column((prospect,), np.asarray([t]))[0]


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
