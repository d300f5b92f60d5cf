import contextlib
import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flexcurve import (
    Affine,
    Discrete,
    Gaussian,
    IndependentSum,
    add_independent,
    certain_equivalent,
    flexibility_curve,
    log_mgf,
    make_discrete,
    make_gaussian,
    scale,
    shift,
    stats,
    upper_envelope,
)
from flexcurve import prospects
from flexcurve.prospects import _LSE_BLOCK_ELEMENTS, _log_mgf_grid, _lse_segments, _Part, _Segments

from conftest import random_discrete, tree_pass_lse


def discrete_strategy(max_size=6, min_size=1, min_mass=0.05):
    pair = st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=min_mass, max_value=1.0),
    )
    return st.lists(pair, min_size=min_size, max_size=max_size).map(
        lambda pairs: make_discrete(
            [(v, m / sum(p[1] for p in pairs)) for v, m in pairs]
        )
    )


class TestMakeDiscrete:
    def test_point_mass(self):
        assert make_discrete([(10, 1.0)]) == Discrete((10.0,), (1.0,))

    def test_sorted(self):
        x = make_discrete([(100, 0.5), (0, 0.5)])
        assert x.values == (0.0, 100.0)
        assert x.masses == (0.5, 0.5)

    def test_duplicates_merged(self):
        x = make_discrete([(5, 0.25), (5, 0.25), (7, 0.5)])
        assert x == Discrete((5.0, 7.0), (0.5, 0.5))

    def test_renormalizes_within_tolerance(self):
        x = make_discrete([(0, 0.5 + 4e-10), (1, 0.5)])
        assert math.fsum(x.masses) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            [(0, 0.0), (1, 1.0)],
            [(0, -0.1), (1, 1.1)],
            [(0, 0.6), (1, 0.6)],
            [(math.inf, 1.0)],
        ],
    )
    def test_rejects(self, pairs):
        with pytest.raises(ValueError):
            make_discrete(pairs)

    @given(
        st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e300, 1e300), st.floats(1e-320, 1.0)), min_size=1, max_size=8),
        st.sampled_from([1.0, 1.0 + 5e-10, 1.0 - 5e-10]),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_pass_gives_the_discrete_of_its_tuples(self, pairs, total):
        # masses summing to `total`, inside the renormalizing tolerance
        drawn = math.fsum(m for _, m in pairs)
        x = make_discrete([(v, m / drawn * total) for v, m in pairs])
        want = Discrete(x.values, x.masses)
        assert x == want and hash(x) == hash(want) and repr(x) == repr(want)
        for got, held in zip(x._support, want._support):
            assert got.dtype == np.float64 and got.tobytes() == held.tobytes()
            assert not got.flags.writeable
        assert all(type(v) is float for v in x.values + x.masses)

    @pytest.mark.parametrize(
        "pairs, exact, message",
        [
            ([], None, "discrete prospect needs at least one (value, mass) pair"),
            ([(math.nan, 1.0)], None, "support value must be finite, got nan"),
            ([(0, 0.0)], None, "mass must be positive and finite, got 0.0"),
            ([(0, math.inf)], None, "mass must be positive and finite, got inf"),
            ([(0, 0.6), (1, 0.6)], None, "masses sum to 1.2, outside tolerance 1e-09 of 1"),
            ([(0, 8.988465674311579e307), (1, 8.98846567431158e307)], None, "masses sum to inf, outside tolerance 1e-09 of 1"),
            # the renormalized masses' own sum, the one constructor rule make_discrete's checks do not imply
            ([(0, 0.09120222323242), (1, 0.48692369463444435), (2, 0.4218740821331358)], 0.0, "masses sum to 0.9999999999999999, expected 1 within 0.0"),
        ],
    )
    def test_error_messages(self, pairs, exact, message):
        with mock.patch.object(prospects, "_MASS_SUM_EXACT", exact) if exact is not None else contextlib.nullcontext():
            with pytest.raises(ValueError) as caught:
                make_discrete(pairs)
            if exact is not None:
                # the constructor words it the same way
                values, masses = zip(*((float(v), m / math.fsum(m for _, m in pairs)) for v, m in pairs))
                assert raised(lambda: Discrete(values, masses)) == (ValueError, message)
        assert str(caught.value) == message


class TestMakeGaussian:
    def test_echo(self):
        assert make_gaussian(10, 4) == Gaussian(10.0, 4.0)

    def test_zero_variance_is_deterministic(self):
        g = make_gaussian(0, 0)
        assert stats(g).worst_case == 0.0
        assert log_mgf(g, -3.0) == 0.0

    def test_negated_cost_convention(self):
        g = make_gaussian(-50, 400)
        s = stats(g)
        assert s.mean == -50.0 and s.variance == 400.0

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            make_gaussian(0, -1)


class TestScaleShift:
    def test_discrete_pointwise(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        assert scale(x, 2) == Discrete((0.0, 200.0), (0.5, 0.5))

    def test_identity(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        assert scale(x, 1) == x
        assert shift(x, 0) == x

    def test_gaussian_moments(self):
        s = stats(scale(make_gaussian(10, 4), 3))
        assert s.mean == 30.0 and s.variance == 36.0

    def test_shift_point(self):
        assert shift(make_discrete([(0, 1.0)]), 5) == Discrete((5.0,), (1.0,))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            scale(make_gaussian(0, 1), 0.0)

    def test_values_that_round_together_merge(self):
        x = make_discrete([(0, 0.25), (1e-20, 0.5), (3.0, 0.25)])
        moved = shift(x, 1.0)
        assert moved == Discrete((1.0, 4.0), (0.75, 0.25))
        assert certain_equivalent(moved, 0.5) == certain_equivalent(Affine(x, 1.0, 1.0), 0.5)
        # both values underflow to 0
        assert scale(make_discrete([(1e-300, 0.5), (2e-300, 0.5)]), 1e-30) == Discrete((0.0,), (1.0,))
        with pytest.raises(ValueError, match="non-finite"):
            shift(make_discrete([(0.0, 0.5), (1.7e308, 0.5)]), 5e307)

    def test_moved_independent_sum_is_affine(self):
        total = IndependentSum((make_gaussian(0, 1), make_discrete([(0, 0.5), (1, 0.5)])))
        assert scale(total, 2.0) == Affine(total, 2.0, 0.0)
        assert shift(total, 3.0) == Affine(total, 1.0, 3.0)


class TestAddIndependent:
    def test_two_by_two_convolution(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        z = make_discrete([(-10, 0.5), (10, 0.5)])
        out = add_independent(x, z)
        assert out == Discrete(
            (-10.0, 10.0, 90.0, 110.0), (0.25, 0.25, 0.25, 0.25)
        )

    def test_gaussian_additivity(self):
        assert add_independent(make_gaussian(10, 4), make_gaussian(-3, 1)) == Gaussian(7.0, 5.0)

    def test_additive_identity(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        assert add_independent(x, make_discrete([(0, 1.0)])) == x

    def test_mixed_kinds_stay_lazy(self):
        out = add_independent(make_gaussian(0, 1), make_discrete([(0, 0.5), (1, 0.5)]))
        assert isinstance(out, IndependentSum)
        assert len(out.terms) == 2

    def test_a_mass_product_that_underflows_is_left_out(self):
        # 1e-200 * 1e-200 is 0.0 in floats: the value 0 has no mass and is dropped
        x = make_discrete([(0, 1e-200), (1, 1.0)])
        out = add_independent(x, x)
        assert (out.values, out.masses) == ((1.0, 2.0), (2e-200, 1.0))


class TestLogMgf:
    def test_point_mass(self):
        x = make_discrete([(10, 1.0)])
        for t in (-3.0, 0.0, 0.7):
            assert log_mgf(x, t) == pytest.approx(10 * t, abs=1e-12)

    def test_standard_normal(self):
        assert log_mgf(make_gaussian(0, 1), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_two_point_value(self):
        # ln(0.5 * (1 + exp(-1))), two-term sum evaluated directly
        x = make_discrete([(0, 0.5), (100, 0.5)])
        assert log_mgf(x, -0.01) == pytest.approx(-0.37988549304172235, abs=1e-12)

    def test_overflow_reports_magnitude(self):
        x = make_discrete([(1e300, 1.0)])
        with pytest.raises(OverflowError, match="t\\*value"):
            log_mgf(x, -1e300)

    def test_gaussian_overflow_names_the_callers_t(self):
        far = Affine(make_gaussian(1, 1), 1e300, 0.0)
        # the part's scale times t leaves the float range
        message = r"log-MGF overflow: Gaussian scale 1e\+300 times t=-10000000000\.0 out of floating-point range$"
        with pytest.raises(OverflowError, match="^" + message):
            log_mgf(far, -1e10)
        with pytest.raises(OverflowError, match=r"^certain equivalent at r=10000000000\.0: " + message):
            certain_equivalent(far, 1e10)
        # the scaled t is finite and its square is not
        with pytest.raises(OverflowError, match=r"^log-MGF overflow: Gaussian exponent inf at t=-10000000\.0$"):
            log_mgf(far, -1e7)

    @given(discrete_strategy(), st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_zero_at_origin_and_convexity(self, x, t):
        # renormalized masses can miss 1 by one ulp, so at the origin the
        # log-MGF is zero only up to that rounding
        assert log_mgf(x, 0.0) == pytest.approx(0.0, abs=1e-16 * len(x.values))
        t1, t2 = sorted((t, t / 3 - 1.0))
        mid = log_mgf(x, (t1 + t2) / 2)
        assert mid <= (log_mgf(x, t1) + log_mgf(x, t2)) / 2 + 1e-12


def one_part_lse(ts, values, weights):
    """ln sum_j weights[j] exp(ts[i] * values[j]) for every i: the kernel on one ascending support.

    The row of a segment whose exponents leave the float range is NaN.
    """
    ts, values, weights = (np.asarray(a, dtype=float) for a in (ts, values, weights))
    return _lse_segments(ts, _Segments((_Part(values, weights, 0.0, 0.0, 1.0, 0.0),)))[0]


def reference_logsumexp(t, values, weights):
    """ln sum_j weights[j] exp(t values[j]) by a plain loop and math.fsum."""
    exponents = [t * v for v in values]
    peak = max(exponents)
    return peak + math.log(math.fsum(w * math.exp(e - peak) for w, e in zip(weights, exponents)))


class TestLogSumExpKernel:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                st.floats(min_value=1e-6, max_value=1.0),
            ),
            min_size=1,
            max_size=12,
        ),
        st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_reference(self, pairs, ts):
        # unsorted values with repeats, as a chance node's child CEs are
        values = np.asarray([v for v, _ in pairs] * 2)
        weights = np.asarray([w for _, w in pairs] * 2)
        got = tree_pass_lse(ts, values, weights)
        for t, g in zip(ts, got):
            want = reference_logsumexp(t, values, weights)
            assert g == pytest.approx(want, rel=1e-12, abs=1e-12 * (1 + abs(t) * 1e3))

    def test_blocks_agree_with_single_rows(self, rng):
        # 40 rows of 7e4 points span 40 blocks; 300 rows of 1e3 span 5
        for n, rows in ((70_000, 40), (1_000, 300)):
            values = np.sort(rng.normal(0.0, 50.0, n))
            weights = rng.uniform(0.1, 1.0, n)
            weights /= weights.sum()
            ts = -np.geomspace(1e-3, 10.0, rows)
            assert rows * n > 4 * _LSE_BLOCK_ELEMENTS
            batched = one_part_lse(ts, values, weights)
            single = [one_part_lse(ts[i : i + 1], values, weights)[0] for i in range(rows)]
            assert batched.tolist() == single

    def test_overflow_on_negative_infinite_exponent(self):
        # exp(-inf) would contribute 0, but the exponent itself is out of range:
        # the kernel's row is NaN, and the log-MGF raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(one_part_lse([-1e10], [0.0, 1e300], [0.5, 0.5])).all()
        with pytest.raises(OverflowError, match="\\|t\\*value\\| reaches inf"):
            log_mgf(make_discrete([(0.0, 0.5), (1e300, 0.5)]), -1e10)


    def test_tiny_peak_weight_gives_the_finite_result(self):
        # the rest of the row over a peak weight of 1e-310 leaves the float
        # range; the row is then summed with its peak weight, ln(e**-1 +
        # 1e-310) = -1, and numpy prints nothing
        ts, values, weights = np.asarray([-1.0, 0.5]), np.asarray([0.0, 1.0]), np.asarray([1e-310, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = one_part_lse(ts, values, weights)
            ce = certain_equivalent(make_discrete([(0.0, 1e-310), (1.0, 1.0)]), 1.0)
            # the tiny weight at the largest value, the peak when t > 0:
            # ln(1 + 1e-310 * e) = 0
            high = one_part_lse([1.0], values, [1.0, 1e-310])
        assert got.tolist() == [-1.0, 0.5]
        assert ce == 1.0
        assert high.tolist() == [0.0]


def frozen_logsumexp(ts, values, weights):
    """The kernel as it was before it read the peak from the support's ends.

    Kept, with its block size fixed at 2**16 elements, as the bit-for-bit
    reference: a max pass for the peak and a mask of the elements equal to
    it in every block.
    """
    reach = float(np.abs(ts).max()) * float(np.abs(values).max())
    if not math.isfinite(reach):
        raise OverflowError(f"log-MGF overflow: |t*value| reaches {reach!r}")
    out = np.empty(len(ts))
    rows = max(1, (1 << 16) // len(values))
    for lo in range(0, len(ts), rows):
        block = np.multiply.outer(ts[lo : lo + rows], values)
        peak = block.max(axis=1, keepdims=True)
        top = block == peak
        at_peak = (weights * top).sum(axis=1)
        block -= peak
        np.exp(block, out=block)
        block *= weights
        block[top] = 0.0
        with np.errstate(divide="ignore", over="ignore"):
            rest = np.log1p(block.sum(axis=1) / at_peak)
            out[lo : lo + rows] = rest + np.log(at_peak) + peak[:, 0]
    if not np.isfinite(out).all():
        raise OverflowError("log-MGF overflow: result out of floating-point range")
    return out


def assert_same_bits(ts, values, weights, block=_LSE_BLOCK_ELEMENTS):
    """The kernel on an ascending support, run in blocks of ``block`` elements, equals the frozen one bit for bit."""
    ts, values, weights = (np.asarray(a, dtype=float) for a in (ts, values, weights))
    with mock.patch.object(prospects, "_LSE_BLOCK_ELEMENTS", block):
        got = one_part_lse(ts, values, weights)
    assert got.tolist() == frozen_logsumexp(ts, values, weights).tolist()


def assert_tree_pass_same_bits(ts, values, weights, block=_LSE_BLOCK_ELEMENTS):
    """The tree pass's call over any values, on row blocks of ``block`` elements, equals the frozen kernel bit for bit."""
    ts, values, weights = (np.asarray(a, dtype=float) for a in (ts, values, weights))
    rows = max(1, block // (len(values) + 1))
    got = np.concatenate([tree_pass_lse(ts[r0 : r0 + rows], values, weights) for r0 in range(0, len(ts), rows)])
    assert got.tolist() == frozen_logsumexp(ts, values, weights).tolist()


kernel_values = st.floats(min_value=-1e3, max_value=1e3)
# Moderate t, both signs of zero, and t small enough that t*value is
# subnormal, where neighbouring values round to one exponent.
kernel_ts = st.lists(
    st.one_of(
        st.floats(min_value=-5, max_value=5),
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-1e-300, max_value=1e-300),
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def weights_for(draw, values):
    return draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=len(values), max_size=len(values)))


@st.composite
def sorted_supports(draw, max_size=40):
    values = sorted(draw(st.lists(kernel_values, min_size=1, max_size=max_size, unique=True)))
    return values, draw(weights_for(values))


@st.composite
def ulp_run_supports(draw):
    """Runs of neighbouring floats at both ends, so the peak can tie by rounding."""
    low = draw(kernel_values)
    high = low + draw(st.floats(min_value=2.0, max_value=100.0))
    bottom, top = [low], [high]
    for run, direction in ((bottom, math.inf), (top, -math.inf)):
        for _ in range(draw(st.integers(0, 3))):
            run.append(math.nextafter(run[-1], direction))
    middle = draw(st.lists(st.floats(min_value=low + 0.5, max_value=high - 0.5), max_size=6))
    values = sorted(set(bottom + middle + top))
    return values, draw(weights_for(values))


@st.composite
def repeated_supports(draw):
    """Unsorted values, each present twice, as a chance node's child CEs can be."""
    pairs = draw(st.lists(st.tuples(kernel_values, st.floats(min_value=1e-6, max_value=1.0)), min_size=1, max_size=12))
    shuffled = draw(st.permutations(pairs + pairs))
    return [v for v, _ in shuffled], [w for _, w in shuffled]


class TestKernelMatchesFrozen:
    """The kernel equals the frozen reference bit for bit: the prospect pass on ascending supports, the tree pass on any values."""

    @given(sorted_supports(), kernel_ts)
    @settings(max_examples=150, deadline=None)
    def test_sorted_distinct(self, support, ts):
        assert_same_bits(ts, *support)

    @given(ulp_run_supports(), kernel_ts)
    @settings(max_examples=150, deadline=None)
    def test_rounding_ties_at_the_peak(self, support, ts):
        assert_same_bits(ts, *support)

    @given(repeated_supports(), kernel_ts)
    @settings(max_examples=150, deadline=None)
    def test_unsorted_repeated_values(self, support, ts):
        assert_tree_pass_same_bits(ts, *support)

    @given(kernel_values, st.floats(min_value=1e-6, max_value=1.0), kernel_ts)
    @settings(max_examples=100, deadline=None)
    def test_one_point_support(self, value, weight, ts):
        assert_same_bits(ts, [value], [weight])

    @given(st.one_of(sorted_supports(12), ulp_run_supports(), repeated_supports()), kernel_ts, st.data())
    @settings(max_examples=150, deadline=None)
    def test_blocks_of_any_size(self, support, ts, data):
        # a block of 1 to 3 rows of elements, so a call spans several blocks;
        # unsorted or repeated values go through the tree pass's call
        block = data.draw(st.integers(min_value=1, max_value=3 * len(support[0])))
        ascending = all(a < b for a, b in zip(support[0], support[0][1:]))
        (assert_same_bits if ascending else assert_tree_pass_same_bits)(ts, *support, block=block)

    def test_mixed_signs_and_zero_in_one_call(self):
        values = [-40.0, -2.5, 0.0, 13.0, 99.0]
        assert_same_bits([-2.0, 0.0, 1.5, -0.0, -1e-310, 3e-320, 0.7], values, [0.1, 0.2, 0.3, 0.15, 0.25])

    def test_terms_past_the_float_range_below_the_peak(self):
        # at t = -1 the term at 1e308 lies 2e308 below the peak: exp gives 0, with no warning
        ts, values, weights = np.asarray([-1.0, 1.0]), np.asarray([-1e308, 1e308]), np.asarray([0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = one_part_lse(ts, values, weights)
        with np.errstate(over="ignore"):
            assert got.tolist() == frozen_logsumexp(ts, values, weights).tolist()

    def test_tied_and_single_peaks_across_a_block_boundary(self):
        # 21,845 points make blocks of 3 rows, and the support's two lowest
        # values are neighbouring floats: some t round them to one exponent
        # and some do not, so tied and single-peak blocks alternate.
        values = np.linspace(7.9, 60.5, 21_845)
        values[1] = math.nextafter(7.9, math.inf)
        weights = np.linspace(1.0, 2.0, len(values))
        ts = -0.012 * np.geomspace(1.0, 40.0, 60)
        exponents = ts[:, None] * values[:2]
        tied = exponents[:, 0] == exponents[:, 1]
        assert 0 < tied.sum() < len(ts) and _LSE_BLOCK_ELEMENTS // len(values) == 3
        assert_same_bits(ts, values, weights)


def frozen_part(ts, values, weights):
    """``frozen_logsumexp`` in one block, with the kernel's documented fallback.

    A row whose sum over a tiny peak weight overflows is summed with that
    weight instead.
    """
    with np.errstate(divide="ignore", over="ignore"):
        block = np.multiply.outer(ts, values)
        peak = block.max(axis=1)
        top = block == peak[:, None]
        at_peak = (weights * top).sum(axis=1)
        block -= peak[:, None]
        np.exp(block, out=block)
        block *= weights
        block[top] = 0.0
        rest = block.sum(axis=1)
        ratio = rest / at_peak
        out = np.log1p(ratio) + np.log(at_peak) + peak
        over = np.isinf(ratio)
        out[over] = (np.log(rest + at_peak) + peak)[over]
    return out


def reference_log_mgf(prospect, ts):
    """The log-MGF by a loop over the normal form's parts, in order, one ``frozen_part`` each."""
    out = None
    for values, masses, mean, variance, s, c in prospect._form:
        t = ts if s == 1.0 else s * ts
        column = frozen_part(t, values, masses) if values is not None else mean * t + 0.5 * variance * t * t
        if c:
            column = column + c * ts
        out = column if out is None else out + column
    return out


@st.composite
def packed_terms(draw):
    """A discrete (sorted, with rounding ties at the ends, or with a tiny weight at an end), Gaussian or line term, maybe moved."""
    kind = draw(st.sampled_from(["sorted", "ties", "tiny", "gaussian", "line"]))
    if kind == "gaussian":
        term = Gaussian(draw(st.floats(-100, 100)), draw(st.floats(0.0, 1e3)))
    elif kind == "line":
        term = Gaussian(draw(st.floats(-100, 100)), 0.0)
    else:
        values, weights = draw(ulp_run_supports() if kind == "ties" else sorted_supports(8))
        if kind == "tiny":
            weights[draw(st.sampled_from([0, -1]))] = draw(st.sampled_from([1e-310, 1e-300, 2.0**-970]))
        total = math.fsum(weights)
        term = Discrete(tuple(values), tuple(w / total for w in weights))
    if draw(st.booleans()):
        term = Affine(term, draw(st.floats(0.1, 10.0)), draw(st.sampled_from([0.0, draw(st.floats(-50, 50))])))
    return term


@st.composite
def packed_prospects(draw):
    """Forms of one to six parts or more: a term, or a sum of terms, maybe moved."""
    terms = draw(st.lists(packed_terms(), min_size=1, max_size=6))
    x = terms[0] if len(terms) == 1 else IndependentSum(tuple(terms))
    if draw(st.booleans()):
        x = Affine(x, draw(st.floats(0.1, 10.0)), draw(st.floats(-50, 50)))
    return x


class TestPackedPass:
    """One kernel call over every discrete part of several prospects gives each prospect's own bits."""

    @given(st.lists(packed_prospects(), min_size=1, max_size=4), kernel_ts, st.sampled_from([_LSE_BLOCK_ELEMENTS, 1, 7, 40]))
    @settings(max_examples=200, deadline=None)
    def test_packed_equals_per_prospect(self, batch, ts, block):
        ts = np.asarray(ts)
        with mock.patch.object(prospects, "_LSE_BLOCK_ELEMENTS", block):
            packed = _log_mgf_grid(batch, ts)
            alone = [_log_mgf_grid((x,), ts)[0] for x in batch]
        assert packed.shape == (len(batch), len(ts))
        for row, one, x in zip(packed, alone, batch):
            assert row.tolist() == one.tolist() == reference_log_mgf(x, ts).tolist()

    def test_one_kernel_call_per_pass(self, rng):
        batch = [random_discrete(rng), add_independent(random_discrete(rng), make_gaussian(1.0, 4.0)),
                 Affine(IndependentSum((random_discrete(rng), random_discrete(rng))), 2.0, 3.0), make_gaussian(0.0, 1.0)]
        calls = []
        real = prospects._lse_segments
        with mock.patch.object(prospects, "_lse_segments", lambda ts, seg: calls.append(len(seg.starts)) or real(ts, seg)):
            _log_mgf_grid(batch, -np.geomspace(1e-3, 1.0, 50))
        # the discrete parts: one, one, two (the Gaussians go through no kernel)
        assert calls == [4]

    def test_blocks_stay_within_the_element_cap(self):
        # 3,000 prospects of 2 to 9 points: whole segments and rows split into blocks of at most 2**16 elements
        rng = np.random.default_rng(5)
        batch = [random_discrete(rng, n_max=9) for _ in range(3_000)]
        ts = -np.geomspace(1e-3, 1.0, 7)
        sizes = []
        real = prospects._lse_block
        with mock.patch.object(prospects, "_lse_block", lambda block, *rest: sizes.append(block.size) or real(block, *rest)):
            packed = _log_mgf_grid(batch, ts)
        assert len(sizes) > 1 and max(sizes) <= _LSE_BLOCK_ELEMENTS
        assert packed.tolist() == [reference_log_mgf(x, ts).tolist() for x in batch]


def numbers(lo, hi):
    """Floats in [lo, hi], some as numpy scalars, and integers: a prospect's fields hold what it was given."""
    return st.floats(lo, hi) | st.floats(lo, hi).map(np.float64) | st.integers(int(lo), int(hi))


@st.composite
def one_column_prospects(draw):
    """Plain and factored Discretes, Gaussian-only forms, Affine chains, moved convolutions, sums with Gaussians and offsets."""
    kind = draw(st.sampled_from(["plain", "factored", "gaussians", "chain", "moved", "sum"]))
    if kind == "plain":
        return draw(discrete_strategy())
    if kind == "factored":
        return convolve(draw(st.lists(convolution_factor(), min_size=2, max_size=3)))
    if kind == "gaussians":
        terms = draw(st.lists(st.builds(Gaussian, numbers(-100, 100), numbers(0, 1e3)), min_size=1, max_size=3))
        x = terms[0] if len(terms) == 1 else IndependentSum(tuple(terms))
        return Affine(x, draw(numbers(1, 10)), draw(numbers(-50, 50))) if draw(st.booleans()) else x
    if kind == "chain":
        x = draw(packed_terms())
        for _ in range(draw(st.integers(1, 3))):
            x = Affine(x, draw(numbers(1, 10)), draw(numbers(-50, 50)))
        return x
    if kind == "moved":
        wrapper = draw(st.sampled_from(["shift", "scale", "shift of scale"]))
        return WRAPPERS[wrapper](convolve(draw(st.lists(convolution_factor(), min_size=2, max_size=3))), draw(st.floats(0.1, 10.0)), draw(st.floats(-50, 50)))
    return draw(packed_prospects())


def outcome(call):
    """The hex of each value ``call()`` returns, or the type and text of what it raises."""
    try:
        return [v.hex() for v in call()]
    except OverflowError as exc:
        return OverflowError, str(exc)


class TestOneColumn:
    """A one-t call finishes on Python floats with the bits of the array path."""

    @given(st.lists(one_column_prospects(), min_size=1, max_size=3), st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0, -40.0, 1e-300]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_one_column_is_the_array_path_bit_for_bit(self, batch, t, over_t):
        with warnings.catch_warnings():
            # numpy's 0 / 0 warns on both paths
            warnings.simplefilter("ignore" if over_t and t == 0.0 else "error")
            column = outcome(lambda: prospects._log_mgf_column(batch, np.asarray([t]), over_t))
            one = outcome(lambda: _log_mgf_grid(batch, np.asarray([t]), over_t)[:, 0].tolist())
            grid = outcome(lambda: _log_mgf_grid(batch, np.asarray([t, t]), over_t)[:, 0].tolist())
        assert column == one == grid
        if isinstance(column, list):
            assert all(type(v) is float for v in prospects._log_mgf_column(batch, np.asarray([t]), over_t))

    COIN = ((0.0, 0.5), (1.0, 0.5))
    OVERFLOWS = {
        "gaussian": (lambda: make_gaussian(0.0, 1e308), "log-MGF overflow: Gaussian exponent inf at t=-40.0"),
        "affine": (lambda: Affine(make_discrete([(0.0, 0.5), (1e300, 0.5)]), 1e10, 0.0), "log-MGF overflow: |t*value| reaches inf"),
        # the moved values round to one point, 1e308
        "shift": (lambda: shift(make_discrete(TestOneColumn.COIN), 1e308), "log-MGF overflow: |t*value| reaches inf"),
        "offset": (lambda: Affine(make_discrete(TestOneColumn.COIN), 1.0, 1e308), "ln E{exp(tX)}/t out of floating-point range"),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_overflows_raise_in_the_array_path_words(self, case):
        build, message = self.OVERFLOWS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as caught:
                certain_equivalent(build(), 40.0)
            assert str(caught.value) == f"certain equivalent at r=40.0: {message}"
            x = build()
            assert outcome(lambda: _log_mgf_grid((x,), np.asarray([-40.0]), True)[0]) == (OverflowError, message)
            assert outcome(lambda: _log_mgf_grid((x,), np.asarray([-40.0, -40.0]), True)[0]) == (OverflowError, message)

    def test_a_log_mgf_past_the_range_without_the_quotient_is_returned(self):
        # a one-part form whose offset takes it out of range raises only with the quotient
        x = Affine(make_discrete(self.COIN), 1.0, 1e308)
        assert log_mgf(x, 40.0) == math.inf
        assert _log_mgf_grid((x,), np.asarray([40.0])).tolist() == [[math.inf]]


class TestComposition:
    def test_independence_factorization(self, rng):
        for _ in range(50):
            x, z = random_discrete(rng), random_discrete(rng)
            t = float(rng.uniform(-0.2, 0.2))
            combined = add_independent(x, z)
            assert log_mgf(combined, t) == pytest.approx(
                log_mgf(x, t) + log_mgf(z, t), abs=1e-12 * (1 + abs(t) * 100)
            )

    def test_affine_consistency(self, rng):
        for _ in range(50):
            x = random_discrete(rng)
            k = float(rng.uniform(0.5, 5.0))
            c = float(rng.uniform(-20, 20))
            t = float(rng.uniform(-0.1, 0.1))
            lhs = log_mgf(scale(shift(x, c), k), t)
            rhs = log_mgf(x, k * t) + c * k * t
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_lazy_affine_node_matches(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        lazy = Affine(x, 2.0, -10.0)
        explicit = shift(scale(x, 2.0), -10.0)
        for t in (-0.05, 0.02):
            assert log_mgf(lazy, t) == pytest.approx(log_mgf(explicit, t), abs=1e-12)


class TestLazySumColumns:
    """An IndependentSum adds its terms' log-MGF columns in term order."""

    def terms(self, rng, count):
        kinds = [
            lambda: random_discrete(rng),
            lambda: make_gaussian(float(rng.uniform(-20, 20)), float(rng.uniform(0.0, 300.0))),
            lambda: Affine(random_discrete(rng), float(rng.uniform(0.5, 3.0)), float(rng.uniform(-9, 9))),
        ]
        return tuple(kinds[int(rng.integers(len(kinds)))]() for _ in range(count))

    def test_two_terms_equal_fsum(self, rng):
        ts = -np.geomspace(1e-3, 2.0, 300)
        for _ in range(40):
            terms = self.terms(rng, 2)
            columns = [_log_mgf_grid((term,), ts)[0] for term in terms]
            want = [math.fsum(pair) for pair in zip(*columns)]
            assert _log_mgf_grid((IndependentSum(terms),), ts)[0].tolist() == want

    def test_more_terms_within_the_stated_bound(self, rng):
        ts = np.concatenate([-np.geomspace(1e-3, 2.0, 200), np.geomspace(1e-3, 0.5, 50)])
        u = 2.0**-53
        for count in (3, 4, 7):
            for _ in range(15):
                terms = self.terms(rng, count)
                columns = np.asarray([_log_mgf_grid((term,), ts)[0] for term in terms])
                got = _log_mgf_grid((IndependentSum(terms),), ts)[0]
                exact = np.asarray([math.fsum(column) for column in columns.T])
                gamma = (count - 1) * u / (1.0 - (count - 1) * u)
                assert np.all(np.abs(got - exact) <= gamma * np.abs(columns).sum(axis=0))

    def test_sum_out_of_range_raises(self):
        big = make_gaussian(0.0, 1e300)  # each term 1.1e308 at t = 1.5e4, their sum past the range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="log-MGF overflow"):
                _log_mgf_grid((IndependentSum((big, big)),), np.asarray([1.5e4]))


class TestStats:
    def test_two_point(self):
        s = stats(make_discrete([(0, 0.5), (100, 0.5)]))
        assert (s.mean, s.variance, s.worst_case) == (50.0, 2500.0, 0.0)

    def test_gaussian(self):
        s = stats(make_gaussian(10, 4))
        assert (s.mean, s.variance) == (10.0, 4.0)
        assert s.worst_case == -math.inf

    def test_affine_two_point(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        s = stats(Affine(x, 2.0, -10.0))
        # transformed support is {-10, 190}
        assert (s.mean, s.variance, s.worst_case) == (90.0, 10000.0, -10.0)

    def test_mean_matches_mgf_derivative(self, rng):
        h = 1e-6
        for _ in range(30):
            x = random_discrete(rng)
            derivative = (log_mgf(x, h) - log_mgf(x, -h)) / (2 * h)
            mean = stats(x).mean
            assert derivative == pytest.approx(mean, rel=1e-6, abs=1e-6)

    def test_variance_past_the_square_root_of_the_float_range(self):
        # (1e155)**2 overflows, the variance 1e-10 * (1e155)**2 does not
        s = stats(make_discrete([(0, 1 - 1e-10), (1e155, 1e-10)]))
        assert s.variance == pytest.approx(1e300, rel=1e-9)

    @pytest.mark.parametrize("masses", [(0.5, 0.5), (0.9, 0.1)])
    def test_overflowing_variance_is_inf_without_warning(self, masses):
        # with masses 0.9 / 0.1 the deviation 1e308 - mean is itself past the float range
        x = make_discrete([(-1e308, masses[0]), (1e308, masses[1])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stats(x).variance == math.inf

    def test_scaled_variance_keeps_the_plain_bits(self, rng):
        for _ in range(200):
            x = scale(random_discrete(rng, n_max=40), 10.0 ** rng.uniform(-30, 30))
            v, m = x._support
            mean = float(np.dot(m, v))
            assert stats(x).variance == float(np.dot(m, (v - mean) ** 2))

    def test_independent_sum_worst_case(self):
        out = add_independent(make_gaussian(0, 1), make_discrete([(3, 1.0)]))
        assert stats(out).worst_case == -math.inf


def convolution_factor():
    """A discrete factor of up to 7 points with arbitrary float masses."""
    return discrete_strategy(max_size=7, min_size=3, min_mass=1e-6)


WRAPPERS = {
    "none": lambda x, k, c: x,
    "affine": lambda x, k, c: Affine(x, k, c),
    "shift": lambda x, k, c: shift(x, c),
    "scale": lambda x, k, c: scale(x, k),
    "shift of scale": lambda x, k, c: shift(scale(x, k), c),
    "lazy sum": lambda x, k, c: add_independent(x, make_gaussian(c, k)),
}


def convolve(factors):
    out = factors[0]
    for f in factors[1:]:
        out = add_independent(out, f)
    return out


def ces(prospect, rhos):
    return -_log_mgf_grid((prospect,), -rhos)[0] / rhos


def kernel_sizes(prospect, rhos):
    """The CE grid, and the support sizes of the segments of each kernel call it made."""
    sizes = []
    real = prospects._lse_segments

    def spy(ts, segments):
        bounds = np.append(segments.starts, len(segments.weights))
        sizes.append((np.diff(bounds) - 1).tolist())
        return real(ts, segments)

    with mock.patch.object(prospects, "_lse_segments", spy):
        return ces(prospect, rhos), sizes


class TestConvolutionFactors:
    """An exact convolution's log-MGF and stats are read from its factors."""

    RHOS = np.geomspace(1e-3, 10.0, 60)
    # |CE from the factors - CE from the merged support| <= REL * (1 + k * max |value| + |c|),
    # k and c the wrapper's scale and offset; 3e-14 is the largest ratio seen
    # on 12,000 random cases
    REL = 1e-11

    @given(
        st.lists(convolution_factor(), min_size=2, max_size=4),
        st.sampled_from(sorted(WRAPPERS)),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_factored_grid_matches_the_merged_support(self, factors, wrapper, k, c):
        conv = convolve(factors)
        # the form is the support, or unmoved factors holding fewer points
        parts = conv._form
        assert all(p.values is not None and (p.scale, p.offset) == (1.0, 0.0) for p in parts)
        assert len(parts) == 1 or sum(len(p.values) for p in parts) < len(conv.values)
        merged = Discrete(conv.values, conv.masses)
        # a scale that rounds two support values together merges them
        reference = WRAPPERS[wrapper](merged, k, c)
        got = ces(WRAPPERS[wrapper](conv, k, c), self.RHOS)
        want = ces(reference, self.RHOS)
        reach = max(abs(conv.values[0]), abs(conv.values[-1]))
        assert np.all(np.abs(got - want) <= self.REL * (1.0 + k * reach + abs(c)))
        s, t = stats(conv), stats(merged)
        assert s.worst_case == t.worst_case
        assert s.mean == pytest.approx(t.mean, rel=self.REL, abs=self.REL * (1.0 + reach))
        assert s.variance == pytest.approx(t.variance, rel=1e-9, abs=self.REL * (1.0 + reach) ** 2)

    @given(convolution_factor(), convolution_factor(), convolution_factor())
    @settings(max_examples=100, deadline=None)
    def test_association_gives_the_same_bits(self, a, b, c):
        left = add_independent(add_independent(a, b), c)
        right = add_independent(a, add_independent(b, c))
        # ties among the sums can leave a support with fewer points than its factors
        assume(len(left._form) == len(right._form) == 3)
        for form in (left._form, right._form):
            assert [(p.values.tolist(), p.masses.tolist()) for p in form] == [(list(f.values), list(f.masses)) for f in (a, b, c)]
        assert ces(left, self.RHOS).tolist() == ces(right, self.RHOS).tolist()

    def test_factors_leave_equality_hash_and_repr_alone(self, rng):
        factored = 0
        for _ in range(20):
            conv = convolve([random_discrete(rng) for _ in range(3)])
            merged = Discrete(conv.values, conv.masses)
            factored += len(conv._form) > 1
            assert len(merged._form) == 1
            assert conv == merged and hash(conv) == hash(merged) and repr(conv) == repr(merged)
        assert factored

    def test_factors_are_read_when_they_hold_fewer_points(self):
        factors = [make_discrete([(v * 10.0**i + 0.5, 0.1) for v in range(10)]) for i in range(3)]
        conv = convolve(factors)
        assert len(conv._support[0]) == 1_000
        got, sizes = kernel_sizes(conv, self.RHOS)
        mean = stats(conv).mean
        assert sizes == [[10, 10, 10]]
        # the merged support's per-point tuples were never built
        assert "values" not in conv.__dict__ and "masses" not in conv.__dict__
        assert np.all(np.abs(got - ces(Discrete(conv.values, conv.masses), self.RHOS)) < 1e-10)
        assert mean == pytest.approx(math.fsum(v * m for v, m in zip(conv.values, conv.masses)), rel=1e-14)

    def test_support_is_read_when_the_factors_hold_more_points(self):
        coin = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        ten = convolve([coin] * 10)
        assert len(ten.values) == 11 and len(ten._form) == 1
        got, sizes = kernel_sizes(ten, self.RHOS)
        assert sizes == [[11]]
        assert got.tolist() == ces(Discrete(ten.values, ten.masses), self.RHOS).tolist()
        assert stats(ten) == stats(Discrete(ten.values, ten.masses))

    def test_shift_past_a_factor_range_keeps_the_factors(self):
        # 1.7e308 + 5e307 would overflow in the first factor; every merged value stays
        # finite, and the shift follows the factors as a line part
        x = make_discrete([(0.0, 0.4), (1e307, 0.2), (1.7e308, 0.4)])
        z = make_discrete([(-1e308, 0.4), (-7e307, 0.2), (-5e307, 0.4)])
        conv = add_independent(x, z)
        moved = shift(conv, 5e307)
        assert len(moved._form) == 3 and moved._form[-1].mean == 5e307
        assert moved.values == tuple(v + 5e307 for v in conv.values) and moved.masses == conv.masses
        rhos = np.asarray([1e-310, 1e-308, 1e-306])
        got, want = ces(moved, rhos), ces(Discrete(moved.values, moved.masses), rhos)
        assert np.all(np.abs(got - want) <= self.REL * (1.0 + max(abs(v) for v in moved.values)))


def loop_checks(values, masses):
    """The constructor's checks, element by element over the given sequences: the reference for the array checks."""
    if not values:
        raise ValueError("discrete prospect needs at least one outcome")
    if len(values) != len(masses):
        raise ValueError("values and masses must have equal length")
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite support value {v!r}")
    for m in masses:
        if not (m > 0.0):
            raise ValueError(f"mass must be positive, got {m!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("support values must be strictly ascending")
    try:
        total = math.fsum(masses)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > prospects._MASS_SUM_EXACT:
        raise ValueError(f"masses sum to {total!r}, expected 1 within {prospects._MASS_SUM_EXACT}")


def raised(build):
    """(type, message) of what ``build()`` raises, or None."""
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def assert_same_prospect(got, want):
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert all(type(v) is float for v in got.values + got.masses)


def loop_mapped(x, k, c):
    """k * X + c over the tuples, one Python float at a time; values that round together merge."""
    values = tuple(v * k + c for v in x.values)
    try:
        return Discrete(values, x.masses)
    except ValueError:
        return Discrete(*(tuple(a.tolist()) for a in prospects._merge_ties(values, x.masses)))


@st.composite
def ulp_close_supports(draw):
    """A support of floats a few ulps apart and a shift that rounds some of them together."""
    base = draw(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    gaps = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    values = [base]
    for gap in gaps:
        for _ in range(gap):
            values.append(math.nextafter(values[-1], math.inf))
    masses = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
    total = math.fsum(masses)
    return make_discrete(zip(values, (m / total for m in masses))), draw(st.floats(min_value=1e3, max_value=1e17))


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, math.inf, -math.inf])


class TestArraySupport:
    """A Discrete holds its support as read-only arrays; built from arrays it is the Discrete of their tuples."""

    @given(st.lists(convolution_factor(), min_size=2, max_size=3), st.floats(0.1, 10.0), st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_derived_supports_match_their_tuples(self, factors, k, c):
        conv = convolve(factors)
        assert_same_prospect(conv, Discrete(tuple(conv.values), tuple(conv.masses)))
        for derived, want in ((shift(conv, c), loop_mapped(conv, 1.0, c)), (scale(conv, k), loop_mapped(conv, k, 0.0))):
            assert_same_prospect(derived, want)

    @given(ulp_close_supports())
    @settings(max_examples=100, deadline=None)
    def test_tie_merging_shift_matches_the_loop(self, case):
        x, c = case
        moved = shift(x, c)
        assert_same_prospect(moved, loop_mapped(x, 1.0, c))
        assert_same_prospect(scale(x, c), loop_mapped(x, c, 0.0))

    CASES = {
        "empty": ((), ()),
        "unequal lengths": ((0.0, 1.0), (1.0,)),
        "nan value": ((0.0, math.nan), (0.5, 0.5)),
        "inf value": ((0.0, math.inf), (0.5, 0.5)),
        "-inf value": ((-math.inf, 0.0), (0.5, 0.5)),
        "zero mass": ((0.0, 1.0), (1.0, 0.0)),
        "negative mass": ((0.0, 1.0), (1.5, -0.5)),
        "nan mass": ((0.0, 1.0), (math.nan, 1.0)),
        "-0.0 mass": ((0.0, 1.0), (1.0, -0.0)),
        "unsorted": ((1.0, 0.0), (0.5, 0.5)),
        "repeated": ((0.0, 0.0), (0.5, 0.5)),
        "sum off": ((0.0, 1.0), (0.5, 0.5 + 2e-12)),
        "sum past the float range": ((0.0, 1.0), (8.988465674311579e307, 8.98846567431158e307)),
        "values first": ((math.nan, 0.0), (0.0, 1.0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_invalid_supports_raise_what_the_loop_raises(self, case):
        values, masses = self.CASES[case]
        want = raised(lambda: loop_checks(values, masses))
        assert want is not None and want[0] is ValueError
        arrays = np.array(values, dtype=float), np.array(masses, dtype=float)
        assert raised(lambda: Discrete(values, masses)) == want
        assert raised(lambda: Discrete(*arrays)) == want
        assert raised(lambda: Discrete._of(*arrays)) == want

    @given(st.lists(st.tuples(FLOATS, FLOATS), max_size=6), st.booleans())
    @example([(0.0, 8.988465674311579e307), (1.0, 8.98846567431158e307)], True)
    @settings(max_examples=300, deadline=None)
    def test_any_float_support_is_checked_as_the_loop_checks_it(self, pairs, normalise):
        values, masses = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
        if normalise and all(math.isfinite(m) and m > 0.0 for m in masses):
            # a sum past the float range is left as drawn: its check reports inf
            with contextlib.suppress(OverflowError):
                total = math.fsum(masses)
                masses = tuple(m / total for m in masses)
        want = raised(lambda: loop_checks(values, masses))
        got = raised(lambda: Discrete(values, masses))
        assert got == want
        assert raised(lambda: Discrete(np.array(values, dtype=float), np.array(masses, dtype=float))) == want
        if want is None:
            assert_same_prospect(Discrete(np.array(values), np.array(masses)), Discrete(values, masses))

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda: shift(make_discrete([(-1e308, 0.5), (1.7e308, 0.5)]), 5e307), "inf"),
            (lambda: shift(make_discrete([(-1.7e308, 0.5), (0.0, 0.5)]), -5e307), "-inf"),
            (lambda: scale(make_discrete([(1.0, 0.5), (1e300, 0.5)]), 1e10), "inf"),
            (lambda: add_independent(make_discrete([(0.0, 0.5), (1.7e308, 0.5)]), make_discrete([(0.0, 0.5), (1e308, 0.5)])), "inf"),
        ],
    )
    def test_overflow_raises_the_loop_error_without_warning(self, build, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert raised(build) == (ValueError, f"non-finite support value {value}")

    @pytest.mark.parametrize("values, masses", [(("1.5",), (1.0,)), ((0.0,), ("1",)), (((0.0, 1.0),), (1.0,)), (3.0, 1.0)])
    def test_text_and_nested_input_is_refused(self, values, masses):
        # the element-wise checks raised TypeError for these
        with pytest.raises(TypeError):
            Discrete(values, masses)

    def test_caller_arrays_are_copied_and_the_support_is_read_only(self):
        values, masses = np.array([0.0, 1.0]), np.array([0.25, 0.75])
        x = Discrete(values, masses)
        ce = certain_equivalent(x, 0.5)
        values[0], masses[:] = -5.0, 0.5
        assert x.values == (0.0, 1.0) and x.masses == (0.25, 0.75)
        assert certain_equivalent(x, 0.5) == ce
        for a in x._support:
            assert a.dtype == np.float64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.values = (0.0,)

    def test_given_tuples_are_kept_and_array_supports_build_theirs_once(self):
        values, masses = (0, 1), (0.5, 0.5)
        x = Discrete(values, masses)
        assert x.values is values and x.masses is masses
        moved = shift(x, 1.0)
        assert "values" not in moved.__dict__ and moved._support[1] is x._support[1]
        assert moved.values is moved.values == (1.0, 2.0)
        assert repr(moved) == "Discrete(values=(1.0, 2.0), masses=(0.5, 0.5))"

    def test_wide_round_builds_no_per_point_tuples(self):
        # a wide_support round: convolutions of 3-4 factors up to 5e4 points, their shifts, CEs, curves, stats, envelopes
        rng = np.random.default_rng(17)
        pool, sums = [], []
        for sizes in ([10, 10, 100], [8, 10, 625], [6, 7, 8, 50]):
            out = None
            for n in sizes:
                w = rng.uniform(0.02, 1.0, n)
                factor = make_discrete(zip(rng.uniform(-20, 40, n).tolist(), (w / w.sum()).tolist()))
                out = factor if out is None else add_independent(out, factor)
                sums.append(out)
            pool.append(out)
        assert [len(p._support[0]) for p in pool] == [10_000, 50_000, 16_800]
        shifted = [shift(p, gap) for p, gap in zip(pool, (0.0, 0.5, -0.5))]
        derived = sums[1:3] + sums[4:6] + sums[7:] + shifted + [scale(p, 2.0) for p in pool]
        for p in derived:
            certain_equivalent(p, 0.03)
            flexibility_curve(p, 0.01, np.geomspace(1.0, 8.0, 25).tolist())
            stats(p)
        upper_envelope([(f"w{i}", p) for i, p in enumerate(shifted)], 0.01, (2.0, 2.2))
        assert all("values" not in p.__dict__ and "masses" not in p.__dict__ for p in derived)

