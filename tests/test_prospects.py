import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexcurve import (
    Affine,
    Discrete,
    Gaussian,
    IndependentSum,
    add_independent,
    log_mgf,
    make_discrete,
    make_gaussian,
    scale,
    shift,
    stats,
)
from flexcurve.prospects import _LSE_BLOCK_ELEMENTS, _logsumexp

from conftest import random_discrete


def discrete_strategy(max_size=6):
    pair = st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=0.05, max_value=1.0),
    )
    return st.lists(pair, min_size=1, max_size=max_size).map(
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

    @given(discrete_strategy(), st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_zero_at_origin_and_convexity(self, x, t):
        # renormalized masses can miss 1 by one ulp, so at the origin the
        # log-MGF is zero only up to that rounding
        assert log_mgf(x, 0.0) == pytest.approx(0.0, abs=1e-16 * len(x.values))
        t1, t2 = sorted((t, t / 3 - 1.0))
        mid = log_mgf(x, (t1 + t2) / 2)
        assert mid <= (log_mgf(x, t1) + log_mgf(x, t2)) / 2 + 1e-12


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
        got = _logsumexp(np.asarray(ts), values, weights)
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
            batched = _logsumexp(ts, values, weights)
            single = [_logsumexp(ts[i : i + 1], values, weights)[0] for i in range(rows)]
            assert batched.tolist() == single

    def test_overflow_on_negative_infinite_exponent(self):
        # exp(-inf) would contribute 0, but the exponent itself is out of range
        with pytest.raises(OverflowError, match="t\\*value"):
            _logsumexp(np.asarray([-1e10]), np.asarray([0.0, 1e300]), np.asarray([0.5, 0.5]))


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

    def test_independent_sum_worst_case(self):
        out = add_independent(make_gaussian(0, 1), make_discrete([(3, 1.0)]))
        assert stats(out).worst_case == -math.inf
