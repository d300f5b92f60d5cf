import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexcurve import (
    Affine,
    FlexibilityCurve,
    IndependentSum,
    add_independent,
    certain_equivalent,
    flexibility_curve,
    make_discrete,
    make_gaussian,
    mean_variance_approximation,
    money_of_utility,
    scale,
    shift,
    stats,
    utility_of_money,
)
from flexcurve.valuation import _certain_equivalents

from conftest import expected_utility_ce, random_discrete


def discretes(max_size=8):
    """Discrete prospects with arbitrary float masses."""
    pair = st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    return st.lists(pair, min_size=1, max_size=max_size).map(
        lambda pairs: make_discrete([(v, m / math.fsum(p[1] for p in pairs)) for v, m in pairs])
    )


gaussians = st.builds(
    make_gaussian,
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=0.0, max_value=400.0),
)
affines = st.builds(
    Affine,
    st.one_of(discretes(), gaussians),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-50, max_value=50),
)
lazy_sums = st.builds(
    lambda terms: IndependentSum(tuple(terms)),
    st.lists(st.one_of(discretes(4), gaussians, affines), min_size=2, max_size=4),
)


class TestUtilityPair:
    @pytest.mark.parametrize("r", [0.0, 0.01, 0.5, 2.0])
    def test_anchor_zero(self, r):
        assert utility_of_money(0.0, r) == 0.0

    @pytest.mark.parametrize("r", [0.01, 0.5, 2.0])
    def test_anchor_one(self, r):
        assert utility_of_money(1.0, r) == pytest.approx(1.0, abs=1e-14)

    def test_risk_neutral_is_linear(self):
        assert utility_of_money(3.7, 0.0) == 3.7
        assert money_of_utility(-2.5, 0.0) == -2.5

    def test_inverse_anchors(self):
        for r in (0.05, 1.0):
            assert money_of_utility(0.0, r) == 0.0
            assert money_of_utility(1.0, r) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        x, r = -3.7, 0.2
        back = money_of_utility(utility_of_money(x, r), r)
        assert back == pytest.approx(x, rel=1e-10)

    def test_round_trip_sweep(self, rng):
        for _ in range(100):
            r = float(rng.uniform(1e-4, 2.0))
            # keep r*x modest: the utility approaches its supremum as
            # exp(-r*x), so the inverse loses digits past that point
            x = float(rng.uniform(-200, min(200.0, 15.0 / r)))
            assert money_of_utility(utility_of_money(x, r), r) == pytest.approx(
                x, rel=1e-9, abs=1e-8
            )

    def test_rejects_utility_above_range(self):
        r = 0.5
        sup = 1.0 / -math.expm1(-r)
        with pytest.raises(ValueError):
            money_of_utility(sup, r)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            utility_of_money(-1e6, 10.0)


class TestCertainEquivalent:
    def test_two_point_against_utility_oracle(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        ce = certain_equivalent(x, 0.01)
        assert ce == pytest.approx(expected_utility_ce(x, 0.01), abs=1e-9)
        assert ce == pytest.approx(37.9885493, abs=1e-4)

    def test_two_point_against_monte_carlo(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        r = 0.01
        draws = np.random.default_rng(7).choice([0.0, 100.0], size=10_000_000)
        mc = -math.log(np.exp(-r * draws).mean()) / r
        assert certain_equivalent(x, r) == pytest.approx(mc, abs=0.05)

    def test_gaussian_closed_form(self):
        assert certain_equivalent(make_gaussian(10, 4), 0.5) == pytest.approx(9.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.01, 1.0, 10.0])
    def test_deterministic_returns_value(self, r):
        assert certain_equivalent(make_discrete([(10, 1.0)]), r) == pytest.approx(10.0, abs=1e-12)

    def test_risk_neutral_limit_is_mean(self, rng):
        x = random_discrete(rng)
        assert certain_equivalent(x, 0.0) == stats(x).mean

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            certain_equivalent(make_gaussian(0, 1), -0.1)

    def test_delta_property(self, rng):
        for r in (0.01, 0.1, 1.0):
            for _ in range(30):
                x = random_discrete(rng)
                c = float(rng.uniform(-50, 50))
                lhs = certain_equivalent(shift(x, c), r)
                assert lhs == pytest.approx(certain_equivalent(x, r) + c, abs=1e-9)

    def test_linear_transformation_identity(self, rng):
        for r in (0.01, 0.1, 1.0):
            for _ in range(20):
                x, z = random_discrete(rng), random_discrete(rng)
                k = float(rng.uniform(1.0, 10.0))
                combined = add_independent(scale(x, k), z)
                lhs = certain_equivalent(combined, r)
                rhs = k * certain_equivalent(x, k * r) + certain_equivalent(z, r)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_never_above_mean(self, rng):
        for r in (0.0, 0.05, 1.0):
            x = random_discrete(rng)
            assert certain_equivalent(x, r) <= stats(x).mean + 1e-12


class TestMeanVarianceApproximation:
    def test_exact_for_gaussian(self):
        g = make_gaussian(10, 4)
        assert mean_variance_approximation(g, 0.5) == 9.0
        assert certain_equivalent(g, 0.5) == pytest.approx(9.0, abs=1e-12)

    def test_gaussian_exactness_sweep(self, rng):
        for _ in range(50):
            g = make_gaussian(float(rng.uniform(-50, 50)), float(rng.uniform(0, 100)))
            r = float(10 ** rng.uniform(-6, 1))
            ce = certain_equivalent(g, r)
            approx = mean_variance_approximation(g, r)
            assert abs(ce - approx) <= 1e-12 * (1 + abs(ce))

    def test_risk_neutral_gives_mean(self, rng):
        x = random_discrete(rng)
        assert mean_variance_approximation(x, 0.0) == stats(x).mean

    def test_small_r_quality(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        r = 0.001
        approx = mean_variance_approximation(x, r)
        exact = certain_equivalent(x, r)
        assert approx == pytest.approx(48.75, abs=1e-12)
        # third-central-moment correction bounds the gap at this scale
        assert abs(approx - exact) < 0.05


class TestBatchedCertainEquivalents:
    """The k-grid path must agree with scalar certain_equivalent pointwise."""

    @given(
        st.one_of(discretes(), gaussians, affines, lazy_sums),
        st.floats(min_value=1e-4, max_value=0.5),
        st.floats(min_value=1.0, max_value=1e3),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_grid_equals_scalar(self, prospect, r, k_hi, steps):
        ks = np.geomspace(1.0, k_hi, steps)
        batched = _certain_equivalents((prospect,), ks * r)[0]
        for k, ce in zip(ks, batched):
            assert ce == pytest.approx(certain_equivalent(prospect, k * r), rel=1e-12)

    def test_wide_support_spans_blocks(self, rng):
        values = rng.normal(0.0, 30.0, 50_000)
        masses = rng.uniform(0.1, 1.0, 50_000)
        x = make_discrete(zip(values.tolist(), (masses / masses.sum()).tolist()))
        ks = tuple(np.geomspace(1.0, 200.0, 24))
        curve = flexibility_curve(x, 0.01, ks)
        for k, ce in zip(ks, curve.ces):
            assert ce == pytest.approx(certain_equivalent(x, k * 0.01), rel=1e-12)

    @pytest.mark.parametrize(
        "prospect",
        [
            make_discrete([(-1e308, 0.5), (0.0, 0.5)]),
            make_gaussian(0.0, 1e307),
            IndependentSum((make_discrete([(-1e308, 0.5), (0.0, 0.5)]), make_gaussian(0, 1))),
        ],
    )
    def test_overflow_on_both_paths(self, prospect):
        with pytest.raises(OverflowError):
            certain_equivalent(prospect, 10.0)
        with pytest.raises(OverflowError):
            flexibility_curve(prospect, 10.0, (1.0, 2.0))


class TestNonFiniteCertainEquivalents:
    COIN = make_discrete([(0.0, 0.5), (100.0, 0.5)])

    def test_offset_past_the_float_range_raises(self):
        # the CE is about 1e308, but -ln E{exp(-rX)} holds 40 * 1e308
        x = Affine(self.COIN, 1.0, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"certain equivalent at r=40.0: .* out of floating-point range"):
                certain_equivalent(x, 40.0)
            with pytest.raises(OverflowError, match=r"certain equivalent for r in \[40.0, 80.0\]"):
                flexibility_curve(x, 40.0, (1.0, 2.0))

    @given(st.permutations(["fine", "reach", "scaled", "gaussian", "sum", "offset"]), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_first_prospect_in_order_names_the_error(self, kinds, count):
        # each of these raises on its own at r = 10, with its own message
        made = {
            "fine": self.COIN,
            "reach": make_discrete([(-1e308, 0.5), (0.0, 0.5)]),
            "scaled": IndependentSum((Affine(self.COIN, 1e307, 0.0), self.COIN)),
            "gaussian": make_gaussian(0.0, 1e307),
            "sum": IndependentSum((make_gaussian(0.0, 1e306), make_gaussian(0.0, 1e306))),
            "offset": Affine(self.COIN, 1.0, 1e308),
        }
        batch = [made[kind] for kind in kinds[:count]]
        rhos = np.asarray([10.0, 20.0])
        first = next((x for x in batch if x is not self.COIN), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if first is None:
                assert _certain_equivalents(batch, rhos).shape == (1, 2)
                return
            with pytest.raises(OverflowError) as alone:
                _certain_equivalents((first,), rhos)
            with pytest.raises(OverflowError) as packed:
                _certain_equivalents(batch, rhos)
        assert str(packed.value) == str(alone.value)


class TestFlexibilityCurve:
    def test_gaussian_curve_is_linear(self):
        mu, var, r = 10.0, 4.0, 0.5
        ks = tuple(np.geomspace(1, 10, 16))
        curve = flexibility_curve(make_gaussian(mu, var), r, ks, "G")
        for k, ce in curve.samples:
            assert ce == pytest.approx(mu - 0.5 * var * k * r, abs=1e-12)
        assert curve.tail_limit == -math.inf

    def test_deterministic_curve_is_constant(self):
        curve = flexibility_curve(make_discrete([(7, 1.0)]), 0.3, (1.0, 5.0, 50.0), "D")
        assert curve.ces == pytest.approx((7.0, 7.0, 7.0), abs=1e-12)
        assert curve.tail_limit == 7.0

    def test_large_k_asymptote(self):
        x = make_discrete([(0, 0.5), (100, 0.5)])
        curve = flexibility_curve(x, 0.01, (1000.0,), "X")
        assert curve.ces[0] == pytest.approx(math.log(2) / 10.0, abs=1e-6)

    def test_monotone_nonincreasing(self, rng):
        ks = tuple(np.geomspace(1, 100, 32))
        for _ in range(20):
            curve = flexibility_curve(random_discrete(rng), 0.05, ks)
            assert all(b <= a + 1e-9 for a, b in zip(curve.ces, curve.ces[1:]))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            flexibility_curve(make_gaussian(0, 1), 0.1, (2.0, 1.0))

    def test_invariant_enforced_on_construction(self):
        with pytest.raises(ValueError):
            FlexibilityCurve("bad", 0.1, (1.0, 2.0), (1.0, 2.0), -math.inf)

    def test_slack_scales_with_the_values_compared(self):
        # a rise of one ulp of 1e12, and an undershoot of the tail limit by one, pass
        FlexibilityCurve("ok", 0.1, (1.0, 2.0), (1e12, 1e12 + 1.220703125e-4), 1e12 - 1.220703125e-4)
        with pytest.raises(ValueError, match="nonincreasing"):
            FlexibilityCurve("bad", 0.1, (1.0, 2.0), (1e12, 1e12 + 2e3), -math.inf)
        with pytest.raises(ValueError, match="below the tail limit"):
            FlexibilityCurve("bad", 0.1, (1.0, 2.0), (1e12, 1e12 - 2e3), 1e12)
